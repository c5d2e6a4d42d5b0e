package main

import (
	"bytes"
	"context"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aipan/internal/engine"
)

// The load generator is open-loop: request i is due at start + i/rate
// whatever happened to earlier requests, the way independent readers
// arrive. At most conns requests are in flight (one per connection), so
// a slow server makes due requests wait in the generator, and every
// latency is measured from the request's due time: a stall shows in the
// latency of every request scheduled behind it, not just the stalled
// one (no coordinated omission).

// loadSpec is one open-loop phase.
type loadSpec struct {
	rate  float64 // requests per second
	dur   time.Duration
	conns int
	// giveUp ends the phase early once this many requests are due but
	// unfinished: the rate has failed, and waiting longer proves nothing.
	// 0 never gives up.
	giveUp int
}

// outcome is one request's fate, times relative to the phase start.
type outcome struct {
	due, sent, done time.Duration
	ok              bool // 2xx or 304, and the response passed its check
}

// loadResult summarises a phase.
type loadResult struct {
	outcomes []outcome // completed requests, in completion order
	cut      bool      // the phase gave up
}

// sender sends request i and judges its response. It returns when the
// response was fully read (judging it comes after, off the clock) and
// whether the request succeeded.
type sender interface {
	send(ctx context.Context, client *http.Client, i int) (time.Time, bool)
}

// runOpenLoop runs one phase against client.
func runOpenLoop(ctx context.Context, client *http.Client, spec loadSpec, is sender) loadResult {
	total := int(spec.rate * spec.dur.Seconds())
	interval := float64(time.Second) / spec.rate
	var next, finished atomic.Int64
	var cut atomic.Bool
	var mu sync.Mutex
	res := loadResult{outcomes: make([]outcome, 0, total)}
	start := time.Now()

	grp, gctx := engine.NewGroup(ctx)
	for c := 0; c < spec.conns; c++ {
		grp.Go(func(context.Context) error {
			for {
				i := int(next.Add(1) - 1)
				if i >= total || cut.Load() {
					return nil
				}
				due := time.Duration(float64(i) * interval)
				if wait := due - time.Since(start); wait > 0 {
					if !engine.Sleep(gctx, wait) {
						return nil
					}
				}
				if spec.giveUp > 0 {
					behind := int(time.Since(start)/time.Duration(interval)) - int(finished.Load())
					if behind > spec.giveUp {
						cut.Store(true)
						return nil
					}
				}
				sent := time.Since(start)
				at, ok := is.send(gctx, client, i)
				done := at.Sub(start)
				finished.Add(1)
				mu.Lock()
				res.outcomes = append(res.outcomes, outcome{due: due, sent: sent, done: done, ok: ok})
				mu.Unlock()
			}
		})
	}
	_ = grp.Wait()
	res.cut = cut.Load()
	return res
}

// latencies returns each completed request's latency from its due time,
// in ms, sorted.
func (r loadResult) latencies() []float64 {
	out := make([]float64, len(r.outcomes))
	for i, o := range r.outcomes {
		out[i] = float64(o.done-o.due) / 1e6
	}
	sort.Float64s(out)
	return out
}

// windowQuantiles splits the phase into windows of the given length (by
// due time) and returns each window's q-quantile latency, in ms.
func (r loadResult) windowQuantiles(window time.Duration, q float64) []float64 {
	byWindow := map[int][]float64{}
	for _, o := range r.outcomes {
		w := int(o.due / window)
		byWindow[w] = append(byWindow[w], float64(o.done-o.due)/1e6)
	}
	var per []float64
	for _, lat := range byWindow {
		per = append(per, quantile(lat, q))
	}
	return per
}

// lateness is how late each request was sent, in ms, sorted.
func (r loadResult) lateness() []float64 {
	out := make([]float64, len(r.outcomes))
	for i, o := range r.outcomes {
		out[i] = float64(o.sent-o.due) / 1e6
	}
	sort.Float64s(out)
	return out
}

func (r loadResult) failures() int {
	n := 0
	for _, o := range r.outcomes {
		if !o.ok {
			n++
		}
	}
	return n
}

// maxOutstanding is the most requests that were due but not finished
// at any one time.
func (r loadResult) maxOutstanding() int {
	type ev struct {
		at    time.Duration
		delta int
	}
	evs := make([]ev, 0, 2*len(r.outcomes))
	for _, o := range r.outcomes {
		evs = append(evs, ev{o.due, +1}, ev{o.done, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].delta < evs[j].delta
	})
	cur, peak := 0, 0
	for _, e := range evs {
		cur += e.delta
		peak = max(peak, cur)
	}
	return peak
}

// backlogGrows reports whether the phase fell behind for good: the
// median count of due-but-unfinished requests, sampled across the
// second half of the phase, exceeds the first half's by more than slack.
func (r loadResult) backlogGrows(dur time.Duration, slack int) bool {
	if r.cut {
		return true
	}
	const samples = 20
	half := func(from time.Duration) float64 {
		counts := make([]float64, samples)
		for s := range counts {
			t := from + time.Duration(s)*dur/(2*samples)
			for _, o := range r.outcomes {
				if o.due <= t && o.done > t {
					counts[s]++
				}
			}
		}
		return median(counts)
	}
	return half(dur/2)-half(0) > float64(slack)
}

// bodyPool recycles response buffers, so the generator's own garbage
// collection stays out of the latencies it measures.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads a response body into a pooled buffer; the caller puts
// the buffer back with bodyPool.Put.
func readBody(resp *http.Response) (*bytes.Buffer, error) {
	defer resp.Body.Close()
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(resp.Body)
	return buf, err
}

// loadClient is an HTTP client holding at most conns connections.
func loadClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}
