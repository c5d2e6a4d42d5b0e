package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// getSender sends every request to one URL and accepts a 200.
type getSender struct{ url string }

func (g getSender) send(ctx context.Context, client *http.Client, _ int) (time.Time, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.url, nil)
	if err != nil {
		return time.Now(), false
	}
	resp, err := client.Do(req)
	if err != nil {
		return time.Now(), false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return time.Now(), resp.StatusCode == http.StatusOK
}

// TestLoadgenMeasuresFixedDelay: against a handler that always takes
// delay, the measured median is that delay plus a little overhead.
func TestLoadgenMeasuresFixedDelay(t *testing.T) {
	const delay = 5 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(delay)
		_, _ = io.WriteString(w, "ok")
	}))
	defer srv.Close()
	client := loadClient(2)
	defer client.CloseIdleConnections()

	res := runOpenLoop(context.Background(), client, loadSpec{rate: 100, dur: time.Second, conns: 2},
		getSender{srv.URL})
	if len(res.outcomes) != 100 || res.failures() != 0 {
		t.Fatalf("completed %d requests with %d failures, want 100 and 0", len(res.outcomes), res.failures())
	}
	p50 := quantileSorted(res.latencies(), 0.5)
	if p50 < float64(delay)/1e6 || p50 > float64(delay)/1e6+4 {
		t.Errorf("p50 = %.2f ms, want the handler's %v plus at most 4 ms", p50, delay)
	}
	if late := quantileSorted(res.lateness(), 0.5); late > 2 {
		t.Errorf("generator ran %.2f ms late at the median, want under 2 ms", late)
	}
}

// TestLoadgenStallShowsInLaterRequests: one stall of the whole server
// must show in the latency of every request due while it lasted — an
// open-loop generator times requests from their due time, so it does
// not hide the queue a stall builds (no coordinated omission).
func TestLoadgenStallShowsInLaterRequests(t *testing.T) {
	const (
		rate  = 200.0
		stall = 300 * time.Millisecond
	)
	var mu sync.Mutex // held for the stall: every request waits
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if n.Add(1) == 50 {
			mu.Lock()
			time.Sleep(stall)
			mu.Unlock()
		}
		mu.Lock() // waits out a stall in progress
		_, _ = io.WriteString(w, "ok")
		mu.Unlock()
	}))
	defer srv.Close()
	client := loadClient(2)
	defer client.CloseIdleConnections()

	res := runOpenLoop(context.Background(), client, loadSpec{rate: rate, dur: 1500 * time.Millisecond, conns: 2},
		getSender{srv.URL})
	lat := res.latencies()
	slow := 0
	for _, l := range lat {
		if l > 100 {
			slow++
		}
	}
	// Requests due in the first 200 ms of the stall each wait at least
	// 100 ms; a closed-loop measurement would charge the stall to the
	// two requests in flight only.
	if want := int(rate * 0.2 / 2); slow < want {
		t.Errorf("%d requests slower than 100 ms, want at least %d behind a %v stall", slow, want, stall)
	}
	if max := lat[len(lat)-1]; max < float64(stall)/1e6*0.9 {
		t.Errorf("slowest request took %.1f ms, want about the %v stall", max, stall)
	}
	if late := quantileSorted(res.lateness(), 0.99); late < 100 {
		t.Errorf("lateness p99 = %.1f ms: the generator should report running behind during the stall", late)
	}
	if res.maxOutstanding() < int(rate*0.2) {
		t.Errorf("max outstanding %d, want the stall's backlog of at least %d", res.maxOutstanding(), int(rate*0.2))
	}
}
