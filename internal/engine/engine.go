// Package engine is the unified execution runtime behind every
// concurrent stage of the Figure 1 pipeline. The pipeline's domain
// workers, the crawler's fetch staging, the per-page segment+annotate
// fan-out, and the annotator's per-aspect fan-out all used to carry
// their own worker pools; they now all run through one audited
// implementation: a Stage[In, Out] with a bounded-concurrency Map
// runner, submission-order result delivery, a per-stage retry/backoff
// policy, and cancellation that drains cleanly (no goroutine outlives a
// Map call).
//
// Determinism is structural: Map writes results by submission index and
// delivers them in submission order, so a stage's output never depends
// on worker count or completion interleaving.
package engine

import (
	"context"
	"time"

	"aipan/internal/obs"
)

// Unbounded, as Policy.Workers, runs every item of a Map call
// concurrently (the per-call item count is the only bound). Use it for
// stages whose fan-out is already capped upstream, like the crawler's
// per-site page budget.
const Unbounded = -1

// Policy bounds a stage's concurrency and failure handling.
type Policy struct {
	// Workers is the maximum number of items in flight per Map call:
	// 0 runs serially, Unbounded (-1) runs all items concurrently.
	Workers int
	// Retries is how many times a failed item is re-attempted after its
	// first try (0 = no retries). Context cancellation is never retried.
	Retries int
	// Backoff is the pause before the first retry, doubling per attempt
	// (0 = retry immediately).
	Backoff time.Duration
}

// Stage is a named unit of concurrent work: a function from In to Out
// run under a Policy. A Stage is created once and reused; Map calls are
// safe to run concurrently (the crawler shares one fetch stage across
// all in-flight domains).
type Stage[In, Out any] struct {
	name  string
	pol   Policy
	fn    func(context.Context, In) (Out, error)
	met   *stageMetrics
	clock obs.Clock
}

// stageMetrics feeds the obs registry. All engine stages share four
// families, labeled by stage name, so a dashboard sees every pool
// through the same instruments.
type stageMetrics struct {
	queue    *obs.Gauge
	inflight *obs.Gauge
	dur      *obs.Histogram
	retries  *obs.Counter
	items    *obs.CounterVec // by result (ok, error)
}

func newStageMetrics(reg *obs.Registry, stage string) *stageMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	return &stageMetrics{
		queue: reg.GaugeVec("aipan_engine_queue_depth",
			"Items submitted to an engine stage and not yet dispatched to a worker.",
			"stage").With(stage),
		inflight: reg.GaugeVec("aipan_engine_inflight",
			"Items currently executing in an engine stage.", "stage").With(stage),
		dur: reg.HistogramVec("aipan_engine_item_duration_seconds",
			"Per-item wall time in an engine stage, including retries and backoff.",
			nil, "stage").With(stage),
		retries: reg.CounterVec("aipan_engine_retries_total",
			"Item re-attempts after a failed try, by stage.", "stage").With(stage),
		items: reg.CounterVec("aipan_engine_items_total",
			"Items completed by an engine stage, by stage and result.", "stage", "result"),
	}
}

// NewStage builds a reusable stage. reg routes the stage's metrics
// (nil = the process-wide default registry); name labels them.
func NewStage[In, Out any](reg *obs.Registry, name string, pol Policy,
	fn func(context.Context, In) (Out, error)) *Stage[In, Out] {
	return &Stage[In, Out]{name: name, pol: pol, fn: fn,
		met: newStageMetrics(reg, name), clock: obs.SystemClock}
}

// WithClock replaces the stage's time source for its duration metrics
// (default obs.SystemClock) and returns the stage for chaining. Item
// execution itself never reads the clock, so a frozen clock does not
// change stage semantics — only the recorded latencies.
func (s *Stage[In, Out]) WithClock(c obs.Clock) *Stage[In, Out] {
	s.clock = c
	return s
}

// Map runs fn over every item with at most Policy.Workers in flight and
// returns the results in submission order. It is StreamDeliver with the
// whole input as the window, so the two share one delivery loop and one
// contract. Failure contract: a failed item is retried per the Policy;
// once retries are exhausted its error is recorded but the remaining
// items still run — Map reports the lowest-index error after the whole
// stage drains. Cancellation contract: workers stop claiming items once
// ctx is done and the call returns ctx.Err() if any item was never
// executed; every started item runs to completion (fn observes the
// canceled ctx and is expected to return quickly), so no goroutine
// outlives the call.
func (s *Stage[In, Out]) Map(ctx context.Context, items []In) ([]Out, error) {
	out := make([]Out, len(items))
	err := s.StreamDeliver(ctx, len(items), len(items),
		func(i int) In { return items[i] },
		func(i int, o Out, _ error) { out[i] = o })
	return out, err
}

// runItem executes one item through the retry loop, recording latency
// and outcome.
func (s *Stage[In, Out]) runItem(ctx context.Context, item In) (Out, error) {
	s.met.inflight.Inc()
	start := s.clock()
	defer func() {
		s.met.inflight.Dec()
		s.met.dur.Observe(s.clock().Sub(start).Seconds())
	}()

	var out Out
	var err error
	for attempt := 0; ; attempt++ {
		out, err = s.fn(ctx, item)
		if err == nil || attempt >= s.pol.Retries || ctx.Err() != nil {
			break
		}
		s.met.retries.Inc()
		if !Sleep(ctx, s.pol.Backoff<<attempt) {
			break
		}
	}
	if err != nil {
		s.met.items.With(s.name, "error").Inc()
	} else {
		s.met.items.With(s.name, "ok").Inc()
	}
	return out, err
}

// Sleep pauses for d, returning false if ctx is canceled first (or if d
// elapses while ctx is already done). Unlike a bare time.After, the
// timer is released immediately on cancellation — at corpus scale a
// canceled run would otherwise strand one timer per in-flight backoff
// or politeness delay.
func Sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
