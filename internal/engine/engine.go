// Package engine is the unified execution runtime behind every
// concurrent stage of the Figure 1 pipeline. The pipeline's domain
// workers, the crawler's fetch staging and the annotator's per-aspect
// fan-out all used to carry their own worker pools; they now all run
// through one audited implementation: a Stage[In, Out] with a
// bounded-concurrency Map runner, submission-order result delivery, and
// cancellation that drains cleanly (no goroutine outlives a Map call).
// A stage does not time its items: the spans its functions start do
// (DESIGN.md §9).
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

// Unbounded, as a stage's worker count, runs every item of a Map call
// concurrently (the per-call item count is the only bound). Use it for
// stages whose fan-out is already capped upstream, like the crawler's
// per-site page budget.
const Unbounded = -1

// Stage is a named unit of concurrent work: a function from In to Out
// run by at most workers goroutines per call. A Stage is created once
// and reused; Map calls are safe to run concurrently (the crawler
// shares one fetch stage across all in-flight domains).
type Stage[In, Out any] struct {
	name    string
	workers int
	fn      func(context.Context, In) (Out, error)
	met     *stageMetrics
}

// stageMetrics feeds the obs registry. All engine stages share three
// families, labeled by stage name, so a dashboard sees every pool
// through the same instruments.
type stageMetrics struct {
	queue    *obs.Gauge
	inflight *obs.Gauge
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
		items: reg.CounterVec("aipan_engine_items_total",
			"Items completed by an engine stage, by stage and result.", "stage", "result"),
	}
}

// NewStage builds a reusable stage running at most workers items per
// Map call: 0 runs serially, Unbounded (-1) runs all items
// concurrently. reg routes the stage's metrics (nil = the process-wide
// default registry); name labels them.
func NewStage[In, Out any](reg *obs.Registry, name string, workers int,
	fn func(context.Context, In) (Out, error)) *Stage[In, Out] {
	return &Stage[In, Out]{name: name, workers: workers, fn: fn,
		met: newStageMetrics(reg, name)}
}

// Map runs fn over every item with at most the stage's workers in
// flight and returns the results in submission order. It is
// StreamDeliver with the whole input as the window, so the two share
// one delivery loop and one contract. Failure contract: each item runs
// once; a failed item's error is recorded but the remaining items still
// run — Map reports the lowest-index error after the whole stage
// drains. Cancellation contract: workers stop claiming items once
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

// runItem executes one item, recording its outcome.
func (s *Stage[In, Out]) runItem(ctx context.Context, item In) (Out, error) {
	s.met.inflight.Inc()
	defer s.met.inflight.Dec()
	out, err := s.fn(ctx, item)
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
