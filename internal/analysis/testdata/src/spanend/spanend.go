// Package spanend is the spanend checker's golden corpus; it starts
// spans against the real internal/obs tracing API.
package spanend

import (
	"context"
	"time"

	"aipan/internal/obs"
)

// deferred is the canonical shape: defer runs on every exit path.
func deferred(ctx context.Context) {
	ctx, span := obs.StartSpan(ctx, "deferred")
	defer span.End()
	_ = ctx
}

// straightLine ends the span in the same block with no return between —
// accepted, though defer is preferred.
func straightLine(ctx context.Context) {
	_, span := obs.StartSpanWith(ctx, "straight", obs.A("k", "v"))
	work()
	span.End()
}

// valueEnd keeps the duration End returns — still a straight-line end.
func valueEnd(ctx context.Context) time.Duration {
	_, span := obs.StartSpan(ctx, "value")
	work()
	d := span.End()
	return d
}

// closureEnd is the deferred-wrapper pattern the pipeline run span
// uses: End lives in a closure the function runs on every exit path.
func closureEnd(ctx context.Context) {
	_, span := obs.StartSpan(ctx, "closure")
	ended := false
	end := func() {
		if !ended {
			ended = true
			span.End()
		}
	}
	defer end()
	work()
}

// transfer returns the span, handing the End obligation to the caller
// (obs.StartSpan itself delegates to StartSpanWith this way).
func transfer(ctx context.Context) (context.Context, *obs.Span) {
	return obs.StartSpan(ctx, "transfer")
}

// insideLit starts and ends within one function literal.
func insideLit(ctx context.Context) func() {
	return func() {
		_, span := obs.StartSpan(ctx, "lit")
		defer span.End()
	}
}

func neverEnded(ctx context.Context) {
	_, span := obs.StartSpan(ctx, "leak") // want span "span" from obs.StartSpan is never ended
	_ = span
	work()
}

func blankSpan(ctx context.Context) {
	ctx, _ = obs.StartSpan(ctx, "blank") // want blank identifier and can never be ended
	_ = ctx
}

func discarded(ctx context.Context) {
	obs.StartSpan(ctx, "dropped") // want result of obs.StartSpan is discarded
}

// returnBetween has an early return between start and the straight-line
// End, so the error path leaks the span.
func returnBetween(ctx context.Context, fail bool) {
	_, span := obs.StartSpan(ctx, "early") // want not ended on all paths
	if fail {
		return
	}
	span.End()
}

// conditionalEnd only ends the span on one branch.
func conditionalEnd(ctx context.Context, ok bool) {
	_, span := obs.StartSpan(ctx, "branch") // want not ended on all paths
	if ok {
		span.End()
	}
	work()
}

func work() {}
