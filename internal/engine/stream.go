package engine

import (
	"context"
	"sync"
)

// StreamDeliver is the engine's one delivery loop: it runs fn over n
// items produced on demand by item(i), with at most the stage's workers
// in flight, and retains at most window results at any moment. A worker
// may only claim item i once fewer than window items separate it from
// the delivery cursor, so producers can never run ahead of a slow sink
// — the back-pressure that keeps the pipeline's RSS flat at corpus
// scale. Results live in a ring buffer and each slot is zeroed as soon
// as its result is delivered.
//
// Delivery contract: deliver is invoked exactly once per executed item,
// serialized, in submission order — result i is delivered only after
// results 0..i-1, as soon as that prefix is complete. The pipeline
// streams checkpoint writes and progress ticks through it, which is
// what makes checkpoint files deterministic across worker counts.
// deliver runs under the stream's internal lock and must not call back
// into the stage. The error and cancellation contracts are Map's: a
// failed item is delivered and the stream keeps draining, with the
// lowest-index error returned at the end; cancellation stops workers
// from claiming new items and returns ctx.Err() if any item was never
// executed.
func (s *Stage[In, Out]) StreamDeliver(ctx context.Context, n, window int,
	item func(i int) In, deliver func(i int, out Out, err error)) error {
	if n == 0 {
		return nil
	}
	if window < 1 {
		window = 1
	}
	if window > n {
		window = n
	}
	workers := s.workers
	if workers == 0 {
		workers = 1
	}
	if workers < 0 || workers > n {
		workers = n
	}
	// More workers than window slots can never run concurrently: a
	// worker needs a free slot within the lookahead window to claim.
	if workers > window {
		workers = window
	}

	s.met.queue.Add(float64(n))
	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		next     int // next index to claim
		cursor   int // next index to deliver
		firstErr error
		ring     = make([]Out, window)
		errs     = make([]error, window)
		ready    = make([]bool, window)
	)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var zero Out
			for {
				mu.Lock()
				// Back-pressure: wait for the delivery cursor to free a
				// window slot. If every worker is waiting here, the head
				// item is claimed and running elsewhere, so a completion
				// (and its broadcast) is always coming — including after
				// cancellation, since fn observes the canceled ctx.
				for next-cursor >= window && ctx.Err() == nil {
					cond.Wait()
				}
				if ctx.Err() != nil || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				s.met.queue.Dec()
				out, err := s.runItem(ctx, item(i))

				mu.Lock()
				slot := i % window
				ring[slot], errs[slot], ready[slot] = out, err, true
				for cursor < n && ready[cursor%window] {
					cs := cursor % window
					if deliver != nil {
						deliver(cursor, ring[cs], errs[cs])
					}
					if errs[cs] != nil && firstErr == nil {
						firstErr = errs[cs]
					}
					// Zero the slot so a delivered result's memory is
					// reclaimable the moment the sink is done with it.
					ring[cs], errs[cs], ready[cs] = zero, nil, false
					cursor++
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	mu.Lock()
	dispatched := next
	err := firstErr
	mu.Unlock()
	s.met.queue.Add(float64(dispatched - n)) // unclaimed items leave the queue
	if cerr := ctx.Err(); cerr != nil && dispatched < n {
		return cerr
	}
	return err
}
