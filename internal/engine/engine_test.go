package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"aipan/internal/obs"
)

func newTestStage[In, Out any](t *testing.T, workers int,
	fn func(context.Context, In) (Out, error)) *Stage[In, Out] {
	t.Helper()
	return NewStage(obs.NewRegistry(), "test", workers, fn)
}

func TestMapZeroItems(t *testing.T) {
	st := newTestStage[int, int](t, 8, func(_ context.Context, v int) (int, error) {
		return v, nil
	})
	out, err := st.Map(context.Background(), nil)
	if err != nil {
		t.Fatalf("Map over zero items: %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("zero items produced %d results", len(out))
	}
}

func TestMapOrderedDeliveryMaxConcurrency(t *testing.T) {
	// Every item runs concurrently and later items finish first (item i
	// sleeps inversely to its index), the worst case for ordered
	// delivery: the head of the prefix completes last.
	const n = 48
	st := newTestStage[int, int](t, Unbounded, func(_ context.Context, v int) (int, error) {
		time.Sleep(time.Duration(n-v) * time.Millisecond / 4)
		return v * v, nil
	})
	out, err := st.Map(context.Background(), seq(n))
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	// The same run as Map makes it — the whole input as the window —
	// with the delivery order observed.
	var order []int
	if err := st.StreamDeliver(context.Background(), n, n, func(i int) int { return i },
		func(i int, v int, err error) {
			if err != nil {
				t.Errorf("item %d: unexpected error %v", i, err)
			}
			if v != i*i {
				t.Errorf("item %d delivered %d, want %d", i, v, i*i)
			}
			order = append(order, i)
		}); err != nil {
		t.Fatalf("StreamDeliver: %v", err)
	}
	if len(order) != n {
		t.Fatalf("delivered %d of %d items", len(order), n)
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("delivery order %v: position %d got index %d", order[:i+1], i, idx)
		}
	}
}

func TestMapSerialWhenWorkersZero(t *testing.T) {
	var inflight, maxInflight atomic.Int64
	st := newTestStage[int, int](t, 0, func(_ context.Context, v int) (int, error) {
		cur := inflight.Add(1)
		defer inflight.Add(-1)
		if cur > maxInflight.Load() {
			maxInflight.Store(cur)
		}
		time.Sleep(time.Millisecond)
		return v, nil
	})
	if _, err := st.Map(context.Background(), seq(10)); err != nil {
		t.Fatalf("Map: %v", err)
	}
	if maxInflight.Load() != 1 {
		t.Fatalf("Workers=0 ran %d items concurrently, want serial", maxInflight.Load())
	}
}

// TestMapErrorAfterRetriesExhausted: a stage has no retries, so an
// item's first failure is final. Every item runs exactly once, the
// lowest-index error wins, the healthy items still run, and each failed
// item's own error is delivered.
func TestMapErrorAfterRetriesExhausted(t *testing.T) {
	attempts := make([]atomic.Int64, 8)
	boom := errors.New("boom")
	st := newTestStage[int, int](t, 4, func(_ context.Context, v int) (int, error) {
		attempts[v].Add(1)
		if v == 3 || v == 6 {
			return 0, fmt.Errorf("item %d: %w", v, boom)
		}
		return v + 1, nil
	})
	out, err := st.Map(context.Background(), seq(8))
	if !errors.Is(err, boom) {
		t.Fatalf("Map error = %v, want wrapped boom", err)
	}
	// The lowest-index failure wins, and the rest of the stage still ran.
	if got := err.Error(); got != "item 3: boom" {
		t.Fatalf("Map returned %q, want the lowest-index error", got)
	}
	for i := 0; i < 8; i++ {
		if attempts[i].Load() != 1 {
			t.Fatalf("item %d ran %d times, want once", i, attempts[i].Load())
		}
		if i != 3 && i != 6 && out[i] != i+1 {
			t.Fatalf("out[%d] = %d, want %d (healthy items must still run)", i, out[i], i+1)
		}
	}

	// Each failed item's own error reaches the delivery callback.
	var delivered []error
	err = st.StreamDeliver(context.Background(), 8, 3, func(i int) int { return i },
		func(_ int, _ int, err error) { delivered = append(delivered, err) })
	if err == nil || err.Error() != "item 3: boom" {
		t.Fatalf("StreamDeliver returned %v, want the lowest-index error", err)
	}
	if len(delivered) != 8 || delivered[3] == nil || delivered[6] == nil || delivered[0] != nil {
		t.Fatalf("per-item errors not delivered: %v", delivered)
	}
}

func TestMapCancellationDrainsCleanly(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 4)
	var executed atomic.Int64
	st := newTestStage[int, int](t, 4, func(ctx context.Context, v int) (int, error) {
		started <- struct{}{}
		executed.Add(1)
		<-ctx.Done() // simulate an item in flight when the run is canceled
		return v, nil
	})
	done := make(chan error, 1)
	go func() {
		_, err := st.Map(ctx, seq(64))
		done <- err
	}()
	for i := 0; i < 4; i++ {
		<-started // all four workers are mid-item
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Map after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Map did not drain after cancellation")
	}
	if n := executed.Load(); n >= 64 {
		t.Fatalf("cancellation did not stop dispatch: %d items executed", n)
	}
	// Every worker goroutine must have exited: poll until the count
	// returns to the pre-Map baseline (the runtime needs a moment).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked by canceled Map: %d before, %d after", before, now)
	}
}

func TestMapCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var executed atomic.Int64
	st := newTestStage[int, int](t, 2, func(_ context.Context, v int) (int, error) {
		executed.Add(1)
		return v, nil
	})
	_, err := st.Map(ctx, seq(8))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Map on canceled ctx = %v, want context.Canceled", err)
	}
	if executed.Load() != 0 {
		t.Fatalf("%d items ran under an already-canceled context", executed.Load())
	}
}

func TestLimiter(t *testing.T) {
	l := NewLimiter(2)
	if l.Cap() != 2 {
		t.Fatalf("Cap = %d, want 2", l.Cap())
	}
	ctx := context.Background()
	if err := l.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	// The limiter is full: a third Acquire must block until Release.
	acquired := make(chan struct{})
	go func() {
		if err := l.Acquire(ctx); err == nil {
			close(acquired)
		}
	}()
	select {
	case <-acquired:
		t.Fatal("Acquire succeeded beyond the limiter's capacity")
	case <-time.After(20 * time.Millisecond):
	}
	l.Release()
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("Acquire did not proceed after Release")
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if err := l.Acquire(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire on canceled ctx = %v, want context.Canceled", err)
	}
}

func TestLimiterTryAcquire(t *testing.T) {
	l := NewLimiter(2)
	if !l.TryAcquire() || !l.TryAcquire() {
		t.Fatal("TryAcquire failed with free slots")
	}
	if l.InUse() != 2 {
		t.Fatalf("InUse = %d, want 2", l.InUse())
	}
	// Full: a third try must shed, not block.
	if l.TryAcquire() {
		t.Fatal("TryAcquire succeeded beyond capacity")
	}
	l.Release()
	if !l.TryAcquire() {
		t.Fatal("TryAcquire failed after Release freed a slot")
	}
	l.Release()
	l.Release()
	if l.InUse() != 0 {
		t.Fatalf("InUse after full release = %d, want 0", l.InUse())
	}
}

func TestSleep(t *testing.T) {
	if !Sleep(context.Background(), time.Microsecond) {
		t.Fatal("Sleep returned false without cancellation")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if Sleep(ctx, time.Hour) {
		t.Fatal("Sleep ignored a canceled context")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Sleep took %v to notice cancellation", elapsed)
	}
	if Sleep(ctx, 0) {
		t.Fatal("zero-duration Sleep must still report a canceled context")
	}
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
