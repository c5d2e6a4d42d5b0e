package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aipan/internal/obs"
)

// TestStreamDeliverOrderAndCompleteness: every item is delivered exactly
// once, in submission order, for a range of worker counts and windows.
func TestStreamDeliverOrderAndCompleteness(t *testing.T) {
	const n = 500
	for _, workers := range []int{1, 3, 8, Unbounded} {
		for _, window := range []int{1, 2, 7, 64, n + 10} {
			st := NewStage(obs.NewRegistry(), "t", workers,
				func(_ context.Context, i int) (int, error) { return i * 2, nil })
			var got []int
			err := st.StreamDeliver(context.Background(), n, window,
				func(i int) int { return i },
				func(i, out int, err error) {
					if err != nil {
						t.Fatalf("unexpected item error: %v", err)
					}
					if out != i*2 {
						t.Fatalf("item %d delivered out %d", i, out)
					}
					got = append(got, i)
				})
			if err != nil {
				t.Fatalf("workers=%d window=%d: %v", workers, window, err)
			}
			if len(got) != n {
				t.Fatalf("workers=%d window=%d: delivered %d of %d", workers, window, len(got), n)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("delivery out of order at %d: got %d", i, v)
				}
			}
		}
	}
}

// TestStreamDeliverBackPressure: no item may start while it is a full
// window ahead of the delivery cursor, so at most `window` results are
// ever outstanding.
func TestStreamDeliverBackPressure(t *testing.T) {
	const n, window = 200, 8
	var mu sync.Mutex
	delivered := 0
	var maxAhead atomic.Int64
	st := NewStage(obs.NewRegistry(), "t", 16,
		func(_ context.Context, i int) (int, error) {
			mu.Lock()
			ahead := int64(i - delivered)
			mu.Unlock()
			for {
				cur := maxAhead.Load()
				if ahead <= cur || maxAhead.CompareAndSwap(cur, ahead) {
					break
				}
			}
			return i, nil
		})
	err := st.StreamDeliver(context.Background(), n, window,
		func(i int) int { return i },
		func(i, _ int, _ error) {
			mu.Lock()
			delivered = i + 1
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := maxAhead.Load(); got >= window {
		t.Fatalf("item started %d ahead of the delivery cursor; window is %d", got, window)
	}
}

// TestStreamDeliverErrorDrain: a failing item is delivered with its
// error, the stream drains every remaining item, and the lowest-index
// error is returned.
func TestStreamDeliverErrorDrain(t *testing.T) {
	const n = 50
	boom7 := errors.New("boom 7")
	boom3 := errors.New("boom 3")
	st := NewStage(obs.NewRegistry(), "t", 4,
		func(_ context.Context, i int) (int, error) {
			switch i {
			case 7:
				return 0, boom7
			case 3:
				return 0, boom3
			}
			return i, nil
		})
	delivered := 0
	errSeen := map[int]error{}
	err := st.StreamDeliver(context.Background(), n, 4,
		func(i int) int { return i },
		func(i, _ int, err error) {
			delivered++
			if err != nil {
				errSeen[i] = err
			}
		})
	if !errors.Is(err, boom3) {
		t.Fatalf("want lowest-index error boom3, got %v", err)
	}
	if delivered != n {
		t.Fatalf("stream did not drain: delivered %d of %d", delivered, n)
	}
	if errSeen[3] == nil || errSeen[7] == nil {
		t.Fatalf("item errors not delivered: %v", errSeen)
	}
}

// TestStreamDeliverCancellation: cancellation mid-stream stops claiming,
// returns ctx.Err(), delivers a contiguous prefix, and leaks nothing
// (the call returns promptly even with all workers blocked on the
// window).
func TestStreamDeliverCancellation(t *testing.T) {
	const n = 1000
	ctx, cancel := context.WithCancel(context.Background())
	st := NewStage(obs.NewRegistry(), "t", 8,
		func(ctx context.Context, i int) (int, error) {
			if i == 20 {
				cancel()
			}
			select {
			case <-ctx.Done():
			case <-time.After(time.Millisecond):
			}
			return i, nil
		})
	last := -1
	done := make(chan error, 1)
	go func() {
		done <- st.StreamDeliver(ctx, n, 4,
			func(i int) int { return i },
			func(i, _ int, _ error) {
				if i != last+1 {
					panic(fmt.Sprintf("non-contiguous delivery: %d after %d", i, last))
				}
				last = i
			})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("StreamDeliver did not return after cancellation")
	}
	if last >= n-1 {
		t.Fatal("cancellation did not stop the stream early")
	}
}

// TestMapMatchesStreamDeliver: for the same inputs, Map's results are
// the sequence a window-16 stream delivers.
func TestMapMatchesStreamDeliver(t *testing.T) {
	const n = 300
	mk := func() *Stage[int, string] {
		return NewStage(obs.NewRegistry(), "t", 6,
			func(_ context.Context, i int) (string, error) {
				return fmt.Sprintf("v%d", i*i), nil
			})
	}
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	fromMap, err := mk().Map(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	var fromStream []string
	if err := mk().StreamDeliver(context.Background(), n, 16,
		func(i int) int { return items[i] },
		func(_ int, out string, _ error) { fromStream = append(fromStream, out) }); err != nil {
		t.Fatal(err)
	}
	if len(fromMap) != len(fromStream) {
		t.Fatalf("length mismatch: %d vs %d", len(fromMap), len(fromStream))
	}
	for i := range fromMap {
		if fromMap[i] != fromStream[i] {
			t.Fatalf("delivery %d differs: %q vs %q", i, fromMap[i], fromStream[i])
		}
	}
}

// TestStreamDeliverZeroItems: n == 0 returns immediately.
func TestStreamDeliverZeroItems(t *testing.T) {
	st := NewStage(obs.NewRegistry(), "t", 4,
		func(_ context.Context, i int) (int, error) { return i, nil })
	if err := st.StreamDeliver(context.Background(), 0, 8,
		func(i int) int { return i },
		func(int, int, error) { t.Fatal("deliver called for empty stream") }); err != nil {
		t.Fatal(err)
	}
}
