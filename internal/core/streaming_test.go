package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"aipan/internal/store"
)

// TestStoreBackedMatchesStoreless is the one-record-path contract:
// every run streams into a store. A run without a Store reads
// Result.Records back from its own, in study order; a run with one
// returns no records, and its store exports exactly the bytes the
// store-less run's records write, under the same funnel. The deprecated
// DiscardRecords changes neither.
func TestStoreBackedMatchesStoreless(t *testing.T) {
	run := func(workers int, st store.Store, discard bool) *Result {
		t.Helper()
		p, err := New(Config{Limit: 40, Workers: workers, Store: st, DiscardRecords: discard})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	storeless := run(8, nil, false)
	if len(storeless.Records) != 40 {
		t.Fatalf("store-less run returned %d records, want 40", len(storeless.Records))
	}
	for i := 1; i < len(storeless.Records); i++ {
		if storeless.Records[i-1].Domain >= storeless.Records[i].Domain {
			t.Fatalf("store-less records out of study order at %d: %s, %s",
				i, storeless.Records[i-1].Domain, storeless.Records[i].Domain)
		}
	}
	if discarded := run(2, nil, true); !reflect.DeepEqual(discarded, storeless) {
		t.Error("DiscardRecords changed a store-less run's result")
	}

	want := recordsJSONL(t, storeless.Records)
	for _, discard := range []bool{false, true} {
		st := store.NewMem()
		res := run(2, st, discard)
		if res.Records != nil {
			t.Errorf("DiscardRecords=%v: store-backed run returned %d records, want nil",
				discard, len(res.Records))
		}
		if res.Funnel != storeless.Funnel {
			t.Errorf("DiscardRecords=%v: funnel differs:\n  store-backed %+v\n  store-less   %+v",
				discard, res.Funnel, storeless.Funnel)
		}
		if got := storeJSONL(t, st); !bytes.Equal(got, want) {
			t.Errorf("DiscardRecords=%v: store export differs from the store-less run's records", discard)
		}
		if !reflect.DeepEqual(st.Records(), storeless.Records) {
			t.Errorf("DiscardRecords=%v: store records differ from the store-less run's", discard)
		}
	}
}

// TestScaledUniverseDeterministic smoke-tests the parameterized
// universe: a scaled corpus runs end to end and is deterministic across
// worker counts, same as the paper-sized one.
func TestScaledUniverseDeterministic(t *testing.T) {
	run := func(workers int) *Result {
		st := store.NewMem()
		p, err := New(Config{UniverseDomains: 400, Limit: 60, Workers: workers, Store: st})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := st.Len(); n != 60 {
			t.Fatalf("workers=%d: store holds %d records, want 60", workers, n)
		}
		return res
	}
	a, b := run(1), run(12)
	if a.Funnel != b.Funnel {
		t.Errorf("scaled universe funnel differs across worker counts:\n  w=1  %+v\n  w=12 %+v",
			a.Funnel, b.Funnel)
	}
	if a.Funnel.Domains != 60 {
		t.Errorf("scaled funnel covers %d domains, want 60", a.Funnel.Domains)
	}
	// The scaled universe is a different corpus, not a resample of the
	// paper's: domains past the paper-sized namespace must exist.
	p, err := New(Config{UniverseDomains: 400, Limit: 400, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Domains()); got != 400 {
		t.Errorf("scaled universe has %d domains, want 400", got)
	}
}

// progressTick is one recorded Progress callback.
type progressTick struct {
	stage       string
	done, total int
}

// TestProgressTicksMonotoneWithTerminal is the progress-contract
// regression test: on the streaming path, "process" ticks are strictly
// increasing with a constant total, and exactly one terminal
// (done == total) tick is delivered — whether the run does the work,
// resumes it all from a checkpoint, or is canceled early.
func TestProgressTicksMonotoneWithTerminal(t *testing.T) {
	checkTicks := func(t *testing.T, ticks []progressTick, total int) {
		t.Helper()
		if len(ticks) == 0 {
			t.Fatal("no progress ticks delivered")
		}
		prev := 0
		terminal := 0
		for i, tk := range ticks {
			if tk.stage != "process" {
				t.Fatalf("tick %d: stage %q, want process", i, tk.stage)
			}
			if tk.total != total {
				t.Fatalf("tick %d: total %d, want %d", i, tk.total, total)
			}
			if tk.done == total {
				terminal++
				continue
			}
			if tk.done <= prev {
				t.Fatalf("tick %d: done went %d -> %d, want strictly increasing", i, prev, tk.done)
			}
			prev = tk.done
		}
		if terminal != 1 {
			t.Fatalf("saw %d terminal (done == total) ticks, want exactly 1", terminal)
		}
		if last := ticks[len(ticks)-1]; last.done != total {
			t.Fatalf("final tick is (%d/%d), want the terminal tick last", last.done, last.total)
		}
	}

	record := func(ticks *[]progressTick) func(string, int, int) {
		return func(stage string, done, total int) {
			*ticks = append(*ticks, progressTick{stage, done, total})
		}
	}

	t.Run("fresh-run", func(t *testing.T) {
		var ticks []progressTick
		p, err := New(Config{Limit: 25, Workers: 2, Progress: record(&ticks)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if len(ticks) != 25 {
			t.Fatalf("fresh run delivered %d ticks, want 25", len(ticks))
		}
		checkTicks(t, ticks, 25)
	})

	t.Run("fully-resumed", func(t *testing.T) {
		st := store.NewMem()
		runWithStore(t, 4, st)
		var ticks []progressTick
		p, err := New(Config{Limit: 40, Workers: 4, Store: st, Progress: record(&ticks)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Nothing to do: the run still reports completion, exactly once.
		checkTicks(t, ticks, 40)
	})

	t.Run("canceled", func(t *testing.T) {
		var ticks []progressTick
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		p, err := New(Config{Limit: 30, Workers: 4, Store: store.NewMem(),
			Progress: func(stage string, done, total int) {
				ticks = append(ticks, progressTick{stage, done, total})
				if stage == "process" && done == 5 {
					cancel()
				}
			}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(ctx); err == nil {
			t.Fatal("canceled run should error")
		}
		checkTicks(t, ticks, 30)
	})
}
