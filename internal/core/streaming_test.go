package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"aipan/internal/store"
)

// TestDiscardRecordsMatchesRetained is the constant-memory contract:
// a DiscardRecords run keeps no record slice, yet its funnel and its
// store-side export must be byte-identical to a retained run's — the
// streaming path changes memory shape, never results.
func TestDiscardRecordsMatchesRetained(t *testing.T) {
	dir := t.TempDir()

	retainedStore := store.NewMem()
	retained := runWithStore(t, 8, retainedStore)
	if retained.Records == nil {
		t.Fatal("retained run returned no records")
	}

	discardStore := store.NewMem()
	p, err := New(Config{Limit: 40, Workers: 2, Store: discardStore, DiscardRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	discarded, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if discarded.Records != nil {
		t.Errorf("DiscardRecords run retained %d records, want nil", len(discarded.Records))
	}
	if discarded.Funnel != retained.Funnel {
		t.Errorf("funnel differs under DiscardRecords:\n  streaming %+v\n  retained  %+v",
			discarded.Funnel, retained.Funnel)
	}

	// The store is the dataset: both runs export the same bytes.
	retPath := filepath.Join(dir, "retained.jsonl")
	disPath := filepath.Join(dir, "discarded.jsonl")
	if err := store.SaveJSONL(retPath, retainedStore); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveJSONL(disPath, discardStore); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(retPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(disPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(got) {
		t.Error("store export differs between retained and DiscardRecords runs")
	}
}

// TestScaledUniverseDeterministic smoke-tests the parameterized
// universe: a scaled corpus runs end to end and is deterministic across
// worker counts, same as the paper-sized one.
func TestScaledUniverseDeterministic(t *testing.T) {
	run := func(workers int) *Result {
		st := store.NewMem()
		p, err := New(Config{UniverseDomains: 400, Limit: 60, Workers: workers,
			Store: st, DiscardRecords: true})
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
