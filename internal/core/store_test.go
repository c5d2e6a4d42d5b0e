package core

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"aipan/internal/store"
)

// runWithStore runs a Limit-40 pipeline against the given store (nil =
// no persistence) and returns the result.
func runWithStore(t *testing.T, workers int, st store.Store) *Result {
	t.Helper()
	p, err := New(Config{Limit: 40, Workers: workers, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPipelineDeterminismAcrossStoreBackends is the tentpole acceptance
// bar: Result.Records and the funnel must be identical for every
// (worker count × store backend) combination — the storage layer and
// the engine's scheduling must never leak into the dataset.
func TestPipelineDeterminismAcrossStoreBackends(t *testing.T) {
	baseline := runWithStore(t, 1, nil)
	wantRecords, err := json.Marshal(baseline.Records)
	if err != nil {
		t.Fatal(err)
	}

	backends := func(t *testing.T) map[string]store.Store {
		dir := t.TempDir()
		js, err := store.OpenJSONL(dir + "/ck.jsonl")
		if err != nil {
			t.Fatal(err)
		}
		bn, err := store.OpenBinary(dir+"/bins", 4)
		if err != nil {
			t.Fatal(err)
		}
		return map[string]store.Store{"jsonl": js, "binary4": bn, "mem": store.NewMem()}
	}
	for _, workers := range []int{1, 16} {
		for name, st := range backends(t) {
			res := runWithStore(t, workers, st)
			if res.Funnel != baseline.Funnel {
				t.Errorf("workers=%d store=%s: funnel differs from baseline:\n  got  %+v\n  want %+v",
					workers, name, res.Funnel, baseline.Funnel)
			}
			got, err := json.Marshal(res.Records)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(wantRecords) {
				t.Errorf("workers=%d store=%s: records differ from baseline", workers, name)
			}
			// The store captured every record, and exporting it yields the
			// same bytes regardless of backend.
			if n, err := st.Len(); err != nil || n != len(res.Records) {
				t.Errorf("workers=%d store=%s: store holds %d records (err=%v), want %d",
					workers, name, n, err, len(res.Records))
			}
			st.Close()
		}
	}
}

// TestSeedStampRefusesMismatchedResume covers the checkpoint-safety
// satellite: a store written under one seed must refuse to resume under
// another, on every backend that carries metadata.
func TestSeedStampRefusesMismatchedResume(t *testing.T) {
	dir := t.TempDir()
	js, err := store.OpenJSONL(dir + "/ck.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	sh, err := store.OpenBinary(dir+"/bins", 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]store.Store{"jsonl": js, "sharded": sh, "mem": store.NewMem()} {
		t.Run(name, func(t *testing.T) {
			p, err := New(Config{Limit: 3, Workers: 2, Store: st})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Run(context.Background()); err != nil {
				t.Fatal(err)
			}

			// Same store, different seed: refused before any processing.
			p2, err := New(Config{Limit: 3, Workers: 2, Seed: 99, Store: st})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p2.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "seed") {
				t.Fatalf("mismatched-seed resume: err = %v, want a seed refusal", err)
			}

			// Same seed resumes fine.
			p3, err := New(Config{Limit: 3, Workers: 2, Store: st})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p3.Run(context.Background()); err != nil {
				t.Fatalf("same-seed resume: %v", err)
			}
			st.Close()
		})
	}
}

// runCheckpointed runs cfg against a JSONL checkpoint at path, opened
// for this run alone and closed after it — the way each `aipan run
// --checkpoint` invocation reopens its checkpoint.
func runCheckpointed(ctx context.Context, t *testing.T, path string, cfg Config) (*Result, error) {
	t.Helper()
	st, err := store.OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg.Store = st
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p.Run(ctx)
}

// TestSeedMismatchOnCheckpointPath exercises the same refusal on a JSONL
// checkpoint reopened for each run (the stamp lives in its sidecar).
func TestSeedMismatchOnCheckpointPath(t *testing.T) {
	ckpt := t.TempDir() + "/ck.jsonl"
	if _, err := runCheckpointed(context.Background(), t, ckpt, Config{Limit: 3, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	_, err := runCheckpointed(context.Background(), t, ckpt, Config{Limit: 3, Workers: 2, Seed: 77})
	if err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("mismatched-seed checkpoint resume: err = %v, want a seed refusal", err)
	}
}

// TestShardedResumeAfterCancel is the resume-after-cancel acceptance
// check on the sharded binary:N backend: cancel mid-run, reopen the
// shard directory, finish, and the stitched dataset matches a clean run.
func TestShardedResumeAfterCancel(t *testing.T) {
	const limit = 30
	dir := t.TempDir() + "/bins"

	st1, err := store.OpenBinary(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p1, err := New(Config{Limit: limit, Workers: 4, Store: st1,
		Progress: func(stage string, done, total int) {
			if stage == "process" && done >= 10 {
				cancel()
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Run(ctx); err == nil {
		t.Fatal("canceled run should return an error")
	}
	st1.Close()

	st2, err := store.OpenBinary(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	prior, err := st2.Len()
	if err != nil {
		t.Fatal(err)
	}
	if prior == 0 || prior >= limit {
		t.Fatalf("shard store has %d records after cancel, want 1..%d", prior, limit-1)
	}
	reprocessed := 0
	p2, err := New(Config{Limit: limit, Workers: 4, Store: st2,
		Progress: func(stage string, done, total int) {
			if stage == "process" {
				reprocessed++
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := p2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st2.Close()
	if want := limit - prior; reprocessed != want {
		t.Errorf("resume reprocessed %d domains, want %d", reprocessed, want)
	}

	p3, err := New(Config{Limit: limit, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := p3.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Funnel != clean.Funnel {
		t.Errorf("funnel differs after sharded resume:\n  resumed: %+v\n  clean:   %+v",
			resumed.Funnel, clean.Funnel)
	}
	for i := range clean.Records {
		a, _ := json.Marshal(resumed.Records[i])
		b, _ := json.Marshal(clean.Records[i])
		if string(a) != string(b) {
			t.Errorf("record %d (%s) differs after sharded resume", i, clean.Records[i].Domain)
		}
	}
}
