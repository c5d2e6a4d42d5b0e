package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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

// recordsJSONL returns the bytes WriteJSONL writes for recs.
func recordsJSONL(t *testing.T, recs []store.Record) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "records.jsonl")
	if err := store.WriteJSONL(path, recs); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// storeJSONL returns the bytes SaveJSONL exports from st.
func storeJSONL(t *testing.T, st store.Store) []byte {
	t.Helper()
	return exportAll(t, st, filepath.Join(t.TempDir(), "store"))[0]
}

// checkpointJSONL returns the SaveJSONL export of the binary:1
// checkpoint in the directory at path.
func checkpointJSONL(t *testing.T, path string) []byte {
	t.Helper()
	st, err := store.OpenBinary(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	return storeJSONL(t, st)
}

// TestPipelineDeterminismAcrossStoreBackends is the tentpole acceptance
// bar: the records and the funnel must be identical for every
// (worker count × store backend) combination — the storage layer and
// the engine's scheduling must never leak into the dataset. A
// store-backed run's records are its store's: it must export exactly
// the bytes a store-less run's Result.Records write.
func TestPipelineDeterminismAcrossStoreBackends(t *testing.T) {
	baseline := runWithStore(t, 1, nil)
	wantRecords := recordsJSONL(t, baseline.Records)

	backends := func(t *testing.T) map[string]store.Store {
		bn, err := store.OpenBinary(t.TempDir()+"/bins", 4)
		if err != nil {
			t.Fatal(err)
		}
		return map[string]store.Store{"binary4": bn, "mem": store.NewMem()}
	}
	for _, workers := range []int{1, 16} {
		for name, st := range backends(t) {
			res := runWithStore(t, workers, st)
			if res.Funnel != baseline.Funnel {
				t.Errorf("workers=%d store=%s: funnel differs from baseline:\n  got  %+v\n  want %+v",
					workers, name, res.Funnel, baseline.Funnel)
			}
			if res.Records != nil {
				t.Errorf("workers=%d store=%s: Result.Records holds %d records, want nil",
					workers, name, len(res.Records))
			}
			if got := storeJSONL(t, st); !bytes.Equal(got, wantRecords) {
				t.Errorf("workers=%d store=%s: records differ from baseline", workers, name)
			}
			if n, err := st.Len(); err != nil || n != len(baseline.Records) {
				t.Errorf("workers=%d store=%s: store holds %d records (err=%v), want %d",
					workers, name, n, err, len(baseline.Records))
			}
			st.Close()
		}
	}
}

// TestSeedStampRefusesMismatchedResume covers the checkpoint-safety
// satellite: a store written under one seed must refuse to resume under
// another, on every backend that carries metadata.
func TestSeedStampRefusesMismatchedResume(t *testing.T) {
	sh, err := store.OpenBinary(t.TempDir()+"/bins", 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]store.Store{"sharded": sh, "mem": store.NewMem()} {
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

// runCheckpointed runs cfg against a binary:1 checkpoint in the
// directory at path, opened for this run alone and closed after it —
// the way each `aipan run --checkpoint` invocation reopens its
// checkpoint.
func runCheckpointed(ctx context.Context, t *testing.T, path string, cfg Config) (*Result, error) {
	t.Helper()
	st, err := store.OpenBinary(path, 1)
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

// checkpointRecords reads back every record of the binary:1 checkpoint
// in the directory at path, in append order.
func checkpointRecords(t *testing.T, path string) []store.Record {
	t.Helper()
	st, err := store.OpenBinary(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var out []store.Record
	if err := st.Scan(func(r *store.Record) error { out = append(out, *r); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSeedMismatchOnCheckpointPath exercises the same refusal on a
// checkpoint reopened for each run (the stamp lives in its meta.json).
func TestSeedMismatchOnCheckpointPath(t *testing.T) {
	ckpt := t.TempDir() + "/ck"
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
	got := storeJSONL(t, st2)
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
	if want := recordsJSONL(t, clean.Records); !bytes.Equal(got, want) {
		t.Errorf("sharded store export differs from a clean run's records after resume (%d vs %d bytes)",
			len(got), len(want))
	}
}

// exportAll writes a store's three release exports — the JSONL dataset
// and both CSVs — under prefix and returns their bytes.
func exportAll(t *testing.T, st store.Store, prefix string) [3][]byte {
	t.Helper()
	var out [3][]byte
	for i, e := range []struct {
		suffix string
		export func(string, store.Store) error
	}{
		{".jsonl", store.SaveJSONL},
		{"-annotations.csv", store.ExportAnnotationsCSV},
		{"-domains.csv", store.ExportDomainsCSV},
	} {
		if err := e.export(prefix+e.suffix, st); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(prefix + e.suffix)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// TestCheckpointCrashMatrixResumesToEqualExport is the checkpoint's
// crash gate: a real binary:2 checkpoint has its fullest shard cut at
// every frame boundary — leaving the .idx sidecar stale, which the
// loader must discard — and at three points inside its last frame, the
// torn appends a crash leaves. After Repair, a resumed run must export
// the dataset and both CSVs byte-identical to an uninterrupted run's.
func TestCheckpointCrashMatrixResumesToEqualExport(t *testing.T) {
	const limit, shards = 12, 2
	cfg := Config{Limit: limit, Workers: 4}
	tmp := t.TempDir()
	pristine := filepath.Join(tmp, "pristine")
	st, err := store.OpenBinary(pristine, shards)
	if err != nil {
		t.Fatal(err)
	}
	run := cfg
	run.Store = st
	p, err := New(run)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := exportAll(t, st, filepath.Join(tmp, "want"))
	st.Close()

	// The fullest shard holds the most frames to cut between.
	seg, frames := "", []int64(nil)
	for i := 0; i < shards; i++ {
		path := filepath.Join(pristine, fmt.Sprintf("seg-%02d.bin", i))
		if offs := segFrameOffsets(t, path); len(offs) > len(frames) {
			seg, frames = filepath.Base(path), offs
		}
	}
	full, err := os.ReadFile(filepath.Join(pristine, seg))
	if err != nil {
		t.Fatal(err)
	}
	last, size := frames[len(frames)-1], int64(len(full))
	cuts := append(append([]int64{}, frames...), last+1, (last+size)/2, size-1)

	for i, cut := range cuts {
		torn := cut > last
		dir := filepath.Join(tmp, fmt.Sprintf("cut-%02d", i))
		copyDir(t, pristine, dir)
		if err := os.Truncate(filepath.Join(dir, seg), cut); err != nil {
			t.Fatal(err)
		}
		// Repair cuts back to the boundary at or before the cut.
		boundary := cut
		if torn {
			boundary = last
		}
		kept := 0 // frames of the cut shard that survive
		for _, off := range frames {
			if off < boundary {
				kept++
			}
		}
		survivors := limit - (len(frames) - kept)

		st, err := store.OpenBinary(dir, shards)
		if torn {
			if !errors.Is(err, store.ErrTruncated) {
				t.Fatalf("cut %d inside the last frame: open err = %v, want ErrTruncated", cut, err)
			}
		} else if err != nil {
			t.Fatalf("cut %d at a frame boundary: open with a stale sidecar: %v", cut, err)
		} else {
			n, _ := st.Len()
			st.Close()
			if n != survivors {
				t.Fatalf("cut %d: %d records after open, want %d", cut, n, survivors)
			}
		}
		dropped, err := store.Repair(dir)
		if err != nil {
			t.Fatalf("cut %d: Repair: %v", cut, err)
		}
		if dropped != cut-boundary {
			t.Fatalf("cut %d: Repair dropped %d bytes, want %d", cut, dropped, cut-boundary)
		}

		st, err = store.OpenBinary(dir, shards)
		if err != nil {
			t.Fatalf("cut %d: reopen after repair: %v", cut, err)
		}
		if n, _ := st.Len(); n != survivors {
			t.Fatalf("cut %d: %d records after repair, want %d", cut, n, survivors)
		}
		resume := cfg
		resume.Store = st
		p, err := New(resume)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(context.Background()); err != nil {
			t.Fatalf("cut %d: resume: %v", cut, err)
		}
		got := exportAll(t, st, filepath.Join(dir, "got"))
		st.Close()
		for j, name := range []string{"dataset", "annotations CSV", "domains CSV"} {
			if !bytes.Equal(got[j], want[j]) {
				t.Errorf("cut %d: resumed %s differs from the uninterrupted run's", cut, name)
			}
		}
	}
}

// segFrameOffsets walks a segment file's length prefixes and returns
// each frame's offset.
func segFrameOffsets(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	for off := int64(0); off < int64(len(data)); off += 8 + int64(binary.LittleEndian.Uint32(data[off:])) {
		offs = append(offs, off)
	}
	return offs
}

// copyDir copies the flat directory src to dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
