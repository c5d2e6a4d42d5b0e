package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"aipan"
	"aipan/internal/obs"
	"aipan/internal/store"
)

func TestRunFlagsValidate(t *testing.T) {
	cases := []struct {
		name    string
		rf      runFlags
		wantErr string // substring; "" = valid
	}{
		{"defaults", runFlags{workers: 8}, ""},
		{"zero workers fall back in core", runFlags{}, ""},
		{"negative workers", runFlags{workers: -3}, "--workers"},
		{"negative limit", runFlags{limit: -1}, "--limit"},
		{"default checkpoint", runFlags{checkpoint: "dir"}, ""},
		{"jsonl store", runFlags{storeSpec: "jsonl", checkpoint: "ck.jsonl"}, "binary:N"},
		{"mem store", runFlags{storeSpec: "mem"}, "binary:N"},
		{"sharded store with checkpoint", runFlags{storeSpec: "binary:4", checkpoint: "dir"}, ""},
		{"sharded store without checkpoint", runFlags{storeSpec: "binary:4"}, "shard directory"},
		{"zero shards", runFlags{storeSpec: "binary:0", checkpoint: "dir"}, "1..99"},
		{"too many shards", runFlags{storeSpec: "binary:100", checkpoint: "dir"}, "1..99"},
		{"non-numeric shards", runFlags{storeSpec: "binary:x", checkpoint: "dir"}, "binary:N"},
		{"retired sharded spec", runFlags{storeSpec: "sharded:4", checkpoint: "dir"}, "binary:4"},
		{"unknown store", runFlags{storeSpec: "bolt"}, "binary:N"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.rf.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate(%+v) = %v, want nil", tc.rf, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate(%+v) = %v, want error containing %q", tc.rf, err, tc.wantErr)
			}
		})
	}
}

// TestRunPipelineExportsMatchAcrossCheckpoints drives the run command's
// export paths at --limit 8 with --csv: once with no checkpoint (the
// dataset and CSVs are written from the in-memory records), then with
// the default checkpoint and a binary:2 one (they are exported back
// through the store). Every checkpointed run must write the plain run's
// bytes, and each checkpoint must hold every record.
func TestRunPipelineExportsMatchAcrossCheckpoints(t *testing.T) {
	const limit = 8
	dir := t.TempDir()
	outputs := func(name string, rf runFlags) [][]byte {
		t.Helper()
		rf.limit, rf.workers = limit, 4
		rf.csvPrefix = filepath.Join(dir, name)
		out := filepath.Join(dir, name+".jsonl")
		if _, _, err := runPipeline(out, rf, aipan.DefaultSeed, "sim-gpt4", false, obsFlags{}); err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
		var got [][]byte
		for _, path := range []string{out, rf.csvPrefix + "-annotations.csv", rf.csvPrefix + "-domains.csv"} {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, b)
		}
		return got
	}
	want := outputs("plain", runFlags{})
	if n := bytes.Count(want[0], []byte("\n")); n != limit {
		t.Fatalf("plain run wrote %d records, want %d", n, limit)
	}
	for _, tc := range []struct{ name, spec string }{
		{"default", ""},
		{"binary", "binary:2"},
	} {
		checkpoint := filepath.Join(dir, "ck-"+tc.name)
		got := outputs(tc.name, runFlags{storeSpec: tc.spec, checkpoint: checkpoint})
		for i, file := range []string{"dataset", "annotations CSV", "domains CSV"} {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s checkpoint: %s differs from the plain run's", tc.name, file)
			}
		}
		st, err := store.OpenBinaryDir(checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		n, err := st.Len()
		st.Close()
		if err != nil || n != limit {
			t.Errorf("%s checkpoint holds %d records (err=%v), want %d", tc.name, n, err, limit)
		}
	}
}

// TestRunRefusesCheckpointBeforeOutputs: a refused --store or
// --checkpoint fails the run before it creates its trace, its event log
// or a checkpoint directory. The refusals cover every retired or
// malformed spec, a checkpoint path naming a file (a retired JSONL
// checkpoint, which must keep its bytes) and a shard-count mismatch.
func TestRunRefusesCheckpointBeforeOutputs(t *testing.T) {
	dir := t.TempDir()
	jsonlCk := filepath.Join(dir, "old.jsonl")
	if err := os.WriteFile(jsonlCk, []byte(`{"domain":"a.example.com"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	twoShards := filepath.Join(dir, "two")
	st, err := store.OpenBinary(twoShards, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetMeta(store.Meta{Seed: aipan.DefaultSeed}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	cases := []struct{ name, spec, checkpoint, wantErr string }{
		{"jsonl", "jsonl", filepath.Join(dir, "ck"), "binary:N"},
		{"mem", "mem", filepath.Join(dir, "ck"), "binary:N"},
		{"sharded", "sharded:4", filepath.Join(dir, "ck"), "binary:4"},
		{"zero shards", "binary:0", filepath.Join(dir, "ck"), "1..99"},
		{"too many shards", "binary:100", filepath.Join(dir, "ck"), "1..99"},
		{"non-numeric shards", "binary:x", filepath.Join(dir, "ck"), "binary:N"},
		{"jsonl checkpoint file", "", jsonlCk, "JSONL checkpoints are retired"},
		{"shard-count mismatch", "binary:4", twoShards, "shards"},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			of := obsFlags{
				traceOut:  filepath.Join(dir, fmt.Sprintf("run-%d.trace", i)),
				eventsOut: filepath.Join(dir, fmt.Sprintf("ev-%d", i)),
			}
			rf := runFlags{limit: 3, workers: 2, storeSpec: tc.spec, checkpoint: tc.checkpoint}
			_, _, err := runPipeline(filepath.Join(dir, "out.jsonl"), rf, aipan.DefaultSeed, "sim-gpt4", false, of)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run = %v, want a refusal containing %q", err, tc.wantErr)
			}
			for _, path := range []string{of.traceOut, of.eventsOut, filepath.Join(dir, "ck"), filepath.Join(dir, "out.jsonl")} {
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Errorf("refused run created %s (stat err %v)", path, err)
				}
			}
		})
	}
	if b, err := os.ReadFile(jsonlCk); err != nil || string(b) != `{"domain":"a.example.com"}`+"\n" {
		t.Errorf("refused run changed the JSONL checkpoint: %q (err %v)", b, err)
	}
}

func TestServeFlagsValidate(t *testing.T) {
	valid := serveFlags{
		rps: 50, burst: 100, maxInflight: 256,
		requestTimeout: 15 * time.Second, cacheSize: 1024, drainTimeout: 10 * time.Second,
	}
	cases := []struct {
		name    string
		mutate  func(*serveFlags)
		wantErr string // substring; "" = valid
	}{
		{"defaults", func(*serveFlags) {}, ""},
		{"rate limiting disabled", func(sf *serveFlags) { sf.rps, sf.burst = 0, 0 }, ""},
		{"cache disabled", func(sf *serveFlags) { sf.cacheSize = 0 }, ""},
		{"negative rps", func(sf *serveFlags) { sf.rps = -1 }, "--rps"},
		{"negative burst", func(sf *serveFlags) { sf.burst = -1 }, "--burst"},
		{"zero inflight", func(sf *serveFlags) { sf.maxInflight = 0 }, "--max-inflight"},
		{"zero timeout", func(sf *serveFlags) { sf.requestTimeout = 0 }, "--request-timeout"},
		{"negative cache", func(sf *serveFlags) { sf.cacheSize = -1 }, "--cache-size"},
		{"zero drain", func(sf *serveFlags) { sf.drainTimeout = 0 }, "--drain-timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sf := valid
			tc.mutate(&sf)
			err := sf.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate(%+v) = %v, want nil", sf, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate(%+v) = %v, want error containing %q", sf, err, tc.wantErr)
			}
		})
	}
}

// TestServeRefusesMissingDataset: a --data that holds no dataset must
// fail naming the path, not serve an empty dataset: a missing JSONL
// export, and a binary:4 checkpoint directory without its meta.json
// stamp. Serve creates nothing at either path.
func TestServeRefusesMissingDataset(t *testing.T) {
	for _, kind := range []string{"jsonl", "binary:4"} {
		t.Run(kind, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "typo")
			var before []string
			if kind == "binary:4" {
				st, err := store.OpenBinary(path, 4)
				if err != nil {
					t.Fatal(err)
				}
				if err := st.Append(&store.Record{Domain: "a.example.com"}); err != nil {
					t.Fatal(err)
				}
				st.Close()
				before = dirNames(t, path)
			}
			err := cmdServe([]string{"--data", path, "--addr", "127.0.0.1:0"})
			if err == nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("serve --data <%s with no dataset> = %v, want an error naming %s", kind, err, path)
			}
			if kind == "jsonl" {
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Errorf("serve created %s (stat err %v)", path, err)
				}
			} else if after := dirNames(t, path); !reflect.DeepEqual(after, before) {
				t.Errorf("serve changed %s: %v -> %v", path, before, after)
			}
		})
	}
}

// dirNames lists the file names in dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestServeSourceSelection: serve takes --data's format from the path.
// A binary:4 checkpoint directory, opened by its stamp, and the JSONL
// file exported from it load the same records and serve the same
// bodies and ETags; a directory without a stamp is refused by name.
func TestServeSourceSelection(t *testing.T) {
	dir := t.TempDir()
	ck, export := filepath.Join(dir, "ck"), filepath.Join(dir, "ds.jsonl")
	rf := runFlags{limit: 8, workers: 4, storeSpec: "binary:4", checkpoint: ck}
	if _, _, err := runPipeline(export, rf, aipan.DefaultSeed, "sim-gpt4", false, obsFlags{}); err != nil {
		t.Fatal(err)
	}
	var loaded [2][]aipan.Record
	var served [2][]string
	for i, path := range []string{ck, export} {
		src, n, closeSrc, err := openServeSource(path)
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		recs, err := src.Load()
		if err != nil || len(recs) != n || n != rf.limit {
			t.Fatalf("%s: loaded %d records (reported %d, err %v), want %d", path, len(recs), n, err, rf.limit)
		}
		sort.Slice(recs, func(a, b int) bool { return recs[a].Domain < recs[b].Domain })
		loaded[i] = recs
		s, err := aipan.NewDatasetServer(src, aipan.WithServerRegistry(obs.NewRegistry()))
		if err != nil {
			t.Fatal(err)
		}
		for _, url := range []string{"/v1/summary", "/v1/domains?limit=5", "/v1/tables/1"} {
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
			served[i] = append(served[i], fmt.Sprintf("%d %s\n%s", w.Code, w.Header().Get("ETag"), w.Body))
		}
		closeSrc()
	}
	if !reflect.DeepEqual(loaded[0], loaded[1]) {
		t.Error("the checkpoint directory and its JSONL export load different records")
	}
	for i := range served[0] {
		if served[0][i] != served[1][i] {
			t.Errorf("served responses differ:\n dir:  %s\n file: %s", served[0][i], served[1][i])
		}
	}

	bare := filepath.Join(dir, "bare")
	if err := os.Mkdir(bare, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := openServeSource(bare); err == nil || !strings.Contains(err.Error(), bare) {
		t.Fatalf("unstamped directory: err = %v, want a refusal naming %s", err, bare)
	}
}
