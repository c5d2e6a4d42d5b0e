package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aipan"
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
		{"jsonl store", runFlags{storeSpec: "jsonl", checkpoint: "ck.jsonl"}, ""},
		{"mem store", runFlags{storeSpec: "mem"}, ""},
		{"sharded store with checkpoint", runFlags{storeSpec: "binary:4", checkpoint: "dir"}, ""},
		{"sharded store without checkpoint", runFlags{storeSpec: "binary:4"}, "shard directory"},
		{"retired sharded spec", runFlags{storeSpec: "sharded:4", checkpoint: "dir"}, "binary:4"},
		{"unknown store", runFlags{storeSpec: "bolt"}, "--store must be"},
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
// dataset and CSVs are written from the in-memory records), then with a
// checkpoint under each store spec (they are exported back through the
// store). Every checkpointed run must write the plain run's bytes, and
// each on-disk checkpoint must hold every record.
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
	for _, tc := range []struct{ name, spec, checkpoint string }{
		{"jsonl", "jsonl", filepath.Join(dir, "ck.jsonl")},
		{"binary", "binary:2", filepath.Join(dir, "ck-bin")},
		{"mem", "mem", ""},
	} {
		got := outputs(tc.name, runFlags{storeSpec: tc.spec, checkpoint: tc.checkpoint})
		for i, file := range []string{"dataset", "annotations CSV", "domains CSV"} {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("--store %s: %s differs from the plain run's", tc.spec, file)
			}
		}
		if tc.checkpoint == "" {
			continue
		}
		st, err := aipan.OpenDatasetStore(tc.spec, tc.checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		n, err := st.Len()
		st.Close()
		if err != nil || n != limit {
			t.Errorf("--store %s checkpoint holds %d records (err=%v), want %d", tc.spec, n, err, limit)
		}
	}
}

func TestServeFlagsValidate(t *testing.T) {
	valid := serveFlags{
		storeSpec: "jsonl", rps: 50, burst: 100, maxInflight: 256,
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
		{"sharded store", func(sf *serveFlags) { sf.storeSpec = "binary:4" }, ""},
		{"retired sharded spec", func(sf *serveFlags) { sf.storeSpec = "sharded:4" }, "binary:4"},
		{"unknown store", func(sf *serveFlags) { sf.storeSpec = "bolt" }, "--store must be"},
		{"mem store", func(sf *serveFlags) { sf.storeSpec = "mem" }, "persistent dataset"},
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

// TestServeRefusesMissingDataset: a mistyped --data must fail naming the
// path, not serve an empty dataset that the store constructors created.
func TestServeRefusesMissingDataset(t *testing.T) {
	for _, spec := range []string{"jsonl", "binary:4"} {
		t.Run(spec, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "typo")
			err := cmdServe([]string{"--store", spec, "--data", path, "--addr", "127.0.0.1:0"})
			if err == nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("serve --store %s --data <missing> = %v, want an error naming %s", spec, err, path)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("serve created %s (stat err %v)", path, err)
			}
		})
	}
}
