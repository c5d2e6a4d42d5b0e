package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func testRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Domain:       fmt.Sprintf("company-%03d.com", i),
			Company:      fmt.Sprintf("Company %03d", i),
			Sector:       "Technology",
			SectorAbbrev: "TC",
			Crawl:        CrawlInfo{Success: i%3 != 0, PagesFetched: i + 1, PrivacyPages: i % 4},
			Extraction:   ExtractionInfo{Success: i%3 == 1, CoreWords: 100 * i},
		}
	}
	return recs
}

// openBackends builds one of each backend, the binary one rooted in dir.
func openBackends(t *testing.T, dir string) map[string]Store {
	t.Helper()
	bn, err := OpenBinary(filepath.Join(dir, "bins"), 4)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"binary": bn, "mem": NewMem()}
}

func TestBackendsRoundTrip(t *testing.T) {
	recs := testRecords(25)
	for name, st := range openBackends(t, t.TempDir()) {
		t.Run(name, func(t *testing.T) {
			for i := range recs {
				if err := st.Append(&recs[i]); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			n, err := st.Len()
			if err != nil || n != len(recs) {
				t.Fatalf("Len = %d, %v; want %d", n, err, len(recs))
			}
			seen := map[string]bool{}
			if err := st.Scan(func(r *Record) error {
				if seen[r.Domain] {
					return fmt.Errorf("domain %s scanned twice", r.Domain)
				}
				seen[r.Domain] = true
				return nil
			}); err != nil {
				t.Fatalf("Scan: %v", err)
			}
			for i := range recs {
				if !seen[recs[i].Domain] {
					t.Fatalf("domain %s lost by %s backend", recs[i].Domain, name)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

func TestBackendsEmptyScan(t *testing.T) {
	for name, st := range openBackends(t, t.TempDir()) {
		n, err := st.Len()
		if err != nil || n != 0 {
			t.Fatalf("%s: empty store Len = %d, %v", name, n, err)
		}
		st.Close()
	}
}

func TestBackendsMetaStamp(t *testing.T) {
	for name, st := range openBackends(t, t.TempDir()) {
		t.Run(name, func(t *testing.T) {
			ms, ok := st.(MetaStore)
			if !ok {
				t.Fatalf("%s backend does not implement MetaStore", name)
			}
			if _, stamped, err := ms.Meta(); err != nil || stamped {
				t.Fatalf("fresh store already stamped (stamped=%v, err=%v)", stamped, err)
			}
			if err := ms.SetMeta(Meta{Seed: 4242}); err != nil {
				t.Fatalf("SetMeta: %v", err)
			}
			m, stamped, err := ms.Meta()
			if err != nil || !stamped || m.Seed != 4242 {
				t.Fatalf("Meta after stamp = %+v, stamped=%v, err=%v", m, stamped, err)
			}
			st.Close()
		})
	}
}

func TestShardedDistributesAndRefusesMismatch(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenBinary(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(40)
	for i := range recs {
		if err := st.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.SetMeta(Meta{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	shards, err := filepath.Glob(filepath.Join(dir, "seg-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) < 2 {
		t.Fatalf("40 records landed in %d shard files, want a spread: %v", len(shards), shards)
	}

	// Same shard count reopens fine; a different one is refused.
	if st, err = OpenBinary(dir, 4); err != nil {
		t.Fatalf("reopen with matching shard count: %v", err)
	}
	if n, _ := st.Len(); n != 40 {
		t.Fatalf("Len after reopen = %d, want 40", n)
	}
	st.Close()
	if _, err := OpenBinary(dir, 8); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("reopening 4-shard store with 8 shards: err = %v, want refusal", err)
	}
	for _, n := range []int{0, 100} {
		if _, err := OpenBinary(t.TempDir(), n); err == nil || !strings.Contains(err.Error(), "1..99") {
			t.Fatalf("shard count %d: err = %v, want a 1..99 range refusal", n, err)
		}
	}
}

// TestSaveJSONLByteIdenticalAcrossBackends: every backend, fed the same
// records in its own order, exports the bytes WriteJSONL writes for the
// domain-sorted records.
func TestSaveJSONLByteIdenticalAcrossBackends(t *testing.T) {
	recs := testRecords(30) // already in domain order
	dir := t.TempDir()
	ref := filepath.Join(dir, "reference.jsonl")
	if err := WriteJSONL(ref, recs); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range openBackends(t, dir) {
		// Append in a backend-specific order: the export must not care.
		perm := make([]int, len(recs))
		for i := range perm {
			perm[i] = (i*7 + len(name)) % len(recs)
		}
		seen := map[int]bool{}
		for _, i := range perm {
			if seen[i] {
				continue
			}
			seen[i] = true
			if err := st.Append(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		for i := range recs {
			if !seen[i] {
				if err := st.Append(&recs[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		out := filepath.Join(dir, name+"-export.jsonl")
		if err := SaveJSONL(out, st); err != nil {
			t.Fatalf("SaveJSONL from %s: %v", name, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("SaveJSONL output from %s differs from WriteJSONL of the sorted records", name)
		}
		st.Close()
	}
}

func TestOpenSpec(t *testing.T) {
	dir := t.TempDir()
	for i, tc := range []struct {
		spec   string
		shards int
	}{{"", 1}, {"binary:1", 1}, {"binary:4", 4}, {"binary:99", 99}} {
		path := filepath.Join(dir, fmt.Sprintf("spec-%d", i))
		st, err := OpenSpec(tc.spec, path)
		if err != nil {
			t.Fatalf("OpenSpec(%q): %v", tc.spec, err)
		}
		bn, ok := st.(*Binary)
		if !ok || bn.NumShards() != tc.shards {
			t.Fatalf("OpenSpec(%q) = %T, want a %d-shard *store.Binary", tc.spec, st, tc.shards)
		}
		st.Close()
	}
	for _, tc := range []struct{ spec, wantErr string }{
		{"jsonl", "binary:N"},
		{"mem", "binary:N"},
		{"bolt", "binary:N"},
		{"binary:nope", "binary:N"},
		{"binary:0", "1..99"},
		{"binary:100", "1..99"},
	} {
		path := filepath.Join(dir, "refused")
		if _, err := OpenSpec(tc.spec, path); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("OpenSpec(%q) = %v, want a refusal naming %s", tc.spec, err, tc.wantErr)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("refused spec %q touched %s (stat err = %v)", tc.spec, path, err)
		}
	}
}

// TestRetiredShardedSpecRefused: the sharded:N JSONL layout is gone;
// its spec fails with an error naming the binary:N replacement, and
// creates nothing on disk.
func TestRetiredShardedSpecRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sh")
	if _, err := OpenSpec("sharded:4", dir); err == nil || !strings.Contains(err.Error(), "binary:4") {
		t.Fatalf("OpenSpec(sharded:4) = %v, want a refusal naming binary:4", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("refused spec touched %s (stat err = %v)", dir, err)
	}
}

// TestBinaryRefusesJSONLCheckpointFile: a store path naming a regular
// file — a checkpoint from the retired JSONL store — is refused naming
// the retirement and binary:N, and the file keeps its bytes.
func TestBinaryRefusesJSONLCheckpointFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	if err := WriteJSONL(path, testRecords(3)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"", "binary:4"} {
		_, err := OpenSpec(spec, path)
		if err == nil || !strings.Contains(err.Error(), "JSONL checkpoints are retired") || !strings.Contains(err.Error(), "binary:N") {
			t.Fatalf("OpenSpec(%q) over a JSONL file = %v, want the retirement refusal naming binary:N", spec, err)
		}
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("refused open changed the file (err %v)", err)
	}
}

// TestOpenBinaryDirReadsStamp: OpenBinaryDir takes the shard count from
// the meta.json stamp, and refuses a directory without one by name.
func TestOpenBinaryDirReadsStamp(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenBinary(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(12)
	for i := range recs {
		if err := st.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.SetMeta(Meta{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	got, err := OpenBinaryDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := got.Len(); got.NumShards() != 3 || n != len(recs) {
		t.Fatalf("OpenBinaryDir: %d shards, %d records; want 3, %d", got.NumShards(), n, len(recs))
	}
	got.Close()

	bare := t.TempDir()
	for name, open := range map[string]func() error{
		"OpenBinaryDir": func() error { _, err := OpenBinaryDir(bare); return err },
		"Repair":        func() error { _, err := Repair(bare); return err },
	} {
		if err := open(); err == nil || !strings.Contains(err.Error(), bare) {
			t.Fatalf("%s over an unstamped directory = %v, want a refusal naming it", name, err)
		}
	}
}

// dirFiles maps each file name in dir to its bytes.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// scanJSON returns every record a Scan yields, JSON-encoded in order.
func scanJSON(t *testing.T, st Store) []string {
	t.Helper()
	var out []string
	if err := st.Scan(func(r *Record) error {
		b, err := json.Marshal(r)
		out = append(out, string(b))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOpenBinaryDirWritesNothing: OpenBinaryDir over a checkpoint with
// one sidecar deleted and one cut mid-entry answers Len, Scan and Get as
// OpenBinary does on a copy — which rewrites both sidecars — yet leaves
// the directory's files and bytes exactly as they were, and refuses
// Append and SetMeta naming the directory.
func TestOpenBinaryDirWritesNothing(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenBinary(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(10)
	for i := range recs {
		if err := st.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.SetMeta(Meta{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if err := os.Remove(filepath.Join(dir, "seg-00.idx")); err != nil {
		t.Fatal(err)
	}
	idx1 := filepath.Join(dir, "seg-01.idx")
	data, err := os.ReadFile(idx1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(idx1, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)

	cp := t.TempDir()
	for name, data := range before {
		if err := os.WriteFile(filepath.Join(cp, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := OpenBinary(cp, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := os.Stat(filepath.Join(cp, "seg-00.idx")); err != nil {
		t.Fatalf("OpenBinary did not rewrite the deleted sidecar: %v", err)
	}

	ro, err := OpenBinaryDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantN, _ := ref.Len()
	if n, err := ro.Len(); n != wantN || n != len(recs) || err != nil {
		t.Errorf("read-only Len = %d (err %v), OpenBinary %d, want %d", n, err, wantN, len(recs))
	}
	if got, want := scanJSON(t, ro), scanJSON(t, ref); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("read-only Scan differs from OpenBinary's:\n%v\n%v", got, want)
	}
	for _, r := range recs {
		got, ok, err := ro.Get(r.Domain)
		want, _, _ := ref.Get(r.Domain)
		if !ok || err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("read-only Get(%s) = %+v ok=%v err=%v, want %+v", r.Domain, got, ok, err, want)
		}
	}
	extra := Record{Domain: "late.example.com"}
	for name, err := range map[string]error{
		"Append":  ro.Append(&extra),
		"SetMeta": ro.SetMeta(Meta{Seed: 7}),
	} {
		if err == nil || !strings.Contains(err.Error(), dir) {
			t.Errorf("read-only %s = %v, want a refusal naming %s", name, err, dir)
		}
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		var names []string
		for name := range after {
			names = append(names, name)
		}
		sort.Strings(names)
		t.Errorf("OpenBinaryDir changed %s: files now %v", dir, names)
	}
}
