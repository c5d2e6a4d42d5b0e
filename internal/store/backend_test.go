package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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
