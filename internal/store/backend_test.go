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

// openBackends builds one of each backend rooted in dir.
func openBackends(t *testing.T, dir string) map[string]Store {
	t.Helper()
	js, err := OpenJSONL(filepath.Join(dir, "data.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	bn, err := OpenBinary(filepath.Join(dir, "bins"), 4)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"jsonl": js, "binary": bn, "mem": NewMem()}
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

func TestJSONLResumeAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	recs := testRecords(6)
	st, err := OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Reopen and keep appending: the first three records must survive.
	st, err = OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 6; i++ {
		if err := st.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	var domains []string
	if err := st.Scan(func(r *Record) error { domains = append(domains, r.Domain); return nil }); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if len(domains) != 6 {
		t.Fatalf("scanned %d records after reopen, want 6: %v", len(domains), domains)
	}
	for i := range recs {
		if domains[i] != recs[i].Domain {
			t.Fatalf("append order broken across reopen: %v", domains)
		}
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

func TestSaveJSONLByteIdenticalAcrossBackends(t *testing.T) {
	recs := testRecords(30)
	dir := t.TempDir()
	outputs := map[string][]byte{}
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
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		outputs[name] = data
		st.Close()
	}
	for name, data := range outputs {
		if !bytes.Equal(outputs["jsonl"], data) {
			t.Fatalf("SaveJSONL output from %s differs from jsonl backend holding the same records", name)
		}
	}
	// And the export is a loadable dataset with every record present.
	loaded, err := ReadJSONL(filepath.Join(dir, "mem-export.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(recs) {
		t.Fatalf("export holds %d records, want %d", len(loaded), len(recs))
	}
}

func TestOpenSpec(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		spec, path string
		wantType   string
		wantErr    bool
	}{
		{"", filepath.Join(dir, "a.jsonl"), "*store.JSONL", false},
		{"jsonl", filepath.Join(dir, "b.jsonl"), "*store.JSONL", false},
		{"mem", "", "*store.Mem", false},
		{"binary:4", filepath.Join(dir, "bin"), "*store.Binary", false},
		{"binary:nope", dir, "", true},
		{"binary:0", dir, "", true},
		{"bolt", dir, "", true},
	}
	for _, tc := range cases {
		st, err := OpenSpec(tc.spec, tc.path)
		if tc.wantErr {
			if err == nil {
				t.Fatalf("OpenSpec(%q) succeeded, want error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Fatalf("OpenSpec(%q): %v", tc.spec, err)
		}
		if got := fmt.Sprintf("%T", st); got != tc.wantType {
			t.Fatalf("OpenSpec(%q) = %s, want %s", tc.spec, got, tc.wantType)
		}
		st.Close()
	}
}

// TestRetiredShardedSpecRefused: the sharded:N JSONL layout is gone;
// opening or repairing by its spec fails with an error naming the
// binary:N replacement, and creates nothing on disk.
func TestRetiredShardedSpecRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sh")
	if _, err := OpenSpec("sharded:4", dir); err == nil || !strings.Contains(err.Error(), "binary:4") {
		t.Fatalf("OpenSpec(sharded:4) = %v, want a refusal naming binary:4", err)
	}
	if _, err := Repair("sharded:4", dir); err == nil || !strings.Contains(err.Error(), "binary:4") {
		t.Fatalf("Repair(sharded:4) = %v, want a refusal naming binary:4", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("refused spec touched %s (stat err = %v)", dir, err)
	}
}
