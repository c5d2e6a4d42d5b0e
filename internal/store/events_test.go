package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testEvent(domain string, seq int) *Event {
	return &Event{
		RunID:        "r1",
		Seq:          seq,
		Domain:       domain,
		Sector:       "retail",
		Outcome:      OutcomeAnnotated,
		FetchStatus:  200,
		FetchClass:   "2xx",
		Language:     "en",
		PagesFetched: 4,
		PolicyPages:  1,
		Segments:     3,
		Clauses:      40,
		Words:        900,
		Aspects: []AspectOutcome{
			{Aspect: "types", Annotations: 5, Dropped: 1},
			{Aspect: "purposes", Annotations: 3, Fallback: true},
		},
		Annotations:  8,
		TaxonomyHits: 7,
		RiskScore:    0.42,
	}
}

func TestEventLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	log, err := OpenEventLog(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	domains := []string{"a.example", "b.example", "c.example", "d.example"}
	for i, d := range domains {
		if err := log.Append(testEvent(d, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.SetMeta(Meta{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenEventDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if n, err := reopened.Len(); err != nil || n != len(domains) {
		t.Fatalf("Len = %d, %v; want %d", n, err, len(domains))
	}
	seen := map[string]*Event{}
	if err := reopened.Scan(func(ev *Event) error {
		cp := *ev
		seen[ev.Domain] = &cp
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, d := range domains {
		got, ok := seen[d]
		if !ok {
			t.Fatalf("domain %s missing after round trip", d)
		}
		if want := testEvent(d, i); !reflect.DeepEqual(got, want) {
			t.Errorf("round-trip mismatch for %s:\n got %+v\nwant %+v", d, got, want)
		}
	}
}

func TestEventLogScanDomain(t *testing.T) {
	dir := t.TempDir()
	log, err := OpenEventLog(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for i, d := range []string{"x.example", "y.example", "x.example"} {
		if err := log.Append(testEvent(d, i)); err != nil {
			t.Fatal(err)
		}
	}
	var seqs []int
	if err := log.ScanDomain("x.example", func(ev *Event) error {
		if ev.Domain != "x.example" {
			t.Errorf("ScanDomain leaked %s", ev.Domain)
		}
		seqs = append(seqs, ev.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqs, []int{0, 2}) {
		t.Errorf("ScanDomain seqs = %v, want [0 2]", seqs)
	}
}

func TestEventLogShardCountMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	log, err := OpenEventLog(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.SetMeta(Meta{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	log.Close()
	if _, err := OpenEventLog(dir, 5); err == nil {
		t.Fatal("reopening with a different shard count should fail")
	}
}

// TestEventLogDeterministicBytes: identical runs write identical
// files, and each shard is exactly its events' json.Marshal encodings
// in CRC frames, in append order.
func TestEventLogDeterministicBytes(t *testing.T) {
	domains := []string{"a.example", "b.example", "c.example"}
	write := func(dir string) {
		log, err := OpenEventLog(dir, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range domains {
			if err := log.Append(testEvent(d, i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
	}
	d1, d2 := t.TempDir(), t.TempDir()
	write(d1)
	write(d2)
	want := map[string][]byte{}
	for i, d := range domains {
		payload, err := json.Marshal(testEvent(d, i))
		if err != nil {
			t.Fatal(err)
		}
		var fb frameBuf
		fb.begin()
		fb.b = append(fb.b, payload...)
		name := fmt.Sprintf("events-%02d.bin", ShardOf(d, 2))
		want[name] = append(want[name], fb.seal()...)
	}
	for _, name := range []string{"events-00.bin", "events-01.bin", "events-meta.json"} {
		b1, err1 := os.ReadFile(filepath.Join(d1, name))
		b2, err2 := os.ReadFile(filepath.Join(d2, name))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s existence differs: %v vs %v", name, err1, err2)
		}
		if string(b1) != string(b2) {
			t.Errorf("%s bytes differ between identical runs", name)
		}
		if w, ok := want[name]; ok && string(b1) != string(w) {
			t.Errorf("%s is not its events' JSON encodings in CRC frames", name)
		}
	}
}

// TestOpenEventDirLazyShards: shard files are created lazily, so a run
// whose domains all hash into high shard indexes leaves low-index files
// absent. OpenEventDir must take the shard count from the stamp written
// at creation, not from the files present — otherwise the top shard is
// silently dropped from scans.
func TestOpenEventDirLazyShards(t *testing.T) {
	dir := t.TempDir()
	log, err := OpenEventLog(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Find a domain that hashes into the last shard; only that shard's
	// file will exist on disk.
	domain := ""
	for i := 0; i < 1000; i++ {
		cand := "d" + string(rune('a'+i%26)) + string(rune('a'+i/26)) + ".example"
		if log.shardOf(cand) == 3 {
			domain = cand
			break
		}
	}
	if domain == "" {
		t.Fatal("no candidate domain hashed into shard 3")
	}
	if err := log.Append(testEvent(domain, 0)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "events-00.bin")); !os.IsNotExist(err) {
		t.Fatalf("precondition failed: shard 00 exists (err=%v), test no longer covers lazy creation", err)
	}

	reopened, err := OpenEventDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	n, err := reopened.Len()
	if err != nil || n != 1 {
		t.Fatalf("Len = %d, %v; want 1", n, err)
	}
	found := false
	if err := reopened.ScanDomain(domain, func(*Event) error { found = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("ScanDomain missed the event (inferred shard count is wrong)")
	}
}

// TestOpenEventDirRefusesJSONLLayout: a directory recorded in the
// retired events-shard-%02d.jsonl layout is refused by every event
// entry point with a message to re-record it, and nothing is written
// into it.
func TestOpenEventDirRefusesJSONLLayout(t *testing.T) {
	dir := t.TempDir()
	line, err := json.Marshal(testEvent("a.example", 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "events-shard-02.jsonl"), append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func() error{
		"OpenEventDir":   func() error { _, err := OpenEventDir(dir); return err },
		"OpenEventLog":   func() error { _, err := OpenEventLog(dir, 4); return err },
		"RepairEventDir": func() error { _, err := RepairEventDir(dir); return err },
	} {
		if err := open(); err == nil || !strings.Contains(err.Error(), "re-record") {
			t.Fatalf("%s over a JSONL event dir: err = %v, want a refusal asking to re-record", name, err)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("refused opens wrote into the directory: %v", entries)
	}
}

func TestMemEventsSink(t *testing.T) {
	m := NewMemEvents()
	_ = m.Append(testEvent("a.example", 0))
	_ = m.Append(testEvent("b.example", 1))
	if n, _ := m.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	count := 0
	_ = m.ScanDomain("a.example", func(*Event) error { count++; return nil })
	if count != 1 {
		t.Fatalf("ScanDomain matched %d, want 1", count)
	}
}
