package store

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"aipan/internal/annotate"
)

func sampleRecords() []Record {
	return []Record{
		{
			Domain: "a.example.com", Company: "A Corp", Tickers: []string{"ACO"},
			Sector: "Financials", SectorAbbrev: "FS",
			Crawl:      CrawlInfo{Success: true, PagesFetched: 5, PrivacyPages: 2, WellKnownPolicy: true},
			Extraction: ExtractionInfo{Success: true, CoreWords: 2500},
			Annotations: []annotate.Annotation{
				{Aspect: "types", Meta: "Physical profile", Category: "Contact info", Descriptor: "email address", Text: "email address", Line: 4},
			},
		},
		{
			Domain: "b.example.com", Company: "B Inc", Sector: "Energy", SectorAbbrev: "EN",
			Crawl: CrawlInfo{Success: false, Error: "timeout"},
		},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "aipan.jsonl")
	recs := sampleRecords()
	if err := WriteJSONL(path, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("round trip mismatch:\n%+v\nvs\n%+v", got, recs)
	}
}

func TestAnnotated(t *testing.T) {
	recs := sampleRecords()
	if !recs[0].Annotated() || recs[1].Annotated() {
		t.Error("Annotated() wrong")
	}
}

func TestWriteAtomicReplace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "aipan.jsonl")
	if err := WriteJSONL(path, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a smaller dataset; no stale tail may remain.
	if err := WriteJSONL(path, sampleRecords()[:1]); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("got %d records after overwrite", len(got))
	}
}

// TestSliceWritersReplaceNotTruncate pins the atomic-write contract on
// every slice writer: the new file is staged and renamed in, so a reader
// holding the old file keeps reading the old bytes — an in-place rewrite
// would show it a truncated, half-written file instead.
func TestSliceWritersReplaceNotTruncate(t *testing.T) {
	for name, write := range map[string]func(string, []Record) error{
		"WriteJSONL":          WriteJSONL,
		"WriteAnnotationsCSV": WriteAnnotationsCSV,
		"WriteDomainsCSV":     WriteDomainsCSV,
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "out")
			if err := os.WriteFile(path, []byte("OLD"), 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if err := write(path, sampleRecords()); err != nil {
				t.Fatal(err)
			}
			if held, err := io.ReadAll(f); err != nil || string(held) != "OLD" {
				t.Errorf("open reader sees %q (err=%v), want the old file's %q", held, err, "OLD")
			}
			if now, err := os.ReadFile(path); err != nil || len(now) == 0 || string(now) == "OLD" {
				t.Errorf("path holds %q (err=%v), want the new file", now, err)
			}
		})
	}
}

func TestReadMissingFile(t *testing.T) {
	if _, err := ReadJSONL(filepath.Join(t.TempDir(), "nope.jsonl")); err == nil {
		t.Error("missing file should error")
	}
}

func TestReadCorruptLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte("{\"domain\":\"x\"}\nnot-json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJSONL(path); err == nil {
		t.Error("corrupt line should error")
	}
}

func TestEmptyDataset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := WriteJSONL(path, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(path)
	if err != nil || len(got) != 0 {
		t.Errorf("empty dataset: %v, %v", got, err)
	}
}
