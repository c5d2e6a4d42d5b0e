// Package store persists the AIPAN dataset: one JSONL record per domain
// capturing the crawl outcome, extraction outcome, and all annotations —
// mirroring the dataset the paper released (AIPAN-3k). Writes are atomic
// (temp file + rename) so interrupted runs never leave a torn dataset.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"aipan/internal/annotate"
)

// CrawlInfo summarizes a domain's crawl.
type CrawlInfo struct {
	Success          bool   `json:"success"`
	PagesFetched     int    `json:"pages_fetched"`
	PrivacyPages     int    `json:"privacy_pages"`
	Duplicates       int    `json:"duplicates,omitempty"`
	NonEnglish       int    `json:"non_english,omitempty"`
	PDFs             int    `json:"pdfs,omitempty"`
	WellKnownPolicy  bool   `json:"well_known_policy"`
	WellKnownPrivacy bool   `json:"well_known_privacy"`
	Error            string `json:"error,omitempty"`
}

// ExtractionInfo summarizes segmentation/text extraction.
type ExtractionInfo struct {
	Success      bool `json:"success"`
	UsedFallback bool `json:"used_fallback,omitempty"`
	CoreWords    int  `json:"core_words,omitempty"`
}

// Record is one domain's dataset row.
type Record struct {
	Domain  string   `json:"domain"`
	Company string   `json:"company"`
	Tickers []string `json:"tickers,omitempty"`
	Sector  string   `json:"sector"`
	// SectorAbbrev is the paper's two-letter code.
	SectorAbbrev string         `json:"sector_abbrev"`
	Crawl        CrawlInfo      `json:"crawl"`
	Extraction   ExtractionInfo `json:"extraction"`
	// AnnotationFallback lists aspects that fell back to whole-text
	// annotation.
	AnnotationFallback []string `json:"annotation_fallback,omitempty"`
	// Annotations are the deduplicated unique annotations for the domain.
	Annotations []annotate.Annotation `json:"annotations,omitempty"`
}

// Annotated reports whether the record carries at least one annotation
// (the paper's 2,529 denominator).
func (r *Record) Annotated() bool { return len(r.Annotations) > 0 }

// writeStaged is the one atomic file writer: fill writes the content
// through a buffered writer into a temp file next to path, which is
// flushed, closed and renamed over path only on success — readers never
// see a partial file, and a reader holding the old file keeps it whole.
func writeStaged(path string, fill func(w *bufio.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".aipan-*")
	if err != nil {
		return fmt.Errorf("store: creating temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	if err := fill(w); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("store: flushing: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing temp file: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: committing %s: %w", path, err)
	}
	return nil
}

// WriteJSONL atomically writes records to path.
func WriteJSONL(path string, records []Record) error {
	return writeStaged(path, func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		for i := range records {
			if err := enc.Encode(&records[i]); err != nil {
				return fmt.Errorf("store: encoding record %d (%s): %w", i, records[i].Domain, err)
			}
		}
		return nil
	})
}

// ReadJSONL loads a dataset written by WriteJSONL. A line that does not
// parse fails the read with an error naming the file and line.
func ReadJSONL(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var out []Record
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("store: %s line %d: %w", path, lineNo, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", path, err)
	}
	return out, nil
}
