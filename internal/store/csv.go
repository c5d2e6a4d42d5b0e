package store

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"strconv"
)

// annotationHeader is the flat CSV schema: one row per annotation, with
// the owning domain's metadata repeated — the spreadsheet-friendly form a
// dataset release ships next to the JSONL.
var annotationHeader = []string{
	"domain", "company", "sector", "aspect", "meta", "category",
	"descriptor", "text", "line", "context", "novel", "retention_days",
	"scope",
}

// writeAnnotationRows emits rec's annotation rows to w.
func writeAnnotationRows(w *csv.Writer, rec *Record) error {
	for _, a := range rec.Annotations {
		row := []string{
			rec.Domain, rec.Company, rec.SectorAbbrev,
			a.Aspect, a.Meta, a.Category, a.Descriptor, a.Text,
			strconv.Itoa(a.Line), a.Context,
			strconv.FormatBool(a.Novel), strconv.Itoa(a.RetentionDays),
			a.Scope,
		}
		if err := w.Write(row); err != nil {
			return fmt.Errorf("store: writing row for %s: %w", rec.Domain, err)
		}
	}
	return nil
}

// WriteAnnotationsCSV atomically writes one row per annotation across
// all records.
func WriteAnnotationsCSV(path string, records []Record) error {
	return writeStaged(path, func(w *bufio.Writer) error {
		return writeCSV(w, annotationHeader, func(cw *csv.Writer) error {
			for i := range records {
				if err := writeAnnotationRows(cw, &records[i]); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// domainHeader is the per-domain CSV schema.
var domainHeader = []string{
	"domain", "company", "tickers", "sector", "crawl_success",
	"pages_fetched", "privacy_pages", "extraction_success", "core_words",
	"annotations",
}

// writeDomainRow emits rec's summary row to w.
func writeDomainRow(w *csv.Writer, rec *Record) error {
	row := []string{
		rec.Domain, rec.Company, join(rec.Tickers), rec.SectorAbbrev,
		strconv.FormatBool(rec.Crawl.Success),
		strconv.Itoa(rec.Crawl.PagesFetched),
		strconv.Itoa(rec.Crawl.PrivacyPages),
		strconv.FormatBool(rec.Extraction.Success),
		strconv.Itoa(rec.Extraction.CoreWords),
		strconv.Itoa(len(rec.Annotations)),
	}
	if err := w.Write(row); err != nil {
		return fmt.Errorf("store: writing row for %s: %w", rec.Domain, err)
	}
	return nil
}

// WriteDomainsCSV atomically writes one row per domain.
func WriteDomainsCSV(path string, records []Record) error {
	return writeStaged(path, func(w *bufio.Writer) error {
		return writeCSV(w, domainHeader, func(cw *csv.Writer) error {
			for i := range records {
				if err := writeDomainRow(cw, &records[i]); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// writeCSV writes header and then the rows emitted by rows to w — the
// one CSV framing both the slice writers and the store exports use.
func writeCSV(w *bufio.Writer, header []string, rows func(*csv.Writer) error) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("store: writing header: %w", err)
	}
	if err := rows(cw); err != nil {
		return err
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("store: flushing csv: %w", err)
	}
	return nil
}

func join(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ";"
		}
		out += s
	}
	return out
}
