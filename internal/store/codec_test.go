package store

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"aipan/internal/annotate"
)

// emptyRecordPayload encodes a record whose every field is empty but
// which declares n annotations, followed by pad zero bytes. Each run of
// minAnnotationBytes zeros decodes as one empty annotation.
func emptyRecordPayload(n uint64, pad int) []byte {
	buf := appendRecord(nil, &Record{})
	buf = binary.AppendUvarint(buf[:len(buf)-1], n) // replace the count 0
	return append(buf, make([]byte, pad)...)
}

// TestDecodeRecordRefusesImplausibleAnnotationCount: a frame that
// declares more annotations than its remaining payload can hold is
// refused before the annotations are allocated — one CRC-valid frame
// must not cost 136 bytes of heap per payload byte. A payload declaring
// exactly as many empty annotations as fit still decodes.
func TestDecodeRecordRefusesImplausibleAnnotationCount(t *testing.T) {
	const n = 1 << 20
	payload := emptyRecordPayload(n, n)
	var rec Record
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err := decodeRecord(payload, &rec)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errShortPayload) {
		t.Fatalf("%d-byte payload declaring %d annotations: err = %v, want errShortPayload", len(payload), n, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2*uint64(len(payload)) {
		t.Fatalf("refusing a %d-byte payload allocated %d bytes, want under twice its size", len(payload), alloc)
	}

	const fit = 1000
	if err := decodeRecord(emptyRecordPayload(fit, fit*minAnnotationBytes), &rec); err != nil {
		t.Fatalf("payload declaring exactly %d empty annotations: %v", fit, err)
	}
	if len(rec.Annotations) != fit {
		t.Fatalf("decoded %d annotations, want %d", len(rec.Annotations), fit)
	}
}

// listPayload encodes an empty record up to the string list at byte off
// of appendRecord's output (the Tickers count is at 3, the
// AnnotationFallback count at 18), declares n strings there, and appends
// zeros zero bytes. Each zero byte decodes as one empty string or one
// empty field of the tail.
func listPayload(off int, n uint64, zeros int) []byte {
	buf := binary.AppendUvarint(appendRecord(nil, &Record{})[:off], n)
	return append(buf, make([]byte, zeros)...)
}

// TestDecodeRecordRefusesImplausibleStringCount: a string list whose
// count the rest of its payload cannot hold, once the fields after it
// take their minimum, is refused before the list is allocated — 2^20
// declared tickers must not cost 16 bytes of heap each. A list that
// leaves exactly the minimum tail still decodes.
func TestDecodeRecordRefusesImplausibleStringCount(t *testing.T) {
	const n = 1 << 20
	payload := listPayload(3, n, n)
	var rec Record
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err := decodeRecord(payload, &rec)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errShortPayload) {
		t.Fatalf("%d-byte payload declaring %d tickers: err = %v, want errShortPayload", len(payload), n, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2*uint64(len(payload)) {
		t.Fatalf("refusing a %d-byte payload allocated %d bytes, want under twice its size", len(payload), alloc)
	}

	const fit = 1000
	for _, c := range []struct {
		name     string
		off, min int
		got      func() []string
	}{
		{"tickers", 3, minTickersTail, func() []string { return rec.Tickers }},
		{"fallbacks", 18, minFallbackTail, func() []string { return rec.AnnotationFallback }},
	} {
		if err := decodeRecord(listPayload(c.off, fit, fit+c.min), &rec); err != nil {
			t.Fatalf("payload declaring exactly %d empty %s: %v", fit, c.name, err)
		}
		if len(c.got()) != fit {
			t.Fatalf("decoded %d %s, want %d", len(c.got()), c.name, fit)
		}
		if err := decodeRecord(listPayload(c.off, fit+1, fit+c.min), &rec); !errors.Is(err, errShortPayload) {
			t.Fatalf("payload declaring one %s more than fit: err = %v, want errShortPayload", c.name, err)
		}
	}
}

// edgeRecords are hand-built codec edge cases: the empty record, one
// annotation with every field empty, extreme integers, and non-ASCII
// and empty strings inside slices.
func edgeRecords() []Record {
	return []Record{
		{},
		{Annotations: []annotate.Annotation{{}}},
		{
			Domain:             "ünïcode.example.com",
			Company:            "Ωmega \"Corp\", Inc.\n",
			Tickers:            []string{"", "A", "BRK.B"},
			Crawl:              CrawlInfo{Success: true, PagesFetched: math.MaxInt64, Duplicates: math.MinInt64, WellKnownPrivacy: true},
			Extraction:         ExtractionInfo{UsedFallback: true, CoreWords: -1},
			AnnotationFallback: []string{"types", ""},
			Annotations: []annotate.Annotation{{
				Aspect: "handling", Meta: "m", Category: "c", Descriptor: "d", Text: "t",
				Line: -7, Context: "x\x00y", Novel: true, RetentionDays: math.MaxInt32, Scope: "s",
			}},
		},
	}
}

// FuzzDecodeRecord: decodeRecord inverts appendRecord, and on arbitrary
// bytes it never panics. Whatever it accepts re-encodes to bytes that
// decode to the same record, and holds at least one payload byte per
// ticker and fallback, minAnnotationBytes per annotation, and the
// minimum tail after each string list — the bounds that keep a hostile
// count from sizing an allocation.
func FuzzDecodeRecord(f *testing.F) {
	r := rand.New(rand.NewSource(4))
	recs := edgeRecords()
	for i := 0; i < 32; i++ {
		recs = append(recs, genRecord(r))
	}
	for i := range recs {
		payload := appendRecord(nil, &recs[i])
		var got Record
		if err := decodeRecord(payload, &got); err != nil || !reflect.DeepEqual(got, recs[i]) {
			f.Fatalf("seed %d does not round-trip (err %v):\n want %+v\n got  %+v", i, err, recs[i], got)
		}
		f.Add(payload)
	}
	f.Add(emptyRecordPayload(3, 3*minAnnotationBytes))
	f.Add(emptyRecordPayload(1<<20, 64))
	f.Add(listPayload(3, 1<<20, 64))
	f.Add(listPayload(3, 3, 3+minTickersTail))
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec Record
		if decodeRecord(data, &rec) != nil {
			return
		}
		if len(rec.Tickers)+minTickersTail+len(rec.AnnotationFallback)+minAnnotationBytes*len(rec.Annotations) > len(data) {
			t.Fatalf("%d-byte payload decoded %d tickers, %d fallbacks and %d annotations",
				len(data), len(rec.Tickers), len(rec.AnnotationFallback), len(rec.Annotations))
		}
		var again Record
		if err := decodeRecord(appendRecord(nil, &rec), &again); err != nil {
			t.Fatalf("re-encoded record does not decode: %v\nrecord: %+v", err, rec)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("re-encoded record decodes differently:\n first %+v\n again %+v", rec, again)
		}
	})
}
