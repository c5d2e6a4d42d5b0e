package store

import (
	"encoding/binary"
	"errors"
	"fmt"

	"aipan/internal/annotate"
)

// codecVersion is the binary record format version. It is the first
// byte of every encoded record; decoding any other version is refused,
// so a future field change bumps the version instead of silently
// misreading old segments.
const codecVersion = 1

// errShortPayload reports a payload that ended mid-field.
var errShortPayload = errors.New("store: binary record payload truncated")

// minAnnotationBytes is the smallest encoding of one annotation: seven
// string lengths, two varints and a bool, one byte each.
const minAnnotationBytes = 10

// The smallest encodings of the fields that follow each string list, one
// byte per string length, varint, bool and count: after Tickers, Sector
// and SectorAbbrev, the nine Crawl bytes, the three Extraction bytes and
// the AnnotationFallback and Annotations counts; after
// AnnotationFallback, the Annotations count.
const (
	minTickersTail  = 16
	minFallbackTail = 1
)

// appendRecord encodes rec into the compact binary form: a version
// byte, then every Record field in declaration order — strings as
// uvarint length + bytes, ints as zigzag varints, bools as one byte,
// slices as uvarint count + elements. The encoding has no field tags
// and no self-description; the version byte is what licenses that.
func appendRecord(buf []byte, rec *Record) []byte {
	buf = append(buf, codecVersion)
	buf = appendString(buf, rec.Domain)
	buf = appendString(buf, rec.Company)
	buf = appendStrings(buf, rec.Tickers)
	buf = appendString(buf, rec.Sector)
	buf = appendString(buf, rec.SectorAbbrev)

	buf = appendBool(buf, rec.Crawl.Success)
	buf = appendInt(buf, rec.Crawl.PagesFetched)
	buf = appendInt(buf, rec.Crawl.PrivacyPages)
	buf = appendInt(buf, rec.Crawl.Duplicates)
	buf = appendInt(buf, rec.Crawl.NonEnglish)
	buf = appendInt(buf, rec.Crawl.PDFs)
	buf = appendBool(buf, rec.Crawl.WellKnownPolicy)
	buf = appendBool(buf, rec.Crawl.WellKnownPrivacy)
	buf = appendString(buf, rec.Crawl.Error)

	buf = appendBool(buf, rec.Extraction.Success)
	buf = appendBool(buf, rec.Extraction.UsedFallback)
	buf = appendInt(buf, rec.Extraction.CoreWords)

	buf = appendStrings(buf, rec.AnnotationFallback)

	buf = binary.AppendUvarint(buf, uint64(len(rec.Annotations)))
	for i := range rec.Annotations {
		a := &rec.Annotations[i]
		buf = appendString(buf, a.Aspect)
		buf = appendString(buf, a.Meta)
		buf = appendString(buf, a.Category)
		buf = appendString(buf, a.Descriptor)
		buf = appendString(buf, a.Text)
		buf = appendInt(buf, a.Line)
		buf = appendString(buf, a.Context)
		buf = appendBool(buf, a.Novel)
		buf = appendInt(buf, a.RetentionDays)
		buf = appendString(buf, a.Scope)
	}
	return buf
}

// decodeRecord decodes a payload produced by appendRecord into rec
// (overwriting it). The whole payload must be consumed exactly:
// trailing bytes mean the frame does not hold one well-formed record
// and the segment is refused rather than partially trusted.
func decodeRecord(data []byte, rec *Record) error {
	if len(data) == 0 {
		return errShortPayload
	}
	if data[0] != codecVersion {
		return fmt.Errorf("store: binary record version %d, this build reads version %d", data[0], codecVersion)
	}
	d := decoder{buf: data[1:]}
	*rec = Record{}
	rec.Domain = d.string()
	rec.Company = d.string()
	rec.Tickers = d.strings(minTickersTail)
	rec.Sector = d.string()
	rec.SectorAbbrev = d.string()

	rec.Crawl.Success = d.bool()
	rec.Crawl.PagesFetched = d.int()
	rec.Crawl.PrivacyPages = d.int()
	rec.Crawl.Duplicates = d.int()
	rec.Crawl.NonEnglish = d.int()
	rec.Crawl.PDFs = d.int()
	rec.Crawl.WellKnownPolicy = d.bool()
	rec.Crawl.WellKnownPrivacy = d.bool()
	rec.Crawl.Error = d.string()

	rec.Extraction.Success = d.bool()
	rec.Extraction.UsedFallback = d.bool()
	rec.Extraction.CoreWords = d.int()

	rec.AnnotationFallback = d.strings(minFallbackTail)

	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)/minAnnotationBytes) {
		// A count the remaining payload cannot hold is a corrupt frame,
		// refused before allocating n annotations.
		d.err = errShortPayload
	}
	if d.err == nil && n > 0 {
		rec.Annotations = make([]annotate.Annotation, n)
		for i := range rec.Annotations {
			a := &rec.Annotations[i]
			a.Aspect = d.string()
			a.Meta = d.string()
			a.Category = d.string()
			a.Descriptor = d.string()
			a.Text = d.string()
			a.Line = d.int()
			a.Context = d.string()
			a.Novel = d.bool()
			a.RetentionDays = d.int()
			a.Scope = d.string()
		}
	}
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("store: binary record has %d trailing bytes", len(d.buf))
	}
	return nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendStrings(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = appendString(buf, s)
	}
	return buf
}

func appendInt(buf []byte, v int) []byte {
	return binary.AppendVarint(buf, int64(v))
}

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// decoder cursors over a payload; the first malformed field latches err
// and every later read returns a zero value, so field readers chain
// without per-call error checks.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = errShortPayload
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.err = errShortPayload
		return 0
	}
	d.buf = d.buf[n:]
	return int(v)
}

func (d *decoder) bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.buf) < 1 {
		d.err = errShortPayload
		return false
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	if v > 1 {
		d.err = fmt.Errorf("store: binary record bool byte 0x%02x", v)
		return false
	}
	return v == 1
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)) {
		d.err = errShortPayload
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// strings reads a string list followed by fields that take at least tail
// bytes. Every string takes at least its length byte, so a count the rest
// of the payload cannot hold is a corrupt frame, refused before the list
// is allocated.
func (d *decoder) strings(tail int) []string {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	if len(d.buf) < tail || n > uint64(len(d.buf)-tail) {
		d.err = errShortPayload
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.string()
	}
	if d.err != nil {
		return nil
	}
	return out
}
