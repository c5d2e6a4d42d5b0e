package chatbot

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"aipan/internal/taxonomy"
)

// The parsers below decode the strict-JSON tuple formats the task prompts
// demand. They tolerate the two deviations real LLMs commonly produce —
// markdown code fences and leading prose — and reject everything else, so
// malformed completions surface as errors the pipeline can retry
// (§3.2: "programmatically verify" chatbot output).
//
// Every answer the pipeline exchanges crosses this file twice, so the
// codec reads and writes the tuples directly instead of through
// encoding/json's reflection: the reader accepts and rejects exactly what
// json.Unmarshal into the old [][]json.RawMessage shapes did and returns
// the same values, and the writer emits json.Marshal's bytes
// (parse_ref_test.go keeps those versions as the fuzzed reference).

// LineLabels is one heading/line with its assigned aspect labels.
type LineLabels struct {
	Line   int
	Labels []string
}

// Extraction is one verbatim mention located on a numbered line.
type Extraction struct {
	Line int
	Text string
}

// Normalization maps a surface mention onto the taxonomy.
type Normalization struct {
	Surface    string
	Meta       string
	Category   string
	Descriptor string
}

// LabeledMention is one practice mention with its Table 1 label.
type LabeledMention struct {
	Line  int
	Group string
	Label string
	Text  string
}

// StripJSON extracts the JSON payload from a completion: it removes
// ```json fences and any prose before the first '[' or '{'.
func StripJSON(s string) string {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "```") {
		s = strings.TrimPrefix(s, "```json")
		s = strings.TrimPrefix(s, "```")
		if i := strings.LastIndex(s, "```"); i >= 0 {
			s = s[:i]
		}
		s = strings.TrimSpace(s)
	}
	start := strings.IndexAny(s, "[{")
	if start > 0 {
		s = s[start:]
	}
	return strings.TrimSpace(s)
}

// ParseLineLabels decodes `[[12, ["types"]], [15, ["purposes","handling"]]]`.
func ParseLineLabels(s string) ([]LineLabels, error) {
	r := newReader(s, "line-label")
	out := []LineLabels{}
	for r.next() {
		var ll LineLabels
		ll.Line = r.int("line")
		ll.Labels = r.labels("labels")
		if r.close(2) {
			out = append(out, ll)
		}
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// ParseExtractions decodes `[[4, "email address"], [4, "browsing history"]]`.
func ParseExtractions(s string) ([]Extraction, error) {
	r := newReader(s, "extraction")
	out := []Extraction{}
	for r.next() {
		var e Extraction
		e.Line = r.int("line")
		e.Text = r.string("text")
		if r.close(2) {
			out = append(out, e)
		}
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// ParseNormalizations decodes
// `[["mailing address", "Physical profile", "Contact info", "postal address"]]`.
func ParseNormalizations(s string) ([]Normalization, error) {
	r := newReader(s, "normalization")
	out := []Normalization{}
	for r.next() {
		var n Normalization
		n.Surface = r.string("surface")
		n.Meta = r.string("meta")
		n.Category = r.string("category")
		n.Descriptor = r.string("descriptor")
		if r.close(4) {
			out = append(out, n)
		}
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// ParseLabeledMentions decodes
// `[[3, "Data retention", "Stated", "six (6) years"]]`.
func ParseLabeledMentions(s string) ([]LabeledMention, error) {
	r := newReader(s, "labeled-mention")
	out := []LabeledMention{}
	for r.next() {
		var m LabeledMention
		m.Line = r.int("line")
		m.Group = r.string("group")
		m.Label = r.string("label")
		m.Text = r.string("text")
		if r.close(4) {
			out = append(out, m)
		}
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// maxNestingDepth is encoding/json's scanner limit; the reader applies it
// to the surplus tuple elements it skips.
const maxNestingDepth = 10000

// reader decodes one answer: `null` or an array of tuples, each `null`
// or an array. Only space, tab, CR and LF count as whitespace, and
// nothing may follow the answer. The first error latches and every later
// read returns a zero value, so the parsers chain field reads without
// per-call checks. Decoded strings are interned or copied, never
// substrings of the completion: records outlive it.
type reader struct {
	s     string
	i     int
	what  string // tuple kind, for errors
	tuple int    // index of the tuple being read, -1 before the first
	n     int    // elements of the current tuple read so far
	field string // field being read, for errors
	done  bool
	err   error
	vocab map[string]string
	buf   []byte // scratch for strings with escapes or invalid UTF-8
}

func newReader(s, what string) reader {
	return reader{s: StripJSON(s), what: what, tuple: -1, vocab: vocabulary()}
}

func (r *reader) fail(format string, args ...any) {
	if r.err != nil {
		return
	}
	msg := fmt.Sprintf(format, args...)
	if r.field != "" {
		r.err = fmt.Errorf("chatbot: %s tuple %d %s: %s", r.what, r.tuple, r.field, msg)
	} else {
		r.err = fmt.Errorf("chatbot: parsing %s tuples: %s", r.what, msg)
	}
}

// want fails naming what was expected and the byte at the cursor.
func (r *reader) want(what string) {
	if r.i < len(r.s) {
		r.fail("want %s at offset %d, got %q", what, r.i, r.s[r.i])
	} else {
		r.fail("want %s, got the end of the answer", what)
	}
}

func (r *reader) lengthError() {
	if r.err == nil {
		r.err = fmt.Errorf("chatbot: %s tuple %d has %d elements", r.what, r.tuple, r.n)
	}
}

func (r *reader) ws() {
	for r.i < len(r.s) {
		switch r.s[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// peek returns the byte at the cursor, or 0 at the end. Callers compare
// it with what they expect, never with 0: a NUL byte is not the end.
func (r *reader) peek() byte {
	if r.i < len(r.s) {
		return r.s[r.i]
	}
	return 0
}

// lit consumes the literal word (null, true or false).
func (r *reader) lit(word string) {
	if strings.HasPrefix(r.s[r.i:], word) {
		r.i += len(word)
	} else {
		r.fail("invalid literal at offset %d", r.i)
	}
}

// next moves to the next tuple, reporting false at the end of the answer
// or on an error. A `null` tuple has zero elements.
func (r *reader) next() bool {
	if r.err != nil || r.done {
		return false
	}
	r.ws()
	switch c := r.peek(); {
	case r.tuple < 0 && c == 'n':
		r.lit("null")
		r.done = true
		return false
	case r.tuple < 0 && c == '[':
		r.i++
		r.ws()
		if r.peek() == ']' {
			r.i++
			r.done = true
			return false
		}
	case r.tuple < 0:
		r.want("an array of tuples")
		return false
	case c == ',':
		r.i++
		r.ws()
	case c == ']':
		r.i++
		r.done = true
		return false
	default:
		r.want("',' or ']'")
		return false
	}
	r.tuple++
	r.n = 0
	switch r.peek() {
	case '[':
		r.i++
		return true
	case 'n':
		r.lit("null")
		r.lengthError()
	default:
		r.want("a tuple")
	}
	return false
}

// elem moves to the next element of the current tuple, named field;
// false if the tuple ended first or an error latched.
func (r *reader) elem(field string) bool {
	if r.err != nil {
		return false
	}
	r.ws()
	switch c := r.peek(); {
	case c == ']':
		r.lengthError()
		return false
	case r.n == 0:
	case c == ',':
		r.i++
		r.ws()
	default:
		r.want("',' or ']'")
		return false
	}
	r.n++
	r.field = field
	return true
}

// close ends a tuple that should hold want elements. Surplus elements
// are still read as JSON values, then refused by count.
func (r *reader) close(want int) bool {
	r.field = ""
	for r.err == nil {
		r.ws()
		switch r.peek() {
		case ']':
			r.i++
			if r.n == want {
				return true
			}
			r.lengthError()
		case ',':
			r.i++
			r.n++
			r.skip(3)
		default:
			r.want("',' or ']'")
		}
	}
	return false
}

// finish checks that nothing but whitespace follows the answer.
func (r *reader) finish() error {
	if r.err == nil {
		r.ws()
		if r.i != len(r.s) {
			r.want("the end of the answer")
		}
	}
	return r.err
}

// int reads an integer field: an integer literal in int64 range, or
// `null` for 0.
func (r *reader) int(field string) int {
	if !r.elem(field) {
		return 0
	}
	switch c := r.peek(); {
	case c == 'n':
		r.lit("null")
	case c == '-' || '0' <= c && c <= '9':
		start := r.i
		if r.number() {
			if v, err := strconv.ParseInt(r.s[start:r.i], 10, 64); err == nil {
				return int(v)
			}
		}
		r.fail("want an int64 integer, got %s", r.s[start:r.i])
	default:
		r.want("an integer")
	}
	return 0
}

// string reads a string field: a string, or `null` for "".
func (r *reader) string(field string) string {
	if !r.elem(field) {
		return ""
	}
	switch r.peek() {
	case '"':
		return r.str()
	case 'n':
		r.lit("null")
	default:
		r.want("a string")
	}
	return ""
}

// labels reads a label-list field: an array of strings or nulls (a null
// label is ""), `null` for a nil list, or one bare string.
func (r *reader) labels(field string) []string {
	if !r.elem(field) {
		return nil
	}
	switch r.peek() {
	case 'n':
		r.lit("null")
		return nil
	case '"':
		return []string{r.str()}
	case '[':
		r.i++
	default:
		r.want("a label list")
		return nil
	}
	out := make([]string, 0, 2)
	for r.err == nil {
		r.ws()
		if len(out) == 0 && r.peek() == ']' {
			r.i++
			return out
		}
		switch r.peek() {
		case '"':
			out = append(out, r.str())
		case 'n':
			r.lit("null")
			out = append(out, "")
		default:
			r.want("a label string")
		}
		r.ws()
		switch r.peek() {
		case ',':
			r.i++
		case ']':
			r.i++
			return out
		default:
			r.want("',' or ']'")
		}
	}
	return nil
}

// number consumes a JSON number and reports whether it is an integer
// literal, without a fraction or exponent.
func (r *reader) number() bool {
	s, i := r.s, r.i
	if s[i] == '-' {
		i++
	}
	ok, isInt := true, true
	if i < len(s) && s[i] == '0' {
		i++
	} else {
		j := skipDigits(s, i)
		ok, i = j > i, j
	}
	if ok && i < len(s) && s[i] == '.' {
		isInt = false
		j := skipDigits(s, i+1)
		ok, i = j > i+1, j
	}
	if ok && i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		isInt = false
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		j := skipDigits(s, i)
		ok, i = j > i, j
	}
	if !ok {
		r.fail("invalid number at offset %d", r.i)
		return false
	}
	r.i = i
	return isInt
}

func skipDigits(s string, i int) int {
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
}

// str reads the string whose opening quote is at the cursor, unquoted as
// encoding/json does: the escapes \" \\ \/ \b \f \n \r \t and \uXXXX, a
// valid surrogate pair combined into one rune, and a lone surrogate or an
// invalid UTF-8 byte replaced by U+FFFD. A raw control byte is an error.
func (r *reader) str() string {
	s := r.s
	start := r.i + 1
	i := start
	for i < len(s) {
		c := s[i]
		if c == '"' {
			r.i = i + 1
			return r.intern(s[start:i])
		}
		if c == '\\' || c < ' ' {
			break
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		rr, size := utf8.DecodeRuneInString(s[i:])
		if rr == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	// Slow path: unquote into the scratch buffer.
	b := append(r.buf[:0], s[start:i]...)
	for i < len(s) {
		switch c := s[i]; {
		case c == '"':
			r.i = i + 1
			r.buf = b
			if v, ok := r.vocab[string(b)]; ok {
				return v
			}
			return string(b)
		case c < ' ':
			return r.badString(i)
		case c < utf8.RuneSelf && c != '\\':
			b = append(b, c)
			i++
		case c >= utf8.RuneSelf:
			rr, size := utf8.DecodeRuneInString(s[i:])
			b = utf8.AppendRune(b, rr)
			i += size
		case i+1 == len(s):
			return r.badString(i)
		default:
			e := s[i+1]
			i += 2
			switch e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := hex4(s, i)
				if rr < 0 {
					return r.badString(i)
				}
				i += 4
				if utf16.IsSurrogate(rr) {
					rr1 := rune(-1)
					if i+1 < len(s) && s[i] == '\\' && s[i+1] == 'u' {
						rr1 = hex4(s, i+2)
					}
					if rr = utf16.DecodeRune(rr, rr1); rr != unicode.ReplacementChar {
						i += 6
					}
				}
				b = utf8.AppendRune(b, rr)
			default:
				return r.badString(i - 1)
			}
		}
	}
	return r.badString(i)
}

func (r *reader) badString(i int) string {
	r.i = i
	r.fail("invalid string at offset %d", i)
	return ""
}

// hex4 decodes the four hex digits at s[i:], or returns -1.
func hex4(s string, i int) rune {
	if i+4 > len(s) {
		return -1
	}
	var v rune
	for _, c := range []byte(s[i : i+4]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		v = v<<4 | rune(c)
	}
	return v
}

// skip consumes one JSON value of any kind; a container it opens sits at
// nesting depth.
func (r *reader) skip(depth int) {
	r.ws()
	switch c := r.peek(); {
	case c == '"':
		r.str()
	case c == 'n':
		r.lit("null")
	case c == 't':
		r.lit("true")
	case c == 'f':
		r.lit("false")
	case c == '-' || '0' <= c && c <= '9':
		r.number()
	case c == '[' || c == '{':
		if depth > maxNestingDepth {
			r.fail("exceeded max depth at offset %d", r.i)
			return
		}
		end := byte(']')
		if c == '{' {
			end = '}'
		}
		r.i++
		r.ws()
		if r.peek() == end {
			r.i++
			return
		}
		for r.err == nil {
			if c == '{' {
				r.ws()
				if r.peek() != '"' {
					r.want("an object key")
					return
				}
				r.str()
				r.ws()
				if r.peek() != ':' {
					r.want("':'")
					return
				}
				r.i++
			}
			r.skip(depth + 1)
			r.ws()
			switch r.peek() {
			case ',':
				r.i++
			case end:
				r.i++
				return
			default:
				r.want("',' or '" + string(end) + "'")
			}
		}
	default:
		r.want("a JSON value")
	}
}

// intern returns the vocabulary entry equal to s, or a copy of s.
func (r *reader) intern(s string) string {
	if v, ok := r.vocab[s]; ok {
		return v
	}
	return strings.Clone(s)
}

// vocab holds the taxonomy's vocabulary — the type and purpose
// meta-category, category and descriptor names, the four label groups
// and their labels, and the nine aspects — for the taxonomy generation
// it was built from. A decoded string equal to an entry is the entry, so
// the records' repeated category names share one copy.
var vocab struct {
	mu  sync.Mutex
	gen uint64
	m   map[string]string
}

func vocabulary() map[string]string {
	gen := taxonomy.Generation()
	vocab.mu.Lock()
	defer vocab.mu.Unlock()
	if vocab.m == nil || vocab.gen != gen {
		vocab.gen, vocab.m = gen, buildVocabulary()
	}
	return vocab.m
}

func buildVocabulary() map[string]string {
	m := map[string]string{}
	for _, cats := range [][]taxonomy.Category{taxonomy.TypeCategories(), taxonomy.PurposeCategories()} {
		for _, c := range cats {
			m[c.Meta], m[c.Name] = c.Meta, c.Name
			for _, d := range c.Descriptors {
				m[d.Name] = d.Name
			}
		}
	}
	for _, labels := range [][]taxonomy.Label{retentionLabels(), protectionLabels(), choiceLabels(), accessLabels()} {
		for _, l := range labels {
			m[l.Group], m[l.Name] = l.Group, l.Name
		}
	}
	for _, a := range taxonomy.Aspects() {
		m[string(a)] = string(a)
	}
	return m
}

// --- Encoders used by simulated backends (kept beside the parsers so the
// --- wire format lives in one file). Each appends its answer into one
// --- pre-sized buffer, byte for byte what json.Marshal writes.

// EncodeLineLabels renders line labels in the task's JSON tuple format.
func EncodeLineLabels(lls []LineLabels) string {
	n := 2
	for _, ll := range lls {
		n += tupleBytes + 2
		for _, l := range ll.Labels {
			n += len(l) + 3
		}
	}
	b := make([]byte, 0, n)
	b = append(b, '[')
	for i, ll := range lls {
		b = openTuple(b, i)
		b = strconv.AppendInt(b, int64(ll.Line), 10)
		b = append(b, ',', '[')
		for j, l := range ll.Labels {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendString(b, l)
		}
		b = append(b, ']', ']')
	}
	return string(append(b, ']'))
}

// EncodeExtractions renders extractions in the task's JSON tuple format.
func EncodeExtractions(es []Extraction) string {
	n := 2
	for _, e := range es {
		n += tupleBytes + len(e.Text) + 3
	}
	b := make([]byte, 0, n)
	b = append(b, '[')
	for i, e := range es {
		b = openTuple(b, i)
		b = strconv.AppendInt(b, int64(e.Line), 10)
		b = appendString(append(b, ','), e.Text)
		b = append(b, ']')
	}
	return string(append(b, ']'))
}

// EncodeNormalizations renders normalizations in the JSON tuple format.
func EncodeNormalizations(ns []Normalization) string {
	n := 2
	for _, x := range ns {
		n += tupleBytes + len(x.Surface) + len(x.Meta) + len(x.Category) + len(x.Descriptor) + 12
	}
	b := make([]byte, 0, n)
	b = append(b, '[')
	for i, x := range ns {
		b = openTuple(b, i)
		b = appendString(b, x.Surface)
		b = appendString(append(b, ','), x.Meta)
		b = appendString(append(b, ','), x.Category)
		b = appendString(append(b, ','), x.Descriptor)
		b = append(b, ']')
	}
	return string(append(b, ']'))
}

// EncodeLabeledMentions renders labeled mentions in the JSON tuple format.
func EncodeLabeledMentions(ms []LabeledMention) string {
	n := 2
	for _, m := range ms {
		n += tupleBytes + len(m.Group) + len(m.Label) + len(m.Text) + 9
	}
	b := make([]byte, 0, n)
	b = append(b, '[')
	for i, m := range ms {
		b = openTuple(b, i)
		b = strconv.AppendInt(b, int64(m.Line), 10)
		b = appendString(append(b, ','), m.Group)
		b = appendString(append(b, ','), m.Label)
		b = appendString(append(b, ','), m.Text)
		b = append(b, ']')
	}
	return string(append(b, ']'))
}

// tupleBytes sizes a tuple's brackets, separator and a line number of up
// to five digits; a longer one only regrows the buffer.
const tupleBytes = 8

func openTuple(b []byte, i int) []byte {
	if i > 0 {
		b = append(b, ',')
	}
	return append(b, '[')
}

const hexDigits = "0123456789abcdef"

// appendString appends s as encoding/json's HTML-safe encoder writes it:
// `<`, `>` and `&` as \u003c \u003e \u0026, \b \f \n \r \t by name, other
// control bytes as \u00XX, invalid UTF-8 as \ufffd, and U+2028 and U+2029
// escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
