package obs

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file is the durable half of the tracing layer: completed spans
// stream through the Exporter seam into a length-prefixed JSONL trace
// file that survives the process (DESIGN.md §14). The stage histogram
// span.go feeds answers "where is this run spending its time" live; the
// export answers it per span, later, from another process (`aipan debug
// trace`), and — in deterministic mode — byte-identically across
// same-seed runs, so trace files can be diffed like dataset files.

// Attr is one span attribute: a key/value pair identifying what the
// span worked on ("domain" → "acme.example"). Attributes participate in
// deterministic span identity, so sibling spans that share a name must
// differ in at least one attribute for their IDs to differ.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// A returns an Attr — shorthand for call sites.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// SpanRecord is one completed span as exported. In deterministic mode
// the wall-clock fields are zero (omitted from the JSON), which is what
// makes same-seed exports byte-identical.
type SpanRecord struct {
	// RunID labels every span of one run (seed-derived by default).
	RunID string `json:"run_id"`
	// SpanID is the span's stable identity, 16 hex digits. Deterministic
	// mode derives it from (run, parent, name, attrs); wall mode issues
	// it from a counter.
	SpanID string `json:"span_id"`
	// ParentID is the enclosing span's SpanID ("" for a root span).
	ParentID string `json:"parent_id,omitempty"`
	// Name is the span name ("crawl", "annotate.types", ...).
	Name string `json:"name"`
	// Path is the slash-joined name chain from the root ("run/domain/crawl").
	Path string `json:"path"`
	// Attrs are the span's attributes in the order they were set.
	Attrs []Attr `json:"attrs,omitempty"`
	// StartUnixNano / DurationNanos carry wall-clock timing; both are
	// zero in deterministic mode.
	StartUnixNano int64 `json:"start_unix_nano,omitempty"`
	DurationNanos int64 `json:"duration_nanos,omitempty"`
}

// Exporter receives completed spans. Implementations must be safe for
// concurrent use: spans End on whatever goroutine ran the work. Errors
// are accumulated and surfaced by Close, so the hot path never branches
// on export failures.
type Exporter interface {
	ExportSpan(*SpanRecord)
	Close() error
}

// DeriveRunID maps a corpus seed to the run identifier threaded through
// logs, spans, and flight-recorder events. Seed-derived (not random, not
// time-based) so same-seed runs carry the same ID and their telemetry is
// byte-comparable.
func DeriveRunID(seed int64) string {
	h := fnv.New64a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	return "r" + strconv.FormatUint(h.Sum64(), 16)
}

// FileExporter writes spans to a length-prefixed JSONL trace file: each
// line is "<byte length> <json>\n", so a reader can frame records
// without trusting line discipline and a truncated tail is detectable.
// In sorted mode (deterministic exports) records are buffered and
// written at Close in lexicographic line order — span completion order
// under concurrency is scheduler-dependent, and sorting is what turns a
// deterministic record multiset into a deterministic file.
type FileExporter struct {
	sorted bool

	mu    sync.Mutex
	f     *os.File
	w     *bufio.Writer
	lines []string // sorted mode: marshaled records pending Close
	err   error
}

// NewFileExporter creates (truncating) the trace file at path. sorted
// selects deterministic output ordering; pass true whenever the tracer
// runs in deterministic mode.
func NewFileExporter(path string, sorted bool) (*FileExporter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: creating trace file: %w", err)
	}
	return &FileExporter{sorted: sorted, f: f, w: bufio.NewWriter(f)}, nil
}

// ExportSpan records one completed span. Marshal or write errors stick
// and surface at Close.
func (e *FileExporter) ExportSpan(rec *SpanRecord) {
	b, err := json.Marshal(rec)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return
	}
	if err != nil {
		e.err = fmt.Errorf("obs: encoding span: %w", err)
		return
	}
	if e.sorted {
		e.lines = append(e.lines, string(b))
		return
	}
	e.err = writeFramed(e.w, b)
}

// Close flushes (sorting first in sorted mode) and closes the file,
// returning the first error encountered over the exporter's lifetime.
func (e *FileExporter) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sorted && e.err == nil {
		sort.Strings(e.lines)
		for _, line := range e.lines {
			if e.err = writeFramed(e.w, []byte(line)); e.err != nil {
				break
			}
		}
		e.lines = nil
	}
	if err := e.w.Flush(); err != nil && e.err == nil {
		e.err = fmt.Errorf("obs: flushing trace file: %w", err)
	}
	if err := e.f.Close(); err != nil && e.err == nil {
		e.err = fmt.Errorf("obs: closing trace file: %w", err)
	}
	return e.err
}

// writeFramed writes one length-prefixed record line.
func writeFramed(w *bufio.Writer, b []byte) error {
	if _, err := fmt.Fprintf(w, "%d %s\n", len(b), b); err != nil {
		return fmt.Errorf("obs: writing span: %w", err)
	}
	return nil
}

// ReadTrace parses a length-prefixed JSONL trace file written by
// FileExporter, validating each frame's length prefix.
func ReadTrace(path string) ([]SpanRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: reading trace file: %w", err)
	}
	var out []SpanRecord
	rest := string(data)
	lineNo := 0
	for len(rest) > 0 {
		lineNo++
		line := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if line == "" {
			continue
		}
		sp := strings.IndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("obs: %s line %d: missing length prefix", path, lineNo)
		}
		n, err := strconv.Atoi(line[:sp])
		if err != nil || n != len(line)-sp-1 {
			return nil, fmt.Errorf("obs: %s line %d: length prefix %q does not match payload (%d bytes)",
				path, lineNo, line[:sp], len(line)-sp-1)
		}
		var rec SpanRecord
		if err := json.Unmarshal([]byte(line[sp+1:]), &rec); err != nil {
			return nil, fmt.Errorf("obs: %s line %d: %w", path, lineNo, err)
		}
		out = append(out, rec)
	}
	return out, nil
}
