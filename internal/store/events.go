package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// This file is the flight recorder's persistence: one wide Event per
// processed domain, written next to the dataset as a sharded stream
// (DESIGN.md §14). Records answer "what exactly happened to domain X"
// after the run exits — fetch outcome, language, clause counts,
// per-aspect annotation results, risk — and are served back through
// GET /v1/domains/{d}/provenance and GET /v1/events.

// AspectOutcome is one aspect's annotation result inside an Event.
type AspectOutcome struct {
	// Aspect is the taxonomy aspect name ("types", "purposes", ...).
	Aspect string `json:"aspect"`
	// Annotations kept after validation.
	Annotations int `json:"annotations"`
	// Dropped counts hallucination drops (annotations whose quoted text
	// failed grounding validation).
	Dropped int `json:"dropped,omitempty"`
	// Fallback is true when the aspect was answered by the rules
	// fallback rather than the chatbot.
	Fallback bool `json:"fallback,omitempty"`
}

// Event outcome values, from first failure to full success.
const (
	OutcomeCrawlFailed    = "crawl_failed"
	OutcomeNoPolicy       = "no_policy"
	OutcomeExtractFailed  = "extract_failed"
	OutcomeAnnotateFailed = "annotate_failed"
	OutcomeAnnotated      = "annotated"
)

// Event is the per-domain flight-recorder record: everything the
// pipeline decided about one domain, wide enough that provenance
// questions don't require re-running. Wall-clock fields (LatencyClass,
// WallMillis, StageMillis) are only populated when the pipeline runs
// with timings enabled; the deterministic default omits them so
// same-seed event streams are byte-identical.
type Event struct {
	// RunID ties the event to one pipeline run (seed-derived).
	RunID string `json:"run_id"`
	// Seq is the domain's submission index within the run; events in one
	// shard are ordered by it.
	Seq int `json:"seq"`
	// Domain and Sector identify the subject.
	Domain string `json:"domain"`
	Sector string `json:"sector,omitempty"`
	// Outcome is how far the domain made it through the funnel (one of
	// the Outcome* constants).
	Outcome string `json:"outcome"`
	// FetchStatus is the homepage HTTP status (0 = transport error);
	// FetchClass buckets it ("2xx".."5xx", "error").
	FetchStatus int    `json:"fetch_status,omitempty"`
	FetchClass  string `json:"fetch_class,omitempty"`
	// Language classifies the policy text ("en", "non-english", "").
	Language string `json:"language,omitempty"`
	// Crawl shape.
	PagesFetched int `json:"pages_fetched,omitempty"`
	PolicyPages  int `json:"policy_pages,omitempty"`
	// Extraction shape: segments = aspect sections found, clauses =
	// numbered policy lines, words = core policy word count.
	Segments int `json:"segments,omitempty"`
	Clauses  int `json:"clauses,omitempty"`
	Words    int `json:"words,omitempty"`
	// Annotation outcome per aspect, in pipeline call order.
	Aspects []AspectOutcome `json:"aspects,omitempty"`
	// Annotations kept in total; TaxonomyHits counts those matching the
	// paper taxonomy (non-novel).
	Annotations  int `json:"annotations,omitempty"`
	TaxonomyHits int `json:"taxonomy_hits,omitempty"`
	// RiskScore is the composite risk score of the final record.
	RiskScore float64 `json:"risk_score,omitempty"`
	// Wall-clock fields, present only with timings enabled.
	LatencyClass string           `json:"latency_class,omitempty"`
	WallMillis   int64            `json:"wall_millis,omitempty"`
	StageMillis  map[string]int64 `json:"stage_millis,omitempty"`
	// Errors is the chain of stage errors hit along the way, outermost
	// first.
	Errors []string `json:"errors,omitempty"`
}

// EventSink receives completed flight-recorder events. The pipeline
// emits through this seam from its serialized delivery callback, so
// implementations see events in submission order and need not reorder.
type EventSink interface {
	Append(*Event) error
}

// EventStore is a persistent sink that can also replay what it holds.
// The *Event passed to a scan callback is only valid for the duration
// of the call.
type EventStore interface {
	EventSink
	// Scan replays all events, shard-major then append order.
	Scan(func(*Event) error) error
	// ScanDomain replays only the given domain's events.
	ScanDomain(domain string, fn func(*Event) error) error
	Close() error
}

// ------------------------------------------------------------ framed log

// EventLog is the on-disk event stream: events-%02d.bin files in a
// directory, each event's JSON encoding in one CRC frame of the binary
// store's format (frame.go), routed by domain hash (ShardOf). The shard
// count is stamped in events-meta.json when the log is created — a
// distinct name, so an event log can share a directory with a binary
// dataset store without the stamps colliding. Within a shard, events
// appear in append order — submission order under the pipeline's
// serialized delivery — so a same-seed rerun reproduces each shard file
// byte for byte.
type EventLog struct {
	dir    string
	shards int
	mu     sync.Mutex
	files  []*os.File // lazily opened for append
	frame  frameBuf   // reused Append frame buffer
	enc    *json.Encoder
}

// OpenEventLog opens (or creates) an event log in dir with the given
// shard count (1..99), stamping the count on creation. Reopening with a
// different shard count is refused, as is a directory holding the
// retired JSONL event layout.
func OpenEventLog(dir string, shards int) (*EventLog, error) {
	if shards < 1 || shards > 99 {
		return nil, fmt.Errorf("store: event shard count %d out of range 1..99", shards)
	}
	if err := refuseJSONLEvents(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating event dir: %w", err)
	}
	l := &EventLog{dir: dir, shards: shards, files: make([]*os.File, shards)}
	l.enc = json.NewEncoder(&l.frame)
	m, ok, err := l.Meta()
	if err != nil {
		return nil, err
	}
	if !ok {
		if err := l.SetMeta(Meta{}); err != nil {
			return nil, err
		}
	} else if m.Shards != shards {
		return nil, fmt.Errorf("store: event log %s was created with %d shards, reopened with %d",
			dir, m.Shards, shards)
	}
	return l, nil
}

// refuseJSONLEvents refuses a directory written in the retired
// events-shard-%02d.jsonl layout.
func refuseJSONLEvents(dir string) error {
	old, err := filepath.Glob(filepath.Join(dir, "events-shard-*.jsonl"))
	if err != nil || len(old) == 0 {
		return nil
	}
	return fmt.Errorf("store: %s holds a flight-recorder log in the retired JSONL layout (%s), which this build no longer reads; re-record it into a fresh directory with `aipan run --events-out`",
		dir, filepath.Base(old[0]))
}

func (l *EventLog) shardPath(i int) string {
	return filepath.Join(l.dir, fmt.Sprintf("events-%02d.bin", i))
}

func (l *EventLog) shardOf(domain string) int {
	return ShardOf(domain, l.shards)
}

// Append frames ev into its domain's shard with one write.
func (l *EventLog) Append(ev *Event) error {
	i := l.shardOf(ev.Domain)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.files[i] == nil {
		f, err := os.OpenFile(l.shardPath(i), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("store: opening event shard: %w", err)
		}
		l.files[i] = f
	}
	l.frame.begin()
	if err := l.enc.Encode(ev); err != nil {
		return fmt.Errorf("store: encoding event for %s: %w", ev.Domain, err)
	}
	l.frame.b = l.frame.b[:len(l.frame.b)-1] // Encode's newline is not payload
	if _, err := l.files[i].Write(l.frame.seal()); err != nil {
		return fmt.Errorf("store: appending event for %s: %w", ev.Domain, err)
	}
	return nil
}

// decodeEvent is the event log's frame payload decoder.
func decodeEvent(data []byte, ev *Event) error {
	*ev = Event{}
	return json.Unmarshal(data, ev)
}

func (l *EventLog) scanShard(i int, fn func(*Event) error) error {
	it, err := openFrames(l.shardPath(i), 0, -1, decodeEvent)
	if err != nil {
		return err
	}
	return drain(it, fn)
}

// Scan replays every shard in index order (missing files read as empty).
func (l *EventLog) Scan(fn func(*Event) error) error {
	for i := 0; i < l.shards; i++ {
		if err := l.scanShard(i, fn); err != nil {
			return err
		}
	}
	return nil
}

// ScanDomain replays only domain's shard, filtering to its events.
func (l *EventLog) ScanDomain(domain string, fn func(*Event) error) error {
	return l.scanShard(l.shardOf(domain), func(ev *Event) error {
		if ev.Domain != domain {
			return nil
		}
		return fn(ev)
	})
}

// Len counts events across all shards.
func (l *EventLog) Len() (int, error) {
	n := 0
	err := l.Scan(func(*Event) error { n++; return nil })
	return n, err
}

// Close closes every opened shard file.
func (l *EventLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var first error
	for i, f := range l.files {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && first == nil {
			first = fmt.Errorf("store: closing event shard: %w", err)
		}
		l.files[i] = nil
	}
	return first
}

// Meta reads the directory's events-meta.json stamp.
func (l *EventLog) Meta() (Meta, bool, error) {
	return readMetaFile(filepath.Join(l.dir, "events-meta.json"))
}

// SetMeta writes the stamp, always recording the shard count.
func (l *EventLog) SetMeta(m Meta) error {
	m.Shards = l.shards
	return writeMetaFile(filepath.Join(l.dir, "events-meta.json"), m)
}

// OpenEventDir opens an existing event directory for reading, with the
// shard count stamped in its events-meta.json. This is the read path
// `aipan debug events`, `aipan debug repair --events` and `aipan serve
// --events` use.
func OpenEventDir(dir string) (*EventLog, error) {
	m, ok, err := readMetaFile(filepath.Join(dir, "events-meta.json"))
	if err != nil {
		return nil, err
	}
	if !ok {
		if err := refuseJSONLEvents(dir); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("store: %s holds no flight-recorder log (no events-meta.json)", dir)
	}
	return OpenEventLog(dir, m.Shards)
}

// -------------------------------------------------------------- in-memory

// MemEvents is the in-memory sink for tests and benchmarks.
type MemEvents struct {
	mu  sync.RWMutex
	evs []Event
}

// NewMemEvents builds an empty in-memory event store.
func NewMemEvents() *MemEvents { return &MemEvents{} }

// Append stores a copy of ev.
func (m *MemEvents) Append(ev *Event) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evs = append(m.evs, *ev)
	return nil
}

// Scan replays stored events in append order.
func (m *MemEvents) Scan(fn func(*Event) error) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i := range m.evs {
		if err := fn(&m.evs[i]); err != nil {
			return err
		}
	}
	return nil
}

// ScanDomain replays only domain's events.
func (m *MemEvents) ScanDomain(domain string, fn func(*Event) error) error {
	return m.Scan(func(ev *Event) error {
		if ev.Domain != domain {
			return nil
		}
		return fn(ev)
	})
}

// Len reports the number of stored events.
func (m *MemEvents) Len() (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.evs), nil
}

// Close is a no-op.
func (m *MemEvents) Close() error { return nil }
