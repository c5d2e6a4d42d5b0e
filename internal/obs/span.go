package obs

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"sync/atomic"
	"time"
)

// StageDurationMetric is the histogram every span feeds, labeled by span
// name.
const StageDurationMetric = "aipan_stage_duration_seconds"

// Tracer times spans into the stage histogram. One Tracer is created
// per pipeline run and attached to the context with WithTracer; its
// clock is the one the pipeline's latencies are read from. All methods
// are safe for concurrent use.
//
// A Tracer can additionally stream completed spans through an Exporter
// (WithExporter) — that is the durable-telemetry path, and the exported
// records are the one per-span view of a run. Span identity is
// either counter-issued (wall mode) or derived from (run, parent, name,
// attrs) in deterministic mode (WithDeterministicIDs), where timing
// fields are also withheld from exported records so same-seed runs
// export byte-identical traces.
type Tracer struct {
	hist *HistogramVec

	runID         string
	exporter      Exporter
	deterministic bool
	idBase        uint64
	idCtr         atomic.Uint64
	clock         Clock
}

// TracerOption configures a Tracer.
type TracerOption func(*Tracer)

// WithRunID labels every exported span with id (default: no label).
func WithRunID(id string) TracerOption {
	return func(t *Tracer) { t.runID = id }
}

// WithExporter streams every completed span to e.
func WithExporter(e Exporter) TracerOption {
	return func(t *Tracer) { t.exporter = e }
}

// WithDeterministicIDs derives span IDs from the seed and the span's
// position in the trace tree — (parent ID, name, attributes) — instead
// of issuing them from a counter, and withholds wall-clock fields from
// exported records. Two same-seed runs then export the same record
// multiset regardless of scheduling; pair with a sorted FileExporter
// for byte-identical files.
func WithDeterministicIDs(seed int64) TracerOption {
	return func(t *Tracer) {
		t.deterministic = true
		h := fnv.New64a()
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(seed))
		h.Write(b[:])
		t.idBase = h.Sum64()
	}
}

// WithTracerClock injects the time source every span reads (default
// SystemClock); deterministic mode never reads it for exported fields.
func WithTracerClock(c Clock) TracerOption {
	return func(t *Tracer) { t.clock = c }
}

// NewTracer builds a tracer recording span durations into reg (nil =
// Default()).
func NewTracer(reg *Registry, opts ...TracerOption) *Tracer {
	if reg == nil {
		reg = Default()
	}
	t := &Tracer{
		hist: reg.HistogramVec(StageDurationMetric,
			"Wall time of pipeline stages, labeled by span name.", nil, "stage"),
		clock: SystemClock,
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

// RunID reports the tracer's run label ("" when unset).
func (t *Tracer) RunID() string { return t.runID }

type tracerKey struct{}

type spanKey struct{}

// WithTracer attaches tr to the context; StartSpan finds it there.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, tr)
}

// TracerFrom returns the tracer attached to ctx, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	tr, _ := ctx.Value(tracerKey{}).(*Tracer)
	return tr
}

// Span is one timed region. Spans nest through the context: StartSpan
// under an active span records the new span as its child (parent ID and
// slash-joined path in the exported record). A nil *Span (no tracer in
// the context) is a no-op.
type Span struct {
	tracer *Tracer
	name   string
	path   string // slash-joined names from the root span
	attrs  []Attr
	id     uint64
	parent uint64
	start  time.Time
}

// StartSpan begins a span named name. The returned context carries the
// span so nested StartSpan calls become its children; call End when the
// region completes. Without a Tracer in ctx it returns ctx unchanged and
// a nil (no-op) span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return StartSpanWith(ctx, name)
}

// StartSpanWith begins a span carrying attributes. Attributes identify
// the span's subject ("domain" → "acme.example") and, in deterministic
// mode, disambiguate sibling spans that share a name.
func StartSpanWith(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	tr := TracerFrom(ctx)
	if tr == nil {
		return ctx, nil
	}
	path := name
	var parentID uint64
	if parent, ok := ctx.Value(spanKey{}).(*Span); ok && parent != nil {
		path = parent.path + "/" + name
		parentID = parent.id
	}
	s := &Span{tracer: tr, name: name, path: path, attrs: attrs,
		parent: parentID, start: tr.clock()}
	s.id = tr.spanID(s)
	return context.WithValue(ctx, spanKey{}, s), s
}

// spanID issues the span's identity: content-derived in deterministic
// mode (stable across runs and scheduling), counter-issued otherwise.
func (t *Tracer) spanID(s *Span) uint64 {
	if !t.deterministic {
		return t.idCtr.Add(1)
	}
	h := fnv.New64a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], t.idBase)
	h.Write(b[:])
	binary.BigEndian.PutUint64(b[:], s.parent)
	h.Write(b[:])
	h.Write([]byte(s.name))
	for _, a := range s.attrs {
		h.Write([]byte{0})
		h.Write([]byte(a.Key))
		h.Write([]byte{'='})
		h.Write([]byte(a.Value))
	}
	return h.Sum64()
}

// End records the span's duration into the stage histogram, exports the
// span if the tracer carries an Exporter, and returns the duration, so
// callers that report a region's time read it from the span rather than
// timing the region twice. Safe on a nil span, which returns 0.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := s.tracer.clock().Sub(s.start)
	s.tracer.hist.With(s.name).Observe(d.Seconds())
	if e := s.tracer.exporter; e != nil {
		rec := &SpanRecord{
			RunID:  s.tracer.runID,
			SpanID: spanIDString(s.id),
			Name:   s.name,
			Path:   s.path,
			Attrs:  s.attrs,
		}
		if s.parent != 0 {
			rec.ParentID = spanIDString(s.parent)
		}
		if !s.tracer.deterministic {
			rec.StartUnixNano = s.start.UnixNano()
			rec.DurationNanos = int64(d)
		}
		e.ExportSpan(rec)
	}
	return d
}

// spanIDString renders an ID as 16 lowercase hex digits (JSON-safe:
// uint64s overflow float64 precision in many consumers).
func spanIDString(id uint64) string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}
