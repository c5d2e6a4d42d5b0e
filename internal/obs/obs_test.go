package obs

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// ------------------------------------------------------------------ logger

func testLogger(buf *strings.Builder, level Level) *Logger {
	l := NewLogger(buf, level)
	l.now = func() time.Time { return time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC) }
	return l
}

func TestLoggerFormat(t *testing.T) {
	var buf strings.Builder
	log := testLogger(&buf, LevelInfo).With("crawler")
	log.Info("fetch failed", "url", "http://x/privacy", "status", 503, "err", "service unavailable")
	want := `time=2026-08-06T12:00:00Z level=info component=crawler msg="fetch failed" url=http://x/privacy status=503 err="service unavailable"` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("log line:\n got %q\nwant %q", got, want)
	}
}

func TestLoggerLevelsAndScoping(t *testing.T) {
	var buf strings.Builder
	log := testLogger(&buf, LevelWarn)
	log.Debug("hidden")
	log.Info("hidden")
	log.With("a").With("b").Warn("shown")
	if got := buf.String(); !strings.Contains(got, "component=a.b") || strings.Contains(got, "hidden") {
		t.Errorf("output: %q", got)
	}
	// SetLevel through a child affects the family.
	log.With("c").SetLevel(LevelDebug)
	log.Debug("now visible")
	if !strings.Contains(buf.String(), "now visible") {
		t.Errorf("SetLevel via child did not apply: %q", buf.String())
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var log *Logger
	log.Info("no-op")            // must not panic
	log.With("x").Error("no-op") // scoping a nil logger is nil
	log.SetLevel(LevelDebug)     // no-op
	if log.Enabled(LevelError) {
		t.Error("nil logger reports enabled")
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{"debug": LevelDebug, "INFO": LevelInfo, "warning": LevelWarn, "error": LevelError} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLevel("shout"); err == nil {
		t.Error("bogus level accepted")
	}
}

// ---------------------------------------------------------------- registry

// TestRegistryConcurrency is the race-detector acceptance test: parallel
// counter/gauge/histogram writers race a scraping reader, then the final
// totals must be exact. The registry leaves a family with no series out
// of the exposition, so a scrape that runs before the first write may
// miss a family; what must never happen is a family vanishing once a
// scrape has shown it, and the scrape after the writers finish must
// show all three.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	c := reg.CounterVec("c_total", "counter", "w")
	g := reg.Gauge("g", "gauge")
	h := reg.HistogramVec("h_seconds", "histogram", []float64{0.5, 1, 2}, "w")
	families := []string{"# TYPE c_total counter", "# TYPE g gauge", "# TYPE h_seconds histogram"}

	const workers, perWorker = 8, 500
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() { // scraping reader, concurrent with the writers
		defer reader.Done()
		seen := make([]bool, len(families))
		for {
			select {
			case <-stop:
				return
			default:
				out := reg.Expose()
				for i, fam := range families {
					present := strings.Contains(out, fam)
					if seen[i] && !present {
						t.Errorf("scrape lost family %q after showing it", fam)
						return
					}
					seen[i] = seen[i] || present
				}
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			label := string(rune('a' + w))
			for i := 0; i < perWorker; i++ {
				c.With(label).Inc()
				g.Add(1)
				h.With(label).Observe(float64(i%4) + 0.25)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	reader.Wait()

	final := reg.Expose()
	for _, fam := range families {
		if !strings.Contains(final, fam) {
			t.Errorf("final scrape missing %q:\n%s", fam, final)
		}
	}

	var counted float64
	for w := 0; w < workers; w++ {
		counted += c.With(string(rune('a' + w))).Value()
	}
	if want := float64(workers * perWorker); counted != want {
		t.Errorf("counter total = %v, want %v", counted, want)
	}
	if g.Value() != float64(workers*perWorker) {
		t.Errorf("gauge = %v", g.Value())
	}
	var hcount uint64
	for w := 0; w < workers; w++ {
		hcount += h.With(string(rune('a' + w))).Count()
	}
	if hcount != workers*perWorker {
		t.Errorf("histogram count = %d", hcount)
	}
}

// ------------------------------------------------------------------ golden

func TestPrometheusExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("aipan_things_total", "Things counted.").Add(3)
	reg.CounterVec("aipan_fetches_total", "Fetches by class.", "status_class").With("2xx").Add(7)
	reg.GaugeVec("aipan_funnel", "Funnel counts.", "stage").With("crawl_ok").Set(42.5)
	h := reg.Histogram("aipan_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	want := strings.Join([]string{
		`# HELP aipan_fetches_total Fetches by class.`,
		`# TYPE aipan_fetches_total counter`,
		`aipan_fetches_total{status_class="2xx"} 7`,
		`# HELP aipan_funnel Funnel counts.`,
		`# TYPE aipan_funnel gauge`,
		`aipan_funnel{stage="crawl_ok"} 42.5`,
		`# HELP aipan_latency_seconds Latency.`,
		`# TYPE aipan_latency_seconds histogram`,
		`aipan_latency_seconds_bucket{le="0.1"} 1`,
		`aipan_latency_seconds_bucket{le="1"} 2`,
		`aipan_latency_seconds_bucket{le="+Inf"} 3`,
		`aipan_latency_seconds_sum 3.55`,
		`aipan_latency_seconds_count 3`,
		`# HELP aipan_things_total Things counted.`,
		`# TYPE aipan_things_total counter`,
		`aipan_things_total 3`,
		``,
	}, "\n")
	if got := reg.Expose(); got != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestRegistryIdempotentAndConflicts(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "x")
	b := reg.Counter("x_total", "x")
	if a != b {
		t.Error("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("type conflict did not panic")
		}
	}()
	reg.Gauge("x_total", "x")
}

// ------------------------------------------------------------------- spans

// recordingExporter keeps every exported span in memory.
type recordingExporter struct {
	mu   sync.Mutex
	recs []SpanRecord
}

func (e *recordingExporter) ExportSpan(rec *SpanRecord) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.recs = append(e.recs, *rec)
}

func (e *recordingExporter) Close() error { return nil }

// TestSpansBuildTraceTree: nested spans export as a parent-linked tree
// whose paths chain root to leaf, each span's duration is read from the
// tracer's clock, and every span feeds the stage histogram.
func TestSpansBuildTraceTree(t *testing.T) {
	reg := NewRegistry()
	exp := &recordingExporter{}
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { now = now.Add(time.Millisecond); return now }
	tr := NewTracer(reg, WithExporter(exp), WithTracerClock(clock))
	ctx := WithTracer(context.Background(), tr)

	rctx, run := StartSpan(ctx, "run")
	for i := 0; i < 3; i++ {
		dctx, domain := StartSpan(rctx, "domain")
		_, crawl := StartSpan(dctx, "crawl")
		if d := crawl.End(); d != time.Millisecond {
			t.Errorf("crawl span measured %v, want one clock tick", d)
		}
		domain.End()
	}
	run.End()

	byID := map[string]SpanRecord{}
	count := map[string]int{}
	for _, rec := range exp.recs {
		byID[rec.SpanID] = rec
		count[rec.Path]++
	}
	want := map[string]int{"run": 1, "run/domain": 3, "run/domain/crawl": 3}
	if len(count) != len(want) {
		t.Fatalf("span paths %v, want %v", count, want)
	}
	for path, n := range want {
		if count[path] != n {
			t.Errorf("%d spans at %q, want %d", count[path], path, n)
		}
	}
	for _, rec := range exp.recs {
		if rec.ParentID == "" {
			if rec.Name != "run" {
				t.Errorf("unexpected root span %q", rec.Name)
			}
			continue
		}
		parent, ok := byID[rec.ParentID]
		if !ok {
			t.Fatalf("span %s parent %s not exported", rec.Name, rec.ParentID)
		}
		if rec.Path != parent.Path+"/"+rec.Name {
			t.Errorf("span path %q does not extend parent path %q", rec.Path, parent.Path)
		}
		if parent.DurationNanos < rec.DurationNanos {
			t.Errorf("%s span (%dns) outlasts its parent %s (%dns)",
				rec.Name, rec.DurationNanos, parent.Name, parent.DurationNanos)
		}
	}
	// Spans feed the stage histogram.
	if !strings.Contains(reg.Expose(), `aipan_stage_duration_seconds_count{stage="crawl"} 3`) {
		t.Errorf("stage histogram missing:\n%s", reg.Expose())
	}
}

func TestSpansNoTracerNoOp(t *testing.T) {
	ctx, span := StartSpan(context.Background(), "orphan")
	if span != nil {
		t.Fatal("expected nil span without tracer")
	}
	span.End() // must not panic
	if TracerFrom(ctx) != nil {
		t.Error("tracer appeared from nowhere")
	}
}

// -------------------------------------------------------------------- http

func TestMetricsHandlerAndInstrument(t *testing.T) {
	reg := NewRegistry()
	inner := InstrumentHandler(reg, "test", DebugMux(reg))

	rec := httptest.NewRecorder()
	inner.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != ExpositionContentType {
		t.Errorf("content type = %q", ct)
	}

	rec = httptest.NewRecorder()
	inner.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, `aipan_http_requests_total{handler="test",code="200"} 1`) {
		t.Errorf("request counter missing from:\n%s", body)
	}
	if !strings.Contains(body, `aipan_http_request_duration_seconds_count{handler="test"} 1`) {
		t.Errorf("latency histogram missing from:\n%s", body)
	}

	rec = httptest.NewRecorder()
	inner.ServeHTTP(rec, httptest.NewRequest("GET", "/nope", nil))
	if rec.Code != 404 {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(reg.Expose(), `aipan_http_requests_total{handler="test",code="404"} 1`) {
		t.Error("404 not counted")
	}
}
