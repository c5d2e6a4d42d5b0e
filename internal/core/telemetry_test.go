package core

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"aipan/internal/obs"
	"aipan/internal/store"
	"aipan/internal/webgen"
)

// TestTelemetryByteIdenticalAcrossRuns is the acceptance bar for durable
// telemetry (DESIGN.md §14): two runs over the same seed must export
// byte-identical trace files and flight-recorder event streams, even at
// different worker counts. Deterministic mode (no TelemetryTimings)
// derives span IDs from content and strips wall-clock fields, and the
// flight recorder stamps events with the serialized delivery sequence,
// so concurrency never leaks into the exported bytes.
func TestTelemetryByteIdenticalAcrossRuns(t *testing.T) {
	const limit = 12
	run := func(workers int) (traceFile, eventDir string) {
		t.Helper()
		dir := t.TempDir()
		traceFile = filepath.Join(dir, "run.trace")
		eventDir = filepath.Join(dir, "events")
		exp, err := obs.NewFileExporter(traceFile, true)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := store.OpenEventLog(eventDir, 4)
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(Config{Limit: limit, Workers: workers,
			TraceExporter: exp, Events: ev})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := exp.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ev.Close(); err != nil {
			t.Fatal(err)
		}
		return traceFile, eventDir
	}

	trace1, events1 := run(1)
	trace2, events2 := run(16)

	b1, err := os.ReadFile(trace1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(trace2)
	if err != nil {
		t.Fatal(err)
	}
	if len(b1) == 0 {
		t.Fatal("trace export is empty")
	}
	if string(b1) != string(b2) {
		t.Errorf("trace bytes differ across same-seed runs (%d vs %d bytes)", len(b1), len(b2))
	}

	// Every event shard must match byte for byte. Shard files are created
	// lazily, so compare the union of both directories.
	names := map[string]bool{}
	for _, dir := range []string{events1, events2} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			names[e.Name()] = true
		}
	}
	if len(names) == 0 {
		t.Fatal("no event files written")
	}
	for name := range names {
		s1, err1 := os.ReadFile(filepath.Join(events1, name))
		s2, err2 := os.ReadFile(filepath.Join(events2, name))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s exists in only one run: %v vs %v", name, err1, err2)
		}
		if string(s1) != string(s2) {
			t.Errorf("%s differs across same-seed runs", name)
		}
	}

	// The exported spans must parse, share the seed-derived run ID, and
	// carry no wall-clock fields in deterministic mode.
	recs, err := obs.ReadTrace(trace1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("trace parsed to zero spans")
	}
	wantRun := obs.DeriveRunID(webgen.Seed)
	for i := range recs {
		if recs[i].RunID != wantRun {
			t.Fatalf("span %d run ID = %q, want %q", i, recs[i].RunID, wantRun)
		}
		if recs[i].StartUnixNano != 0 || recs[i].DurationNanos != 0 {
			t.Fatalf("span %d (%s) carries wall-clock timings in deterministic mode", i, recs[i].Path)
		}
	}

	// The recorded event stream must cover every processed domain.
	log, err := store.OpenEventDir(events1)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if n, err := log.Len(); err != nil || n != limit {
		t.Fatalf("event stream holds %d events, %v; want %d", n, err, limit)
	}
}

// spanCollector is an in-memory obs.Exporter.
type spanCollector struct {
	mu   sync.Mutex
	recs []obs.SpanRecord
}

func (c *spanCollector) ExportSpan(rec *obs.SpanRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, *rec)
}

func (c *spanCollector) Close() error { return nil }

// TestEventTimingsComeFromSpans: in timed mode the flight recorder's
// wall-clock fields are the exported spans' durations, not a second
// measurement, and the stage histogram is the run's only latency
// family, fed by the same spans. The clock advances on every read, so
// any clock read of its own between the span ends would show up as a
// mismatch.
func TestEventTimingsComeFromSpans(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(3 * time.Millisecond)
		return now
	}
	reg := obs.NewRegistry()
	spans := &spanCollector{}
	events := store.NewMemEvents()
	p, err := New(Config{Limit: 6, Workers: 1, TelemetryTimings: true, Clock: clock,
		Registry: reg, TraceExporter: spans, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	domainSpans := map[string]obs.SpanRecord{} // domain → its "domain" span
	crawlSpans := map[string]obs.SpanRecord{}  // parent span ID → its "crawl" span
	for _, rec := range spans.recs {
		switch rec.Name {
		case "domain":
			for _, a := range rec.Attrs {
				if a.Key == "domain" {
					domainSpans[a.Value] = rec
				}
			}
		case "crawl":
			crawlSpans[rec.ParentID] = rec
		}
	}
	n := 0
	if err := events.Scan(func(ev *store.Event) error {
		n++
		ds, ok := domainSpans[ev.Domain]
		if !ok {
			t.Fatalf("%s: no domain span exported", ev.Domain)
		}
		cs, ok := crawlSpans[ds.SpanID]
		if !ok {
			t.Fatalf("%s: no crawl span under its domain span", ev.Domain)
		}
		wall := time.Duration(ds.DurationNanos)
		if ev.WallMillis != wall.Milliseconds() || ev.LatencyClass != latencyClass(wall) {
			t.Errorf("%s: event wall %dms (%s), domain span %v", ev.Domain, ev.WallMillis, ev.LatencyClass, wall)
		}
		if crawl := time.Duration(cs.DurationNanos).Milliseconds(); ev.StageMillis["crawl"] != crawl {
			t.Errorf("%s: event crawl %dms, crawl span %dms", ev.Domain, ev.StageMillis["crawl"], crawl)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("recorded %d events, want 6", n)
	}

	// One latency family: every histogram in the registry is the stage
	// histogram, and each stage series holds exactly the exported spans
	// of that name.
	expo := reg.Expose()
	for _, line := range strings.Split(expo, "\n") {
		if strings.HasPrefix(line, "# TYPE ") && strings.HasSuffix(line, " histogram") &&
			line != "# TYPE "+obs.StageDurationMetric+" histogram" {
			t.Errorf("second latency family: %s", line)
		}
	}
	spanCount := map[string]uint64{}
	spanSecs := map[string]float64{}
	for _, rec := range spans.recs {
		spanCount[rec.Name]++
		spanSecs[rec.Name] += time.Duration(rec.DurationNanos).Seconds()
	}
	seriesCount := sampleValues(expo, obs.StageDurationMetric+"_count")
	if len(seriesCount) != len(spanCount) {
		t.Errorf("stage series %v, exported span names %v", seriesCount, spanCount)
	}
	stages := reg.HistogramVec(obs.StageDurationMetric, "", nil, "stage")
	for name, count := range spanCount {
		h := stages.With(name)
		if h.Count() != count {
			t.Errorf("stage %q: histogram count %d, %d spans exported", name, h.Count(), count)
		}
		if got, want := h.Sum(), spanSecs[name]; math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Errorf("stage %q: histogram sum %gs, exported spans %gs", name, got, want)
		}
	}

	// Every fetched page, and nothing else, is one fetch span.
	var fetches float64
	for _, v := range sampleValues(expo, "aipan_crawler_fetches_total") {
		fetches += v
	}
	pages := 0
	for i := range res.Records {
		pages += res.Records[i].Crawl.PagesFetched
	}
	if got := stages.With("fetch").Count(); pages == 0 || float64(got) != fetches || int(got) != pages {
		t.Errorf("fetch spans %d, aipan_crawler_fetches_total %v, records' pages fetched %d",
			got, fetches, pages)
	}
}

// TestPageSpansDoNotOverlap: a domain's privacy pages run one after
// another on its worker, so on a clock that advances on every read no
// two "page" spans under one "domain" span overlap.
func TestPageSpansDoNotOverlap(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(time.Millisecond)
		return now
	}
	spans := &spanCollector{}
	p, err := New(Config{Limit: 20, Workers: 2, TelemetryTimings: true, Clock: clock,
		Registry: obs.NewRegistry(), TraceExporter: spans})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	domains := map[string]bool{} // "domain" span IDs
	pages := map[string][]obs.SpanRecord{}
	for _, rec := range spans.recs {
		switch rec.Name {
		case "domain":
			domains[rec.SpanID] = true
		case "page":
			pages[rec.ParentID] = append(pages[rec.ParentID], rec)
		}
	}
	multi := 0
	for parent, ps := range pages {
		if !domains[parent] {
			t.Fatalf("page span %s has parent %s, not a domain span", ps[0].SpanID, parent)
		}
		if len(ps) < 2 {
			continue
		}
		multi++
		sort.Slice(ps, func(i, j int) bool { return ps[i].StartUnixNano < ps[j].StartUnixNano })
		for i := 1; i < len(ps); i++ {
			if end := ps[i-1].StartUnixNano + ps[i-1].DurationNanos; ps[i].StartUnixNano < end {
				t.Errorf("domain span %s: page %v starts at %d, before page %v ends at %d",
					parent, ps[i].Attrs, ps[i].StartUnixNano, ps[i-1].Attrs, end)
			}
		}
	}
	if multi < 3 {
		t.Fatalf("%d domains with several privacy pages; the check needs at least 3", multi)
	}
}

// sampleValues returns the values of every sample of the named series
// in a Prometheus text exposition, keyed by label set.
func sampleValues(expo, name string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(expo, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || (rest != "" && rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		i := strings.LastIndexByte(rest, ' ')
		if v, err := strconv.ParseFloat(rest[i+1:], 64); err == nil {
			out[rest[:i]] = v
		}
	}
	return out
}
