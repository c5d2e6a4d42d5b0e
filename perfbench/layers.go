package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"aipan/internal/core"
	"aipan/internal/obs"
	"aipan/internal/store"
)

// perLayer lists every per-layer metric of the traced run, with the
// end-to-end metric and workload it should move. A traced run prints
// all of them; a layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit, moves string }{
	{"core.setup_s", "s", "setup_s on paper (eager sites) and stream (lazy)"},
	{"virtualweb.fetches", "count", "ops_per_s on paper and stream"},
	{"virtualweb.fetch_s", "s", "ops_per_s on paper and stream"},
	{"virtualweb.kb_per_domain", "KiB", "ops_per_s on paper and stream"},
	{"webgen.renders", "count", "ops_per_s, more on stream than paper"},
	{"webgen.render_s", "s", "ops_per_s, more on stream than paper"},
	{"crawler.self_s", "s", "ops_per_s and alloc_kb_per_op on paper and stream"},
	{"crawler.pages_per_domain", "count", "ops_per_s and alloc_kb_per_op on paper and stream"},
	{"textify.self_s", "s", "ops_per_s and alloc_kb_per_op on paper and stream"},
	{"textify.pages", "count", "ops_per_s and alloc_kb_per_op on paper and stream"},
	{"segment.self_s", "s", "ops_per_s on paper and stream"},
	{"segment.ok_ratio", "ratio", "ops_per_s on paper and stream"},
	{"chatbot.calls", "count", "ops_per_s on paper, stream and dispatch"},
	{"chatbot.backend_s", "s", "ops_per_s on paper, stream and dispatch"},
	{"chatbot.wait_s", "s", "ops_per_s on paper, stream and dispatch"},
	{"chatbot.retries", "count", "ops_per_s and failures on the batch workloads"},
	{"chatbot.failed", "count", "failures on the batch workloads"},
	{"chatbot.completion_tokens", "tokens", "ops_per_s on the batch workloads"},
	{"chatbot.prompt_tokens_per_domain", "tokens", "API cost per domain on the batch workloads"},
	{"annotate.types.self_s", "s", "ops_per_s on paper and stream"},
	{"annotate.purposes.self_s", "s", "ops_per_s on paper and stream"},
	{"annotate.handling.self_s", "s", "ops_per_s on paper and stream"},
	{"annotate.rights.self_s", "s", "ops_per_s on paper and stream"},
	{"annotate.dropped_ratio", "ratio", "ops_per_s on paper and stream"},
	{"annotate.fallback_ratio", "ratio", "ops_per_s and prompt tokens on paper and stream"},
	{"engine.deliver_wait_s", "s", "ops_per_s, p90_ms and peak_rss_mb on stream"},
	{"store.append_s", "s", "total_s and ops_per_s on stream"},
	{"store.bytes_per_record", "bytes", "total_s on stream"},
	{"store.export_s", "s", "total_s on stream and dispatch"},
	{"store.scan_s", "s", "total_s on stream; refresh_ms and total_s on serve"},
	{"store.events_append_s", "s", "total_s and ops_per_s on stream"},
	{"report.tables_s", "s", "total_s on paper"},
	{"server.build_s", "s", "setup_s on serve"},
	{"server.refresh_scan_records", "count", "refresh_ms and total_s on serve"},
	{"server.handle_p50_us", "us", "p50_ms on serve"},
	{"server.cache_hit_ratio", "ratio", "p50_ms and ops_per_s on serve"},
	{"server.not_modified_ratio", "ratio", "p50_ms and ops_per_s on serve"},
	{"server.shed", "count", "failures on serve"},
	{"dispatch.leases", "count", "ops_per_s on dispatch"},
	{"dispatch.uploads", "count", "ops_per_s on dispatch"},
	{"dispatch.upload_s", "s", "ops_per_s on dispatch"},
	{"dispatch.upload_kb", "KiB", "ops_per_s on dispatch"},
	{"dispatch.merge_s", "s", "ops_per_s on dispatch"},
	{"dispatch.unleased_s", "s", "ops_per_s on dispatch"},
	{"runtime.cpu_util", "ratio", "ops_per_s on every batch workload"},
	{"runtime.gc_cycles", "count", "ops_per_s on every batch workload"},
	{"runtime.gc_pause_ms", "ms", "ops_per_s on every batch workload"},
	{"loadgen.sent", "count", "validity of p50_ms, p90_ms and ops_per_s on serve"},
	{"loadgen.late_ms_p99", "ms", "validity of p50_ms, p90_ms and ops_per_s on serve"},
	{"loadgen.max_outstanding", "count", "validity of ops_per_s on serve"},
	{"trace.overhead_ratio", "ratio", "traced ÷ untraced total_s (p50_ms on serve)"},
	{"trace.unattributed_ratio", "ratio", "share of domain-span time no layer span covers"},
}

// spanCollector is the traced run's obs.Exporter: spans stay in memory
// until the run ends, then go to one trace file in the obs format.
type spanCollector struct {
	mu   sync.Mutex
	recs []obs.SpanRecord
}

func newSpanCollector() *spanCollector { return &spanCollector{} }

func (c *spanCollector) ExportSpan(r *obs.SpanRecord) {
	c.mu.Lock()
	c.recs = append(c.recs, *r)
	c.mu.Unlock()
}

func (c *spanCollector) Close() error { return nil }

func (c *spanCollector) spans() []obs.SpanRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]obs.SpanRecord(nil), c.recs...)
}

// writeFile writes the collected spans, readable by `aipan debug trace`.
func (c *spanCollector) writeFile(path string) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	fe, err := obs.NewFileExporter(path, false)
	if err != nil {
		return err
	}
	for _, r := range c.spans() {
		r := r
		fe.ExportSpan(&r)
	}
	return fe.Close()
}

// spanTree indexes spans by parent for self-time arithmetic.
type spanTree struct {
	spans    []obs.SpanRecord
	children map[string][]int
}

func newSpanTree(spans []obs.SpanRecord) *spanTree {
	t := &spanTree{spans: spans, children: map[string][]int{}}
	for i, s := range spans {
		if s.ParentID != "" {
			t.children[s.ParentID] = append(t.children[s.ParentID], i)
		}
	}
	return t
}

// selfTime is the span's duration minus the union of its children's
// intervals, clipped to the span.
func (t *spanTree) selfTime(i int) time.Duration {
	s := t.spans[i]
	lo, hi := s.StartUnixNano, s.StartUnixNano+s.DurationNanos
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range t.children[s.SpanID] {
		cs := t.spans[c]
		a, b := max(cs.StartUnixNano, lo), min(cs.StartUnixNano+cs.DurationNanos, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var covered, end int64
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return time.Duration(s.DurationNanos - covered)
}

// sumSelf sums self time over every span with the given name.
func (t *spanTree) sumSelf(name string) (total time.Duration, n int) {
	for i := range t.spans {
		if t.spans[i].Name == name {
			total += t.selfTime(i)
			n++
		}
	}
	return total, n
}

func attr(s obs.SpanRecord, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// layerInputs is what a traced pipeline run hands the layer analysis.
type layerInputs struct {
	web       *webSeam
	chat      *chatSeam
	st        *storeSeam
	events    *eventSeam
	reg       *obs.Registry
	res       *core.Result
	setup     float64
	exportS   float64
	tables    float64
	delivered *deliveryLog
	pipeline  *core.Pipeline
	storeDir  string
}

// pipelineLayers derives the per-layer figures of a traced paper or
// stream run from its spans and seams.
func pipelineLayers(cfg childConfig, col *spanCollector, in layerInputs) (map[string]float64, error) {
	t := newSpanTree(col.spans())
	f := in.res.Funnel
	domains := f.Domains
	L := map[string]float64{}

	L["core.setup_s"] = in.setup
	L["virtualweb.fetches"] = in.web.fetch.count()
	L["virtualweb.fetch_s"] = in.web.fetch.seconds()
	L["virtualweb.kb_per_domain"] = perOp(float64(in.web.bytes.Load())/1024, domains)
	L["webgen.renders"] = in.web.prov.render.count()
	L["webgen.render_s"] = in.web.prov.render.seconds()

	crawl, _ := t.sumSelf("crawl")
	L["crawler.self_s"] = crawl.Seconds()
	page, pages := t.sumSelf("page")
	L["textify.self_s"] = page.Seconds()
	L["textify.pages"] = float64(pages)
	seg, _ := t.sumSelf("segment")
	L["segment.self_s"] = seg.Seconds()
	if f.CrawlOK > 0 {
		L["segment.ok_ratio"] = float64(f.ExtractOK) / float64(f.CrawlOK)
	}

	stats := in.chat.stats()
	L["chatbot.calls"] = float64(stats.Calls)
	L["chatbot.backend_s"] = in.chat.backend.seconds()
	L["chatbot.wait_s"] = in.chat.client.seconds() - in.chat.backend.seconds()
	L["chatbot.retries"] = in.reg.Counter("aipan_chatbot_retries_total", "").Value()
	L["chatbot.failed"] = float64(stats.FailedCalls)
	L["chatbot.completion_tokens"] = float64(stats.Usage.CompletionTokens)
	L["chatbot.prompt_tokens_per_domain"] = perOp(float64(stats.Usage.PromptTokens), domains)

	chains := 0
	for _, aspect := range []string{"types", "purposes", "handling", "rights"} {
		self, n := t.sumSelf("annotate." + aspect)
		L["annotate."+aspect+".self_s"] = self.Seconds()
		chains += n
	}
	dropped := in.reg.Counter("aipan_annotate_hallucination_dropped_total", "").Value()
	var fallbacks float64
	fv := in.reg.CounterVec("aipan_annotate_fallbacks_total", "", "aspect")
	for _, aspect := range []string{"types", "purposes", "handling", "rights"} {
		fallbacks += fv.With(aspect).Value()
	}
	pagesFetched, kept, err := recordTotals(in)
	if err != nil {
		return nil, err
	}
	L["crawler.pages_per_domain"] = perOp(float64(pagesFetched), domains)
	if dropped+float64(kept) > 0 {
		L["annotate.dropped_ratio"] = dropped / (dropped + float64(kept))
	}
	L["annotate.fallback_ratio"] = perOp(fallbacks, chains)

	// Head-of-line wait of in-order delivery: from each domain span's
	// end to its record's store Append (or, with records kept in
	// memory, its delivery tick).
	doms := in.pipeline.Domains()
	index := make(map[string]int, len(doms))
	for i, d := range doms {
		index[d.Domain] = i
	}
	var wait, domTotal, domSelf time.Duration
	for i, s := range t.spans {
		if s.Name != "domain" {
			continue
		}
		domTotal += time.Duration(s.DurationNanos)
		domSelf += t.selfTime(i)
		name := attr(s, "domain")
		end := time.Unix(0, s.StartUnixNano+s.DurationNanos)
		var at time.Time
		var ok bool
		if in.st != nil {
			at, ok = in.st.appendedAt(name)
		} else if j, found := index[name]; found && j < len(in.delivered.at) {
			at, ok = in.delivered.at[j], !in.delivered.at[j].IsZero()
		}
		if ok && at.After(end) {
			wait += at.Sub(end)
		}
	}
	L["engine.deliver_wait_s"] = wait.Seconds()
	if domTotal > 0 {
		L["trace.unattributed_ratio"] = float64(domSelf) / float64(domTotal)
	}

	if in.st != nil {
		L["store.append_s"] = in.st.appendM.seconds()
		L["store.scan_s"] = in.st.scanM.seconds()
		L["store.export_s"] = in.exportS
		if cfg.Workload == "stream" {
			size, err := dirSize(in.storeDir)
			if err != nil {
				return nil, err
			}
			L["store.bytes_per_record"] = perOp(float64(size), domains)
		}
	}
	if in.events != nil {
		L["store.events_append_s"] = in.events.appendM.seconds()
	}
	L["report.tables_s"] = in.tables
	return L, nil
}

// recordTotals sums pages fetched and annotations kept over the run's
// records (the store's, when the run discarded them).
func recordTotals(in layerInputs) (pages, anns int, err error) {
	add := func(r *store.Record) error {
		pages += r.Crawl.PagesFetched
		anns += len(r.Annotations)
		return nil
	}
	if in.res.Records != nil {
		for i := range in.res.Records {
			_ = add(&in.res.Records[i])
		}
		return pages, anns, nil
	}
	if in.st != nil {
		err = in.st.inner.Scan(add)
	}
	return pages, anns, err
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// layerMetrics adds every per-layer metric to res, 0 where absent.
func layerMetrics(res *result, L map[string]float64) {
	for _, l := range perLayer {
		res.metrics = append(res.metrics, metric{name: l.name, unit: l.unit, value: L[l.name], note: "→ " + l.moves})
	}
}

// routeClass names a request's route family for per-route timing.
func routeClass(path string) string {
	switch {
	case strings.HasSuffix(path, "/records"):
		return "records"
	case strings.HasSuffix(path, "/leases"):
		return "leases"
	case strings.HasSuffix(path, "/heartbeat"):
		return "heartbeat"
	case strings.HasSuffix(path, "/complete"):
		return "complete"
	}
	return "other"
}
