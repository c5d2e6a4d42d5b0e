// Package core orchestrates the paper's end-to-end pipeline (Figure 1):
// build the study universe, resolve domains through (simulated) web
// search, crawl each domain for privacy pages, convert and segment the
// text, annotate every aspect through the chatbot, and persist one dataset
// record per domain — tracking the §3/§4 funnel counts along the way.
package core

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"aipan/internal/annotate"
	"aipan/internal/chatbot"
	"aipan/internal/crawler"
	"aipan/internal/engine"
	"aipan/internal/obs"
	"aipan/internal/risk"
	"aipan/internal/russell"
	"aipan/internal/store"
	"aipan/internal/virtualweb"
	"aipan/internal/webgen"

	segpkg "aipan/internal/segment"
)

// Config parameterizes a pipeline run. The zero value runs the full
// AIPAN-3k reproduction against the synthetic web with the GPT-4-class
// simulated chatbot.
type Config struct {
	// Seed drives universe + web generation (default webgen.Seed).
	Seed int64
	// Bot is the annotation chatbot (default: sim GPT-4 behind a Client).
	Bot chatbot.Chatbot
	// HTTPClient fetches pages (default: in-process synthetic web).
	HTTPClient *http.Client
	// Workers bounds per-domain parallelism (default 8).
	Workers int
	// Limit processes only the first N domains (0 = all).
	Limit int
	// DomainFilter, when set, restricts the run to the study domains the
	// filter admits, applied after Limit. The filtered list keeps
	// study-list (sorted-domain) order, so positional resume and
	// checkpointing work unchanged against the filtered list. The
	// distributed dispatcher uses this to hand a worker exactly one
	// store shard's domains.
	DomainFilter func(domain string) bool
	// UniverseDomains scales the study universe to N unique domains
	// (0 = the paper's 2,892). A scaled universe extends the synthetic
	// index with a long-tail sector mix and generates sites lazily —
	// only the company roster is held in memory, each site derived on
	// demand from the seed — so runs of 100k+ domains keep a flat
	// footprint. The default size is byte-identical to prior releases.
	UniverseDomains int
	// DiscardRecords has no effect: whether Result.Records comes back
	// follows from whether a Store was given (see Store).
	//
	// Deprecated: the field goes once no caller sets it (ROADMAP item 6).
	DiscardRecords bool
	// Crawler overrides crawl policy knobs (Client is filled in by the
	// pipeline).
	Crawler crawler.Config
	// Progress, when set, receives (stage, done, total) updates. The
	// callback is serialized under a mutex, so it need not be
	// goroutine-safe. For the "process" stage, done is cumulative —
	// resumed runs start at the checkpointed count, so a progress bar
	// drawn from these ticks always reflects overall completion — and
	// ticks arrive in strictly increasing done order. Every Run ends with
	// exactly one terminal (stage, total, total) tick, even on error or
	// cancellation, so consumers can close out their display
	// unconditionally. "checkpoint-error" is a pseudo-stage reported as
	// (0, 0) when a checkpoint append fails; it never carries the
	// terminal tick.
	Progress func(stage string, done, total int)
	// Store, when set, is the run's checkpoint (a binary segment store or
	// an in-memory one): each completed record streams into it and, on
	// start, domains already present are skipped — an interrupted
	// multi-hour crawl resumes where it stopped. A store that carries
	// metadata is stamped with the run Seed; resuming it under a
	// different seed is refused (the synthetic web, and therefore every
	// record, is a function of the seed — mixing seeds would silently
	// corrupt the dataset). The caller keeps ownership: the pipeline
	// never closes it, and Result.Records is nil — the records are in
	// the store. Without a Store the run streams into an in-memory store
	// of its own and Result.Records is read back from it.
	Store store.Store
	// Registry receives all pipeline metrics — its own and those of the
	// crawler, chatbot client, and annotator it builds (default: the
	// process-wide obs.Default() registry). Tests pass a fresh registry
	// for isolation.
	Registry *obs.Registry
	// Logger, when set, receives structured run events, scoped per
	// component ("core", "crawler", ...). Nil disables logging. Every
	// line carries the run ID so interleaved multi-run streams separate.
	Logger *obs.Logger
	// TraceExporter, when set, receives every completed span (see
	// obs.NewFileExporter). The caller owns Close. Unless
	// TelemetryTimings is set, spans export with deterministic IDs and
	// without wall-clock fields.
	TraceExporter obs.Exporter
	// Events, when set, receives one flight-recorder store.Event per
	// processed domain, in submission order (emitted from the serialized
	// delivery callback). The caller owns the sink's lifecycle.
	Events store.EventSink
	// TelemetryTimings includes wall-clock fields (span start/duration,
	// event latency class and stage millis) in exported telemetry. Off
	// by default so same-seed exports are byte-identical — the
	// determinism property check.sh's telemetry smoke asserts.
	TelemetryTimings bool
	// Clock is the one clock the pipeline reads (default
	// obs.SystemClock), through the run's tracer: every span duration —
	// the crawler's fetches, the chatbot calls and the annotate aspects
	// included — and through them the stage histogram and the flight
	// recorder's wall-clock fields under TelemetryTimings.
	Clock obs.Clock
}

// Pipeline is a configured end-to-end run.
type Pipeline struct {
	cfg       Config
	runID     string
	gen       *webgen.Generator
	companies []russell.Company
	domains   []russell.DomainInfo
	corrected int
	crawler   *crawler.Crawler
	bot       chatbot.Chatbot
	annotator *annotate.Annotator
	reg       *obs.Registry
	log       *obs.Logger
	met       *pipeMetrics
	riskW     risk.Weights
	procStage *engine.Stage[russell.DomainInfo, domainOutcome]
}

// pipeMetrics instruments the orchestration layer: throughput,
// checkpoint append failures, and the end-of-run funnel snapshot.
// Dispatch backlog and in-flight counts come from the engine stages
// (aipan_engine_queue_depth, aipan_engine_inflight).
type pipeMetrics struct {
	domains    *obs.Counter
	ckptErrors *obs.Counter
	funnel     *obs.GaugeVec // by stage
}

func newPipeMetrics(reg *obs.Registry) *pipeMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	return &pipeMetrics{
		domains: reg.Counter("aipan_pipeline_domains_processed_total",
			"Domains fully processed (crawl through annotate) this process."),
		ckptErrors: reg.Counter("aipan_pipeline_checkpoint_errors_total",
			"Failed checkpoint appends (also reported as the checkpoint-error progress pseudo-stage)."),
		funnel: reg.GaugeVec("aipan_funnel",
			"Figure 1 funnel counts from the most recently completed run, by stage.", "stage"),
	}
}

// setFunnel publishes every Funnel field as a gauge; values match the
// returned core.Result.Funnel exactly.
func (m *pipeMetrics) setFunnel(f Funnel) {
	m.funnel.With("companies").Set(float64(f.Companies))
	m.funnel.With("domains").Set(float64(f.Domains))
	m.funnel.With("search_corrected").Set(float64(f.SearchCorrected))
	m.funnel.With("crawl_ok").Set(float64(f.CrawlOK))
	m.funnel.With("extract_ok").Set(float64(f.ExtractOK))
	m.funnel.With("annotated").Set(float64(f.Annotated))
	m.funnel.With("avg_pages_crawled").Set(f.AvgPagesCrawled)
	m.funnel.With("avg_privacy_pages").Set(f.AvgPrivacyPages)
	m.funnel.With("well_known_policy").Set(float64(f.WellKnownPolicy))
	m.funnel.With("well_known_privacy").Set(float64(f.WellKnownPriv))
	m.funnel.With("median_words").Set(f.MedianWords)
	m.funnel.With("fallback_used").Set(float64(f.FallbackUsed))
}

// Funnel is the §3/§4 pipeline funnel.
type Funnel struct {
	Companies       int     // index constituents (paper: 2,916)
	Domains         int     // unique domains (2,892)
	SearchCorrected int     // first results fixed in review
	CrawlOK         int     // ≥1 potential privacy page, status <400 (2,648)
	ExtractOK       int     // successful text extraction (2,545)
	Annotated       int     // ≥1 annotation (2,529)
	AvgPagesCrawled float64 // fetched pages incl. homepage (5.1)
	AvgPrivacyPages float64 // deduped English privacy pages per crawl-OK domain (1.8)
	WellKnownPolicy int     // domains where /privacy-policy resolves (54.5%)
	WellKnownPriv   int     // domains where /privacy resolves (48.6%)
	MedianWords     float64 // median core policy length (2,671)
	FallbackUsed    int     // policies with ≥1 whole-text annotation fallback (708)
}

// Result is a completed run.
type Result struct {
	// Records holds one record per study domain, in domain order — nil
	// when the run streamed into a Config.Store (the records then live
	// only there).
	Records []store.Record
	Funnel  Funnel
}

// New builds a pipeline.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Seed == 0 {
		cfg.Seed = webgen.Seed
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Clock == nil {
		cfg.Clock = obs.SystemClock
	}
	// The run ID is seed-derived, so same-seed runs carry the same ID
	// and their telemetry is byte-comparable. Bind it before any
	// component logger is derived, so the crawler's and annotator's
	// lines carry it too.
	runID := obs.DeriveRunID(cfg.Seed)
	cfg.Logger = cfg.Logger.WithAttrs("run", runID)
	p := &Pipeline{cfg: cfg, runID: runID, reg: cfg.Registry, log: cfg.Logger.With("core")}
	p.met = newPipeMetrics(cfg.Registry)
	// One weights table for the whole run: the flight recorder scores
	// every annotated record, and DefaultWeights allocates maps.
	p.riskW = risk.DefaultWeights()

	// Universe, domain resolution (§3.1), and the synthetic web — all a
	// deterministic function of (seed, universe size), shared across
	// pipelines.
	corp := corpusFor(cfg.Seed, cfg.UniverseDomains)
	p.companies = corp.companies
	p.domains = corp.domains
	p.corrected = corp.corrected
	p.gen = corp.gen

	client := cfg.HTTPClient
	if client == nil {
		client = virtualweb.NewTransport(p.gen).Client()
	}
	ccfg := cfg.Crawler
	ccfg.Client = client
	if ccfg.Registry == nil {
		ccfg.Registry = cfg.Registry
	}
	if ccfg.Logger == nil {
		ccfg.Logger = cfg.Logger
	}
	cr, err := crawler.New(ccfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	p.crawler = cr

	// Chatbot + annotator. The default bot allows 4×Workers calls in
	// flight, the most a run can issue: each of the Workers domain
	// workers annotates its pages one at a time and fans out only the
	// four aspects of a page. A caller-built Bot carries its own limit.
	p.bot = cfg.Bot
	if p.bot == nil {
		p.bot = chatbot.NewClient(chatbot.NewSim(chatbot.GPT4Profile()),
			chatbot.WithConcurrency(4*cfg.Workers), chatbot.WithCache(false),
			chatbot.WithRegistry(cfg.Registry))
	}
	p.annotator = annotate.New(p.bot, annotate.WithRegistry(cfg.Registry))

	// Domains fan out across cfg.Workers; a domain's privacy pages then
	// run in order on its worker.
	p.procStage = engine.NewStage(cfg.Registry, "process", cfg.Workers,
		func(ctx context.Context, d russell.DomainInfo) (domainOutcome, error) {
			rec, ev := p.processDomain(ctx, d)
			p.met.domains.Inc()
			return domainOutcome{rec: rec, ev: ev}, nil
		})
	return p, nil
}

// Generator exposes the synthetic web (ground truth for validation).
func (p *Pipeline) Generator() *webgen.Generator { return p.gen }

// Domains exposes the resolved study domains.
func (p *Pipeline) Domains() []russell.DomainInfo { return p.domains }

// Bot exposes the chatbot in use.
func (p *Pipeline) Bot() chatbot.Chatbot { return p.bot }

// RunID exposes the run identifier stamped on this run's telemetry.
func (p *Pipeline) RunID() string { return p.runID }

// Run executes the full pipeline.
func (p *Pipeline) Run(ctx context.Context) (*Result, error) {
	domains := p.domains
	if p.cfg.Limit > 0 && p.cfg.Limit < len(domains) {
		domains = domains[:p.cfg.Limit]
	}
	if p.cfg.DomainFilter != nil {
		kept := make([]russell.DomainInfo, 0, len(domains))
		for _, d := range domains {
			if p.cfg.DomainFilter(d.Domain) {
				kept = append(kept, d)
			}
		}
		domains = kept
	}
	// The streaming pipeline's fixed per-domain state is a funnel cell
	// (a few dozen bytes); records exist only in flight (bounded by the
	// delivery window) and in the store. Every run streams into one: the
	// caller's, or an in-memory store of its own whose records become
	// Result.Records.
	cells := make([]FunnelCell, len(domains))
	st := p.cfg.Store
	var own *store.Mem
	if st == nil {
		own = store.NewMem()
		st = own
	}

	// One tracer per run, reading Config.Clock: every span started below
	// times its region into the stage histogram. With an exporter
	// configured, completed spans also stream to it — with
	// deterministic IDs unless the caller asked for wall timings.
	topts := []obs.TracerOption{obs.WithRunID(p.runID), obs.WithTracerClock(p.cfg.Clock)}
	if p.cfg.TraceExporter != nil {
		topts = append(topts, obs.WithExporter(p.cfg.TraceExporter))
		if !p.cfg.TelemetryTimings {
			topts = append(topts, obs.WithDeterministicIDs(p.cfg.Seed))
		}
	}
	tracer := obs.NewTracer(p.reg, topts...)
	ctx = obs.WithTracer(ctx, tracer)
	ctx, runSpan := obs.StartSpan(ctx, "run")
	runEnded := false
	endRun := func() {
		if !runEnded {
			runEnded = true
			runSpan.End()
		}
	}
	defer endRun()

	// Progress bookkeeping. done is cumulative: a resumed run starts at
	// the checkpointed count so ticks report overall completion, and the
	// deferred finish() guarantees exactly one terminal
	// ("process", total, total) tick on every return path — early error,
	// cancellation, or a fully-resumed run with no work left — unless a
	// worker tick already reached done == total.
	var progressMu sync.Mutex
	var done int
	finalSent := false
	finish := func() {
		progressMu.Lock()
		defer progressMu.Unlock()
		if finalSent {
			return
		}
		finalSent = true
		if p.cfg.Progress != nil {
			p.cfg.Progress("process", len(domains), len(domains))
		}
	}
	defer finish()

	// Resume: domains already in the store are skipped. Bookkeeping is
	// positional: the study list is domain-sorted (search.ResolveUniverse
	// sorts it), so a binary search maps each stored record to its slot
	// without holding a map of full records — the store streams through
	// once and only the cells are kept.
	if err := p.stampSeed(st); err != nil {
		return nil, err
	}
	processed := make([]bool, len(domains))
	resumed := 0
	names := make([]string, len(domains))
	for i := range domains {
		names[i] = domains[i].Domain
	}
	if err := st.Scan(func(r *store.Record) error {
		i := sort.SearchStrings(names, r.Domain)
		if i >= len(names) || names[i] != r.Domain {
			return nil // outside this run's (possibly limited) universe
		}
		if !processed[i] {
			resumed++
		}
		processed[i] = true
		cells[i] = CellOf(r)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	done = resumed
	p.log.Info("run starting", "domains", len(domains), "resumed", resumed,
		"workers", p.cfg.Workers)

	// The unprocessed tail, in submission order; todoIdx maps each item
	// back to its slot in the study list.
	var todo []russell.DomainInfo
	var todoIdx []int
	for i := range domains {
		if !processed[i] {
			todo = append(todo, domains[i])
			todoIdx = append(todoIdx, i)
		}
	}

	report := func(stage string, done, total int) {
		if p.cfg.Progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		p.cfg.Progress(stage, done, total)
	}
	// deliver runs serialized and in submission order (the engine's
	// ordered-delivery contract), so store appends land in domain order
	// regardless of worker count and progress ticks are strictly
	// increasing without extra locking around the store.
	deliver := func(i int, out domainOutcome, _ error) {
		rec := &out.rec
		idx := todoIdx[i]
		cells[idx] = CellOf(rec)
		if ctx.Err() == nil {
			// Skip the write once the run is canceled: a domain
			// interrupted mid-processing produces a truncated record
			// that would poison the checkpoint and be trusted as
			// complete on resume.
			if err := st.Append(rec); err != nil {
				p.met.ckptErrors.Inc()
				p.log.Error("checkpoint append failed", "domain", rec.Domain, "err", err)
				report("checkpoint-error", 0, 0)
			}
		}
		if p.cfg.Events != nil && ctx.Err() == nil {
			// Emitting here — not in the worker — keeps the event
			// stream in submission order (deliver is serialized), which
			// is what makes same-seed event shards byte-identical.
			out.ev.Seq = idx
			if err := p.cfg.Events.Append(&out.ev); err != nil {
				p.log.Error("event append failed", "domain", rec.Domain, "err", err)
			}
		}
		progressMu.Lock()
		done++
		d := done
		if d == len(domains) {
			finalSent = true // this tick IS the terminal tick
		}
		if p.cfg.Progress != nil {
			p.cfg.Progress("process", d, len(domains))
		}
		progressMu.Unlock()
	}
	// Dispatch through the bounded stream: the stage holds at most
	// 4×Workers outcomes in flight or parked for in-order delivery, so
	// the producer→stage→sink chain runs in constant memory however long
	// the study list is.
	item := func(i int) russell.DomainInfo { return todo[i] }
	if err := p.procStage.StreamDeliver(ctx, len(todo), 4*p.cfg.Workers, item, deliver); err != nil {
		progressMu.Lock()
		dispatched := done - resumed
		progressMu.Unlock()
		p.log.Warn("run canceled", "dispatched", dispatched, "domains", len(domains))
		return nil, err
	}
	endRun()

	res := &Result{Funnel: p.funnelFromCells(cells)}
	if own != nil {
		// A fresh store resumes nothing and delivery follows submission
		// order, so its records are already in study order.
		res.Records = own.Records()
	}
	p.met.setFunnel(res.Funnel)
	p.log.Info("run complete", "domains", len(domains),
		"crawl_ok", res.Funnel.CrawlOK, "extract_ok", res.Funnel.ExtractOK,
		"annotated", res.Funnel.Annotated)
	return res, nil
}

// stampSeed enforces the checkpoint/seed contract on store backends that
// carry metadata: a store stamped by a run with a different seed refuses
// to resume (every record is a deterministic function of the seed, so
// mixing seeds would silently corrupt the dataset), and an unstamped
// store is stamped with this run's seed before any record is appended.
func (p *Pipeline) stampSeed(st store.Store) error {
	ms, ok := st.(store.MetaStore)
	if !ok {
		return nil
	}
	m, stamped, err := ms.Meta()
	if err != nil {
		return fmt.Errorf("core: reading store metadata: %w", err)
	}
	if stamped && m.Seed != p.cfg.Seed {
		return fmt.Errorf("core: checkpoint was written by a run with seed %d; refusing to resume it with seed %d (use the original seed or start a fresh checkpoint)",
			m.Seed, p.cfg.Seed)
	}
	if !stamped {
		m.Seed = p.cfg.Seed
		if err := ms.SetMeta(m); err != nil {
			return fmt.Errorf("core: stamping store metadata: %w", err)
		}
	}
	return nil
}

// domainOutcome pairs a domain's dataset record with its flight-recorder
// event; the engine carries both to the serialized delivery callback,
// which appends them to the store and the event sink respectively.
type domainOutcome struct {
	rec store.Record
	ev  store.Event
}

// toAspectOutcomes converts the annotator's per-aspect stats into the
// flight recorder's persisted form.
func toAspectOutcomes(in []annotate.AspectStats) []store.AspectOutcome {
	if len(in) == 0 {
		return nil
	}
	out := make([]store.AspectOutcome, len(in))
	for i, a := range in {
		out[i] = store.AspectOutcome{
			Aspect:      a.Aspect,
			Annotations: a.Annotations,
			Dropped:     a.Dropped,
			Fallback:    a.Fallback,
		}
	}
	return out
}

// latencyClass buckets a domain's wall time for the flight recorder.
func latencyClass(d time.Duration) string {
	switch {
	case d < 100*time.Millisecond:
		return "fast"
	case d < time.Second:
		return "ok"
	}
	return "slow"
}

// processDomain runs crawl → extract → annotate for one domain under its
// "domain" span, producing its dataset record and flight-recorder
// event. The event's wall-clock fields are the domain and crawl span
// durations — spans are the one timing source — and are only filled
// when TelemetryTimings is on, keeping the default event stream a pure
// function of the seed.
func (p *Pipeline) processDomain(ctx context.Context, d russell.DomainInfo) (store.Record, store.Event) {
	ctx, span := obs.StartSpanWith(ctx, "domain", obs.A("domain", d.Domain))
	rec, ev := p.domainWork(ctx, d)
	wall := span.End()
	if p.cfg.TelemetryTimings {
		ev.WallMillis = wall.Milliseconds()
		ev.LatencyClass = latencyClass(wall)
	}
	return rec, ev
}

// domainWork is processDomain's body.
func (p *Pipeline) domainWork(ctx context.Context, d russell.DomainInfo) (store.Record, store.Event) {
	rec := store.Record{
		Domain:       d.Domain,
		Company:      d.Companies[0].Name,
		Sector:       d.Sector,
		SectorAbbrev: russell.Abbrev(d.Sector),
	}
	for _, c := range d.Companies {
		rec.Tickers = append(rec.Tickers, c.Ticker)
	}
	sort.Strings(rec.Tickers)
	ev := store.Event{RunID: p.runID, Domain: d.Domain, Sector: d.Sector}

	cctx, cspan := obs.StartSpan(ctx, "crawl")
	cres := p.crawler.CrawlDomain(cctx, d.Domain)
	crawl := cspan.End()
	if p.cfg.TelemetryTimings {
		ev.StageMillis = map[string]int64{"crawl": crawl.Milliseconds()}
	}
	rec.Crawl = store.CrawlInfo{
		Success:          cres.Success,
		PagesFetched:     cres.PagesFetched(),
		PrivacyPages:     len(cres.PrivacyPages),
		Duplicates:       cres.DuplicateCount,
		NonEnglish:       cres.NonEnglish,
		PDFs:             cres.PDFCount,
		WellKnownPolicy:  cres.WellKnownPolicyOK,
		WellKnownPrivacy: cres.WellKnownPrivacyOK,
		Error:            cres.HomeErr,
	}
	ev.FetchStatus = cres.HomeStatus()
	ev.FetchClass = cres.HomeClass()
	ev.PagesFetched = cres.PagesFetched()
	ev.PolicyPages = len(cres.PrivacyPages)
	if cres.HomeErr != "" {
		ev.Errors = append(ev.Errors, "crawl: "+cres.HomeErr)
	}
	switch {
	case len(cres.PrivacyPages) > 0:
		ev.Language = "en"
	case cres.NonEnglish > 0:
		// Every candidate was filtered as non-English — the §3.1
		// language-based exclusion.
		ev.Language = "non-english"
	}
	if !cres.Success || len(cres.PrivacyPages) == 0 {
		if !cres.Success {
			ev.Outcome = store.OutcomeCrawlFailed
		} else {
			ev.Outcome = store.OutcomeNoPolicy
		}
		return rec, ev
	}

	// Extract + segment + annotate each privacy page in page order, folding
	// each outcome as it comes (coreWords sum, first-wins main-page tie
	// break, merge input order). The whole-text annotation fallback is
	// reported for the domain's main policy page only (§3.2.2 counts
	// fallbacks per policy; auxiliary choices/cookie pages always fall
	// back for their missing aspects and would swamp the statistic).
	var pageAnns [][]annotate.Annotation
	fallbacks := map[string]bool{}
	coreWords := 0
	mainWords := -1
	anySuccess, anyFallbackSeg := false, false
	for pi := range cres.PrivacyPages {
		out := p.processPage(ctx, &cres.PrivacyPages[pi])
		if !out.segOK {
			continue
		}
		anySuccess = true
		anyFallbackSeg = anyFallbackSeg || out.usedFallback
		coreWords += out.pageWords
		ev.Segments += out.segSections
		ev.Clauses += out.segLines
		if !out.annOK {
			continue
		}
		pageAnns = append(pageAnns, out.anns)
		if out.pageWords > mainWords {
			mainWords = out.pageWords
			fallbacks = map[string]bool{}
			for a := range out.annFallbacks {
				fallbacks[a] = true
			}
			// The main policy page also supplies the event's per-aspect
			// breakdown (auxiliary pages would swamp it, same rationale
			// as the fallback accounting above).
			ev.Aspects = toAspectOutcomes(out.aspects)
		}
	}
	rec.Extraction = store.ExtractionInfo{
		Success:      anySuccess,
		UsedFallback: anyFallbackSeg,
		CoreWords:    coreWords,
	}
	ev.Words = coreWords
	if !anySuccess {
		ev.Outcome = store.OutcomeExtractFailed
		ev.Errors = append(ev.Errors, "extract: no privacy page segmented")
		return rec, ev
	}
	rec.Annotations = annotate.Merge(pageAnns...)
	for a := range fallbacks {
		rec.AnnotationFallback = append(rec.AnnotationFallback, a)
	}
	sort.Strings(rec.AnnotationFallback)

	ev.Annotations = len(rec.Annotations)
	for i := range rec.Annotations {
		if !rec.Annotations[i].Novel {
			ev.TaxonomyHits++
		}
	}
	if len(rec.Annotations) == 0 {
		ev.Outcome = store.OutcomeAnnotateFailed
		ev.Errors = append(ev.Errors, "annotate: no annotations kept")
		return rec, ev
	}
	ev.Outcome = store.OutcomeAnnotated
	ev.RiskScore = risk.ScoreRecord(&rec, p.riskW).Total
	return rec, ev
}

// pageOutcome is one privacy page's extract → segment → annotate result.
type pageOutcome struct {
	segOK        bool
	usedFallback bool
	pageWords    int
	segSections  int
	segLines     int
	annOK        bool
	anns         []annotate.Annotation
	annFallbacks map[string]bool
	aspects      []annotate.AspectStats
}

// processPage segments and annotates one privacy page under its "page"
// span, from the rendering the crawler's English check already made
// (page.Doc). Per-page failures fold into the outcome: a page that fails
// to segment or annotate simply contributes nothing.
func (p *Pipeline) processPage(ctx context.Context, page *crawler.Page) pageOutcome {
	var out pageOutcome
	pctx, pspan := obs.StartSpanWith(ctx, "page", obs.A("path", page.Path))
	defer pspan.End()
	doc := page.Doc
	sctx, sspan := obs.StartSpan(pctx, "segment")
	seg, err := segpkg.Segment(sctx, p.bot, doc)
	sspan.End()
	if err != nil || !seg.Success() {
		return out
	}
	out.segOK = true
	out.usedFallback = seg.UsedFallback
	out.pageWords = seg.CoreWordCount()
	out.segSections = seg.SectionCount()
	out.segLines = seg.LineCount()
	actx, aspan := obs.StartSpan(pctx, "annotate")
	ares, err := p.annotator.Annotate(actx, doc, seg)
	aspan.End()
	if err != nil {
		return out
	}
	out.annOK = true
	out.anns = ares.Annotations
	out.annFallbacks = ares.FallbackUsed
	out.aspects = ares.Aspects
	return out
}

// The Figure 1 / §3.1 / §4 funnel aggregation lives in funnel.go: each
// record reduces to a fixed-size FunnelCell as it is delivered (or
// resumed), and funnelFromCells folds the cells in study-list order —
// identical arithmetic whichever store the records went to.
