// Package aipan is a from-scratch, stdlib-only Go reproduction of
// "Analyzing Corporate Privacy Policies using AI Chatbots" (IMC '24): an
// automated pipeline that crawls corporate websites for privacy policies
// and uses AI-chatbot task prompts to extract structured, taxonomy-
// normalized annotations — collected data types, collection purposes,
// data retention/protection practices, and user rights — at Russell-3000
// scale.
//
// The package is a facade over the building blocks in internal/: the
// synthetic study universe and corporate web (the offline stand-ins for
// the Russell 3000 and the live Internet), the crawler, the HTML→text
// renderer, the segmentation and annotation tasks, the chatbot backends
// (deterministic GPT-4/Llama/GPT-3.5-class simulators plus an
// OpenAI-compatible HTTP client), and the analysis/reporting layer that
// regenerates every table in the paper.
//
// Quick start:
//
//	bot := aipan.SimGPT4()
//	anns, err := aipan.AnalyzeHTML(ctx, bot, policyHTML)
//
// Full reproduction:
//
//	p, _ := aipan.NewPipeline(aipan.PipelineConfig{})
//	res, _ := p.Run(ctx)
//	rep := aipan.NewReport(res.Records, p.Generator())
//	fmt.Println(rep.Table1(false).Render())
package aipan

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"aipan/internal/annotate"
	"aipan/internal/chatbot"
	"aipan/internal/core"
	"aipan/internal/crawler"
	"aipan/internal/downstream"
	"aipan/internal/nutrition"
	"aipan/internal/obs"
	"aipan/internal/qa"
	"aipan/internal/report"
	"aipan/internal/risk"
	"aipan/internal/russell"
	"aipan/internal/segment"
	"aipan/internal/server"
	"aipan/internal/stats"
	"aipan/internal/store"
	"aipan/internal/taxonomy"
	"aipan/internal/textify"
	"aipan/internal/trends"
	"aipan/internal/virtualweb"
	"aipan/internal/webgen"
)

// Core data types of the public API.
type (
	// Annotation is one structured annotation (the AIPAN dataset unit).
	Annotation = annotate.Annotation
	// Record is one domain's dataset row.
	Record = store.Record
	// Funnel carries the Figure 1 pipeline counts.
	Funnel = core.Funnel
	// PipelineConfig parameterizes a full run.
	PipelineConfig = core.Config
	// Pipeline is a configured end-to-end run.
	Pipeline = core.Pipeline
	// RunResult is a completed pipeline run.
	RunResult = core.Result
	// Report regenerates the paper's tables from a dataset.
	Report = report.Report
	// Table is a rendered analysis table.
	Table = stats.Table
	// Chatbot is the provider-agnostic LLM interface.
	Chatbot = chatbot.Chatbot
	// ChatbotProfile tunes a simulated chatbot's competence.
	ChatbotProfile = chatbot.Profile
	// OpenAIConfig configures the real-LLM HTTP backend.
	OpenAIConfig = chatbot.OpenAIConfig
	// CrawlerConfig tunes the privacy-policy crawler.
	CrawlerConfig = crawler.Config
	// ModelScore is one model's §6 comparison outcome.
	ModelScore = report.ModelScore
	// Generator is the synthetic corporate web with ground truth.
	Generator = webgen.Generator
	// AnnotateOption tunes the annotator (glossary size, filters).
	AnnotateOption = annotate.Option
)

// DefaultSeed is the AIPAN-3k corpus seed.
const DefaultSeed = webgen.Seed

// Observability re-exports (see internal/obs and DESIGN.md §9).
type (
	// Metrics is the concurrency-safe metrics registry (counters, gauges,
	// histograms) exported in the Prometheus text format. Pass one via
	// PipelineConfig.Registry to isolate a run's metrics; nil uses the
	// process-wide default.
	Metrics = obs.Registry
	// Logger is the leveled, structured key=value logger. Pass one via
	// PipelineConfig.Logger; nil disables logging.
	Logger = obs.Logger
)

// DefaultMetrics returns the process-wide metrics registry that all
// components report into unless given an explicit registry.
func DefaultMetrics() *Metrics { return obs.Default() }

// MetricsHandler serves reg (nil = DefaultMetrics) in the Prometheus text
// exposition format, for mounting on any mux.
func MetricsHandler(reg *Metrics) http.Handler { return obs.MetricsHandler(reg) }

// NewLogger builds a structured logger writing to w at the given level
// ("debug", "info", "warn", "error"; "" = info).
func NewLogger(w io.Writer, level string) (*Logger, error) {
	lv, err := obs.ParseLevel(level)
	if err != nil {
		return nil, err
	}
	return obs.NewLogger(w, lv), nil
}

// NewPipeline builds the end-to-end pipeline. The zero config reproduces
// the paper against the synthetic web with the GPT-4-class simulator.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	return core.New(cfg)
}

// NewReport builds the analysis layer over dataset records; gen may be
// nil when no ground truth is available (real-web datasets).
func NewReport(records []Record, gen *Generator) *Report {
	return report.New(records, gen)
}

// CompareModels reproduces the §6 model comparison over n policies.
func CompareModels(ctx context.Context, seed int64, n int) ([]ModelScore, error) {
	return report.CompareModels(ctx, seed, n)
}

// SimGPT4 returns the instruction-faithful GPT-4-class simulated chatbot,
// wrapped with retries and bounded concurrency.
func SimGPT4() Chatbot {
	return chatbot.NewClient(chatbot.NewSim(chatbot.GPT4Profile()), chatbot.WithCache(false))
}

// SimLlama31 returns the Llama-3.1-class simulator (negation errors, §6).
func SimLlama31() Chatbot {
	return chatbot.NewClient(chatbot.NewSim(chatbot.Llama31Profile()), chatbot.WithCache(false))
}

// SimGPT35 returns the GPT-3.5-class simulator (vendor confusion, §6).
func SimGPT35() Chatbot {
	return chatbot.NewClient(chatbot.NewSim(chatbot.GPT35Profile()), chatbot.WithCache(false))
}

// NewOpenAIChatbot returns a Chatbot backed by an OpenAI-compatible
// chat-completions API, for running the pipeline against a real LLM.
func NewOpenAIChatbot(cfg OpenAIConfig) (Chatbot, error) {
	bot, err := chatbot.NewOpenAI(cfg)
	if err != nil {
		return nil, err
	}
	return chatbot.NewClient(bot), nil
}

// AnalyzeHTML runs the paper's extraction stack over a single privacy
// policy: HTML → text, two-step segmentation, per-aspect annotation,
// hallucination filtering, and repetition dedup.
func AnalyzeHTML(ctx context.Context, bot Chatbot, html string, opts ...AnnotateOption) ([]Annotation, error) {
	doc := textify.RenderHTML(html)
	seg, err := segment.Segment(ctx, bot, doc)
	if err != nil {
		return nil, fmt.Errorf("aipan: %w", err)
	}
	res, err := annotate.New(bot, opts...).Annotate(ctx, doc, seg)
	if err != nil {
		return nil, fmt.Errorf("aipan: %w", err)
	}
	return annotate.Dedup(res.Annotations), nil
}

// SyntheticWeb bundles the offline study substrate: the generated
// corporate web for the synthetic Russell 3000.
type SyntheticWeb struct {
	// Gen renders sites and holds the planted ground truth.
	Gen *Generator
}

// NewSyntheticWeb builds the synthetic corporate web for a seed.
func NewSyntheticWeb(seed int64) *SyntheticWeb {
	if seed == 0 {
		seed = DefaultSeed
	}
	return &SyntheticWeb{
		Gen: webgen.New(seed, russell.UniqueDomains(russell.Universe(seed))),
	}
}

// Client returns an http.Client that resolves the synthetic web
// in-process (no sockets).
func (w *SyntheticWeb) Client() *http.Client {
	return virtualweb.NewTransport(w.Gen).Client()
}

// Handler serves the synthetic web over real sockets (see cmd/wwwsim).
func (w *SyntheticWeb) Handler() http.Handler {
	return virtualweb.NewHandler(w.Gen)
}

// Domains lists the study domains in deterministic order.
func (w *SyntheticWeb) Domains() []string { return w.Gen.Domains() }

// NewCrawler builds the §3.1 privacy-policy crawler.
func NewCrawler(cfg CrawlerConfig) (*crawler.Crawler, error) {
	return crawler.New(cfg)
}

// WriteDataset / ReadDataset persist AIPAN datasets as JSONL.
func WriteDataset(path string, records []Record) error {
	return store.WriteJSONL(path, records)
}

// ReadDataset loads a dataset written by WriteDataset.
func ReadDataset(path string) ([]Record, error) {
	return store.ReadJSONL(path)
}

// DatasetStore is the pluggable record storage interface behind
// checkpointing, resume, and the dataset server. Backends: a
// hash-sharded directory of CRC-framed binary segments, the one
// on-disk checkpoint format, and in-memory (see internal/store and
// DESIGN.md §10). Pass one via PipelineConfig.Store to control where a
// run streams its records.
type DatasetStore = store.Store

// DatasetStoreMeta is the run metadata (seed, shard count) a store
// carries so a checkpoint refuses to resume under a different seed.
type DatasetStoreMeta = store.Meta

// OpenDatasetStore opens (or creates) the checkpoint store in the
// directory at path: "binary:N" for N hash-sharded binary segment files
// with per-shard domain indexes, "" for binary:1. Any other spec — the
// retired "jsonl" and "sharded:N" checkpoint layouts and "mem" among
// them — is refused with an error naming binary:N, and so is a path
// naming a file, such as a retired JSONL checkpoint.
func OpenDatasetStore(spec, path string) (DatasetStore, error) {
	return store.OpenSpec(spec, path)
}

// ExportDataset writes a store's records to a flat JSONL file
// (atomically), converting any backend into the release format. The
// export streams through a per-shard merge in domain order, so it never
// materializes the dataset; every backend holding the same records
// exports byte-identical files.
func ExportDataset(path string, st DatasetStore) error {
	return store.SaveJSONL(path, st)
}

// ExportAnnotationsCSV / ExportDomainsCSV stream a store straight into
// the release CSV forms, in domain order, without materializing the
// records — the large-run counterparts of WriteAnnotationsCSV and
// WriteDomainsCSV.
func ExportAnnotationsCSV(path string, st DatasetStore) error {
	return store.ExportAnnotationsCSV(path, st)
}

// ExportDomainsCSV streams one CSV row per domain from a store.
func ExportDomainsCSV(path string, st DatasetStore) error {
	return store.ExportDomainsCSV(path, st)
}

// ErrStoreTruncated matches (via errors.Is) the refusal reported when a
// store's final record is torn — the signature of a crash mid-append.
// RepairDatasetStore truncates the store back to its last good record.
var ErrStoreTruncated = store.ErrTruncated

// RepairDatasetStore truncates the checkpoint store in dir — its shard
// count read from the store's own stamp — back to the end of its last
// well-formed record, returning the bytes dropped. Run it when an open
// refuses with ErrStoreTruncated.
func RepairDatasetStore(dir string) (int64, error) {
	return store.Repair(dir)
}

// RepairEventDir truncates each flight-recorder shard in dir back to
// the end of its last good frame, returning the bytes dropped.
func RepairEventDir(dir string) (int64, error) {
	return store.RepairEventDir(dir)
}

// FunnelTable renders the paper-vs-measured funnel.
func FunnelTable(f Funnel) *Table {
	return report.FunnelTable(report.FunnelNumbers{
		Companies: f.Companies, Domains: f.Domains, CrawlOK: f.CrawlOK,
		ExtractOK: f.ExtractOK, Annotated: f.Annotated,
		AvgPagesCrawled: f.AvgPagesCrawled, AvgPrivacyPages: f.AvgPrivacyPages,
		WellKnownPolicy: f.WellKnownPolicy, WellKnownPriv: f.WellKnownPriv,
		MedianWords: f.MedianWords, FallbackUsed: f.FallbackUsed,
	})
}

// CompareTable renders the §6 model comparison.
func CompareTable(scores []ModelScore) *Table {
	return report.CompareTable(scores)
}

// Annotator option re-exports.
var (
	// WithGlossarySize controls the prompt glossary (0 = full, -1 = none).
	WithGlossarySize = annotate.WithGlossarySize
	// WithHallucinationFilter toggles the verbatim-presence check.
	WithHallucinationFilter = annotate.WithHallucinationFilter
	// WithSectionFirst toggles section-first annotation.
	WithSectionFirst = annotate.WithSectionFirst
)

// RiskScore is one company's privacy-exposure assessment (the §6
// "legal exposure risk analysis" extension).
type RiskScore = risk.Score

// ScoreRisk scores every annotated record with the default sensitivity
// weights and fills sector percentiles.
func ScoreRisk(records []Record) []RiskScore {
	return risk.ScoreAll(records, risk.DefaultWeights())
}

// RiskSectorTable renders the peer-group (sector) comparison.
func RiskSectorTable(scores []RiskScore) *Table { return risk.SectorTable(scores) }

// RiskTopTable lists the n riskiest companies.
func RiskTopTable(scores []RiskScore, n int) *Table { return risk.TopTable(scores, n) }

// Classifier is the distilled offline model (the paper's §6 future work:
// training offline models to replicate the chatbot annotations).
type Classifier = downstream.NaiveBayes

// ClassifierEval summarizes held-out agreement with the chatbot labels.
type ClassifierEval = downstream.Eval

// TrainClassifier distills the dataset into an offline classifier for the
// given task: "aspect" (route sentences to types/purposes/handling/rights)
// or "types-category" (assign the 34 data-type categories). It returns the
// model and its held-out evaluation against the chatbot's labels.
func TrainClassifier(records []Record, task string) (*Classifier, ClassifierEval, error) {
	var samples []downstream.Sample
	switch task {
	case "aspect":
		samples = downstream.AspectSamples(records)
	case "types-category":
		samples = downstream.CategorySamples(records, "types")
	default:
		return nil, ClassifierEval{}, fmt.Errorf("aipan: unknown training task %q", task)
	}
	train, test := downstream.Split(samples, 0.8, DefaultSeed)
	model, err := downstream.Train(train, 1)
	if err != nil {
		return nil, ClassifierEval{}, fmt.Errorf("aipan: %w", err)
	}
	return model, downstream.Evaluate(model, test), nil
}

// LoadClassifier reads a model written by Classifier.Save.
func LoadClassifier(path string) (*Classifier, error) {
	return downstream.Load(path)
}

// TrendDelta is one category's coverage movement between dataset
// snapshots (the §6 "trends" analysis).
type TrendDelta = trends.Delta

// DomainChanges summarizes per-domain practice movement between
// snapshots.
type DomainChanges = trends.DomainChanges

// CoverageDeltas compares two dataset snapshots, largest movement first.
func CoverageDeltas(old, new []Record) []TrendDelta {
	return trends.CoverageDeltas(old, new)
}

// CompareDomains diffs per-domain practice sets between snapshots.
func CompareDomains(old, new []Record) DomainChanges {
	return trends.CompareDomains(old, new)
}

// DeltaTable renders the top-n coverage movements.
func DeltaTable(deltas []TrendDelta, n int) *Table {
	return trends.DeltaTable(deltas, n)
}

// PrivacyLabel is a structured privacy nutrition label (the human-readable
// summary the paper's abstract promises; cf. Pan et al. in related work).
type PrivacyLabel = nutrition.Label

// NutritionLabel builds a privacy nutrition label from annotations.
func NutritionLabel(anns []Annotation) PrivacyLabel {
	return nutrition.Build(anns)
}

// QAAnswer is a grounded answer to a privacy question, citing the policy
// evidence carried by the annotations.
type QAAnswer = qa.Answer

// Ask answers a free-form privacy question ("do they sell my data?",
// "how long is data kept?") from a policy's annotations. ok=false means
// no supported question family matched.
func Ask(question string, anns []Annotation) (QAAnswer, bool) {
	return qa.Ask(question, anns)
}

// DatasetServer serves a dataset over the versioned HTTP/JSON API
// documented in internal/server: /v1/summary, paginated /v1/domains,
// per-domain records, nutrition labels, question answering, risk
// scores, and paper tables, with response caching, conditional GET,
// rate limiting, and load shedding built in. It implements
// http.Handler.
type DatasetServer = server.Server

// DatasetSource supplies the records a DatasetServer indexes; Refresh
// re-reads it to serve a new dataset generation.
type DatasetSource = server.Source

// ServerOption configures a DatasetServer (see WithServerRegistry,
// WithServerRateLimit, WithServerCacheSize, and friends).
type ServerOption = server.Option

// DatasetRecords adapts an in-memory record slice into a DatasetSource.
func DatasetRecords(records []Record) DatasetSource { return server.Records(records) }

// DatasetFromStore adapts any store backend into a DatasetSource,
// without an intermediate JSONL export.
func DatasetFromStore(st DatasetStore) DatasetSource { return server.FromStore(st) }

// NewDatasetServer builds the production dataset server: it loads and
// indexes src once, then serves every read from immutable precomputed
// views.
func NewDatasetServer(src DatasetSource, opts ...ServerOption) (*DatasetServer, error) {
	return server.NewServer(src, opts...)
}

// Server options, re-exported so callers can tune the serving layer
// without importing internal packages.
var (
	WithServerRegistry       = server.WithRegistry
	WithServerLogger         = server.WithLogger
	WithServerRateLimit      = server.WithRateLimit
	WithServerCacheSize      = server.WithCacheSize
	WithServerMaxInflight    = server.WithMaxInflight
	WithServerRequestTimeout = server.WithRequestTimeout
	WithServerEvents         = server.WithEvents
	WithServerSLO            = server.WithSLO
)

// --- Durable telemetry (DESIGN.md §14) -------------------------------
//
// Trace export, the per-domain flight recorder, and the runtime/SLO
// collectors, re-exported for the CLI and library embedders.

// TraceExporter receives completed spans; set one on
// PipelineConfig.TraceExporter to stream the run's span tree to disk.
type TraceExporter = obs.Exporter

// SpanRecord is one exported span as read back by ReadTrace.
type SpanRecord = obs.SpanRecord

// SLOConfig tunes the serving-layer SLO monitor (see WithServerSLO).
type SLOConfig = obs.SLOConfig

// NewTraceFileExporter opens a length-prefixed JSONL trace file. Pass
// sorted=true (with PipelineConfig.TelemetryTimings off) for the
// deterministic, byte-comparable export mode.
func NewTraceFileExporter(path string, sorted bool) (TraceExporter, error) {
	return obs.NewFileExporter(path, sorted)
}

// ReadTrace parses a trace file written by NewTraceFileExporter.
func ReadTrace(path string) ([]SpanRecord, error) { return obs.ReadTrace(path) }

// DeriveRunID maps a corpus seed to the run identifier stamped on every
// log line, span, and flight-recorder event of that run.
func DeriveRunID(seed int64) string { return obs.DeriveRunID(seed) }

// StartRuntimeSampler publishes aipan_runtime_* gauges (heap, GC,
// goroutines) into reg every interval; the returned stop function is
// idempotent.
func StartRuntimeSampler(reg *Metrics, interval time.Duration) func() {
	return obs.StartRuntimeSampler(reg, interval)
}

// FlightEvent is one per-domain flight-recorder record.
type FlightEvent = store.Event

// EventStore is a readable flight-recorder stream (see WithServerEvents).
type EventStore = store.EventStore

// OpenEventLog creates (or reopens) a flight-recorder stream in dir:
// events-%02d.bin shards of CRC-framed JSON events, the shard count
// stamped in events-meta.json at creation. Set it as
// PipelineConfig.Events to record a run.
func OpenEventLog(dir string, shards int) (*store.EventLog, error) {
	return store.OpenEventLog(dir, shards)
}

// OpenEventDir reopens an existing flight-recorder directory with its
// stamped shard count; a directory in the retired JSONL event layout is
// refused with a message to re-record it.
func OpenEventDir(dir string) (*store.EventLog, error) { return store.OpenEventDir(dir) }

// WriteAnnotationsCSV / WriteDomainsCSV export the dataset in the flat
// spreadsheet-friendly forms a release ships next to the JSONL.
func WriteAnnotationsCSV(path string, records []Record) error {
	return store.WriteAnnotationsCSV(path, records)
}

// WriteDomainsCSV writes one CSV row per domain.
func WriteDomainsCSV(path string, records []Record) error {
	return store.WriteDomainsCSV(path, records)
}

// TaxonomyCategory / TaxonomyDescriptor are the building blocks of
// taxonomy extensions.
type (
	TaxonomyCategory   = taxonomy.Category
	TaxonomyDescriptor = taxonomy.Descriptor
)

// TaxonomyExtension is a user-supplied taxonomy addition: new categories
// or extra descriptors merged into the prompt glossaries, extraction
// lexicons, and normalization indexes — the paper's "flexible/
// programmable pipeline ... comprehensive and extendable taxonomy"
// (contribution 1).
type TaxonomyExtension = taxonomy.Extension

// LoadTaxonomyExtension reads an extension from a JSON file and installs
// it process-wide. Call before building chatbots or pipelines.
func LoadTaxonomyExtension(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("aipan: %w", err)
	}
	defer f.Close()
	ext, err := taxonomy.LoadExtension(f)
	if err != nil {
		return err
	}
	return taxonomy.Register(ext)
}

// RegisterTaxonomyExtension installs an in-memory extension.
func RegisterTaxonomyExtension(ext TaxonomyExtension) error {
	return taxonomy.Register(ext)
}

// ClearTaxonomyExtension restores the base taxonomy.
func ClearTaxonomyExtension() { taxonomy.ClearExtension() }
