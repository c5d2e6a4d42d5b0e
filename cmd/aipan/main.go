// Command aipan is the end-to-end reproduction CLI: it runs the pipeline
// over the synthetic Russell-3000 web, persists the AIPAN dataset, and
// regenerates every table and validation figure from the paper.
//
// Usage:
//
//	aipan run      --out aipan.jsonl [--limit N] [--universe N] [--model sim-gpt4] [--workers 8] [--seed 3000] [--checkpoint ckdir [--store binary:N]] [--stats-out stats.json] [--metrics-addr :9090] [--trace-out run.trace] [--events-out events/] [--telemetry-timings]
//	aipan report   --data aipan.jsonl --table funnel|1|2a|2b|3|4|5|6|dist|retention [--seed 3000]
//	aipan validate --data aipan.jsonl [--seed 3000]
//	aipan compare-models [--n 20] [--seed 3000]
//	aipan serve    --data aipan.jsonl|ckdir [--addr :8090] [--rps 50 --burst 100] [--max-inflight 256] [--cache-size 1024] [--request-timeout 15s] [--drain-timeout 10s] [--log-level info] [--events events/] [--slo-latency-target 250ms]
//	aipan debug    trace <file> | events <dir> | repair <dir> | repair --events <dir>
//	aipan vet      [-json] [-baseline aipanvet.baseline|none] [-checks a,b] ./...
//	aipan all      --out aipan.jsonl [--limit N]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"aipan"
	"aipan/internal/analysis"
	"aipan/internal/chatbot"
	"aipan/internal/core"
	"aipan/internal/obs"
	"aipan/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "run":
		err = cmdRun(args)
	case "work":
		err = cmdWork(args)
	case "report":
		err = cmdReport(args)
	case "validate":
		err = cmdValidate(args)
	case "compare-models":
		err = cmdCompare(args)
	case "risk":
		err = cmdRisk(args)
	case "train":
		err = cmdTrain(args)
	case "prompts":
		err = cmdPrompts(args)
	case "diff":
		err = cmdDiff(args)
	case "serve":
		err = cmdServe(args)
	case "debug":
		err = cmdDebug(args)
	case "vet":
		os.Exit(analysis.Main(args, os.Stdout, os.Stderr))
	case "all":
		err = cmdAll(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "aipan: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aipan:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `aipan — large-scale privacy-policy annotation (IMC '24 reproduction)

commands:
  run             crawl + annotate the corpus, write the JSONL dataset
                  (--distributed N / --listen fan the study out over the dispatch protocol)
  work            join a run's coordinator as a worker process (--join <url>)
  report          regenerate a paper table from a dataset
  validate        §4 validation: failure audit + precision vs ground truth
  compare-models  §6 GPT-4- vs Llama- vs GPT-3.5-class comparison
  risk            privacy-exposure scoring + sector peer comparison
  train           distill the chatbot annotations into an offline classifier
  prompts         print the chatbot task prompts (Figure 2 / Appendix C)
  diff            compare two dataset snapshots (trend analysis)
  serve           expose a dataset over the versioned /v1 HTTP/JSON API
  debug           inspect durable telemetry and repair torn checkpoints:
                  debug trace <file> | debug events <dir> | debug repair <dir>
  vet             run the repo's own static-analysis checkers (aipanvet)
  all             run + funnel + all tables + validation in one go`)
}

func botFor(name string) (aipan.Chatbot, error) {
	switch name {
	case "sim-gpt4", "":
		return aipan.SimGPT4(), nil
	case "sim-llama31":
		return aipan.SimLlama31(), nil
	case "sim-gpt35":
		return aipan.SimGPT35(), nil
	}
	if strings.HasPrefix(name, "openai:") {
		return aipan.NewOpenAIChatbot(aipan.OpenAIConfig{
			BaseURL: os.Getenv("OPENAI_BASE_URL"),
			APIKey:  os.Getenv("OPENAI_API_KEY"),
			Model:   strings.TrimPrefix(name, "openai:"),
		})
	}
	return nil, fmt.Errorf("unknown model %q (sim-gpt4, sim-llama31, sim-gpt35, openai:<model>)", name)
}

// obsFlags are the observability knobs shared by run and all.
type obsFlags struct {
	metricsAddr      string
	logLevel         string
	traceOut         string
	eventsOut        string
	telemetryTimings bool
}

func (o *obsFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&o.metricsAddr, "metrics-addr", "",
		"serve /metrics and /debug/pprof on this address for the run's lifetime (e.g. :9090)")
	fs.StringVar(&o.logLevel, "log-level", "",
		"emit structured logs to stderr at this level: debug | info | warn | error (default off)")
	fs.StringVar(&o.traceOut, "trace-out", "",
		"export the run's span tree to this trace file (byte-identical across same-seed runs unless --telemetry-timings)")
	fs.StringVar(&o.eventsOut, "events-out", "",
		"record one flight-recorder event per domain into this directory (serve it later with serve --events)")
	fs.BoolVar(&o.telemetryTimings, "telemetry-timings", false,
		"include wall-clock timings in traces and events (trades byte-identical telemetry for latency data)")
}

// runFlags are the pipeline knobs shared by run and all, validated as a
// set before any work starts.
type runFlags struct {
	limit      int
	workers    int
	universe   int
	checkpoint string
	storeSpec  string
	csvPrefix  string
	statsOut   string
}

// validate rejects nonsensical flag combinations up front with a usage
// error, instead of surfacing them later as a crawl that silently does
// nothing or a store open failure mid-run. An empty --store is the
// default checkpoint format, binary:1.
func (rf *runFlags) validate() error {
	if rf.workers < 0 {
		return fmt.Errorf("--workers must be non-negative (got %d)", rf.workers)
	}
	if rf.limit < 0 {
		return fmt.Errorf("--limit must be non-negative (got %d)", rf.limit)
	}
	if rf.universe < 0 {
		return fmt.Errorf("--universe must be non-negative (got %d; 0 = the paper's 2,892 domains)", rf.universe)
	}
	if rf.storeSpec == "" {
		return nil
	}
	if _, err := store.ParseSpec(rf.storeSpec); err != nil {
		return fmt.Errorf("--store %s: %w", rf.storeSpec, err)
	}
	if rf.checkpoint == "" {
		return fmt.Errorf("--store=%s needs --checkpoint to name its shard directory", rf.storeSpec)
	}
	return nil
}

// openStore opens the store a run streams its records into and exports
// from: the checkpoint --checkpoint names, or an in-memory store.
func (rf *runFlags) openStore() (aipan.DatasetStore, error) {
	if rf.checkpoint == "" {
		return store.NewMem(), nil
	}
	return aipan.OpenDatasetStore(rf.storeSpec, rf.checkpoint)
}

// export writes the run's dataset to out and, with --csv, both CSVs,
// all read back from the run's store.
func (rf *runFlags) export(out string, st aipan.DatasetStore) error {
	if out != "" {
		if err := aipan.ExportDataset(out, st); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote the dataset to %s\n", out)
	}
	if rf.csvPrefix != "" {
		if err := aipan.ExportAnnotationsCSV(rf.csvPrefix+"-annotations.csv", st); err != nil {
			return err
		}
		if err := aipan.ExportDomainsCSV(rf.csvPrefix+"-domains.csv", st); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s-annotations.csv and %s-domains.csv\n", rf.csvPrefix, rf.csvPrefix)
	}
	return nil
}

func runPipeline(out string, rf runFlags, seed int64, model string, progress bool, of obsFlags) (*core.Result, *aipan.Pipeline, error) {
	if err := rf.validate(); err != nil {
		return nil, nil, err
	}
	bot, err := botFor(model)
	if err != nil {
		return nil, nil, err
	}
	cfg := aipan.PipelineConfig{
		Seed: seed, Limit: rf.limit, Workers: rf.workers, Bot: bot,
		UniverseDomains: rf.universe, TelemetryTimings: of.telemetryTimings,
	}
	// The run streams into its store (resuming from it, if it is a
	// checkpoint), and the exports below read back through it. It opens
	// before any telemetry output is created, so a refused checkpoint
	// leaves nothing behind.
	st, err := rf.openStore()
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	cfg.Store = st
	// Telemetry outputs close after the run so the sorted trace exporter
	// can write its deterministic file; close errors are surfaced on
	// stderr rather than failing a run whose dataset already landed.
	var telemetryClosers []func() error
	defer func() {
		for _, closeFn := range telemetryClosers {
			if cerr := closeFn(); cerr != nil {
				fmt.Fprintln(os.Stderr, "aipan: telemetry:", cerr)
			}
		}
	}()
	if of.traceOut != "" {
		exp, err := aipan.NewTraceFileExporter(of.traceOut, !of.telemetryTimings)
		if err != nil {
			return nil, nil, err
		}
		telemetryClosers = append(telemetryClosers, exp.Close)
		cfg.TraceExporter = exp
	}
	if of.eventsOut != "" {
		ev, err := aipan.OpenEventLog(of.eventsOut, 4)
		if err != nil {
			return nil, nil, err
		}
		telemetryClosers = append(telemetryClosers, ev.Close)
		cfg.Events = ev
	}
	if of.logLevel != "" {
		logger, err := aipan.NewLogger(os.Stderr, of.logLevel)
		if err != nil {
			return nil, nil, err
		}
		cfg.Logger = logger
	}
	if of.metricsAddr != "" {
		dbg, err := obs.StartDebugServer(of.metricsAddr, aipan.DefaultMetrics(), cfg.Logger)
		if err != nil {
			return nil, nil, err
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "metrics: http://localhost%s/metrics (pprof under /debug/pprof/)\n", of.metricsAddr)
	}
	if progress {
		cfg.Progress = func(stage string, done, total int) {
			if done%200 == 0 || done == total {
				fmt.Fprintf(os.Stderr, "\r%s: %d/%d", stage, done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
	}
	p, err := aipan.NewPipeline(cfg)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	res, err := p.Run(context.Background())
	if err != nil {
		return nil, nil, err
	}
	wall := time.Since(start)
	if err := rf.export(out, st); err != nil {
		return nil, nil, err
	}
	if mem, ok := st.(*store.Mem); ok {
		res.Records = mem.Records() // what `all` builds its report from
	}
	if rf.statsOut != "" {
		if err := writeRunStats(rf.statsOut, res.Funnel.Domains, wall); err != nil {
			return nil, nil, err
		}
	}
	if of.traceOut != "" || of.eventsOut != "" {
		fmt.Fprintf(os.Stderr, "telemetry for run %s:", p.RunID())
		if of.traceOut != "" {
			fmt.Fprintf(os.Stderr, " trace=%s", of.traceOut)
		}
		if of.eventsOut != "" {
			fmt.Fprintf(os.Stderr, " events=%s", of.eventsOut)
		}
		fmt.Fprintln(os.Stderr)
	}
	return res, p, nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	out := fs.String("out", "aipan.jsonl", "output dataset path")
	limit := fs.Int("limit", 0, "process only the first N domains (0 = all)")
	workers := fs.Int("workers", 8, "concurrent domains")
	universe := fs.Int("universe", 0, "scale the study universe to N unique domains (0 = the paper's 2,892)")
	seed := fs.Int64("seed", aipan.DefaultSeed, "corpus seed")
	model := fs.String("model", "sim-gpt4", "chatbot backend")
	csvPrefix := fs.String("csv", "", "also write <prefix>-annotations.csv and <prefix>-domains.csv")
	taxPath := fs.String("taxonomy", "", "JSON taxonomy extension to merge before annotating")
	checkpoint := fs.String("checkpoint", "", "stream records to a store in this directory and resume from it on restart")
	storeSpec := fs.String("store", "", "checkpoint format: binary:N, N shards (default binary:1; needs --checkpoint)")
	statsOut := fs.String("stats-out", "", "write run statistics (domains, wall secs, domains/sec, peak RSS) as JSON here")
	distributed := fs.Int("distributed", 0,
		"run the study through the dispatch coordinator with N in-process workers (0 = single-process)")
	listen := fs.String("listen", "",
		"serve the dispatch coordinator on this address so external `aipan work` processes can join")
	leaseTTL := fs.Duration("lease-ttl", 15*time.Second,
		"distributed only: reassign a worker's shard after this long without a heartbeat")
	dispatchShards := fs.Int("dispatch-shards", 8, "distributed only: shard count for the study partition")
	var of obsFlags
	of.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *taxPath != "" {
		if err := aipan.LoadTaxonomyExtension(*taxPath); err != nil {
			return err
		}
	}
	rf := runFlags{
		limit: *limit, workers: *workers, universe: *universe,
		checkpoint: *checkpoint, storeSpec: *storeSpec,
		csvPrefix: *csvPrefix, statsOut: *statsOut,
	}
	if *distributed > 0 || *listen != "" {
		return runDistributed(*out, rf, *seed, *model, of, *distributed, *listen, *leaseTTL, *dispatchShards)
	}
	res, _, err := runPipeline(*out, rf, *seed, *model, true, of)
	if err != nil {
		return err
	}
	fmt.Println(aipan.FunnelTable(res.Funnel).Render())
	return nil
}

// runStats is the --stats-out payload: the scale harness reads it to
// gate throughput parity and peak memory.
type runStats struct {
	Domains       int     `json:"domains"`
	WallSecs      float64 `json:"wall_secs"`
	DomainsPerSec float64 `json:"domains_per_sec"`
	PeakRSSBytes  int64   `json:"peak_rss_bytes"`
}

func writeRunStats(path string, domains int, wall time.Duration) error {
	st := runStats{Domains: domains, WallSecs: wall.Seconds(), PeakRSSBytes: peakRSSBytes()}
	if st.WallSecs > 0 {
		st.DomainsPerSec = float64(domains) / st.WallSecs
	}
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "stats: %d domains in %.1fs (%.1f domains/sec, peak RSS %d MiB) → %s\n",
		st.Domains, st.WallSecs, st.DomainsPerSec, st.PeakRSSBytes>>20, path)
	return nil
}

// peakRSSBytes reads the process's peak resident set (VmHWM) from
// /proc/self/status; 0 when unavailable (non-Linux).
func peakRSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

func loadReport(data string, seed int64) (*aipan.Report, error) {
	records, err := aipan.ReadDataset(data)
	if err != nil {
		return nil, err
	}
	web := aipan.NewSyntheticWeb(seed)
	return aipan.NewReport(records, web.Gen), nil
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	data := fs.String("data", "aipan.jsonl", "dataset path")
	table := fs.String("table", "1", "funnel|1|2a|2b|3|4|5|6|dist|retention")
	seed := fs.Int64("seed", aipan.DefaultSeed, "corpus seed (for ground truth)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, err := loadReport(*data, *seed)
	if err != nil {
		return err
	}
	printReportTable(rep, *table)
	return nil
}

func printReportTable(rep *aipan.Report, table string) {
	switch table {
	case "1":
		fmt.Println(rep.Table1(false).Render())
	case "4":
		fmt.Println(rep.Table1(true).Render())
	case "2a":
		fmt.Println(rep.Table2Types(false).Render())
	case "5":
		fmt.Println(rep.Table2Types(true).Render())
	case "2b":
		fmt.Println(rep.Table2Purposes().Render())
	case "3":
		fmt.Println(rep.Table3().Render())
	case "6":
		fmt.Println(rep.Table6(4).Render())
	case "dist":
		d := rep.CategoryDistribution()
		fmt.Printf("§5 category distribution (paper values in parentheses)\n")
		fmt.Printf("  ≥3 categories:  %5.1f%%  (93.5%%)\n", d.AtLeast3Cats*100)
		fmt.Printf("  >13 categories: %5.1f%%  (52.8%%)\n", d.Over13Cats*100)
		fmt.Printf("  >22 categories: %5.1f%%  (13.0%%)\n", d.Over22Cats*100)
		fmt.Printf("  >25 categories: %5.1f%%  (4.8%%)\n", d.Over25Cats*100)
		fmt.Printf("  CD sector mean: %.1f categories / %.1f descriptors (16.3 / 48.8)\n", d.CDMeanCats, d.CDMeanDescs)
		fmt.Printf("  'data for sale' companies: %d (26)\n", d.DataForSale)
	case "retention":
		s := rep.Retention()
		fmt.Printf("§5 retention & access drill-down (paper values in parentheses)\n")
		fmt.Printf("  median stated retention: %.1f years (2)\n", s.MedianDays/365)
		fmt.Printf("  min: %.0f day(s) %v (1 day)\n", s.MinDays, s.MinDomains)
		fmt.Printf("  max: %.0f years %v (50 years)\n", s.MaxDays/365, s.MaxDomains)
		fmt.Printf("  specific protection practices: %.1f%% (39.9%%)\n", s.SpecificProtection*100)
		if s.IndefiniteTotal > 0 {
			fmt.Printf("  indefinite retention concerning anonymized/aggregated data: %d of %d (§6 refinement)\n",
				s.IndefiniteAnonymized, s.IndefiniteTotal)
		}
		fmt.Printf("  read/write access: %.1f%% (77.5%%)   read-only: %.1f%% (0.5%%)   none: %.1f%% (22.0%%)\n",
			s.ReadWriteAccess*100, s.ReadOnlyAccess*100, s.NoAccess*100)
	default:
		fmt.Fprintf(os.Stderr, "unknown table %q\n", table)
	}
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	data := fs.String("data", "aipan.jsonl", "dataset path")
	seed := fs.Int64("seed", aipan.DefaultSeed, "corpus seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, err := loadReport(*data, *seed)
	if err != nil {
		return err
	}
	fmt.Println(rep.AuditTable().Render())
	fmt.Println(rep.PrecisionTable().Render())
	fmt.Println("Sampled precision (paper's §4 sample sizes):")
	for _, p := range rep.SampledPrecision(1) {
		fmt.Printf("  %-10s %5.1f%%  (%d/%d)\n", p.Aspect, p.Value()*100, p.Correct, p.Total)
	}
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare-models", flag.ExitOnError)
	n := fs.Int("n", 20, "number of policies (paper: 20)")
	seed := fs.Int64("seed", aipan.DefaultSeed, "corpus seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scores, err := aipan.CompareModels(context.Background(), *seed, *n)
	if err != nil {
		return err
	}
	fmt.Println(aipan.CompareTable(scores).Render())
	return nil
}

func cmdRisk(args []string) error {
	fs := flag.NewFlagSet("risk", flag.ExitOnError)
	data := fs.String("data", "aipan.jsonl", "dataset path")
	top := fs.Int("top", 15, "companies to list")
	if err := fs.Parse(args); err != nil {
		return err
	}
	records, err := aipan.ReadDataset(*data)
	if err != nil {
		return err
	}
	scores := aipan.ScoreRisk(records)
	fmt.Println(aipan.RiskSectorTable(scores).Render())
	fmt.Println(aipan.RiskTopTable(scores, *top).Render())
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	data := fs.String("data", "aipan.jsonl", "dataset path")
	out := fs.String("out", "", "write the trained model JSON here (optional)")
	task := fs.String("task", "aspect", "aspect | types-category")
	if err := fs.Parse(args); err != nil {
		return err
	}
	records, err := aipan.ReadDataset(*data)
	if err != nil {
		return err
	}
	model, eval, err := aipan.TrainClassifier(records, *task)
	if err != nil {
		return err
	}
	fmt.Printf("task %q: %d classes, held-out accuracy %.1f%%, macro-F1 %.3f (n=%d)\n",
		*task, len(model.Classes), eval.Accuracy*100, eval.MacroF1, eval.N)
	classes := append([]string(nil), model.Classes...)
	for _, c := range classes {
		m := eval.PerClass[c]
		if m.Support == 0 {
			continue
		}
		fmt.Printf("  %-28s P %.2f  R %.2f  F1 %.2f  (n=%d)\n", c, m.Precision, m.Recall, m.F1, m.Support)
	}
	if *out != "" {
		if err := model.Save(*out); err != nil {
			return err
		}
		fmt.Println("model written to", *out)
	}
	return nil
}

func cmdPrompts(args []string) error {
	fs := flag.NewFlagSet("prompts", flag.ExitOnError)
	task := fs.String("task", "extract-types", "heading-labels | segment-text | extract-types | normalize-types | extract-purposes | normalize-purposes | handling-labels | rights-labels")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sample := "[1] We collect your email address and browsing history.\n"
	var req chatbot.Request
	switch *task {
	case chatbot.TaskHeadingLabels:
		req = chatbot.HeadingLabelsRequest("[1] Information We Collect\n[2]   Cookies\n")
	case chatbot.TaskSegmentText:
		req = chatbot.SegmentTextRequest(sample)
	case chatbot.TaskExtractTypes:
		req = chatbot.ExtractTypesRequest(sample, 3)
	case chatbot.TaskNormalizeTypes:
		req = chatbot.NormalizeTypesRequest([]string{"mailing address"}, 3)
	case chatbot.TaskExtractPurposes:
		req = chatbot.ExtractPurposesRequest(sample, 3)
	case chatbot.TaskNormalizePurposes:
		req = chatbot.NormalizePurposesRequest([]string{"prevent fraud"}, 3)
	case chatbot.TaskHandlingLabels:
		req = chatbot.HandlingLabelsRequest(sample)
	case chatbot.TaskRightsLabels:
		req = chatbot.RightsLabelsRequest(sample)
	default:
		return fmt.Errorf("unknown task %q", *task)
	}
	for _, m := range req.Messages {
		fmt.Printf("――― %s ―――\n%s\n\n", m.Role, m.Content)
	}
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	oldPath := fs.String("old", "", "older dataset snapshot (required)")
	newPath := fs.String("new", "", "newer dataset snapshot (required)")
	top := fs.Int("top", 15, "coverage movements to list")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *oldPath == "" || *newPath == "" {
		return fmt.Errorf("diff requires --old and --new dataset paths")
	}
	oldRecs, err := aipan.ReadDataset(*oldPath)
	if err != nil {
		return err
	}
	newRecs, err := aipan.ReadDataset(*newPath)
	if err != nil {
		return err
	}
	deltas := aipan.CoverageDeltas(oldRecs, newRecs)
	fmt.Println(aipan.DeltaTable(deltas, *top).Render())
	ch := aipan.CompareDomains(oldRecs, newRecs)
	fmt.Printf("domains compared: %d (unchanged %d), new: %d, gone: %d\n",
		ch.Compared, ch.Unchanged, len(ch.NewDomains), len(ch.GoneDomains))
	return nil
}

// serveFlags are the serving-layer knobs, validated as a set before the
// dataset is opened (mirrors runFlags.validate for the pipeline commands).
type serveFlags struct {
	rps            float64
	burst          int
	maxInflight    int
	requestTimeout time.Duration
	cacheSize      int
	drainTimeout   time.Duration
}

func (sf *serveFlags) validate() error {
	if sf.rps < 0 {
		return fmt.Errorf("--rps must be non-negative (got %g; 0 disables rate limiting)", sf.rps)
	}
	if sf.burst < 0 {
		return fmt.Errorf("--burst must be non-negative (got %d; 0 derives it from --rps)", sf.burst)
	}
	if sf.maxInflight < 1 {
		return fmt.Errorf("--max-inflight must be positive (got %d)", sf.maxInflight)
	}
	if sf.requestTimeout <= 0 {
		return fmt.Errorf("--request-timeout must be positive (got %v)", sf.requestTimeout)
	}
	if sf.cacheSize < 0 {
		return fmt.Errorf("--cache-size must be non-negative (got %d; 0 disables caching)", sf.cacheSize)
	}
	if sf.drainTimeout <= 0 {
		return fmt.Errorf("--drain-timeout must be positive (got %v)", sf.drainTimeout)
	}
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	data := fs.String("data", "aipan.jsonl", "dataset to serve: a JSONL export file, or a checkpoint directory")
	addr := fs.String("addr", ":8090", "listen address")
	logLevel := fs.String("log-level", "", "structured request logs to stderr: debug | info | warn | error (default off)")
	var sf serveFlags
	fs.Float64Var(&sf.rps, "rps", 50, "per-client rate limit in requests/second (0 disables)")
	fs.IntVar(&sf.burst, "burst", 100, "per-client burst allowance (0 derives it from --rps)")
	fs.IntVar(&sf.maxInflight, "max-inflight", 256, "concurrent requests admitted before shedding with 503")
	fs.DurationVar(&sf.requestTimeout, "request-timeout", 15*time.Second, "per-request handler deadline")
	fs.IntVar(&sf.cacheSize, "cache-size", 1024, "response cache capacity in entries (0 disables the cache; ETags stay on)")
	fs.DurationVar(&sf.drainTimeout, "drain-timeout", 10*time.Second, "graceful-shutdown window for in-flight requests")
	eventsDir := fs.String("events", "",
		"flight-recorder directory from a --events-out run; enables /v1/events and /v1/domains/{domain}/provenance")
	sloTarget := fs.Duration("slo-latency-target", 250*time.Millisecond,
		"request latency the SLO monitor counts as slow; burn degrades /v1/readyz")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := sf.validate(); err != nil {
		return err
	}
	src, n, closeSrc, err := openServeSource(*data)
	if err != nil {
		return err
	}
	defer closeSrc()

	var logger *aipan.Logger
	if *logLevel != "" {
		if logger, err = aipan.NewLogger(os.Stderr, *logLevel); err != nil {
			return err
		}
	}
	reg := obs.NewRegistry()
	opts := []aipan.ServerOption{
		aipan.WithServerRegistry(reg),
		aipan.WithServerLogger(logger),
		aipan.WithServerRateLimit(sf.rps, sf.burst),
		aipan.WithServerMaxInflight(sf.maxInflight),
		aipan.WithServerRequestTimeout(sf.requestTimeout),
		aipan.WithServerCacheSize(sf.cacheSize),
		aipan.WithServerSLO(aipan.SLOConfig{SlowTarget: *sloTarget}),
	}
	if *eventsDir != "" {
		ev, err := aipan.OpenEventDir(*eventsDir)
		if err != nil {
			return err
		}
		defer ev.Close()
		opts = append(opts, aipan.WithServerEvents(ev))
	}
	s, err := aipan.NewDatasetServer(src, opts...)
	if err != nil {
		return err
	}
	stopSampler := aipan.StartRuntimeSampler(reg, 10*time.Second)
	defer stopSampler()
	fmt.Fprintf(os.Stderr, "serving %d records on %s — try GET /v1/summary, /v1/domains, /v1/domains/<domain>/label, /v1/domains/<domain>/ask?q=... (/metrics for telemetry)\n",
		n, *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Flip readiness the moment drain starts — strictly before Shutdown
	// closes the listener — so load balancers polling /v1/readyz stop
	// routing new traffic while in-flight requests finish.
	err = obs.ListenAndServeContext(ctx, httpSrv, sf.drainTimeout, logger,
		func() { s.SetReady(false) })
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// openServeSource opens serve's --data, taking the format from the
// path: a file is a JSONL export, read once with no write handle open;
// a directory is a binary checkpoint, opened with the shard count its
// meta.json stamp records. A missing path is refused, not served as an
// empty dataset.
func openServeSource(path string) (src aipan.DatasetSource, n int, closeFn func() error, err error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("serve: no dataset to serve: %w", err)
	}
	if !fi.IsDir() {
		records, err := aipan.ReadDataset(path)
		if err != nil {
			return nil, 0, nil, err
		}
		return aipan.DatasetRecords(records), len(records), func() error { return nil }, nil
	}
	st, err := store.OpenBinaryDir(path)
	if err != nil {
		return nil, 0, nil, err
	}
	if n, err = st.Len(); err != nil {
		_ = st.Close()
		return nil, 0, nil, err
	}
	return aipan.DatasetFromStore(st), n, st.Close, nil
}

func cmdAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	out := fs.String("out", "aipan.jsonl", "output dataset path")
	limit := fs.Int("limit", 0, "process only the first N domains (0 = all)")
	workers := fs.Int("workers", 8, "concurrent domains")
	seed := fs.Int64("seed", aipan.DefaultSeed, "corpus seed")
	var of obsFlags
	of.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, p, err := runPipeline(*out, runFlags{limit: *limit, workers: *workers}, *seed, "sim-gpt4", true, of)
	if err != nil {
		return err
	}
	rep := aipan.NewReport(res.Records, p.Generator())
	fmt.Println(aipan.FunnelTable(res.Funnel).Render())
	for _, tbl := range []string{"1", "2a", "2b", "3", "4", "5", "6", "dist", "retention"} {
		printReportTable(rep, tbl)
		fmt.Println()
	}
	fmt.Println(rep.AuditTable().Render())
	fmt.Println(rep.PrecisionTable().Render())
	if cl, ok := p.Bot().(*chatbot.Client); ok {
		st := cl.Stats()
		fmt.Printf("chatbot calls: %d (failed %d), tokens: %d prompt / %d completion\n",
			st.Calls, st.FailedCalls, st.Usage.PromptTokens, st.Usage.CompletionTokens)
	}
	return nil
}
