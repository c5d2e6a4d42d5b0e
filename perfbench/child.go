package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"aipan/internal/chatbot"
	"aipan/internal/core"
	"aipan/internal/obs"
	"aipan/internal/report"
	"aipan/internal/store"
	"aipan/internal/webgen"
)

// Every measured run happens in a fresh child process: core memoises
// corpora and taxonomy tables per process, and peak RSS is a
// per-process figure. The parent passes a childConfig as JSON on the
// command line; the child prints one childReport as its last stdout
// line.

type childConfig struct {
	Role     string `json:"role"` // setup | run | reference | fixture | serve
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"` // corpus seed
	Dir      string `json:"dir"`  // this child's scratch directory
	Trace    bool   `json:"trace,omitempty"`
	// TraceOut is where a traced run writes its span file.
	TraceOut string `json:"trace_out,omitempty"`
	// Out is the dataset export path.
	Out string `json:"out,omitempty"`
	// Fixture names the serve fixture directory.
	Fixture string `json:"fixture,omitempty"`
	// WriteEvery is the serve writer's batch interval, in seconds.
	WriteEvery float64 `json:"write_every,omitempty"`
	// CPU, when set, pins the serve server process to that CPU.
	CPU *int `json:"cpu,omitempty"`
}

type childReport struct {
	SetupS   float64 `json:"setup_s"`
	RunS     float64 `json:"run_s"`
	PublishS float64 `json:"publish_s"`
	TablesS  float64 `json:"tables_s,omitempty"`
	TotalS   float64 `json:"total_s"`

	Domains   int    `json:"domains"`
	Mallocs   uint64 `json:"mallocs"`
	AllocB    uint64 `json:"alloc_bytes"`
	GCCycles  uint32 `json:"gc_cycles"`
	GCPauseNs uint64 `json:"gc_pause_ns"`

	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`

	PromptTokens     int `json:"prompt_tokens"`
	CompletionTokens int `json:"completion_tokens"`
	ChatCalls        int `json:"chat_calls"`
	ChatFailed       int `json:"chat_failed"`

	// Latency is the per-operation latency sample, in ms.
	LatP50 float64 `json:"lat_p50_ms"`
	LatP90 float64 `json:"lat_p90_ms"`
	LatP99 float64 `json:"lat_p99_ms"`
	LatN   int     `json:"lat_n"`

	Funnel core.Funnel `json:"funnel"`
	// Leaked counts domains planted with an extraction failure whose
	// text was extracted anyway. LeakedOffHub counts those among them
	// whose generated site serves no English privacy text next to the
	// failure (the privacy-center hub and its FAQ page), so that nothing
	// on the site should have extracted.
	Leaked       int    `json:"leaked,omitempty"`
	LeakedOffHub int    `json:"leaked_off_hub,omitempty"`
	Digest       string `json:"digest,omitempty"`
	// Exported counts the lines of the JSONL export.
	Exported int `json:"exported,omitempty"`
	Records  int `json:"records,omitempty"`
	Events   int `json:"events,omitempty"`

	// Layers holds the traced run's per-layer figures.
	Layers map[string]float64 `json:"layers,omitempty"`
	// Serve carries the server process's own figures.
	Serve *serveReport `json:"serve,omitempty"`
}

func childMain(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "perfbench child: want one JSON config argument")
		return 2
	}
	var cfg childConfig
	if err := json.Unmarshal([]byte(args[0]), &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}
	rep, err := runChildRole(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child %s/%s: %v\n", cfg.Workload, cfg.Role, err)
		return 1
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func runChildRole(ctx context.Context, cfg childConfig) (*childReport, error) {
	switch {
	case cfg.Role == "serve":
		return runServer(ctx, cfg, os.Stdin, os.Stdout)
	case cfg.Role == "fixture":
		return buildServeFixture(ctx, cfg)
	case cfg.Workload == "serve" && cfg.Role == "setup":
		return serveSetup(cfg)
	case cfg.Workload == "dispatch" && cfg.Role == "setup":
		return runDispatch(ctx, cfg, true)
	case cfg.Workload == "dispatch" && cfg.Role == "run":
		return runDispatch(ctx, cfg, false)
	case cfg.Role == "setup":
		return pipelineSetup(cfg)
	case cfg.Role == "run", cfg.Role == "reference":
		return runPipeline(ctx, cfg)
	}
	return nil, fmt.Errorf("unknown role %q for workload %q", cfg.Role, cfg.Workload)
}

// pipelineConfig is the core.Config each pipeline workload runs with:
// the paper corpus with records kept in memory (paper, and the dispatch
// reference slice), or a lazily generated scaled universe streaming
// into a binary store (stream).
func pipelineConfig(cfg childConfig) core.Config {
	pc := core.Config{Seed: cfg.Seed, Workers: paperWorkers}
	switch cfg.Workload {
	case "stream":
		pc.UniverseDomains = streamDomains
		pc.DiscardRecords = true
	case "dispatch":
		pc.Limit = dispatchLimit
		pc.DiscardRecords = true
	}
	return pc
}

// pipelineSetup times core.New alone: universe, search resolution and
// (on the paper corpus) eager site generation.
func pipelineSetup(cfg childConfig) (*childReport, error) {
	pc := pipelineConfig(cfg)
	pc.Registry = obs.NewRegistry()
	start := time.Now()
	if _, err := core.New(pc); err != nil {
		return nil, err
	}
	return &childReport{SetupS: time.Since(start).Seconds()}, nil
}

// runPipeline is one paper or stream run (or the dispatch workload's
// single-process reference), optionally traced: setup, Run, export, and
// on paper every table `aipan all` prints.
func runPipeline(ctx context.Context, cfg childConfig) (*childReport, error) {
	pc := pipelineConfig(cfg)
	reg := obs.NewRegistry()
	pc.Registry = reg
	web := newWebSeam(cfg.Trace)
	pc.HTTPClient = web.client()

	var col *spanCollector
	var chat *chatSeam
	if cfg.Trace {
		col = newSpanCollector()
		pc.TraceExporter = col
		pc.TelemetryTimings = true
		// core.New's default bot, rebuilt around a timed simulator.
		chat = &chatSeam{}
		pc.Bot = chat.newBot(chatbot.WithConcurrency(4*pc.Workers), chatbot.WithCache(false),
			chatbot.WithRegistry(reg))
	}

	var bin *store.Binary
	var st *storeSeam
	var events *eventSeam
	var checkpointErrors int64
	if pc.DiscardRecords {
		var err error
		if cfg.Workload == "stream" {
			bin, err = store.OpenBinary(filepath.Join(cfg.Dir, "store"), streamShards)
			if err != nil {
				return nil, err
			}
			defer bin.Close()
			st = newStoreSeam(bin)
			pc.Store = st
			ev, err := store.OpenEventLog(filepath.Join(cfg.Dir, "events"), eventShards)
			if err != nil {
				return nil, err
			}
			defer ev.Close()
			events = &eventSeam{inner: ev}
			pc.Events = events
		} else {
			st = newStoreSeam(store.NewMem())
			pc.Store = st
		}
	}

	delivered := &deliveryLog{}
	pc.Progress = func(stage string, done, _ int) {
		switch stage {
		case "process":
			delivered.mark(done - 1)
		case "checkpoint-error":
			checkpointErrors++
		}
	}

	rep := &childReport{}
	var m0, m1 runtime.MemStats
	t0 := time.Now()
	p, err := core.New(pc)
	if err != nil {
		return nil, err
	}
	rep.SetupS = time.Since(t0).Seconds()
	web.bind(p.Generator())

	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	res, err := p.Run(ctx)
	if err != nil {
		return nil, err
	}
	runEnd := time.Now()
	rep.RunS = runEnd.Sub(t1).Seconds()
	runtime.ReadMemStats(&m1)
	rep.Mallocs = m1.Mallocs - m0.Mallocs
	rep.AllocB = m1.TotalAlloc - m0.TotalAlloc
	rep.GCCycles = m1.NumGC - m0.NumGC
	rep.GCPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	rep.Funnel = res.Funnel
	rep.Domains = res.Funnel.Domains
	rep.Leaked, rep.LeakedOffHub = countLeaks(res.Records, p.Generator())

	// Publish: everything between the last append and a dataset users
	// can read — the JSONL export, plus both CSVs on stream. It runs
	// publishRuns times over the same store, each after a collection of
	// the run's garbage and a write-back of the page cache the previous
	// export dirtied, and reports the median, so neither decides it.
	if err := os.MkdirAll(filepath.Dir(cfg.Out), 0o755); err != nil {
		return nil, err
	}
	var publishes, exports []float64
	for i := 0; i < publishRuns; i++ {
		runtime.GC()
		settle()
		start := time.Now()
		switch {
		case bin != nil:
			if err := store.SaveJSONL(cfg.Out, bin); err != nil {
				return nil, err
			}
			exports = append(exports, time.Since(start).Seconds())
			if err := store.ExportAnnotationsCSV(cfg.Out+"-annotations.csv", bin); err != nil {
				return nil, err
			}
			if err := store.ExportDomainsCSV(cfg.Out+"-domains.csv", bin); err != nil {
				return nil, err
			}
		case st != nil:
			if err := store.SaveJSONL(cfg.Out, st.inner); err != nil {
				return nil, err
			}
		default:
			if err := store.WriteJSONL(cfg.Out, res.Records); err != nil {
				return nil, err
			}
		}
		publishes = append(publishes, time.Since(start).Seconds())
	}
	rep.PublishS = median(publishes)
	exportS := rep.PublishS
	if exports != nil {
		exportS = median(exports)
	}

	if cfg.Workload == "paper" && cfg.Role == "run" {
		tstart := time.Now()
		renderTables(res, p)
		rep.TablesS = time.Since(tstart).Seconds()
	}
	rep.TotalS = rep.SetupS + rep.RunS + rep.PublishS + rep.TablesS

	if rep.Digest, rep.Exported, err = fileDigest(cfg.Out); err != nil {
		return nil, err
	}
	if bin != nil {
		if rep.Records, err = bin.Len(); err != nil {
			return nil, err
		}
		if rep.Events, err = events.inner.Len(); err != nil {
			return nil, err
		}
	}

	stats := chatStats(p, chat)
	rep.ChatCalls, rep.ChatFailed = stats.Calls, stats.FailedCalls
	rep.PromptTokens, rep.CompletionTokens = stats.Usage.PromptTokens, stats.Usage.CompletionTokens
	rep.Attempted = int64(stats.Calls)
	rep.Failed = int64(stats.FailedCalls) + checkpointErrors
	if st != nil {
		rep.Attempted += st.appendM.n.Load()
		rep.Failed += st.failed.Load()
	}
	if events != nil {
		rep.Attempted += events.appendM.n.Load()
		rep.Failed += events.failed.Load()
	}

	lat := delivered.latencies(p, web)
	rep.LatN = len(lat)
	rep.LatP50, rep.LatP90, rep.LatP99 = quantile(lat, 0.50), quantile(lat, 0.90), quantile(lat, 0.99)

	if cfg.Trace {
		layers, err := pipelineLayers(cfg, col, layerInputs{
			web: web, chat: chat, st: st, events: events, reg: reg, res: res,
			setup: rep.SetupS, exportS: exportS, tables: rep.TablesS,
			delivered: delivered, pipeline: p, storeDir: filepath.Join(cfg.Dir, "store"),
		})
		if err != nil {
			return nil, err
		}
		rep.Layers = layers
		if err := col.writeFile(cfg.TraceOut); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// countLeaks counts the records of planted extraction failures that
// extracted anyway, and those among them on sites without a hub.
func countLeaks(recs []store.Record, gen *webgen.Generator) (leaked, offHub int) {
	for i := range recs {
		site := gen.Site(recs[i].Domain)
		if recs[i].Extraction.Success && site.Failure.IsExtractionFailure() {
			leaked++
			if !site.Layout.Hub {
				offHub++
			}
		}
	}
	return leaked, offHub
}

// chatStats reads the token and call accounting of whichever client ran.
func chatStats(p *core.Pipeline, chat *chatSeam) chatbot.Stats {
	if chat != nil {
		return chat.stats()
	}
	if cl, ok := p.Bot().(*chatbot.Client); ok {
		return cl.Stats()
	}
	return chatbot.Stats{}
}

// renderTables renders everything `aipan all` prints after the run: the
// funnel, every paper table, the §5 drill-downs, and the §4 audit and
// precision tables.
func renderTables(res *core.Result, p *core.Pipeline) {
	rep := report.New(res.Records, p.Generator())
	f := res.Funnel
	sink := io.Discard
	fmt.Fprintln(sink, report.FunnelTable(report.FunnelNumbers{
		Companies: f.Companies, Domains: f.Domains, CrawlOK: f.CrawlOK,
		ExtractOK: f.ExtractOK, Annotated: f.Annotated,
		AvgPagesCrawled: f.AvgPagesCrawled, AvgPrivacyPages: f.AvgPrivacyPages,
		WellKnownPolicy: f.WellKnownPolicy, WellKnownPriv: f.WellKnownPriv,
		MedianWords: f.MedianWords, FallbackUsed: f.FallbackUsed,
	}).Render())
	for _, full := range []bool{false, true} {
		fmt.Fprintln(sink, rep.Table1(full).Render())
		fmt.Fprintln(sink, rep.Table2Types(full).Render())
	}
	fmt.Fprintln(sink, rep.Table2Purposes().Render())
	fmt.Fprintln(sink, rep.Table3().Render())
	fmt.Fprintln(sink, rep.Table6(4).Render())
	fmt.Fprintln(sink, rep.CategoryDistribution(), rep.Retention())
	fmt.Fprintln(sink, rep.AuditTable().Render())
	fmt.Fprintln(sink, rep.PrecisionTable().Render())
}

// deliveryLog records when each study-list position was delivered
// (Progress ticks arrive once per domain, in study order).
type deliveryLog struct {
	at []time.Time
}

// mark runs under the pipeline's progress lock.
func (d *deliveryLog) mark(i int) {
	if i < 0 {
		return
	}
	for len(d.at) <= i {
		d.at = append(d.at, time.Time{})
	}
	if d.at[i].IsZero() {
		d.at[i] = time.Now()
	}
}

// latencies is each domain's time from its first web request to the
// delivery of its record, in ms.
func (d *deliveryLog) latencies(p *core.Pipeline, web *webSeam) []float64 {
	doms := p.Domains()
	out := make([]float64, 0, len(d.at))
	for i, at := range d.at {
		if at.IsZero() || i >= len(doms) {
			continue
		}
		if start, ok := web.firstFetch(doms[i].Domain); ok {
			out = append(out, float64(at.Sub(start))/1e6)
		}
	}
	return out
}

func fileDigest(path string) (digest string, lines int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", 0, err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), bytes.Count(data, []byte{'\n'}), nil
}
