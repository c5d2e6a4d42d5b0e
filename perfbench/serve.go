package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"aipan/internal/core"
	"aipan/internal/engine"
	"aipan/internal/obs"
	"aipan/internal/server"
	"aipan/internal/store"
)

// Serve workload settings. The reference rate sits well below the knee:
// the measured max_rps_at_slo of the server pinned to one CPU, which
// every run prints next to it, is several times higher. The ladder's
// rungs are 5% apart.
const (
	serveShards    = 8
	serveBatches   = 8  // write batches appended during the write phase
	serveBatchSize = 36 // records per batch; the rest of the dataset is served from the start
	serveConns     = 2
	refRate        = 1000.0                // req/s for p50_ms and p90_ms
	refWindow      = time.Second           // 1,000 requests at refRate: ten beyond each p99
	sloP99         = 50 * time.Millisecond // the limit max_rps_at_slo holds p99 under
	ladderBase     = 500.0                 // req/s at rung 0
	ladderStep     = 1.05
	ladderRungs    = 64
	warmup         = time.Second
)

// ladderRate is the fixed ladder of offered rates.
func ladderRate(k int) float64 { return ladderBase * math.Pow(ladderStep, float64(k)) }

// ------------------------------------------------------------- fixture

// buildServeFixture runs the paper pipeline with events on and splits
// its output: the store and event log the server starts from, and the
// held-back tail of the dataset the writer appends during the run.
func buildServeFixture(ctx context.Context, cfg childConfig) (*childReport, error) {
	pc := pipelineConfig(childConfig{Workload: "paper", Seed: cfg.Seed})
	pc.Registry = obs.NewRegistry()
	pc.DiscardRecords = true
	mem := store.NewMem()
	evs := store.NewMemEvents()
	pc.Store, pc.Events = mem, evs
	p, err := core.New(pc)
	if err != nil {
		return nil, err
	}
	res, err := p.Run(ctx)
	if err != nil {
		return nil, err
	}
	var recs []store.Record
	if err := mem.Scan(func(r *store.Record) error { recs = append(recs, *r); return nil }); err != nil {
		return nil, err
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Domain < recs[j].Domain })
	held := serveBatches * serveBatchSize
	if len(recs) <= held {
		return nil, fmt.Errorf("serve fixture: %d records, need more than %d", len(recs), held)
	}
	initial, tail := recs[:len(recs)-held], recs[len(recs)-held:]
	inTail := map[string]bool{}
	for _, r := range tail {
		inTail[r.Domain] = true
	}

	dir := cfg.Fixture
	bin, err := store.OpenBinary(filepath.Join(dir, "data", "store"), serveShards)
	if err != nil {
		return nil, err
	}
	defer bin.Close()
	if err := bin.SetMeta(store.Meta{Seed: cfg.Seed, Shards: serveShards, Format: "binary"}); err != nil {
		return nil, err
	}
	ev, err := store.OpenEventLog(filepath.Join(dir, "data", "events"), eventShards)
	if err != nil {
		return nil, err
	}
	defer ev.Close()
	cat := catalog{Total: len(recs), Batches: serveBatches}
	sectors := map[string]bool{}
	for i := range initial {
		if err := bin.Append(&initial[i]); err != nil {
			return nil, err
		}
		cat.Domains = append(cat.Domains, initial[i].Domain)
		sectors[initial[i].Sector] = true
	}
	cat.Sectors = sortedKeys(sectors)
	heldEvents, err := os.Create(filepath.Join(dir, "held-events.jsonl"))
	if err != nil {
		return nil, err
	}
	defer heldEvents.Close()
	enc := json.NewEncoder(heldEvents)
	err = evs.Scan(func(e *store.Event) error {
		if inTail[e.Domain] {
			return enc.Encode(e)
		}
		return ev.Append(e)
	})
	if err != nil {
		return nil, err
	}
	if err := heldEvents.Close(); err != nil {
		return nil, err
	}
	if err := store.WriteJSONL(filepath.Join(dir, "held.jsonl"), tail); err != nil {
		return nil, err
	}
	data, err := json.Marshal(cat)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "catalog.json"), data, 0o644); err != nil {
		return nil, err
	}
	return &childReport{Domains: len(recs), Funnel: res.Funnel, Records: len(initial)}, nil
}

// copyFixture gives a server process its own copy of the fixture's
// store and event log, so appends never touch the fixture.
func copyFixture(from, to string) error {
	return filepath.WalkDir(from, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(from, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(to, rel)
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
}

// ------------------------------------------------------------- server

// serveReport is the server process's own account of a run.
type serveReport struct {
	Addr   string  `json:"addr"`
	SetupS float64 `json:"setup_s"` // store open + first view build
	BuildS float64 `json:"build_s"` // NewServer alone
	// RefreshMs is, per write batch, the time from its last append to
	// Refresh returning.
	RefreshMs []float64 `json:"refresh_ms,omitempty"`
	// BusyS is the writer's busy time: per batch, from its first append
	// to Refresh returning, summed over the batches.
	BusyS      float64 `json:"busy_s,omitempty"`
	Generation uint64  `json:"generation,omitempty"`
	Appends    int64   `json:"appends,omitempty"`
	AppendFail int64   `json:"append_failed,omitempty"`
	// Allocation and GC deltas from the end of the writes to the end.
	Mallocs   uint64 `json:"mallocs,omitempty"`
	AllocB    uint64 `json:"alloc_bytes,omitempty"`
	GCCycles  uint32 `json:"gc_cycles,omitempty"`
	GCPauseNs uint64 `json:"gc_pause_ns,omitempty"`
	// Registry and seam figures, for the traced run.
	CacheHits   float64            `json:"cache_hits,omitempty"`
	CacheMisses float64            `json:"cache_misses,omitempty"`
	Shed        float64            `json:"shed,omitempty"`
	Layers      map[string]float64 `json:"layers,omitempty"`
}

// serveOptions configures the server the way `aipan serve` does, except
// that the per-client rate limit stays off: one generator stands in for
// many readers.
func serveOptions(reg *obs.Registry, ev store.EventStore) []server.Option {
	return []server.Option{
		server.WithRegistry(reg),
		server.WithRateLimit(0, 0),
		server.WithMaxInflight(256),
		server.WithRequestTimeout(15 * time.Second),
		server.WithCacheSize(1024),
		server.WithSLO(obs.SLOConfig{SlowTarget: 250 * time.Millisecond}),
		server.WithEvents(ev),
	}
}

// openedServer is a server built over a store and event log on disk.
type openedServer struct {
	s      *server.Server
	bin    *store.Binary
	events *eventSeam
	reg    *obs.Registry
}

func (o *openedServer) close() {
	_ = o.events.Close()
	_ = o.bin.Close()
}

// openServer opens the store and event log under dir and builds the
// server over them, recording both times in sr.
func openServer(dir string, wrap func(store.Store) store.Store, sr *serveReport) (*openedServer, error) {
	start := time.Now()
	bin, err := store.OpenBinary(filepath.Join(dir, "store"), serveShards)
	if err != nil {
		return nil, err
	}
	ev, err := store.OpenEventDir(filepath.Join(dir, "events"))
	if err != nil {
		_ = bin.Close()
		return nil, err
	}
	o := &openedServer{bin: bin, events: &eventSeam{inner: ev}, reg: obs.NewRegistry()}
	var src store.Store = bin
	if wrap != nil {
		src = wrap(bin)
	}
	build := time.Now()
	if o.s, err = server.NewServer(server.FromStore(src), serveOptions(o.reg, o.events)...); err != nil {
		o.close()
		return nil, err
	}
	sr.BuildS = time.Since(build).Seconds()
	sr.SetupS = time.Since(start).Seconds()
	return o, nil
}

// serveSetup times store open plus first view build in a fresh process.
func serveSetup(cfg childConfig) (*childReport, error) {
	if err := copyFixture(filepath.Join(cfg.Fixture, "data"), cfg.Dir); err != nil {
		return nil, err
	}
	var sr serveReport
	o, err := openServer(cfg.Dir, nil, &sr)
	if err != nil {
		return nil, err
	}
	o.close()
	return &childReport{SetupS: sr.SetupS}, nil
}

// runServer is the server process. It reports readiness on out, then
// follows the parent's commands on in: "write" starts the writer's
// fixed schedule, "ladder" waits for the writer and starts the
// allocation window, "stop" ends the run.
func runServer(ctx context.Context, cfg childConfig, in io.Reader, out io.Writer) (*childReport, error) {
	if cfg.CPU != nil {
		if err := pinProcess(*cfg.CPU); err != nil {
			return nil, err
		}
	}
	if err := copyFixture(filepath.Join(cfg.Fixture, "data"), cfg.Dir); err != nil {
		return nil, err
	}
	held, err := store.ReadJSONL(filepath.Join(cfg.Fixture, "held.jsonl"))
	if err != nil {
		return nil, err
	}
	heldEvents, err := readEvents(filepath.Join(cfg.Fixture, "held-events.jsonl"))
	if err != nil {
		return nil, err
	}

	var seam *storeSeam
	var wrap func(store.Store) store.Store
	if cfg.Trace {
		wrap = func(st store.Store) store.Store { seam = newStoreSeam(st); return seam }
	}
	var sr serveReport
	o, err := openServer(cfg.Dir, wrap, &sr)
	if err != nil {
		return nil, err
	}
	defer o.close()
	s, bin, events, reg := o.s, o.bin, o.events, o.reg
	stopSampler := obs.StartRuntimeSampler(reg, 10*time.Second)
	defer stopSampler()
	var appender store.Store = bin
	if seam != nil {
		appender = seam
	}

	var handler http.Handler = s
	var hs *handlerSeam
	var col *spanCollector
	var tracer *obs.Tracer
	if cfg.Trace {
		col = newSpanCollector()
		tracer = obs.NewTracer(reg, obs.WithRunID("serve"), obs.WithExporter(col))
		hs = newHandlerSeam(s, func(r *http.Request) string { return routeOf(r.URL.Path) })
		handler = hs
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sr.Addr = ln.Addr().String()
	httpSrv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second, BaseContext: tracedBase(tracer)}
	srvGrp, _ := engine.NewGroup(ctx)
	srvGrp.Go(func(context.Context) error {
		if serr := httpSrv.Serve(ln); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			return serr
		}
		return nil
	})
	ready, err := json.Marshal(sr)
	if err != nil {
		return nil, err
	}
	// The first view build leaves a collection due on a ~350 MB heap;
	// on the server's one CPU it would stall whichever phase it lands
	// in. Collect now, as the end of set-up, so phases start alike.
	runtime.GC()
	fmt.Fprintln(out, string(ready))

	writer, _ := engine.NewGroup(ctx)
	writing := false
	var m0, m1 runtime.MemStats
	lines := bufio.NewScanner(in)
	for lines.Scan() {
		switch cmd := strings.TrimSpace(lines.Text()); cmd {
		case "write":
			writing = true
			every := time.Duration(cfg.WriteEvery * float64(time.Second))
			writer.Go(func(wctx context.Context) error {
				return writeBatches(wctx, s, appender, events, held, heldEvents, every, tracer, &sr)
			})
		case "ladder":
			if writing {
				if err := writer.Wait(); err != nil {
					return nil, err
				}
				writing = false
			}
			runtime.GC() // likewise for the garbage the refreshes left
			runtime.ReadMemStats(&m0)
			fmt.Fprintln(out, "ok")
		case "stop":
			runtime.ReadMemStats(&m1)
			sd, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			serr := httpSrv.Shutdown(sd)
			cancel()
			if gerr := srvGrp.Wait(); serr == nil {
				serr = gerr
			}
			if serr != nil {
				return nil, serr
			}
			sr.Mallocs, sr.AllocB = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
			sr.GCCycles, sr.GCPauseNs = m1.NumGC-m0.NumGC, m1.PauseTotalNs-m0.PauseTotalNs
			sr.Generation = s.Generation()
			sr.CacheHits = sumSeries(reg, "aipan_server_cache_hits_total")
			sr.CacheMisses = sumSeries(reg, "aipan_server_cache_misses_total")
			sr.Shed = sumSeries(reg, "aipan_server_shed_total")
			if cfg.Trace {
				sr.Layers = serverLayers(hs, seam, events, sr)
				if err := col.writeFile(cfg.TraceOut); err != nil {
					return nil, err
				}
			}
			return &childReport{Serve: &sr}, nil
		default:
			return nil, fmt.Errorf("serve: unknown command %q", cmd)
		}
	}
	if err := lines.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("serve: input closed before stop")
}

// writeBatches is the writer: on a fixed schedule it appends each
// held-back batch (records, then their events) and refreshes the server.
func writeBatches(ctx context.Context, s *server.Server, st store.Store, ev *eventSeam,
	held []store.Record, heldEvents []store.Event, every time.Duration, tracer *obs.Tracer, sr *serveReport) error {
	if tracer != nil {
		ctx = obs.WithTracer(ctx, tracer)
	}
	byDomain := map[string][]int{}
	for i := range heldEvents {
		byDomain[heldEvents[i].Domain] = append(byDomain[heldEvents[i].Domain], i)
	}
	start := time.Now()
	for b := 0; b*serveBatchSize < len(held); b++ {
		if !engine.Sleep(ctx, time.Until(start.Add(time.Duration(b+1)*every))) {
			return ctx.Err()
		}
		end := min((b+1)*serveBatchSize, len(held))
		busy := time.Now()
		for i := b * serveBatchSize; i < end; i++ {
			sr.Appends++
			if err := st.Append(&held[i]); err != nil {
				sr.AppendFail++
				return err
			}
			for _, j := range byDomain[held[i].Domain] {
				sr.Appends++
				if err := ev.Append(&heldEvents[j]); err != nil {
					sr.AppendFail++
					return err
				}
			}
		}
		lastAppend := time.Now()
		if err := refresh(ctx, s); err != nil {
			return err
		}
		sr.RefreshMs = append(sr.RefreshMs, float64(time.Since(lastAppend))/1e6)
		sr.BusyS += time.Since(busy).Seconds()
	}
	return nil
}

// refresh is the Refresh seam.
func refresh(ctx context.Context, s *server.Server) error {
	ctx, span := obs.StartSpan(ctx, "bench.refresh")
	defer span.End()
	return s.Refresh(ctx)
}

func readEvents(path string) ([]store.Event, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []store.Event
	dec := json.NewDecoder(strings.NewReader(string(data)))
	for dec.More() {
		var e store.Event
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("reading %s: %w", path, err)
		}
		out = append(out, e)
	}
	return out, nil
}

// sumSeries sums every series of a counter family in reg's exposition.
func sumSeries(reg *obs.Registry, name string) float64 {
	var sum float64
	for _, line := range strings.Split(reg.Expose(), "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(rest[strings.LastIndexByte(rest, ' ')+1:], &v); err == nil {
			sum += v
		}
	}
	return sum
}

// routeOf names a /v1 request's route family.
func routeOf(path string) string {
	switch {
	case strings.HasSuffix(path, "/label"):
		return "label"
	case strings.HasSuffix(path, "/ask"):
		return "ask"
	case strings.HasPrefix(path, "/v1/domains/"):
		return "record"
	case path == "/v1/domains":
		return "listing"
	}
	return "precomputed"
}

// serverLayers derives the server-side per-layer figures.
func serverLayers(hs *handlerSeam, seam *storeSeam, ev *eventSeam, sr serveReport) map[string]float64 {
	hs.mu.Lock()
	handle := append([]float64(nil), hs.handle...)
	var notMod, total int
	for code, n := range hs.status {
		total += n
		if code == http.StatusNotModified {
			notMod += n
		}
	}
	hs.mu.Unlock()
	L := map[string]float64{
		"server.build_s":              sr.BuildS,
		"server.refresh_scan_records": float64(seam.scanned.Load()),
		"server.handle_p50_us":        quantile(handle, 0.5),
		"server.shed":                 sr.Shed,
		"store.scan_s":                seam.scanM.seconds() + ev.scanM.seconds(),
		"store.append_s":              seam.appendM.seconds(),
		"store.events_append_s":       ev.appendM.seconds(),
	}
	if lookups := sr.CacheHits + sr.CacheMisses; lookups > 0 {
		L["server.cache_hit_ratio"] = sr.CacheHits / lookups
	}
	if total > 0 {
		L["server.not_modified_ratio"] = float64(notMod) / float64(total)
	}
	return L
}

// ------------------------------------------------------------- parent

// serveProc is a running server process.
type serveProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines *bufio.Scanner
	ready serveReport
	start time.Time
}

func (b *bench) startServer(ctx context.Context, cfg childConfig) (*serveProc, error) {
	arg, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, b.self, "child", string(arg))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p := &serveProc{cmd: cmd, stdin: stdin, lines: bufio.NewScanner(stdout), start: time.Now()}
	p.lines.Buffer(make([]byte, 1<<20), 1<<24)
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	line, err := p.readLine()
	if err == nil {
		err = json.Unmarshal([]byte(line), &p.ready)
	}
	if err != nil {
		p.kill()
		return nil, fmt.Errorf("serve: server did not come up: %w", err)
	}
	return p, nil
}

func (p *serveProc) readLine() (string, error) {
	if p.lines.Scan() {
		return p.lines.Text(), nil
	}
	if err := p.lines.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}

func (p *serveProc) send(cmd string) error {
	_, err := fmt.Fprintln(p.stdin, cmd)
	return err
}

// stop ends the server process and returns its report and usage.
func (p *serveProc) stop() (*serveReport, usage, error) {
	if err := p.send("stop"); err != nil {
		p.kill()
		return nil, usage{}, err
	}
	var last string
	for {
		line, err := p.readLine()
		if err != nil {
			break
		}
		last = line
	}
	_ = p.stdin.Close()
	if err := p.cmd.Wait(); err != nil {
		return nil, usage{}, fmt.Errorf("serve: server process: %w", err)
	}
	u := usageOf(p.cmd.ProcessState, time.Since(p.start))
	rep, err := parseReport([]byte(last))
	if err != nil {
		return nil, u, err
	}
	if rep.Serve == nil {
		return nil, u, fmt.Errorf("serve: server reported nothing")
	}
	return rep.Serve, u, nil
}

func (p *serveProc) kill() {
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait()
}

// serveRun is one measured server lifetime, seen from the generator.
type serveRun struct {
	refs       []loadResult // the reference-rate phases, no writes
	windowReqs int          // requests in the allocation window (after the writes)
	writes     loadResult   // reference rate while the writer appends and refreshes
	maxRPS     float64
	probes     []string // "rate:pass" for each ladder probe, in order
	ladderReqs int
	ladderFail int
	sent       int
	report     *serveReport
	usage      usage
	summary    summaryCheck
	mix        *serveMix
}

func (r *serveRun) failures() int {
	n := r.writes.failures() + r.ladderFail
	for _, ref := range r.refs {
		n += ref.failures()
	}
	return n
}

// refQuantile is the median, over every refWindow of every reference
// phase, of the window's q-quantile latency in ms. A window holds 1,000
// requests at refRate, so ten lie beyond its p99.
func (r *serveRun) refQuantile(q float64) float64 {
	var per []float64
	for _, ref := range r.refs {
		per = append(per, ref.windowQuantiles(refWindow, q)...)
	}
	return median(per)
}

// refStats summarises the reference phases: requests completed, how
// late the generator sent at p99 (ms), and the largest backlog.
func (r *serveRun) refStats() (n int, lateP99 float64, maxOut int) {
	var late []float64
	for _, ref := range r.refs {
		n += len(ref.outcomes)
		late = append(late, ref.lateness()...)
		maxOut = max(maxOut, ref.maxOutstanding())
	}
	return n, quantile(late, 0.99), maxOut
}

type summaryCheck struct {
	Generation uint64 `json:"generation"`
	Domains    int    `json:"domains"`
}

// runServeWorkload builds the fixture, times set-up in fresh
// processes, then drives one server: a reference-rate phase with the
// writer running, and the rate ladder.
func (b *bench) runServeWorkload(ctx context.Context, res *result) error {
	// This process is the load generator; fewer collections of its own
	// small heap keep its pauses out of the latencies it records.
	debug.SetGCPercent(400)
	fixture := filepath.Join(b.work, "fixture")
	fx := b.childConfig("fixture")
	fx.Fixture = fixture
	if _, _, err := b.child(ctx, fx); err != nil {
		return err
	}
	data, err := os.ReadFile(filepath.Join(fixture, "catalog.json"))
	if err != nil {
		return err
	}
	var cat catalog
	if err := json.Unmarshal(data, &cat); err != nil {
		return err
	}

	if b.trace {
		return b.traceServe(ctx, res, fixture, cat)
	}
	setupCfg := b.childConfig("setup")
	setupCfg.Fixture = fixture
	setups, err := b.setupSamples(ctx, setupRuns, setupCfg)
	if err != nil {
		return err
	}
	run, err := b.serveOnce(ctx, fixture, cat, false)
	if err != nil {
		return err
	}
	b.checkServe(res, run, cat)
	setups = append(setups, run.report.SetupS)

	refN, lateP99, maxOut := run.refStats()
	res.attempted = int64(run.sent)
	res.failed = int64(run.failures())
	res.add("setup_s", "s", median(setups))
	res.add("total_s", "s", run.report.SetupS+run.report.BusyS)
	res.add("ops_per_s", "1/s", run.maxRPS)
	res.add("p50_ms", "ms", run.refQuantile(0.50))
	res.add("p90_ms", "ms", run.refQuantile(0.90))
	res.add("peak_rss_mb", "MiB", mib(run.usage.maxRSS))
	res.add("allocs_per_op", "count", perOp(float64(run.report.Mallocs), run.windowReqs))
	res.add("alloc_kb_per_op", "KiB", perOp(float64(run.report.AllocB)/1024, run.windowReqs))
	perWindow := int(refRate * refWindow.Seconds())
	res.info = append(res.info,
		fmt.Sprintf("reference phases: %d requests at %g req/s; p50/p90/p99 are medians over %v windows of %d requests, %d beyond each p99 (op = one request)",
			refN, refRate, refWindow, perWindow, perWindow-int(math.Ceil(0.99*float64(perWindow)))),
		fmt.Sprintf("p99_ms=%s ms", ftoa(run.refQuantile(0.99))),
		fmt.Sprintf("max_rps_at_slo=%s req/s (p99 < %v, no growing backlog; ladder ×%g from %g; probes %v); the reference rate is %.0f%% of it",
			ftoa(run.maxRPS), sloP99, ladderStep, ladderBase, run.probes, 100*refRate/run.maxRPS),
		fmt.Sprintf("refresh_ms=%s ms (per batch %v); writer busy %s s",
			ftoa(median(run.report.RefreshMs)), run.report.RefreshMs, ftoa(run.report.BusyS)),
		fmt.Sprintf("failed_ratio=%d/%d  loadgen late p99=%s ms  max outstanding=%d",
			res.failed, res.attempted, ftoa(lateP99), maxOut))
	return nil
}

// serveOnce runs one server lifetime against the fixture.
func (b *bench) serveOnce(ctx context.Context, fixture string, cat catalog, trace bool) (*serveRun, error) {
	cfg := b.childConfig("serve")
	cfg.Fixture = fixture
	cfg.Trace = trace
	cfg.TraceOut = b.traceFile()
	dir, err := os.MkdirTemp(b.work, "serve-")
	if err != nil {
		return nil, err
	}
	cfg.Dir = dir
	// Phases: warm-up; the reference rate alone; the reference rate with
	// the writer appending a batch every twentieth of the run and
	// refreshing (publish_ms); the reference rate alone; the rate
	// ladder; the reference rate alone. p50_ms and p90_ms come from the
	// three reference phases together, so one stretch of a busy host
	// does not decide them.
	refDur := time.Duration(0.15 * b.seconds * float64(time.Second))
	cfg.WriteEvery = 0.05 * b.seconds
	writeDur := time.Duration(cfg.WriteEvery * float64(serveBatches+1) * float64(time.Second))
	genCPU, srvCPU, split, err := serveCPUs()
	if err != nil {
		return nil, err
	}
	if split {
		if err := pinProcess(genCPU); err != nil {
			return nil, err
		}
		cfg.CPU = &srvCPU
	}
	settle()
	proc, err := b.startServer(ctx, cfg)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			proc.kill()
		}
	}()
	base := "http://" + proc.ready.Addr
	mix := newServeMix(base, cat, b.seed)
	client := loadClient(serveConns)
	defer client.CloseIdleConnections()

	run := &serveRun{mix: mix}
	mix.expectGeneration(1) // the first view build
	ref := loadSpec{rate: refRate, dur: warmup, conns: serveConns}
	runOpenLoop(ctx, client, ref, mix)
	reference := func() {
		ref.dur = refDur
		r := runOpenLoop(ctx, client, ref, mix)
		run.refs = append(run.refs, r)
	}
	reference()
	mix.expectGeneration(0)
	if err := proc.send("write"); err != nil {
		return nil, err
	}
	ref.dur = writeDur
	run.writes = runOpenLoop(ctx, client, ref, mix)
	if err := proc.send("ladder"); err != nil {
		return nil, err
	}
	if line, err := proc.readLine(); err != nil {
		return nil, fmt.Errorf("serve: waiting for the writer: %w", err)
	} else if line != "ok" {
		return nil, fmt.Errorf("serve: writer answered %q", line)
	}
	// The writer is done: one generation per refresh on top of the first.
	mix.expectGeneration(uint64(cat.Batches) + 1)
	if run.summary, err = fetchSummary(ctx, client, base); err != nil {
		return nil, err
	}
	reference()
	b.ladder(ctx, client, mix, run)
	reference()
	for _, r := range run.refs[1:] {
		run.windowReqs += len(r.outcomes)
	}
	run.windowReqs += run.ladderReqs
	run.report, run.usage, err = proc.stop()
	if err != nil {
		return nil, err
	}
	ok = true
	run.sent, _ = mix.snapshot()
	return run, nil
}

// ladder finds the highest rung at which p99 stays under the SLO and
// the backlog does not grow, by bisection over the fixed ladder.
func (b *bench) ladder(ctx context.Context, client *http.Client, mix *serveMix, run *serveRun) {
	step := time.Duration(0.04 * b.seconds * float64(time.Second))
	probe := func(rate float64) bool {
		r := runOpenLoop(ctx, client, loadSpec{rate: rate, dur: step, conns: serveConns,
			giveUp: int(rate * sloP99.Seconds() * 4)}, mix)
		run.ladderReqs += len(r.outcomes)
		run.ladderFail += r.failures()
		lat := r.latencies()
		// A backlog that grows by more than 5 ms of arrivals over the
		// probe is the rate outrunning the server; less is jitter.
		slack := max(2*serveConns, int(rate*0.005))
		pass := !r.cut && r.failures() == 0 && time.Duration(quantileSorted(lat, 0.99)*1e6) < sloP99 &&
			!r.backlogGrows(step, slack)
		run.probes = append(run.probes, fmt.Sprintf("%.0f:%v", rate, pass))
		return pass
	}
	lo, hi := -1, ladderRungs-1
	for lo < hi {
		k := (lo + hi + 1) / 2
		// A rung passes if one of three tries does: an overloaded rate
		// fails them all, while a collection of the server's heap or a
		// stall of the shared box fails only the try it lands in.
		if pass := probe(ladderRate(k)) || probe(ladderRate(k)) || probe(ladderRate(k)); pass {
			lo = k
		} else {
			hi = k - 1
		}
	}
	if lo >= 0 {
		run.maxRPS = ladderRate(lo)
	}
}

func fetchSummary(ctx context.Context, client *http.Client, base string) (summaryCheck, error) {
	var s summaryCheck
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/summary", nil)
	if err != nil {
		return s, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return s, err
	}
	buf, err := readBody(resp)
	defer bodyPool.Put(buf)
	if err != nil {
		return s, err
	}
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("serve: /v1/summary answered %d", resp.StatusCode)
	}
	return s, json.Unmarshal(buf.Bytes(), &s)
}

// checkServe holds a serve run to its known answers.
func (b *bench) checkServe(res *result, run *serveRun, cat catalog) {
	res.check(run.summary.Domains == cat.Total, "final /v1/summary reports %d domains, want %d",
		run.summary.Domains, cat.Total)
	res.check(run.summary.Generation == uint64(cat.Batches)+1,
		"final /v1/summary is generation %d, want %d (one per refresh plus the first build)",
		run.summary.Generation, cat.Batches+1)
	res.check(len(run.report.RefreshMs) == cat.Batches, "writer refreshed %d times, want %d",
		len(run.report.RefreshMs), cat.Batches)
	res.check(run.report.AppendFail == 0, "writer: %d appends failed", run.report.AppendFail)
	res.check(run.failures() == 0, "%d responses failed their check", run.failures())
	if n, _, _ := run.refStats(); n < 1000 {
		res.check(false, "reference phases completed only %d requests", n)
	}
	res.check(run.maxRPS > 0, "no rung of the ladder met the SLO")
	_, problems := run.mix.snapshot()
	for _, p := range problems {
		res.check(false, "serve response: %s", p)
	}
}

// traceServe runs the server untraced and then traced against the same
// fixture and seed, and reports the per-layer metrics.
func (b *bench) traceServe(ctx context.Context, res *result, fixture string, cat catalog) error {
	base, err := b.serveOnce(ctx, fixture, cat, false)
	if err != nil {
		return err
	}
	run, err := b.serveOnce(ctx, fixture, cat, true)
	if err != nil {
		return err
	}
	b.checkServe(res, base, cat)
	b.checkServe(res, run, cat)
	res.attempted = int64(base.sent + run.sent)
	res.failed = int64(base.failures() + run.failures())
	L := run.report.Layers
	L["runtime.cpu_util"] = run.usage.cpuUtil()
	L["runtime.gc_cycles"] = float64(run.report.GCCycles)
	L["runtime.gc_pause_ms"] = float64(run.report.GCPauseNs) / 1e6
	_, lateP99, maxOut := run.refStats()
	L["loadgen.sent"] = float64(run.sent)
	L["loadgen.late_ms_p99"] = lateP99
	L["loadgen.max_outstanding"] = float64(maxOut)
	if p50 := base.refQuantile(0.5); p50 > 0 {
		L["trace.overhead_ratio"] = run.refQuantile(0.5) / p50
	}
	layerMetrics(res, L)
	res.info = append(res.info,
		fmt.Sprintf("trace file: %s (render with: aipan debug trace <file>)", b.traceFile()),
		fmt.Sprintf("untraced run: p50_ms=%s p99_ms=%s max_rps_at_slo=%s",
			ftoa(base.refQuantile(0.5)), ftoa(base.refQuantile(0.99)), ftoa(base.maxRPS)),
		"pipeline layers read 0 here: the serve workload runs no pipeline")
	return nil
}
