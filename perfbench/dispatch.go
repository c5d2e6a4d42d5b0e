package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"aipan/internal/chatbot"
	"aipan/internal/dispatch"
	"aipan/internal/engine"
	"aipan/internal/obs"
	"aipan/internal/store"
)

// runDispatch runs the study slice the way `aipan run --distributed 2`
// does: a coordinator merging into an in-memory store, served on
// loopback, and two in-process workers leasing its shards over /v1.
// With setupOnly it stops at the first granted lease.
func runDispatch(ctx context.Context, cfg childConfig, setupOnly bool) (*childReport, error) {
	start := time.Now()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	reg := obs.NewRegistry()
	mem := store.NewMem()
	st := newStoreSeam(mem)
	coord, err := dispatch.NewCoordinator(dispatch.CoordinatorConfig{
		Spec: dispatch.JobSpec{
			Seed: cfg.Seed, Limit: dispatchLimit, Model: "sim-gpt4", Shards: dispatchShards,
		},
		Store:    st,
		LeaseTTL: 15 * time.Second,
		Registry: reg,
	})
	if err != nil {
		return nil, err
	}
	var tracer *obs.Tracer
	var col *spanCollector
	if cfg.Trace {
		col = newSpanCollector()
		tracer = obs.NewTracer(reg, obs.WithRunID(coord.JobID()), obs.WithExporter(col))
	}
	handler := newHandlerSeam(coord, func(r *http.Request) string { return routeClass(r.URL.Path) })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	base := "http://" + ln.Addr().String()
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second, BaseContext: tracedBase(tracer)}
	srvGrp, _ := engine.NewGroup(ctx)
	srvGrp.Go(func(context.Context) error {
		if serr := srv.Serve(ln); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			return serr
		}
		return nil
	})
	shutdown := func() error {
		sd, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		serr := srv.Shutdown(sd)
		if gerr := srvGrp.Wait(); serr == nil {
			serr = gerr
		}
		return serr
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if tracer != nil {
		wctx = obs.WithTracer(wctx, tracer)
	}
	seam := newDispatchSeam(http.DefaultTransport)
	chat := &chatSeam{}
	client := &http.Client{Transport: seam}
	wg, _ := engine.NewGroup(wctx)
	for i := 0; i < dispatchWorkers; i++ {
		w, werr := dispatch.NewWorker(dispatch.WorkerConfig{
			Coordinator: base,
			ID:          fmt.Sprintf("local-%02d", i),
			Client:      client,
			Workers:     paperWorkers,
			// The CLI's bot for "sim-gpt4" (aipan.SimGPT4), built
			// around a timed simulator.
			NewBot: func(string) (chatbot.Chatbot, error) {
				return chat.newBot(chatbot.WithCache(false)), nil
			},
			Registry: reg,
		})
		if werr != nil {
			cancel()
			_ = wg.Wait()
			_ = shutdown()
			return nil, werr
		}
		wg.Go(w.Run)
	}
	if setupOnly {
		// Set-up ends at the first granted lease; the process exits
		// right after reporting it, abandoning the workers.
		for seam.leases.Load() == 0 {
			if !engine.Sleep(ctx, time.Millisecond) {
				return nil, ctx.Err()
			}
		}
		first, _ := seam.window()
		return &childReport{SetupS: first.Sub(start).Seconds()}, nil
	}
	runErr := wg.Wait()
	if serr := shutdown(); runErr == nil {
		runErr = serr
	}
	if runErr != nil {
		return nil, runErr
	}
	runtime.ReadMemStats(&m1)
	first, last := seam.window()
	rep := &childReport{
		SetupS:    first.Sub(start).Seconds(),
		RunS:      last.Sub(first).Seconds(),
		Mallocs:   m1.Mallocs - m0.Mallocs,
		AllocB:    m1.TotalAlloc - m0.TotalAlloc,
		GCCycles:  m1.NumGC - m0.NumGC,
		GCPauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
		Funnel:    coord.Funnel(),
	}
	rep.Domains = rep.Funnel.Domains

	done := time.Now()
	if err := os.MkdirAll(filepath.Dir(cfg.Out), 0o755); err != nil {
		return nil, err
	}
	var publishes []float64
	for i := 0; i < publishRuns; i++ {
		runtime.GC() // as in runPipeline's publish
		settle()
		exportStart := time.Now()
		if err := store.SaveJSONL(cfg.Out, mem); err != nil {
			return nil, err
		}
		publishes = append(publishes, time.Since(exportStart).Seconds())
	}
	rep.PublishS = median(publishes)
	rep.TotalS = done.Sub(start).Seconds() + rep.PublishS
	if rep.Digest, rep.Exported, err = fileDigest(cfg.Out); err != nil {
		return nil, err
	}

	stats := chat.stats()
	rep.ChatCalls, rep.ChatFailed = stats.Calls, stats.FailedCalls
	rep.PromptTokens, rep.CompletionTokens = stats.Usage.PromptTokens, stats.Usage.CompletionTokens
	rep.Attempted = int64(stats.Calls) + seam.attempted.Load() + st.appendM.n.Load()
	rep.Failed = int64(stats.FailedCalls) + seam.failed.Load() + st.failed.Load()

	// Per-domain latency: from its shard's lease grant to its record's
	// merge into the coordinator's store.
	var lat []float64
	err = mem.Scan(func(r *store.Record) error {
		granted, ok1 := seam.grantOf(store.ShardOf(r.Domain, dispatchShards))
		merged, ok2 := st.appendedAt(r.Domain)
		if ok1 && ok2 {
			lat = append(lat, float64(merged.Sub(granted))/1e6)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.LatN = len(lat)
	rep.LatP50, rep.LatP90, rep.LatP99 = quantile(lat, 0.50), quantile(lat, 0.90), quantile(lat, 0.99)

	if cfg.Trace {
		rep.Layers = map[string]float64{
			"chatbot.calls":                    float64(stats.Calls),
			"chatbot.backend_s":                chat.backend.seconds(),
			"chatbot.wait_s":                   chat.client.seconds() - chat.backend.seconds(),
			"chatbot.retries":                  reg.Counter("aipan_chatbot_retries_total", "").Value(),
			"chatbot.failed":                   float64(stats.FailedCalls),
			"chatbot.completion_tokens":        float64(stats.Usage.CompletionTokens),
			"chatbot.prompt_tokens_per_domain": perOp(float64(stats.Usage.PromptTokens), rep.Domains),
			"store.append_s":                   st.appendM.seconds(),
			"store.scan_s":                     st.scanM.seconds(),
			"store.export_s":                   rep.PublishS,
			"dispatch.leases":                  float64(seam.leases.Load()),
			"dispatch.uploads":                 seam.upload.count(),
			"dispatch.upload_s":                seam.upload.seconds(),
			"dispatch.upload_kb":               float64(seam.uploadB.Load()) / 1024,
			"dispatch.merge_s":                 handler.routeMeter("records").seconds(),
			"dispatch.unleased_s":              seam.unleased().Seconds(),
		}
		if err := col.writeFile(cfg.TraceOut); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// firstDiff returns the offset of the first byte where got and want
// differ, or -1 when they are identical.
func firstDiff(got, want []byte) int {
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return i
		}
	}
	if len(got) != len(want) {
		return n
	}
	return -1
}

// runDispatchWorkload builds the single-process reference export of the
// slice, then measures distributed runs against it.
func (b *bench) runDispatchWorkload(ctx context.Context, res *result) error {
	ref := b.childConfig("reference")
	ref.Out = filepath.Join(b.work, "reference.jsonl")
	refRep, _, err := b.child(ctx, ref)
	if err != nil {
		return err
	}
	want, err := os.ReadFile(ref.Out)
	if err != nil {
		return err
	}
	res.check(refRep.Exported == dispatchLimit, "reference export holds %d records, want %d",
		refRep.Exported, dispatchLimit)

	check := func(rep *childReport, out string) error {
		got, err := os.ReadFile(out)
		if err != nil {
			return err
		}
		off := firstDiff(got, want)
		res.check(off < 0, "merged export differs from the single-process reference at byte %d", off)
		res.check(rep.Failed == 0, "dispatch: %d of %d operations failed", rep.Failed, rep.Attempted)
		return nil
	}

	if b.trace {
		plain := b.childConfig("run")
		plain.Out = filepath.Join(b.work, "merged-untraced.jsonl")
		base, baseU, err := b.child(ctx, plain)
		if err != nil {
			return err
		}
		traced := b.childConfig("run")
		traced.Trace = true
		traced.Out = filepath.Join(b.work, "merged-traced.jsonl")
		traced.TraceOut = b.traceFile()
		rep, u, err := b.child(ctx, traced)
		if err != nil {
			return err
		}
		if err := check(base, plain.Out); err != nil {
			return err
		}
		if err := check(rep, traced.Out); err != nil {
			return err
		}
		res.attempted, res.failed = base.Attempted+rep.Attempted, base.Failed+rep.Failed
		L := rep.Layers
		addRuntime(L, rep, u)
		L["trace.overhead_ratio"] = rep.TotalS / base.TotalS
		layerMetrics(res, L)
		b.traceInfo(res, base, baseU)
		res.info = append(res.info, "pipeline layers read 0 here: workers run core without a trace exporter")
		return nil
	}

	setups, err := b.setupSamples(ctx, setupRuns, b.childConfig("setup"))
	if err != nil {
		return err
	}
	var reps []*childReport
	var us []usage
	err = b.repeat(func(i int) error {
		cfg := b.childConfig("run")
		cfg.Out = filepath.Join(b.work, fmt.Sprintf("merged-%d.jsonl", i))
		rep, u, err := b.child(ctx, cfg)
		if err != nil {
			return err
		}
		reps, us = append(reps, rep), append(us, u)
		setups = append(setups, rep.SetupS)
		return check(rep, cfg.Out)
	})
	if err != nil {
		return err
	}
	batchMetrics(res, setups, reps, us)
	return nil
}
