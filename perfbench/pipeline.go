package main

import (
	"context"
	"fmt"
	"path/filepath"
)

// paperFunnel is what the injected §4 failure quotas fix on the paper
// corpus: companies, domains, crawl-OK, extract-OK. A planted extraction
// failure whose generated site also has a privacy-center hub serves
// English privacy text (the hub and its FAQ page) next to the failure,
// and on some seeds the segmenter accepts that text. Extract-OK is
// therefore checked net of leaked planted failures, and every leak must
// be on such a hub site: the generator's ground truth, not the run,
// decides where a leak may come from.
var paperFunnel = [4]int{2916, 2892, 2648, 2545}

func funnelStages(rep *childReport) [4]int {
	f := rep.Funnel
	return [4]int{f.Companies, f.Domains, f.CrawlOK, f.ExtractOK - rep.Leaked}
}

// runPipelineWorkload measures paper or stream: set-up in fresh
// processes, then whole runs repeated for the measurement time.
func (b *bench) runPipelineWorkload(ctx context.Context, res *result) error {
	if b.trace {
		return b.tracePipeline(ctx, res)
	}
	setups, err := b.setupSamples(ctx, setupRuns, b.childConfig("setup"))
	if err != nil {
		return err
	}
	var reps []*childReport
	var us []usage
	err = b.repeat(func(i int) error {
		cfg := b.childConfig("run")
		cfg.Out = filepath.Join(b.work, fmt.Sprintf("export-%d.jsonl", i))
		rep, u, err := b.child(ctx, cfg)
		if err != nil {
			return err
		}
		reps, us = append(reps, rep), append(us, u)
		setups = append(setups, rep.SetupS)
		return nil
	})
	if err != nil {
		return err
	}
	for _, rep := range reps {
		b.checkPipelineRun(res, rep, reps[0].Digest)
	}
	batchMetrics(res, setups, reps, us)
	return nil
}

// checkPipelineRun holds one run to the workload's known answer, and
// its export to the first run's bytes.
func (b *bench) checkPipelineRun(res *result, rep *childReport, digest string) {
	res.check(rep.Digest == digest, "%s export digest %s differs between runs (%s)",
		b.workload, short(rep.Digest), short(digest))
	switch b.workload {
	case "paper":
		got := funnelStages(rep)
		res.check(got == paperFunnel,
			"paper funnel %v, want %v (companies, domains, crawl-OK, extract-OK net of %d leaked failures)",
			got, paperFunnel, rep.Leaked)
		res.check(rep.LeakedOffHub == 0,
			"paper: %d planted extraction failures extracted on sites that serve no English privacy text",
			rep.LeakedOffHub)
		res.check(rep.Exported == paperFunnel[1], "paper export holds %d records, want %d",
			rep.Exported, paperFunnel[1])
	case "stream":
		res.check(rep.Domains == streamDomains, "stream processed %d domains, want %d", rep.Domains, streamDomains)
		res.check(rep.Exported == streamDomains && rep.Records == streamDomains,
			"stream exported %d records (store holds %d), want %d", rep.Exported, rep.Records, streamDomains)
		res.check(rep.Events == streamDomains, "stream recorded %d events, want %d", rep.Events, streamDomains)
	}
	res.check(rep.Failed == 0, "%s: %d of %d operations failed", b.workload, rep.Failed, rep.Attempted)
}

// batchMetrics reports the end-to-end metrics of a batch workload as
// medians over its runs.
func batchMetrics(res *result, setups []float64, reps []*childReport, us []usage) {
	var total, rate, p50, p90, p99, rss, allocs, kb, publish, tokens, util []float64
	for i, r := range reps {
		res.attempted += r.Attempted
		res.failed += r.Failed
		total = append(total, r.TotalS)
		rate = append(rate, perOp(float64(r.Domains), 1)/r.RunS)
		p50 = append(p50, r.LatP50)
		p90 = append(p90, r.LatP90)
		p99 = append(p99, r.LatP99)
		rss = append(rss, mib(us[i].maxRSS))
		allocs = append(allocs, perOp(float64(r.Mallocs), r.Domains))
		kb = append(kb, perOp(float64(r.AllocB)/1024, r.Domains))
		publish = append(publish, r.PublishS*1000)
		tokens = append(tokens, perOp(float64(r.PromptTokens), r.Domains))
		util = append(util, us[i].cpuUtil())
	}
	res.add("setup_s", "s", median(setups))
	res.add("total_s", "s", median(total))
	res.add("ops_per_s", "1/s", median(rate))
	res.add("p50_ms", "ms", median(p50))
	res.add("p90_ms", "ms", median(p90))
	res.add("peak_rss_mb", "MiB", median(rss))
	res.add("allocs_per_op", "count", median(allocs))
	res.add("alloc_kb_per_op", "KiB", median(kb))
	res.info = append(res.info,
		fmt.Sprintf("runs=%d set-ups=%d domains=%d latency samples=%d (op = one domain)",
			len(reps), len(setups), reps[0].Domains, reps[0].LatN),
		fmt.Sprintf("domains_per_s=%s 1/s  p99_ms=%s ms  publish_ms=%s ms (export after the last append)",
			ftoa(median(rate)), ftoa(median(p99)), ftoa(median(publish))),
		fmt.Sprintf("prompt_tokens_per_domain=%s tokens  failed_ratio=%d/%d  cpu_util=%s",
			ftoa(median(tokens)), res.failed, res.attempted, ftoa(median(util))))
}

// tracePipeline runs the workload once untraced and once traced, with
// the same configuration and seed, and reports the per-layer metrics.
func (b *bench) tracePipeline(ctx context.Context, res *result) error {
	plain := b.childConfig("run")
	plain.Out = filepath.Join(b.work, "export-untraced.jsonl")
	base, baseU, err := b.child(ctx, plain)
	if err != nil {
		return err
	}
	traced := b.childConfig("run")
	traced.Trace = true
	traced.Out = filepath.Join(b.work, "export-traced.jsonl")
	traced.TraceOut = b.traceFile()
	rep, u, err := b.child(ctx, traced)
	if err != nil {
		return err
	}
	b.checkPipelineRun(res, base, base.Digest)
	b.checkPipelineRun(res, rep, base.Digest)
	res.attempted, res.failed = base.Attempted+rep.Attempted, base.Failed+rep.Failed
	L := rep.Layers
	addRuntime(L, rep, u)
	L["trace.overhead_ratio"] = rep.TotalS / base.TotalS
	layerMetrics(res, L)
	b.traceInfo(res, base, baseU)
	return nil
}

func addRuntime(L map[string]float64, rep *childReport, u usage) {
	L["runtime.cpu_util"] = u.cpuUtil()
	L["runtime.gc_cycles"] = float64(rep.GCCycles)
	L["runtime.gc_pause_ms"] = float64(rep.GCPauseNs) / 1e6
}

func (b *bench) traceFile() string {
	return filepath.Join(b.root, ".bench_build", "traces", fmt.Sprintf("%s-s%d.trace", b.workload, b.seed))
}

// traceInfo notes the trace file and the untraced run's headline.
func (b *bench) traceInfo(res *result, base *childReport, u usage) {
	res.info = append(res.info,
		fmt.Sprintf("trace file: %s (render with: aipan debug trace <file>)", b.traceFile()),
		fmt.Sprintf("untraced run: total_s=%s ops=%d peak_rss_mb=%s; traced export matches it byte for byte",
			ftoa(base.TotalS), base.Domains, ftoa(mib(u.maxRSS))))
}
