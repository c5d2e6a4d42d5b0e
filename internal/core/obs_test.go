package core

import (
	"context"
	"testing"

	"aipan/internal/obs"
)

// funnelGauge reads one aipan_funnel stage gauge back out of reg
// (registration is idempotent, so re-registering returns the live vec).
func funnelGauge(reg *obs.Registry, stage string) float64 {
	vec := reg.GaugeVec("aipan_funnel",
		"Figure 1 funnel counts from the most recently completed run, by stage.", "stage")
	return vec.With(stage).Value()
}

// TestFunnelMetricsMatchResult is the funnel-parity acceptance test: the
// aipan_funnel gauges published at the end of a run must equal the
// returned core.Result.Funnel field for field.
func TestFunnelMetricsMatchResult(t *testing.T) {
	reg := obs.NewRegistry()
	spans := &spanCollector{}
	p, err := New(Config{Limit: 30, Workers: 4, Registry: reg, TraceExporter: spans})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	f := res.Funnel
	for stage, want := range map[string]float64{
		"companies":          float64(f.Companies),
		"domains":            float64(f.Domains),
		"search_corrected":   float64(f.SearchCorrected),
		"crawl_ok":           float64(f.CrawlOK),
		"extract_ok":         float64(f.ExtractOK),
		"annotated":          float64(f.Annotated),
		"avg_pages_crawled":  f.AvgPagesCrawled,
		"avg_privacy_pages":  f.AvgPrivacyPages,
		"well_known_policy":  float64(f.WellKnownPolicy),
		"well_known_privacy": float64(f.WellKnownPriv),
		"median_words":       f.MedianWords,
		"fallback_used":      float64(f.FallbackUsed),
	} {
		if got := funnelGauge(reg, stage); got != want {
			t.Errorf("aipan_funnel{stage=%q} = %v, want %v", stage, got, want)
		}
	}

	// The run exports one root "run" span with a domain span per domain
	// under it, and the stage histogram counts the same spans.
	paths := map[string]int{}
	for _, rec := range spans.recs {
		paths[rec.Path]++
	}
	if paths["run"] != 1 || paths["run/domain"] != 30 {
		t.Errorf("exported %d run and %d run/domain spans, want 1 and 30", paths["run"], paths["run/domain"])
	}
	stages := reg.HistogramVec(obs.StageDurationMetric, "", nil, "stage")
	for stage, want := range map[string]uint64{"run": 1, "domain": 30} {
		if got := stages.With(stage).Count(); got != want {
			t.Errorf("%s{stage=%q} count = %d, want %d", obs.StageDurationMetric, stage, got, want)
		}
	}

	// Pipeline throughput counters match the work actually done.
	domains := reg.Counter("aipan_pipeline_domains_processed_total",
		"Domains fully processed (crawl through annotate) this process.")
	if domains.Value() != 30 {
		t.Errorf("domains processed counter = %v, want 30", domains.Value())
	}
}

// TestProgressTerminalTickOnCancel verifies the Progress contract's
// guarantee: even a canceled run ends with exactly one terminal
// (process, total, total) tick.
func TestProgressTerminalTickOnCancel(t *testing.T) {
	type tick struct{ done, total int }
	var ticks []tick
	p, err := New(Config{Limit: 20, Workers: 2, Progress: func(stage string, done, total int) {
		if stage == "process" {
			ticks = append(ticks, tick{done, total})
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Run(ctx); err == nil {
		t.Fatal("canceled run should error")
	}
	terminal := 0
	for _, tk := range ticks {
		if tk.done == tk.total && tk.total == 20 {
			terminal++
		}
	}
	if terminal != 1 {
		t.Errorf("terminal (20, 20) ticks = %d, want exactly 1 (ticks: %v)", terminal, ticks)
	}
	if last := ticks[len(ticks)-1]; last.done != 20 || last.total != 20 {
		t.Errorf("last tick = %+v, want (20, 20)", last)
	}
}
