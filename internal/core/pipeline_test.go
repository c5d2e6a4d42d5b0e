package core

import (
	"context"
	"testing"

	"aipan/internal/webgen"
)

// runLimited runs the pipeline over the first n domains.
func runLimited(t *testing.T, n int) (*Pipeline, *Result) {
	t.Helper()
	p, err := New(Config{Limit: n, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

func TestPipelineSmallRun(t *testing.T) {
	p, res := runLimited(t, 60)
	if len(res.Records) != 60 {
		t.Fatalf("records = %d", len(res.Records))
	}
	if res.Funnel.CrawlOK == 0 || res.Funnel.ExtractOK == 0 || res.Funnel.Annotated == 0 {
		t.Fatalf("funnel empty: %+v", res.Funnel)
	}
	if res.Funnel.CrawlOK < res.Funnel.ExtractOK || res.Funnel.ExtractOK < res.Funnel.Annotated {
		t.Errorf("funnel not monotone: %+v", res.Funnel)
	}
	// Ground truth cross-check on a few healthy domains.
	checked := 0
	for _, rec := range res.Records {
		site := p.Generator().Site(rec.Domain)
		if site == nil {
			t.Fatalf("no site for %s", rec.Domain)
		}
		switch {
		case site.Failure.IsCrawlFailure():
			if rec.Crawl.Success && len(rec.Annotations) > 0 {
				t.Errorf("%s (%s): crawl-failure site produced annotations", rec.Domain, site.Failure)
			}
		case site.Failure.IsExtractionFailure():
			if rec.Extraction.Success {
				t.Errorf("%s (%s): extraction-failure site extracted", rec.Domain, site.Failure)
			}
		case site.Failure == webgen.FailVague:
			if len(rec.Annotations) > 0 {
				t.Errorf("%s: vague site got %d annotations", rec.Domain, len(rec.Annotations))
			}
		default:
			checked++
			if !rec.Annotated() {
				t.Errorf("%s: healthy site got no annotations", rec.Domain)
			}
		}
	}
	if checked == 0 {
		t.Error("no healthy domains in sample")
	}
}

func TestPipelineRecallAgainstGroundTruth(t *testing.T) {
	p, res := runLimited(t, 40)
	var planted, recovered int
	for _, rec := range res.Records {
		site := p.Generator().Site(rec.Domain)
		if site.Failure != webgen.FailNone {
			continue
		}
		have := map[string]bool{}
		for _, a := range rec.Annotations {
			if a.Aspect == "types" {
				have[a.Category+"|"+a.Descriptor] = true
			}
		}
		seen := map[string]bool{}
		for _, m := range site.Truth.Types {
			key := m.Category + "|" + m.Descriptor
			if seen[key] {
				continue
			}
			seen[key] = true
			planted++
			if have[key] {
				recovered++
			}
		}
	}
	if planted == 0 {
		t.Fatal("no planted truth in sample")
	}
	recall := float64(recovered) / float64(planted)
	if recall < 0.85 {
		t.Errorf("type recall = %.3f (%d/%d), want >= 0.85", recall, recovered, planted)
	}
}

func TestPipelineProgressCallback(t *testing.T) {
	var calls int
	p, err := New(Config{Limit: 10, Workers: 2, Progress: func(stage string, done, total int) {
		calls++
		if total != 10 {
			t.Errorf("total = %d", total)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls != 10 {
		t.Errorf("progress calls = %d", calls)
	}
}

func TestPipelineCancel(t *testing.T) {
	p, err := New(Config{Limit: 50, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Run(ctx); err == nil {
		t.Error("canceled run should error")
	}
}

func TestFunnelUniverseNumbers(t *testing.T) {
	p, err := New(Config{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Funnel.Companies != 2916 {
		t.Errorf("companies = %d, want 2916", res.Funnel.Companies)
	}
	if len(p.Domains()) != 2892 {
		t.Errorf("domains = %d, want 2892", len(p.Domains()))
	}
}

func TestCheckpointResume(t *testing.T) {
	ckpt := t.TempDir() + "/checkpoint"

	// First run: 12 domains, all written to the checkpoint.
	res1, err := runCheckpointed(context.Background(), t, ckpt, Config{Limit: 12, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Second run resumes: every domain is already checkpointed, so no
	// chatbot work happens. The progress callback still fires exactly
	// once — the guaranteed terminal (total, total) tick that lets
	// progress bars close even when there is nothing left to do.
	calls := 0
	var lastDone, lastTotal int
	res2, err := runCheckpointed(context.Background(), t, ckpt, Config{Limit: 12, Workers: 4,
		Progress: func(_ string, done, total int) { calls++; lastDone, lastTotal = done, total }})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || lastDone != 12 || lastTotal != 12 {
		t.Errorf("resume progress: %d calls, last (%d, %d), want exactly one (12, 12) terminal tick",
			calls, lastDone, lastTotal)
	}
	if len(res2.Records) != len(res1.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(res2.Records), len(res1.Records))
	}
	for i := range res1.Records {
		if res1.Records[i].Domain != res2.Records[i].Domain ||
			len(res1.Records[i].Annotations) != len(res2.Records[i].Annotations) {
			t.Errorf("record %d differs after resume", i)
		}
	}

	// Third run extends the limit: only the new domains are processed.
	calls = 0
	res3, err := runCheckpointed(context.Background(), t, ckpt, Config{Limit: 15, Workers: 4,
		Progress: func(string, int, int) { calls++ }})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("extension run processed %d domains, want 3", calls)
	}
	if len(res3.Records) != 15 {
		t.Errorf("records = %d", len(res3.Records))
	}
	for _, rec := range res3.Records {
		if rec.Domain == "" {
			t.Error("empty record slipped into resumed results")
		}
	}
}
