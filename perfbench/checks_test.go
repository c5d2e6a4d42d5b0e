package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"aipan/internal/core"
	"aipan/internal/store"
)

// The correctness checks must fail the run on a seeded defect. Each test
// below plants one — a flipped export byte, a dropped record, a stale
// ETag — and requires the check that guards against it to fire.

func sampleRecords() []store.Record {
	return []store.Record{
		{Domain: "alpha.example.com", Company: "Alpha", Sector: "Technology", SectorAbbrev: "IT"},
		{Domain: "bravo.example.com", Company: "Bravo", Sector: "Utilities", SectorAbbrev: "UT"},
		{Domain: "charlie.example.com", Company: "Charlie", Sector: "Energy", SectorAbbrev: "EN"},
	}
}

func writeExport(t *testing.T, recs []store.Record) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "export.jsonl")
	if err := store.WriteJSONL(path, recs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

func TestCheckFailsOnFlippedExportByte(t *testing.T) {
	_, want := writeExport(t, sampleRecords())
	got := append([]byte(nil), want...)
	got[len(got)/2] ^= 0x01
	if off := firstDiff(want, want); off != -1 {
		t.Fatalf("identical exports differ at byte %d", off)
	}
	if off := firstDiff(got, want); off != len(got)/2 {
		t.Errorf("flipped byte %d found at %d", len(got)/2, off)
	}

	// The same defect in a pipeline run's export changes its digest,
	// which the determinism check compares across runs.
	path, _ := writeExport(t, sampleRecords())
	digest, _, err := fileDigest(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, got, 0o644); err != nil {
		t.Fatal(err)
	}
	flipped, _, err := fileDigest(path)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{workload: "paper"}
	res := &result{correct: true}
	rep := paperReport(flipped)
	b.checkPipelineRun(res, rep, digest)
	if res.correct {
		t.Error("a run whose export digest differs from the first run's passed the check")
	}
}

// paperReport is a paper run report that passes every check.
func paperReport(digest string) *childReport {
	rep := &childReport{Digest: digest, Exported: paperFunnel[1], Attempted: 10}
	rep.Funnel.Companies, rep.Funnel.Domains = paperFunnel[0], paperFunnel[1]
	rep.Funnel.CrawlOK, rep.Funnel.ExtractOK = paperFunnel[2], paperFunnel[3]
	return rep
}

func TestCheckFailsOnDroppedRecord(t *testing.T) {
	recs := sampleRecords()
	_, want := writeExport(t, recs)
	_, got := writeExport(t, append(recs[:1:1], recs[2:]...))
	if firstDiff(got, want) < 0 {
		t.Error("a merged export missing a record matched the reference")
	}

	b := &bench{workload: "paper"}
	good := &result{correct: true}
	b.checkPipelineRun(good, paperReport("d"), "d")
	if !good.correct {
		t.Fatalf("a correct paper run failed its checks: %v", good.problems)
	}
	dropped := paperReport("d")
	dropped.Exported--
	res := &result{correct: true}
	b.checkPipelineRun(res, dropped, "d")
	if res.correct {
		t.Error("a paper export one record short passed the check")
	}

	stream := &bench{workload: "stream"}
	rep := &childReport{Digest: "d", Domains: streamDomains, Exported: streamDomains, Records: streamDomains,
		Events: streamDomains - 1}
	res = &result{correct: true}
	stream.checkPipelineRun(res, rep, "d")
	if res.correct {
		t.Error("a stream run that lost one event passed the check")
	}
}

func TestCheckFailsOnStaleETag(t *testing.T) {
	h := http.Header{}
	h.Set("ETag", `"3-abc"`)
	if err := checkResponse(http.StatusNotModified, h, nil, `"3-abc"`, 3); err != nil {
		t.Fatalf("a 304 on the current ETag failed: %v", err)
	}
	if err := checkResponse(http.StatusNotModified, h, nil, `"2-abc"`, 0); err == nil {
		t.Error("a 304 answering a different ETag passed")
	}
	if err := checkResponse(http.StatusNotModified, h, nil, "", 0); err == nil {
		t.Error("a 304 to a request without If-None-Match passed")
	}
	if err := checkResponse(http.StatusNotModified, h, nil, `"3-abc"`, 4); err == nil {
		t.Error("a 304 on a tag from an earlier generation passed")
	}
	if err := checkResponse(http.StatusOK, h, []byte(`{}`), "", 4); err == nil {
		t.Error("a 200 carrying an earlier generation's ETag passed")
	}

	// End to end: a server whose response cache still holds an entry
	// from before the last refresh answers the revalidation of its old
	// tag with 304. That passes while the old generation is current and
	// fails once a refresh has moved the dataset on.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"1-old"`)
		if r.Header.Get("If-None-Match") == `"1-old"` {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	mix := newServeMix(srv.URL, catalog{Domains: []string{"alpha.example.com", "bravo.example.com"},
		Sectors: []string{"Energy"}}, 1)
	mix.entries = []mixEntry{{kind: kindRecord}, {kind: kindRevalidate, sub: int(kindRecord)}}
	client := loadClient(1)
	defer client.CloseIdleConnections()
	mix.expectGeneration(1)
	for i := 0; i < 2; i++ {
		if _, ok := mix.send(context.Background(), client, i); !ok {
			t.Fatalf("request %d at the current generation failed: %v", i, mix.problems)
		}
	}
	mix.expectGeneration(2)
	if _, ok := mix.send(context.Background(), client, 1); ok {
		t.Error("a 304 for an ETag from before the last refresh passed the serve check")
	}
}

func TestFunnelCheckFailsWhenPlantedFailuresExtract(t *testing.T) {
	b := &bench{workload: "paper"}
	// A planted failure on a hub site that extracted the hub's own
	// English text is allowed.
	hub := paperReport("d")
	hub.Funnel.ExtractOK++
	hub.Leaked = 1
	res := &result{correct: true}
	b.checkPipelineRun(res, hub, "d")
	if !res.correct {
		t.Fatalf("a leak on a hub site failed the check: %v", res.problems)
	}
	unreported := paperReport("d")
	unreported.Funnel.ExtractOK++
	res = &result{correct: true}
	b.checkPipelineRun(res, unreported, "d")
	if res.correct {
		t.Error("one extraction too many, with no leak to account for it, passed the check")
	}

	// Every planted extraction failure of the real corpus extracts, as
	// if textify and langid rejected nothing: most of them sit on sites
	// with no English privacy text, and the check must fail.
	p, err := core.New(pipelineConfig(childConfig{Workload: "paper", Seed: 3000}))
	if err != nil {
		t.Fatal(err)
	}
	var recs []store.Record
	for _, d := range p.Domains() {
		if p.Generator().Site(d.Domain).Failure.IsExtractionFailure() {
			recs = append(recs, store.Record{Domain: d.Domain, Extraction: store.ExtractionInfo{Success: true}})
		}
	}
	all := paperReport("d")
	all.Leaked, all.LeakedOffHub = countLeaks(recs, p.Generator())
	all.Funnel.ExtractOK += all.Leaked
	if all.Leaked != 103 || all.LeakedOffHub == 0 || all.LeakedOffHub == all.Leaked {
		t.Fatalf("%d planted extraction failures, %d of them off a hub; want 103 with some on hubs",
			all.Leaked, all.LeakedOffHub)
	}
	res = &result{correct: true}
	b.checkPipelineRun(res, all, "d")
	if res.correct {
		t.Error("a run in which every planted extraction failure extracted passed the check")
	}
}

func TestCheckFailsOnBadServeSummary(t *testing.T) {
	cat := catalog{Total: 2892, Batches: serveBatches}
	good := &serveRun{summary: summaryCheck{Generation: serveBatches + 1, Domains: 2892},
		report: &serveReport{RefreshMs: make([]float64, serveBatches)}, maxRPS: 1000,
		refs: []loadResult{{outcomes: make([]outcome, 1000)}}, mix: &serveMix{}}
	for i := range good.refs[0].outcomes {
		good.refs[0].outcomes[i].ok = true
	}
	b := &bench{}
	res := &result{correct: true}
	b.checkServe(res, good, cat)
	if !res.correct {
		t.Fatalf("a correct serve run failed its checks: %v", res.problems)
	}
	stale := *good
	stale.summary.Generation = serveBatches // one refresh never landed
	res = &result{correct: true}
	b.checkServe(res, &stale, cat)
	if res.correct {
		t.Error("a final summary one generation behind passed the check")
	}
}
