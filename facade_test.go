package aipan_test

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"aipan"
)

var (
	facadeOnce sync.Once
	facadeRecs []aipan.Record
	facadeErr  error
)

// facadeDataset runs a small pipeline once for the facade tests.
func facadeDataset(t *testing.T) []aipan.Record {
	t.Helper()
	facadeOnce.Do(func() {
		p, err := aipan.NewPipeline(aipan.PipelineConfig{Limit: 120, Workers: 8})
		if err != nil {
			facadeErr = err
			return
		}
		res, err := p.Run(context.Background())
		if err != nil {
			facadeErr = err
			return
		}
		facadeRecs = res.Records
	})
	if facadeErr != nil {
		t.Fatal(facadeErr)
	}
	return facadeRecs
}

func TestScoreRiskFacade(t *testing.T) {
	records := facadeDataset(t)
	scores := aipan.ScoreRisk(records)
	if len(scores) == 0 {
		t.Fatal("no scores")
	}
	out := aipan.RiskSectorTable(scores).Render()
	if !strings.Contains(out, "Mean score") {
		t.Errorf("sector table:\n%s", out)
	}
	top := aipan.RiskTopTable(scores, 3)
	if len(top.Rows) != 3 {
		t.Errorf("top rows = %d", len(top.Rows))
	}
}

func TestTrainClassifierFacade(t *testing.T) {
	records := facadeDataset(t)
	model, eval, err := aipan.TrainClassifier(records, "aspect")
	if err != nil {
		t.Fatal(err)
	}
	if eval.Accuracy < 0.8 {
		t.Errorf("accuracy = %.3f", eval.Accuracy)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := model.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := aipan.LoadClassifier(path)
	if err != nil {
		t.Fatal(err)
	}
	if label, _ := loaded.Predict("we collect your email address and cookies"); label != "types" {
		t.Errorf("loaded prediction = %s", label)
	}
	if _, _, err := aipan.TrainClassifier(records, "bogus-task"); err == nil {
		t.Error("bogus task should fail")
	}
}

func TestNutritionAndQAFacade(t *testing.T) {
	records := facadeDataset(t)
	var rec *aipan.Record
	for i := range records {
		if len(records[i].Annotations) > 10 {
			rec = &records[i]
			break
		}
	}
	if rec == nil {
		t.Fatal("no richly annotated record")
	}
	label := aipan.NutritionLabel(rec.Annotations)
	out := label.Render(rec.Company)
	if !strings.Contains(out, "PRIVACY FACTS") || !strings.Contains(out, "DATA COLLECTED") {
		t.Errorf("label:\n%s", out)
	}
	ans, ok := aipan.Ask("what data do you collect?", rec.Annotations)
	if !ok || ans.Text == "" {
		t.Errorf("Ask failed: %+v (ok=%v)", ans, ok)
	}
}

func TestTrendsFacade(t *testing.T) {
	records := facadeDataset(t)
	half := records[:len(records)/2]
	deltas := aipan.CoverageDeltas(half, records)
	if len(deltas) == 0 {
		t.Fatal("no deltas")
	}
	out := aipan.DeltaTable(deltas, 5).Render()
	if !strings.Contains(out, "pts") {
		t.Errorf("delta table:\n%s", out)
	}
	ch := aipan.CompareDomains(half, records)
	if len(ch.NewDomains) == 0 {
		t.Error("expected new domains in the superset snapshot")
	}
}

func TestCSVFacade(t *testing.T) {
	records := facadeDataset(t)
	dir := t.TempDir()
	annPath := filepath.Join(dir, "ann.csv")
	domPath := filepath.Join(dir, "dom.csv")
	if err := aipan.WriteAnnotationsCSV(annPath, records); err != nil {
		t.Fatal(err)
	}
	if err := aipan.WriteDomainsCSV(domPath, records); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{annPath, domPath} {
		info, err := os.Stat(p)
		if err != nil || info.Size() == 0 {
			t.Errorf("csv %s: %v, size %d", p, err, info.Size())
		}
	}
}

func TestDatasetServerFacade(t *testing.T) {
	records := facadeDataset(t)
	s, err := aipan.NewDatasetServer(aipan.DatasetRecords(records),
		aipan.WithServerCacheSize(16), aipan.WithServerRateLimit(1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/summary")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("summary status = %d", resp.StatusCode)
	}
	if resp.Header.Get("ETag") == "" {
		t.Error("summary response missing ETag")
	}

	// The old unversioned paths redirect permanently onto /v1.
	ls, err := aipan.NewDatasetServer(aipan.DatasetRecords(records))
	if err != nil {
		t.Fatal(err)
	}
	legacy := httptest.NewServer(ls)
	defer legacy.Close()
	resp2, err := legacy.Client().Get(legacy.URL + "/api/summary")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Errorf("legacy summary status = %d", resp2.StatusCode)
	}
	if got := resp2.Request.URL.Path; got != "/v1/summary" {
		t.Errorf("legacy path landed on %q, want redirect to /v1/summary", got)
	}
}

func TestCompareTableFacade(t *testing.T) {
	scores := []aipan.ModelScore{
		{Model: "sim-gpt4", TypesPrecision: 0.99},
		{Model: "sim-llama31", TypesPrecision: 0.85, NegatedExtracted: 12},
	}
	out := aipan.CompareTable(scores).Render()
	if !strings.Contains(out, "sim-llama31") || !strings.Contains(out, "85.0%") {
		t.Errorf("compare table:\n%s", out)
	}
}

func TestTaxonomyExtensionEndToEnd(t *testing.T) {
	defer aipan.ClearTaxonomyExtension()
	ext := aipan.TaxonomyExtension{
		TypeCategories: []aipan.TaxonomyCategory{{
			Name: "Gaming profile", Meta: "Digital behavior",
			Triggers: []string{"guild"},
			Descriptors: []aipan.TaxonomyDescriptor{
				{Name: "guild membership records", Synonyms: []string{"clan membership"}},
			},
		}},
	}
	if err := aipan.RegisterTaxonomyExtension(ext); err != nil {
		t.Fatal(err)
	}
	// A fresh chatbot built after registration picks up the extension, so
	// the out-of-the-box taxonomy annotates a domain it has never seen.
	policy := `<html><body><p>We collect your clan membership and email address when you join tournaments.</p></body></html>`
	anns, err := aipan.AnalyzeHTML(context.Background(), aipan.SimGPT4(), policy)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range anns {
		if a.Category == "Gaming profile" && a.Descriptor == "guild membership records" {
			found = true
		}
	}
	if !found {
		t.Errorf("extension category not annotated: %+v", anns)
	}
}
