package report

import (
	"context"
	"fmt"
	"strings"

	"aipan/internal/chatbot"
	"aipan/internal/crawler"
	"aipan/internal/nlp"
	"aipan/internal/russell"
	"aipan/internal/segment"
	"aipan/internal/stats"
	"aipan/internal/taxonomy"
	"aipan/internal/textify"
	"aipan/internal/virtualweb"
	"aipan/internal/webgen"
)

// ModelScore is one model's §6 comparison result over the sampled
// policies. Scoring is extraction-level — the paper "manually validated
// the extractions for collected data types" — so every extracted mention
// is judged against the planted ground truth before normalization.
type ModelScore struct {
	Model string
	// TypesPrecision is the precision of data-type extractions vs planted
	// ground truth (paper: GPT-4 96.2%, Llama-3.1 83.2%).
	TypesPrecision float64
	// NegatedExtracted counts negated-context decoys wrongly extracted.
	NegatedExtracted int
	// VendorExtracted counts vendor names wrongly extracted as data types.
	VendorExtracted int
	// Extractions is the total data-type extractions produced.
	Extractions int
}

// CompareModels reproduces the §6 study: crawl the same nPolicies
// policies once, then run each chatbot profile's segmentation + data-type
// extraction over them and score every extraction. Policies are chosen to
// include the negated-context and vendor-mention traps the paper
// describes.
func CompareModels(ctx context.Context, seed int64, nPolicies int) ([]ModelScore, error) {
	gen := webgen.New(seed, russell.UniqueDomains(russell.Universe(seed)))
	cr, err := crawler.New(crawler.Config{Client: virtualweb.NewTransport(gen).Client()})
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	domains := pickComparisonDomains(gen, nPolicies)

	// Crawl once; the page set is identical for every model.
	type policyDoc struct {
		site *webgen.Site
		doc  *textify.Document
	}
	var docs []policyDoc
	for _, d := range domains {
		res := cr.CrawlDomain(ctx, d)
		site := gen.Site(d)
		for _, p := range res.PrivacyPages {
			docs = append(docs, policyDoc{site: site, doc: p.Doc})
		}
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("report: no privacy pages crawled for comparison")
	}

	bots := []chatbot.Chatbot{
		chatbot.NewSim(chatbot.GPT4Profile()),
		chatbot.NewSim(chatbot.Llama31Profile()),
		chatbot.NewSim(chatbot.GPT35Profile()),
	}
	var scores []ModelScore
	for _, bot := range bots {
		score := ModelScore{Model: bot.Name()}
		correct := 0
		for _, pd := range docs {
			es, err := extractTypes(ctx, bot, pd.doc)
			if err != nil {
				return nil, fmt.Errorf("report: %s: %w", bot.Name(), err)
			}
			truth := extractionTruth(pd.site)
			for _, e := range es {
				score.Extractions++
				key := stripLeadingQualifier(nlp.NormalizeStemmed(e.Text))
				switch {
				case truth.planted[key]:
					correct++
				case truth.decoys[key]:
					score.NegatedExtracted++
				case isVendor(e.Text):
					score.VendorExtracted++
				}
			}
		}
		if score.Extractions > 0 {
			score.TypesPrecision = float64(correct) / float64(score.Extractions)
		}
		scores = append(scores, score)
	}
	return scores, nil
}

// extractTypes mirrors the pipeline's types flow up to (and only to) the
// extraction task: segment, take the types section (whole text as
// fallback), run the Figure 2b task.
func extractTypes(ctx context.Context, bot chatbot.Chatbot, doc *textify.Document) ([]chatbot.Extraction, error) {
	seg, err := segment.Segment(ctx, bot, doc)
	if err != nil {
		return nil, err
	}
	text := seg.NumberedText(taxonomy.AspectTypes)
	if strings.TrimSpace(text) == "" {
		text = doc.NumberedText()
	}
	resp, err := bot.Complete(ctx, chatbot.ExtractTypesRequest(text, 0))
	if err != nil {
		return nil, err
	}
	return chatbot.ParseExtractions(resp.Content)
}

// extractionTruth indexes a site's planted surfaces and decoys by
// normalized stem.
type extractionTruthSet struct {
	planted map[string]bool
	decoys  map[string]bool
}

func extractionTruth(site *webgen.Site) extractionTruthSet {
	ts := extractionTruthSet{planted: map[string]bool{}, decoys: map[string]bool{}}
	for _, m := range site.Truth.Types {
		ts.planted[nlp.NormalizeStemmed(m.Surface)] = true
		ts.planted[nlp.NormalizeStemmed(m.Descriptor)] = true
	}
	for _, d := range site.Truth.Decoys {
		ts.decoys[nlp.NormalizeStemmed(d.Surface)] = true
		ts.decoys[nlp.NormalizeStemmed(d.Descriptor)] = true
	}
	return ts
}

// pickComparisonDomains selects healthy domains, preferring sites that
// carry the decoy/vendor traps so the models can differentiate.
func pickComparisonDomains(gen *webgen.Generator, n int) []string {
	var trapped, plain []string
	for _, s := range gen.Sites() {
		if s.Failure != webgen.FailNone {
			continue
		}
		if len(s.Truth.Decoys) > 0 || s.Truth.Vendor != "" {
			trapped = append(trapped, s.Domain)
		} else {
			plain = append(plain, s.Domain)
		}
	}
	out := trapped
	if len(out) > n*3/4 {
		out = out[:n*3/4]
	}
	for _, d := range plain {
		if len(out) >= n {
			break
		}
		out = append(out, d)
	}
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// stripLeadingQualifier drops a leading possessive ("your email address"
// scores as "email address").
func stripLeadingQualifier(key string) string {
	for _, q := range []string{"your ", "our ", "the "} {
		if strings.HasPrefix(key, q) && len(key) > len(q) {
			return key[len(q):]
		}
	}
	return key
}

func isVendor(s string) bool {
	low := strings.ToLower(s)
	for _, v := range []string{
		"activecampaign", "mailchimp", "salesforce", "hubspot", "marketo",
		"zendesk", "braze", "klaviyo",
	} {
		if strings.Contains(low, v) {
			return true
		}
	}
	return false
}

// CompareTable renders the §6 comparison as paper-vs-measured.
func CompareTable(scores []ModelScore) *stats.Table {
	t := &stats.Table{
		Title:   "§6 model comparison: collected-data-type extraction precision",
		Headers: []string{"Model", "Precision", "Negated decoys extracted", "Vendor names extracted", "Paper reference"},
	}
	paper := map[string]string{
		"sim-gpt4":    "GPT-4 Turbo: 96.2%",
		"sim-llama31": "Llama-3.1: 83.2% (negation errors)",
		"sim-gpt35":   "GPT-3.5: unsatisfactory (vendor confusion)",
	}
	for _, s := range scores {
		t.AddRow(s.Model, stats.Pct(s.TypesPrecision),
			fmt.Sprintf("%d", s.NegatedExtracted),
			fmt.Sprintf("%d", s.VendorExtracted),
			paper[s.Model])
	}
	return t
}
