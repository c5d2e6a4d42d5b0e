package core

import (
	"aipan/internal/stats"
	"aipan/internal/store"
)

// FunnelCell is the fixed-size funnel contribution of one domain — the
// only thing the streaming pipeline retains per record. Cells are
// position-indexed by the domain's slot in the (sorted) study list, so
// the end-of-run aggregation visits them in study-list order and every
// float sum reduces in the same order, whether a record was delivered
// or resumed. The coordinator of a distributed run derives each
// accepted record's cell the same way and folds them in study-list
// order, so the aggregate is identical to a single-process run of the
// same seed.
type FunnelCell struct {
	Pages     float64
	PrivPages float64 // meaningful when CrawlOK
	Words     float64 // meaningful when ExtractOK
	CrawlOK   bool
	WkPolicy  bool
	WkPriv    bool
	ExtractOK bool
	Annotated bool
	Fallback  bool
}

// CellOf reduces one record to its funnel contribution.
func CellOf(r *store.Record) FunnelCell {
	return FunnelCell{
		Pages:     float64(r.Crawl.PagesFetched),
		PrivPages: float64(r.Crawl.PrivacyPages),
		Words:     float64(r.Extraction.CoreWords),
		CrawlOK:   r.Crawl.Success,
		WkPolicy:  r.Crawl.WellKnownPolicy,
		WkPriv:    r.Crawl.WellKnownPrivacy,
		ExtractOK: r.Extraction.Success,
		Annotated: r.Annotated(),
		Fallback:  len(r.AnnotationFallback) > 0,
	}
}

// FoldFunnel aggregates the Figure 1 / §3.1 / §4 counts from per-domain
// cells. cells must be in study-list (sorted-domain) order: the float
// means and medians reduce in slice order, and byte-identical funnel
// output across run modes depends on every mode folding the same order.
func FoldFunnel(companies, corrected int, cells []FunnelCell) Funnel {
	f := Funnel{
		Companies:       companies,
		Domains:         len(cells),
		SearchCorrected: corrected,
	}
	var pages []float64
	var privacyPages []float64
	var words []float64
	for i := range cells {
		c := &cells[i]
		pages = append(pages, c.Pages)
		if c.CrawlOK {
			f.CrawlOK++
			privacyPages = append(privacyPages, c.PrivPages)
		}
		if c.WkPolicy {
			f.WellKnownPolicy++
		}
		if c.WkPriv {
			f.WellKnownPriv++
		}
		if c.ExtractOK {
			f.ExtractOK++
			words = append(words, c.Words)
		}
		if c.Annotated {
			f.Annotated++
		}
		if c.Fallback {
			f.FallbackUsed++
		}
	}
	f.AvgPagesCrawled = stats.Mean(pages)
	f.AvgPrivacyPages = stats.Mean(privacyPages)
	f.MedianWords = stats.Median(words)
	return f
}

// funnelFromCells folds this pipeline's study parameters over the cells.
func (p *Pipeline) funnelFromCells(cells []FunnelCell) Funnel {
	return FoldFunnel(len(p.companies), p.corrected, cells)
}
