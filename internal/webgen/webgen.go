// Package webgen synthesizes the study's measurement substrate: a
// deterministic corporate web for the synthetic Russell 3000. Each domain
// gets a policy profile drawn from the paper's published per-sector
// distributions (calibration.go), rendered into a realistic corporate
// website (homepage, footer links, privacy pages in varied layouts and
// heading styles), with §4's failure taxonomy injected at the measured
// rates. Because the generator records the ground truth it plants, the
// pipeline's precision/recall can be computed exactly.
package webgen

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"aipan/internal/russell"
)

// Seed is the default corpus seed (AIPAN-3k).
const Seed int64 = 3000

// FailureClass is the §4 failure taxonomy.
type FailureClass string

// Failure classes. The first group causes crawl failures (no potential
// privacy page reached), the second extraction failures (crawled but no
// text extracted), the third annotation failures (extracted but nothing
// annotatable).
const (
	FailNone FailureClass = ""
	// Crawl failures (paper: 244 domains).
	FailNoPolicy    FailureClass = "no-policy"    // site has no privacy policy at all
	FailBlocked     FailureClass = "blocked"      // 403 to crawlers
	FailTimeout     FailureClass = "timeout"      // server hangs / connection error
	FailOddLink     FailureClass = "odd-link"     // policy linked as "Legal Notices"
	FailJSLink      FailureClass = "js-link"      // privacy link triggers a JavaScript action
	FailConsentLink FailureClass = "consent-link" // link only inside a JS consent box
	// Extraction failures (paper: 103 domains).
	FailPDFOnly     FailureClass = "pdf-only"     // policy is a PDF
	FailNonEnglish  FailureClass = "non-english"  // policy not in English
	FailJSOnly      FailureClass = "js-only"      // content loaded dynamically
	FailImagePolicy FailureClass = "image-policy" // policy embedded as an image
	FailStub        FailureClass = "stub"         // placeholder page, no policy text
	// Annotation failures (paper: 16 domains).
	FailVague FailureClass = "vague" // real policy text, nothing specific
)

// failurePlan allocates §4's failure classes across the corpus, scaled
// from the paper's 50-sample audit to its 244 crawl failures + 103
// extraction failures, plus the 16 zero-annotation domains.
var failurePlan = []struct {
	class FailureClass
	count int
}{
	{FailNoPolicy, 180},
	{FailBlocked, 25},
	{FailTimeout, 15},
	{FailOddLink, 16},
	{FailJSLink, 4},
	{FailConsentLink, 4},
	{FailPDFOnly, 35},
	{FailNonEnglish, 14},
	{FailJSOnly, 20},
	{FailImagePolicy, 6},
	{FailStub, 28},
	{FailVague, 16},
}

// IsCrawlFailure reports whether the class prevents the crawler from
// reaching any potential privacy page.
func (f FailureClass) IsCrawlFailure() bool {
	switch f {
	case FailNoPolicy, FailBlocked, FailTimeout, FailOddLink, FailJSLink, FailConsentLink:
		return true
	}
	return false
}

// IsExtractionFailure reports whether the class lets the crawl succeed but
// defeats text extraction.
func (f FailureClass) IsExtractionFailure() bool {
	switch f {
	case FailPDFOnly, FailNonEnglish, FailJSOnly, FailImagePolicy, FailStub:
		return true
	}
	return false
}

// PlantedMention is one ground-truth data-type or purpose mention.
type PlantedMention struct {
	Meta       string
	Category   string
	Descriptor string
	// Surface is the wording used in the text (a glossary synonym or the
	// descriptor itself).
	Surface string
	// Novel marks an out-of-glossary phrase planted to exercise zero-shot
	// annotation.
	Novel bool
}

// PlantedLabel is one ground-truth handling/rights practice.
type PlantedLabel struct {
	Group string
	Label string
	// RetentionDays is set for stated retention periods.
	RetentionDays int
}

// GroundTruth records everything the generator wrote into a policy.
type GroundTruth struct {
	Types    []PlantedMention
	Purposes []PlantedMention
	Handling []PlantedLabel
	Rights   []PlantedLabel
	// Decoys are data types mentioned ONLY in negated contexts ("we do not
	// collect X"); extracting one is a precision error (§6).
	Decoys []PlantedMention
	// Vendor is a marketing-platform name planted in the text; extracting
	// it as a data type is the GPT-3.5 confusion error (§6).
	Vendor string
}

// Layout controls how the website exposes its policy.
type Layout struct {
	// FooterLabel is the footer anchor text ("Privacy Policy", "Privacy",
	// "Legal Notices" for the odd-link failure, "" for none).
	FooterLabel string
	// WellKnownPolicy serves /privacy-policy (§3.1: 54.5% of domains).
	WellKnownPolicy bool
	// WellKnownPrivacy serves /privacy (48.6%).
	WellKnownPrivacy bool
	// Hub routes the footer link to a privacy center page that links to
	// the actual policy.
	Hub bool
	// MultiPage splits tracking-data content onto a separate
	// cookie/privacy-preferences page.
	MultiPage bool
	// ChoicesPage adds a "Your Privacy Choices" opt-out page.
	ChoicesPage bool
	// CANotice adds a "CA Privacy Notice" footer link that redirects to
	// the main policy (a very common real-world pattern).
	CANotice bool
	// HeadingStyle is "h2", "bold", or "none" (short/fallback policies).
	HeadingStyle string
	// UseBullets renders data-type lists as <ul> bullets.
	UseBullets bool
}

// Site is one synthetic corporate website with its ground truth.
type Site struct {
	Domain       string
	Company      string
	Sector       string
	SectorAbbrev string
	Failure      FailureClass
	Layout       Layout
	Truth        GroundTruth
}

// Generator derives the sites of a universe. Each site is a pure
// function of (seed, domain, failure class), so the generator holds only
// the sorted roster and the failure assignment and derives a site on
// demand — constant marginal memory per domain, which is what lets the
// synthetic web scale to 100k–1M domains. On the paper roster (exactly
// russell.NumDomains domains) it also holds the §5 retention pins, which
// every derivation of those three sites applies.
type Generator struct {
	seed     int64
	order    []string
	info     map[string]siteInfo
	failures map[string]FailureClass
	// pins maps each §5 retention-extreme domain to the stated retention
	// period (days) forced onto its site; nil off the paper roster.
	pins map[string]int
}

// siteInfo is the per-domain roster entry a site is derived from.
type siteInfo struct {
	company string
	sector  string
}

// New builds the generator for a deduplicated domain list.
func New(seed int64, domains []russell.DomainInfo) *Generator {
	g := &Generator{
		seed:     seed,
		info:     make(map[string]siteInfo, len(domains)),
		failures: map[string]FailureClass{},
		order:    make([]string, 0, len(domains)),
	}
	for _, d := range domains {
		g.info[d.Domain] = siteInfo{company: d.Companies[0].Name, sector: d.Sector}
		g.order = append(g.order, d.Domain)
	}
	sort.Strings(g.order)
	g.assignFailures()
	if len(g.order) == russell.NumDomains {
		g.pinRetentionExtremes()
	}
	return g
}

// NewDefault builds the full AIPAN-3k corpus generator.
func NewDefault() *Generator {
	return New(Seed, russell.UniqueDomains(russell.Universe(Seed)))
}

// Site derives the site for a domain (nil if the domain is not on the
// roster). Every call builds a fresh site with identical bytes, since
// sampling is seeded per domain.
func (g *Generator) Site(domain string) *Site {
	inf, ok := g.info[domain]
	if !ok {
		return nil
	}
	s := &Site{
		Domain:       domain,
		Company:      inf.company,
		Sector:       inf.sector,
		SectorAbbrev: russell.Abbrev(inf.sector),
		Failure:      g.failures[domain],
	}
	g.sample(s)
	if days, ok := g.pins[domain]; ok {
		for i := range s.Truth.Handling {
			if s.Truth.Handling[i].Label == "Stated" {
				s.Truth.Handling[i].RetentionDays = days
			}
		}
	}
	return s
}

// Sites derives all sites in deterministic (domain-sorted) order —
// intended for reports over small universes, not for the streaming
// pipeline.
func (g *Generator) Sites() []*Site {
	out := make([]*Site, len(g.order))
	for i, d := range g.order {
		out[i] = g.Site(d)
	}
	return out
}

// Domains returns all domains in sorted order.
func (g *Generator) Domains() []string {
	return append([]string(nil), g.order...)
}

// assignFailures deterministically spreads the failure plan across the
// roster: the paper's per-class counts scale proportionally with the
// universe (on the paper roster they are the counts themselves), each
// class floored at one domain once the universe is at least paper-sized,
// and only failing domains are stored (the failure map stays ~12% of
// the roster).
func (g *Generator) assignFailures() {
	n := len(g.order)
	rng := rand.New(rand.NewSource(g.seed ^ 0xFA11))
	perm := rng.Perm(n)
	i := 0
	for _, fp := range failurePlan {
		count := int(math.Round(float64(fp.count) * float64(n) / float64(russell.NumDomains)))
		if count == 0 && n >= russell.NumDomains {
			count = 1
		}
		for k := 0; k < count && i < n; k++ {
			g.failures[g.order[perm[i]]] = fp.class
			i++
		}
	}
}

// rngPool recycles rand.Rand instances across page renders: the underlying
// rngSource is a ~5KB allocation, and Seed fully re-derives its state, so a
// pooled generator reseeded per call draws the same sequence a fresh one
// would.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// putRng returns a generator obtained from rngFor to the pool.
func putRng(r *rand.Rand) { rngPool.Put(r) }

// rngFor derives a per-domain deterministic RNG. The seed is the FNV-1a
// hash of "seed|domain|purpose", computed inline to produce the exact sum
// the previous fnv.New64a + Fprintf version did, without either allocation.
// Callers hand the generator back via putRng when done with it.
func (g *Generator) rngFor(domain, purpose string) *rand.Rand {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	var tmp [20]byte
	for _, b := range strconv.AppendInt(tmp[:0], g.seed, 10) {
		h = (h ^ uint64(b)) * prime
	}
	h = (h ^ '|') * prime
	for i := 0; i < len(domain); i++ {
		h = (h ^ uint64(domain[i])) * prime
	}
	h = (h ^ '|') * prime
	for i := 0; i < len(purpose); i++ {
		h = (h ^ uint64(purpose[i])) * prime
	}
	r := rngPool.Get().(*rand.Rand)
	r.Seed(int64(h))
	return r
}

// pinRetentionExtremes picks the §5 extremes on the paper roster: the
// first two sites in domain order with a stated retention period get 1
// day and the last gets 50 years. Nothing is pinned when fewer than
// three sites state a period.
func (g *Generator) pinRetentionExtremes() {
	stated := func(d string) bool {
		if g.failures[d] != FailNone {
			return false
		}
		for _, h := range g.Site(d).Truth.Handling {
			if h.Label == "Stated" {
				return true
			}
		}
		return false
	}
	var first []int
	for i := 0; i < len(g.order) && len(first) < 2; i++ {
		if stated(g.order[i]) {
			first = append(first, i)
		}
	}
	if len(first) < 2 {
		return
	}
	for i := len(g.order) - 1; i > first[1]; i-- {
		if stated(g.order[i]) {
			g.pins = map[string]int{
				g.order[first[0]]: 1,
				g.order[first[1]]: 1,
				g.order[i]:        50 * 365,
			}
			return
		}
	}
}

// gauss draws a clamped normal deviate.
func gauss(rng *rand.Rand, mean, sd float64, lo, hi int) int {
	v := int(math.Round(rng.NormFloat64()*sd + mean))
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}
