package core

import (
	"sync"

	"aipan/internal/russell"
	"aipan/internal/search"
	"aipan/internal/webgen"
)

// corpus is the deterministic study substrate for one (seed, size): the
// synthetic Russell-like universe, its search-resolved domains, and the
// generated web. Everything in it is a pure function of the key and
// read-only after construction, so pipelines sharing a key share one
// corpus instead of rebuilding it each.
//
// One builder and one generator serve every size (Config.
// UniverseDomains). Only the company roster is materialized, and each
// domain's site is derived on demand from the seed — which is what keeps
// a 100k-domain run's memory flat.
type corpus struct {
	seed      int64
	size      int // unique domains; 0 = the paper's default universe
	companies []russell.Company
	domains   []russell.DomainInfo
	corrected int
	gen       *webgen.Generator
}

var (
	corpusMu sync.Mutex
	// corpusLast caches the most recently built corpus only: repeated runs
	// almost always reuse one key, and a single entry bounds memory.
	corpusLast *corpus
)

// corpusFor returns the (possibly cached) corpus for seed at size unique
// domains (0 = the paper's 2,892-domain default).
func corpusFor(seed int64, size int) *corpus {
	if size == russell.NumDomains {
		size = 0 // the explicit paper size is the default universe
	}
	corpusMu.Lock()
	defer corpusMu.Unlock()
	if corpusLast != nil && corpusLast.seed == seed && corpusLast.size == size {
		return corpusLast
	}
	companies := russell.UniverseSized(seed, size)
	res := search.ResolveUniverse(search.NewEngine(companies, seed), companies)
	corpusLast = &corpus{
		seed:      seed,
		size:      size,
		companies: companies,
		domains:   res.Domains,
		corrected: res.Corrected,
		gen:       webgen.New(seed, res.Domains),
	}
	return corpusLast
}
