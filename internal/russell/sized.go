package russell

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// UniverseSized generates a synthetic index with numDomains unique
// domains; numDomains <= 0 means the paper's NumDomains, the universe
// Universe returns. Larger universes extend the index with a long tail:
// the paper's sector weights describe the large-cap head, but an index
// stretched toward PrivaSeer scale (100k–1M policies) is dominated by
// small caps whose sector concentration flattens out — so tail domains
// are allocated under a flattened (√share-renormalized) sector mix
// blended with the head mix. Duplicate share-class listings are created
// at the paper's head rate (24 per 2,892 domains), so len(result) >
// numDomains by the scaled duplicate count. Every size but the paper's
// names its companies on the scaled path (nextSized).
func UniverseSized(seed int64, numDomains int) []Company {
	if numDomains <= 0 {
		numDomains = NumDomains
	}
	rng := rand.New(rand.NewSource(seed))

	sectors := Sectors()
	counts := sectorCountsSized(numDomains)

	gen := newNameGen(rng)
	gen.sized = numDomains != NumDomains
	companies := make([]Company, 0, numDomains)
	for _, s := range sectors {
		for i := 0; i < counts[s]; i++ {
			name, ticker, domain := gen.next(s)
			companies = append(companies, Company{Name: name, Ticker: ticker, Sector: s, Domain: domain})
		}
	}

	// Duplicate listings at the head rate, floored so tiny test
	// universes still get none rather than a negative count.
	nDup := numDomains * (NumCompanies - NumDomains) / NumDomains
	for i := 0; i < nDup; i++ {
		parent := companies[rng.Intn(numDomains)]
		for strings.HasSuffix(parent.Ticker, ".B") || gen.duped[parent.Domain] {
			parent = companies[rng.Intn(numDomains)]
		}
		gen.duped[parent.Domain] = true
		dup := parent
		dup.Ticker = parent.Ticker + ".B"
		companies = append(companies, dup)
	}

	// Shuffle deterministically so sectors interleave like a real index.
	rng.Shuffle(len(companies), func(i, j int) {
		companies[i], companies[j] = companies[j], companies[i]
	})
	return companies
}

// sectorCountsSized allocates numDomains unique domains across sectors:
// the first NumDomains-worth follow the paper's head weights, and
// everything beyond follows the flattened long-tail mix.
func sectorCountsSized(numDomains int) map[string]int {
	sectors := Sectors()
	head := numDomains
	if head > NumDomains {
		head = NumDomains
	}
	tail := numDomains - head

	// Flattened tail mix: √share, renormalized.
	tailShare := make(map[string]float64, len(sectors))
	norm := 0.0
	for _, s := range sectors {
		tailShare[s] = math.Sqrt(sectorShare[s])
		norm += tailShare[s]
	}

	counts := make(map[string]int, len(sectors))
	total := 0
	for _, s := range sectors {
		n := int(sectorShare[s]*float64(head) + tailShare[s]/norm*float64(tail))
		counts[s] = n
		total += n
	}
	// Distribute the rounding remainder deterministically.
	for i := 0; total < numDomains; i++ {
		counts[sectors[i%len(sectors)]]++
		total++
	}
	for i := 0; total > numDomains; i++ {
		s := sectors[i%len(sectors)]
		if counts[s] > 0 {
			counts[s]--
			total--
		}
	}
	return counts
}

// nextSized is the scaled naming path: the root×flavor namespace holds
// only a few hundred combinations per sector, so beyond the paper's
// universe every collision takes a per-base sequence number on both the
// name and the domain (the paper's path never numbers domains, which is
// why it caps out — and why this path is kept separate instead of
// changing it).
func (g *nameGen) nextSized(sector string) (name, ticker, domain string) {
	flavors := sectorFlavors[sector]
	root := nameRoots[g.rng.Intn(len(nameRoots))]
	flavor := flavors[g.rng.Intn(len(flavors))]
	suffix := legalSuffixes[g.rng.Intn(len(legalSuffixes))]
	base := strings.ToLower(root + strings.ReplaceAll(flavor, " ", ""))
	name = fmt.Sprintf("%s %s %s", root, flavor, suffix)
	domain = base + ".example.com"
	if g.domains[domain] || g.names[name] {
		k := g.seq[base] + 1
		g.seq[base] = k
		name = fmt.Sprintf("%s %s %s %d", root, flavor, suffix, k)
		domain = fmt.Sprintf("%s-%d.example.com", base, k)
	}
	g.names[name] = true
	g.domains[domain] = true
	return name, g.makeTickerSized(root, flavor), domain
}

// makeTickerSized is makeTicker with a per-base sequence counter: the
// default path re-probes from 2 on every call, which is quadratic once
// hundreds of thousands of tickers share a few hundred bases.
func (g *nameGen) makeTickerSized(root, flavor string) string {
	base := strings.ToUpper(root[:min(3, len(root))] + flavor[:1])
	if !g.tickers[base] {
		g.tickers[base] = true
		return base
	}
	k := g.tickSeq[base]
	if k < 2 {
		k = 2
	}
	t := base + strconv.Itoa(k)
	for g.tickers[t] {
		k++
		t = base + strconv.Itoa(k)
	}
	g.tickSeq[base] = k + 1
	g.tickers[t] = true
	return t
}
