// Package russell synthesizes the study universe (§3.1): the constituents
// of the Russell 3000 index — 2,916 companies across the 11 S&P sectors,
// including duplicate listings (share classes of the same parent, like
// GOOG/GOOGL) so that domain deduplication yields the paper's 2,892 unique
// domains. Generation is fully deterministic in the seed.
package russell

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Sector names (S&P), with the paper's abbreviations.
const (
	ConsumerDiscretionary = "Consumer discretionary"
	ConsumerStaples       = "Consumer staples"
	Energy                = "Energy"
	Financials            = "Financials"
	HealthCare            = "Health care"
	Industrials           = "Industrials"
	InformationTechnology = "Information technology"
	Materials             = "Materials"
	RealEstate            = "Real estate"
	Communication         = "Communication services"
	Utilities             = "Utilities"
)

// Sectors lists the 11 S&P sectors in abbreviation order.
func Sectors() []string {
	return []string{
		ConsumerDiscretionary, ConsumerStaples, Energy, Financials,
		HealthCare, Industrials, InformationTechnology, Materials,
		RealEstate, Communication, Utilities,
	}
}

// Abbrev returns the paper's two-letter sector code (Table 2).
func Abbrev(sector string) string {
	switch sector {
	case ConsumerDiscretionary:
		return "CD"
	case ConsumerStaples:
		return "CS"
	case Energy:
		return "EN"
	case Financials:
		return "FS"
	case HealthCare:
		return "HC"
	case Industrials:
		return "IN"
	case InformationTechnology:
		return "IT"
	case Materials:
		return "MT"
	case RealEstate:
		return "RE"
	case Communication:
		return "TC"
	case Utilities:
		return "UT"
	}
	return "??"
}

// Company is one index constituent.
type Company struct {
	// Name is the legal name, e.g. "Northwind Dynamics Corp".
	Name string
	// Ticker is the exchange symbol; duplicate listings share a domain but
	// differ in ticker (the GOOG/GOOGL case).
	Ticker string
	// Sector is the S&P sector.
	Sector string
	// Domain is the company's Internet domain.
	Domain string
}

// Counts matching §3.1.
const (
	// NumCompanies is the constituent count of the Vanguard Russell 3000
	// ETF as of 2024-03-31.
	NumCompanies = 2916
	// NumDomains is the unique-domain count after deduplicating share
	// classes.
	NumDomains = 2892
)

// sectorShare approximates Russell 3000 sector weights by company count;
// they are normalized to sum to NumDomains unique companies.
var sectorShare = map[string]float64{
	Financials:            0.145,
	HealthCare:            0.140,
	Industrials:           0.150,
	InformationTechnology: 0.130,
	ConsumerDiscretionary: 0.140,
	RealEstate:            0.070,
	ConsumerStaples:       0.040,
	Energy:                0.040,
	Materials:             0.045,
	Communication:         0.040,
	Utilities:             0.060,
}

// Universe generates the deterministic synthetic index for a seed.
// len(result) == NumCompanies; unique domains == NumDomains.
func Universe(seed int64) []Company {
	return UniverseSized(seed, NumDomains)
}

// UniqueDomains returns the deduplicated domain list with the owning
// companies, sorted by domain.
func UniqueDomains(companies []Company) []DomainInfo {
	byDomain := map[string]*DomainInfo{}
	for _, c := range companies {
		d, ok := byDomain[c.Domain]
		if !ok {
			d = &DomainInfo{Domain: c.Domain, Sector: c.Sector}
			byDomain[c.Domain] = d
		}
		d.Companies = append(d.Companies, c)
	}
	out := make([]DomainInfo, 0, len(byDomain))
	for _, d := range byDomain {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}

// DomainInfo is one unique domain with its listed companies.
type DomainInfo struct {
	Domain    string
	Sector    string
	Companies []Company
}

// ---------------------------------------------------------------- naming

type nameGen struct {
	rng     *rand.Rand
	names   map[string]bool
	tickers map[string]bool
	domains map[string]bool
	duped   map[string]bool
	// sized switches next to the scaled naming path (any universe but
	// the paper's), which numbers colliding domains instead of rejecting
	// them; seq and tickSeq are its per-base collision counters.
	sized   bool
	seq     map[string]int
	tickSeq map[string]int
}

func newNameGen(rng *rand.Rand) *nameGen {
	return &nameGen{
		rng:     rng,
		names:   map[string]bool{},
		tickers: map[string]bool{},
		domains: map[string]bool{},
		duped:   map[string]bool{},
		seq:     map[string]int{},
		tickSeq: map[string]int{},
	}
}

var nameRoots = []string{
	"Northwind", "Bluepeak", "Ironvale", "Crestline", "Silverbrook",
	"Oakhaven", "Redstone", "Clearwater", "Summit", "Pinnacle", "Horizon",
	"Vanguardia", "Meridian", "Atlas", "Beacon", "Cascade", "Drift",
	"Everfield", "Falcon", "Garnet", "Harbor", "Inlet", "Juniper", "Keystone",
	"Lakeshore", "Maple", "Nimbus", "Orchard", "Prairie", "Quarry", "Ridge",
	"Sable", "Tidewater", "Umber", "Vista", "Willow", "Xenon", "Yellowpine",
	"Zephyr", "Amber", "Boulder", "Cobalt", "Dunmore", "Ember", "Flint",
	"Granite", "Hollow", "Indigo", "Jasper", "Kestrel", "Larkspur", "Mesa",
	"Noble", "Onyx", "Peregrine", "Quill", "Raven", "Sterling", "Talon",
	"Ursa", "Vermilion", "Wren", "Yarrow", "Zinnia", "Arbor", "Brook",
	"Cinder", "Dell", "Elm", "Fern", "Grove", "Heath", "Iris", "Jade",
	"Knoll", "Loch", "Moor", "Nook", "Opal", "Pike", "Reed", "Slate",
	"Thorn", "Vale", "Wold", "Yew", "Aster", "Birch", "Cedar", "Dogwood",
}

var sectorFlavors = map[string][]string{
	ConsumerDiscretionary: {"Retail", "Outfitters", "Leisure", "Motors", "Apparel", "Hospitality", "Brands", "Stores"},
	ConsumerStaples:       {"Foods", "Beverages", "Grocers", "Household", "Farms", "Provisions"},
	Energy:                {"Energy", "Petroleum", "Drilling", "Pipelines", "Resources", "Oilfield"},
	Financials:            {"Financial", "Bancorp", "Capital", "Insurance", "Trust", "Securities", "Holdings"},
	HealthCare:            {"Health", "Therapeutics", "Biosciences", "Medical", "Pharma", "Diagnostics", "Clinics"},
	Industrials:           {"Industries", "Manufacturing", "Logistics", "Aerospace", "Engineering", "Machinery"},
	InformationTechnology: {"Technologies", "Systems", "Software", "Semiconductors", "Networks", "Digital", "Cloud"},
	Materials:             {"Materials", "Chemicals", "Mining", "Metals", "Packaging", "Minerals"},
	RealEstate:            {"Properties", "Realty", "REIT", "Estates", "Development"},
	Communication:         {"Media", "Communications", "Broadcasting", "Interactive", "Telecom", "Entertainment"},
	Utilities:             {"Utilities", "Power", "Electric", "Water", "Gas"},
}

var legalSuffixes = []string{"Inc", "Corp", "Group", "Co", "Ltd", "PLC", "Holdings"}

func (g *nameGen) next(sector string) (name, ticker, domain string) {
	if g.sized {
		return g.nextSized(sector)
	}
	flavors := sectorFlavors[sector]
	for tries := 0; ; tries++ {
		root := nameRoots[g.rng.Intn(len(nameRoots))]
		flavor := flavors[g.rng.Intn(len(flavors))]
		suffix := legalSuffixes[g.rng.Intn(len(legalSuffixes))]
		candidate := fmt.Sprintf("%s %s %s", root, flavor, suffix)
		if tries > 20 {
			candidate = fmt.Sprintf("%s %s %s %d", root, flavor, suffix, g.rng.Intn(1000))
		}
		if g.names[candidate] {
			continue
		}
		dom := strings.ToLower(root + strings.ReplaceAll(flavor, " ", ""))
		dom += ".example.com"
		if g.domains[dom] {
			continue
		}
		tick := g.makeTicker(root, flavor)
		g.names[candidate] = true
		g.domains[dom] = true
		return candidate, tick, dom
	}
}

func (g *nameGen) makeTicker(root, flavor string) string {
	base := strings.ToUpper(root[:min(3, len(root))] + flavor[:1])
	t := base
	for i := 2; g.tickers[t]; i++ {
		t = fmt.Sprintf("%s%d", base, i)
	}
	g.tickers[t] = true
	return t
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
