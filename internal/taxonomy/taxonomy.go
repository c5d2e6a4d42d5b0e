// Package taxonomy encodes the paper's annotation vocabulary: the nine
// privacy-policy section aspects (§3.2.1), the collected-data-types
// taxonomy (6 meta-categories, 34 categories, 125+ normalized descriptors;
// Tables 1 and 4), the data-collection-purposes taxonomy (3 meta-categories,
// 7 categories, 48 descriptors), and the data-handling / user-rights label
// sets (Table 1, bottom). Each descriptor carries surface-form synonyms
// used both by the prompt glossaries and by the synthetic policy generator.
package taxonomy

import (
	"sort"
	"strings"
	"sync"

	"aipan/internal/nlp"
)

// Aspect is one of the nine section aspects of §3.2.1.
type Aspect string

// The nine aspects a privacy policy is segmented into.
const (
	AspectTypes     Aspect = "types"
	AspectMethods   Aspect = "methods"
	AspectPurposes  Aspect = "purposes"
	AspectHandling  Aspect = "handling"
	AspectSharing   Aspect = "sharing"
	AspectRights    Aspect = "rights"
	AspectAudiences Aspect = "audiences"
	AspectChanges   Aspect = "changes"
	AspectOther     Aspect = "other"
)

// Aspects lists all nine aspects in the paper's order.
func Aspects() []Aspect {
	return []Aspect{
		AspectTypes, AspectMethods, AspectPurposes, AspectHandling,
		AspectSharing, AspectRights, AspectAudiences, AspectChanges,
		AspectOther,
	}
}

// CoreAspects are the four aspects the study annotates (§3.2.2).
func CoreAspects() []Aspect {
	return []Aspect{AspectTypes, AspectPurposes, AspectHandling, AspectRights}
}

// AspectDescription returns the one-line definition used in prompts.
func AspectDescription(a Aspect) string {
	switch a {
	case AspectTypes:
		return "What types or categories of data are collected."
	case AspectMethods:
		return "How data may be collected, including methods, sources, or tools used for data collection."
	case AspectPurposes:
		return "What are the purposes of data collection, including why data is collected and how it is used."
	case AspectHandling:
		return "How the collected data is handled, stored, or protected, including data processing, data retention, and security mechanisms."
	case AspectSharing:
		return "Whether and how data is shared with or disclosed to third parties."
	case AspectRights:
		return "User rights, choices, and controls, including access, edit, deletion, and opt-out options."
	case AspectAudiences:
		return "Information related to specific audiences, e.g., children or users from California, Europe, etc."
	case AspectChanges:
		return "If and how users will be informed of changes."
	case AspectOther:
		return "Information not covered above, including introductory or generic statements, contact information, and other information not directly related to data privacy."
	}
	return ""
}

// AspectHeadingGlossary returns example section-heading phrases for each
// aspect (the prompt glossary of Figure 2a, extended).
func AspectHeadingGlossary(a Aspect) []string {
	switch a {
	case AspectTypes:
		return []string{
			"Information we collect", "Types of data collected",
			"Categories of personal data", "Personal information we collect",
			"What information do we collect",
		}
	case AspectMethods:
		return []string{
			"How we collect information", "Data collection methods",
			"Sources of data we collect", "Cookies and tracking technologies",
		}
	case AspectPurposes:
		return []string{
			"Why do we collect your data", "How we use the information we collect",
			"Purpose of data collection", "Use of personal information",
		}
	case AspectHandling:
		return []string{
			"How we protect your data", "Data retention", "Data security",
			"How long we keep your information", "Storage and protection",
		}
	case AspectSharing:
		return []string{
			"Who we share your data with", "Disclosure of information",
			"Sharing your personal information", "Third parties",
		}
	case AspectRights:
		return []string{
			"Your rights and choices", "Your privacy rights", "Opt-out options",
			"Access and correction", "Managing your information",
		}
	case AspectAudiences:
		return []string{
			"Children's privacy", "California residents", "Your European privacy rights",
			"Notice to Nevada residents", "GDPR",
		}
	case AspectChanges:
		return []string{
			"Changes to this policy", "Policy updates", "Amendments",
		}
	case AspectOther:
		return []string{
			"Contact us", "Introduction", "About this policy", "Definitions",
		}
	}
	return nil
}

// Descriptor is a normalized descriptor with its surface-form synonyms.
type Descriptor struct {
	// Name is the normalized descriptor, e.g. "postal address".
	Name string
	// Synonyms are alternate surface forms mapped to this descriptor,
	// e.g. "mailing address", "home address".
	Synonyms []string
}

// Category groups descriptors under a meta-category.
type Category struct {
	// Name is the category, e.g. "Contact info".
	Name string
	// Meta is the owning meta-category, e.g. "Physical profile".
	Meta string
	// Triggers are keyword lemmas used for zero-shot categorization of
	// descriptors not in the glossary.
	Triggers []string
	// Descriptors is the normalized descriptor list.
	Descriptors []Descriptor
}

// Match is a normalized classification of a surface phrase.
type Match struct {
	Meta       string
	Category   string
	Descriptor string
	// Novel marks descriptors generated zero-shot (not in the glossary).
	Novel bool
}

// Index resolves surface phrases to taxonomy matches. An Index is
// read-only after construction and safe for concurrent use.
type Index struct {
	exact map[string]Match // stemmed surface form → match
	// keys are exact's keys in sorted order, so the fuzzy stage breaks
	// distance ties the same way on every call.
	keys       []string
	categories []Category
	triggers   []triggerRule

	knownOnce sync.Once
	known     map[string]bool
}

type triggerRule struct {
	lemma    string
	meta     string
	category string
}

// NewIndex builds an index over the given categories.
func NewIndex(categories []Category) *Index {
	ix := &Index{exact: map[string]Match{}, categories: categories}
	for _, c := range categories {
		for _, d := range c.Descriptors {
			m := Match{Meta: c.Meta, Category: c.Name, Descriptor: d.Name}
			ix.add(d.Name, m)
			for _, s := range d.Synonyms {
				ix.add(s, m)
			}
		}
		for _, t := range c.Triggers {
			ix.triggers = append(ix.triggers, triggerRule{
				lemma: nlp.NormalizeStemmed(t), meta: c.Meta, category: c.Name,
			})
		}
	}
	ix.keys = make([]string, 0, len(ix.exact))
	for k := range ix.exact {
		ix.keys = append(ix.keys, k)
	}
	sort.Strings(ix.keys)
	return ix
}

func (ix *Index) add(surface string, m Match) {
	key := nlp.NormalizeStemmed(surface)
	if key == "" {
		return
	}
	if _, exists := ix.exact[key]; !exists {
		ix.exact[key] = m
	}
}

// Lookup resolves phrase to a Match. Resolution order: exact stemmed
// lookup; stopword-stripped lookup; fuzzy (edit distance ≤ 1 per 8 chars);
// zero-shot categorization via trigger lemmas (Novel=true). ok=false means
// the phrase could not be placed anywhere in the taxonomy.
func (ix *Index) Lookup(phrase string) (Match, bool) {
	key := nlp.NormalizeStemmed(phrase)
	if key == "" {
		return Match{}, false
	}
	if m, ok := ix.exact[key]; ok {
		return m, true
	}
	// Drop leading qualifiers like "your", "the", "certain".
	stripped := stripQualifiers(key)
	if stripped != key {
		if m, ok := ix.exact[stripped]; ok {
			return m, true
		}
	}
	// Fuzzy: tolerate small typos/inflections.
	if m, ok := ix.fuzzy(stripped); ok {
		return m, true
	}
	// Zero-shot: categorize by trigger lemma, synthesize a novel
	// descriptor.
	return ix.zeroShot(stripped)
}

// zeroShot categorizes a phrase the glossary does not know by the
// trigger lemmas it contains, keeping the phrase as a novel descriptor.
// Resolution order:
//
//   - single-word lemmas first: the earliest word of the phrase that
//     equals a lemma wins, and the first-registered trigger among equal
//     lemmas;
//   - then multi-word lemmas ("social media", "credit card"), in
//     registration order, wherever they occur in the phrase;
//   - lemmas match whole words only.
//
// Few lookups reach this stage (80 of ~145,000 in a seed-3000 run of the
// simulated chatbot), so it is a plain scan over the triggers.
func (ix *Index) zeroShot(stripped string) (Match, bool) {
	for _, w := range strings.Fields(stripped) {
		for _, t := range ix.triggers {
			if w == t.lemma {
				return Match{Meta: t.meta, Category: t.category, Descriptor: stripped, Novel: true}, true
			}
		}
	}
	padded := " " + stripped + " "
	for _, t := range ix.triggers {
		if strings.Contains(padded, " "+t.lemma+" ") {
			return Match{Meta: t.meta, Category: t.category, Descriptor: stripped, Novel: true}, true
		}
	}
	return Match{}, false
}

func (ix *Index) fuzzy(key string) (Match, bool) {
	if len(key) < 5 {
		return Match{}, false
	}
	budget := 1 + len(key)/8
	best := Match{}
	bestDist := budget + 1
	// Sorted keys: among equally distant keys the smallest wins.
	for _, k := range ix.keys {
		if abs(len(k)-len(key)) > budget {
			continue
		}
		if d := nlp.Levenshtein(k, key); d < bestDist {
			bestDist, best = d, ix.exact[k]
		}
	}
	if bestDist <= budget {
		return best, true
	}
	return Match{}, false
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

var qualifierWords = map[string]bool{
	"your": true, "our": true, "the": true, "a": true, "an": true,
	"certain": true, "specific": true, "other": true, "various": true,
	"any": true, "some": true, "personal": false, // "personal" is meaningful
}

// stripQualifiers drops leading qualifier words. Keys are already
// normalized (single-space-joined, no edge whitespace), so stripping is a
// matter of slicing past leading words — no Fields/Join allocations, and
// the common nothing-to-strip case returns key unchanged.
func stripQualifiers(key string) string {
	for {
		sp := strings.IndexByte(key, ' ')
		if sp < 0 {
			return key // single word: never stripped
		}
		if !qualifierWords[key[:sp]] {
			return key
		}
		key = key[sp+1:]
	}
}

// Categories returns the categories backing this index.
func (ix *Index) Categories() []Category { return ix.categories }

// KnownDescriptors returns the stemmed canonical forms of every descriptor
// name in the index (used to flag zero-shot "novel" descriptors). The set
// is computed once per index and shared: treat it as read-only.
func (ix *Index) KnownDescriptors() map[string]bool {
	ix.knownOnce.Do(func() {
		known := make(map[string]bool)
		for _, c := range ix.categories {
			for _, d := range c.Descriptors {
				known[nlp.NormalizeStemmed(d.Name)] = true
			}
		}
		ix.known = known
	})
	return ix.known
}

// Glossary renders the taxonomy as the textual glossary attached to
// chatbot prompts (Figure 2), listing up to maxPerCategory descriptors per
// category.
func (ix *Index) Glossary(maxPerCategory int) string {
	var b strings.Builder
	for _, c := range ix.categories {
		b.WriteString("- **")
		b.WriteString(c.Name)
		b.WriteString(":** ")
		n := len(c.Descriptors)
		if maxPerCategory > 0 && n > maxPerCategory {
			n = maxPerCategory
		}
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(`"` + c.Descriptors[i].Name + `"`)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// MetaCategories returns the distinct meta-category names in category order.
func MetaCategories(cats []Category) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range cats {
		if !seen[c.Meta] {
			seen[c.Meta] = true
			out = append(out, c.Meta)
		}
	}
	return out
}

// FindCategory returns the category with the given name.
func FindCategory(cats []Category, name string) (Category, bool) {
	for _, c := range cats {
		if c.Name == name {
			return c, true
		}
	}
	return Category{}, false
}
