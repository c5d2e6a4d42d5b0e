package webgen

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"aipan/internal/taxonomy"
)

// policySection is one section of a generated policy document.
type policySection struct {
	// Aspect is the ground-truth aspect of the section (what a perfect
	// segmenter should label it).
	Aspect taxonomy.Aspect
	// Heading is the section heading text ("" for short policies).
	Heading string
	// Paras are the body paragraphs; Bullets are rendered as a <ul>.
	Paras   []string
	Bullets []string
}

// headingVariants gives each aspect several plausible heading texts.
var headingVariants = map[taxonomy.Aspect][]string{
	taxonomy.AspectTypes: {
		"Information We Collect", "Types of Data We Collect",
		"Personal Information We Collect", "What Information Do We Collect",
	},
	taxonomy.AspectMethods: {
		"How We Collect Information", "Sources of Information",
		"Data Collection Methods",
	},
	taxonomy.AspectPurposes: {
		"How We Use Your Information", "Use of Personal Information",
		"Why We Collect Your Data", "Purposes of Data Collection",
	},
	taxonomy.AspectHandling: {
		"Data Retention and Security", "How We Protect Your Data",
		"Storage, Retention and Protection", "Data Security",
	},
	taxonomy.AspectSharing: {
		"Who We Share Your Data With", "Disclosure of Information",
		"Sharing Your Personal Information",
	},
	taxonomy.AspectRights: {
		"Your Rights and Choices", "Your Privacy Rights",
		"Managing Your Information", "Access and Correction",
	},
	taxonomy.AspectAudiences: {
		"Children's Privacy", "Notice to California Residents",
		"Information for Specific Audiences",
	},
	taxonomy.AspectChanges: {
		"Changes to This Policy", "Policy Updates",
	},
	taxonomy.AspectOther: {
		"Contact Us", "How to Reach Us",
	},
}

// fillerSentences are neutral legal boilerplate: they contain no taxonomy
// surfaces, no practice cues, and no zero-shot noun-phrase bait, so they
// bulk policies to realistic length (§3.2.1: median 2,671 words) without
// perturbing the planted ground truth.
var fillerSentences = []string{
	"This policy applies to visitors and customers located in the United States.",
	"Please read this document carefully so that you understand how we approach the matters described here.",
	"Capitalized terms have the meanings assigned to them in our Terms of Use.",
	"The effective date of this policy appears at the top of this page.",
	"If any part of this policy is found unenforceable, the remainder will continue in full force and effect.",
	"Translations of this policy may be offered for convenience; the English version controls in case of conflict.",
	"Our commitment to responsible stewardship guides every part of our operations.",
	"Nothing in this section creates rights for any person beyond those set out by applicable law.",
	"Headings are for convenience only and have no legal significance of their own.",
	"Where this policy conflicts with a signed agreement between you and us, the signed agreement governs.",
	"The practices described here apply regardless of the device you choose when visiting us.",
	"We encourage you to revisit this page periodically so that you remain familiar with its contents.",
	"Certain features described in this section may be available only in selected markets.",
	"Our subsidiaries and brands follow the principles laid out in this document.",
	"The examples given throughout this policy are illustrative rather than exhaustive.",
	"This section should be read together with the remainder of the policy.",
	"Questions about the interpretation of a particular paragraph can be directed to our team at any time.",
	"We work with counsel to keep this document aligned with the expectations of the jurisdictions we serve.",
}

// bulk builds ~nWords of neutral prose from combinatorial fragments. The
// vocabulary deliberately avoids every taxonomy surface, practice cue,
// collection verb, and zero-shot noun-phrase head, so bulked sections
// change policy length (paper median: 2,671 core words) without touching
// the planted ground truth.
func bulk(rng *rand.Rand, nWords int) string {
	subjects := []string{
		"Our teams", "Our affiliates", "The departments involved",
		"Our offices", "The relevant business units", "Our personnel",
		"The groups responsible for this program", "Our subsidiaries",
	}
	verbs := []string{
		"maintain", "follow", "document", "coordinate", "oversee",
		"administer", "organize", "supervise",
	}
	objects := []string{
		"internal procedures", "operating guidelines", "written standards",
		"governance routines", "escalation paths", "training curricula",
		"accountability structures", "management playbooks",
	}
	tails := []string{
		"in the ordinary course of business", "across the organization",
		"consistent with industry practice", "under the supervision of senior leadership",
		"as part of our broader compliance posture", "in every market where we operate",
		"with periodic input from outside advisers", "subject to executive sign-off",
		"in a manner proportionate to the matters described above", "throughout the year",
	}
	connectors := []string{
		"In addition,", "Separately,", "As a general matter,", "Likewise,",
		"For completeness,", "Where appropriate,", "More broadly,",
	}
	var b strings.Builder
	words := 0
	for words < nWords {
		if b.Len() > 0 {
			b.WriteByte(' ')
			if rng.Float64() < 0.4 {
				b.WriteString(connectors[rng.Intn(len(connectors))])
				b.WriteByte(' ')
				words++
			}
		}
		// Write the fragments straight into the builder; the fragments are
		// single-spaced with no edge whitespace, so each one's word count
		// is its space count plus one (no Sprintf/Fields scratch).
		subj := subjects[rng.Intn(len(subjects))]
		verb := verbs[rng.Intn(len(verbs))]
		obj := objects[rng.Intn(len(objects))]
		tail := tails[rng.Intn(len(tails))]
		b.WriteString(subj)
		b.WriteByte(' ')
		b.WriteString(verb)
		b.WriteByte(' ')
		b.WriteString(obj)
		b.WriteByte(' ')
		b.WriteString(tail)
		b.WriteByte('.')
		words += strings.Count(subj, " ") + strings.Count(verb, " ") +
			strings.Count(obj, " ") + strings.Count(tail, " ") + 4
	}
	return b.String()
}

// fillerParagraphs are longer neutral blocks for additional bulk.
var fillerParagraphs = []string{
	"We operate a family of websites, applications and offline experiences, and this document is written to cover them together. Where an individual product behaves differently, the product's own notice will say so expressly, and that notice will control for that product to the extent of any difference.",
	"From time to time we may offer promotions, events or pilot programs that come with their own supplemental notices. Any supplemental notice will be presented to you at the point of participation and should be read together with this policy before you decide to take part.",
	"Our relationship with you matters to us, and the descriptions in this document are intended to be plain and readable rather than exhaustive legal catalogues. When a technical term is unavoidable, we try to explain it in context the first time it appears on this page.",
	"If you are reading this policy on behalf of an organization, you represent that you are authorized to accept it for that organization, and references to you in the relevant paragraphs include the organization itself to the extent applicable under the agreement that governs the relationship.",
}

// generatePolicy builds the policy document for a site: the ordered list
// of sections that renderers turn into one or more HTML pages.
func (g *Generator) generatePolicy(s *Site) []policySection {
	rng := g.rngFor(s.Domain, "policy")
	defer putRng(rng)
	var secs []policySection

	// Introduction.
	intro := policySection{
		Aspect:  taxonomy.AspectOther,
		Heading: "Introduction",
		Paras: []string{
			fmt.Sprintf("%s (\"we\", \"us\", or \"our\") respects your privacy. This Privacy Policy describes our practices in connection with the websites and services that link to it.", s.Company),
			filler(rng, 2),
		},
	}
	secs = append(secs, intro)

	// Types.
	if len(s.Truth.Types) > 0 || len(s.Truth.Decoys) > 0 {
		secs = append(secs, g.typesSection(rng, s))
	}
	// Methods (structural realism; carries the vendor mention sometimes).
	if rng.Float64() < 0.6 || s.Truth.Vendor != "" {
		secs = append(secs, g.methodsSection(rng, s))
	}
	// Purposes.
	if len(s.Truth.Purposes) > 0 {
		secs = append(secs, g.purposesSection(rng, s))
	}
	// Handling.
	if len(s.Truth.Handling) > 0 {
		secs = append(secs, g.handlingSection(rng, s))
	}
	// Sharing (static framing; sharing purposes live in the purposes
	// section where the paper's annotator finds them).
	if rng.Float64() < 0.7 {
		secs = append(secs, policySection{
			Aspect:  taxonomy.AspectSharing,
			Heading: variant(rng, taxonomy.AspectSharing),
			Paras: []string{
				"Information may be disclosed to our service vendors under written contract, and to successors in the event of a corporate transaction.",
				filler(rng, 2),
				bulk(rng, 150+rng.Intn(120)),
			},
		})
	}
	// Rights.
	if len(s.Truth.Rights) > 0 {
		secs = append(secs, g.rightsSection(rng, s))
	}
	// Audiences.
	if rng.Float64() < 0.5 {
		secs = append(secs, policySection{
			Aspect:  taxonomy.AspectAudiences,
			Heading: variant(rng, taxonomy.AspectAudiences),
			Paras: []string{
				"Our services are not directed to children under the age of 13, and residents of California and the European Economic Area may have additional rights under the laws of those jurisdictions.",
				filler(rng, 1),
			},
		})
	}
	// Changes.
	if rng.Float64() < 0.8 {
		secs = append(secs, policySection{
			Aspect:  taxonomy.AspectChanges,
			Heading: variant(rng, taxonomy.AspectChanges),
			Paras: []string{
				"We may update this policy from time to time. When we make material changes we will post the revised version on this page and adjust the effective date above.",
			},
		})
	}
	// Contact.
	secs = append(secs, policySection{
		Aspect:  taxonomy.AspectOther,
		Heading: variant(rng, taxonomy.AspectOther),
		Paras: []string{
			fmt.Sprintf("If you have questions about this policy, email privacy@%s or write to the %s privacy team at our headquarters.", s.Domain, s.Company),
		},
	})
	return secs
}

func (g *Generator) typesSection(rng *rand.Rand, s *Site) policySection {
	sec := policySection{
		Aspect:  taxonomy.AspectTypes,
		Heading: variant(rng, taxonomy.AspectTypes),
	}
	sec.Paras = append(sec.Paras, "We collect the kinds of information described below when you interact with us. "+filler(rng, 1))

	byCat := map[string][]PlantedMention{}
	var order []string
	for _, m := range s.Truth.Types {
		if len(byCat[m.Category]) == 0 {
			order = append(order, m.Category)
		}
		byCat[m.Category] = append(byCat[m.Category], m)
	}
	leadIns := []string{
		"We may collect %s.",
		"When you use our services, we collect %s.",
		"We also gather %s.",
		"Depending on how you interact with us, we may obtain %s.",
	}
	for _, cat := range order {
		ms := byCat[cat]
		if s.Layout.UseBullets && len(ms) >= 3 {
			for _, m := range ms {
				sec.Bullets = append(sec.Bullets, m.Surface)
			}
			continue
		}
		// Chunk surfaces into sentences of up to 4.
		for i := 0; i < len(ms); i += 4 {
			end := i + 4
			if end > len(ms) {
				end = len(ms)
			}
			var surfaces []string
			for _, m := range ms[i:end] {
				surfaces = append(surfaces, "your "+m.Surface)
			}
			sec.Paras = append(sec.Paras, fmt.Sprintf(leadIns[rng.Intn(len(leadIns))], joinAnd(surfaces)))
		}
	}

	// Vendor mention (the §6 GPT-3.5 trap) sits among the types prose.
	if s.Truth.Vendor != "" {
		sec.Paras = append(sec.Paras, fmt.Sprintf(
			"We work with platforms such as %s to manage our outreach campaigns.", s.Truth.Vendor))
	}
	// Negated decoys (the §6 Llama trap), grouped the way real policies
	// write them: "We do not collect X, Y, or Z."
	for i := 0; i < len(s.Truth.Decoys); i += 3 {
		end := i + 3
		if end > len(s.Truth.Decoys) {
			end = len(s.Truth.Decoys)
		}
		var surfaces []string
		for _, d := range s.Truth.Decoys[i:end] {
			surfaces = append(surfaces, d.Surface)
		}
		tmpl := []string{
			"We do not collect %s.",
			"For the avoidance of doubt, we never collect %s.",
			"This privacy notice does not apply to %s handled by independent providers.",
		}
		sec.Paras = append(sec.Paras, fmt.Sprintf(tmpl[rng.Intn(len(tmpl))], joinOr(surfaces)))
	}
	sec.Paras = append(sec.Paras, fillerParagraphs[rng.Intn(len(fillerParagraphs))], filler(rng, 3))
	sec.Paras = append(sec.Paras, bulk(rng, 380+rng.Intn(240)))
	return sec
}

func (g *Generator) methodsSection(rng *rand.Rand, s *Site) policySection {
	return policySection{
		Aspect:  taxonomy.AspectMethods,
		Heading: variant(rng, taxonomy.AspectMethods),
		Paras: []string{
			"We receive information directly from you when you fill out forms or correspond with us, and automatically through the technology that powers our websites and applications.",
			filler(rng, 2),
			bulk(rng, 140+rng.Intn(120)),
		},
	}
}

func (g *Generator) purposesSection(rng *rand.Rand, s *Site) policySection {
	sec := policySection{
		Aspect:  taxonomy.AspectPurposes,
		Heading: variant(rng, taxonomy.AspectPurposes),
	}
	sec.Paras = append(sec.Paras, "We put the information described above to the uses set out in this section. "+filler(rng, 1))

	byCat := map[string][]PlantedMention{}
	var order []string
	for _, m := range s.Truth.Purposes {
		if len(byCat[m.Category]) == 0 {
			order = append(order, m.Category)
		}
		byCat[m.Category] = append(byCat[m.Category], m)
	}
	leadIns := []string{
		"We use your information for the following: %s.",
		"Specifically, your information supports %s.",
		"Data described in this policy is used for %s.",
		"Among the ways we use data: %s.",
	}
	for _, cat := range order {
		ms := byCat[cat]
		if s.Layout.UseBullets && len(ms) >= 3 {
			for _, m := range ms {
				sec.Bullets = append(sec.Bullets, m.Surface)
			}
			continue
		}
		for i := 0; i < len(ms); i += 4 {
			end := i + 4
			if end > len(ms) {
				end = len(ms)
			}
			var surfaces []string
			for _, m := range ms[i:end] {
				surfaces = append(surfaces, m.Surface)
			}
			sec.Paras = append(sec.Paras, fmt.Sprintf(leadIns[rng.Intn(len(leadIns))], strings.Join(surfaces, "; ")))
		}
	}
	sec.Paras = append(sec.Paras, fillerParagraphs[rng.Intn(len(fillerParagraphs))], filler(rng, 3))
	sec.Paras = append(sec.Paras, bulk(rng, 320+rng.Intn(200)))
	return sec
}

func (g *Generator) handlingSection(rng *rand.Rand, s *Site) policySection {
	sec := policySection{
		Aspect:  taxonomy.AspectHandling,
		Heading: variant(rng, taxonomy.AspectHandling),
	}
	groups := labelGroups()
	for _, pl := range s.Truth.Handling {
		sec.Paras = append(sec.Paras, labelSentence(rng, groups, pl, s.Domain))
	}
	sec.Paras = append(sec.Paras, filler(rng, 3), bulk(rng, 220+rng.Intn(160)))
	return sec
}

func (g *Generator) rightsSection(rng *rand.Rand, s *Site) policySection {
	sec := policySection{
		Aspect:  taxonomy.AspectRights,
		Heading: variant(rng, taxonomy.AspectRights),
	}
	groups := labelGroups()
	for _, pl := range s.Truth.Rights {
		sec.Paras = append(sec.Paras, labelSentence(rng, groups, pl, s.Domain))
	}
	// A borderline sentence annotators struggle with: it reads like a
	// "Do not use" choice without actually offering one (the paper notes
	// ~40% of user-rights errors land in this category, §4 footnote 5).
	if !s.hasRight(taxonomy.ChoiceDoNotUse) && rng.Float64() < 0.06 {
		sec.Paras = append(sec.Paras,
			"Some visitors may simply choose not to use optional features; nothing in this section requires you to enable them.")
	}
	sec.Paras = append(sec.Paras, filler(rng, 2), bulk(rng, 220+rng.Intn(160)))
	return sec
}

// hasRight reports whether a rights label was planted.
func (s *Site) hasRight(label string) bool {
	for _, r := range s.Truth.Rights {
		if r.Label == label {
			return true
		}
	}
	return false
}

// labelGroups holds the Table 1 label groups, which are static literals:
// taxonomy.AllLabelGroups rebuilds all four label sets, templates and
// cues included, on every call, and labelSentence only reads them.
var labelGroups = sync.OnceValue(taxonomy.AllLabelGroups)

// labelSentence renders one practice from its taxonomy templates.
func labelSentence(rng *rand.Rand, groups map[string][]taxonomy.Label, pl PlantedLabel, domain string) string {
	for _, l := range groups[pl.Group] {
		if l.Name != pl.Label {
			continue
		}
		t := l.Templates[rng.Intn(len(l.Templates))]
		t = strings.ReplaceAll(t, "{domain}", domain)
		t = strings.ReplaceAll(t, "{period}", periodPhrase(pl.RetentionDays))
		return t
	}
	return ""
}

// periodPhrase renders a retention period the way policies write them,
// including the parenthesized-numeral style ("six (6) years").
func periodPhrase(days int) string {
	switch days {
	case 1:
		return "1 day"
	case 30:
		return "30 days"
	case 90:
		return "90 days"
	case 180:
		return "six (6) months"
	case 365:
		return "one (1) year"
	case 730:
		return "2 years"
	case 1095:
		return "three (3) years"
	case 1825:
		return "5 years"
	case 2190:
		return "six (6) years"
	case 2555:
		return "seven (7) years"
	case 3650:
		return "ten (10) years"
	case 50 * 365:
		return "50 years"
	default:
		if days%365 == 0 {
			return fmt.Sprintf("%d years", days/365)
		}
		return fmt.Sprintf("%d days", days)
	}
}

func variant(rng *rand.Rand, a taxonomy.Aspect) string {
	vs := headingVariants[a]
	return vs[rng.Intn(len(vs))]
}

func filler(rng *rand.Rand, n int) string {
	var parts []string
	for i := 0; i < n; i++ {
		parts = append(parts, fillerSentences[rng.Intn(len(fillerSentences))])
	}
	return strings.Join(parts, " ")
}

func joinOr(items []string) string {
	switch len(items) {
	case 0:
		return ""
	case 1:
		return items[0]
	case 2:
		return items[0] + " or " + items[1]
	default:
		return strings.Join(items[:len(items)-1], ", ") + ", or " + items[len(items)-1]
	}
}

func joinAnd(items []string) string {
	switch len(items) {
	case 0:
		return ""
	case 1:
		return items[0]
	case 2:
		return items[0] + " and " + items[1]
	default:
		return strings.Join(items[:len(items)-1], ", ") + ", and " + items[len(items)-1]
	}
}
