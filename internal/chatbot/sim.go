package chatbot

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"aipan/internal/nlp"
	"aipan/internal/taxonomy"
)

// Profile parameterizes a simulated chatbot's competence. The GPT-4-class
// profile follows every prompt instruction; the degraded profiles reproduce
// the failure modes the paper measured in §6 (Llama-3.1 extracting negated
// mentions, GPT-3.5 mistaking vendor names like ActiveCampaign for data
// types and following instructions loosely).
type Profile struct {
	// ModelName is reported in responses, e.g. "sim-gpt4".
	ModelName string
	// NegationErrorRate is the probability a mention in a negated or
	// hypothetical context is (wrongly) extracted anyway.
	NegationErrorRate float64
	// VendorConfusion is the probability a product/vendor name is mistaken
	// for a collected data type.
	VendorConfusion float64
	// MissRate is the probability a true glossary mention is overlooked.
	MissRate float64
	// MislabelRate is the probability a normalization lands in the wrong
	// category.
	MislabelRate float64
	// NoveltyZeal is the probability an out-of-glossary noun phrase is
	// extracted zero-shot.
	NoveltyZeal float64
	// SpanSloppiness is the probability an extraction span is drawn too
	// wide (swallowing neighboring words), a boundary error weak models
	// make that breaks exact-term validation.
	SpanSloppiness float64
	// Seed makes all stochastic decisions deterministic per (seed, input).
	Seed uint64
}

// GPT4Profile models gpt-4-turbo: instruction-faithful, negation-aware.
func GPT4Profile() Profile {
	return Profile{
		ModelName:         "sim-gpt4",
		NegationErrorRate: 0.0,
		VendorConfusion:   0.0,
		MissRate:          0.0,
		MislabelRate:      0.02,
		NoveltyZeal:       0.9,
		Seed:              4,
	}
}

// Llama31Profile models Llama-3.1: comparable extraction but unable to
// follow the negated-context instruction closely (§6).
func Llama31Profile() Profile {
	return Profile{
		ModelName:         "sim-llama31",
		NegationErrorRate: 0.85,
		VendorConfusion:   0.05,
		MissRate:          0.05,
		MislabelRate:      0.06,
		NoveltyZeal:       0.7,
		SpanSloppiness:    0.20,
		Seed:              31,
	}
}

// GPT35Profile models gpt-3.5-turbo: struggles with complex policy text,
// e.g. mistaking the marketing platform ActiveCampaign for a data type
// describing campaign engagement (§6).
func GPT35Profile() Profile {
	return Profile{
		ModelName:         "sim-gpt35",
		NegationErrorRate: 0.9,
		VendorConfusion:   0.8,
		MissRate:          0.18,
		MislabelRate:      0.15,
		NoveltyZeal:       1.0,
		SpanSloppiness:    0.22,
		Seed:              35,
	}
}

// knownVendors are marketing/analytics platforms that appear in policies;
// weak models confuse them with data types. The synthetic corpus plants
// sentences naming them.
var knownVendors = []string{
	"activecampaign", "mailchimp", "salesforce", "hubspot", "marketo",
	"zendesk", "braze", "klaviyo", "pardot", "eloqua",
}

// Sim is the deterministic prompt-following simulated chatbot. It parses
// the task instructions, glossary, and numbered input out of the request —
// the same text a real LLM would read — and performs the task with lexicon
// and NLP machinery.
type Sim struct {
	profile        Profile
	typeMatcher    *phraseMatcher
	purposeMatcher *phraseMatcher
	typeIndex      *taxonomy.Index
	purposeIndex   *taxonomy.Index
	vendorSet      map[string]bool
}

// NewSim builds a simulated chatbot with the given competence profile.
func NewSim(p Profile) *Sim {
	var typeSurfaces, purposeSurfaces []string
	for _, c := range taxonomy.TypeCategories() {
		for _, d := range c.Descriptors {
			typeSurfaces = append(typeSurfaces, d.Name)
			typeSurfaces = append(typeSurfaces, d.Synonyms...)
		}
	}
	for _, c := range taxonomy.PurposeCategories() {
		for _, d := range c.Descriptors {
			purposeSurfaces = append(purposeSurfaces, d.Name)
			purposeSurfaces = append(purposeSurfaces, d.Synonyms...)
		}
	}
	vs := make(map[string]bool, len(knownVendors))
	for _, v := range knownVendors {
		vs[v] = true
	}
	return &Sim{
		profile:        p,
		typeMatcher:    newPhraseMatcher(typeSurfaces),
		purposeMatcher: newPhraseMatcher(purposeSurfaces),
		typeIndex:      taxonomy.NewTypeIndex(),
		purposeIndex:   taxonomy.NewPurposeIndex(),
		vendorSet:      vs,
	}
}

// Name implements Chatbot.
func (s *Sim) Name() string { return s.profile.ModelName }

// Complete implements Chatbot: it dispatches on the task embedded in the
// prompt and returns strict JSON, as the instructions demand.
func (s *Sim) Complete(ctx context.Context, req Request) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	task := req.Task
	if task == "" {
		task = taskIDFromPrompt(req.TaskMessage())
	}
	input := req.Input()
	var content string
	switch task {
	case TaskHeadingLabels:
		content = EncodeLineLabels(s.labelLines(input, true))
	case TaskSegmentText:
		content = EncodeLineLabels(s.labelLines(input, false))
	case TaskExtractTypes:
		content = EncodeExtractions(s.extractTypes(input))
	case TaskNormalizeTypes:
		content = EncodeNormalizations(s.normalize(input, s.typeIndex, taxonomy.TypeCategories()))
	case TaskExtractPurposes:
		content = EncodeExtractions(s.extractPurposes(input))
	case TaskNormalizePurposes:
		content = EncodeNormalizations(s.normalize(input, s.purposeIndex, taxonomy.PurposeCategories()))
	case TaskHandlingLabels:
		content = EncodeLabeledMentions(s.labelHandling(input))
	case TaskRightsLabels:
		content = EncodeLabeledMentions(s.labelRights(input))
	default:
		return Response{}, fmt.Errorf("chatbot: sim cannot interpret task %q", task)
	}
	return Response{
		Content: content,
		Model:   s.profile.ModelName,
		Usage: Usage{
			PromptTokens:     RequestTokens(&req),
			CompletionTokens: EstimateTokens(content),
		},
	}, nil
}

// numLine is a parsed "[n] text" input line.
type numLine struct {
	n    int
	text string
}

// numberedLines scans the "[n] text" lines of an input in place, skipping
// blank ones; an unnumbered line continues from the previous number (the
// normalize tasks pass bare mention lists).
type numberedLines struct {
	rest string
	cur  numLine
}

// scan moves to the next line, reporting false at the end of the input.
func (sc *numberedLines) scan() bool {
	for sc.rest != "" {
		line := sc.rest
		sc.rest = ""
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line, sc.rest = line[:i], line[i+1:]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		n, text := sc.cur.n+1, line
		if strings.HasPrefix(line, "[") {
			if i := strings.IndexByte(line, ']'); i > 1 {
				if v, err := strconv.Atoi(strings.TrimSpace(line[1:i])); err == nil {
					n, text = v, strings.TrimSpace(line[i+1:])
				}
			}
		}
		sc.cur = numLine{n: n, text: text}
		return true
	}
	return false
}

// fnvHash is an inline FNV-1a accumulator. The sim draws several decisions
// per input line; hashing in place (instead of fnv.New64a + Fprintf per
// draw) keeps the hot path allocation-free while producing bit-identical
// sums to the hash/fnv implementation it replaces.
type fnvHash uint64

const (
	fnvOffset64 fnvHash = 14695981039346656037
	fnvPrime64  fnvHash = 1099511628211
)

func (h fnvHash) byte(b byte) fnvHash { return (h ^ fnvHash(b)) * fnvPrime64 }

func (h fnvHash) str(s string) fnvHash {
	for i := 0; i < len(s); i++ {
		h = (h ^ fnvHash(s[i])) * fnvPrime64
	}
	return h
}

// num hashes the decimal digits of n, matching the byte stream the old
// fmt.Fprintf("%d") / strconv.Itoa key parts produced.
func (h fnvHash) num(n int64) fnvHash {
	var buf [20]byte
	for _, c := range strconv.AppendInt(buf[:0], n, 10) {
		h = h.byte(c)
	}
	return h
}

// unum is num for unsigned values (the profile seed), matching %d on a
// uint64 across the full range.
func (h fnvHash) unum(n uint64) fnvHash {
	var buf [20]byte
	for _, c := range strconv.AppendUint(buf[:0], n, 10) {
		h = h.byte(c)
	}
	return h
}

func (h fnvHash) draw() float64 { return float64(uint64(h)%1e9) / 1e9 }

func (s *Sim) decideBase() fnvHash {
	return fnvOffset64.unum(s.profile.Seed)
}

// decide returns a deterministic pseudo-random draw in [0,1) for the given
// decision key, so that identical runs reproduce identical "mistakes".
func (s *Sim) decide(parts ...string) float64 {
	h := s.decideBase()
	for _, p := range parts {
		h = h.byte(0).str(p)
	}
	return h.draw()
}

// decideLine is decide(kind, strconv.Itoa(n), part) without materializing
// the line-number string — the dominant decision shape in extraction.
func (s *Sim) decideLine(kind string, n int, part string) float64 {
	return s.decideBase().byte(0).str(kind).byte(0).num(int64(n)).byte(0).str(part).draw()
}

// ---------------------------------------------------------------- aspects

type aspectRule struct {
	aspect taxonomy.Aspect
	cues   []string
}

// headingRules classify section headings (Appendix B / Figure 2a).
var headingRules = []aspectRule{
	{taxonomy.AspectAudiences, []string{"children", "minors", "california", "european", "gdpr", "nevada", "virginia", "resident", "jurisdiction", "ccpa"}},
	{taxonomy.AspectChanges, []string{"changes", "updates to", "amendments", "modifications to this"}},
	{taxonomy.AspectMethods, []string{"how we collect", "sources of", "collection methods", "cookies", "tracking technologies", "how do we collect", "where we get"}},
	{taxonomy.AspectTypes, []string{"information we collect", "data we collect", "types of data", "categories of", "what information", "what we collect", "personal information we", "data collected", "information collected"}},
	{taxonomy.AspectPurposes, []string{"how we use", "use of", "why we collect", "purposes", "why do we", "what we do with", "how do we use"}},
	{taxonomy.AspectHandling, []string{"retention", "how long", "security", "protect", "safeguard", "storage", "store your"}},
	{taxonomy.AspectSharing, []string{"share", "sharing", "disclosure", "disclose", "third parties", "third-party", "who we", "recipients"}},
	{taxonomy.AspectRights, []string{"your rights", "your choices", "opt-out", "opt out", "your privacy rights", "access and correction", "managing your", "controls", "preferences", "deletion rights"}},
	{taxonomy.AspectOther, []string{"contact", "introduction", "about this", "definitions", "effective date", "overview", "scope"}},
}

func (s *Sim) classifyHeading(text string) []string {
	return s.classifyHeadingLow(strings.ToLower(text))
}

func (s *Sim) classifyHeadingLow(low string) []string {
	labels := headingRuleMatcher().classify(low)
	if len(labels) == 0 {
		labels = []string{string(taxonomy.AspectOther)}
	}
	return labels
}

// classifyBody labels a body line by its content for the full-text
// segmentation fallback; low and toks are the caller's lowercased and
// tokenized forms of text.
func (s *Sim) classifyBody(text, low string, toks []tokenPos) []string {
	var labels []string
	add := func(a taxonomy.Aspect) {
		for _, l := range labels {
			if l == string(a) {
				return
			}
		}
		labels = append(labels, string(a))
	}
	if retentionMatcher().any(low) || protectionMatcher().any(low) {
		add(taxonomy.AspectHandling)
	}
	if choiceMatcher().any(low) || accessMatcher().any(low) {
		add(taxonomy.AspectRights)
	}
	if len(s.purposeMatcher.findToks(text, toks)) > 0 {
		add(taxonomy.AspectPurposes)
	}
	if len(s.typeMatcher.findToks(text, toks)) > 0 {
		add(taxonomy.AspectTypes)
	}
	for _, w := range []string{"share", "disclose", "third part"} {
		if strings.Contains(low, w) {
			add(taxonomy.AspectSharing)
			break
		}
	}
	for _, w := range []string{"children", "california", "gdpr", "european"} {
		if strings.Contains(low, w) {
			add(taxonomy.AspectAudiences)
			break
		}
	}
	if strings.Contains(low, "changes to this") || strings.Contains(low, "update this policy") {
		add(taxonomy.AspectChanges)
	}
	if len(labels) == 0 {
		add(taxonomy.AspectOther)
	}
	return labels
}

func (s *Sim) labelLines(input string, headingsOnly bool) []LineLabels {
	out := make([]LineLabels, 0, strings.Count(input, "\n")+1)
	buf := tokenBufs.Get().(*[]tokenPos)
	scratch := *buf
	for sc := (numberedLines{rest: input}); sc.scan(); {
		l := sc.cur
		var labels []string
		if headingsOnly {
			labels = s.classifyHeading(l.text)
		} else {
			// Fallback mode: a line may mix heading-style cues and body
			// content (short policies collapse to few lines), so take the
			// union of both classifiers.
			low := strings.ToLower(l.text)
			scratch = tokenizeInto(scratch[:0], l.text)
			labels = unionLabels(s.classifyHeadingLow(low), s.classifyBody(l.text, low, scratch))
		}
		out = append(out, LineLabels{Line: l.n, Labels: labels})
	}
	putTokenBuf(buf, scratch)
	return out
}

// tokenBufs pools the token buffer each labeling and extraction request
// tokenizes its lines into, so a request starts from a grown buffer
// instead of doubling one up from nil. Holds *[]tokenPos.
var tokenBufs = sync.Pool{New: func() any { return new([]tokenPos) }}

// putTokenBuf returns a request's token buffer to the pool, keeping
// scratch's backing array. Every entry is cleared first, so a pooled
// buffer does not keep the last request's text alive.
func putTokenBuf(buf *[]tokenPos, scratch []tokenPos) {
	scratch = scratch[:cap(scratch)]
	clear(scratch)
	*buf = scratch[:0]
	tokenBufs.Put(buf)
}

// unionLabels merges label sets, dropping "other" unless it is all there is.
func unionLabels(a, b []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, l := range append(append([]string{}, a...), b...) {
		if l == string(taxonomy.AspectOther) || seen[l] {
			continue
		}
		seen[l] = true
		out = append(out, l)
	}
	if len(out) == 0 {
		return []string{string(taxonomy.AspectOther)}
	}
	return out
}

// ------------------------------------------------------------ extraction

// collectionVerbs gate zero-shot noun-phrase extraction: a candidate only
// counts when the line talks about collecting/receiving data.
var collectionVerbs = []string{
	"collect", "gather", "receive", "obtain", "process", "provide",
	"submit", "request", "record", "log", "store",
}

func hasCollectionContext(low string) bool {
	for _, v := range collectionVerbs {
		if strings.Contains(low, v) {
			return true
		}
	}
	return strings.HasPrefix(low, "*")
}

func (s *Sim) extractTypes(input string) []Extraction {
	var out []Extraction
	buf := tokenBufs.Get().(*[]tokenPos)
	scratch := *buf
	var neg nlp.NegationScope
	for sc := (numberedLines{rest: input}); sc.scan(); {
		l := sc.cur
		low := strings.ToLower(l.text)
		scratch = tokenizeInto(scratch[:0], l.text)
		toks := scratch
		neg.Reset(l.text)
		spans := s.typeMatcher.findToks(l.text, toks)
		if s.profile.NoveltyZeal > 0 && hasCollectionContext(low) {
			for _, np := range findNovelNounPhrases(l.text, toks, spans) {
				if s.decideLine("novel", l.n, np.text) < s.profile.NoveltyZeal {
					spans = append(spans, np)
				}
			}
		}
		for _, sp := range spans {
			if s.skipMention(&neg, l, sp) {
				continue
			}
			text := sp.text
			if s.profile.SpanSloppiness > 0 &&
				s.decideLine("sloppy", l.n, sp.text) < s.profile.SpanSloppiness {
				text = s.sloppySpan(l.text, toks, sp)
			}
			out = append(out, Extraction{Line: l.n, Text: text})
		}
		// Vendor confusion: weak models extract product names as data types.
		if s.profile.VendorConfusion > 0 {
			for _, t := range toks {
				if s.vendorSet[t.word] &&
					s.decideLine("vendor", l.n, t.word) < s.profile.VendorConfusion {
					out = append(out, Extraction{Line: l.n, Text: l.text[t.start:t.end]})
				}
			}
		}
	}
	putTokenBuf(buf, scratch)
	return out
}

func (s *Sim) extractPurposes(input string) []Extraction {
	var out []Extraction
	buf := tokenBufs.Get().(*[]tokenPos)
	scratch := *buf
	var neg nlp.NegationScope
	for sc := (numberedLines{rest: input}); sc.scan(); {
		l := sc.cur
		scratch = tokenizeInto(scratch[:0], l.text)
		neg.Reset(l.text)
		for _, sp := range s.purposeMatcher.findToks(l.text, scratch) {
			if s.skipMention(&neg, l, sp) {
				continue
			}
			out = append(out, Extraction{Line: l.n, Text: sp.text})
		}
	}
	putTokenBuf(buf, scratch)
	return out
}

// skipMention applies the negation instruction and the miss rate; neg is
// the negation scope of l's text, which every mention on the line shares.
func (s *Sim) skipMention(neg *nlp.NegationScope, l numLine, sp matchSpan) bool {
	if neg.Negated(sp.text) {
		// Instruction-faithful models skip; weak models extract anyway with
		// probability NegationErrorRate.
		if s.decideLine("neg", l.n, sp.text) >= s.profile.NegationErrorRate {
			return true
		}
		return false
	}
	return s.decideLine("miss", l.n, sp.text) < s.profile.MissRate
}

// ---------------------------------------------------------- normalization

func (s *Sim) normalize(input string, ix *taxonomy.Index, cats []taxonomy.Category) []Normalization {
	var out []Normalization
	for sc := (numberedLines{rest: input}); sc.scan(); {
		l := sc.cur
		mention := l.text
		m, ok := ix.Lookup(mention)
		if !ok {
			// The chatbot invents a descriptor but cannot place it: emit the
			// normalized surface under an empty category; the pipeline drops
			// such rows (mirrors annotations the authors discard).
			out = append(out, Normalization{Surface: mention, Descriptor: nlp.NormalizeStemmed(mention)})
			continue
		}
		if s.profile.MislabelRate > 0 && s.decide("mislabel", mention) < s.profile.MislabelRate {
			// Deterministically shift to a neighboring category.
			for i, c := range cats {
				if c.Name == m.Category {
					alt := cats[(i+1)%len(cats)]
					m.Category, m.Meta = alt.Name, alt.Meta
					break
				}
			}
		}
		out = append(out, Normalization{
			Surface: mention, Meta: m.Meta, Category: m.Category, Descriptor: m.Descriptor,
		})
	}
	return out
}

// ------------------------------------------------------- handling/rights

// The Table 1 label sets are static literals, but the taxonomy functions
// rebuild them (and this file used to rebuild the flattened cue maps) on
// every call — once per input LINE on the labeling paths. Build each once.
var (
	retentionLabels  = sync.OnceValue(taxonomy.RetentionLabels)
	protectionLabels = sync.OnceValue(taxonomy.ProtectionLabels)
	choiceLabels     = sync.OnceValue(taxonomy.ChoiceLabels)
	accessLabels     = sync.OnceValue(taxonomy.AccessLabels)
)

// verbatim recovers the original-case substring of line matching cue; low
// is the caller's already-lowercased copy of line.
func verbatim(line, low, cue string) string {
	if i := strings.Index(low, cue); i >= 0 {
		return line[i : i+len(cue)]
	}
	return cue
}

func (s *Sim) labelHandling(input string) []LabeledMention {
	var out []LabeledMention
	for sc := (numberedLines{rest: input}); sc.scan(); {
		l := sc.cur
		low := strings.ToLower(l.text)
		// Retention: a parsed duration beats the unspecific labels. Both
		// need a retention cue on the line, so only a line with one is
		// parsed for a duration.
		if retentionMatcher().any(low) {
			if p, ok := nlp.ParseRetention(l.text); ok {
				if s.decideLine("hmiss", l.n, "stated") >= s.profile.MissRate {
					out = append(out, LabeledMention{
						Line: l.n, Group: taxonomy.GroupRetention,
						Label: taxonomy.RetentionStated, Text: statedVerbatim(l.text, p.Raw),
					})
				}
			} else {
				for _, m := range retentionMatcher().match(low) {
					if m.Label == taxonomy.RetentionStated {
						continue // anchors alone don't make a stated period
					}
					if s.decideLine("hmiss", l.n, m.Label) < s.profile.MissRate {
						continue
					}
					out = append(out, LabeledMention{
						Line: l.n, Group: taxonomy.GroupRetention,
						Label: m.Label, Text: verbatim(l.text, low, m.Cue),
					})
					break // one retention label per line
				}
			}
		}
		for _, m := range protectionMatcher().match(low) {
			if s.decideLine("pmiss", l.n, m.Label) < s.profile.MissRate {
				continue
			}
			out = append(out, LabeledMention{
				Line: l.n, Group: taxonomy.GroupProtection,
				Label: m.Label, Text: verbatim(l.text, low, m.Cue),
			})
		}
	}
	return out
}

// statedVerbatim expands a parsed duration ("six 6 years") back to the
// verbatim fragment of the line, e.g. "six (6) years".
func statedVerbatim(line, rawWords string) string {
	toks := tokenize(line)
	want := strings.Fields(rawWords)
	if len(want) == 0 {
		return rawWords
	}
	for i := 0; i+len(want) <= len(toks); i++ {
		ok := true
		for k := range want {
			if toks[i+k].word != want[k] {
				ok = false
				break
			}
		}
		if ok {
			return line[toks[i].start:toks[i+len(want)-1].end]
		}
	}
	return rawWords
}

func (s *Sim) labelRights(input string) []LabeledMention {
	var out []LabeledMention
	for sc := (numberedLines{rest: input}); sc.scan(); {
		l := sc.cur
		low := strings.ToLower(l.text)
		for _, m := range choiceMatcher().match(low) {
			if s.decideLine("cmiss", l.n, m.Label) < s.profile.MissRate {
				continue
			}
			out = append(out, LabeledMention{
				Line: l.n, Group: taxonomy.GroupChoices,
				Label: m.Label, Text: verbatim(l.text, low, m.Cue),
			})
		}
		for _, m := range accessMatcher().match(low) {
			if s.decideLine("amiss", l.n, m.Label) < s.profile.MissRate {
				continue
			}
			out = append(out, LabeledMention{
				Line: l.n, Group: taxonomy.GroupAccess,
				Label: m.Label, Text: verbatim(l.text, low, m.Cue),
			})
		}
	}
	return out
}

// sloppySpan widens an extraction by up to two preceding tokens — the
// boundary error weak models make ("collect your email address" instead
// of "email address").
func (s *Sim) sloppySpan(line string, toks []tokenPos, sp matchSpan) string {
	if sp.startTok <= 0 || sp.startTok > len(toks) || sp.endTok > len(toks) {
		return sp.text
	}
	start := sp.startTok - 1
	if start > 0 && s.decide("sloppy2", sp.text) < 0.5 {
		start--
	}
	return line[toks[start].start:toks[sp.endTok-1].end]
}
