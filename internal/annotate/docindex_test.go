package annotate

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"aipan/internal/nlp"
	"aipan/internal/russell"
	"aipan/internal/textify"
	"aipan/internal/webgen"
)

// memoCheck is one (referenced line, mention) pair with the reference
// answers of the hallucination filter and the context sentence.
type memoCheck struct {
	line    int
	mention string
	present bool   // nlp.ContainsWords on the line, else on any line
	context string // nlp.SentenceOf on the line, "" out of range
}

// edgeDoc holds the sentence splits the memo must reproduce: several
// sentences, splits suppressed by "e.g."/"i.e."/"etc."/initials and by
// decimals, lines padded with spaces, and empty and punctuation-only
// lines.
var edgeDoc = &textify.Document{Lines: []textify.Line{
	{Number: 1, Text: "We collect data, e.g. your name and email address. We keep it for 2.5 years! Do you agree? Yes; we do."},
	{Number: 2, Text: "U.S. residents may opt out of marketing emails at any time. Others may not."},
	{Number: 3, Text: "Cookies (i.e. small files) help us. See our cookie notice etc. for details."},
	{Number: 4, Text: "A single sentence about device identifiers without a terminal stop"},
	{Number: 5, Text: ""},
	{Number: 6, Text: "..."},
	{Number: 7, Text: "  Padded line. With spaces around it.  "},
	{Number: 8, Text: "Version 3.5 of this policy applies from 1.1.2024 onwards. Contact us with questions."},
	{Number: 9, Text: "We retain account data for 30 days; backups for 90 days."},
	{Number: 10, Text: "Email addresses, phone numbers and postal addresses are collected."},
	{Number: 11, Text: " A padded single sentence about location data "},
}}

// webgenPolicyDocs renders the privacy pages of the first n sites.
func webgenPolicyDocs(t *testing.T, n int) []*textify.Document {
	t.Helper()
	g := webgen.New(webgen.Seed, russell.UniqueDomains(russell.Universe(webgen.Seed)))
	var docs []*textify.Document
	for _, s := range g.Sites()[:n] {
		pages := g.RenderSite(s.Domain)
		var paths []string
		for path := range pages {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			if p := pages[path]; strings.Contains(path, "privacy") && p.RedirectTo == "" && p.Body != "" {
				docs = append(docs, textify.RenderHTML(p.Body))
			}
		}
	}
	if len(docs) == 0 {
		t.Fatal("webgen rendered no privacy pages")
	}
	return docs
}

// window returns a run of up to k whitespace fields of text starting at a
// random field, punctuation and case kept as a chatbot would quote them.
func window(r *rand.Rand, text string, k int) string {
	fs := strings.Fields(text)
	if len(fs) == 0 {
		return ""
	}
	i := r.Intn(len(fs))
	j := min(len(fs), i+1+r.Intn(k))
	return strings.Join(fs[i:j], " ")
}

// memoChecks draws mentions for every line of doc: runs of the line's own
// words, a gapped pair, a plural form, a run from another line (the
// lenient path), an invented phrase, and empty and punctuation-only
// mentions, each referenced from its line and some from out-of-range line
// numbers.
func memoChecks(r *rand.Rand, doc *textify.Document) []memoCheck {
	n := len(doc.Lines)
	var checks []memoCheck
	add := func(line int, mention string) {
		c := memoCheck{line: line, mention: mention}
		if l, ok := doc.LineByNumber(line); ok {
			c.present = nlp.ContainsWords(l.Text, mention)
			c.context = nlp.SentenceOf(l.Text, mention)
		}
		for i := 0; !c.present && i < n; i++ {
			c.present = nlp.ContainsWords(doc.Lines[i].Text, mention)
		}
		checks = append(checks, c)
	}
	for i, l := range doc.Lines {
		line := i + 1
		add(line, window(r, l.Text, 4))
		add(line, window(r, l.Text, 2))
		if fs := strings.Fields(l.Text); len(fs) > 2 {
			add(line, fs[0]+" "+fs[2])
			add(line, fs[len(fs)-1]+"s")
		}
		add(line, window(r, doc.Lines[r.Intn(n)].Text, 3))
	}
	for _, line := range []int{0, -1, n + 1, n + 7} {
		add(line, window(r, doc.Lines[r.Intn(n)].Text, 3))
	}
	for _, m := range []string{"", "...", " — ", "quantum soul resonance data"} {
		add(1+r.Intn(n), m)
		add(0, m)
	}
	return checks
}

// TestMemoMatchesReferencePredicates: the per-line memo's filter and
// context answers equal nlp.ContainsWords and nlp.SentenceOf on the
// referenced line (falling back to any line for the filter), with the
// four aspects' lookups interleaved concurrently on one docContext — and
// with the filter off, every mention passes while the context is
// unchanged.
func TestMemoMatchesReferencePredicates(t *testing.T) {
	docs := append([]*textify.Document{edgeDoc}, webgenPolicyDocs(t, 12)...)
	on, off := New(nil), New(nil, WithHallucinationFilter(false))
	var lenient, laterSentence, multiSentence int
	for di, doc := range docs {
		checks := memoChecks(rand.New(rand.NewSource(int64(di))), doc)
		dc := &docContext{doc: doc, lines: make([]lineMemo, len(doc.Lines))}
		got := make([]memoCheck, len(checks))
		var wg sync.WaitGroup
		for aspect := 0; aspect < 4; aspect++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := aspect; i < len(checks); i += 4 {
					c := checks[i]
					pw := stemmedWords(c.mention)
					got[i] = memoCheck{
						line:    c.line,
						mention: c.mention,
						present: on.verifyMention(dc, c.line, pw),
						context: dc.contextSentence(c.line, pw),
					}
					if !off.verifyMention(dc, c.line, pw) {
						t.Errorf("filter off dropped %q on line %d", c.mention, c.line)
					}
				}
			}()
		}
		wg.Wait()
		for i, c := range checks {
			if got[i] != c {
				t.Errorf("doc %d line %d mention %q: memo (present %v, context %q), reference (%v, %q)",
					di, c.line, c.mention, got[i].present, got[i].context, c.present, c.context)
			}
			l, ok := doc.LineByNumber(c.line)
			if c.present && (!ok || !nlp.ContainsWords(l.Text, c.mention)) {
				lenient++
			}
			if ok && len(nlp.Sentences(l.Text)) > 1 {
				multiSentence++
				if c.context != "" && c.context != l.Text && !strings.HasPrefix(l.Text, c.context) {
					laterSentence++
				}
			}
		}
	}
	t.Logf("%d docs: %d lenient hits, %d multi-sentence checks, %d later-sentence contexts",
		len(docs), lenient, multiSentence, laterSentence)
	// Each path must actually be exercised for the comparison to mean
	// anything.
	if lenient == 0 || multiSentence == 0 || laterSentence == 0 {
		t.Errorf("vacuous draw: %d lenient hits, %d multi-sentence checks, %d later-sentence contexts",
			lenient, multiSentence, laterSentence)
	}
}
