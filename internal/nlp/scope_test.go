package nlp_test

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"aipan/internal/nlp"
	"aipan/internal/russell"
	"aipan/internal/textify"
	"aipan/internal/webgen"
)

// edgeLines are hand-built lines for the negation scope: negated and
// hypothetical sentences beside plain ones, splits suppressed by "e.g."
// and decimals, mentions that only the whole line holds, scope breakers,
// a line that is its own only sentence, padding, and no words at all.
var edgeLines = []string{
	"We do not collect biometric data. We collect your email address.",
	"We collect your email address. We do not collect biometric data.",
	"We do not collect your email. Address books are kept on your device.",
	"This notice does not apply to campaign data. We collect device identifiers.",
	"We collect your name; this policy does not apply to cookies.",
	"We never sell data, e.g. your phone numbers. We may log 2.5 years of history.",
	"We do not sell data, but we collect your email address for service.",
	"Without your consent we will not share location data",
	"Information outside the scope of this notice. Your IP address is processed!",
	"We don't store payment card details? We store billing addresses.",
	"  Padded line. Not covered by anything.  ",
	"...",
	"",
	"Email addresses, phone numbers and postal addresses are collected.",
}

// edgeMentions are mentions every line is queried with besides its own
// words: words no line holds, words with no tokens, and plural forms.
var edgeMentions = []string{"", "...", " — ", "biometric data", "email address",
	"address", "addresses", "data", "quantum soul resonance", "cookies", "name"}

// webgenLines returns the rendered lines of the privacy pages of the
// first n webgen sites.
func webgenLines(tb testing.TB, n int) []string {
	tb.Helper()
	g := webgen.New(webgen.Seed, russell.UniqueDomains(russell.Universe(webgen.Seed)))
	var lines []string
	for _, s := range g.Sites()[:n] {
		pages := g.RenderSite(s.Domain)
		var paths []string
		for path := range pages {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			if p := pages[path]; strings.Contains(path, "privacy") && p.RedirectTo == "" && p.Body != "" {
				for _, l := range textify.RenderHTML(p.Body).Lines {
					lines = append(lines, l.Text)
				}
			}
		}
	}
	if len(lines) == 0 {
		tb.Fatal("webgen rendered no privacy lines")
	}
	return lines
}

// lineMentions draws the mentions a line is queried with: runs of its
// own words, a gapped pair, a plural, a pair across a sentence break,
// a run from another line, and the edge mentions.
func lineMentions(r *rand.Rand, line, other string) []string {
	ms := append([]string{}, edgeMentions...)
	fs := strings.Fields(line)
	window := func(fs []string, k int) string {
		if len(fs) == 0 {
			return ""
		}
		i := r.Intn(len(fs))
		return strings.Join(fs[i:min(len(fs), i+1+r.Intn(k))], " ")
	}
	for range 4 {
		ms = append(ms, window(fs, 4))
	}
	if len(fs) > 2 {
		ms = append(ms, fs[0]+" "+fs[2], fs[len(fs)-1]+"s")
	}
	if ss := nlp.Sentences(line); len(ss) > 1 {
		a, b := strings.Fields(ss[0]), strings.Fields(ss[1])
		ms = append(ms, a[len(a)-1]+" "+b[0])
	}
	return append(ms, window(strings.Fields(other), 3))
}

// reference is what the negation scope must answer for a mention.
func reference(line, mention string) bool {
	return nlp.IsNegatedMention(nlp.SentenceOf(line, mention), mention)
}

// TestNegationScopeMatchesReference: one scope, reset per line and
// queried with every mention of the line in turn, answers exactly
// IsNegatedMention(SentenceOf(line, m), m) — on the hand-built lines
// and on every privacy-page line of 30 webgen sites — and the pairs
// reach negated, hypothetical and whole-line answers.
func TestNegationScopeMatchesReference(t *testing.T) {
	lines := append(append([]string{}, edgeLines...), webgenLines(t, 30)...)
	r := rand.New(rand.NewSource(1))
	var sc nlp.NegationScope
	var pairs, negated, hypothetical, wholeLine int
	for i, line := range lines {
		sc.Reset(line)
		for _, m := range lineMentions(r, line, lines[r.Intn(len(lines))]) {
			want := reference(line, m)
			if got := sc.Negated(m); got != want {
				t.Errorf("line %d %q, mention %q: scope %v, reference %v", i, line, m, got, want)
			}
			pairs++
			span := nlp.SentenceOf(line, m)
			if want {
				negated++
				if nlp.IsNegatedMention(span, "") {
					hypothetical++
				}
			}
			if span == line && len(nlp.Sentences(line)) > 1 && want {
				wholeLine++
			}
		}
	}
	t.Logf("%d pairs, %d negated (%d hypothetical, %d on the whole-line span)", pairs, negated, hypothetical, wholeLine)
	if negated == 0 || hypothetical == 0 || wholeLine == 0 {
		t.Errorf("pairs reach %d negated, %d hypothetical and %d whole-line negated answers, want some of each",
			negated, hypothetical, wholeLine)
	}
}

// TestSingularMatchesReference: Singular equals the pre-shortcut
// reference on every word of the webgen lines, on every lookup-table key
// and on suffix variants of each.
func TestSingularMatchesReference(t *testing.T) {
	words := nlp.SingularCases()
	for _, line := range append(webgenLines(t, 30), edgeLines...) {
		words = append(words, nlp.Words(line)...)
	}
	for _, w := range append([]string{}, words...) {
		words = append(words, w+"s", w+"es", w+"ies", strings.TrimSuffix(w, "s"))
	}
	words = append(words, "", "s", "ss", "is", "ies", "xies", "sses", "zes", "ches")
	for _, w := range words {
		if got, want := nlp.Singular(w), nlp.SingularReference(w); got != want {
			t.Errorf("Singular(%q) = %q, reference %q", w, got, want)
		}
	}
}

// FuzzNegationScope: a scope answers every query like the reference —
// after a Reset from another line, and when one line is queried with two
// mentions and the first again, so no derived form leaks between lines
// or mentions.
func FuzzNegationScope(f *testing.F) {
	lines := append(append([]string{}, edgeLines...), webgenLines(f, 3)...)
	r := rand.New(rand.NewSource(2))
	for _, line := range lines {
		ms := lineMentions(r, line, lines[r.Intn(len(lines))])
		f.Add(line, ms[r.Intn(len(ms))], ms[len(edgeMentions)+r.Intn(len(ms)-len(edgeMentions))])
	}
	f.Fuzz(func(t *testing.T, line, m1, m2 string) {
		var sc nlp.NegationScope
		sc.Reset(edgeLines[len(line)%len(edgeLines)])
		sc.Negated(m2)
		sc.Reset(line)
		for _, m := range []string{m1, m2, m1} {
			if got, want := sc.Negated(m), reference(line, m); got != want {
				t.Fatalf("line %q, mention %q: scope %v, reference %v", line, m, got, want)
			}
		}
	})
}

// FuzzSingular: Singular equals the pre-shortcut reference on any string.
func FuzzSingular(f *testing.F) {
	for _, w := range nlp.SingularCases() {
		f.Add(w)
	}
	for _, w := range nlp.Words(strings.Join(webgenLines(f, 1), " ")) {
		f.Add(w)
	}
	f.Fuzz(func(t *testing.T, w string) {
		if got, want := nlp.Singular(w), nlp.SingularReference(w); got != want {
			t.Fatalf("Singular(%q) = %q, reference %q", w, got, want)
		}
	})
}
