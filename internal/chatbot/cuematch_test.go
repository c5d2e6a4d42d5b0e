package chatbot

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"aipan/internal/russell"
	"aipan/internal/taxonomy"
	"aipan/internal/textify"
	"aipan/internal/webgen"
)

// containsMatch is the reference for labelMatcher.match: a plain
// strings.Contains loop over each label's cues, keeping per label the
// longest cue found and, among equally long ones, the earliest in the
// cue list.
func containsMatch(labels []taxonomy.Label, low string) []labelCue {
	var out []labelCue
	for _, l := range labels {
		best, found := "", false
		for _, c := range l.Cues {
			if strings.Contains(low, c) && (!found || len(c) > len(best)) {
				best, found = c, true
			}
		}
		if found {
			out = append(out, labelCue{Label: l.Name, Cue: best})
		}
	}
	return out
}

// containsClassify is the reference for headingMatcher.classify: the
// aspects of the rules with a cue contained in low, in rule order.
func containsClassify(rules []aspectRule, low string) []string {
	var out []string
	for _, r := range rules {
		for _, c := range r.cues {
			if strings.Contains(low, c) {
				out = append(out, string(r.aspect))
				break
			}
		}
	}
	return out
}

// Hand-built cues whose occurrences overlap: a cue shared by two labels,
// equally long cues in one label, cues that are suffixes of each other
// (the automaton merges their outputs along fail links) and periodic
// cues that overlap themselves.
var (
	overlapLabels = []taxonomy.Label{
		{Name: "A", Cues: []string{"data", "data retention", "retention period", "ten"}},
		{Name: "B", Cues: []string{"retention", "ret", "tent", "data retention"}},
		{Name: "C", Cues: []string{"abc", "bca", "cab", "abcabc"}},
		{Name: "D", Cues: []string{"on", "ion", "tion", "ention"}},
		{Name: "E", Cues: []string{"zz", "yy", "zzz"}},
	}
	overlapRules = []aspectRule{
		{taxonomy.AspectTypes, []string{"ab", "b"}},
		{taxonomy.AspectMethods, []string{"abc", "c"}},
		{taxonomy.AspectPurposes, []string{"bc", "ention"}},
		{taxonomy.AspectHandling, []string{"retention"}},
	}
)

// cueTestLines returns the lowercased lines the simulator would label:
// every line of the first sites' privacy pages, each label's templates
// and each aspect's heading glossary.
func cueTestLines(t *testing.T) []string {
	t.Helper()
	g := webgen.New(webgen.Seed, russell.UniqueDomains(russell.Universe(webgen.Seed)))
	var lines []string
	for _, s := range g.Sites()[:6] {
		pages := g.RenderSite(s.Domain)
		var paths []string
		for path := range pages {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			if p := pages[path]; strings.Contains(path, "privacy") && p.RedirectTo == "" && p.Body != "" {
				for _, l := range textify.RenderHTML(p.Body).Lines {
					lines = append(lines, strings.ToLower(l.Text))
				}
			}
		}
	}
	if len(lines) == 0 {
		t.Fatal("webgen rendered no privacy pages")
	}
	for _, labels := range [][]taxonomy.Label{retentionLabels(), protectionLabels(), choiceLabels(), accessLabels()} {
		for _, l := range labels {
			for _, tpl := range l.Templates {
				lines = append(lines, strings.ToLower(tpl))
			}
		}
	}
	for _, a := range taxonomy.Aspects() {
		for _, h := range taxonomy.AspectHeadingGlossary(a) {
			lines = append(lines, strings.ToLower(h))
		}
	}
	return lines
}

// overlapLines joins random cues and cue fragments of the hand-built
// sets, with and without separators, so occurrences overlap and abut.
func overlapLines() []string {
	var parts []string
	for _, l := range overlapLabels {
		parts = append(parts, l.Cues...)
	}
	for _, r := range overlapRules {
		parts = append(parts, r.cues...)
	}
	seps := []string{"", "", " ", "x", "a"}
	rng := rand.New(rand.NewSource(1))
	lines := []string{"", "nothing here", "abcabcab", "data retention period", "zzzz yyy"}
	for i := 0; i < 3000; i++ {
		var b strings.Builder
		for n := 1 + rng.Intn(5); n > 0; n-- {
			p := parts[rng.Intn(len(parts))]
			if rng.Intn(3) == 0 && len(p) > 1 { // a fragment: drop a prefix or a suffix
				if rng.Intn(2) == 0 {
					p = p[1:]
				} else {
					p = p[:len(p)-1]
				}
			}
			b.WriteString(p)
			b.WriteString(seps[rng.Intn(len(seps))])
		}
		lines = append(lines, b.String())
	}
	return lines
}

// TestCueMatchersAgreeWithContains pins the cue automaton, the repo's
// one Aho–Corasick matcher, to the per-cue strings.Contains loops it
// stands in for: labelMatcher.any and .match for the four Table 1 label
// groups, and headingMatcher.classify for the heading rules, over every
// line of a few webgen policies, and the same matchers built over
// hand-made overlapping cues.
func TestCueMatchersAgreeWithContains(t *testing.T) {
	policy := cueTestLines(t)
	overlap := overlapLines()
	groups := []struct {
		name   string
		m      *labelMatcher
		labels []taxonomy.Label
		lines  []string
	}{
		{"retention", retentionMatcher(), retentionLabels(), policy},
		{"protection", protectionMatcher(), protectionLabels(), policy},
		{"choices", choiceMatcher(), choiceLabels(), policy},
		{"access", accessMatcher(), accessLabels(), policy},
		{"overlap", newLabelMatcher(overlapLabels), overlapLabels, overlap},
	}
	for _, g := range groups {
		hits := 0
		for _, low := range g.lines {
			want := containsMatch(g.labels, low)
			if got := g.m.match(low); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: match(%q) = %v, want %v", g.name, low, got, want)
			}
			if got := g.m.any(low); got != (len(want) > 0) {
				t.Errorf("%s: any(%q) = %v, want %v", g.name, low, got, len(want) > 0)
			}
			if len(want) > 0 {
				hits++
			}
		}
		if hits == 0 {
			t.Errorf("%s: no line holds a cue, so the comparison shows nothing", g.name)
		}
	}

	headings := []struct {
		name  string
		m     *headingMatcher
		rules []aspectRule
		lines []string
	}{
		{"headings", headingRuleMatcher(), headingRules, policy},
		{"overlap", newHeadingMatcher(overlapRules), overlapRules, overlap},
	}
	for _, h := range headings {
		multi := 0
		for _, low := range h.lines {
			want := containsClassify(h.rules, low)
			if got := h.m.classify(low); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: classify(%q) = %v, want %v", h.name, low, got, want)
			}
			if len(want) > 1 {
				multi++
			}
		}
		if multi == 0 {
			t.Errorf("%s: no line hits two rules, so rule order goes unchecked", h.name)
		}
	}
}
