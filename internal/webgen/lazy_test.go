package webgen

import (
	"reflect"
	"testing"

	"aipan/internal/russell"
)

// TestLazyMatchesEagerAtPaperSize: on the paper roster every site is its
// unpinned derivation, except the three §5 retention extremes — the first
// two sites in domain order that state a retention period (1 day) and the
// last one (50 years) — which differ in that period alone.
func TestLazyMatchesEagerAtPaperSize(t *testing.T) {
	g := New(Seed, russell.UniqueDomains(russell.Universe(Seed)))
	bare := *g
	bare.pins = nil
	var stated []string
	for _, d := range g.Domains() {
		ps, bs := g.Site(d), bare.Site(d)
		for _, h := range bs.Truth.Handling {
			if h.Label == "Stated" && bs.Failure == FailNone {
				stated = append(stated, d)
				break
			}
		}
		if days, ok := g.pins[d]; ok {
			for i := range bs.Truth.Handling {
				if bs.Truth.Handling[i].Label == "Stated" {
					bs.Truth.Handling[i].RetentionDays = days
				}
			}
		}
		if !reflect.DeepEqual(*ps, *bs) {
			t.Fatalf("site %s differs from its derivation beyond its retention pin", d)
		}
	}
	if len(stated) < 3 {
		t.Fatalf("only %d sites state a retention period", len(stated))
	}
	want := map[string]int{stated[0]: 1, stated[1]: 1, stated[len(stated)-1]: 50 * 365}
	if !reflect.DeepEqual(g.pins, want) {
		t.Fatalf("retention pins = %v, want %v", g.pins, want)
	}
}

// TestLazySiteDeterministic: off the paper roster, repeated derivations
// of the same site are identical, and so are their renders.
func TestLazySiteDeterministic(t *testing.T) {
	domains := russell.UniqueDomains(russell.UniverseSized(Seed, 4000))
	g := New(Seed, domains)
	if g.pins != nil {
		t.Fatal("a 4,000-domain roster pinned retention extremes")
	}
	d := g.Domains()[17]
	if !reflect.DeepEqual(*g.Site(d), *g.Site(d)) {
		t.Fatal("derived Site is not deterministic")
	}
	if !reflect.DeepEqual(g.RenderSite(d), g.RenderSite(d)) {
		t.Fatal("derived RenderSite is not deterministic")
	}
}

// TestLazyScaledFailurePlan: a scaled universe keeps every §4 failure
// class represented, at roughly the paper's rates.
func TestLazyScaledFailurePlan(t *testing.T) {
	const n = 20_000
	domains := russell.UniqueDomains(russell.UniverseSized(Seed, n))
	g := New(Seed, domains)
	byClass := map[FailureClass]int{}
	for _, c := range g.failures {
		byClass[c]++
	}
	scale := float64(n) / float64(russell.NumDomains)
	for _, fp := range failurePlan {
		got := byClass[fp.class]
		want := int(float64(fp.count) * scale)
		if got == 0 {
			t.Fatalf("failure class %q unrepresented at n=%d", fp.class, n)
		}
		if got < want*9/10 || got > want*11/10+1 {
			t.Fatalf("failure class %q count %d far from scaled target %d", fp.class, got, want)
		}
	}
}
