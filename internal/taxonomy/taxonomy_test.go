package taxonomy

import (
	"fmt"
	"strings"
	"testing"

	"aipan/internal/nlp"
)

func TestTypeTaxonomyShape(t *testing.T) {
	cats := TypeCategories()
	if len(cats) != 34 {
		t.Errorf("got %d type categories, want 34 (paper §3.2.2)", len(cats))
	}
	metas := MetaCategories(cats)
	if len(metas) != 6 {
		t.Errorf("got %d meta-categories, want 6", len(metas))
	}
	nDesc := 0
	for _, c := range cats {
		if len(c.Descriptors) == 0 {
			t.Errorf("category %q has no descriptors", c.Name)
		}
		if c.Meta == "" {
			t.Errorf("category %q has no meta", c.Name)
		}
		nDesc += len(c.Descriptors)
	}
	if nDesc < 125 {
		t.Errorf("got %d descriptors, want >= 125 (paper §3.2.2)", nDesc)
	}
}

func TestPurposeTaxonomyShape(t *testing.T) {
	cats := PurposeCategories()
	if len(cats) != 7 {
		t.Errorf("got %d purpose categories, want 7", len(cats))
	}
	if got := len(MetaCategories(cats)); got != 3 {
		t.Errorf("got %d purpose meta-categories, want 3", got)
	}
	nDesc := 0
	for _, c := range cats {
		nDesc += len(c.Descriptors)
	}
	if nDesc != 48 {
		t.Errorf("got %d purpose descriptors, want 48 (paper §3.2.2)", nDesc)
	}
}

func TestLabelSetsMatchPaper(t *testing.T) {
	if got := len(RetentionLabels()); got != 3 {
		t.Errorf("retention labels = %d, want 3", got)
	}
	if got := len(ProtectionLabels()); got != 7 {
		t.Errorf("protection labels = %d, want 7", got)
	}
	if got := len(ChoiceLabels()); got != 5 {
		t.Errorf("choice labels = %d, want 5", got)
	}
	if got := len(AccessLabels()); got != 6 {
		t.Errorf("access labels = %d, want 6", got)
	}
	for group, labels := range AllLabelGroups() {
		for _, l := range labels {
			if l.Group != group {
				t.Errorf("label %q group %q, want %q", l.Name, l.Group, group)
			}
			if len(l.Cues) == 0 || len(l.Templates) == 0 || l.Desc == "" {
				t.Errorf("label %q incomplete", l.Name)
			}
		}
	}
}

func TestNoDuplicateDescriptorKeysWithinTaxonomy(t *testing.T) {
	for _, cats := range [][]Category{TypeCategories(), PurposeCategories()} {
		seen := map[string]string{}
		for _, c := range cats {
			for _, d := range c.Descriptors {
				key := nlp.NormalizeStemmed(d.Name)
				if prev, dup := seen[key]; dup {
					t.Errorf("descriptor %q in %q collides with %q", d.Name, c.Name, prev)
				}
				seen[key] = c.Name + "/" + d.Name
			}
		}
	}
}

func TestTypeIndexExactLookup(t *testing.T) {
	ix := NewTypeIndex()
	cases := []struct {
		phrase, meta, cat, desc string
	}{
		{"email address", MetaPhysicalProfile, "Contact info", "email address"},
		{"Email Addresses", MetaPhysicalProfile, "Contact info", "email address"},
		{"mailing address", MetaPhysicalProfile, "Contact info", "postal address"},
		{"home address", MetaPhysicalProfile, "Contact info", "postal address"},
		{"IP address", MetaDigitalProfile, "Online identifier", "ip address"},
		{"cookies", MetaDigitalBehavior, "Tracking data", "cookies"},
		{"latitude and longitude coordinates", MetaPhysicalBehavior, "Precise location", "gps location"},
		{"imagery of the iris or retina", MetaBioHealthProfile, "Biometric data", "retina scan"},
		{"credit card number", MetaFinancialLegal, "Financial info", "payment card info"},
		{"your name", MetaPhysicalProfile, "Personal identifier", "name"},
	}
	for _, c := range cases {
		m, ok := ix.Lookup(c.phrase)
		if !ok {
			t.Errorf("Lookup(%q) failed", c.phrase)
			continue
		}
		if m.Meta != c.meta || m.Category != c.cat || m.Descriptor != c.desc {
			t.Errorf("Lookup(%q) = %+v, want %s/%s/%s", c.phrase, m, c.meta, c.cat, c.desc)
		}
		if m.Novel {
			t.Errorf("Lookup(%q) marked novel", c.phrase)
		}
	}
}

func TestTypeIndexQualifierStripping(t *testing.T) {
	ix := NewTypeIndex()
	m, ok := ix.Lookup("your email address")
	if !ok || m.Descriptor != "email address" {
		t.Errorf("qualifier stripping failed: %+v %v", m, ok)
	}
}

func TestTypeIndexZeroShot(t *testing.T) {
	ix := NewTypeIndex()
	// "student visa status" is not a glossary descriptor; the "immigration"/
	// legal triggers are absent, but "insurance" trigger test below:
	m, ok := ix.Lookup("pet insurance enrollment")
	if !ok {
		t.Fatal("zero-shot lookup failed entirely")
	}
	if !m.Novel {
		t.Errorf("expected novel match, got %+v", m)
	}
	if m.Category != "Insurance info" {
		t.Errorf("zero-shot category = %q, want Insurance info", m.Category)
	}
}

func TestTypeIndexFuzzy(t *testing.T) {
	ix := NewTypeIndex()
	m, ok := ix.Lookup("emall address") // typo within distance budget
	if !ok || m.Descriptor != "email address" {
		t.Errorf("fuzzy lookup = %+v, %v", m, ok)
	}

	// "passpord" is one edit from both "passport" (Personal identifier)
	// and "password" (Account info): the smaller key must win on every
	// call, not whichever key map iteration reaches first.
	want, ok := ix.Lookup("passport")
	if !ok || want.Category != "Personal identifier" {
		t.Fatalf("Lookup(passport) = %+v, %v; want the Personal identifier descriptor", want, ok)
	}
	for i := 0; i < 200; i++ {
		if got, ok := ix.Lookup("passpord"); !ok || got != want {
			t.Fatalf("call %d: Lookup(passpord) = %+v, %v; want %+v", i, got, ok, want)
		}
	}
}

// TestZeroShotGoldenTieBreaks pins the zero-shot stage's resolution order
// on a hand-built index with no descriptors, so every lookup falls
// through to the trigger lemmas:
//
//   - a single-word lemma match anywhere beats a multi-word lemma match,
//     even an earlier and longer one;
//   - among single-word matches, the earliest word position wins, and the
//     smallest trigger index breaks position ties;
//   - among multi-word matches (when no single-word lemma hits), trigger
//     registration order wins regardless of position in the phrase;
//   - lemmas match whole words only — embedding in a longer token is not
//     a match.
func TestZeroShotGoldenTieBreaks(t *testing.T) {
	ix := NewIndex([]Category{
		{Meta: "m1", Name: "alpha", Triggers: []string{"credit card", "card"}},
		{Meta: "m2", Name: "beta", Triggers: []string{"credit", "social media"}},
		{Meta: "m3", Name: "gamma", Triggers: []string{"media card"}},
	})
	cases := []struct {
		phrase   string
		wantOK   bool
		category string
	}{
		// "credit card ..." contains multi "credit card" (alpha, first
		// registered), but single-word "credit" (beta) at word 0 wins.
		{"credit card number", true, "beta"},
		// Earliest word position wins among single-word lemmas: "card"
		// (word 1) beats "credit" (word 2).
		{"number card credit", true, "alpha"},
		// No single-word lemma present: multi-word triggers resolve in
		// registration order — "credit card" (alpha) is checked before
		// "media card" (gamma) even though "media card" starts earlier.
		{"media card credit card", true, "alpha"},
		// Multi-word only, one candidate.
		{"likes social media posts", true, "beta"},
		// Whole-word boundaries: embedded lemmas do not match.
		{"carded discredit cardinal", false, ""},
		{"socialmedia mediacard", false, ""},
		// Multi-word lemma must match as consecutive whole words.
		{"social and media", false, ""},
		{"media social", false, ""},
	}
	for _, c := range cases {
		got, ok := ix.Lookup(c.phrase)
		if ok != c.wantOK {
			t.Errorf("%q: ok=%v, want %v", c.phrase, ok, c.wantOK)
			continue
		}
		if ok && got.Category != c.category {
			t.Errorf("%q: category %q, want %q", c.phrase, got.Category, c.category)
		}
		if want := nlp.NormalizeStemmed(c.phrase); ok && (!got.Novel || got.Descriptor != want) {
			t.Errorf("%q: zero-shot match must be Novel with descriptor %q, got %+v", c.phrase, want, got)
		}
	}
}

func TestTypeIndexMiss(t *testing.T) {
	ix := NewTypeIndex()
	if m, ok := ix.Lookup("zygomorphic flowers"); ok {
		t.Errorf("nonsense phrase matched: %+v", m)
	}
	if _, ok := ix.Lookup(""); ok {
		t.Error("empty phrase matched")
	}
}

func TestPurposeIndexLookup(t *testing.T) {
	ix := NewPurposeIndex()
	cases := []struct{ phrase, cat, desc string }{
		{"customer service", "Basic functioning", "cust. service"},
		{"fraud prevention", "Security", "fraud prevention"},
		{"prevent fraud", "Security", "fraud prevention"},
		{"targeted advertising", "Advertising & sales", "targeted advertising"},
		{"sell your personal information", "Data sharing", "data for sale"},
		{"comply with applicable laws", "Legal & compliance", "legal compliance"},
		{"personalize your experience", "User experience", "personalization"},
	}
	for _, c := range cases {
		m, ok := ix.Lookup(c.phrase)
		if !ok || m.Category != c.cat || m.Descriptor != c.desc {
			t.Errorf("Lookup(%q) = %+v,%v want %s/%s", c.phrase, m, ok, c.cat, c.desc)
		}
	}
}

func TestGlossaryRendering(t *testing.T) {
	ix := NewTypeIndex()
	g := ix.Glossary(3)
	if !strings.Contains(g, "Contact info") || !strings.Contains(g, `"email address"`) {
		t.Errorf("glossary missing entries:\n%s", g)
	}
	// maxPerCategory enforced: "fax number" is the 4th contact descriptor.
	if strings.Contains(g, "fax number") {
		t.Error("glossary exceeded maxPerCategory")
	}
	full := ix.Glossary(0)
	if !strings.Contains(full, "fax number") {
		t.Error("unbounded glossary missing descriptors")
	}
}

func TestAspects(t *testing.T) {
	if got := len(Aspects()); got != 9 {
		t.Errorf("aspects = %d, want 9", got)
	}
	if got := len(CoreAspects()); got != 4 {
		t.Errorf("core aspects = %d, want 4", got)
	}
	for _, a := range Aspects() {
		if AspectDescription(a) == "" {
			t.Errorf("aspect %q has no description", a)
		}
		if len(AspectHeadingGlossary(a)) == 0 {
			t.Errorf("aspect %q has no heading glossary", a)
		}
	}
}

func TestFindCategory(t *testing.T) {
	cats := TypeCategories()
	c, ok := FindCategory(cats, "Tracking data")
	if !ok || c.Meta != MetaDigitalBehavior {
		t.Errorf("FindCategory = %+v, %v", c, ok)
	}
	if _, ok := FindCategory(cats, "Nope"); ok {
		t.Error("bogus category found")
	}
}

func TestTable1TopDescriptorsPresent(t *testing.T) {
	// Spot-check that every top-1 descriptor from Table 4 exists.
	ix := NewTypeIndex()
	tops := []string{
		"email address", "name", "employment history", "gender",
		"educational info", "vehicle info", "browser type", "ip address",
		"username", "isp", "social media handle", "third-party data",
		"medical info", "biometric data", "physical characteristics",
		"physical activity info", "payment card info", "signature", "income",
		"health insurance", "gps location", "country", "movement patterns",
		"in-store interactions", "browsing history", "cookies",
		"user engagement metrics", "purchase history", "language preferences",
		"uploaded media", "email records", "survey responses",
		"accessed content", "error reports",
	}
	for _, d := range tops {
		m, ok := ix.Lookup(d)
		if !ok || m.Novel {
			t.Errorf("top descriptor %q not resolvable exactly (%+v, %v)", d, m, ok)
		}
	}
}

func BenchmarkTypeLookup(b *testing.B) {
	ix := NewTypeIndex()
	phrases := []string{"email address", "your mailing address", "gps coordinates", "pet insurance enrollment"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix.Lookup(phrases[i%len(phrases)])
	}
}

// BenchmarkTaxonomyLookup measures the zero-shot path (glossary miss →
// trigger scan) on phrases of growing length.
func BenchmarkTaxonomyLookup(b *testing.B) {
	ix := NewTypeIndex()
	phrases := []string{
		"miscellaneous telemetry readings",
		"aggregated regional broadcast preferences and slots",
		"completely unrelated administrative filing codes with several more words attached",
	}
	for _, p := range phrases {
		b.Run(fmt.Sprintf("words=%d", len(strings.Fields(p))), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix.Lookup(p)
			}
		})
	}
}
