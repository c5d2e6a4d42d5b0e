package crawler

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"aipan/internal/langid"
	"aipan/internal/russell"
	"aipan/internal/textify"
	"aipan/internal/virtualweb"
	"aipan/internal/webgen"
)

func testCrawler(t *testing.T, cfg Config) (*Crawler, *webgen.Generator) {
	t.Helper()
	g := webgen.New(webgen.Seed, russell.UniqueDomains(russell.Universe(webgen.Seed)))
	cfg.Client = virtualweb.NewTransport(g).Client()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, g
}

func firstWithFailure(g *webgen.Generator, class webgen.FailureClass) *webgen.Site {
	for _, s := range g.Sites() {
		if s.Failure == class {
			return s
		}
	}
	return nil
}

func TestCrawlHealthySite(t *testing.T) {
	c, g := testCrawler(t, Config{})
	s := firstWithFailure(g, webgen.FailNone)
	res := c.CrawlDomain(context.Background(), s.Domain)
	if !res.Success {
		t.Fatalf("healthy site crawl failed: %+v", res)
	}
	if len(res.PrivacyPages) == 0 {
		t.Fatal("no privacy pages found")
	}
	found := false
	for _, p := range res.PrivacyPages {
		if strings.Contains(p.Body, "Privacy Policy") {
			found = true
		}
	}
	if !found {
		t.Error("no page contains the policy")
	}
	if res.PagesFetched() < 2 || res.PagesFetched() > 31 {
		t.Errorf("pages fetched = %d", res.PagesFetched())
	}
}

func TestCrawlFailureClasses(t *testing.T) {
	c, g := testCrawler(t, Config{})
	ctx := context.Background()
	for _, class := range []webgen.FailureClass{
		webgen.FailNoPolicy, webgen.FailBlocked, webgen.FailTimeout,
		webgen.FailOddLink, webgen.FailJSLink, webgen.FailConsentLink,
	} {
		s := firstWithFailure(g, class)
		if s == nil {
			t.Fatalf("no site with failure %s", class)
		}
		res := c.CrawlDomain(ctx, s.Domain)
		if res.Success {
			t.Errorf("crawl of %s site %s should fail, got %d privacy pages (pages: %d)",
				class, s.Domain, len(res.PrivacyPages), res.PagesFetched())
		}
	}
}

func TestCrawlSucceedsOnExtractionFailureClasses(t *testing.T) {
	// PDF / non-English / JS-only sites crawl fine (§4 counts them as
	// extraction failures, not crawl failures).
	c, g := testCrawler(t, Config{})
	ctx := context.Background()
	for _, class := range []webgen.FailureClass{
		webgen.FailPDFOnly, webgen.FailNonEnglish, webgen.FailJSOnly,
		webgen.FailImagePolicy, webgen.FailStub,
	} {
		s := firstWithFailure(g, class)
		res := c.CrawlDomain(ctx, s.Domain)
		if !res.Success {
			t.Errorf("crawl of %s site %s should succeed", class, s.Domain)
		}
		switch class {
		case webgen.FailPDFOnly:
			if res.PDFCount == 0 {
				t.Errorf("pdf site: PDFCount = 0")
			}
			if len(res.PrivacyPages) != 0 {
				t.Errorf("pdf site should yield no HTML privacy pages")
			}
		case webgen.FailNonEnglish:
			if res.NonEnglish == 0 {
				t.Errorf("non-english site: NonEnglish = 0 (pages %d)", len(res.PrivacyPages))
			}
		}
	}
}

func TestCrawlDedupsDuplicateContent(t *testing.T) {
	c, g := testCrawler(t, Config{})
	ctx := context.Background()
	// Find a site serving /privacy as a copy of another page's body.
	for _, s := range g.Sites() {
		if s.Failure != webgen.FailNone || !s.Layout.WellKnownPrivacy {
			continue
		}
		pages := g.RenderSite(s.Domain)
		alias, ok := pages["/privacy"]
		if !ok || alias.RedirectTo != "" {
			continue
		}
		entryDup := false
		for path, p := range pages {
			if path != "/privacy" && p.RedirectTo == "" && p.Body == alias.Body {
				entryDup = true
			}
		}
		if !entryDup {
			continue
		}
		res := c.CrawlDomain(ctx, s.Domain)
		if res.DuplicateCount == 0 {
			t.Errorf("site %s with duplicate /privacy: DuplicateCount = 0", s.Domain)
		}
		return
	}
	t.Skip("no duplicate-content site found")
}

func TestCrawlHubSite(t *testing.T) {
	c, g := testCrawler(t, Config{})
	for _, s := range g.Sites() {
		if s.Failure != webgen.FailNone || !s.Layout.Hub {
			continue
		}
		res := c.CrawlDomain(context.Background(), s.Domain)
		if !res.Success {
			t.Fatalf("hub site %s crawl failed", s.Domain)
		}
		// The actual policy sits one hop past the hub page.
		var gotStatement bool
		for _, p := range res.PrivacyPages {
			if strings.Contains(p.Path, "statement") {
				gotStatement = true
			}
		}
		if !gotStatement {
			t.Errorf("hub site %s: statement page not reached; pages: %+v", s.Domain, pagePaths(res))
		}
		return
	}
	t.Skip("no hub site")
}

// TestPrivacyPagesCarryTheirRendering: every surviving privacy page hands
// later stages a Doc equal to rendering its body afresh — whether the
// crawl kept the seed page's parse from link extraction or parsed it in
// pre-processing (SkipTopLinks) — and no other page carries one.
func TestPrivacyPagesCarryTheirRendering(t *testing.T) {
	for _, cfg := range []Config{{}, {SkipTopLinks: true}} {
		c, g := testCrawler(t, cfg)
		pages := 0
		for _, d := range g.Domains()[:120] {
			res := c.CrawlDomain(context.Background(), d)
			for _, p := range res.Pages {
				if p.Doc != nil {
					t.Errorf("%s%s: Result.Pages entry carries a Doc", d, p.Path)
				}
			}
			for _, p := range res.PrivacyPages {
				pages++
				if p.Doc == nil {
					t.Fatalf("%s%s: privacy page without a Doc", d, p.Path)
				}
				if want := textify.RenderHTML(p.Body); !reflect.DeepEqual(p.Doc, want) {
					t.Errorf("%s%s (SkipTopLinks=%v): Doc differs from RenderHTML(Body)", d, p.Path, cfg.SkipTopLinks)
				}
			}
		}
		if pages == 0 {
			t.Fatalf("SkipTopLinks=%v: no privacy pages crawled", cfg.SkipTopLinks)
		}
	}
}

// TestBlankOrEnglishMatchesJoinedText: the line-wise language check
// keeps exactly the pages the check on the joined text kept — a blank
// text, or one langid detects as English — on every page of the first
// site of each class and on blank renderings.
func TestBlankOrEnglishMatchesJoinedText(t *testing.T) {
	g := webgen.New(webgen.Seed, russell.UniqueDomains(russell.Universe(webgen.Seed)))
	docs := []*textify.Document{
		{}, {Lines: []textify.Line{{Text: ""}}}, {Lines: []textify.Line{{Text: " "}, {Text: "\t"}}},
		{Lines: []textify.Line{{Text: "   "}, {Text: "ok"}}},
	}
	seen := map[webgen.FailureClass]bool{}
	for _, s := range g.Sites() {
		if seen[s.Failure] {
			continue
		}
		seen[s.Failure] = true
		for _, p := range g.RenderSite(s.Domain) {
			docs = append(docs, textify.RenderHTML(p.Body))
		}
	}
	kept := 0
	for _, doc := range docs {
		text := doc.Text()
		lang, _ := langid.Detect(text)
		want := strings.TrimSpace(text) == "" || lang == langid.English
		if got := blankOrEnglish(doc); got != want {
			t.Errorf("blankOrEnglish = %v, joined-text check %v, on %.60q", got, want, text)
		}
		if want {
			kept++
		}
	}
	if kept == 0 || kept == len(docs) {
		t.Errorf("%d of %d pages kept, want some of each verdict", kept, len(docs))
	}
}

func pagePaths(res *Result) []string {
	var out []string
	for _, p := range res.Pages {
		out = append(out, p.Path)
	}
	return out
}

func TestCrawlRespectsMaxPages(t *testing.T) {
	c, g := testCrawler(t, Config{MaxPages: 3})
	s := firstWithFailure(g, webgen.FailNone)
	res := c.CrawlDomain(context.Background(), s.Domain)
	if res.PagesFetched() > 3 {
		t.Errorf("fetched %d pages, cap 3", res.PagesFetched())
	}
}

func TestCrawlAblationSkipWellKnown(t *testing.T) {
	c, g := testCrawler(t, Config{SkipWellKnown: true, SkipFooter: true, SkipTopLinks: true})
	s := firstWithFailure(g, webgen.FailNone)
	res := c.CrawlDomain(context.Background(), s.Domain)
	if res.Success {
		t.Error("with all discovery disabled, no candidates should be fetched")
	}
	if res.PagesFetched() != 1 {
		t.Errorf("fetched %d pages, want homepage only", res.PagesFetched())
	}
}

func TestWellKnownProbeReporting(t *testing.T) {
	c, g := testCrawler(t, Config{})
	for _, s := range g.Sites() {
		if s.Failure != webgen.FailNone || !s.Layout.WellKnownPolicy {
			continue
		}
		res := c.CrawlDomain(context.Background(), s.Domain)
		if !res.WellKnownPolicyOK {
			t.Errorf("site %s serves /privacy-policy but probe reported failure", s.Domain)
		}
		return
	}
}

func TestCrawlAll(t *testing.T) {
	c, g := testCrawler(t, Config{})
	domains := g.Domains()[:12]
	results := c.CrawlAll(context.Background(), domains, 4)
	if len(results) != len(domains) {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r == nil || r.Domain != domains[i] {
			t.Errorf("result %d out of order: %+v", i, r)
		}
	}
}

func TestParseRobots(t *testing.T) {
	body := `
# comment
User-agent: *
Disallow: /private/
Disallow: /tmp

User-agent: aipan-research-crawler
Disallow: /no-bots/
`
	r := parseRobots(body, "aipan-research-crawler/1.0")
	if r.allowed("/no-bots/page") {
		t.Error("agent-specific rule ignored")
	}
	if !r.allowed("/private/x") {
		t.Error("star rule should not apply when agent group exists")
	}
	star := parseRobots(body, "otherbot")
	if star.allowed("/private/x") || star.allowed("/tmp") {
		t.Error("star rules not applied")
	}
	if !star.allowed("/public") {
		t.Error("allowed path blocked")
	}
	empty := parseRobots("", "x")
	if !empty.allowed("/anything") {
		t.Error("empty robots must allow all")
	}
}

func TestPrivacyLinkFilters(t *testing.T) {
	c, g := testCrawler(t, Config{})
	s := firstWithFailure(g, webgen.FailJSLink)
	res := c.CrawlDomain(context.Background(), s.Domain)
	for _, p := range res.Pages {
		if strings.HasPrefix(p.URL, "javascript:") {
			t.Error("crawler followed a javascript: link")
		}
	}
}

func BenchmarkCrawlDomain(b *testing.B) {
	g := webgen.New(webgen.Seed, russell.UniqueDomains(russell.Universe(webgen.Seed)))
	c, err := New(Config{Client: virtualweb.NewTransport(g).Client()})
	if err != nil {
		b.Fatal(err)
	}
	domains := g.Domains()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.CrawlDomain(context.Background(), domains[i%len(domains)])
	}
}

func TestCrawlPolitenessDelay(t *testing.T) {
	c, g := testCrawler(t, Config{Delay: 30 * time.Millisecond})
	s := firstWithFailure(g, webgen.FailNone)
	start := time.Now()
	res := c.CrawlDomain(context.Background(), s.Domain)
	elapsed := time.Since(start)
	if n := res.PagesFetched(); n > 1 {
		minimum := time.Duration(n-1) * 30 * time.Millisecond
		if elapsed < minimum {
			t.Errorf("crawl of %d pages took %v, politeness demands >= %v", n, elapsed, minimum)
		}
	}
}

func TestCrawlMaxBodyBytes(t *testing.T) {
	c, g := testCrawler(t, Config{MaxBodyBytes: 512})
	s := firstWithFailure(g, webgen.FailNone)
	res := c.CrawlDomain(context.Background(), s.Domain)
	for _, p := range res.Pages {
		if len(p.Body) > 512 {
			t.Errorf("page %s body %d bytes exceeds cap", p.URL, len(p.Body))
		}
	}
}

func TestCrawlerRequiresClient(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil client should be rejected")
	}
}
