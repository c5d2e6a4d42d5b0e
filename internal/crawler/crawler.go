// Package crawler implements the paper's privacy-policy crawler (§3.1):
// from a domain's homepage it follows up to three footer links containing
// the word "privacy", tries the well-known /privacy-policy and /privacy
// paths, then follows up to five "privacy" links from the top of each of
// those five pages — at most 31 pages per site. Candidate pages are
// deduplicated by content and filtered to English, yielding the
// domain's potential privacy pages.
//
// The crawler is a plain net/http client: point it at the real web or at
// the in-process synthetic web (internal/virtualweb).
package crawler

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"aipan/internal/engine"
	"aipan/internal/htmlx"
	"aipan/internal/langid"
	"aipan/internal/obs"
	"aipan/internal/textify"
)

// Config parameterizes a Crawler. The zero value plus a Client is a
// paper-faithful configuration.
type Config struct {
	// Client performs the HTTP requests. Required.
	Client *http.Client
	// MaxPages caps total fetched pages per site (default 31).
	MaxPages int
	// Delay is the politeness pause between same-site requests.
	Delay time.Duration
	// RespectRobots honors robots.txt Disallow rules (default off to match
	// the paper's measurement crawl; turn on for polite production use).
	RespectRobots bool
	// SkipWellKnown disables the /privacy-policy and /privacy probes (the
	// crawl-policy ablation).
	SkipWellKnown bool
	// SkipFooter disables footer-link discovery (ablation).
	SkipFooter bool
	// SkipTopLinks disables the second-hop expansion (ablation).
	SkipTopLinks bool
	// MaxBodyBytes caps response bodies read (default 4 MiB).
	MaxBodyBytes int64
	// Registry receives crawl metrics (default obs.Default()).
	Registry *obs.Registry
	// Logger, when set, receives per-fetch debug events and per-domain
	// warnings (failed homepages). Nil disables logging.
	Logger *obs.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxPages == 0 {
		c.MaxPages = 31
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 4 << 20
	}
	return c
}

// The §3.1 crawl policy's fixed link budgets, and the user agent sent on
// every request (and matched against robots.txt groups).
const (
	maxFooterLinks = 3 // footer privacy links followed from the homepage
	maxTopLinks    = 5 // top-of-page privacy links per seed page
	userAgent      = "aipan-research-crawler/1.0"
)

// wellKnownPaths are probed on every domain (§3.1).
var wellKnownPaths = []string{"/privacy-policy", "/privacy"}

// Page is one fetched page.
type Page struct {
	// URL is the request URL; FinalURL reflects redirects.
	URL      string
	FinalURL string
	Path     string
	Status   int
	// ContentType is the response Content-Type (without parameters).
	ContentType string
	Body        string
	// FetchErr is a transport-level failure (timeout, refused, ...).
	FetchErr string
	// Candidate marks potential privacy pages (everything but the
	// homepage).
	Candidate bool
	// Doc is the page rendered to text — the rendering the English check
	// ran on. Only Result.PrivacyPages entries carry it; later stages use
	// it instead of parsing and rendering Body again.
	Doc *textify.Document
}

// OK reports a fetch that completed with a pre-error status (§3.1's
// "HTTP status code below 400").
func (p *Page) OK() bool { return p.FetchErr == "" && p.Status > 0 && p.Status < 400 }

// IsHTML reports an HTML content type.
func (p *Page) IsHTML() bool {
	return strings.HasPrefix(p.ContentType, "text/html") || p.ContentType == ""
}

// IsPDF reports a PDF body (a failure class the paper tracks).
func (p *Page) IsPDF() bool {
	return strings.HasPrefix(p.ContentType, "application/pdf") ||
		strings.HasPrefix(p.Body, "%PDF-")
}

// Result is a domain's crawl outcome.
type Result struct {
	Domain string
	// Pages lists every fetched page, homepage first.
	Pages []Page
	// Success means at least one candidate page returned status < 400.
	Success bool
	// PrivacyPages are the candidates that survive pre-processing: fetched
	// OK, HTML, deduplicated by content, and English.
	PrivacyPages []Page
	// NonEnglish/DuplicateCount/PDFCount record what pre-processing
	// removed.
	NonEnglish     int
	DuplicateCount int
	PDFCount       int
	// WellKnownPolicyOK / WellKnownPrivacyOK report whether the two probed
	// paths resolved (§3.1 footnote 3: 54.5% and 48.6%).
	WellKnownPolicyOK  bool
	WellKnownPrivacyOK bool
	// HomeErr is set when even the homepage could not be fetched.
	HomeErr string
}

// PagesFetched counts fetched pages including the homepage (the paper's
// 5.1 average).
func (r *Result) PagesFetched() int { return len(r.Pages) }

// HomeStatus reports the homepage HTTP status (0 when the crawl never
// fetched a homepage or the fetch failed at the transport layer).
func (r *Result) HomeStatus() int {
	if len(r.Pages) == 0 || r.Pages[0].FetchErr != "" {
		return 0
	}
	return r.Pages[0].Status
}

// HomeClass buckets the homepage fetch outcome ("2xx".."5xx", "error")
// the way the fetch metrics do — the flight recorder stores it per
// domain.
func (r *Result) HomeClass() string {
	if len(r.Pages) == 0 {
		return "error"
	}
	return statusClass(&r.Pages[0])
}

// Crawler crawls domains for privacy policies.
type Crawler struct {
	cfg Config
	met *metrics
	log *obs.Logger
	// fetch is the engine stage behind every concurrent fetch burst; the
	// per-site page budget (applied at planning time) bounds its fan-out.
	fetch *engine.Stage[*pageSlot, struct{}]
}

// metrics is the crawler's instrument set (see DESIGN.md §9). Fetch
// latency is the fetch span's.
type metrics struct {
	fetches         *obs.CounterVec // by status class
	robotsDenied    *obs.Counter
	politenessWaits *obs.Counter
	politenessSecs  *obs.Counter
	domains         *obs.CounterVec // by outcome
	privacyPages    *obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		reg = obs.Default()
	}
	return &metrics{
		fetches: reg.CounterVec("aipan_crawler_fetches_total",
			"Pages fetched by HTTP status class (error = transport failure).", "status_class"),
		robotsDenied: reg.Counter("aipan_crawler_robots_denied_total",
			"Planned fetches dropped by robots.txt Disallow rules."),
		politenessWaits: reg.Counter("aipan_crawler_politeness_waits_total",
			"Politeness-delay pauses taken between same-site requests."),
		politenessSecs: reg.Counter("aipan_crawler_politeness_wait_seconds_total",
			"Total seconds spent in politeness-delay pauses."),
		domains: reg.CounterVec("aipan_crawler_domains_total",
			"Domains crawled by outcome (ok, no_policy, error).", "outcome"),
		privacyPages: reg.Counter("aipan_crawler_privacy_pages_total",
			"Deduplicated English privacy pages surviving pre-processing."),
	}
}

// statusClass buckets a fetched page for the fetch metrics.
func statusClass(p *Page) string {
	switch {
	case p.FetchErr != "":
		return "error"
	case p.Status >= 500:
		return "5xx"
	case p.Status >= 400:
		return "4xx"
	case p.Status >= 300:
		return "3xx"
	case p.Status >= 200:
		return "2xx"
	}
	return "1xx"
}

// New validates cfg and builds a Crawler.
func New(cfg Config) (*Crawler, error) {
	if cfg.Client == nil {
		return nil, fmt.Errorf("crawler: Config.Client is required")
	}
	c := &Crawler{
		cfg: cfg.withDefaults(),
		met: newMetrics(cfg.Registry),
		log: cfg.Logger.With("crawler"),
	}
	c.fetch = engine.NewStage(cfg.Registry, "fetch", engine.Unbounded,
		func(ctx context.Context, s *pageSlot) (struct{}, error) {
			c.fetchSlot(ctx, s)
			return struct{}{}, nil
		})
	return c, nil
}

// pageSlot is one planned fetch: the placeholder Page plus whether the
// fetch actually ran (a slot planned before a context cancellation may
// never execute, and then must not appear in Result.Pages — exactly like
// a sequential crawl that stopped at the same point).
type pageSlot struct {
	u       *url.URL
	page    *Page
	fetched bool
	// tree is the page's parse, kept from link extraction so
	// pre-processing renders it without parsing the body again.
	tree *htmlx.Node
}

// crawlPlan is the per-domain bookkeeping of the stage-parallel crawl.
// Each stage first *plans* its fetches sequentially — applying the dedup,
// budget, and robots rules in the exact order a sequential crawl would —
// and then executes the planned fetches concurrently (or serially under a
// politeness delay). Because which URLs are fetched and the order of
// Result.Pages are fixed at planning time, the crawl outcome is
// byte-identical to a fully sequential run.
type crawlPlan struct {
	c       *Crawler
	rules   robotsRules
	planned map[string]*pageSlot // by normalized URL
	order   []*pageSlot          // first-plan order = sequential fetch order
	pending []*pageSlot          // planned in the current stage, not yet run
	done    int                  // fetches performed (politeness-gate state)
}

// plan applies the sequential admission rules for u and returns the
// placeholder slot: an existing slot for a duplicate URL, nil when the
// budget is exhausted or robots.txt disallows the path.
func (cp *crawlPlan) plan(u *url.URL, candidate bool) *pageSlot {
	key := u.String()
	if s, ok := cp.planned[key]; ok {
		return s
	}
	if len(cp.planned) >= cp.c.cfg.MaxPages {
		return nil
	}
	if cp.c.cfg.RespectRobots && !cp.rules.allowed(u.Path) {
		cp.c.met.robotsDenied.Inc()
		cp.c.log.Debug("robots.txt denied fetch", "url", key)
		return nil
	}
	s := &pageSlot{u: u, page: &Page{URL: key, Path: u.Path, Candidate: candidate}}
	cp.planned[key] = s
	cp.order = append(cp.order, s)
	cp.pending = append(cp.pending, s)
	return s
}

// run executes the current stage's pending fetches. With no politeness
// delay the stage fans out through the crawler's engine fetch stage (the
// per-site page cap bounds the fan-out); with Delay > 0 it serializes,
// pausing between requests.
func (cp *crawlPlan) run(ctx context.Context) {
	pending := cp.pending
	cp.pending = nil
	if cp.c.cfg.Delay > 0 || len(pending) <= 1 {
		for _, s := range pending {
			if cp.done > 0 && cp.c.cfg.Delay > 0 {
				cp.c.met.politenessWaits.Inc()
				cp.c.met.politenessSecs.Add(cp.c.cfg.Delay.Seconds())
				if !engine.Sleep(ctx, cp.c.cfg.Delay) {
					return // canceled: remaining slots stay unfetched
				}
			}
			cp.c.fetchSlot(ctx, s)
			cp.done++
		}
		return
	}
	// Cancellation mid-stage leaves the unclaimed slots unfetched, exactly
	// like the serial path; the plan keeps them out of Result.Pages.
	_, _ = cp.c.fetch.Map(ctx, pending)
	cp.done += len(pending)
}

// fetchSlot performs the GET for one slot, preserving the planned
// Candidate flag. cp.done is updated by run, not here, so the concurrent
// path stays race-free.
func (c *Crawler) fetchSlot(ctx context.Context, s *pageSlot) {
	candidate := s.page.Candidate
	p := c.fetchPage(ctx, s.u)
	p.Candidate = candidate
	*s.page = *p
	s.fetched = true
}

// CrawlDomain runs the full discovery policy against one domain.
//
// The crawl is stage-parallel: the homepage is fetched alone (it seeds
// everything), then the seed set (footer links + well-known paths) is
// fetched concurrently, then the second-hop links are fetched
// concurrently. A politeness Delay > 0 serializes the fetches instead.
// See crawlPlan for why the result is identical to a sequential crawl.
func (c *Crawler) CrawlDomain(ctx context.Context, domain string) *Result {
	res := &Result{Domain: domain}
	base := &url.URL{Scheme: "http", Host: domain, Path: "/"}

	var rules robotsRules
	if c.cfg.RespectRobots {
		rules = c.fetchRobots(ctx, domain)
	}

	cp := &crawlPlan{c: c, rules: rules, planned: map[string]*pageSlot{}}

	homeSlot := cp.plan(base, false)
	cp.run(ctx)
	if homeSlot == nil {
		res.HomeErr = "crawl budget exhausted"
		return res
	}
	home := homeSlot.page
	if home.FetchErr != "" {
		res.HomeErr = home.FetchErr
	}

	// Seed set: up to 3 footer privacy links + the two well-known paths.
	var seeds []*url.URL
	if !c.cfg.SkipFooter && home.OK() && home.IsHTML() {
		doc := htmlx.Parse(home.Body)
		links := privacyLinks(doc, base)
		if n := len(links); n > maxFooterLinks {
			links = links[n-maxFooterLinks:] // bottom-most
		}
		seeds = append(seeds, links...)
	}
	if !c.cfg.SkipWellKnown {
		for _, path := range wellKnownPaths {
			u := *base
			u.Path = path
			seeds = append(seeds, &u)
		}
	}

	// Plan the whole seed stage, then fetch it in one concurrent burst.
	type seedRef struct {
		path string // request path (pre-redirect), for the well-known probes
		slot *pageSlot
	}
	var seedRefs []seedRef
	for _, s := range seeds {
		if sameURL(s, base) {
			continue
		}
		if slot := cp.plan(s, true); slot != nil {
			seedRefs = append(seedRefs, seedRef{path: s.Path, slot: slot})
		}
	}
	cp.run(ctx)

	for _, sr := range seedRefs {
		switch sr.path {
		case "/privacy-policy":
			res.WellKnownPolicyOK = sr.slot.page.OK()
		case "/privacy":
			res.WellKnownPrivacyOK = sr.slot.page.OK()
		}
	}

	// Second hop: up to 5 privacy links from the top of each seed page,
	// planned in seed order, fetched concurrently. Each seed page's parse
	// is kept on its slot for pre-processing.
	if !c.cfg.SkipTopLinks {
		for _, sr := range seedRefs {
			sp := sr.slot.page
			if !sp.OK() || !sp.IsHTML() {
				continue
			}
			if sr.slot.tree == nil {
				sr.slot.tree = htmlx.Parse(sp.Body)
			}
			links := privacyLinks(sr.slot.tree, mustParse(sp.FinalURL, domain))
			if len(links) > maxTopLinks {
				links = links[:maxTopLinks] // top-most
			}
			for _, l := range links {
				if sameURL(l, base) {
					continue
				}
				cp.plan(l, true)
			}
		}
		cp.run(ctx)
	}

	// Pages appear in planning order — the order a sequential crawl would
	// have fetched them — skipping slots a cancellation left unfetched.
	var trees []*htmlx.Node
	for _, s := range cp.order {
		if s.fetched {
			res.Pages = append(res.Pages, *s.page)
			trees = append(trees, s.tree)
		}
	}

	c.postProcess(res, trees)
	switch {
	case res.Success:
		c.met.domains.With("ok").Inc()
	case res.HomeErr != "":
		c.met.domains.With("error").Inc()
		c.log.Warn("domain crawl failed", "domain", domain, "err", res.HomeErr)
	default:
		c.met.domains.With("no_policy").Inc()
	}
	c.met.privacyPages.Add(float64(len(res.PrivacyPages)))
	return res
}

// postProcess computes success and the deduplicated English privacy
// pages. trees[i] is res.Pages[i]'s parse when link extraction already
// made one, else nil. Each surviving page carries its rendering as Doc.
func (c *Crawler) postProcess(res *Result, trees []*htmlx.Node) {
	seen := map[string]bool{} // page bodies: exact equality is the dedup
	for i := range res.Pages {
		p := &res.Pages[i]
		if !p.Candidate || !p.OK() {
			continue
		}
		res.Success = true
		if p.IsPDF() {
			res.PDFCount++
			continue
		}
		if !p.IsHTML() {
			continue
		}
		if seen[p.Body] {
			res.DuplicateCount++
			continue
		}
		seen[p.Body] = true
		tree := trees[i]
		if tree == nil {
			tree = htmlx.Parse(p.Body)
		}
		doc := textify.Render(tree)
		if !blankOrEnglish(doc) {
			res.NonEnglish++
			continue
		}
		pp := *p
		pp.Doc = doc
		res.PrivacyPages = append(res.PrivacyPages, pp)
	}
}

// blankOrEnglish is pre-processing's language check: a page passes when
// its text is blank or detected as English. Non-English pages, and
// pages mixing languages, score poorly for English and are discarded
// (the paper discards one mixed-language policy in §4). The lines are
// scored in turn, which scores exactly the tokens of the text they join
// into, without joining them.
func blankOrEnglish(doc *textify.Document) bool {
	blank := true
	var sc langid.Scorer
	for _, l := range doc.Lines {
		if blank && strings.TrimSpace(l.Text) != "" {
			blank = false
		}
		sc.Add(l.Text)
	}
	lang, _ := sc.Result()
	return blank || lang == langid.English
}

// fetchPage performs one GET under a fetch span, whose path attribute
// tells a domain's fetches apart, and counts it by status class.
func (c *Crawler) fetchPage(ctx context.Context, u *url.URL) *Page {
	_, span := obs.StartSpanWith(ctx, "fetch", obs.A("path", u.Path))
	defer span.End()
	p := c.doFetch(ctx, u)
	c.met.fetches.With(statusClass(p)).Inc()
	if p.FetchErr != "" {
		c.log.Debug("fetch failed", "url", p.URL, "err", p.FetchErr)
	}
	return p
}

func (c *Crawler) doFetch(ctx context.Context, u *url.URL) *Page {
	p := &Page{URL: u.String(), Path: u.Path}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		p.FetchErr = err.Error()
		return p
	}
	req.Header.Set("User-Agent", userAgent)
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		p.FetchErr = err.Error()
		return p
	}
	defer resp.Body.Close()
	p.Status = resp.StatusCode
	p.FinalURL = resp.Request.URL.String()
	p.Path = resp.Request.URL.Path // reflect redirects
	ct := resp.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	p.ContentType = strings.TrimSpace(ct)
	body, err := readBody(resp, c.cfg.MaxBodyBytes)
	if err != nil {
		p.FetchErr = err.Error()
		return p
	}
	p.Body = string(body)
	return p
}

// readBody reads at most max bytes of the response body. When the server
// declares a credible Content-Length the buffer is allocated at full size
// up front — io.ReadAll's grow-from-512 doubling was one of the crawl
// path's largest allocation sources.
func readBody(resp *http.Response, max int64) ([]byte, error) {
	lr := io.LimitReader(resp.Body, max)
	n := resp.ContentLength
	if n < 0 || n > max {
		return io.ReadAll(lr)
	}
	// One spare byte so the final EOF-detecting read has room without
	// triggering a growth cycle.
	buf := make([]byte, 0, n+1)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		m, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func (c *Crawler) fetchRobots(ctx context.Context, domain string) robotsRules {
	u := &url.URL{Scheme: "http", Host: domain, Path: "/robots.txt"}
	p := c.fetchPage(ctx, u)
	if !p.OK() {
		return robotsRules{}
	}
	return parseRobots(p.Body, userAgent)
}

// privacyLinks extracts same-host links whose text or href contains
// "privacy", resolved against base, in document order, deduplicated.
func privacyLinks(doc *htmlx.Node, base *url.URL) []*url.URL {
	var out []*url.URL
	seen := map[string]bool{}
	for _, l := range htmlx.ExtractLinks(doc) {
		if !strings.Contains(strings.ToLower(l.Text), "privacy") &&
			!strings.Contains(strings.ToLower(l.Href), "privacy") {
			continue
		}
		href := strings.TrimSpace(l.Href)
		low := strings.ToLower(href)
		if strings.HasPrefix(low, "javascript:") || strings.HasPrefix(low, "mailto:") ||
			strings.HasPrefix(low, "tel:") || strings.HasPrefix(href, "#") {
			continue
		}
		u, err := base.Parse(href)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") {
			continue
		}
		if !strings.EqualFold(stripWWW(u.Host), stripWWW(base.Host)) {
			continue
		}
		u.Fragment = ""
		key := u.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, u)
	}
	return out
}

func stripWWW(h string) string {
	return strings.TrimPrefix(strings.ToLower(h), "www.")
}

func sameURL(a, b *url.URL) bool {
	pa, pb := a.Path, b.Path
	if pa == "" {
		pa = "/"
	}
	if pb == "" {
		pb = "/"
	}
	return strings.EqualFold(stripWWW(a.Host), stripWWW(b.Host)) && pa == pb
}

func mustParse(raw, fallbackHost string) *url.URL {
	u, err := url.Parse(raw)
	if err != nil || u.Host == "" {
		return &url.URL{Scheme: "http", Host: fallbackHost, Path: "/"}
	}
	return u
}

// CrawlAll crawls domains with a bounded worker pool, preserving input
// order in the result slice. Domains a cancellation left uncrawled get a
// placeholder Result carrying the context error.
func (c *Crawler) CrawlAll(ctx context.Context, domains []string, workers int) []*Result {
	if workers < 1 {
		workers = 1
	}
	stage := engine.NewStage(c.cfg.Registry, "crawl", workers,
		func(ctx context.Context, domain string) (*Result, error) {
			return c.CrawlDomain(ctx, domain), nil
		})
	results, _ := stage.Map(ctx, domains)
	for i := range results {
		if results[i] == nil {
			results[i] = &Result{Domain: domains[i], HomeErr: ctx.Err().Error()}
		}
	}
	return results
}
