package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The serve request mix, in shares of all requests. The shares are this
// benchmark's choice, not measured from a trace: they give every route
// family enough requests to show in the latencies, and a tail share
// large enough to miss the cache often. The Zipf exponent is within the
// 0.64–0.83 that Breslau et al. ("Web Caching and Zipf-like
// Distributions", INFOCOM 1999) measured for the popularity of web
// requests. The Zipf head fits the server's 1,024-entry response cache;
// the uniform tail (every domain × three routes) does not.
const (
	shareZipf       = 0.45 // record / label / ask on Zipf-skewed domains
	shareTail       = 0.20 // record / label / ask on uniformly drawn domains
	shareListing    = 0.10 // cursor-paged filtered /v1/domains listings
	sharePrecomp    = 0.10 // summary, tables, risk
	shareRevalidate = 0.15 // repeats of Zipf-head requests with If-None-Match
	zipfAlpha       = 0.8
	mixLen          = 1 << 16 // the precomputed schedule, cycled
)

var askQuestions = []string{
	"do they sell my data", "can i delete my data", "how long do they keep my data",
	"can i opt out of marketing", "do they track my location", "what data do they collect",
}

var tableIDs = []string{"1", "2a", "2b", "3", "4", "5", "6"}

type reqKind uint8

const (
	kindRecord reqKind = iota
	kindLabel
	kindAsk
	kindListing
	kindSummary
	kindTable
	kindRisk
	kindRevalidate
)

type mixEntry struct {
	kind reqKind
	arg  int // domain, filter, or table index
	sub  int // route or question index
}

// catalog is what the serve fixture tells the generator about the
// dataset the server starts with.
type catalog struct {
	Domains []string `json:"domains"` // initially served, sorted
	Sectors []string `json:"sectors"`
	Total   int      `json:"total"` // records once every held-back batch is in
	Batches int      `json:"batches"`
}

// serveMix is the serve workload's sender: a seeded request schedule
// plus the client-side state that cursor paging and revalidation need,
// and the response checks.
type serveMix struct {
	base    string
	cat     catalog
	entries []mixEntry

	mu       sync.Mutex
	etags    map[string]string // path → last ETag seen
	cursors  map[int]string    // listing filter → next cursor
	status   map[int]int
	problems []string
	// gen is the dataset generation every ETag must carry; 0 while the
	// writer may be moving it.
	gen uint64
}

func newServeMix(base string, cat catalog, seed int64) *serveMix {
	rng := rand.New(rand.NewSource(seed))
	n := len(cat.Domains)
	zipf := newZipf(n, zipfAlpha)
	// Zipf ranks map onto a seeded permutation of the domains, so the
	// hot set is spread over the index rather than its first entries.
	perm := rng.Perm(n)
	m := &serveMix{base: base, cat: cat, etags: map[string]string{}, cursors: map[int]string{},
		status: map[int]int{}}
	m.entries = make([]mixEntry, mixLen)
	for i := range m.entries {
		p := rng.Float64()
		e := &m.entries[i]
		switch {
		case p < shareZipf:
			e.kind, e.arg, e.sub = reqKind(rng.Intn(3)), perm[zipf.draw(rng)], rng.Intn(len(askQuestions))
		case p < shareZipf+shareTail:
			e.kind, e.arg, e.sub = reqKind(rng.Intn(3)), rng.Intn(n), rng.Intn(len(askQuestions))
		case p < shareZipf+shareTail+shareListing:
			e.kind, e.arg = kindListing, rng.Intn(len(cat.Sectors))
		case p < shareZipf+shareTail+shareListing+sharePrecomp:
			switch k := rng.Intn(4); k {
			case 0:
				e.kind = kindSummary
			case 1:
				e.kind = kindRisk
			default:
				e.kind, e.arg = kindTable, rng.Intn(len(tableIDs))
			}
		default:
			e.kind, e.arg, e.sub = kindRevalidate, perm[zipf.draw(rng)], rng.Intn(3)
		}
	}
	return m
}

// zipf draws ranks 0..n-1 with P(r) proportional to (r+1)^-alpha, by
// inverting the cumulative distribution (math/rand's Zipf needs an
// exponent above 1).
type zipf []float64

func newZipf(n int, alpha float64) zipf {
	cdf := make(zipf, n)
	var sum float64
	for r := range cdf {
		sum += math.Pow(float64(r+1), -alpha)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}

func (z zipf) draw(rng *rand.Rand) int {
	return min(sort.SearchFloat64s(z, rng.Float64()), len(z)-1)
}

// expectGeneration sets the generation every later response's ETag must
// carry; 0 accepts any.
func (m *serveMix) expectGeneration(gen uint64) {
	m.mu.Lock()
	m.gen = gen
	m.mu.Unlock()
}

// path renders entry e as a request path.
func (m *serveMix) path(e mixEntry) string {
	switch e.kind {
	case kindRecord:
		return "/v1/domains/" + m.cat.Domains[e.arg]
	case kindLabel:
		return "/v1/domains/" + m.cat.Domains[e.arg] + "/label"
	case kindAsk:
		return "/v1/domains/" + m.cat.Domains[e.arg] + "/ask?q=" + url.QueryEscape(askQuestions[e.sub])
	case kindListing:
		p := "/v1/domains?limit=50&sector=" + url.QueryEscape(m.cat.Sectors[e.arg])
		m.mu.Lock()
		cur := m.cursors[e.arg]
		m.mu.Unlock()
		if cur != "" {
			p += "&cursor=" + url.QueryEscape(cur)
		}
		return p
	case kindSummary:
		return "/v1/summary"
	case kindTable:
		return "/v1/tables/" + tableIDs[e.arg]
	case kindRisk:
		return "/v1/risk?top=25"
	case kindRevalidate:
		return m.path(mixEntry{kind: reqKind(e.sub), arg: e.arg, sub: 0})
	}
	return "/v1/summary"
}

func (m *serveMix) send(ctx context.Context, client *http.Client, i int) (time.Time, bool) {
	e := m.entries[i%len(m.entries)]
	path := m.path(e)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.base+path, nil)
	if err != nil {
		return time.Now(), m.fail("building %s: %v", path, err)
	}
	var sentTag string
	m.mu.Lock()
	gen := m.gen
	if e.kind == kindRevalidate {
		sentTag = m.etags[path]
	}
	m.mu.Unlock()
	if sentTag != "" {
		req.Header.Set("If-None-Match", sentTag)
	}
	resp, err := client.Do(req)
	if err != nil {
		return time.Now(), m.fail("GET %s: %v", path, err)
	}
	buf, err := readBody(resp)
	done := time.Now()
	defer bodyPool.Put(buf)
	body := buf.Bytes()
	m.mu.Lock()
	m.status[resp.StatusCode]++
	m.mu.Unlock()
	if err != nil {
		return done, m.fail("reading %s: %v", path, err)
	}
	if err := checkResponse(resp.StatusCode, resp.Header, body, sentTag, gen); err != nil {
		return done, m.fail("GET %s: %v", path, err)
	}
	if tag := resp.Header.Get("ETag"); tag != "" {
		m.mu.Lock()
		m.etags[path] = tag
		m.mu.Unlock()
	}
	if e.kind == kindListing && resp.StatusCode == http.StatusOK {
		var page struct {
			NextCursor string `json:"next_cursor"`
		}
		if err := json.Unmarshal(body, &page); err != nil {
			return done, m.fail("listing %s: %v", path, err)
		}
		m.mu.Lock()
		m.cursors[e.arg] = page.NextCursor // "" restarts from page one
		m.mu.Unlock()
	}
	return done, true
}

// checkResponse is the per-response correctness rule: a 200 whose body
// parses as its content type says, or a 304 that answers an
// If-None-Match carrying exactly the resource's current ETag. When gen
// is set, an ETag from any other dataset generation fails too: a 304 to
// a tag issued before the last refresh means the server answered from
// data it no longer serves.
func checkResponse(status int, h http.Header, body []byte, sentTag string, gen uint64) error {
	switch status {
	case http.StatusOK:
		ct := h.Get("Content-Type")
		switch {
		case strings.Contains(ct, "json"):
			if !json.Valid(body) {
				return fmt.Errorf("200 with a body that is not JSON")
			}
		case len(body) == 0:
			return fmt.Errorf("200 with an empty %q body", ct)
		}
	case http.StatusNotModified:
		if sentTag == "" {
			return fmt.Errorf("304 to a request without If-None-Match")
		}
		if cur := h.Get("ETag"); cur != sentTag {
			return fmt.Errorf("304 for ETag %s, but the current ETag is %q", sentTag, cur)
		}
	default:
		return fmt.Errorf("status %d", status)
	}
	if tag := h.Get("ETag"); gen != 0 && tag != "" {
		if got, ok := etagGeneration(tag); !ok || got != gen {
			return fmt.Errorf("%d with ETag %s, want one of generation %d", status, tag, gen)
		}
	}
	return nil
}

// etagGeneration reads the generation out of a server ETag, which is
// "<generation>-<body hash>".
func etagGeneration(tag string) (uint64, bool) {
	tag = strings.Trim(strings.TrimPrefix(tag, "W/"), `"`)
	head, _, ok := strings.Cut(tag, "-")
	if !ok {
		return 0, false
	}
	gen, err := strconv.ParseUint(head, 10, 64)
	return gen, err == nil
}

// fail records a failed check (the first few verbatim) and reports it.
func (m *serveMix) fail(format string, args ...any) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.problems) < 5 {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
	return false
}

// snapshot returns the responses counted per status and the first
// failed checks.
func (m *serveMix) snapshot() (sent int, problems []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, n := range m.status {
		sent += n
	}
	return sent, append([]string(nil), m.problems...)
}
