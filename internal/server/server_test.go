package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"aipan/internal/annotate"
	"aipan/internal/obs"
	"aipan/internal/store"
	"aipan/internal/taxonomy"
)

func testRecords() []store.Record {
	return []store.Record{
		{
			Domain: "acme.example.com", Company: "Acme Corp", Sector: "Financials",
			SectorAbbrev: "FS",
			Crawl:        store.CrawlInfo{Success: true, PagesFetched: 5},
			Extraction:   store.ExtractionInfo{Success: true},
			Annotations: []annotate.Annotation{
				{Aspect: "types", Meta: taxonomy.MetaPhysicalProfile, Category: "Contact info", Descriptor: "email address", Text: "email address", Context: "We collect your email address."},
				{Aspect: "purposes", Meta: taxonomy.MetaThirdParty, Category: "Data sharing", Descriptor: "data for sale", Text: "sell", Context: "We may sell your data."},
				{Aspect: "handling", Meta: taxonomy.GroupRetention, Category: taxonomy.RetentionStated, Descriptor: "2 years", Text: "2 years", RetentionDays: 730, Context: "We retain data for 2 years."},
				{Aspect: "rights", Meta: taxonomy.GroupAccess, Category: taxonomy.AccessFullDelete, Text: "delete", Context: "You may delete all data."},
			},
		},
		{
			Domain: "other.example.com", Company: "Other Inc", Sector: "Energy",
			SectorAbbrev: "EN",
			Crawl:        store.CrawlInfo{Success: false, Error: "timeout"},
		},
	}
}

// makeRecords fabricates n deterministic records across three sectors
// for pagination and index tests.
func makeRecords(n int) []store.Record {
	sectors := []string{"FS", "EN", "CD"}
	recs := make([]store.Record, 0, n)
	for i := 0; i < n; i++ {
		rec := store.Record{
			Domain:       fmt.Sprintf("d%04d.example.com", i),
			Company:      fmt.Sprintf("Company %04d", i),
			Sector:       "Sector",
			SectorAbbrev: sectors[i%len(sectors)],
			Crawl:        store.CrawlInfo{Success: true},
			Extraction:   store.ExtractionInfo{Success: true},
		}
		if i%2 == 0 {
			rec.Annotations = append(rec.Annotations, annotate.Annotation{
				Aspect: "types", Category: "Contact info", Descriptor: "email address",
				Text: "email address", Context: "We collect your email address.",
			})
		}
		if i%4 == 0 {
			rec.Annotations = append(rec.Annotations, annotate.Annotation{
				Aspect: "purposes", Category: "Data sharing", Descriptor: "data for sale",
				Text: "sell", Context: "We may sell your data.",
			})
		}
		recs = append(recs, rec)
	}
	return recs
}

func newTestServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	opts = append([]Option{WithRegistry(obs.NewRegistry())}, opts...)
	s, err := NewServer(Records(testRecords()), opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestSummary(t *testing.T) {
	_, srv := newTestServer(t)
	status, body := get(t, srv.URL+"/v1/summary")
	if status != 200 {
		t.Fatalf("status %d", status)
	}
	var sum Summary
	if err := json.Unmarshal([]byte(body), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Domains != 2 || sum.Annotated != 1 || sum.CrawlOK != 1 {
		t.Errorf("summary: %+v", sum)
	}
	if sum.ByAspect["types"] != 1 {
		t.Errorf("by aspect: %v", sum.ByAspect)
	}
	if sum.Generation != 1 || len(sum.Sectors) != 2 {
		t.Errorf("generation %d, sectors %v", sum.Generation, sum.Sectors)
	}
}

func TestDomainsFilters(t *testing.T) {
	_, srv := newTestServer(t)
	for _, tc := range []struct {
		query string
		want  []string
	}{
		{"?sector=fs", []string{"acme.example.com"}},
		{"?sector=FS", []string{"acme.example.com"}},
		{"?sector=XX", nil},
		{"?aspect=rights", []string{"acme.example.com"}},
		{"?label=contact+info", []string{"acme.example.com"}},
		{"?sector=en&aspect=types", nil},
		{"", []string{"acme.example.com", "other.example.com"}},
	} {
		status, body := get(t, srv.URL+"/v1/domains"+tc.query)
		if status != 200 {
			t.Fatalf("%s: status %d", tc.query, status)
		}
		var page DomainsPage
		if err := json.Unmarshal([]byte(body), &page); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, d := range page.Domains {
			got = append(got, d.Domain)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: domains = %v, want %v", tc.query, got, tc.want)
		}
		if page.Total != len(tc.want) {
			t.Errorf("%s: total = %d, want %d", tc.query, page.Total, len(tc.want))
		}
	}
}

// TestDomainsPagination walks the full listing through cursor pages and
// checks the walk reassembles the exact sorted domain sequence.
func TestDomainsPagination(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewServer(Records(makeRecords(10)), WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	var walked []string
	cursor := ""
	pages := 0
	for {
		url := srv.URL + "/v1/domains?limit=3"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		status, body := get(t, url)
		if status != 200 {
			t.Fatalf("page %d: status %d: %s", pages, status, body)
		}
		var page DomainsPage
		if err := json.Unmarshal([]byte(body), &page); err != nil {
			t.Fatal(err)
		}
		if page.Total != 10 {
			t.Fatalf("page %d: total = %d, want 10", pages, page.Total)
		}
		for _, d := range page.Domains {
			walked = append(walked, d.Domain)
		}
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if pages != 4 || len(walked) != 10 {
		t.Fatalf("walked %d domains over %d pages, want 10 over 4", len(walked), pages)
	}
	for i, d := range walked {
		if want := fmt.Sprintf("d%04d.example.com", i); d != want {
			t.Fatalf("walk position %d = %q, want %q (pagination must be sorted and gap-free)", i, d, want)
		}
	}
}

// TestErrorEnvelopeGolden pins the exact bytes of the /v1 error
// envelope — the contract downstream consumers parse.
func TestErrorEnvelopeGolden(t *testing.T) {
	_, srv := newTestServer(t)
	for _, tc := range []struct {
		path       string
		wantStatus int
		wantBody   string
	}{
		{"/v1/domains/nope.example.com", 404, "{\n  \"error\": {\n    \"code\": \"not_found\",\n    \"message\": \"domain \\\"nope.example.com\\\" not in dataset\"\n  }\n}\n"},
		{"/v1/domains?limit=bogus", 400, "{\n  \"error\": {\n    \"code\": \"bad_request\",\n    \"message\": \"limit must be a positive integer (got \\\"bogus\\\")\"\n  }\n}\n"},
		{"/v1/domains?limit=2000", 400, "{\n  \"error\": {\n    \"code\": \"bad_request\",\n    \"message\": \"limit must be at most 1000 (got 2000)\"\n  }\n}\n"},
		{"/v1/domains?cursor=%21%21", 400, "{\n  \"error\": {\n    \"code\": \"bad_request\",\n    \"message\": \"cursor is not a token from a previous response\"\n  }\n}\n"},
	} {
		status, body := get(t, srv.URL+tc.path)
		if status != tc.wantStatus {
			t.Errorf("%s: status = %d, want %d", tc.path, status, tc.wantStatus)
		}
		if body != tc.wantBody {
			t.Errorf("%s: body =\n%q\nwant\n%q", tc.path, body, tc.wantBody)
		}
	}
}

func TestDomainRecord(t *testing.T) {
	_, srv := newTestServer(t)
	status, body := get(t, srv.URL+"/v1/domains/acme.example.com")
	if status != 200 {
		t.Fatalf("status %d", status)
	}
	var rec store.Record
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Company != "Acme Corp" || len(rec.Annotations) != 4 {
		t.Errorf("record: %+v", rec)
	}
}

func TestLabelEndpoint(t *testing.T) {
	_, srv := newTestServer(t)
	status, body := get(t, srv.URL+"/v1/domains/acme.example.com/label")
	if status != 200 {
		t.Fatalf("status %d", status)
	}
	for _, want := range []string{"PRIVACY FACTS", "Acme Corp", "email address", "SOLD", "2 years"} {
		if !strings.Contains(body, want) {
			t.Errorf("label missing %q", want)
		}
	}
}

func TestAskEndpoint(t *testing.T) {
	_, srv := newTestServer(t)
	status, body := get(t, srv.URL+"/v1/domains/acme.example.com/ask?q=do+you+sell+my+data")
	if status != 200 {
		t.Fatalf("status %d: %s", status, body)
	}
	var ans AskResponse
	if err := json.Unmarshal([]byte(body), &ans); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ans.Answer, "selling") && !strings.Contains(ans.Answer, "Yes") {
		t.Errorf("answer: %+v", ans)
	}
	status, body = get(t, srv.URL+"/v1/domains/acme.example.com/ask")
	if status != 400 || !strings.Contains(body, `"bad_request"`) {
		t.Errorf("missing q: status %d, body %s", status, body)
	}
	status, body = get(t, srv.URL+"/v1/domains/acme.example.com/ask?q=meaning+of+life")
	if status != 422 || !strings.Contains(body, `"unsupported_question"`) {
		t.Errorf("unsupported question: status %d, body %s", status, body)
	}
}

func TestRiskEndpoint(t *testing.T) {
	_, srv := newTestServer(t)
	status, body := get(t, srv.URL+"/v1/risk?top=1")
	if status != 200 {
		t.Fatalf("status %d", status)
	}
	var page RiskPage
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Scores) != 1 || page.Scores[0].Domain != "acme.example.com" {
		t.Errorf("risk page: %+v", page)
	}
	if !strings.Contains(body, `"sector_percentile"`) {
		t.Errorf("risk fields not snake_case: %s", body)
	}
	status, _ = get(t, srv.URL+"/v1/risk?top=0")
	if status != 400 {
		t.Errorf("bad top status = %d", status)
	}
}

func TestTableEndpoint(t *testing.T) {
	_, srv := newTestServer(t)
	status, body := get(t, srv.URL+"/v1/tables/3")
	if status != 200 || !strings.Contains(body, "Data retention") {
		t.Errorf("table 3: status %d, body %q", status, body[:min(len(body), 120)])
	}
	status, body = get(t, srv.URL+"/v1/tables/99")
	if status != 404 || !strings.Contains(body, "2a, 2b") {
		t.Errorf("unknown table: status %d, body %s", status, body)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, srv := newTestServer(t)
	resp, err := http.Post(srv.URL+"/v1/summary", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "GET" {
		t.Errorf("Allow = %q, want GET", allow)
	}
	if !strings.Contains(string(body), `"method_not_allowed"`) {
		t.Errorf("405 body missing envelope: %s", body)
	}
}

func TestNotFoundEnvelope(t *testing.T) {
	_, srv := newTestServer(t)
	status, body := get(t, srv.URL+"/v1/nope")
	if status != 404 || !strings.Contains(body, `"not_found"`) {
		t.Errorf("unknown path: status %d, body %s", status, body)
	}
}

// TestLegacyRedirects covers the deprecated unversioned surface: every
// /api path answers 308 with the mapped /v1 Location (query preserved),
// and a redirect-following client lands on the real payload.
func TestLegacyRedirects(t *testing.T) {
	_, srv := newTestServer(t)
	noFollow := &http.Client{
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
	for _, tc := range []struct{ from, to string }{
		{"/api/summary", "/v1/summary"},
		{"/api/domains?sector=fs", "/v1/domains?sector=fs"},
		{"/api/domain/acme.example.com", "/v1/domains/acme.example.com"},
		{"/api/label/acme.example.com", "/v1/domains/acme.example.com/label"},
		{"/api/ask/acme.example.com?q=x", "/v1/domains/acme.example.com/ask?q=x"},
		{"/api/risk", "/v1/risk"},
		{"/api/table/3", "/v1/tables/3"},
	} {
		resp, err := noFollow.Get(srv.URL + tc.from)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusPermanentRedirect {
			t.Errorf("%s: status = %d, want 308", tc.from, resp.StatusCode)
		}
		if loc := resp.Header.Get("Location"); loc != tc.to {
			t.Errorf("%s: Location = %q, want %q", tc.from, loc, tc.to)
		}
		if resp.Header.Get("Deprecation") != "true" {
			t.Errorf("%s: missing Deprecation header", tc.from)
		}
	}
	// A following client ends at the live /v1 handler.
	if status, body := get(t, srv.URL+"/api/label/acme.example.com"); status != 200 || !strings.Contains(body, "PRIVACY FACTS") {
		t.Errorf("followed legacy label: status %d", status)
	}
	// Unknown legacy paths get the envelope, not a redirect loop.
	if status, body := get(t, srv.URL+"/api/whatever"); status != 404 || !strings.Contains(body, `"not_found"`) {
		t.Errorf("unknown legacy path: status %d, body %s", status, body)
	}
}

func TestHealthAndReady(t *testing.T) {
	s, srv := newTestServer(t)
	if status, body := get(t, srv.URL+"/v1/healthz"); status != 200 || !strings.Contains(body, `"ok"`) {
		t.Errorf("healthz: status %d, body %s", status, body)
	}
	if status, body := get(t, srv.URL+"/v1/readyz"); status != 200 || !strings.Contains(body, `"ready"`) {
		t.Errorf("readyz: status %d, body %s", status, body)
	}
	s.SetReady(false)
	if status, body := get(t, srv.URL+"/v1/readyz"); status != 503 || !strings.Contains(body, `"draining"`) {
		t.Errorf("draining readyz: status %d, body %s", status, body)
	}
	// Liveness is unaffected by drain.
	if status, _ := get(t, srv.URL+"/v1/healthz"); status != 200 {
		t.Errorf("healthz during drain: status %d", status)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewServer(Records(testRecords()), WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	// One miss, one hit.
	for i := 0; i < 2; i++ {
		if code, _ := get(t, srv.URL+"/v1/summary"); code != 200 {
			t.Fatalf("summary status = %d", code)
		}
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.ExpositionContentType {
		t.Errorf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`aipan_server_requests_total{route="/v1/summary",class="2xx"} 2`,
		`aipan_server_cache_misses_total{route="/v1/summary"} 1`,
		`aipan_server_cache_hits_total{route="/v1/summary"} 1`,
		`aipan_server_request_duration_seconds_count{route="/v1/summary"} 2`,
		`aipan_server_dataset_generation 1`,
		`aipan_server_dataset_records 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
	// pprof rides along on the same mux.
	if code, body := get(t, srv.URL+"/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Errorf("pprof cmdline: status %d, %d bytes", code, len(body))
	}
}

// TestNewFromStore serves the same API straight from a store backend —
// the sharded binary one, whose scan order differs from the record
// slice, to prove views do not depend on load order.
func TestNewFromStore(t *testing.T) {
	recs := testRecords()
	st, err := store.OpenBinary(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := range recs {
		if err := st.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewServer(FromStore(st), WithRegistry(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	code, body := get(t, srv.URL+"/v1/summary")
	if code != 200 {
		t.Fatalf("summary from store: status %d", code)
	}
	var sum Summary
	if err := json.Unmarshal([]byte(body), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Domains != len(recs) || sum.CrawlOK != 1 || sum.Annotated != 1 {
		t.Fatalf("summary from store = %+v", sum)
	}
	if code, _ := get(t, srv.URL+"/v1/domains/acme.example.com"); code != 200 {
		t.Fatalf("domain lookup from store: status %d", code)
	}
}

// TestPanicRecovery injects a panicking route (white-box) and checks
// the middleware converts it into a clean 500 envelope and counts it.
func TestPanicRecovery(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewServer(Records(testRecords()), WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	s.router.add(http.MethodGet, "/v1/boom", func(*view, params, *http.Request) (*result, *apiErr) {
		panic("kaboom")
	}, false, true)
	srv := httptest.NewServer(s)
	defer srv.Close()

	status, body := get(t, srv.URL+"/v1/boom")
	if status != 500 || !strings.Contains(body, `"internal"`) {
		t.Errorf("panic route: status %d, body %s", status, body)
	}
	if n := metricValue(t, reg, "aipan_server_panics_total"); n != 1 {
		t.Errorf("panics counter = %v, want 1", n)
	}
	// The server still serves after the panic.
	if status, _ := get(t, srv.URL+"/v1/summary"); status != 200 {
		t.Errorf("post-panic summary status = %d", status)
	}
}

// metricValue scrapes one unlabeled metric value out of the text
// exposition.
func metricValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not in exposition", name)
	return 0
}
