package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"aipan/internal/obs"
	"aipan/internal/store"
)

// TestETagConditionalGet covers the conditional-GET round trip: a 200
// carries a strong ETag, replaying it in If-None-Match yields an empty
// 304 with the same tag, and a different tag yields the full body. The
// tag does not depend on the response cache: with the cache off
// (WithCacheSize(0)) every cacheable route still tags and revalidates.
func TestETagConditionalGet(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"default cache", nil},
		{"cache off", []Option{WithCacheSize(0)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, srv := newTestServer(t, tc.opts...)
			for _, path := range []string{"/v1/summary", "/v1/domains", "/v1/risk"} {
				checkConditionalGet(t, srv.URL+path)
			}
		})
	}
}

func checkConditionalGet(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("%s: status %d, ETag = %q, want 200 with a strong quoted tag", url, resp.StatusCode, etag)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-cache" {
		t.Errorf("%s: Cache-Control = %q", url, cc)
	}

	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("%s: conditional GET status = %d, want 304", url, resp2.StatusCode)
	}
	if len(body2) != 0 {
		t.Errorf("%s: 304 carried %d body bytes", url, len(body2))
	}
	if got := resp2.Header.Get("ETag"); got != etag {
		t.Errorf("%s: 304 ETag = %q, want %q", url, got, etag)
	}

	req.Header.Set("If-None-Match", `"0-deadbeef"`)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body3, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != 200 || string(body3) != string(body) {
		t.Errorf("%s: mismatched tag: status %d, body equal=%v", url, resp3.StatusCode, string(body3) == string(body))
	}

	// W/ prefix and list syntax still match strongly after stripping.
	req.Header.Set("If-None-Match", `"x", W/`+etag)
	resp4, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusNotModified {
		t.Errorf("%s: list If-None-Match status = %d, want 304", url, resp4.StatusCode)
	}
}

// TestRefreshInvalidatesCache appends to the backing store mid-flight
// and checks that Refresh atomically swaps the view: responses, ETags,
// and the generation all move, with no stale cache hits.
func TestRefreshInvalidatesCache(t *testing.T) {
	st := store.NewMem()
	recs := testRecords()
	for i := range recs {
		if err := st.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	s, err := NewServer(FromStore(st), WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	// Prime the cache and grab the generation-1 ETag.
	resp, err := http.Get(srv.URL + "/v1/domains")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag1 := resp.Header.Get("ETag")
	if s.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", s.Generation())
	}

	extra := store.Record{Domain: "new.example.com", Company: "New Co", Sector: "Tech", SectorAbbrev: "IT"}
	if err := st.Append(&extra); err != nil {
		t.Fatal(err)
	}
	if err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != 2 {
		t.Fatalf("generation after refresh = %d, want 2", s.Generation())
	}

	// The cached generation-1 entry must not serve: the new domain
	// appears and the ETag changes.
	status, body := get(t, srv.URL+"/v1/domains")
	if status != 200 || !strings.Contains(body, "new.example.com") {
		t.Fatalf("post-refresh listing stale: status %d, has new domain: %v",
			status, strings.Contains(body, "new.example.com"))
	}
	resp2, err := http.Get(srv.URL + "/v1/domains")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if etag2 := resp2.Header.Get("ETag"); etag2 == etag1 {
		t.Errorf("ETag unchanged across refresh: %q", etag2)
	}

	// A conditional GET with the stale tag revalidates to a full 200.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/domains", nil)
	req.Header.Set("If-None-Match", etag1)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != 200 {
		t.Errorf("stale conditional GET status = %d, want 200", resp3.StatusCode)
	}

	// New domain resolves via the rebuilt hash index.
	if status, _ := get(t, srv.URL+"/v1/domains/new.example.com"); status != 200 {
		t.Errorf("new domain lookup status = %d", status)
	}
}

// TestCacheLRUEviction bounds the cache: with capacity 2, three
// distinct keys leave two entries and re-fetching the evicted key is a
// miss (hit counters tell the story).
func TestCacheLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := NewServer(Records(makeRecords(6)), WithRegistry(reg), WithCacheSize(2))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	for _, p := range []string{"/v1/summary", "/v1/risk", "/v1/domains"} {
		if status, _ := get(t, srv.URL+p); status != 200 {
			t.Fatalf("%s status %d", p, status)
		}
	}
	if n := s.cache.len(); n != 2 {
		t.Fatalf("cache len = %d, want 2 (LRU bound)", n)
	}
	// /v1/summary was least recently used — it should have been evicted.
	if _, ok := s.cache.get(cacheKeyForPath("/v1/summary"), s.Generation()); ok {
		t.Errorf("evicted key still present")
	}
	if _, ok := s.cache.get(cacheKeyForPath("/v1/domains"), s.Generation()); !ok {
		t.Errorf("most recent key missing")
	}
}

// cacheKeyForPath builds the cache key for a bare path request.
func cacheKeyForPath(path string) string {
	r := httptest.NewRequest(http.MethodGet, path, nil)
	return cacheKey(r)
}

func TestCacheKeyNormalization(t *testing.T) {
	a := cacheKeyForPath("/v1/domains?sector=FS&aspect=Types")
	b := cacheKeyForPath("/v1/domains?aspect=types&sector=fs")
	if a != b {
		t.Errorf("equivalent queries got distinct keys: %q vs %q", a, b)
	}
	c := cacheKeyForPath("/v1/domains?sector=en")
	if a == c {
		t.Errorf("distinct queries share a key: %q", a)
	}
	// Cursor values are case-sensitive tokens and must not be folded.
	d := cacheKeyForPath("/v1/domains?cursor=QQ")
	e := cacheKeyForPath("/v1/domains?cursor=qq")
	if d == e {
		t.Errorf("cursor values were case-folded into one key")
	}
}
