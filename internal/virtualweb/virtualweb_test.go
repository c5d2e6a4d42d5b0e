package virtualweb

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"aipan/internal/russell"
	"aipan/internal/webgen"
)

func gen() *webgen.Generator {
	return webgen.New(webgen.Seed, russell.UniqueDomains(russell.Universe(webgen.Seed)))
}

func pickSite(g *webgen.Generator, class webgen.FailureClass) *webgen.Site {
	for _, s := range g.Sites() {
		if s.Failure == class {
			return s
		}
	}
	return nil
}

func TestTransportServesHomepage(t *testing.T) {
	g := gen()
	tr := NewTransport(g)
	client := tr.Client()
	s := pickSite(g, webgen.FailNone)

	resp, err := client.Get("http://" + s.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), s.Company) {
		t.Error("homepage missing company name")
	}
}

func TestTransportWWWPrefixAndPort(t *testing.T) {
	g := gen()
	client := NewTransport(g).Client()
	s := pickSite(g, webgen.FailNone)
	resp, err := client.Get("http://www." + s.Domain + ":8080/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("www+port host resolution failed: %d", resp.StatusCode)
	}
}

func TestTransport404(t *testing.T) {
	g := gen()
	client := NewTransport(g).Client()
	s := pickSite(g, webgen.FailNone)
	resp, err := client.Get("http://" + s.Domain + "/no-such-page")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

func TestTransportUnknownHost(t *testing.T) {
	g := gen()
	client := NewTransport(g).Client()
	_, err := client.Get("http://nonexistent.example.net/")
	if err == nil {
		t.Error("unknown host should error like a DNS failure")
	}
}

func TestTransportBlockedSite(t *testing.T) {
	g := gen()
	client := NewTransport(g).Client()
	s := pickSite(g, webgen.FailBlocked)
	resp, err := client.Get("http://" + s.Domain + "/anything")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 403 {
		t.Errorf("blocked site status = %d, want 403", resp.StatusCode)
	}
}

func TestTransportTimeoutSite(t *testing.T) {
	g := gen()
	tr := NewTransport(g)
	s := pickSite(g, webgen.FailTimeout)
	_, err := tr.Client().Get("http://" + s.Domain + "/")
	if err == nil || !errors.Is(errors.Unwrap(errors.Unwrap(err)), ErrTimeout) && !strings.Contains(err.Error(), "timed out") {
		t.Errorf("timeout site error = %v", err)
	}
}

func TestTransportFollowsRedirect(t *testing.T) {
	g := gen()
	client := NewTransport(g).Client()
	var s *webgen.Site
	for _, cand := range g.Sites() {
		if cand.Failure != webgen.FailNone {
			continue
		}
		pages := g.RenderSite(cand.Domain)
		if p, ok := pages["/privacy-policy"]; ok && p.RedirectTo != "" {
			s = cand
			break
		}
	}
	if s == nil {
		t.Skip("no redirecting site in corpus")
	}
	resp, err := client.Get("http://" + s.Domain + "/privacy-policy")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("redirect not followed: %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "Privacy") {
		t.Error("redirect target is not the policy")
	}
}

func TestHandlerOverRealSocket(t *testing.T) {
	g := gen()
	srv := httptest.NewServer(NewHandler(g))
	defer srv.Close()
	s := pickSite(g, webgen.FailNone)

	// Path-based addressing.
	resp, err := http.Get(srv.URL + "/_site/" + s.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), s.Company) {
		t.Error("handler response missing company name")
	}

	// Host-based addressing.
	req, _ := http.NewRequest("GET", srv.URL+"/", nil)
	req.Host = s.Domain
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Errorf("host-based status = %d", resp2.StatusCode)
	}
}

func TestHandlerUnknownSite(t *testing.T) {
	g := gen()
	srv := httptest.NewServer(NewHandler(g))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/_site/bogus.example.org/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status = %d, want 502", resp.StatusCode)
	}
}

func TestPDFContentType(t *testing.T) {
	g := gen()
	client := NewTransport(g).Client()
	s := pickSite(g, webgen.FailPDFOnly)
	resp, err := client.Get("http://" + s.Domain + "/privacy-policy.pdf")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "application/pdf" {
		t.Errorf("content type = %q", got)
	}
}

func BenchmarkTransportRoundTrip(b *testing.B) {
	g := gen()
	client := NewTransport(g).Client()
	s := pickSite(g, webgen.FailNone)
	url := "http://" + s.Domain + "/"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}
