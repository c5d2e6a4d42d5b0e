// Package virtualweb serves a generated corporate web over the standard
// HTTP client/server interfaces. The Transport form plugs into an
// http.Client as an in-process RoundTripper (the crawler speaks real HTTP
// semantics — status codes, redirects, content types, timeouts — without
// sockets); the Handler form serves the same sites over TCP for demos and
// integration tests (cmd/wwwsim).
package virtualweb

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"aipan/internal/webgen"
)

// Provider renders sites on demand; *webgen.Generator implements it.
type Provider interface {
	RenderSite(domain string) map[string]webgen.Page
}

// ErrTimeout is returned for pages that simulate a hung server.
var ErrTimeout = errors.New("virtualweb: request timed out")

// Transport is an http.RoundTripper over the synthetic web.
type Transport struct {
	provider Provider
	// cache avoids re-rendering a site for every request. It is a
	// bounded LRU (defaultRenderCacheCap hosts), so memory stays flat
	// however many domains the run visits.
	cache renderCache
}

// NewTransport builds a RoundTripper over the provider.
func NewTransport(p Provider) *Transport {
	return &Transport{provider: p}
}

// Client returns an http.Client using this transport.
func (t *Transport) Client() *http.Client {
	return &http.Client{Transport: t}
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := hostname(req.URL.Host)
	pages := t.pagesFor(host)
	if pages == nil {
		return nil, fmt.Errorf("virtualweb: no such host %q", host)
	}
	path := req.URL.Path
	if path == "" {
		path = "/"
	}
	page, ok := pages[path]
	if !ok {
		if wild, wok := pages["*"]; wok {
			page = wild
		} else {
			return response(req, 404, "text/html", "<html><body><h1>404 Not Found</h1></body></html>"), nil
		}
	}
	if page.Hang {
		return nil, ErrTimeout
	}
	if page.RedirectTo != "" {
		resp := response(req, statusOr(page.Status, http.StatusMovedPermanently), "text/html", "")
		resp.Header.Set("Location", page.RedirectTo)
		return resp, nil
	}
	return response(req, statusOr(page.Status, 200), page.ContentType, page.Body), nil
}

func (t *Transport) pagesFor(host string) map[string]webgen.Page {
	if v, ok := t.cache.load(host); ok {
		return v
	}
	pages := t.provider.RenderSite(host)
	if pages != nil {
		t.cache.store(host, pages)
	}
	return pages
}

func statusOr(s, def int) int {
	if s == 0 {
		return def
	}
	return s
}

func response(req *http.Request, status int, contentType, body string) *http.Response {
	if contentType == "" {
		contentType = "text/html; charset=utf-8"
	}
	resp := &http.Response{
		StatusCode:    status,
		Status:        fmt.Sprintf("%d %s", status, http.StatusText(status)),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{contentType}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
	return resp
}

// hostname strips the port and a leading www.
func hostname(host string) string {
	if i := strings.LastIndexByte(host, ':'); i >= 0 && !strings.Contains(host[i:], "]") {
		host = host[:i]
	}
	return strings.TrimPrefix(strings.ToLower(host), "www.")
}

// Handler serves the synthetic web over real sockets, routing by Host
// header (use curl --resolve or /etc/hosts entries), with a fallback
// /_site/<domain>/<path> form for plain browsers.
type Handler struct {
	transport *Transport
}

// NewHandler builds an http.Handler over the provider.
func NewHandler(p Provider) *Handler {
	return &Handler{transport: NewTransport(p)}
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	host := hostname(r.Host)
	path := r.URL.Path
	if strings.HasPrefix(path, "/_site/") {
		rest := strings.TrimPrefix(path, "/_site/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			host, path = rest[:i], rest[i:]
		} else {
			host, path = rest, "/"
		}
	}
	pages := h.transport.pagesFor(host)
	if pages == nil {
		http.Error(w, "unknown site "+host, http.StatusBadGateway)
		return
	}
	page, ok := pages[path]
	if !ok {
		if wild, wok := pages["*"]; wok {
			page = wild
		} else {
			http.NotFound(w, r)
			return
		}
	}
	if page.Hang {
		// Over a real socket we cannot hang forever politely; emulate with
		// a gateway-timeout so demos terminate.
		http.Error(w, "upstream timeout", http.StatusGatewayTimeout)
		return
	}
	if page.RedirectTo != "" {
		http.Redirect(w, r, page.RedirectTo, statusOr(page.Status, http.StatusMovedPermanently))
		return
	}
	ct := page.ContentType
	if ct == "" {
		ct = "text/html; charset=utf-8"
	}
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(statusOr(page.Status, 200))
	_, _ = io.WriteString(w, page.Body)
}
