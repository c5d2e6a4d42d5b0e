package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aipan/internal/chatbot"
	"aipan/internal/dispatch"
	"aipan/internal/obs"
	"aipan/internal/store"
	"aipan/internal/virtualweb"
	"aipan/internal/webgen"
)

// The wrappers in this file sit at seams the program already exposes
// (core.Config, dispatch.WorkerConfig, server.FromStore, http.Handler)
// and time the calls that cross them. Where a seam hands over a
// context, the wrapper starts an obs span on it, so the span nests
// under the program's own span in the exported trace. Untraced runs use
// only the cheap bookkeeping that end-to-end metrics need (first-fetch
// stamps, append stamps, failure counts).

// meter accumulates a call count and the busy time of those calls.
type meter struct {
	n  atomic.Int64
	ns atomic.Int64
}

func (m *meter) add(d time.Duration) {
	m.n.Add(1)
	m.ns.Add(int64(d))
}

func (m *meter) count() float64   { return float64(m.n.Load()) }
func (m *meter) seconds() float64 { return float64(m.ns.Load()) / 1e9 }

// hostOf normalizes a request host the way virtualweb routes it: no
// port, lower case, no leading "www.".
func hostOf(host string) string {
	if i := strings.LastIndexByte(host, ':'); i >= 0 && !strings.Contains(host[i:], "]") {
		host = host[:i]
	}
	return strings.TrimPrefix(strings.ToLower(host), "www.")
}

// ------------------------------------------------------------------ web

// webSeam is the core.Config.HTTPClient seam: a RoundTripper over
// virtualweb.NewTransport whose webgen provider is timed too. It stamps
// each host's first request, which is where a domain's work starts.
type webSeam struct {
	inner  *virtualweb.Transport
	prov   *timedProvider
	traced bool

	mu    sync.Mutex
	first map[string]time.Time

	fetch meter
	bytes atomic.Int64
}

func newWebSeam(traced bool) *webSeam {
	prov := &timedProvider{traced: traced}
	return &webSeam{inner: virtualweb.NewTransport(prov), prov: prov, traced: traced,
		first: map[string]time.Time{}}
}

func (w *webSeam) client() *http.Client { return &http.Client{Transport: w} }

// bind hands the provider the pipeline's generator; core.New builds it,
// and no request is made before Run.
func (w *webSeam) bind(gen *webgen.Generator) { w.prov.gen.Store(gen) }

func (w *webSeam) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	host := hostOf(req.URL.Host)
	w.mu.Lock()
	if _, ok := w.first[host]; !ok {
		w.first[host] = start
	}
	w.mu.Unlock()
	if !w.traced {
		return w.inner.RoundTrip(req)
	}
	ctx, span := obs.StartSpan(req.Context(), "bench.fetch")
	defer span.End()
	resp, err := w.inner.RoundTrip(req.WithContext(ctx))
	w.fetch.add(time.Since(start))
	if resp != nil && resp.ContentLength > 0 {
		w.bytes.Add(resp.ContentLength)
	}
	return resp, err
}

// firstFetch reports when the host's first request was made.
func (w *webSeam) firstFetch(host string) (time.Time, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	t, ok := w.first[host]
	return t, ok
}

// timedProvider times the webgen renders behind virtualweb's render
// cache; every call it sees is a cache miss.
type timedProvider struct {
	gen    atomic.Pointer[webgen.Generator]
	traced bool
	render meter
}

func (p *timedProvider) RenderSite(domain string) map[string]webgen.Page {
	if !p.traced {
		return p.gen.Load().RenderSite(domain)
	}
	start := time.Now()
	pages := p.gen.Load().RenderSite(domain)
	p.render.add(time.Since(start))
	return pages
}

func (p *timedProvider) Site(domain string) *webgen.Site { return p.gen.Load().Site(domain) }

// -------------------------------------------------------------- chatbot

// chatSeam is the core.Config.Bot (and dispatch NewBot) seam. It builds
// the chatbot.Client the program would build around a timed simulator,
// and wraps the client once more from outside: client time minus
// simulator time is limiter wait plus retries.
type chatSeam struct {
	mu      sync.Mutex
	clients []*chatbot.Client

	backend meter // time inside the simulated model
	client  meter // time inside Client.Complete
}

// newBot returns a bot built like the program's default. opts are the
// options the program's own construction passes.
func (c *chatSeam) newBot(opts ...chatbot.ClientOption) chatbot.Chatbot {
	cl := chatbot.NewClient(&timedSim{inner: chatbot.NewSim(chatbot.GPT4Profile()), m: &c.backend}, opts...)
	c.mu.Lock()
	c.clients = append(c.clients, cl)
	c.mu.Unlock()
	return &timedBot{inner: cl, m: &c.client}
}

// stats sums the accounting of every client built through the seam.
func (c *chatSeam) stats() chatbot.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum chatbot.Stats
	for _, cl := range c.clients {
		st := cl.Stats()
		sum.Calls += st.Calls
		sum.CacheHits += st.CacheHits
		sum.FailedCalls += st.FailedCalls
		sum.Usage.Add(st.Usage)
	}
	return sum
}

type timedSim struct {
	inner chatbot.Chatbot
	m     *meter
}

func (s *timedSim) Name() string { return s.inner.Name() }

func (s *timedSim) Complete(ctx context.Context, req chatbot.Request) (chatbot.Response, error) {
	ctx, span := obs.StartSpan(ctx, "bench.sim")
	defer span.End()
	start := time.Now()
	resp, err := s.inner.Complete(ctx, req)
	s.m.add(time.Since(start))
	return resp, err
}

type timedBot struct {
	inner chatbot.Chatbot
	m     *meter
}

func (b *timedBot) Name() string { return b.inner.Name() }

func (b *timedBot) Complete(ctx context.Context, req chatbot.Request) (chatbot.Response, error) {
	ctx, span := obs.StartSpan(ctx, "bench.chatbot")
	defer span.End()
	start := time.Now()
	resp, err := b.inner.Complete(ctx, req)
	b.m.add(time.Since(start))
	return resp, err
}

// ---------------------------------------------------------------- store

// storeSeam wraps a dataset store (core.Config.Store, the coordinator's
// store, the store behind server.FromStore). It forwards the optional
// MetaStore and ShardView interfaces every shipped backend implements,
// so the program takes the same paths it takes on the bare store.
// Exports are timed by the caller on the bare store: the k-way merge
// export needs the backend's unexported shard iterators.
type storeSeam struct {
	inner store.Store

	mu       sync.Mutex
	appended map[string]time.Time // domain → when its Append returned

	appendM meter
	failed  atomic.Int64
	scanM   meter
	scanned atomic.Int64
}

func newStoreSeam(inner store.Store) *storeSeam {
	return &storeSeam{inner: inner, appended: map[string]time.Time{}}
}

func (s *storeSeam) Append(rec *store.Record) error {
	start := time.Now()
	err := s.inner.Append(rec)
	end := time.Now()
	s.appendM.add(end.Sub(start))
	if err != nil {
		s.failed.Add(1)
		return err
	}
	s.mu.Lock()
	s.appended[rec.Domain] = end
	s.mu.Unlock()
	return nil
}

func (s *storeSeam) appendedAt(domain string) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.appended[domain]
	return t, ok
}

func (s *storeSeam) Scan(fn func(*store.Record) error) error {
	start := time.Now()
	defer func() { s.scanM.add(time.Since(start)) }()
	return s.inner.Scan(s.counting(fn))
}

func (s *storeSeam) counting(fn func(*store.Record) error) func(*store.Record) error {
	return func(r *store.Record) error {
		s.scanned.Add(1)
		return fn(r)
	}
}

func (s *storeSeam) Len() (int, error) { return s.inner.Len() }
func (s *storeSeam) Close() error      { return s.inner.Close() }

func (s *storeSeam) Meta() (store.Meta, bool, error) {
	ms, ok := s.inner.(store.MetaStore)
	if !ok {
		return store.Meta{}, false, nil
	}
	return ms.Meta()
}

func (s *storeSeam) SetMeta(m store.Meta) error {
	ms, ok := s.inner.(store.MetaStore)
	if !ok {
		return errors.New("perfbench: wrapped store carries no metadata")
	}
	return ms.SetMeta(m)
}

func (s *storeSeam) view() store.ShardView {
	sv, _ := s.inner.(store.ShardView)
	return sv
}

func (s *storeSeam) NumShards() int { return s.view().NumShards() }

func (s *storeSeam) ScanShard(i int, fn func(*store.Record) error) error {
	start := time.Now()
	defer func() { s.scanM.add(time.Since(start)) }()
	return s.view().ScanShard(i, s.counting(fn))
}

func (s *storeSeam) ShardStamp(i int) (string, error) { return s.view().ShardStamp(i) }

// eventSeam wraps the flight-recorder sink (core.Config.Events, and the
// event store a server reads). It always counts appends and failures,
// which feed the failed-operation count.
type eventSeam struct {
	inner   *store.EventLog
	appendM meter
	failed  atomic.Int64
	scanM   meter
}

func (e *eventSeam) Append(ev *store.Event) error {
	start := time.Now()
	err := e.inner.Append(ev)
	e.appendM.add(time.Since(start))
	if err != nil {
		e.failed.Add(1)
	}
	return err
}

func (e *eventSeam) Scan(fn func(*store.Event) error) error {
	start := time.Now()
	defer func() { e.scanM.add(time.Since(start)) }()
	return e.inner.Scan(fn)
}

func (e *eventSeam) ScanDomain(domain string, fn func(*store.Event) error) error {
	return e.inner.ScanDomain(domain, fn)
}

func (e *eventSeam) Close() error { return e.inner.Close() }

// --------------------------------------------------------------- handler

// handlerSeam wraps an http.Handler (the dataset server, the dispatch
// coordinator). Each request runs under a span — of the tracer the
// serving http.Server puts in every request context (tracedBase) — and
// its time inside ServeHTTP is recorded per route class.
type handlerSeam struct {
	inner http.Handler
	route func(*http.Request) string

	mu     sync.Mutex
	handle []float64 // µs per request, in completion order
	routes map[string]*meter
	status map[int]int
}

func newHandlerSeam(inner http.Handler, route func(*http.Request) string) *handlerSeam {
	return &handlerSeam{inner: inner, route: route, routes: map[string]*meter{}, status: map[int]int{}}
}

// tracedBase is an http.Server BaseContext carrying tracer (none when
// nil), so request spans join the benchmark's trace.
func tracedBase(tracer *obs.Tracer) func(net.Listener) context.Context {
	return func(net.Listener) context.Context {
		if tracer == nil {
			return context.Background()
		}
		return obs.WithTracer(context.Background(), tracer)
	}
}

func (h *handlerSeam) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ctx, span := obs.StartSpan(r.Context(), "bench.handle")
	defer span.End()
	name := h.route(r)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	h.inner.ServeHTTP(sw, r.WithContext(ctx))
	d := time.Since(start)
	h.mu.Lock()
	h.handle = append(h.handle, float64(d)/1e3)
	m := h.routes[name]
	if m == nil {
		m = &meter{}
		h.routes[name] = m
	}
	h.status[sw.status]++
	h.mu.Unlock()
	m.add(d)
}

func (h *handlerSeam) routeMeter(name string) *meter {
	h.mu.Lock()
	defer h.mu.Unlock()
	if m := h.routes[name]; m != nil {
		return m
	}
	return &meter{}
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// --------------------------------------------------------------- dispatch

// dispatchSeam is the dispatch.WorkerConfig.Client seam: it watches the
// worker side of the lease protocol. Lease grants are read off the
// responses (they date each shard's start, for per-domain latency);
// uploads are timed and sized; and the intervals each worker holds a
// lease give the time it holds none.
type dispatchSeam struct {
	inner http.RoundTripper

	mu         sync.Mutex
	firstGrant time.Time
	lastDone   time.Time
	granted    map[int]time.Time // shard → its latest grant
	leaseOf    map[string]string // lease ID → worker
	heldSince  map[string]time.Time
	held       map[string]time.Duration
	seen       map[string][2]time.Time // worker → first and last request

	leases    atomic.Int64
	upload    meter
	uploadB   atomic.Int64
	failed    atomic.Int64
	attempted atomic.Int64
}

func newDispatchSeam(inner http.RoundTripper) *dispatchSeam {
	return &dispatchSeam{inner: inner, granted: map[int]time.Time{},
		leaseOf: map[string]string{}, heldSince: map[string]time.Time{},
		held: map[string]time.Duration{}, seen: map[string][2]time.Time{}}
}

func (d *dispatchSeam) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	var worker string
	if strings.HasSuffix(path, "/leases") && req.Body != nil {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		_ = req.Body.Close()
		var lr dispatch.LeaseRequest
		if json.Unmarshal(body, &lr) == nil {
			worker = lr.Worker
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	isUpload := strings.HasSuffix(path, "/records")
	ctx, span := obs.StartSpan(req.Context(), "bench.dispatch")
	defer span.End()
	start := time.Now()
	resp, err := d.inner.RoundTrip(req.WithContext(ctx))
	end := time.Now()
	if isUpload {
		d.attempted.Add(1)
		d.upload.add(end.Sub(start))
		if req.ContentLength > 0 {
			d.uploadB.Add(req.ContentLength)
		}
		if err != nil || resp.StatusCode >= 300 {
			d.failed.Add(1)
		}
	}
	if err != nil {
		return nil, err
	}
	switch {
	case worker != "":
		return d.sawLease(worker, start, end, resp)
	case strings.HasSuffix(path, "/complete") && resp.StatusCode < 300:
		d.mu.Lock()
		lease := leaseIDOf(path)
		if w := d.leaseOf[lease]; w != "" {
			d.held[w] += end.Sub(d.heldSince[w])
			delete(d.heldSince, w)
			d.touch(w, end)
		}
		d.lastDone = end
		d.mu.Unlock()
	}
	return resp, nil
}

// sawLease reads one lease answer and restores its body for the worker.
func (d *dispatchSeam) sawLease(worker string, start, end time.Time, resp *http.Response) (*http.Response, error) {
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var lr dispatch.LeaseResponse
	ok := json.Unmarshal(body, &lr) == nil
	d.mu.Lock()
	defer d.mu.Unlock()
	d.touch(worker, start)
	d.touch(worker, end)
	if ok && lr.Status == dispatch.LeaseGranted && lr.Grant != nil {
		d.leases.Add(1)
		if d.firstGrant.IsZero() {
			d.firstGrant = end
		}
		d.granted[lr.Grant.Shard] = end
		d.leaseOf[lr.Grant.LeaseID] = worker
		d.heldSince[worker] = end
	}
	return resp, nil
}

// touch widens the worker's observed lifetime; callers hold d.mu.
func (d *dispatchSeam) touch(worker string, t time.Time) {
	span := d.seen[worker]
	if span[0].IsZero() || t.Before(span[0]) {
		span[0] = t
	}
	if t.After(span[1]) {
		span[1] = t
	}
	d.seen[worker] = span
}

// unleased sums, over workers, the time each was alive holding no lease.
func (d *dispatchSeam) unleased() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	var idle time.Duration
	for w, span := range d.seen {
		idle += span[1].Sub(span[0]) - d.held[w]
	}
	return idle
}

func (d *dispatchSeam) grantOf(shard int) (time.Time, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.granted[shard]
	return t, ok
}

func (d *dispatchSeam) window() (first, last time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.firstGrant, d.lastDone
}

// leaseIDOf extracts the lease ID from /v1/jobs/{job}/leases/{lease}/{op}.
func leaseIDOf(path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	if len(parts) >= 2 {
		return parts[len(parts)-2]
	}
	return ""
}
