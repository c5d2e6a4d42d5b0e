// Package server exposes a completed AIPAN dataset over a versioned
// HTTP/JSON API — the form in which downstream consumers (dashboards,
// risk tools, browser extensions) actually use the paper's dataset —
// built to hold up under production traffic: every read endpoint is
// O(result) against immutable indexed views, responses are cached and
// revalidated with strong ETags, and overload is shed with 429/503 +
// Retry-After instead of queueing into latency collapse.
//
// Routes (all JSON unless noted; errors use the uniform envelope
// {"error":{"code","message"}}):
//
//	GET /v1/summary                        corpus funnel + aspect/sector counts
//	GET /v1/domains?sector=&aspect=&label= cursor-paginated domain listing
//	              &limit=&cursor=
//	GET /v1/domains/{domain}               one record with all annotations
//	GET /v1/domains/{domain}/label         privacy nutrition label (text/plain)
//	GET /v1/domains/{domain}/ask?q=...     grounded question answering
//	GET /v1/domains/{domain}/provenance    flight-recorder events for one domain
//	GET /v1/events?outcome=&limit=&cursor= cursor-paginated flight-recorder stream
//	GET /v1/risk?top=25                    exposure scores
//	GET /v1/tables/{1|2a|2b|3|4|5|6}       regenerated paper tables (text/plain)
//	GET /v1/healthz, /v1/readyz            liveness / readiness probes
//	GET /metrics                           Prometheus text exposition
//	GET /debug/pprof/...                   net/http/pprof profiles
//
// The legacy unversioned /api/... paths answer with deprecated 308
// redirects to their /v1 equivalents.
package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"aipan/internal/api"
	"aipan/internal/engine"
	"aipan/internal/obs"
	"aipan/internal/store"
)

// Source supplies the dataset a Server serves. Refresh re-Loads it, so
// a Source backed by a live store picks up appended records.
type Source interface {
	Load() ([]store.Record, error)
}

// Records adapts an in-memory record slice into a Source.
func Records(records []store.Record) Source { return recordsSource(records) }

type recordsSource []store.Record

func (rs recordsSource) Load() ([]store.Record, error) { return rs, nil }

// FromStore adapts any store backend — binary shard directory or
// in-memory — into a Source, without an
// intermediate flat-file export. Backends exposing per-shard views
// (both shipped backends do) load incrementally: each Refresh
// re-scans only the shards whose change stamp moved since the previous
// generation, so refreshing a mostly-quiet large store costs stat
// calls, not a dataset re-read.
func FromStore(st store.Store) Source {
	if sv, ok := st.(store.ShardView); ok {
		return &shardedSource{sv: sv}
	}
	return storeSource{st}
}

type storeSource struct{ st store.Store }

func (s storeSource) Load() ([]store.Record, error) {
	var records []store.Record
	if err := s.st.Scan(func(r *store.Record) error {
		records = append(records, *r)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("server: loading records: %w", err)
	}
	return records, nil
}

// Server is the dataset API. The zero value is not usable; build one
// with NewServer.
type Server struct {
	src   Source
	reg   *obs.Registry
	log   *obs.Logger
	clock obs.Clock

	view  atomic.Pointer[view]
	gen   atomic.Uint64
	ready atomic.Bool

	cache    *respCache   // nil = response caching disabled
	rate     *rateLimiter // nil = rate limiting disabled
	inflight *engine.Limiter
	timeout  time.Duration
	router   *router
	debug    http.Handler // /metrics + /debug/pprof

	events store.EventStore // nil = provenance/events routes answer 404
	slo    *obs.SLOMonitor
	sloCfg obs.SLOConfig

	mRequests    *obs.CounterVec
	mDuration    *obs.HistogramVec
	mCacheHits   *obs.CounterVec
	mCacheMisses *obs.CounterVec
	mShed        *obs.CounterVec
	mInflight    *obs.Gauge
	mPanics      *obs.Counter
	mGeneration  *obs.Gauge
	mRecords     *obs.Gauge
	mEvents      *obs.Gauge
}

// Option configures a Server.
type Option func(*Server)

// WithRegistry serves and instruments against reg instead of the
// process-wide default registry.
func WithRegistry(reg *obs.Registry) Option {
	return func(s *Server) { s.reg = reg }
}

// WithLogger emits request-scoped structured logs to log (nil, the
// default, disables them).
func WithLogger(log *obs.Logger) Option {
	return func(s *Server) { s.log = log }
}

// WithRateLimit admits at most rps requests per second per client IP,
// with the given burst allowance (burst < 1 defaults to ceil(rps)).
// rps <= 0 — the default — disables rate limiting.
func WithRateLimit(rps float64, burst int) Option {
	return func(s *Server) {
		if rps > 0 {
			s.rate = newRateLimiter(rps, burst)
		} else {
			s.rate = nil
		}
	}
}

// WithCacheSize bounds the response cache to n entries (LRU). n <= 0
// disables response caching; ETags and 304 revalidation stay on. The
// default is 1024.
func WithCacheSize(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.cache = newRespCache(n)
		} else {
			s.cache = nil
		}
	}
}

// WithMaxInflight caps concurrently served dataset requests; beyond
// the cap requests are shed with 503 + Retry-After. The default is 256.
func WithMaxInflight(n int) Option {
	return func(s *Server) { s.inflight = engine.NewLimiter(n) }
}

// WithRequestTimeout bounds each request's context (default 15s;
// d <= 0 disables the bound).
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) { s.timeout = d }
}

// WithClock injects the time source used for latency metrics and
// rate-limit refill — tests freeze it to make shedding deterministic.
func WithClock(clock obs.Clock) Option {
	return func(s *Server) { s.clock = clock }
}

// WithEvents serves the pipeline's flight-recorder stream alongside the
// dataset: /v1/domains/{domain}/provenance and /v1/events read from ev,
// re-scanned into the immutable view on every Refresh (so they get the
// same ETag/304 treatment as dataset routes). The caller keeps
// ownership of ev and closes it after the server stops.
func WithEvents(ev store.EventStore) Option {
	return func(s *Server) { s.events = ev }
}

// WithSLO overrides the server's latency/error objective (zero fields
// keep the defaults: 250ms slow target, 5m window, 5% slow and 1%
// error budget, 20-sample minimum). The monitor watches every served
// request and degrades /v1/readyz with a warning while a budget burns.
func WithSLO(cfg obs.SLOConfig) Option {
	return func(s *Server) { s.sloCfg = cfg }
}

// NewServer builds the API over src, loading and indexing the dataset
// once up front. The returned server is ready: /v1/readyz answers 200
// until SetReady(false) (typically wired to shutdown drain).
func NewServer(src Source, opts ...Option) (*Server, error) {
	s := &Server{
		src:      src,
		clock:    obs.SystemClock,
		cache:    newRespCache(1024),
		inflight: engine.NewLimiter(256),
		timeout:  15 * time.Second,
	}
	for _, o := range opts {
		o(s)
	}
	if s.reg == nil {
		s.reg = obs.Default()
	}
	s.log = s.log.With("server")

	s.mRequests = s.reg.CounterVec("aipan_server_requests_total",
		"Dataset API requests served, by route and status class.", "route", "class")
	s.mDuration = s.reg.HistogramVec("aipan_server_request_duration_seconds",
		"Dataset API request latency by route.", nil, "route")
	s.mCacheHits = s.reg.CounterVec("aipan_server_cache_hits_total",
		"Response-cache hits by route.", "route")
	s.mCacheMisses = s.reg.CounterVec("aipan_server_cache_misses_total",
		"Response-cache misses by route.", "route")
	s.mShed = s.reg.CounterVec("aipan_server_shed_total",
		"Requests shed by backpressure, by reason (rate_limit, inflight).", "reason")
	s.mInflight = s.reg.Gauge("aipan_server_inflight",
		"Dataset API requests currently being served.")
	s.mPanics = s.reg.Counter("aipan_server_panics_total",
		"Handler panics recovered into 500 responses.")
	s.mGeneration = s.reg.Gauge("aipan_server_dataset_generation",
		"Generation of the dataset view currently being served.")
	s.mRecords = s.reg.Gauge("aipan_server_dataset_records",
		"Records in the dataset view currently being served.")
	s.mEvents = s.reg.Gauge("aipan_server_dataset_events",
		"Flight-recorder events in the dataset view currently being served.")
	s.slo = obs.NewSLOMonitor(s.reg, s.sloCfg, s.clock)

	s.router = s.routes()
	s.debug = obs.DebugMux(s.reg)
	if err := s.Refresh(context.Background()); err != nil {
		return nil, err
	}
	s.ready.Store(true)
	return s, nil
}

// Refresh re-Loads the Source and atomically swaps in a freshly
// indexed view under the next generation. In-flight requests keep the
// view they started with; the generation bump invalidates every cached
// response and ETag.
func (s *Server) Refresh(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	records, err := s.src.Load()
	if err != nil {
		return err
	}
	var events []store.Event
	if s.events != nil {
		if err := s.events.Scan(func(e *store.Event) error {
			events = append(events, *e)
			return nil
		}); err != nil {
			return fmt.Errorf("server: loading events: %w", err)
		}
	}
	gen := s.gen.Add(1)
	v, err := buildView(records, events, gen)
	if err != nil {
		return err
	}
	s.view.Store(v)
	s.mGeneration.Set(float64(gen))
	s.mRecords.Set(float64(len(v.records)))
	s.mEvents.Set(float64(len(v.events)))
	s.log.Info("dataset view refreshed", "generation", gen, "records", len(v.records),
		"events", len(v.events))
	return nil
}

// Generation reports the generation of the currently served view.
func (s *Server) Generation() uint64 { return s.gen.Load() }

// SetReady flips the /v1/readyz answer; wire SetReady(false) into
// shutdown (e.g. http.Server.RegisterOnShutdown) so load balancers
// stop routing to a draining process.
func (s *Server) SetReady(ok bool) { s.ready.Store(ok) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/metrics" || strings.HasPrefix(path, "/debug/pprof"):
		s.debug.ServeHTTP(w, r)
	case strings.HasPrefix(path, "/api/"):
		s.redirectLegacy(w, r)
	default:
		s.serveV1(w, r)
	}
}

// serveV1 is the dispatch pipeline for the versioned API: match →
// panic guard → shed → cache → handle → encode → ETag → flush, with
// per-route metrics and a request-scoped log line around the lot.
func (s *Server) serveV1(w http.ResponseWriter, r *http.Request) {
	start := s.clock()
	rt, ps, allow := s.router.match(r.Method, r.URL.Path)
	name := "unmatched"
	if rt != nil {
		name = rt.Name
	}
	rec := api.NewRecorder()
	func() {
		defer func() {
			if p := recover(); p != nil {
				s.mPanics.Inc()
				s.log.Error("handler panic", "route", name, "path", r.URL.Path, "panic", fmt.Sprint(p))
				rec.Reset()
				api.WriteError(rec, errInternal("internal server error"))
			}
		}()
		s.handle(rec, r, rt, ps, allow)
	}()
	rec.Flush(w)
	s.mRequests.With(name, api.StatusClass(rec.Status())).Inc()
	s.mDuration.With(name).Observe(s.clock().Sub(start).Seconds())
	s.slo.Observe(s.clock().Sub(start), rec.Status() >= 500)
	if s.log.Enabled(obs.LevelDebug) {
		s.log.Debug("request",
			"method", r.Method, "path", r.URL.Path, "route", name,
			"status", rec.Status(), "client", clientKey(r),
			"dur_ms", s.clock().Sub(start).Milliseconds())
	}
}

func (s *Server) handle(w *api.Recorder, r *http.Request, rt *route, ps params, allow []string) {
	if rt == nil {
		if len(allow) > 0 {
			w.Header().Set("Allow", strings.Join(allow, ", "))
			api.WriteError(w, &apiErr{Status: http.StatusMethodNotAllowed, Code: "method_not_allowed",
				Message: fmt.Sprintf("method %s not allowed (allow: %s)", r.Method, strings.Join(allow, ", "))})
			return
		}
		api.WriteError(w, errNotFound("no such endpoint %q; see /v1/summary, /v1/domains, /v1/risk, /v1/tables", r.URL.Path))
		return
	}

	if rt.H.shed {
		if !s.inflight.TryAcquire() {
			s.mShed.With("inflight").Inc()
			w.Header().Set("Retry-After", "1")
			api.WriteError(w, &apiErr{Status: http.StatusServiceUnavailable, Code: "overloaded",
				Message: "server at its in-flight capacity; retry shortly"})
			return
		}
		defer func() {
			s.inflight.Release()
			s.mInflight.Dec()
		}()
		s.mInflight.Inc()
		if s.rate != nil {
			if ok, wait := s.rate.allow(clientKey(r), s.clock()); !ok {
				s.mShed.With("rate_limit").Inc()
				w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(wait)))
				api.WriteError(w, &apiErr{Status: http.StatusTooManyRequests, Code: "rate_limited",
					Message: "client request rate exceeded; slow down"})
				return
			}
		}
	}

	if s.timeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		r = r.WithContext(ctx)
	}

	v := s.view.Load()
	var key string
	cached := rt.H.cacheable && s.cache != nil
	if cached {
		key = cacheKey(r)
		if e, ok := s.cache.get(key, v.gen); ok {
			s.mCacheHits.With(rt.Name).Inc()
			s.serveBody(w, r, e.contentType, e.body, e.etag)
			return
		}
		s.mCacheMisses.With(rt.Name).Inc()
	}

	res, aerr := rt.H.h(v, ps, r)
	if aerr == nil && r.Context().Err() != nil {
		aerr = &apiErr{Status: http.StatusServiceUnavailable, Code: "timeout", Message: "request deadline exceeded"}
	}
	if aerr != nil {
		api.WriteError(w, aerr)
		return
	}
	body, ct, aerr := api.EncodeResult(res)
	if aerr != nil {
		s.log.Error("response encoding failed", "route", rt.Name, "err", aerr.Message)
		api.WriteError(w, aerr)
		return
	}
	// Every cacheable route is tagged, cache or no cache: the tag is a
	// function of the view and the body, so revalidation (304) works
	// with the response cache off too.
	var etag string
	if rt.H.cacheable {
		etag = api.ETagFor(v.gen, body)
	}
	if cached {
		s.cache.put(key, v.gen, &cacheEntry{contentType: ct, body: body, etag: etag})
	}
	s.serveBody(w, r, ct, body, etag)
}

// serveBody writes a 200 (or, under a matching If-None-Match, a bare
// 304) with the Content-Type set before the first body byte.
func (s *Server) serveBody(w *api.Recorder, r *http.Request, ct string, body []byte, etag string) {
	h := w.Header()
	if etag != "" {
		h.Set("ETag", etag)
		h.Set("Cache-Control", "no-cache") // revalidate with If-None-Match
		if api.ETagMatch(r.Header.Get("If-None-Match"), etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	h.Set("Content-Type", ct)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// legacySunset is the date after which the deprecated /api surface may
// be removed, advertised on every 308 via the Sunset header (RFC 8594).
// Dashboards should alert on a nonzero rate of
// aipan_server_requests_total{route="legacy"} well before this date —
// that counter is the census of consumers still on the old paths.
const legacySunset = "Sun, 01 Aug 2027 00:00:00 GMT"

// redirectLegacy answers the pre-/v1 routes with permanent redirects —
// 308 preserves the method — so existing consumers keep working while
// the Deprecation and Sunset headers tell them to move, and by when.
func (s *Server) redirectLegacy(w http.ResponseWriter, r *http.Request) {
	target, ok := legacyTarget(r.URL.Path)
	if !ok {
		rec := api.NewRecorder()
		api.WriteError(rec, errNotFound("no such endpoint %q; the API moved under /v1", r.URL.Path))
		rec.Flush(w)
		s.mRequests.With("legacy", api.StatusClass(rec.Status())).Inc()
		return
	}
	if r.URL.RawQuery != "" {
		target += "?" + r.URL.RawQuery
	}
	w.Header().Set("Deprecation", "true")
	w.Header().Set("Sunset", legacySunset)
	http.Redirect(w, r, target, http.StatusPermanentRedirect)
	s.mRequests.With("legacy", "3xx").Inc()
}

// legacyMapping pairs a deprecated /api path with the /v1 route pattern
// it redirects to. exact entries match the legacy path verbatim;
// prefix entries capture the remainder of the path as {param} and
// substitute it into the v1 pattern. The table — not ad-hoc string
// code — is the legacy surface, so TestLegacySurfaceComplete can hold
// it bijective against the /v1 router table.
type legacyMapping struct {
	legacy string // exact path, or prefix ending in "/"
	v1     string // route pattern, possibly with one {param}
	param  string // the capture name substituted for prefix mappings
}

var legacyMappings = []legacyMapping{
	{legacy: "/api/summary", v1: "/v1/summary"},
	{legacy: "/api/domains", v1: "/v1/domains"},
	{legacy: "/api/risk", v1: "/v1/risk"},
	{legacy: "/api/domain/", v1: "/v1/domains/{domain}", param: "domain"},
	{legacy: "/api/label/", v1: "/v1/domains/{domain}/label", param: "domain"},
	{legacy: "/api/ask/", v1: "/v1/domains/{domain}/ask", param: "domain"},
	{legacy: "/api/table/", v1: "/v1/tables/{table}", param: "table"},
}

// legacyTarget maps a deprecated /api path onto its /v1 equivalent.
func legacyTarget(path string) (string, bool) {
	for _, m := range legacyMappings {
		if m.param == "" {
			if path == m.legacy {
				return m.v1, true
			}
			continue
		}
		if rest, ok := strings.CutPrefix(path, m.legacy); ok && rest != "" {
			return strings.Replace(m.v1, "{"+m.param+"}", rest, 1), true
		}
	}
	return "", false
}
