package server

import (
	"net/http"

	"aipan/internal/api"
)

// params carries the path parameters captured by a route match.
type params = api.Params

// handler is a /v1 route implementation: it computes a response from
// the immutable dataset view and never touches the wire — the dispatch
// layer owns encoding, ETags, caching, and error envelopes, so every
// route gets them uniformly.
type handler func(v *view, ps params, r *http.Request) (*result, *apiErr)

// routeRule is the server's per-route policy carried by the shared
// api.Router: the handler plus whether the route is ETag-tagged and
// response-cached (when the cache is on) and
// whether it is subject to rate limiting and the in-flight ceiling
// (health probes are exempt: monitoring must see a drowning server).
type routeRule struct {
	h         handler
	cacheable bool
	shed      bool
}

// route is one registered (method, pattern) pair; Name is the pattern
// itself — the bounded-cardinality metric label for the route.
type route = api.Route[routeRule]

// router wraps the shared exact-segment matcher (internal/api) so that
// 404 and 405 speak the same JSON error envelope as every other
// response, 405 carries a correct Allow header, and each match yields
// the route's metric label.
type router struct {
	api.Router[routeRule]
}

func (rt *router) add(method, pattern string, h handler, cacheable, shed bool) {
	rt.Add(method, pattern, routeRule{h: h, cacheable: cacheable, shed: shed})
}

func (rt *router) match(method, path string) (*route, params, []string) {
	return rt.Match(method, path)
}
