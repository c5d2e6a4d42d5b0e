package chatbot

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"aipan/internal/engine"
	"aipan/internal/obs"
)

// Client wraps a Chatbot with the operational machinery a large-scale
// annotation run needs: bounded concurrency, retry with backoff on
// transient failures, an idempotent in-memory response cache (identical
// prompts are asked once per client), and aggregate token accounting.
type Client struct {
	bot         Chatbot
	lim         *engine.Limiter
	maxRetries  int
	retryDelay  time.Duration
	mu          sync.Mutex
	cache       map[string]Response
	cacheOn     bool
	usage       Usage
	calls       int
	cacheHits   int
	failedCalls int
	met         *clientMetrics
}

// clientMetrics is the client's instrument set: outcome counters,
// retry/backoff attempts, token totals, and the in-flight gauge to read
// against the configured concurrency bound. Call latency is the
// chatbot.call span's.
type clientMetrics struct {
	calls     *obs.CounterVec // by result (ok, error)
	cacheHits *obs.Counter
	retries   *obs.Counter
	inflight  *obs.Gauge
	tokens    *obs.CounterVec // by kind (prompt, completion)
}

func newClientMetrics(reg *obs.Registry) *clientMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	return &clientMetrics{
		calls: reg.CounterVec("aipan_chatbot_calls_total",
			"Chatbot completions by result (cache hits not included).", "result"),
		cacheHits: reg.Counter("aipan_chatbot_cache_hits_total",
			"Completions answered from the idempotent response cache."),
		retries: reg.Counter("aipan_chatbot_retries_total",
			"Retry attempts after transient completion failures."),
		inflight: reg.Gauge("aipan_chatbot_inflight",
			"Completions currently in flight (bounded by the concurrency gate)."),
		tokens: reg.CounterVec("aipan_chatbot_tokens_total",
			"Tokens consumed by kind (prompt, completion); simulated backends report estimates.", "kind"),
	}
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithConcurrency bounds in-flight completions (default 8).
func WithConcurrency(n int) ClientOption {
	return func(c *Client) { c.lim = engine.NewLimiter(n) }
}

// WithRetries sets the retry budget for failed completions (default 2).
func WithRetries(n int, delay time.Duration) ClientOption {
	return func(c *Client) {
		c.maxRetries = n
		c.retryDelay = delay
	}
}

// WithCache toggles the idempotent response cache (default on).
func WithCache(on bool) ClientOption {
	return func(c *Client) { c.cacheOn = on }
}

// WithRegistry routes the client's metrics to reg instead of the
// process-wide default registry.
func WithRegistry(reg *obs.Registry) ClientOption {
	return func(c *Client) { c.met = newClientMetrics(reg) }
}

// NewClient wraps bot.
func NewClient(bot Chatbot, opts ...ClientOption) *Client {
	c := &Client{
		bot:        bot,
		lim:        engine.NewLimiter(8),
		maxRetries: 2,
		retryDelay: 50 * time.Millisecond,
		cache:      map[string]Response{},
		cacheOn:    true,
	}
	for _, o := range opts {
		o(c)
	}
	if c.met == nil {
		c.met = newClientMetrics(nil)
	}
	return c
}

// Name reports the wrapped model's name.
func (c *Client) Name() string { return c.bot.Name() }

// Complete runs a completion through the cache, concurrency gate, and
// retry loop.
func (c *Client) Complete(ctx context.Context, req Request) (Response, error) {
	var key string
	if c.cacheOn {
		key = cacheKey(&req)
		c.mu.Lock()
		if resp, ok := c.cache[key]; ok {
			c.cacheHits++
			c.mu.Unlock()
			c.met.cacheHits.Inc()
			return resp, nil
		}
		c.mu.Unlock()
	}

	if err := c.lim.Acquire(ctx); err != nil {
		return Response{}, err
	}
	defer c.lim.Release()
	c.met.inflight.Inc()
	defer c.met.inflight.Dec()
	// The span times the backend call including retries (cache hits
	// return above without one); its task attribute breaks the exported
	// records down by task.
	_, span := obs.StartSpanWith(ctx, "chatbot.call", obs.A("task", req.Task))
	defer span.End()

	var resp Response
	var err error
	for attempt := 0; attempt <= c.maxRetries; attempt++ {
		if attempt > 0 {
			c.met.retries.Inc()
			if !engine.Sleep(ctx, c.retryDelay<<(attempt-1)) {
				return Response{}, ctx.Err()
			}
		}
		resp, err = c.bot.Complete(ctx, req)
		if err == nil {
			break
		}
		if ctx.Err() != nil {
			return Response{}, ctx.Err()
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if err != nil {
		c.failedCalls++
		c.met.calls.With("error").Inc()
		return Response{}, fmt.Errorf("chatbot: %s: %w", c.bot.Name(), err)
	}
	c.met.calls.With("ok").Inc()
	c.met.tokens.With("prompt").Add(float64(resp.Usage.PromptTokens))
	c.met.tokens.With("completion").Add(float64(resp.Usage.CompletionTokens))
	c.usage.Add(resp.Usage)
	if c.cacheOn {
		c.cache[key] = resp
	}
	return resp, nil
}

// Stats reports aggregate accounting for the client's lifetime.
type Stats struct {
	Calls       int
	CacheHits   int
	FailedCalls int
	Usage       Usage
}

// Stats returns a snapshot of the client's accounting.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Calls: c.calls, CacheHits: c.cacheHits, FailedCalls: c.failedCalls, Usage: c.usage}
}

func cacheKey(req *Request) string {
	h := sha256.New()
	for _, m := range req.Messages {
		h.Write([]byte(m.Role))
		h.Write([]byte{0})
		h.Write([]byte(m.Content))
		h.Write([]byte{0})
	}
	fmt.Fprintf(h, "%s|%g|%d", req.Task, req.Temperature, req.MaxTokens)
	return hex.EncodeToString(h.Sum(nil))
}

var _ Chatbot = (*Client)(nil)
var _ Chatbot = (*Sim)(nil)
var _ Chatbot = (*OpenAI)(nil)
