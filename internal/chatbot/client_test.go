package chatbot

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// flakyBot fails the first n calls then succeeds.
type flakyBot struct {
	failures int32
	calls    int32
}

func (f *flakyBot) Name() string { return "flaky" }

func (f *flakyBot) Complete(ctx context.Context, req Request) (Response, error) {
	n := atomic.AddInt32(&f.calls, 1)
	if n <= atomic.LoadInt32(&f.failures) {
		return Response{}, errors.New("transient")
	}
	return Response{Content: "[]", Model: "flaky", Usage: Usage{PromptTokens: 10, CompletionTokens: 2}}, nil
}

func TestClientRetries(t *testing.T) {
	bot := &flakyBot{failures: 2}
	c := NewClient(bot, WithRetries(3, 0))
	req := Request{Task: "t", Messages: []Message{{Role: RoleUser, Content: "x"}}}
	resp, err := c.Complete(context.Background(), req)
	if err != nil {
		t.Fatalf("expected retry success, got %v", err)
	}
	if resp.Content != "[]" {
		t.Errorf("content = %q", resp.Content)
	}
	st := c.Stats()
	if st.Calls != 1 || st.FailedCalls != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestClientExhaustsRetries(t *testing.T) {
	bot := &flakyBot{failures: 100}
	c := NewClient(bot, WithRetries(1, 0))
	_, err := c.Complete(context.Background(), Request{Task: "t", Messages: []Message{{Role: RoleUser, Content: "x"}}})
	if err == nil {
		t.Fatal("expected failure")
	}
	if st := c.Stats(); st.FailedCalls != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestClientCache(t *testing.T) {
	bot := &flakyBot{}
	c := NewClient(bot)
	req := Request{Task: "t", Messages: []Message{{Role: RoleUser, Content: "same"}}}
	for i := 0; i < 3; i++ {
		if _, err := c.Complete(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if got := atomic.LoadInt32(&bot.calls); got != 1 {
		t.Errorf("backend called %d times, want 1 (cache)", got)
	}
	if st := c.Stats(); st.CacheHits != 2 {
		t.Errorf("cache hits = %d, want 2", st.CacheHits)
	}
	// Different content misses the cache.
	req2 := Request{Task: "t", Messages: []Message{{Role: RoleUser, Content: "different"}}}
	if _, err := c.Complete(context.Background(), req2); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&bot.calls); got != 2 {
		t.Errorf("backend called %d times, want 2", got)
	}
}

func TestClientUsageAccounting(t *testing.T) {
	c := NewClient(&flakyBot{}, WithCache(false))
	req := Request{Task: "t", Messages: []Message{{Role: RoleUser, Content: "x"}}}
	for i := 0; i < 3; i++ {
		if _, err := c.Complete(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Usage.PromptTokens != 30 || st.Usage.CompletionTokens != 6 {
		t.Errorf("usage = %+v", st.Usage)
	}
	if st.Usage.Total() != 36 {
		t.Errorf("total = %d", st.Usage.Total())
	}
}

func TestClientContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewClient(&flakyBot{failures: 100}, WithRetries(5, 1))
	_, err := c.Complete(ctx, Request{Task: "t", Messages: []Message{{Role: RoleUser, Content: "x"}}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestOpenAIBackend(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/chat/completions" {
			t.Errorf("path = %s", r.URL.Path)
		}
		if got := r.Header.Get("Authorization"); got != "Bearer test-key" {
			t.Errorf("auth = %q", got)
		}
		var req oaRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decode: %v", err)
		}
		if req.Model != "gpt-4-turbo-2024-04-09" {
			t.Errorf("model = %q", req.Model)
		}
		if len(req.Messages) != 3 {
			t.Errorf("messages = %d", len(req.Messages))
		}
		resp := map[string]any{
			"choices": []map[string]any{{"message": map[string]any{"content": `[[1, "email address"]]`}}},
			"usage":   map[string]int{"prompt_tokens": 100, "completion_tokens": 10},
		}
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			t.Error(err)
		}
	}))
	defer srv.Close()

	bot, err := NewOpenAI(OpenAIConfig{BaseURL: srv.URL, APIKey: "test-key", Model: "gpt-4-turbo-2024-04-09"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := bot.Complete(context.Background(), ExtractTypesRequest("[1] We collect your email address.", 3))
	if err != nil {
		t.Fatal(err)
	}
	es, err := ParseExtractions(resp.Content)
	if err != nil || len(es) != 1 || es[0].Text != "email address" {
		t.Errorf("extractions = %+v, err=%v", es, err)
	}
	if resp.Usage.PromptTokens != 100 {
		t.Errorf("usage = %+v", resp.Usage)
	}
}

func TestOpenAIErrors(t *testing.T) {
	if _, err := NewOpenAI(OpenAIConfig{Model: "x"}); err == nil {
		t.Error("missing BaseURL should fail")
	}
	if _, err := NewOpenAI(OpenAIConfig{BaseURL: "http://x"}); err == nil {
		t.Error("missing Model should fail")
	}

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(429)
		_, _ = w.Write([]byte(`{"error": {"message": "rate limited", "type": "rate_limit"}}`))
	}))
	defer srv.Close()
	bot, err := NewOpenAI(OpenAIConfig{BaseURL: srv.URL, Model: "m"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = bot.Complete(context.Background(), Request{Messages: []Message{{Role: RoleUser, Content: "x"}}})
	if err == nil || !contains(err.Error(), "rate limited") {
		t.Errorf("err = %v", err)
	}
}

func TestOpenAIEmptyChoice(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"choices": []}`))
	}))
	defer srv.Close()
	bot, _ := NewOpenAI(OpenAIConfig{BaseURL: srv.URL, Model: "m"})
	_, err := bot.Complete(context.Background(), Request{Messages: []Message{{Role: RoleUser, Content: "x"}}})
	if !errors.Is(err, ErrEmptyResponse) {
		t.Errorf("err = %v, want ErrEmptyResponse", err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}
