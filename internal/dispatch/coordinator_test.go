package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"aipan/internal/core"
	"aipan/internal/obs"
	"aipan/internal/store"
)

// fakeClock is a hand-cranked obs.Clock: lease expiry in these tests
// happens exactly when the test advances time, never because the
// machine was slow.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// doReq drives one request through the coordinator handler and decodes
// the JSON answer into out (when non-nil).
func doReq(t *testing.T, h http.Handler, method, path, ifMatch string, body, out any) (int, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, path, rd)
	if ifMatch != "" {
		req.Header.Set("If-Match", ifMatch)
	}
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if out != nil && rw.Code < 400 {
		if err := json.Unmarshal(rw.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, path, rw.Body.String(), err)
		}
	}
	return rw.Code, rw.Result().Header
}

// referenceRun executes a plain single-process pipeline and returns its
// records by domain plus the export bytes every distributed variant
// must reproduce.
func referenceRun(t *testing.T, limit int) (map[string]store.Record, []byte) {
	t.Helper()
	st := store.NewMem()
	p, err := core.New(core.Config{
		Limit: limit, Store: st, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	recs := map[string]store.Record{}
	if err := st.Scan(func(r *store.Record) error {
		recs[r.Domain] = *r
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs, exportBytes(t, st)
}

func exportBytes(t *testing.T, st store.Store) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dataset.jsonl")
	if err := store.SaveJSONL(path, st); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func batchFor(recs map[string]store.Record, domains []string) RecordBatch {
	var b RecordBatch
	for _, d := range domains {
		b.Records = append(b.Records, recs[d])
	}
	return b
}

const (
	testLimit  = 12
	testShards = 2
	testTTL    = 30 * time.Second
)

func newTestCoordinator(t *testing.T) (*Coordinator, *fakeClock, *obs.Registry, store.Store) {
	t.Helper()
	fc := newFakeClock()
	reg := obs.NewRegistry()
	st := store.NewMem()
	c, err := NewCoordinator(CoordinatorConfig{
		Spec:     JobSpec{Limit: testLimit, Shards: testShards},
		Store:    st,
		LeaseTTL: testTTL,
		Clock:    fc.now,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, fc, reg, st
}

// shardDomains recomputes the partition the coordinator built, in study
// order — what a correct lease grant must cover.
func shardDomains(limit, shards int) [][]string {
	study := core.StudyFor(0, 0, limit)
	out := make([][]string, shards)
	for _, d := range study.Domains {
		i := store.ShardOf(d, shards)
		out[i] = append(out[i], d)
	}
	return out
}

func TestCoordinatorLeaseLifecycle(t *testing.T) {
	recs, wantExport := referenceRun(t, testLimit)
	c, fc, reg, st := newTestCoordinator(t)
	jobID := c.JobID()
	parts := shardDomains(testLimit, testShards)
	for i, p := range parts {
		if len(p) == 0 {
			t.Fatalf("test partition degenerate: shard %d empty; pick another limit", i)
		}
	}

	var page JobsPage
	if code, _ := doReq(t, c, http.MethodGet, "/v1/jobs", "", nil, &page); code != 200 {
		t.Fatalf("GET /v1/jobs = %d", code)
	}
	if len(page.Jobs) != 1 || page.Jobs[0].ID != jobID || page.Jobs[0].State != "running" {
		t.Fatalf("job listing %+v, want one running job %s", page, jobID)
	}

	// Lease the first shard.
	var lr LeaseResponse
	code, hdr := doReq(t, c, http.MethodPost, "/v1/jobs/"+jobID+"/leases", "",
		LeaseRequest{Worker: "wA"}, &lr)
	if code != 200 || lr.Status != LeaseGranted || lr.Grant == nil {
		t.Fatalf("lease: code %d resp %+v", code, lr)
	}
	g := lr.Grant
	if g.Epoch != 1 || g.TTLMillis != testTTL.Milliseconds() || g.HeartbeatMillis != testTTL.Milliseconds()/3 {
		t.Fatalf("grant %+v: want epoch 1, ttl %d, hb %d", g, testTTL.Milliseconds(), testTTL.Milliseconds()/3)
	}
	if hdr.Get("ETag") != g.ETag {
		t.Fatalf("lease ETag header %q != grant etag %q", hdr.Get("ETag"), g.ETag)
	}
	mine := parts[g.Shard]
	hbPath := fmt.Sprintf("/v1/jobs/%s/leases/%s/heartbeat", jobID, g.LeaseID)
	recPath := fmt.Sprintf("/v1/jobs/%s/leases/%s/records", jobID, g.LeaseID)
	donePath := fmt.Sprintf("/v1/jobs/%s/leases/%s/complete", jobID, g.LeaseID)

	// Fencing: no If-Match and wrong If-Match are both refused.
	if code, _ := doReq(t, c, http.MethodPost, hbPath, "", struct{}{}, nil); code != 412 {
		t.Fatalf("heartbeat without If-Match = %d, want 412", code)
	}
	if code, _ := doReq(t, c, http.MethodPost, hbPath, `"s99-e9"`, struct{}{}, nil); code != 412 {
		t.Fatalf("heartbeat with stale If-Match = %d, want 412", code)
	}
	if code, _ := doReq(t, c, http.MethodPost, hbPath, g.ETag, struct{}{}, nil); code != 200 {
		t.Fatalf("heartbeat = %d, want 200", code)
	}

	// A record from the other shard is rejected outright.
	other := parts[1-g.Shard][0]
	if code, _ := doReq(t, c, http.MethodPost, recPath, g.ETag,
		batchFor(recs, []string{other}), nil); code != 400 {
		t.Fatalf("cross-shard upload = %d, want 400", code)
	}

	// Completing early is a conflict.
	if code, _ := doReq(t, c, http.MethodPost, donePath, g.ETag, struct{}{}, nil); code != 409 {
		t.Fatalf("premature complete = %d, want 409", code)
	}

	// Upload the shard; a replay dedups against the done-set.
	var up UploadResult
	if code, _ := doReq(t, c, http.MethodPost, recPath, g.ETag, batchFor(recs, mine), &up); code != 200 {
		t.Fatalf("upload = %d", code)
	}
	if up.Accepted != len(mine) || up.Duplicate != 0 {
		t.Fatalf("upload result %+v, want %d accepted", up, len(mine))
	}
	if code, _ := doReq(t, c, http.MethodPost, recPath, g.ETag, batchFor(recs, mine), &up); code != 200 {
		t.Fatalf("replay upload = %d", code)
	}
	if up.Accepted != 0 || up.Duplicate != len(mine) {
		t.Fatalf("replay result %+v, want %d duplicates", up, len(mine))
	}
	if code, _ := doReq(t, c, http.MethodPost, donePath, g.ETag, struct{}{}, nil); code != 200 {
		t.Fatalf("complete = %d", code)
	}

	// Second shard: lease, go silent, watch readyz degrade (satellite:
	// the shared api.Health shape), then expire into reassignment.
	code, _ = doReq(t, c, http.MethodPost, "/v1/jobs/"+jobID+"/leases", "",
		LeaseRequest{Worker: "wB"}, &lr)
	if code != 200 || lr.Status != LeaseGranted {
		t.Fatalf("second lease: code %d resp %+v", code, lr)
	}
	g2 := lr.Grant

	var health struct {
		Status  string `json:"status"`
		Warning string `json:"warning"`
	}
	doReq(t, c, http.MethodGet, "/v1/readyz", "", nil, &health)
	if health.Status != "ready" {
		t.Fatalf("readyz fresh lease = %+v, want ready", health)
	}
	fc.advance(2 * time.Duration(g2.HeartbeatMillis) * time.Millisecond)
	doReq(t, c, http.MethodGet, "/v1/readyz", "", nil, &health)
	if health.Status != "degraded" || health.Warning == "" {
		t.Fatalf("readyz after 2 missed beats = %+v, want degraded+warning", health)
	}
	hb2 := fmt.Sprintf("/v1/jobs/%s/leases/%s/heartbeat", jobID, g2.LeaseID)
	if code, _ := doReq(t, c, http.MethodPost, hb2, g2.ETag, struct{}{}, nil); code != 200 {
		t.Fatalf("late heartbeat = %d", code)
	}
	doReq(t, c, http.MethodGet, "/v1/readyz", "", nil, &health)
	if health.Status != "ready" {
		t.Fatalf("readyz after recovery = %+v, want ready", health)
	}

	// Silence past the TTL: the shard goes back to pending and the old
	// lease is fenced out of every mutating call.
	fc.advance(testTTL)
	var js JobStatus
	doReq(t, c, http.MethodGet, "/v1/jobs/"+jobID, "", nil, &js)
	if got := js.Shards[g2.Shard].State; got != ShardPending {
		t.Fatalf("expired shard state %q, want pending", got)
	}
	if n := reg.Counter("aipan_dispatch_reassigned_total", "").Value(); n != 1 {
		t.Fatalf("reassigned_total = %v, want 1", n)
	}
	if code, _ := doReq(t, c, http.MethodPost, hb2, g2.ETag, struct{}{}, nil); code != 412 {
		t.Fatalf("zombie heartbeat = %d, want 412", code)
	}

	// Re-lease: epoch bumps, and the new holder finishes the job.
	code, _ = doReq(t, c, http.MethodPost, "/v1/jobs/"+jobID+"/leases", "",
		LeaseRequest{Worker: "wC"}, &lr)
	if code != 200 || lr.Status != LeaseGranted || lr.Grant.Shard != g2.Shard || lr.Grant.Epoch != 2 {
		t.Fatalf("re-lease: code %d resp %+v, want shard %d epoch 2", code, lr, g2.Shard)
	}
	g3 := lr.Grant
	rec3 := fmt.Sprintf("/v1/jobs/%s/leases/%s/records", jobID, g3.LeaseID)
	done3 := fmt.Sprintf("/v1/jobs/%s/leases/%s/complete", jobID, g3.LeaseID)
	if code, _ := doReq(t, c, http.MethodPost, rec3, g3.ETag, batchFor(recs, parts[g3.Shard]), &up); code != 200 {
		t.Fatalf("final upload = %d", code)
	}
	if code, _ := doReq(t, c, http.MethodPost, done3, g3.ETag, struct{}{}, nil); code != 200 {
		t.Fatalf("final complete = %d", code)
	}

	doReq(t, c, http.MethodPost, "/v1/jobs/"+jobID+"/leases", "", LeaseRequest{Worker: "wD"}, &lr)
	if lr.Status != LeaseJobDone {
		t.Fatalf("post-completion lease status %q, want done", lr.Status)
	}
	ctx, cancelWait := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelWait()
	if err := c.Wait(ctx); err != nil {
		t.Fatalf("Wait after completion: %v", err)
	}
	if got := exportBytes(t, st); !bytes.Equal(got, wantExport) {
		t.Fatalf("merged export differs from single-process export (%d vs %d bytes)",
			len(got), len(wantExport))
	}
	if got := c.Funnel(); got.Domains == 0 {
		t.Fatalf("funnel after merge is empty: %+v", got)
	}
}

func TestCoordinatorProtocolSurface(t *testing.T) {
	c, _, _, _ := newTestCoordinator(t)
	jobID := c.JobID()

	// Unknown endpoints answer the uniform envelope.
	rw := httptest.NewRecorder()
	c.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/v1/nope", nil))
	if rw.Code != 404 || !bytes.Contains(rw.Body.Bytes(), []byte(`"error"`)) {
		t.Fatalf("unknown path: %d %s", rw.Code, rw.Body.String())
	}

	// Wrong method gets a sorted Allow.
	rw = httptest.NewRecorder()
	c.ServeHTTP(rw, httptest.NewRequest(http.MethodDelete, "/v1/jobs", nil))
	if rw.Code != 405 || rw.Header().Get("Allow") != "GET" {
		t.Fatalf("DELETE /v1/jobs: %d allow %q", rw.Code, rw.Header().Get("Allow"))
	}

	// Cursor pagination: bogus cursors are a 400, a full page ends the
	// listing with no next_cursor.
	if code, _ := doReq(t, c, http.MethodGet, "/v1/jobs?cursor=%25%25", "", nil, nil); code != 400 {
		t.Fatalf("bad cursor = %d, want 400", code)
	}
	var page JobsPage
	doReq(t, c, http.MethodGet, "/v1/jobs?limit=1", "", nil, &page)
	if page.Total != 1 || page.NextCursor != "" {
		t.Fatalf("page %+v, want total 1 and no next cursor", page)
	}

	// Unknown job IDs 404 everywhere.
	if code, _ := doReq(t, c, http.MethodGet, "/v1/jobs/other", "", nil, nil); code != 404 {
		t.Fatalf("GET unknown job = %d", code)
	}
	if code, _ := doReq(t, c, http.MethodPost, "/v1/jobs/other/leases", "",
		LeaseRequest{Worker: "w"}, nil); code != 404 {
		t.Fatalf("lease unknown job = %d", code)
	}

	// A lease request naming no worker is malformed.
	if code, _ := doReq(t, c, http.MethodPost, "/v1/jobs/"+jobID+"/leases", "",
		LeaseRequest{}, nil); code != 400 {
		t.Fatalf("anonymous lease = %d, want 400", code)
	}

	// healthz speaks the shared api.Health shape.
	var h struct {
		Status  string `json:"status"`
		Records int    `json:"records"`
	}
	if code, _ := doReq(t, c, http.MethodGet, "/v1/healthz", "", nil, &h); code != 200 || h.Status != "ok" {
		t.Fatalf("healthz: %d %+v", code, h)
	}
}

// TestCoordinatorFunnelIgnoresUploadedCells: a record batch that still
// carries a "cells" array, here one contradicting every record, is
// accepted, and the coordinator's funnel is the fold of the cells of the
// records in its store — the uploaded cells never reach it.
func TestCoordinatorFunnelIgnoresUploadedCells(t *testing.T) {
	recs, _ := referenceRun(t, testLimit)
	parts := shardDomains(testLimit, testShards)
	c, _, _, st := newTestCoordinator(t)
	jobID := c.JobID()
	for range parts {
		var lr LeaseResponse
		doReq(t, c, http.MethodPost, "/v1/jobs/"+jobID+"/leases", "", LeaseRequest{Worker: "liar"}, &lr)
		if lr.Status != LeaseGranted {
			t.Fatalf("lease %+v, want granted", lr)
		}
		g := lr.Grant
		batch := struct {
			Records []store.Record   `json:"records"`
			Cells   []map[string]any `json:"cells"`
		}{Records: batchFor(recs, parts[g.Shard]).Records}
		for range batch.Records {
			batch.Cells = append(batch.Cells, map[string]any{
				"pages": 999, "priv_pages": 99, "words": 1,
				"crawl_ok": true, "extract_ok": true, "annotated": false, "fallback": true,
			})
		}
		var up UploadResult
		if code, _ := doReq(t, c, http.MethodPost,
			fmt.Sprintf("/v1/jobs/%s/leases/%s/records", jobID, g.LeaseID), g.ETag, batch, &up); code != 200 {
			t.Fatalf("upload with cells = %d, want 200", code)
		}
		if up.Accepted != len(parts[g.Shard]) {
			t.Fatalf("upload %+v, want %d accepted", up, len(parts[g.Shard]))
		}
		if code, _ := doReq(t, c, http.MethodPost,
			fmt.Sprintf("/v1/jobs/%s/leases/%s/complete", jobID, g.LeaseID), g.ETag, struct{}{}, nil); code != 200 {
			t.Fatalf("complete = %d", code)
		}
	}

	study := core.StudyFor(0, 0, testLimit)
	slot := map[string]int{}
	for i, d := range study.Domains {
		slot[d] = i
	}
	cells := make([]core.FunnelCell, len(study.Domains))
	if err := st.Scan(func(r *store.Record) error {
		cells[slot[r.Domain]] = core.CellOf(r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := core.FoldFunnel(study.Companies, study.Corrected, cells)
	if got := c.Funnel(); got != want {
		t.Fatalf("funnel follows the uploaded cells, not the stored records:\n  got  %+v\n  want %+v", got, want)
	}
}

// TestCoordinatorResume reopens a store already holding part of the job
// and checks the coordinator leases only the remainder.
func TestCoordinatorResume(t *testing.T) {
	recs, want := referenceRun(t, testLimit)
	parts := shardDomains(testLimit, testShards)

	st := store.NewMem()
	for _, d := range parts[0] {
		r := recs[d]
		if err := st.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	fc := newFakeClock()
	c, err := NewCoordinator(CoordinatorConfig{
		Spec:     JobSpec{Limit: testLimit, Shards: testShards},
		Store:    st,
		LeaseTTL: testTTL,
		Clock:    fc.now,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var js JobStatus
	doReq(t, c, http.MethodGet, "/v1/jobs/"+c.JobID(), "", nil, &js)
	if js.Shards[0].State != ShardDone || js.DoneDomains != len(parts[0]) {
		t.Fatalf("resumed status %+v, want shard 0 done with %d domains", js, len(parts[0]))
	}

	var lr LeaseResponse
	doReq(t, c, http.MethodPost, "/v1/jobs/"+c.JobID()+"/leases", "",
		LeaseRequest{Worker: "w"}, &lr)
	if lr.Status != LeaseGranted || lr.Grant.Shard != 1 {
		t.Fatalf("resume lease %+v, want shard 1", lr)
	}
	var up UploadResult
	doReq(t, c, http.MethodPost,
		fmt.Sprintf("/v1/jobs/%s/leases/%s/records", c.JobID(), lr.Grant.LeaseID),
		lr.Grant.ETag, batchFor(recs, parts[1]), &up)
	if up.Accepted != len(parts[1]) {
		t.Fatalf("resume upload %+v, want %d accepted", up, len(parts[1]))
	}
	if code, _ := doReq(t, c, http.MethodPost,
		fmt.Sprintf("/v1/jobs/%s/leases/%s/complete", c.JobID(), lr.Grant.LeaseID),
		lr.Grant.ETag, struct{}{}, nil); code != 200 {
		t.Fatalf("resume complete = %d", code)
	}
	if got := exportBytes(t, st); !bytes.Equal(got, want) {
		t.Fatalf("resumed export differs from single-process export")
	}
}
