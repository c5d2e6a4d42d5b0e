package dispatch

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"aipan/internal/core"
	"aipan/internal/obs"
	"aipan/internal/store"
)

// runDistributed executes one full distributed job over loopback with n
// workers and returns the finished coordinator and its merged store.
func runDistributed(t *testing.T, limit, shards, n int) (*Coordinator, *store.Mem) {
	t.Helper()
	st := store.NewMem()
	coord, err := NewCoordinator(CoordinatorConfig{
		Spec:     JobSpec{Limit: limit, Shards: shards},
		Store:    st,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		w, err := NewWorker(WorkerConfig{
			Coordinator: srv.URL,
			ID:          fmt.Sprintf("w%d", i),
			Registry:    obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatalf("coordinator never saw the job finish: %v", err)
	}
	return coord, st
}

// TestDistributedByteIdentical is the tentpole's acceptance gate: the
// same seed exports byte-identical datasets from a single-process run,
// a one-worker distributed run, and a four-worker distributed run. The
// coordinator's funnel equals the single-process run's field for field,
// and so does that of a coordinator reopened over the merged store.
func TestDistributedByteIdentical(t *testing.T) {
	const limit, shards = 16, 4
	_, want := referenceRun(t, limit)
	p, err := core.New(core.Config{Limit: limit, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4} {
		coord, st := runDistributed(t, limit, shards, n)
		if got := exportBytes(t, st); !bytes.Equal(got, want) {
			t.Fatalf("%d-worker export differs from single-process export (%d vs %d bytes)",
				n, len(got), len(want))
		}
		if got := coord.Funnel(); got != res.Funnel {
			t.Errorf("%d-worker funnel differs from the single-process run's:\n  got  %+v\n  want %+v",
				n, got, res.Funnel)
		}
		reopened, err := NewCoordinator(CoordinatorConfig{
			Spec:     JobSpec{Limit: limit, Shards: shards},
			Store:    st,
			Registry: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := reopened.Funnel(); got != res.Funnel {
			t.Errorf("%d-worker merged store reopened: funnel differs from the single-process run's:\n  got  %+v\n  want %+v",
				n, got, res.Funnel)
		}
	}
}

// TestLeaseReassignmentRace kills a worker between uploading part of
// its shard and finishing it: the shard must be re-leased exactly once,
// the replacement must resume past the dead worker's uploads, and the
// export must come out byte-identical with no duplicate appends.
func TestLeaseReassignmentRace(t *testing.T) {
	const limit, shards = 16, 4
	recs, want := referenceRun(t, limit)
	parts := shardDomains(limit, shards)

	fc := newFakeClock()
	reg := obs.NewRegistry()
	st := store.NewMem()
	coord, err := NewCoordinator(CoordinatorConfig{
		Spec:     JobSpec{Limit: limit, Shards: shards},
		Store:    st,
		LeaseTTL: testTTL,
		Clock:    fc.now,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord)
	defer srv.Close()
	jobID := coord.JobID()

	// "Worker A" leases a shard, uploads half of it, and dies without a
	// word — exactly the checkpoint-but-no-complete window.
	var lr LeaseResponse
	code, _ := doReq(t, coord, http.MethodPost, "/v1/jobs/"+jobID+"/leases", "",
		LeaseRequest{Worker: "doomed"}, &lr)
	if code != 200 || lr.Status != LeaseGranted {
		t.Fatalf("doomed lease: %d %+v", code, lr)
	}
	g := lr.Grant
	mine := parts[g.Shard]
	if len(mine) < 2 {
		t.Fatalf("shard %d has %d domains; test needs >= 2", g.Shard, len(mine))
	}
	half := mine[:len(mine)/2]
	var up UploadResult
	doReq(t, coord, http.MethodPost,
		fmt.Sprintf("/v1/jobs/%s/leases/%s/records", jobID, g.LeaseID),
		g.ETag, batchFor(recs, half), &up)
	if up.Accepted != len(half) {
		t.Fatalf("doomed upload %+v, want %d accepted", up, len(half))
	}

	// The lease expires; the next request sweeps it back to pending.
	fc.advance(testTTL + time.Second)
	var js JobStatus
	doReq(t, coord, http.MethodGet, "/v1/jobs/"+jobID, "", nil, &js)
	if js.Shards[g.Shard].State != ShardPending {
		t.Fatalf("shard %d state %q after TTL, want pending", g.Shard, js.Shards[g.Shard].State)
	}

	// A real worker finishes the job, reclaiming the abandoned shard.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, ID: "replacement", Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("replacement worker: %v", err)
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatalf("job never completed: %v", err)
	}

	// Exactly one reassignment, the shard's lease fenced to epoch 2, and
	// the merged dataset byte-identical with every domain appended once.
	if n := reg.Counter("aipan_dispatch_reassigned_total", "").Value(); n != 1 {
		t.Fatalf("reassigned_total = %v, want exactly 1", n)
	}
	doReq(t, coord, http.MethodGet, "/v1/jobs/"+jobID, "", nil, &js)
	if js.State != "done" || js.Shards[g.Shard].Epoch != 2 {
		t.Fatalf("final status %+v, want done with shard %d at epoch 2", js, g.Shard)
	}
	if n, err := st.Len(); err != nil || n != limit {
		t.Fatalf("store holds %d records (err %v), want %d — duplicates or losses", n, err, limit)
	}
	if got := exportBytes(t, st); !bytes.Equal(got, want) {
		t.Fatalf("post-reassignment export differs from single-process export (%d vs %d bytes)",
			len(got), len(want))
	}
}
