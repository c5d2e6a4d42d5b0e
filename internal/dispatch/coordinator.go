package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"aipan/internal/api"
	"aipan/internal/core"
	"aipan/internal/engine"
	"aipan/internal/obs"
	"aipan/internal/store"
	"aipan/internal/webgen"
)

// CoordinatorConfig configures a Coordinator.
type CoordinatorConfig struct {
	// Spec pins the run. Zero Seed resolves to the default seed, zero
	// Shards to 8.
	Spec JobSpec
	// Store receives the merged records (caller-owned; the coordinator
	// never closes it). A seed-stamping backend is checked against the
	// spec, and records already present resume the job — reopening a
	// checkpoint store continues where the previous coordinator died.
	Store store.Store
	// LeaseTTL is the heartbeat deadline after which a silent lease is
	// reassigned (default 15s). Workers are told to beat every TTL/3.
	LeaseTTL time.Duration
	// Clock injects the lease timebase (default obs.SystemClock). Lease
	// expiry is judged only by comparing its readings; no clock value
	// ever reaches the wire or the store.
	Clock obs.Clock
	// Registry receives aipan_dispatch_* metrics (default obs.Default()).
	Registry *obs.Registry
	// Logger, when set, receives lease-lifecycle logs.
	Logger *obs.Logger
}

// shardState is one shard of the partition and, while leased, the
// lease fencing state. epoch increments on every grant; the ETag
// derived from it is the fence every mutating request must present.
type shardState struct {
	idx      int
	domains  []string // this shard's study domains, in study-list order
	done     map[string]bool
	doneN    int
	state    string // ShardPending | ShardLeased | ShardDone
	leaseID  string
	worker   string
	epoch    int
	lastBeat time.Time
}

func (sh *shardState) etag() string {
	return fmt.Sprintf("\"s%02d-e%d\"", sh.idx, sh.epoch)
}

// coordHandler is a dispatch route implementation. It may set response
// headers (lease ETags) on the recorder; the dispatch loop owns
// encoding and the error envelope.
type coordHandler func(rec *api.Recorder, ps api.Params, r *http.Request) (*api.Result, *api.Error)

// Coordinator owns one distributed job: the partitioned study list,
// shard leases, and the merged result store. It is an http.Handler
// serving the /v1 dispatch protocol plus /metrics and /debug/pprof.
//
// Exactly-once merging: all record uploads serialize through a
// one-slot limiter acquired before any state is read, so between a
// batch's dedup check and its appends no other upload can interleave —
// a reassigned lease's late upload either fails the epoch fence or
// dedups against the done-set, and the store sees each domain once.
type Coordinator struct {
	spec  JobSpec
	jobID string
	study core.Study
	st    store.Store
	ttl   time.Duration
	clock obs.Clock
	log   *obs.Logger

	uploads *engine.Limiter // one-slot: serializes all record uploads

	mu        sync.Mutex
	shards    []*shardState
	shardOf   map[string]int // study domain → shard index
	cells     map[string]core.FunnelCell
	doneTotal int
	version   uint64 // bumps on every lease/state transition

	doneCh   chan struct{}
	doneOnce sync.Once

	router *api.Router[coordHandler]
	debug  http.Handler

	mRequests   *obs.CounterVec
	mLeases     *obs.CounterVec
	mHeartbeats *obs.CounterVec
	mReassigned *obs.Counter
	mRecords    *obs.CounterVec
	mShards     *obs.GaugeVec
}

// NewCoordinator partitions the study list for cfg.Spec, resumes any
// records already in cfg.Store, and returns a coordinator ready to
// serve leases.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	spec := cfg.Spec
	if spec.Seed == 0 {
		spec.Seed = webgen.Seed
	}
	if spec.Shards == 0 {
		spec.Shards = 8
	}
	if spec.Shards < 1 || spec.Shards > 99 {
		return nil, fmt.Errorf("dispatch: shard count %d out of range 1..99", spec.Shards)
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("dispatch: a coordinator needs a result store")
	}
	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	clock := cfg.Clock
	if clock == nil {
		clock = obs.SystemClock
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}

	c := &Coordinator{
		spec:    spec,
		jobID:   obs.DeriveRunID(spec.Seed),
		study:   core.StudyFor(spec.Seed, spec.UniverseDomains, spec.Limit),
		st:      cfg.Store,
		ttl:     ttl,
		clock:   clock,
		log:     cfg.Logger.With("dispatch"),
		uploads: engine.NewLimiter(1),
		shardOf: map[string]int{},
		cells:   map[string]core.FunnelCell{},
		doneCh:  make(chan struct{}),
		debug:   obs.DebugMux(reg),
	}

	c.mRequests = reg.CounterVec("aipan_dispatch_requests_total",
		"Dispatch protocol requests served, by route and status class.", "route", "class")
	c.mLeases = reg.CounterVec("aipan_dispatch_leases_granted_total",
		"Shard leases granted, by worker.", "worker")
	c.mHeartbeats = reg.CounterVec("aipan_dispatch_heartbeats_total",
		"Lease heartbeats accepted, by worker.", "worker")
	c.mReassigned = reg.Counter("aipan_dispatch_reassigned_total",
		"Leases reclaimed from silent workers and returned to the pending pool.")
	c.mRecords = reg.CounterVec("aipan_dispatch_records_uploaded_total",
		"Records accepted into the merged store, by worker.", "worker")
	c.mShards = reg.GaugeVec("aipan_dispatch_shards",
		"Shards of the current job, by state.", "state")

	c.shards = make([]*shardState, spec.Shards)
	for i := range c.shards {
		c.shards[i] = &shardState{idx: i, state: ShardPending, done: map[string]bool{}}
	}
	for _, d := range c.study.Domains {
		i := store.ShardOf(d, spec.Shards)
		c.shardOf[d] = i
		c.shards[i].domains = append(c.shards[i].domains, d)
	}

	if err := c.stampSeed(); err != nil {
		return nil, err
	}
	if err := c.resume(); err != nil {
		return nil, err
	}
	for _, sh := range c.shards {
		if sh.doneN == len(sh.domains) {
			sh.state = ShardDone
		}
	}
	c.updateShardGaugeLocked()
	if c.allDoneLocked() {
		c.doneOnce.Do(func() { close(c.doneCh) })
	}

	c.router = c.routes()
	c.log.Info("coordinator ready", "job", c.jobID, "domains", len(c.study.Domains),
		"shards", spec.Shards, "resumed", c.doneTotal)
	return c, nil
}

// stampSeed mirrors the pipeline's checkpoint guard: a seed-stamping
// store must carry this job's seed, and a stamp from a different seed
// refuses the job rather than merging two universes.
func (c *Coordinator) stampSeed() error {
	ms, ok := c.st.(store.MetaStore)
	if !ok {
		return nil
	}
	m, stamped, err := ms.Meta()
	if err != nil {
		return fmt.Errorf("dispatch: reading store meta: %w", err)
	}
	if stamped && m.Seed != 0 && m.Seed != c.spec.Seed {
		return fmt.Errorf("dispatch: store is stamped with seed %d, job runs seed %d",
			m.Seed, c.spec.Seed)
	}
	if !stamped || m.Seed == 0 {
		m.Seed = c.spec.Seed
		if err := ms.SetMeta(m); err != nil {
			return fmt.Errorf("dispatch: stamping store: %w", err)
		}
	}
	return nil
}

// resume folds records already in the store into the done-sets, so a
// coordinator reopened over a checkpoint continues the job.
func (c *Coordinator) resume() error {
	return c.st.Scan(func(r *store.Record) error {
		i, ok := c.shardOf[r.Domain]
		if !ok {
			return nil // outside this job's (possibly limited) universe
		}
		sh := c.shards[i]
		if !sh.done[r.Domain] {
			sh.done[r.Domain] = true
			sh.doneN++
			c.doneTotal++
			c.cells[r.Domain] = core.CellOf(r)
		}
		return nil
	})
}

// JobID reports the job identifier (seed-derived, same as the run ID a
// single-process run of this seed would stamp on telemetry).
func (c *Coordinator) JobID() string { return c.jobID }

// Wait blocks until every shard is complete or ctx is canceled.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-c.doneCh:
		return nil
	}
}

// Funnel folds the merged records' cells in study-list order — the
// identical fold a single-process run performs, so the distributed
// funnel is byte-for-byte the local one.
func (c *Coordinator) Funnel() core.Funnel {
	c.mu.Lock()
	defer c.mu.Unlock()
	cells := make([]core.FunnelCell, len(c.study.Domains))
	for i, d := range c.study.Domains {
		cells[i] = c.cells[d]
	}
	return core.FoldFunnel(c.study.Companies, c.study.Corrected, cells)
}

// heartbeatEvery is the cadence workers are told to beat at.
func (c *Coordinator) heartbeatEvery() time.Duration { return c.ttl / 3 }

// sweep reclaims leases whose holder has been silent for a full TTL.
// It runs lazily on every request — a coordinator needs no background
// goroutine, and with an injected clock expiry is fully deterministic
// in tests.
func (c *Coordinator) sweep() {
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sh := range c.shards {
		if sh.state == ShardLeased && now.Sub(sh.lastBeat) >= c.ttl {
			c.log.Warn("lease expired, shard back to pending",
				"shard", sh.idx, "lease", sh.leaseID, "worker", sh.worker)
			sh.state = ShardPending
			sh.leaseID = ""
			sh.worker = ""
			c.version++
			c.mReassigned.Inc()
		}
	}
	c.updateShardGaugeLocked()
}

func (c *Coordinator) allDoneLocked() bool {
	for _, sh := range c.shards {
		if sh.state != ShardDone {
			return false
		}
	}
	return true
}

func (c *Coordinator) updateShardGaugeLocked() {
	n := map[string]int{}
	for _, sh := range c.shards {
		n[sh.state]++
	}
	c.mShards.With(ShardPending).Set(float64(n[ShardPending]))
	c.mShards.With(ShardLeased).Set(float64(n[ShardLeased]))
	c.mShards.With(ShardDone).Set(float64(n[ShardDone]))
}

// missedLocked counts whole heartbeat intervals a leased shard has been
// silent for.
func (c *Coordinator) missedLocked(sh *shardState, now time.Time) int {
	if sh.state != ShardLeased {
		return 0
	}
	return int(now.Sub(sh.lastBeat) / c.heartbeatEvery())
}

// ------------------------------------------------------------- HTTP surface

func (c *Coordinator) routes() *api.Router[coordHandler] {
	rt := &api.Router[coordHandler]{}
	rt.Add(http.MethodGet, "/v1/jobs", c.v1Jobs)
	rt.Add(http.MethodGet, "/v1/jobs/{job}", c.v1Job)
	rt.Add(http.MethodPost, "/v1/jobs/{job}/leases", c.v1Lease)
	rt.Add(http.MethodPost, "/v1/jobs/{job}/leases/{lease}/heartbeat", c.v1Heartbeat)
	rt.Add(http.MethodPost, "/v1/jobs/{job}/leases/{lease}/records", c.v1Records)
	rt.Add(http.MethodPost, "/v1/jobs/{job}/leases/{lease}/complete", c.v1Complete)
	rt.Add(http.MethodGet, "/v1/healthz", c.v1Healthz)
	rt.Add(http.MethodGet, "/v1/readyz", c.v1Readyz)
	return rt
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	if path == "/metrics" || strings.HasPrefix(path, "/debug/pprof") {
		c.debug.ServeHTTP(w, r)
		return
	}
	c.sweep()
	rt, ps, allow := c.router.Match(r.Method, path)
	name := "unmatched"
	if rt != nil {
		name = rt.Name
	}
	rec := api.NewRecorder()
	func() {
		defer func() {
			if p := recover(); p != nil {
				c.log.Error("handler panic", "route", name, "path", path, "panic", fmt.Sprint(p))
				rec.Reset()
				api.WriteError(rec, api.Internalf("internal server error"))
			}
		}()
		if rt == nil {
			if len(allow) > 0 {
				rec.Header().Set("Allow", strings.Join(allow, ", "))
				api.WriteError(rec, api.Errorf(http.StatusMethodNotAllowed, "method_not_allowed",
					"method %s not allowed (allow: %s)", r.Method, strings.Join(allow, ", ")))
				return
			}
			api.WriteError(rec, api.NotFoundf("no such endpoint %q; see /v1/jobs", path))
			return
		}
		res, aerr := rt.H(rec, ps, r)
		if aerr != nil {
			api.WriteError(rec, aerr)
			return
		}
		body, ct, aerr := api.EncodeResult(res)
		if aerr != nil {
			api.WriteError(rec, aerr)
			return
		}
		rec.Header().Set("Content-Type", ct)
		rec.WriteHeader(http.StatusOK)
		_, _ = rec.Write(body)
	}()
	rec.Flush(w)
	c.mRequests.With(name, api.StatusClass(rec.Status())).Inc()
}

func (c *Coordinator) jobStatusLocked(now time.Time) JobStatus {
	js := JobStatus{
		ID:          c.jobID,
		Spec:        c.spec,
		State:       "running",
		Domains:     len(c.study.Domains),
		DoneDomains: c.doneTotal,
	}
	if c.allDoneLocked() {
		js.State = "done"
	}
	for _, sh := range c.shards {
		js.Shards = append(js.Shards, ShardStatus{
			Shard:            sh.idx,
			State:            sh.state,
			Worker:           sh.worker,
			Epoch:            sh.epoch,
			DoneDomains:      sh.doneN,
			TotalDomains:     len(sh.domains),
			MissedHeartbeats: c.missedLocked(sh, now),
		})
	}
	return js
}

func (c *Coordinator) v1Jobs(_ *api.Recorder, _ api.Params, r *http.Request) (*api.Result, *api.Error) {
	query := r.URL.Query()
	limit := 100
	if raw := query.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			return nil, api.BadRequestf("limit must be a positive integer (got %q)", raw)
		}
		limit = n
	}
	after := ""
	if raw := query.Get("cursor"); raw != "" {
		id, err := api.DecodeCursor(raw)
		if err != nil {
			return nil, api.BadRequestf("cursor is not a token from a previous response")
		}
		after = id
	}

	now := c.clock()
	c.mu.Lock()
	js := c.jobStatusLocked(now)
	c.mu.Unlock()
	// One coordinator serves one job today, but the listing is shaped —
	// and paginated — like every other /v1 collection so operators and
	// tooling need no special case when that changes.
	all := []JobSummary{{ID: js.ID, State: js.State, Domains: js.Domains, DoneDomains: js.DoneDomains}}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	start := sort.Search(len(all), func(i int) bool { return all[i].ID > after })
	page := JobsPage{Total: len(all)}
	for i := start; i < len(all) && len(page.Jobs) < limit; i++ {
		page.Jobs = append(page.Jobs, all[i])
	}
	if n := len(page.Jobs); n > 0 && start+n < len(all) {
		page.NextCursor = api.EncodeCursor(page.Jobs[n-1].ID)
	}
	return &api.Result{Obj: page}, nil
}

func (c *Coordinator) v1Job(_ *api.Recorder, ps api.Params, _ *http.Request) (*api.Result, *api.Error) {
	if ps["job"] != c.jobID {
		return nil, api.NotFoundf("no such job %q", ps["job"])
	}
	now := c.clock()
	c.mu.Lock()
	js := c.jobStatusLocked(now)
	c.mu.Unlock()
	return &api.Result{Obj: js}, nil
}

func (c *Coordinator) v1Lease(rec *api.Recorder, ps api.Params, r *http.Request) (*api.Result, *api.Error) {
	if ps["job"] != c.jobID {
		return nil, api.NotFoundf("no such job %q", ps["job"])
	}
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, api.BadRequestf("lease request body: %v", err)
	}
	if req.Worker == "" {
		return nil, api.BadRequestf("lease request names no worker")
	}
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.allDoneLocked() {
		return &api.Result{Obj: LeaseResponse{Status: LeaseJobDone}}, nil
	}
	for _, sh := range c.shards {
		if sh.state != ShardPending {
			continue
		}
		sh.state = ShardLeased
		sh.epoch++
		sh.leaseID = fmt.Sprintf("s%02d-e%d", sh.idx, sh.epoch)
		sh.worker = req.Worker
		sh.lastBeat = now
		c.version++
		c.mLeases.With(req.Worker).Inc()
		c.updateShardGaugeLocked()
		grant := &LeaseGrant{
			LeaseID:         sh.leaseID,
			Shard:           sh.idx,
			Epoch:           sh.epoch,
			ETag:            sh.etag(),
			Spec:            c.spec,
			TTLMillis:       c.ttl.Milliseconds(),
			HeartbeatMillis: c.heartbeatEvery().Milliseconds(),
		}
		for _, d := range sh.domains {
			if sh.done[d] {
				grant.DoneDomains = append(grant.DoneDomains, d)
			}
		}
		rec.Header().Set("ETag", sh.etag())
		c.log.Info("lease granted", "shard", sh.idx, "lease", sh.leaseID,
			"worker", req.Worker, "epoch", sh.epoch, "resumed", len(grant.DoneDomains))
		return &api.Result{Obj: LeaseResponse{Status: LeaseGranted, Grant: grant}}, nil
	}
	return &api.Result{Obj: LeaseResponse{
		Status:           LeaseWait,
		RetryAfterMillis: c.heartbeatEvery().Milliseconds(),
	}}, nil
}

// leaseLocked resolves and fences a mutating lease request: the job
// must match, the lease must still be the shard's current one, and the
// request's If-Match must carry the grant's ETag. A lease that expired
// and was re-granted fails here with 412 stale_lease — the fence that
// keeps a zombie worker from interfering after reassignment.
func (c *Coordinator) leaseLocked(ps api.Params, r *http.Request) (*shardState, *api.Error) {
	if ps["job"] != c.jobID {
		return nil, api.NotFoundf("no such job %q", ps["job"])
	}
	leaseID := ps["lease"]
	for _, sh := range c.shards {
		if sh.state == ShardLeased && sh.leaseID == leaseID {
			if !api.ETagMatch(r.Header.Get("If-Match"), sh.etag()) {
				return nil, api.Errorf(http.StatusPreconditionFailed, "stale_lease",
					"lease %s requires If-Match %s", leaseID, sh.etag())
			}
			return sh, nil
		}
	}
	return nil, api.Errorf(http.StatusPreconditionFailed, "stale_lease",
		"lease %q is not current; re-acquire", leaseID)
}

func (c *Coordinator) v1Heartbeat(rec *api.Recorder, ps api.Params, r *http.Request) (*api.Result, *api.Error) {
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	sh, aerr := c.leaseLocked(ps, r)
	if aerr != nil {
		return nil, aerr
	}
	sh.lastBeat = now
	c.mHeartbeats.With(sh.worker).Inc()
	rec.Header().Set("ETag", sh.etag())
	return &api.Result{Obj: map[string]string{"status": "ok"}}, nil
}

func (c *Coordinator) v1Records(rec *api.Recorder, ps api.Params, r *http.Request) (*api.Result, *api.Error) {
	var batch RecordBatch
	if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
		return nil, api.BadRequestf("record batch body: %v", err)
	}
	// Serialize all uploads before touching any state: the one-slot
	// limiter is what makes the dedup-check→append window exclusive, so
	// no two uploads — even for different leases on the same shard
	// across a reassignment — can both append one domain.
	if err := c.uploads.Acquire(r.Context()); err != nil {
		return nil, api.Errorf(http.StatusServiceUnavailable, "canceled",
			"upload canceled while queued: %v", err)
	}
	defer c.uploads.Release()

	now := c.clock()
	c.mu.Lock()
	sh, aerr := c.leaseLocked(ps, r)
	if aerr != nil {
		c.mu.Unlock()
		return nil, aerr
	}
	sh.lastBeat = now // an upload is as good as a heartbeat
	worker := sh.worker
	var fresh []int
	dup := 0
	for i := range batch.Records {
		d := batch.Records[i].Domain
		if j, ok := c.shardOf[d]; !ok || j != sh.idx {
			c.mu.Unlock()
			return nil, api.BadRequestf("record for %q does not belong to shard %d", d, sh.idx)
		}
		if sh.done[d] {
			dup++
			continue
		}
		fresh = append(fresh, i)
	}
	c.mu.Unlock()

	// Append outside the coordinator lock (store appends are disk I/O);
	// the upload limiter still excludes every other upload. Each record
	// is marked done right after its append lands, so a batch that
	// fails midway leaves the done-set exact and a retry ships only the
	// remainder.
	accepted := 0
	for _, i := range fresh {
		recd := &batch.Records[i]
		if err := c.st.Append(recd); err != nil {
			return nil, api.Internalf("appending %s: %v", recd.Domain, err)
		}
		c.mu.Lock()
		sh.done[recd.Domain] = true
		sh.doneN++
		c.doneTotal++
		c.cells[recd.Domain] = core.CellOf(recd)
		c.mu.Unlock()
		accepted++
	}
	if accepted > 0 {
		c.mRecords.With(worker).Add(float64(accepted))
	}
	c.mu.Lock()
	etag := sh.etag()
	c.mu.Unlock()
	rec.Header().Set("ETag", etag)
	return &api.Result{Obj: UploadResult{Accepted: accepted, Duplicate: dup}}, nil
}

func (c *Coordinator) v1Complete(rec *api.Recorder, ps api.Params, r *http.Request) (*api.Result, *api.Error) {
	c.mu.Lock()
	sh, aerr := c.leaseLocked(ps, r)
	if aerr != nil {
		c.mu.Unlock()
		return nil, aerr
	}
	if sh.doneN != len(sh.domains) {
		missing := len(sh.domains) - sh.doneN
		c.mu.Unlock()
		return nil, api.Errorf(http.StatusConflict, "incomplete",
			"shard %d still misses %d domain(s)", sh.idx, missing)
	}
	etag := sh.etag()
	sh.state = ShardDone
	sh.leaseID = ""
	c.version++
	c.updateShardGaugeLocked()
	status := ShardStatus{
		Shard: sh.idx, State: sh.state, Epoch: sh.epoch,
		DoneDomains: sh.doneN, TotalDomains: len(sh.domains),
	}
	allDone := c.allDoneLocked()
	worker := sh.worker
	c.mu.Unlock()

	c.log.Info("shard complete", "shard", status.Shard, "worker", worker, "epoch", status.Epoch)
	if allDone {
		c.doneOnce.Do(func() { close(c.doneCh) })
		c.log.Info("job complete", "job", c.jobID, "domains", len(c.study.Domains))
	}
	rec.Header().Set("ETag", etag)
	return &api.Result{Obj: status}, nil
}

func (c *Coordinator) v1Healthz(_ *api.Recorder, _ api.Params, _ *http.Request) (*api.Result, *api.Error) {
	c.mu.Lock()
	h := api.Health{Status: "ok", Generation: c.version, Records: c.doneTotal}
	c.mu.Unlock()
	return &api.Result{Obj: h}, nil
}

// v1Readyz reports "degraded" — with a warning, in the shared
// api.Health shape the dataset server's SLO monitor also speaks — while
// any lease has missed two or more heartbeats: the job still makes
// progress (the lease will be reassigned at TTL), but an operator
// watching readyz sees the wobble before throughput does.
func (c *Coordinator) v1Readyz(_ *api.Recorder, _ api.Params, _ *http.Request) (*api.Result, *api.Error) {
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	h := api.Health{Status: "ready", Generation: c.version, Records: c.doneTotal}
	wobbly := 0
	for _, sh := range c.shards {
		if c.missedLocked(sh, now) >= 2 {
			wobbly++
		}
	}
	if wobbly > 0 {
		h.Status = "degraded"
		h.Warning = fmt.Sprintf("%d lease(s) missed >=2 heartbeats; reassignment at TTL", wobbly)
	}
	return &api.Result{Obj: h}, nil
}
