package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"aipan/internal/chatbot"
	"aipan/internal/core"
	"aipan/internal/engine"
	"aipan/internal/obs"
	"aipan/internal/store"
)

// errLeaseLost marks a lease the coordinator no longer honors (expired
// and reassigned, or the shard finished under another holder). It is a
// worker's cue to drop the shard and ask for a fresh lease, not to die.
var errLeaseLost = errors.New("dispatch: lease lost")

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL, e.g. "http://127.0.0.1:8080".
	Coordinator string
	// ID names this worker in leases and coordinator metrics.
	ID string
	// Client issues the protocol requests (default: a plain http.Client).
	Client *http.Client
	// Workers is the pipeline's per-domain parallelism (default: core's).
	Workers int
	// BatchSize is how many completed records ride per upload (default 8).
	BatchSize int
	// NewBot builds the annotation chatbot for the job's model name.
	// Nil runs the pipeline's default bot regardless of the spec.
	NewBot func(model string) (chatbot.Chatbot, error)
	// Registry receives the worker's pipeline + dispatch metrics
	// (default obs.Default()).
	Registry *obs.Registry
	// Logger, when set, receives lease lifecycle logs.
	Logger *obs.Logger
}

// Worker joins a coordinator, leases shards one at a time, runs the
// normal streaming pipeline over each leased shard, and uploads the
// completed records. It keeps leasing until the coordinator reports
// the job done.
type Worker struct {
	base   string
	id     string
	client *http.Client
	pwork  int
	batch  int
	newBot func(model string) (chatbot.Chatbot, error)
	reg    *obs.Registry
	log    *obs.Logger

	mLeases *obs.Counter
	mLost   *obs.Counter
	mUp     *obs.Counter
}

// NewWorker validates cfg and returns a worker ready to Run.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("dispatch: worker needs a coordinator URL")
	}
	if cfg.ID == "" {
		return nil, fmt.Errorf("dispatch: worker needs an ID")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 8
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	w := &Worker{
		base:   strings.TrimRight(cfg.Coordinator, "/"),
		id:     cfg.ID,
		client: client,
		pwork:  cfg.Workers,
		batch:  batch,
		newBot: cfg.NewBot,
		reg:    reg,
		log:    cfg.Logger.With("worker"),
	}
	w.mLeases = reg.Counter("aipan_dispatch_worker_leases_total",
		"Shard leases this worker acquired.")
	w.mLost = reg.Counter("aipan_dispatch_worker_leases_lost_total",
		"Leases this worker lost to reassignment mid-shard.")
	w.mUp = reg.Counter("aipan_dispatch_worker_records_total",
		"Records this worker uploaded (accepted by the coordinator).")
	return w, nil
}

// Run leases and processes shards until the coordinator reports the job
// done, ctx is canceled, or a non-lease error stops the worker. A lost
// lease (reassigned while this worker was slow) is not fatal: the
// worker simply asks for the next pending shard.
func (w *Worker) Run(ctx context.Context) error {
	jobID, err := w.currentJob(ctx)
	if err != nil {
		return err
	}
	w.log.Info("joined", "job", jobID, "coordinator", w.base)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := w.pollLease(ctx, jobID)
		if err != nil {
			return err
		}
		switch resp.Status {
		case LeaseJobDone:
			w.log.Info("job done", "job", jobID)
			return nil
		case LeaseWait:
			delay := time.Duration(resp.RetryAfterMillis) * time.Millisecond
			if delay <= 0 {
				delay = 250 * time.Millisecond
			}
			if !engine.Sleep(ctx, delay) {
				return ctx.Err()
			}
		case LeaseGranted:
			w.mLeases.Inc()
			if err := w.runLease(ctx, jobID, resp.Grant); err != nil {
				if errors.Is(err, errLeaseLost) {
					w.mLost.Inc()
					w.log.Warn("lease lost, re-polling", "lease", resp.Grant.LeaseID)
					continue
				}
				return err
			}
		default:
			return fmt.Errorf("dispatch: coordinator answered lease status %q", resp.Status)
		}
	}
}

// pollLease asks for a shard, absorbing a few transport blips (a busy
// or briefly restarting coordinator) before giving up. A protocol-level
// refusal is returned immediately — that is a real answer.
func (w *Worker) pollLease(ctx context.Context, jobID string) (LeaseResponse, error) {
	var resp LeaseResponse
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		_, err := w.doJSON(ctx, http.MethodPost, "/v1/jobs/"+jobID+"/leases",
			"", LeaseRequest{Worker: w.id}, &resp)
		if err == nil {
			return resp, nil
		}
		if _, isProto := statusOf(err); isProto {
			return resp, err
		}
		lastErr = err
		if !engine.Sleep(ctx, 250*time.Millisecond) {
			return resp, ctx.Err()
		}
	}
	return resp, fmt.Errorf("dispatch: coordinator unreachable: %w", lastErr)
}

// currentJob polls the job listing until the coordinator answers —
// workers routinely start before the coordinator's listener is up.
func (w *Worker) currentJob(ctx context.Context) (string, error) {
	var lastErr error
	for attempt := 0; attempt < 40; attempt++ {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		var page JobsPage
		_, err := w.doJSON(ctx, http.MethodGet, "/v1/jobs?limit=1", "", nil, &page)
		if err == nil {
			if len(page.Jobs) == 0 {
				return "", fmt.Errorf("dispatch: coordinator lists no jobs")
			}
			return page.Jobs[0].ID, nil
		}
		lastErr = err
		if !engine.Sleep(ctx, 250*time.Millisecond) {
			return "", ctx.Err()
		}
	}
	return "", fmt.Errorf("dispatch: coordinator unreachable: %w", lastErr)
}

// runLease processes one granted shard: a heartbeat loop keeps the
// lease alive while the pipeline streams the shard's domains through an
// uploader store; on success the remainder is flushed and the shard
// marked complete — before the heartbeat loop is stopped, so the lease
// cannot expire between the last upload and the complete call.
func (w *Worker) runLease(ctx context.Context, jobID string, g *LeaseGrant) error {
	w.log.Info("lease granted", "lease", g.LeaseID, "shard", g.Shard,
		"epoch", g.Epoch, "resumed", len(g.DoneDomains))
	lctx, cancel := context.WithCancel(ctx)
	defer cancel()
	grp, gctx := engine.NewGroup(lctx)

	hb := time.Duration(g.HeartbeatMillis) * time.Millisecond
	if hb <= 0 {
		hb = time.Second
	}
	grp.Go(func(hctx context.Context) error {
		for {
			if !engine.Sleep(hctx, hb) {
				return nil
			}
			status, err := w.doJSON(hctx, http.MethodPost,
				leasePath(jobID, g, "heartbeat"), g.ETag, struct{}{}, nil)
			if err != nil && leaseGone(status) {
				return fmt.Errorf("heartbeat for %s: %w", g.LeaseID, errLeaseLost)
			}
			// Transient errors (coordinator restarting, network blip)
			// just mean a missed beat; the TTL absorbs a few.
		}
	})

	up := &uploader{w: w, ctx: gctx, cancel: cancel, jobID: jobID, grant: g, batch: w.batch}
	perr := w.runPipeline(gctx, g, up)
	if perr == nil {
		perr = up.flush()
	}
	if perr == nil {
		_, cerr := w.doJSON(gctx, http.MethodPost, leasePath(jobID, g, "complete"),
			g.ETag, struct{}{}, nil)
		perr = cerr
	}
	cancel()
	herr := grp.Wait()
	if uerr := up.fatalErr(); uerr != nil {
		return uerr // a 412 on upload outranks the pipeline's cancellation error
	}
	if perr != nil {
		if s, ok := statusOf(perr); ok && leaseGone(s) {
			return fmt.Errorf("%s: %w", g.LeaseID, errLeaseLost)
		}
		return perr
	}
	if herr != nil {
		return herr
	}
	w.log.Info("shard complete", "lease", g.LeaseID, "shard", g.Shard)
	return nil
}

// runPipeline runs the standard streaming pipeline over exactly this
// lease's not-yet-done domains, delivering records into the uploader.
func (w *Worker) runPipeline(ctx context.Context, g *LeaseGrant, up *uploader) error {
	done := make(map[string]bool, len(g.DoneDomains))
	for _, d := range g.DoneDomains {
		done[d] = true
	}
	spec := g.Spec
	var bot chatbot.Chatbot
	if w.newBot != nil {
		b, err := w.newBot(spec.Model)
		if err != nil {
			return err
		}
		bot = b
	}
	p, err := core.New(core.Config{
		Seed:            spec.Seed,
		UniverseDomains: spec.UniverseDomains,
		Limit:           spec.Limit,
		Bot:             bot,
		Workers:         w.pwork,
		Store:           up,
		DomainFilter: func(d string) bool {
			return store.ShardOf(d, spec.Shards) == g.Shard && !done[d]
		},
		Registry: w.reg,
		Logger:   w.log,
	})
	if err != nil {
		return err
	}
	_, err = p.Run(ctx)
	return err
}

// ---------------------------------------------------------------- uploader

// uploader is the store.Store the worker's pipeline streams into: it
// batches completed records and posts each batch under the lease's
// If-Match fence. A fenced-out upload (412: the lease was reassigned)
// records the error and cancels the pipeline — there is no point
// crawling domains whose results the coordinator will refuse.
type uploader struct {
	w      *Worker
	ctx    context.Context
	cancel context.CancelFunc
	jobID  string
	grant  *LeaseGrant
	batch  int

	mu   sync.Mutex
	recs []store.Record
	err  error
}

func (u *uploader) Append(r *store.Record) error {
	u.mu.Lock()
	if u.err != nil {
		err := u.err
		u.mu.Unlock()
		return err
	}
	u.recs = append(u.recs, *r)
	var recs []store.Record
	if len(u.recs) >= u.batch {
		recs, u.recs = u.recs, nil
	}
	u.mu.Unlock()
	if recs == nil {
		return nil
	}
	return u.post(recs)
}

// flush uploads whatever the batch buffer still holds.
func (u *uploader) flush() error {
	u.mu.Lock()
	if u.err != nil {
		err := u.err
		u.mu.Unlock()
		return err
	}
	recs := u.recs
	u.recs = nil
	u.mu.Unlock()
	if len(recs) == 0 {
		return nil
	}
	return u.post(recs)
}

func (u *uploader) post(recs []store.Record) error {
	var res UploadResult
	status, err := u.w.doJSON(u.ctx, http.MethodPost,
		leasePath(u.jobID, u.grant, "records"), u.grant.ETag,
		RecordBatch{Records: recs}, &res)
	if err != nil {
		if leaseGone(status) {
			err = fmt.Errorf("upload under %s: %w", u.grant.LeaseID, errLeaseLost)
		}
		u.mu.Lock()
		if u.err == nil {
			u.err = err
		}
		u.mu.Unlock()
		u.cancel()
		return err
	}
	if res.Accepted > 0 {
		u.w.mUp.Add(float64(res.Accepted))
	}
	return nil
}

func (u *uploader) fatalErr() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.err
}

func (u *uploader) Scan(func(*store.Record) error) error { return nil }
func (u *uploader) Len() (int, error)                    { return 0, nil }
func (u *uploader) Close() error                         { return nil }

// ------------------------------------------------------------- HTTP client

func leasePath(jobID string, g *LeaseGrant, op string) string {
	return "/v1/jobs/" + jobID + "/leases/" + g.LeaseID + "/" + op
}

// leaseGone reports whether a protocol status means the lease no longer
// exists from the coordinator's point of view: fenced out (412), or the
// job/lease path vanished (404, e.g. a restarted coordinator).
func leaseGone(status int) bool {
	return status == http.StatusPreconditionFailed || status == http.StatusNotFound
}

// protoError is a non-2xx protocol answer, carrying the envelope's code
// and message.
type protoError struct {
	status  int
	code    string
	message string
}

func (e *protoError) Error() string {
	return fmt.Sprintf("dispatch: coordinator answered %d %s: %s", e.status, e.code, e.message)
}

// statusOf extracts the protocol status from an error chain.
func statusOf(err error) (int, bool) {
	var pe *protoError
	if errors.As(err, &pe) {
		return pe.status, true
	}
	return 0, false
}

// doJSON issues one protocol request: JSON body in, envelope-aware JSON
// out. Returns the HTTP status (0 when the request never got an
// answer) and an error for transport failures or non-2xx responses.
func (w *Worker) doJSON(ctx context.Context, method, path, ifMatch string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, fmt.Errorf("dispatch: encoding %s body: %w", path, err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if ifMatch != "" {
		req.Header.Set("If-Match", ifMatch)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 400 {
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		_ = json.Unmarshal(data, &env)
		if env.Error.Code == "" {
			env.Error.Code = "error"
			env.Error.Message = strings.TrimSpace(string(data))
		}
		return resp.StatusCode, &protoError{
			status: resp.StatusCode, code: env.Error.Code, message: env.Error.Message,
		}
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("dispatch: decoding %s answer: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}
