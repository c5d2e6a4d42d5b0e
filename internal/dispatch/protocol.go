// Package dispatch distributes one pipeline run across worker
// processes: a coordinator partitions the study list into shards by the
// module-wide shard hash (store.ShardOf), leases each shard to a worker
// over a versioned HTTP/JSON protocol, and merges uploaded records into
// one store whose export is byte-identical to a single-process run of
// the same seed.
//
// The wire protocol speaks the same /v1 conventions as the dataset
// server (internal/api): uniform {"error":{"code","message"}}
// envelopes, snake_case payloads, ETag-stamped lease state with
// If-Match fencing, and cursor-paginated job listings.
//
//	GET  /v1/jobs?limit=&cursor=                    job listing (paginated)
//	GET  /v1/jobs/{job}                             job progress
//	POST /v1/jobs/{job}/leases                      acquire a shard lease
//	POST /v1/jobs/{job}/leases/{lease}/heartbeat    keep a lease alive
//	POST /v1/jobs/{job}/leases/{lease}/records      upload completed records
//	POST /v1/jobs/{job}/leases/{lease}/complete     finish a shard
//	GET  /v1/healthz, /v1/readyz                    probes (api.Health)
//	GET  /metrics, /debug/pprof/...                 observability
//
// Time never crosses the wire as an absolute value: leases are fenced
// by an epoch counter (exposed as the ETag), and durations travel as
// integer milliseconds — which is what keeps the protocol out of the
// nondetflow checker's way and the merged output deterministic.
package dispatch

import "aipan/internal/store"

// JobSpec pins the run parameters every worker must share. The
// coordinator echoes it inside each lease grant, so a worker needs no
// out-of-band configuration beyond the coordinator URL.
type JobSpec struct {
	// Seed drives the synthetic universe (0 is resolved to the default
	// seed before the spec is served).
	Seed int64 `json:"seed"`
	// UniverseDomains scales the study universe (0 = the paper's).
	UniverseDomains int `json:"universe_domains,omitempty"`
	// Limit caps the study list (0 = all).
	Limit int `json:"limit,omitempty"`
	// Model names the chatbot workers annotate with.
	Model string `json:"model,omitempty"`
	// Shards is the partition width: domain d belongs to shard
	// store.ShardOf(d, Shards).
	Shards int `json:"shards"`
}

// Shard states reported in job status.
const (
	ShardPending = "pending"
	ShardLeased  = "leased"
	ShardDone    = "done"
)

// ShardStatus is one shard's progress within a job.
type ShardStatus struct {
	Shard            int    `json:"shard"`
	State            string `json:"state"`
	Worker           string `json:"worker,omitempty"`
	Epoch            int    `json:"epoch"`
	DoneDomains      int    `json:"done_domains"`
	TotalDomains     int    `json:"total_domains"`
	MissedHeartbeats int    `json:"missed_heartbeats,omitempty"`
}

// JobStatus is the GET /v1/jobs/{job} payload.
type JobStatus struct {
	ID          string        `json:"id"`
	Spec        JobSpec       `json:"spec"`
	State       string        `json:"state"` // running | done
	Domains     int           `json:"domains"`
	DoneDomains int           `json:"done_domains"`
	Shards      []ShardStatus `json:"shards"`
}

// JobSummary is one row of the GET /v1/jobs listing.
type JobSummary struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Domains     int    `json:"domains"`
	DoneDomains int    `json:"done_domains"`
}

// JobsPage is the cursor-paginated GET /v1/jobs payload.
type JobsPage struct {
	Jobs       []JobSummary `json:"jobs"`
	Total      int          `json:"total"`
	NextCursor string       `json:"next_cursor,omitempty"`
}

// LeaseRequest is the POST .../leases body.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// Lease responses.
const (
	LeaseGranted = "granted"
	LeaseWait    = "wait"
	LeaseJobDone = "done"
)

// LeaseGrant hands one shard to one worker. Epoch fences the lease:
// every mutating request must carry the grant's ETag in If-Match, and a
// reassigned shard (higher epoch) answers the old holder with 412.
type LeaseGrant struct {
	LeaseID string  `json:"lease_id"`
	Shard   int     `json:"shard"`
	Epoch   int     `json:"epoch"`
	ETag    string  `json:"etag"`
	Spec    JobSpec `json:"spec"`
	// TTLMillis is the heartbeat deadline: a lease silent for a full
	// TTL is reassigned. HeartbeatMillis (TTL/3) is the cadence the
	// worker should beat at.
	TTLMillis       int64 `json:"ttl_millis"`
	HeartbeatMillis int64 `json:"heartbeat_millis"`
	// DoneDomains lists this shard's domains already uploaded (by this
	// or a previous lease holder); the worker excludes them from its
	// pipeline run — resuming from the coordinator-side checkpoint.
	DoneDomains []string `json:"done_domains,omitempty"`
}

// LeaseResponse is the POST .../leases payload.
type LeaseResponse struct {
	Status string      `json:"status"` // granted | wait | done
	Grant  *LeaseGrant `json:"grant,omitempty"`
	// RetryAfterMillis tells a waiting worker when to poll again.
	RetryAfterMillis int64 `json:"retry_after_millis,omitempty"`
}

// RecordBatch is the POST .../records body: completed records. The
// coordinator derives each accepted record's funnel cell itself, so
// the end-of-run funnel always agrees with the merged store.
type RecordBatch struct {
	Records []store.Record `json:"records"`
}

// UploadResult is the POST .../records payload.
type UploadResult struct {
	Accepted  int `json:"accepted"`
	Duplicate int `json:"duplicate"`
}
