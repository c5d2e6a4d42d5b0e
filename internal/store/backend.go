package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"sync"
)

// Store is the pluggable dataset backend: the pipeline streams each
// completed record through Append (the checkpoint path), Scan replays
// the persisted records in a deterministic order (the resume and serve
// paths), and Len counts them. Implementations are safe for concurrent
// use; the *Record passed to a Scan callback is only valid for the
// duration of the call and must not be retained or mutated.
type Store interface {
	Append(*Record) error
	Scan(func(*Record) error) error
	Len() (int, error)
	Close() error
}

// Meta stamps a store with the run parameters that produced it, so a
// resume under incompatible parameters is refused instead of silently
// mixing datasets.
type Meta struct {
	// Seed is the corpus seed the records were generated under.
	Seed int64 `json:"seed"`
	// Shards is the shard count of a binary store or event log.
	Shards int `json:"shards,omitempty"`
	// Format names the on-disk layout: "binary" for the segment store;
	// empty in an event log's stamp and in the retired sharded:N
	// layout's, which predates the field.
	Format string `json:"format,omitempty"`
	// Codec is the binary record codec version.
	Codec int `json:"codec,omitempty"`
}

// MetaStore is the optional stamping interface both shipped backends
// implement. Meta reports the stamp and whether one is present; a
// fresh store reports ok=false and is stamped by the run that fills
// it.
type MetaStore interface {
	Meta() (Meta, bool, error)
	SetMeta(Meta) error
}

// -------------------------------------------------------------- in-memory

// Mem is the in-memory backend, the store of every pipeline run
// without a checkpoint: nothing touches disk, and Scan and Records
// replay records in append order.
type Mem struct {
	mu      sync.RWMutex
	recs    []Record
	meta    Meta
	stamped bool
}

// NewMem builds an empty in-memory store.
func NewMem() *Mem { return &Mem{} }

// Append stores a copy of rec.
func (s *Mem) Append(rec *Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, *rec)
	return nil
}

// Scan replays the stored records in append order.
func (s *Mem) Scan(fn func(*Record) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := range s.recs {
		if err := fn(&s.recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Records returns a copy of the stored records in append order.
func (s *Mem) Records() []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Record(nil), s.recs...)
}

// Len reports the number of stored records.
func (s *Mem) Len() (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs), nil
}

// Close is a no-op.
func (s *Mem) Close() error { return nil }

// Meta reports the in-memory stamp.
func (s *Mem) Meta() (Meta, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.meta, s.stamped, nil
}

// SetMeta records the stamp.
func (s *Mem) SetMeta(m Meta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.meta, s.stamped = m, true
	return nil
}

// ShardOf is the module-wide shard hash: the shard index (FNV-32a mod
// n) a domain belongs to in any n-way partition. The binary store and
// the event log route appends with it, and the dispatch coordinator
// partitions the study list with the same function — a worker's leased
// shard is exactly the set of domains a local n-shard store would put
// in shard i, so distributed and single-process runs agree on every
// partition boundary.
func ShardOf(domain string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(domain))
	return int(h.Sum32() % uint32(n))
}

// ---------------------------------------------------------------- helpers

func readMetaFile(path string) (Meta, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return Meta{}, false, nil
		}
		return Meta{}, false, fmt.Errorf("store: reading meta %s: %w", path, err)
	}
	var m Meta
	if err := json.Unmarshal(data, &m); err != nil {
		return Meta{}, false, fmt.Errorf("store: parsing meta %s: %w", path, err)
	}
	return m, true, nil
}

func writeMetaFile(path string, m Meta) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("store: encoding meta: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("store: writing meta: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: committing meta %s: %w", path, err)
	}
	return nil
}

// SaveJSONL atomically writes a store's records as one JSONL file (temp
// file + rename), sorted by domain — the release format, written the
// same way from every backend. Sorting makes the output a pure function
// of the record set: a binary store (whose Scan order is shard-major)
// and an in-memory one (append order) holding the same records export
// byte-identical files. The sort is a streaming k-way merge over the
// store's shards (each appends in domain order), so the export runs in
// O(shards) memory; see sortedScan.
func SaveJSONL(path string, st Store) error {
	return exportStaged(path, func(w *bufio.Writer, scan scanFunc) error {
		enc := json.NewEncoder(w)
		return scan(st, func(r *Record) error {
			if err := enc.Encode(r); err != nil {
				return fmt.Errorf("store: encoding record %s: %w", r.Domain, err)
			}
			return nil
		})
	})
}

// OpenSpec opens the binary segment store in the directory at path with
// the shard count of a checkpoint spec (see ParseSpec).
func OpenSpec(spec, path string) (Store, error) {
	n, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return OpenBinary(path, n)
}

// ParseSpec parses a checkpoint spec into the binary store's shard
// count: "" is binary:1, and "binary:N" is N in 1..99. Every other spec
// is refused with an error naming binary:N — the retired "jsonl" and
// "sharded:N" checkpoint layouts and the in-memory "mem" among them.
func ParseSpec(spec string) (int, error) {
	if spec == "" {
		return 1, nil
	}
	n, ok := strings.CutPrefix(spec, "binary:")
	if !ok {
		return 0, refuseSpec(spec)
	}
	shards, err := strconv.Atoi(n)
	if err != nil {
		return 0, fmt.Errorf("store: bad shard count in %q (want binary:N)", spec)
	}
	if err := checkShards(shards); err != nil {
		return 0, err
	}
	return shards, nil
}

// refuseSpec is the error for a spec that is not binary:N, naming the
// replacement.
func refuseSpec(spec string) error {
	if n, ok := strings.CutPrefix(spec, "sharded:"); ok {
		return fmt.Errorf("store: the %q JSONL shard layout is retired; use binary:%s (the same hash sharding in CRC-framed segments, with an index and repair)",
			spec, n)
	}
	switch spec {
	case "jsonl":
		return errors.New("store: the JSONL checkpoint store is retired; checkpoints are binary:N (default binary:1), and JSONL is the export format")
	case "mem":
		return errors.New("store: mem is not a checkpoint; use binary:N, or leave out the checkpoint to keep the run in memory")
	}
	return fmt.Errorf("store: unknown store spec %q (want binary:N)", spec)
}

// checkShards range-checks a binary store's shard count.
func checkShards(n int) error {
	if n < 1 || n > 99 {
		return fmt.Errorf("store: shard count %d out of range 1..99", n)
	}
	return nil
}
