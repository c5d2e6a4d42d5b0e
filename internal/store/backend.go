package store

import (
	"bufio"
	"bytes"
	"encoding/json"
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
	// Shards is the shard count of a binary store or event log (0 for
	// the single-file JSONL store).
	Shards int `json:"shards,omitempty"`
	// Format names the on-disk layout: "binary" for the segment store,
	// empty for the JSONL file, whose sidecar predates the field.
	Format string `json:"format,omitempty"`
	// Codec is the binary record codec version (0 for JSONL layouts).
	Codec int `json:"codec,omitempty"`
}

// MetaStore is the optional stamping interface every shipped backend
// implements. Meta reports the stamp and whether one is present; a
// store written before stamping existed reports ok=false and is
// accepted as-is.
type MetaStore interface {
	Meta() (Meta, bool, error)
	SetMeta(Meta) error
}

// ------------------------------------------------------------ JSONL file

// JSONL is the single-file backend: one JSON record per line, appended
// and flushed per record so an interrupted run keeps everything
// processed so far. It is the checkpoint format the pipeline has always
// written; the seed stamp lives in a ".meta" sidecar next to the file.
type JSONL struct {
	path string
	mu   sync.Mutex
	f    *os.File
	buf  *bufio.Writer
	enc  *json.Encoder
}

// OpenJSONL opens (or creates) a JSONL store at path for appending.
func OpenJSONL(path string) (*JSONL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
	buf := bufio.NewWriter(f)
	return &JSONL{path: path, f: f, buf: buf, enc: json.NewEncoder(buf)}, nil
}

// Append writes one record and flushes it to disk.
func (s *JSONL) Append(rec *Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.enc.Encode(rec); err != nil {
		return fmt.Errorf("store: appending %s: %w", rec.Domain, err)
	}
	if err := s.buf.Flush(); err != nil {
		return fmt.Errorf("store: flushing %s: %w", s.path, err)
	}
	return nil
}

// Scan replays the file's records in append order. A store that was
// never written to scans as empty.
func (s *JSONL) Scan(fn func(*Record) error) error {
	it, err := openJSONLIter(s.path, false)
	if err != nil {
		return err
	}
	return drain(it, fn)
}

// Len counts the persisted records.
func (s *JSONL) Len() (int, error) {
	n := 0
	err := s.Scan(func(*Record) error { n++; return nil })
	return n, err
}

// Close flushes and closes the file.
func (s *JSONL) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.buf.Flush(); err != nil {
		_ = s.f.Close()
		return fmt.Errorf("store: flushing %s: %w", s.path, err)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("store: closing %s: %w", s.path, err)
	}
	return nil
}

// Meta reads the sidecar stamp.
func (s *JSONL) Meta() (Meta, bool, error) { return readMetaFile(s.path + ".meta") }

// SetMeta writes the sidecar stamp atomically.
func (s *JSONL) SetMeta(m Meta) error { return writeMetaFile(s.path+".meta", m) }

// jsonlIter is the one JSONL line reader: JSONL.Scan, ReadJSONL, the
// export merge and the JSONL repair all pull records through it. A line
// that fails to parse is classified by what follows it: only blank
// lines means a torn final append, reported as ErrTruncated; a record
// behind it means mid-file corruption, reported plainly.
type jsonlIter struct {
	f      *os.File
	sc     *bufio.Scanner
	path   string
	lineNo int
	// good is the offset just past the last newline-terminated line that
	// parsed or was blank: where Repair cuts a bad tail.
	good int64
	// bad marks that next stopped on an unparseable line, not on an I/O
	// error.
	bad bool
	rec Record
}

// openJSONLIter opens a line reader over the JSONL file at path. A
// missing file reads as empty unless mustExist.
func openJSONLIter(path string, mustExist bool) (*jsonlIter, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) && !mustExist {
			return &jsonlIter{path: path}, nil
		}
		return nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	sc.Split(splitLine)
	return &jsonlIter{f: f, sc: sc, path: path}, nil
}

// splitLine splits at newlines and keeps the newline on the token, so
// the reader counts bytes exactly and tells a terminated line from an
// unterminated tail.
func splitLine(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

func (it *jsonlIter) next() (*Record, bool, error) {
	if it.sc == nil {
		return nil, false, nil
	}
	for it.sc.Scan() {
		it.lineNo++
		line := it.sc.Bytes()
		n := int64(len(line))
		if line[len(line)-1] != '\n' {
			n = 0 // an unterminated tail never counts as durable
		}
		if len(bytes.TrimSpace(line)) == 0 {
			it.good += n
			continue
		}
		it.rec = Record{}
		if err := json.Unmarshal(line, &it.rec); err != nil {
			it.bad = true
			return nil, false, it.classify(err)
		}
		it.good += n
		return &it.rec, true, nil
	}
	if err := it.sc.Err(); err != nil {
		return nil, false, fmt.Errorf("store: reading %s: %w", it.path, err)
	}
	return nil, false, nil
}

// classify wraps the decode failure of the current line, reading ahead
// to tell a torn tail from mid-file corruption.
func (it *jsonlIter) classify(cause error) error {
	lineNo := it.lineNo
	for it.sc.Scan() {
		if len(bytes.TrimSpace(it.sc.Bytes())) != 0 {
			return fmt.Errorf("store: %s line %d: %w", it.path, lineNo, cause)
		}
	}
	return fmt.Errorf("store: %s line %d: %w: %w (run `aipan debug repair` to truncate to the last good record)",
		it.path, lineNo, cause, ErrTruncated)
}

func (it *jsonlIter) close() error {
	if it.f == nil {
		return nil
	}
	return it.f.Close()
}

// -------------------------------------------------------------- in-memory

// Mem is the in-memory backend for tests and benchmarks: nothing
// touches disk, and Scan replays records in append order.
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
// file + rename), sorted by domain — the final-dataset write shared by
// every backend. Sorting makes the output a pure function of the record
// set: a binary store (whose Scan order is shard-major) and a JSONL
// checkpoint (append order) holding the same records export
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

// OpenSpec opens a backend from a CLI spec: "jsonl" (or "") is the
// single-file store at path, "binary:N" is an N-way binary segment
// store in the directory at path, and "mem" is the in-memory store
// (path is ignored). The retired "sharded:N" spec is refused with an
// error naming binary:N.
func OpenSpec(spec, path string) (Store, error) {
	switch {
	case spec == "" || spec == "jsonl":
		return OpenJSONL(path)
	case spec == "mem":
		return NewMem(), nil
	}
	n, err := binaryShards(spec)
	if err != nil {
		return nil, err
	}
	return OpenBinary(path, n)
}

// binaryShards parses the shard count of a "binary:N" spec; any other
// spec is an error, and the retired "sharded:N" one names its
// replacement.
func binaryShards(spec string) (int, error) {
	if n, ok := strings.CutPrefix(spec, "sharded:"); ok {
		return 0, fmt.Errorf("store: the %q JSONL shard layout is retired; use binary:%s (the same hash sharding in CRC-framed segments, with an index and repair)",
			spec, n)
	}
	n, ok := strings.CutPrefix(spec, "binary:")
	if !ok {
		return 0, fmt.Errorf("store: unknown backend %q (jsonl, binary:N, mem)", spec)
	}
	shards, err := strconv.Atoi(n)
	if err != nil {
		return 0, fmt.Errorf("store: bad shard count in %q (want binary:N)", spec)
	}
	return shards, nil
}
