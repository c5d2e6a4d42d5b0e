package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Binary is the one on-disk checkpoint format: records are framed
// (frame.go) into seg-%02d.bin files sharded by domain hash (ShardOf),
// with a seg-%02d.idx sidecar per shard mapping each domain to its
// frame so point lookups and reopen never re-parse the segment. The
// binary codec (codec.go) decodes without reflection, which is what
// keeps Scan off the allocation hot path at 100k domains, and is 1.58×
// denser than JSONL: a full seed-3000 run takes 22.3 MB of segments
// plus a 96 KB index against a 35.2 MB JSONL export.
//
// The idx sidecar is a cache, not truth: on open it is validated
// against the segment, entries the segment does not back are discarded,
// and frames the sidecar missed (a crash between the two appends) are
// recovered by scanning the segment's uncovered tail. A tail that is
// not a well-formed frame refuses the open with ErrTruncated.
type Binary struct {
	dir    string
	shards int

	mu     sync.Mutex
	bins   []*os.File // lazily opened for append
	idxs   []*os.File
	sizes  []int64           // current .bin sizes
	counts []int             // records per shard
	index  map[string]recLoc // domain → latest frame (point lookups)
	frame  frameBuf          // reused Append frame buffer
}

// recLoc locates one record's frame.
type recLoc struct {
	shard int
	off   int64
	n     int // full frame length (header + payload + CRC)
}

// OpenBinary opens (or creates) a binary segment store in dir with the
// given shard count (1..99). A directory stamped by any other layout —
// the retired sharded:N JSONL store among them — is refused, never
// opened as an empty store, and so is a dir that names a regular file,
// such as a retired JSONL checkpoint, which is left untouched.
func OpenBinary(dir string, shards int) (*Binary, error) {
	if err := checkShards(shards); err != nil {
		return nil, err
	}
	if fi, err := os.Stat(dir); err == nil && !fi.IsDir() {
		return nil, fmt.Errorf("store: %s is a file, not a store directory: JSONL checkpoints are retired, so checkpoint into a directory with binary:N (the file is left as it was)", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating segment dir: %w", err)
	}
	s := &Binary{
		dir:    dir,
		shards: shards,
		bins:   make([]*os.File, shards),
		idxs:   make([]*os.File, shards),
		sizes:  make([]int64, shards),
		counts: make([]int, shards),
		index:  map[string]recLoc{},
	}
	if m, ok, err := s.Meta(); err != nil {
		return nil, err
	} else if ok {
		if err := checkFormat(dir, m); err != nil {
			return nil, err
		}
		if m.Shards != 0 && m.Shards != shards {
			return nil, fmt.Errorf("store: %s was created with %d shards, reopened with %d",
				dir, m.Shards, shards)
		}
	}
	for i := 0; i < shards; i++ {
		if err := s.loadShard(i); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// OpenBinaryDir opens the existing binary store in dir with the shard
// count its meta.json stamp records. This is the path `aipan serve
// --data <dir>` reads a checkpoint through; a directory without the
// stamp is refused, never opened as an empty store.
func OpenBinaryDir(dir string) (*Binary, error) {
	n, err := stampedShards(dir)
	if err != nil {
		return nil, err
	}
	return OpenBinary(dir, n)
}

// stampedShards reads the shard count from dir's meta.json, refusing a
// directory with no stamp or with another layout's.
func stampedShards(dir string) (int, error) {
	m, ok, err := readMetaFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("store: %s holds no binary store (no meta.json stamp)", dir)
	}
	if err := checkFormat(dir, m); err != nil {
		return 0, err
	}
	return m.Shards, nil
}

// checkFormat refuses a stamp written by any layout but the binary one,
// naming the binary:N replacement for the retired sharded layout.
func checkFormat(dir string, m Meta) error {
	switch m.Format {
	case FormatBinary:
		return nil
	case "":
		return fmt.Errorf("store: %s holds a store in the retired sharded:N JSONL layout, which this build no longer reads; re-run into a fresh directory with --store binary:%d",
			dir, m.Shards)
	}
	return fmt.Errorf("store: %s holds a %q store, not a binary one", dir, m.Format)
}

// FormatBinary is the Meta.Format stamp of a Binary store.
const FormatBinary = "binary"

// segPath names shard i's segment file (ext "bin") or sidecar ("idx").
func segPath(dir string, i int, ext string) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%02d.%s", i, ext))
}

func (s *Binary) binPath(i int) string { return segPath(s.dir, i, "bin") }

func (s *Binary) idxPath(i int) string { return segPath(s.dir, i, "idx") }

func (s *Binary) shardOf(domain string) int {
	return ShardOf(domain, s.shards)
}

// idxEntry is one sidecar row.
type idxEntry struct {
	domain string
	off    int64
	n      int
}

// loadShard validates shard i's sidecar against its segment, recovers
// sidecar-missed frames from the segment tail, and refuses a tail that
// is not well-formed frames.
func (s *Binary) loadShard(i int) error {
	binPath := s.binPath(i)
	st, err := os.Stat(binPath)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: statting %s: %w", binPath, err)
	}
	binSize := st.Size()

	idxData, err := os.ReadFile(s.idxPath(i))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: reading %s: %w", s.idxPath(i), err)
	}

	// Accept sidecar entries only while they are well-formed and tile
	// the segment contiguously from offset 0.
	var entries []idxEntry
	covered := int64(0)
	rest := idxData
	stale := false
	for len(rest) > 0 {
		e, next, ok := parseIdxEntry(rest)
		if !ok || e.off != covered || e.off+int64(e.n) > binSize {
			stale = true
			break
		}
		entries = append(entries, e)
		covered = e.off + int64(e.n)
		rest = next
	}

	// Recover any frames the sidecar does not cover by scanning the
	// segment tail. This is the crash-between-appends path; a malformed
	// tail refuses the open.
	it, err := openFrames(binPath, covered, binSize, decodeRecord)
	if err != nil {
		return err
	}
	indexed := len(entries)
	if err := drain(it, func(rec *Record) error {
		entries = append(entries, idxEntry{domain: rec.Domain, off: it.at, n: int(it.off - it.at)})
		return nil
	}); err != nil {
		return err
	}
	if stale || len(entries) > indexed {
		if err := writeIdx(s.idxPath(i), entries); err != nil {
			return err
		}
	}

	for _, e := range entries {
		s.index[e.domain] = recLoc{shard: i, off: e.off, n: e.n}
	}
	s.counts[i] = len(entries)
	s.sizes[i] = binSize
	return nil
}

// parseIdxEntry decodes one sidecar row: uvarint domain length, domain
// bytes, uvarint offset, uvarint frame length.
func parseIdxEntry(buf []byte) (idxEntry, []byte, bool) {
	dl, n := binary.Uvarint(buf)
	if n <= 0 || dl > uint64(len(buf)-n) {
		return idxEntry{}, nil, false
	}
	buf = buf[n:]
	domain := string(buf[:dl])
	buf = buf[dl:]
	off, n := binary.Uvarint(buf)
	if n <= 0 {
		return idxEntry{}, nil, false
	}
	buf = buf[n:]
	fl, n := binary.Uvarint(buf)
	if n <= 0 || fl > maxFramePayload+frameOverhead {
		return idxEntry{}, nil, false
	}
	return idxEntry{domain: domain, off: int64(off), n: int(fl)}, buf[n:], true
}

func appendIdxEntry(buf []byte, e idxEntry) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(e.domain)))
	buf = append(buf, e.domain...)
	buf = binary.AppendUvarint(buf, uint64(e.off))
	return binary.AppendUvarint(buf, uint64(e.n))
}

// writeIdx atomically rewrites a shard's sidecar.
func writeIdx(path string, entries []idxEntry) error {
	var buf []byte
	for _, e := range entries {
		buf = appendIdxEntry(buf, e)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("store: writing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: committing %s: %w", path, err)
	}
	return nil
}

// Append frames rec into its domain's segment and records it in the
// sidecar and the in-memory index.
func (s *Binary) Append(rec *Record) error {
	i := s.shardOf(rec.Domain)
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.bins[i] == nil {
		bin, err := os.OpenFile(s.binPath(i), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("store: opening %s: %w", s.binPath(i), err)
		}
		idx, err := os.OpenFile(s.idxPath(i), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			_ = bin.Close()
			return fmt.Errorf("store: opening %s: %w", s.idxPath(i), err)
		}
		s.bins[i], s.idxs[i] = bin, idx
	}

	// Assemble the whole frame in the reused buffer so each append is
	// one write.
	s.frame.begin()
	s.frame.b = appendRecord(s.frame.b, rec)
	buf := s.frame.seal()

	if _, err := s.bins[i].Write(buf); err != nil {
		return fmt.Errorf("store: appending %s to %s: %w", rec.Domain, s.binPath(i), err)
	}
	e := idxEntry{domain: rec.Domain, off: s.sizes[i], n: len(buf)}
	if _, err := s.idxs[i].Write(appendIdxEntry(nil, e)); err != nil {
		return fmt.Errorf("store: appending %s to %s: %w", rec.Domain, s.idxPath(i), err)
	}
	s.sizes[i] += int64(len(buf))
	s.counts[i]++
	s.index[rec.Domain] = recLoc{shard: i, off: e.off, n: e.n}
	return nil
}

// Scan replays every shard in index order; within a shard, append
// order. The *Record passed to fn is reused between calls.
func (s *Binary) Scan(fn func(*Record) error) error {
	for i := 0; i < s.shards; i++ {
		if err := s.ScanShard(i, fn); err != nil {
			return err
		}
	}
	return nil
}

// ScanShard replays one shard in append order.
func (s *Binary) ScanShard(i int, fn func(*Record) error) error {
	if i < 0 || i >= s.shards {
		return fmt.Errorf("store: shard %d out of range 0..%d", i, s.shards-1)
	}
	it, err := s.shardIter(i)
	if err != nil {
		return err
	}
	return drain(it, fn)
}

// shardIter reads shard i up to its size at the call, so frames
// appended meanwhile — possibly still half-written — are not read.
func (s *Binary) shardIter(i int) (*frameIter[Record], error) {
	s.mu.Lock()
	size := s.sizes[i]
	s.mu.Unlock()
	return openFrames(s.binPath(i), 0, size, decodeRecord)
}

// Get is the point lookup: the record for domain via the in-memory
// index, without scanning. The returned record is the caller's copy.
func (s *Binary) Get(domain string) (*Record, bool, error) {
	s.mu.Lock()
	loc, ok := s.index[domain]
	s.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	end := loc.off + int64(loc.n)
	it, err := openFrames(s.binPath(loc.shard), loc.off, end, decodeRecord)
	if err != nil {
		return nil, false, err
	}
	defer it.close()
	rec, ok, err := it.next()
	if err != nil {
		return nil, false, err
	}
	if !ok || it.off != end {
		return nil, false, fmt.Errorf("store: %s @%d: index and frame disagree on length", s.binPath(loc.shard), loc.off)
	}
	cp := *rec
	return &cp, true, nil
}

// Len counts the stored records from the shard counters — no scan.
func (s *Binary) Len() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.counts {
		n += c
	}
	return n, nil
}

// Close closes every opened shard file.
func (s *Binary) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for i := range s.bins {
		for _, f := range []*os.File{s.bins[i], s.idxs[i]} {
			if f == nil {
				continue
			}
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
		s.bins[i], s.idxs[i] = nil, nil
	}
	return first
}

// Meta reads the directory's meta.json stamp.
func (s *Binary) Meta() (Meta, bool, error) {
	return readMetaFile(filepath.Join(s.dir, "meta.json"))
}

// SetMeta writes the stamp, always recording the shard count, format,
// and codec version.
func (s *Binary) SetMeta(m Meta) error {
	m.Shards = s.shards
	m.Format = FormatBinary
	m.Codec = codecVersion
	return writeMetaFile(filepath.Join(s.dir, "meta.json"), m)
}
