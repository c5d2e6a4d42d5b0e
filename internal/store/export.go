package store

import (
	"bufio"
	"container/heap"
	"encoding/csv"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// This file is the streaming read side of the store: per-shard views
// for incremental consumers (the dataset server), pull iterators over
// shards, and the k-way merge that exports a store in domain order
// without materializing it. Every shipped backend appends in domain
// order on each shard (the pipeline's submission-order delivery over a
// sorted domain list guarantees it, resume included — a resumed run
// appends a suffix of the same sorted order), so the merge is the
// normal path; a store whose shards turn out unsorted falls back to
// materialize-and-sort.

// ShardView is the incremental-read interface over a store's shards:
// shards can be scanned independently, and ShardStamp is a cheap change
// stamp per shard — unchanged stamp means unchanged content for the
// append-only backends this package ships, which is what lets the
// dataset server rebuild only the shards that grew.
type ShardView interface {
	NumShards() int
	ScanShard(i int, fn func(*Record) error) error
	ShardStamp(i int) (string, error)
}

// fileStamp stamps an append-only file by size and mtime; a missing
// file stamps as "absent".
func fileStamp(path string) (string, error) {
	st, err := os.Stat(path)
	if err != nil {
		if os.IsNotExist(err) {
			return "absent", nil
		}
		return "", fmt.Errorf("store: statting %s: %w", path, err)
	}
	return strconv.FormatInt(st.Size(), 10) + ":" + strconv.FormatInt(st.ModTime().UnixNano(), 10), nil
}

// NumShards implements ShardView (the in-memory store is one shard).
func (s *Mem) NumShards() int { return 1 }

// ScanShard implements ShardView.
func (s *Mem) ScanShard(i int, fn func(*Record) error) error {
	if i != 0 {
		return fmt.Errorf("store: shard %d out of range for a Mem store", i)
	}
	return s.Scan(fn)
}

// ShardStamp implements ShardView (append count: Mem is append-only).
func (s *Mem) ShardStamp(i int) (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return strconv.Itoa(len(s.recs)), nil
}

// NumShards implements ShardView.
func (s *Binary) NumShards() int { return s.shards }

// ShardStamp implements ShardView.
func (s *Binary) ShardStamp(i int) (string, error) { return fileStamp(s.binPath(i)) }

// ------------------------------------------------------- pull iterators

// errShardDisorder aborts a merge whose input shards are not sorted.
var errShardDisorder = errors.New("store: shard is not in domain order")

// shardIterStore is the internal seam sortedScan merges through; both
// shipped backends implement it.
type shardIterStore interface {
	shardIters() ([]iter[Record], error)
}

// memIter pulls records off a snapshot of the in-memory store.
type memIter struct {
	recs []Record
	pos  int
}

func (it *memIter) next() (*Record, bool, error) {
	if it.pos >= len(it.recs) {
		return nil, false, nil
	}
	r := &it.recs[it.pos]
	it.pos++
	return r, true, nil
}

func (it *memIter) close() error { return nil }

func (s *Mem) shardIters() ([]iter[Record], error) {
	s.mu.RLock()
	recs := s.recs
	s.mu.RUnlock()
	return []iter[Record]{&memIter{recs: recs}}, nil
}

func (s *Binary) shardIters() ([]iter[Record], error) {
	out := make([]iter[Record], 0, s.shards)
	for i := 0; i < s.shards; i++ {
		it, err := s.shardIter(i)
		if err != nil {
			closeIters(out)
			return nil, err
		}
		out = append(out, it)
	}
	return out, nil
}

func closeIters(iters []iter[Record]) {
	for _, it := range iters {
		_ = it.close()
	}
}

// -------------------------------------------------------- k-way merge

// mergeHead is one shard's current record in the merge heap.
type mergeHead struct {
	rec   *Record
	shard int
}

// mergeHeap orders heads by (domain, shard index) so ties are broken
// deterministically.
type mergeHeap []mergeHead

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].rec.Domain != h[j].rec.Domain {
		return h[i].rec.Domain < h[j].rec.Domain
	}
	return h[i].shard < h[j].shard
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(mergeHead)) }
func (h *mergeHeap) Pop() any     { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// sortedScan streams the store's records in ascending domain order
// with O(shards) memory: shards merge through a heap of their head
// records. If a shard turns out not to be domain-ordered the scan
// aborts with errShardDisorder (possibly after delivering records), and
// the caller falls back to materialize-and-sort; callers therefore must
// stage their output and restart it on that error. Stores that don't
// expose shard iterators take the materialize path directly.
func sortedScan(st Store, fn func(*Record) error) error {
	sis, ok := st.(shardIterStore)
	if !ok {
		return materializedScan(st, fn)
	}
	iters, err := sis.shardIters()
	if err != nil {
		return err
	}
	defer closeIters(iters)

	h := make(mergeHeap, 0, len(iters))
	prev := make([]string, len(iters)) // last domain seen per shard
	for i, it := range iters {
		rec, ok, err := it.next()
		if err != nil {
			return err
		}
		if ok {
			prev[i] = rec.Domain
			h = append(h, mergeHead{rec: rec, shard: i})
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		head := h[0]
		if err := fn(head.rec); err != nil {
			return err
		}
		rec, ok, err := iters[head.shard].next()
		if err != nil {
			return err
		}
		if !ok {
			heap.Pop(&h)
			continue
		}
		if rec.Domain < prev[head.shard] {
			return fmt.Errorf("%w: %q after %q in shard %d",
				errShardDisorder, rec.Domain, prev[head.shard], head.shard)
		}
		prev[head.shard] = rec.Domain
		h[0] = mergeHead{rec: rec, shard: head.shard}
		heap.Fix(&h, 0)
	}
	return nil
}

// ---------------------------------------------------- staged exporters

// exportStaged builds an export through writeStaged, so readers never
// see a partial file. emit writes the whole export through the scan it
// is handed; it runs once with the constant-memory sortedScan and —
// only if that aborts because a shard turns out unsorted — once more,
// on a fresh temp file, with the materializing fallback.
func exportStaged(path string, emit func(w *bufio.Writer, scan scanFunc) error) error {
	do := func(scan scanFunc) error {
		return writeStaged(path, func(w *bufio.Writer) error { return emit(w, scan) })
	}
	err := do(sortedScan)
	if errors.Is(err, errShardDisorder) {
		return do(materializedScan)
	}
	return err
}

// scanFunc delivers a store's records in ascending domain order.
type scanFunc func(Store, func(*Record) error) error

// ExportAnnotationsCSV streams one CSV row per annotation, ordered by
// domain, without materializing the store — same bytes as
// WriteAnnotationsCSV over the domain-sorted record slice.
func ExportAnnotationsCSV(path string, st Store) error {
	return exportStaged(path, func(w *bufio.Writer, scan scanFunc) error {
		return writeCSV(w, annotationHeader, func(cw *csv.Writer) error {
			return scan(st, func(rec *Record) error { return writeAnnotationRows(cw, rec) })
		})
	})
}

// ExportDomainsCSV streams one CSV row per domain, ordered by domain,
// without materializing the store — same bytes as WriteDomainsCSV over
// the domain-sorted record slice.
func ExportDomainsCSV(path string, st Store) error {
	return exportStaged(path, func(w *bufio.Writer, scan scanFunc) error {
		return writeCSV(w, domainHeader, func(cw *csv.Writer) error {
			return scan(st, func(rec *Record) error { return writeDomainRow(cw, rec) })
		})
	})
}

// materializedScan is the sorted-scan fallback: load, sort, replay.
func materializedScan(st Store, fn func(*Record) error) error {
	var records []Record
	if err := st.Scan(func(r *Record) error {
		records = append(records, *r)
		return nil
	}); err != nil {
		return err
	}
	sort.Slice(records, func(i, j int) bool { return records[i].Domain < records[j].Domain })
	for i := range records {
		if err := fn(&records[i]); err != nil {
			return err
		}
	}
	return nil
}
