package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// This file is the truncate-to-last-good recovery path behind the
// ErrTruncated refusals: a crash mid-append (or tail corruption) leaves
// a store's final record incomplete, opens refuse it, and Repair cuts
// the file back to the end of its last well-formed record so the run
// can resume from everything that was durably written. Records after a
// mid-file corruption are dropped with it — a record beyond bytes the
// store cannot vouch for is not trustworthy either.

// Repair repairs the store at path for a CLI spec (the same specs
// OpenSpec takes), returning the number of bytes truncated. A missing
// file repairs as a no-op; "mem" has nothing to repair.
func Repair(spec, path string) (dropped int64, err error) {
	switch spec {
	case "", "jsonl":
		return repairJSONL(path)
	case "mem":
		return 0, errors.New("store: the in-memory backend has nothing to repair")
	}
	n, err := binaryShards(spec)
	if err != nil {
		return 0, err
	}
	total := int64(0)
	for i := 0; i < n; i++ {
		d, err := repairBinaryShard(
			filepath.Join(path, fmt.Sprintf("seg-%02d.bin", i)),
			filepath.Join(path, fmt.Sprintf("seg-%02d.idx", i)))
		if err != nil {
			return total, err
		}
		total += d
	}
	return total, nil
}

// RepairEventDir truncates every shard of the event log in dir back to
// its last good frame, returning the bytes truncated.
func RepairEventDir(dir string) (int64, error) {
	l, err := OpenEventDir(dir)
	if err != nil {
		return 0, err
	}
	defer l.Close()
	total := int64(0)
	for i := 0; i < l.shards; i++ {
		d, err := repairFrames(l.shardPath(i), decodeEvent, nil)
		if err != nil {
			return total, err
		}
		total += d
	}
	return total, nil
}

// repairJSONL truncates a JSONL file back to the end of its last
// newline-terminated line that parses, dropping everything after.
func repairJSONL(path string) (int64, error) {
	it, err := openJSONLIter(path, false)
	if err != nil {
		return 0, err
	}
	if err := drain(it, func(*Record) error { return nil }); err != nil && !it.bad {
		return 0, err
	}
	if it.f == nil {
		return 0, nil // missing file
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, fmt.Errorf("store: statting %s: %w", path, err)
	}
	dropped := st.Size() - it.good
	if dropped <= 0 {
		return 0, nil
	}
	if err := os.Truncate(path, it.good); err != nil {
		return 0, fmt.Errorf("store: truncating %s: %w", path, err)
	}
	return dropped, nil
}

// repairBinaryShard truncates a segment file back to the end of its
// last valid frame and rewrites the sidecar to match.
func repairBinaryShard(binPath, idxPath string) (int64, error) {
	if _, err := os.Stat(binPath); err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("store: statting %s: %w", binPath, err)
	}
	var entries []idxEntry
	dropped, err := repairFrames(binPath, decodeRecord, func(rec *Record, at, end int64) {
		entries = append(entries, idxEntry{domain: rec.Domain, off: at, n: int(end - at)})
	})
	if err != nil {
		return 0, err
	}
	return dropped, writeIdx(idxPath, entries)
}
