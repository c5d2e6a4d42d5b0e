package store

import (
	"fmt"
	"os"
)

// This file is the truncate-to-last-good recovery path behind the
// ErrTruncated refusals: a crash mid-append (or tail corruption) leaves
// a store's final record incomplete, opens refuse it, and Repair cuts
// the file back to the end of its last well-formed record so the run
// can resume from everything that was durably written. Records after a
// mid-file corruption are dropped with it — a record beyond bytes the
// store cannot vouch for is not trustworthy either.

// Repair truncates every shard of the binary store in dir — the shard
// count read from its meta.json stamp, as OpenBinaryDir reads it — back
// to its last good frame, returning the bytes truncated.
func Repair(dir string) (int64, error) {
	n, err := stampedShards(dir)
	if err != nil {
		return 0, err
	}
	total := int64(0)
	for i := 0; i < n; i++ {
		d, err := repairBinaryShard(segPath(dir, i, "bin"), segPath(dir, i, "idx"))
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
