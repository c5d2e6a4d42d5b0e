package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"aipan"
	"aipan/internal/store"
)

// cmdDebug dispatches the telemetry and recovery surfaces: `debug trace`
// renders an exported span tree, `debug events` summarizes a
// flight-recorder stream, `debug repair` truncates a crash-torn
// checkpoint or event directory back to its last good record.
func cmdDebug(args []string) error {
	if len(args) < 1 {
		fmt.Fprintln(os.Stderr, `usage:
  aipan debug trace <file>          render an exported trace (--trace-out) as a tree
  aipan debug events <dir>          summarize a flight-recorder stream (--events-out)
  aipan debug repair <dir>          truncate a torn checkpoint (--checkpoint) to its last good record
  aipan debug repair --events <dir> truncate torn flight-recorder shards`)
		return fmt.Errorf("debug needs a subcommand (trace | events | repair)")
	}
	switch args[0] {
	case "trace":
		return debugTrace(args[1:])
	case "events":
		return debugEvents(args[1:])
	case "repair":
		return debugRepair(args[1:])
	}
	return fmt.Errorf("unknown debug subcommand %q (trace | events | repair)", args[0])
}

// debugRepair is the recovery path behind the ErrStoreTruncated refusal:
// a run killed mid-append leaves a half-written final record, opens
// refuse it, and this truncates back to the last record the store can
// vouch for so the run resumes from everything durably written. The
// checkpoint's shard count comes from its meta.json stamp.
func debugRepair(args []string) error {
	fs := flag.NewFlagSet("debug repair", flag.ExitOnError)
	eventsDir := fs.String("events", "", "repair a flight-recorder directory instead of a record store")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *eventsDir != "" {
		if fs.NArg() != 0 {
			return fmt.Errorf("debug repair --events takes no positional arguments")
		}
		dropped, err := aipan.RepairEventDir(*eventsDir)
		if err != nil {
			return err
		}
		fmt.Printf("repaired %s: %d bytes truncated\n", *eventsDir, dropped)
		return nil
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("debug repair needs the checkpoint directory (or --events <dir>)")
	}
	dropped, err := store.Repair(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Printf("repaired %s: %d bytes truncated\n", fs.Arg(0), dropped)
	return nil
}

// stageStat aggregates every span sharing one tree path.
type stageStat struct {
	path  string
	count int
	total time.Duration // sum of span durations
	self  time.Duration // total minus time attributed to child paths
}

func debugTrace(args []string) error {
	fs := flag.NewFlagSet("debug trace", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("debug trace needs exactly one trace file")
	}
	recs, err := aipan.ReadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		fmt.Println("empty trace")
		return nil
	}

	// Aggregate by path: a corpus run emits thousands of domain/page
	// spans, and the per-stage rollup is what a human reads. Self time
	// is the stage's own work: its total minus its direct children's.
	byPath := map[string]*stageStat{}
	runIDs := map[string]bool{}
	for i := range recs {
		rec := &recs[i]
		runIDs[rec.RunID] = true
		st := byPath[rec.Path]
		if st == nil {
			st = &stageStat{path: rec.Path}
			byPath[rec.Path] = st
		}
		st.count++
		st.total += time.Duration(rec.DurationNanos)
	}
	paths := make([]string, 0, len(byPath))
	for path, st := range byPath {
		paths = append(paths, path)
		st.self = st.total
	}
	sort.Strings(paths)
	for _, path := range paths {
		if parent := parentPath(path); parent != "" {
			if pst := byPath[parent]; pst != nil {
				pst.self -= byPath[path].total
			}
		}
	}

	ids := make([]string, 0, len(runIDs))
	for id := range runIDs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fmt.Printf("%d spans, run %s\n\n", len(recs), strings.Join(ids, ", "))
	timed := false
	for _, st := range byPath {
		if st.total != 0 {
			timed = true
			break
		}
	}
	if timed {
		fmt.Printf("%-42s %8s %12s %12s   (self clamps to 0 where concurrent children overlap the parent)\n",
			"stage", "count", "total", "self")
	} else {
		fmt.Printf("%-42s %8s   (deterministic export: no wall-clock timings)\n", "stage", "count")
	}
	for _, path := range paths {
		st := byPath[path]
		depth := strings.Count(path, "/")
		label := strings.Repeat("  ", depth) + lastSegment(path)
		if timed {
			self := st.self
			if self < 0 {
				self = 0
			}
			fmt.Printf("%-42s %8d %12s %12s\n", label, st.count,
				st.total.Round(time.Microsecond), self.Round(time.Microsecond))
		} else {
			fmt.Printf("%-42s %8d\n", label, st.count)
		}
	}
	return nil
}

func parentPath(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return ""
}

func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

func debugEvents(args []string) error {
	fs := flag.NewFlagSet("debug events", flag.ExitOnError)
	slowest := fs.Int("slowest", 10, "slowest domains to list (needs --telemetry-timings at record time)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("debug events needs exactly one event directory")
	}
	log, err := aipan.OpenEventDir(fs.Arg(0))
	if err != nil {
		return err
	}
	defer log.Close()

	var (
		total    int
		outcomes = map[string]int{}
		errs     int
		fallback int
		slow     []aipan.FlightEvent
		runIDs   = map[string]bool{}
	)
	err = log.Scan(func(ev *aipan.FlightEvent) error {
		total++
		outcomes[ev.Outcome]++
		runIDs[ev.RunID] = true
		if len(ev.Errors) > 0 {
			errs++
		}
		for _, a := range ev.Aspects {
			if a.Fallback {
				fallback++
				break
			}
		}
		if ev.WallMillis > 0 {
			slow = append(slow, *ev)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if total == 0 {
		fmt.Println("no events recorded")
		return nil
	}

	ids := make([]string, 0, len(runIDs))
	for id := range runIDs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fmt.Printf("%d events, run %s\n\n", total, strings.Join(ids, ", "))

	fmt.Println("outcomes:")
	keys := make([]string, 0, len(outcomes))
	for k := range outcomes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if outcomes[keys[i]] != outcomes[keys[j]] {
			return outcomes[keys[i]] > outcomes[keys[j]]
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		n := outcomes[k]
		fmt.Printf("  %-18s %6d  (%.1f%%)\n", k, n, 100*float64(n)/float64(total))
	}
	fmt.Printf("\ndomains with errors: %d   with annotation fallbacks: %d\n", errs, fallback)

	if len(slow) > 0 && *slowest > 0 {
		sort.Slice(slow, func(i, j int) bool {
			if slow[i].WallMillis != slow[j].WallMillis {
				return slow[i].WallMillis > slow[j].WallMillis
			}
			return slow[i].Domain < slow[j].Domain
		})
		if len(slow) > *slowest {
			slow = slow[:*slowest]
		}
		fmt.Println("\nslowest domains:")
		for _, ev := range slow {
			stages := make([]string, 0, len(ev.StageMillis))
			for s := range ev.StageMillis {
				stages = append(stages, s)
			}
			sort.Strings(stages)
			var b strings.Builder
			for _, s := range stages {
				fmt.Fprintf(&b, " %s=%dms", s, ev.StageMillis[s])
			}
			fmt.Printf("  %-32s %6dms  %-14s%s\n", ev.Domain, ev.WallMillis, ev.Outcome, b.String())
		}
	}
	return nil
}
