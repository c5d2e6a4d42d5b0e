// Command perfbench is the repository benchmark. One invocation runs one
// workload for one seed and prints every metric by name and unit, then
// a JSON result as its last stdout line:
//
//	bash perfbench/run.sh --workload paper|stream|serve|dispatch --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics, measured with
// tracing off; with --trace 1 it adds one traced run of the same
// configuration and reports the per-layer metrics. Every run checks the
// program's output and fails the whole invocation on a wrong answer.
// README.md in this directory defines each metric and workload.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

// Workload sizes, fixed for a 2-CPU box: one generating process, at
// most two connections or two dispatch workers.
const (
	paperWorkers    = 8    // `aipan all` default
	streamDomains   = 4000 // scaled universe, larger than the paper's 2,892
	streamShards    = 16
	eventShards     = 4 // `aipan run --events-out` default
	dispatchLimit   = 1000
	dispatchWorkers = 2
	dispatchShards  = 8 // `aipan run --dispatch-shards` default
	setupRuns       = 2 // extra fresh-process set-ups per invocation
	publishRuns     = 5 // exports per run; publish_ms is their median
	invocationLimit = 170 * time.Second
)

var workloads = []string{"paper", "stream", "serve", "dispatch"}

// bench is one invocation.
type bench struct {
	workload string
	seed     int64 // the workload seed given on the command line
	seconds  float64
	trace    bool
	root     string // checkout root: the working directory
	work     string // this invocation's scratch directory
	self     string
	out      io.Writer
}

// corpusSeed derives the program's corpus seed from the workload seed.
func (b *bench) corpusSeed() int64 { return 3000 + b.seed }

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "paper | stream | serve | dispatch")
	seed := fs.Int64("seed", 1, "workload seed: every input derives from it")
	seconds := fs.Int("seconds", 10, "measurement time per invocation")
	trace := fs.Int("trace", 0, "1 adds a traced run and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seed < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seed >= 0, --seconds >= 1, --trace 0|1\n",
			strings.Join(workloads, "|"))
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{workload: *workload, seed: *seed, seconds: float64(*seconds), trace: *trace == 1,
		root: root, self: self, out: os.Stdout}
	b.work = filepath.Join(root, ".bench_build", "work", fmt.Sprintf("%s-s%d-%d", b.workload, b.seed, os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.work)

	// A hung child must not hang the benchmark: past the deadline every
	// child is killed and the invocation fails.
	ctx, cancel := context.WithTimeout(context.Background(), invocationLimit)
	defer cancel()
	res, err := b.run(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := b.print(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.correct {
		return 1
	}
	return 0
}

// result is what one invocation reports.
type result struct {
	correct   bool
	problems  []string
	attempted int64
	failed    int64
	metrics   []metric
	// info lines print with the metrics but are not part of the JSON.
	info []string
}

type metric struct {
	name  string
	unit  string
	value float64
	note  string // printed after the value, not part of the JSON
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

// check records a failed correctness condition; any one fails the run.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.correct = false
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (b *bench) run(ctx context.Context) (*result, error) {
	res := &result{correct: true}
	var err error
	switch b.workload {
	case "paper", "stream":
		err = b.runPipelineWorkload(ctx, res)
	case "dispatch":
		err = b.runDispatchWorkload(ctx, res)
	case "serve":
		err = b.runServeWorkload(ctx, res)
	}
	return res, err
}

func (b *bench) print(res *result) error {
	fmt.Fprintf(b.out, "perfbench %s seed=%d seconds=%g trace=%v nproc=%d %s\n",
		b.workload, b.seed, b.seconds, b.trace, runtime.NumCPU(), runtime.Version())
	for _, m := range res.metrics {
		fmt.Fprintf(b.out, "  %-34s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, line := range res.info {
		fmt.Fprintln(b.out, "  "+line)
	}
	for _, p := range res.problems {
		fmt.Fprintln(b.out, "  CHECK FAILED: "+p)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jm{}
	for _, m := range res.metrics {
		metrics[m.name] = jm{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
	if err != nil { // a NaN or infinite figure: no result to report
		return fmt.Errorf("encoding the result: %w", err)
	}
	fmt.Fprintln(b.out, string(line))
	return nil
}

// usage is what the parent reads about a finished child process.
type usage struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	maxRSS int64         // bytes
}

// cpuUtil is the child's (user + sys) ÷ (wall × nproc).
func (u usage) cpuUtil() float64 {
	return u.cpu.Seconds() / (u.wall.Seconds() * float64(runtime.NumCPU()))
}

func (b *bench) childConfig(role string) childConfig {
	return childConfig{Role: role, Workload: b.workload, Seed: b.corpusSeed()}
}

// child runs one child process to completion and returns its report.
func (b *bench) child(ctx context.Context, cfg childConfig) (*childReport, usage, error) {
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp(b.work, cfg.Role+"-")
		if err != nil {
			return nil, usage{}, err
		}
		cfg.Dir = dir
	}
	arg, err := json.Marshal(cfg)
	if err != nil {
		return nil, usage{}, err
	}
	cmd := exec.CommandContext(ctx, b.self, "child", string(arg))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	settle()
	start := time.Now()
	err = cmd.Run()
	u := usage{wall: time.Since(start)}
	if err != nil {
		return nil, u, fmt.Errorf("%s %s child: %w", cfg.Workload, cfg.Role, err)
	}
	u = usageOf(cmd.ProcessState, u.wall)
	rep, err := parseReport(stdout.Bytes())
	if err != nil {
		return nil, u, fmt.Errorf("%s %s child: %w", cfg.Workload, cfg.Role, err)
	}
	return rep, u, nil
}

// settle writes back the page cache the previous step dirtied (exports,
// stores, fixtures of tens of MB), so its writeback does not compete
// with the next measured process for the box's two CPUs.
func settle() { syscall.Sync() }

func usageOf(ps *os.ProcessState, wall time.Duration) usage {
	u := usage{wall: wall, cpu: ps.UserTime() + ps.SystemTime()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		u.maxRSS = ru.Maxrss << 10 // Linux reports KiB
	}
	return u
}

func parseReport(out []byte) (*childReport, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep childReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("reading child report: %w", err)
	}
	return &rep, nil
}

// setupSamples times set-up in n fresh processes.
func (b *bench) setupSamples(ctx context.Context, n int, cfg childConfig) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		rep, _, err := b.child(ctx, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, rep.SetupS)
	}
	return out, nil
}

// repeat runs fn at least once, and again while another run of the
// last one's length would mostly fit in the measurement time, so a run
// measures about --seconds of work and the repeat count does not flip
// with the last few percent of a run's duration.
func (b *bench) repeat(fn func(i int) error) error {
	start := time.Now()
	var last time.Duration
	for i := 0; i == 0 || (time.Since(start)+last/2).Seconds() < b.seconds; i++ {
		t := time.Now()
		if err := fn(i); err != nil {
			return err
		}
		last = time.Since(t)
	}
	return nil
}

func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}

// perOp divides, reporting 0 for an empty denominator.
func perOp(v float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	return v / float64(n)
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
