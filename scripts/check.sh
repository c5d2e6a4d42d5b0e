#!/usr/bin/env bash
# Tier-1 gate for the aipan repo: build, vet (both Go's and ours), and
# test — including the race detector over the concurrency-bearing
# packages. CI and the verify skill run exactly this script; if it
# passes, the PR is mergeable.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l (every .go file outside testdata/ and .bench_build/)"
# testdata/ holds analyzer fixtures whose layout the golden findings pin;
# .bench_build/ holds perfbench/run.sh's build products and Go caches.
unformatted=$(find . \( -name testdata -o -name .bench_build \) -prune -o -name '*.go' -exec gofmt -l {} +)
if [ -n "$unformatted" ]; then
  echo "FAIL: gofmt would reformat:"
  echo "$unformatted"
  exit 1
fi

echo "==> aipanvet ./... (repo-specific static analysis, wall ceiling ${AIPAN_VET_TIME_CEILING:=120}s)"
# -timing prints the per-checker breakdown (and the shared call-graph
# build) to stderr; the wall gate keeps the interprocedural checkers
# honest — analysis cost must stay flat as checkers accumulate. The
# ceiling is generous: module load (from-source stdlib type-checking)
# dominates, and all checkers together run in well under a second.
vet_start=$(date +%s)
go run ./cmd/aipanvet -timing ./...
vet_secs=$(( $(date +%s) - vet_start ))
if [ "$vet_secs" -gt "$AIPAN_VET_TIME_CEILING" ]; then
  echo "FAIL: aipanvet took ${vet_secs}s, above the ${AIPAN_VET_TIME_CEILING}s ceiling"
  exit 1
fi
echo "aipanvet wall time: ${vet_secs}s (ceiling ${AIPAN_VET_TIME_CEILING}s)"

echo "==> aipanvet negative fixtures (the gate must bite on seeded violations)"
scripts/verify-negatives.sh

echo "==> go test -race (engine, core, obs, server, store, api, dispatch, crawler, annotate, chatbot)"
go test -race ./internal/engine/... ./internal/core/... ./internal/obs/... ./internal/server/... ./internal/store/... ./internal/api/... ./internal/dispatch/... \
  ./internal/crawler/... ./internal/annotate/... ./internal/chatbot/...

echo "==> go test ./..."
go test ./...

echo "==> native fuzzing (10s per target)"
# Each target checks a property, not just the absence of a crash: the
# nlp targets against a reference implementation, FuzzDecodeRecord the
# store codec's round trip and its allocation bound on arbitrary frame
# payloads, the chatbot targets the answer codec against its
# encoding/json reference, and FuzzParse the HTML parser's trees against
# its plain two-scan reference. go test takes one -fuzz pattern per
# invocation, so each package:target pair runs on its own; a failing
# input is written under the package's testdata/fuzz/, where plain go
# test replays it.
for spec in nlp:FuzzNegationScope nlp:FuzzSingular store:FuzzDecodeRecord \
  chatbot:FuzzParseAnswers chatbot:FuzzEncodeAnswers htmlx:FuzzParse; do
  go test -run NONE -fuzz "^${spec#*:}\$" -fuzztime 10s "./internal/${spec%%:*}/"
done

echo "==> perfbench: go vet + go test (the benchmark harness's own module)"
# perfbench/ is a separate module compiled against store, server, core
# and dispatch; building it here makes an API change that breaks the
# benchmark fail tier-1 instead of only the benchmark run.
go -C perfbench vet ./...
go -C perfbench test ./...

echo "==> funnel allocation ceiling (BenchmarkFigure1PipelineFunnel <= ${AIPAN_FUNNEL_ALLOC_CEILING:=165000} allocs/op)"
# Wall-clock on this box swings ±15% run to run, so the gate pins the
# allocation count instead: it is deterministic for a fixed workload and
# regresses immediately if a hot-path buffer stops being reused.
bench_out=$(go test -run NONE -bench 'BenchmarkFigure1PipelineFunnel$' -benchtime 3x -benchmem . 2>&1)
echo "$bench_out" | grep Benchmark || { echo "$bench_out"; echo "FAIL: funnel benchmark did not run"; exit 1; }
allocs=$(echo "$bench_out" | awk '/BenchmarkFigure1PipelineFunnel/ { for (i=1; i<NF; i++) if ($(i+1) == "allocs/op") print $i }')
if [ -z "$allocs" ]; then
  echo "FAIL: could not parse allocs/op from benchmark output"
  exit 1
fi
if [ "$allocs" -gt "$AIPAN_FUNNEL_ALLOC_CEILING" ]; then
  echo "FAIL: funnel ran at $allocs allocs/op, above the $AIPAN_FUNNEL_ALLOC_CEILING ceiling"
  exit 1
fi
echo "funnel allocations: $allocs allocs/op (ceiling $AIPAN_FUNNEL_ALLOC_CEILING)"

echo "==> telemetry smoke (same-seed byte-identical export + runtime/SLO gauges)"
# Two identical seeded runs must export byte-identical traces and event
# shards (deterministic telemetry, DESIGN.md §14), and the server must
# expose the runtime sampler and SLO monitor gauge families.
smokedir=$(mktemp -d)
trap 'rm -rf "$smokedir"' EXIT
go build -o "$smokedir/aipan" ./cmd/aipan
for i in 1 2; do
  "$smokedir/aipan" run --limit 8 --out "$smokedir/ds$i.jsonl" \
    --trace-out "$smokedir/run$i.trace" --events-out "$smokedir/ev$i" >/dev/null
done
cmp "$smokedir/run1.trace" "$smokedir/run2.trace" \
  || { echo "FAIL: same-seed trace exports differ"; exit 1; }
diff -r "$smokedir/ev1" "$smokedir/ev2" >/dev/null \
  || { echo "FAIL: same-seed event streams differ"; exit 1; }
"$smokedir/aipan" serve --addr 127.0.0.1:18123 --data "$smokedir/ds1.jsonl" \
  --events "$smokedir/ev1" >/dev/null 2>&1 &
serve_pid=$!
metrics=""
for _ in $(seq 1 50); do
  if metrics=$(curl -fsS http://127.0.0.1:18123/metrics 2>/dev/null); then break; fi
  sleep 0.1
done
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
# Plain grep (not -q) reads the whole stream, so pipefail never trips on
# an early-exit SIGPIPE.
echo "$metrics" | grep '^aipan_runtime_heap_alloc_bytes' >/dev/null \
  || { echo "FAIL: aipan_runtime_* gauges missing from /metrics"; exit 1; }
echo "$metrics" | grep '^aipan_slo_latency_burn_ratio' >/dev/null \
  || { echo "FAIL: aipan_slo_* gauges missing from /metrics"; exit 1; }
echo "telemetry smoke: byte-identical exports, runtime + SLO gauges live"

echo "==> streaming scale smoke (flat RSS + throughput parity, DESIGN.md §15)"
# A paper-sized run sets the throughput baseline, then a scaled-universe
# run through the binary segment store must hold peak RSS under the
# ceiling and domains/sec within the parity fraction of the baseline —
# the constant-memory contract of the streaming pipeline. Both rates
# come from the same box in the same invocation, so the gate is
# relative, not machine-dependent. Scale up the smoke (e.g.
# AIPAN_SCALE_DOMAINS=100000) for the full acceptance run.
scale_domains=${AIPAN_SCALE_DOMAINS:-6000}
rss_ceiling=${AIPAN_SCALE_RSS_CEILING:-536870912}
min_rate_frac=${AIPAN_SCALE_MIN_RATE_FRAC:-0.80}
"$smokedir/aipan" run --store binary:4 --checkpoint "$smokedir/base-ck" \
  --out "$smokedir/base.jsonl" --stats-out "$smokedir/base-stats.json" >/dev/null 2>&1
"$smokedir/aipan" run --universe "$scale_domains" --limit "$scale_domains" \
  --store binary:16 --checkpoint "$smokedir/scale-ck" \
  --out "$smokedir/scale.jsonl" --stats-out "$smokedir/scale-stats.json" >/dev/null 2>&1
stat_of() { sed -n "s/.*\"$2\": \([0-9.]*\).*/\1/p" "$1"; }
base_rate=$(stat_of "$smokedir/base-stats.json" domains_per_sec)
scale_rate=$(stat_of "$smokedir/scale-stats.json" domains_per_sec)
scale_rss=$(stat_of "$smokedir/scale-stats.json" peak_rss_bytes)
[ -n "$base_rate" ] && [ -n "$scale_rate" ] && [ -n "$scale_rss" ] \
  || { echo "FAIL: could not parse run stats"; exit 1; }
exported=$(wc -l < "$smokedir/scale.jsonl")
if [ "$exported" -ne "$scale_domains" ]; then
  echo "FAIL: scaled export holds $exported records, want $scale_domains"
  exit 1
fi
if [ "$scale_rss" -gt "$rss_ceiling" ]; then
  echo "FAIL: scaled run peaked at $scale_rss bytes RSS, above the $rss_ceiling ceiling"
  exit 1
fi
if [ "$(awk -v a="$scale_rate" -v b="$base_rate" -v f="$min_rate_frac" 'BEGIN{print (a >= b*f) ? 1 : 0}')" != 1 ]; then
  echo "FAIL: scaled run at $scale_rate domains/s, under ${min_rate_frac}x the $base_rate baseline"
  exit 1
fi
echo "scale smoke: $scale_domains domains at $scale_rate/s (baseline $base_rate/s), peak RSS $scale_rss bytes (ceiling $rss_ceiling)"

echo "==> distributed dispatch smoke (coordinator + 2 workers, one SIGKILLed mid-run)"
# A coordinator leases the study's shards to two external worker
# processes; one is SIGKILLed mid-run so its shard expires and is
# reassigned. The merged export must still come out byte-identical to a
# single-process run of the same seed — the dispatch protocol's
# determinism contract (DESIGN.md §17).
dist_port=18127
dist_limit=${AIPAN_DIST_LIMIT:-400}
"$smokedir/aipan" run --limit "$dist_limit" --out "$smokedir/dist-single.jsonl" >/dev/null 2>&1
"$smokedir/aipan" run --limit "$dist_limit" --listen "127.0.0.1:$dist_port" --lease-ttl 2s \
  --out "$smokedir/dist-merged.jsonl" >"$smokedir/dist-coord.log" 2>&1 &
dist_coord=$!
"$smokedir/aipan" work --join "http://127.0.0.1:$dist_port" --id smoke-w1 --workers 2 \
  >/dev/null 2>&1 &
dist_w1=$!
"$smokedir/aipan" work --join "http://127.0.0.1:$dist_port" --id smoke-w2 --workers 2 \
  >/dev/null 2>&1 &
dist_w2=$!
sleep 0.6
kill -9 "$dist_w1" 2>/dev/null || true
wait "$dist_coord" \
  || { echo "FAIL: dispatch coordinator exited nonzero"; cat "$smokedir/dist-coord.log"; kill "$dist_w2" 2>/dev/null || true; exit 1; }
# The surviving worker may lose its final lease poll to the
# coordinator's post-job shutdown; its exit code is not the gate.
wait "$dist_w1" 2>/dev/null || true
wait "$dist_w2" 2>/dev/null || true
cmp "$smokedir/dist-single.jsonl" "$smokedir/dist-merged.jsonl" \
  || { echo "FAIL: distributed export differs from single-process export"; exit 1; }
echo "distributed smoke: $dist_limit domains merged byte-identical across kill + reassignment"

echo "==> kill-and-resume smoke (default checkpoint SIGKILLed mid-run, repaired, resumed)"
# A run into the default checkpoint (binary:1) is SIGKILLed once its
# segment holds records, likely mid-append. `debug repair` finds the
# shard count in the checkpoint's own stamp and cuts any torn frame; the
# rerun must resume from what was durable and export exactly the plain
# run's bytes (the distributed smoke's single-process reference).
kill_ck="$smokedir/kill-ck"
"$smokedir/aipan" run --limit "$dist_limit" --checkpoint "$kill_ck" \
  --out "$smokedir/kill-first.jsonl" >/dev/null 2>&1 &
kill_pid=$!
for _ in $(seq 1 300); do
  [ -s "$kill_ck/seg-00.bin" ] && break
  sleep 0.05
done
sleep 0.2
kill -9 "$kill_pid" 2>/dev/null || true
wait "$kill_pid" 2>/dev/null || true
[ -s "$kill_ck/seg-00.bin" ] || { echo "FAIL: the killed run left no records in its checkpoint"; exit 1; }
repaired=$("$smokedir/aipan" debug repair "$kill_ck") \
  || { echo "FAIL: debug repair of the killed checkpoint failed"; exit 1; }
"$smokedir/aipan" run --limit "$dist_limit" --checkpoint "$kill_ck" --log-level info \
  --out "$smokedir/kill-resumed.jsonl" >/dev/null 2>"$smokedir/kill-resume.log" \
  || { echo "FAIL: resuming the repaired checkpoint failed"; cat "$smokedir/kill-resume.log"; exit 1; }
resumed=$(sed -n 's/.*msg="run starting".* resumed=\([0-9]*\).*/\1/p' "$smokedir/kill-resume.log")
if [ -z "$resumed" ] || [ "$resumed" -lt 1 ]; then
  echo "FAIL: the rerun resumed ${resumed:-no} domains from the killed checkpoint, want at least 1"
  exit 1
fi
cmp "$smokedir/dist-single.jsonl" "$smokedir/kill-resumed.jsonl" \
  || { echo "FAIL: resumed export differs from the plain run's"; exit 1; }
echo "kill-and-resume smoke: $repaired; resumed $resumed of $dist_limit domains, export byte-identical"

echo "OK: all tier-1 checks passed"
