#!/usr/bin/env bash
# Runs, in order, the CI steps that need no network, and stops at the first
# failure. Run it from the repository root before landing a change:
#
#   bash scripts/ci-local.sh
#
# Steps, as .github/workflows/ci.yml defines them: build, the gofmt gate,
# go vet, the sammy-vet vettool and its suppression-budget gate, go test
# -race, the repeated overload and fleet suites, the benchmark smoke, the
# fuzz smoke, the kill/resume and multi-worker chaos diffs of a sharded
# population run, and the bench job's BENCH_sim.json regeneration plus the
# benchcheck gate. Left to CI: staticcheck and govulncheck (they fetch
# their tools) and the loadgen smoke (it raises the open-file limit to
# hold 2000 loopback connections).
#
# The benchcheck step regenerates BENCH_sim.json (about a minute, including
# the 50k-stream loadgen proof; BENCH_LOADGEN_STREAMS scales that down, but
# benchcheck then fails Loadgen50k's stream floor by design) and restores
# the committed file afterwards. Build outputs go to a temporary directory.
set -euo pipefail

tmp="$(mktemp -d)"
cp BENCH_sim.json "$tmp/BENCH_sim.json.committed"
trap 'cp "$tmp/BENCH_sim.json.committed" BENCH_sim.json; rm -rf "$tmp"' EXIT

step() { printf '\n== %s\n' "$*"; }

step build
go build ./...

step "gofmt (outside testdata)"
unformatted=$(gofmt -l . | grep -v '/testdata/' || true)
if [ -n "$unformatted" ]; then
	echo "gofmt -l reports:"
	echo "$unformatted"
	exit 1
fi

step vet
go vet ./...

step "sammy-vet (custom analyzers, test files included)"
go build -o "$tmp/sammy-vet" ./cmd/sammy-vet
go vet -vettool="$tmp/sammy-vet" ./...

step "sammy-vet SARIF + suppression-budget gate"
"$tmp/sammy-vet" -stock=false -sarif "$tmp/sammy-vet.sarif" \
	-suppression-budget .sammy-vet-budget.json ./...

step "test (race)"
go test -race ./...

step "overload & lifecycle tests (race, repeated)"
go test -race -count=2 ./internal/overload/ ./internal/leakcheck/
go test -race -count=2 -run 'TestOverload|TestServerDrain|TestSlowReader|TestFetch.*RetryAfter|TestParseRetryAfter' ./internal/cdn/

step "fleet lease/recovery suite (race, repeated)"
go test -race -count=2 -run 'TestLease|TestWorker|TestCoordinator|TestRunLeasedShard|TestDuplicate|TestResumeMismatch|TestRunner' ./internal/abtest/

step "benchmark smoke"
go test -run=NONE -bench=. -benchtime=1x ./...

step "fuzz smoke (pacing header parsing)"
go test -run=NONE -fuzz=FuzzFromHeader -fuzztime=30s ./internal/pacing/
go test -run=NONE -fuzz=FuzzPacerDelay -fuzztime=30s ./internal/pacing/

step "kill/resume integration (sharded population run)"
go build -o "$tmp/sammy-eval" ./cmd/sammy-eval
ARGS="-users 20000 -sessions 2 -chunks 60 -shards 40"
"$tmp/sammy-eval" $ARGS population > "$tmp/golden.out"
mkdir -p "$tmp/ckpt"
"$tmp/sammy-eval" $ARGS -checkpoint-dir "$tmp/ckpt" population > "$tmp/interrupted.out" 2> "$tmp/interrupted.err" &
PID=$!
for i in $(seq 1 600); do
	test "$(ls "$tmp"/ckpt/shard-*.ckpt 2>/dev/null | wc -l)" -ge 3 && break
	sleep 0.02
done
kill -9 $PID || true
wait $PID || true
DONE=$(ls "$tmp"/ckpt/shard-*.ckpt 2>/dev/null | wc -l)
test "$DONE" -gt 0
test "$DONE" -lt 40
"$tmp/sammy-eval" $ARGS -checkpoint-dir "$tmp/ckpt" -resume population > "$tmp/resumed.out" 2> "$tmp/resumed.err"
grep -q resumed "$tmp/resumed.err"
diff "$tmp/golden.out" "$tmp/resumed.out"

step "multi-worker chaos (4 workers, SIGKILL 2 mid-run)"
mkdir -p "$tmp/fleet-ckpt"
"$tmp/sammy-eval" $ARGS -checkpoint-dir "$tmp/fleet-ckpt" -workers 4 -lease-ttl 2s population > "$tmp/fleet.out" 2> "$tmp/fleet.err" &
COORD=$!
for i in $(seq 1 1500); do
	test "$(ls "$tmp"/fleet-ckpt/shard-*.ckpt 2>/dev/null | wc -l)" -ge 2 && break
	sleep 0.02
done
KILLED=$(pgrep -f "$tmp/sammy-eval.*population-worker\$" | head -2)
test -n "$KILLED"
kill -9 $KILLED
test "$(ls "$tmp"/fleet-ckpt/shard-*.ckpt | wc -l)" -lt 40
wait $COORD
grep -Eq 'stolen|recovered' "$tmp/fleet.err"
diff "$tmp/golden.out" "$tmp/fleet.out"

step "regenerate BENCH_sim.json + benchcheck"
BENCH_JSON=1 go test -run=TestWriteBenchJSON .
go run ./cmd/benchcheck -current BENCH_sim.json -baseline BENCH_baseline.json

step "all steps passed"
