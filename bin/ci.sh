#!/bin/sh
# CI entry point: typecheck, build, test, format-check, and smoke-test
# the budgeted CLI.  Run from the repository root (or via `make check`).
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @check =="
dune build @check

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

# format check only where the toolchain provides ocamlformat
if command -v ocamlformat >/dev/null 2>&1; then
    echo "== dune build @fmt =="
    dune build @fmt
else
    echo "== skipping @fmt (ocamlformat not installed) =="
fi

# regression: a budgeted solve must exit 0 and report its provenance,
# never leak an exception (the old Budget_exceeded escape)
echo "== CLI smoke: tiny wall-clock budget =="
out=$(dune exec bin/taskalloc.exe -- solve --workload small --timeout 0.05)
echo "$out" | grep -q "resolution:" || {
    echo "FAIL: budgeted solve did not report a resolution"; exit 1; }

echo "== CLI smoke: tiny conflict budget =="
out=$(dune exec bin/taskalloc.exe -- solve --workload small --max-conflicts 1)
echo "$out" | grep -q "resolution:" || {
    echo "FAIL: conflict-budgeted solve did not report a resolution"; exit 1; }

echo "== CLI smoke: unbudgeted solve still optimal =="
out=$(dune exec bin/taskalloc.exe -- solve --workload small)
echo "$out" | grep -q "resolution: optimal" || {
    echo "FAIL: unbudgeted solve not optimal"; exit 1; }

# certification round-trip: an Unsat run must emit a DRUP trace the
# independent checker verifies (pigeonhole PHP(4,3): 4 pigeons, 3 holes)
echo "== CLI smoke: proof logging + check round-trip =="
cnf=$(mktemp /tmp/ci-php43-XXXXXX.cnf)
proof=$(mktemp /tmp/ci-php43-XXXXXX.drup)
cat > "$cnf" <<'EOF'
p cnf 12 22
1 2 3 0
4 5 6 0
7 8 9 0
10 11 12 0
-1 -4 0
-1 -7 0
-1 -10 0
-4 -7 0
-4 -10 0
-7 -10 0
-2 -5 0
-2 -8 0
-2 -11 0
-5 -8 0
-5 -11 0
-8 -11 0
-3 -6 0
-3 -9 0
-3 -12 0
-6 -9 0
-6 -12 0
-9 -12 0
EOF
# Unsat exits 20 by SAT-competition convention; anything else is a failure
rc=0
dune exec bin/dimacs_solve.exe -- --proof "$proof" "$cnf" > /dev/null || rc=$?
[ "$rc" -eq 20 ] || { echo "FAIL: expected Unsat (exit 20), got $rc"; exit 1; }
out=$(dune exec bin/dimacs_solve.exe -- --check "$proof" "$cnf")
echo "$out" | grep -q "s VERIFIED" || {
    echo "FAIL: proof did not verify"; exit 1; }
rm -f "$cnf" "$proof"

# differential fuzz: solver vs brute-force oracle, Unsat answers
# certified by the proof checker; exits non-zero on any discrepancy
echo "== CLI smoke: bounded fuzz campaign =="
out=$(dune exec bin/taskalloc.exe -- fuzz --iters 200 --seed 1)
echo "$out" | grep -q " 0 failures" || {
    echo "FAIL: fuzz campaign found discrepancies"; echo "$out"; exit 1; }

# ---- parallel portfolio -------------------------------------------------

# the same allocation solved sequentially and by a 4-worker portfolio
# must agree on the optimum
echo "== CLI smoke: solve with --jobs 4 =="
out=$(dune exec bin/taskalloc.exe -- solve --workload small --jobs 4)
echo "$out" | grep -q "resolution: optimal" || {
    echo "FAIL: portfolio solve not optimal"; exit 1; }

# certifying interlock under parallelism: with --jobs 4 + --proof every
# worker records its own self-contained trace (clause import is
# disabled) and the winner's trace must still verify
echo "== CLI smoke: parallel proof round-trip =="
cnf=$(mktemp /tmp/ci-php53-XXXXXX.cnf)
proof=$(mktemp /tmp/ci-php53-XXXXXX.drup)
cat > "$cnf" <<'EOF'
p cnf 15 35
1 2 3 0
4 5 6 0
7 8 9 0
10 11 12 0
13 14 15 0
-1 -4 0
-1 -7 0
-1 -10 0
-1 -13 0
-4 -7 0
-4 -10 0
-4 -13 0
-7 -10 0
-7 -13 0
-10 -13 0
-2 -5 0
-2 -8 0
-2 -11 0
-2 -14 0
-5 -8 0
-5 -11 0
-5 -14 0
-8 -11 0
-8 -14 0
-11 -14 0
-3 -6 0
-3 -9 0
-3 -12 0
-3 -15 0
-6 -9 0
-6 -12 0
-6 -15 0
-9 -12 0
-9 -15 0
-12 -15 0
EOF
rc=0
dune exec bin/dimacs_solve.exe -- --jobs 4 --proof "$proof" "$cnf" > /dev/null || rc=$?
[ "$rc" -eq 20 ] || { echo "FAIL: expected Unsat (exit 20), got $rc"; exit 1; }
out=$(dune exec bin/dimacs_solve.exe -- --check "$proof" "$cnf")
echo "$out" | grep -q "s VERIFIED" || {
    echo "FAIL: parallel proof did not verify"; exit 1; }
rm -f "$cnf" "$proof"

# differential fuzz with a 2-worker portfolio: oracle agreement and
# winner-trace certification must survive racing
echo "== CLI smoke: fuzz campaign with --jobs 2 =="
out=$(dune exec bin/taskalloc.exe -- fuzz --iters 60 --seed 2 --jobs 2)
echo "$out" | grep -q " 0 failures" || {
    echo "FAIL: parallel fuzz campaign found discrepancies"; echo "$out"; exit 1; }

# ---- cube-and-conquer + inprocessing ------------------------------------

# cube-and-conquer over 2 domains on an allocation instance: the
# lookahead splitter partitions on the encoder's decision hints and the
# optimum must match the sequential answer
echo "== CLI smoke: solve with --jobs 2 --parallel cubes =="
trace=$(mktemp /tmp/ci-cubes-XXXXXX.json)
out=$(dune exec bin/taskalloc.exe -- solve --workload small --jobs 2 \
    --parallel cubes --trace "$trace")
echo "$out" | grep -q "resolution: optimal" || {
    echo "FAIL: cube solve not optimal"; echo "$out"; exit 1; }
grep -q '"cubes\.' "$trace" || {
    echo "FAIL: trace file missing cube spans"; exit 1; }
rm -f "$trace" "${trace%.json}.jsonl"

# all-cubes-Unsat certification: the per-cube DRUP traces are stitched
# into one refutation of the input, which the checker must accept
# (PHP(5,4); tiny instances may be decided outright by the presolve,
# which still yields a verifiable trace)
echo "== CLI smoke: cubes proof round-trip =="
cnf=$(mktemp /tmp/ci-php54-XXXXXX.cnf)
proof=$(mktemp /tmp/ci-php54-XXXXXX.drup)
{
    echo "p cnf 20 45"
    for p in 0 1 2 3 4; do
        echo "$((4*p+1)) $((4*p+2)) $((4*p+3)) $((4*p+4)) 0"
    done
    for h in 1 2 3 4; do
        for p1 in 0 1 2 3 4; do
            for p2 in 0 1 2 3 4; do
                if [ "$p2" -gt "$p1" ]; then
                    echo "-$((4*p1+h)) -$((4*p2+h)) 0"
                fi
            done
        done
    done
} > "$cnf"
rc=0
dune exec bin/dimacs_solve.exe -- --jobs 2 --parallel cubes --proof "$proof" "$cnf" \
    > /dev/null || rc=$?
[ "$rc" -eq 20 ] || { echo "FAIL: expected Unsat (exit 20), got $rc"; exit 1; }
out=$(dune exec bin/dimacs_solve.exe -- --check "$proof" "$cnf")
echo "$out" | grep -q "s VERIFIED" || {
    echo "FAIL: stitched cube proof did not verify"; exit 1; }
rm -f "$cnf" "$proof"

# inprocessing differential fuzz through the CLI: with and without the
# passes every verdict/optimum must agree and inprocessed Unsat traces
# must certify
echo "== CLI smoke: fuzz --inprocess =="
out=$(dune exec bin/taskalloc.exe -- fuzz --inprocess --iters 15 --seed 7)
echo "$out" | grep -q " 0 failures" || {
    echo "FAIL: inprocessing campaign found discrepancies"; echo "$out"; exit 1; }

# ---- infeasibility explanation ------------------------------------------

# the over-constrained example must be diagnosed with a named deadline
# core (exit 1 = infeasible by CLI convention)
echo "== CLI smoke: explain an over-constrained instance =="
rc=0
out=$(dune exec bin/taskalloc.exe -- explain --file examples/overconstrained.prob) || rc=$?
[ "$rc" -eq 1 ] || { echo "FAIL: expected infeasible (exit 1), got $rc"; exit 1; }
echo "$out" | grep -q "INFEASIBLE" || {
    echo "FAIL: explain did not report infeasibility"; echo "$out"; exit 1; }
echo "$out" | grep -q "deadline of" || {
    echo "FAIL: explain core did not name a deadline group"; echo "$out"; exit 1; }

# what-if round trip on one live session: the baseline is infeasible,
# dropping one fusion deadline is feasible, and the baseline re-asked
# afterwards is infeasible again (assumption state fully cleared)
echo "== CLI smoke: what-if round trip =="
out=$(dune exec bin/taskalloc.exe -- whatif --file examples/overconstrained.prob \
    --query "" --query "drop deadline fusion-a" --query "")
echo "$out" | grep -q "query 1 \[baseline\]: INFEASIBLE" || {
    echo "FAIL: baseline what-if not infeasible"; echo "$out"; exit 1; }
echo "$out" | grep -q "query 2 \[drop deadline fusion-a\]: FEASIBLE" || {
    echo "FAIL: relaxed what-if not feasible"; echo "$out"; exit 1; }
echo "$out" | grep -c "INFEASIBLE" | grep -q "^2$" || {
    echo "FAIL: repeated baseline did not return to infeasible"; echo "$out"; exit 1; }

# assumption cores over the DIMACS front end: assuming 1 and 2 against
# (~1 | ~2) is Unsat with a "c core" line naming the culprits
echo "== CLI smoke: dimacs_solve --assume core =="
cnf=$(mktemp /tmp/ci-assume-XXXXXX.cnf)
assume=$(mktemp /tmp/ci-assume-XXXXXX.lits)
printf 'p cnf 3 2\n-1 -2 0\n1 3 0\n' > "$cnf"
printf '1 2\n' > "$assume"
rc=0
out=$(dune exec bin/dimacs_solve.exe -- --assume "$assume" "$cnf") || rc=$?
[ "$rc" -eq 20 ] || { echo "FAIL: expected Unsat (exit 20), got $rc"; exit 1; }
echo "$out" | grep -q "^c core .*0$" || {
    echo "FAIL: no failed-assumption core printed"; echo "$out"; exit 1; }
rm -f "$cnf" "$assume"

# ---- online repair -------------------------------------------------------

# the disruption walkthrough end to end: every event in the stream must
# be repaired (degrading at the final failure), exit 0
echo "== CLI smoke: repair a disruption scenario =="
out=$(dune exec bin/taskalloc.exe -- repair --scenario examples/disruption.scen)
echo "$out" | grep -q "REPAIRED" || {
    echo "FAIL: scenario repair did not report a repair"; echo "$out"; exit 1; }
echo "$out" | grep -q "shed" || {
    echo "FAIL: final failure did not engage the degradation ladder"; echo "$out"; exit 1; }

# with shedding disabled the last failure is irreparable (exit 1), and
# a zero conflict budget yields a clean Unknown (exit 4) — never an
# exception
echo "== CLI smoke: repair --no-shed is irreparable =="
rc=0
dune exec bin/taskalloc.exe -- repair --scenario examples/disruption.scen \
    --no-shed > /dev/null || rc=$?
[ "$rc" -eq 1 ] || { echo "FAIL: expected irreparable (exit 1), got $rc"; exit 1; }

echo "== CLI smoke: repair under a zero conflict budget =="
rc=0
dune exec bin/taskalloc.exe -- repair --scenario examples/disruption.scen \
    --max-conflicts 0 > /dev/null || rc=$?
[ "$rc" -eq 4 ] || { echo "FAIL: expected unknown (exit 4), got $rc"; exit 1; }

# disruption campaigns: random repair streams cross-checked against the
# brute-force minimal-migration oracle, spread over 2 domains
echo "== CLI smoke: disruption fuzz with --jobs 2 =="
out=$(dune exec bin/taskalloc.exe -- fuzz --disruptions --iters 15 --seed 3 --jobs 2)
echo "$out" | grep -q " 0 failures" || {
    echo "FAIL: disruption campaign found discrepancies"; echo "$out"; exit 1; }

# ---- observability -------------------------------------------------------

# tracing + metrics on a parallel solve: both files must materialise,
# the trace must carry encode-family and per-worker spans, and the
# metrics snapshot must record per-family encode counts and solver
# progress samples
echo "== CLI smoke: --trace/--metrics on a portfolio solve =="
trace=$(mktemp /tmp/ci-trace-XXXXXX.json)
metrics=$(mktemp /tmp/ci-metrics-XXXXXX.json)
# --parallel auto picks cube-and-conquer on allocation problems, so pin
# the portfolio strategy: this smoke asserts per-worker portfolio spans
out=$(dune exec bin/taskalloc.exe -- solve --workload small --jobs 2 \
    --parallel portfolio --trace "$trace" --metrics "$metrics")
echo "$out" | grep -q "resolution: optimal" || {
    echo "FAIL: traced solve not optimal"; exit 1; }
grep -q '"traceEvents"' "$trace" || {
    echo "FAIL: trace file missing traceEvents"; exit 1; }
grep -q '"encode"' "$trace" || {
    echo "FAIL: trace file missing encode span"; exit 1; }
grep -q '"portfolio.worker"' "$trace" || {
    echo "FAIL: trace file missing per-worker spans"; exit 1; }
grep -q '"encode.alloc.vars"' "$metrics" || {
    echo "FAIL: metrics missing per-family encode counts"; exit 1; }
grep -q '"solver.progress_samples"' "$metrics" || {
    echo "FAIL: metrics missing solver progress samples"; exit 1; }
[ -s "${trace%.json}.jsonl" ] || {
    echo "FAIL: JSONL sibling of the trace not written"; exit 1; }
rm -f "$trace" "${trace%.json}.jsonl" "$metrics"

# bench smoke: the portfolio and explain experiments end to end on toy
# instances (generate BENCH_portfolio.json / BENCH_explain.json;
# speedups are not meaningful at this scale, only that the harnesses
# run clean)
# the multicore gate is honest: it must state the core count and either
# enforce the 2x-at-4-workers bound (>= 4 cores) or say it skipped
echo "== bench smoke: quick portfolio (multicore gate) =="
out=$(dune exec bench/main.exe -- quick portfolio)
echo "$out" | grep -q "cores available:" || {
    echo "FAIL: portfolio bench did not report the core count"; exit 1; }
echo "$out" | grep -q "gate:" || {
    echo "FAIL: portfolio bench did not print a gate verdict"; echo "$out"; exit 1; }
if echo "$out" | grep -q "gate: VIOLATED"; then
    echo "FAIL: multicore speedup gate violated"; echo "$out"; exit 1
fi
[ -s BENCH_portfolio.json ] || {
    echo "FAIL: BENCH_portfolio.json not written"; exit 1; }

echo "== bench smoke: quick explain =="
dune exec bench/main.exe -- quick explain > /dev/null

# enabled-vs-disabled observability overhead must stay within 5% and
# the disabled run must make zero clock reads (null-sink invariant)
echo "== bench smoke: quick obs overhead =="
out=$(dune exec bench/main.exe -- quick obs)
echo "$out" | grep -q "shape check: overhead .* OK" || {
    echo "FAIL: observability overhead bound violated"; echo "$out"; exit 1; }
[ -s BENCH_obs.json ] || {
    echo "FAIL: BENCH_obs.json not written"; exit 1; }

# ---- lazy/CEGAR encoding -------------------------------------------------

# differential campaign: every random instance solved by both the eager
# and the lazy encoder, verdicts and optima must agree on all 200
echo "== CLI smoke: lazy-vs-eager differential fuzz =="
out=$(dune exec bin/taskalloc.exe -- fuzz --lazy --iters 200 --seed 5)
echo "$out" | grep -q " 0 failures" || {
    echo "FAIL: lazy differential campaign found discrepancies"; echo "$out"; exit 1; }

# a lazy solve of a named workload must still prove optimality
echo "== CLI smoke: solve --lazy =="
out=$(dune exec bin/taskalloc.exe -- solve --workload tasks12 --lazy)
echo "$out" | grep -q "encoding: lazy (CEGAR)" || {
    echo "FAIL: --lazy did not engage the lazy encoder"; echo "$out"; exit 1; }
echo "$out" | grep -q "resolution: optimal" || {
    echo "FAIL: lazy solve not optimal"; echo "$out"; exit 1; }

# abstraction shape: >= 5x smaller than eager, >= 2x faster to encode,
# identical optima (asserted inside the harness)
echo "== bench smoke: quick cegar =="
out=$(dune exec bench/main.exe -- quick cegar)
echo "$out" | grep -q "shape check: .*OK" || {
    echo "FAIL: cegar shape check violated"; echo "$out"; exit 1; }
[ -s BENCH_cegar.json ] || {
    echo "FAIL: BENCH_cegar.json not written"; exit 1; }

# ---- allocation-as-a-service daemon --------------------------------------

# taskallocd end to end over a Unix socket: open -> solve -> whatif
# (answered from the solved allocation, no solver call) -> whatif ->
# repair -> stats -> close, all ok:true; then admission control
# (deadline-bounded and zero-budget requests answered, never hung) and
# a clean SIGTERM drain that removes the socket file.  The binaries
# are driven directly from _build (already built above) so the timing
# assertion is not polluted by dune startup.
echo "== daemon smoke: taskallocd over a Unix socket =="
TAD=_build/default/bin/taskallocd.exe
TAC=_build/default/bin/taskalloc.exe
dsock=$(mktemp -u /tmp/ci-taskallocd-XXXXXX.sock)
dlog=$(mktemp /tmp/ci-taskallocd-XXXXXX.log)
dflight=$(mktemp -u /tmp/ci-taskallocd-XXXXXX-flight.json)
"$TAD" --socket "$dsock" --workers 2 \
    --prometheus 127.0.0.1:0 --flight "$dflight" 2> "$dlog" &
dpid=$!
i=0
while [ ! -S "$dsock" ]; do
    i=$((i+1))
    [ "$i" -le 100 ] || { echo "FAIL: daemon socket never appeared"; exit 1; }
    sleep 0.1
done
out=$("$TAC" client --socket "$dsock" \
    -r '{"kind":"open","id":1,"problem_file":"examples/fleet.prob"}' \
    -r '{"kind":"solve","id":2,"session":"s1","objective":"trt"}' \
    -r '{"kind":"whatif","id":3,"session":"s1","deltas":"drop deadline brake-ctrl"}' \
    -r '{"kind":"whatif","id":4,"session":"s1","deltas":"pin brake-ctrl 0"}' \
    -r '{"kind":"repair","id":5,"session":"s1","event":"fail-ecu 2"}' \
    -r '{"kind":"stats","id":6}' \
    -r '{"kind":"close","id":7,"session":"s1"}') || {
    echo "FAIL: daemon session round-trip had an error response"
    echo "$out"; kill "$dpid" 2>/dev/null; exit 1; }
echo "$out" | grep -q '"outcome":"solved"' || {
    echo "FAIL: daemon solve did not solve"; echo "$out"; exit 1; }
# the solved allocation answers a relaxing what-if without a solver call
echo "$out" | grep '"id":3' | grep '"status":"feasible"' \
    | grep -q '"session_solves":0' || {
    echo "FAIL: daemon what-if after solve did not answer from the allocation in force"
    echo "$out"; exit 1; }
echo "$out" | grep -q '"status":"repaired"' || {
    echo "FAIL: daemon repair did not repair"; echo "$out"; exit 1; }
echo "$out" | grep -q '"requests":' || {
    echo "FAIL: daemon stats missing counters"; echo "$out"; exit 1; }

# a starved, deadline-bounded solve must return within its budget with
# non-Optimal provenance (anytime ladder), never hang past the deadline
echo "== daemon smoke: deadline-bounded request =="
t0=$(date +%s)
out=$("$TAC" client --socket "$dsock" \
    -r '{"kind":"open","id":1,"workload":"tasks12","seed":42}' \
    -r '{"kind":"solve","id":2,"session":"s2","objective":"trt","max_conflicts":1,"deadline_ms":20000}') || {
    echo "FAIL: deadline-bounded solve errored"; echo "$out"; exit 1; }
t1=$(date +%s)
[ $((t1 - t0)) -le 15 ] || {
    echo "FAIL: deadline-bounded solve took $((t1 - t0))s"; exit 1; }
echo "$out" | grep -q '"quality":"optimal"' && {
    echo "FAIL: starved solve claimed Optimal provenance"; echo "$out"; exit 1; }
echo "$out" | grep -Eq '"quality":"(anytime|heuristic)"' || {
    echo "FAIL: starved solve reported no provenance"; echo "$out"; exit 1; }

# zero budget, no fallback: a clean unknown, not a hang or an exception
echo "== daemon smoke: zero-budget request returns unknown =="
out=$("$TAC" client --socket "$dsock" \
    -r '{"kind":"solve","id":3,"session":"s2","objective":"trt","max_conflicts":0,"fallback":false}') || {
    echo "FAIL: zero-budget solve errored"; echo "$out"; exit 1; }
echo "$out" | grep -q '"outcome":"unknown"' || {
    echo "FAIL: zero-budget solve not unknown"; echo "$out"; exit 1; }

# ---- request-scoped observability ---------------------------------------

# Prometheus exposition: the daemon printed its ephemeral /metrics port
# at startup; a scrape must return the request counter and the latency
# histogram with a +Inf bucket
echo "== daemon smoke: /metrics scrape =="
i=0
pport=""
while [ -z "$pport" ]; do
    pport=$(sed -n 's|.*http://127.0.0.1:\([0-9]*\)/metrics.*|\1|p' "$dlog")
    [ -n "$pport" ] && break
    i=$((i+1))
    [ "$i" -le 50 ] || { echo "FAIL: daemon never printed the /metrics port"; exit 1; }
    sleep 0.1
done
scrape=$(curl -fs "http://127.0.0.1:$pport/metrics") || {
    echo "FAIL: /metrics scrape failed"; exit 1; }
echo "$scrape" | grep -q '^taskalloc_requests_total ' || {
    echo "FAIL: scrape missing taskalloc_requests_total"; exit 1; }
echo "$scrape" | grep -q 'taskalloc_request_duration_us_bucket{le="+Inf"}' || {
    echo "FAIL: scrape missing latency histogram"; exit 1; }

# live progress streaming: a deadline-bounded optimizing solve watched
# from a second connection must stream >= 1 progress event, every line
# tagged with the request id, and any gap values must never increase
echo "== daemon smoke: concurrent watch streams progress =="
watchout=$(mktemp /tmp/ci-watch-XXXXXX.out)
solveout=$(mktemp /tmp/ci-solve-XXXXXX.out)
"$TAC" client --socket "$dsock" \
    -r '{"kind":"open","id":1,"workload":"tasks30","seed":42}' > /dev/null
"$TAC" client --socket "$dsock" \
    -r '{"kind":"solve","session":"s3","objective":"trt","deadline_ms":15000,"request_id":"ciwatch"}' \
    > "$solveout" &
spid=$!
i=0
while :; do
    "$TAC" client --socket "$dsock" --watch ciwatch > "$watchout"
    grep -q '"error":"unknown_request"' "$watchout" || break
    i=$((i+1))
    [ "$i" -le 100 ] || { echo "FAIL: watch never attached"; exit 1; }
done
wait "$spid" || { echo "FAIL: watched solve errored"; cat "$solveout"; exit 1; }
grep -q '"event":"progress"' "$watchout" || {
    echo "FAIL: watch streamed no progress events"; cat "$watchout"; exit 1; }
grep -c '"request_id":"ciwatch"' "$watchout" > /dev/null || {
    echo "FAIL: watch lines not tagged with the request id"; exit 1; }
awk -F'"gap":' '/"event":"progress"/ && NF > 1 {
        split($2, a, /[,}]/); g = a[1] + 0
        if (seen && g > prev + 1e-9) exit 1
        prev = g; seen = 1
    }' "$watchout" || {
    echo "FAIL: progress gap increased over the stream"; cat "$watchout"; exit 1; }
grep -q '"outcome":"solved"' "$solveout" || {
    echo "FAIL: watched solve did not solve"; cat "$solveout"; exit 1; }

# cancel: an in-flight solve under a long deadline must answer promptly
# after the cancel trips its budget hook, with anytime/heuristic
# provenance — never Optimal, never running out the deadline
echo "== daemon smoke: cancel an in-flight solve =="
# ecus64 takes about 3 s to its optimum; a smaller instance such as
# ecus32 proves it within a few hundred ms of the first incumbent, too
# soon for the cancel to land reliably
"$TAC" client --socket "$dsock" \
    -r '{"kind":"open","id":1,"workload":"ecus64","seed":42}' > /dev/null
t0=$(date +%s)
"$TAC" client --socket "$dsock" \
    -r '{"kind":"solve","session":"s4","objective":"trt","deadline_ms":60000,"request_id":"cicancel"}' \
    > "$solveout" &
spid=$!
# watch the stream from the side until the first incumbent appears, so
# the cancel is guaranteed to interrupt a solve that has an anytime
# answer to fall back on
: > "$watchout"
( i=0
  while :; do
      "$TAC" client --socket "$dsock" --watch cicancel >> "$watchout" 2>/dev/null
      grep -q '"error":"unknown_request"' "$watchout" || break
      : > "$watchout"
      i=$((i+1)); [ "$i" -le 100 ] || break
  done ) &
wpid=$!
i=0
while ! grep -q '"incumbent":' "$watchout" 2>/dev/null; do
    i=$((i+1))
    [ "$i" -le 300 ] || { echo "FAIL: solve never found an incumbent"; exit 1; }
    sleep 0.1
done
cancelout=$(mktemp /tmp/ci-cancel-XXXXXX.out)
i=0
while :; do
    "$TAC" client --socket "$dsock" --cancel cicancel > "$cancelout"
    grep -q '"cancelled":"cicancel"' "$cancelout" && break
    i=$((i+1))
    [ "$i" -le 100 ] || { echo "FAIL: cancel never found the request"; exit 1; }
done
wait "$spid" || { echo "FAIL: cancelled solve errored"; cat "$solveout"; exit 1; }
t1=$(date +%s)
[ $((t1 - t0)) -le 30 ] || {
    echo "FAIL: cancelled solve took $((t1 - t0))s"; exit 1; }
grep -q '"quality":"optimal"' "$solveout" && {
    echo "FAIL: cancelled solve claimed Optimal provenance"; cat "$solveout"; exit 1; }
grep -Eq '"quality":"(anytime|heuristic)"' "$solveout" || {
    echo "FAIL: cancelled solve reported no provenance"; cat "$solveout"; exit 1; }
wait "$wpid" 2>/dev/null || true
rm -f "$watchout" "$solveout" "$cancelout"

# flight recorder: SIGUSR1 must dump the ring as parseable Chrome trace
# JSON without disturbing the serving loop
echo "== daemon smoke: SIGUSR1 flight dump =="
kill -USR1 "$dpid"
i=0
while [ ! -s "$dflight" ]; do
    i=$((i+1))
    [ "$i" -le 100 ] || { echo "FAIL: flight dump never appeared"; exit 1; }
    sleep 0.1
done
if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool < "$dflight" > /dev/null || {
        echo "FAIL: flight dump is not valid JSON"; exit 1; }
fi
grep -q '"traceEvents"' "$dflight" || {
    echo "FAIL: flight dump missing traceEvents"; exit 1; }
grep -q '"server\.' "$dflight" || {
    echo "FAIL: flight dump recorded no server events"; exit 1; }
# the daemon is still serving after the dump
"$TAC" client --socket "$dsock" -r '{"kind":"ping"}' > /dev/null || {
    echo "FAIL: daemon unresponsive after SIGUSR1"; exit 1; }
rm -f "$dflight"

# SIGTERM: drain, exit 0, remove the socket file
echo "== daemon smoke: SIGTERM drain-then-exit =="
kill -TERM "$dpid"
rc=0
wait "$dpid" || rc=$?
[ "$rc" -eq 0 ] || { echo "FAIL: daemon exit code $rc on SIGTERM"; exit 1; }
[ ! -e "$dsock" ] || { echo "FAIL: socket file not cleaned up"; exit 1; }
rm -f "$dlog"

# warm-vs-fresh harness end to end on a toy instance (speedups are not
# meaningful at this scale; the shape gate runs in the full bench)
echo "== bench smoke: quick daemon =="
out=$(dune exec bench/main.exe -- quick daemon)
echo "$out" | grep -q "speedup" || {
    echo "FAIL: daemon bench did not report a speedup"; echo "$out"; exit 1; }
[ -s BENCH_daemon.json ] || {
    echo "FAIL: BENCH_daemon.json not written"; exit 1; }

# repository benchmark, one pass each: every instance must reach its
# known optimum (or formula size) and pass Check and Sim, so a solver
# change that breaks an answer fails here before any timing is read;
# daemon-mix checks the daemon's answers (solve against an in-process
# eager optimum, repairs re-checked by Check and Sim)
echo "== benchmark correctness smoke =="
for wl in "formula --seed 7" "paper-lazy --seed 42" "daemon-mix --seed 42"; do
    line=$(python3 perfbench/run.py --workload $wl --seconds 1 --trace 0 | tail -n 1)
    echo "$line" | grep -q '"correct": true' \
        && echo "$line" | grep -q '"failed": 0[,}]' || {
        echo "FAIL: perfbench --workload $wl: $line"; exit 1; }
done

# the entire tier-1 suite again with the lazy encoder as the default
# (dune runtest caches ignore the environment, so drive the test
# executable directly)
echo "== tier-1 under TASKALLOC_LAZY=1 =="
TASKALLOC_LAZY=1 dune exec test/test_main.exe > /dev/null

# and once more with CDCL inprocessing on everywhere: vivification,
# subsumption and BVE must be invisible to every tier-1 property
echo "== tier-1 under TASKALLOC_INPROCESS=1 =="
TASKALLOC_INPROCESS=1 dune exec test/test_main.exe > /dev/null

echo "CI OK"
