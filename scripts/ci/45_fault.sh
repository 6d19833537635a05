#!/usr/bin/env bash
# CI stage 4.5 — fault injection + campaign resilience:
#
#   (a) seed-pinned fault-differential fuzz: seeded random fault plans on
#       random RTL designs must produce byte-identical faulty traces and
#       identical masked/silent/detected reports on every engine
#       configuration (the four engines of Engine::ALL + specialized-par
#       at 1/4 threads); then the pinned-report test, which holds full
#       run_diff reports (trace fingerprint included) to literals, so a
#       change to the fingerprint's fold fails this stage even when every
#       engine changes alike; then the cone-settle differential: on
#       every engine and on batch lanes, random dense plans and
#       hand-built cones, each forced settle (one full settle, then the
#       forced nets' fan-out cone) must leave the same words as the
#       block-by-block walk over the whole schedule; then the two lane
#       sets of the one fault driver (run_diffs): the scalar-set
#       differential — one golden and N faulty simulators (N = 1, 5, 63;
#       CL and IR mesh) report exactly what N independent run_diff runs
#       report — and the full-bundle batch differential: 63 seeded plans
#       on each of four IR mesh configurations, every batch lane's report
#       (traced: fingerprint included) equal to the scalar run_diff of
#       its plan, and the traced 63-plan scalar set equal to the traced
#       batch — the lanes that follow lane 0, fork off it and rejoin it
#       are all checked here;
#   (b) checkpoint/resume smoke: the fault_sweep --smoke campaign is
#       killed after two of its five jobs (RUSTMTL_SWEEP_EXIT_AFTER)
#       and restarted; the restart must replay exactly the journalled
#       jobs and recompute none of them;
#   (c) watchdog smoke: injected hangs (RUSTMTL_SWEEP_INJECT_HANG) are
#       killed by the per-job watchdog and the campaign still completes
#       every healthy job.
#
# Everything is seed-pinned: a red run reproduces locally with exactly
# these commands.
. "$(dirname "$0")/lib.sh"
ci_stage fault

echo "== fault fuzz: 15 iterations, seed 7 (6 engine configs must agree)"
cargo run -p mtl-bench --release --bin fuzz -- --fault --iters 15 --seed 7

echo "== pinned fault reports: the trace fingerprint's definition"
out=$(cargo test -q --release --test fault_injection -- --exact \
    pinned_reports_fix_the_trace_fingerprint_definition 2>&1) || {
    echo "$out"; echo "FAIL: pinned fault reports changed"; exit 1; }
echo "$out" | grep -q "1 passed" || {
    echo "$out"; echo "FAIL: the pinned-report test did not run"; exit 1; }

echo "== cone settle: every forced settle equals the whole-schedule walk, word for word"
out=$(cargo test -q --release -p mtl-sim --lib -- --exact \
    sim::tests::cone_settle_equals_the_walk_on_random_designs \
    sim::tests::cone_settle_equals_the_walk_on_hand_built_cones 2>&1) || {
    echo "$out"; echo "FAIL: a forced settle differs from the schedule walk"; exit 1; }
echo "$out" | grep -q "2 passed" || {
    echo "$out"; echo "FAIL: the cone-settle differential did not run"; exit 1; }

echo "== scalar-set differential: one golden + N faulty simulators equal N run_diff runs"
out=$(cargo test -q --release --test fault_injection -- --exact \
    scalar_set_equals_independent_runs 2>&1) || {
    echo "$out"; echo "FAIL: a scalar lane set's report differs from run_diff"; exit 1; }
echo "$out" | grep -q "1 passed" || {
    echo "$out"; echo "FAIL: the scalar-set differential did not run"; exit 1; }

echo "== batch differential: four 63-plan mesh bundles, every lane against scalar run_diff"
out=$(cargo test -q --release --test fault_injection -- --exact \
    full_batch_bundles_match_scalar_on_four_mesh_configurations 2>&1) || {
    echo "$out"; echo "FAIL: a batch lane's report differs from scalar run_diff"; exit 1; }
echo "$out" | grep -q "1 passed" || {
    echo "$out"; echo "FAIL: the batch differential did not run"; exit 1; }

JOURNAL=target/sweep-journal/ci_fault_smoke.jsonl
rm -f "$JOURNAL"

echo "== resume smoke: kill fault_sweep --smoke after 2 of 5 jobs"
set +e
RUSTMTL_SWEEP_CACHE=0 RUSTMTL_SWEEP_EXIT_AFTER=2 RUSTMTL_BENCH_DIR=target \
    cargo run -q -p mtl-bench --release --bin fault_sweep -- \
    --smoke --journal "$JOURNAL" >/dev/null 2>&1
status=$?
set -e
if [ "$status" -ne 99 ]; then
    echo "expected the simulated kill (exit 99), got exit $status"
    exit 1
fi

echo "== resume smoke: restart must replay 2 jobs and re-execute only the rest"
out=$(RUSTMTL_SWEEP_CACHE=0 RUSTMTL_BENCH_DIR=target \
    cargo run -q -p mtl-bench --release --bin fault_sweep -- \
    --smoke --journal "$JOURNAL")
echo "$out" | grep -q "2 replayed from journal" || {
    echo "$out"; echo "FAIL: resume did not replay the journalled jobs"; exit 1; }
echo "$out" | grep -q "3 executed" || {
    echo "$out"; echo "FAIL: resume recomputed already-finished jobs"; exit 1; }
echo "$out" | grep -q "0 failed" || {
    echo "$out"; echo "FAIL: resumed campaign had failures"; exit 1; }

echo "== watchdog smoke: injected hangs must time out; healthy jobs must finish"
rm -f "$JOURNAL"
out=$(RUSTMTL_SWEEP_CACHE=0 RUSTMTL_SWEEP_INJECT_HANG=mesh16 RUSTMTL_BENCH_DIR=target \
    cargo run -q -p mtl-bench --release --bin fault_sweep -- \
    --smoke --journal "$JOURNAL" --watchdog-ms 300)
echo "$out" | grep -q "2 timed out" || {
    echo "$out"; echo "FAIL: watchdog did not kill the injected hangs"; exit 1; }
# 5 jobs attempted (3 healthy, incl. the batch bundle, + 2 hung); only
# the hung pair failed. The hang substring is mesh16 so the mesh4 batch
# job stays healthy.
echo "$out" | grep -q "5 executed" || {
    echo "$out"; echo "FAIL: not every job was attempted"; exit 1; }
echo "$out" | grep -q "2 failed" || {
    echo "$out"; echo "FAIL: healthy jobs did not complete alongside the hangs"; exit 1; }
rm -f "$JOURNAL"

echo "== fault stage: OK"
