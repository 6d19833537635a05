#!/usr/bin/env bash
# CI stage 5 — campaign smoke: end-to-end measurement campaigns through
# the mtl-sweep orchestration path (sharded execution, caching, JSON
# reports): the CI-sized fig13/14/15 runs, then five small figure bins in
# full. Reports land in $RUSTMTL_BENCH_DIR (default: target/).
. "$(dirname "$0")/lib.sh"
ci_stage smoke

echo "== smoke campaign: fig15 --smoke (writes BENCH_fig15_smoke.json)"
RUSTMTL_BENCH_DIR="${RUSTMTL_BENCH_DIR:-target}" \
    cargo run -p mtl-bench --bin fig15_injection_sweep --release -- --smoke

echo "== profiled smoke campaign: fig13 --smoke --profile (writes BENCH_fig13.json)"
RUSTMTL_BENCH_DIR="${RUSTMTL_BENCH_DIR:-target}" \
    cargo run -p mtl-bench --bin fig13_lod --release -- --smoke --profile

echo "== parallel smoke campaign: fig14 --smoke (all four engine series)"
RUSTMTL_BENCH_DIR="${RUSTMTL_BENCH_DIR:-target}" \
    cargo run -p mtl-bench --bin fig14_mesh_speedup --release -- --smoke

# The remaining figure bins are specs of registry job kinds too; each runs
# in full (a few seconds together) and must report no failed job.
for bin in sec3c_accel_speedup sec3d_mesh_latency fig16_overheads ablations patterns; do
    echo "== figure campaign: $bin"
    RUSTMTL_BENCH_DIR="${RUSTMTL_BENCH_DIR:-target}" \
        cargo run -p mtl-bench --bin "$bin" --release
done
for name in sec3c sec3d fig16 ablations patterns; do
    report="${RUSTMTL_BENCH_DIR:-target}/BENCH_${name}.json"
    grep -Eq '^    "failed": 0,?$' "$report" || {
        echo "smoke stage: $report is missing or has failed jobs"
        exit 1
    }
done
