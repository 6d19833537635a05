#!/usr/bin/env bash
# CI stage 5 — campaign smoke: tiny end-to-end measurement campaigns
# through the mtl-sweep orchestration path (sharded execution, caching,
# JSON reports). Reports land in $RUSTMTL_BENCH_DIR (default: target/).
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
