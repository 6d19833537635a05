#!/usr/bin/env bash
# Full verification: runs every CI stage in order, exactly as the tiered
# CI pipeline does (.github/workflows/ci.yml calls the same scripts).
#
#   stage 0  scripts/ci/00_static.sh        fmt --check, clippy -D warnings, rustdoc -D warnings,
#                                           dup-dep check, unsafe and environment ratchets
#   stage 1  scripts/ci/10_build_test.sh    release build + full test suite
#   stage 2  scripts/ci/20_equivalence.sh   engine equivalence suite, once (its par legs pick
#                                           explicit thread counts)
#   stage 2.2 scripts/ci/22_opt.sh          block-shape tests + optimizer opt-diff fuzz + A/B speedup smoke
#   stage 2.5 scripts/ci/25_batch.sh        batch-lane fuzz (optimizer on and off) + batch-vs-scalar throughput
#   stage 3  scripts/ci/30_lint_designs.sh  design lint over every design
#   stage 4  scripts/ci/40_fuzz.sh          differential fuzz, 25 iters, seed 7
#   stage 4.5 scripts/ci/45_fault.sh        fault differential + resume/watchdog
#   stage 5  scripts/ci/50_smoke.sh         mtl-sweep campaign smoke runs
#   stage 5.5 scripts/ci/55_serve.sh        mtl-serve daemon: shared compiles, kill -9 resume
#   stage 6  scripts/ci/60_soc.sh           multi-tile SoC engine agreement + smoke campaign + soc64 par@2 ledger oracle
#   stage 7  scripts/ci/65_chaos.sh         chaos injection + engine-degradation ladder
#
# Stage scripts share scripts/ci/lib.sh (strict mode, repo-root cwd,
# per-stage timing); the numeric glob below keeps the library itself out
# of the stage list.
#
# Usage: scripts/verify.sh   (from the repository root)
set -euo pipefail

cd "$(dirname "$0")/.."

for stage in scripts/ci/[0-9]*.sh; do
    echo "==== $stage"
    bash "$stage"
done

echo "== verify: OK"
