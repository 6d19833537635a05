#!/usr/bin/env bash
# CI stage 2 — engine equivalence: the randomized five-engine agreement
# suite, re-run with the parallel engine pinned to 1, 2, 3 and 4 worker
# threads: the sequential path (one stage, one shard), the reference
# container's core count, an uneven split, and more workers than cores
# (every barrier then goes through its yield path).
. "$(dirname "$0")/lib.sh"
ci_stage equivalence

for threads in 1 2 3 4; do
    echo "== equivalence: specialized-par at $threads thread(s)"
    MTL_SIM_THREADS=$threads cargo test -q --release --test engine_equivalence
done
