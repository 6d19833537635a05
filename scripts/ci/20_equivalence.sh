#!/usr/bin/env bash
# CI stage 2 — engine equivalence: the randomized five-engine agreement
# suite, re-run with the parallel engine pinned to 2, 3, 4 and 8 worker
# threads: the reference container's core count, an uneven deal, more
# workers than cores (every barrier then goes through its yield path) and
# more workers than some gangs have lane blocks (empty shares). One
# thread is not a leg: a one-thread `specialized-par` spawns no pool and
# is `specialized-opt`, which the suite already runs.
. "$(dirname "$0")/lib.sh"
ci_stage equivalence

for threads in 2 3 4 8; do
    echo "== equivalence: specialized-par at $threads thread(s)"
    MTL_SIM_THREADS=$threads cargo test -q --release --test engine_equivalence
done
