#!/usr/bin/env bash
# CI stage 2 — engine equivalence: the randomized engine agreement suite,
# in release mode, once. specialized-par builds the specialized-opt
# engine on the calling thread whatever its thread count; the suite holds
# it to that at explicit counts: every random design at 1, 2, 3, 4, 8 and
# an absurd count (specialized_par_matches_opt_at_explicit_thread_counts),
# and the 64-tile SoC and RTL mesh at none, 1, 2, 4 and 8
# (specialized_par_is_specialized_opt_at_every_thread_count).
. "$(dirname "$0")/lib.sh"
ci_stage equivalence

echo "== equivalence: every engine, specialized-par at explicit thread counts"
cargo test -q --release --test engine_equivalence
