#!/usr/bin/env bash
# CI stage 2 — engine equivalence: the randomized engine agreement suite,
# in release mode, once. The parallel engine runs there at explicit thread
# counts: every random design at 1, 2, 3, 4, 8 and an absurd count
# (specialized_par_matches_opt_at_explicit_thread_counts), and the SoC
# legs, whose gangs are dealt, at 1, 2, 3, 4 and 8.
. "$(dirname "$0")/lib.sh"
ci_stage equivalence

echo "== equivalence: every engine, specialized-par at explicit thread counts"
cargo test -q --release --test engine_equivalence
