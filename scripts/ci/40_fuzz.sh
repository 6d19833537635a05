#!/usr/bin/env bash
# CI stage 4 — differential fuzz: seed-pinned six-configuration
# differential fuzzing (the four engines of Engine::ALL, specialized-par
# at 1 and 4 threads). The (iters, seed, cycles) triple is pinned so a red run
# reproduces locally with exactly these flags; a failure prints the
# minimized design as a ready-to-paste Rust reproducer.
. "$(dirname "$0")/lib.sh"
ci_stage fuzz

echo "== fuzz: 25 iterations, seed 7"
cargo run -p mtl-bench --release --bin fuzz -- --iters 25 --seed 7
