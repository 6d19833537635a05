#!/usr/bin/env bash
# CI stage 2.2 — tape optimizer gate. Four checks:
#
#   1. Block shapes: the compile path builds one body per block shape
#      (IR blocks that are one body wired to different state and fed
#      different literals), so the shape key, the per-shape memo, the
#      type checker that runs once per shape and the plans parameters
#      make possible are each run by name — the key splits exactly on
#      what the compiler reads, a literal that varies among a shape's
#      instances is a parameter, the memo's tapes and report equal
#      compiling every block directly (a parameterised tape does what
#      its block's own does; a folded constant splits a shape, not a
#      tape), an ill-typed shape is reported at its first instance, as
#      checking every block would, and the RTL mesh16's route blocks and
#      a 16-tile synthetic SoC's per-tile bodies gang.
#
#   2. Opt-diff differential fuzz: 250 seed-pinned random RTL designs,
#      each run under every tape engine with the pass pipeline pinned
#      off AND pinned on (10 engine configurations), diffing every
#      net's settled value every cycle plus the logical event/call
#      profiles. This is the optimizer's correctness contract.
#   3. A/B speedup smoke: the fig14 RTL mesh measured with the
#      optimizer off and on; the run fails if the optimized
#      specialized-opt rate drops below the unoptimized one (the
#      pipeline must never pessimize the headline workload).
#   4. The benchmark's own oracle at full scale: one short
#      `mesh64_rtl_steady` ledger run, whose last line must say
#      `"correct":true` — the measured engine agreed with
#      `interpreted-opt` over 1 000 cycles of the 64-router mesh, not
#      only at the tiny scale the ledger's unit test uses.
#
# The (iters, seed) pair is pinned so a red run reproduces locally with
# exactly these flags.
. "$(dirname "$0")/lib.sh"
ci_stage opt

echo "== block shapes: the key, the per-shape memo, typecheck once per shape"
out=$(cargo test -q --release -p mtl-core --lib -- --exact \
    shape::tests::a_shape_is_a_body_up_to_its_wiring \
    shape::tests::instances_differing_in_a_literal_share_a_shape_with_that_literal_a_parameter \
    shape::tests::lenient_designs_carry_shapes 2>&1) || {
    echo "$out"; echo "FAIL: the block shape key"; exit 1; }
echo "$out" | grep -q "3 passed" || {
    echo "$out"; echo "FAIL: the shape-key tests did not run"; exit 1; }
out=$(cargo test -q --release -p mtl-sim --lib -- --exact \
    compile::tests::memoised_tapes_and_report_equal_directly_compiled_ones \
    compile::tests::the_body_key_discriminates_widths_aliasing_and_memories \
    compile::tests::a_folded_constant_splits_the_shape_not_the_tape 2>&1) || {
    echo "$out"; echo "FAIL: per-shape tapes differ from directly compiled ones"; exit 1; }
echo "$out" | grep -q "3 passed" || {
    echo "$out"; echo "FAIL: the per-shape memo tests did not run"; exit 1; }
out=$(cargo test -q --release -p mtl-core --test elab_errors -- --exact \
    type_errors_name_the_first_ill_typed_instance 2>&1) || {
    echo "$out"; echo "FAIL: typecheck once per shape reports another error"; exit 1; }
echo "$out" | grep -q "1 passed" || {
    echo "$out"; echo "FAIL: the typecheck-once test did not run"; exit 1; }
out=$(cargo test -q --release --test engine_equivalence -- --exact \
    rtl_mesh16_route_blocks_form_one_gang_and_none_is_few \
    synthetic_soc16_gangs_its_per_tile_bodies 2>&1) || {
    echo "$out"; echo "FAIL: parameterised bodies do not gang"; exit 1; }
echo "$out" | grep -q "2 passed" || {
    echo "$out"; echo "FAIL: the parameterised-plan tests did not run"; exit 1; }

echo "== opt-diff fuzz: 250 iterations, seed 7, optimizer off vs on"
cargo run -p mtl-bench --release --bin fuzz -- --opt-diff --iters 250 --seed 7

echo "== opt speedup smoke: fig14 mesh, optimizer off vs on"
RUSTMTL_BENCH_DIR="${RUSTMTL_BENCH_DIR:-target}" \
    cargo run -p mtl-bench --release --bin opt_speedup -- --smoke

echo "== ledger oracle: mesh64_rtl_steady measured engine vs interpreted-opt"
ledger=$(cargo run --release --quiet --bin perf_ledger -- \
    --workload mesh64_rtl_steady --seed 1 --seconds 2 --trace 0 | tail -n 1)
echo "$ledger"
case "$ledger" in
    *'"correct":true'*) ;;
    *) echo "perf_ledger: mesh64_rtl_steady did not report \"correct\":true" >&2; exit 1 ;;
esac
