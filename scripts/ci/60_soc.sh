#!/usr/bin/env bash
# CI stage 6 — multi-tile SoC gate:
#
#   (a) engine agreement: the 16-tile SoC (CL and RTL networks, hotspot
#       traffic) must be cycle-exact across interpreted, specialized-opt,
#       and specialized-par@4, and every engine must drain to the host
#       golden checksum (soc_sweep --verify-engines);
#   (b) seed-pinned smoke campaign: soc_sweep --smoke runs synthetic and
#       compute SoC points through the mtl-sweep orchestration path with
#       a journal, self-checking every job against the host model, and
#       writes BENCH_soc_smoke.json. One point is the 1 024-tile (32×32)
#       RTL SoC: it must build, drain and match the golden checksum on
#       specialized-opt — a drained-and-correct gate, not a wall-time one
#       (the host swings 5–40 %). After the campaign the binary brings
#       that SoC up once more with nothing else in flight and no journal
#       to replay from, and this stage prints that line: the figure
#       ROADMAP item 8 tracks (EXPERIMENTS.md, "Bring-up per body"). The
#       campaign's "bring-up seconds" line lists the other points only,
#       so each point shows one bring-up time;
#   (c) the benchmark's own oracle at full scale: one short
#       `soc64_rtl_par2` ledger run, whose last line must say
#       `"correct":true` — specialized-par at 2 threads (which builds
#       specialized-opt on the calling thread; the count is read by no
#       engine) equalled specialized-opt over 2 000 cycles of the 64-tile
#       SoC and a bounded run drained to the golden checksum.
#   (d) component identity in release: the stamping tests of mtl-core,
#       the pairs of mtl-soc's `names` (meshes, SoCs and tiles that differ
#       in one field each keep their own behaviour; the Verilog holds one
#       module per key) and mtl-bench's stamp census. Stage 10 runs them in
#       debug only, where every stamp is checked against a fresh `build`.
#       Release stamps without that check, and release is what the
#       ledger, the figure bins and `mtl-serve` run.
#
# The broader per-pattern/per-size correctness surface (FL golden match,
# compute vs host model, fault-injection determinism, 64-tile engine
# equivalence) runs in tier-1: tests/soc_smoke.rs + tests/engine_equivalence.rs.
. "$(dirname "$0")/lib.sh"
ci_stage soc

echo "== soc: engine agreement on the 16-tile SoC (CL + RTL networks)"
cargo run -p mtl-bench --release --bin soc_sweep -- --verify-engines

JOURNAL=target/sweep-journal/ci_soc_smoke.jsonl
rm -f "$JOURNAL"

echo "== soc: seed-pinned smoke campaign (writes BENCH_soc_smoke.json)"
smoke=$(RUSTMTL_BENCH_DIR="${RUSTMTL_BENCH_DIR:-target}" \
    cargo run -p mtl-bench --release --bin soc_sweep -- \
    --smoke --journal "$JOURNAL")
echo "$smoke"
rm -f "$JOURNAL"
echo "== soc: 1 024-tile bring-up, timed alone"
echo "$smoke" | grep "alone:" || { echo "soc_sweep printed no solo bring-up" >&2; exit 1; }

echo "== ledger oracle: soc64_rtl_par2, specialized-par@2 vs specialized-opt"
ledger=$(cargo run --release --quiet --bin perf_ledger -- \
    --workload soc64_rtl_par2 --seed 1 --seconds 2 --trace 0 | tail -n 1)
echo "$ledger"
case "$ledger" in
    *'"correct":true'*) ;;
    *) echo "perf_ledger: soc64_rtl_par2 did not report \"correct\":true" >&2; exit 1 ;;
esac

echo "== soc: component identity, in release"
for t in "mtl-core stamp 7" "mtl-soc names 4" "mtl-bench stamps 2"; do
    set -- $t
    out=$(cargo test -q --release -p "$1" --test "$2" 2>&1) || {
        echo "$out"; echo "FAIL: $1 --test $2 in release"; exit 1; }
    echo "$out" | grep -q "$3 passed" || {
        echo "$out"; echo "FAIL: $1 --test $2 did not run its $3 tests"; exit 1; }
done

echo "== soc stage: OK"
