#!/usr/bin/env bash
# CI stage 5.5 — mtl-serve daemon end-to-end:
#
#   (a) shared compile cache: a daemon serving two concurrently
#       submitted campaigns over one design point must report
#       compile-cache hits while both run;
#   (b) kill -9 / restart resume: the daemon is killed mid-run with
#       both campaigns in flight; a fresh daemon on the same cache and
#       journal directories must resume both from their journals,
#       replaying every finished job and recomputing none of them;
#   (c) transport equivalence: fault_sweep --smoke and soc_sweep --smoke
#       print the same deterministic table rows (taxonomy counts,
#       checksums, cycles) run in-process and with --serve against the
#       live daemon — one job catalog, two transports. soc_sweep's smoke
#       set includes the 1 024-tile RTL SoC, so the daemon also builds,
#       drains and checks a 32×32 design. fig14_mesh_speedup --smoke
#       runs its 16 rate jobs both ways: the rates differ, so the two
#       BENCH_fig14.json files must agree on each job's name, params
#       and outcome.
#
# The in-process variant of these properties (plus protocol and
# fingerprint-isolation checks) runs in tests/serve_smoke.rs; this
# stage exercises the real daemon process, socket, and SIGKILL.
. "$(dirname "$0")/lib.sh"
ci_stage serve

cargo build -q --release -p mtl-serve --bin mtl_serve
cargo build -q --release -p mtl-bench --bin fault_sweep --bin soc_sweep --bin fig14_mesh_speedup
BIN=target/release/mtl_serve

DIR=$(ci_tmpdir serve)
SOCK=$DIR/serve.sock

# Two overlapping campaigns: different names (separate journals and
# result fingerprints), identical design point (shared compiles).
make_spec() {
    {
        printf '{"name":"%s","jobs":[' "$1"
        i=0
        while [ "$i" -lt 8 ]; do
            [ "$i" -gt 0 ] && printf ','
            printf '{"kind":"mesh_cycles","name":"job%d","level":"CL",' "$i"
            printf '"nrouters":16,"cycles":50000,"engine":"specialized-opt"}'
            i=$((i + 1))
        done
        printf ']}\n'
    } > "$DIR/$1.json"
}
make_spec ci_a
make_spec ci_b

DAEMON=""
# Folds ci_stage_done in: bash keeps one EXIT trap, and the stage must
# still print its timing line after the daemon teardown.
trap '{ [ -n "$DAEMON" ] && kill -9 "$DAEMON"; } 2>/dev/null || true; ci_stage_done' EXIT

start_daemon() {
    # A socket file left by a SIGKILLed daemon would satisfy the
    # readiness poll before the new daemon binds; clear it first.
    rm -f "$SOCK"
    "$BIN" daemon --socket "$SOCK" --workers 2 \
        --cache-dir "$DIR/cache" --journal-dir "$DIR/journals" &
    DAEMON=$!
    i=0
    while [ ! -S "$SOCK" ]; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && { echo "FAIL: daemon never bound $SOCK"; exit 1; }
        sleep 0.1
    done
}

# Finished jobs in a journal: line count minus the header line.
journal_jobs() {
    if [ -f "$1" ]; then
        n=$(wc -l < "$1")
        echo $((n - 1))
    else
        echo 0
    fi
}

echo "== serve: start daemon, submit two overlapping campaigns"
start_daemon
"$BIN" submit --socket "$SOCK" --file "$DIR/ci_a.json" --quiet > "$DIR/a1.out" 2>&1 &
CLIENT_A=$!
"$BIN" submit --socket "$SOCK" --file "$DIR/ci_b.json" --quiet > "$DIR/b1.out" 2>&1 &
CLIENT_B=$!

echo "== serve: wait until both journals hold finished jobs, then kill -9"
i=0
while :; do
    na=$(journal_jobs "$DIR/journals/ci_a.jsonl")
    nb=$(journal_jobs "$DIR/journals/ci_b.jsonl")
    [ "$na" -ge 2 ] && [ "$nb" -ge 2 ] && break
    i=$((i + 1))
    [ "$i" -gt 600 ] && { echo "FAIL: campaigns made no progress"; exit 1; }
    sleep 0.1
done

hits=$("$BIN" stats --socket "$SOCK" | sed -n 's/^compile_tape_hits=//p')
echo "   compile cache hits while both campaigns run: $hits"
[ "$hits" -gt 0 ] || { echo "FAIL: concurrent campaigns shared no compiles"; exit 1; }

kill -9 "$DAEMON"
wait "$CLIENT_A" 2>/dev/null || true
wait "$CLIENT_B" 2>/dev/null || true

echo "== serve: restart on the same dirs; both campaigns must resume"
start_daemon
for name in ci_a ci_b; do
    out=$("$BIN" submit --socket "$SOCK" --file "$DIR/$name.json" --quiet)
    echo "$out" | grep -q "8 jobs, 8 done, 0 failed, 0 timed out" || {
        echo "$out"; echo "FAIL: $name did not complete cleanly after restart"; exit 1; }
    rep=$(echo "$out" | sed -n 's/.* \([0-9][0-9]*\) replayed.*/\1/p')
    [ "$rep" -ge 2 ] || {
        echo "$out"; echo "FAIL: $name replayed $rep jobs; expected the journalled ones"; exit 1; }
    echo "   $name: $rep of 8 jobs replayed from journal, rest executed once"
done

# Zero recompute across the kill: replayed jobs are never re-executed,
# so each journal ends with exactly one record per job.
for name in ci_a ci_b; do
    n=$(journal_jobs "$DIR/journals/$name.jsonl")
    [ "$n" -eq 8 ] || { echo "FAIL: $name journal has $n job records, want 8"; exit 1; }
done

echo "== serve: bench bins print the same tables in-process and with --serve"
# Deterministic columns only: the batch row's rates are wall-clock.
rows() { awk '/^(mesh|tile)[0-9]*\// { print $1, $2, $3, $4 } /^soc[0-9]/'; }
for bin in fault_sweep soc_sweep; do
    RUSTMTL_BENCH_DIR=$DIR target/release/$bin --smoke --serve "$SOCK" \
        | rows > "$DIR/$bin.served"
    RUSTMTL_SWEEP_CACHE=0 RUSTMTL_BENCH_DIR=$DIR target/release/$bin --smoke \
        --journal "$DIR/$bin.jsonl" | rows > "$DIR/$bin.local"
    [ -s "$DIR/$bin.local" ] || { echo "FAIL: $bin printed no table rows"; exit 1; }
    diff "$DIR/$bin.local" "$DIR/$bin.served" || {
        echo "FAIL: $bin --serve disagrees with the in-process run"; exit 1; }
    echo "   $bin: $(wc -l < "$DIR/$bin.local") rows identical"
done

echo "== serve: fig14 --smoke declares the same jobs in-process and with --serve"
# One line per job: its name, params and outcome (rates are wall clock).
jobs_of() {
    awk '
        /^      "name": /             { if (row != "") print row; row = $0 }
        /^      "params": \{/         { params = 1; next }
        params && /^      \}/         { params = 0; next }
        params || /^      "outcome": / { row = row $0 }
        END                           { if (row != "") print row }
    ' "$1" | tr -s ' '
}
for mode in local served; do
    mkdir -p "$DIR/fig14-$mode"
    serve=()
    [ "$mode" = served ] && serve=(--serve "$SOCK")
    RUSTMTL_BENCH_DIR=$DIR/fig14-$mode target/release/fig14_mesh_speedup --smoke "${serve[@]}" \
        > "$DIR/fig14-$mode.out"
    jobs_of "$DIR/fig14-$mode/BENCH_fig14.json" > "$DIR/fig14.$mode"
    n=$(wc -l < "$DIR/fig14.$mode")
    done=$(grep -c '"outcome": "done"' "$DIR/fig14.$mode" || true)
    [ "$n" -eq 16 ] && [ "$done" -eq 16 ] || {
        echo "FAIL: fig14 $mode report holds $n jobs, $done done; want 16 and 16"; exit 1; }
    grep -q '"name": "handwritten"' "$DIR/fig14.$mode" || {
        echo "FAIL: fig14 $mode report has no handwritten job"; exit 1; }
done
diff "$DIR/fig14.local" "$DIR/fig14.served" || {
    echo "FAIL: fig14 --serve ran other jobs than the in-process run"; exit 1; }
echo "   fig14_mesh_speedup: 16 jobs, names, params and outcomes identical"

"$BIN" shutdown --socket "$SOCK"
wait "$DAEMON" 2>/dev/null || true

echo "== serve stage: OK"
