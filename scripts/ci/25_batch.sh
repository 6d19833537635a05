#!/usr/bin/env bash
# CI stage 2.5 — batch engine gate. Two checks:
#
#   1. Batch differential fuzz: seed-pinned random RTL designs, each run
#      on two SpecializedBatch simulators (64 lanes, distinct stimulus
#      per lane), tape optimizer off and on, against a scalar
#      Interpreted reference per lane, comparing every signal of every
#      lane after every cycle. A value reaching the wrong lane's state
#      fails here. Both settings matter: optimized draws if-convert to
#      straight-line tapes, so the unoptimized simulator (every seq
#      block keeps its reset branch) is the one where lanes take
#      different arms. One draw in sixteen is a design instantiated
#      16–40 times under a shell, so the plans every lane runs hold
#      gangs.
#   2. Batch fault-campaign throughput smoke: fault_sweep --smoke runs
#      its mesh4/rtl-ir batch bundle (batch lane reports are
#      cross-checked against scalar run_diff inside the job) and
#      --require-batch-speedup 1.0 turns "the batch engine must not be
#      slower than the scalar baseline" into the exit code. A gate
#      value that does not parse must be a usage error (exit 2), never
#      a silently disabled gate.
#
# The (iters, seed) pair is pinned so a red run reproduces locally with
# exactly these flags.
. "$(dirname "$0")/lib.sh"
ci_stage batch

echo "== batch fuzz: 120 iterations, seed 7, 64 lanes, optimizer off and on, vs interpreted references"
cargo run -p mtl-bench --release --bin fuzz -- --batch --iters 120 --seed 7

echo "== batch throughput smoke: batch bundle must not lose to scalar run_diff"
rm -f target/sweep-journal/ci_batch_smoke.jsonl
RUSTMTL_SWEEP_CACHE=0 RUSTMTL_BENCH_DIR=target \
    cargo run -q -p mtl-bench --release --bin fault_sweep -- \
    --smoke --journal target/sweep-journal/ci_batch_smoke.jsonl \
    --require-batch-speedup 1.0

echo "== batch gate flag: an unparsable threshold is a usage error, not a skipped gate"
set +e
target/release/fault_sweep --smoke --require-batch-speedup abc >/dev/null 2>&1
status=$?
set -e
if [ "$status" -ne 2 ]; then
    echo "expected exit 2 for --require-batch-speedup abc, got exit $status"
    exit 1
fi
