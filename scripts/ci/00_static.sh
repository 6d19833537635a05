#!/usr/bin/env bash
# CI stage 0 — static checks: formatting, clippy with warnings denied,
# rustdoc with warnings denied, a duplicate-dependency gate, the `unsafe`
# ratchet and the environment ratchet. Fast, no test execution; this is
# the first tier of the CI gate.
. "$(dirname "$0")/lib.sh"
ci_stage static

echo "== static: cargo fmt --check"
cargo fmt --check

# `--all-targets` lints tests, examples and bins too, not only the
# libraries.
echo "== static: cargo clippy --workspace --all-targets -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Module moves break intra-doc links silently; rustdoc is the only tool
# that resolves them (the vendored proptest stand-in is not ours to
# document).
echo "== static: cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --exclude proptest

# The workspace is fully offline (path deps + in-tree vendor/), so two
# versions of the same crate can only mean a vendoring mistake; fail
# before it quietly doubles build time.
echo "== static: cargo tree -d (no duplicate dependency versions)"
dups=$(cargo tree -d --workspace 2>/dev/null)
if [ -n "$dups" ]; then
    echo "$dups"
    echo "FAIL: duplicate dependency versions in the workspace graph"
    exit 1
fi

# The simulator's `unsafe` surface only shrinks: every mention under
# crates/sim/src (blocks, `unsafe fn`s, the macros that expand to them,
# SAFETY prose and one lint name) counts against the number below, which
# is the figure ROADMAP quotes. What is left is the executor's unchecked
# registers and ops and the `u64` register view in tape.rs, the one call
# into the executor in state.rs, and the lint name in lib.rs.
echo "== static: unsafe ratchet (crates/sim/src)"
unsafe_max=10
unsafe_now=$(grep -ro unsafe crates/sim/src | wc -l)
if [ "$unsafe_now" -gt "$unsafe_max" ]; then
    grep -rn unsafe crates/sim/src
    echo "FAIL: $unsafe_now \`unsafe\` mentions under crates/sim/src, the ratchet allows $unsafe_max"
    exit 1
elif [ "$unsafe_now" -lt "$unsafe_max" ]; then
    echo "note: $unsafe_now \`unsafe\` mentions, below the ratchet's $unsafe_max:" \
        "lower unsafe_max in $0 (and the figure in ROADMAP.md) to keep the gain"
fi

# A simulator and a design are configured by arguments alone (`SimConfig`,
# the component's parameters): nothing under mtl-sim or mtl-core reads or
# writes the process environment. The limit is zero.
echo "== static: environment ratchet (crates/sim/src, crates/core/src)"
if grep -rn "std::env" crates/sim/src crates/core/src; then
    echo "FAIL: \`std::env\` under crates/sim/src or crates/core/src, the ratchet allows none"
    exit 1
fi
