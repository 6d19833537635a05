#!/usr/bin/env bash
# CI stage 0 — static checks: formatting, clippy with warnings denied,
# rustdoc with warnings denied, and a duplicate-dependency gate. Fast, no
# test execution; this is the first tier of the CI gate.
. "$(dirname "$0")/lib.sh"
ci_stage static

echo "== static: cargo fmt --check"
cargo fmt --check

echo "== static: cargo clippy --workspace -D warnings"
cargo clippy --workspace -- -D warnings

# Module moves break intra-doc links silently; rustdoc is the only tool
# that resolves them (the vendored proptest/criterion stand-ins are not
# ours to document).
echo "== static: cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace \
    --exclude proptest --exclude criterion

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
