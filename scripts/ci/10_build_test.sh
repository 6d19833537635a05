#!/usr/bin/env bash
# CI stage 1 — tier-1 gate: the offline release build and the full test
# suite (unit, integration, doc tests) of every workspace member. The
# root manifest is a package *and* a workspace, so a bare `cargo test`
# would run the root package's tests only. This stage must stay green on
# every commit.
. "$(dirname "$0")/lib.sh"
ci_stage build_test

echo "== tier-1: cargo build --release"
cargo build --release

echo "== tier-1: cargo test --workspace"
cargo test -q --workspace
