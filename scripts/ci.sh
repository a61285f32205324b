#!/usr/bin/env bash
# Full local CI gate: build, tests, lints, formatting.
#
# Usage: scripts/ci.sh
# Runs from the repo root regardless of invocation directory.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every step runs under a private temp directory, so the last step can
# see any `spt-*` entry a test or tool left behind.
TMPDIR=$(mktemp -d "${TMPDIR:-/tmp}/spt-ci.XXXXXX")
export TMPDIR
trap 'rm -rf "$TMPDIR"' EXIT

echo "== build (release) =="
cargo build --release --workspace --bins

echo "== tests =="
# This also runs the root package's robustness fuzz (64 deterministic cases,
# both thread counts) and its regression replay of the checked-in minimized
# corpus repros. The vendored proptest derives its cases from the test name,
# so the seeds are fixed and the fuzz is byte-for-byte reproducible. Among
# the workspace's tests, `report_identity` pins the digest of every suite
# answer (store off), `trace_equivalence` holds cold and warm store runs to
# the same answers, and `sptd_process` drives the real `sptd` binary while
# both store tiers evict, then stops it with a `Shutdown` request.
cargo test -q --workspace

echo "== engine equivalence (engine versus reference, bit-identical) =="
cargo test -q --release --test engine_equivalence
# The engines' own walk-versus-reference unit tests (superexec, sim, thread,
# fused, interp, the loop profile against its definition) with release
# inlining; the workspace run above builds them in debug only.
cargo test -q --release -p spt-sim -p spt-profile

echo "== partition search: exact against the reference on large kernels =="
# The edit-recompile kernel at 19-23 candidates, where the reference search
# walks up to ~735k nodes: too slow for the debug test run above.
cargo test -q --release -p spt-partition --test edit_kernel

echo "== fault injection (failpoints feature) =="
# `--lib` also runs the registry coverage test (`sites_cover_every_call_site`),
# which greps the source tree to prove every fail-point call site is
# enumerable by the corpus sweep.
cargo test -q -p spt-core --features failpoints --lib --test failpoint_injection
cargo test -q -p spt-corpus --features failpoints
# Daemon fault isolation: a panicking request degrades to one error
# response; a delayed compile proves single-flight joining.
cargo test -q -p spt-serve --features failpoints --test serve_failpoints

echo "== corpus: full 1000-module differential run (seven oracles) =="
# The pinned-seed corpus fuzzer: every module must satisfy the no-panic,
# semantics, engine-identity, cache-identity, thread-invariance,
# search-exactness and SVP-residue oracles. The engine-identity oracle
# checks every executor walk against the reference engines on each module;
# the search oracle checks every loop's partition search against the
# reference search; the SVP-residue oracle holds every kept SVP rewrite to a
# selected loop, and a compile that keeps none to the SVP-off compile.
cargo run --release -q -p spt-bench --bin corpus -- --seed 1 --count 1000

echo "== corpus: frontend mutation fuzz (8,000 token-corrupted mutants) =="
# Eight mutants of each of the 1000 corpus programs, corrupted token by
# token: the lexer and parser must answer every one with a module or a
# clean error, never a panic. The spt-corpus test runs only 200.
cargo run --release -q -p spt-bench --bin corpus -- --seed 1 --count 1000 --mutate 8

echo "== corpus: failpoint sweep (every site x 20 modules) =="
cargo run --release -q -p spt-bench --features failpoints --bin corpus -- \
  --seed 1 --count 20 --sweep-failpoints

echo "== incremental recompile: splice equality + per-function hit gate =="
# The function-granular cache may never change an answer: cold, warm, and
# cache-off compiles must be byte-identical, and a one-function edit must
# invalidate only that function's units (counter-pinned per suite program).
cargo test -q --release --test incremental_equivalence
# The edit-one-function scenario on one worker: every spliced report equals
# a cold compile, every warm round hits every unit but the edited
# function's two, and (release only) the warm analysis stage is at least
# 5x faster than the cold one's (medians).
cargo test -q --release -p spt-bench --test incremental_gate

echo "== sptbench: helper tests and smoke run =="
# The end-to-end benchmark declared by BENCHMARK.json is a package of its
# own (outside the workspace), so the workspace build and tests above do
# not reach it.
cargo test -q --manifest-path sptbench/Cargo.toml
cargo run --release -q --manifest-path sptbench/Cargo.toml -- --smoke

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings
# spt-core and spt-trace deny unwrap/expect crate-wide, and the execution
# engines' hot modules (spt-ir superblock, which holds the lowering and the
# one op evaluator; spt-profile fused; spt-sim superexec/specexec) carry the
# same module-level denies; this re-lints them so a local `#[allow]`
# regression cannot slip through the stricter gate.
cargo clippy -p spt-core --lib -- -D warnings
cargo clippy -p spt-trace --lib -- -D warnings
cargo clippy -p spt-ir --lib -- -D warnings
cargo clippy -p spt-profile --lib -- -D warnings
cargo clippy -p spt-sim --lib -- -D warnings
# The frontend faces corpus-mutated (arbitrarily corrupted) input and denies
# unwrap/expect at module level in the lexer/parser/lowerer.
cargo clippy -p spt-frontend --lib -- -D warnings
# The daemon serves long-lived processes and denies unwrap/expect crate-wide.
cargo clippy -p spt-serve --lib -- -D warnings

echo "== rustdoc: broken, private or ambiguous doc links fail =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== rustfmt =="
cargo fmt --all --check

echo "== leftover temp files =="
leftovers=$(find "$TMPDIR" -mindepth 1 -maxdepth 1 -name 'spt-*')
if [ -n "$leftovers" ]; then
  echo "left behind in the temp directory:"
  echo "$leftovers"
  exit 1
fi

echo "CI OK"
