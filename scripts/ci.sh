#!/usr/bin/env bash
# Full local CI gate: build, tests, lints, formatting.
#
# Usage: scripts/ci.sh
# Runs from the repo root regardless of invocation directory.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --workspace --bins --benches

echo "== tests =="
cargo test -q --workspace

echo "== engine equivalence (engine versus reference, bit-identical) =="
cargo test -q --release --test engine_equivalence

echo "== robustness fuzz (64 deterministic cases, both thread counts) =="
# The vendored proptest derives its cases from the test name, so the seeds
# are fixed and this run is byte-for-byte reproducible.
cargo test -q --test pipeline_robustness

echo "== fault injection (failpoints feature) =="
# `--lib` also runs the registry coverage test (`sites_cover_every_call_site`),
# which greps the source tree to prove every fail-point call site is
# enumerable by the corpus sweep.
cargo test -q -p spt-core --features failpoints --lib --test failpoint_injection
cargo test -q -p spt-corpus --features failpoints
# Daemon fault isolation: a panicking request degrades to one error
# response; a delayed compile proves single-flight joining.
cargo test -q -p spt-serve --features failpoints --test serve_failpoints

echo "== corpus: full 1000-module differential run (five oracles) =="
# The pinned-seed corpus fuzzer: every module must satisfy the no-panic,
# semantics, engine-identity, cache-identity, and thread-invariance
# oracles. The engine-identity oracle checks every executor walk against
# the reference engines on each module.
cargo run --release -q -p spt-bench --bin corpus -- --seed 1 --count 1000

echo "== corpus: failpoint sweep (every site x 20 modules) =="
cargo run --release -q -p spt-bench --features failpoints --bin corpus -- \
  --seed 1 --count 20 --sweep-failpoints

echo "== corpus: regression replay (checked-in minimized repros) =="
cargo test -q --test corpus_regressions

echo "== perfbench smoke: cold vs warm artifact-store determinism =="
# Two consecutive runs from an empty artifact store: the first computes and
# stores every compile, analysis unit and simulation result, the second
# loads each compile and simulation whole from `.spt-cache/`. The
# results-only report digests must be byte-identical (the store can never
# change an answer) and the warm run must be served entirely from the
# store: its line counts compile memos and sim memos, so "0 misses" means
# no compile ran a pipeline stage.
rm -rf .spt-cache
cold_out=$(cargo run --release -q -p spt-bench --bin perfbench -- --smoke)
warm_out=$(cargo run --release -q -p spt-bench --bin perfbench -- --smoke)
echo "$warm_out"
cold_digest=$(grep '^report digest:' <<<"$cold_out")
warm_digest=$(grep '^report digest:' <<<"$warm_out")
if [[ -z "$cold_digest" || "$cold_digest" != "$warm_digest" ]]; then
  echo "FAIL: warm-store report digest diverged from cold run" >&2
  echo "  cold: ${cold_digest:-<missing>}" >&2
  echo "  warm: ${warm_digest:-<missing>}" >&2
  exit 1
fi
if ! grep -Eq '^artifact store: [1-9][0-9]* hits, 0 misses$' <<<"$warm_out"; then
  echo "FAIL: warm perfbench run did not serve everything from the store" >&2
  grep '^artifact store:' <<<"$warm_out" >&2 || true
  exit 1
fi

echo "== sptd daemon: mixed loadgen batch, digest parity, clean shutdown =="
# Launch a real sptd on a temp socket, drive it with a concurrent mixed
# cold/warm batch, and check (a) the daemon-served suite digest equals the
# single-process perfbench digest above — byte-identical results through
# the daemon's artifact store — and (b) shutdown leaks neither the process
# nor the socket file. Extra arguments go to sptd; the loadgen output is
# left in $loadgen_out.
daemon_digest_run() {
  local sptd_dir sptd_pid daemon_digest
  sptd_dir=$(mktemp -d)
  cargo run --release -q -p spt-serve --bin sptd -- \
    --socket "$sptd_dir/sptd.sock" --cache-dir "$sptd_dir/cache" "$@" &
  sptd_pid=$!
  for _ in $(seq 1 100); do
    [[ -S "$sptd_dir/sptd.sock" ]] && break
    sleep 0.1
  done
  [[ -S "$sptd_dir/sptd.sock" ]] || { echo "FAIL: sptd never bound its socket" >&2; exit 1; }
  loadgen_out=$(cargo run --release -q -p spt-bench --bin loadgen -- \
    --socket "$sptd_dir/sptd.sock" --digest --requests 300 --clients 4 \
    --no-append --shutdown)
  echo "$loadgen_out"
  daemon_digest=$(grep '^report digest:' <<<"$loadgen_out")
  if [[ -z "$daemon_digest" || "$daemon_digest" != "$cold_digest" ]]; then
    echo "FAIL: daemon-served report digest diverged from the local run ($*)" >&2
    echo "  local:  ${cold_digest:-<missing>}" >&2
    echo "  daemon: ${daemon_digest:-<missing>}" >&2
    exit 1
  fi
  if ! wait "$sptd_pid"; then
    echo "FAIL: sptd exited nonzero ($*)" >&2
    exit 1
  fi
  if [[ -e "$sptd_dir/sptd.sock" ]]; then
    echo "FAIL: sptd left its socket file behind after shutdown ($*)" >&2
    exit 1
  fi
  rm -rf "$sptd_dir"
}
daemon_digest_run

echo "== sptd daemon: the same digest while both store tiers evict =="
# Budgets far below the suite's working set (compiled units are 10-15 KB
# each; mcf_s's sim memo alone is larger than the disk budget), so answers
# are checked while memory and disk evictions happen.
daemon_digest_run --mem-budget 262144 --disk-budget 65536 --shards 2
if ! grep -Eq '^memory tiers: .*, [1-9][0-9]* evictions$' <<<"$loadgen_out"; then
  echo "FAIL: the tight-budget daemon run evicted nothing from memory" >&2
  exit 1
fi
if ! grep -Eq 'disk budget evictions: [1-9][0-9]*$' <<<"$loadgen_out"; then
  echo "FAIL: the tight-budget daemon run evicted nothing from disk" >&2
  exit 1
fi

echo "== incremental recompile: splice equality + per-function hit gate =="
# The function-granular cache may never change an answer: cold, warm, and
# cache-off compiles must be byte-identical, and a one-function edit must
# invalidate only that function's units (counter-pinned per suite program).
cargo test -q --release --test incremental_equivalence
# perfbench --incremental dies by itself if any spliced report differs
# from a cold compile or the warm edit-one-function recompile is < 5x
# faster; additionally require that every measured warm round actually hit
# the per-function cache.
inc_out=$(cargo run --release -q -p spt-bench --bin perfbench -- --incremental --smoke)
echo "$inc_out"
if ! grep -q 'reports byte-identical' <<<"$inc_out"; then
  echo "FAIL: perfbench --incremental did not confirm report identity" >&2
  exit 1
fi
if grep -Eq 'analysis units: 0 hits' <<<"$inc_out"; then
  echo "FAIL: a warm incremental round served no per-function cache hits" >&2
  exit 1
fi

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

echo "CI OK"
