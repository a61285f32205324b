//! Corpus-scale differential fuzzing for the SPT pipeline.
//!
//! PR 3's robustness story — 64 random programs survive the pipeline — is
//! a smoke test. This crate graduates it to an always-on, corpus-scale
//! guarantee in the spirit of infrastructure frameworks like CPF, whose
//! claims are regression-gated over a large corpus rather than a handful
//! of hand-ported kernels:
//!
//! * [`gen`] — a deterministic, seeded `minic` program generator covering
//!   every shape the frontend accepts (loop nests, while-loops, irregular
//!   chases, reductions, guarded stores, cross-function calls, maybe-zero
//!   divisors, float kernels), plus a token-level mutator for frontend
//!   hardening;
//! * [`oracle`] — the seven oracles checked per module: no escaped panic,
//!   no clean failure, baseline-vs-transformed semantics,
//!   engine-versus-reference bit-identity, cache-off/cold/warm/function-unit
//!   and worker-count-invariant reports, an exact partition search, and no
//!   SVP rewrite that pass 2 did not select;
//! * [`runner`] — shards thousands of modules over
//!   [`spt_core::parallel::parallel_map`] and folds deterministic
//!   verdicts (and a cross-process digest);
//! * [`triage`] — buckets failures by oracle and normalized signature;
//! * [`reduce`] — a ddmin delta-debugging reducer that shrinks any failing
//!   module to a minimal repro, persisted under `tests/corpus-regressions/`
//!   and replayed as an ordinary test forever after;
//! * `sweep` (feature `failpoints`) — forces every registered
//!   `fail_point!` site in turn over generated programs, asserting the
//!   fault-isolation contract on arbitrary modules.
//!
//! The `corpus` binary in `spt-bench` is the command-line face of all of
//! this; CI runs a pinned-seed slice of it on every push.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod gen;
pub mod oracle;
pub mod reduce;
pub mod rng;
pub mod runner;
pub mod sweep;
pub mod triage;

pub use gen::{generate, mutate, GeneratedProgram};
pub use oracle::{check_program, CheckOptions, Failure, OracleKind, ProgramUnderTest};
pub use reduce::{ddmin_lines, load_repros, reduce_program, write_repro, Repro};
pub use runner::{corpus_digest, run_corpus, with_quiet_panic_hook, CorpusConfig, CorpusOutcome};
#[cfg(feature = "failpoints")]
pub use sweep::{sweep_failpoints, SweepOutcome};
pub use triage::{bucket_of, group, signature_of, Bucket};
