//! The content-addressed artifact store and the codecs behind it.
//!
//! The pipeline profiles a program once, directly, and the harnesses and
//! the compile daemon simulate the same modules again and again. This crate
//! keeps the *final* products of that work so an exact repeat costs a
//! lookup instead of a run:
//!
//! * [`ArtifactCache`] — the on-disk store (`.spt-cache/` by convention):
//!   whole `SimResult` memos and function-granular pass-1 analysis units
//!   ([`FuncAnalysisUnit`]), keyed by content hashes so a key *is* the
//!   artifact's identity;
//! * [`ShardedLru`] — the sharded, byte-bounded in-memory LRU the daemon
//!   and the incremental cache put in front of the disk tier;
//! * [`codec`] — the varint/zigzag/FNV primitives every on-disk and
//!   on-wire encoding in the workspace shares.
//!
//! The crate keeps its historical name: it once also captured and replayed
//! execution traces, a layer that measured no faster than direct execution
//! and was removed (DESIGN.md "Profiling and the artifact store").

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod codec;
pub mod func_unit;
pub mod mem_cache;

pub use cache::{sim_from_bytes, sim_to_bytes, ArtifactCache, CacheCounters, LoadOutcome};
pub use func_unit::{FuncAnalysisUnit, LoopFragment, FUNC_UNIT_FORMAT_VERSION};
pub use mem_cache::{ShardStats, ShardedLru};
