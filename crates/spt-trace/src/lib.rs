//! The byte encodings behind the artifact store and the daemon's wire
//! protocol.
//!
//! The store itself (memory tier, disk directory, keys, counters) is
//! `spt_core::store`; this crate holds what it writes:
//!
//! * [`sim_codec`] — the canonical encoding of a whole `SimResult`, used
//!   for simulation memos on disk and for the daemon's sim replies;
//! * [`func_unit`] — function-granular pass-1 analysis units
//!   ([`FuncAnalysisUnit`]) and their encoding;
//! * [`codec`] — the varint/zigzag/FNV primitives every on-disk and
//!   on-wire encoding in the workspace shares.
//!
//! The crate keeps its historical name: it once also captured and replayed
//! execution traces, a layer that measured no faster than direct execution
//! and was removed (DESIGN.md "Profiling and the artifact store").

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod codec;
pub mod func_unit;
pub mod sim_codec;

pub use func_unit::{FuncAnalysisUnit, LoopFragment, FUNC_UNIT_FORMAT_VERSION};
pub use sim_codec::{sim_from_bytes, sim_to_bytes, SIM_FORMAT_VERSION};
