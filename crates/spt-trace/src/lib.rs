//! The byte encodings behind the artifact store and the daemon's wire
//! protocol.
//!
//! The store itself (memory tier, disk directory, keys, counters) is
//! `spt_core::store`; this crate holds what it writes, every body in
//! `spt_ir::codec`'s one byte format:
//!
//! * [`sim_codec`] — the canonical encoding of a whole `SimResult`, the
//!   body of simulation memos on disk and of the daemon's sim replies;
//! * [`func_unit`] — function-granular pass-1 analysis units
//!   ([`FuncAnalysisUnit`]) and their encoding;
//! * [`codec`] — the key hash and the frame ([`codec::seal`]) the store
//!   puts around every body it writes to disk: kind tag, format version and
//!   checksum.
//!
//! The crate keeps its historical name: it once also captured and replayed
//! execution traces, a layer that measured no faster than direct execution
//! and was removed (DESIGN.md "Profiling and the artifact store").

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod codec;
pub mod func_unit;
pub mod sim_codec;

pub use func_unit::{FuncAnalysisUnit, LoopFragment};
pub use sim_codec::{decode_sim, encode_sim, sim_from_bytes, sim_to_bytes};
