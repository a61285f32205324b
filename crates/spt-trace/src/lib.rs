//! The simulation memos' byte encoding, and the key hash and frame of the
//! artifact store.
//!
//! The store itself (memory tier, disk directory, keys, counters) is
//! `spt_core::store`, and the function analysis units are encoded there
//! too (`spt_core::func_unit`). This crate holds the rest of what the store
//! writes, in `spt_ir::codec`'s one byte format:
//!
//! * [`sim_codec`] — the canonical encoding of a whole `SimResult`, the
//!   body of simulation memos on disk and of the daemon's sim replies;
//! * [`codec`] — the key hash and the frame ([`codec::seal`]) the store
//!   puts around every body it writes to disk: kind tag and checksum.
//!
//! The crate keeps its historical name: it once also captured and replayed
//! execution traces, a layer that measured no faster than direct execution
//! and was removed (DESIGN.md "Profiling and the artifact store").

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod codec;
pub mod sim_codec;

pub use sim_codec::{decode_sim, encode_sim, sim_from_bytes, sim_to_bytes};
