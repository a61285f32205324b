//! Profiling infrastructure: an IR interpreter with instrumentation hooks,
//! plus the three profile collectors the paper's framework consumes:
//!
//! * **control-flow edge profiling** ([`EdgeProfile`]) — block/edge execution
//!   counts, used for reaching probabilities on the cost graph (§4.2.2) and
//!   for the *basic* compilation configuration (§8);
//! * **data-dependence profiling** ([`DepProfile`]) — per `(store, load)`
//!   pair and per loop level, the probability that the load reads the value
//!   produced by the store, split into intra-iteration and cross-iteration
//!   dependences (§7.3);
//! * **software-value-prediction profiling** ([`ValueProfile`]) — per-SSA-def
//!   value sequences classified into predictable patterns (constant, stride,
//!   last-value), driving SVP code generation (§7.2);
//! * **loop profiling** ([`LoopProfile`]) — trip counts, dynamic body sizes
//!   and cycle coverage per loop, feeding the selection criteria (§6.1) and
//!   the coverage/size figures (Figs. 16–17).
//!
//! The paper gathers these offline on hardware; here the [`interp`]
//! interpreter runs the IR directly — identical information content, no
//! hardware dependence (see DESIGN.md substitution table).

pub mod collect;
pub mod dep_profile;
pub mod edge_profile;
mod fused;
pub mod interp;
pub mod loop_profile;
pub mod reference;
pub mod value_profile;

pub use collect::ProfileCollector;
pub use dep_profile::{DepKey, DepKind, DepProfile};
pub use edge_profile::EdgeProfile;
pub use interp::{
    Interp, InterpError, InterpResult, LoopActivation, LoopEvent, NoProfiler, Profiler, Val,
};
pub use loop_profile::LoopProfile;
pub use reference::{ReferenceDepProfile, ReferenceInterp, ReferenceLoopProfile};
pub use value_profile::{ValuePattern, ValueProfile};
