//! SPT architecture simulator (§8 of the paper).
//!
//! The simulated machine is a tightly-coupled two-core system: a **main
//! core** that always executes the non-speculative main thread, and one
//! **speculative core**. The cores share the memory hierarchy; speculative
//! writes are buffered and never reach memory until commit. The paper's
//! overheads are the defaults: 6 cycles to fork, 5 cycles to commit, 5
//! cycles branch-misprediction penalty.
//!
//! Execution model (§1, Fig. 1):
//!
//! * when the main thread executes `SPT_FORK`, the speculative core starts
//!   executing the *next iteration* from the loop header with a copy of the
//!   main thread's context (registers; memory is shared, reads snapshot the
//!   fork-time state, writes go to a speculation buffer);
//! * when the main thread arrives at the point where the speculative thread
//!   started (the header), it **validates**: speculative results that match
//!   a sequential re-execution are committed for free; mismatching ones are
//!   re-executed at full cost (partial commit + re-execution); a control
//!   divergence discards everything after it;
//! * `SPT_KILL` (at loop exits) discards any in-flight speculative work.
//!
//! Implementation note (see DESIGN.md): the simulator executes at IR-op
//! granularity rather than Itanium ISA granularity. Validation is performed
//! by *replaying* the speculative trace against committed state — replay is
//! authoritative, so the simulated program's results are exactly the
//! sequential semantics, and speculation only changes the cycle accounting.
//! The speculative core's trace is produced eagerly at fork time against the
//! fork-time memory snapshot, which makes runs deterministic.

pub mod cache;
pub mod machine;
pub mod predictor;
pub mod reference;
pub mod sim;
mod specexec;
pub mod stats;
mod superexec;
pub mod thread;

pub use cache::{Cache, CacheConfig};
pub use machine::MachineConfig;
pub use predictor::BranchPredictor;
pub use reference::ReferenceSimulator;
pub use sim::{FinalMemory, SimError, SimResult, SptSimulator};
pub use stats::LoopSimStats;
pub use thread::SpecBuf;
