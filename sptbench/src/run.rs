//! Run parameters shared by every workload.

use std::path::PathBuf;
use std::time::Instant;

/// How one workload run is driven.
#[derive(Clone, Debug)]
pub struct Params {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced mode: every other round of ops records spans.
    pub traced: bool,
    /// Stop after this many ops (per client) instead of after `seconds`.
    pub max_ops: Option<u64>,
    /// Scratch directory of this run (stores, sockets), inside the
    /// working directory.
    pub work: PathBuf,
    /// Clock origin of the span recorders.
    pub epoch: Instant,
}

impl Params {
    /// Whether to start op number `done` of a timed phase begun at `start`.
    pub fn keep_going(&self, start: Instant, done: u64) -> bool {
        match self.max_ops {
            Some(max) => done < max,
            None => start.elapsed().as_secs_f64() < self.seconds,
        }
    }
}
