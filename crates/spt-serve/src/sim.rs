//! The one simulation path of `sptc`, the bench harnesses and the daemon:
//! probe the artifact store's `SimResult` memo, simulate on a miss, store
//! the result.
//!
//! [`sim_with_cache`] runs it against a transient disk-only store for the
//! one-shot tools; the daemon's service runs the same `memo_sim` against
//! its long-lived two-tier store.

use std::sync::Arc;

use spt_core::store::{sim_key, Store, Tier};
use spt_core::TraceSettings;
use spt_ir::Module;
use spt_sim::{MachineConfig, SimError, SimResult, SptSimulator};

/// Artifact-store statistics of the simulation side of a run. The name and
/// the `capture_s`/`replay_s` fields, which always read 0, stay only
/// because the `sptbench` benchmark reads them.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimTraceStats {
    /// Simulations served whole from a stored `SimResult` memo.
    pub memo_hits: u64,
    /// Simulations that ran the simulator while the store was enabled.
    pub direct_runs: u64,
    /// Always 0.
    pub capture_s: f64,
    /// Always 0.
    pub replay_s: f64,
}

impl SimTraceStats {
    /// Simulations served from the store.
    pub fn hits(&self) -> u64 {
        self.memo_hits
    }

    /// Simulations the store could not serve while it was enabled.
    pub fn misses(&self) -> u64 {
        self.direct_runs
    }

    /// Accumulates `other` into `self`.
    pub fn absorb(&mut self, other: &SimTraceStats) {
        self.memo_hits += other.memo_hits;
        self.direct_runs += other.direct_runs;
        self.capture_s += other.capture_s;
        self.replay_s += other.replay_s;
    }
}

/// Simulates `entry(arg)` of `module` under `machine`. With
/// `settings.enabled`, the store's `SimResult` memo in `cache_dir` (if any)
/// is probed first — an exact repeat costs one file read — and a miss runs
/// the simulator and stores its result. Otherwise this is exactly a direct
/// [`SptSimulator`] run.
///
/// # Errors
///
/// Whatever the underlying simulation returns; store problems never
/// surface as errors.
pub fn sim_with_cache(
    module: &Module,
    entry: &str,
    arg: i64,
    machine: &MachineConfig,
    settings: &TraceSettings,
    stats: &mut SimTraceStats,
) -> Result<SimResult, SimError> {
    if !settings.enabled {
        return SptSimulator::with_config(machine.clone()).run(module, entry, &[arg]);
    }
    let store = Store::new(0, 1, settings.cache_dir.clone(), None);
    let out = memo_sim(&store, module, module.content_hash(), entry, arg, machine);
    match out {
        Ok((_, Some(_))) => stats.memo_hits += 1,
        _ => stats.direct_runs += 1,
    }
    let (result, _) = out?;
    // A memory budget of zero retains nothing, so the `Arc` is unique.
    Ok(Arc::try_unwrap(result).unwrap_or_else(|shared| (*shared).clone()))
}

/// Memo probe → simulate → store for `entry(arg)` of `module`, whose
/// content hash is `module_hash`. The tier is `None` when the simulator
/// ran.
///
/// # Errors
///
/// Whatever the underlying simulation returns.
pub(crate) fn memo_sim(
    store: &Store,
    module: &Module,
    module_hash: u64,
    entry: &str,
    arg: i64,
    machine: &MachineConfig,
) -> Result<(Arc<SimResult>, Option<Tier>), SimError> {
    let key = sim_key(module_hash, entry, &[arg], machine);
    if let Some((hit, tier)) = store.get::<SimResult>(key) {
        return Ok((hit, Some(tier)));
    }
    let result = Arc::new(SptSimulator::with_config(machine.clone()).run(module, entry, &[arg])?);
    store.put(key, result.clone());
    Ok((result, None))
}
