//! Cache-aware simulation entry point, shared by the daemon service and the
//! bench harnesses (re-exported through `spt-bench` for the table/figure
//! binaries).
//!
//! This is the *disk* tier: the daemon's in-memory `SimResult` layer (see
//! [`crate::service`]) probes its sharded LRU first and only falls through
//! to [`sim_with_cache`], which consults the content-addressed
//! `.spt-cache/` memo and otherwise runs the simulator directly.

use spt_core::TraceSettings;
use spt_sim::{MachineConfig, SimError, SimResult, SptSimulator};
use spt_trace::{ArtifactCache, LoadOutcome};

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
/// `settings.enabled` and a `cache_dir`, a content-addressed `SimResult`
/// memo (module hash + entry + args + machine config) is probed first — an
/// exact repeat costs one file read — and a miss runs the simulator and
/// stores its result. Otherwise this is exactly a direct [`SptSimulator`]
/// run.
///
/// # Errors
///
/// Whatever the underlying simulation returns; store problems never
/// surface as errors.
pub fn sim_with_cache(
    module: &spt_ir::Module,
    entry: &str,
    arg: i64,
    machine: &MachineConfig,
    settings: &TraceSettings,
    stats: &mut SimTraceStats,
) -> Result<SimResult, SimError> {
    if !settings.enabled {
        return SptSimulator::with_config(machine.clone()).run(module, entry, &[arg]);
    }
    let cache = settings.cache_dir.as_ref().map(ArtifactCache::new);
    sim_with_cache_in(module, entry, arg, machine, cache.as_ref(), stats)
}

/// [`sim_with_cache`] against a caller-owned [`ArtifactCache`] handle (or
/// none, for a counted direct run). The daemon routes through here with its
/// byte-budgeted handle so every store also enforces the disk bound and
/// lands in the daemon's eviction counters; the settings-based wrapper
/// above constructs a transient unbudgeted handle per call, which is fine
/// for the one-shot harness binaries.
///
/// # Errors
///
/// See [`sim_with_cache`].
pub fn sim_with_cache_in(
    module: &spt_ir::Module,
    entry: &str,
    arg: i64,
    machine: &MachineConfig,
    cache: Option<&ArtifactCache>,
    stats: &mut SimTraceStats,
) -> Result<SimResult, SimError> {
    let key = ArtifactCache::sim_key(module.content_hash(), entry, &[arg], machine);
    if let Some(cache) = cache {
        if let LoadOutcome::Hit(hit) = cache.load_sim(key) {
            stats.memo_hits += 1;
            return Ok(hit);
        }
    }
    stats.direct_runs += 1;
    let result = SptSimulator::with_config(machine.clone()).run(module, entry, &[arg])?;
    if let Some(cache) = cache {
        cache.store_sim(key, &result);
    }
    Ok(result)
}
