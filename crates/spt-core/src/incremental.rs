//! Function-granular incremental compilation support.
//!
//! The pipeline's expensive middle — per-loop dependence graphs, cost
//! models and partition searches — is a pure function of one function's IR
//! plus a small, explicit context: the compiler configuration, every
//! function's memory-effect summary (calls are abstracted through
//! summaries, never by looking into callee bodies), and the function's own
//! slice of the edge/dependence profiles. [`IncrementalCache`] memoizes
//! that product at function granularity, keyed by
//! [`spt_ir::Function::content_hash`] (the Merkle leaf of
//! [`spt_ir::Module::content_hash`]) plus a context hash folding exactly
//! those inputs — so editing one function of an N-function module
//! invalidates one analysis unit, not N.
//!
//! Two tiers per kind:
//!
//! * **analysis units** ([`FuncAnalysisUnit`]) live in a sharded in-memory
//!   LRU and, when the cache was built from artifact-store settings with a
//!   `cache_dir`, in the on-disk [`ArtifactCache`] (kind `func`), so
//!   edit-recompile cycles survive process boundaries;
//! * **emission units** ([`EmitUnit`]) — the transformed function plus the
//!   per-loop emission outcomes needed to splice reports — are memory-only:
//!   they embed IR and are only worth keeping hot within a daemon.
//!
//! The skip-and-splice contract: a decode-and-splice path must be
//! *byte-identical* to a recompute path, for reports and emitted code
//! alike. Keys therefore fold every analysis input bit-exactly (`f64`s by
//! bit pattern), cached values carry everything the report rebuild needs
//! (including the flags that regenerate diagnostics), and anything
//! environmental — a contained panic, an analysis deadline — is never
//! stored. `tests/incremental_equivalence.rs` pins the contract over the
//! whole benchmark suite.

use std::sync::Arc;

use spt_ir::{FuncId, Function, LoopForest, Module};
use spt_profile::ProfileCollector;
use spt_trace::codec::Fnv;
use spt_trace::{ArtifactCache, FuncAnalysisUnit, LoadOutcome, ShardStats, ShardedLru};

use crate::config::CompilerConfig;

/// The outcome of one loop's SPT emission, cache-stable. `Emitted` carries
/// no tag: tags are globally sequential over successful emissions, so the
/// splice path re-derives them from its running counter — which also makes
/// a unit reusable only from the same starting tag (the tag participates in
/// the cache key).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EmitEvent {
    /// The loop was transformed; it consumed the next loop tag.
    Emitted,
    /// Emission declined with this message; the loop stayed sequential.
    Declined(String),
    /// The selected loop was no longer present at emission time.
    Vanished,
}

/// The emission product of one function: its post-emission IR and the
/// per-selected-loop events needed to rebuild records, diagnostics and the
/// selected-loop list byte-identically.
#[derive(Clone, Debug)]
pub struct EmitUnit {
    /// The function after all of its selected loops were emitted (before
    /// the pipeline's final cleanup pass, which still runs on splice).
    pub func: Function,
    /// One event per selected loop, in selection order.
    pub events: Vec<EmitEvent>,
}

impl EmitUnit {
    fn approx_bytes(&self) -> u64 {
        let ir = (self.func.insts.len() * 48 + self.func.blocks.len() * 32) as u64;
        let msgs: u64 = self
            .events
            .iter()
            .map(|e| match e {
                EmitEvent::Declined(m) => 16 + m.len() as u64,
                _ => 16,
            })
            .sum();
        ir + msgs + 64
    }
}

/// The function-granular memo the pipeline compiles through. Cheap to
/// share: clone-free probes hand out `Arc`s, and all counters live in the
/// underlying tiers.
pub struct IncrementalCache {
    analysis: ShardedLru<Arc<FuncAnalysisUnit>>,
    emit: ShardedLru<Arc<EmitUnit>>,
    disk: Option<ArtifactCache>,
}

impl IncrementalCache {
    /// A memory-only cache splitting `mem_budget_bytes` between the
    /// analysis and emission tiers over `shards` shards each.
    pub fn in_memory(mem_budget_bytes: u64, shards: usize) -> Self {
        IncrementalCache {
            analysis: ShardedLru::new(shards, mem_budget_bytes / 2),
            emit: ShardedLru::new(shards, mem_budget_bytes - mem_budget_bytes / 2),
            disk: None,
        }
    }

    /// [`IncrementalCache::in_memory`] plus a disk tier for analysis units
    /// (emission units stay memory-only; they embed IR).
    pub fn with_disk(mem_budget_bytes: u64, shards: usize, disk: ArtifactCache) -> Self {
        IncrementalCache {
            disk: Some(disk),
            ..Self::in_memory(mem_budget_bytes, shards)
        }
    }

    /// The cache a plain [`crate::transform_module_timed`] call compiles
    /// through: `None` when the artifact store is disabled or has no
    /// `cache_dir` (nothing would persist anyway, and a single compile never
    /// re-probes its own stores), otherwise a small memory tier over the
    /// same `.spt-cache/` directory the simulation memos use.
    pub fn from_config(config: &CompilerConfig) -> Option<Self> {
        let dir = config.trace.cache_dir.as_ref()?;
        if !config.trace.enabled {
            return None;
        }
        Some(Self::with_disk(32 << 20, 4, ArtifactCache::new(dir)))
    }

    /// Analysis-tier counter snapshot (memory tier).
    pub fn analysis_stats(&self) -> ShardStats {
        self.analysis.stats()
    }

    /// Emission-tier counter snapshot.
    pub fn emit_stats(&self) -> ShardStats {
        self.emit.stats()
    }

    /// Probe for an analysis unit: memory first, then disk; a disk hit is
    /// promoted into memory. Disk corruption degrades to a miss (the
    /// artifact cache has already evicted the bad file).
    pub fn load_analysis(&self, key: u64) -> Option<Arc<FuncAnalysisUnit>> {
        if let Some(unit) = self.analysis.get(key) {
            return Some(unit);
        }
        let disk = self.disk.as_ref()?;
        match disk.load_func_unit(key) {
            LoadOutcome::Hit(unit) => {
                let unit = Arc::new(unit);
                self.analysis.insert(key, unit.clone(), unit.approx_bytes());
                Some(unit)
            }
            LoadOutcome::Miss | LoadOutcome::Corrupt(_) => None,
        }
    }

    /// Store an analysis unit in every configured tier.
    pub fn store_analysis(&self, key: u64, unit: Arc<FuncAnalysisUnit>) {
        if let Some(disk) = &self.disk {
            disk.store_func_unit(key, &unit);
        }
        let bytes = unit.approx_bytes();
        self.analysis.insert(key, unit, bytes);
    }

    /// Probe for an emission unit (memory-only).
    pub fn load_emit(&self, key: u64) -> Option<Arc<EmitUnit>> {
        self.emit.get(key)
    }

    /// Store an emission unit (memory-only).
    pub fn store_emit(&self, key: u64, unit: Arc<EmitUnit>) {
        let bytes = unit.approx_bytes();
        self.emit.insert(key, unit, bytes);
    }
}

/// Streams `Debug` renderings into an FNV fold without materialising them.
struct FnvWrite(Fnv);

impl std::fmt::Write for FnvWrite {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.update(s.as_bytes());
        Ok(())
    }
}

fn fold_debug<T: std::fmt::Debug + ?Sized>(h: &mut Fnv, v: &T) {
    use std::fmt::Write as _;
    let mut w = FnvWrite(std::mem::replace(h, Fnv::new()));
    let _ = write!(w, "{v:?}");
    *h = w.0;
}

/// Hash of every compilation knob that can change an analysis result. The
/// artifact-store settings are deliberately normalized out: where results
/// are stored never changes what they are (pinned by
/// `tests/trace_equivalence.rs`), so store-on and store-off compiles share
/// function units.
pub fn config_context_hash(config: &CompilerConfig) -> u64 {
    let mut normalized = config.clone();
    normalized.trace = crate::config::TraceSettings::default();
    let mut h = Fnv::new();
    h.update(b"config");
    fold_debug(&mut h, &normalized);
    h.finish()
}

/// One recorded dependence-profile pair: `(loop, store, load, kind, count)`.
type DepPair = (u32, u32, u32, u8, u64);

/// The per-module half of every function's analysis context, computed once
/// per analysis pass.
pub struct ModuleContext {
    /// [`config_context_hash`] of the active configuration.
    pub config_hash: u64,
    /// Hash of every function's memory-effect summary — the only view of
    /// *other* functions an analysis ever takes.
    pub summaries_hash: u64,
    /// Whether dependence-profile slices participate in function keys.
    pub use_dep_profile: bool,
    /// All dependence-profile pairs, sorted, grouped by function index.
    dep_pairs: Vec<Vec<DepPair>>,
}

impl ModuleContext {
    /// Precomputes the shared context for `module` under `config`.
    pub fn new(module: &Module, collector: &ProfileCollector, config: &CompilerConfig) -> Self {
        let mut h = Fnv::new();
        h.update(b"summaries");
        fold_debug(&mut h, &module.effect_summaries());
        let mut dep_pairs: Vec<Vec<DepPair>> = vec![Vec::new(); module.funcs.len()];
        if config.use_dep_profile {
            for (key, count) in collector.deps.dep_counts_map() {
                let kind = match key.kind {
                    spt_profile::DepKind::Intra => 0u8,
                    spt_profile::DepKind::CrossAdjacent => 1,
                    spt_profile::DepKind::CrossFar => 2,
                };
                if let Some(slot) = dep_pairs.get_mut(key.func.index()) {
                    slot.push((
                        key.loop_id.index() as u32,
                        key.store.index() as u32,
                        key.load.index() as u32,
                        kind,
                        count,
                    ));
                }
            }
            for slot in &mut dep_pairs {
                slot.sort_unstable();
            }
        }
        ModuleContext {
            config_hash: config_context_hash(config),
            summaries_hash: h.finish(),
            use_dep_profile: config.use_dep_profile,
            dep_pairs,
        }
    }

    /// The context hash of one function: config + summaries + the
    /// function's slice of the edge profile (entry/block/edge counts over
    /// its own CFG) and, when dependence profiling feeds the cost model,
    /// its slice of the dependence profile (per-instruction store/load
    /// execution counts plus every classified pair). Loop trip-count stats
    /// and whole-run cycle totals are *excluded* on purpose: selection
    /// reads them live from the collector, so they never need to key the
    /// cached analysis.
    pub fn func_context_hash(
        &self,
        func: &Function,
        func_id: FuncId,
        collector: &ProfileCollector,
    ) -> u64 {
        let mut h = Fnv::new();
        h.update(b"ctx");
        h.update_u64(self.config_hash);
        h.update_u64(self.summaries_hash);
        h.update_u64(collector.edges.entry_count(func_id));
        for bb in func.block_ids() {
            h.update_u64(collector.edges.block_count(func_id, bb));
            for succ in func.successors(bb) {
                h.update_u64(collector.edges.edge_count(func_id, bb, succ));
            }
        }
        if self.use_dep_profile {
            h.update(b"deps");
            for bb in func.block_ids() {
                for &i in &func.block(bb).insts {
                    h.update_u64(collector.deps.store_count(func_id, i));
                    h.update_u64(collector.deps.load_count(func_id, i));
                }
            }
            if let Some(pairs) = self.dep_pairs.get(func_id.index()) {
                h.update_u64(pairs.len() as u64);
                for &(lid, store, load, kind, count) in pairs {
                    h.update_u64(lid as u64);
                    h.update_u64(store as u64);
                    h.update_u64(load as u64);
                    h.update_u64(kind as u64);
                    h.update_u64(count);
                }
            }
        }
        h.finish()
    }
}

/// Whether a cached unit structurally matches the function's current loop
/// forest (same loop count, same headers in discovery order). Content
/// addressing makes a mismatch all but impossible; treating it as a miss
/// keeps even a hash collision from splicing garbage.
pub fn unit_matches_forest(unit: &FuncAnalysisUnit, forest: &LoopForest) -> bool {
    let mut ids = forest.ids();
    let mut n = 0usize;
    for frag in &unit.fragments {
        let Some(lid) = ids.next() else { return false };
        if forest.get(lid).header.index() as u32 != frag.header {
            return false;
        }
        n += 1;
    }
    n == unit.fragments.len() && ids.next().is_none()
}

/// Key for an emission unit: the function's IR at emission entry, its
/// index, the starting loop tag, and each selected loop's header plus
/// partition sets. Any upstream change — different selection, shifted
/// tags, different pre-fork sets — lands on a different key, so a hit can
/// always be spliced verbatim.
pub fn emit_unit_key(
    func: &Function,
    func_id: FuncId,
    start_tag: u32,
    selected: &[(u32, Vec<u32>, Vec<u32>)],
) -> u64 {
    let mut h = Fnv::new();
    h.update(b"emit");
    h.update_u64(func.content_hash());
    h.update_u64(func_id.index() as u64);
    h.update_u64(start_tag as u64);
    h.update_u64(selected.len() as u64);
    for (header, move_insts, replicate_insts) in selected {
        h.update_u64(*header as u64);
        h.update_u64(move_insts.len() as u64);
        for &i in move_insts {
            h.update_u64(i as u64);
        }
        h.update_u64(replicate_insts.len() as u64);
        for &i in replicate_insts {
            h.update_u64(i as u64);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_hash_ignores_trace_settings_only() {
        let mut a = CompilerConfig::best();
        let mut b = CompilerConfig::best();
        b.trace.enabled = true;
        b.trace.cache_dir = Some(std::path::PathBuf::from(".spt-cache"));
        assert_eq!(config_context_hash(&a), config_context_hash(&b));
        a.prefork_frac += 0.01;
        assert_ne!(config_context_hash(&a), config_context_hash(&b));
        assert_ne!(
            config_context_hash(&CompilerConfig::basic()),
            config_context_hash(&CompilerConfig::anticipated())
        );
    }

    #[test]
    fn memory_tiers_round_trip() {
        let cache = IncrementalCache::in_memory(1 << 20, 2);
        assert!(cache.load_analysis(7).is_none());
        let unit = Arc::new(FuncAnalysisUnit::default());
        cache.store_analysis(7, unit.clone());
        assert_eq!(cache.load_analysis(7).as_deref(), Some(&*unit));
        let stats = cache.analysis_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));

        assert!(cache.load_emit(9).is_none());
        let emit = Arc::new(EmitUnit {
            func: Function::new("f", vec![], None),
            events: vec![EmitEvent::Emitted, EmitEvent::Declined("no".into())],
        });
        cache.store_emit(9, emit.clone());
        assert_eq!(
            cache.load_emit(9).map(|u| u.events.clone()),
            Some(emit.events.clone())
        );
    }

    #[test]
    fn disk_tier_survives_a_fresh_memory_tier() {
        let dir = std::env::temp_dir().join(format!("spt-inc-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let warm = IncrementalCache::with_disk(1 << 20, 2, ArtifactCache::new(&dir));
        let unit = Arc::new(FuncAnalysisUnit::default());
        warm.store_analysis(3, unit.clone());
        let cold = IncrementalCache::with_disk(1 << 20, 2, ArtifactCache::new(&dir));
        assert_eq!(cold.load_analysis(3).as_deref(), Some(&*unit));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
