//! Function-granular incremental compilation support.
//!
//! The pipeline's expensive middle — per-loop dependence graphs, cost
//! models and partition searches — is a pure function of one function's IR
//! plus a small, explicit context: the compiler configuration, every
//! function's memory-effect summary (calls are abstracted through
//! summaries, never by looking into callee bodies), and the function's own
//! slice of the edge/dependence profiles. The pipeline memoizes that
//! product at function granularity in the artifact store
//! ([`crate::store::Store`]), keyed by [`spt_ir::Function::content_hash`]
//! (the Merkle leaf of [`spt_ir::Module::content_hash`]) plus a context
//! hash folding exactly those inputs — so editing one function of an
//! N-function module invalidates one analysis unit, not N. The analysis
//! units (`FuncAnalysisUnit`s) persist on the store's disk tier when it
//! has one, so edit-recompile cycles survive process boundaries. Pass 2
//! (selection and SPT emission) always runs in full.
//!
//! The skip-and-splice contract: a decode-and-splice path must be
//! *byte-identical* to a recompute path, for reports and emitted code
//! alike. Keys therefore fold every analysis input bit-exactly (`f64`s by
//! bit pattern), a cached unit holds the very fragments pass 1 returned
//! (including the flags that diagnostics are built from), and anything
//! environmental — a contained panic — is never stored.
//! `tests/incremental_equivalence.rs` pins the contract over the whole
//! benchmark suite.

use spt_ir::{FuncId, Function, LoopForest, Module};
use spt_profile::ProfileCollector;
use spt_trace::codec::Fnv;

use crate::config::CompilerConfig;
use crate::func_unit::FuncAnalysisUnit;

/// Streams `Debug` renderings into an FNV fold without materialising them.
struct FnvWrite(Fnv);

impl std::fmt::Write for FnvWrite {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.update(s.as_bytes());
        Ok(())
    }
}

/// Folds `v`'s `Debug` rendering into `h`.
pub(crate) fn fold_debug<T: std::fmt::Debug + ?Sized>(h: &mut Fnv, v: &T) {
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
pub(crate) fn unit_matches_forest(unit: &FuncAnalysisUnit, forest: &LoopForest) -> bool {
    let headers = forest.ids().map(|lid| forest.get(lid).header);
    unit.fragments.iter().map(|frag| frag.header).eq(headers)
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
    fn a_unit_matches_only_its_forest_s_headers_in_order() {
        let module = spt_frontend::compile(
            "fn main(n: int) -> int {
                 let s = 0;
                 for (let i = 0; i < n; i = i + 1) {
                     for (let j = 0; j < i; j = j + 1) { s = s + j; }
                 }
                 return s;
             }",
        )
        .expect("compiles");
        let func = &module.funcs[0];
        let cfg = spt_ir::Cfg::compute(func);
        let forest = LoopForest::compute(func, &cfg, &spt_ir::DomTree::compute(&cfg));
        let headers: Vec<_> = forest.ids().map(|lid| forest.get(lid).header).collect();
        assert_eq!(headers.len(), 2);
        let unit = |headers: &[spt_ir::BlockId]| FuncAnalysisUnit {
            fragments: headers
                .iter()
                .map(|&header| crate::func_unit::LoopFragment {
                    header,
                    depth: 0,
                    parent_header: None,
                    body_size: 0,
                    num_vcs: 0,
                    cost: 0.0,
                    prefork_size: 0,
                    move_insts: Vec::new(),
                    replicate_insts: Vec::new(),
                    skipped_too_many_vcs: false,
                    canonical: true,
                    search_visited: 0,
                    search_budget_exhausted: false,
                })
                .collect(),
        };
        assert!(unit_matches_forest(&unit(&headers), &forest));
        let reversed = [headers[1], headers[0]];
        let longer = [headers[0], headers[1], headers[1]];
        for other in [&headers[..1], &reversed[..], &longer[..], &[]] {
            assert!(!unit_matches_forest(&unit(other), &forest), "{other:?}");
        }
    }
}
