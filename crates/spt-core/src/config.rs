//! Compiler configurations, mirroring the three compilations evaluated in
//! §8 of the paper.

use std::path::PathBuf;

/// Minimum static loop body size (latency units) for an SPT loop (§6.1
/// criterion 3, lower bound): smaller bodies cannot amortize the fork
/// overhead, and counted loops below it are unrolled towards it.
pub const MIN_BODY_SIZE: u64 = 40;

/// Minimum average trip count of an SPT loop (§6.1 criterion 4: below 2,
/// the next iteration rarely exists and speculative threads die).
pub const MIN_TRIP_COUNT: f64 = 2.0;

/// Cap on the unroll factor.
pub const UNROLL_MAX_FACTOR: usize = 8;

/// Cap on a function's code growth from unrolling, as a multiple of its
/// pre-unroll instruction count; an unroll that would exceed it is skipped
/// with a diagnostic.
pub const UNROLL_GROWTH_CAP: f64 = 64.0;

/// Confidence bar for SVP value patterns (§7.2).
pub const SVP_THRESHOLD: f64 = 0.9;

/// Artifact-store settings for the pipeline and the simulation harnesses.
///
/// The name is historical (the store once also held execution traces).
/// Enabled with a `cache_dir`, compiles persist their whole result (the
/// SPT module and its report) and their function-granular pass-1 analysis
/// units, and `spt_serve::sim_with_cache` its whole `SimResult` memos, in
/// a content-addressed directory keyed by IR content hash + inputs + the
/// build identity, so an exact repeat skips the work: a repeated compile
/// decodes one file and runs no pipeline stage. The store never changes an
/// answer: reports and results are byte-identical with it on, off, cold or
/// warm, and a damaged entry is evicted and recomputed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSettings {
    /// Use the on-disk store (off by default). Without a `cache_dir` it
    /// has nothing to persist to and compiles and simulations run exactly
    /// as when disabled.
    pub enabled: bool,
    /// On-disk artifact store directory (conventionally `.spt-cache`).
    pub cache_dir: Option<PathBuf>,
}

/// Unified resource limits for one pipeline run, with explicit
/// graceful-degradation semantics: hitting a budget never fails the
/// compile — the affected component degrades (search keeps its
/// best-so-far, unroll skipped past [`UNROLL_GROWTH_CAP`]) and a
/// [`crate::Diagnostic`] records the degradation. The single exception is
/// [`ResourceBudget::interp_fuel`]: profiling is the pipeline's *input*, so
/// a profiling run that exhausts its fuel surfaces as
/// [`crate::PipelineError::Interp`] — there is nothing to degrade *to*
/// without a profile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResourceBudget {
    /// Maximum instructions a profiling run may retire before aborting with
    /// [`spt_profile::InterpError::OutOfFuel`].
    pub interp_fuel: u64,
    /// Hard cap on partition-search nodes visited per loop. On exhaustion
    /// the search returns the best partition found so far (flagged via
    /// `SearchResult::budget_exhausted`, reported as a diagnostic) instead
    /// of being indistinguishable from an optimal result.
    pub search_max_visited: u64,
}

impl Default for ResourceBudget {
    fn default() -> Self {
        ResourceBudget {
            interp_fuel: 500_000_000,
            search_max_visited: 1_000_000,
        }
    }
}

/// Thresholds and feature toggles for the SPT pipeline.
#[derive(Clone, Debug)]
pub struct CompilerConfig {
    /// Human-readable name shown in reports.
    pub name: &'static str,
    /// Feed data-dependence profiling into the cost model (§7.3; *best*
    /// configuration and up). Without it, memory dependences come from
    /// type-based disambiguation only.
    pub use_dep_profile: bool,
    /// Apply software value prediction (§7.2; *best* and up).
    pub use_svp: bool,
    /// Besides counted (DO) loops, which every configuration unrolls when
    /// their bodies are too small (§7.1), also unroll general `while` loops
    /// (the *anticipated* enabling technique; ORC could not).
    pub unroll_while: bool,
    /// Promote global scalars to registers across loops ("export of global
    /// variables"; *anticipated*).
    pub promote_globals: bool,
    /// Maximum loop body size (machine-dependent; the paper's experiments
    /// use 1000).
    pub max_body_size: u64,
    /// Pre-fork region size threshold, as a fraction of the body size
    /// (§6.1 criterion 2 and pruning heuristic 1).
    pub prefork_frac: f64,
    /// Misspeculation cost threshold, as a fraction of the body size
    /// (§6.1 criterion 1).
    pub cost_frac: f64,
    /// Skip loops with more violation candidates than this (§5.2.1; the
    /// paper uses 30).
    pub max_vcs: usize,
    /// Resource limits with graceful-degradation semantics.
    pub budget: ResourceBudget,
    /// Artifact-store settings (see [`TraceSettings`]).
    pub trace: TraceSettings,
}

impl CompilerConfig {
    /// The *basic* compilation: cost model, code reordering, counted-loop
    /// unrolling, control-flow edge profiling, type-based alias analysis.
    /// (§8: achieves only ~1% average speedup.)
    pub fn basic() -> Self {
        CompilerConfig {
            name: "basic",
            use_dep_profile: false,
            use_svp: false,
            unroll_while: false,
            promote_globals: false,
            max_body_size: 1000,
            prefork_frac: 0.35,
            cost_frac: 0.15,
            max_vcs: 30,
            budget: ResourceBudget::default(),
            trace: TraceSettings::default(),
        }
    }

    /// The *current best* compilation: basic + software value prediction +
    /// data-dependence profiling feedback. (§8: ~8% average speedup.)
    pub fn best() -> Self {
        CompilerConfig {
            name: "best",
            use_dep_profile: true,
            use_svp: true,
            ..Self::basic()
        }
    }

    /// The *anticipated best* compilation: best + while-loop unrolling +
    /// privatization/global export. (§8: ~15.6% average speedup once the
    /// manual techniques are automated.)
    pub fn anticipated() -> Self {
        CompilerConfig {
            name: "anticipated",
            unroll_while: true,
            promote_globals: true,
            ..Self::best()
        }
    }
}

impl Default for CompilerConfig {
    fn default() -> Self {
        Self::best()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_capability() {
        let basic = CompilerConfig::basic();
        let best = CompilerConfig::best();
        let anticipated = CompilerConfig::anticipated();
        assert!(!basic.use_dep_profile && !basic.use_svp);
        assert!(best.use_dep_profile && best.use_svp && !best.unroll_while);
        assert!(anticipated.unroll_while && anticipated.promote_globals);
        assert_eq!(basic.max_vcs, 30);
        assert_eq!(basic.max_body_size, 1000);
    }
}
