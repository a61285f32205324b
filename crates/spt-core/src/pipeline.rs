//! The two-pass, cost-driven compilation driver (§3.2, Fig. 4).
//!
//! Stage order:
//!
//! 1. **compile** the source to SSA IR (the non-SPT baseline is kept for
//!    speedup comparisons);
//! 2. **preprocess** (§3.2 "loop preprocessing"): unroll small-bodied loops
//!    (counted loops always; `while` loops in the *anticipated*
//!    configuration) and promote global scalars (*anticipated*);
//! 3. **profile** the preprocessed program: control-flow edges, data
//!    dependences, loop statistics and (*best* and up) the value patterns
//!    of every SVP carrier candidate, all in one interpreter run;
//! 4. **pass 1**: for every loop candidate (every nest level), build the
//!    annotated dependence graph and cost model and search for the optimal
//!    partition — tentatively, without changing the program;
//! 5. **SVP** (§7.2, *best* and up): among the carried definitions of
//!    loops whose cost is still too high, rewrite the ones stage 3 found
//!    predictable through predictor cells, then re-profile and re-run
//!    pass 1 (the dependence profile of the rewritten code prices the
//!    predictor's rare recovery store automatically);
//! 6. **pass 2**: select the good SPT loops (§6.1 criteria; one loop per
//!    nest) and emit the SPT transformation for each;
//! 7. cleanup and verification.
//!
//! With a disk-backed artifact store, the whole run is memoized: a compile
//! of the same module, input and configuration decodes the stored SPT
//! module and report ([`crate::store::Kind::Compile`]) and runs none of
//! stages 2–7.

use crate::compile_memo::CompileMemo;
use crate::config::{
    CompilerConfig, MIN_BODY_SIZE, MIN_TRIP_COUNT, SVP_THRESHOLD, UNROLL_GROWTH_CAP,
    UNROLL_MAX_FACTOR,
};
use crate::diag::{panic_message, Diagnostic, Severity, Stage};
use crate::func_unit::{FuncAnalysisUnit, LoopFragment};
use crate::incremental::{config_context_hash, unit_matches_forest, ModuleContext};
use crate::report::{CompilationReport, LoopOutcome, LoopRecord, SelectedLoop};
use crate::store::{compile_key, func_unit_key, Store};
use spt_cost::dep_graph::{DepGraph, DepGraphConfig, NodeClass, Profiles};
use spt_cost::LoopCostModel;
use spt_ir::loops::LoopId;
use spt_ir::{BlockId, Cfg, DomTree, FuncId, InstId, LoopForest, Module, Ty};
use spt_partition::{optimal_partition, SearchConfig};
use spt_profile::{DepProfile, Interp, InterpError, ProfileCollector, Val, ValueProfile};
use spt_transform::{
    classify_loop, emit_spt_loop, unroll::choose_unroll_factor, unroll_loop, SptLoopSpec,
    UnrollKind,
};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// How to run the program for profiling.
#[derive(Clone, Debug)]
pub struct ProfilingInput {
    /// Entry function name.
    pub entry: String,
    /// Arguments passed to the entry function.
    pub args: Vec<Val>,
}

impl ProfilingInput {
    /// Profiling input calling `entry` with integer arguments.
    pub fn new(entry: impl Into<String>, args: impl IntoIterator<Item = i64>) -> Self {
        ProfilingInput {
            entry: entry.into(),
            args: args.into_iter().map(Val::from_i64).collect(),
        }
    }
}

/// Pipeline failure modes.
#[derive(Debug)]
pub enum PipelineError {
    /// Frontend failure.
    Compile(spt_frontend::CompileError),
    /// A profiling run failed.
    Interp(InterpError),
    /// Internal invariant broke (verifier failure after transformation).
    Verify(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Compile(e) => write!(f, "compile error: {e}"),
            PipelineError::Interp(e) => write!(f, "profiling run failed: {e}"),
            PipelineError::Verify(e) => write!(f, "post-transform verification failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<spt_frontend::CompileError> for PipelineError {
    fn from(e: spt_frontend::CompileError) -> Self {
        PipelineError::Compile(e)
    }
}

impl From<InterpError> for PipelineError {
    fn from(e: InterpError) -> Self {
        PipelineError::Interp(e)
    }
}

/// The result of a full pipeline run.
#[derive(Clone, Debug)]
pub struct SptCompilation {
    /// The SPT-transformed module.
    pub module: Module,
    /// The untouched baseline compile (the paper's non-SPT reference code).
    pub baseline: Module,
    /// Per-loop decisions and selection results.
    pub report: CompilationReport,
}

/// One candidate loop between the passes: pass 1's [`LoopFragment`] and
/// what the pipeline keeps beside it.
struct Candidate {
    func: FuncId,
    /// The loop's id in its function's forest at analysis time, which is
    /// also its id in the profile the analysis read.
    loop_id: LoopId,
    frag: LoopFragment,
    /// Stage 5 rewrote one of the loop's carriers.
    svp_applied: bool,
    /// Pass-1 analysis did not complete for this loop (contained panic):
    /// `frag` is the conservative stand-in, and the loop must not be
    /// speculated.
    failed: bool,
}

/// Runs the full pipeline on `source`.
///
/// # Errors
///
/// Returns [`PipelineError`] on frontend errors, failed profiling runs, or
/// (never expected) post-transformation verifier failures.
pub fn compile_and_transform(
    source: &str,
    input: &ProfilingInput,
    config: &CompilerConfig,
) -> Result<SptCompilation, PipelineError> {
    let baseline = spt_frontend::compile(source)?;
    let mut module = baseline.clone();
    transform_module(&mut module, input, config).map(|report| SptCompilation {
        module,
        baseline,
        report,
    })
}

/// Wall-clock seconds spent in each pipeline stage of one
/// [`transform_module_timed`] run. Deliberately *not* part of
/// [`CompilationReport`]: reports must stay byte-identical across runs and
/// thread counts, while timings never are.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageTimings {
    /// Stage 2: unrolling and global promotion.
    pub preprocess_s: f64,
    /// Stage 3 (plus the SVP re-profile when it runs): interpreter profiling.
    pub profile_s: f64,
    /// Stage 4 (plus the SVP re-analysis): dependence graphs, cost models,
    /// and the optimal-partition searches.
    pub analysis_s: f64,
    /// Stage 5: SVP target selection and predictor rewriting (the value
    /// profile itself is collected by stage 3).
    pub svp_s: f64,
    /// Stage 6: selection plus SPT emission.
    pub select_emit_s: f64,
    /// Total partition-search nodes visited across all analyses (pairs with
    /// `analysis_s` for a nodes-per-second figure).
    pub search_visited: u64,
    /// Always 0. The pipeline no longer captures or replays execution
    /// traces; the `trace_*` fields stay only because the `sptbench`
    /// benchmark reads them.
    pub trace_capture_s: f64,
    /// Always 0 (see [`StageTimings::trace_capture_s`]).
    pub trace_replay_s: f64,
    /// Always 0 (see [`StageTimings::trace_capture_s`]).
    pub trace_cache_hits: u64,
    /// Always 0 (see [`StageTimings::trace_capture_s`]).
    pub trace_cache_misses: u64,
    /// Function-granular units considered (one per function per analysis
    /// pass; the SVP re-analysis counts again). Zero when the run had no
    /// [`Store`].
    pub func_units_total: u64,
    /// Pass-1 analysis units served from the function-granular cache —
    /// functions whose loops skipped dependence graphs, cost models and
    /// partition searches entirely.
    pub func_analysis_hits: u64,
    /// Pass-1 analysis units that had to be computed (and, when clean, were
    /// stored for the next compile).
    pub func_analysis_misses: u64,
    /// 1 when the whole compile was served from the store's disk tier
    /// (stages 2–7 did not run; `search_visited` is summed from the stored
    /// report), else 0. Zero without a disk-backed [`Store`].
    pub compile_hits: u64,
    /// 1 when a disk-backed store could not serve the compile: it ran, and
    /// was stored when no contained panic degraded it.
    pub compile_misses: u64,
}

/// Runs preprocessing, analysis, selection and transformation on an
/// already-compiled module in place, returning the report.
///
/// # Errors
///
/// See [`compile_and_transform`]. On `Err` the input module is left
/// **unchanged**: all surgery happens on a scratch clone that is committed
/// back only when the whole pipeline succeeds.
pub fn transform_module(
    module: &mut Module,
    input: &ProfilingInput,
    config: &CompilerConfig,
) -> Result<CompilationReport, PipelineError> {
    transform_module_timed(module, input, config).map(|(report, _)| report)
}

/// [`transform_module`] plus per-stage wall times, which the `sptbench`
/// benchmark and the incremental-recompile gate read.
///
/// # Errors
///
/// See [`compile_and_transform`]. On `Err` the input module is left
/// unchanged (error atomicity — see [`transform_module`]).
pub fn transform_module_timed(
    module: &mut Module,
    input: &ProfilingInput,
    config: &CompilerConfig,
) -> Result<(CompilationReport, StageTimings), PipelineError> {
    let ephemeral = Store::from_config(config);
    transform_module_timed_with(module, input, config, ephemeral.as_ref())
}

/// [`transform_module_timed`] compiling through a caller-owned artifact
/// [`Store`], the function-granular incremental entry point.
///
/// With `Some(store)`, functions whose content hash and analysis context
/// match a stored unit skip pass 1 entirely and splice the stored analyses
/// back in. When the store has a disk tier, the whole compile is probed
/// first ([`compile_key`] over the input module's content hash, `input`
/// and the configuration): a hit
/// decodes the stored module and report and runs no stage at all, and a
/// miss that no contained panic degraded is stored. A store without a disk
/// tier never computes that key. The report and emitted code are
/// byte-identical to a cold compile either way (pinned by
/// `tests/incremental_equivalence.rs` and `tests/trace_equivalence.rs`),
/// and the hit/miss counters land in [`StageTimings`]. With `None` every
/// function is profiled and analyzed.
/// [`transform_module_timed`] passes an ephemeral disk-backed store when
/// the artifact store is enabled with a `cache_dir` (so repeated and
/// edit-recompile compiles reuse whole compiles and analysis units across
/// processes); the daemon passes its long-lived shared store.
///
/// # Errors
///
/// See [`compile_and_transform`]. On `Err` the input module is left
/// unchanged (error atomicity — see [`transform_module`]).
pub fn transform_module_timed_with(
    module: &mut Module,
    input: &ProfilingInput,
    config: &CompilerConfig,
    cache: Option<&Store>,
) -> Result<(CompilationReport, StageTimings), PipelineError> {
    let memo = cache.filter(|store| store.has_disk()).map(|store| {
        let key = compile_key(module.content_hash(), input, config_context_hash(config));
        (store, key)
    });
    if let Some((store, key)) = memo {
        if let Some((hit, _)) = store.get::<CompileMemo>(key) {
            let CompileMemo {
                module: stored,
                report,
            } = Arc::unwrap_or_clone(hit);
            *module = stored;
            let timings = StageTimings {
                compile_hits: 1,
                search_visited: report.loops.iter().map(|l| l.search_visited).sum(),
                ..StageTimings::default()
            };
            return Ok((report, timings));
        }
    }
    let mut scratch = module.clone();
    let (mut report, mut timings) = transform_scratch(&mut scratch, input, config, cache)?;
    if let Some((store, key)) = memo {
        timings.compile_misses = 1;
        // A contained panic is environmental, not a property of the
        // inputs: its degraded result is never stored.
        if report.max_severity() != Some(Severity::Error) {
            let memo = Arc::new(CompileMemo {
                module: scratch,
                report,
            });
            store.put(key, Arc::clone(&memo));
            // The store keeps no reference to a disk-only kind.
            CompileMemo {
                module: scratch,
                report,
            } = Arc::unwrap_or_clone(memo);
        }
    }
    *module = scratch;
    Ok((report, timings))
}

/// The pipeline proper, free to leave `module` half-transformed on error —
/// [`transform_module_timed`] only commits it on success.
fn transform_scratch(
    module: &mut Module,
    input: &ProfilingInput,
    config: &CompilerConfig,
    cache: Option<&Store>,
) -> Result<(CompilationReport, StageTimings), PipelineError> {
    let mut timings = StageTimings::default();
    let mut diags: Vec<Diagnostic> = Vec::new();
    // --- Stage 2: preprocessing.
    let t = std::time::Instant::now();
    let mut unroll_factors: HashMap<(FuncId, BlockId), usize> = HashMap::new();
    preprocess(module, config, &mut unroll_factors, &mut diags);
    spt_ir::verify::verify_module(module).map_err(|e| PipelineError::Verify(e.to_string()))?;
    timings.preprocess_s = t.elapsed().as_secs_f64();

    // --- Stage 3: the profiling run. With SVP on, the same run also
    // value-profiles every SVP carrier candidate, so stage 5 needs no run
    // of its own.
    let t = std::time::Instant::now();
    let forests = loop_forests(module);
    let carriers = if config.use_svp {
        svp_carriers(module, &forests)
    } else {
        Vec::new()
    };
    let targets: Vec<(FuncId, InstId, Ty)> = carriers
        .iter()
        .map(|c| (c.func, c.carrier, Ty::I64))
        .collect();
    let mut collector = profile(module, input, config, &targets)?;
    collector.values.threshold = SVP_THRESHOLD;
    timings.profile_s = t.elapsed().as_secs_f64();

    // --- Stage 4: pass 1 analysis.
    let t = std::time::Instant::now();
    let mut loops = analyze_module(
        module,
        &forests,
        &collector,
        config,
        cache,
        &mut timings,
        &mut diags,
    );
    timings.analysis_s = t.elapsed().as_secs_f64();

    // --- Stage 5: software value prediction.
    let mut svp_headers: HashSet<(FuncId, BlockId)> = HashSet::new();
    if config.use_svp {
        let t = std::time::Instant::now();
        let loop_phis = svp_targets(config, &loops, &carriers);
        let rewrote = !loop_phis.is_empty()
            && svp_rewrite(
                module,
                loop_phis,
                &collector.values,
                &mut svp_headers,
                &mut diags,
            );
        timings.svp_s = t.elapsed().as_secs_f64();
        if rewrote {
            for func in &mut module.funcs {
                spt_ir::passes::cleanup(func);
                spt_ir::passes::loop_simplify(func);
            }
            spt_ir::verify::verify_module(module)
                .map_err(|e| PipelineError::Verify(e.to_string()))?;
            // The stage-3 profile is stale; free it, with the dependence
            // profiler's shadow memory, before the new run allocates its own.
            drop(collector);
            let t = std::time::Instant::now();
            collector = profile(module, input, config, &[])?;
            timings.profile_s += t.elapsed().as_secs_f64();
            let t = std::time::Instant::now();
            let forests = loop_forests(module);
            loops = analyze_module(
                module,
                &forests,
                &collector,
                config,
                cache,
                &mut timings,
                &mut diags,
            );
            timings.analysis_s += t.elapsed().as_secs_f64();
        }
    }
    for c in &mut loops {
        c.svp_applied = svp_headers.contains(&(c.func, c.frag.header));
    }
    timings.search_visited = loops.iter().map(|c| c.frag.search_visited).sum();

    // --- Stage 6: pass 2 selection and emission.
    let t_select = std::time::Instant::now();
    let mut records = select(
        module,
        config,
        &collector,
        &loops,
        &unroll_factors,
        &mut diags,
    );
    let selected_out = emit_selected(module, &loops, &mut records, &mut diags);

    // --- Stage 7: cleanup and verification.
    for func in &mut module.funcs {
        spt_ir::passes::cleanup(func);
    }
    crate::fail_point!("pipeline::verify", "", |msg: String| PipelineError::Verify(
        format!("failpoint: {msg}")
    ));
    spt_ir::verify::verify_module(module).map_err(|e| PipelineError::Verify(e.to_string()))?;
    timings.select_emit_s = t_select.elapsed().as_secs_f64();

    Ok((
        CompilationReport {
            config_name: config.name.to_string(),
            loops: records,
            selected: selected_out,
            profile_total_cycles: collector.loops.total_cycles,
            diagnostics: diags,
        },
        timings,
    ))
}

/// Pass 2's emission: transforms every `Selected` loop in analysis order,
/// numbering the successful emissions with sequential tags from 1.
///
/// Each loop's emission is fault-isolated: the function is snapshotted
/// first, and a contained panic restores it and degrades the loop instead
/// of failing or corrupting the whole compile. A loop the transformation
/// declines, or one that no longer exists, becomes `NotCanonical` with a
/// warning.
fn emit_selected(
    module: &mut Module,
    loops: &[Candidate],
    records: &mut [LoopRecord],
    diags: &mut Vec<Diagnostic>,
) -> Vec<SelectedLoop> {
    let mut selected_out: Vec<SelectedLoop> = Vec::new();
    let mut next_tag: u32 = 1;
    for (idx, c) in loops.iter().enumerate() {
        if records[idx].outcome != LoopOutcome::Selected {
            continue;
        }
        let (func_id, a) = (c.func, &c.frag);
        // Re-locate the loop by header in the current forest: earlier
        // emissions restructured the function.
        let func = module.func_mut(func_id);
        let loop_id = {
            let cfg = Cfg::compute(func);
            let dom = DomTree::compute(&cfg);
            let forest = LoopForest::compute(func, &cfg, &dom);
            let found = forest.ids().find(|&l| forest.get(l).header == a.header);
            found
        };
        let Some(loop_id) = loop_id else {
            records[idx].outcome = LoopOutcome::NotCanonical;
            diags.push(Diagnostic::for_loop(
                Stage::Emission,
                Severity::Warning,
                func_id,
                a.header,
                "selected loop no longer present at emission time; not transformed",
            ));
            continue;
        };
        let spec = SptLoopSpec {
            loop_id,
            move_insts: a.move_insts.iter().copied().collect(),
            replicate_insts: a.replicate_insts.iter().copied().collect(),
            loop_tag: next_tag,
        };
        let snapshot = func.clone();
        let emitted = catch_unwind(AssertUnwindSafe(|| {
            crate::fail_point!("pipeline::emission", &format!("{}@{}", func.name, a.header));
            emit_spt_loop(func, &spec)
        }));
        match emitted {
            Ok(Ok(_info)) => {
                selected_out.push(SelectedLoop {
                    func: func_id,
                    header: a.header,
                    loop_tag: next_tag,
                    est_cost: a.cost,
                    prefork_size: a.prefork_size,
                    body_size: a.body_size,
                });
                next_tag += 1;
            }
            Ok(Err(e)) => {
                records[idx].outcome = LoopOutcome::NotCanonical;
                diags.push(Diagnostic::for_loop(
                    Stage::Emission,
                    Severity::Warning,
                    func_id,
                    a.header,
                    format!("SPT emission declined: {e}; loop left sequential"),
                ));
            }
            Err(payload) => {
                *func = snapshot;
                records[idx].outcome = LoopOutcome::AnalysisFailed;
                diags.push(Diagnostic::for_loop(
                    Stage::Emission,
                    Severity::Error,
                    func_id,
                    a.header,
                    format!(
                        "recovered panic during SPT emission: {}; function restored, loop left sequential",
                        panic_message(&*payload)
                    ),
                ));
            }
        }
    }
    selected_out
}

/// Total instruction count of a function (the unroll growth-cap metric).
fn func_inst_count(func: &spt_ir::Function) -> usize {
    func.block_ids()
        .map(|bb| func.block(bb).insts.len())
        .sum::<usize>()
}

/// Stage 2: unrolling and global promotion, one function after another.
/// Functions are independent (the only cross-function input is the
/// globals table), but one function's preprocessing is too small to repay
/// a thread: on the benchmark suite's cold compiles, fanning the stage out
/// over two workers made it about six times slower than one.
fn preprocess(
    module: &mut Module,
    config: &CompilerConfig,
    unroll_factors: &mut HashMap<(FuncId, BlockId), usize>,
    diags: &mut Vec<Diagnostic>,
) {
    for (fi, func) in module.funcs.iter_mut().enumerate() {
        let func_id = FuncId::new(fi);
        if config.promote_globals {
            spt_transform::promote_global_scalars(&module.globals, func);
            spt_ir::passes::cleanup(func);
            spt_ir::passes::loop_simplify(func);
        }

        // Per-function code-growth budget: unrolling may not blow the
        // function up past `UNROLL_GROWTH_CAP` times its pre-unroll size.
        let base_insts = func_inst_count(func).max(1);
        let growth_limit = ((base_insts as f64) * UNROLL_GROWTH_CAP).ceil() as usize;
        // Attempt each loop once (identified by header).
        let mut attempted: HashSet<BlockId> = HashSet::new();
        loop {
            let cfg = Cfg::compute(func);
            let dom = DomTree::compute(&cfg);
            let forest = LoopForest::compute(func, &cfg, &dom);
            let mut did = false;
            for lid in forest.ids() {
                let header = forest.get(lid).header;
                if attempted.contains(&header) {
                    continue;
                }
                attempted.insert(header);
                if classify_loop(func, &forest, lid) == UnrollKind::While && !config.unroll_while {
                    continue;
                }
                let body = static_body_size(func, &forest, lid);
                let factor = choose_unroll_factor(body, MIN_BODY_SIZE, UNROLL_MAX_FACTOR);
                if factor < 2 {
                    continue;
                }
                // Growth-cap check: unrolling by `factor` adds roughly
                // `factor - 1` extra copies of the loop body.
                let body_insts: usize = forest
                    .get(lid)
                    .blocks
                    .iter()
                    .map(|&bb| func.block(bb).insts.len())
                    .sum();
                let projected = func_inst_count(func) + body_insts * (factor - 1);
                if projected > growth_limit {
                    diags.push(Diagnostic::for_loop(
                        Stage::Preprocess,
                        Severity::Warning,
                        func_id,
                        header,
                        format!(
                            "unroll x{factor} skipped: projected {projected} insts exceeds \
                             code-growth cap of {growth_limit}"
                        ),
                    ));
                    continue;
                }
                if unroll_loop(func, lid, factor).is_ok() {
                    unroll_factors.insert((func_id, header), factor);
                    spt_ir::passes::cleanup(func);
                    spt_ir::passes::loop_simplify(func);
                    did = true;
                    break; // forest invalidated
                }
            }
            if !did {
                break;
            }
        }
    }
}

/// One profiling run of `input` over `module`, value-profiling `targets`:
/// stage 3, and the re-profile after SVP rewrites.
fn profile(
    module: &Module,
    input: &ProfilingInput,
    config: &CompilerConfig,
    targets: &[(FuncId, InstId, Ty)],
) -> Result<ProfileCollector, PipelineError> {
    crate::fail_point!("pipeline::profile", &input.entry, |msg: String| {
        PipelineError::Interp(InterpError::Malformed(format!("failpoint: {msg}")))
    });
    let mut interp = Interp::new(module);
    interp.fuel = config.budget.interp_fuel;
    let mut collector = ProfileCollector::with_value_targets(targets.iter().copied());
    // One shadow cell per memory cell, allocated once.
    collector.deps = DepProfile::with_cells(module.memory_layout().1);
    interp.run(&input.entry, &input.args, &mut collector)?;
    Ok(collector)
}

/// Each function's CFG and loop forest, in function order: built once per
/// analysis pass and shared by the SVP carrier search and every loop's
/// analysis.
fn loop_forests(module: &Module) -> Vec<(Cfg, LoopForest)> {
    module
        .funcs
        .iter()
        .map(|func| {
            let cfg = Cfg::compute(func);
            let forest = LoopForest::compute(func, &cfg, &DomTree::compute(&cfg));
            (cfg, forest)
        })
        .collect()
}

/// Pass 1 over every loop of every function, against the functions'
/// [`loop_forests`]. Loop analyses are mutually independent, so they fan
/// out over [`crate::parallel::parallel_map`]; results come back in
/// (function, loop) discovery order, making the output — and every report
/// built from it — identical to a sequential run.
///
/// Fault isolation: each loop's analysis runs under [`catch_unwind`], so a
/// panic degrades that single loop to a failed [`Candidate`] — with a
/// deterministic [`Diagnostic`] — while every other loop's analysis is
/// unaffected. Diagnostics are built at the merge, in item order, never
/// through a shared sink, keeping the stream byte-identical across
/// `SPT_THREADS` settings.
fn analyze_module(
    module: &Module,
    forests: &[(Cfg, LoopForest)],
    collector: &ProfileCollector,
    config: &CompilerConfig,
    cache: Option<&Store>,
    timings: &mut StageTimings,
    diags: &mut Vec<Diagnostic>,
) -> Vec<Candidate> {
    // Function-granular cache probe: each function's unit is keyed by its
    // own content hash (the Merkle leaf) plus the analysis context — the
    // configuration, every function's effect summary, and this function's
    // slice of the profiles. Hits skip all of the function's loop analyses;
    // only misses become parallel work items below, so editing one function
    // of an N-function module re-analyzes one function, not N.
    enum Plan {
        Hit(Arc<FuncAnalysisUnit>),
        Miss { key: Option<u64> },
    }
    let module_ctx = cache.map(|_| ModuleContext::new(module, collector, config));
    let mut plans: Vec<Plan> = Vec::with_capacity(forests.len());
    let mut items: Vec<(FuncId, LoopId)> = Vec::new();
    for (func_id, (_, forest)) in module.func_ids().zip(forests) {
        let plan = match (cache, &module_ctx) {
            (Some(cache), Some(ctx)) => {
                timings.func_units_total += 1;
                let func = module.func(func_id);
                let key = func_unit_key(
                    func.content_hash(),
                    func_id.index() as u64,
                    ctx.func_context_hash(func, func_id, collector),
                );
                match cache.get::<FuncAnalysisUnit>(key) {
                    Some((unit, _)) if unit_matches_forest(&unit, forest) => {
                        timings.func_analysis_hits += 1;
                        Plan::Hit(unit)
                    }
                    _ => {
                        timings.func_analysis_misses += 1;
                        Plan::Miss { key: Some(key) }
                    }
                }
            }
            _ => Plan::Miss { key: None },
        };
        if let Plan::Miss { .. } = plan {
            items.extend(forest.ids().map(|lid| (func_id, lid)));
        }
        plans.push(plan);
    }
    let results = crate::parallel::parallel_map(&items, |&(func_id, lid)| {
        let (cfg, forest) = &forests[func_id.index()];
        let l = forest.get(lid);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            crate::fail_point!(
                "pipeline::analysis",
                &format!("{}@{}", module.func(func_id).name, l.header)
            );
            analyze_loop(module, func_id, cfg, forest, lid, collector, config)
        }));
        match outcome {
            Ok(frag) => (frag, None),
            Err(payload) => {
                // The conservative stand-in: non-canonical (never
                // transformable), infinite cost, empty partition.
                let frag = LoopFragment {
                    header: l.header,
                    depth: l.depth,
                    parent_header: l.parent.map(|p| forest.get(p).header),
                    body_size: 0,
                    num_vcs: 0,
                    cost: f64::INFINITY,
                    prefork_size: 0,
                    move_insts: Vec::new(),
                    replicate_insts: Vec::new(),
                    skipped_too_many_vcs: false,
                    canonical: false,
                    search_visited: 0,
                    search_budget_exhausted: false,
                };
                (frag, Some(panic_message(&*payload)))
            }
        }
    });

    // Merge per function, in function order, so the output (candidates and
    // diagnostics alike) is byte-identical to an all-miss run. Hits yield
    // their stored fragments; misses consume their computed results in item
    // order and, when every loop's analysis completed (a panic is
    // environmental, not a property of the inputs), store the fresh unit
    // for the next compile.
    let mut results = results.into_iter();
    let mut loops: Vec<Candidate> = Vec::new();
    for ((func_id, (_, forest)), plan) in module.func_ids().zip(forests).zip(plans) {
        let fragments: Vec<(LoopFragment, Option<String>)> = match plan {
            Plan::Hit(unit) => Arc::unwrap_or_clone(unit)
                .fragments
                .into_iter()
                .map(|frag| (frag, None))
                .collect(),
            Plan::Miss { key } => {
                let fresh: Vec<_> = results.by_ref().take(forest.ids().count()).collect();
                if let (Some(cache), Some(key)) = (cache, key) {
                    if fresh.iter().all(|(_, panic)| panic.is_none()) {
                        let fragments = fresh.iter().map(|(frag, _)| frag.clone()).collect();
                        cache.put(key, Arc::new(FuncAnalysisUnit { fragments }));
                    }
                }
                fresh
            }
        };
        for (loop_id, (frag, panic)) in forest.ids().zip(fragments) {
            if let Some(msg) = &panic {
                diags.push(Diagnostic::for_loop(
                    Stage::Analysis,
                    Severity::Error,
                    func_id,
                    frag.header,
                    format!("recovered panic during loop analysis: {msg}; loop not speculated"),
                ));
            }
            if frag.search_budget_exhausted {
                diags.push(Diagnostic::for_loop(
                    Stage::Analysis,
                    Severity::Warning,
                    func_id,
                    frag.header,
                    format!(
                        "partition search budget exhausted after {} visited states; \
                         keeping best partition found so far",
                        frag.search_visited
                    ),
                ));
            }
            loops.push(Candidate {
                func: func_id,
                loop_id,
                frag,
                svp_applied: false,
                failed: panic.is_some(),
            });
        }
    }
    loops
}

/// Builds the cost model and searches the optimal partition for one loop.
fn analyze_loop(
    module: &Module,
    func_id: FuncId,
    cfg: &Cfg,
    forest: &LoopForest,
    loop_id: LoopId,
    collector: &ProfileCollector,
    config: &CompilerConfig,
) -> LoopFragment {
    let func = module.func(func_id);
    let l = forest.get(loop_id);
    let header = l.header;
    let canonical = l.preheader(cfg).is_some() && l.latches.len() == 1;

    let profiles = Profiles {
        edges: Some(&collector.edges),
        deps: config.use_dep_profile.then_some(&collector.deps),
    };
    let graph = DepGraph::build(
        module,
        func_id,
        loop_id,
        profiles,
        &DepGraphConfig::default(),
    );
    let body_size = graph.body_size;
    let model = LoopCostModel::new(graph);
    let num_vcs = model.vcs().len();

    let search_config = SearchConfig {
        max_prefork_size: ((body_size as f64) * config.prefork_frac) as u64,
        max_vcs: config.max_vcs,
        max_visited: config.budget.search_max_visited,
        ..SearchConfig::default()
    };
    let result = optimal_partition(&model, &search_config);

    // Resolve node sets to instruction sets, forcing in (a) the header-test
    // closure — the pre-fork region owns the per-iteration exit check — and
    // (b) the closure of header-block definitions that are live outside the
    // loop: after the transformation the loop exits from the *cloned*
    // header, so the exiting iteration's value of such a definition only
    // exists if the pre-fork region computes it.
    let mut effective_nodes: Vec<usize> = result.partition.nodes();
    let mut forced: Vec<usize> = Vec::new();
    if let Some(term) = func.terminator(header) {
        if let Some(&tnode) = model.graph.index.get(&term) {
            forced.push(tnode);
        }
    }
    {
        // Pass 1 never mutates the function, so the caller's forest is still
        // valid — no need to recompute CFG/dominators/forest per loop.
        let loop_blocks: HashSet<BlockId> = forest.get(loop_id).blocks.iter().copied().collect();
        let mut used_outside: HashSet<InstId> = HashSet::new();
        for bb in func.block_ids() {
            if loop_blocks.contains(&bb) {
                continue;
            }
            for &i in &func.block(bb).insts {
                func.inst(i).kind.for_each_operand(|op| {
                    if let spt_ir::Operand::Inst(d) = op {
                        used_outside.insert(d);
                    }
                });
            }
        }
        for (k, &inst) in model.graph.nodes.iter().enumerate() {
            if model.graph.node_block[k] == header && used_outside.contains(&inst) {
                forced.push(k);
            }
        }
    }
    let mut live_out_closure_legal = true;
    if !forced.is_empty() {
        let cl = model.graph.closure(&forced);
        live_out_closure_legal = model.graph.closure_is_legal(&cl);
        for n in cl {
            if !effective_nodes.contains(&n) {
                effective_nodes.push(n);
            }
        }
    }
    let mut move_insts: Vec<InstId> = Vec::new();
    let mut replicate_insts: Vec<InstId> = Vec::new();
    for &n in &effective_nodes {
        let inst = model.graph.nodes[n];
        if model.graph.class[n] == NodeClass::Branch {
            replicate_insts.push(inst);
        } else {
            move_insts.push(inst);
        }
    }
    move_insts.sort_unstable();
    replicate_insts.sort_unstable();
    let prefork_size = model.graph.set_size(&effective_nodes);

    LoopFragment {
        header,
        depth: l.depth,
        parent_header: l.parent.map(|p| forest.get(p).header),
        body_size,
        num_vcs,
        cost: result.cost,
        prefork_size,
        move_insts,
        replicate_insts,
        skipped_too_many_vcs: result.skipped_too_many_vcs,
        canonical: canonical && live_out_closure_legal,
        search_visited: result.visited,
        search_budget_exhausted: result.budget_exhausted,
    }
}

/// One SVP candidate: the latch-edge carrier of an `I64` phi in the header
/// of a single-latch loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SvpCarrier {
    /// Owning function.
    func: FuncId,
    /// Loop header holding the phi.
    header: BlockId,
    /// The header phi SVP would predict.
    phi: InstId,
    /// The definition flowing into `phi` along the latch edge — the value
    /// the profile watches.
    carrier: InstId,
}

/// Every SVP candidate of `module`, whose [`loop_forests`] are `forests`,
/// in function, loop-forest and header instruction order. Stage 3
/// value-profiles all of them in its one profiling run; stage 5
/// ([`svp_targets`]) narrows them by cost.
fn svp_carriers(module: &Module, forests: &[(Cfg, LoopForest)]) -> Vec<SvpCarrier> {
    let mut out = Vec::new();
    for (fid, (_, forest)) in module.func_ids().zip(forests) {
        let func = module.func(fid);
        for lid in forest.ids() {
            let l = forest.get(lid);
            let latch = match l.latches.as_slice() {
                [single] => *single,
                _ => continue,
            };
            for &phi in &func.block(l.header).insts {
                let spt_ir::InstKind::Phi { args } = &func.inst(phi).kind else {
                    continue;
                };
                if func.inst(phi).ty != Some(Ty::I64) {
                    continue; // integer prediction only
                }
                for (pred, v) in args {
                    if let (true, spt_ir::Operand::Inst(carrier)) = (*pred == latch, v) {
                        out.push(SvpCarrier {
                            func: fid,
                            header: l.header,
                            phi,
                            carrier: *carrier,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Stage 5, selection half: the [`svp_carriers`] of loops that are
/// plausible except for cost (or a too-large pre-fork region) — SVP exists
/// to remove exactly those residual dependences — in analysis order.
fn svp_targets(
    config: &CompilerConfig,
    loops: &[Candidate],
    carriers: &[SvpCarrier],
) -> Vec<SvpCarrier> {
    let mut by_loop: HashMap<(FuncId, BlockId), Vec<SvpCarrier>> = HashMap::new();
    for c in carriers {
        by_loop.entry((c.func, c.header)).or_default().push(*c);
    }
    let mut out = Vec::new();
    for Candidate { func, frag: a, .. } in loops {
        if !a.canonical || a.skipped_too_many_vcs {
            continue;
        }
        if a.body_size < MIN_BODY_SIZE || a.body_size > config.max_body_size {
            continue;
        }
        let needs_help = a.cost > config.cost_frac * a.body_size as f64
            || a.prefork_size as f64 > config.prefork_frac * a.body_size as f64;
        if let (true, Some(cs)) = (needs_help, by_loop.get(&(*func, a.header))) {
            out.extend_from_slice(cs);
        }
    }
    out
}

/// Stage 5, rewrite half: given value-profile results, rewrite the
/// predictable carriers. Returns `true` when anything was rewritten.
///
/// Each rewrite is fault-isolated: `apply_svp` runs under [`catch_unwind`]
/// against a snapshot of the function (and of the global table, since the
/// predictor cell is a new global), so a contained panic rolls that one
/// loop back and records a diagnostic instead of failing the compile.
fn svp_rewrite(
    module: &mut Module,
    targets: Vec<SvpCarrier>,
    vp: &ValueProfile,
    svp_headers: &mut HashSet<(FuncId, BlockId)>,
    diags: &mut Vec<Diagnostic>,
) -> bool {
    // Rewrite predictable carriers.
    let mut rewrote = false;
    for SvpCarrier {
        func: func_id,
        header,
        phi,
        carrier,
    } in targets
    {
        let (pattern, ratio) = vp.pattern(func_id, carrier);
        if matches!(pattern, spt_profile::ValuePattern::Unpredictable) {
            continue; // no evidence of a pattern — routine, not a degradation
        }
        if vp.samples(func_id, carrier) < 8 {
            continue; // not enough evidence
        }
        // Re-locate the loop (earlier rewrites may have restructured).
        let lid = {
            let func = module.func(func_id);
            let cfg = Cfg::compute(func);
            let dom = DomTree::compute(&cfg);
            let forest = LoopForest::compute(func, &cfg, &dom);
            let found = forest.ids().find(|&l| forest.get(l).header == header);
            found
        };
        let Some(lid) = lid else {
            diags.push(Diagnostic::for_loop(
                Stage::Svp,
                Severity::Warning,
                func_id,
                header,
                "predictable loop no longer present after earlier SVP rewrites; skipped",
            ));
            continue;
        };
        let miss = (1.0 - ratio).clamp(0.0, 1.0);
        let func_snapshot = module.func(func_id).clone();
        let globals_len = module.globals.len();
        let applied = catch_unwind(AssertUnwindSafe(|| {
            crate::fail_point!(
                "pipeline::svp",
                &format!("{}@{}", module.func(func_id).name, header)
            );
            spt_transform::apply_svp(module, func_id, lid, phi, pattern, miss)
        }));
        match applied {
            Ok(Ok(_)) => {
                svp_headers.insert((func_id, header));
                rewrote = true;
            }
            Ok(Err(e)) => {
                diags.push(Diagnostic::for_loop(
                    Stage::Svp,
                    Severity::Warning,
                    func_id,
                    header,
                    format!("SVP rewrite declined: {e}; loop keeps its original carrier"),
                ));
            }
            Err(payload) => {
                *module.func_mut(func_id) = func_snapshot;
                module.globals.truncate(globals_len);
                diags.push(Diagnostic::for_loop(
                    Stage::Svp,
                    Severity::Error,
                    func_id,
                    header,
                    format!(
                        "recovered panic during SVP rewrite: {}; function restored",
                        panic_message(&*payload)
                    ),
                ));
            }
        }
    }
    rewrote
}

/// Pass 2: apply the §6.1 selection criteria and resolve nest conflicts.
/// The candidates and `collector` describe the same module, so a
/// candidate's loop id is also its id in the loop profile.
fn select(
    module: &Module,
    config: &CompilerConfig,
    collector: &ProfileCollector,
    loops: &[Candidate],
    unroll_factors: &HashMap<(FuncId, BlockId), usize>,
    diags: &mut Vec<Diagnostic>,
) -> Vec<LoopRecord> {
    let mut records: Vec<LoopRecord> = Vec::with_capacity(loops.len());
    for c in loops {
        let a = &c.frag;
        let stats = collector.loops.stats(c.func, c.loop_id);
        let outcome = if c.failed {
            LoopOutcome::AnalysisFailed
        } else if !a.canonical {
            LoopOutcome::NotCanonical
        } else if a.skipped_too_many_vcs {
            LoopOutcome::TooManyVcs
        } else if stats.invocations == 0 {
            LoopOutcome::NotProfiled
        } else if a.body_size < MIN_BODY_SIZE {
            LoopOutcome::BodyTooSmall
        } else if a.body_size > config.max_body_size {
            LoopOutcome::BodyTooLarge
        } else if stats.avg_trip_count() < MIN_TRIP_COUNT {
            LoopOutcome::TripCountTooSmall
        } else if (a.prefork_size as f64) > config.prefork_frac * a.body_size as f64 {
            LoopOutcome::PreForkTooLarge
        } else if a.cost > config.cost_frac * a.body_size as f64 {
            LoopOutcome::CostTooHigh
        } else {
            LoopOutcome::Selected
        };
        records.push(LoopRecord {
            func: c.func,
            func_name: module.func(c.func).name.clone(),
            loop_id: c.loop_id,
            header: a.header,
            depth: a.depth,
            body_size: a.body_size,
            num_vcs: a.num_vcs,
            cost: a.cost,
            prefork_size: a.prefork_size,
            avg_trip_count: stats.avg_trip_count(),
            dyn_body_insts: stats.body_insts_per_iter(),
            coverage: collector.loops.coverage(c.func, c.loop_id),
            svp_applied: c.svp_applied,
            unroll_factor: unroll_factors
                .get(&(c.func, a.header))
                .copied()
                .unwrap_or(1),
            search_visited: a.search_visited,
            outcome,
        });
    }

    // Nest conflicts: among selected relatives keep the best benefit.
    let benefit = |r: &LoopRecord| -> f64 {
        let body = r.body_size.max(1) as f64;
        r.coverage * ((body - r.prefork_size as f64 - r.cost).max(0.0) / body)
    };
    // Ancestor relation via parent chains captured at analysis time.
    let parent_of: HashMap<(FuncId, BlockId), Option<BlockId>> = loops
        .iter()
        .map(|c| ((c.func, c.frag.header), c.frag.parent_header))
        .collect();
    let is_ancestor = |anc: (FuncId, BlockId), desc: (FuncId, BlockId)| -> bool {
        if anc.0 != desc.0 {
            return false;
        }
        let mut cur = parent_of.get(&desc).copied().flatten();
        while let Some(h) = cur {
            if h == anc.1 {
                return true;
            }
            cur = parent_of.get(&(desc.0, h)).copied().flatten();
        }
        false
    };
    let selected_idx: Vec<usize> = records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.outcome == LoopOutcome::Selected)
        .map(|(i, _)| i)
        .collect();
    for &i in &selected_idx {
        for &j in &selected_idx {
            if i == j {
                continue;
            }
            let (a, b) = (&records[i], &records[j]);
            if a.outcome != LoopOutcome::Selected || b.outcome != LoopOutcome::Selected {
                continue;
            }
            let related = is_ancestor((a.func, a.header), (b.func, b.header))
                || is_ancestor((b.func, b.header), (a.func, a.header));
            if related {
                let loser = if benefit(a) >= benefit(b) { j } else { i };
                records[loser].outcome = LoopOutcome::NestConflict;
            }
        }
    }

    // Every rejection gets a structured record: no silent non-selection.
    for r in &records {
        if r.outcome == LoopOutcome::Selected {
            continue;
        }
        diags.push(Diagnostic::for_loop(
            Stage::Selection,
            Severity::Info,
            r.func,
            r.header,
            format!("not selected: {}", r.outcome.label()),
        ));
    }
    records
}

/// Static body size of a loop in latency units.
fn static_body_size(func: &spt_ir::Function, forest: &LoopForest, loop_id: LoopId) -> u64 {
    forest
        .get(loop_id)
        .blocks
        .iter()
        .map(|&bb| {
            func.block(bb)
                .insts
                .iter()
                .map(|&i| func.inst(i).latency().max(1))
                .sum::<u64>()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIMPLE: &str = "
        global data[4096]: int;
        global out[4096]: int;
        fn seed_data(n: int) {
            let v = 12345;
            for (let i = 0; i < n; i = i + 1) {
                v = (v * 1103515245 + 12345) % 65536;
                data[i] = v;
            }
        }
        fn kernel(n: int) -> int {
            let s = 0;
            for (let i = 0; i < n; i = i + 1) {
                let x = data[i];
                let t = (x * x) % 97 + (x / 3) * 2 - (x % 7);
                let u = (t * 13 + 7) % 1000;
                let w = (u * u + x) % 4096;
                out[i] = w + t - u + x * 2 + (w % 5) * (t % 11);
                s = s + w % 17 + t % 19;
            }
            return s;
        }
        fn main(n: int) -> int {
            seed_data(n);
            return kernel(n);
        }
    ";

    fn run_module(module: &Module, n: i64) -> i64 {
        let interp = Interp::new(module);
        interp
            .run("main", &[Val::from_i64(n)], &mut spt_profile::NoProfiler)
            .unwrap()
            .ret
            .unwrap()
            .as_i64()
    }

    #[test]
    fn best_config_selects_and_preserves_semantics() {
        let input = ProfilingInput::new("main", [600]);
        let result =
            compile_and_transform(SIMPLE, &input, &CompilerConfig::best()).expect("pipeline");
        assert!(
            !result.report.selected.is_empty(),
            "kernel loop should be selected: {:#?}",
            result.report.loops
        );
        // Transformed module computes the same results as the baseline.
        for n in [0i64, 5, 100, 999] {
            assert_eq!(
                run_module(&result.module, n),
                run_module(&result.baseline, n)
            );
        }
        // SPT markers present.
        let has_fork = result.module.funcs.iter().any(|f| {
            f.block_ids().any(|bb| {
                f.block(bb)
                    .insts
                    .iter()
                    .any(|&i| matches!(f.inst(i).kind, spt_ir::InstKind::SptFork { .. }))
            })
        });
        assert!(has_fork);
    }

    #[test]
    fn basic_config_is_more_conservative() {
        let input = ProfilingInput::new("main", [600]);
        let basic =
            compile_and_transform(SIMPLE, &input, &CompilerConfig::basic()).expect("pipeline");
        let best =
            compile_and_transform(SIMPLE, &input, &CompilerConfig::best()).expect("pipeline");
        assert!(basic.report.selected.len() <= best.report.selected.len());
        for n in [0i64, 64] {
            assert_eq!(run_module(&basic.module, n), run_module(&basic.baseline, n));
        }
    }

    #[test]
    fn report_covers_all_loops() {
        let input = ProfilingInput::new("main", [300]);
        let result =
            compile_and_transform(SIMPLE, &input, &CompilerConfig::best()).expect("pipeline");
        // Both functions' loops appear (seed_data's and kernel's).
        assert!(result.report.loops.len() >= 2);
        for l in &result.report.loops {
            assert!(!l.func_name.is_empty());
        }
        assert!(result.report.profile_total_cycles > 0);
    }

    #[test]
    fn pointer_chase_rejected_by_cost_model() {
        // Every iteration truly depends on the previous through memory with
        // probability 1; no partition helps. The cost-driven selection must
        // refuse it.
        let src = "
            global next[512]: int;
            global acc: int;
            fn build(n: int) {
                for (let i = 0; i < n; i = i + 1) { next[i] = (i + 7) % n; }
            }
            fn chase(n: int, steps: int) -> int {
                let cur = 0;
                let s = 0;
                for (let k = 0; k < steps; k = k + 1) {
                    cur = next[cur];
                    next[cur] = (cur + s) % n;
                    s = s + cur % 13 + (cur * cur) % 7 + (s % 11) * 3 + cur / 5 + (s / 7) % 23;
                }
                return s;
            }
            fn main(n: int) -> int {
                build(n);
                return chase(n, 400);
            }
        ";
        let input = ProfilingInput::new("main", [256]);
        let result = compile_and_transform(src, &input, &CompilerConfig::best()).expect("pipeline");
        let chase_selected = result
            .report
            .loops
            .iter()
            .any(|l| l.func_name == "chase" && l.outcome == LoopOutcome::Selected);
        assert!(
            !chase_selected,
            "true recurrence must not be speculated: {:#?}",
            result.report.loops
        );
        for n in [8i64, 256] {
            assert_eq!(
                run_module(&result.module, n),
                run_module(&result.baseline, n)
            );
        }
    }

    #[test]
    fn svp_enables_strided_recurrence() {
        // The carried index advances by a fixed stride through a call-free
        // but division-heavy update that is too expensive to move; SVP
        // predicts it.
        let src = "
            global table[8192]: int;
            fn main(n: int) -> int {
                let idx = 0;
                let s = 0;
                let k = 0;
                while (k < n) {
                    let a = table[idx % 8192];
                    let b = (a * 3 + idx) % 257;
                    let c = (b * b + a) % 127;
                    s = s + b + c + (a % 31) * 2 + (c * b) % 19 + (s % 7);
                    table[(idx + 13) % 8192] = s % 251;
                    idx = idx + 3;
                    k = k + 1;
                }
                return s;
            }
        ";
        let input = ProfilingInput::new("main", [500]);
        let best = compile_and_transform(src, &input, &CompilerConfig::best()).expect("pipeline");
        for n in [0i64, 10, 333] {
            assert_eq!(run_module(&best.module, n), run_module(&best.baseline, n));
        }
    }

    #[test]
    fn anticipated_unrolls_while_loops() {
        // A small-bodied while loop: too small for basic/best, unrolled (and
        // hence potentially selected) by anticipated.
        let src = "
            global a[4096]: int;
            fn main(n: int) -> int {
                let i = 0;
                let s = 0;
                while (i < n) {
                    s = s + a[i] + i % 3;
                    i = i + 1;
                }
                return s;
            }
        ";
        let input = ProfilingInput::new("main", [2000]);
        let best = compile_and_transform(src, &input, &CompilerConfig::best()).expect("ok");
        let ant = compile_and_transform(src, &input, &CompilerConfig::anticipated()).expect("ok");
        let best_small = best
            .report
            .loops
            .iter()
            .filter(|l| l.outcome == LoopOutcome::BodyTooSmall)
            .count();
        let ant_small = ant
            .report
            .loops
            .iter()
            .filter(|l| l.outcome == LoopOutcome::BodyTooSmall)
            .count();
        assert!(
            ant_small < best_small || !ant.report.selected.is_empty(),
            "while-unrolling must rescue small while loops: best={best:?} ant={ant:?}",
            best = best.report.outcome_histogram(),
            ant = ant.report.outcome_histogram()
        );
        for n in [0i64, 7, 1024] {
            assert_eq!(run_module(&ant.module, n), run_module(&ant.baseline, n));
        }
    }

    /// Stage 3 value-profiles every SVP carrier candidate in the profiling
    /// run itself. Per target, that folded profile must read exactly what a
    /// separate run watching only the stage-5 targets reads.
    #[test]
    fn folded_value_profile_matches_a_targets_only_run_on_every_program() {
        let config = CompilerConfig::best();
        let mut pinned = 0usize;
        for b in spt_bench_suite::suite() {
            let mut module = spt_frontend::compile(b.source).expect("compiles");
            let input = ProfilingInput::new(b.entry, [b.train_arg]);
            let mut diags = Vec::new();
            preprocess(&mut module, &config, &mut HashMap::new(), &mut diags);

            let forests = loop_forests(&module);
            let carriers = svp_carriers(&module, &forests);
            let folded_targets: Vec<_> = carriers
                .iter()
                .map(|c| (c.func, c.carrier, Ty::I64))
                .collect();
            let mut timings = StageTimings::default();
            let mut folded = profile(&module, &input, &config, &folded_targets).expect("profiles");
            folded.values.threshold = SVP_THRESHOLD;
            let loops = analyze_module(
                &module,
                &forests,
                &folded,
                &config,
                None,
                &mut timings,
                &mut diags,
            );
            let targets = svp_targets(&config, &loops, &carriers);

            let mut alone = ValueProfile::new(targets.iter().map(|c| (c.func, c.carrier, Ty::I64)));
            alone.threshold = SVP_THRESHOLD;
            Interp::new(&module)
                .run(&input.entry, &input.args, &mut alone)
                .expect("value-profiling run");
            for c in &targets {
                let (fp, fr) = folded.values.pattern(c.func, c.carrier);
                let (ap, ar) = alone.pattern(c.func, c.carrier);
                assert_eq!(fp, ap, "{}: pattern of {}", b.name, c.carrier);
                assert_eq!(
                    fr.to_bits(),
                    ar.to_bits(),
                    "{}: ratio of {}",
                    b.name,
                    c.carrier
                );
                assert_eq!(
                    folded.values.samples(c.func, c.carrier),
                    alone.samples(c.func, c.carrier),
                    "{}: samples of {}",
                    b.name,
                    c.carrier
                );
            }
            pinned += targets.len();
        }
        assert!(pinned > 0, "no suite program has an SVP target");
    }

    /// Building one loop's dependence graph again yields the same edges in
    /// the same order: the cost graph multiplies survival factors in edge
    /// order, so a cold compile and a stored unit must agree on it.
    #[test]
    fn dependence_graphs_rebuild_in_one_edge_order() {
        let config = CompilerConfig::best();
        let mut checked: HashSet<String> = HashSet::new();
        for b in spt_bench_suite::suite() {
            let mut module = spt_frontend::compile(b.source).expect("compiles");
            let input = ProfilingInput::new(b.entry, [b.train_arg]);
            preprocess(&mut module, &config, &mut HashMap::new(), &mut Vec::new());
            let run = profile(&module, &input, &config, &[]).expect("profiles");
            let profiles = Profiles {
                edges: Some(&run.edges),
                deps: Some(&run.deps),
            };
            for f in module.func_ids() {
                let func = module.func(f);
                let cfg = Cfg::compute(func);
                let forest = LoopForest::compute(func, &cfg, &DomTree::compute(&cfg));
                for lid in forest.ids() {
                    let build = || {
                        let g =
                            DepGraph::build(&module, f, lid, profiles, &DepGraphConfig::default());
                        (g.intra_edges, g.cross_edges)
                    };
                    let first = build();
                    let name = format!("{}@{}", func.name, forest.get(lid).header);
                    for _ in 0..8 {
                        assert_eq!(build(), first, "{}: {name} rebuilt differently", b.name);
                    }
                    checked.insert(name);
                }
            }
        }
        // The two loops whose edge order once varied between builds.
        for name in ["deflate@bb1", "anneal@bb1"] {
            assert!(checked.contains(name), "{name} was not checked");
        }
    }
}
