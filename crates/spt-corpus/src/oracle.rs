//! The six differential oracles every corpus module must satisfy.
//!
//! For one module the battery checks, in order:
//!
//! 1. **No escaped panic** — `compile_and_transform` and every execution
//!    run is wrapped in `catch_unwind`; a payload reaching the corpus is a
//!    broken fault-isolation boundary.
//! 2. **No clean failure** — the generator only emits valid programs, so a
//!    `PipelineError` on a generated module is a compiler bug too (mutated
//!    or hand-written inputs go through the frontend fuzz path instead).
//! 3. **Semantics** — the transformed module must compute exactly the
//!    baseline's return value and memory image at every check argument
//!    (the transformed image may *append* SVP predictor globals; the
//!    baseline prefix must match bit-for-bit).
//! 4. **Engine identity** — the transformed module runs bit-identically on
//!    each engine and its retained reference: the interpreter against
//!    `ReferenceInterp` (result, memory image and every profile summary),
//!    the simulator against `ReferenceSimulator` (every `SimResult` field).
//! 5. **Report identity** — the `CompilationReport` (via its `Debug`
//!    rendering, diagnostics included) is byte-identical across
//!    `SPT_THREADS=1` vs. multi-threaded compiles, and across
//!    cache-off/cold-cache/warm-cache compiles.
//! 6. **Search exactness** — every loop of the baseline, under its training
//!    profile with the dependence profile on and off and at pre-fork
//!    budgets from 2% to all of the body, gets bit-for-bit the same
//!    partition from `optimal_partition` as from the from-scratch
//!    `optimal_partition_reference` (cost bits, chosen set, pre-fork mask
//!    and size), in no more visited nodes.
//!
//! The worker-count knob is process-global, so the battery serializes that
//! sub-oracle through [`global_state_lock`]; racing *observers* in other
//! corpus workers are safe precisely because the property under test
//! promises the global does not change results.

use crate::gen::GeneratedProgram;
use spt_core::diag::panic_message;
use spt_core::parallel::set_thread_count_override;
use spt_core::pipeline::{transform_module_timed, PipelineError, ProfilingInput, StageTimings};
use spt_core::{CompilationReport, CompilerConfig, Severity};
use spt_ir::Module;
use spt_profile::{Interp, NoProfiler, ProfileCollector, ReferenceInterp, Val};
use spt_sim::{MachineConfig, ReferenceSimulator, SptSimulator};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Serializes every mutation of process-global execution state
/// (worker-count override, failpoint registry) across corpus workers and the
/// sweep.
pub fn global_state_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        // Holders only toggle overrides that their guards restore; a
        // poisoned lock carries no broken invariant.
        .unwrap_or_else(PoisonError::into_inner)
}

/// Which oracle a failure violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OracleKind {
    /// A panic escaped the pipeline or an execution engine.
    EscapedPanic,
    /// A clean `PipelineError` on a generator-produced (valid) module.
    CleanFailure,
    /// Transformed result diverged from the baseline.
    Semantics,
    /// An engine diverged from its reference.
    EngineDivergence,
    /// Report diverged across cache-off / cold / warm compiles.
    CacheDivergence,
    /// Report diverged across worker counts.
    ThreadDivergence,
    /// The partition search diverged from its from-scratch reference.
    SearchDivergence,
}

impl OracleKind {
    /// Stable kebab-case label (bucket keys, repro file names).
    pub fn label(self) -> &'static str {
        match self {
            OracleKind::EscapedPanic => "escaped-panic",
            OracleKind::CleanFailure => "clean-failure",
            OracleKind::Semantics => "semantics",
            OracleKind::EngineDivergence => "engine-divergence",
            OracleKind::CacheDivergence => "cache-divergence",
            OracleKind::ThreadDivergence => "thread-divergence",
            OracleKind::SearchDivergence => "search-divergence",
        }
    }
}

/// One oracle violation.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Which oracle.
    pub kind: OracleKind,
    /// Human-readable evidence (panic message, diverging values, …).
    pub detail: String,
}

/// A module under test: source plus how to run it. Built from a
/// [`GeneratedProgram`] for corpus seeds, or directly by the reducer and
/// the regression replayer.
#[derive(Clone, Debug)]
pub struct ProgramUnderTest {
    /// `minic` source.
    pub source: String,
    /// Entry function.
    pub entry: String,
    /// Training argument for the profiling run.
    pub train_arg: i64,
    /// Arguments the semantics oracle replays.
    pub args: Vec<i64>,
    /// Unique tag naming per-module scratch (cache directories).
    pub tag: String,
}

impl From<&GeneratedProgram> for ProgramUnderTest {
    fn from(p: &GeneratedProgram) -> Self {
        ProgramUnderTest {
            source: p.source.clone(),
            entry: p.entry.to_string(),
            train_arg: p.train_arg,
            args: p.check_args().to_vec(),
            tag: format!("seed-{}", p.seed),
        }
    }
}

/// Which oracles to run and with what pipeline configuration.
#[derive(Clone, Debug)]
pub struct CheckOptions {
    /// Base pipeline configuration (the cache-identity oracle overrides its
    /// artifact-store settings).
    pub config: CompilerConfig,
    /// Run the `SPT_THREADS`-invariance oracle (takes the global lock).
    pub check_threads: bool,
    /// Run the engine-versus-reference execution oracle.
    pub check_engines: bool,
    /// Run the cache-identity oracle, with per-module cache directories
    /// created under this root. `None` skips the oracle.
    pub cache_root: Option<PathBuf>,
}

impl Default for CheckOptions {
    fn default() -> Self {
        let mut config = CompilerConfig::best();
        // Corpus modules are small; a tighter fuel budget turns a
        // runaway-interpretation bug into a fast clean failure instead of
        // a stuck corpus.
        config.budget.interp_fuel = 50_000_000;
        CheckOptions {
            config,
            check_threads: true,
            check_engines: true,
            cache_root: None,
        }
    }
}

/// A full compile with panics contained: `Err(msg)` is an escaped panic,
/// `Ok(Err(_))` a clean pipeline error.
type CompileOutcome = Result<Result<Compiled, PipelineError>, String>;

/// The pieces of one successful compile the oracles consume.
struct Compiled {
    baseline: Module,
    module: Module,
    report: CompilationReport,
    timings: StageTimings,
}

fn compile(p: &ProgramUnderTest, config: &CompilerConfig) -> CompileOutcome {
    let input = ProfilingInput::new(p.entry.clone(), [p.train_arg]);
    catch_unwind(AssertUnwindSafe(|| {
        let baseline = spt_frontend::compile(&p.source)?;
        let mut module = baseline.clone();
        let (report, timings) = transform_module_timed(&mut module, &input, config)?;
        Ok(Compiled {
            baseline,
            module,
            report,
            timings,
        })
    }))
    .map_err(|payload| panic_message(payload.as_ref()))
}

/// Runs `entry(arg)` on `module`, containing panics. Returns the raw
/// return bits and the final memory image, so float divergence cannot hide
/// behind `==`.
fn execute(module: &Module, entry: &str, arg: i64) -> Result<(Option<u64>, Vec<u64>), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut interp = Interp::new(module);
        interp.fuel = 200_000_000;
        interp
            .run(entry, &[Val::from_i64(arg)], &mut NoProfiler)
            .map(|r| (r.ret.map(|v| v.0), r.memory))
            .map_err(|e| format!("execution failed: {e}"))
    }))
    .map_err(|payload| {
        format!(
            "panic during execution: {}",
            panic_message(payload.as_ref())
        )
    })?
}

/// Runs `entry(arg)` on both engines and their references, containing
/// panics, and describes the first divergence.
fn engine_divergence(module: &Module, entry: &str, arg: i64) -> Option<String> {
    const FUEL: u64 = 200_000_000;
    catch_unwind(AssertUnwindSafe(|| {
        let mut interp = Interp::new(module);
        interp.fuel = FUEL;
        let mut reference = ReferenceInterp::new(module);
        reference.fuel = FUEL;
        let args = [Val::from_i64(arg)];
        let (mut ep, mut rp) = (ProfileCollector::new(), ProfileCollector::new());
        let e = interp.run(entry, &args, &mut ep);
        let r = reference.run(entry, &args, &mut rp);
        if e != r {
            return Some(format!("interpreter diverged at arg {arg}: {e:?} vs {r:?}"));
        }
        if ep.loops.iter() != rp.loops.iter()
            || ep.deps.dep_counts_map() != rp.deps.dep_counts_map()
        {
            return Some(format!("profiles diverged at arg {arg}"));
        }
        if interp.run(entry, &args, &mut NoProfiler) != r {
            return Some(format!("unprofiled interpreter diverged at arg {arg}"));
        }
        let config = MachineConfig {
            fuel: FUEL,
            ..MachineConfig::default()
        };
        let e = SptSimulator::with_config(config.clone()).run(module, entry, &[arg]);
        let r = ReferenceSimulator::with_config(config).run(module, entry, &[arg]);
        let same = match (&e, &r) {
            (Ok(e), Ok(r)) => {
                (e.ret, e.cycles, e.insts, &e.memory, &e.loops)
                    == (r.ret, r.cycles, r.insts, &r.memory, &r.loops)
                    && e.cache_hit_rate.to_bits() == r.cache_hit_rate.to_bits()
                    && e.branch_miss_rate.to_bits() == r.branch_miss_rate.to_bits()
            }
            (Err(e), Err(r)) => e == r,
            _ => false,
        };
        (!same).then(|| format!("simulator diverged at arg {arg}: {e:?} vs {r:?}"))
    }))
    .unwrap_or_else(|payload| {
        Some(format!(
            "panic during engine comparison: {}",
            panic_message(payload.as_ref())
        ))
    })
}

/// Pre-fork budgets the search oracle tries, as fractions of the body.
const SEARCH_BUDGETS: [f64; 7] = [0.02, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0];

/// Node cap of the search oracle's reference runs. The reference walks
/// every set from scratch, so a loop whose reference search needs more is
/// not compared.
const SEARCH_REFERENCE_CAP: u64 = 200_000;

/// Searches every loop of `module` both ways (see oracle 6 in the module
/// docs), containing panics, and describes the first divergence.
fn search_divergence(module: &Module, entry: &str, train_arg: i64) -> Option<String> {
    use spt_cost::dep_graph::{DepGraph, DepGraphConfig, Profiles};
    use spt_cost::LoopCostModel;
    use spt_ir::{Cfg, DomTree, LoopForest};
    use spt_partition::{optimal_partition, optimal_partition_reference, SearchConfig};
    catch_unwind(AssertUnwindSafe(|| {
        // A run that stops early (fuel) still leaves a usable profile.
        let mut profile = ProfileCollector::new();
        let mut interp = Interp::new(module);
        interp.fuel = 50_000_000;
        let _ = interp.run(entry, &[Val::from_i64(train_arg)], &mut profile);
        for func_id in module.func_ids() {
            let func = module.func(func_id);
            let cfg = Cfg::compute(func);
            let forest = LoopForest::compute(func, &cfg, &DomTree::compute(&cfg));
            for lid in forest.ids() {
                for dep_profile in [false, true] {
                    let profiles = Profiles {
                        edges: Some(&profile.edges),
                        deps: dep_profile.then_some(&profile.deps),
                    };
                    let graph =
                        DepGraph::build(module, func_id, lid, profiles, &DepGraphConfig::default());
                    let model = LoopCostModel::new(graph);
                    for frac in SEARCH_BUDGETS {
                        let config = SearchConfig {
                            max_prefork_size: (model.body_size() as f64 * frac) as u64,
                            max_visited: SEARCH_REFERENCE_CAP,
                            ..SearchConfig::default()
                        };
                        let refr = optimal_partition_reference(&model, &config);
                        if refr.budget_exhausted {
                            continue;
                        }
                        let fast = optimal_partition(&model, &config);
                        let same = fast.cost.to_bits() == refr.cost.to_bits()
                            && fast.chosen == refr.chosen
                            && fast.partition.mask() == refr.partition.mask()
                            && fast.partition.size() == refr.partition.size()
                            && fast.visited <= refr.visited;
                        if !same {
                            return Some(format!(
                                "search of {}'s loop at block {} (dependence profile {}, \
                                 budget {}) diverged: chosen {:?} cost {} size {} in {} \
                                 nodes vs the reference's {:?} {} {} in {}",
                                func.name,
                                forest.get(lid).header.index(),
                                if dep_profile { "on" } else { "off" },
                                config.max_prefork_size,
                                fast.chosen,
                                fast.cost,
                                fast.partition.size(),
                                fast.visited,
                                refr.chosen,
                                refr.cost,
                                refr.partition.size(),
                                refr.visited,
                            ));
                        }
                    }
                }
            }
        }
        None
    }))
    .unwrap_or_else(|payload| {
        Some(format!(
            "panic during search comparison: {}",
            panic_message(payload.as_ref())
        ))
    })
}

/// Restores the worker-count override on drop.
struct ThreadRestore;
impl Drop for ThreadRestore {
    fn drop(&mut self) {
        set_thread_count_override(None);
    }
}

/// Runs the full oracle battery on one module. An empty vector means every
/// requested oracle held.
pub fn check_program(p: &ProgramUnderTest, opts: &CheckOptions) -> Vec<Failure> {
    let mut failures = Vec::new();

    // Oracles 1+2: the base compile itself.
    let base = match compile(p, &opts.config) {
        Err(panic) => {
            failures.push(Failure {
                kind: OracleKind::EscapedPanic,
                detail: format!("compile panicked: {panic}"),
            });
            return failures;
        }
        Ok(Err(e)) => {
            failures.push(Failure {
                kind: OracleKind::CleanFailure,
                detail: e.to_string(),
            });
            return failures;
        }
        Ok(Ok(c)) => c,
    };
    let base_report = format!("{:?}", base.report);

    // Oracle 3: baseline-vs-transformed semantics at every check argument.
    let is_panic = |r: &Result<(Option<u64>, Vec<u64>), String>| matches!(r, Err(m) if m.starts_with("panic during execution"));
    for &arg in &p.args {
        let b = execute(&base.baseline, &p.entry, arg);
        let t = execute(&base.module, &p.entry, arg);
        match (&b, &t) {
            (Ok((br, bm)), Ok((tr, tm))) => {
                if br != tr {
                    failures.push(Failure {
                        kind: OracleKind::Semantics,
                        detail: format!("return diverged at arg {arg}: {br:?} vs {tr:?}"),
                    });
                } else if tm.len() < bm.len() || tm[..bm.len()] != bm[..] {
                    failures.push(Failure {
                        kind: OracleKind::Semantics,
                        detail: format!("memory image diverged at arg {arg}"),
                    });
                }
            }
            _ if is_panic(&b) || is_panic(&t) => failures.push(Failure {
                kind: OracleKind::EscapedPanic,
                detail: format!("at arg {arg}: baseline {b:?}, transformed {t:?}"),
            }),
            // Matching clean failures (e.g. fuel exhaustion on both sides)
            // are consistent semantics, not a divergence.
            (Err(eb), Err(et)) if eb == et => {}
            _ => failures.push(Failure {
                kind: OracleKind::Semantics,
                detail: format!(
                    "execution outcome diverged at arg {arg}: baseline {b:?} vs transformed {t:?}"
                ),
            }),
        }
    }

    // Oracle 4: engine-versus-reference bit-identity on the transformed
    // module.
    if opts.check_engines {
        if let Some(detail) = engine_divergence(&base.module, &p.entry, p.train_arg) {
            failures.push(Failure {
                kind: OracleKind::EngineDivergence,
                detail,
            });
        }
    }

    // Oracle 5a: SPT_THREADS-invariant reports.
    if opts.check_threads {
        let _guard = global_state_lock();
        let _restore = ThreadRestore;
        let mut reports = Vec::new();
        for threads in [1usize, 4] {
            set_thread_count_override(Some(threads));
            reports.push((threads, compile(p, &opts.config)));
        }
        set_thread_count_override(None);
        for (threads, outcome) in reports {
            match outcome {
                Ok(Ok(c)) => {
                    let r = format!("{:?}", c.report);
                    if r != base_report {
                        failures.push(Failure {
                            kind: OracleKind::ThreadDivergence,
                            detail: format!("report at {threads} worker(s) differs from base"),
                        });
                    }
                }
                Ok(Err(e)) => failures.push(Failure {
                    kind: OracleKind::ThreadDivergence,
                    detail: format!(
                        "compile failed at {threads} worker(s) but succeeded at base: {e}"
                    ),
                }),
                Err(panic) => failures.push(Failure {
                    kind: OracleKind::EscapedPanic,
                    detail: format!("compile panicked at {threads} worker(s): {panic}"),
                }),
            }
        }
    }

    // Oracle 5b: cache-off / cold / warm report identity. The warm compile
    // must be served whole from its stored compile, and a third compile,
    // with the compile memos deleted, from the stored function units.
    if let Some(root) = &opts.cache_root {
        let dir = root.join(&p.tag);
        let _ = std::fs::remove_dir_all(&dir);
        let mut stored = opts.config.clone();
        stored.trace.enabled = true;
        stored.trace.cache_dir = Some(dir.clone());
        for mode in ["cold", "warm", "unit"] {
            if mode == "unit" {
                remove_compile_memos(&dir);
            }
            match compile(p, &stored) {
                Ok(Ok(c)) => {
                    let r = format!("{:?}", c.report);
                    if r != base_report {
                        failures.push(Failure {
                            kind: OracleKind::CacheDivergence,
                            detail: format!("{mode}-cache report differs from cache-off"),
                        });
                    }
                    let t = &c.timings;
                    // A compile a contained panic degraded is never stored.
                    let storable = c.report.max_severity() != Some(Severity::Error);
                    let missed = match mode {
                        "warm" if storable && t.compile_hits != 1 => {
                            Some("warm compile was not served from its stored compile")
                        }
                        "unit" if t.func_analysis_hits == 0 && t.func_analysis_misses > 0 => Some(
                            "recompile without its compile memo re-analyzed every function \
                             (store never hit)",
                        ),
                        _ => None,
                    };
                    if let Some(detail) = missed {
                        failures.push(Failure {
                            kind: OracleKind::CacheDivergence,
                            detail: detail.to_string(),
                        });
                    }
                }
                Ok(Err(e)) => failures.push(Failure {
                    kind: OracleKind::CacheDivergence,
                    detail: format!("{mode}-cache compile failed but cache-off succeeded: {e}"),
                }),
                Err(panic) => failures.push(Failure {
                    kind: OracleKind::EscapedPanic,
                    detail: format!("{mode}-cache compile panicked: {panic}"),
                }),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Oracle 6: the partition search is exact on every loop.
    if let Some(detail) = search_divergence(&base.baseline, &p.entry, p.train_arg) {
        failures.push(Failure {
            kind: OracleKind::SearchDivergence,
            detail,
        });
    }

    failures
}

/// Deletes the whole-compile memos (`compile-*` files) of the store in
/// `dir`, leaving its function units and simulation memos.
fn remove_compile_memos(dir: &Path) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if entry.file_name().to_string_lossy().starts_with("compile-") {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}
