//! The in-process workloads: `suite-cold`, `suite-warm` and
//! `edit-recompile`. Each op is what `sptc sim` does for one program:
//! frontend, cost-driven transform, baseline and SPT simulation.

use std::time::Instant;

use spt_bench_suite::Benchmark;
use spt_core::pipeline::transform_module_timed_with;
use spt_core::{CompilationReport, CompilerConfig, IncrementalCache, ProfilingInput, StageTimings};
use spt_cost::{DepGraph, DepGraphConfig, LoopCostModel, Profiles};
use spt_ir::{Cfg, DomTree, LoopForest};
use spt_partition::{optimal_partition, SearchConfig};
use spt_profile::{Interp, ProfileCollector, Val};
use spt_serve::{sim_with_cache, SimTraceStats};
use spt_sim::{MachineConfig, SimResult};

use crate::inputs::{self, Rng};
use crate::oracle;
use crate::outcome::{Facts, Outcome};
use crate::run::Params;
use crate::spans::Tracer;

/// The products and timings of one op.
pub struct OpOut {
    /// The pipeline's report.
    pub report: CompilationReport,
    /// The pipeline's own stage timings and counters.
    pub timings: StageTimings,
    /// Baseline simulation.
    pub base: SimResult,
    /// SPT simulation.
    pub spt: SimResult,
    /// Trace statistics of the two simulations.
    pub sim_trace: SimTraceStats,
    /// Seconds in `spt_frontend::compile`.
    pub frontend_s: f64,
    /// Seconds in `transform_module_timed_with`.
    pub transform_s: f64,
    /// Seconds in the baseline simulation.
    pub sim_base_s: f64,
    /// Seconds in the SPT simulation.
    pub sim_spt_s: f64,
}

/// One `sptc sim`: compile `source`, transform it profiled on `train`,
/// simulate baseline and SPT code on `arg`. With `shared` the transform
/// compiles through that long-lived function-unit cache; otherwise
/// through the ephemeral one `sptc` builds from `config` (none without a
/// `cache_dir`).
pub fn pipeline_op(
    tr: &mut Tracer,
    source: &str,
    entry: &str,
    train: i64,
    arg: i64,
    config: &CompilerConfig,
    shared: Option<&IncrementalCache>,
) -> Result<OpOut, String> {
    let span = tr.enter("frontend.parse");
    let t = Instant::now();
    let baseline = spt_frontend::compile(source).map_err(|e| format!("frontend: {e}"))?;
    let frontend_s = t.elapsed().as_secs_f64();
    tr.exit(span);

    let mut module = baseline.clone();
    let input = ProfilingInput::new(entry, [train]);
    let span = tr.enter("core.transform");
    let t = Instant::now();
    let ephemeral = match shared {
        Some(_) => None,
        None => IncrementalCache::from_config(config),
    };
    let (report, timings) =
        transform_module_timed_with(&mut module, &input, config, shared.or(ephemeral.as_ref()))
            .map_err(|e| format!("pipeline: {e}"))?;
    let transform_s = t.elapsed().as_secs_f64();
    tr.exit(span);
    let stages = tr.children(
        span,
        &[
            ("core.preprocess", timings.preprocess_s),
            ("core.profile", timings.profile_s),
            ("core.analysis", timings.analysis_s),
            ("core.svp", timings.svp_s),
            ("core.select_emit", timings.select_emit_s),
        ],
    );
    // Capture happens inside the profile stage. Replay serves the SVP
    // value-profiling run and, on a trace-cache hit, the profile stage;
    // StageTimings does not split it, so it is charged to SVP first.
    let replay_svp = timings.trace_replay_s.min(timings.svp_s);
    tr.children(
        stages[1],
        &[
            ("trace.capture", timings.trace_capture_s),
            ("trace.replay", timings.trace_replay_s - replay_svp),
        ],
    );
    tr.children(stages[3], &[("trace.replay", replay_svp)]);

    let machine = MachineConfig::default();
    let mut sim_trace = SimTraceStats::default();
    let mut sim = |tr: &mut Tracer, name, m: &spt_ir::Module| {
        let mut st = SimTraceStats::default();
        let span = tr.enter(name);
        let t = Instant::now();
        let r = sim_with_cache(m, entry, arg, &machine, &config.trace, &mut st);
        let secs = t.elapsed().as_secs_f64();
        tr.exit(span);
        tr.children(
            span,
            &[
                ("trace.capture", st.capture_s),
                ("trace.replay", st.replay_s),
            ],
        );
        sim_trace.absorb(&st);
        r.map(|r| (r, secs))
            .map_err(|e| format!("{name} simulation: {e}"))
    };
    let (base, sim_base_s) = sim(tr, "sim.baseline", &baseline)?;
    let (spt, sim_spt_s) = sim(tr, "sim.spt", &module)?;
    Ok(OpOut {
        report,
        timings,
        base,
        spt,
        sim_trace,
        frontend_s,
        transform_s,
        sim_base_s,
        sim_spt_s,
    })
}

/// Baseline result == SPT result == expected.
pub fn check_results(op: &OpOut, expected: i64) -> Result<(), String> {
    let want = Some(expected as u64);
    let shown = |r: Option<u64>| r.map_or("none".to_string(), |v| (v as i64).to_string());
    if op.base.ret != want || op.spt.ret != want {
        return Err(format!(
            "baseline returned {}, SPT {}, reference {expected}",
            shown(op.base.ret),
            shown(op.spt.ret)
        ));
    }
    Ok(())
}

/// Deterministic facts of one op's program.
pub fn facts_of(op: &OpOut) -> Facts {
    let mut f = Facts {
        speedup: if op.spt.cycles == 0 {
            0.0
        } else {
            op.base.cycles as f64 / op.spt.cycles as f64
        },
        loops_selected: op.report.selected.len() as u64,
        svp_applied: op.report.loops.iter().filter(|l| l.svp_applied).count() as u64,
        profile_cycles: op.report.profile_total_cycles,
        visited: op.timings.search_visited,
        cold_analysis_s: op.timings.analysis_s,
        spt_cycles: op.spt.cycles,
        spt_insts: op.spt.insts,
        ..Facts::default()
    };
    for s in op.spt.loops.values() {
        f.commits += s.commits;
        f.forks += s.forks;
        f.reexec_insts += s.reexec_insts;
    }
    f
}

/// Adds a successful op of program (and class) `program` to the outcome.
fn record(out: &mut Outcome, program: usize, latency_s: f64, op: &OpOut, on: bool) {
    if on {
        out.traced.push(program, latency_s);
    } else {
        out.plain.push(program, latency_s);
    }
    let t = &op.timings;
    let s = &mut out.sums;
    s.ops += 1;
    s.frontend_s += op.frontend_s;
    s.transform_s += op.transform_s;
    s.preprocess_s += t.preprocess_s;
    s.profile_s += t.profile_s;
    s.analysis_s += t.analysis_s;
    s.svp_s += t.svp_s;
    s.select_emit_s += t.select_emit_s;
    s.profile_cycles += op.report.profile_total_cycles;
    s.trace_capture_s += t.trace_capture_s + op.sim_trace.capture_s;
    s.trace_replay_s += t.trace_replay_s + op.sim_trace.replay_s;
    s.sim_baseline_s += op.sim_base_s;
    s.sim_spt_s += op.sim_spt_s;
    s.sim_insts += op.base.insts + op.spt.insts;
    let c = &mut out.counters[program];
    c.ops += 1;
    c.unit_hits += t.func_analysis_hits;
    c.unit_misses += t.func_analysis_misses;
    c.trace_hits += t.trace_cache_hits + op.sim_trace.hits();
    c.trace_misses += t.trace_cache_misses + op.sim_trace.misses();
    if out.facts[program].is_none() {
        out.facts[program] = Some(facts_of(op));
    }
}

/// Runs `suite-cold` (`warm == false`) or `suite-warm`.
pub fn run_suite(p: &Params, warm: bool) -> Result<Outcome, String> {
    let suite = spt_bench_suite::suite();
    let names = suite.iter().map(|b| b.name.to_string()).collect();
    let mut out = Outcome::new(names, suite.len(), p.epoch);
    let t = Instant::now();
    let (mut state, cold) = suite_setup(p, warm, &suite)?;
    out.setup_s.push(t.elapsed().as_secs_f64());

    let n = suite.len() as u64;
    let start = Instant::now();
    let mut i = 0u64;
    while p.keep_going(start, i) {
        let program = state.order[(i % n) as usize];
        let b = &suite[program];
        let on = p.traced && (i / n) % 2 == 1;
        out.tracer.set_on(on);
        out.tracer.set_op(i);
        let root = out.tracer.enter("bench.op");
        let t = Instant::now();
        let res = pipeline_op(
            &mut out.tracer,
            b.source,
            b.entry,
            b.train_arg,
            b.ref_arg,
            &state.config,
            None,
        );
        let latency = t.elapsed().as_secs_f64();
        let check = out.tracer.enter("bench.check");
        let verdict = res.and_then(|op| {
            check_results(&op, state.expected[program])?;
            same_report(&mut state.reports[program], format!("{:?}", op.report))?;
            Ok(op)
        });
        out.tracer.exit(check);
        out.tracer.exit(root);
        out.attempted += 1;
        match verdict {
            Ok(op) => record(&mut out, program, latency, &op, on),
            Err(e) => out.fail(format!("{}: {e}", b.name)),
        }
        i += 1;
    }
    out.timed_s = start.elapsed().as_secs_f64();
    // Search counts come from cold compiles only: a warm op splices the
    // counts of the units it loaded.
    for (f, c) in out.facts.iter_mut().zip(cold) {
        if let (Some(f), Some(c)) = (f, c) {
            f.visited = c.visited;
            f.cold_analysis_s = c.cold_analysis_s;
        }
    }
    Ok(out)
}

struct SuiteState {
    order: Vec<usize>,
    expected: Vec<i64>,
    config: CompilerConfig,
    reports: Vec<Option<String>>,
}

/// Suite set-up: op order from the seed, expected results, and for the
/// warm workload a private store filled by one cold pass.
fn suite_setup(
    p: &Params,
    warm: bool,
    suite: &[Benchmark],
) -> Result<(SuiteState, Vec<Option<Facts>>), String> {
    let order = Rng::new(p.seed, 3).permutation(suite.len());
    let expected = oracle::suite_expected()?;
    let mut config = CompilerConfig::best();
    config.trace.enabled = true;
    let mut state = SuiteState {
        order,
        expected,
        config,
        reports: vec![None; suite.len()],
    };
    let mut cold = vec![None; suite.len()];
    if warm {
        // Inside the run's scratch directory, which is removed at exit.
        state.config.trace.cache_dir = Some(p.work.join("store"));
        let mut off = Tracer::new(p.epoch, false);
        for &i in &state.order {
            let b = &suite[i];
            let op = pipeline_op(
                &mut off,
                b.source,
                b.entry,
                b.train_arg,
                b.ref_arg,
                &state.config,
                None,
            )
            .and_then(|op| check_results(&op, state.expected[i]).map(|()| op))
            .map_err(|e| format!("set-up cold pass, {}: {e}", b.name))?;
            state.reports[i] = Some(format!("{:?}", op.report));
            cold[i] = Some(facts_of(&op));
        }
    }
    Ok((state, cold))
}

/// Repeated ops of one input must produce byte-identical reports.
fn same_report(reference: &mut Option<String>, report: String) -> Result<(), String> {
    match reference {
        Some(r) if *r != report => Err("report differs from the first op's report".to_string()),
        Some(_) => Ok(()),
        None => {
            *reference = Some(report);
            Ok(())
        }
    }
}

/// Runs `edit-recompile`.
pub fn run_edit(p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::new(vec!["edit".to_string()], 1, p.epoch);
    let t = Instant::now();
    let state = edit_setup(p)?;
    out.setup_s.push(t.elapsed().as_secs_f64());

    let (mut dep_s, mut model_s, mut search_s, mut split_ops) = (0.0, 0.0, 0.0, 0u32);
    let start = Instant::now();
    let mut i = 0u64;
    while p.keep_going(start, i) {
        let edit = inputs::edit_for(p.seed, i);
        let source = inputs::rename_ident(&state.base, &edit.original, &edit.renamed);
        let on = p.traced && i % 2 == 1;
        out.tracer.set_on(on);
        out.tracer.set_op(i);
        let root = out.tracer.enter("bench.op");
        let t = Instant::now();
        let res = pipeline_op(
            &mut out.tracer,
            &source,
            inputs::EDIT_ENTRY,
            inputs::EDIT_TRAIN_ARG,
            inputs::EDIT_TRAIN_ARG,
            &state.config,
            Some(&state.cache),
        );
        let latency = t.elapsed().as_secs_f64();
        let check = out.tracer.enter("bench.check");
        let verdict = res.and_then(|op| {
            check_results(&op, state.expected)?;
            let report = format!("{:?}", op.report);
            if inputs::rename_ident(&report, &edit.renamed, &edit.original) != state.report {
                return Err("report differs from the cold compile's".to_string());
            }
            Ok(op)
        });
        out.tracer.exit(check);
        out.tracer.exit(root);
        out.attempted += 1;
        match verdict {
            Ok(op) => record(&mut out, 0, latency, &op, on),
            Err(e) => out.fail(format!("edit {i} ({}): {e}", edit.renamed)),
        }
        if on {
            let (d, m, s) = analysis_split(&source, &edit.renamed, &state.config)?;
            dep_s += d;
            model_s += m;
            search_s += s;
            split_ops += 1;
        }
        i += 1;
    }
    out.timed_s = start.elapsed().as_secs_f64();
    if let Some(f) = &mut out.facts[0] {
        f.visited = state.cold.visited;
        f.cold_analysis_s = state.cold.cold_analysis_s;
    }
    let per_op = |s: f64| s * 1e3 / f64::from(split_ops.max(1));
    out.extra = vec![
        ("cost.dep_graph_ms", per_op(dep_s), "ms"),
        ("cost.model_ms", per_op(model_s), "ms"),
        ("partition.search_ms", per_op(search_s), "ms"),
    ];
    Ok(out)
}

struct EditState {
    base: String,
    expected: i64,
    config: CompilerConfig,
    cache: IncrementalCache,
    report: String,
    cold: Facts,
}

/// Edit set-up: generate the seeded module, compute its expected result on
/// the reference interpreter, and compile it cold through a long-lived
/// function-unit cache.
fn edit_setup(p: &Params) -> Result<EditState, String> {
    let base = inputs::edit_module_source(p.seed);
    let expected = oracle::reference_result(&base, inputs::EDIT_ENTRY, inputs::EDIT_TRAIN_ARG)?;
    // As in the incremental-recompile scenario: no trace backend, so the
    // cache under load is the in-memory function-unit cache.
    let config = CompilerConfig::best();
    let cache = IncrementalCache::in_memory(256 << 20, 8);
    let mut off = Tracer::new(p.epoch, false);
    let op = pipeline_op(
        &mut off,
        &base,
        inputs::EDIT_ENTRY,
        inputs::EDIT_TRAIN_ARG,
        inputs::EDIT_TRAIN_ARG,
        &config,
        Some(&cache),
    )
    .and_then(|op| check_results(&op, expected).map(|()| op))
    .map_err(|e| format!("set-up cold compile: {e}"))?;
    Ok(EditState {
        report: format!("{:?}", op.report),
        cold: facts_of(&op),
        base,
        expected,
        config,
        cache,
    })
}

/// Splits the dirty kernel's analysis the way pass 1 does it: dependence
/// graph, cost model and partition search of each of its loops, each timed
/// on its own. Returns seconds (dep graph, cost model, search).
fn analysis_split(
    source: &str,
    func: &str,
    config: &CompilerConfig,
) -> Result<(f64, f64, f64), String> {
    let module = spt_frontend::compile(source).map_err(|e| format!("frontend: {e}"))?;
    let mut profile = ProfileCollector::new();
    Interp::new(&module)
        .run(
            inputs::EDIT_ENTRY,
            &[Val::from_i64(inputs::EDIT_TRAIN_ARG)],
            &mut profile,
        )
        .map_err(|e| format!("profiling: {e}"))?;
    let fid = module
        .func_by_name(func)
        .ok_or_else(|| format!("no function {func}"))?;
    let f = module.func(fid);
    let cfg = Cfg::compute(f);
    let forest = LoopForest::compute(f, &cfg, &DomTree::compute(&cfg));
    let (mut dep_s, mut model_s, mut search_s) = (0.0, 0.0, 0.0);
    for lid in forest.ids() {
        let t = Instant::now();
        let graph = DepGraph::build(
            &module,
            fid,
            lid,
            Profiles {
                edges: Some(&profile.edges),
                deps: config.use_dep_profile.then_some(&profile.deps),
            },
            &DepGraphConfig::default(),
        );
        dep_s += t.elapsed().as_secs_f64();
        let body = graph.body_size;
        let t = Instant::now();
        let model = LoopCostModel::new(graph);
        model_s += t.elapsed().as_secs_f64();
        let search = SearchConfig {
            max_prefork_size: (body as f64 * config.prefork_frac) as u64,
            max_vcs: config.max_vcs,
            max_visited: config.budget.search_max_visited,
            ..SearchConfig::default()
        };
        let t = Instant::now();
        std::hint::black_box(optimal_partition(&model, &search));
        search_s += t.elapsed().as_secs_f64();
    }
    Ok((dep_s, model_s, search_s))
}
