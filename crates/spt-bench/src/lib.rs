//! Shared experiment runner for the table/figure harness binaries.
//!
//! Each binary (`table1`, `fig14` … `fig19`, `ablation`) reproduces one
//! artifact of the paper's §8 evaluation; this library runs a benchmark
//! under a compiler configuration — pipeline + simulator — and caches
//! nothing, keeping every binary self-contained and deterministic.

use spt_bench_suite::Benchmark;
use spt_core::pipeline::transform_module_timed;
use spt_core::{CompilationReport, CompilerConfig, ProfilingInput, StageTimings, TraceSettings};
use spt_serve::{sim_with_cache, SimTraceStats};
use spt_sim::{LoopSimStats, MachineConfig, SimResult};
use std::collections::HashMap;

pub mod history;
pub mod incremental_workload;

/// The measurements from running one benchmark under one configuration.
pub struct BenchmarkRun {
    /// Benchmark name.
    pub name: &'static str,
    /// Configuration name.
    pub config: &'static str,
    /// The compilation report (loop decisions).
    pub report: CompilationReport,
    /// Baseline (non-SPT) simulation.
    pub baseline: SimResult,
    /// SPT simulation of the transformed module.
    pub spt: SimResult,
}

impl BenchmarkRun {
    /// Program speedup (baseline cycles / SPT cycles).
    pub fn speedup(&self) -> f64 {
        if self.spt.cycles == 0 {
            1.0
        } else {
            self.baseline.cycles as f64 / self.spt.cycles as f64
        }
    }

    /// Per-tag stats of the selected loops that actually ran.
    pub fn loop_stats(&self) -> HashMap<u32, LoopSimStats> {
        self.spt.loops.clone()
    }
}

/// A [`BenchmarkRun`] plus the wall-clock breakdown of how it was produced.
pub struct TimedBenchmarkRun {
    /// The measurements themselves.
    pub run: BenchmarkRun,
    /// Frontend (source → SSA) seconds.
    pub compile_s: f64,
    /// Per-stage pipeline seconds and search-node counts.
    pub stages: StageTimings,
    /// Baseline simulation seconds.
    pub sim_baseline_s: f64,
    /// SPT simulation seconds.
    pub sim_spt_s: f64,
    /// Artifact-store statistics of the two simulations.
    pub sim_trace: SimTraceStats,
}

impl TimedBenchmarkRun {
    /// End-to-end seconds for this benchmark.
    pub fn total_s(&self) -> f64 {
        self.compile_s
            + self.stages.preprocess_s
            + self.stages.profile_s
            + self.stages.analysis_s
            + self.stages.svp_s
            + self.stages.select_emit_s
            + self.sim_baseline_s
            + self.sim_spt_s
    }
}

/// Runs `bench` under `config`: profile-guided compilation on the train
/// input, simulation of both baseline and SPT code on the reference input.
///
/// # Panics
///
/// Panics on pipeline or simulation failure — the harness treats any
/// failure as a broken experiment.
pub fn run_benchmark(bench: &Benchmark, config: &CompilerConfig) -> BenchmarkRun {
    run_benchmark_timed(bench, config).run
}

/// [`run_benchmark`] with per-stage wall times, for the `perfbench` harness.
///
/// # Panics
///
/// See [`run_benchmark`].
pub fn run_benchmark_timed(bench: &Benchmark, config: &CompilerConfig) -> TimedBenchmarkRun {
    let input = ProfilingInput::new(bench.entry, [bench.train_arg]);
    let t = std::time::Instant::now();
    let baseline_module = spt_frontend::compile(bench.source)
        .unwrap_or_else(|e| panic!("{}: compile failed: {e}", bench.name));
    let compile_s = t.elapsed().as_secs_f64();
    let mut module = baseline_module.clone();
    let (report, stages) = transform_module_timed(&mut module, &input, config)
        .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", bench.name));
    let machine = MachineConfig::default();
    let mut sim_trace = SimTraceStats::default();
    let t = std::time::Instant::now();
    let baseline = sim_with_cache(
        &baseline_module,
        bench.entry,
        bench.ref_arg,
        &machine,
        &config.trace,
        &mut sim_trace,
    )
    .unwrap_or_else(|e| panic!("{}: baseline sim failed: {e}", bench.name));
    let sim_baseline_s = t.elapsed().as_secs_f64();
    let t = std::time::Instant::now();
    let spt = sim_with_cache(
        &module,
        bench.entry,
        bench.ref_arg,
        &machine,
        &config.trace,
        &mut sim_trace,
    )
    .unwrap_or_else(|e| panic!("{}: spt sim failed: {e}", bench.name));
    let sim_spt_s = t.elapsed().as_secs_f64();
    assert_eq!(
        baseline.ret, spt.ret,
        "{}: SPT execution diverged from baseline",
        bench.name
    );
    TimedBenchmarkRun {
        run: BenchmarkRun {
            name: bench.name,
            config: config.name,
            report,
            baseline,
            spt,
        },
        compile_s,
        stages,
        sim_baseline_s,
        sim_spt_s,
        sim_trace,
    }
}

/// Runs the whole suite under one configuration. Benchmarks fan out over
/// [`spt_core::parallel::parallel_map`] workers (`SPT_THREADS` overrides the
/// count); results come back in suite order, so downstream tables are
/// byte-identical to a sequential run.
pub fn run_suite(config: &CompilerConfig) -> Vec<BenchmarkRun> {
    let suite = spt_bench_suite::suite();
    spt_core::parallel::parallel_map(&suite, |b| run_benchmark(b, config))
}

/// Runs every `(benchmark, config)` pair in parallel, returning results in
/// input order. The figure harnesses build their full work matrix up front,
/// fan it out here, then print sequentially.
pub fn run_matrix(pairs: &[(&Benchmark, &CompilerConfig)]) -> Vec<BenchmarkRun> {
    spt_core::parallel::parallel_map(pairs, |&(b, c)| run_benchmark(b, c))
}

/// Prints `msg` to stderr and terminates the process with a nonzero exit
/// code. The harness binaries call this for setup failures (compile,
/// profiling, simulation, output I/O) instead of panicking: a clean message
/// and exit status 1 rather than a backtrace — also from inside
/// `parallel_map` workers, where a panic would otherwise tear down the
/// whole fan-out with no usable error.
pub fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// `config` with the artifact store switched on over the shared
/// `.spt-cache/` directory. Results are bit-identical to the store-off path
/// (pinned by `tests/trace_equivalence.rs`); repeated harness runs reuse
/// stored compiles, function analysis units and `SimResult` memos instead
/// of recompiling and re-simulating.
pub fn with_store(mut config: CompilerConfig) -> CompilerConfig {
    config.trace = TraceSettings {
        enabled: true,
        cache_dir: Some(".spt-cache".into()),
    };
    config
}

/// Folds one benchmark's *computed* results — the report's debug rendering
/// and the two simulation outcomes, never wall times or cache counters —
/// into an order-stable FNV-1a digest. `perfbench` and `loadgen` both build
/// their suite digest from this, so a daemon-served run prints the same
/// `report digest` as a single-process run exactly when the results match.
pub fn fold_report_digest(
    h: &mut spt_trace::codec::Fnv,
    report_debug: &str,
    baseline: &SimResult,
    spt: &SimResult,
) {
    h.update(report_debug.as_bytes());
    for sim in [baseline, spt] {
        h.update_u64(sim.ret.unwrap_or(u64::MAX));
        h.update_u64(sim.cycles);
        h.update_u64(sim.insts);
        h.update_u64(sim.cache_hit_rate.to_bits());
        h.update_u64(sim.branch_miss_rate.to_bits());
    }
}

/// Geometric-mean helper for speedup aggregation.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Spearman rank correlation between two equal-length samples.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let rank = |v: &[f64]| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
        let mut ranks = vec![0.0; v.len()];
        let mut i = 0;
        while i < idx.len() {
            // Average ranks over ties.
            let mut j = i;
            while j + 1 < idx.len() && v[idx[j + 1]] == v[idx[i]] {
                j += 1;
            }
            let avg = (i + j) as f64 / 2.0 + 1.0;
            for &k in &idx[i..=j] {
                ranks[k] = avg;
            }
            i = j + 1;
        }
        ranks
    };
    let rx = rank(xs);
    let ry = rank(ys);
    let mx = rx.iter().sum::<f64>() / n as f64;
    let my = ry.iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for k in 0..n {
        let dx = rx[k] - mx;
        let dy = ry[k] - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx == 0.0 || vy == 0.0 {
        0.0
    } else {
        cov / (vx * vy).sqrt()
    }
}

/// Prints a standard experiment header.
pub fn header(id: &str, what: &str) {
    println!("==============================================================");
    println!("{id}: {what}");
    println!("(shape comparison against the paper; see EXPERIMENTS.md)");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 1.0);
        assert!((geomean([2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_basics() {
        // Perfect monotone relation.
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [10.0, 20.0, 30.0, 40.0];
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
        // Perfect inverse.
        let inv = [40.0, 30.0, 20.0, 10.0];
        assert!((spearman(&xs, &inv) + 1.0).abs() < 1e-12);
        // Constant series: undefined correlation reported as 0.
        let flat = [5.0, 5.0, 5.0, 5.0];
        assert_eq!(spearman(&xs, &flat), 0.0);
        // Ties are rank-averaged, not dropped.
        let tied_x = [1.0, 2.0, 2.0, 3.0];
        let tied_y = [1.0, 2.5, 2.5, 4.0];
        assert!(spearman(&tied_x, &tied_y) > 0.99);
        // Degenerate input.
        assert_eq!(spearman(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn one_benchmark_end_to_end() {
        let b = spt_bench_suite::benchmark("gcc_s").unwrap();
        let run = run_benchmark(&b, &CompilerConfig::best());
        assert_eq!(run.baseline.ret, run.spt.ret);
        assert!(run.baseline.cycles > 0);
        assert!(!run.report.loops.is_empty());
    }
}
