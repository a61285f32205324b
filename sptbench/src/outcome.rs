//! What one run of a workload measured, and the metrics derived from it.

use std::time::Instant;

use crate::spans::Tracer;
use crate::stats::{geomean, median, ClassSamples};

/// Deterministic facts about one program, taken from a cold compile and
/// the ops' own simulation results.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Facts {
    /// Baseline cycles / SPT cycles.
    pub speedup: f64,
    /// Loops the pipeline transformed.
    pub loops_selected: u64,
    /// Loops software value prediction was applied to.
    pub svp_applied: u64,
    /// Cycles of the profiling run.
    pub profile_cycles: u64,
    /// Partition-search nodes visited by a cold compile.
    pub visited: u64,
    /// Analysis seconds of that cold compile (not deterministic).
    pub cold_analysis_s: f64,
    /// Simulated SPT cycles.
    pub spt_cycles: u64,
    /// Speculative threads committed, over all loops.
    pub commits: u64,
    /// Speculative threads forked, over all loops.
    pub forks: u64,
    /// Speculative instructions re-executed after misspeculation.
    pub reexec_insts: u64,
    /// Instructions retired by the SPT simulation.
    pub spt_insts: u64,
}

/// Per-op layer figures summed over successful ops.
#[derive(Clone, Debug, Default)]
pub struct LayerSums {
    /// Ops summed.
    pub ops: u64,
    /// `spt_frontend::compile` seconds.
    pub frontend_s: f64,
    /// `transform_module_timed_with` seconds.
    pub transform_s: f64,
    /// `StageTimings` stage seconds.
    pub preprocess_s: f64,
    /// See [`LayerSums::preprocess_s`].
    pub profile_s: f64,
    /// See [`LayerSums::preprocess_s`].
    pub analysis_s: f64,
    /// See [`LayerSums::preprocess_s`].
    pub svp_s: f64,
    /// See [`LayerSums::preprocess_s`].
    pub select_emit_s: f64,
    /// Cycles of the ops' profiling runs.
    pub profile_cycles: u64,
    /// Trace capture seconds, pipeline and simulation.
    pub trace_capture_s: f64,
    /// Trace replay seconds, pipeline and simulation.
    pub trace_replay_s: f64,
    /// Baseline simulation seconds.
    pub sim_baseline_s: f64,
    /// SPT simulation seconds.
    pub sim_spt_s: f64,
    /// Instructions retired by both simulations.
    pub sim_insts: u64,
}

/// Per-op counters that must repeat exactly; summed per class so their
/// per-op mean does not depend on how many ops each class got.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassCounters {
    /// Ops counted.
    pub ops: u64,
    /// Function-unit analysis hits.
    pub unit_hits: u64,
    /// Function-unit analysis misses.
    pub unit_misses: u64,
    /// Trace/artifact-cache hits, pipeline and simulation.
    pub trace_hits: u64,
    /// Trace/artifact-cache misses, pipeline and simulation.
    pub trace_misses: u64,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Latencies (seconds) of untraced ops, by class.
    pub plain: ClassSamples,
    /// Latencies (seconds) of traced ops, by class.
    pub traced: ClassSamples,
    /// Timed ops started.
    pub attempted: u64,
    /// Timed ops that errored, were refused, or returned a wrong result.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Wall seconds of the timed phase.
    pub timed_s: f64,
    /// Layer figures of successful ops.
    pub sums: LayerSums,
    /// Counters by class.
    pub counters: Vec<ClassCounters>,
    /// Facts by program.
    pub facts: Vec<Option<Facts>>,
    /// Workload-specific per-layer metrics: (name, value, unit).
    pub extra: Vec<(&'static str, f64, &'static str)>,
    /// Spans of traced ops.
    pub tracer: Tracer,
}

impl Outcome {
    /// An empty outcome over the given latency classes and programs, its
    /// span recorder off and clocked from `epoch`.
    pub fn new(classes: Vec<String>, programs: usize, epoch: Instant) -> Self {
        let n = classes.len();
        Outcome {
            setup_s: Vec::new(),
            plain: ClassSamples::new(classes.clone()),
            traced: ClassSamples::new(classes),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            timed_s: 0.0,
            sums: LayerSums::default(),
            counters: vec![ClassCounters::default(); n],
            facts: vec![None; programs],
            extra: Vec::new(),
            tracer: Tracer::new(epoch, false),
        }
    }

    /// Counts a failed op, keeping its message if it is among the first.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    /// Moves a second client's samples, counts and spans into `self`.
    pub fn absorb(&mut self, other: Outcome) {
        self.plain.absorb(other.plain);
        self.traced.absorb(other.traced);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
        self.tracer.absorb(other.tracer);
    }

    fn facts(&self) -> impl Iterator<Item = &Facts> {
        self.facts.iter().flatten()
    }

    fn sum_facts(&self, f: impl Fn(&Facts) -> u64) -> f64 {
        self.facts().map(f).sum::<u64>() as f64
    }

    /// Mean over classes of a counter's per-op mean.
    fn counter_per_op(&self, f: impl Fn(&ClassCounters) -> u64) -> f64 {
        let used: Vec<&ClassCounters> = self.counters.iter().filter(|c| c.ops > 0).collect();
        if used.is_empty() {
            return 0.0;
        }
        used.iter().map(|c| f(c) as f64 / c.ops as f64).sum::<f64>() / used.len() as f64
    }

    /// Geometric mean of the programs' speedups.
    pub fn speedup_geomean(&self) -> f64 {
        geomean(self.facts().map(|f| f.speedup)).unwrap_or(0.0)
    }

    /// Failed / attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The gated end-to-end metrics.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("setup_s", median(&self.setup_s).unwrap_or(0.0), "s"),
            (
                "latency_ms_p50",
                self.plain.geomean_quantile(0.5).unwrap_or(0.0) * 1e3,
                "ms",
            ),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
            ("spt_speedup_geomean", self.speedup_geomean(), "x"),
            ("success_rate", 1.0 - self.error_rate(), "ratio"),
        ]
    }

    /// The per-layer metrics (traced run), in the order of `BENCHMARK.json`.
    pub fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        let s = &self.sums;
        let per_op = |v: f64| if s.ops == 0 { 0.0 } else { v / s.ops as f64 };
        let ms = |v: f64| per_op(v) * 1e3;
        let stages = s.preprocess_s + s.profile_s + s.analysis_s + s.svp_s + s.select_emit_s;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let visited = self.sum_facts(|f| f.visited);
        let cold_analysis_ms: f64 = self.facts().map(|f| f.cold_analysis_s).sum::<f64>() * 1e3;
        let p50_plain = self.plain.geomean_quantile(0.5).unwrap_or(0.0);
        let p50_traced = self.traced.geomean_quantile(0.5).unwrap_or(0.0);
        let extra = |name: &str| {
            self.extra
                .iter()
                .find(|(n, _, _)| *n == name)
                .map_or(0.0, |e| e.1)
        };
        let mut out = vec![
            ("frontend.parse_ms", ms(s.frontend_s), "ms"),
            ("core.transform_ms", ms(s.transform_s), "ms"),
            ("core.preprocess_ms", ms(s.preprocess_s), "ms"),
            ("core.profile_ms", ms(s.profile_s), "ms"),
            ("core.analysis_ms", ms(s.analysis_s), "ms"),
            ("core.svp_ms", ms(s.svp_s), "ms"),
            ("core.select_emit_ms", ms(s.select_emit_s), "ms"),
            ("core.overhead_ms", ms(s.transform_s - stages), "ms"),
            (
                "core.unit_hits",
                self.counter_per_op(|c| c.unit_hits),
                "count",
            ),
            (
                "core.unit_misses",
                self.counter_per_op(|c| c.unit_misses),
                "count",
            ),
            (
                "profile.cycles",
                self.sum_facts(|f| f.profile_cycles),
                "count",
            ),
            (
                "profile.ns_per_cycle",
                ratio(s.profile_s * 1e9, s.profile_cycles as f64),
                "ns",
            ),
            ("trace.capture_ms", ms(s.trace_capture_s), "ms"),
            ("trace.replay_ms", ms(s.trace_replay_s), "ms"),
            ("trace.hits", self.counter_per_op(|c| c.trace_hits), "count"),
            (
                "trace.misses",
                self.counter_per_op(|c| c.trace_misses),
                "count",
            ),
            ("partition.visited", visited, "count"),
            (
                "partition.nodes_per_ms",
                ratio(visited, cold_analysis_ms),
                "1/ms",
            ),
            ("cost.dep_graph_ms", extra("cost.dep_graph_ms"), "ms"),
            ("cost.model_ms", extra("cost.model_ms"), "ms"),
            ("partition.search_ms", extra("partition.search_ms"), "ms"),
            (
                "transform.loops_selected",
                self.sum_facts(|f| f.loops_selected),
                "count",
            ),
            (
                "transform.svp_applied",
                self.sum_facts(|f| f.svp_applied),
                "count",
            ),
            ("sim.baseline_ms", ms(s.sim_baseline_s), "ms"),
            ("sim.spt_ms", ms(s.sim_spt_s), "ms"),
            (
                "sim.ns_per_inst",
                ratio((s.sim_baseline_s + s.sim_spt_s) * 1e9, s.sim_insts as f64),
                "ns",
            ),
            ("sim.spt_cycles", self.sum_facts(|f| f.spt_cycles), "count"),
            (
                "sim.commit_ratio",
                ratio(self.sum_facts(|f| f.commits), self.sum_facts(|f| f.forks)),
                "ratio",
            ),
            (
                "sim.reexec_ratio",
                ratio(
                    self.sum_facts(|f| f.reexec_insts),
                    self.sum_facts(|f| f.spt_insts),
                ),
                "ratio",
            ),
        ];
        for (name, unit) in [
            ("serve.compile_rtt_ms_p90", "ms"),
            ("serve.sim_rtt_ms_p90", "ms"),
            ("serve.execute_ms_p90", "ms"),
            ("serve.response_kb", "KiB"),
            ("serve.mem_hit_ratio", "ratio"),
            ("serve.evictions", "count"),
            ("serve.flights_joined", "count"),
        ] {
            out.push((name, extra(name), unit));
        }
        out.push((
            "bench.trace_overhead_pct",
            ratio(p50_traced - p50_plain, p50_plain) * 100.0,
            "%",
        ));
        out.push((
            "bench.latency_ms_p90",
            self.plain.geomean_quantile(0.9).unwrap_or(0.0) * 1e3,
            "ms",
        ));
        out.push((
            "bench.ops_per_s",
            ratio(self.attempted as f64, self.timed_s),
            "1/s",
        ));
        out
    }
}
