//! The sptc/sptd benchmark: four seeded workloads driven through the
//! crates' public APIs, every output checked against the reference
//! interpreter, end-to-end metrics from untraced runs and per-layer
//! metrics from a separate traced run. See `NOTES.md` for the metric
//! definitions and why each workload exists.

mod daemon;
pub mod inputs;
pub mod oracle;
pub mod outcome;
mod pipeline;
pub mod run;
pub mod spans;
pub mod stats;

use outcome::Outcome;
use run::Params;

/// The benchmark's workloads, by command-line name.
pub const WORKLOADS: [&str; 4] = ["suite-cold", "suite-warm", "edit-recompile", "daemon-warm"];

/// Runs workload `name`.
///
/// # Errors
///
/// An unknown workload, or a set-up failure (the program could not be
/// brought to the point of the first timed op).
pub fn run_workload(name: &str, p: &Params) -> Result<Outcome, String> {
    match name {
        "suite-cold" => pipeline::run_suite(p, false),
        "suite-warm" => pipeline::run_suite(p, true),
        "edit-recompile" => pipeline::run_edit(p),
        "daemon-warm" => daemon::run_daemon(p),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Metrics that must repeat exactly for a given seed; the suite workloads
/// must also repeat them across seeds.
pub const DETERMINISTIC: [&str; 14] = [
    "spt_speedup_geomean",
    "success_rate",
    "partition.visited",
    "core.unit_hits",
    "core.unit_misses",
    "trace.hits",
    "trace.misses",
    "serve.mem_hit_ratio",
    "sim.commit_ratio",
    "sim.reexec_ratio",
    "sim.spt_cycles",
    "profile.cycles",
    "transform.loops_selected",
    "transform.svp_applied",
];

/// The deterministic metrics of an outcome, by name.
pub fn deterministic_metrics(out: &Outcome) -> Vec<(&'static str, f64)> {
    out.end_to_end(0.0)
        .into_iter()
        .chain(out.per_layer())
        .filter(|(name, _, _)| DETERMINISTIC.contains(name))
        .map(|(name, value, _)| (name, value))
        .collect()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
