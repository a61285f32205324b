//! `sptbench` — the sptc/sptd benchmark.
//!
//! ```text
//! sptbench --workload NAME --seed N --seconds S --trace 0|1
//! sptbench --smoke [--seed N]     a few ops of every workload, all checks on,
//!                                 plus the determinism self-test
//! sptbench --workload NAME --seed N --setup-only
//!                                 one set-up, then print `setup_s SECONDS`
//! sptbench --write-expected       recompute expected/suite.tsv
//! ```
//!
//! Workloads: suite-cold, suite-warm, edit-recompile, daemon-warm. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Scratch files live under `.sptbench/` in the
//! working directory; traced runs leave their spans there.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use sptbench::outcome::Outcome;
use sptbench::run::Params;
use sptbench::{deterministic_metrics, oracle, peak_rss_mb, run_workload, WORKLOADS};

/// Set-up repetitions per run; `setup_s` is their median. Each runs in a
/// fresh process, as a user pays it, so earlier repetitions neither warm the
/// later ones nor leave memory behind in the process whose peak RSS is
/// reported.
const SETUPS: usize = 5;

/// Scratch root, relative to the working directory (socket paths must stay
/// short).
const SCRATCH: &str = ".sptbench";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    setup_only: bool,
    write_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        setup_only: false,
        write_expected: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let next = argv.get(i + 1).cloned();
        let mut value = || {
            i += 1;
            next.clone().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--setup-only" => a.setup_only = true,
            "--write-expected" => a.write_expected = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sptbench: {e}");
            eprintln!(
                "usage: sptbench --workload {} --seed N --seconds S --trace 0|1 \
                 | --smoke [--seed N] | --write-expected",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = if args.write_expected {
        write_expected()
    } else if args.smoke {
        smoke(args.seed)
    } else if let Some(w) = &args.workload {
        measure(w, &args)
    } else {
        Err("nothing to do: pass --workload, --smoke or --write-expected".to_string())
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sptbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn write_expected() -> Result<(), String> {
    let text = oracle::render_suite_expected()?;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected/suite.tsv");
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// A private scratch directory for one run, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Self, String> {
        let dir = PathBuf::from(SCRATCH).join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn measure(workload: &str, args: &Args) -> Result<(), String> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let scratch = Scratch::new()?;
    let p = Params {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        max_ops: args.setup_only.then_some(0),
        work: scratch.0.clone(),
        epoch: Instant::now(),
    };
    if args.setup_only {
        let out = run_workload(workload, &p)?;
        println!("setup_s {:?}", out.setup_s[0]);
        return Ok(());
    }
    println!(
        "sptbench {workload} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    // A traced run reports no set-up time, so it sets up once.
    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 1..if args.trace { 1 } else { SETUPS } {
        setup_s.push(setup_in_child(workload, args.seed)?);
    }
    let mut out = run_workload(workload, &p)?;
    setup_s.append(&mut out.setup_s);
    out.setup_s = setup_s;
    drop(scratch);
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    print_classes(&out);
    let metrics = if args.trace {
        let spans = PathBuf::from(SCRATCH).join(format!("spans-{workload}-seed{}.tsv", args.seed));
        std::fs::write(&spans, out.tracer.to_tsv())
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        print_self_times(&out);
        println!("spans: {}", spans.display());
        out.per_layer()
    } else {
        out.end_to_end(rss)
    };
    println!("\n{:<28} {:>16}  unit", "metric", "value");
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>16.6}  {unit}");
    }
    println!(
        "{:<28} {:>16.6}  ratio  (= 1 - success_rate)",
        "error_rate",
        out.error_rate()
    );
    if !args.trace {
        for (name, value, unit) in out.per_layer() {
            if name == "bench.latency_ms_p90" || name == "bench.ops_per_s" {
                println!("{name:<28} {value:>16.6}  {unit}  (printed, not gated)");
            }
        }
    }
    println!("{}", json_line(&out, &metrics));
    Ok(())
}

/// One set-up of `workload` in a fresh process; its wall seconds.
fn setup_in_child(workload: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let run = std::process::Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--setup-only",
        ])
        .output()
        .map_err(|e| format!("set-up process: {e}"))?;
    let stdout = String::from_utf8_lossy(&run.stdout);
    let secs = stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.parse().ok());
    match secs {
        Some(s) if run.status.success() => Ok(s),
        _ => Err(format!(
            "set-up process failed ({}): {}",
            run.status,
            String::from_utf8_lossy(&run.stderr).trim()
        )),
    }
}

/// Per-class sample counts and quantiles, plus the tail-size warning.
fn print_classes(out: &Outcome) {
    let p50 = out.plain.per_class(0.5);
    let p90 = out.plain.per_class(0.9);
    println!(
        "setup_s reps: {}",
        out.setup_s
            .iter()
            .map(|s| format!("{s:.6}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "\n{:<22} {:>7} {:>11} {:>11} {:>7}",
        "class", "samples", "p50_ms", "p90_ms", ">p90"
    );
    for (a, b) in p50.iter().zip(&p90) {
        println!(
            "{:<22} {:>7} {:>11.4} {:>11.4} {:>7}",
            a.name,
            a.count,
            a.value * 1e3,
            b.value * 1e3,
            b.beyond
        );
    }
    let beyond = out.plain.beyond_total(0.9);
    if beyond < 10 {
        println!(
            "warning: only {beyond} untraced samples lie beyond the per-class p90s \
             (fewer than 10); lengthen the run"
        );
    }
    println!(
        "ops: {} attempted, {} failed, {} untraced, {} traced, {:.2} s timed",
        out.attempted,
        out.failed,
        out.plain.total(),
        out.traced.total(),
        out.timed_s
    );
    for f in &out.failures {
        println!("FAILED: {f}");
    }
}

/// Per-layer self time of the traced ops.
fn print_self_times(out: &Outcome) {
    let table = out.tracer.self_times();
    let ops = table.get("bench.op").map_or(0, |e| e.1).max(1) as f64;
    let op_total: f64 = out
        .tracer
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9)
        .sum();
    println!(
        "\n{:<52} {:>8} {:>11} {:>7}",
        "span path (layer.what)", "spans", "self_ms/op", "share%"
    );
    for (name, (secs, count)) in &table {
        println!(
            "{name:<52} {count:>8} {:>11.4} {:>7.1}",
            secs * 1e3 / ops,
            if op_total > 0.0 {
                secs / op_total * 100.0
            } else {
                0.0
            }
        );
    }
}

/// The result line the benchmark contract asks for.
fn json_line(out: &Outcome, metrics: &[(&'static str, f64, &'static str)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed
    );
    for (k, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
            if k == 0 { "" } else { ", " }
        );
    }
    s.push_str("}}");
    s
}

/// A few ops of every workload with every check on, traced so both span
/// paths run, then the determinism self-test.
fn smoke(seed: u64) -> Result<(), String> {
    let scratch = Scratch::new()?;
    let params = |seed: u64, traced: bool, ops: u64| Params {
        seed,
        seconds: 0.0,
        traced,
        max_ops: Some(ops),
        work: scratch.0.clone(),
        epoch: Instant::now(),
    };
    let mut ok = true;
    for w in WORKLOADS {
        let ops = match w {
            "edit-recompile" => 4,
            "daemon-warm" => 40,
            _ => 20,
        };
        let first = run_workload(w, &params(seed, true, ops))?;
        let again = run_workload(w, &params(seed, false, ops))?;
        let other = run_workload(w, &params(seed.wrapping_add(1), false, ops))?;
        let mut verdict = Vec::new();
        if first.failed + again.failed + other.failed > 0 || first.attempted == 0 {
            verdict.push(format!(
                "{} failed ops: {:?}",
                first.failed + again.failed + other.failed,
                first
                    .failures
                    .iter()
                    .chain(&again.failures)
                    .chain(&other.failures)
                    .collect::<Vec<_>>()
            ));
        }
        let (a, b) = (deterministic_metrics(&first), deterministic_metrics(&again));
        if a != b {
            verdict.push(format!("same seed, different metrics: {a:?} vs {b:?}"));
        }
        if w.starts_with("suite") && a != deterministic_metrics(&other) {
            verdict.push(format!(
                "seed {} and {} differ: {a:?} vs {:?}",
                seed,
                seed.wrapping_add(1),
                deterministic_metrics(&other)
            ));
        }
        if first.tracer.spans().is_empty() {
            verdict.push("traced run recorded no spans".to_string());
        }
        if verdict.is_empty() {
            println!(
                "smoke {w}: ok ({} ops x3, deterministic metrics repeat)",
                first.attempted
            );
        } else {
            ok = false;
            for v in verdict {
                println!("smoke {w}: FAILED: {v}");
            }
        }
    }
    if ok {
        Ok(())
    } else {
        Err("smoke failed".to_string())
    }
}
