//! **Sensitivity**: how the headline speedup responds to the machine
//! parameters the paper fixes — fork/commit overheads (6/5 cycles) and the
//! speculative-execution size limit. This is the design-space ablation
//! behind the paper's §6.1 criterion 3 ("the performance gain ... will not
//! be enough to compensate for the overhead of forking a thread") and its
//! max-loop-size limit of 1000.
//!
//! Every machine point simulates the *same four programs*, so each
//! benchmark is compiled once (not once per point) and every simulation
//! goes through `sim_with_cache`: `.spt-cache/` memoizes each
//! `(module, machine point)` result, so a re-run of the sweep simulates
//! nothing.
//!
//! Run: `cargo run --release -p spt-bench --bin sensitivity`

use spt_bench::geomean;
use spt_core::{compile_and_transform, CompilerConfig, ProfilingInput, TraceSettings};
use spt_serve::{sim_with_cache, SimTraceStats};
use spt_sim::MachineConfig;
use std::time::Instant;

const SAMPLE: [&str; 4] = ["gcc_s", "vpr_s", "twolf_s", "parser_s"];

/// One sample benchmark compiled once, reused for every machine point.
struct Prepared {
    name: &'static str,
    entry: &'static str,
    ref_arg: i64,
    baseline: spt_ir::Module,
    module: spt_ir::Module,
}

/// Compiles the sample benchmarks once, in parallel, under `best` with the
/// given artifact-store settings.
fn prepare(trace: &TraceSettings) -> Vec<Prepared> {
    spt_core::parallel::parallel_map(&SAMPLE, |name| {
        let b = spt_bench_suite::benchmark(name)
            .unwrap_or_else(|| spt_bench::die(format!("no such benchmark: {name}")));
        let input = ProfilingInput::new(b.entry, [b.train_arg]);
        let mut config = CompilerConfig::best();
        config.trace = trace.clone();
        let compiled = compile_and_transform(b.source, &input, &config)
            .unwrap_or_else(|e| spt_bench::die(format!("{name}: pipeline failed: {e}")));
        Prepared {
            name,
            entry: b.entry,
            ref_arg: b.ref_arg,
            baseline: compiled.baseline,
            module: compiled.module,
        }
    })
}

/// Geomean speedup across the prepared sample at one machine point, every
/// simulation memoized in the artifact store.
fn speedups(
    prepared: &[Prepared],
    machine: &MachineConfig,
    trace: &TraceSettings,
    stats: &mut SimTraceStats,
) -> f64 {
    let out = spt_core::parallel::parallel_map(prepared, |p| {
        let mut st = SimTraceStats::default();
        let base = sim_with_cache(&p.baseline, p.entry, p.ref_arg, machine, trace, &mut st)
            .unwrap_or_else(|e| spt_bench::die(format!("{}: baseline sim failed: {e}", p.name)));
        let spt = sim_with_cache(&p.module, p.entry, p.ref_arg, machine, trace, &mut st)
            .unwrap_or_else(|e| spt_bench::die(format!("{}: SPT sim failed: {e}", p.name)));
        assert_eq!(base.ret, spt.ret);
        (base.cycles as f64 / spt.cycles as f64, st)
    });
    for (_, st) in &out {
        stats.absorb(st);
    }
    geomean(out.iter().map(|&(s, _)| s))
}

/// Runs the three parameter sweeps, printing tables and shape checks.
fn run_sweeps(mut speedup_of: impl FnMut(&MachineConfig) -> f64) {
    println!("-- fork+commit overhead sweep (paper point: fork=6, commit=5)");
    println!("{:>18} {:>10}", "fork/commit", "speedup");
    let mut last = f64::MAX;
    let mut monotone = true;
    for (fork, commit) in [(0u64, 0u64), (6, 5), (20, 15), (60, 50), (200, 150)] {
        let machine = MachineConfig {
            fork_overhead: fork,
            commit_overhead: commit,
            ..MachineConfig::default()
        };
        let s = speedup_of(&machine);
        println!("{fork:>9}/{commit:<8} {s:>10.3}");
        if s > last + 1e-9 {
            monotone = false;
        }
        last = s;
    }
    println!(
        "shape check: speedup decays as overheads grow -> {}",
        if monotone { "HOLDS" } else { "VIOLATED" }
    );

    println!("\n-- speculative size limit sweep (paper: hardware-limited)");
    println!("{:>12} {:>10}", "max ops", "speedup");
    let mut prev = 0.0;
    let mut nondecreasing = true;
    for cap in [8usize, 32, 128, 512, 4000] {
        let machine = MachineConfig {
            max_spec_ops: cap,
            ..MachineConfig::default()
        };
        let s = speedup_of(&machine);
        println!("{cap:>12} {s:>10.3}");
        if s < prev - 0.02 {
            nondecreasing = false;
        }
        prev = s;
    }
    println!(
        "shape check: more speculation headroom never hurts (±2%) -> {}",
        if nondecreasing { "HOLDS" } else { "VIOLATED" }
    );

    println!("\n-- speculative store buffer sweep");
    println!("{:>12} {:>10}", "entries", "speedup");
    for entries in [2usize, 8, 64, 512] {
        let machine = MachineConfig {
            spec_buffer_entries: entries,
            ..MachineConfig::default()
        };
        let s = speedup_of(&machine);
        println!("{entries:>12} {s:>10.3}");
    }
}

fn main() {
    spt_bench::header(
        "Sensitivity",
        "speedup vs fork/commit overheads and speculation size limit",
    );

    let trace = TraceSettings {
        enabled: true,
        cache_dir: Some(".spt-cache".into()),
    };
    let mut stats = SimTraceStats::default();
    let mut points = 0usize;

    let t0 = Instant::now();
    let prepared = prepare(&trace);
    run_sweeps(|machine| {
        points += 1;
        speedups(&prepared, machine, &trace, &mut stats)
    });
    println!(
        "\n{points} machine points over {} programs in {:.3}s \
         (sim memos: {} hits, {} misses)",
        SAMPLE.len(),
        t0.elapsed().as_secs_f64(),
        stats.hits(),
        stats.misses()
    );
}
