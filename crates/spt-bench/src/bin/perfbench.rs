//! **perfbench**: the compiler's own performance trajectory — wall-clock per
//! pipeline stage over the whole bench suite, sequential (`SPT_THREADS=1`)
//! versus parallel (default thread count), written to `BENCH_pipeline.json`
//! for session-over-session comparison.
//!
//! The interesting numbers are the end-to-end suite wall time, the
//! per-stage breakdown (frontend, preprocess, profile, analysis, SVP,
//! select+emit, simulation), and the partition-search throughput in visited
//! search nodes per analysis second — the metric the incremental evaluator
//! is meant to move.
//!
//! `BENCH_pipeline.json` is a **trajectory**, not a snapshot: each run
//! appends a history entry and the tool prints per-stage deltas against the
//! previous entry, so a regression shows up as a printed slowdown factor,
//! not a silently overwritten number.
//!
//! Every history entry is stamped with its `entry` index and the git
//! revision it measured (`"rev"`). Cache state is controllable: `--cold`
//! clears `.spt-cache/` first so every stage runs from scratch, `--warm`
//! primes the store with an untimed pass so the measured run loads every
//! compile and simulation result instead of computing it.
//!
//! `--incremental` switches to the incremental-recompile scenario: a
//! synthetic analysis-heavy module (see `spt_bench::incremental_workload`)
//! is compiled cold, then one function is edited and recompiled warm
//! through the function-granular unit cache, on one worker. The report of
//! every spliced recompile must be byte-identical to a cold compile of the
//! same source, every warm round must hit every unit but the edited
//! function's two, and the warm recompile's analysis stage — the one the
//! unit cache skips — must be at least 5x faster than the cold one's; the
//! measurements are appended as a `"kind": "incremental"` history entry.
//!
//! Run: `cargo run --release -p spt-bench --bin perfbench`
//! Smoke check (no file write): `... --bin perfbench -- --smoke`
//! Cache control: `... --bin perfbench -- [--cold | --warm]`
//! Incremental scenario: `... --bin perfbench -- --incremental`

use spt_bench::history::{
    git_revision, json_field, load_history, next_entry_index, peak_rss_kb, write_history, ENGINE,
};
use spt_bench::{run_benchmark_timed, TimedBenchmarkRun};
use spt_core::parallel::set_thread_count_override;
use spt_core::CompilerConfig;
use std::fmt::Write as _;
use std::time::Instant;

/// Per-mode stage totals summed over the suite. Under parallel execution
/// the stage sums exceed the wall time — that is the point.
#[derive(Default)]
struct Totals {
    wall_s: f64,
    compile_s: f64,
    preprocess_s: f64,
    profile_s: f64,
    analysis_s: f64,
    svp_s: f64,
    select_emit_s: f64,
    sim_s: f64,
    search_visited: u64,
    /// Artifact-store hits: `SimResult` memos, pass-1 analysis units and
    /// whole compiles loaded instead of computed.
    store_hits: u64,
    /// Simulations, analysis units and compiles the store could not serve.
    store_misses: u64,
}

impl Totals {
    fn from_runs(runs: &[TimedBenchmarkRun], wall_s: f64) -> Totals {
        let mut t = Totals {
            wall_s,
            ..Totals::default()
        };
        for r in runs {
            t.compile_s += r.compile_s;
            t.preprocess_s += r.stages.preprocess_s;
            t.profile_s += r.stages.profile_s;
            t.analysis_s += r.stages.analysis_s;
            t.svp_s += r.stages.svp_s;
            t.select_emit_s += r.stages.select_emit_s;
            t.sim_s += r.sim_baseline_s + r.sim_spt_s;
            t.search_visited += r.stages.search_visited;
            t.store_hits +=
                r.sim_trace.hits() + r.stages.func_analysis_hits + r.stages.compile_hits;
            t.store_misses +=
                r.sim_trace.misses() + r.stages.func_analysis_misses + r.stages.compile_misses;
        }
        t
    }

    fn search_nodes_per_s(&self) -> f64 {
        if self.analysis_s > 0.0 {
            self.search_visited as f64 / self.analysis_s
        } else {
            0.0
        }
    }

    fn json(&self, threads: usize) -> String {
        format!(
            "{{\"threads\": {threads}, \"wall_s\": {:.6}, \"compile_s\": {:.6}, \
             \"preprocess_s\": {:.6}, \"profile_s\": {:.6}, \"analysis_s\": {:.6}, \
             \"svp_s\": {:.6}, \"select_emit_s\": {:.6}, \"sim_s\": {:.6}, \
             \"search_visited\": {}, \"search_nodes_per_s\": {:.1}, \
             \"store_hits\": {}, \"store_misses\": {}}}",
            self.wall_s,
            self.compile_s,
            self.preprocess_s,
            self.profile_s,
            self.analysis_s,
            self.svp_s,
            self.select_emit_s,
            self.sim_s,
            self.search_visited,
            self.search_nodes_per_s(),
            self.store_hits,
            self.store_misses
        )
    }
}

/// Runs the whole suite, timed, under the current worker-count setting.
fn run_suite_timed(config: &CompilerConfig) -> (Vec<TimedBenchmarkRun>, f64) {
    let suite = spt_bench_suite::suite();
    let t0 = Instant::now();
    let runs = spt_core::parallel::parallel_map(&suite, |b| run_benchmark_timed(b, config));
    let wall = t0.elapsed().as_secs_f64();
    (runs, wall)
}

/// Order-stable FNV-1a digest over everything a run *computed* — reports
/// and simulation results, never wall times or cache counters — so two runs
/// of this tool print the same digest exactly when they produced the same
/// results, whether they were served cold or from the cache.
fn report_digest(runs: &[TimedBenchmarkRun]) -> u64 {
    let mut h = spt_trace::codec::Fnv::new();
    for r in runs {
        spt_bench::fold_report_digest(
            &mut h,
            &format!("{:?}", r.run.report),
            &r.run.baseline,
            &r.run.spt,
        );
    }
    h.finish()
}

fn print_mode(label: &str, t: &Totals, threads: usize) {
    println!(
        "{label:<12} threads={threads:<3} wall={:>7.3}s  stages: compile={:.3} preprocess={:.3} \
         profile={:.3} analysis={:.3} svp={:.3} select+emit={:.3} sim={:.3}",
        t.wall_s,
        t.compile_s,
        t.preprocess_s,
        t.profile_s,
        t.analysis_s,
        t.svp_s,
        t.select_emit_s,
        t.sim_s
    );
    println!(
        "{:<12} search: {} nodes in {:.3}s analysis = {:.0} nodes/s",
        "",
        t.search_visited,
        t.analysis_s,
        t.search_nodes_per_s()
    );
}

/// The `"sequential": {...}` sub-object of a history entry, if present.
fn sequential_scope(entry: &str) -> Option<&str> {
    let pos = entry.find("\"sequential\"")?;
    let open = pos + entry[pos..].find('{')?;
    let close = open + entry[open..].find('}')?;
    Some(&entry[open..=close])
}

/// The most recent history entry that carries a `"sequential"` scope —
/// `loadgen`'s daemon entries interleave into the same history but have no
/// per-stage breakdown to delta against, so they are skipped here.
fn last_stage_entry(history: &[String]) -> Option<&String> {
    history.iter().rev().find(|e| e.contains("\"sequential\""))
}

/// Prints per-stage deltas of this run's sequential totals against the
/// previous history entry.
fn print_deltas(prev_entry: &str, seq: &Totals) {
    let Some(prev) = sequential_scope(prev_entry) else {
        return;
    };
    println!("\nper-stage delta vs previous entry (sequential):");
    let stages: [(&str, f64); 8] = [
        ("wall_s", seq.wall_s),
        ("compile_s", seq.compile_s),
        ("preprocess_s", seq.preprocess_s),
        ("profile_s", seq.profile_s),
        ("analysis_s", seq.analysis_s),
        ("svp_s", seq.svp_s),
        ("select_emit_s", seq.select_emit_s),
        ("sim_s", seq.sim_s),
    ];
    for (name, now) in stages {
        let Some(before) = json_field(prev, name) else {
            continue;
        };
        let factor = if now > 0.0 {
            before / now
        } else {
            f64::INFINITY
        };
        println!(
            "  {name:<14} {before:>9.6}s -> {now:>9.6}s  ({:+.6}s, {factor:.2}x)",
            now - before
        );
    }
}

/// The incremental-recompile scenario (`--incremental`): median cold
/// compile time of an analysis-heavy module versus the median warm
/// recompile time after editing one function, with every spliced report
/// checked byte-for-byte against a cold compile of the identical source.
/// Dies unless every warm round hits all units but the edited function's
/// pre- and post-SVP ones, and its median analysis stage
/// (`StageTimings::analysis_s`) is at least [`MIN_INC_SPEEDUP`]x faster
/// than the cold one's. The whole-transform ratio is printed, not gated:
/// profiling, preprocessing, SVP, selection and emission run either way.
const MIN_INC_SPEEDUP: f64 = 5.0;
const INC_EDITS: usize = 3;

fn run_incremental(write_history_file: bool) {
    use spt_bench::incremental_workload as workload;
    use spt_core::pipeline::transform_module_timed_with;
    use spt_core::{ProfilingInput, StageTimings, Store};

    // No artifact store: the function-granular cache under measurement is
    // the explicit in-memory one, not the `.spt-cache/` artifact tiers.
    let config = CompilerConfig::best();
    let input = ProfilingInput::new(workload::ENTRY, [workload::TRAIN_ARG]);
    let base = workload::source();
    let compile = |src: &str, cache: Option<&Store>| -> (String, StageTimings, u64) {
        let mut module = spt_frontend::compile(src)
            .unwrap_or_else(|e| spt_bench::die(format!("workload compile failed: {e}")));
        let t = Instant::now();
        let (report, timings) = transform_module_timed_with(&mut module, &input, &config, cache)
            .unwrap_or_else(|e| spt_bench::die(format!("workload pipeline failed: {e}")));
        (
            format!("{report:?}"),
            timings,
            t.elapsed().as_micros() as u64,
        )
    };
    fn median<T: Copy + PartialOrd>(mut v: Vec<T>) -> T {
        v.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        v[v.len() / 2]
    }
    // One worker on both sides: the gate compares work, not how the
    // pass-1 fan-out happens to spread over the host's cores.
    set_thread_count_override(Some(1));
    // Each function (the kernels and `main`) is probed before and after
    // SVP; an edit dirties one kernel, whose two probes miss.
    let want_misses = 2;
    let want_hits = 2 * (workload::KERNELS as u64 + 1) - want_misses;

    // Prime: one cold compile through the cache fills every function's
    // analysis unit.
    let cache = Store::in_memory(256 << 20, 8);
    let (_, _, prime_us) = compile(&base, Some(&cache));

    // Each round edits one kernel of the *base* source, so relative to the
    // primed cache exactly one function is dirty every time.
    let mut full_us = Vec::new();
    let mut inc_us = Vec::new();
    let mut full_analysis_s = Vec::new();
    let mut inc_analysis_s = Vec::new();
    let mut last = StageTimings::default();
    for round in 1..=INC_EDITS {
        let edited = workload::edit(&base, round);
        let (cold_report, cold, cold_us) = compile(&edited, None);
        let (inc_report, timings, warm_us) = compile(&edited, Some(&cache));
        if cold_report != inc_report {
            spt_bench::die(format!(
                "round {round}: spliced report differs from cold compile"
            ));
        }
        println!(
            "edit round {round}: cold {cold_us}us (analysis {:.0}us), \
             warm {warm_us}us (analysis {:.0}us; analysis units: {} hits / {} misses)",
            cold.analysis_s * 1e6,
            timings.analysis_s * 1e6,
            timings.func_analysis_hits,
            timings.func_analysis_misses
        );
        if (timings.func_analysis_hits, timings.func_analysis_misses) != (want_hits, want_misses) {
            spt_bench::die(format!(
                "round {round}: expected {want_hits} analysis-unit hits and {want_misses} \
                 misses, got {} and {}",
                timings.func_analysis_hits, timings.func_analysis_misses
            ));
        }
        full_us.push(cold_us);
        inc_us.push(warm_us);
        full_analysis_s.push(cold.analysis_s);
        inc_analysis_s.push(timings.analysis_s);
        last = timings;
    }
    set_thread_count_override(None);
    let ratio = |full: f64, inc: f64| if inc > 0.0 { full / inc } else { f64::INFINITY };
    let t_full = median(full_us);
    let t_inc = median(inc_us);
    let transform_speedup = ratio(t_full as f64, t_inc as f64);
    let a_full = median(full_analysis_s);
    let a_inc = median(inc_analysis_s);
    let speedup = ratio(a_full, a_inc);
    println!(
        "\nincremental recompile: {} kernels, prime {prime_us}us, \
         cold median {t_full}us vs warm median {t_inc}us = {transform_speedup:.2}x; \
         analysis stage cold median {:.0}us vs warm median {:.0}us = {speedup:.2}x \
         (reports byte-identical)",
        workload::KERNELS,
        a_full * 1e6,
        a_inc * 1e6,
    );
    if speedup < MIN_INC_SPEEDUP {
        spt_bench::die(format!(
            "the warm edit-one-function recompile's analysis stage is only {speedup:.2}x \
             faster (target >= {MIN_INC_SPEEDUP:.0}x)"
        ));
    }

    if !write_history_file {
        println!("\nincremental pass OK (no BENCH_pipeline.json update)");
        return;
    }
    let mut history = load_history("BENCH_pipeline.json");
    let entry = format!(
        "{{\"entry\": {}, \"rev\": \"{}\", \"kind\": \"incremental\", \"config\": \"best\", \
         \"exec_tier\": \"{}\", \"cache_mode\": \"memory\", \"kernels\": {}, \
         \"edits\": {INC_EDITS}, \
         \"prime_us\": {prime_us}, \"t_full_us\": {t_full}, \"t_inc_us\": {t_inc}, \
         \"inc_speedup\": {transform_speedup:.2}, \"inc_analysis_speedup\": {speedup:.2}, \
         \"func_units_total\": {}, \
         \"func_analysis_hits\": {}, \"func_analysis_misses\": {}, \
         \"digest_equal\": true, \"peak_rss_kb\": {}}}",
        next_entry_index(&history),
        git_revision(),
        ENGINE,
        workload::KERNELS,
        last.func_units_total,
        last.func_analysis_hits,
        last.func_analysis_misses,
        peak_rss_kb()
    );
    history.push(entry);
    write_history("BENCH_pipeline.json", &history)
        .unwrap_or_else(|e| spt_bench::die(format!("cannot write BENCH_pipeline.json: {e}")));
    println!(
        "\nwrote BENCH_pipeline.json ({} history entr{})",
        history.len(),
        if history.len() == 1 { "y" } else { "ies" }
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let smoke = has("--smoke");
    let cold = has("--cold");
    let warm = has("--warm");
    if cold && warm {
        spt_bench::die("--cold and --warm are mutually exclusive");
    }
    if has("--incremental") {
        spt_bench::header(
            "perfbench --incremental",
            "edit-one-function warm recompile vs cold compile",
        );
        run_incremental(!smoke);
        return;
    }
    spt_bench::header(
        "perfbench",
        "pipeline wall-time per stage, sequential vs parallel",
    );
    // `best` with the artifact store at `.spt-cache/`: the production setup
    // this tool measures. Run it twice to see warm-store numbers.
    let config = spt_bench::with_store(CompilerConfig::best());

    if cold {
        // Start from an empty artifact cache: every stage pays full cost.
        let _ = std::fs::remove_dir_all(".spt-cache");
        println!("cache mode: cold (.spt-cache/ cleared)");
    } else if warm {
        // Prime the store with a throwaway pass; the measured run below then
        // loads every compile and simulation result.
        set_thread_count_override(Some(1));
        let _ = run_suite_timed(&config);
        set_thread_count_override(None);
        println!("cache mode: warm (.spt-cache/ primed by an untimed pass)");
    }

    // Sequential baseline first: force one worker everywhere (the override
    // reaches the nested per-loop fan-out too).
    set_thread_count_override(Some(1));
    let (seq_runs, seq_wall) = run_suite_timed(&config);
    set_thread_count_override(None);
    let seq = Totals::from_runs(&seq_runs, seq_wall);

    if smoke {
        // Quick harness check: one sequential pass, no parallel run, no
        // file write — just prove the suite compiles, runs, and times. The
        // digest covers only computed results, so consecutive smoke runs
        // must print the same digest whether served cold or from the store.
        print_mode("sequential", &seq, 1);
        println!(
            "artifact store: {} hits, {} misses",
            seq.store_hits, seq.store_misses
        );
        println!("report digest: {:016x}", report_digest(&seq_runs));
        assert!(seq.wall_s > 0.0 && seq.sim_s > 0.0);
        // Only a pass the store served whole (every compile decoded from
        // its memo) profiles nothing.
        assert!(seq.profile_s > 0.0 || seq.store_misses == 0);
        if let Some(prev) = last_stage_entry(&load_history("BENCH_pipeline.json")) {
            print_deltas(prev, &seq);
        }
        println!("\nsmoke pass OK (no BENCH_pipeline.json update)");
        return;
    }

    // Then the parallel run under the real thread count.
    let threads = spt_core::parallel::thread_count();
    let (par_runs, par_wall) = run_suite_timed(&config);
    let par = Totals::from_runs(&par_runs, par_wall);

    print_mode("sequential", &seq, 1);
    print_mode("parallel", &par, threads);
    let speedup = if par.wall_s > 0.0 {
        seq.wall_s / par.wall_s
    } else {
        1.0
    };
    let rss = peak_rss_kb();
    println!("\nsuite wall speedup: {speedup:.2}x  (peak RSS {rss} kB)");
    println!(
        "artifact store: {} hits, {} misses (sequential pass: {} hits, {} misses)",
        seq.store_hits + par.store_hits,
        seq.store_misses + par.store_misses,
        seq.store_hits,
        seq.store_misses
    );
    println!("report digest: {:016x}", report_digest(&seq_runs));

    // Reports must agree between the two modes — determinism is part of the
    // contract the parallel drivers advertise.
    for (s, p) in seq_runs.iter().zip(&par_runs) {
        assert_eq!(
            format!("{:?}", s.run.report),
            format!("{:?}", p.run.report),
            "{}: parallel report diverged from sequential",
            s.run.name
        );
    }
    println!("determinism check: parallel reports identical to sequential -> OK");

    let mut per_bench = String::new();
    for (i, r) in seq_runs.iter().enumerate() {
        if i > 0 {
            per_bench.push_str(", ");
        }
        let _ = write!(
            per_bench,
            "{{\"name\": \"{}\", \"total_s\": {:.6}, \"analysis_s\": {:.6}, \
             \"search_visited\": {}}}",
            r.run.name,
            r.total_s(),
            r.stages.analysis_s,
            r.stages.search_visited
        );
    }
    let mut history = load_history("BENCH_pipeline.json");
    if let Some(prev) = last_stage_entry(&history) {
        print_deltas(prev, &seq);
    }
    let cache_mode = if cold {
        "cold"
    } else if warm {
        "warm"
    } else {
        "as-found"
    };
    let entry = format!(
        "{{\"entry\": {}, \"rev\": \"{}\", \"config\": \"best\", \
         \"exec_tier\": \"{}\", \"cache_mode\": \"{cache_mode}\", \
         \"sequential\": {}, \"parallel\": {}, \
         \"suite_wall_speedup\": {speedup:.3}, \"peak_rss_kb\": {rss}, \
         \"per_benchmark_sequential\": [{per_bench}]}}",
        next_entry_index(&history),
        git_revision(),
        ENGINE,
        seq.json(1),
        par.json(threads)
    );
    history.push(entry);
    write_history("BENCH_pipeline.json", &history)
        .unwrap_or_else(|e| spt_bench::die(format!("cannot write BENCH_pipeline.json: {e}")));
    println!(
        "wrote BENCH_pipeline.json ({} history entr{})",
        history.len(),
        if history.len() == 1 { "y" } else { "ies" }
    );
}
