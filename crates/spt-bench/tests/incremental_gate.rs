//! The edit-one-function recompile through the function-granular unit
//! cache, on the analysis-heavy workload of `spt_bench::incremental_workload`.
//!
//! One cold compile through an in-memory store fills every function's
//! analysis units. Each round then renames one kernel of the base source and
//! compiles it twice: cold with no store, and warm through the filled one.
//! The warm report must equal the cold one byte for byte, and the warm
//! round must hit every unit but the edited function's two. In release
//! builds, the warm analysis stage must also be at least five times faster
//! than the cold one's (medians over the rounds).
//!
//! Both sides run on one worker, so the timing compares work, not how the
//! pass-1 fan-out spreads over the host's cores. The override is
//! process-wide, and every test in this binary wants it. The tests take
//! turns, so neither times its rounds while the other one computes.

use spt_bench::incremental_workload as workload;
use spt_core::parallel::set_thread_count_override;
use spt_core::pipeline::transform_module_timed_with;
use spt_core::{CompilerConfig, ProfilingInput, StageTimings, Store};
use std::sync::{Mutex, PoisonError};

/// Edit rounds; the timing gate compares their medians.
const ROUNDS: usize = 3;

/// The least ratio of the cold analysis stage's median time to the warm
/// one's. Profiling, preprocessing, SVP, selection and emission run either
/// way, so only the analysis stage, which the unit cache skips, is gated.
const MIN_ANALYSIS_SPEEDUP: f64 = 5.0;

/// The report's debug rendering and the stage timings of one compile of
/// `source`, through `cache` when given.
fn compile(source: &str, cache: Option<&Store>) -> (String, StageTimings) {
    let config = CompilerConfig::best();
    let input = ProfilingInput::new(workload::ENTRY, [workload::TRAIN_ARG]);
    let mut module = spt_frontend::compile(source).expect("the workload compiles");
    let (report, timings) = transform_module_timed_with(&mut module, &input, &config, cache)
        .expect("the workload's pipeline runs");
    (format!("{report:?}"), timings)
}

/// Runs the rounds, checking each one's splice and unit counts, and
/// returns the cold and warm analysis-stage seconds of every round.
fn edit_rounds() -> (Vec<f64>, Vec<f64>) {
    static TURN: Mutex<()> = Mutex::new(());
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    set_thread_count_override(Some(1));
    // Each function (the kernels and `main`) is probed before and after
    // SVP; the edit dirties one kernel, whose two probes miss.
    let want_misses = 2;
    let want_hits = 2 * (workload::KERNELS as u64 + 1) - want_misses;
    let base = workload::source();
    let cache = Store::in_memory(256 << 20, 8);
    compile(&base, Some(&cache));
    let mut cold_s = Vec::new();
    let mut warm_s = Vec::new();
    for round in 1..=ROUNDS {
        // Each round edits the *base* source, so relative to the filled
        // store exactly one function is dirty every time.
        let edited = workload::edit(&base, round);
        let (cold_report, cold) = compile(&edited, None);
        let (warm_report, warm) = compile(&edited, Some(&cache));
        assert_eq!(
            warm_report, cold_report,
            "round {round}: the spliced report differs from the cold compile"
        );
        assert_eq!(
            (warm.func_analysis_hits, warm.func_analysis_misses),
            (want_hits, want_misses),
            "round {round}: analysis-unit (hits, misses)"
        );
        cold_s.push(cold.analysis_s);
        warm_s.push(warm.analysis_s);
    }
    (cold_s, warm_s)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

#[test]
fn a_warm_edit_splices_the_cold_report_and_misses_only_the_edited_function() {
    edit_rounds();
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timed: run in release (scripts/ci.sh)")]
fn a_warm_edit_analyzes_at_least_five_times_faster_than_a_cold_compile() {
    let (cold_s, warm_s) = edit_rounds();
    let (cold, warm) = (median(cold_s), median(warm_s));
    let speedup = cold / warm;
    println!(
        "analysis stage: cold median {:.0}us, warm median {:.0}us = {speedup:.2}x",
        cold * 1e6,
        warm * 1e6
    );
    assert!(
        speedup >= MIN_ANALYSIS_SPEEDUP,
        "the warm analysis stage is only {speedup:.2}x faster \
         ({:.0}us cold, {:.0}us warm; want >= {MIN_ANALYSIS_SPEEDUP}x)",
        cold * 1e6,
        warm * 1e6
    );
}
