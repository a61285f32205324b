//! **Figure 15**: breakdown of loop candidates by transformation outcome,
//! under the *best* compilation (the configuration the paper analyzes).
//!
//! Paper shape: a minority of loops get a valid partition; ~35% fail on
//! iteration count / body-too-large; ~34% are too small (while loops the
//! compiler cannot unroll — fixed in *anticipated*); only a few fail on the
//! 30-violation-candidate search limit.
//!
//! Run: `cargo run --release -p spt-bench --bin fig15`

use spt_bench::{run_suite, with_store};
use spt_core::{CompilerConfig, LoopOutcome};
use std::collections::HashMap;

fn histogram(config: &CompilerConfig) -> (HashMap<&'static str, usize>, usize) {
    let mut hist: HashMap<&'static str, usize> = HashMap::new();
    let mut total = 0;
    for run in run_suite(config) {
        for l in &run.report.loops {
            *hist.entry(l.outcome.label()).or_insert(0) += 1;
            total += 1;
        }
    }
    (hist, total)
}

fn main() {
    spt_bench::header(
        "Figure 15",
        "loop breakdown by transformation outcome (best vs anticipated)",
    );
    let order = [
        LoopOutcome::Selected.label(),
        LoopOutcome::BodyTooSmall.label(),
        LoopOutcome::BodyTooLarge.label(),
        LoopOutcome::TripCountTooSmall.label(),
        LoopOutcome::CostTooHigh.label(),
        LoopOutcome::PreForkTooLarge.label(),
        LoopOutcome::TooManyVcs.label(),
        LoopOutcome::NestConflict.label(),
        LoopOutcome::NotProfiled.label(),
        LoopOutcome::NotCanonical.label(),
        LoopOutcome::AnalysisFailed.label(),
    ];

    let (best_hist, best_total) = histogram(&with_store(CompilerConfig::best()));
    let (ant_hist, ant_total) = histogram(&with_store(CompilerConfig::anticipated()));

    println!("{:<22} {:>12} {:>14}", "outcome", "best", "anticipated");
    for label in order {
        let b = best_hist.get(label).copied().unwrap_or(0);
        let a = ant_hist.get(label).copied().unwrap_or(0);
        if b == 0 && a == 0 {
            continue;
        }
        println!(
            "{label:<22} {b:>4} ({:>4.0}%) {a:>6} ({:>4.0}%)",
            100.0 * b as f64 / best_total as f64,
            100.0 * a as f64 / ant_total as f64
        );
    }
    println!("{:<22} {best_total:>4}        {ant_total:>6}", "TOTAL");

    let best_small = best_hist
        .get(LoopOutcome::BodyTooSmall.label())
        .copied()
        .unwrap_or(0);
    let ant_small = ant_hist
        .get(LoopOutcome::BodyTooSmall.label())
        .copied()
        .unwrap_or(0);
    println!(
        "\npaper shape check: while-loop unrolling shrinks 'body-too-small' -> {}",
        if ant_small <= best_small {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
    println!("paper: ~34% of loops were too-small while loops under best");
}
