//! Every answer of the suite, pinned.
//!
//! One digest folds, in suite order, each program's compilation report and
//! its baseline and SPT simulation outcomes under the `best` configuration
//! ([`spt_bench::fold_report_digest`]), with the artifact store off, so
//! every stage runs and no stored file can stand in for a computed answer.
//! Any change to the frontend, the cost model, selection, SVP, emission or
//! the simulator that changes what the tools print moves it. A change that
//! moves it on purpose re-pins it and says why.

use spt_core::CompilerConfig;

/// The digest at which the suite's answers are pinned.
const REPORT_DIGEST: u64 = 0x3dfd_ced5_6e70_ffa7;

#[test]
fn suite_answers_are_pinned() {
    let config = CompilerConfig::best();
    assert!(
        !config.trace.enabled,
        "the digest is taken with the store off"
    );
    let mut h = spt_trace::codec::Fnv::new();
    for run in spt_bench::run_suite(&config) {
        spt_bench::fold_report_digest(
            &mut h,
            &format!("{:?}", run.report),
            &run.baseline,
            &run.spt,
        );
    }
    let digest = h.finish();
    assert_eq!(
        digest, REPORT_DIGEST,
        "the suite's answers moved: {digest:#018x}"
    );
}
