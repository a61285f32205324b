//! Replays every checked-in minimal repro under `tests/corpus-regressions/`
//! through the full differential-oracle battery.
//!
//! Each `.minic` file is a delta-debugged module that once exposed a real
//! pipeline failure (its header records the finding seed, the violated
//! oracle, and the bucket signature). A fixed bug must stay fixed: every
//! repro has to come back green. When the corpus runner finds a new bug,
//! `corpus --reduce` drops the minimized module here and this test starts
//! guarding it.

use spt_corpus::reduce::load_repros;
use spt_corpus::{check_program, with_quiet_panic_hook, CheckOptions};
use std::path::Path;

#[test]
fn checked_in_repros_stay_green() {
    with_quiet_panic_hook(|| {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus-regressions");
        let repros = load_repros(&dir);
        assert!(
            !repros.is_empty(),
            "no repros under {} — the regression store should never be empty",
            dir.display()
        );
        // Hermetic replay: no artifact cache, but every differential oracle
        // (semantics, engines, thread invariance) stays on.
        let opts = CheckOptions {
            cache_root: None,
            ..CheckOptions::default()
        };
        for (path, repro) in &repros {
            let failures = check_program(&repro.under_test("replay"), &opts);
            assert!(
                failures.is_empty(),
                "{} regressed (seed {}, oracle {}): {:#?}",
                path.display(),
                repro.seed,
                repro.oracle,
                failures
            );
        }
    });
}
