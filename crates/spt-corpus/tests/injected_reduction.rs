//! End-to-end triage drill (feature `failpoints`): deliberately inject a
//! failure into the pipeline, watch the oracle battery catch it, and
//! assert the delta-debugging reducer shrinks the failing module to a
//! minimal repro that round-trips through the on-disk regression format.

#![cfg(feature = "failpoints")]

use spt_core::failpoint::{self, Action};
use spt_corpus::reduce::{load_repros, reduce_and_persist};
use spt_corpus::{
    bucket_of, check_program, generate, with_quiet_panic_hook, CheckOptions, ProgramUnderTest,
};

/// Forces every registered site over a couple of corpus seeds: no escaped
/// panic, contained sites degrade with baseline semantics, error-channel
/// sites fail cleanly or degrade.
#[test]
fn failpoint_sweep_contract_holds_on_generated_programs() {
    with_quiet_panic_hook(|| {
        let outcome = spt_corpus::sweep_failpoints(55, 2, &CheckOptions::default());
        assert_eq!(outcome.runs, 2 * failpoint::sites().len());
        assert!(outcome.is_green(), "{:#?}", outcome.failures);
    });
}

#[test]
fn injected_failure_is_caught_reduced_and_persisted() {
    with_quiet_panic_hook(|| {
        // The failpoint registry is process-global: hold the same lock the
        // sweep holds so the two tests cannot clear each other's rules.
        let _serial = spt_corpus::oracle::global_state_lock();
        let _scope = failpoint::scoped();
        failpoint::set(
            "pipeline::verify",
            Action::error("deliberate corpus injection"),
        );

        // Lean options: the injected failure fires in the base compile, so
        // the reducer's probes need no cross-compile oracles.
        let opts = CheckOptions {
            check_threads: false,
            check_engines: false,
            cache_root: None,
            ..CheckOptions::default()
        };

        let seed = 424_242;
        let p = generate(seed);
        let under = ProgramUnderTest::from(&p);
        let failures = check_program(&under, &opts);
        assert!(
            !failures.is_empty(),
            "injected failpoint was not caught by the battery"
        );
        let target = bucket_of(&failures[0]);
        assert!(
            target.signature.contains("failpoint"),
            "unexpected bucket: {target}"
        );

        let dir = std::env::temp_dir().join(format!("spt-corpus-injected-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (path, repro) =
            reduce_and_persist(seed, &under, failures[0].kind, &target, &opts, &dir)
                .expect("persist repro");

        // The acceptance bar: a minimal repro of at most 25 minic lines.
        let lines = repro.source.lines().count();
        assert!(
            lines <= 25,
            "reduction stopped at {lines} lines:\n{}",
            repro.source
        );

        // The minimized program still reproduces the bucket.
        let replayed = check_program(&repro.under_test("replay"), &opts);
        assert!(
            replayed.iter().any(|f| bucket_of(f) == target),
            "minimized repro no longer reproduces {target}"
        );

        // And it round-trips through the regression store.
        let loaded = load_repros(&dir);
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].0, path);
        assert_eq!(loaded[0].1.source, repro.source);
        let _ = std::fs::remove_dir_all(&dir);
    });
}
