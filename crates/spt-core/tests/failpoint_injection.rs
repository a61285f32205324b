//! Fault-injection proof of the pipeline's isolation boundaries
//! (`failpoints` builds only; see `spt_core::failpoint`).
//!
//! The containment contract under test: a fault injected into *exactly one*
//! loop's analysis (or emission) degrades that loop alone —
//! `compile_and_transform` still returns `Ok`, the affected loop's record
//! carries a degraded outcome plus a matching diagnostic, **every other
//! loop's record is byte-identical** to an uninjected run, and the
//! transformed module still computes the same results as the baseline.

#![cfg(feature = "failpoints")]

use spt_core::failpoint::{self, Action};
use spt_core::{
    compile_and_transform, pipeline::transform_module, transform_module_timed_with,
    CompilationReport, CompilerConfig, LoopOutcome, LoopRecord, PipelineError, ProfilingInput,
    Severity, SptCompilation, Stage, StageTimings, Store,
};
use spt_profile::{Interp, Val};
use std::sync::Mutex;

/// The fail-point registry and the panic hook are process-global; every test
/// in this binary serializes on this lock.
static SERIAL: Mutex<()> = Mutex::new(());

const PROGRAM: &str = "
    global data[4096]: int;
    global out[4096]: int;
    fn seed_data(n: int) {
        let v = 12345;
        for (let i = 0; i < n; i = i + 1) {
            v = (v * 1103515245 + 12345) % 65536;
            data[i] = v;
        }
    }
    fn kernel(n: int) -> int {
        let s = 0;
        for (let i = 0; i < n; i = i + 1) {
            let x = data[i];
            let t = (x * x) % 97 + (x / 3) * 2 - (x % 7);
            let u = (t * 13 + 7) % 1000;
            let w = (u * u + x) % 4096;
            out[i] = w + t - u + x * 2 + (w % 5) * (t % 11);
            s = s + w % 17 + t % 19;
        }
        return s;
    }
    fn main(n: int) -> int {
        seed_data(n);
        return kernel(n);
    }
";

/// `best` minus SVP: without the SVP re-profile/re-analysis round, a fault
/// in one loop's pass-1 analysis cannot perturb any other loop's record
/// through a second analysis pass, which is exactly the isolation the test
/// wants to observe.
fn config() -> CompilerConfig {
    let mut c = CompilerConfig::best();
    c.use_svp = false;
    c
}

fn input() -> ProfilingInput {
    ProfilingInput::new("main", [600])
}

fn compile() -> SptCompilation {
    compile_and_transform(PROGRAM, &input(), &config()).expect("pipeline must succeed")
}

fn run_module(module: &spt_ir::Module, n: i64) -> i64 {
    let interp = Interp::new(module);
    interp
        .run("main", &[Val::from_i64(n)], &mut spt_profile::NoProfiler)
        .expect("module runs")
        .ret
        .expect("main returns")
        .as_i64()
}

/// Silences the default panic hook while `f` runs: the injected panics are
/// expected and caught, so their backtraces are pure noise.
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// `"func_name@header"` — the dynamic key of the per-loop fail-point sites.
fn loop_key(r: &LoopRecord) -> String {
    format!("{}@{}", r.func_name, r.header)
}

/// Asserts that every record except the one at `(func, header)` is
/// byte-identical (Debug formatting) between the two runs.
fn assert_other_records_identical(
    clean: &[LoopRecord],
    injected: &[LoopRecord],
    func: spt_ir::FuncId,
    header: spt_ir::BlockId,
) {
    assert_eq!(clean.len(), injected.len(), "loop candidate set changed");
    for (c, i) in clean.iter().zip(injected) {
        assert_eq!(
            (c.func, c.header),
            (i.func, i.header),
            "record order changed"
        );
        if c.func == func && c.header == header {
            continue;
        }
        assert_eq!(
            format!("{c:?}"),
            format!("{i:?}"),
            "unaffected loop {}@{} diverged under injection",
            c.func_name,
            c.header
        );
    }
}

#[test]
fn panic_in_one_loops_analysis_degrades_only_that_loop() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = failpoint::scoped();

    let clean = compile();
    let target = clean
        .report
        .loops
        .iter()
        .find(|r| r.func_name == "kernel" && r.outcome == LoopOutcome::Selected)
        .expect("kernel loop selected in the clean run")
        .clone();

    failpoint::set_keyed(
        "pipeline::analysis",
        &loop_key(&target),
        Action::panic("injected analysis fault"),
    );
    let injected = with_quiet_panics(compile);

    let hit = injected
        .report
        .loops
        .iter()
        .find(|r| r.func == target.func && r.header == target.header)
        .expect("injected loop still reported");
    assert_eq!(hit.outcome, LoopOutcome::AnalysisFailed);

    let diags = injected.report.diagnostics_for(target.func, target.header);
    assert!(
        diags.iter().any(|d| d.stage == Stage::Analysis
            && d.severity == Severity::Error
            && d.message.contains("injected analysis fault")),
        "missing analysis-failure diagnostic: {diags:#?}"
    );

    assert_other_records_identical(
        &clean.report.loops,
        &injected.report.loops,
        target.func,
        target.header,
    );

    // The degraded compile still preserves semantics.
    for n in [0i64, 5, 100, 600] {
        assert_eq!(
            run_module(&injected.module, n),
            run_module(&injected.baseline, n)
        );
    }
}

/// An unkeyed rule matches every loop: with every analysis panicking, every
/// loop degrades to `AnalysisFailed` with a diagnostic, nothing is
/// selected, and the compile still succeeds with baseline semantics.
#[test]
fn panic_in_every_loops_analysis_degrades_every_loop_but_compiles() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = failpoint::scoped();

    failpoint::set(
        "pipeline::analysis",
        Action::panic("injected analysis fault"),
    );
    let injected = with_quiet_panics(compile);
    assert!(!injected.report.loops.is_empty());
    for r in &injected.report.loops {
        assert_eq!(r.outcome, LoopOutcome::AnalysisFailed, "{r:?}");
        assert!(
            !injected.report.diagnostics_for(r.func, r.header).is_empty(),
            "degraded loop {} must carry a diagnostic",
            loop_key(r)
        );
    }
    assert!(injected.report.selected.is_empty());
    for n in [0i64, 33, 600] {
        assert_eq!(
            run_module(&injected.module, n),
            run_module(&injected.baseline, n)
        );
    }
}

#[test]
fn panic_in_one_loops_emission_degrades_only_that_loop() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = failpoint::scoped();

    let clean = compile();
    let target = clean
        .report
        .loops
        .iter()
        .find(|r| r.outcome == LoopOutcome::Selected)
        .expect("at least one loop selected in the clean run")
        .clone();

    failpoint::set_keyed(
        "pipeline::emission",
        &loop_key(&target),
        Action::panic("injected emission fault"),
    );
    let injected = with_quiet_panics(compile);

    let hit = injected
        .report
        .loops
        .iter()
        .find(|r| r.func == target.func && r.header == target.header)
        .expect("injected loop still reported");
    assert_eq!(hit.outcome, LoopOutcome::AnalysisFailed);
    assert!(
        !injected
            .report
            .selected
            .iter()
            .any(|s| s.func == target.func && s.header == target.header),
        "injected loop must not appear in the selected list"
    );

    let diags = injected.report.diagnostics_for(target.func, target.header);
    assert!(
        diags.iter().any(|d| d.stage == Stage::Emission
            && d.severity == Severity::Error
            && d.message.contains("injected emission fault")),
        "missing emission-failure diagnostic: {diags:#?}"
    );

    assert_other_records_identical(
        &clean.report.loops,
        &injected.report.loops,
        target.func,
        target.header,
    );

    // The restored function (snapshot rollback) still computes correctly.
    for n in [0i64, 5, 100, 600] {
        assert_eq!(
            run_module(&injected.module, n),
            run_module(&injected.baseline, n)
        );
    }
}

#[test]
fn error_at_profile_site_fails_cleanly_and_leaves_module_unchanged() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = failpoint::scoped();

    let mut module = spt_frontend::compile(PROGRAM).expect("compiles");
    let pristine = format!("{module:?}");

    failpoint::set(
        "pipeline::profile",
        Action::error("injected profile failure"),
    );
    let err = transform_module(&mut module, &input(), &config());
    match err {
        Err(PipelineError::Interp(e)) => {
            assert!(e.to_string().contains("injected profile failure"));
        }
        other => panic!("expected Interp error, got {other:?}"),
    }
    assert_eq!(
        format!("{module:?}"),
        pristine,
        "failed transform must leave the input module unchanged"
    );
}

#[test]
fn error_at_verify_site_surfaces_as_verify_error() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = failpoint::scoped();

    let mut module = spt_frontend::compile(PROGRAM).expect("compiles");
    let pristine = format!("{module:?}");

    failpoint::set("pipeline::verify", Action::error("injected verify failure"));
    match transform_module(&mut module, &input(), &config()) {
        Err(PipelineError::Verify(msg)) => assert!(msg.contains("injected verify failure")),
        other => panic!("expected Verify error, got {other:?}"),
    }
    assert_eq!(format!("{module:?}"), pristine);
}

#[test]
fn svp_panic_is_contained_and_rolled_back() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = failpoint::scoped();

    // SVP on: inject an unkeyed panic into every SVP rewrite attempt. If
    // the program triggers no rewrite the test still passes (the site is
    // simply never hit) — the assertion is that nothing ever escapes.
    failpoint::set("pipeline::svp", Action::panic("injected svp fault"));
    let injected = with_quiet_panics(|| {
        compile_and_transform(PROGRAM, &input(), &CompilerConfig::best())
            .expect("pipeline must succeed despite SVP faults")
    });
    for n in [0i64, 7, 300] {
        assert_eq!(
            run_module(&injected.module, n),
            run_module(&injected.baseline, n)
        );
    }
    // No loop may claim an SVP rewrite that was rolled back.
    assert!(injected.report.loops.iter().all(|r| !r.svp_applied));
}

/// A fault in the SVP trial's rebuild round. `mcf_s` rewrites two loops
/// under `best` and pass 2 rejects one of them, so the trial rebuilds the
/// module from the pre-SVP one with the other loop's rewrite alone. A panic
/// while re-applying that rewrite restores the function and drops the loop
/// from the kept set; with none left, the pre-SVP module stands: the module
/// and loop records of an SVP-off compile, plus an Error diagnostic.
#[test]
fn panic_in_the_svp_rebuild_round_drops_that_rewrite() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = failpoint::scoped();

    let b = spt_bench_suite::benchmark("mcf_s").expect("mcf_s is in the suite");
    let input = ProfilingInput::new(b.entry, [b.train_arg]);
    let compile = |config: &CompilerConfig| {
        let mut module = spt_frontend::compile(b.source).expect("compiles");
        let (report, timings) =
            transform_module_timed_with(&mut module, &input, config, None).expect("pipeline");
        (module, report, timings)
    };
    let (_, clean, timings) = compile(&CompilerConfig::best());
    assert_eq!(timings.profile_runs, 3, "the clean compile rebuilds once");
    let kept: Vec<&LoopRecord> = clean.loops.iter().filter(|r| r.svp_applied).collect();
    let [target] = kept.as_slice() else {
        panic!("mcf_s keeps one SVP rewrite: {:#?}", clean.loops);
    };
    assert_eq!(target.outcome, LoopOutcome::Selected);

    failpoint::set_keyed(
        "pipeline::svp_rebuild",
        &loop_key(target),
        Action::panic("injected rebuild fault"),
    );
    let (module, injected, timings) = with_quiet_panics(|| compile(&CompilerConfig::best()));
    assert_eq!(
        timings.profile_runs, 2,
        "no run after the last kept rewrite is dropped"
    );
    assert!(injected.loops.iter().all(|r| !r.svp_applied));
    let diags = injected.diagnostics_for(target.func, target.header);
    assert!(
        diags.iter().any(|d| d.stage == Stage::Svp
            && d.severity == Severity::Error
            && d.message.contains("injected rebuild fault")),
        "missing rebuild-failure diagnostic: {diags:#?}"
    );

    let mut svp_off = CompilerConfig::best();
    svp_off.use_svp = false;
    let (off_module, off, _) = compile(&svp_off);
    assert_eq!(module.content_hash(), off_module.content_hash());
    assert_eq!(format!("{:?}", injected.loops), format!("{:?}", off.loops));

    let baseline = spt_frontend::compile(b.source).expect("compiles");
    for n in [0i64, 50, b.train_arg] {
        let run = |m: &spt_ir::Module| {
            Interp::new(m)
                .run(b.entry, &[Val::from_i64(n)], &mut spt_profile::NoProfiler)
                .expect("module runs")
                .ret
        };
        assert_eq!(run(&module), run(&baseline), "main({n})");
    }
}

/// The whole-compile memo of a disk-backed store: a compile that a
/// contained panic degraded is never stored, and a stored compile is served
/// whole — with the profiling site armed to fail, the warm compile still
/// succeeds, because no pipeline stage runs.
#[test]
fn degraded_compiles_are_never_stored_and_stored_ones_run_no_stage() {
    let _lock = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = failpoint::scoped();
    let dir = std::env::temp_dir().join(format!("spt-failpoint-memo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let compile_through_store =
        || -> Result<(spt_ir::Module, CompilationReport, StageTimings), PipelineError> {
            let store = Store::new(0, 1, Some(dir.clone()), None);
            let mut module = spt_frontend::compile(PROGRAM).expect("compiles");
            let (report, timings) =
                transform_module_timed_with(&mut module, &input(), &config(), Some(&store))?;
            Ok((module, report, timings))
        };
    let compile_files = || {
        std::fs::read_dir(&dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| e.file_name().to_string_lossy().starts_with("compile-"))
                    .count()
            })
            .unwrap_or(0)
    };

    failpoint::set(
        "pipeline::analysis",
        Action::panic("injected analysis fault"),
    );
    let (_, degraded, t) = with_quiet_panics(compile_through_store).expect("degrades");
    assert_eq!(degraded.max_severity(), Some(Severity::Error));
    assert_eq!((t.compile_hits, t.compile_misses), (0, 1));
    assert_eq!(compile_files(), 0, "a degraded compile was stored");
    failpoint::clear("pipeline::analysis");

    let (cold_module, cold, t) = compile_through_store().expect("compiles");
    assert_eq!((t.compile_hits, t.compile_misses), (0, 1));
    assert_eq!(compile_files(), 1, "the clean compile was not stored");

    failpoint::set(
        "pipeline::profile",
        Action::error("injected profile failure"),
    );
    let (warm_module, warm, t) = compile_through_store().expect("served whole from the store");
    assert_eq!((t.compile_hits, t.compile_misses), (1, 0));
    assert_eq!(warm_module, cold_module);
    assert_eq!(format!("{warm:?}"), format!("{cold:?}"));
    let _ = std::fs::remove_dir_all(&dir);
}
