//! Graceful failure of the profiling stage and graceful degradation of the
//! analysis stage.
//!
//! Profiling is the pipeline's *input*: when the profiling run cannot finish
//! (fuel exhausted, wild memory access, missing entry function) the pipeline
//! must fail with [`PipelineError::Interp`] — never a panic — and must leave
//! the input module observably unchanged (`transform_module` is
//! transactional: it commits a scratch clone only on success).

use spt_core::pipeline::{transform_module, transform_module_timed_with};
use spt_core::{compile_and_transform, CompilerConfig, PipelineError, ProfilingInput, Store};
use spt_profile::InterpError;

const PROGRAM: &str = "
    global data[512]: int;
    fn main(n: int) -> int {
        let s = 0;
        for (let i = 0; i < n; i = i + 1) {
            data[i % 512] = i * 3 % 251;
            s = s + data[i % 512] + i % 7;
        }
        return s;
    }
";

/// Runs `transform_module` expecting an interpreter error, and asserts the
/// module comes back byte-identical.
fn expect_interp_error(
    source: &str,
    input: &ProfilingInput,
    config: &CompilerConfig,
) -> InterpError {
    let mut module = spt_frontend::compile(source).expect("compiles");
    let pristine = format!("{module:?}");
    let err = transform_module(&mut module, input, config);
    assert_eq!(
        format!("{module:?}"),
        pristine,
        "failed transform must leave the input module unchanged"
    );
    match err {
        Err(PipelineError::Interp(e)) => e,
        other => panic!("expected PipelineError::Interp, got {other:?}"),
    }
}

#[test]
fn profiling_out_of_fuel_is_a_clean_interp_error() {
    let mut config = CompilerConfig::best();
    config.budget.interp_fuel = 100; // far below what the run needs
    let e = expect_interp_error(PROGRAM, &ProfilingInput::new("main", [10_000]), &config);
    assert!(matches!(e, InterpError::OutOfFuel), "got {e:?}");
}

#[test]
fn profiling_oob_access_is_a_clean_interp_error() {
    let src = "
        global a[8]: int;
        fn main(n: int) -> int {
            let s = 0;
            for (let i = 0; i < n; i = i + 1) {
                a[i] = i;
                s = s + a[i];
            }
            return s;
        }
    ";
    // n = 100 runs off the end of the 8-element array.
    let e = expect_interp_error(
        src,
        &ProfilingInput::new("main", [100]),
        &CompilerConfig::best(),
    );
    assert!(matches!(e, InterpError::OutOfBounds { .. }), "got {e:?}");
}

#[test]
fn missing_entry_function_is_a_clean_interp_error() {
    let e = expect_interp_error(
        PROGRAM,
        &ProfilingInput::new("no_such_fn", [10]),
        &CompilerConfig::best(),
    );
    assert!(matches!(e, InterpError::NoSuchFunction(_)), "got {e:?}");
}

#[test]
fn search_budget_exhaustion_degrades_gracefully() {
    // A tiny visited-state budget: searches return best-so-far and flag it;
    // the compile succeeds and every record is still produced.
    let mut config = CompilerConfig::best();
    config.budget.search_max_visited = 1;
    let input = ProfilingInput::new("main", [400]);
    let result = compile_and_transform(PROGRAM, &input, &config).expect("compile succeeds");
    assert!(!result.report.loops.is_empty());
    // The budget diagnostic is a warning, not an error.
    assert!(result
        .report
        .diagnostics
        .iter()
        .all(|d| d.severity != spt_core::Severity::Error));
}

/// The budget warning is built from the loop's fragment, fresh or stored:
/// a compile whose searches all exhaust their budget reports byte-identical
/// diagnostics, in the same order, cold and served entirely from stored
/// function units.
#[test]
fn budget_warnings_are_identical_when_served_from_stored_units() {
    let mut config = CompilerConfig::best();
    config.budget.search_max_visited = 1;
    let mut warnings = 0;
    for b in spt_bench_suite::suite() {
        let store = Store::in_memory(64 << 20, 4);
        let input = ProfilingInput::new(b.entry, [b.train_arg]);
        let compile = || {
            let mut module = spt_frontend::compile(b.source).expect("compiles");
            let (report, timings) =
                transform_module_timed_with(&mut module, &input, &config, Some(&store))
                    .expect("compile succeeds");
            (
                format!("{report:?}"),
                format!("{module:?}"),
                report,
                timings,
            )
        };
        let (cold_text, cold_module, cold, cold_timings) = compile();
        let (warm_text, warm_module, warm, warm_timings) = compile();
        assert!(
            cold_timings.func_analysis_misses > 0,
            "{}: nothing analyzed",
            b.name
        );
        assert_eq!(
            (
                warm_timings.func_analysis_hits,
                warm_timings.func_analysis_misses
            ),
            (cold_timings.func_units_total, 0),
            "{}: the warm compile was not served from stored units",
            b.name
        );
        assert_eq!(warm_text, cold_text, "{}: report", b.name);
        assert_eq!(warm_module, cold_module, "{}: module", b.name);
        let budget = |r: &spt_core::CompilationReport| -> Vec<String> {
            r.diagnostics
                .iter()
                .filter(|d| d.message.contains("budget exhausted"))
                .map(|d| format!("{d:?}"))
                .collect()
        };
        assert_eq!(budget(&warm), budget(&cold), "{}: warnings", b.name);
        warnings += budget(&cold).len();
    }
    assert!(
        warnings > 10,
        "only {warnings} budget warnings: no search hit the budget"
    );
}
