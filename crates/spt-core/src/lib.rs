//! The cost-driven SPT compilation pipeline — the paper's primary
//! contribution (§3).
//!
//! Two key elements (§3): the compilation is **cost-driven** (every decision
//! consults the misspeculation cost model of `spt-cost`) and performs
//! **aggressive but careful selection** via a two-pass process:
//!
//! * **pass 1** tentatively evaluates *every* loop candidate — every nesting
//!   level of every loop nest — finding its optimal SPT partition and cost
//!   (`spt-partition`), without altering the program;
//! * **pass 2** evaluates all candidates together, selects only the good
//!   SPT loops (§6.1 criteria: misspeculation cost, pre-fork size, body
//!   size, iteration count), and applies the final transformation
//!   (`spt-transform`).
//!
//! The pipeline also hosts the enabling techniques (§7): loop unrolling
//! before analysis, software value prediction fed by the same profiling run,
//! dependence-profiling feedback, and (in the *anticipated* configuration)
//! while-loop unrolling and global scalar promotion.
//!
//! Three [`CompilerConfig`] presets mirror the paper's evaluated compilers
//! (§8): [`CompilerConfig::basic`], [`CompilerConfig::best`] and
//! [`CompilerConfig::anticipated`].

// The fault-isolated pipeline degrades, it does not abort: `unwrap`/`expect`
// are denied throughout the library so every fallible step either returns an
// error, produces a diagnostic, or proves unreachability explicitly. Tests
// may use them freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod compile_memo;
pub mod config;
pub mod diag;
#[cfg(feature = "failpoints")]
pub mod failpoint;
mod func_unit;
pub mod incremental;
pub mod parallel;
pub mod pipeline;
pub mod report;
pub mod store;

pub use config::{CompilerConfig, ResourceBudget, TraceSettings};
pub use diag::{Diagnostic, Severity, Stage};
pub use pipeline::{
    compile_and_transform, transform_module, transform_module_timed, transform_module_timed_with,
    PipelineError, ProfilingInput, SptCompilation, StageTimings,
};
pub use report::{CompilationReport, LoopOutcome, LoopRecord, SelectedLoop};
pub use store::{IncrementalCache, Store};

/// Injects a configurable fault at a named site (`failpoints` builds only).
///
/// Forms:
/// * `fail_point!("site")` — unkeyed hit; `panic`/`delay` actions only.
/// * `fail_point!("site", key)` — hit with a dynamic key (`&str`), so tests
///   can target one specific unit of work.
/// * `fail_point!("site", key, |msg| err)` — additionally supports the
///   `error` action: the closure maps the configured message to the
///   function's error type and the macro `return`s it.
///
/// Without the `failpoints` feature every form expands to nothing: the key
/// expression is not evaluated and no code is generated.
#[cfg(feature = "failpoints")]
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {
        $crate::fail_point!($site, "")
    };
    ($site:expr, $key:expr) => {
        if let Some(act) = $crate::failpoint::eval($site, $key) {
            match act {
                $crate::failpoint::Action::Panic(msg) => {
                    panic!("failpoint {} [{}]: {}", $site, $key, msg)
                }
                $crate::failpoint::Action::Delay(ms) => {
                    ::std::thread::sleep(::std::time::Duration::from_millis(ms))
                }
                $crate::failpoint::Action::Error(msg) => panic!(
                    "failpoint {} [{}] armed with error({}) but the site has no error handler",
                    $site, $key, msg
                ),
            }
        }
    };
    ($site:expr, $key:expr, $mk_err:expr) => {
        if let Some(act) = $crate::failpoint::eval($site, $key) {
            match act {
                $crate::failpoint::Action::Panic(msg) => {
                    panic!("failpoint {} [{}]: {}", $site, $key, msg)
                }
                $crate::failpoint::Action::Delay(ms) => {
                    ::std::thread::sleep(::std::time::Duration::from_millis(ms))
                }
                $crate::failpoint::Action::Error(msg) => return Err(($mk_err)(msg)),
            }
        }
    };
}

/// No-op expansion when the `failpoints` feature is off: no code, and the
/// key expression is never evaluated.
#[cfg(not(feature = "failpoints"))]
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {};
    ($site:expr, $key:expr) => {};
    ($site:expr, $key:expr, $mk_err:expr) => {};
}
