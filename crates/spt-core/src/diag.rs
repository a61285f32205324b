//! Structured pipeline diagnostics.
//!
//! Every graceful degradation the fault-isolated pipeline performs — a loop
//! whose analysis panicked, a search that ran out of budget, an SVP rewrite
//! that was skipped, an emission that failed — is recorded as a
//! [`Diagnostic`] in the [`crate::CompilationReport`] instead of being
//! silently swallowed. Diagnostics are **deterministic**: per-loop records
//! produced by the parallel pass-1 fan-out are merged back in (function,
//! loop) discovery order, so the diagnostic stream is byte-identical across
//! `SPT_THREADS` settings and from run to run.
//!
//! Diagnostics are *observability*, not control flow: the pipeline's
//! decisions are carried by [`crate::LoopOutcome`] and the returned
//! [`Result`]; the diagnostic stream explains *why* each degradation
//! happened, in a form tests can assert on.

use spt_ir::{BlockId, FuncId};
use std::fmt;

/// Which pipeline stage produced a diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Stage 2: unrolling and global promotion.
    Preprocess,
    /// Stage 3: interpreter profiling runs.
    Profile,
    /// Stage 4: per-loop dependence/cost/partition analysis (pass 1).
    Analysis,
    /// Stage 5: software value prediction.
    Svp,
    /// Stage 6a: the §6.1 selection criteria (pass 2).
    Selection,
    /// Stage 6b: SPT loop emission.
    Emission,
    /// Stage 7: post-transform verification.
    Verify,
}

impl Stage {
    /// Short label for human-readable output.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Preprocess => "preprocess",
            Stage::Profile => "profile",
            Stage::Analysis => "analysis",
            Stage::Svp => "svp",
            Stage::Selection => "selection",
            Stage::Emission => "emission",
            Stage::Verify => "verify",
        }
    }
}

/// How serious a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Expected, routine degradation (a selection criterion rejected a
    /// loop).
    Info,
    /// The pipeline produced a correct but possibly sub-optimal result (a
    /// budget was exhausted, an optional rewrite was skipped).
    Warning,
    /// A component failed and was contained (a recovered panic, a failed
    /// emission). The compile still succeeds; the affected loop runs
    /// sequentially.
    Error,
}

impl Severity {
    /// Short label for human-readable output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One structured diagnostic record.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// The pipeline stage that produced it.
    pub stage: Stage,
    /// How serious it is.
    pub severity: Severity,
    /// The function concerned, when the diagnostic is function-scoped.
    pub func: Option<FuncId>,
    /// The loop header concerned, when the diagnostic is loop-scoped.
    pub header: Option<BlockId>,
    /// Human-readable explanation. Deterministic: derived only from the
    /// input program, the configuration, and (for recovered panics) the
    /// panic payload.
    pub message: String,
}

impl Diagnostic {
    /// A loop-scoped diagnostic.
    pub fn for_loop(
        stage: Stage,
        severity: Severity,
        func: FuncId,
        header: BlockId,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            stage,
            severity,
            func: Some(func),
            header: Some(header),
            message: message.into(),
        }
    }

    /// A module-scoped diagnostic.
    pub fn global(stage: Stage, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic {
            stage,
            severity,
            func: None,
            header: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}/{}]", self.stage.label(), self.severity.label())?;
        if let Some(func) = self.func {
            write!(f, " func#{}", func.index())?;
        }
        if let Some(header) = self.header {
            write!(f, " loop@{header}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Renders a recovered panic payload into a deterministic one-line message.
///
/// `panic!` with a literal carries `&'static str`; `panic!` with formatting
/// (and most std runtime panics, e.g. index out of bounds) carry `String`.
/// Anything else is rendered as an opaque placeholder so the diagnostic
/// stream stays deterministic.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_scope() {
        let d = Diagnostic::for_loop(
            Stage::Analysis,
            Severity::Error,
            FuncId::new(1),
            BlockId::new(3),
            "recovered panic: boom",
        );
        let text = d.to_string();
        assert!(text.contains("analysis"));
        assert!(text.contains("error"));
        assert!(text.contains("func#1"));
        assert!(text.contains("boom"));
    }

    #[test]
    fn panic_messages_are_extracted() {
        let static_payload: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(static_payload.as_ref()), "boom");
        let string_payload: Box<dyn std::any::Any + Send> = Box::new(String::from("kaboom"));
        assert_eq!(panic_message(string_payload.as_ref()), "kaboom");
        let weird_payload: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(
            panic_message(weird_payload.as_ref()),
            "<non-string panic payload>"
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Stage::Emission.label(), "emission");
        assert_eq!(Severity::Warning.label(), "warning");
    }
}
