//! Per-loop decision records — the raw material for the paper's Figures
//! 15–17 (loop breakdown, coverage, partition characteristics) — plus the
//! structured diagnostic stream of the fault-isolated pipeline.

use crate::diag::Diagnostic;
use spt_ir::loops::LoopId;
use spt_ir::{BlockId, FuncId};

/// Why a candidate loop was or was not SPT-transformed (Fig. 15 categories).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LoopOutcome {
    /// Selected and transformed ("Valid Partition").
    Selected,
    /// More violation candidates than the search limit (§5.2.1).
    TooManyVcs,
    /// Static body size below the minimum even after permitted unrolling —
    /// dominated by `while` loops in the paper (34% of loops).
    BodyTooSmall,
    /// Static body size above the machine-dependent maximum.
    BodyTooLarge,
    /// Average trip count below the minimum (usually 2).
    TripCountTooSmall,
    /// Optimal misspeculation cost above the threshold.
    CostTooHigh,
    /// No partition within the pre-fork size threshold improved on the
    /// empty partition enough (pre-fork region would serialize the loop).
    PreForkTooLarge,
    /// A relative in the same loop nest was selected instead (pass 2
    /// evaluates nests together, §6).
    NestConflict,
    /// The loop never executed in the profiling run; no basis for selection.
    NotProfiled,
    /// The loop shape is not canonical (no dedicated preheader/latch), so
    /// the transformation cannot apply.
    NotCanonical,
    /// Analysis or emission of this loop failed (a contained panic). The
    /// loop is simply not speculated; the compile itself still succeeds.
    AnalysisFailed,
}

impl LoopOutcome {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            LoopOutcome::Selected => "valid-partition",
            LoopOutcome::TooManyVcs => "too-many-vcs",
            LoopOutcome::BodyTooSmall => "body-too-small",
            LoopOutcome::BodyTooLarge => "body-too-large",
            LoopOutcome::TripCountTooSmall => "trip-count-too-small",
            LoopOutcome::CostTooHigh => "cost-too-high",
            LoopOutcome::PreForkTooLarge => "prefork-too-large",
            LoopOutcome::NestConflict => "nest-conflict",
            LoopOutcome::NotProfiled => "not-profiled",
            LoopOutcome::NotCanonical => "not-canonical",
            LoopOutcome::AnalysisFailed => "analysis-failed",
        }
    }
}

/// Everything pass 1 learned about one loop candidate.
#[derive(Clone, Debug)]
pub struct LoopRecord {
    /// Containing function.
    pub func: FuncId,
    /// Function name (for human-readable output).
    pub func_name: String,
    /// The loop id at analysis time.
    pub loop_id: LoopId,
    /// The loop header block (stable across later transformations).
    pub header: BlockId,
    /// Loop nest depth (1 = outermost).
    pub depth: usize,
    /// Static body size in latency units.
    pub body_size: u64,
    /// Number of violation candidates.
    pub num_vcs: usize,
    /// Optimal misspeculation cost found by the search.
    pub cost: f64,
    /// Pre-fork region size of the optimal partition.
    pub prefork_size: u64,
    /// Average trip count from the loop profile.
    pub avg_trip_count: f64,
    /// Dynamic instructions per iteration from the loop profile.
    pub dyn_body_insts: f64,
    /// Fraction of total profiled cycles spent in this loop.
    pub coverage: f64,
    /// Whether SVP was applied to this loop.
    pub svp_applied: bool,
    /// Unroll factor applied during preprocessing (1 = none).
    pub unroll_factor: usize,
    /// Search statistics (visited nodes) for ablation reporting.
    pub search_visited: u64,
    /// Final decision.
    pub outcome: LoopOutcome,
}

/// A loop chosen for transformation, with its runtime tag.
#[derive(Clone, Debug)]
pub struct SelectedLoop {
    /// Containing function.
    pub func: FuncId,
    /// Header block at selection time.
    pub header: BlockId,
    /// The tag stamped on `SPT_FORK`/`SPT_KILL`.
    pub loop_tag: u32,
    /// Compiler-estimated misspeculation cost (for Fig. 19's x-axis).
    pub est_cost: f64,
    /// Pre-fork size of the applied partition.
    pub prefork_size: u64,
    /// Static body size at selection time.
    pub body_size: u64,
}

/// The full report of a pipeline run.
#[derive(Clone, Debug, Default)]
pub struct CompilationReport {
    /// Configuration name.
    pub config_name: String,
    /// One record per loop candidate (all nest levels).
    pub loops: Vec<LoopRecord>,
    /// The loops actually transformed.
    pub selected: Vec<SelectedLoop>,
    /// Total cycles of the profiling run (coverage denominators).
    pub profile_total_cycles: u64,
    /// Structured degradation/decision diagnostics, in deterministic stage
    /// order (byte-identical across `SPT_THREADS` settings).
    pub diagnostics: Vec<Diagnostic>,
}

impl CompilationReport {
    /// Counts candidates per outcome, for the Fig. 15 breakdown.
    pub fn outcome_histogram(&self) -> Vec<(LoopOutcome, usize)> {
        use std::collections::HashMap;
        let mut map: HashMap<LoopOutcome, usize> = HashMap::new();
        for l in &self.loops {
            *map.entry(l.outcome).or_insert(0) += 1;
        }
        let mut out: Vec<(LoopOutcome, usize)> = map.into_iter().collect();
        out.sort_by_key(|&(o, _)| o.label());
        out
    }

    /// Total profile coverage of the selected loops (Fig. 16), `0.0` when
    /// none is selected. Nested selections (which pass 2 prevents) would
    /// double-count; selection guarantees disjoint nests.
    pub fn selected_coverage(&self) -> f64 {
        // Summed from +0.0: `Iterator::sum` over no floats yields -0.0,
        // which renders as "-0%".
        self.loops
            .iter()
            .filter(|l| l.outcome == LoopOutcome::Selected)
            .fold(0.0, |acc, l| acc + l.coverage)
    }

    /// Records for selected loops only.
    pub fn selected_records(&self) -> Vec<&LoopRecord> {
        self.loops
            .iter()
            .filter(|l| l.outcome == LoopOutcome::Selected)
            .collect()
    }

    /// Diagnostics scoped to one loop (by containing function and header).
    pub fn diagnostics_for(&self, func: FuncId, header: BlockId) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.func == Some(func) && d.header == Some(header))
            .collect()
    }

    /// The most severe diagnostic severity present, if any.
    pub fn max_severity(&self) -> Option<crate::diag::Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// The human-readable per-loop analysis table, exactly as `sptc analyze`
    /// prints it (the CLI and the daemon both render through here, so a
    /// daemon-served analysis is byte-identical to a local one): the
    /// candidate table, the selection summary, and any non-`Info`
    /// diagnostics. The routine per-loop Info rejections are already visible
    /// in the table, so they are not repeated.
    pub fn analyze_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:<6} {:>5} {:>6} {:>9} {:>8} {:>6} {:>6} {:>5} {:>4}  outcome",
            "function", "loop", "depth", "body", "cost", "prefork", "trip", "cov%", "svp", "unrl"
        );
        for l in &self.loops {
            let _ = writeln!(
                out,
                "{:<16} {:<6} {:>5} {:>6} {:>9.2} {:>8} {:>6.1} {:>6.1} {:>5} {:>4}  {}",
                l.func_name,
                l.header.to_string(),
                l.depth,
                l.body_size,
                l.cost,
                l.prefork_size,
                l.avg_trip_count,
                l.coverage * 100.0,
                if l.svp_applied { "yes" } else { "-" },
                l.unroll_factor,
                l.outcome.label()
            );
        }
        let _ = writeln!(
            out,
            "\nselected {} loop(s), covering {:.0}% of the profiled run",
            self.selected.len(),
            self.selected_coverage() * 100.0
        );
        let notable: Vec<_> = self
            .diagnostics
            .iter()
            .filter(|d| d.severity != crate::diag::Severity::Info)
            .collect();
        if !notable.is_empty() {
            let _ = writeln!(out, "\ndiagnostics:");
            for d in notable {
                let _ = writeln!(out, "  {d}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(outcome: LoopOutcome, coverage: f64) -> LoopRecord {
        LoopRecord {
            func: FuncId::new(0),
            func_name: "f".into(),
            loop_id: LoopId::new(0),
            header: BlockId::new(1),
            depth: 1,
            body_size: 10,
            num_vcs: 1,
            cost: 0.0,
            prefork_size: 2,
            avg_trip_count: 10.0,
            dyn_body_insts: 12.0,
            coverage,
            svp_applied: false,
            unroll_factor: 1,
            search_visited: 3,
            outcome,
        }
    }

    #[test]
    fn histogram_and_coverage() {
        let report = CompilationReport {
            config_name: "test".into(),
            loops: vec![
                record(LoopOutcome::Selected, 0.4),
                record(LoopOutcome::Selected, 0.2),
                record(LoopOutcome::BodyTooSmall, 0.1),
            ],
            selected: Vec::new(),
            profile_total_cycles: 100,
            diagnostics: Vec::new(),
        };
        let hist = report.outcome_histogram();
        assert_eq!(hist.len(), 2);
        assert!((report.selected_coverage() - 0.6).abs() < 1e-12);
        assert_eq!(report.selected_records().len(), 2);
    }

    #[test]
    fn coverage_of_no_selected_loop_is_positive_zero() {
        let report = CompilationReport {
            config_name: "test".into(),
            loops: vec![record(LoopOutcome::BodyTooSmall, 0.1)],
            selected: Vec::new(),
            profile_total_cycles: 100,
            diagnostics: Vec::new(),
        };
        assert_eq!(report.selected_coverage().to_bits(), 0.0f64.to_bits());
        let text = report.analyze_text();
        assert!(
            text.contains("selected 0 loop(s), covering 0% of the profiled run"),
            "{text}"
        );
    }

    #[test]
    fn outcome_labels_unique() {
        use std::collections::HashSet;
        let all = [
            LoopOutcome::Selected,
            LoopOutcome::TooManyVcs,
            LoopOutcome::BodyTooSmall,
            LoopOutcome::BodyTooLarge,
            LoopOutcome::TripCountTooSmall,
            LoopOutcome::CostTooHigh,
            LoopOutcome::PreForkTooLarge,
            LoopOutcome::NestConflict,
            LoopOutcome::NotProfiled,
            LoopOutcome::NotCanonical,
            LoopOutcome::AnalysisFailed,
        ];
        let labels: HashSet<&str> = all.iter().map(|o| o.label()).collect();
        assert_eq!(labels.len(), all.len());
    }
}
