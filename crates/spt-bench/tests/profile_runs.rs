//! The profiling runs of one cold compile, pinned per program.
//!
//! Stage 3 profiles once. Each round of the SVP trial that rewrote
//! something profiles once more; a round whose rewrites pass 2 all rejects
//! restores the pre-SVP module and profile without another run, and a round
//! that rejects only some rebuilds and runs again. The counter
//! (`StageTimings::profile_runs`) is deterministic, so this pins where the
//! trial's cost goes.

use spt_bench::incremental_workload as workload;
use spt_core::pipeline::transform_module_timed;
use spt_core::{CompilationReport, CompilerConfig, ProfilingInput, StageTimings};
use spt_ir::Module;

fn compile(
    source: &str,
    entry: &str,
    train: i64,
    config: &CompilerConfig,
) -> (Module, CompilationReport, StageTimings) {
    let mut module = spt_frontend::compile(source).expect("compiles");
    let input = ProfilingInput::new(entry, [train]);
    let (report, timings) = transform_module_timed(&mut module, &input, config).expect("pipeline");
    (module, report, timings)
}

fn profile_runs(source: &str, entry: &str, train: i64) -> u64 {
    compile(source, entry, train, &CompilerConfig::best())
        .2
        .profile_runs
}

#[test]
fn profiling_runs_per_suite_program_under_best() {
    let want = [
        // No SVP target.
        ("crafty_s", 1),
        ("gcc_s", 1),
        ("twolf_s", 1),
        ("vpr_s", 1),
        // One trial round: every rewrite rejected (bzip2_s, gap_s, gzip_s)
        // or every rewrite kept (parser_s, vortex_s).
        ("bzip2_s", 2),
        ("gap_s", 2),
        ("gzip_s", 2),
        ("parser_s", 2),
        ("vortex_s", 2),
        // One rewrite rejected and one kept: a rebuild round.
        ("mcf_s", 3),
    ];
    let mut got: Vec<(&str, u64)> = spt_bench_suite::suite()
        .iter()
        .map(|b| (b.name, profile_runs(b.source, b.entry, b.train_arg)))
        .collect();
    got.sort_by_key(|&(name, runs)| (runs, name));
    let mut want = want.to_vec();
    want.sort_by_key(|&(name, runs)| (runs, name));
    assert_eq!(got, want);
}

/// The trial rewrites all twelve kernels and pass 2 rejects them all, so
/// the compile profiles twice and emits what a compile with SVP off emits.
#[test]
fn an_edit_module_compile_profiles_twice_and_keeps_no_rewrite() {
    let source = workload::edit(&workload::source(), 1);
    let compile =
        |config: &CompilerConfig| compile(&source, workload::ENTRY, workload::TRAIN_ARG, config);
    let (module, report, timings) = compile(&CompilerConfig::best());
    assert_eq!(timings.profile_runs, 2);
    assert!(report.loops.iter().all(|l| !l.svp_applied));
    let mut svp_off = CompilerConfig::best();
    svp_off.use_svp = false;
    let (off_module, off_report, _) = compile(&svp_off);
    assert_eq!(module.content_hash(), off_module.content_hash());
    assert_eq!(
        format!("{:?}", report.loops),
        format!("{:?}", off_report.loops)
    );
}
