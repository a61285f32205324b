//! Additional pipeline integration tests: selection-criteria boundaries,
//! nest conflicts, unprofiled code, SVP bookkeeping and report integrity.

use spt_core::{
    compile_and_transform, CompilerConfig, LoopOutcome, ProfilingInput, SptCompilation,
};
use spt_sim::SptSimulator;

fn run(src: &str, entry: &str, train: i64, config: &CompilerConfig) -> spt_core::SptCompilation {
    let input = ProfilingInput::new(entry, [train]);
    compile_and_transform(src, &input, config).expect("pipeline")
}

#[test]
fn unexecuted_loops_are_not_profiled() {
    let src = "
        global a[64]: int;
        fn cold(n: int) -> int {
            let s = 0;
            for (let i = 0; i < n; i = i + 1) { s = s + a[i % 64]; }
            return s;
        }
        fn main(n: int) -> int {
            if (n < 0) { return cold(n); }
            let s = 0;
            for (let i = 0; i < n; i = i + 1) { s = s + i; }
            return s;
        }
    ";
    let result = run(src, "main", 100, &CompilerConfig::best());
    let cold = result
        .report
        .loops
        .iter()
        .find(|l| l.func_name == "cold")
        .expect("cold analyzed");
    assert_eq!(cold.outcome, LoopOutcome::NotProfiled);
}

#[test]
fn trip_count_criterion_rejects_short_loops() {
    // The inner loop runs a single iteration per invocation.
    let src = "
        global a[64]: int;
        fn main(n: int) -> int {
            let s = 0;
            for (let i = 0; i < n; i = i + 1) {
                let j = 0;
                while (j < 1) {
                    s = s + a[(i + j) % 64] % 7 + (i * j) % 5 + (s % 11) + i % 3 + j;
                    j = j + 1;
                }
            }
            return s;
        }
    ";
    let result = run(src, "main", 200, &CompilerConfig::best());
    let short = result
        .report
        .loops
        .iter()
        .find(|l| l.depth == 2)
        .expect("inner loop analyzed");
    assert_eq!(
        short.outcome,
        LoopOutcome::TripCountTooSmall,
        "{:#?}",
        result.report.loops
    );
}

#[test]
fn nest_conflict_keeps_the_better_level() {
    // Both levels are individually attractive; pass 2 must keep one.
    let src = "
        global a[4096]: int;
        fn main(n: int) -> int {
            let s = 0;
            for (let i = 0; i < n; i = i + 1) {
                for (let j = 0; j < 32; j = j + 1) {
                    let x = a[(i * 32 + j) % 4096];
                    let t = (x * 13 + j) % 211;
                    let u = (t * t + x) % 1009;
                    a[(i * 32 + j) % 4096] = u % 251;
                    s = s + t % 7 + u % 11;
                }
            }
            return s;
        }
    ";
    let result = run(src, "main", 60, &CompilerConfig::best());
    let selected: Vec<_> = result
        .report
        .loops
        .iter()
        .filter(|l| l.outcome == LoopOutcome::Selected)
        .collect();
    let conflicts: Vec<_> = result
        .report
        .loops
        .iter()
        .filter(|l| l.outcome == LoopOutcome::NestConflict)
        .collect();
    assert_eq!(
        selected.len() + conflicts.len(),
        result.report.loops.len(),
        "both levels plausible here: {:#?}",
        result.report.loops
    );
    assert_eq!(selected.len(), 1, "exactly one level survives the nest");
}

#[test]
fn max_body_size_rejects_giant_loops() {
    // A loop body inflated far beyond the machine limit of 1000.
    let mut body = String::new();
    for k in 0..120 {
        body.push_str(&format!("s = s + (i * {k} + {k}) % 97 + (s / 3) % 11;\n"));
        body.push_str(&format!("s = s + a[(i + {k}) % 64] % 5;\n"));
    }
    let src = format!(
        "global a[64]: int;
         fn main(n: int) -> int {{
             let s = 0;
             for (let i = 0; i < n; i = i + 1) {{ {body} }}
             return s;
         }}"
    );
    let result = run(&src, "main", 50, &CompilerConfig::best());
    let l = &result.report.loops[0];
    assert!(l.body_size > 1000);
    assert_eq!(l.outcome, LoopOutcome::BodyTooLarge);
}

#[test]
fn too_many_vcs_skips_search() {
    // 40 independent carried accumulators: above the paper's 30-candidate
    // search limit.
    let mut decls = String::new();
    let mut body = String::new();
    let mut ret = String::from("0");
    for v in 0..40 {
        decls.push_str(&format!("let x{v} = {v};\n"));
        body.push_str(&format!("x{v} = x{v} + i % {};\n", v + 2));
        ret.push_str(&format!(" + x{v}"));
    }
    let src = format!(
        "fn main(n: int) -> int {{
            {decls}
            let i = 0;
            while (i < n) {{ {body} i = i + 1; }}
            return {ret};
        }}"
    );
    let result = run(&src, "main", 100, &CompilerConfig::best());
    let l = &result.report.loops[0];
    assert_eq!(l.outcome, LoopOutcome::TooManyVcs);
    assert!(l.num_vcs > 30, "{}", l.num_vcs);
}

#[test]
fn unroll_factor_recorded_in_report() {
    // A tiny counted loop: unrolling must fire and be recorded.
    let src = "
        global a[4096]: int;
        fn main(n: int) -> int {
            let s = 0;
            for (let i = 0; i < n; i = i + 1) {
                s = s + a[i % 4096];
            }
            return s;
        }
    ";
    let result = run(src, "main", 2000, &CompilerConfig::best());
    let l = result
        .report
        .loops
        .iter()
        .max_by_key(|l| l.unroll_factor)
        .unwrap();
    assert!(l.unroll_factor >= 2, "{:#?}", result.report.loops);
}

#[test]
fn svp_flag_set_only_on_rewritten_loops() {
    let src = "
        global text[4096]: int;
        fn main(n: int) -> int {
            let pos = 0;
            let words = 0;
            while (pos < n) {
                let c = text[pos % 4096];
                let h1 = (c * 33 + 7) % 65536;
                let h2 = (h1 * 17 + c * 5) % 32749;
                let h3 = (h2 * h2 + h1) % 16381;
                words = words + h2 % 3 + h3 % 5;
                let step = 1 + (h3 % 16) / 15;
                pos = pos + step;
            }
            return words;
        }
    ";
    let with_svp = run(src, "main", 800, &CompilerConfig::best());
    let mut cfg = CompilerConfig::best();
    cfg.use_svp = false;
    let without = run(src, "main", 800, &cfg);
    let svp_count = with_svp
        .report
        .loops
        .iter()
        .filter(|l| l.svp_applied)
        .count();
    assert!(svp_count >= 1, "{:#?}", with_svp.report.loops);
    assert_eq!(
        without
            .report
            .loops
            .iter()
            .filter(|l| l.svp_applied)
            .count(),
        0
    );
}

/// A loop SVP cannot rescue: its carried `t` is predictable enough to be
/// rewritten, but the loop stays too costly to speculate with the rewrite.
const SVP_RESIDUE_REPRO: &str = "
    fn main(n: int) -> int {
        let s = 0;
        let t = 0;
        for (let i = 0; i < n; i = i + 1) {
            if (i % 3 == 0) {
                s = s + i * 7;
            } else {
                t = (t * 5 + i) % 1013;
            }
        }
        return s + t;
    }
";

/// A rejected loop keeps no SVP code: the emitted module simulates exactly
/// the baseline's cycles in every configuration. Left in the rejected
/// loop, the rewrite costs `best` and `anticipated` 15% (106029 cycles).
#[test]
fn a_loop_pass_2_rejects_keeps_no_svp_code() {
    let sim = SptSimulator::new();
    for config in [
        CompilerConfig::basic(),
        CompilerConfig::best(),
        CompilerConfig::anticipated(),
    ] {
        let result = run(SVP_RESIDUE_REPRO, "main", 2000, &config);
        let [l] = result.report.loops.as_slice() else {
            panic!(
                "{}: one loop expected: {:#?}",
                config.name, result.report.loops
            );
        };
        assert_eq!(l.outcome, LoopOutcome::CostTooHigh, "{}", config.name);
        assert!(!l.svp_applied, "{}: {l:#?}", config.name);
        let base = sim
            .run(&result.baseline, "main", &[2000])
            .expect("baseline runs");
        let spt = sim
            .run(&result.module, "main", &[2000])
            .expect("SPT module runs");
        assert_eq!(spt.ret, base.ret, "{}", config.name);
        assert_eq!(
            (base.cycles, spt.cycles),
            (92_015, 92_015),
            "{}: (baseline, SPT) cycles",
            config.name
        );
    }
}

/// The SVP trial's two invariants on one compile of `source`: every loop
/// that keeps an SVP rewrite is selected, and a compile that keeps none
/// emits the module and loop records of a compile with SVP off.
fn assert_no_svp_residue(
    name: &str,
    source: &str,
    input: &ProfilingInput,
    config: &CompilerConfig,
    result: &SptCompilation,
) {
    for l in &result.report.loops {
        assert!(
            !l.svp_applied || l.outcome == LoopOutcome::Selected,
            "{name} ({}): {}@{} keeps its SVP rewrite but is {}",
            config.name,
            l.func_name,
            l.header,
            l.outcome.label()
        );
    }
    if result.report.loops.iter().any(|l| l.svp_applied) {
        return;
    }
    let mut off = config.clone();
    off.use_svp = false;
    let without = compile_and_transform(source, input, &off).expect("pipeline with SVP off");
    assert_eq!(
        result.module.content_hash(),
        without.module.content_hash(),
        "{name} ({}): no loop keeps SVP, yet the module differs from SVP off",
        config.name
    );
    assert_eq!(
        format!("{:?}", result.report.loops),
        format!("{:?}", without.report.loops),
        "{name} ({}): no loop keeps SVP, yet the loop records differ from SVP off",
        config.name
    );
}

#[test]
fn every_kept_svp_rewrite_is_selected_on_the_suite() {
    let mut kept = 0;
    for config in [
        CompilerConfig::basic(),
        CompilerConfig::best(),
        CompilerConfig::anticipated(),
    ] {
        for b in spt_bench_suite::suite() {
            let input = ProfilingInput::new(b.entry, [b.train_arg]);
            let result = compile_and_transform(b.source, &input, &config).expect("pipeline");
            assert_no_svp_residue(b.name, b.source, &input, &config, &result);
            kept += result.report.loops.iter().filter(|l| l.svp_applied).count();
        }
    }
    // parser_s, vortex_s and mcf_s keep one rewrite each, under best and
    // under anticipated.
    assert_eq!(kept, 6);
}

#[test]
fn report_selected_matches_selected_records() {
    let b = spt_bench_suite::benchmark("gcc_s").unwrap();
    let result = run(b.source, b.entry, b.train_arg, &CompilerConfig::best());
    assert_eq!(
        result.report.selected.len(),
        result.report.selected_records().len()
    );
    // Tags are unique and dense from 1.
    let mut tags: Vec<u32> = result.report.selected.iter().map(|s| s.loop_tag).collect();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(tags.len(), result.report.selected.len());
    assert_eq!(tags.first().copied(), Some(1));
}
