//! The SPT machine simulator must agree with the reference interpreter on
//! program results, for both baseline and transformed modules — speculation
//! changes cycle accounting, never semantics.

use spt::pipeline::{compile_and_transform, CompilerConfig, ProfilingInput};
use spt::profile::{Interp, NoProfiler, Val};
use spt::sim::SptSimulator;

const SAMPLE: [&str; 4] = ["gcc_s", "vpr_s", "twolf_s", "gap_s"];

#[test]
fn simulator_matches_interpreter_on_baselines() {
    let sim = SptSimulator::new();
    for name in SAMPLE {
        let b = spt::bench_suite::benchmark(name).expect("exists");
        let module = spt::frontend::compile(b.source).expect("compiles");
        let arg = b.train_arg / 2;
        let sim_r = sim.run(&module, b.entry, &[arg]).expect("sim runs");
        let int_r = Interp::new(&module)
            .run(b.entry, &[Val::from_i64(arg)], &mut NoProfiler)
            .expect("interp runs");
        assert_eq!(sim_r.ret, int_r.ret.map(|v| v.0), "{name} result");
        assert_eq!(
            sim_r.memory.image(),
            Some(&int_r.memory[..]),
            "{name} memory"
        );
        assert!(
            sim_r.cycles >= sim_r.insts,
            "{name}: cycles bound below by insts"
        );
    }
}

#[test]
fn speculative_execution_is_invisible_to_results() {
    let sim = SptSimulator::new();
    for name in SAMPLE {
        let b = spt::bench_suite::benchmark(name).expect("exists");
        let input = ProfilingInput::new(b.entry, [b.train_arg]);
        let compiled = compile_and_transform(b.source, &input, &CompilerConfig::best())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let arg = b.train_arg;
        let base = sim.run(&compiled.baseline, b.entry, &[arg]).expect("base");
        let spt = sim.run(&compiled.module, b.entry, &[arg]).expect("spt");
        assert_eq!(base.ret, spt.ret, "{name}");
        let (base, spt) = (base.memory.image().unwrap(), spt.memory.image().unwrap());
        assert_eq!(&spt[..base.len()], base, "{name} memory");
    }
}

#[test]
fn committed_speculation_counts_as_retired_work() {
    // Free instructions must appear in the instruction count but cost no
    // cycles: an SPT run retires at least as many instructions per cycle.
    let sim = SptSimulator::new();
    let b = spt::bench_suite::benchmark("gcc_s").expect("exists");
    let input = ProfilingInput::new(b.entry, [b.train_arg]);
    let compiled =
        compile_and_transform(b.source, &input, &CompilerConfig::best()).expect("pipeline");
    let base = sim
        .run(&compiled.baseline, b.entry, &[b.train_arg])
        .unwrap();
    let spt = sim.run(&compiled.module, b.entry, &[b.train_arg]).unwrap();
    assert!(
        spt.ipc() > base.ipc(),
        "speculative overlap must raise IPC: {} vs {}",
        spt.ipc(),
        base.ipc()
    );
    let committed: u64 = spt.loops.values().map(|s| s.free_insts).sum();
    assert!(committed > 0, "some speculative work must commit");
}

#[test]
fn kills_discard_speculation_at_break_exits() {
    // A loop that leaves through a `break` in mid-body: the speculative
    // thread for the next (non-existent) iteration is in flight when the
    // main thread exits, and `SPT_KILL` must discard it. (Loops exiting at
    // the header instead *validate* their last episode — the speculative
    // thread also took the exit — so kills stay zero there.)
    let src = "
        global a[4096]: int;
        fn main(n: int) -> int {
            for (let k = 0; k < 4096; k = k + 1) { a[k] = (k * 131 + 17) % 997; }
            let s = 0;
            let i = 0;
            while (i < n) {
                let x = a[i % 4096];
                let t = (x * x) % 211 + (x / 3) % 41;
                let u = (t * 13 + x) % 1009;
                s = s + t % 7 + u % 11;
                if (s > 1500) { break; }
                i = i + 1;
            }
            return s;
        }
    ";
    let input = ProfilingInput::new("main", [400]);
    let compiled = compile_and_transform(src, &input, &CompilerConfig::best()).expect("pipeline");
    assert!(
        !compiled.report.selected.is_empty(),
        "loop must be selected: {:#?}",
        compiled.report.loops
    );
    let sim = SptSimulator::new();
    let spt = sim.run(&compiled.module, "main", &[400]).unwrap();
    let base = sim.run(&compiled.baseline, "main", &[400]).unwrap();
    assert_eq!(base.ret, spt.ret);
    let forks: u64 = spt.loops.values().map(|s| s.forks).sum();
    let commits: u64 = spt.loops.values().map(|s| s.commits).sum();
    let kills: u64 = spt.loops.values().map(|s| s.kills).sum();
    assert!(forks > 0, "speculation must happen");
    assert!(commits > 0, "most episodes commit: {:?}", spt.loops);
    assert!(
        kills > 0,
        "the break exit must kill in-flight speculation: {:?}",
        spt.loops
    );
}
