//! End-to-end: pipeline-transformed programs must (a) compute exactly the
//! baseline results under simulation and (b) run faster when the cost model
//! selected loops.

use spt_core::{compile_and_transform, CompilerConfig, ProfilingInput};
use spt_sim::SptSimulator;

const KERNEL: &str = "
    global data[8192]: int;
    global out[8192]: int;
    fn seed(n: int) {
        let v = 12345;
        for (let i = 0; i < n; i = i + 1) {
            v = (v * 1103515245 + 12345) % 2147483648;
            data[i] = v % 1000;
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
        seed(n);
        return kernel(n);
    }
";

#[test]
fn spt_execution_matches_baseline_results() {
    let input = ProfilingInput::new("main", [800]);
    let result = compile_and_transform(KERNEL, &input, &CompilerConfig::best()).unwrap();
    assert!(!result.report.selected.is_empty());

    let sim = SptSimulator::new();
    for n in [0i64, 17, 500, 2000] {
        let base = sim.run(&result.baseline, "main", &[n]).unwrap();
        let spt = sim.run(&result.module, "main", &[n]).unwrap();
        assert_eq!(spt.ret, base.ret, "n={n}");
        // The SPT module may have extra predictor cells; compare the shared
        // prefix (the original globals).
        let (base, spt) = (base.memory.image().unwrap(), spt.memory.image().unwrap());
        let shared = base.len();
        assert_eq!(&spt[..shared.min(spt.len())], &base[..shared]);
    }
}

#[test]
fn selected_loops_speed_up() {
    let input = ProfilingInput::new("main", [800]);
    let result = compile_and_transform(KERNEL, &input, &CompilerConfig::best()).unwrap();
    let sim = SptSimulator::new();
    let n = 4000i64;
    let base = sim.run(&result.baseline, "main", &[n]).unwrap();
    let spt = sim.run(&result.module, "main", &[n]).unwrap();
    let speedup = base.cycles as f64 / spt.cycles as f64;
    // Per-loop stats exist for every selected loop that ran.
    let mut any_commits = false;
    for sel in &result.report.selected {
        if let Some(stats) = spt.loops.get(&sel.loop_tag) {
            if stats.commits > 0 {
                any_commits = true;
                assert!(
                    stats.misspec_ratio() < 0.8,
                    "selected loop should mostly speculate correctly: {:?}",
                    stats
                );
            }
        }
    }
    assert!(
        any_commits,
        "speculation must actually happen: {:?}",
        spt.loops
    );
    assert!(
        speedup > 1.0,
        "SPT must win on this kernel: base={} spt={} speedup={speedup:.3}",
        base.cycles,
        spt.cycles
    );
}

#[test]
fn hostile_loop_is_not_slowed_down_much() {
    // A true pointer-chase recurrence: the compiler should refuse to
    // speculate, so SPT cycles stay close to baseline.
    let src = "
        global next[1024]: int;
        fn main(n: int) -> int {
            for (let i = 0; i < 1024; i = i + 1) { next[i] = (i * 7 + 3) % 1024; }
            let cur = 0;
            let s = 0;
            for (let k = 0; k < n; k = k + 1) {
                cur = next[cur];
                next[cur] = (next[cur] + k) % 1024;
                s = s + cur % 13 + (cur * cur) % 7 + (s % 11) * 3 + cur / 5 + (s / 7) % 23;
            }
            return s;
        }
    ";
    let input = ProfilingInput::new("main", [600]);
    let result = compile_and_transform(src, &input, &CompilerConfig::best()).unwrap();
    let sim = SptSimulator::new();
    let base = sim.run(&result.baseline, "main", &[3000]).unwrap();
    let spt = sim.run(&result.module, "main", &[3000]).unwrap();
    assert_eq!(spt.ret, base.ret);
    let ratio = spt.cycles as f64 / base.cycles as f64;
    assert!(
        ratio < 1.15,
        "cost-driven selection must avoid big slowdowns: ratio={ratio:.3}"
    );
}
