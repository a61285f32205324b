//! Isolated measurement of the two-thread SPT simulator hot loop on
//! speculative (transformed) modules: the superblock engine against the
//! retained reference engine, plus the non-speculative baseline for scale.
//! Spec-buffer and cache behavior dominate here, so this group is the
//! early-warning signal for simulator-side engine regressions.

use criterion::{criterion_group, criterion_main, Criterion};
use spt_core::{compile_and_transform, CompilerConfig, ProfilingInput};
use spt_sim::{ReferenceSimulator, SptSimulator};
use std::hint::black_box;

const N: i64 = 400;
const PROGRAMS: [&str; 2] = ["gcc_s", "twolf_s"];

fn bench_sim_two_thread(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_two_thread");
    for name in PROGRAMS {
        let bench = spt_bench_suite::benchmark(name).expect("exists");
        let input = ProfilingInput::new(bench.entry, [bench.train_arg / 4]);
        let compiled =
            compile_and_transform(bench.source, &input, &CompilerConfig::best()).expect("pipeline");
        let engine = SptSimulator::new();
        let reference = ReferenceSimulator::new();

        g.bench_function(format!("engine_spt/{name}"), |b| {
            b.iter(|| {
                black_box(
                    engine
                        .run(&compiled.module, bench.entry, &[N])
                        .expect("runs"),
                )
            })
        });
        g.bench_function(format!("reference_spt/{name}"), |b| {
            b.iter(|| {
                black_box(
                    reference
                        .run(&compiled.module, bench.entry, &[N])
                        .expect("runs"),
                )
            })
        });
        g.bench_function(format!("engine_baseline/{name}"), |b| {
            b.iter(|| {
                black_box(
                    engine
                        .run(&compiled.baseline, bench.entry, &[N])
                        .expect("runs"),
                )
            })
        });
        g.bench_function(format!("reference_baseline/{name}"), |b| {
            b.iter(|| {
                black_box(
                    reference
                        .run(&compiled.baseline, bench.entry, &[N])
                        .expect("runs"),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sim_two_thread);
criterion_main!(benches);
