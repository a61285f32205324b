//! Isolated measurement of the profiling interpreter's hot loop: the
//! superblock engine (one op per IR instruction) against the retained
//! reference (match-per-step) engine, each bare and under the full
//! four-profiler collector. The bare `engine/*` rows time the batched
//! `NoProfiler` walk that `sptc run` and the test oracles use; the
//! `engine_profiled/*` rows time the stepwise walk of the compile
//! pipeline's profiling stage. Engine regressions show up here directly
//! instead of being averaged into suite wall time.

use criterion::{criterion_group, criterion_main, Criterion};
use spt_profile::{Interp, NoProfiler, ProfileCollector, ReferenceInterp, Val};
use std::hint::black_box;

const N: i64 = 400;
const PROGRAMS: [&str; 2] = ["gcc_s", "twolf_s"];

fn bench_interp_hot_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("interp_hot_loop");
    for name in PROGRAMS {
        let bench = spt_bench_suite::benchmark(name).expect("exists");
        let module = spt_frontend::compile(bench.source).expect("compiles");

        g.bench_function(format!("engine/{name}"), |b| {
            let interp = Interp::new(&module);
            b.iter(|| {
                black_box(
                    interp
                        .run(bench.entry, &[Val::from_i64(N)], &mut NoProfiler)
                        .expect("runs"),
                )
            })
        });
        g.bench_function(format!("reference/{name}"), |b| {
            let interp = ReferenceInterp::new(&module);
            b.iter(|| {
                black_box(
                    interp
                        .run(bench.entry, &[Val::from_i64(N)], &mut NoProfiler)
                        .expect("runs"),
                )
            })
        });
        g.bench_function(format!("engine_profiled/{name}"), |b| {
            let interp = Interp::new(&module);
            b.iter(|| {
                let mut collector = ProfileCollector::new();
                black_box(
                    interp
                        .run(bench.entry, &[Val::from_i64(N)], &mut collector)
                        .expect("runs"),
                );
                black_box(collector)
            })
        });
        g.bench_function(format!("reference_profiled/{name}"), |b| {
            let interp = ReferenceInterp::new(&module);
            b.iter(|| {
                let mut collector = ProfileCollector::new();
                black_box(
                    interp
                        .run(bench.entry, &[Val::from_i64(N)], &mut collector)
                        .expect("runs"),
                );
                black_box(collector)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_interp_hot_loop);
criterion_main!(benches);
