//! Engine-build cost: `SuperblockModule::build` over every suite program.
//!
//! Superblock code is built once per module and then reused for every run,
//! so its build cost is an up-front tax on cold compiles. The build lowers
//! straight from the IR and includes each function's CFG, dominator and
//! loop-forest analyses (the loop facts and phi rows the engines read) as
//! well as the ops themselves — one op per instruction, with constant
//! folding and immediate specialization — so a lowering change that blows
//! up build time is caught here rather than hidden inside suite wall time.

use criterion::{criterion_group, criterion_main, Criterion};
use spt_ir::SuperblockModule;
use std::hint::black_box;

fn bench_superblock_compile(c: &mut Criterion) {
    let mut g = c.benchmark_group("superblock_compile");
    for bench in spt_bench_suite::suite() {
        let module = spt_frontend::compile(bench.source).expect("compiles");
        g.bench_function(format!("build/{}", bench.name), |b| {
            b.iter(|| black_box(SuperblockModule::build(black_box(&module))))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_superblock_compile);
criterion_main!(benches);
