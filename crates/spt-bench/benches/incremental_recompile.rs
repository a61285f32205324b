//! Warm edit-one-function recompile through the function-granular unit
//! cache versus a cold whole-module compile of the same analysis-heavy
//! synthetic workload (see `spt_bench::incremental_workload`). The gap is
//! what the incremental pipeline buys on the edit-compile loop; `perfbench
//! --incremental` enforces the >=5x floor on the full-size workload, this
//! group tracks the trend on a smaller one that fits the sample budget.

use criterion::{criterion_group, criterion_main, Criterion};
use spt_bench::incremental_workload as workload;
use spt_core::pipeline::transform_module_timed_with;
use spt_core::{CompilerConfig, ProfilingInput, Store};
use std::hint::black_box;

/// Smaller than the perfbench workload so one cold sample stays well under
/// a second.
const KERNELS: usize = 4;

fn bench_incremental_recompile(c: &mut Criterion) {
    let config = CompilerConfig::best();
    let input = ProfilingInput::new(workload::ENTRY, [workload::TRAIN_ARG]);
    let base = workload::source_with(KERNELS);
    let compile = |src: &str, cache: Option<&Store>| {
        let mut module = spt_frontend::compile(src).expect("workload compiles");
        transform_module_timed_with(&mut module, &input, &config, cache).expect("pipeline")
    };

    let mut g = c.benchmark_group("incremental_recompile");
    g.bench_function(format!("cold_full_module/{KERNELS}_kernels"), |b| {
        b.iter(|| black_box(compile(&base, None)))
    });

    // Prime once; each warm iteration then edits one kernel (a fresh rename
    // per round), so exactly one function is dirty against the cache.
    let cache = Store::in_memory(256 << 20, 8);
    compile(&base, Some(&cache));
    let mut round = 0usize;
    g.bench_function(format!("warm_edit_one_function/{KERNELS}_kernels"), |b| {
        b.iter(|| {
            round += 1;
            let edited = workload::edit(&base, round);
            black_box(compile(&edited, Some(&cache)))
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(4));
    targets = bench_incremental_recompile
}
criterion_main!(benches);
