//! Criterion benchmarks for the branch-and-bound optimal-partition search
//! (§5), measuring the effect of the pruning heuristics — the search cost
//! the paper bounds with the 30-violation-candidate limit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spt_cost::dep_graph::{DepGraph, DepGraphConfig, Profiles};
use spt_cost::LoopCostModel;
use spt_ir::loops::LoopId;
use spt_partition::{
    greedy_partition, optimal_partition, optimal_partition_reference, SearchConfig,
};
use std::hint::black_box;

/// Builds a loop with `k` independent carried accumulators — `k` violation
/// candidates and a 2^k unpruned search space.
fn many_vc_model(k: usize) -> LoopCostModel {
    let mut decls = String::new();
    let mut body = String::new();
    let mut ret = String::from("0");
    for v in 0..k {
        decls.push_str(&format!("let x{v} = {v};\n"));
        body.push_str(&format!("x{v} = x{v} + i % {};\n", v + 2));
        ret.push_str(&format!(" + x{v}"));
    }
    let src = format!(
        "fn f(n: int) -> int {{ {decls} let i = 0; while (i < n) {{ {body} i = i + 1; }} return {ret}; }}"
    );
    let module = spt_frontend::compile(&src).expect("compiles");
    let func = module.func_by_name("f").expect("f exists");
    let graph = DepGraph::build(
        &module,
        func,
        LoopId::new(0),
        Profiles::default(),
        &DepGraphConfig::default(),
    );
    LoopCostModel::new(graph)
}

fn bench_search_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("bnb_search");
    for k in [4usize, 8, 12] {
        let model = many_vc_model(k);
        let config = SearchConfig::default();
        group.bench_with_input(BenchmarkId::new("pruned", k), &model, |b, m| {
            b.iter(|| black_box(optimal_partition(black_box(m), &config)))
        });
        let unpruned = SearchConfig {
            prune_bound: false,
            prune_size: false,
            ..SearchConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("exhaustive", k), &model, |b, m| {
            b.iter(|| black_box(optimal_partition(black_box(m), &unpruned)))
        });
        group.bench_with_input(BenchmarkId::new("greedy", k), &model, |b, m| {
            b.iter(|| black_box(greedy_partition(black_box(m), &config)))
        });
    }
    group.finish();
}

/// The worst case the paper's 30-VC limit admits: 28 violation candidates,
/// capped at a fixed number of visited search nodes so the incremental
/// evaluator and the from-scratch reference time the *same* tree and the
/// ratio is pure per-node evaluation throughput. Bound pruning is off:
/// with it, the incremental search's budget-aware bound walks a different
/// (smaller) tree than the reference's.
fn bench_incremental_vs_reference(c: &mut Criterion) {
    let model = many_vc_model(28);
    let config = SearchConfig {
        max_visited: 20_000,
        prune_bound: false,
        ..SearchConfig::default()
    };
    let mut group = c.benchmark_group("bnb_search_28vc");
    group.bench_with_input(BenchmarkId::new("incremental", 28), &model, |b, m| {
        b.iter(|| black_box(optimal_partition(black_box(m), &config)))
    });
    group.bench_with_input(BenchmarkId::new("reference", 28), &model, |b, m| {
        b.iter(|| black_box(optimal_partition_reference(black_box(m), &config)))
    });
    group.finish();
}

/// The edit-recompile kernel (`spt_bench::incremental_workload::kernel_loop`)
/// at 19, 25 and 30 candidates under the `best` pre-fork threshold, which
/// binds: the search uncapped, and the reference (the paper's two
/// heuristics) at 19, where it still finishes in about a second.
fn bench_edit_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("bnb_search_edit_kernel");
    for candidates in [19usize, 25, 30] {
        let (model, budget) = spt_bench::incremental_workload::kernel_loop(candidates - 1);
        let config = SearchConfig {
            max_prefork_size: budget,
            max_visited: u64::MAX,
            ..SearchConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::new("incremental", candidates),
            &model,
            |b, m| b.iter(|| black_box(optimal_partition(black_box(m), &config))),
        );
        if candidates == 19 {
            group.bench_with_input(BenchmarkId::new("reference", candidates), &model, |b, m| {
                b.iter(|| black_box(optimal_partition_reference(black_box(m), &config)))
            });
        }
    }
    group.finish();
}

fn bench_suite_loop(c: &mut Criterion) {
    // A realistic loop from the benchmark suite.
    let bench = spt_bench_suite::benchmark("twolf_s").expect("exists");
    let module = spt_frontend::compile(bench.source).expect("compiles");
    let func = module.func_by_name("anneal").expect("anneal exists");
    let graph = DepGraph::build(
        &module,
        func,
        LoopId::new(0),
        Profiles::default(),
        &DepGraphConfig::default(),
    );
    let model = LoopCostModel::new(graph);
    let config = SearchConfig {
        max_prefork_size: (model.graph.body_size as f64 * 0.35) as u64,
        ..SearchConfig::default()
    };
    c.bench_function("bnb_search/twolf_s::anneal", |b| {
        b.iter(|| black_box(optimal_partition(black_box(&model), &config)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_search_scaling, bench_incremental_vs_reference, bench_edit_kernel, bench_suite_loop
}
criterion_main!(benches);
