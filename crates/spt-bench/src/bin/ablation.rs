//! **Ablations** of the design choices DESIGN.md calls out:
//!
//! 1. branch-and-bound pruning heuristics (§5.2.1) — search-tree nodes
//!    visited with both heuristics, size-only, bound-only, and neither; the
//!    optima must be identical (the heuristics are exact). Over the suite's
//!    loops, and on the edit-recompile kernel at 19 and 25 candidates,
//!    where the size threshold binds and the bound's budget charge matters;
//! 2. optimal search vs a greedy baseline — cost achieved;
//! 3. cost-driven selection vs "select everything transformable" — program
//!    speedup with the cost threshold disabled, demonstrating why the paper
//!    insists on *careful* selection.
//!
//! Run: `cargo run --release -p spt-bench --bin ablation`

use spt_bench::{geomean, run_matrix, with_store};
use spt_core::CompilerConfig;
use spt_cost::dep_graph::{DepGraph, DepGraphConfig, Profiles};
use spt_cost::LoopCostModel;
use spt_ir::{Cfg, DomTree, LoopForest};
use spt_partition::{greedy_partition, optimal_partition, SearchConfig};
use spt_profile::{Interp, ProfileCollector, Val};

fn main() {
    spt_bench::header(
        "Ablation",
        "pruning heuristics, greedy baseline, cost-driven selection",
    );

    // --- 1 & 2: per-loop search statistics over the whole suite. Benchmarks
    // are independent, so they fan out; the per-benchmark tallies merge in
    // suite order (they are sums, so order only matters for determinism of
    // the FP-free u64 totals anyway).
    println!("-- branch-and-bound pruning (search nodes visited, identical optima required)");
    let suite = spt_bench_suite::suite();
    let tallies = spt_core::parallel::parallel_map(&suite, |b| {
        let mut visited = [0u64; 4]; // both, size-only, bound-only, none
        let mut greedy_worse = 0usize;
        let mut loops_analyzed = 0usize;
        let module = spt_frontend::compile(b.source)
            .unwrap_or_else(|e| spt_bench::die(format!("{}: compile failed: {e}", b.name)));
        let mut collector = ProfileCollector::new();
        Interp::new(&module)
            .run(b.entry, &[Val::from_i64(b.train_arg)], &mut collector)
            .unwrap_or_else(|e| spt_bench::die(format!("{}: profiling run failed: {e}", b.name)));
        for func_id in module.func_ids() {
            let func = module.func(func_id);
            let cfg = Cfg::compute(func);
            let dom = DomTree::compute(&cfg);
            let forest = LoopForest::compute(func, &cfg, &dom);
            for lid in forest.ids() {
                let graph = DepGraph::build(
                    &module,
                    func_id,
                    lid,
                    Profiles {
                        edges: Some(&collector.edges),
                        deps: Some(&collector.deps),
                    },
                    &DepGraphConfig::default(),
                );
                let max_size = (graph.body_size as f64 * 0.35) as u64;
                let model = LoopCostModel::new(graph);
                let mk = |size: bool, bound: bool| SearchConfig {
                    max_prefork_size: max_size,
                    prune_size: size,
                    prune_bound: bound,
                    ..SearchConfig::default()
                };
                let r_both = optimal_partition(&model, &mk(true, true));
                if r_both.skipped_too_many_vcs {
                    continue;
                }
                let r_size = optimal_partition(&model, &mk(true, false));
                let r_bound = optimal_partition(&model, &mk(false, true));
                let r_none = optimal_partition(&model, &mk(false, false));
                assert!(
                    (r_both.cost - r_none.cost).abs() < 1e-9,
                    "pruning must be exact"
                );
                visited[0] += r_both.visited;
                visited[1] += r_size.visited;
                visited[2] += r_bound.visited;
                visited[3] += r_none.visited;

                let g = greedy_partition(&model, &mk(true, true));
                if g.cost > r_both.cost + 1e-9 {
                    greedy_worse += 1;
                }
                loops_analyzed += 1;
            }
        }
        (visited, greedy_worse, loops_analyzed)
    });
    let mut visited = [0u64; 4];
    let mut greedy_worse = 0usize;
    let mut loops_analyzed = 0usize;
    for (v, g, l) in tallies {
        for (acc, x) in visited.iter_mut().zip(v) {
            *acc += x;
        }
        greedy_worse += g;
        loops_analyzed += l;
    }
    println!("  loops analyzed: {loops_analyzed}");
    println!(
        "  visited nodes: both={} size-only={} bound-only={} none={}",
        visited[0], visited[1], visited[2], visited[3]
    );
    println!(
        "  pruning factor vs exhaustive: {:.2}x fewer nodes",
        visited[3] as f64 / visited[0].max(1) as f64
    );
    println!("  greedy found a worse partition on {greedy_worse}/{loops_analyzed} loops");

    // The edit-recompile kernel, where the pre-fork threshold binds. A mode
    // that hits the node cap is marked and left out of the exactness check.
    println!("  edit-recompile kernel (35% pre-fork threshold):");
    for candidates in [19usize, 25] {
        let (model, budget) = spt_bench::incremental_workload::kernel_loop(candidates - 1);
        let modes =
            [(true, true), (true, false), (false, true), (false, false)].map(|(size, bound)| {
                optimal_partition(
                    &model,
                    &SearchConfig {
                        max_prefork_size: budget,
                        prune_size: size,
                        prune_bound: bound,
                        ..SearchConfig::default()
                    },
                )
            });
        let shown = modes.each_ref().map(|r| {
            let cap = if r.budget_exhausted { " (cap)" } else { "" };
            format!("{}{cap}", r.visited)
        });
        for r in modes.iter().filter(|r| !r.budget_exhausted) {
            assert!(
                r.cost.to_bits() == modes[0].cost.to_bits() && r.chosen == modes[0].chosen,
                "pruning must be exact"
            );
        }
        println!(
            "    {candidates} candidates: both={} size-only={} bound-only={} none={}",
            shown[0], shown[1], shown[2], shown[3]
        );
    }

    // --- 3: cost-driven vs indiscriminate selection.
    println!("\n-- cost-driven selection vs select-everything (program speedups)");
    let best = with_store(CompilerConfig::best());
    let mut all = with_store(CompilerConfig::best());
    all.cost_frac = 1e9;
    all.name = "no-cost-model";
    let mut s_best = Vec::new();
    let mut s_all = Vec::new();
    println!(
        "{:<12} {:>12} {:>16}",
        "program", "cost-driven", "select-all"
    );
    let pairs: Vec<_> = suite.iter().flat_map(|b| [(b, &best), (b, &all)]).collect();
    let runs = run_matrix(&pairs);
    for pair in runs.chunks_exact(2) {
        let (rb, ra) = (&pair[0], &pair[1]);
        println!(
            "{:<12} {:>12.3} {:>16.3}",
            rb.name,
            rb.speedup(),
            ra.speedup()
        );
        s_best.push(rb.speedup());
        s_all.push(ra.speedup());
    }
    let g_best = geomean(s_best.iter().copied());
    let g_all = geomean(s_all.iter().copied());
    println!(
        "{:<12} {:>12.3} {:>16.3}   (geomean)",
        "AVERAGE", g_best, g_all
    );
    println!(
        "\nshape check: cost-driven selection >= indiscriminate -> {}",
        if g_best >= g_all - 1e-9 {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
}
