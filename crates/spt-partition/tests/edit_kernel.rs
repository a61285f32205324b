//! The partition search on the edit-recompile kernel shape: `N`
//! independent recurrences `a = (a * m + i) % p` plus the induction update,
//! profiled on a small train input and searched under the `best`
//! configuration's pre-fork threshold (35% of the body). The size threshold
//! binds there, which is where the budget-aware bound matters: the search
//! must return exactly what the from-scratch reference returns while
//! visiting a small fraction of its nodes.

use spt_cost::dep_graph::{DepGraph, DepGraphConfig, Profiles};
use spt_cost::LoopCostModel;
use spt_ir::loops::LoopId;
use spt_partition::{optimal_partition, optimal_partition_reference, SearchConfig, SearchResult};
use spt_profile::{Interp, ProfileCollector, Val};

/// The kernel with `scalars` recurrences (so `scalars + 1` candidates),
/// its cost model under the train profile, and the search configuration the
/// pipeline would use for it.
fn edit_kernel(scalars: usize) -> (LoopCostModel, SearchConfig) {
    let mut src = String::from("fn k(n: int) -> int {\n");
    for j in 0..scalars {
        src.push_str(&format!("    let a{j} = {};\n", 1 + 37 * j % 997));
    }
    src.push_str("    for (let i = 0; i < n; i = i + 1) {\n");
    for j in 0..scalars {
        src.push_str(&format!(
            "        a{j} = (a{j} * {} + i) % {};\n",
            3 + 2 * (j % 8),
            1009 + 2 * j
        ));
    }
    src.push_str("    }\n    let t = 0;\n");
    for j in 0..scalars {
        src.push_str(&format!("    t = t + a{j};\n"));
    }
    src.push_str("    return t;\n}\nfn main(n: int) -> int { return k(n); }\n");
    let module = spt_frontend::compile(&src).expect("kernel compiles");
    let mut profile = ProfileCollector::new();
    Interp::new(&module)
        .run("main", &[Val::from_i64(24)], &mut profile)
        .expect("kernel runs");
    let func = module.func_by_name("k").expect("k exists");
    let graph = DepGraph::build(
        &module,
        func,
        LoopId::new(0),
        Profiles {
            edges: Some(&profile.edges),
            deps: Some(&profile.deps),
        },
        &DepGraphConfig::default(),
    );
    let config = SearchConfig {
        max_prefork_size: (graph.body_size as f64 * 0.35) as u64,
        ..SearchConfig::default()
    };
    let model = LoopCostModel::new(graph);
    assert_eq!(
        model.vcs().len(),
        scalars + 1,
        "one candidate per carried scalar"
    );
    (model, config)
}

/// The search against the reference: identical answer bits, and never more
/// nodes.
fn assert_matches_reference(scalars: usize) -> (SearchResult, SearchResult) {
    let (model, config) = edit_kernel(scalars);
    let fast = optimal_partition(&model, &config);
    let refr = optimal_partition_reference(&model, &config);
    assert!(!refr.budget_exhausted, "the oracle must finish");
    assert_eq!(fast.cost.to_bits(), refr.cost.to_bits(), "cost");
    assert_eq!(fast.chosen, refr.chosen, "chosen set");
    assert_eq!(fast.partition.mask(), refr.partition.mask(), "mask");
    assert_eq!(fast.partition.size(), refr.partition.size(), "size");
    assert!(!fast.budget_exhausted);
    assert!(
        fast.visited <= refr.visited,
        "{} candidates: {} nodes against the reference's {}",
        scalars + 1,
        fast.visited,
        refr.visited
    );
    (fast, refr)
}

#[test]
fn small_edit_kernels_match_the_reference() {
    for scalars in [10, 14] {
        assert_matches_reference(scalars);
    }
}

/// The sizes where the reference's search grows to hundreds of thousands of
/// nodes. Too slow without optimizations; `scripts/ci.sh` runs it in
/// release.
#[test]
#[cfg_attr(debug_assertions, ignore = "run in release (scripts/ci.sh)")]
fn large_edit_kernels_match_the_reference() {
    for scalars in 18..=22 {
        let (fast, refr) = assert_matches_reference(scalars);
        assert!(
            fast.visited * 100 < refr.visited,
            "{} candidates: {} nodes is not a small fraction of {}",
            scalars + 1,
            fast.visited,
            refr.visited
        );
    }
}

/// Up to the paper's 30-candidate limit the search proves optimality well
/// inside the node cap.
#[test]
fn edit_kernels_up_to_thirty_candidates_finish_exactly() {
    for scalars in 24..=29 {
        let (model, config) = edit_kernel(scalars);
        let r = optimal_partition(&model, &config);
        assert!(!r.skipped_too_many_vcs);
        assert!(
            !r.budget_exhausted,
            "{} candidates hit the cap",
            scalars + 1
        );
        assert!(
            r.visited < 1000,
            "{} candidates: {} nodes",
            scalars + 1,
            r.visited
        );
        assert!(r.partition.size() <= config.max_prefork_size);
    }
}
