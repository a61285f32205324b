//! Additional cost-model integration tests: ordering-dependence legality,
//! static branch probabilities, and the call-conservatism story behind
//! Figure 19.

use spt_cost::dep_graph::{DepEdgeKind, DepGraph, DepGraphConfig, Profiles};
use spt_cost::{LoopCostModel, Partition};
use spt_ir::loops::LoopId;

fn graph_for(src: &str, fname: &str, config: &DepGraphConfig) -> (spt_ir::Module, DepGraph) {
    let module = spt_frontend::compile(src).unwrap();
    let func = module.func_by_name(fname).unwrap();
    let graph = DepGraph::build(&module, func, LoopId::new(0), Profiles::default(), config);
    (module, graph)
}

#[test]
fn order_edges_keep_stores_after_aliasing_loads() {
    // load a[i]; store a[i+1]: an anti-dependence. Moving the store must
    // drag the load along (the closure includes it), or reordering would
    // let the store clobber the value the load should see.
    let src = "
        global a[128]: int;
        fn f(n: int) -> int {
            let s = 0;
            for (let i = 0; i < n; i = i + 1) {
                let x = a[i % 128];
                a[(i + 1) % 128] = i;
                s = s + x % 7;
            }
            return s;
        }
    ";
    let (module, g) = graph_for(src, "f", &DepGraphConfig::default());
    let func = module.func(module.func_by_name("f").unwrap());
    let store_node = g
        .nodes
        .iter()
        .position(|&i| matches!(func.inst(i).kind, spt_ir::InstKind::Store { .. }))
        .expect("store");
    let load_node = g
        .nodes
        .iter()
        .position(|&i| matches!(func.inst(i).kind, spt_ir::InstKind::Load { .. }))
        .expect("load");
    assert!(
        g.order_edges.contains(&(load_node, store_node)),
        "anti-dependence must be an order edge: {:?}",
        g.order_edges
    );
    let closure = g.closure(&[store_node]);
    assert!(
        closure.contains(&load_node),
        "moving the store must move the load: {closure:?}"
    );
}

#[test]
fn static_branch_probability_scales_costs() {
    let src = "
        global t: int;
        fn f(n: int) -> int {
            let s = 0;
            for (let i = 0; i < n; i = i + 1) {
                if (i % 2 == 0) {
                    t = s;
                }
                s = s + t % 5;
            }
            return s;
        }
    ";
    let cost_at = |p: f64| {
        let cfg = DepGraphConfig {
            static_branch_prob: p,
        };
        let (_m, g) = graph_for(src, "f", &cfg);
        LoopCostModel::new(g.clone()).misspeculation_cost(&Partition::empty(&g))
    };
    let low = cost_at(0.1);
    let high = cost_at(0.9);
    assert!(
        high > low,
        "a likelier guarded store must cost more: {low} vs {high}"
    );
}

#[test]
fn pure_calls_do_not_pin_or_alias() {
    let src = "
        fn helper(x: int) -> int { return x * 3 + 1; }
        fn f(n: int) -> int {
            let s = 0;
            for (let i = 0; i < n; i = i + 1) {
                s = s + helper(i) % 7;
            }
            return s;
        }
    ";
    let (_m, g) = graph_for(src, "f", &DepGraphConfig::default());
    assert!(
        g.cross_edges
            .iter()
            .all(|e| e.kind != DepEdgeKind::CallEffect),
        "pure calls must not generate call-effect edges"
    );
    // And the loop is fully rescuable.
    let model = LoopCostModel::new(g);
    let all = Partition::from_seeds(&model.graph, model.vcs()).expect("legal");
    assert!(model.misspeculation_cost(&all) < 1e-9);
}

#[test]
fn impure_call_conservatism_is_the_fig19_outlier_mechanism() {
    // A call that *reads* globals: every store in the loop must be assumed
    // to feed it across iterations at probability 1, even though the
    // dynamic overlap may be nil. This is the paper's documented source of
    // cost over-estimation.
    let src = "
        global table[64]: int;
        global bias: int;
        fn peek(i: int) -> int { return table[i % 64] + bias; }
        fn f(n: int) -> int {
            let s = 0;
            for (let i = 0; i < n; i = i + 1) {
                table[(i + 32) % 64] = i;
                s = s + peek(i) % 9;
            }
            return s;
        }
    ";
    let (_m, g) = graph_for(src, "f", &DepGraphConfig::default());
    let call_cross = g
        .cross_edges
        .iter()
        .filter(|e| e.kind == DepEdgeKind::CallEffect)
        .count();
    assert!(call_cross > 0, "call-effect cross edges expected");
    let model = LoopCostModel::new(g);
    let best_possible: f64 = model
        .vcs()
        .iter()
        .filter_map(|&vc| Partition::from_seeds(&model.graph, &[vc]))
        .map(|p| model.misspeculation_cost(&p))
        .fold(f64::MAX, f64::min);
    assert!(
        best_possible > 0.2 * model.body_size() as f64,
        "conservatism keeps the estimate high: {best_possible} vs body {}",
        model.body_size()
    );
}
