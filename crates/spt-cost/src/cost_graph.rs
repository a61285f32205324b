//! The cost graph and re-execution probability propagation (§4.2).
//!
//! The graph has two node classes:
//!
//! * **pseudo nodes**, one per violation candidate (the source of a
//!   cross-iteration true dependence, §4.2.1), carrying the candidate's
//!   *violation probability* — how often, per iteration, the main thread
//!   executes the candidate and modifies its result;
//! * **operation nodes** — the instructions of the speculative iteration
//!   that re-execute when a dependence they consume was violated.
//!
//! Edges carry the conditional probability `r` that a re-execution of the
//! source causes the target to be re-executed (§4.2.2). Re-execution
//! probabilities propagate in topological order with the independence
//! approximation `x := 1 - (1-x)(1 - r·v(p))` (§4.2.3), and the
//! misspeculation cost of a partition is `Σ v(c)·Cost(c)` over operation
//! nodes (§4.2.4).

/// A violation candidate's pseudo node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VcInfo {
    /// The operation node that *is* the candidate statement (used to decide
    /// whether the candidate sits in the pre-fork region). `None` for
    /// candidates without a body node (e.g. synthetic test graphs).
    pub node: Option<usize>,
    /// Violation probability: how often per iteration the main thread
    /// executes the candidate and modifies its result.
    pub violation_prob: f64,
}

/// The cost graph for one loop. Operation nodes are indexed `0..num_nodes`
/// and must be topologically ordered with respect to `edges`
/// (`src < dst` for every intra edge).
#[derive(Clone, Debug, Default)]
pub struct CostGraph {
    /// Number of operation nodes.
    pub num_nodes: usize,
    /// `Cost(c)` per operation node (§4.2.4; we use static latencies).
    pub node_cost: Vec<f64>,
    /// The violation-candidate pseudo nodes.
    pub vcs: Vec<VcInfo>,
    /// Edges from pseudo node `vc` to operation node `dst` with probability
    /// `r`: the cross-iteration dependence edges seeding the graph.
    pub vc_edges: Vec<(usize, usize, f64)>,
    /// Intra-iteration propagation edges `(src, dst, r)` with `src < dst`.
    pub edges: Vec<(usize, usize, f64)>,
}

impl CostGraph {
    /// Creates an empty cost graph with `num_nodes` operation nodes of unit
    /// cost.
    pub fn with_unit_costs(num_nodes: usize) -> Self {
        CostGraph {
            num_nodes,
            node_cost: vec![1.0; num_nodes],
            vcs: Vec::new(),
            vc_edges: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Adds a violation candidate, returning its pseudo-node index.
    pub fn add_vc(&mut self, node: Option<usize>, violation_prob: f64) -> usize {
        self.vcs.push(VcInfo {
            node,
            violation_prob,
        });
        self.vcs.len() - 1
    }

    /// Adds a seeding edge from pseudo node `vc` to operation node `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `vc` or `dst` is out of range.
    pub fn add_vc_edge(&mut self, vc: usize, dst: usize, r: f64) {
        assert!(vc < self.vcs.len() && dst < self.num_nodes);
        self.vc_edges.push((vc, dst, r));
    }

    /// Adds an intra-iteration propagation edge.
    ///
    /// # Panics
    ///
    /// Panics if the edge is not forward (`src < dst`) or out of range.
    pub fn add_edge(&mut self, src: usize, dst: usize, r: f64) {
        assert!(src < dst && dst < self.num_nodes, "edges must be forward");
        self.edges.push((src, dst, r));
    }

    /// Computes the re-execution probability of every operation node for the
    /// given partition (§4.2.3).
    ///
    /// `node_in_prefork[i]` marks operation nodes moved into the pre-fork
    /// region. A violation candidate in the pre-fork region is *disarmed*:
    /// its result is computed by the main thread before the speculative
    /// thread starts, so it can no longer be violated (§4.2.3 step 3).
    /// Ordinary consumer nodes are **not** exempted by pre-fork membership —
    /// the speculative thread executes the whole next iteration, pre-fork
    /// part included, so a consumer of a violated value re-executes wherever
    /// it sits.
    ///
    /// # Panics
    ///
    /// Panics if `node_in_prefork.len() != num_nodes`.
    pub fn reexec_probs(&self, node_in_prefork: &[bool]) -> Vec<f64> {
        assert_eq!(node_in_prefork.len(), self.num_nodes);
        // Step 3: initialize pseudo-node probabilities.
        let vc_prob: Vec<f64> = self
            .vcs
            .iter()
            .map(|vc| match vc.node {
                Some(n) if node_in_prefork[n] => 0.0,
                _ => vc.violation_prob,
            })
            .collect();

        // Step 4: propagate in topological order. Operation nodes are
        // already topologically sorted (forward edges only), so a single
        // sweep accumulating "survival" products suffices.
        let mut survival = vec![1.0f64; self.num_nodes]; // Π (1 - r·v(p))
        for &(vc, dst, r) in &self.vc_edges {
            survival[dst] *= 1.0 - r * vc_prob[vc];
        }
        let mut v = vec![0.0f64; self.num_nodes];
        // Bucket edges by source for the sweep.
        let mut out: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.num_nodes];
        for &(src, dst, r) in &self.edges {
            out[src].push((dst, r));
        }
        for n in 0..self.num_nodes {
            v[n] = 1.0 - survival[n];
            if v[n] > 0.0 {
                for &(dst, r) in &out[n] {
                    survival[dst] *= 1.0 - r * v[n];
                }
            }
        }
        v
    }

    /// The misspeculation cost of a partition: `Σ v(c)·Cost(c)` over
    /// operation nodes (§4.2.4). Pseudo nodes are excluded by construction.
    pub fn misspeculation_cost(&self, node_in_prefork: &[bool]) -> f64 {
        let v = self.reexec_probs(node_in_prefork);
        v.iter().zip(&self.node_cost).map(|(p, c)| p * c).sum()
    }

    /// Convenience: the cost of the empty partition (nothing pre-forked).
    pub fn baseline_cost(&self) -> f64 {
        self.misspeculation_cost(&vec![false; self.num_nodes])
    }

    /// Builds a reusable evaluation arena for this graph. One evaluator
    /// serves any number of [`CostGraph::reexec_probs_into`] /
    /// [`CostGraph::misspeculation_cost_with`] calls without reallocating.
    pub fn evaluator(&self) -> CostEvaluator {
        let n = self.num_nodes;
        let words = n.div_ceil(64);
        // CSR out-adjacency, preserving per-source edge order so the
        // propagation multiplies survival factors in exactly the same order
        // as the one-shot sweep of `reexec_probs`.
        let mut out_start = vec![0usize; n + 1];
        for &(src, _, _) in &self.edges {
            out_start[src + 1] += 1;
        }
        for i in 0..n {
            out_start[i + 1] += out_start[i];
        }
        let mut next = out_start.clone();
        let mut out_edges = vec![(0usize, 0.0f64); self.edges.len()];
        for &(src, dst, r) in &self.edges {
            out_edges[next[src]] = (dst, r);
            next[src] += 1;
        }
        // Per-candidate reachability: the operation nodes whose re-execution
        // probability can be non-zero when that candidate alone is armed.
        // Seeds are the candidate's cross-edge targets; the graph is
        // topologically ordered, so one ascending sweep closes each set.
        let mut vc_reach = vec![0u64; self.vcs.len() * words];
        for (k, row) in vc_reach.chunks_mut(words.max(1)).enumerate() {
            if words == 0 {
                break;
            }
            for &(vc, dst, _) in &self.vc_edges {
                if vc == k {
                    row[dst / 64] |= 1u64 << (dst % 64);
                }
            }
            for node in 0..n {
                if row[node / 64] & (1u64 << (node % 64)) != 0 {
                    for &(dst, _) in &out_edges[out_start[node]..out_start[node + 1]] {
                        row[dst / 64] |= 1u64 << (dst % 64);
                    }
                }
            }
        }
        CostEvaluator {
            num_nodes: n,
            num_vcs: self.vcs.len(),
            words,
            out_start,
            out_edges,
            vc_reach,
            vc_prob: vec![0.0; self.vcs.len()],
            survival: vec![1.0; n],
            v: vec![0.0; n],
            reach: vec![0u64; words],
        }
    }

    /// Scratch-buffer variant of [`CostGraph::reexec_probs`]: evaluates into
    /// `eval`'s arena and returns the per-node probabilities as a slice.
    ///
    /// The propagation sweep is restricted to nodes reachable from
    /// still-armed violation candidates; every skipped node keeps
    /// `survival = 1`, whose factors are exactly `1.0`, so the result is
    /// bit-identical to the full sweep.
    ///
    /// # Panics
    ///
    /// Panics if `eval` was built from a graph of different shape or
    /// `node_in_prefork.len() != num_nodes`.
    pub fn reexec_probs_into<'e>(
        &self,
        node_in_prefork: &[bool],
        eval: &'e mut CostEvaluator,
    ) -> &'e [f64] {
        assert_eq!(node_in_prefork.len(), self.num_nodes);
        assert_eq!(eval.num_nodes, self.num_nodes, "evaluator/graph mismatch");
        assert_eq!(eval.num_vcs, self.vcs.len(), "evaluator/graph mismatch");
        // Reset whatever the previous evaluation touched.
        for w in 0..eval.words {
            let mut bits = eval.reach[w];
            while bits != 0 {
                let node = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                eval.survival[node] = 1.0;
                eval.v[node] = 0.0;
            }
            eval.reach[w] = 0;
        }
        // Step 3: pseudo-node probabilities; union the reach of armed VCs.
        for (k, vc) in self.vcs.iter().enumerate() {
            let p = match vc.node {
                Some(node) if node_in_prefork[node] => 0.0,
                _ => vc.violation_prob,
            };
            eval.vc_prob[k] = p;
            if p > 0.0 {
                for w in 0..eval.words {
                    eval.reach[w] |= eval.vc_reach[k * eval.words + w];
                }
            }
        }
        // Step 4: seed survivals from armed cross edges, then propagate over
        // reachable nodes in ascending (topological) order.
        for &(vc, dst, r) in &self.vc_edges {
            let p = eval.vc_prob[vc];
            if p > 0.0 {
                eval.survival[dst] *= 1.0 - r * p;
            }
        }
        for w in 0..eval.words {
            let mut bits = eval.reach[w];
            while bits != 0 {
                let node = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let vn = 1.0 - eval.survival[node];
                eval.v[node] = vn;
                if vn > 0.0 {
                    for i in eval.out_start[node]..eval.out_start[node + 1] {
                        let (dst, r) = eval.out_edges[i];
                        eval.survival[dst] *= 1.0 - r * vn;
                    }
                }
            }
        }
        &eval.v
    }

    /// Scratch-buffer variant of [`CostGraph::misspeculation_cost`]: the sum
    /// runs over the touched nodes only (skipped terms are exactly `+0.0`).
    pub fn misspeculation_cost_with(
        &self,
        node_in_prefork: &[bool],
        eval: &mut CostEvaluator,
    ) -> f64 {
        self.reexec_probs_into(node_in_prefork, eval);
        let mut cost = 0.0f64;
        for w in 0..eval.words {
            let mut bits = eval.reach[w];
            while bits != 0 {
                let node = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                cost += eval.v[node] * self.node_cost[node];
            }
        }
        cost
    }
}

/// A reusable evaluation arena for one [`CostGraph`] (see
/// [`CostGraph::evaluator`]): CSR out-adjacency, precomputed per-candidate
/// reachability bitsets, and the scratch buffers of the propagation sweep.
/// The optimal-partition search holds one of these and evaluates thousands
/// of partitions without a single allocation.
#[derive(Clone, Debug)]
pub struct CostEvaluator {
    num_nodes: usize,
    num_vcs: usize,
    /// Bitset words per node set (`num_nodes.div_ceil(64)`).
    words: usize,
    /// CSR: out-edges of node `n` are `out_edges[out_start[n]..out_start[n+1]]`.
    out_start: Vec<usize>,
    out_edges: Vec<(usize, f64)>,
    /// Flattened per-VC reachability: candidate `k` owns words
    /// `vc_reach[k*words..(k+1)*words]`.
    vc_reach: Vec<u64>,
    // --- scratch, reset lazily between evaluations ---
    vc_prob: Vec<f64>,
    survival: Vec<f64>,
    v: Vec<f64>,
    /// Union of armed candidates' reach from the latest evaluation; doubles
    /// as the record of which scratch entries need resetting.
    reach: Vec<u64>,
}

impl CostEvaluator {
    /// The per-node re-execution probabilities of the latest evaluation
    /// ([`CostGraph::reexec_probs_into`] or
    /// [`CostGraph::misspeculation_cost_with`]); all zero before the first.
    pub fn probs(&self) -> &[f64] {
        &self.v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the §4.2.5 worked example (Figures 5–6).
    ///
    /// Nodes: A=0, B=1, C=2, D=3, E=4, F=5, all cost 1.
    /// Pseudo nodes D', E', F' with violation probability 1 (no branches).
    /// Cross edges: D'→A (0.2), E'→B (0.1), F'→C (0.2).
    /// Intra edges: B→C (0.5), C→E (1.0).
    fn paper_example() -> CostGraph {
        let mut g = CostGraph::with_unit_costs(6);
        let d = g.add_vc(Some(3), 1.0);
        let e = g.add_vc(Some(4), 1.0);
        let f = g.add_vc(Some(5), 1.0);
        g.add_vc_edge(d, 0, 0.2);
        g.add_vc_edge(e, 1, 0.1);
        g.add_vc_edge(f, 2, 0.2);
        g.add_edge(1, 2, 0.5);
        g.add_edge(2, 4, 1.0);
        g
    }

    #[test]
    fn paper_worked_example_cost_is_0_58() {
        let g = paper_example();
        // Partition: only D (node 3) in the pre-fork region.
        let mut prefork = vec![false; 6];
        prefork[3] = true;
        let v = g.reexec_probs(&prefork);
        assert!((v[0] - 0.0).abs() < 1e-12, "v(A) = {}", v[0]);
        assert!((v[1] - 0.1).abs() < 1e-12, "v(B) = {}", v[1]);
        assert!((v[2] - 0.24).abs() < 1e-12, "v(C) = {}", v[2]);
        assert!((v[3] - 0.0).abs() < 1e-12, "v(D) = {}", v[3]);
        assert!((v[4] - 0.24).abs() < 1e-12, "v(E) = {}", v[4]);
        assert!((v[5] - 0.0).abs() < 1e-12, "v(F) = {}", v[5]);
        let cost = g.misspeculation_cost(&prefork);
        assert!((cost - 0.58).abs() < 1e-12, "cost = {cost}");
    }

    #[test]
    fn empty_partition_costs_more() {
        let g = paper_example();
        let baseline = g.baseline_cost();
        let mut prefork = vec![false; 6];
        prefork[3] = true;
        let with_d = g.misspeculation_cost(&prefork);
        // With D speculated too, A also re-executes: baseline = 0.58 + v(A)
        // where v(A) = 0.2.
        assert!((baseline - 0.78).abs() < 1e-12, "baseline = {baseline}");
        assert!(with_d < baseline);
    }

    #[test]
    fn cost_is_monotone_in_prefork_set() {
        let g = paper_example();
        // Growing the pre-fork region never increases the cost (§5: "When
        // additional statements are moved into the pre-fork region, the
        // misspeculation cost will be reduced").
        let mut prev = g.baseline_cost();
        let mut prefork = vec![false; 6];
        for vc_node in [3usize, 4, 5] {
            prefork[vc_node] = true;
            let cost = g.misspeculation_cost(&prefork);
            assert!(cost <= prev + 1e-12, "cost {cost} > prev {prev}");
            prev = cost;
        }
        // All violation candidates pre-forked: nothing to misspeculate.
        assert!(prev.abs() < 1e-12);
    }

    #[test]
    fn violation_probability_scales_seeds() {
        let mut g = CostGraph::with_unit_costs(2);
        let vc = g.add_vc(Some(0), 0.5);
        g.add_vc_edge(vc, 1, 0.4);
        let v = g.reexec_probs(&[false, false]);
        assert!((v[1] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn multiple_predecessors_combine_independently() {
        // Node 2 fed by two VCs with r=0.5 each, vp=1: v = 1 - 0.5*0.5.
        let mut g = CostGraph::with_unit_costs(3);
        let a = g.add_vc(Some(0), 1.0);
        let b = g.add_vc(Some(1), 1.0);
        g.add_vc_edge(a, 2, 0.5);
        g.add_vc_edge(b, 2, 0.5);
        let v = g.reexec_probs(&[false; 3]);
        assert!((v[2] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn moving_consumers_does_not_help() {
        // VC -> n1 -> n2; placing the *consumer* n1 in the pre-fork region
        // changes nothing — the speculative thread still executes it with a
        // violated input. Only moving the candidate itself (node 0) disarms
        // the chain.
        let mut g = CostGraph::with_unit_costs(3);
        let vc = g.add_vc(Some(0), 1.0);
        g.add_vc_edge(vc, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        let v = g.reexec_probs(&[false, true, false]);
        assert_eq!(v[1], 1.0);
        assert_eq!(v[2], 1.0);
        let v2 = g.reexec_probs(&[true, false, false]);
        assert_eq!(v2[1], 0.0);
        assert_eq!(v2[2], 0.0);
    }

    #[test]
    fn node_costs_weight_the_sum() {
        let mut g = CostGraph::with_unit_costs(2);
        g.node_cost[1] = 20.0;
        let vc = g.add_vc(Some(0), 1.0);
        g.add_vc_edge(vc, 1, 0.5);
        let cost = g.misspeculation_cost(&[false, false]);
        assert!((cost - 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "forward")]
    fn rejects_backward_edges() {
        let mut g = CostGraph::with_unit_costs(2);
        g.add_edge(1, 1, 0.5);
    }

    #[test]
    fn evaluator_matches_one_shot_sweep() {
        let g = paper_example();
        let mut eval = g.evaluator();
        // Cycle through several partitions with ONE arena: lazy resets must
        // leave no residue from the previous evaluation.
        let masks: Vec<Vec<bool>> = vec![
            vec![false; 6],
            {
                let mut m = vec![false; 6];
                m[3] = true;
                m
            },
            vec![true; 6],
            {
                let mut m = vec![false; 6];
                m[4] = true;
                m[5] = true;
                m
            },
            vec![false; 6],
        ];
        for mask in &masks {
            let fresh = g.reexec_probs(mask);
            let scratch = g.reexec_probs_into(mask, &mut eval).to_vec();
            assert_eq!(fresh, scratch, "bit-exact probabilities for {mask:?}");
            let c_fresh = g.misspeculation_cost(mask);
            let c_scratch = g.misspeculation_cost_with(mask, &mut eval);
            assert_eq!(
                c_fresh.to_bits(),
                c_scratch.to_bits(),
                "bit-exact cost for {mask:?}"
            );
        }
    }

    #[test]
    fn probabilities_stay_in_unit_interval() {
        // Saturating graph: many strong predecessors.
        let mut g = CostGraph::with_unit_costs(5);
        for n in 0..4 {
            let vc = g.add_vc(Some(n), 1.0);
            g.add_vc_edge(vc, 4, 0.9);
        }
        let v = g.reexec_probs(&[false; 5]);
        assert!(v[4] <= 1.0 && v[4] > 0.99);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_graph() -> impl Strategy<Value = CostGraph> {
        // 2..12 nodes, random VCs and forward edges with probs in [0,1].
        (2usize..12).prop_flat_map(|n| {
            let vcs = proptest::collection::vec((0..n, 0.0f64..=1.0), 1..4);
            let edges = proptest::collection::vec(
                ((0..n), (0..n), 0.0f64..=1.0).prop_filter("forward", |(a, b, _)| a < b),
                0..16,
            );
            let vc_edges = proptest::collection::vec((0usize..4, 0..n, 0.0f64..=1.0), 0..8);
            (Just(n), vcs, edges, vc_edges).prop_map(|(n, vcs, edges, vc_edges)| {
                let mut g = CostGraph::with_unit_costs(n);
                for (node, vp) in vcs {
                    g.add_vc(Some(node), vp);
                }
                for (a, b, r) in edges {
                    g.add_edge(a, b, r);
                }
                for (vc, dst, r) in vc_edges {
                    if vc < g.vcs.len() {
                        g.add_vc_edge(vc, dst, r);
                    }
                }
                g
            })
        })
    }

    proptest! {
        /// Re-execution probabilities are valid probabilities.
        #[test]
        fn probs_in_unit_interval(g in arb_graph()) {
            let v = g.reexec_probs(&vec![false; g.num_nodes]);
            for p in v {
                prop_assert!((0.0..=1.0).contains(&p));
            }
        }

        /// Growing the pre-fork region never increases the cost — the
        /// monotonicity property the branch-and-bound pruning relies on (§5).
        #[test]
        fn cost_monotone_under_prefork_growth(g in arb_graph(), extra in 0usize..12) {
            let mut prefork = vec![false; g.num_nodes];
            let c0 = g.misspeculation_cost(&prefork);
            // Move the VC statements into the pre-fork region one at a time.
            let mut nodes: Vec<usize> = g.vcs.iter().filter_map(|vc| vc.node).collect();
            nodes.sort_unstable();
            nodes.dedup();
            let mut prev = c0;
            for nd in nodes {
                prefork[nd] = true;
                let c = g.misspeculation_cost(&prefork);
                prop_assert!(c <= prev + 1e-9, "cost grew: {c} > {prev}");
                prev = c;
            }
            // Also marking an arbitrary extra node cannot increase cost.
            let extra = extra % g.num_nodes;
            prefork[extra] = true;
            let c = g.misspeculation_cost(&prefork);
            prop_assert!(c <= prev + 1e-9);
        }

        /// The restricted-sweep evaluator reproduces the one-shot sweep
        /// bit-for-bit on random graphs and random partitions, including
        /// arena reuse across successive masks.
        #[test]
        fn evaluator_is_bit_exact(g in arb_graph(), picks in proptest::collection::vec(0usize..64, 0..24)) {
            let mut eval = g.evaluator();
            let mut mask = vec![false; g.num_nodes];
            // Interleave evaluations with mask mutations to exercise reuse.
            for (step, &pick) in picks.iter().enumerate() {
                let n = pick % g.num_nodes;
                mask[n] = step % 3 != 2; // mostly set, sometimes clear
                let fresh = g.reexec_probs(&mask);
                let scratch = g.reexec_probs_into(&mask, &mut eval).to_vec();
                prop_assert_eq!(&fresh, &scratch);
                let cf = g.misspeculation_cost(&mask);
                let cs = g.misspeculation_cost_with(&mask, &mut eval);
                prop_assert_eq!(cf.to_bits(), cs.to_bits());
            }
        }

        /// Cost is bounded by the total cost of all nodes.
        #[test]
        fn cost_bounded_by_total(g in arb_graph()) {
            let total: f64 = g.node_cost.iter().sum();
            let c = g.baseline_cost();
            prop_assert!(c <= total + 1e-9);
            prop_assert!(c >= 0.0);
        }
    }
}
