//! Optimal SPT loop partitioning (§5 of the paper).
//!
//! Formulation: *find a legal loop partition with minimum misspeculation
//! cost, subject to the pre-fork region size being at most a threshold.* A
//! partition is legal when it preserves all forward intra-iteration
//! dependences — equivalently, when the pre-fork region is a
//! dependence-closure of the violation candidates it contains.
//!
//! The search space is restricted to sets of violation candidates (the only
//! statements whose placement changes the cost), organized by the
//! [`VcDepGraph`]: candidate `N` is a successor of candidate `S` when `N`
//! depends intra-iteration on `S`, so `S` must enter the pre-fork region
//! before `N` can (§5.1). A branch-and-bound enumeration visits candidate
//! sets in topological order — at each step only candidates with a larger
//! topological number may be added, avoiding duplicate visits (§5.2) — with
//! the paper's two pruning heuristics (§5.2.1):
//!
//! 1. **size pruning** — pre-fork size is monotone in the candidate set, so
//!    once a set exceeds the size threshold its whole subtree is dead;
//! 2. **bound pruning** — misspeculation cost is monotone *decreasing* in
//!    the candidate set, so the cost with *all* still-addable candidates
//!    included lower-bounds every descendant; if that bound is no better
//!    than the best found, the subtree is dead.
//!
//! [`optimal_partition`] strengthens heuristic 2 when that bound does not
//! prune, by charging the remaining pre-fork budget (which the paper's
//! bound ignores, so it almost never prunes once the size threshold
//! binds). Let `F` be the set with every still-addable candidate pushed,
//! `C_F` its cost and `v_n(F)` each node's re-execution probability under
//! it, and `v_n({x})` the probability with candidate `x` alone armed
//! (computed once per search). Each node a still-addable candidate reaches
//! is given to the one with the highest `v_n({x})`; that candidate's share
//! is `g_x = Σ c_n·(v_n({x}) − v_n(F))⁺` over its nodes, and its size
//! `w_x` is the part of its closure outside the current pre-fork region and
//! outside every other still-addable closure. Every descendant within the
//! size threshold then costs at least `C_F + Σ g_x − R`, where `R` is the
//! largest `Σ g_x` whose `w_x` fit in the remaining budget (Dantzig's
//! fractional knapsack bound first, the exact 0/1 knapsack over the integer
//! sizes only when that does not prune). The bound is admissible because
//! re-execution probabilities only grow with the armed set, `F`'s armed
//! candidates stay armed in every descendant, the exclusive parts of
//! different closures are disjoint, and the VC-dep order constraints are
//! only dropped. A subtree is cut only when no set in it could pass
//! `consider`: the bound is no better than the best cost, and a descendant
//! that ties it within the tolerance cannot be smaller than the best
//! partition (the least exclusive size that recovers enough share, by the
//! fractional covering bound). So the search returns exactly what
//! [`optimal_partition_reference`] returns, visiting far fewer nodes.
//!
//! Loops with more than [`SearchConfig::max_vcs`] candidates are skipped,
//! exactly as the paper skips loops with more than 30.

use spt_cost::{LoopCostModel, Partition};

/// The violation-candidate dependence graph (§5.1).
#[derive(Clone, Debug)]
pub struct VcDepGraph {
    /// Violation candidates as dep-graph node indices, ascending (this is a
    /// topological order: intra edges only go forward in node order).
    pub vcs: Vec<usize>,
    /// `preds[k]` = positions (into `vcs`) of candidates that candidate `k`
    /// transitively depends on intra-iteration.
    pub preds: Vec<Vec<usize>>,
    /// Positions of candidates that can never be moved (their closure
    /// contains a pinned node).
    pub immovable: Vec<bool>,
    /// `closures[k]` = the intra-iteration dependence closure of candidate
    /// `k` (sorted dep-graph node indices). The closure of a candidate *set*
    /// is the union of these (closures distribute over union), which is what
    /// lets the search maintain its pre-fork mask incrementally.
    pub closures: Vec<Vec<usize>>,
}

impl VcDepGraph {
    /// Builds the VC-dep graph from a loop cost model. Each candidate's
    /// closure is computed once over shared scratch buffers and stored.
    pub fn build(model: &LoopCostModel) -> Self {
        let vcs: Vec<usize> = model.vcs().to_vec();
        let num_nodes = model.graph.nodes.len();
        // Node -> candidate-position lookup.
        let mut pos_of: Vec<Option<usize>> = vec![None; num_nodes];
        for (k, &vc) in vcs.iter().enumerate() {
            pos_of[vc] = Some(k);
        }
        let pred_adj = model.graph.closure_preds();
        let mut in_set = vec![false; num_nodes];
        let mut work = Vec::new();
        let mut preds: Vec<Vec<usize>> = Vec::with_capacity(vcs.len());
        let mut immovable = Vec::with_capacity(vcs.len());
        let mut closures = Vec::with_capacity(vcs.len());
        for &vc in &vcs {
            let mut closure = Vec::new();
            model
                .graph
                .closure_with(&pred_adj, &[vc], &mut in_set, &mut work, &mut closure);
            immovable.push(!model.graph.closure_is_legal(&closure));
            // Closure and `vcs` are both ascending, so `ps` comes out sorted.
            let mut ps = Vec::new();
            for &n in &closure {
                if n != vc {
                    if let Some(p) = pos_of[n] {
                        ps.push(p);
                    }
                }
            }
            preds.push(ps);
            closures.push(closure);
        }
        VcDepGraph {
            vcs,
            preds,
            immovable,
            closures,
        }
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.vcs.len()
    }

    /// Returns `true` when there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.vcs.is_empty()
    }
}

/// The search's incrementally-maintained pre-fork region: the union of the
/// pushed candidates' dependence closures, tracked by per-node reference
/// counts so each pop undoes exactly what the matching push added. `mask`
/// and `size` always equal what `Partition::from_seeds` would compute for
/// the pushed set, without re-walking any closure.
struct DeltaMask {
    mask: Vec<bool>,
    refs: Vec<u32>,
    size: u64,
}

impl DeltaMask {
    fn new(num_nodes: usize) -> Self {
        DeltaMask {
            mask: vec![false; num_nodes],
            refs: vec![0; num_nodes],
            size: 0,
        }
    }

    fn push(&mut self, closure: &[usize], node_cost: &[u64]) {
        for &n in closure {
            if self.refs[n] == 0 {
                self.mask[n] = true;
                self.size += node_cost[n];
            }
            self.refs[n] += 1;
        }
    }

    fn pop(&mut self, closure: &[usize], node_cost: &[u64]) {
        for &n in closure {
            self.refs[n] -= 1;
            if self.refs[n] == 0 {
                self.mask[n] = false;
                self.size -= node_cost[n];
            }
        }
    }
}

/// The budget-aware half of heuristic 2 (see the module docs): each
/// movable candidate's single-candidate re-execution probabilities, fixed
/// for one search, and the scratch every search node reuses, so a bound
/// allocates nothing.
struct BudgetBound {
    /// Candidate `p` alone armed reaches the nodes
    /// `single[start[p]..start[p + 1]]`, each with its probability
    /// `v_n({p})`, ascending by node (an empty range for immovable `p`).
    start: Vec<usize>,
    single: Vec<(usize, f64)>,
    /// Per node: the candidate its share goes to, that candidate's
    /// probability, and the bound (`epoch`) that wrote them.
    owner: Vec<usize>,
    owner_v: Vec<f64>,
    stamp: Vec<u64>,
    epoch: u64,
    /// Per candidate: its share `g_x` and exclusive size `w_x`.
    gain: Vec<f64>,
    excl: Vec<u64>,
    /// The candidates that can be recovered (positive share, exclusive size
    /// within the remaining budget), best share per unit size first.
    items: Vec<usize>,
    /// The exact knapsack's table: the least unrecovered share per unit of
    /// budget.
    table: Vec<f64>,
}

impl BudgetBound {
    /// `None` when the budget can never bind (every movable closure fits
    /// in it together), where the bound could only repeat `C_F`.
    fn new(
        model: &LoopCostModel,
        vc_graph: &VcDepGraph,
        eval: &mut spt_cost::CostEvaluator,
        max_prefork_size: u64,
    ) -> Option<Self> {
        let num_nodes = model.graph.nodes.len();
        let mut all = DeltaMask::new(num_nodes);
        for p in (0..vc_graph.len()).filter(|&p| !vc_graph.immovable[p]) {
            all.push(&vc_graph.closures[p], &model.graph.cost);
        }
        if all.size <= max_prefork_size {
            return None;
        }
        // Every candidate's node in the region disarms all but one.
        let mut mask = vec![false; num_nodes];
        for &vc in &vc_graph.vcs {
            mask[vc] = true;
        }
        let mut start = vec![0];
        let mut single = Vec::new();
        for p in 0..vc_graph.len() {
            if !vc_graph.immovable[p] {
                mask[vc_graph.vcs[p]] = false;
                let v = model.cost_graph().reexec_probs_into(&mask, eval);
                single.extend(
                    v.iter()
                        .enumerate()
                        .filter(|(_, &x)| x > 0.0)
                        .map(|(n, &x)| (n, x)),
                );
                mask[vc_graph.vcs[p]] = true;
            }
            start.push(single.len());
        }
        let table_len = all.size.min(max_prefork_size) as usize + 1;
        Some(BudgetBound {
            start,
            single,
            owner: vec![0; num_nodes],
            owner_v: vec![0.0; num_nodes],
            stamp: vec![0; num_nodes],
            epoch: 0,
            gain: vec![0.0; vc_graph.len()],
            excl: vec![0; vc_graph.len()],
            items: Vec::with_capacity(vc_graph.len()),
            table: Vec::with_capacity(table_len),
        })
    }

    /// Whether no descendant of the current set can pass `consider`
    /// against `(best_cost, best_size)`. Called with every still-addable
    /// candidate (`start..`) pushed on `delta`, right after the sweep that
    /// computed their cost `c_f` and probabilities `v_f`; `size` is the
    /// current set's own pre-fork size.
    #[allow(clippy::too_many_arguments)]
    fn prunes(
        &mut self,
        vc_graph: &VcDepGraph,
        model: &LoopCostModel,
        delta: &DeltaMask,
        v_f: &[f64],
        start: usize,
        c_f: f64,
        size: u64,
        max_prefork_size: u64,
        best_cost: f64,
        best_size: u64,
    ) -> bool {
        let addable = || (start..vc_graph.len()).filter(|&p| !vc_graph.immovable[p]);
        let node_cost = &model.cost_graph().node_cost;
        let rem = max_prefork_size.saturating_sub(size);
        self.epoch += 1;
        // With every addable closure pushed, a node counted once lies in
        // exactly one of them and outside the current region.
        for p in addable() {
            self.excl[p] = vc_graph.closures[p]
                .iter()
                .filter(|&&n| delta.refs[n] == 1)
                .map(|&n| model.graph.cost[n])
                .sum();
        }
        // Each node goes to the candidate that alone re-executes it most
        // likely; near-ties go to the larger exclusive size, whose share
        // is the dearer to recover.
        for p in addable() {
            for &(n, v) in &self.single[self.start[p]..self.start[p + 1]] {
                if v <= v_f[n] {
                    continue;
                }
                let claim = self.stamp[n] != self.epoch || {
                    let held = self.owner_v[n];
                    if (v - held).abs() <= 1e-9 * v.max(held) {
                        self.excl[p] > self.excl[self.owner[n]]
                    } else {
                        v > held
                    }
                };
                if claim {
                    self.stamp[n] = self.epoch;
                    self.owner[n] = p;
                    self.owner_v[n] = v;
                }
            }
        }
        // Shares. Candidates too large for the remaining budget are never
        // recovered: their share stays in every descendant's cost.
        let mut fixed = 0.0;
        self.items.clear();
        for p in addable() {
            let mut g = 0.0;
            for &(n, v) in &self.single[self.start[p]..self.start[p + 1]] {
                if self.stamp[n] == self.epoch && self.owner[n] == p {
                    g += node_cost[n] * (v - v_f[n]);
                }
            }
            self.gain[p] = g;
            if g > 0.0 {
                if self.excl[p] <= rem {
                    self.items.push(p);
                } else {
                    fixed += g;
                }
            }
        }
        let (gain, excl) = (&self.gain, &self.excl);
        self.items.sort_unstable_by(|&a, &b| {
            (gain[b] * excl[a] as f64)
                .total_cmp(&(gain[a] * excl[b] as f64))
                .then(a.cmp(&b))
        });

        // `missed` is the share a descendant leaves unrecovered; it costs at
        // least `c_f + missed`. Cut only when nothing could be accepted.
        let mut tie_free: Option<bool> = None;
        let mut cuts = |missed: f64, this: &Self| {
            let bound = c_f + missed;
            bound >= best_cost - 1e-12
                && (bound >= best_cost + 1e-12
                    || *tie_free.get_or_insert_with(|| {
                        this.no_smaller_tie(fixed, c_f, size, best_cost, best_size)
                    }))
        };
        // Dantzig's bound: recover the best ratios whole, then a fraction.
        let mut cap = rem;
        let mut missed = fixed;
        let mut split = false;
        for &p in &self.items {
            if !split && excl[p] <= cap {
                cap -= excl[p];
            } else if !split {
                missed += gain[p] * (1.0 - cap as f64 / excl[p] as f64);
                split = true;
            } else {
                missed += gain[p];
            }
        }
        if cuts(missed, self) {
            return true;
        }
        if !split {
            // Everything fitted: the exact knapsack cannot do better.
            return false;
        }
        // The exact 0/1 knapsack over the integer sizes.
        let total: u64 = self.items.iter().map(|&p| excl[p]).sum();
        let cap = rem.min(total) as usize;
        self.table.clear();
        self.table.resize(cap + 1, 0.0);
        for &p in &self.items {
            let (w, g) = (excl[p] as usize, gain[p]);
            for c in (0..=cap).rev() {
                self.table[c] = if c >= w {
                    (self.table[c] + g).min(self.table[c - w])
                } else {
                    self.table[c] + g
                };
            }
        }
        cuts(fixed + self.table[cap], self)
    }

    /// Whether every descendant that could tie `best_cost` within the
    /// tolerance (and so pass `consider` on a smaller size) is at least
    /// `best_size` large: the least exclusive size that recovers enough
    /// share, by the fractional covering bound over `items`.
    fn no_smaller_tie(
        &self,
        fixed: f64,
        c_f: f64,
        size: u64,
        best_cost: f64,
        best_size: u64,
    ) -> bool {
        // A tie leaves less than `slack` unrecovered.
        let slack = best_cost + 1e-12 - c_f;
        let mut need = fixed + self.items.iter().map(|&p| self.gain[p]).sum::<f64>() - slack;
        let mut least = 0.0;
        for &p in &self.items {
            if need <= 0.0 {
                break;
            }
            let (g, w) = (self.gain[p], self.excl[p] as f64);
            if g >= need {
                least += w * need / g;
                need = 0.0;
            } else {
                least += w;
                need -= g;
            }
        }
        // Sizes are integers, so the least one rounds up (less a hair of
        // rounding noise).
        need > 0.0 || size + (least - 1e-9).ceil().max(0.0) as u64 >= best_size
    }
}

/// Search parameters.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Maximum pre-fork region size (absolute, in the cost model's latency
    /// units). The driver derives it as a fraction of the loop body size
    /// (§6.1 criterion 2).
    pub max_prefork_size: u64,
    /// Skip loops with more candidates than this (paper: 30).
    pub max_vcs: usize,
    /// Enable pruning heuristic 1 (size). Disable only for ablation.
    pub prune_size: bool,
    /// Enable pruning heuristic 2 (cost lower bound). Disable only for
    /// ablation.
    pub prune_bound: bool,
    /// Hard cap on visited search nodes (defensive; the paper's cap is the
    /// VC limit).
    pub max_visited: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_prefork_size: u64::MAX,
            max_vcs: 30,
            prune_size: true,
            prune_bound: true,
            max_visited: 1_000_000,
        }
    }
}

/// The outcome of an optimal-partition search.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// The best legal partition within the size threshold.
    pub partition: Partition,
    /// Its misspeculation cost.
    pub cost: f64,
    /// Candidate positions chosen into the pre-fork region.
    pub chosen: Vec<usize>,
    /// Search-tree nodes visited (ablation metric).
    pub visited: u64,
    /// Subtrees cut by size pruning.
    pub pruned_size: u64,
    /// Subtrees cut by bound pruning.
    pub pruned_bound: u64,
    /// `true` when the loop was skipped for having too many candidates; the
    /// returned partition is then the empty one.
    pub skipped_too_many_vcs: bool,
    /// `true` when the search stopped because it hit
    /// [`SearchConfig::max_visited`]. The returned partition is then the
    /// best one found so far, *not* necessarily the optimum — callers that
    /// care about optimality (or observability of degraded results) must
    /// check this flag instead of treating the result as exact.
    pub budget_exhausted: bool,
}

/// Finds the minimum-misspeculation-cost legal partition of the loop, via
/// branch-and-bound over violation-candidate sets.
///
/// Search nodes are evaluated *incrementally*: the pre-fork mask is the
/// refcounted union of the chosen candidates' precomputed closures
/// (`DeltaMask`), extended on push and undone on pop, and costs come from
/// a single [`spt_cost::CostEvaluator`] arena whose propagation sweep only
/// touches nodes reachable from still-armed candidates. Heuristic 2 also
/// charges the remaining pre-fork budget (module docs), which cuts only
/// subtrees holding no set `consider` could accept. The result — partition,
/// cost bits, chosen set and size — is bit-identical to
/// [`optimal_partition_reference`] (skipped survival factors are exactly
/// `1.0`), which remains the differential oracle; only the visit counts
/// are smaller.
pub fn optimal_partition(model: &LoopCostModel, config: &SearchConfig) -> SearchResult {
    let vc_graph = VcDepGraph::build(model);
    let empty = Partition::empty(&model.graph);
    let empty_cost = model.misspeculation_cost(&empty);

    if vc_graph.len() > config.max_vcs {
        return SearchResult {
            partition: empty,
            cost: empty_cost,
            chosen: Vec::new(),
            visited: 0,
            pruned_size: 0,
            pruned_bound: 0,
            skipped_too_many_vcs: true,
            budget_exhausted: false,
        };
    }

    struct Ctx<'a> {
        model: &'a LoopCostModel,
        vc_graph: &'a VcDepGraph,
        config: &'a SearchConfig,
        eval: spt_cost::CostEvaluator,
        delta: DeltaMask,
        /// Heuristic 2's budget-aware half; `None` without bound pruning or
        /// when the budget cannot bind.
        budget: Option<BudgetBound>,
        /// Candidate-position membership of the current set (O(1) pred
        /// checks; the set itself stays a stack for `best_set` snapshots).
        in_set: Vec<bool>,
        best_cost: f64,
        best_size: u64,
        best_set: Vec<usize>,
        visited: u64,
        pruned_size: u64,
        pruned_bound: u64,
        exhausted: bool,
    }

    impl Ctx<'_> {
        fn push(&mut self, p: usize) {
            self.delta
                .push(&self.vc_graph.closures[p], &self.model.graph.cost);
            self.in_set[p] = true;
        }

        fn pop(&mut self, p: usize) {
            self.delta
                .pop(&self.vc_graph.closures[p], &self.model.graph.cost);
            self.in_set[p] = false;
        }

        fn cost(&mut self) -> f64 {
            self.model
                .cost_graph()
                .misspeculation_cost_with(&self.delta.mask, &mut self.eval)
        }

        fn consider(&mut self, set: &[usize], cost: f64) {
            let size = self.delta.size;
            let better = cost < self.best_cost - 1e-12
                || (cost < self.best_cost + 1e-12 && size < self.best_size);
            if better {
                self.best_cost = cost;
                self.best_size = size;
                self.best_set = set.to_vec();
            }
        }

        /// Explores descendants of `set` (whose max position is `max_pos`).
        fn search(&mut self, set: &mut Vec<usize>, max_pos: Option<usize>) {
            if self.visited >= self.config.max_visited {
                self.exhausted = true;
                return;
            }
            let start = max_pos.map_or(0, |m| m + 1);
            // Bound pruning: the best any descendant can do is the cost with
            // every still-addable candidate included. Push them all, read the
            // bound, pop them — no from-scratch closure walk. When it does
            // not prune, charge the remaining budget (module docs) while the
            // pushes and the sweep's probabilities are still in place.
            if self.config.prune_bound {
                let size = self.delta.size;
                let mut any = false;
                for p in start..self.vc_graph.len() {
                    if !self.vc_graph.immovable[p] {
                        self.push(p);
                        any = true;
                    }
                }
                if any {
                    let bound = self.cost();
                    let prune = bound >= self.best_cost - 1e-12
                        || self.budget.as_mut().is_some_and(|b| {
                            b.prunes(
                                self.vc_graph,
                                self.model,
                                &self.delta,
                                self.eval.probs(),
                                start,
                                bound,
                                size,
                                self.config.max_prefork_size,
                                self.best_cost,
                                self.best_size,
                            )
                        });
                    for p in (start..self.vc_graph.len()).rev() {
                        if !self.vc_graph.immovable[p] {
                            self.pop(p);
                        }
                    }
                    if prune {
                        self.pruned_bound += 1;
                        return;
                    }
                }
            }

            for p in start..self.vc_graph.len() {
                if self.visited >= self.config.max_visited {
                    self.exhausted = true;
                    return;
                }
                if self.vc_graph.immovable[p] {
                    continue;
                }
                // All VC-dep predecessors must already be in the set. (Sets
                // of movable candidates are always legal: each closure is
                // individually pinned-free and closures distribute over
                // union, so no legality re-check is needed here.)
                if !self.vc_graph.preds[p].iter().all(|&q| self.in_set[q]) {
                    continue;
                }
                self.push(p);
                set.push(p);
                self.visited += 1;
                let oversize = self.delta.size > self.config.max_prefork_size;
                if oversize {
                    if self.config.prune_size {
                        // Size is monotone: the whole subtree is dead.
                        self.pruned_size += 1;
                    } else {
                        // Ablation mode: not a candidate answer, but
                        // descendants are still (pointlessly) explored.
                        self.search(set, Some(p));
                    }
                } else {
                    let cost = self.cost();
                    self.consider(set, cost);
                    self.search(set, Some(p));
                }
                set.pop();
                self.pop(p);
            }
        }
    }

    let mut eval = model.evaluator();
    let budget = if config.prune_bound {
        BudgetBound::new(model, &vc_graph, &mut eval, config.max_prefork_size)
    } else {
        None
    };
    let mut ctx = Ctx {
        model,
        vc_graph: &vc_graph,
        config,
        eval,
        delta: DeltaMask::new(model.graph.nodes.len()),
        budget,
        in_set: vec![false; vc_graph.len()],
        best_cost: empty_cost,
        best_size: 0,
        best_set: Vec::new(),
        visited: 0,
        pruned_size: 0,
        pruned_bound: 0,
        exhausted: false,
    };
    let mut set = Vec::new();
    ctx.search(&mut set, None);

    let chosen = ctx.best_set.clone();
    let seeds: Vec<usize> = chosen.iter().map(|&p| vc_graph.vcs[p]).collect();
    let partition = if seeds.is_empty() {
        Partition::empty(&model.graph)
    } else {
        Partition::from_seeds(&model.graph, &seeds).expect("best set was legal during search")
    };
    SearchResult {
        cost: ctx.best_cost,
        partition,
        chosen,
        visited: ctx.visited,
        pruned_size: ctx.pruned_size,
        pruned_bound: ctx.pruned_bound,
        skipped_too_many_vcs: false,
        budget_exhausted: ctx.exhausted,
    }
}

/// The original from-scratch search: every candidate set is evaluated by
/// re-walking its dependence closure (`Partition::from_seeds`) and running a
/// full propagation sweep. Retained as the differential oracle for
/// [`optimal_partition`]; not used by the compilation pipeline.
pub fn optimal_partition_reference(model: &LoopCostModel, config: &SearchConfig) -> SearchResult {
    let vc_graph = VcDepGraph::build(model);
    let empty = Partition::empty(&model.graph);
    let empty_cost = model.misspeculation_cost(&empty);

    if vc_graph.len() > config.max_vcs {
        return SearchResult {
            partition: empty,
            cost: empty_cost,
            chosen: Vec::new(),
            visited: 0,
            pruned_size: 0,
            pruned_bound: 0,
            skipped_too_many_vcs: true,
            budget_exhausted: false,
        };
    }

    struct Ctx<'a> {
        model: &'a LoopCostModel,
        vc_graph: &'a VcDepGraph,
        config: &'a SearchConfig,
        best_cost: f64,
        best_size: u64,
        best_set: Vec<usize>,
        visited: u64,
        pruned_size: u64,
        pruned_bound: u64,
        exhausted: bool,
    }

    impl Ctx<'_> {
        /// The seeds (dep-graph nodes) for a candidate-position set.
        fn seeds(&self, set: &[usize]) -> Vec<usize> {
            set.iter().map(|&p| self.vc_graph.vcs[p]).collect()
        }

        fn consider(&mut self, set: &[usize], partition: &Partition, cost: f64) {
            let better = cost < self.best_cost - 1e-12
                || (cost < self.best_cost + 1e-12 && partition.size() < self.best_size);
            if better {
                self.best_cost = cost;
                self.best_size = partition.size();
                self.best_set = set.to_vec();
            }
        }

        /// Explores descendants of `set` (whose max position is `max_pos`).
        fn search(&mut self, set: &mut Vec<usize>, max_pos: Option<usize>) {
            if self.visited >= self.config.max_visited {
                self.exhausted = true;
                return;
            }
            // Bound pruning: the best any descendant can do is the cost with
            // every still-addable candidate included.
            if self.config.prune_bound {
                let mut all: Vec<usize> = set.clone();
                for p in max_pos.map_or(0, |m| m + 1)..self.vc_graph.len() {
                    if !self.vc_graph.immovable[p] {
                        all.push(p);
                    }
                }
                if all.len() > set.len() {
                    let seeds = self.seeds(&all);
                    if let Some(part) = Partition::from_seeds(&self.model.graph, &seeds) {
                        let bound = self.model.misspeculation_cost(&part);
                        if bound >= self.best_cost - 1e-12 {
                            self.pruned_bound += 1;
                            return;
                        }
                    }
                }
            }

            let start = max_pos.map_or(0, |m| m + 1);
            for p in start..self.vc_graph.len() {
                if self.visited >= self.config.max_visited {
                    self.exhausted = true;
                    return;
                }
                if self.vc_graph.immovable[p] {
                    continue;
                }
                // All VC-dep predecessors must already be in the set.
                if !self.vc_graph.preds[p].iter().all(|q| set.contains(q)) {
                    continue;
                }
                set.push(p);
                self.visited += 1;
                let seeds = self.seeds(set);
                match Partition::from_seeds(&self.model.graph, &seeds) {
                    Some(partition) => {
                        let oversize = partition.size() > self.config.max_prefork_size;
                        if oversize {
                            if self.config.prune_size {
                                // Size is monotone: the whole subtree is dead.
                                self.pruned_size += 1;
                                set.pop();
                                continue;
                            }
                            // Ablation mode: not a candidate answer, but
                            // descendants are still (pointlessly) explored.
                            self.search(set, Some(p));
                        } else {
                            let cost = self.model.misspeculation_cost(&partition);
                            self.consider(set, &partition, cost);
                            self.search(set, Some(p));
                        }
                    }
                    None => {
                        // Illegal closure; supersets stay illegal.
                    }
                }
                set.pop();
            }
        }
    }

    let mut ctx = Ctx {
        model,
        vc_graph: &vc_graph,
        config,
        best_cost: empty_cost,
        best_size: 0,
        best_set: Vec::new(),
        visited: 0,
        pruned_size: 0,
        pruned_bound: 0,
        exhausted: false,
    };
    let mut set = Vec::new();
    ctx.search(&mut set, None);

    let chosen = ctx.best_set.clone();
    let seeds: Vec<usize> = chosen.iter().map(|&p| vc_graph.vcs[p]).collect();
    let partition = if seeds.is_empty() {
        Partition::empty(&model.graph)
    } else {
        Partition::from_seeds(&model.graph, &seeds).expect("best set was legal during search")
    };
    SearchResult {
        cost: ctx.best_cost,
        partition,
        chosen,
        visited: ctx.visited,
        pruned_size: ctx.pruned_size,
        pruned_bound: ctx.pruned_bound,
        skipped_too_many_vcs: false,
        budget_exhausted: ctx.exhausted,
    }
}

/// A greedy baseline for ablation: repeatedly add the single candidate that
/// most reduces cost, while the size threshold holds. Candidates are probed
/// by pushing them onto the shared `DeltaMask` and popping after the cost
/// read, so one round is linear in closure size rather than quadratic in the
/// chosen set.
pub fn greedy_partition(model: &LoopCostModel, config: &SearchConfig) -> SearchResult {
    let vc_graph = VcDepGraph::build(model);
    let node_cost = &model.graph.cost;
    let mut eval = model.evaluator();
    let mut delta = DeltaMask::new(model.graph.nodes.len());
    let mut in_chosen = vec![false; vc_graph.len()];
    let mut chosen: Vec<usize> = Vec::new();
    let mut best_cost = model
        .cost_graph()
        .misspeculation_cost_with(&delta.mask, &mut eval);
    let mut visited = 0u64;
    loop {
        let mut improved: Option<(usize, f64)> = None;
        for p in 0..vc_graph.len() {
            if in_chosen[p] || vc_graph.immovable[p] {
                continue;
            }
            if !vc_graph.preds[p].iter().all(|&q| in_chosen[q]) {
                continue;
            }
            visited += 1;
            delta.push(&vc_graph.closures[p], node_cost);
            if delta.size <= config.max_prefork_size {
                let cost = model
                    .cost_graph()
                    .misspeculation_cost_with(&delta.mask, &mut eval);
                if cost < best_cost - 1e-12 && improved.is_none_or(|(_, c)| cost < c) {
                    improved = Some((p, cost));
                }
            }
            delta.pop(&vc_graph.closures[p], node_cost);
        }
        match improved {
            Some((p, cost)) => {
                delta.push(&vc_graph.closures[p], node_cost);
                in_chosen[p] = true;
                chosen.push(p);
                best_cost = cost;
            }
            None => break,
        }
    }
    let best_partition = if chosen.is_empty() {
        Partition::empty(&model.graph)
    } else {
        let seeds: Vec<usize> = chosen.iter().map(|&p| vc_graph.vcs[p]).collect();
        Partition::from_seeds(&model.graph, &seeds).expect("chosen candidates are movable")
    };
    SearchResult {
        partition: best_partition,
        cost: best_cost,
        chosen,
        visited,
        pruned_size: 0,
        pruned_bound: 0,
        skipped_too_many_vcs: false,
        budget_exhausted: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_cost::dep_graph::{DepGraph, DepGraphConfig, Profiles};
    use spt_ir::loops::LoopId;

    fn model_for(src: &str, fname: &str) -> LoopCostModel {
        let module = spt_frontend::compile(src).unwrap();
        let func = module.func_by_name(fname).unwrap();
        let graph = DepGraph::build(
            &module,
            func,
            LoopId::new(0),
            Profiles::default(),
            &DepGraphConfig::default(),
        );
        LoopCostModel::new(graph)
    }

    const INDUCTION: &str = "
        fn f(n: int) -> int {
            let i = 0;
            let s = 0;
            while (i < n) {
                s = s + i * 3;
                i = i + 1;
            }
            return s;
        }
    ";

    #[test]
    fn finds_zero_cost_partition_when_unconstrained() {
        let m = model_for(INDUCTION, "f");
        let r = optimal_partition(&m, &SearchConfig::default());
        assert!(!r.skipped_too_many_vcs);
        assert!(r.cost < 1e-9, "cost = {}", r.cost);
        assert!(!r.partition.is_empty());
        assert!(r.visited > 0);
    }

    #[test]
    fn size_threshold_constrains_result() {
        let m = model_for(INDUCTION, "f");
        let unconstrained = optimal_partition(&m, &SearchConfig::default());
        let tight = SearchConfig {
            max_prefork_size: 1,
            ..SearchConfig::default()
        };
        let r = optimal_partition(&m, &tight);
        assert!(r.partition.size() <= 1);
        assert!(r.cost >= unconstrained.cost - 1e-12);
    }

    #[test]
    fn optimal_matches_exhaustive_without_pruning() {
        let m = model_for(INDUCTION, "f");
        let with = optimal_partition(&m, &SearchConfig::default());
        let without = optimal_partition(
            &m,
            &SearchConfig {
                prune_bound: false,
                prune_size: false,
                ..SearchConfig::default()
            },
        );
        assert!((with.cost - without.cost).abs() < 1e-12);
        assert!(with.visited <= without.visited);
    }

    #[test]
    fn bound_pruning_reduces_visits() {
        // A loop with several independent violation candidates.
        let src = "
            fn f(n: int) -> int {
                let a = 0; let b = 0; let c = 0; let d = 1; let i = 0;
                while (i < n) {
                    a = a + 1;
                    b = b + 2;
                    c = c + 3;
                    d = d * 2;
                    i = i + 1;
                }
                return a + b + c + d;
            }
        ";
        let m = model_for(src, "f");
        let pruned = optimal_partition(&m, &SearchConfig::default());
        let unpruned = optimal_partition(
            &m,
            &SearchConfig {
                prune_bound: false,
                ..SearchConfig::default()
            },
        );
        assert!((pruned.cost - unpruned.cost).abs() < 1e-12, "same optimum");
        assert!(
            pruned.visited < unpruned.visited,
            "pruning must help: {} vs {}",
            pruned.visited,
            unpruned.visited
        );
    }

    #[test]
    fn too_many_vcs_skips() {
        let m = model_for(INDUCTION, "f");
        let r = optimal_partition(
            &m,
            &SearchConfig {
                max_vcs: 0,
                ..SearchConfig::default()
            },
        );
        assert!(r.skipped_too_many_vcs);
        assert!(r.partition.is_empty());
    }

    #[test]
    fn vc_dep_graph_orders_dependent_candidates() {
        // b depends on a (same iteration): a must precede b in any set.
        let src = "
            fn f(n: int) -> int {
                let a = 0; let b = 0; let i = 0;
                while (i < n) {
                    a = a + 1;
                    b = b + a;
                    i = i + 1;
                }
                return b;
            }
        ";
        let m = model_for(src, "f");
        let g = VcDepGraph::build(&m);
        assert!(g.len() >= 2);
        // At least one candidate has a predecessor.
        assert!(g.preds.iter().any(|p| !p.is_empty()));
        // And the search still finds the zero-cost answer.
        let r = optimal_partition(&m, &SearchConfig::default());
        assert!(r.cost < 1e-9);
    }

    #[test]
    fn greedy_never_beats_optimal() {
        let src = "
            global a[512]: int;
            fn f(n: int) -> int {
                let s = 0; let t = 0; let i = 0;
                while (i < n) {
                    t = s / 7 + t;
                    s = s + a[i];
                    i = i + 1;
                }
                return t;
            }
        ";
        let m = model_for(src, "f");
        let cfg = SearchConfig::default();
        let opt = optimal_partition(&m, &cfg);
        let greedy = greedy_partition(&m, &cfg);
        assert!(opt.cost <= greedy.cost + 1e-12);
    }

    #[test]
    fn incremental_matches_reference_exactly() {
        // The incremental search must reproduce the from-scratch oracle
        // bit-for-bit — same cost, same partition — and its budget-aware
        // bound may only visit fewer nodes.
        let sources = [
            INDUCTION,
            "
            fn f(n: int) -> int {
                let a = 0; let b = 0; let c = 0; let d = 1; let i = 0;
                while (i < n) {
                    a = a + 1;
                    b = b + a;
                    c = c + b;
                    d = d * 2;
                    i = i + 1;
                }
                return a + b + c + d;
            }
            ",
            "
            global t: int;
            fn bump(v: int) -> int { t = t + v; return t; }
            fn f(n: int) -> int {
                let s = 0; let i = 0;
                while (i < n) {
                    s = s + bump(i);
                    i = i + 1;
                }
                return s;
            }
            ",
        ];
        for src in sources {
            let m = model_for(src, "f");
            for max_size in [1u64, 4, u64::MAX] {
                let cfg = SearchConfig {
                    max_prefork_size: max_size,
                    ..SearchConfig::default()
                };
                let inc = optimal_partition(&m, &cfg);
                let refr = optimal_partition_reference(&m, &cfg);
                assert_eq!(inc.cost.to_bits(), refr.cost.to_bits(), "cost");
                assert_eq!(inc.chosen, refr.chosen, "chosen set");
                assert_eq!(inc.partition.mask(), refr.partition.mask(), "mask");
                assert_eq!(inc.partition.size(), refr.partition.size(), "size");
                assert!(inc.visited <= refr.visited, "visited");
            }
        }
    }

    #[test]
    fn a_later_smaller_tie_is_not_cut() {
        // Leaving `x2` or `x0` speculative costs the same, but `x2`'s
        // closure also holds `i * i`. The search finds {x2, i} first; the
        // reference then replaces it by the equally cheap, smaller {x0, i}
        // (`consider`'s tie rule), so the budget bound must not cut the
        // subtree that holds it, although its bound ties the best cost.
        let src = "
            fn f(n: int) -> int {
                let x0 = 1; let x1 = 2; let x2 = 3; let i = 0;
                while (i < n) {
                    x2 = (x2 * 5 + i * i) % 1009;
                    x0 = (x0 * 5 + i) % 1009;
                    x1 = (x1 * 3 + i) % 1009;
                    i = i + 1;
                }
                return x0 + x1 + x2;
            }
        ";
        let m = model_for(src, "f");
        let cfg = SearchConfig {
            max_prefork_size: m.body_size() * 2 / 5,
            ..SearchConfig::default()
        };
        let inc = optimal_partition(&m, &cfg);
        let refr = optimal_partition_reference(&m, &cfg);
        assert_eq!(
            refr.chosen,
            vec![1, 3],
            "the reference keeps the smaller tie"
        );
        assert_eq!(inc.chosen, refr.chosen);
        assert_eq!(inc.cost.to_bits(), refr.cost.to_bits());
        assert_eq!(inc.partition.size(), refr.partition.size());
    }

    #[test]
    fn pinned_candidates_are_never_chosen() {
        let src = "
            global t: int;
            fn bump(v: int) -> int { t = t + v; return t; }
            fn f(n: int) -> int {
                let s = 0;
                let i = 0;
                while (i < n) {
                    s = s + bump(i);
                    i = i + 1;
                }
                return s;
            }
        ";
        let m = model_for(src, "f");
        let r = optimal_partition(&m, &SearchConfig::default());
        // The call's cross deps can't be removed, so cost stays positive,
        // but the induction update can still move.
        assert!(r.cost > 0.0);
        let module = spt_frontend::compile(src).unwrap();
        let f = module.func(module.func_by_name("f").unwrap());
        for n in r.partition.nodes() {
            assert!(
                !matches!(f.inst(m.graph.nodes[n]).kind, spt_ir::InstKind::Call { .. }),
                "pinned call moved into pre-fork region"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use spt_cost::dep_graph::{DepGraph, DepGraphConfig, Profiles};
    use spt_ir::loops::LoopId;

    /// Generates a random scalar-update loop in minic and checks search
    /// invariants on it.
    fn random_loop_source(updates: &[(usize, i64)]) -> String {
        let mut body = String::new();
        let mut decls = String::new();
        let n_vars = updates.iter().map(|&(v, _)| v).max().unwrap_or(0) + 1;
        for v in 0..n_vars {
            decls.push_str(&format!("let x{v} = {v};\n"));
        }
        for &(v, k) in updates {
            let src = (v + 1) % n_vars;
            body.push_str(&format!("x{v} = x{v} + x{src} * {k};\n"));
        }
        let mut ret = String::from("0");
        for v in 0..n_vars {
            ret.push_str(&format!(" + x{v}"));
        }
        format!(
            "fn f(n: int) -> int {{ {decls} let i = 0; while (i < n) {{ {body} i = i + 1; }} return {ret}; }}"
        )
    }

    /// A loop over up to six scalars `x0..x5` and an accumulator `s`, one
    /// statement per `(kind, a, b, c)`: a recurrence `x_a = (x_a·m + i) % p`
    /// (kind 0; equal `c` on two scalars ties them), the same with a
    /// heavier closure of equal effect (kind 1), a chained update of `x_a`
    /// by `x_b` (kind 2), a consumer of both into `s` (kind 3), or a copy
    /// (kind 4).
    fn interacting_loop_source(stmts: &[(u8, usize, usize, i64)]) -> String {
        let mut body = String::new();
        for &(kind, a, b, c) in stmts {
            let m = 2 * c + 1;
            body.push_str(&match kind {
                0 => format!("x{a} = (x{a} * {m} + i) % 1009;\n"),
                1 => format!("x{a} = (x{a} * {m} + i * i) % 1009;\n"),
                2 => format!("x{a} = x{a} + x{b} * {c};\n"),
                3 => format!("s = s + x{a} * x{b};\n"),
                _ => format!("x{a} = x{b} + {c};\n"),
            });
        }
        let decls: String = (0..6).map(|v| format!("let x{v} = {};\n", v + 1)).collect();
        format!(
            "fn f(n: int) -> int {{ {decls} let s = 0; let i = 0; \
             while (i < n) {{ {body} i = i + 1; }} \
             return s + x0 + x1 + x2 + x3 + x4 + x5; }}"
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The search result never exceeds the size bound, and its cost never
        /// exceeds the empty partition's.
        #[test]
        fn search_respects_constraints(
            updates in proptest::collection::vec((0usize..4, 1i64..5), 1..5),
            max_size in 1u64..40,
        ) {
            let src = random_loop_source(&updates);
            let module = spt_frontend::compile(&src).unwrap();
            let func = module.func_by_name("f").unwrap();
            let graph = DepGraph::build(
                &module, func, LoopId::new(0),
                Profiles::default(), &DepGraphConfig::default(),
            );
            let model = LoopCostModel::new(graph);
            let empty_cost =
                model.misspeculation_cost(&spt_cost::Partition::empty(&model.graph));
            let cfg = SearchConfig { max_prefork_size: max_size, ..SearchConfig::default() };
            let r = optimal_partition(&model, &cfg);
            prop_assert!(r.partition.size() <= max_size || r.partition.is_empty());
            prop_assert!(r.cost <= empty_cost + 1e-9);
        }

        /// The incremental delta-stack evaluation agrees with the
        /// from-scratch path — partition mask, size, cost, and re-execution
        /// probabilities — over a random push/pop sequence.
        #[test]
        fn incremental_evaluation_matches_from_scratch(
            updates in proptest::collection::vec((0usize..5, 1i64..6), 1..7),
            ops in proptest::collection::vec(0usize..16, 1..32),
        ) {
            let src = random_loop_source(&updates);
            let module = spt_frontend::compile(&src).unwrap();
            let func = module.func_by_name("f").unwrap();
            let graph = DepGraph::build(
                &module, func, LoopId::new(0),
                Profiles::default(), &DepGraphConfig::default(),
            );
            let model = LoopCostModel::new(graph);
            let vc_graph = VcDepGraph::build(&model);
            let movable: Vec<usize> =
                (0..vc_graph.len()).filter(|&p| !vc_graph.immovable[p]).collect();
            prop_assert!(!movable.is_empty() || vc_graph.is_empty() || !ops.is_empty());
            if movable.is_empty() {
                return Ok(());
            }
            let mut eval = model.evaluator();
            let mut delta = DeltaMask::new(model.graph.nodes.len());
            let mut stack: Vec<usize> = Vec::new();
            for &op in &ops {
                // Even ops push a (possibly repeated) candidate, odd ops pop.
                if op % 2 == 0 || stack.is_empty() {
                    let p = movable[op % movable.len()];
                    delta.push(&vc_graph.closures[p], &model.graph.cost);
                    stack.push(p);
                } else {
                    let p = stack.pop().unwrap();
                    delta.pop(&vc_graph.closures[p], &model.graph.cost);
                }
                // From-scratch oracle over the distinct members of the stack.
                let mut seeds: Vec<usize> =
                    stack.iter().map(|&p| vc_graph.vcs[p]).collect();
                seeds.sort_unstable();
                seeds.dedup();
                let scratch = if seeds.is_empty() {
                    spt_cost::Partition::empty(&model.graph)
                } else {
                    spt_cost::Partition::from_seeds(&model.graph, &seeds).unwrap()
                };
                prop_assert_eq!(&delta.mask[..], scratch.mask(), "mask after {:?}", &stack);
                prop_assert_eq!(delta.size, scratch.size(), "size after {:?}", &stack);
                let c_inc = model
                    .cost_graph()
                    .misspeculation_cost_with(&delta.mask, &mut eval);
                let c_ref = model.misspeculation_cost(&scratch);
                prop_assert!((c_inc - c_ref).abs() < 1e-12, "{c_inc} vs {c_ref}");
                let v_inc = model
                    .cost_graph()
                    .reexec_probs_into(&delta.mask, &mut eval)
                    .to_vec();
                let v_ref = model.reexec_probs(&scratch);
                for (a, b) in v_inc.iter().zip(&v_ref) {
                    prop_assert!((a - b).abs() < 1e-12, "{a} vs {b}");
                }
            }
        }

        /// The incremental search and the from-scratch reference agree on
        /// random loops and size bounds.
        #[test]
        fn search_matches_reference(
            updates in proptest::collection::vec((0usize..4, 1i64..5), 1..5),
            max_size in 1u64..60,
        ) {
            let src = random_loop_source(&updates);
            let module = spt_frontend::compile(&src).unwrap();
            let func = module.func_by_name("f").unwrap();
            let graph = DepGraph::build(
                &module, func, LoopId::new(0),
                Profiles::default(), &DepGraphConfig::default(),
            );
            let model = LoopCostModel::new(graph);
            let cfg = SearchConfig { max_prefork_size: max_size, ..SearchConfig::default() };
            let inc = optimal_partition(&model, &cfg);
            let refr = optimal_partition_reference(&model, &cfg);
            prop_assert_eq!(inc.cost.to_bits(), refr.cost.to_bits());
            prop_assert_eq!(inc.chosen, refr.chosen);
            prop_assert_eq!(inc.partition.mask(), refr.partition.mask());
            prop_assert_eq!(inc.partition.size(), refr.partition.size());
            prop_assert!(inc.visited <= refr.visited);
        }

        /// Pruning never changes the optimum (both heuristics are exact).
        #[test]
        fn pruning_is_exact(
            updates in proptest::collection::vec((0usize..4, 1i64..5), 1..5),
            max_size in 1u64..60,
        ) {
            let src = random_loop_source(&updates);
            let module = spt_frontend::compile(&src).unwrap();
            let func = module.func_by_name("f").unwrap();
            let graph = DepGraph::build(
                &module, func, LoopId::new(0),
                Profiles::default(), &DepGraphConfig::default(),
            );
            let model = LoopCostModel::new(graph);
            let base = SearchConfig { max_prefork_size: max_size, ..SearchConfig::default() };
            let none = SearchConfig {
                prune_bound: false, prune_size: false, ..base.clone()
            };
            let with = optimal_partition(&model, &base);
            let without = optimal_partition(&model, &none);
            prop_assert!((with.cost - without.cost).abs() < 1e-9,
                "pruned {} vs unpruned {}", with.cost, without.cost);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The incremental search and the from-scratch reference agree on
        /// loops whose candidates tie (identical recurrences, and
        /// recurrences of equal effect but unequal closure size) and
        /// interact (chained updates, shared consumers), with the
        /// dependence profile on and off, at pre-fork budgets from 2% to
        /// all of the body.
        #[test]
        fn search_matches_reference_on_interacting_loops(
            stmts in proptest::collection::vec((0u8..5, 0usize..6, 0usize..6, 1i64..4), 1..10),
        ) {
            let src = interacting_loop_source(&stmts);
            let module = spt_frontend::compile(&src).unwrap();
            let mut profile = spt_profile::ProfileCollector::new();
            spt_profile::Interp::new(&module)
                .run("f", &[spt_profile::Val::from_i64(20)], &mut profile)
                .unwrap();
            let func = module.func_by_name("f").unwrap();
            for profiled in [false, true] {
                let profiles = if profiled {
                    Profiles { edges: Some(&profile.edges), deps: Some(&profile.deps) }
                } else {
                    Profiles::default()
                };
                let graph = DepGraph::build(
                    &module, func, LoopId::new(0), profiles, &DepGraphConfig::default(),
                );
                let model = LoopCostModel::new(graph);
                for permille in [20u64, 100, 200, 350, 500, 750, 1000] {
                    let cfg = SearchConfig {
                        max_prefork_size: model.body_size() * permille / 1000,
                        ..SearchConfig::default()
                    };
                    let inc = optimal_partition(&model, &cfg);
                    let refr = optimal_partition_reference(&model, &cfg);
                    prop_assert_eq!(inc.cost.to_bits(), refr.cost.to_bits());
                    prop_assert_eq!(&inc.chosen, &refr.chosen);
                    prop_assert_eq!(inc.partition.mask(), refr.partition.mask());
                    prop_assert_eq!(inc.partition.size(), refr.partition.size());
                    prop_assert!(inc.visited <= refr.visited);
                }
            }
        }
    }
}
