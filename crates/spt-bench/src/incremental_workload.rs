//! Synthetic analysis-heavy workload for the incremental-recompile gate
//! (`tests/incremental_gate.rs`), and its kernel loop at any size for the
//! partition search's pruning ablation ([`kernel_loop`]).
//!
//! The module is shaped so that per-function **analysis** dominates compile
//! time while everything else stays cheap: many kernel functions, each with
//! one loop carrying a chain of scalars (every carried scalar is a value
//! communication, and the partition search space grows quickly with the VC
//! count), driven from a `main` whose tiny train input keeps the profiling
//! interpreter out of the picture. Editing one kernel then re-invalidates
//! exactly one function's units, which is the scenario the
//! function-granular cache exists for.

use spt_cost::dep_graph::{DepGraph, DepGraphConfig, Profiles};
use spt_cost::LoopCostModel;
use spt_ir::loops::LoopId;
use spt_profile::{Interp, ProfileCollector, Val};
use std::fmt::Write as _;

/// Number of kernel functions in the generated module.
pub const KERNELS: usize = 12;

/// Train input — a few dozen loop iterations is enough for edge profiles.
pub const TRAIN_ARG: i64 = 24;

/// Entry function name.
pub const ENTRY: &str = "main";

/// The kernel a textual edit targets (see [`edit`]).
const EDITED: usize = 0;

/// Independent loop-carried scalars per kernel. Each is its own value
/// communication with a tiny pre-fork closure, so the branch-and-bound
/// partition search explores a large candidate space; 20 stays under the
/// paper's 30-VC skip threshold. (Chained scalars would be useless here:
/// their closures cover the whole body and size pruning collapses the
/// search to a handful of nodes.)
const SCALARS: usize = 20;

/// One kernel: a loop carrying [`SCALARS`] independent recurrences. The
/// multiplier/modulus offsets keep the kernels from being trivially
/// identical, not that it matters for caching — cache keys include the
/// function index.
fn kernel(idx: usize) -> String {
    kernel_with(idx, SCALARS)
}

/// [`kernel`] with `scalars` recurrences.
fn kernel_with(idx: usize, scalars: usize) -> String {
    let mut f = format!("fn k{idx}(n: int) -> int {{\n");
    for j in 0..scalars {
        let _ = writeln!(f, "    let a{j} = {};", 1 + idx + j);
    }
    f.push_str("    for (let i = 0; i < n; i = i + 1) {\n");
    for j in 0..scalars {
        let _ = writeln!(
            f,
            "        a{j} = (a{j} * {} + i) % {};",
            3 + 2 * ((idx + j) % 8),
            1009 + 2 * j
        );
    }
    f.push_str("    }\n    let t = 0;\n");
    for j in 0..scalars {
        let _ = writeln!(f, "    t = t + a{j};");
    }
    f.push_str("    return t;\n}\n");
    f
}

/// The whole synthetic module: [`KERNELS`] kernels plus a `main` that sums
/// them.
pub fn source() -> String {
    let mut src = String::new();
    for i in 0..KERNELS {
        src.push_str(&kernel(i));
        src.push('\n');
    }
    src.push_str("fn main(n: int) -> int {\n    let t = 0;\n");
    for i in 0..KERNELS {
        let _ = writeln!(src, "    t = t + k{i}(n);");
    }
    src.push_str("    return t;\n}\n");
    src
}

/// The loop of one kernel with `scalars` recurrences (so `scalars + 1`
/// partition candidates, the induction update included), profiled on
/// [`TRAIN_ARG`] with the dependence profile, and the `best`
/// configuration's pre-fork threshold for it (35% of the body): the search
/// the pruning ablation times, where the threshold binds.
pub fn kernel_loop(scalars: usize) -> (LoopCostModel, u64) {
    let src = format!(
        "{}fn {ENTRY}(n: int) -> int {{ return k0(n); }}\n",
        kernel_with(0, scalars)
    );
    let module = spt_frontend::compile(&src).expect("the kernel compiles");
    let mut profile = ProfileCollector::new();
    Interp::new(&module)
        .run(ENTRY, &[Val::from_i64(TRAIN_ARG)], &mut profile)
        .expect("the kernel runs");
    let func = module.func_by_name("k0").expect("k0 exists");
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
    let budget = (graph.body_size as f64 * 0.35) as u64;
    (LoopCostModel::new(graph), budget)
}

/// The edit-one-function mutation for round `round`: rename kernel
/// `EDITED` of the **base** source. A rename changes exactly one
/// function's IR — call sites lower to `FuncId`s — so a warm recompile
/// should miss only that function's cache units.
pub fn edit(base: &str, round: usize) -> String {
    let from = format!("k{EDITED}");
    let to = format!("k{EDITED}_e{round}");
    rename_ident(base, &from, &to)
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Ident-boundary rename — a naive substring replace of `k1` would also
/// corrupt `k10` and `k11`.
fn rename_ident(source: &str, from: &str, to: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = String::with_capacity(source.len());
    let mut i = 0;
    while let Some(pos) = source[i..].find(from) {
        let abs = i + pos;
        let end = abs + from.len();
        let left_ok = abs == 0 || !is_ident_char(bytes[abs - 1] as char);
        let right_ok = end == bytes.len() || !is_ident_char(bytes[end] as char);
        out.push_str(&source[i..abs]);
        out.push_str(if left_ok && right_ok { to } else { from });
        i = end;
    }
    out.push_str(&source[i..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_compiles_and_edits_change_one_function() {
        let base = source();
        let module = spt_frontend::compile(&base).expect("workload compiles");
        assert_eq!(module.funcs.len(), KERNELS + 1);

        let edited = edit(&base, 1);
        assert_ne!(edited, base);
        let mutated = spt_frontend::compile(&edited).expect("edited workload compiles");
        let changed = module
            .funcs
            .iter()
            .zip(&mutated.funcs)
            .filter(|(a, b)| a.content_hash() != b.content_hash())
            .count();
        assert_eq!(changed, 1, "an edit must change exactly one function");
    }

    #[test]
    fn rename_respects_ident_boundaries() {
        assert_eq!(rename_ident("k1(k10) + k1", "k1", "z"), "z(k10) + z");
    }
}
