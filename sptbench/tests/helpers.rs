//! Tests of the benchmark's own helpers: statistics, spans, seeded inputs
//! and the expected-results oracle.

use std::time::Instant;

use sptbench::inputs::{self, Rng};
use sptbench::oracle;
use sptbench::spans::Tracer;
use sptbench::stats::{geomean, median, quantile_sorted, ClassSamples};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[test]
fn quantile_interpolates_between_ranks() {
    let v = [1.0, 2.0, 3.0, 4.0, 5.0];
    assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
    assert_eq!(quantile_sorted(&v, 0.5), Some(3.0));
    assert_eq!(quantile_sorted(&v, 1.0), Some(5.0));
    assert!(close(quantile_sorted(&v, 0.9).unwrap(), 4.6));
    assert_eq!(quantile_sorted(&[7.0], 0.9), Some(7.0));
    assert_eq!(quantile_sorted(&[], 0.5), None);
    assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
}

#[test]
fn geomean_skips_non_positive_values() {
    assert!(close(geomean([1.0, 4.0]).unwrap(), 2.0));
    assert!(close(geomean([2.0, 0.0, 8.0]).unwrap(), 4.0));
    assert_eq!(geomean(std::iter::empty()), None);
}

#[test]
fn class_quantiles_combine_by_geometric_mean() {
    let mut s = ClassSamples::new(["a", "b", "empty"].map(String::from));
    for v in 1..=10 {
        s.push(0, f64::from(v));
        s.push(1, f64::from(v) * 100.0);
    }
    let per = s.per_class(0.9);
    assert_eq!(per.len(), 2, "empty classes are left out");
    assert_eq!((per[0].count, per[0].beyond), (10, 1));
    assert!(close(per[0].value, 9.1));
    assert!(close(per[1].value, 910.0));
    assert!(close(s.geomean_quantile(0.9).unwrap(), 91.0));
    assert_eq!(s.beyond_total(0.9), 2);
    assert_eq!(s.total(), 20);

    let mut other = ClassSamples::new(["a", "b", "empty"].map(String::from));
    other.push(2, 1.0);
    s.absorb(other);
    assert_eq!(s.per_class(0.5).len(), 3);
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let mut t = Tracer::new(Instant::now(), true);
    t.set_op(7);
    let root = t.enter("bench.op");
    let child = t.enter("core.transform");
    std::thread::sleep(std::time::Duration::from_millis(4));
    t.exit(child);
    t.exit(root);
    // Two synthetic children, end to end, covering 3 ms of the parent.
    let kids = t.children(child, &[("core.profile", 0.002), ("core.analysis", 0.001)]);
    assert!(kids.iter().all(Option::is_some));
    let spans = t.spans();
    assert!(spans.iter().all(|s| s.op == 7));
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].start_ns, spans[1].start_ns);
    assert_eq!(spans[3].start_ns, spans[2].end_ns);

    let table = t.self_times();
    let transform = table["bench.op/core.transform"].0;
    let total = (spans[1].end_ns - spans[1].start_ns) as f64 * 1e-9;
    assert!(close(transform, total - 0.003));
    assert!(close(
        table["bench.op/core.transform/core.profile"].0,
        0.002
    ));
    assert!(table["bench.op"].0 < total);
}

#[test]
fn children_are_clipped_to_the_parent() {
    let mut t = Tracer::new(Instant::now(), true);
    let p = t.enter("sim.baseline");
    t.exit(p);
    let kids = t.children(p, &[("trace.capture", 10.0), ("trace.replay", 0.0)]);
    assert!(kids[1].is_none(), "zero-length children are skipped");
    let s = t.spans();
    assert_eq!(s[1].end_ns, s[0].end_ns);
}

#[test]
fn a_disabled_tracer_records_nothing() {
    let mut t = Tracer::new(Instant::now(), false);
    let id = t.enter("bench.op");
    assert_eq!(id, None);
    t.exit(id);
    assert_eq!(t.children(id, &[("core.profile", 1.0)]), vec![None]);
    assert!(t.spans().is_empty());
}

#[test]
fn absorbed_spans_keep_their_parents() {
    let mut a = Tracer::new(Instant::now(), true);
    let r = a.enter("bench.op");
    a.exit(r);
    let mut b = Tracer::new(Instant::now(), true);
    let r = b.enter("bench.op");
    let c = b.enter("serve.rtt");
    b.exit(c);
    b.exit(r);
    a.absorb(b);
    assert_eq!(a.spans()[2].parent, Some(1));
    assert!(a.to_tsv().lines().count() == 4);
}

#[test]
fn permutations_are_seeded() {
    let p = Rng::new(5, 3).permutation(10);
    let mut sorted = p.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    assert_eq!(p, Rng::new(5, 3).permutation(10));
    assert_ne!(p, Rng::new(6, 3).permutation(10));
}

#[test]
fn rename_respects_identifier_boundaries() {
    assert_eq!(
        inputs::rename_ident("k1(k10) + k1 + xk1", "k1", "z"),
        "z(k10) + z + xk1"
    );
}

#[test]
fn an_edit_changes_exactly_one_functions_hash() {
    let base = inputs::edit_module_source(42);
    assert_eq!(base, inputs::edit_module_source(42));
    assert_ne!(base, inputs::edit_module_source(43));
    let module = spt_frontend::compile(&base).expect("edit module compiles");
    assert_eq!(module.funcs.len(), inputs::EDIT_KERNELS + 1);
    for round in 0..4 {
        let edit = inputs::edit_for(42, round);
        assert_eq!(edit, inputs::edit_for(42, round));
        let edited = inputs::rename_ident(&base, &edit.original, &edit.renamed);
        let m = spt_frontend::compile(&edited).expect("edited module compiles");
        let changed: Vec<usize> = module
            .funcs
            .iter()
            .zip(&m.funcs)
            .enumerate()
            .filter(|(_, (a, b))| a.content_hash() != b.content_hash())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(changed, vec![edit.kernel], "round {round}: {edit:?}");
        assert_eq!(m.funcs[edit.kernel].name, edit.renamed);
    }
}

#[test]
fn edit_names_are_fresh() {
    let names: std::collections::HashSet<String> =
        (0..50).map(|r| inputs::edit_for(9, r).renamed).collect();
    assert_eq!(names.len(), 50);
}

#[test]
fn the_expected_table_matches_the_reference_interpreter() {
    let table = oracle::parse_expected(oracle::SUITE_EXPECTED).expect("table parses");
    assert_eq!(table.len(), spt_bench_suite::suite().len());
    assert_eq!(
        oracle::suite_expected().expect("table is current"),
        table.iter().map(|e| e.ret).collect::<Vec<_>>()
    );
    assert_eq!(
        oracle::render_suite_expected().expect("reference runs"),
        oracle::SUITE_EXPECTED
    );
}

#[test]
fn malformed_expected_lines_are_rejected() {
    assert!(oracle::parse_expected("a\t00\t1\n").is_err());
    assert!(oracle::parse_expected("a\tzz\t1\t2\n").is_err());
    assert_eq!(oracle::parse_expected("# c\n\n").unwrap(), vec![]);
}
