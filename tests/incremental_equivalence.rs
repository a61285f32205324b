//! Function-granular incremental recompilation must be invisible: a warm
//! recompile that splices cached per-function analysis and emission units
//! must produce a report and module byte-identical to a cold compile of the
//! same source, and editing one function must invalidate only that
//! function's units.

use spt::pipeline::{
    transform_module_timed_with, CompilerConfig, ProfilingInput, StageTimings, Store,
};

/// Compiles `source` through the pipeline with an optional function-unit
/// cache and returns `(report debug text, module debug text, timings)`.
/// The debug renderings are the byte-identity witnesses: two compiles are
/// "the same" iff both strings match.
fn run(
    source: &str,
    entry: &str,
    train_arg: i64,
    config: &CompilerConfig,
    cache: Option<&Store>,
) -> (String, String, StageTimings) {
    let mut module = spt::frontend::compile(source).expect("program compiles");
    let input = ProfilingInput::new(entry, [train_arg]);
    let (report, timings) =
        transform_module_timed_with(&mut module, &input, config, cache).expect("pipeline succeeds");
    (format!("{report:?}"), format!("{module:?}"), timings)
}

fn func_count(source: &str) -> u64 {
    spt::frontend::compile(source)
        .expect("program compiles")
        .funcs
        .len() as u64
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// First defined function whose name is not `entry`.
fn first_helper_name(source: &str, entry: &str) -> Option<String> {
    let mut rest = source;
    let mut off = 0;
    while let Some(pos) = rest.find("fn ") {
        let abs = off + pos;
        let boundary = abs == 0 || !is_ident_char(source[..abs].chars().next_back().unwrap_or(' '));
        if boundary {
            let after = &source[abs + 3..];
            let name: String = after.chars().take_while(|&c| is_ident_char(c)).collect();
            if !name.is_empty() && name != entry {
                return Some(name);
            }
        }
        off = abs + 3;
        rest = &source[off..];
    }
    None
}

/// Ident-boundary rename of every occurrence of `from` (definition and call
/// sites alike) — a naive substring replace could corrupt longer idents.
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
        if left_ok && right_ok {
            out.push_str(to);
        } else {
            out.push_str(from);
        }
        i = end;
    }
    out.push_str(&source[i..]);
    out
}

fn fresh_cache() -> Store {
    Store::in_memory(64 << 20, 4)
}

/// Cold (no cache), first-compile-through-cache, and fully-warm recompile
/// must be byte-identical, and the warm recompile must hit every unit.
#[test]
fn warm_recompile_of_identical_source_hits_everything_and_matches_cold() {
    for b in spt::bench_suite::suite() {
        let config = CompilerConfig::best();
        let (off_rep, off_mod, _) = run(b.source, b.entry, b.train_arg, &config, None);

        let cache = fresh_cache();
        let (cold_rep, cold_mod, cold_t) =
            run(b.source, b.entry, b.train_arg, &config, Some(&cache));
        assert_eq!(
            off_rep, cold_rep,
            "{}: cold-through-cache report drifted",
            b.name
        );
        assert_eq!(
            off_mod, cold_mod,
            "{}: cold-through-cache module drifted",
            b.name
        );
        assert!(cold_t.func_units_total > 0, "{}: no units counted", b.name);
        // The first analysis pass starts from an empty cache, so at least
        // one whole pass must miss. (A post-SVP second pass may already hit
        // units the first pass stored — that is the cache working, not a
        // bug — so an exact all-miss pin would be wrong.)
        let nf = func_count(b.source);
        assert!(
            cold_t.func_analysis_misses >= nf,
            "{}: first pass must miss every function ({} misses, {} funcs)",
            b.name,
            cold_t.func_analysis_misses,
            nf
        );
        assert_eq!(
            cold_t.func_analysis_hits + cold_t.func_analysis_misses,
            cold_t.func_units_total,
            "{}: hit/miss counters do not partition the units",
            b.name
        );

        let (warm_rep, warm_mod, warm_t) =
            run(b.source, b.entry, b.train_arg, &config, Some(&cache));
        assert_eq!(off_rep, warm_rep, "{}: warm spliced report drifted", b.name);
        assert_eq!(off_mod, warm_mod, "{}: warm spliced module drifted", b.name);
        assert_eq!(
            warm_t.func_analysis_hits, warm_t.func_units_total,
            "{}: warm recompile should hit every analysis unit",
            b.name
        );
        assert_eq!(
            warm_t.func_analysis_misses, 0,
            "{}: warm analysis miss",
            b.name
        );
        assert_eq!(warm_t.func_emit_misses, 0, "{}: warm emission miss", b.name);
    }
}

/// Renaming one function (the call sites lower to `FuncId`s, so only that
/// function's IR changes) must miss exactly that function's units — once
/// per analysis pass — and the spliced report must equal a cold compile of
/// the mutated source byte for byte.
#[test]
fn renaming_one_function_invalidates_exactly_one_unit_per_pass() {
    for name in ["bzip2_s", "gzip_s", "mcf_s", "twolf_s"] {
        let b = spt::bench_suite::benchmark(name).expect("benchmark exists");
        let helper = first_helper_name(b.source, b.entry)
            .unwrap_or_else(|| panic!("{name}: no non-entry function to rename"));
        let mutated = rename_ident(b.source, &helper, &format!("{helper}_rn"));
        assert_ne!(mutated, b.source, "{name}: rename was a no-op");

        for config in [CompilerConfig::basic(), CompilerConfig::best()] {
            let cache = fresh_cache();
            run(b.source, b.entry, b.train_arg, &config, Some(&cache));

            let (off_rep, off_mod, _) = run(&mutated, b.entry, b.train_arg, &config, None);
            let (inc_rep, inc_mod, t) = run(&mutated, b.entry, b.train_arg, &config, Some(&cache));
            assert_eq!(
                off_rep, inc_rep,
                "{name} ({}): spliced report differs from cold",
                config.name
            );
            assert_eq!(
                off_mod, inc_mod,
                "{name} ({}): spliced module differs from cold",
                config.name
            );

            // The rename changed one Merkle leaf, so per analysis pass at
            // most the renamed function can miss; untouched functions hit
            // the warm cache, and the renamed function's second-pass probe
            // may even hit the unit its own first pass just stored.
            let nf = func_count(&mutated);
            assert_eq!(
                t.func_units_total % nf,
                0,
                "{name} ({}): units not a whole number of passes",
                config.name
            );
            let passes = t.func_units_total / nf;
            assert!(
                t.func_analysis_misses >= 1 && t.func_analysis_misses <= passes,
                "{name} ({}): expected 1..={passes} misses (renamed function only), got {}",
                config.name,
                t.func_analysis_misses
            );
            assert_eq!(
                t.func_analysis_hits,
                t.func_units_total - t.func_analysis_misses,
                "{name} ({}): every untouched function should hit",
                config.name
            );
            if config.name == "basic" {
                // basic has no SVP re-analysis: exactly one pass, one miss.
                assert_eq!(t.func_analysis_misses, 1, "{name}: single-unit miss");
            }
        }
    }
}

/// A semantic edit may cascade (changed data changes other functions' edge
/// profiles and thus their analysis contexts), so no counters are pinned —
/// but the spliced result must still match a cold compile exactly.
#[test]
fn semantic_edit_recompiles_to_the_cold_result() {
    let b = spt::bench_suite::benchmark("bzip2_s").expect("benchmark exists");
    let mutated = b.source.replacen("% 23", "% 29", 1);
    assert_ne!(mutated, b.source, "mutation was a no-op");

    let config = CompilerConfig::best();
    let cache = fresh_cache();
    run(b.source, b.entry, b.train_arg, &config, Some(&cache));

    let (off_rep, off_mod, _) = run(&mutated, b.entry, b.train_arg, &config, None);
    let (inc_rep, inc_mod, _) = run(&mutated, b.entry, b.train_arg, &config, Some(&cache));
    assert_eq!(
        off_rep, inc_rep,
        "semantic edit: spliced report differs from cold"
    );
    assert_eq!(
        off_mod, inc_mod,
        "semantic edit: spliced module differs from cold"
    );
}
