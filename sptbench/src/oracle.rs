//! Expected results, from the reference tree-walking interpreter
//! (`spt_profile::ReferenceInterp`) and never from the pipeline under
//! test. For the fixed suite inputs they are computed once and kept in
//! `expected/suite.tsv`; for generated modules they are computed in
//! set-up.

use spt_profile::{NoProfiler, ReferenceInterp, Val};
use spt_trace::codec::Fnv;

/// The checked-in expected results for the suite programs at `ref_arg`.
pub const SUITE_EXPECTED: &str = include_str!("../expected/suite.tsv");

/// One expected result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    /// Program name.
    pub name: String,
    /// FNV-1a hash of the program source the value was computed from.
    pub source_hash: u64,
    /// The argument the value belongs to.
    pub arg: i64,
    /// The entry function's return value.
    pub ret: i64,
}

/// FNV-1a of a program source, recorded next to its expected result so a
/// changed program is reported as such rather than as a miscompile.
pub fn source_hash(source: &str) -> u64 {
    let mut h = Fnv::new();
    h.update(source.as_bytes());
    h.finish()
}

/// Runs `entry(arg)` of `source` on the reference interpreter.
///
/// # Errors
///
/// A frontend error, an interpreter error, or a void result.
pub fn reference_result(source: &str, entry: &str, arg: i64) -> Result<i64, String> {
    let module = spt_frontend::compile(source).map_err(|e| format!("frontend: {e}"))?;
    let run = ReferenceInterp::new(&module)
        .run(entry, &[Val::from_i64(arg)], &mut NoProfiler)
        .map_err(|e| format!("reference interpreter: {e}"))?;
    run.ret
        .map(|v| v.as_i64())
        .ok_or_else(|| format!("{entry} returned no value"))
}

/// Parses the expected-results table (`name hash arg ret` per line,
/// tab-separated, `#` comments).
///
/// # Errors
///
/// The first malformed line.
pub fn parse_expected(text: &str) -> Result<Vec<Expected>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("malformed expected line: {line:?}");
            if f.len() != 4 {
                return Err(bad());
            }
            Ok(Expected {
                name: f[0].to_string(),
                source_hash: u64::from_str_radix(f[1], 16).map_err(|_| bad())?,
                arg: f[2].parse().map_err(|_| bad())?,
                ret: f[3].parse().map_err(|_| bad())?,
            })
        })
        .collect()
}

/// The expected result of every suite program at its `ref_arg`, in suite
/// order, checked against the current program sources.
///
/// # Errors
///
/// A malformed table, a missing program, or a program whose source or
/// reference argument changed since the table was written.
pub fn suite_expected() -> Result<Vec<i64>, String> {
    let table = parse_expected(SUITE_EXPECTED)?;
    spt_bench_suite::suite()
        .iter()
        .map(|b| {
            let e = table
                .iter()
                .find(|e| e.name == b.name)
                .ok_or_else(|| format!("no expected result for {}", b.name))?;
            if e.source_hash != source_hash(b.source) || e.arg != b.ref_arg {
                return Err(format!(
                    "{}: program or ref_arg changed since its expected result was recorded",
                    b.name
                ));
            }
            Ok(e.ret)
        })
        .collect()
}

/// Recomputes the suite table with the reference interpreter.
///
/// # Errors
///
/// Any reference-interpreter failure.
pub fn render_suite_expected() -> Result<String, String> {
    let mut out = String::from(
        "# Expected results of the suite programs at ref_arg, computed by\n\
         # spt_profile::ReferenceInterp (`sptbench --write-expected`).\n\
         # name\tsource_fnv\tref_arg\tresult\n",
    );
    for b in spt_bench_suite::suite() {
        let ret = reference_result(b.source, b.entry, b.ref_arg)
            .map_err(|e| format!("{}: {e}", b.name))?;
        out.push_str(&format!(
            "{}\t{:016x}\t{}\t{ret}\n",
            b.name,
            source_hash(b.source),
            b.ref_arg
        ));
    }
    Ok(out)
}
