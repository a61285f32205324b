//! The stored form of one whole compile: the SPT-transformed module and
//! its [`CompilationReport`], the two products the paper's two passes turn
//! a program, a configuration and a training input into (§3, §6).
//!
//! The artifact store keeps it as the disk-only
//! [`crate::store::Kind::Compile`], so a repeated compile decodes one file
//! instead of running preprocessing, profiling, analysis, SVP and emission.
//! The encoding is exact: the module through `spt_ir`'s canonical codec,
//! the report field by field with every `f64` by bit pattern, so a decoded
//! compile is `==` to the module and `Debug`-identical to the report it
//! was encoded from. Framing: magic, format version, module, report, and a
//! trailing checksum; any damage decodes to an error.

use spt_ir::codec::{decode_module, encode_module, put_str, put_varint, Reader};
use spt_ir::loops::LoopId;
use spt_ir::{BlockId, FuncId, Module};
use spt_trace::codec::{seal, unseal};

use crate::diag::{Diagnostic, Severity, Stage};
use crate::report::{CompilationReport, LoopOutcome, LoopRecord, SelectedLoop};

/// Magic prefix of an encoded compile.
const COMPILE_MAGIC: &[u8; 8] = b"SPTCOMPL";

/// Bumped on any change to the encoding, or to what a compile produces for
/// the same inputs; folded into every compile key and written into every
/// file, so stale entries miss.
pub const COMPILE_FORMAT_VERSION: u32 = 1;

/// One whole compile: what [`crate::transform_module_timed_with`] returns
/// for an input module, a profiling input and a configuration.
#[derive(Clone, Debug)]
pub struct CompileMemo {
    /// The SPT-transformed module.
    pub module: Module,
    /// The compile's report.
    pub report: CompilationReport,
}

// Enum tags are positions in these tables, in declaration order.
const OUTCOMES: [LoopOutcome; 11] = [
    LoopOutcome::Selected,
    LoopOutcome::TooManyVcs,
    LoopOutcome::BodyTooSmall,
    LoopOutcome::BodyTooLarge,
    LoopOutcome::TripCountTooSmall,
    LoopOutcome::CostTooHigh,
    LoopOutcome::PreForkTooLarge,
    LoopOutcome::NestConflict,
    LoopOutcome::NotProfiled,
    LoopOutcome::NotCanonical,
    LoopOutcome::AnalysisFailed,
];
const STAGES: [Stage; 7] = [
    Stage::Preprocess,
    Stage::Profile,
    Stage::Analysis,
    Stage::Svp,
    Stage::Selection,
    Stage::Emission,
    Stage::Verify,
];
const SEVERITIES: [Severity; 3] = [Severity::Info, Severity::Warning, Severity::Error];

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_varint(out, v.to_bits());
}

fn put_opt(out: &mut Vec<u8>, v: Option<u32>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_varint(out, v as u64);
        }
    }
}

fn encode_report(out: &mut Vec<u8>, r: &CompilationReport) {
    put_str(out, &r.config_name);
    put_varint(out, r.loops.len() as u64);
    for l in &r.loops {
        put_varint(out, l.func.0 as u64);
        put_str(out, &l.func_name);
        put_varint(out, l.loop_id.0 as u64);
        put_varint(out, l.header.0 as u64);
        put_varint(out, l.depth as u64);
        put_varint(out, l.body_size);
        put_varint(out, l.num_vcs as u64);
        put_f64(out, l.cost);
        put_varint(out, l.prefork_size);
        put_f64(out, l.avg_trip_count);
        put_f64(out, l.dyn_body_insts);
        put_f64(out, l.coverage);
        out.push(l.svp_applied as u8);
        put_varint(out, l.unroll_factor as u64);
        put_varint(out, l.search_visited);
        out.push(l.outcome as u8);
    }
    put_varint(out, r.selected.len() as u64);
    for s in &r.selected {
        put_varint(out, s.func.0 as u64);
        put_varint(out, s.header.0 as u64);
        put_varint(out, s.loop_tag as u64);
        put_f64(out, s.est_cost);
        put_varint(out, s.prefork_size);
        put_varint(out, s.body_size);
    }
    put_varint(out, r.profile_total_cycles);
    put_varint(out, r.diagnostics.len() as u64);
    for d in &r.diagnostics {
        out.extend_from_slice(&[d.stage as u8, d.severity as u8]);
        put_opt(out, d.func.map(|f| f.0));
        put_opt(out, d.header.map(|h| h.0));
        put_str(out, &d.message);
    }
}

fn get_f64(r: &mut Reader<'_>) -> Option<f64> {
    r.varint().map(f64::from_bits)
}

fn get_usize(r: &mut Reader<'_>) -> Option<usize> {
    usize::try_from(r.varint()?).ok()
}

fn get_opt(r: &mut Reader<'_>) -> Option<Option<u32>> {
    match r.byte()? {
        0 => Some(None),
        1 => Some(Some(r.u32()?)),
        _ => None,
    }
}

fn decode_report(r: &mut Reader<'_>) -> Option<CompilationReport> {
    let config_name = r.str()?;
    let n = r.count()?;
    let mut loops = Vec::with_capacity(n);
    for _ in 0..n {
        loops.push(LoopRecord {
            func: FuncId(r.u32()?),
            func_name: r.str()?,
            loop_id: LoopId(r.u32()?),
            header: BlockId(r.u32()?),
            depth: get_usize(r)?,
            body_size: r.varint()?,
            num_vcs: get_usize(r)?,
            cost: get_f64(r)?,
            prefork_size: r.varint()?,
            avg_trip_count: get_f64(r)?,
            dyn_body_insts: get_f64(r)?,
            coverage: get_f64(r)?,
            svp_applied: r.bool()?,
            unroll_factor: get_usize(r)?,
            search_visited: r.varint()?,
            outcome: *OUTCOMES.get(r.byte()? as usize)?,
        });
    }
    let n = r.count()?;
    let mut selected = Vec::with_capacity(n);
    for _ in 0..n {
        selected.push(SelectedLoop {
            func: FuncId(r.u32()?),
            header: BlockId(r.u32()?),
            loop_tag: r.u32()?,
            est_cost: get_f64(r)?,
            prefork_size: r.varint()?,
            body_size: r.varint()?,
        });
    }
    let profile_total_cycles = r.varint()?;
    let n = r.count()?;
    let mut diagnostics = Vec::with_capacity(n);
    for _ in 0..n {
        diagnostics.push(Diagnostic {
            stage: *STAGES.get(r.byte()? as usize)?,
            severity: *SEVERITIES.get(r.byte()? as usize)?,
            func: get_opt(r)?.map(FuncId),
            header: get_opt(r)?.map(BlockId),
            message: r.str()?,
        });
    }
    Some(CompilationReport {
        config_name,
        loops,
        selected,
        profile_total_cycles,
        diagnostics,
    })
}

impl CompileMemo {
    /// Serializes the compile exactly (see the module docs for framing).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 << 10);
        out.extend_from_slice(COMPILE_MAGIC);
        put_varint(&mut out, COMPILE_FORMAT_VERSION as u64);
        encode_module(&mut out, &self.module);
        encode_report(&mut out, &self.report);
        seal(&mut out);
        out
    }

    /// Inverse of [`CompileMemo::to_bytes`].
    ///
    /// # Errors
    ///
    /// A description of the first framing, checksum, version or field
    /// problem.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, String> {
        let body = unseal(buf, COMPILE_MAGIC, "compile memo")?;
        let mut r = Reader::new(body, COMPILE_MAGIC.len());
        let version = r.varint().ok_or("compile memo truncated")?;
        if version != COMPILE_FORMAT_VERSION as u64 {
            return Err(format!(
                "stale compile memo version {version} (expected {COMPILE_FORMAT_VERSION})"
            ));
        }
        let module = decode_module(&mut r).ok_or("bad module in compile memo")?;
        let report = decode_report(&mut r).ok_or("bad report in compile memo")?;
        if r.pos != body.len() {
            return Err("trailing bytes in compile memo".into());
        }
        Ok(CompileMemo { module, report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compile_and_transform, ProfilingInput};
    use crate::CompilerConfig;

    #[test]
    fn enum_tables_are_in_tag_order() {
        assert!(OUTCOMES.iter().enumerate().all(|(i, &o)| o as usize == i));
        assert!(STAGES.iter().enumerate().all(|(i, &s)| s as usize == i));
        assert!(SEVERITIES.iter().enumerate().all(|(i, &s)| s as usize == i));
    }

    /// Every suite program's compile under every preset decodes to the
    /// module (`==` and `content_hash`) and the report (`Debug`, byte for
    /// byte) it was encoded from, and re-encodes to the same bytes.
    #[test]
    fn every_suite_compile_round_trips_exactly() {
        let presets = [
            CompilerConfig::basic(),
            CompilerConfig::best(),
            CompilerConfig::anticipated(),
        ];
        let mut diagnostics = 0;
        for config in &presets {
            for b in spt_bench_suite::suite() {
                let input = ProfilingInput::new(b.entry, [b.train_arg]);
                let what = format!("{} under {}", b.name, config.name);
                let cold = compile_and_transform(b.source, &input, config)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let memo = CompileMemo {
                    module: cold.module,
                    report: cold.report,
                };
                let bytes = memo.to_bytes();
                let back =
                    CompileMemo::from_bytes(&bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(back.module, memo.module, "{what}: module");
                assert_eq!(
                    back.module.content_hash(),
                    memo.module.content_hash(),
                    "{what}: module hash"
                );
                assert_eq!(
                    format!("{:?}", back.report),
                    format!("{:?}", memo.report),
                    "{what}: report"
                );
                assert_eq!(back.to_bytes(), bytes, "{what}: re-encoding");
                diagnostics += back.report.diagnostics.len();
            }
        }
        assert!(diagnostics > 0, "no diagnostic was round-tripped");
    }

    #[test]
    fn damage_is_rejected() {
        let b = spt_bench_suite::benchmark("gzip_s").expect("exists");
        let input = ProfilingInput::new(b.entry, [b.train_arg]);
        let cold = compile_and_transform(b.source, &input, &CompilerConfig::best()).expect("ok");
        let bytes = CompileMemo {
            module: cold.module,
            report: cold.report,
        }
        .to_bytes();
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 0x10;
        for bad in [
            flipped,
            bytes[..bytes.len() - 1].to_vec(),
            b"SPTCOMPL".to_vec(),
        ] {
            assert!(CompileMemo::from_bytes(&bad).is_err());
        }
    }
}
