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
//! was encoded from. It is a body in `spt_ir::codec`'s byte format, with no
//! magic, version or checksum: the store frames it.

use spt_ir::codec::{
    decode_module, encode_module, put_f64, put_opt_u32, put_str, put_varint, Reader,
};
use spt_ir::loops::LoopId;
use spt_ir::{BlockId, FuncId, Module};

use crate::diag::{Diagnostic, Severity, Stage};
use crate::report::{CompilationReport, LoopOutcome, LoopRecord, SelectedLoop};

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
        put_opt_u32(out, d.func.map(|f| f.0));
        put_opt_u32(out, d.header.map(|h| h.0));
        put_str(out, &d.message);
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
            depth: r.usize()?,
            body_size: r.varint()?,
            num_vcs: r.usize()?,
            cost: r.f64()?,
            prefork_size: r.varint()?,
            avg_trip_count: r.f64()?,
            dyn_body_insts: r.f64()?,
            coverage: r.f64()?,
            svp_applied: r.bool()?,
            unroll_factor: r.usize()?,
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
            est_cost: r.f64()?,
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
            func: r.opt_u32()?.map(FuncId),
            header: r.opt_u32()?.map(BlockId),
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
    /// Appends the compile's encoding (see the module docs).
    pub fn encode(&self, out: &mut Vec<u8>) {
        encode_module(out, &self.module);
        encode_report(out, &self.report);
    }

    /// Inverse of [`CompileMemo::encode`]; `None` when the bytes are not
    /// an encoding.
    pub fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(CompileMemo {
            module: decode_module(r)?,
            report: decode_report(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compile_and_transform, ProfilingInput};
    use crate::store::{Kind, Store};
    use crate::CompilerConfig;
    use std::sync::Arc;

    #[test]
    fn enum_tables_are_in_tag_order() {
        assert!(OUTCOMES.iter().enumerate().all(|(i, &o)| o as usize == i));
        assert!(STAGES.iter().enumerate().all(|(i, &s)| s as usize == i));
        assert!(SEVERITIES.iter().enumerate().all(|(i, &s)| s as usize == i));
    }

    fn encoded(memo: &CompileMemo) -> Vec<u8> {
        let mut out = Vec::new();
        memo.encode(&mut out);
        out
    }

    /// Decodes `bytes` whole: a trailing byte rejects them.
    fn decoded(bytes: &[u8]) -> Option<CompileMemo> {
        let mut r = Reader::new(bytes, 0);
        CompileMemo::decode(&mut r).filter(|_| r.at_end())
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
                let bytes = encoded(&memo);
                let back = decoded(&bytes).unwrap_or_else(|| panic!("{what}: undecodable"));
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
                assert_eq!(encoded(&back), bytes, "{what}: re-encoding");
                diagnostics += back.report.diagnostics.len();
            }
        }
        assert!(diagnostics > 0, "no diagnostic was round-tripped");
    }

    /// A real compile's body rejects every truncation; stored, every
    /// flipped byte of its file reads as a miss, and the store evicts it.
    #[test]
    fn damage_is_rejected() {
        let b = spt_bench_suite::benchmark("gzip_s").expect("exists");
        let input = ProfilingInput::new(b.entry, [b.train_arg]);
        let cold = compile_and_transform(b.source, &input, &CompilerConfig::best()).expect("ok");
        let memo = Arc::new(CompileMemo {
            module: cold.module,
            report: cold.report,
        });
        let bytes = encoded(&memo);
        for cut in 0..bytes.len() {
            assert!(decoded(&bytes[..cut]).is_none(), "cut {cut}");
        }

        let dir =
            std::env::temp_dir().join(format!("spt-compile-memo-damage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::new(0, 1, Some(dir.clone()), None);
        store.put(1, memo);
        let path = dir.join(format!("compile-{:016x}.bin", 1));
        let good = std::fs::read(&path).expect("stored");
        for i in 0..good.len() {
            let mut flipped = good.clone();
            flipped[i] ^= 1 << (i % 8);
            std::fs::write(&path, &flipped).expect("writable");
            assert!(store.get::<CompileMemo>(1).is_none(), "byte {i} was served");
            assert!(!path.exists(), "byte {i} was not evicted");
        }
        let s = store.stats(Kind::Compile);
        assert_eq!(
            (s.disk_hits, s.disk_corrupt_evictions),
            (0, good.len() as u64)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
