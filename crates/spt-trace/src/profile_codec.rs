//! The canonical byte encoding of one profiling run's result (a
//! [`ProfileCollector`]): the format of the artifact store's profiles.
//!
//! It holds what the run counted — block, edge and entry counts; the
//! dependence pairs with per-site store/load counts and interprocedural
//! matches; per-loop stats and run totals; every value target's sequence
//! statistics — and none of the run-only state (the dependence profiler's
//! shadow memory and snapshot pool, the loop profiler's active context).
//! A decoded collector answers every query the pipeline makes exactly as
//! the run that wrote it. The value profile's classification threshold is
//! a compile setting, not a run result, so it is not stored.
//!
//! Framing follows the sim-memo codec: magic, format version, varint
//! fields, and a trailing FNV checksum; any damage decodes to an error.
//! Dependence pairs are written sorted, so one run always encodes to the
//! same bytes.

use spt_ir::loops::LoopId;
use spt_ir::{FuncId, InstId};
use spt_profile::dep_profile::{DepKey, DepKind, DepProfile};
use spt_profile::loop_profile::{LoopProfile, LoopStats};
use spt_profile::value_profile::{SeqStats, ValueProfile};
use spt_profile::{EdgeProfile, ProfileCollector};

use crate::codec::{get_varint, put_varint, seal, unseal, unzigzag, zigzag};

/// Magic prefix of an encoded profile.
const PROFILE_MAGIC: &[u8; 8] = b"SPTPROFL";

/// Bumped on any change to the encoding or to what a profile run counts;
/// folded into every profile key and written into every file, so
/// stale-format entries miss.
pub const PROFILE_FORMAT_VERSION: u32 = 1;

fn put_row(out: &mut Vec<u8>, row: &[u64]) {
    put_varint(out, row.len() as u64);
    for &v in row {
        put_varint(out, v);
    }
}

fn put_rows(out: &mut Vec<u8>, rows: &[Vec<u64>]) {
    put_varint(out, rows.len() as u64);
    for row in rows {
        put_row(out, row);
    }
}

fn put_opt(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            out.push(1);
            put_varint(out, v);
        }
        None => out.push(0),
    }
}

/// Serializes the results of a profiling run (see the module docs).
pub fn profile_to_bytes(p: &ProfileCollector) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    out.extend_from_slice(PROFILE_MAGIC);
    put_varint(&mut out, PROFILE_FORMAT_VERSION as u64);

    let (blocks, edges, entries) = p.edges.parts();
    put_rows(&mut out, blocks);
    put_varint(&mut out, edges.len() as u64);
    for func in edges {
        put_varint(&mut out, func.len() as u64);
        for list in func {
            put_varint(&mut out, list.len() as u64);
            for &(to, count) in list {
                put_varint(&mut out, to as u64);
                put_varint(&mut out, count);
            }
        }
    }
    put_row(&mut out, entries);

    let mut pairs: Vec<(DepKey, u64)> = p.deps.dep_counts_map().into_iter().collect();
    let kind_code = |k: DepKind| match k {
        DepKind::Intra => 0u64,
        DepKind::CrossAdjacent => 1,
        DepKind::CrossFar => 2,
    };
    pairs.sort_unstable_by_key(|(k, _)| (k.func, k.loop_id, k.store, k.load, kind_code(k.kind)));
    put_varint(&mut out, pairs.len() as u64);
    for (k, count) in &pairs {
        for v in [
            k.func.index() as u64,
            k.loop_id.index() as u64,
            k.store.index() as u64,
            k.load.index() as u64,
            kind_code(k.kind),
            *count,
        ] {
            put_varint(&mut out, v);
        }
    }
    let (stores, loads) = p.deps.site_counts();
    put_rows(&mut out, stores);
    put_rows(&mut out, loads);
    put_varint(&mut out, p.deps.interproc_deps);

    let loops = p.loops.iter();
    put_varint(&mut out, loops.len() as u64);
    for (f, l, s) in loops {
        for v in [
            f.index() as u64,
            l.index() as u64,
            s.invocations,
            s.total_iters,
            s.insts,
            s.cycles,
        ] {
            put_varint(&mut out, v);
        }
    }
    put_varint(&mut out, p.loops.total_insts);
    put_varint(&mut out, p.loops.total_cycles);

    let targets: Vec<_> = p.values.target_stats().collect();
    put_varint(&mut out, targets.len() as u64);
    for (f, i, is_float, s) in targets {
        put_varint(&mut out, f.index() as u64);
        put_varint(&mut out, i.index() as u64);
        out.push(is_float as u8);
        put_varint(&mut out, s.count);
        put_opt(&mut out, s.first);
        put_opt(&mut out, s.last);
        put_varint(&mut out, s.const_hits);
        put_varint(&mut out, s.repeat_hits);
        put_varint(&mut out, s.deltas.len() as u64);
        for &(delta, hits) in &s.deltas {
            put_varint(&mut out, zigzag(delta));
            put_varint(&mut out, hits);
        }
    }

    seal(&mut out);
    out
}

/// A cursor over a checksummed profile body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn u64(&mut self) -> Result<u64, String> {
        get_varint(self.buf, &mut self.pos).ok_or_else(|| "profile truncated".to_string())
    }

    fn byte(&mut self) -> Result<u8, String> {
        let b = *self.buf.get(self.pos).ok_or("profile truncated")?;
        self.pos += 1;
        Ok(b)
    }

    /// A length, bounded by the bytes left (every element takes at least
    /// one), so damage cannot drive a huge allocation.
    fn len(&mut self) -> Result<usize, String> {
        let n = self.u64()?;
        if n > (self.buf.len() - self.pos) as u64 {
            return Err("profile length out of range".into());
        }
        Ok(n as usize)
    }

    /// An IR index (ids are `u32`).
    fn id(&mut self) -> Result<u32, String> {
        u32::try_from(self.u64()?).map_err(|_| "profile id out of range".to_string())
    }

    fn row(&mut self) -> Result<Vec<u64>, String> {
        let n = self.len()?;
        (0..n).map(|_| self.u64()).collect()
    }

    fn rows(&mut self) -> Result<Vec<Vec<u64>>, String> {
        let n = self.len()?;
        (0..n).map(|_| self.row()).collect()
    }

    fn opt(&mut self) -> Result<Option<u64>, String> {
        match self.byte()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err("bad option tag in profile".into()),
        }
    }

    fn flag(&mut self) -> Result<bool, String> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err("bad flag in profile".into()),
        }
    }
}

/// Inverse of [`profile_to_bytes`]: a collector with the stored counts, no
/// run-only state, and the value profile at its default threshold.
///
/// # Errors
///
/// Returns a description of the first framing/checksum/version problem.
pub fn profile_from_bytes(buf: &[u8]) -> Result<ProfileCollector, String> {
    let body = unseal(buf, PROFILE_MAGIC, "profile")?;
    let mut r = Reader {
        buf: body,
        pos: PROFILE_MAGIC.len(),
    };
    let version = r.u64()?;
    if version != PROFILE_FORMAT_VERSION as u64 {
        return Err(format!(
            "stale profile version {version} (expected {PROFILE_FORMAT_VERSION})"
        ));
    }

    let blocks = r.rows()?;
    let nfuncs = r.len()?;
    let mut edges = Vec::with_capacity(nfuncs);
    for _ in 0..nfuncs {
        let nrows = r.len()?;
        let mut func = Vec::with_capacity(nrows);
        for _ in 0..nrows {
            let n = r.len()?;
            let list = (0..n)
                .map(|_| Ok((r.id()?, r.u64()?)))
                .collect::<Result<Vec<_>, String>>()?;
            func.push(list);
        }
        edges.push(func);
    }
    let edges = EdgeProfile::from_parts(blocks, edges, r.row()?);

    let npairs = r.len()?;
    let mut pairs = Vec::with_capacity(npairs);
    for _ in 0..npairs {
        let key = DepKey {
            func: FuncId(r.id()?),
            loop_id: LoopId(r.id()?),
            store: InstId(r.id()?),
            load: InstId(r.id()?),
            kind: match r.u64()? {
                0 => DepKind::Intra,
                1 => DepKind::CrossAdjacent,
                2 => DepKind::CrossFar,
                _ => return Err("bad dependence kind in profile".into()),
            },
        };
        pairs.push((key, r.u64()?));
    }
    let stores = r.rows()?;
    let loads = r.rows()?;
    let deps = DepProfile::from_parts(pairs, stores, loads, r.u64()?);

    let nloops = r.len()?;
    let mut stats = Vec::with_capacity(nloops);
    for _ in 0..nloops {
        let (f, l) = (FuncId(r.id()?), LoopId(r.id()?));
        let s = LoopStats {
            invocations: r.u64()?,
            total_iters: r.u64()?,
            insts: r.u64()?,
            cycles: r.u64()?,
        };
        stats.push((f, l, s));
    }
    let loops = LoopProfile::from_parts(stats, r.u64()?, r.u64()?);

    let ntargets = r.len()?;
    let mut targets = Vec::with_capacity(ntargets);
    for _ in 0..ntargets {
        let (f, i, is_float) = (FuncId(r.id()?), InstId(r.id()?), r.flag()?);
        let mut s = SeqStats::default();
        s.count = r.u64()?;
        s.first = r.opt()?;
        s.last = r.opt()?;
        s.const_hits = r.u64()?;
        s.repeat_hits = r.u64()?;
        let ndeltas = r.len()?;
        for _ in 0..ndeltas {
            s.deltas.push((unzigzag(r.u64()?), r.u64()?));
        }
        targets.push((f, i, is_float, s));
    }
    let values = ValueProfile::from_parts(targets);

    if r.pos != body.len() {
        return Err("profile has trailing bytes".into());
    }
    Ok(ProfileCollector {
        edges,
        deps,
        loops,
        values,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_ir::BlockId;
    use spt_profile::{LoopActivation, LoopEvent, Profiler, Val};

    /// A collector fed a short synthetic event stream: two functions, a
    /// loop whose store feeds the next iteration's load, a value target.
    fn sample() -> ProfileCollector {
        let (f0, f1) = (FuncId(0), FuncId(1));
        let (store, load, def) = (InstId(3), InstId(5), InstId(7));
        let mut p = ProfileCollector::with_value_targets([
            (f0, def, spt_ir::Ty::I64),
            (f1, InstId(2), spt_ir::Ty::F64),
        ]);
        p.on_block(f0, None, BlockId(0));
        p.on_loop(f0, LoopEvent::Enter(LoopId(0)), &[]);
        for iter in 0..6u64 {
            let act = [LoopActivation {
                loop_id: LoopId(0),
                activation: 1,
                iter,
            }];
            p.on_block(f0, Some(BlockId(0)), BlockId(1));
            p.on_inst(f0, load, 3, &act);
            p.on_load(f0, load, 40, Val(iter), &act);
            p.on_store(f0, store, 40, Val(iter), &act);
            p.on_def(f0, def, Val(10 + 3 * iter), &act);
            p.on_loop(f0, LoopEvent::Iterate(LoopId(0)), &act);
        }
        p.on_loop(f0, LoopEvent::Exit(LoopId(0)), &[]);
        p.on_call_enter(f0, InstId(9), f1);
        p.on_block(f1, None, BlockId(0));
        p.on_load(f1, InstId(1), 40, Val(0), &[]);
        p.on_def(f1, InstId(2), Val(1.5f64.to_bits()), &[]);
        p.on_call_exit(f0, InstId(9), f1);
        p
    }

    #[test]
    fn round_trip_is_exact_and_canonical() {
        let p = sample();
        let bytes = profile_to_bytes(&p);
        let back = profile_from_bytes(&bytes).expect("decodes");
        assert_eq!(profile_to_bytes(&back), bytes);
        assert_eq!(back.deps.dep_counts_map(), p.deps.dep_counts_map());
        assert_eq!(back.deps.interproc_deps, 1);
        assert_eq!(back.loops.iter(), p.loops.iter());
        let stride = spt_profile::ValuePattern::Stride(3);
        assert_eq!(back.values.pattern(FuncId(0), InstId(7)).0, stride);
        let empty = ProfileCollector::new();
        let bytes = profile_to_bytes(&empty);
        assert_eq!(
            profile_to_bytes(&profile_from_bytes(&bytes).expect("empty")),
            bytes
        );
    }

    #[test]
    fn damage_is_detected() {
        let whole = profile_to_bytes(&sample());
        let mut flipped = whole.clone();
        flipped[whole.len() / 2] ^= 0x5a;
        assert!(profile_from_bytes(&flipped).is_err());
        assert!(profile_from_bytes(&whole[..whole.len() - 3]).is_err());
        assert!(profile_from_bytes(b"junk").is_err());
    }
}
