//! The canonical byte encoding of a [`SimResult`]: the format of the
//! artifact store's simulation memos and of the daemon's sim replies, so a
//! daemon-served result is byte-comparable to a local one.
//!
//! Framing: magic, format version, varint fields, `f64` rates by bit
//! pattern, and a trailing checksum ([`crate::codec::seal`]); any damage
//! decodes to an error.

use spt_sim::{LoopSimStats, SimResult};

use crate::codec::{get_varint, put_varint, seal, unseal};

/// Magic prefix of an encoded simulation memo.
const SIM_MAGIC: &[u8; 8] = b"SPTSIMRS";

/// Bumped on any change to the `SimResult` encoding; folded into every
/// sim-memo key and written into every memo, so stale-format entries miss.
pub const SIM_FORMAT_VERSION: u32 = 2;

/// Serializes a [`SimResult`] bit-exactly (f64 rates via `to_bits`, loop
/// stats sorted by tag so the encoding is canonical).
pub fn sim_to_bytes(r: &SimResult) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + r.memory.len() * 3);
    out.extend_from_slice(SIM_MAGIC);
    put_varint(&mut out, SIM_FORMAT_VERSION as u64);
    match r.ret {
        Some(v) => {
            out.push(1);
            put_varint(&mut out, v);
        }
        None => out.push(0),
    }
    put_varint(&mut out, r.cycles);
    put_varint(&mut out, r.insts);
    put_varint(&mut out, r.memory.len() as u64);
    for &w in &r.memory {
        put_varint(&mut out, w);
    }
    let mut tags: Vec<u32> = r.loops.keys().copied().collect();
    tags.sort_unstable();
    put_varint(&mut out, tags.len() as u64);
    for tag in tags {
        let s = r.loops[&tag];
        put_varint(&mut out, tag as u64);
        for f in [
            s.forks,
            s.commits,
            s.kills,
            s.free_insts,
            s.reexec_insts,
            s.reexec_cycles,
            s.main_insts,
            s.loop_cycles,
            s.seq_cycles,
            s.wasted_insts,
        ] {
            put_varint(&mut out, f);
        }
    }
    out.extend_from_slice(&r.cache_hit_rate.to_bits().to_le_bytes());
    out.extend_from_slice(&r.branch_miss_rate.to_bits().to_le_bytes());
    seal(&mut out);
    out
}

/// `n` varints from `buf` at `*pos`, advancing `*pos`: the memory image,
/// most of a memo, decoded in one loop over a byte iterator (no bounds
/// check or position store per byte). The capacity is capped by the bytes
/// left, since every word takes at least one.
fn varints(buf: &[u8], pos: &mut usize, n: usize) -> Option<Vec<u64>> {
    let mut bytes = buf.get(*pos..)?.iter();
    let mut out = Vec::with_capacity(n.min(bytes.len()));
    let start = bytes.len();
    for _ in 0..n {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = *bytes.next()?;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                break;
            }
            shift += 7;
            if shift >= 64 {
                return None;
            }
        }
        out.push(v);
    }
    *pos += start - bytes.len();
    Some(out)
}

/// Inverse of [`sim_to_bytes`].
///
/// # Errors
///
/// Returns a description of the first framing/checksum/version problem.
pub fn sim_from_bytes(buf: &[u8]) -> Result<SimResult, String> {
    let body = unseal(buf, SIM_MAGIC, "sim memo")?;
    let mut pos = SIM_MAGIC.len();
    let take = |pos: &mut usize| get_varint(body, pos).ok_or("sim memo truncated");
    let version = take(&mut pos)?;
    if version != SIM_FORMAT_VERSION as u64 {
        return Err(format!(
            "stale sim memo version {version} (expected {SIM_FORMAT_VERSION})"
        ));
    }
    let ret = match body.get(pos).copied().ok_or("sim memo truncated")? {
        0 => {
            pos += 1;
            None
        }
        1 => {
            pos += 1;
            Some(take(&mut pos)?)
        }
        _ => return Err("bad ret tag in sim memo".into()),
    };
    let cycles = take(&mut pos)?;
    let insts = take(&mut pos)?;
    let mem_len = take(&mut pos)? as usize;
    let memory = varints(body, &mut pos, mem_len).ok_or("sim memo truncated")?;
    let nloops = take(&mut pos)? as usize;
    let mut loops = std::collections::HashMap::with_capacity(nloops.min(1 << 16));
    for _ in 0..nloops {
        let tag = take(&mut pos)? as u32;
        let mut f = [0u64; 10];
        for slot in &mut f {
            *slot = take(&mut pos)?;
        }
        loops.insert(
            tag,
            LoopSimStats {
                forks: f[0],
                commits: f[1],
                kills: f[2],
                free_insts: f[3],
                reexec_insts: f[4],
                reexec_cycles: f[5],
                main_insts: f[6],
                loop_cycles: f[7],
                seq_cycles: f[8],
                wasted_insts: f[9],
            },
        );
    }
    let need = pos + 16;
    if body.len() != need {
        return Err("sim memo truncated".into());
    }
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&body[pos..pos + 8]);
    let cache_hit_rate = f64::from_bits(u64::from_le_bytes(raw));
    raw.copy_from_slice(&body[pos + 8..pos + 16]);
    let branch_miss_rate = f64::from_bits(u64::from_le_bytes(raw));

    Ok(SimResult {
        ret,
        cycles,
        insts,
        memory,
        loops,
        cache_hit_rate,
        branch_miss_rate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sim() -> SimResult {
        let mut loops = std::collections::HashMap::new();
        loops.insert(
            3u32,
            LoopSimStats {
                forks: 1,
                commits: 2,
                kills: 3,
                free_insts: 4,
                reexec_insts: 5,
                reexec_cycles: 6,
                main_insts: 7,
                loop_cycles: 8,
                seq_cycles: 9,
                wasted_insts: 10,
            },
        );
        loops.insert(1u32, LoopSimStats::default());
        SimResult {
            ret: Some(42),
            cycles: 1000,
            insts: 500,
            memory: vec![1, 2, 3, u64::MAX],
            loops,
            cache_hit_rate: 0.987654321,
            branch_miss_rate: 0.0123456789,
        }
    }

    fn sim_eq(a: &SimResult, b: &SimResult) -> bool {
        a.ret == b.ret
            && a.cycles == b.cycles
            && a.insts == b.insts
            && a.memory == b.memory
            && a.loops == b.loops
            && a.cache_hit_rate.to_bits() == b.cache_hit_rate.to_bits()
            && a.branch_miss_rate.to_bits() == b.branch_miss_rate.to_bits()
    }

    #[test]
    fn memory_images_of_every_word_width_round_trip() {
        let mut r = sample_sim();
        r.memory = (0..64)
            .map(|b| 1u64 << b)
            .chain([0, 127, u64::MAX])
            .collect();
        let bytes = sim_to_bytes(&r);
        assert!(sim_eq(&r, &sim_from_bytes(&bytes).unwrap()));
        // A truncated image, or a word running past 64 bits, is rejected.
        assert_eq!(varints(&[0x80, 0x80], &mut 0, 1), None);
        assert_eq!(varints(&[0xff; 11], &mut 0, 1), None);
        let mut pos = 1;
        assert_eq!(
            varints(&[9, 0xac, 0x02, 7], &mut pos, 2),
            Some(vec![300, 7])
        );
        assert_eq!(pos, 4);
    }

    #[test]
    fn sim_bytes_round_trip_public() {
        let r = sample_sim();
        let bytes = sim_to_bytes(&r);
        let decoded = sim_from_bytes(&bytes).unwrap();
        assert!(sim_eq(&r, &decoded));
        assert!(sim_from_bytes(&bytes[..bytes.len() - 2]).is_err());
    }
}
