//! The canonical byte encoding of a [`SimResult`]: the body of the artifact
//! store's simulation memos and of the daemon's sim replies, so a
//! daemon-served result is byte-comparable to a local one.
//!
//! Varint fields, the final memory's digest as one word, loop stats sorted
//! by tag so the encoding is canonical, and the two rates by bit pattern.
//! The memory goes as its digest whichever form the result holds, so a
//! direct run encodes to the same bytes as its memo, and a body's size
//! grows with its loop count, not with the program's memory. The body carries no
//! magic, version or checksum: the store's frame and the protocol's
//! versioned frame do.

use spt_ir::codec::{put_f64, put_varint, put_word, Reader};
use spt_sim::{FinalMemory, LoopSimStats, SimResult};

/// Smallest encoding of one loop's stats: a tag and ten counters.
const MIN_LOOP_LEN: usize = 11;

/// Appends the encoding of `r`, bit-exactly.
pub fn encode_sim(r: &SimResult, out: &mut Vec<u8>) {
    match r.ret {
        Some(v) => {
            out.push(1);
            put_varint(out, v);
        }
        None => out.push(0),
    }
    put_varint(out, r.cycles);
    put_varint(out, r.insts);
    put_word(out, r.memory.digest());
    let mut tags: Vec<u32> = r.loops.keys().copied().collect();
    tags.sort_unstable();
    put_varint(out, tags.len() as u64);
    for tag in tags {
        let s = r.loops[&tag];
        put_varint(out, tag as u64);
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
            put_varint(out, f);
        }
    }
    put_f64(out, r.cache_hit_rate);
    put_f64(out, r.branch_miss_rate);
}

/// Inverse of [`encode_sim`], up to the memory's form: the result holds
/// [`FinalMemory::Digest`]. `None` when the bytes are not an encoding.
pub fn decode_sim(r: &mut Reader<'_>) -> Option<SimResult> {
    let ret = match r.byte()? {
        0 => None,
        1 => Some(r.varint()?),
        _ => return None,
    };
    let cycles = r.varint()?;
    let insts = r.varint()?;
    let memory = FinalMemory::Digest(r.word()?);
    let n = r.count_of(MIN_LOOP_LEN)?;
    let mut loops = std::collections::HashMap::with_capacity(n);
    for _ in 0..n {
        let tag = r.u32()?;
        let mut f = [0u64; 10];
        for slot in &mut f {
            *slot = r.varint()?;
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
    Some(SimResult {
        ret,
        cycles,
        insts,
        memory,
        loops,
        cache_hit_rate: r.f64()?,
        branch_miss_rate: r.f64()?,
    })
}

/// [`encode_sim`] into a fresh buffer: the bytes of a daemon sim reply.
pub fn sim_to_bytes(r: &SimResult) -> Vec<u8> {
    let mut out = Vec::new();
    encode_sim(r, &mut out);
    out
}

/// Inverse of [`sim_to_bytes`].
///
/// # Errors
///
/// The bytes are not exactly one encoding.
pub fn sim_from_bytes(buf: &[u8]) -> Result<SimResult, String> {
    let mut r = Reader::new(buf, 0);
    decode_sim(&mut r)
        .filter(|_| r.at_end())
        .ok_or_else(|| "malformed SimResult encoding".to_string())
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
            memory: FinalMemory::Image(vec![1, 2, 3, u64::MAX]),
            loops,
            cache_hit_rate: 0.987654321,
            branch_miss_rate: 0.0123456789,
        }
    }

    /// Field-wise equality, the memory by digest.
    fn sim_eq(a: &SimResult, b: &SimResult) -> bool {
        a.ret == b.ret
            && a.cycles == b.cycles
            && a.insts == b.insts
            && a.memory.digest() == b.memory.digest()
            && a.loops == b.loops
            && a.cache_hit_rate.to_bits() == b.cache_hit_rate.to_bits()
            && a.branch_miss_rate.to_bits() == b.branch_miss_rate.to_bits()
    }

    #[test]
    fn an_image_and_its_digest_encode_alike() {
        for image in [vec![], vec![0], vec![1, 2, 3, u64::MAX], vec![7; 4096]] {
            let mut r = sample_sim();
            r.memory = FinalMemory::Image(image.clone());
            let digest = r.memory.digest();
            let bytes: Vec<u8> = image.iter().flat_map(|w| w.to_le_bytes()).collect();
            assert_eq!(digest, spt_ir::codec::word_hash(&bytes));
            let from_image = sim_to_bytes(&r);
            r.memory = FinalMemory::Digest(digest);
            assert_eq!(sim_to_bytes(&r), from_image, "{} words", image.len());
            // The body is the same size whatever the image's.
            assert_eq!(from_image.len(), sim_to_bytes(&sample_sim()).len());
            let decoded = sim_from_bytes(&from_image).unwrap();
            assert_eq!(decoded.memory, FinalMemory::Digest(digest));
        }
    }

    #[test]
    fn sim_bytes_round_trip_public() {
        let r = sample_sim();
        let bytes = sim_to_bytes(&r);
        let decoded = sim_from_bytes(&bytes).unwrap();
        assert!(sim_eq(&r, &decoded));
        assert_eq!(sim_to_bytes(&decoded), bytes);
        // The body rejects every truncation and any trailing byte.
        for cut in 0..bytes.len() {
            assert!(sim_from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(sim_from_bytes(&longer).is_err());
        assert!(sim_from_bytes(b"\x02").is_err(), "bad ret tag");
    }
}
