//! Pass 1's one record: a [`LoopFragment`] per candidate loop, and a
//! function's fragments as the artifact store's analysis unit.
//!
//! The paper's pass 1 hands pass 2 one thing per candidate loop: its
//! optimal partition, cost and sizes (§3, §6). The pipeline's loop
//! analysis returns exactly that as a fragment; SVP targeting, selection
//! and emission read it; and a function's fragments, in loop-forest
//! discovery order, are its [`FuncAnalysisUnit`]. The incremental pipeline
//! keys units on `Function::content_hash` plus a context hash folding
//! everything an analysis reads beyond the function's own IR
//! ([`crate::incremental`]), so a unit served from the store yields the
//! very fragments a fresh analysis would.
//!
//! The encoding is a body in `spt_ir::codec`'s byte format, with no magic,
//! version or checksum: the artifact store frames it on disk and holds it
//! as is in memory, and decodes it on every hit. Blocks and instructions
//! go by index and the cost by its `f64` bit pattern, so a decoded fragment
//! is bit-identical to the one encoded.

use spt_ir::codec::{put_opt_u32, put_varint, Reader};
use spt_ir::{BlockId, InstId};

/// Smallest encoding of one [`LoopFragment`]: eleven one-byte fields.
const MIN_FRAGMENT_LEN: usize = 11;

/// What pass 1 learned about one loop: its best partition, with the
/// partition's node sets resolved to instructions (stable across later IR
/// surgery), its cost and its sizes.
#[derive(Clone, Debug, PartialEq)]
pub struct LoopFragment {
    /// Header block.
    pub header: BlockId,
    /// Nesting depth (0 = outermost).
    pub depth: usize,
    /// Header block of the parent loop, if nested.
    pub parent_header: Option<BlockId>,
    /// Static body size in cost-model units.
    pub body_size: u64,
    /// Number of value communications the dependence graph found.
    pub num_vcs: usize,
    /// The best partition's estimated mis-speculation cost.
    pub cost: f64,
    /// Size of the pre-fork region under the best partition.
    pub prefork_size: u64,
    /// Instructions moved into the pre-fork region, sorted.
    pub move_insts: Vec<InstId>,
    /// Instructions replicated into the pre-fork region, sorted.
    pub replicate_insts: Vec<InstId>,
    /// The loop had more VCs than the search admits and was skipped.
    pub skipped_too_many_vcs: bool,
    /// Canonical loop shape (preheader + single latch) and a legal live-out
    /// closure — a transformation precondition.
    pub canonical: bool,
    /// Partition-search states visited.
    pub search_visited: u64,
    /// The search hit its visited-state budget, so `cost` and the
    /// instruction sets describe the best partition found so far
    /// (deterministic for a given budget, so safe to store).
    pub search_budget_exhausted: bool,
}

/// Every loop fragment of one function, in loop-forest discovery order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FuncAnalysisUnit {
    /// Per-loop fragments, ordered as the function's loop forest iterates.
    pub fragments: Vec<LoopFragment>,
}

impl FuncAnalysisUnit {
    /// Appends the unit's encoding, bit-exactly.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.fragments.len() as u64);
        for f in &self.fragments {
            put_varint(out, f.header.0 as u64);
            put_varint(out, f.depth as u64);
            put_opt_u32(out, f.parent_header.map(|h| h.0));
            put_varint(out, f.body_size);
            put_varint(out, f.num_vcs as u64);
            put_varint(out, f.cost.to_bits());
            put_varint(out, f.prefork_size);
            for insts in [&f.move_insts, &f.replicate_insts] {
                put_varint(out, insts.len() as u64);
                for i in insts {
                    put_varint(out, i.0 as u64);
                }
            }
            let flags = (f.skipped_too_many_vcs as u8)
                | ((f.canonical as u8) << 1)
                | ((f.search_budget_exhausted as u8) << 2);
            out.push(flags);
            put_varint(out, f.search_visited);
        }
    }

    /// Inverse of [`FuncAnalysisUnit::encode`]; `None` when the bytes are
    /// not an encoding.
    pub fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.count_of(MIN_FRAGMENT_LEN)?;
        let mut fragments = Vec::with_capacity(n);
        for _ in 0..n {
            let header = BlockId(r.u32()?);
            let depth = r.usize()?;
            let parent_header = r.opt_u32()?.map(BlockId);
            let body_size = r.varint()?;
            let num_vcs = r.usize()?;
            let cost = f64::from_bits(r.varint()?);
            let prefork_size = r.varint()?;
            let move_insts = insts(r)?;
            let replicate_insts = insts(r)?;
            let flags = r.byte()?;
            if flags > 0b111 {
                return None;
            }
            fragments.push(LoopFragment {
                header,
                depth,
                parent_header,
                body_size,
                num_vcs,
                cost,
                prefork_size,
                move_insts,
                replicate_insts,
                skipped_too_many_vcs: flags & 1 != 0,
                canonical: flags & 2 != 0,
                search_visited: r.varint()?,
                search_budget_exhausted: flags & 4 != 0,
            });
        }
        Some(FuncAnalysisUnit { fragments })
    }
}

/// A counted list of instruction indices.
fn insts(r: &mut Reader<'_>) -> Option<Vec<InstId>> {
    let n = r.count()?;
    (0..n).map(|_| r.u32().map(InstId)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FuncAnalysisUnit {
        let insts = |ids: &[u32]| ids.iter().map(|&i| InstId(i)).collect();
        FuncAnalysisUnit {
            fragments: vec![
                LoopFragment {
                    header: BlockId(3),
                    depth: 0,
                    parent_header: None,
                    body_size: 120,
                    num_vcs: 7,
                    cost: 3.5,
                    prefork_size: 11,
                    move_insts: insts(&[1, 4, 9]),
                    replicate_insts: insts(&[2]),
                    skipped_too_many_vcs: false,
                    canonical: true,
                    search_visited: 4096,
                    search_budget_exhausted: false,
                },
                LoopFragment {
                    header: BlockId(7),
                    depth: 1,
                    parent_header: Some(BlockId(3)),
                    body_size: 0,
                    num_vcs: 0,
                    cost: f64::INFINITY,
                    prefork_size: 0,
                    move_insts: vec![],
                    replicate_insts: vec![],
                    skipped_too_many_vcs: true,
                    canonical: false,
                    search_visited: u64::MAX,
                    search_budget_exhausted: true,
                },
            ],
        }
    }

    fn encoded(u: &FuncAnalysisUnit) -> Vec<u8> {
        let mut out = Vec::new();
        u.encode(&mut out);
        out
    }

    /// Decodes `bytes` whole: a trailing byte rejects them.
    fn decoded(bytes: &[u8]) -> Option<FuncAnalysisUnit> {
        let mut r = Reader::new(bytes, 0);
        FuncAnalysisUnit::decode(&mut r).filter(|_| r.at_end())
    }

    #[test]
    fn round_trip_is_exact() {
        let u = sample();
        assert_eq!(decoded(&encoded(&u)).as_ref(), Some(&u));
        let empty = FuncAnalysisUnit::default();
        assert_eq!(decoded(&encoded(&empty)).as_ref(), Some(&empty));
    }

    #[test]
    fn packed_form_round_trips_without_framing() {
        // The one encoding is also the memory tier's form: no magic,
        // version or checksum, so it starts with the fragment count.
        let u = sample();
        let bytes = encoded(&u);
        assert_eq!(bytes[0], 2);
        assert_eq!(encoded(&decoded(&bytes).expect("decodes")), bytes);
    }

    #[test]
    fn corruption_is_detected() {
        // Damage inside a sound frame is the store's checksum's to catch;
        // the body alone rejects every truncation, a bad tag or flags
        // byte, and a count the bytes cannot hold.
        let bytes = encoded(&sample());
        for cut in 0..bytes.len() {
            assert_eq!(decoded(&bytes[..cut]), None, "cut {cut}");
        }
        let parent_tag = 3;
        let mut bad_tag = bytes.clone();
        bad_tag[parent_tag] = 2;
        assert_eq!(decoded(&bad_tag), None);
        let mut bad_flags = bytes.clone();
        let flags = bytes.len() - 11; // before a 10-byte `search_visited`
        bad_flags[flags] = 0b1000;
        assert_eq!(decoded(&bad_flags), None);
        assert_eq!(decoded(b"junk"), None);
        assert_eq!(decoded(&[0xff, 0xff, 0x03]), None);
    }
}
