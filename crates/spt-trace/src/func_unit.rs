//! Function-granular analysis units: the cacheable product of pass-1 loop
//! analysis for one function.
//!
//! The incremental pipeline (see `spt-core`) keys these on
//! `Function::content_hash` plus a context hash folding everything an
//! analysis reads beyond the function's own IR — configuration knobs, the
//! globals table, callee effect summaries and the function's slice of the
//! edge/dependence profiles. A [`FuncAnalysisUnit`] therefore reproduces the
//! analysis results *bit-identically*: every field of a [`LoopFragment`]
//! maps one-to-one onto the pipeline's per-loop analysis record, with `f64`
//! costs carried as bit patterns so a decode → report path is byte-equal to
//! a recompute → report path.
//!
//! The encoding is a body in `spt_ir::codec`'s byte format, with no magic,
//! version or checksum: the artifact store frames it on disk and holds it
//! as is in memory, and decodes it on every hit.

use spt_ir::codec::{put_opt_u32, put_varint, Reader};

/// Smallest encoding of one [`LoopFragment`]: eleven one-byte fields.
const MIN_FRAGMENT_LEN: usize = 11;

/// The analysis result of one loop, in cache-stable form. Fields mirror the
/// pipeline's internal per-loop analysis record (headers/instructions by
/// index, cost by `f64` bit pattern, move/replicate sets sorted).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoopFragment {
    /// Header block index within the function.
    pub header: u32,
    /// Nesting depth (0 = outermost).
    pub depth: u64,
    /// Header block index of the parent loop, if nested.
    pub parent_header: Option<u32>,
    /// Static body size in cost-model units.
    pub body_size: u64,
    /// Number of value communications the dependence graph found.
    pub num_vcs: u64,
    /// `f64::to_bits` of the best partition's estimated mis-speculation cost.
    pub cost_bits: u64,
    /// Size of the pre-fork region under the best partition.
    pub prefork_size: u64,
    /// Instruction indices moved into the pre-fork region, sorted.
    pub move_insts: Vec<u32>,
    /// Instruction indices replicated into the pre-fork region, sorted.
    pub replicate_insts: Vec<u32>,
    /// The loop had more VCs than the search admits and was skipped.
    pub skipped_too_many_vcs: bool,
    /// Canonical loop shape (preheader + single latch) and a legal live-out
    /// closure — a transformation precondition.
    pub canonical: bool,
    /// Partition-search states visited.
    pub search_visited: u64,
    /// The search hit its visited-state budget (deterministic for a given
    /// budget, so safe to cache; the warning diagnostic is regenerated from
    /// this flag on a cache hit).
    pub search_budget_exhausted: bool,
}

/// Every loop analysis of one function, in loop-forest discovery order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FuncAnalysisUnit {
    /// Per-loop fragments, ordered as the function's loop forest iterates.
    pub fragments: Vec<LoopFragment>,
}

impl FuncAnalysisUnit {
    /// Appends the unit's encoding, bit-exactly.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.fragments.len() as u64);
        for f in &self.fragments {
            put_varint(out, f.header as u64);
            put_varint(out, f.depth);
            put_opt_u32(out, f.parent_header);
            put_varint(out, f.body_size);
            put_varint(out, f.num_vcs);
            put_varint(out, f.cost_bits);
            put_varint(out, f.prefork_size);
            put_varint(out, f.move_insts.len() as u64);
            for &i in &f.move_insts {
                put_varint(out, i as u64);
            }
            put_varint(out, f.replicate_insts.len() as u64);
            for &i in &f.replicate_insts {
                put_varint(out, i as u64);
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
            let header = r.u32()?;
            let depth = r.varint()?;
            let parent_header = r.opt_u32()?;
            let body_size = r.varint()?;
            let num_vcs = r.varint()?;
            let cost_bits = r.varint()?;
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
                cost_bits,
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
fn insts(r: &mut Reader<'_>) -> Option<Vec<u32>> {
    let n = r.count()?;
    (0..n).map(|_| r.u32()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FuncAnalysisUnit {
        FuncAnalysisUnit {
            fragments: vec![
                LoopFragment {
                    header: 3,
                    depth: 0,
                    parent_header: None,
                    body_size: 120,
                    num_vcs: 7,
                    cost_bits: 3.5f64.to_bits(),
                    prefork_size: 11,
                    move_insts: vec![1, 4, 9],
                    replicate_insts: vec![2],
                    skipped_too_many_vcs: false,
                    canonical: true,
                    search_visited: 4096,
                    search_budget_exhausted: false,
                },
                LoopFragment {
                    header: 7,
                    depth: 1,
                    parent_header: Some(3),
                    body_size: 0,
                    num_vcs: 0,
                    cost_bits: f64::INFINITY.to_bits(),
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
