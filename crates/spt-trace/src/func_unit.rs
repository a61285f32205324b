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
//! Encoding follows the sim-memo codec's conventions: magic, format
//! version, varint fields, and a trailing checksum; any damage decodes
//! to an error, which the artifact store treats as a miss (evict and
//! recompute, never a panic).

use crate::codec::{get_varint, put_varint, seal, unseal};

/// Magic prefix of function-analysis-unit artifact files.
const FUNC_UNIT_MAGIC: &[u8; 8] = b"SPTFUNCA";

/// Bumped on any change to [`LoopFragment`]'s meaning or encoding; folded
/// into every function-unit cache key so stale-format entries simply miss.
/// (3: `search_visited` counts the budget-bounded partition search's
/// nodes.)
pub const FUNC_UNIT_FORMAT_VERSION: u32 = 3;

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
    /// Serializes the unit bit-exactly (see the module docs for framing).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.fragments.len() * 64);
        out.extend_from_slice(FUNC_UNIT_MAGIC);
        put_varint(&mut out, FUNC_UNIT_FORMAT_VERSION as u64);
        self.pack_into(&mut out);
        seal(&mut out);
        out
    }

    /// Inverse of [`FuncAnalysisUnit::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first framing/checksum/version problem.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, String> {
        let body = unseal(buf, FUNC_UNIT_MAGIC, "function unit")?;
        let mut pos = FUNC_UNIT_MAGIC.len();
        let version = get_varint(body, &mut pos).ok_or("function unit truncated")?;
        if version != FUNC_UNIT_FORMAT_VERSION as u64 {
            return Err(format!(
                "stale function unit version {version} (expected {FUNC_UNIT_FORMAT_VERSION})"
            ));
        }
        Self::from_packed(&body[pos..])
    }

    /// The fields alone, without magic, version or checksum: the artifact
    /// store's in-memory form, which never leaves the process.
    pub fn to_packed(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.fragments.len() * 48);
        self.pack_into(&mut out);
        out
    }

    fn pack_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.fragments.len() as u64);
        for f in &self.fragments {
            put_varint(out, f.header as u64);
            put_varint(out, f.depth);
            match f.parent_header {
                Some(p) => {
                    out.push(1);
                    put_varint(out, p as u64);
                }
                None => out.push(0),
            }
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

    /// Inverse of [`FuncAnalysisUnit::to_packed`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_packed(body: &[u8]) -> Result<Self, String> {
        let mut pos = 0;
        let take = |pos: &mut usize| get_varint(body, pos).ok_or("function unit truncated");
        let nfrags = take(&mut pos)? as usize;
        let mut fragments = Vec::with_capacity(nfrags.min(1 << 16));
        for _ in 0..nfrags {
            let header = take(&mut pos)? as u32;
            let depth = take(&mut pos)?;
            let parent_header = match body.get(pos).copied().ok_or("function unit truncated")? {
                0 => {
                    pos += 1;
                    None
                }
                1 => {
                    pos += 1;
                    Some(take(&mut pos)? as u32)
                }
                _ => return Err("bad parent tag in function unit".into()),
            };
            let body_size = take(&mut pos)?;
            let num_vcs = take(&mut pos)?;
            let cost_bits = take(&mut pos)?;
            let prefork_size = take(&mut pos)?;
            let nmove = take(&mut pos)? as usize;
            let mut move_insts = Vec::with_capacity(nmove.min(1 << 20));
            for _ in 0..nmove {
                move_insts.push(take(&mut pos)? as u32);
            }
            let nrep = take(&mut pos)? as usize;
            let mut replicate_insts = Vec::with_capacity(nrep.min(1 << 20));
            for _ in 0..nrep {
                replicate_insts.push(take(&mut pos)? as u32);
            }
            let flags = body.get(pos).copied().ok_or("function unit truncated")?;
            pos += 1;
            if flags > 0b111 {
                return Err("bad flags byte in function unit".into());
            }
            let search_visited = take(&mut pos)?;
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
                search_visited,
                search_budget_exhausted: flags & 4 != 0,
            });
        }
        if pos != body.len() {
            return Err("function unit has trailing bytes".into());
        }
        Ok(FuncAnalysisUnit { fragments })
    }
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

    #[test]
    fn round_trip_is_exact() {
        let u = sample();
        assert_eq!(FuncAnalysisUnit::from_bytes(&u.to_bytes()).as_ref(), Ok(&u));
        let empty = FuncAnalysisUnit::default();
        assert_eq!(
            FuncAnalysisUnit::from_bytes(&empty.to_bytes()).as_ref(),
            Ok(&empty)
        );
    }

    #[test]
    fn packed_form_round_trips_without_framing() {
        let u = sample();
        let packed = u.to_packed();
        assert_eq!(FuncAnalysisUnit::from_packed(&packed).as_ref(), Ok(&u));
        // The framed encoding is magic, version, the packed fields, checksum.
        let framed = u.to_bytes();
        assert_eq!(&framed[9..framed.len() - 8], &packed[..]);
        assert!(FuncAnalysisUnit::from_packed(&packed[..packed.len() - 1]).is_err());
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = sample().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5a;
        assert!(FuncAnalysisUnit::from_bytes(&bytes).is_err());
        let whole = sample().to_bytes();
        assert!(FuncAnalysisUnit::from_bytes(&whole[..whole.len() - 3]).is_err());
        assert!(FuncAnalysisUnit::from_bytes(b"junk").is_err());
    }
}
