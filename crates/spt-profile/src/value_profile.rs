//! Software-value-prediction profiling (§7.2 of the paper).
//!
//! The compiler "instruments the program to profile the value patterns of
//! the corresponding variables" — the SSA definitions whose cross-iteration
//! dependences dominate the misspeculation cost. This collector records the
//! dynamic value sequence of each target definition and classifies it:
//!
//! * [`ValuePattern::Constant`] — the same value every time;
//! * [`ValuePattern::Stride`] — `v[n+1] = v[n] + d` (the paper's `x + 2`
//!   example in Fig. 13);
//! * [`ValuePattern::LastValue`] — repeats with occasional changes
//!   (predict-last-value profitable);
//! * [`ValuePattern::Unpredictable`] — nothing reached the confidence bar.

use crate::interp::{LoopActivation, Profiler, Val};
use spt_ir::{FuncId, InstId, Ty};

/// A detected value pattern with its hit ratio over the profiled run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ValuePattern {
    /// Always the same 64-bit value.
    Constant(u64),
    /// Integer stride: next = previous + `stride`.
    Stride(i64),
    /// The previous value repeats often (ratio of repeats given).
    LastValue,
    /// No pattern above the confidence threshold.
    Unpredictable,
}

/// Most distinct deltas [`SeqStats`] tracks per target; later new deltas
/// go uncounted.
const MAX_DELTAS: usize = 64;

/// The observation statistics of one target's value sequence: everything
/// [`ValuePattern`] classification reads.
#[derive(Clone, Debug, Default)]
pub struct SeqStats {
    /// Observations.
    pub count: u64,
    /// The first value's bits.
    pub first: Option<u64>,
    /// The latest value's bits.
    pub last: Option<u64>,
    /// Observations after the first that equalled it.
    pub const_hits: u64,
    /// Observations that equalled their predecessor.
    pub repeat_hits: u64,
    /// `(delta, transitions)` of integer targets, in first-seen order, at
    /// most 64 entries.
    pub deltas: Vec<(i64, u64)>,
    /// Index in `deltas` of the last matched delta: a strided sequence
    /// matches it on every observation.
    last_delta: usize,
}

impl SeqStats {
    fn observe(&mut self, bits: u64, is_float: bool) {
        if let Some(first) = self.first {
            if bits == first {
                self.const_hits += 1;
            }
        } else {
            self.first = Some(bits);
        }
        if let Some(last) = self.last {
            if bits == last {
                self.repeat_hits += 1;
            }
            if !is_float {
                self.count_delta((bits as i64).wrapping_sub(last as i64));
            }
        }
        self.last = Some(bits);
        self.count += 1;
    }

    #[inline]
    fn count_delta(&mut self, delta: i64) {
        if let Some((d, hits)) = self.deltas.get_mut(self.last_delta) {
            if *d == delta {
                *hits += 1;
                return;
            }
        }
        if let Some(i) = self.deltas.iter().position(|&(d, _)| d == delta) {
            self.deltas[i].1 += 1;
            self.last_delta = i;
        } else if self.deltas.len() < MAX_DELTAS {
            self.deltas.push((delta, 1));
            self.last_delta = self.deltas.len() - 1;
        }
    }

    fn classify(&self, threshold: f64) -> (ValuePattern, f64) {
        if self.count == 0 {
            return (ValuePattern::Unpredictable, 0.0);
        }
        let transitions = (self.count - 1).max(1) as f64;
        // Constant: every observation equals the first.
        let const_ratio = (self.const_hits + 1) as f64 / self.count as f64;
        if const_ratio >= threshold {
            return (
                ValuePattern::Constant(self.first.expect("count > 0")),
                const_ratio,
            );
        }
        // Stride: the dominant delta (non-zero) covers most transitions; of
        // tied deltas, the first seen.
        let mut dominant: Option<(i64, u64)> = None;
        for &(delta, hits) in &self.deltas {
            if dominant.is_none_or(|(_, most)| hits > most) {
                dominant = Some((delta, hits));
            }
        }
        if let Some((delta, hits)) = dominant {
            let ratio = hits as f64 / transitions;
            if delta != 0 && ratio >= threshold {
                return (ValuePattern::Stride(delta), ratio);
            }
        }
        // Last-value: repeats dominate.
        let repeat_ratio = self.repeat_hits as f64 / transitions;
        if repeat_ratio >= threshold {
            return (ValuePattern::LastValue, repeat_ratio);
        }
        (ValuePattern::Unpredictable, 0.0)
    }
}

/// Value-sequence profile for a set of target definitions.
///
/// Target membership is a dense per-function row of arena slots (`slot + 1`,
/// 0 = not a target) so the per-definition hot path
/// ([`Profiler::on_def`], fired for *every* value the interpreter produces)
/// is two bounds-checked indexes instead of a hash probe.
#[derive(Clone, Debug)]
pub struct ValueProfile {
    /// `slots[func][inst]` is `arena index + 1`, or 0 for non-targets.
    slots: Vec<Vec<u32>>,
    /// Sorted `(func, inst)` list of all registered targets.
    targets: Vec<(FuncId, InstId)>,
    /// Parallel to `targets`' arena: per-target float flag (strides are
    /// integer-only).
    is_float: Vec<bool>,
    stats: Vec<SeqStats>,
    /// Confidence bar for pattern classification (default 0.95; the paper
    /// requires "acceptably low" misprediction cost).
    pub threshold: f64,
}

impl ValueProfile {
    /// Creates a profile that records the given `(func, inst)` definitions.
    /// `tys` marks which targets are floats (strides are integer-only).
    pub fn new(targets: impl IntoIterator<Item = (FuncId, InstId, Ty)>) -> Self {
        let mut prof = ValueProfile {
            slots: Vec::new(),
            targets: Vec::new(),
            is_float: Vec::new(),
            stats: Vec::new(),
            threshold: 0.95,
        };
        for (f, i, ty) in targets {
            let fi = f.index();
            if prof.slots.len() <= fi {
                prof.slots.resize_with(fi + 1, Vec::new);
            }
            let row = &mut prof.slots[fi];
            if row.len() <= i.index() {
                row.resize(i.index() + 1, 0);
            }
            let slot = &mut row[i.index()];
            if *slot == 0 {
                prof.targets.push((f, i));
                prof.is_float.push(ty == Ty::F64);
                prof.stats.push(SeqStats::default());
                *slot = prof.stats.len() as u32;
            } else if ty == Ty::F64 {
                prof.is_float[(*slot - 1) as usize] = true;
            }
        }
        prof.targets.sort_unstable();
        prof
    }

    #[inline]
    fn slot_of(&self, func: FuncId, inst: InstId) -> Option<usize> {
        let s = *self.slots.get(func.index())?.get(inst.index())?;
        if s == 0 {
            None
        } else {
            Some((s - 1) as usize)
        }
    }

    /// The classified pattern and its hit ratio for one target.
    pub fn pattern(&self, func: FuncId, inst: InstId) -> (ValuePattern, f64) {
        match self.slot_of(func, inst) {
            Some(s) => self.stats[s].classify(self.threshold),
            None => (ValuePattern::Unpredictable, 0.0),
        }
    }

    /// Number of observations for a target.
    pub fn samples(&self, func: FuncId, inst: InstId) -> u64 {
        self.slot_of(func, inst).map_or(0, |s| self.stats[s].count)
    }

    /// Iterates over all targets with a predictable pattern.
    pub fn predictable(&self) -> Vec<(FuncId, InstId, ValuePattern, f64)> {
        let mut out = Vec::new();
        for &(f, i) in &self.targets {
            let (pat, ratio) = self.pattern(f, i);
            if !matches!(pat, ValuePattern::Unpredictable) {
                out.push((f, i, pat, ratio));
            }
        }
        out
    }
}

impl Profiler for ValueProfile {
    fn on_def(&mut self, func: FuncId, inst: InstId, value: Val, _loops: &[LoopActivation]) {
        if let Some(row) = self.slots.get(func.index()) {
            if let Some(&slot) = row.get(inst.index()) {
                if slot != 0 {
                    let s = (slot - 1) as usize;
                    let is_float = self.is_float[s];
                    self.stats[s].observe(value.0, is_float);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(values: &[i64], threshold: f64) -> (ValuePattern, f64) {
        let mut s = SeqStats::default();
        for &v in values {
            s.observe(v as u64, false);
        }
        s.classify(threshold)
    }

    #[test]
    fn detects_constant() {
        let (p, r) = feed(&[7, 7, 7, 7, 7, 7], 0.9);
        assert_eq!(p, ValuePattern::Constant(7));
        assert!(r >= 0.99);
    }

    #[test]
    fn detects_stride() {
        let vals: Vec<i64> = (0..100).map(|i| 3 + 2 * i).collect();
        let (p, r) = feed(&vals, 0.9);
        assert_eq!(p, ValuePattern::Stride(2));
        assert!(r > 0.99);
    }

    #[test]
    fn detects_stride_with_noise() {
        let mut vals: Vec<i64> = (0..100).map(|i| 10 * i).collect();
        vals[50] = 0; // one irregularity
        vals[51] = 510;
        let (p, _) = feed(&vals, 0.9);
        assert_eq!(p, ValuePattern::Stride(10));
    }

    #[test]
    fn tied_deltas_classify_the_same_in_every_profile() {
        // Deltas alternate +1, +3: each covers exactly half the transitions,
        // so at threshold 0.5 both qualify and the first seen must win.
        let vals: Vec<i64> = (0..41).map(|i| 4 * (i / 2) + i % 2).collect();
        for _ in 0..64 {
            assert_eq!(feed(&vals, 0.5), (ValuePattern::Stride(1), 0.5));
        }
    }

    #[test]
    fn detects_last_value() {
        // Long runs of repeats with occasional jumps.
        let mut vals = Vec::new();
        for block in 0..10 {
            for _ in 0..20 {
                vals.push(block * 100);
            }
        }
        let (p, r) = feed(&vals, 0.9);
        assert_eq!(p, ValuePattern::LastValue);
        assert!(r > 0.9);
    }

    #[test]
    fn unpredictable_sequence() {
        // Multiplicative pseudo-random walk: no constant stride.
        let mut v = 1i64;
        let mut vals = Vec::new();
        for _ in 0..200 {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            vals.push(v);
        }
        let (p, _) = feed(&vals, 0.9);
        assert_eq!(p, ValuePattern::Unpredictable);
    }

    #[test]
    fn end_to_end_on_interpreter() {
        use crate::interp::{Interp, Val};
        // x advances by 2 every iteration (Fig. 13's pattern).
        let src = "
            global sink: int;
            fn f(n: int) -> int {
                let x = 0;
                let s = 0;
                while (x < n) {
                    s = s + x;
                    x = x + 2;
                }
                return s;
            }
        ";
        let module = spt_frontend::compile(src).unwrap();
        let func = module.func_by_name("f").unwrap();
        // Profile every i64 binary add in the function (the x update among
        // them).
        let f = module.func(func);
        let targets: Vec<(FuncId, InstId, Ty)> = f
            .block_ids()
            .flat_map(|bb| f.block(bb).insts.clone())
            .filter(|&i| {
                matches!(
                    f.inst(i).kind,
                    spt_ir::InstKind::Binary {
                        op: spt_ir::BinOp::Add,
                        ..
                    }
                )
            })
            .map(|i| (func, i, Ty::I64))
            .collect();
        let mut prof = ValueProfile::new(targets);
        let interp = Interp::new(&module);
        interp.run("f", &[Val::from_i64(1000)], &mut prof).unwrap();
        let strided = prof
            .predictable()
            .into_iter()
            .filter(|(_, _, p, _)| matches!(p, ValuePattern::Stride(2)))
            .count();
        assert!(strided >= 1, "x = x + 2 detected as stride-2");
    }
}
