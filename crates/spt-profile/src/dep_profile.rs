//! Data-dependence profiling (§7.3 of the paper).
//!
//! For every dynamic load, the profiler finds the store that last wrote the
//! accessed cell and classifies the dependence *per enclosing loop level*:
//!
//! * **intra-iteration** — store and load happened in the same iteration of
//!   that loop;
//! * **cross-adjacent** — the load's iteration is exactly one after the
//!   store's (the dependence an SPT speculative thread can violate);
//! * **cross-far** — two or more iterations apart (harmless for the paper's
//!   one-iteration-ahead speculation, but recorded for diagnostics).
//!
//! The probability annotation the cost model consumes is
//! `p(W -> R) = matched reads at R / executions of W` — "for every N writes
//! at W, only pN reads will access the same memory location at R" (§4.1).
//!
//! # Dense representation
//!
//! The interpreter's memory is already a flat cell array, so the last-writer
//! map is a *shadow memory*: one `ShadowRec` per cell, indexed by address.
//! A store writes `(store site, loop-stack snapshot id)` to the shadow cell;
//! a load reads it back with one index. Loop-stack snapshots are interned in
//! a `SnapPool` (consecutive stores almost always share a stack, so
//! interning is one slice compare), and the pool is mark-compacted against
//! the live shadow records when it grows. Per-site execution counters are
//! per-function `Vec<u64>` rows indexed by instruction id, and the dependence
//! counts accumulate in a small open-addressed table (`DepTable`) that the
//! query methods read directly — the map-shaped views (`pairs_for_loop`) are
//! materialized only on demand.

use crate::interp::{LoopActivation, Profiler, Val};
use spt_ir::loops::LoopId;
use spt_ir::{FuncId, InstId};
use std::collections::{BTreeMap, HashMap};

/// Dependence classification relative to one loop level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Same iteration.
    Intra,
    /// Exactly one iteration apart.
    CrossAdjacent,
    /// Two or more iterations apart.
    CrossFar,
}

/// Identifies a profiled dependence: a `(store, load)` instruction pair
/// within one loop of one function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DepKey {
    /// Function containing both instructions.
    pub func: FuncId,
    /// The loop level relative to which the dependence is classified.
    pub loop_id: LoopId,
    /// The writing instruction.
    pub store: InstId,
    /// The reading instruction.
    pub load: InstId,
    /// The classification.
    pub kind: DepKind,
}

/// Per-function, per-instruction execution counters, lazily grown.
#[derive(Clone, Debug, Default)]
struct CountTable {
    rows: Vec<Vec<u64>>,
}

impl CountTable {
    #[inline]
    fn bump(&mut self, func: FuncId, inst: InstId) {
        let fi = func.index();
        if self.rows.len() <= fi {
            self.rows.resize_with(fi + 1, Vec::new);
        }
        let row = &mut self.rows[fi];
        let ii = inst.index();
        if row.len() <= ii {
            row.resize(ii + 1, 0);
        }
        row[ii] += 1;
    }

    #[inline]
    fn get(&self, func: FuncId, inst: InstId) -> u64 {
        self.rows
            .get(func.index())
            .and_then(|r| r.get(inst.index()))
            .copied()
            .unwrap_or(0)
    }
}

/// Sentinel snapshot id marking an empty shadow cell.
const NO_SNAP: u32 = u32::MAX;

/// The last store to one memory cell: site plus interned loop-stack
/// snapshot. `snap == NO_SNAP` means the cell was never written.
#[derive(Clone, Copy, Debug)]
struct ShadowRec {
    func: u32,
    inst: u32,
    snap: u32,
}

const EMPTY_REC: ShadowRec = ShadowRec {
    func: 0,
    inst: 0,
    snap: NO_SNAP,
};

/// Interned loop-stack snapshots: flattened activations plus `(offset, len)`
/// spans. Stores overwhelmingly repeat the previous stack, so interning
/// compares against the most recent snapshot only; duplicates from
/// alternating stacks are reclaimed by [`DepProfile::compact_snapshots`].
#[derive(Clone, Debug)]
struct SnapPool {
    data: Vec<LoopActivation>,
    spans: Vec<(u32, u32)>,
    last: u32,
    /// Compaction trigger on `data.len()`.
    threshold: usize,
}

const SNAP_MIN_THRESHOLD: usize = 1 << 14;

impl Default for SnapPool {
    fn default() -> Self {
        SnapPool {
            data: Vec::new(),
            spans: Vec::new(),
            last: NO_SNAP,
            threshold: SNAP_MIN_THRESHOLD,
        }
    }
}

impl SnapPool {
    #[inline]
    fn intern(&mut self, stack: &[LoopActivation]) -> u32 {
        if self.last != NO_SNAP {
            let (off, len) = self.spans[self.last as usize];
            if self.data[off as usize..(off + len) as usize] == *stack {
                return self.last;
            }
        }
        let off = self.data.len() as u32;
        self.data.extend_from_slice(stack);
        self.spans.push((off, stack.len() as u32));
        self.last = (self.spans.len() - 1) as u32;
        self.last
    }

    #[inline]
    fn get(&self, id: u32) -> &[LoopActivation] {
        let (off, len) = self.spans[id as usize];
        &self.data[off as usize..(off + len) as usize]
    }
}

/// Open-addressed `(DepKey, count)` table with linear probing; the hot-path
/// `add` is one hash plus a short probe, with no double lookups.
#[derive(Clone, Debug, Default)]
struct DepTable {
    slots: Vec<Option<(DepKey, u64)>>,
    len: usize,
}

#[inline]
fn hash_key(k: &DepKey) -> u64 {
    const M: u64 = 0xFF51_AFD7_ED55_8CCD;
    let a = ((k.func.index() as u64) << 32) | k.loop_id.index() as u64;
    let b = ((k.store.index() as u64) << 32) | k.load.index() as u64;
    let mut h = (a ^ (k.kind as u64).wrapping_mul(0x9E37_79B9)).wrapping_mul(M);
    h ^= h >> 33;
    h = (h ^ b).wrapping_mul(M);
    h ^= h >> 33;
    h
}

impl DepTable {
    #[inline]
    fn add(&mut self, key: DepKey, n: u64) {
        if self.len * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut idx = (hash_key(&key) as usize) & mask;
        loop {
            match &mut self.slots[idx] {
                Some((k, c)) if *k == key => {
                    *c += n;
                    return;
                }
                slot @ None => {
                    *slot = Some((key, n));
                    self.len += 1;
                    return;
                }
                _ => idx = (idx + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(64);
        let old = std::mem::replace(&mut self.slots, vec![None; new_cap]);
        let mask = new_cap - 1;
        for entry in old.into_iter().flatten() {
            let mut idx = (hash_key(&entry.0) as usize) & mask;
            while self.slots[idx].is_some() {
                idx = (idx + 1) & mask;
            }
            self.slots[idx] = Some(entry);
        }
    }

    #[inline]
    fn get(&self, key: &DepKey) -> u64 {
        if self.slots.is_empty() {
            return 0;
        }
        let mask = self.slots.len() - 1;
        let mut idx = (hash_key(key) as usize) & mask;
        loop {
            match &self.slots[idx] {
                Some((k, c)) if k == key => return *c,
                None => return 0,
                _ => idx = (idx + 1) & mask,
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = (&DepKey, u64)> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(k, c)| (k, *c)))
    }
}

/// Collected dependence counts.
#[derive(Clone, Debug, Default)]
pub struct DepProfile {
    dep_counts: DepTable,
    store_exec: CountTable,
    load_exec: CountTable,
    /// Shadow memory parallel to the interpreter's cell array.
    shadow: Vec<ShadowRec>,
    /// Last writers at negative addresses. The interpreter faults before
    /// delivering such events, so this stays empty in practice; it exists so
    /// the profiler is total over its input domain like the map it replaced.
    neg_shadow: HashMap<i64, ShadowRec>,
    snaps: SnapPool,
    /// Loads whose producing store lives in a different function (observed
    /// through calls); counted but not classified per loop.
    pub interproc_deps: u64,
}

impl DepProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Times the pair `(store, load)` matched with classification `kind`
    /// relative to `loop_id`.
    pub fn count(&self, key: &DepKey) -> u64 {
        self.dep_counts.get(key)
    }

    /// Executions of a store instruction.
    pub fn store_count(&self, func: FuncId, store: InstId) -> u64 {
        self.store_exec.get(func, store)
    }

    /// Executions of a load instruction.
    pub fn load_count(&self, func: FuncId, load: InstId) -> u64 {
        self.load_exec.get(func, load)
    }

    /// The paper's dependence probability for an edge `store -> load` with
    /// classification `kind` in `loop_id`:
    /// `count(matches) / executions(store)`, clamped to `[0, 1]`.
    /// Returns `None` if the store was never executed.
    pub fn dep_prob(&self, key: &DepKey) -> Option<f64> {
        let writes = self.store_count(key.func, key.store);
        if writes == 0 {
            None
        } else {
            Some((self.count(key) as f64 / writes as f64).clamp(0.0, 1.0))
        }
    }

    /// All profiled pairs for one loop, aggregated over classifications:
    /// `(store, load) -> (intra, cross_adjacent, cross_far)` counts, in
    /// `(store, load)` order.
    pub fn pairs_for_loop(
        &self,
        func: FuncId,
        loop_id: LoopId,
    ) -> BTreeMap<(InstId, InstId), (u64, u64, u64)> {
        let mut out: BTreeMap<(InstId, InstId), (u64, u64, u64)> = BTreeMap::new();
        for (key, count) in self.dep_counts.iter() {
            if key.func == func && key.loop_id == loop_id {
                let entry = out.entry((key.store, key.load)).or_insert((0, 0, 0));
                match key.kind {
                    DepKind::Intra => entry.0 += count,
                    DepKind::CrossAdjacent => entry.1 += count,
                    DepKind::CrossFar => entry.2 += count,
                }
            }
        }
        out
    }

    /// The full dependence-count map, in the shape the pre-dense profiler
    /// stored internally. Query-time conversion, for the artifact store's
    /// codec, dumps and differential tests.
    pub fn dep_counts_map(&self) -> HashMap<DepKey, u64> {
        self.dep_counts.iter().map(|(k, c)| (*k, c)).collect()
    }

    /// Returns `true` if no dependences were recorded.
    pub fn is_empty(&self) -> bool {
        self.dep_counts.len == 0
    }

    #[inline]
    fn last_writer(&self, addr: i64) -> Option<&ShadowRec> {
        if addr >= 0 {
            match self.shadow.get(addr as usize) {
                Some(rec) if rec.snap != NO_SNAP => Some(rec),
                _ => None,
            }
        } else {
            self.neg_shadow.get(&addr)
        }
    }

    /// Mark-compact the snapshot pool against the live shadow records.
    /// Amortized by doubling the trigger threshold, so total compaction work
    /// stays linear in the number of stores.
    #[cold]
    fn compact_snapshots(&mut self) {
        let mut remap: Vec<u32> = vec![NO_SNAP; self.snaps.spans.len()];
        let mut data: Vec<LoopActivation> = Vec::new();
        let mut spans: Vec<(u32, u32)> = Vec::new();
        {
            let snaps = &self.snaps;
            let mut keep = |snap: &mut u32| {
                if *snap == NO_SNAP {
                    return;
                }
                if remap[*snap as usize] == NO_SNAP {
                    let s = snaps.get(*snap);
                    let off = data.len() as u32;
                    data.extend_from_slice(s);
                    spans.push((off, s.len() as u32));
                    remap[*snap as usize] = (spans.len() - 1) as u32;
                }
                *snap = remap[*snap as usize];
            };
            for rec in &mut self.shadow {
                keep(&mut rec.snap);
            }
            for rec in self.neg_shadow.values_mut() {
                keep(&mut rec.snap);
            }
        }
        self.snaps.data = data;
        self.snaps.spans = spans;
        self.snaps.last = NO_SNAP;
        self.snaps.threshold = (self.snaps.data.len() * 2).max(SNAP_MIN_THRESHOLD);
    }
}

impl Profiler for DepProfile {
    fn on_load(
        &mut self,
        func: FuncId,
        inst: InstId,
        addr: i64,
        _value: Val,
        loops: &[LoopActivation],
    ) {
        self.load_exec.bump(func, inst);
        let Some(rec) = self.last_writer(addr) else {
            return;
        };
        if rec.func != func.index() as u32 {
            self.interproc_deps += 1;
            return;
        }
        let store = InstId::new(rec.inst as usize);
        let stack = self.snaps.get(rec.snap);
        // Classify against every loop level active at both endpoints (same
        // activation = same dynamic instance of the loop).
        for cur in loops {
            if let Some(at_store) = stack
                .iter()
                .find(|a| a.loop_id == cur.loop_id && a.activation == cur.activation)
            {
                let delta = cur.iter.saturating_sub(at_store.iter);
                let kind = match delta {
                    0 => DepKind::Intra,
                    1 => DepKind::CrossAdjacent,
                    _ => DepKind::CrossFar,
                };
                let key = DepKey {
                    func,
                    loop_id: cur.loop_id,
                    store,
                    load: inst,
                    kind,
                };
                self.dep_counts.add(key, 1);
            }
        }
    }

    fn on_store(
        &mut self,
        func: FuncId,
        inst: InstId,
        addr: i64,
        _value: Val,
        loops: &[LoopActivation],
    ) {
        self.store_exec.bump(func, inst);
        let snap = self.snaps.intern(loops);
        let rec = ShadowRec {
            func: func.index() as u32,
            inst: inst.index() as u32,
            snap,
        };
        if addr >= 0 {
            let a = addr as usize;
            if self.shadow.len() <= a {
                self.shadow.resize(a + 1, EMPTY_REC);
            }
            self.shadow[a] = rec;
        } else {
            self.neg_shadow.insert(addr, rec);
        }
        if self.snaps.data.len() >= self.snaps.threshold {
            self.compact_snapshots();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Interp, Val};
    use spt_ir::InstKind;

    fn profile(src: &str, entry: &str, args: &[Val]) -> (spt_ir::Module, DepProfile) {
        let module = spt_frontend::compile(src).unwrap();
        let mut prof = DepProfile::new();
        {
            let interp = Interp::new(&module);
            interp.run(entry, args, &mut prof).unwrap();
        }
        (module, prof)
    }

    /// Finds the single loop of `func` in the module.
    fn only_loop(module: &spt_ir::Module, name: &str) -> (FuncId, LoopId) {
        let func = module.func_by_name(name).unwrap();
        let f = module.func(func);
        let cfg = spt_ir::Cfg::compute(f);
        let dom = spt_ir::DomTree::compute(&cfg);
        let forest = spt_ir::LoopForest::compute(f, &cfg, &dom);
        assert_eq!(forest.len(), 1, "expected exactly one loop");
        (func, LoopId::new(0))
    }

    #[test]
    fn cross_iteration_dependence_detected() {
        // a[i] depends on a[i-1] written in the previous iteration.
        let src = "
            global a[64]: int;
            fn f(n: int) -> int {
                a[0] = 1;
                for (let i = 1; i < n; i = i + 1) {
                    a[i] = a[i - 1] + 1;
                }
                return a[n - 1];
            }
        ";
        let (module, prof) = profile(src, "f", &[Val::from_i64(32)]);
        let (func, lid) = only_loop(&module, "f");
        let pairs = prof.pairs_for_loop(func, lid);
        // There is a (store a[i], load a[i-1]) pair that is cross-adjacent.
        let cross_total: u64 = pairs.values().map(|(_, c, _)| *c).sum();
        assert!(
            cross_total >= 30,
            "expected ~30 cross-adjacent matches, got {cross_total}"
        );
        let intra_total: u64 = pairs.values().map(|(i, _, _)| *i).sum();
        assert_eq!(intra_total, 0);
    }

    #[test]
    fn intra_iteration_dependence_detected() {
        let src = "
            global t: int;
            fn f(n: int) -> int {
                let s = 0;
                for (let i = 0; i < n; i = i + 1) {
                    t = i * 2;
                    s = s + t;
                }
                return s;
            }
        ";
        let (module, prof) = profile(src, "f", &[Val::from_i64(16)]);
        let (func, lid) = only_loop(&module, "f");
        let pairs = prof.pairs_for_loop(func, lid);
        let intra_total: u64 = pairs.values().map(|(i, _, _)| *i).sum();
        assert_eq!(intra_total, 16, "t written then read in the same iteration");
    }

    #[test]
    fn dep_prob_matches_pattern() {
        // Store hits the same slot every iteration; load reads it in the next
        // iteration only when i % 4 == 0 -> p ~= 1/4.
        let src = "
            global t: int;
            global sink: int;
            fn f(n: int) -> int {
                let s = 0;
                for (let i = 0; i < n; i = i + 1) {
                    if (i % 4 == 0) { s = s + t; }
                    t = i;
                }
                return s;
            }
        ";
        let (module, prof) = profile(src, "f", &[Val::from_i64(400)]);
        let (func, lid) = only_loop(&module, "f");
        let f = module.func(func);
        // Find the store to `t` and the load of `t` inside the loop.
        let mut store = None;
        let mut load = None;
        for bb in f.block_ids() {
            for &i in &f.block(bb).insts {
                match f.inst(i).kind {
                    InstKind::Store { region, .. }
                        if region == module.global_by_name("t").unwrap() =>
                    {
                        store = Some(i)
                    }
                    InstKind::Load { region, .. }
                        if region == module.global_by_name("t").unwrap() =>
                    {
                        load = Some(i)
                    }
                    _ => {}
                }
            }
        }
        let key = DepKey {
            func,
            loop_id: lid,
            store: store.unwrap(),
            load: load.unwrap(),
            kind: DepKind::CrossAdjacent,
        };
        let p = prof.dep_prob(&key).unwrap();
        assert!((p - 0.25).abs() < 0.02, "p = {p}, expected ~0.25");
    }

    #[test]
    fn far_dependences_classified() {
        // a[i] reads a[i-8]: eight iterations apart.
        let src = "
            global a[128]: int;
            fn f(n: int) -> int {
                for (let i = 8; i < n; i = i + 1) {
                    a[i] = a[i - 8] + 1;
                }
                return a[n - 1];
            }
        ";
        let (module, prof) = profile(src, "f", &[Val::from_i64(64)]);
        let (func, lid) = only_loop(&module, "f");
        let pairs = prof.pairs_for_loop(func, lid);
        let far_total: u64 = pairs.values().map(|(_, _, f)| *f).sum();
        assert!(
            far_total >= 40,
            "expected many cross-far matches, got {far_total}"
        );
        let adj_total: u64 = pairs.values().map(|(_, c, _)| *c).sum();
        assert_eq!(adj_total, 0);
    }

    #[test]
    fn interprocedural_deps_counted_separately() {
        let src = "
            global t: int;
            fn set(v: int) { t = v; }
            fn f(n: int) -> int {
                let s = 0;
                for (let i = 0; i < n; i = i + 1) {
                    set(i);
                    s = s + t;
                }
                return s;
            }
        ";
        let (_module, prof) = profile(src, "f", &[Val::from_i64(10)]);
        assert_eq!(prof.interproc_deps, 10);
    }

    #[test]
    fn snapshot_pool_compaction_preserves_counts() {
        // Alternating stores from inside and outside the inner loop defeat
        // the last-snapshot dedup, forcing pool growth and (with the
        // threshold floored) exercising the compaction path indirectly.
        let src = "
            global a[8]: int;
            global b[8]: int;
            fn f(n: int) -> int {
                let s = 0;
                for (let i = 0; i < n; i = i + 1) {
                    b[i % 8] = i;
                    for (let j = 0; j < 4; j = j + 1) {
                        a[j] = a[j] + b[i % 8];
                    }
                    s = s + a[0];
                }
                return s;
            }
        ";
        let (module, mut prof) = profile(src, "f", &[Val::from_i64(50)]);
        let live_before: HashMap<DepKey, u64> = prof.dep_counts_map();
        let shadow_before: Vec<(usize, u32, u32, Vec<LoopActivation>)> = prof
            .shadow
            .iter()
            .enumerate()
            .filter(|(_, r)| r.snap != NO_SNAP)
            .map(|(a, r)| (a, r.func, r.inst, prof.snaps.get(r.snap).to_vec()))
            .collect();
        prof.compact_snapshots();
        let shadow_after: Vec<(usize, u32, u32, Vec<LoopActivation>)> = prof
            .shadow
            .iter()
            .enumerate()
            .filter(|(_, r)| r.snap != NO_SNAP)
            .map(|(a, r)| (a, r.func, r.inst, prof.snaps.get(r.snap).to_vec()))
            .collect();
        assert_eq!(shadow_before, shadow_after);
        assert_eq!(live_before, prof.dep_counts_map());
        assert!(prof.snaps.data.len() <= prof.snaps.spans.len() * 4);
        let _ = module;
    }
}
