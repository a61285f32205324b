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
//! A *loop-event clock* advances on every loop entry and every iteration.
//! For each active loop level of each frame the profiler keeps the clock
//! values at which its activation, its previous iteration and its current
//! iteration began (`LevelStart`), maintained by `on_loop` and
//! `on_call_enter`/`on_call_exit`. The interpreter's memory is a flat cell
//! array, so the last-writer map is a *shadow memory*: one 16-byte
//! `ShadowRec` per cell, indexed by address, holding the writer's site, its
//! frame's call depth and the clock at the store.
//!
//! A load classifies against the levels of its own frame only when the
//! store ran in the same function at the same call depth. Every level of
//! the frame began after the frame was entered, and at that depth no other
//! frame can run while this one is live, so a store stamped at or after a
//! level's start ran in this very frame, inside that activation. The
//! store's clock against the level's three starts then classifies it: at
//! or after the start of the current iteration is `Intra`, of the previous
//! iteration `CrossAdjacent`, of the activation `CrossFar`, and before the
//! activation no match. That is exactly the (activation, iteration) match
//! of the definition, which keeps every store's whole loop stack
//! ([`crate::reference::ReferenceDepProfile`], the oracle).
//!
//! The pipeline sizes the shadow once for the module's memory
//! ([`DepProfile::with_cells`]); other callers let it grow on demand.
//! Per-site execution counters are per-function `Vec<u64>` rows indexed by
//! instruction id, and the dependence counts accumulate in a small
//! open-addressed table (`DepTable`) that the query methods read directly —
//! the map-shaped views (`pairs_for_loop`) are materialized only on demand.

use crate::interp::{LoopActivation, LoopEvent, Profiler, Val};
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

/// The last store to one memory cell: its site, and a stamp packing the
/// loop-event clock at the store (high bits) with its frame's call depth
/// (low [`DEPTH_BITS`] bits). [`NEVER`] marks a cell no store wrote.
#[derive(Clone, Copy, Debug)]
struct ShadowRec {
    func: u32,
    inst: u32,
    stamp: u64,
}

/// Bits of a stamp holding the call depth. Depths are kept modulo 2^16: a
/// store 65,536 calls deeper than a load's frame would pass for one of the
/// frame's own. The interpreter stops at a depth of
/// [`crate::interp::DEFAULT_MAX_DEPTH`] unless told otherwise.
const DEPTH_BITS: u32 = 16;
const DEPTH_MASK: u64 = (1 << DEPTH_BITS) - 1;

/// The stamp of a cell no store wrote.
const NEVER: u64 = u64::MAX;

const EMPTY_REC: ShadowRec = ShadowRec {
    func: 0,
    inst: 0,
    stamp: NEVER,
};

/// Clock values at which one active loop level began: its activation, its
/// previous iteration (the activation, during iteration 0) and its current
/// iteration.
#[derive(Clone, Copy, Debug)]
struct LevelStart {
    activation: u64,
    prev_iter: u64,
    iter: u64,
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
    /// The loop-event clock.
    clock: u64,
    /// The starts of every frame's active loop levels, outermost first and
    /// the running frame's last: its levels are `levels[base..]`.
    levels: Vec<LevelStart>,
    base: usize,
    /// The callers' `base`s, innermost last; its length is the call depth.
    callers: Vec<usize>,
    /// Loads whose producing store lives in a different function (observed
    /// through calls); counted but not classified per loop.
    pub interproc_deps: u64,
}

impl DepProfile {
    /// Creates an empty profile whose shadow memory grows on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty profile whose shadow memory covers `cells` memory
    /// cells from the start (a module's
    /// [`memory_layout`](spt_ir::Module::memory_layout) size), so a run
    /// over that memory never grows it.
    pub fn with_cells(cells: usize) -> Self {
        DepProfile {
            shadow: vec![EMPTY_REC; cells],
            ..Self::default()
        }
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
                Some(rec) if rec.stamp != NEVER => Some(rec),
                _ => None,
            }
        } else {
            self.neg_shadow.get(&addr)
        }
    }

    /// The running frame's call depth, as a stamp holds it.
    #[inline]
    fn depth(&self) -> u64 {
        self.callers.len() as u64 & DEPTH_MASK
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
        let Some(&rec) = self.last_writer(addr) else {
            return;
        };
        if rec.func != func.index() as u32 {
            self.interproc_deps += 1;
            return;
        }
        // Only a store of this very frame can share one of its loop
        // activations (see the module docs).
        if rec.stamp & DEPTH_MASK != self.depth() {
            return;
        }
        let at = rec.stamp >> DEPTH_BITS;
        let store = InstId::new(rec.inst as usize);
        // Outermost first: each level began no earlier than the one around
        // it, so a store before one level's activation matches none inside.
        for (cur, start) in loops.iter().zip(&self.levels[self.base..]) {
            let kind = if at >= start.iter {
                DepKind::Intra
            } else if at >= start.prev_iter {
                DepKind::CrossAdjacent
            } else if at >= start.activation {
                DepKind::CrossFar
            } else {
                break;
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

    fn on_store(
        &mut self,
        func: FuncId,
        inst: InstId,
        addr: i64,
        _value: Val,
        _loops: &[LoopActivation],
    ) {
        self.store_exec.bump(func, inst);
        let rec = ShadowRec {
            func: func.index() as u32,
            inst: inst.index() as u32,
            stamp: (self.clock << DEPTH_BITS) | self.depth(),
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
    }

    fn on_loop(&mut self, _func: FuncId, event: LoopEvent, _loops: &[LoopActivation]) {
        match event {
            LoopEvent::Enter(_) => {
                self.clock += 1;
                self.levels.push(LevelStart {
                    activation: self.clock,
                    prev_iter: self.clock,
                    iter: self.clock,
                });
            }
            LoopEvent::Iterate(_) => {
                self.clock += 1;
                if let Some(top) = self.levels.last_mut() {
                    top.prev_iter = top.iter;
                    top.iter = self.clock;
                }
            }
            LoopEvent::Exit(_) => {
                self.levels.pop();
            }
        }
    }

    fn on_call_enter(&mut self, _caller: FuncId, _inst: InstId, _callee: FuncId) {
        self.callers.push(self.base);
        self.base = self.levels.len();
    }

    fn on_call_exit(&mut self, _caller: FuncId, _inst: InstId, _callee: FuncId) {
        // A returning callee has exited its loops already.
        self.levels.truncate(self.base);
        self.base = self.callers.pop().unwrap_or(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Interp, Val};
    use crate::reference::{ReferenceDepProfile, ReferenceInterp};
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

    /// Profiles `entry(args)` with the engine's `DepProfile`, growing on
    /// demand and pre-sized, and with the reference profiler on the
    /// reference interpreter; requires all three to agree and returns the
    /// engine's profile.
    fn assert_matches_reference(src: &str, entry: &str, args: &[Val]) -> DepProfile {
        let module = spt_frontend::compile(src).unwrap();
        let interp = Interp::new(&module);
        let mut grown = DepProfile::new();
        interp.run(entry, args, &mut grown).unwrap();
        let cells = module.memory_layout().1;
        let mut sized = DepProfile::with_cells(cells);
        interp.run(entry, args, &mut sized).unwrap();
        assert_eq!(sized.shadow.len(), cells, "a pre-sized shadow never grows");
        let mut reference = ReferenceDepProfile::new();
        ReferenceInterp::new(&module)
            .run(entry, args, &mut reference)
            .unwrap();
        for prof in [&grown, &sized] {
            if let Some(diff) = reference.first_difference(&module, prof) {
                panic!("{entry}: {diff}");
            }
        }
        sized
    }

    fn kinds(prof: &DepProfile) -> (u64, u64, u64) {
        let mut out = (0, 0, 0);
        for (key, count) in prof.dep_counts_map() {
            match key.kind {
                DepKind::Intra => out.0 += count,
                DepKind::CrossAdjacent => out.1 += count,
                DepKind::CrossFar => out.2 += count,
            }
        }
        out
    }

    #[test]
    fn shadow_records_are_16_bytes() {
        assert_eq!(std::mem::size_of::<ShadowRec>(), 16);
    }

    #[test]
    fn recursion_matches_only_the_loads_own_frame() {
        // A frame that recurses reads `t` and `a[i]` after the deeper call
        // rewrote them, which matches nothing. Only the 81 leaves read their
        // own stores, from the iteration before, in iterations 1 and 2.
        let src = "
            global t: int;
            global a[8]: int;
            fn r(d: int) -> int {
                let s = 0;
                for (let i = 0; i < 3; i = i + 1) {
                    if (d > 0) { s = s + r(d - 1); }
                    s = s + t + a[i];
                    t = i + d;
                    a[i + 1] = s;
                }
                return s;
            }
        ";
        let prof = assert_matches_reference(src, "r", &[Val::from_i64(4)]);
        assert_eq!(kinds(&prof), (0, 81 * 2 * 2, 0));
        assert_eq!(prof.interproc_deps, 0);
    }

    #[test]
    fn repeated_calls_never_match_an_earlier_call() {
        // `g` runs at the same depth twice; the second call's loop reads
        // what the first call stored, which no activation of it covers.
        let src = "
            global a[16]: int;
            fn g(n: int) -> int {
                let s = 0;
                for (let i = 0; i < n; i = i + 1) {
                    s = s + a[i];
                    a[i] = s + 1;
                }
                return s;
            }
            fn main(n: int) -> int { return g(n) + g(n) + g(n / 2); }
        ";
        let prof = assert_matches_reference(src, "main", &[Val::from_i64(12)]);
        assert!(prof.is_empty(), "{:?}", prof.dep_counts_map());
    }

    #[test]
    fn calls_in_nested_loops_keep_the_callers_levels() {
        // The callee writes `t` and runs its own loop; the caller's two
        // levels classify their own stores around the calls.
        let src = "
            global t: int;
            global b[64]: int;
            fn bump(k: int) -> int {
                let s = 0;
                for (let j = 0; j < k; j = j + 1) { b[j] = b[j] + j; s = s + b[j]; }
                t = s;
                return s;
            }
            fn f(n: int) -> int {
                let s = 0;
                for (let i = 0; i < n; i = i + 1) {
                    for (let j = 0; j < 4; j = j + 1) {
                        s = s + bump(j + 1) + b[i + j] + t;
                        b[i + j + 2] = s % 97;
                    }
                }
                return s;
            }
        ";
        let prof = assert_matches_reference(src, "f", &[Val::from_i64(9)]);
        let (intra, adjacent, far) = kinds(&prof);
        assert!(
            intra > 0 && adjacent > 0 && far > 0,
            "{:?}",
            (intra, adjacent, far)
        );
        assert!(prof.interproc_deps > 0);
    }

    #[test]
    fn multi_level_exits_drop_every_exited_level() {
        // A return from the inner loop leaves both levels at once; a break
        // leaves the inner one mid-iteration.
        let src = "
            global a[64]: int;
            fn find(n: int, k: int) -> int {
                for (let i = 0; i < n; i = i + 1) {
                    for (let j = 0; j < n; j = j + 1) {
                        if (a[i * 4 + j % 4] == k) { return i; }
                        if (j > i) { break; }
                        a[(i + j) % 64] = a[(i + j) % 64] + 1;
                    }
                    a[i] = a[i] + i;
                }
                return 0 - 1;
            }
            fn main(n: int) -> int {
                let s = 0;
                for (let r = 0; r < 5; r = r + 1) { s = s + find(n, r + 3); }
                return s;
            }
        ";
        let prof = assert_matches_reference(src, "main", &[Val::from_i64(12)]);
        assert!(!prof.is_empty());
    }

    #[test]
    fn stores_before_loop_entry_match_no_level() {
        // `t` and `a[0]` are written before the loop: reading them in the
        // first iteration is no loop-carried dependence, while the later
        // reads of `a[i - 1]` are.
        let src = "
            global t: int;
            global a[64]: int;
            fn f(n: int) -> int {
                t = n;
                a[0] = 1;
                let s = 0;
                for (let i = 1; i < n; i = i + 1) {
                    s = s + t;
                    a[i] = a[i - 1] + 1;
                }
                for (let i = 1; i < n; i = i + 1) { s = s + a[i]; }
                return s;
            }
        ";
        let prof = assert_matches_reference(src, "f", &[Val::from_i64(20)]);
        assert_eq!(kinds(&prof), (0, 18, 0));
    }

    #[test]
    fn alternating_loop_stacks_match_reference() {
        // Stores alternate between the outer and the inner loop level.
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
        let prof = assert_matches_reference(src, "f", &[Val::from_i64(50)]);
        let (intra, adjacent, _) = kinds(&prof);
        assert!(intra > 0 && adjacent > 0, "{:?}", (intra, adjacent));
    }
}
