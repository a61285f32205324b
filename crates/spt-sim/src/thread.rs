//! A core's architectural state and the memory views its executors use.
//!
//! A `Thread` holds a call-frame stack; the simulator's superblock walks
//! (main thread, speculative core, validation replay) advance it over the
//! module's superblock code, one op per instruction, reporting what each
//! instruction did as an [`ExecRecord`] and each control event as a
//! [`StepEvent`]. Block entries schedule the target's leading phis from the
//! same [`PhiRow`](spt_ir::superblock::PhiRow)s the interpreter enters
//! through. The main core reads and writes committed memory directly; the
//! speculative core goes through a [`MemView`], a write-buffer overlay whose
//! buffer is an inline open-addressed table ([`SpecBuf`]) instead of a
//! `HashMap`.

use spt_ir::superblock::{SBlock, SuperblockFunc, SuperblockModule};
use spt_ir::{BlockId, DVal, FuncId, InstId};
use std::fmt;

/// Execution faults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// Memory access out of bounds.
    OutOfBounds(i64),
    /// Call depth exceeded.
    StackOverflow,
    /// The speculative store buffer overflowed (speculation must stop; not a
    /// program error).
    SpecBufferFull,
    /// Structurally invalid IR reached at runtime.
    Malformed(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfBounds(a) => write!(f, "memory access out of bounds: {a}"),
            ExecError::StackOverflow => write!(f, "call depth exceeded"),
            ExecError::SpecBufferFull => write!(f, "speculative store buffer full"),
            ExecError::Malformed(m) => write!(f, "malformed IR: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Absent-key marker for [`SpecBuf`] slots. Cell indexes are bounded by the
/// module memory size, so the marker can never collide with a real key.
const EMPTY_KEY: u64 = u64::MAX;

/// The speculative store buffer: a small linear-probing hash table with a
/// *semantic* capacity (the machine's `spec_buffer_entries`) enforced
/// exactly like the `HashMap` it replaced — an insert of a *new* cell when
/// `len >= cap` faults with [`ExecError::SpecBufferFull`]; overwrites always
/// succeed.
#[derive(Clone, Debug)]
pub struct SpecBuf {
    keys: Vec<u64>,
    vals: Vec<u64>,
    len: usize,
    cap: usize,
    /// Occupied slot indices, so reset clears only the dirty slots instead
    /// of refilling the whole table (episodes typically buffer a handful of
    /// cells; the table is sized for the worst case).
    used: Vec<u32>,
}

impl SpecBuf {
    /// An empty buffer holding at most `cap` distinct cells.
    pub fn new(cap: usize) -> Self {
        let mut buf = SpecBuf {
            keys: Vec::new(),
            vals: Vec::new(),
            len: 0,
            cap,
            used: Vec::new(),
        };
        buf.reset(cap);
        buf
    }

    /// Clears the buffer and (re)sizes it for `cap` distinct cells. Reuses
    /// the existing allocation when possible, so a simulator can keep one
    /// buffer across episodes.
    pub fn reset(&mut self, cap: usize) {
        self.cap = cap;
        let want = cap.saturating_mul(2).next_power_of_two().clamp(16, 1 << 16);
        if self.keys.len() == want {
            for &i in &self.used {
                self.keys[i as usize] = EMPTY_KEY;
            }
        } else {
            self.keys = vec![EMPTY_KEY; want];
            self.vals = vec![0; want];
        }
        self.used.clear();
        self.len = 0;
    }

    /// Number of distinct buffered cells.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no writes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline(always)]
    fn slot_of(&self, key: u64) -> usize {
        let mask = self.keys.len() - 1;
        let mut idx = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        loop {
            let k = self.keys[idx];
            if k == key || k == EMPTY_KEY {
                return idx;
            }
            idx = (idx + 1) & mask;
        }
    }

    /// The buffered value for `cell`, if any.
    #[inline]
    pub fn get(&self, cell: u64) -> Option<u64> {
        if self.len == 0 {
            return None; // common case: nothing buffered yet, skip the probe
        }
        let idx = self.slot_of(cell);
        if self.keys[idx] == cell {
            Some(self.vals[idx])
        } else {
            None
        }
    }

    #[inline]
    fn insert(&mut self, cell: u64, bits: u64) -> Result<(), ExecError> {
        let idx = self.slot_of(cell);
        if self.keys[idx] == cell {
            self.vals[idx] = bits;
            return Ok(());
        }
        if self.len >= self.cap {
            return Err(ExecError::SpecBufferFull);
        }
        self.keys[idx] = cell;
        self.vals[idx] = bits;
        self.used.push(idx as u32);
        self.len += 1;
        if self.len * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        Ok(())
    }

    #[cold]
    fn grow(&mut self) {
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_KEY; self.vals.len() * 2]);
        let old_vals = std::mem::replace(&mut self.vals, vec![0; self.keys.len()]);
        self.used.clear();
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY_KEY {
                let idx = self.slot_of(k);
                self.keys[idx] = k;
                self.vals[idx] = v;
                self.used.push(idx as u32);
            }
        }
    }
}

/// Memory as seen by the speculative core: the fork-time snapshot with the
/// speculative store buffer over it.
pub struct MemView<'a> {
    /// Committed memory at fork time.
    pub base: &'a [u64],
    /// Buffered speculative writes (capacity enforced by the buffer).
    pub buf: &'a mut SpecBuf,
}

impl MemView<'_> {
    #[inline]
    pub(crate) fn read(&self, cell: i64) -> Result<u64, ExecError> {
        let idx = usize::try_from(cell).map_err(|_| ExecError::OutOfBounds(cell))?;
        match self.buf.get(idx as u64) {
            Some(v) => Ok(v),
            None => self
                .base
                .get(idx)
                .copied()
                .ok_or(ExecError::OutOfBounds(cell)),
        }
    }

    #[inline]
    pub(crate) fn write(&mut self, cell: i64, bits: u64) -> Result<(), ExecError> {
        let idx = usize::try_from(cell).map_err(|_| ExecError::OutOfBounds(cell))?;
        if idx >= self.base.len() {
            return Err(ExecError::OutOfBounds(cell));
        }
        self.buf.insert(idx as u64, bits)
    }
}

/// What one instruction executed.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecRecord {
    /// Function of the executed instruction.
    pub func: FuncId,
    /// The instruction.
    pub inst: InstId,
    /// Defined value bits, if any.
    pub result: Option<u64>,
    /// `(cell, bits)` when the instruction stored.
    pub store: Option<(i64, u64)>,
    /// Latency charged (0 under validation).
    pub latency: u64,
    /// Core cycle at completion (meaningful when timed).
    pub cycle_end: u64,
}

/// Control event accompanying an executed instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum StepEvent {
    /// Plain instruction.
    Continue,
    /// Control moved between blocks of the current frame.
    Transfer {
        /// Destination block.
        to: BlockId,
        /// Function it happened in.
        func: FuncId,
    },
    /// An `SPT_FORK` executed.
    Fork {
        /// Loop tag.
        tag: u32,
        /// Spawn target (loop header).
        target: BlockId,
        /// Function containing the fork.
        func: FuncId,
    },
    /// An `SPT_KILL` executed.
    Kill {
        /// Loop tag.
        tag: u32,
    },
    /// The outermost frame returned; the thread is finished.
    Finished {
        /// Return value bits.
        value: Option<u64>,
    },
}

#[derive(Clone, Debug)]
pub(crate) struct Frame {
    pub(crate) func: FuncId,
    pub(crate) values: Vec<u64>,
    pub(crate) args: Vec<u64>,
    pub(crate) block: BlockId,
    /// Fetch cursor: index of the next instruction in the current block's
    /// body (leading phis are delivered through `pending`);
    /// [`spt_ir::SuperblockFunc::op_at`] maps it to the op that executes it.
    pub(crate) pos: u32,
    pub(crate) ret_slot: Option<InstId>,
    /// Phi writes scheduled by the last transfer, delivered one retired
    /// instruction each from `pending_head` onward.
    pub(crate) pending: Vec<(InstId, u64)>,
    pub(crate) pending_head: usize,
}

/// A core's architectural state: a stack of call frames.
pub(crate) struct Thread {
    pub(crate) frames: Vec<Frame>,
    /// Returned frames, recycled on the next call so the call/return hot
    /// path reuses value vectors instead of allocating per call.
    pub(crate) pool: Vec<Frame>,
    /// Maximum call depth.
    pub(crate) max_depth: usize,
}

impl Thread {
    /// Starts a thread at `func`'s entry with the given arguments.
    pub(crate) fn start(sup: &SuperblockModule, func: FuncId, args: Vec<u64>) -> Self {
        let sf = sup.func(func);
        Thread {
            frames: vec![Frame {
                func,
                values: vec![0; sf.num_values],
                args,
                block: sf.entry,
                pos: 0,
                ret_slot: None,
                pending: Vec::new(),
                pending_head: 0,
            }],
            pool: Vec::new(),
            max_depth: 256,
        }
    }

    /// Current function of the innermost frame.
    pub(crate) fn current_func(&self) -> FuncId {
        self.frames.last().expect("live thread").func
    }

    /// Call depth.
    pub(crate) fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Borrowed view of the innermost frame's context, for callers that
    /// copy it into a reused thread instead of allocating.
    pub(crate) fn context_ref(&self) -> (&[u64], &[u64]) {
        let f = self.frames.last().expect("live thread");
        (&f.values, &f.args)
    }

    /// Re-initializes this thread as a *speculative* thread at block
    /// `header` of `func`, with a copy of the forking frame's context,
    /// reusing its allocations (the fork hot path calls this once per
    /// episode). Header phis take their latch-edge operand values from the
    /// copied context — the hardware semantics of "the context of the main
    /// thread is copied to the speculative thread" (§1). With no latch row
    /// (a spawn target that is not a loop header) every phi reads 0.
    pub(crate) fn restart_spec(
        &mut self,
        sup: &SuperblockModule,
        func: FuncId,
        context: &[u64],
        args: &[u64],
        header: BlockId,
        latch: BlockId,
    ) {
        let mut frame = match self.frames.pop() {
            Some(f) => {
                while let Some(extra) = self.frames.pop() {
                    self.pool.push(extra);
                }
                f
            }
            None => self.pool.pop().unwrap_or_else(|| Frame {
                func,
                values: Vec::new(),
                args: Vec::new(),
                block: header,
                pos: 0,
                ret_slot: None,
                pending: Vec::new(),
                pending_head: 0,
            }),
        };
        frame.func = func;
        frame.values.clear();
        frame.values.extend_from_slice(context);
        frame.args.clear();
        frame.args.extend_from_slice(args);
        frame.block = header;
        frame.pos = 0;
        frame.ret_slot = None;
        frame.schedule_phis(&sup.func(func).blocks[header.index()], latch);
        self.frames.push(frame);
    }

    /// Pushes a frame calling `callee` from the innermost frame: arguments
    /// read against the caller's values, execution at the callee's entry
    /// body (entry-block phis are not scheduled), a returned value bound
    /// for `ret_slot` of the caller.
    ///
    /// # Errors
    ///
    /// [`ExecError::StackOverflow`] at the depth limit.
    pub(crate) fn push_call(
        &mut self,
        sup: &SuperblockModule,
        callee: FuncId,
        args: &[DVal],
        ret_slot: InstId,
    ) -> Result<(), ExecError> {
        if self.frames.len() >= self.max_depth {
            return Err(ExecError::StackOverflow);
        }
        let caller = self
            .frames
            .last()
            .ok_or_else(|| ExecError::Malformed("call on finished thread".into()))?;
        let callee_sf = sup.func(callee);
        let entry = callee_sf.entry;
        let mut frame = self.pool.pop().unwrap_or_else(|| Frame {
            func: callee,
            values: Vec::new(),
            args: Vec::new(),
            block: entry,
            pos: 0,
            ret_slot: None,
            pending: Vec::new(),
            pending_head: 0,
        });
        frame.args.clear();
        frame
            .args
            .extend(args.iter().map(|a| a.read(&caller.values)));
        frame.values.clear();
        frame.values.resize(callee_sf.num_values, 0);
        frame.func = callee;
        frame.block = entry;
        frame.pos = 0;
        frame.ret_slot = Some(ret_slot);
        frame.pending.clear();
        frame.pending_head = 0;
        self.frames.push(frame);
        Ok(())
    }
}

impl Frame {
    /// Schedules `block`'s leading-phi writes for entry along the edge from
    /// `pred`, every source read against the current values before any phi
    /// is written: the edge's [`PhiRow`](spt_ir::superblock::PhiRow) applies
    /// (a missing source reads 0), and with no matching row every phi reads
    /// 0.
    fn schedule_phis(&mut self, block: &SBlock, pred: BlockId) {
        self.pending.clear();
        self.pending_head = 0;
        match block.phi_rows.iter().find(|r| r.pred == pred) {
            Some(row) => {
                for (&phi, src) in block.phis.iter().zip(row.srcs.iter()) {
                    let v = src.read(&self.values);
                    self.pending.push((phi, v));
                }
            }
            None => self.pending.extend(block.phis.iter().map(|&phi| (phi, 0))),
        }
    }
}

/// Performs an intra-function block transfer: schedules the target's phi
/// writes for the incoming edge and points the frame at the target's body.
pub(crate) fn transfer(frame: &mut Frame, sf: &SuperblockFunc, target: BlockId) {
    let from = frame.block;
    frame.schedule_phis(&sf.blocks[target.index()], from);
    frame.block = target;
    frame.pos = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_ir::Module;

    fn run_to_end(module: &Module, entry: &str, args: Vec<u64>) -> (Option<u64>, u64) {
        let args: Vec<i64> = args.into_iter().map(|a| a as i64).collect();
        let r = crate::SptSimulator::new()
            .run(module, entry, &args)
            .expect("no faults");
        (r.ret, r.cycles)
    }

    #[test]
    fn computes_like_the_interpreter() {
        let src = "
            global out[16]: int;
            fn helper(x: int) -> int { return x * 3 + 1; }
            fn main(n: int) -> int {
                let s = 0;
                for (let i = 0; i < n; i = i + 1) {
                    if (i % 2 == 0) { s = s + helper(i); } else { s = s - i; }
                    out[i % 16] = s;
                }
                return s;
            }
        ";
        let module = spt_frontend::compile(src).unwrap();
        let (val, cycles) = run_to_end(&module, "main", vec![20]);
        // Cross-check against the reference interpreter.
        let interp = spt_profile::Interp::new(&module);
        let expected = interp
            .run(
                "main",
                &[spt_profile::Val::from_i64(20)],
                &mut spt_profile::NoProfiler,
            )
            .unwrap()
            .ret
            .unwrap()
            .as_i64();
        assert_eq!(val.unwrap() as i64, expected);
        assert!(cycles > 0);
    }

    #[test]
    fn timing_reflects_cache_locality() {
        let src = "
            global a[32768]: int;
            fn scan(n: int, stride: int) -> int {
                let s = 0;
                for (let i = 0; i < n; i = i + 1) {
                    s = s + a[(i * stride) % 32768];
                }
                return s;
            }
        ";
        let module = spt_frontend::compile(src).unwrap();
        let (_, seq_cycles) = run_to_end(&module, "scan", vec![4000, 1]);
        let (_, rand_cycles) = run_to_end(&module, "scan", vec![4000, 97]);
        assert!(
            rand_cycles > seq_cycles,
            "strided access must cost more: {rand_cycles} vs {seq_cycles}"
        );
    }

    #[test]
    fn spec_overlay_buffers_writes() {
        let mut base = vec![1u64, 2, 3];
        let mut buf = SpecBuf::new(8);
        {
            let mut view = MemView {
                base: &base,
                buf: &mut buf,
            };
            assert_eq!(view.read(1).unwrap(), 2);
            view.write(1, 42).unwrap();
            assert_eq!(view.read(1).unwrap(), 42);
        }
        // Base untouched.
        assert_eq!(base[1], 2);
        assert_eq!(buf.get(1), Some(42));
        base[0] = 9; // keep mutability used
    }

    #[test]
    fn spec_buffer_capacity_enforced() {
        let base = vec![0u64; 100];
        let mut buf = SpecBuf::new(2);
        let mut view = MemView {
            base: &base,
            buf: &mut buf,
        };
        view.write(0, 1).unwrap();
        view.write(1, 1).unwrap();
        view.write(0, 2).unwrap(); // overwrite ok
        assert_eq!(view.write(2, 1).unwrap_err(), ExecError::SpecBufferFull);
    }

    #[test]
    fn spec_buffer_survives_reset_and_growth() {
        let mut buf = SpecBuf::new(4096);
        for k in 0..4096u64 {
            buf.insert(k * 3, k).unwrap();
        }
        assert_eq!(buf.len(), 4096);
        for k in 0..4096u64 {
            assert_eq!(buf.get(k * 3), Some(k));
        }
        assert_eq!(
            buf.insert(99_999, 1).unwrap_err(),
            ExecError::SpecBufferFull
        );
        buf.reset(2);
        assert!(buf.is_empty());
        assert_eq!(buf.get(0), None);
        buf.insert(7, 7).unwrap();
        assert_eq!(buf.get(7), Some(7));
    }

    #[test]
    fn oob_faults() {
        let base = vec![0u64; 4];
        let mut buf = SpecBuf::new(4);
        let mut view = MemView {
            base: &base,
            buf: &mut buf,
        };
        assert!(matches!(view.read(10), Err(ExecError::OutOfBounds(10))));
        assert!(matches!(view.read(-1), Err(ExecError::OutOfBounds(-1))));
        assert!(matches!(view.write(4, 1), Err(ExecError::OutOfBounds(4))));
    }
}
