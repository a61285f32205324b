//! Superblock lowering: fused threaded-code compilation of the decoded IR.
//!
//! This module compiles every block body once per module into an array of
//! *superinstructions* ([`SInst`]) that the profiling interpreter and the
//! SPT simulator execute by threaded-code dispatch. It is their only
//! executable form:
//!
//! * **constant folding** — pure ops whose operands are all immediates
//!   collapse to a single pre-computed [`SOpc::FoldedDef`];
//! * **immediate specialization** — every opcode comes in slot/slot and
//!   slot/immediate forms (`AddRR`/`AddImm`, `CmpRR`/`CmpImm`, `StoreRR`/
//!   `StoreRI`/…), so the hot dispatch loop never re-discriminates operand
//!   kinds: an [`SInst`] operand (`a`, `b`, `aux`) is always a value-array
//!   slot index, and constants live pre-extracted in `imm`;
//! * **peephole fusion** — the dominant adjacent pairs (`CmpI64` + `Branch`,
//!   `Load` + `BinI64`, `BinI64` + `Store`, address generation, loop
//!   backedges, arithmetic chains) become single ops ([`SOpc::CmpBr`],
//!   [`SOpc::LoadBin`], [`SOpc::BinStore`], …);
//! * **register windows** — when a fused pair's intermediate value has no
//!   other use in the function (counting every operand, phi-source row and
//!   context copy), its write to the frame's value array is elided
//!   ([`NO_SLOT`]): the value flows through the pair in a register instead
//!   of round-tripping through the slot array.
//!
//! **Lowering is total.** Every instruction of every block lowers: calls
//! ([`SOpc::Call`], arguments in [`SuperblockFunc::args`]), stray non-leading
//! phis ([`SOpc::SkipPhi`]), pre-SSA variable accesses
//! ([`SOpc::Unsupported`]) and constant/constant stores at any address
//! ([`SOpc::StoreII`]) each become one-constituent ops, and a block whose
//! body does not end in a terminator (including an empty one) ends in a
//! [`SOpc::FallOff`] sentinel. Leading phis, however many, lower to one
//! [`PhiRow`] per predecessor edge; a row records a missing source instead
//! of refusing it, so each engine reproduces its own runtime behavior for
//! malformed merges (the interpreter faults, the simulator reads 0).
//!
//! **Every stream position is an entry.** [`SuperblockFunc::op_at`] maps
//! each position of [`DecodedFunc::stream`] to the op that resumes there: an
//! op start, the next op after an elided constant, or — for the second
//! instruction of a fused pair — the pair's *tail*, a one-constituent op
//! emitted right after the pair that reads the first constituent's real
//! slot. Straight-line execution skips tails; only the simulator's main
//! thread enters one, when a validation replay stopped between the two
//! constituents of a pair (the replay writes every constituent's slot
//! unconditionally, so the tail never reads an elided value).
//!
//! The hot [`SInst`] is a 40-byte `Copy` record; the cold per-op metadata
//! engines need for accounting and event replay (constituent [`InstId`]s,
//! static latencies, stream positions) lives in a parallel [`SMeta`] array.
//! Lowering is purely structural: per-instruction retire order, profiler
//! events and timing semantics are properties of the executing engine, which
//! replays them per constituent instruction ([`SMeta::inst`]/[`SMeta::inst2`])
//! of each fused op. [`SBlock::retires`]/[`SBlock::cycles`] additionally
//! pre-aggregate a block's retirement accounting so non-observing runs can
//! batch it per block entry.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::decoded::{DBlock, DInst, DKind, DVal, DecodedFunc, DecodedModule};
use crate::ids::{BlockId, FuncId, InstId};
use crate::ops::{BinOp, CmpOp, UnOp};

/// Slot sentinel: the op defines no slot (or the write is elided because the
/// fused consumer is the value's only use).
pub const NO_SLOT: u32 = u32::MAX;

/// Flag bit on [`SInst::flags`]: the *swapped* operand order.
/// For `LoadBin`/`LoadBinImm` the loaded value is the **right** operand of
/// the binary op; for `BinStoreImm` the immediate is the **left** operand.
pub const F_SWAP: u8 = 1;

/// [`SOpc::Fuse2`] flag: the first op's second operand is the packed
/// immediate `imm1` (low 32 bits of `imm`, sign-extended) instead of slot
/// `b`.
pub const F2_IMM1: u8 = 2;
/// [`SOpc::Fuse2`] flag: the second op's other operand is the packed
/// immediate `imm2` (high 32 bits of `imm`, sign-extended) instead of slot
/// `aux`.
pub const F2_IMM2: u8 = 4;
/// [`SOpc::Fuse2`] flag: the intermediate value is the **right** operand of
/// the second op.
pub const F2_R_RIGHT: u8 = 8;
/// [`SOpc::Fuse2`] flag: the first op's operands are reversed (`bin(y, x)`
/// instead of `bin(x, y)`).
pub const F2_OP1_REV: u8 = 16;

/// Superinstruction opcodes. Field usage per opcode is documented on
/// [`SInst`]. `RR` suffixes read both operands from slots, `Imm` forms carry
/// one constant in [`SInst::imm`]. Every opcode before [`SOpc::CmpBr`] has
/// one constituent instruction; `CmpBr` and everything after it are fused
/// pairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SOpc {
    /// Parameter read: `dst = args[imm]` (missing arg reads 0). No def hook.
    Param,
    /// Constant materialization: `dst = imm`. No def hook.
    ConstV,
    /// Constant-folded pure op: `dst = imm`, def hook fires.
    FoldedDef,
    /// `dst = a + b` (wrapping `i64`).
    AddRR,
    /// `dst = a + imm` (wrapping `i64`).
    AddImm,
    /// `dst = a - b` (wrapping `i64`).
    SubRR,
    /// `dst = a - imm` (wrapping `i64`).
    SubImm,
    /// `dst = imm - a` (wrapping `i64`).
    RsbImm,
    /// `dst = a * b` (wrapping `i64`).
    MulRR,
    /// `dst = a * imm` (wrapping `i64`).
    MulImm,
    /// Generic integer binary op: `dst = bin(a, b)`.
    BinRR,
    /// Generic integer binary op: `dst = bin(a, imm)`.
    BinImm,
    /// Generic integer binary op, immediate on the left: `dst = bin(imm, a)`.
    BinImmL,
    /// Float binary op: `dst = bin(a, b)`.
    BinF64RR,
    /// Float binary op: `dst = bin(a, imm)`.
    BinF64Imm,
    /// Float binary op, immediate on the left: `dst = bin(imm, a)`.
    BinF64ImmL,
    /// Integer unary op `un` on `a`.
    UnI64,
    /// Float unary op `un` on `a`.
    UnF64,
    /// `i64 -> f64` conversion of `a`.
    IntToFloat,
    /// `f64 -> i64` conversion of `a`.
    FloatToInt,
    /// Value copy of slot `a`.
    Copy,
    /// Integer comparison: `dst = cmp(a, b)` as 0/1.
    CmpRR,
    /// Integer comparison: `dst = cmp(a, imm)` as 0/1. A constant left
    /// operand is canonicalized here via [`cmp_swapped`].
    CmpImm,
    /// Float comparison: `dst = cmp(a, b)` as 0/1.
    CmpF64RR,
    /// Float comparison: `dst = cmp(a, imm)` as 0/1 (left constants
    /// canonicalized via [`cmp_swapped`]; exact for NaN, which compares
    /// false under every ordering either way).
    CmpF64Imm,
    /// Memory load from address slot `a`.
    Load,
    /// Memory load from constant address `imm`.
    LoadImm,
    /// Store value slot `b` to address slot `a`.
    StoreRR,
    /// Store constant `imm` to address slot `a`.
    StoreRI,
    /// Store value slot `b` to constant address `imm`.
    StoreIR,
    /// Store the constant `a | b << 32` to constant address `imm`.
    StoreII,
    /// Unconditional jump to `t1`.
    Jump,
    /// Conditional branch on slot `a`: `t1` when non-zero, else `t2`.
    Branch,
    /// Branch on the constant condition `imm`.
    BranchImm,
    /// Return with value slot `a`.
    RetVal,
    /// Return with constant value `imm`.
    RetImm,
    /// Return without value.
    RetVoid,
    /// `SPT_FORK` marker: tag `imm`, spawn target `t1`.
    SptFork,
    /// `SPT_KILL` marker: tag `imm`.
    SptKill,
    /// Direct call of function `aux` with the `b` arguments starting at
    /// [`SuperblockFunc::args`]`[a]`; a returned value lands in `dst`.
    Call,
    /// A phi outside its block's leading group: the interpreter skips it
    /// (no retire, no events), the simulator faults on it.
    SkipPhi,
    /// A pre-SSA variable access: both engines fault on it.
    Unsupported,
    /// Sentinel ending a block whose body has no terminator: executing it
    /// faults. Its [`SMeta::pos`] is the block's body end and it has no
    /// constituent instruction.
    FallOff,
    /// Fused integer compare (`cmp`, `a`, `b`, def `dst`) feeding a branch
    /// (`t1`/`t2`).
    CmpBr,
    /// Fused integer compare against `imm` feeding a branch.
    CmpBrImm,
    /// Fused load from slot `a` (def `dst`) feeding a `BinI64` with slot
    /// operand `b` (def `aux`); [`F_SWAP`] means the loaded value is the
    /// right operand.
    LoadBin,
    /// Fused load from slot `a` (def `dst`) feeding a `BinI64` with constant
    /// operand `imm` (def `aux`); [`F_SWAP`] as for `LoadBin`.
    LoadBinImm,
    /// Fused `BinI64` on slots `a`, `b` (def `dst`) feeding a store to
    /// address slot `aux`.
    BinStore,
    /// Fused `BinI64` on slot `a` and constant `imm` (def `dst`) feeding a
    /// store to address slot `aux`; [`F_SWAP`] means the constant is the
    /// left operand.
    BinStoreImm,
    /// Address-generation fusion: `BinI64` on slots `a`, `b` (def `aux`,
    /// [`NO_SLOT`] when elided) computing the address of a load (def `dst`).
    AgenLoad,
    /// As [`SOpc::AgenLoad`] with constant operand `imm` ([`F_SWAP`] means
    /// the constant is the left operand).
    AgenLoadImm,
    /// Address-generation fusion: `BinI64` on slots `a`, `b` (def `dst`,
    /// [`NO_SLOT`] when elided) computing the address of a store of value
    /// slot `aux`.
    AgenStore,
    /// As [`SOpc::AgenStore`] with constant operand `imm` ([`F_SWAP`] means
    /// the constant is the left operand).
    AgenStoreImm,
    /// Fused loop backedge: `BinI64` on slots `a`, `b` (def `dst`) followed
    /// by an unconditional jump to `t1`. The def is kept (it typically feeds
    /// the header phi).
    BinJump,
    /// As [`SOpc::BinJump`] with constant operand `imm` ([`F_SWAP`] means
    /// the constant is the left operand).
    BinImmJump,
    /// Fused pure integer chain: `r = bin(x, y1)` then `dst = bin2(r, z)`,
    /// with `x` in slot `a`, `y1` in slot `b` or the packed immediate `imm1`
    /// ([`F2_IMM1`]; [`F2_OP1_REV`] reverses the first op's operands), and
    /// `z` in slot `aux` or the packed immediate `imm2` ([`F2_IMM2`];
    /// [`F2_R_RIGHT`] puts `r` on the right of `bin2`). The single-use
    /// intermediate `r` is elided. `imm` packs both sign-extended 32-bit
    /// immediates (`imm1` low, `imm2` high); wider constants decline.
    Fuse2,
    /// [`SOpc::Fuse2`] specialized to flags exactly [`F2_IMM1`]`|`[`F2_IMM2`]:
    /// `dst = bin2(bin(a, imm1), imm2)`, branch-free.
    Fuse2II,
    /// [`SOpc::Fuse2`] specialized to flags exactly [`F2_IMM1`]:
    /// `dst = bin2(bin(a, imm1), aux)`, branch-free.
    Fuse2IR,
    /// [`SOpc::Fuse2`] specialized to flags exactly
    /// [`F2_IMM1`]`|`[`F2_R_RIGHT`]: `dst = bin2(aux, bin(a, imm1))`,
    /// branch-free.
    Fuse2IRr,
}

impl SOpc {
    /// Whether this opcode fuses two constituent instructions (it is then
    /// followed by its one-constituent tail, see the module docs).
    #[inline(always)]
    pub fn is_pair(self) -> bool {
        self as u8 >= SOpc::CmpBr as u8
    }
}

/// One superinstruction: a compact 40-byte `Copy` record. `a`/`b`/`aux` are
/// always value-array slot indices (constants are pre-extracted into `imm`
/// by lowering), so the hot loops never re-discriminate operand kinds.
/// Unused fields hold inert defaults. The constituent [`DInst`] ids and
/// static latencies live in the parallel cold array
/// [`SuperblockFunc::meta`].
#[derive(Clone, Copy, Debug)]
pub struct SInst {
    /// Opcode.
    pub opc: SOpc,
    /// Per-opcode flag bits ([`F_SWAP`]).
    pub flags: u8,
    /// Binary operator, for the generic/fused binary opcodes.
    pub bin: BinOp,
    /// Second binary operator, for [`SOpc::Fuse2`].
    pub bin2: BinOp,
    /// Comparison operator, for the compare opcodes.
    pub cmp: CmpOp,
    /// Unary operator, for `UnI64`/`UnF64`.
    pub un: UnOp,
    /// Primary destination slot ([`NO_SLOT`] = none/elided).
    pub dst: u32,
    /// First operand slot.
    pub a: u32,
    /// Second operand slot.
    pub b: u32,
    /// Third slot: `LoadBin*`'s binary-op destination, `BinStore*`'s store
    /// address, `Call`'s callee.
    pub aux: u32,
    /// Immediate payload (folded bits, specialized-op immediate, parameter
    /// index, or SPT tag).
    pub imm: u64,
    /// Primary control target.
    pub t1: BlockId,
    /// Secondary control target (`Branch`/`CmpBr*` else-target).
    pub t2: BlockId,
}

impl SInst {
    fn new(opc: SOpc) -> SInst {
        SInst {
            opc,
            flags: 0,
            bin: BinOp::Add,
            bin2: BinOp::Add,
            cmp: CmpOp::Eq,
            un: UnOp::Neg,
            dst: NO_SLOT,
            a: 0,
            b: 0,
            aux: 0,
            imm: 0,
            t1: BlockId(0),
            t2: BlockId(0),
        }
    }
}

/// Cold per-op metadata, parallel to [`SuperblockFunc::ops`]: the
/// constituent decoded instructions and their static latencies, read by the
/// simulator and the stepwise interpreter for per-instruction event replay
/// and accounting.
#[derive(Clone, Copy, Debug)]
pub struct SMeta {
    /// Primary constituent instruction.
    pub inst: InstId,
    /// Secondary constituent instruction (fused pairs; `inst` otherwise).
    pub inst2: InstId,
    /// Stream position of `inst` ([`DecodedFunc::stream`]). The gap to the
    /// previous op's end is the run of elided zero-latency constant defs
    /// crossed before this op; the engines retire them there.
    pub pos: u32,
    /// Static latency of `inst`.
    pub lat: u32,
    /// Static latency of `inst2`.
    pub lat2: u32,
}

impl SMeta {
    fn new(inst: InstId, lat: u64) -> SMeta {
        SMeta {
            inst,
            inst2: inst,
            pos: 0,
            lat: u32::try_from(lat).unwrap_or(u32::MAX),
            lat2: 0,
        }
    }
}

/// The leading-phi moves for one incoming edge of a block.
#[derive(Clone, Debug)]
pub struct PhiRow {
    /// The predecessor this row applies to.
    pub pred: BlockId,
    /// `(dst_slot, src)` per leading phi, in block order; all sources are
    /// read before any destination is written. A missing source reads as
    /// the constant 0 (the simulator's semantics).
    pub moves: Box<[(u32, DVal)]>,
    /// The first phi with no source along this edge, if any (the
    /// interpreter faults on it).
    pub missing: Option<InstId>,
}

/// One block's superblock view.
#[derive(Clone, Debug)]
pub struct SBlock {
    /// `[start, end)` into [`SuperblockFunc::ops`]. The last op is the
    /// block's terminator (or its pair) or a [`SOpc::FallOff`] sentinel.
    pub range: (u32, u32),
    /// Instructions the interpreter retires on one entry (leading phis plus
    /// the body up to its first terminator, stray phis excluded).
    pub retires: u64,
    /// Summed static latency of the same instructions.
    pub cycles: u64,
    /// Whether those instructions include a call.
    pub has_call: bool,
    /// One phi schedule per predecessor edge, in CFG order; empty when the
    /// block has no leading phis.
    pub phis: Box<[PhiRow]>,
    /// `(slot, bits)` of the block's elided region-base constant defs,
    /// written as raw data on block entry instead of dispatching. Their
    /// reads inside the block's ops are folded to immediates at build time.
    pub consts: Box<[(u32, u64)]>,
}

/// One function's superblock code.
#[derive(Clone, Debug)]
pub struct SuperblockFunc {
    /// Per-block ranges, indexed by [`BlockId`].
    pub blocks: Box<[SBlock]>,
    /// All ops, grouped per block.
    pub ops: Box<[SInst]>,
    /// Cold constituent metadata, parallel to `ops`.
    pub meta: Box<[SMeta]>,
    /// Per position of [`DecodedFunc::stream`]: index of the op that resumes
    /// execution at that instruction (see the module docs).
    pub op_at: Box<[u32]>,
    /// Call arguments, referenced by [`SOpc::Call`] ops.
    pub args: Box<[DVal]>,
}

/// The superblock code for a whole module, built once per
/// [`DecodedModule`].
#[derive(Clone, Debug)]
pub struct SuperblockModule {
    /// Per-function code, indexed by [`FuncId`].
    pub funcs: Vec<SuperblockFunc>,
}

impl SuperblockModule {
    /// Lowers every function of `decoded`.
    pub fn build(decoded: &DecodedModule) -> SuperblockModule {
        SuperblockModule {
            funcs: decoded.funcs.iter().map(lower_func).collect(),
        }
    }

    /// The superblock code for `func`.
    #[inline]
    pub fn func(&self, func: FuncId) -> &SuperblockFunc {
        &self.funcs[func.index()]
    }
}

/// Counts every read of each value slot in the function: instruction
/// operands (including call arguments, branch conditions, store
/// addresses/values and return operands) and phi-source rows. A slot with
/// exactly one counted use that is the consumer half of a fused pair never
/// needs its value-array write.
fn count_uses(df: &DecodedFunc) -> Vec<u32> {
    let mut uses = vec![0u32; df.num_values()];
    let mut touch = |dv: DVal| {
        if let DVal::Slot(s) = dv {
            uses[s as usize] = uses[s as usize].saturating_add(1);
        }
    };
    for di in df.insts.iter() {
        match &di.kind {
            DKind::Param { .. }
            | DKind::Const { .. }
            | DKind::Jump { .. }
            | DKind::SptFork { .. }
            | DKind::SptKill { .. }
            | DKind::SkippedPhi
            | DKind::Unsupported => {}
            DKind::BinI64 { lhs, rhs, .. }
            | DKind::BinF64 { lhs, rhs, .. }
            | DKind::CmpI64 { lhs, rhs, .. }
            | DKind::CmpF64 { lhs, rhs, .. } => {
                touch(*lhs);
                touch(*rhs);
            }
            DKind::UnI64 { val, .. }
            | DKind::UnF64 { val, .. }
            | DKind::IntToFloat { val }
            | DKind::FloatToInt { val }
            | DKind::Copy { val } => touch(*val),
            DKind::Load { addr } => touch(*addr),
            DKind::Store { addr, val } => {
                touch(*addr);
                touch(*val);
            }
            DKind::Call { args, .. } => {
                for a in args.iter() {
                    touch(*a);
                }
            }
            DKind::Branch { cond, .. } => touch(*cond),
            DKind::Ret { val } => {
                if let Some(v) = val {
                    touch(*v);
                }
            }
        }
    }
    for b in df.blocks.iter() {
        for row in b.phi_srcs.iter() {
            for src in row.iter().flatten() {
                touch(*src);
            }
        }
    }
    uses
}

fn is_terminator(kind: &DKind) -> bool {
    matches!(
        kind,
        DKind::Jump { .. } | DKind::Branch { .. } | DKind::Ret { .. }
    )
}

/// The comparison that computes `cmp(a, b)` as `swapped(b, a)`. Exact for
/// integers and floats alike: `Eq`/`Ne` are symmetric and the orderings
/// mirror (`<` ↔ `>`), including NaN operands, for which every ordered
/// comparison is false in both orders.
pub fn cmp_swapped(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

/// `slot -> bits` for every zero-latency constant def in the function
/// (region bases), used to fold their reads into immediates at build time.
fn const_map(df: &DecodedFunc) -> Vec<Option<u64>> {
    let mut cmap = vec![None; df.insts.len()];
    for (idx, di) in df.insts.iter().enumerate() {
        if let DKind::Const { bits } = di.kind {
            if di.latency == 0 {
                cmap[idx] = Some(bits);
            }
        }
    }
    cmap
}

fn resolve_dval(v: DVal, cmap: &[Option<u64>]) -> DVal {
    match v {
        DVal::Slot(s) => cmap
            .get(s as usize)
            .copied()
            .flatten()
            .map_or(v, DVal::Bits),
        b => b,
    }
}

/// Clones `di` with every slot operand that names a constant def rewritten
/// to its bits, so lowering encodes immediates and the const def's dispatch
/// can be elided from the fused stream.
fn resolve_inst(di: &DInst, cmap: &[Option<u64>]) -> DInst {
    let r = |v: DVal| resolve_dval(v, cmap);
    let kind = match &di.kind {
        DKind::BinI64 { op, lhs, rhs } => DKind::BinI64 {
            op: *op,
            lhs: r(*lhs),
            rhs: r(*rhs),
        },
        DKind::BinF64 { op, lhs, rhs } => DKind::BinF64 {
            op: *op,
            lhs: r(*lhs),
            rhs: r(*rhs),
        },
        DKind::UnI64 { op, val } => DKind::UnI64 {
            op: *op,
            val: r(*val),
        },
        DKind::UnF64 { op, val } => DKind::UnF64 {
            op: *op,
            val: r(*val),
        },
        DKind::IntToFloat { val } => DKind::IntToFloat { val: r(*val) },
        DKind::FloatToInt { val } => DKind::FloatToInt { val: r(*val) },
        DKind::CmpI64 { op, lhs, rhs } => DKind::CmpI64 {
            op: *op,
            lhs: r(*lhs),
            rhs: r(*rhs),
        },
        DKind::CmpF64 { op, lhs, rhs } => DKind::CmpF64 {
            op: *op,
            lhs: r(*lhs),
            rhs: r(*rhs),
        },
        DKind::Copy { val } => DKind::Copy { val: r(*val) },
        DKind::Load { addr } => DKind::Load { addr: r(*addr) },
        DKind::Store { addr, val } => DKind::Store {
            addr: r(*addr),
            val: r(*val),
        },
        DKind::Call { callee, args } => DKind::Call {
            callee: *callee,
            args: args.iter().map(|&a| r(a)).collect(),
        },
        DKind::Branch {
            cond,
            then_bb,
            else_bb,
        } => DKind::Branch {
            cond: r(*cond),
            then_bb: *then_bb,
            else_bb: *else_bb,
        },
        DKind::Ret { val } => DKind::Ret { val: val.map(r) },
        other => other.clone(),
    };
    DInst {
        kind,
        latency: di.latency,
    }
}

/// The op/meta/position arrays one function's blocks lower into.
struct Out {
    ops: Vec<SInst>,
    meta: Vec<SMeta>,
    op_at: Vec<u32>,
    args: Vec<DVal>,
}

impl Out {
    /// Appends an op starting at stream position `pos` (or, for the
    /// fall-off sentinel, at no position: `None`). Elided constants waiting
    /// for their next op resume here too.
    fn push(&mut self, op: SInst, mut m: SMeta, pos: u32, mapped: bool, waiting: &mut Vec<u32>) {
        let idx = self.ops.len() as u32;
        for p in waiting.drain(..) {
            self.op_at[p as usize] = idx;
        }
        if mapped {
            self.op_at[pos as usize] = idx;
        }
        m.pos = pos;
        self.ops.push(op);
        self.meta.push(m);
    }
}

fn lower_func(df: &DecodedFunc) -> SuperblockFunc {
    let uses = count_uses(df);
    let cmap = const_map(df);
    let mut out = Out {
        ops: Vec::new(),
        meta: Vec::new(),
        op_at: vec![u32::MAX; df.stream.len()],
        args: Vec::new(),
    };
    let blocks: Box<[SBlock]> = df
        .blocks
        .iter()
        .map(|b| lower_block(df, b, &uses, &cmap, &mut out))
        .collect();
    SuperblockFunc {
        blocks,
        ops: out.ops.into_boxed_slice(),
        meta: out.meta.into_boxed_slice(),
        op_at: out.op_at.into_boxed_slice(),
        args: out.args.into_boxed_slice(),
    }
}

fn lower_block(
    df: &DecodedFunc,
    b: &DBlock,
    uses: &[u32],
    cmap: &[Option<u64>],
    out: &mut Out,
) -> SBlock {
    let phis: Box<[PhiRow]> = if b.phis.is_empty() {
        Box::new([])
    } else {
        b.preds
            .iter()
            .zip(b.phi_srcs.iter())
            .map(|(&pred, row)| PhiRow {
                pred,
                moves: b
                    .phis
                    .iter()
                    .zip(row.iter())
                    .map(|(&phi, src)| {
                        (phi.0, src.map_or(DVal::Bits(0), |v| resolve_dval(v, cmap)))
                    })
                    .collect(),
                missing: b
                    .phis
                    .iter()
                    .zip(row.iter())
                    .find(|(_, src)| src.is_none())
                    .map(|(&phi, _)| phi),
            })
            .collect()
    };

    // Zero-latency constant defs are elided from the dispatch stream: their
    // bits land in `consts` (written as raw data on block entry) and their
    // reads were folded to immediates by `resolve_inst`. Their positions
    // resume at the next op, which retires them from the `SMeta::pos` gap.
    let body = &b.body;
    let start = out.ops.len() as u32;
    let mut consts: Vec<(u32, u64)> = Vec::new();
    let mut waiting: Vec<u32> = Vec::new();
    let mut k = 0usize;
    // The instruction at `k`, when the previous step already resolved it.
    let mut resolved: Option<DInst> = None;
    while k < body.len() {
        let i = body[k];
        let pos = b.body_start + k as u32;
        let raw = &df.insts[i.index()];
        if let DKind::Const { bits } = raw.kind {
            if raw.latency == 0 {
                consts.push((i.0, bits));
                waiting.push(pos);
                resolved = None;
                k += 1;
                continue;
            }
        }
        let di = resolved.take().unwrap_or_else(|| resolve_inst(raw, cmap));
        // Only compares, loads and integer binary ops start a pair.
        let pairable = matches!(
            di.kind,
            DKind::CmpI64 { .. } | DKind::Load { .. } | DKind::BinI64 { .. }
        );
        let next = body
            .get(k + 1)
            .filter(|_| pairable)
            .map(|&j| (j, resolve_inst(&df.insts[j.index()], cmap)));
        match next
            .as_ref()
            .and_then(|(j, dj)| fuse_pair(i, &di, *j, dj, uses))
        {
            Some((op, m)) => {
                out.push(op, m, pos, true, &mut waiting);
                // The pair's tail: its second constituent alone, reading the
                // first constituent's real slot.
                if let Some((j, dj)) = &next {
                    let (tail, tm) = lower_single(*j, dj, &mut out.args);
                    out.push(tail, tm, pos + 1, true, &mut waiting);
                }
                k += 2;
            }
            None => {
                let (op, m) = lower_single(i, &di, &mut out.args);
                out.push(op, m, pos, true, &mut waiting);
                resolved = next.map(|(_, dj)| dj);
                k += 1;
            }
        }
    }
    let ends_in_terminator = body
        .last()
        .is_some_and(|&i| is_terminator(&df.insts[i.index()].kind));
    if !ends_in_terminator {
        let m = SMeta::new(InstId(NO_SLOT), 0);
        out.push(
            SInst::new(SOpc::FallOff),
            m,
            b.body_end,
            false,
            &mut waiting,
        );
    }
    let end = out.ops.len() as u32;

    // Straight-line accounting up to the first terminator (anything after
    // it never executes); stray phis retire nothing.
    let live = match body
        .iter()
        .position(|&i| is_terminator(&df.insts[i.index()].kind))
    {
        Some(t) => &body[..=t],
        None => &body[..],
    };
    let kind = |i: &InstId| &df.insts[i.index()].kind;
    SBlock {
        range: (start, end),
        retires: (b.phis.len()
            + live
                .iter()
                .filter(|i| !matches!(kind(i), DKind::SkippedPhi))
                .count()) as u64,
        cycles: live.iter().map(|&i| df.insts[i.index()].latency).sum(),
        has_call: live.iter().any(|i| matches!(kind(i), DKind::Call { .. })),
        phis,
        consts: consts.into_boxed_slice(),
    }
}

/// Encodes the binary-op operand shape shared by the address-generation
/// fusions: slots in `a`/`b`, or one constant in `imm` with [`F_SWAP`]
/// marking a constant left operand. Const/const declines so constant
/// folding applies instead.
fn agen(rr: SOpc, ri: SOpc, lhs: &DVal, rhs: &DVal) -> Option<SInst> {
    Some(match (lhs, rhs) {
        (DVal::Slot(x), DVal::Slot(y)) => {
            let mut s = SInst::new(rr);
            s.a = *x;
            s.b = *y;
            s
        }
        (DVal::Slot(x), DVal::Bits(c)) => {
            let mut s = SInst::new(ri);
            s.a = *x;
            s.imm = *c;
            s
        }
        (DVal::Bits(c), DVal::Slot(y)) => {
            let mut s = SInst::new(ri);
            s.a = *y;
            s.imm = *c;
            s.flags |= F_SWAP;
            s
        }
        (DVal::Bits(_), DVal::Bits(_)) => return None,
    })
}

/// Attempts to fuse `i` with the following instruction. Both constituents
/// must be adjacent, the intermediate must feed the consumer directly, and
/// (for the slot-write elision) `uses[..] == 1` proves the elided write
/// unobservable (see the module docs for the mid-pair-stop contract).
/// Const/const shapes are declined so constant folding applies instead.
fn fuse_pair(i: InstId, di: &DInst, j: InstId, dj: &DInst, uses: &[u32]) -> Option<(SInst, SMeta)> {
    let elide = |slot: InstId| {
        if uses[slot.index()] == 1 {
            NO_SLOT
        } else {
            slot.0
        }
    };
    let mut m = SMeta::new(i, di.latency);
    m.inst2 = j;
    m.lat2 = u32::try_from(dj.latency).unwrap_or(u32::MAX);
    match (&di.kind, &dj.kind) {
        (
            DKind::CmpI64 { op, lhs, rhs },
            DKind::Branch {
                cond,
                then_bb,
                else_bb,
            },
        ) if *cond == DVal::Slot(i.0) => {
            let mut s = match (lhs, rhs) {
                (DVal::Slot(x), DVal::Slot(y)) => {
                    let mut s = SInst::new(SOpc::CmpBr);
                    s.cmp = *op;
                    s.a = *x;
                    s.b = *y;
                    s
                }
                (DVal::Slot(x), DVal::Bits(c)) => {
                    let mut s = SInst::new(SOpc::CmpBrImm);
                    s.cmp = *op;
                    s.a = *x;
                    s.imm = *c;
                    s
                }
                (DVal::Bits(c), DVal::Slot(y)) => {
                    let mut s = SInst::new(SOpc::CmpBrImm);
                    s.cmp = cmp_swapped(*op);
                    s.a = *y;
                    s.imm = *c;
                    s
                }
                // Both constant: let folding produce the def instead.
                (DVal::Bits(_), DVal::Bits(_)) => return None,
            };
            s.dst = elide(i);
            s.t1 = *then_bb;
            s.t2 = *else_bb;
            Some((s, m))
        }
        (DKind::Load { addr }, DKind::BinI64 { op, lhs, rhs }) => {
            let DVal::Slot(addr_slot) = addr else {
                return None;
            };
            let loaded = DVal::Slot(i.0);
            let (other, swap) = if *lhs == loaded && *rhs != loaded {
                (*rhs, false)
            } else if *rhs == loaded && *lhs != loaded {
                (*lhs, true)
            } else {
                return None;
            };
            let mut s = match other {
                DVal::Slot(o) => {
                    let mut s = SInst::new(SOpc::LoadBin);
                    s.b = o;
                    s
                }
                DVal::Bits(c) => {
                    let mut s = SInst::new(SOpc::LoadBinImm);
                    s.imm = c;
                    s
                }
            };
            s.bin = *op;
            s.a = *addr_slot;
            s.dst = elide(i);
            s.aux = j.0;
            if swap {
                s.flags |= F_SWAP;
            }
            Some((s, m))
        }
        (DKind::BinI64 { op, lhs, rhs }, DKind::Store { addr, val }) if *val == DVal::Slot(i.0) => {
            let DVal::Slot(addr_slot) = addr else {
                return None;
            };
            let mut s = match (lhs, rhs) {
                (DVal::Slot(x), DVal::Slot(y)) => {
                    let mut s = SInst::new(SOpc::BinStore);
                    s.a = *x;
                    s.b = *y;
                    s
                }
                (DVal::Slot(x), DVal::Bits(c)) => {
                    let mut s = SInst::new(SOpc::BinStoreImm);
                    s.a = *x;
                    s.imm = *c;
                    s
                }
                (DVal::Bits(c), DVal::Slot(y)) => {
                    let mut s = SInst::new(SOpc::BinStoreImm);
                    s.a = *y;
                    s.imm = *c;
                    s.flags |= F_SWAP;
                    s
                }
                // Both constant: let folding produce the def instead.
                (DVal::Bits(_), DVal::Bits(_)) => return None,
            };
            s.bin = *op;
            s.dst = elide(i);
            s.aux = *addr_slot;
            Some((s, m))
        }
        // Address-generation fusion: the binary op computes the address of
        // the following load/store.
        (DKind::BinI64 { op, lhs, rhs }, DKind::Jump { target }) => {
            // Loop backedge: the counter increment feeding the header phi
            // plus the unconditional jump. The def is always kept.
            let mut s = agen(SOpc::BinJump, SOpc::BinImmJump, lhs, rhs)?;
            s.bin = *op;
            s.dst = i.0;
            s.t1 = *target;
            Some((s, m))
        }
        (DKind::BinI64 { op, lhs, rhs }, DKind::Load { addr }) if *addr == DVal::Slot(i.0) => {
            let mut s = agen(SOpc::AgenLoad, SOpc::AgenLoadImm, lhs, rhs)?;
            s.bin = *op;
            s.dst = j.0;
            s.aux = elide(i);
            Some((s, m))
        }
        (DKind::BinI64 { op, lhs, rhs }, DKind::Store { addr, val })
            if *addr == DVal::Slot(i.0) && *val != DVal::Slot(i.0) =>
        {
            // The store value must be a slot: the immediate field may
            // already carry the address computation's constant.
            let DVal::Slot(v) = val else {
                return None;
            };
            let mut s = agen(SOpc::AgenStore, SOpc::AgenStoreImm, lhs, rhs)?;
            s.bin = *op;
            s.dst = elide(i);
            s.aux = *v;
            Some((s, m))
        }
        (
            DKind::BinI64 { op: op1, lhs, rhs },
            DKind::BinI64 {
                op: op2,
                lhs: l2,
                rhs: r2,
            },
        ) => {
            // Pure arithmetic chain. The intermediate must be single-use so
            // its slot write can be elided outright (no second dst field),
            // and both constants must fit a sign-extended i32 since they
            // share the packed immediate.
            if uses[i.index()] != 1 {
                return None;
            }
            let r = DVal::Slot(i.0);
            let (z, r_right) = if *l2 == r && *r2 != r {
                (*r2, false)
            } else if *r2 == r && *l2 != r {
                (*l2, true)
            } else {
                return None;
            };
            let imm32 = |c: u64| i32::try_from(c as i64).ok().map(|w| w as u32);
            let mut s = SInst::new(SOpc::Fuse2);
            match (lhs, rhs) {
                (DVal::Slot(x), DVal::Slot(y)) => {
                    s.a = *x;
                    s.b = *y;
                }
                (DVal::Slot(x), DVal::Bits(c)) => {
                    s.a = *x;
                    s.imm |= u64::from(imm32(*c)?);
                    s.flags |= F2_IMM1;
                }
                (DVal::Bits(c), DVal::Slot(y)) => {
                    s.a = *y;
                    s.imm |= u64::from(imm32(*c)?);
                    s.flags |= F2_IMM1 | F2_OP1_REV;
                }
                // Both constant: let folding produce the def instead.
                (DVal::Bits(_), DVal::Bits(_)) => return None,
            }
            match z {
                DVal::Slot(o) => s.aux = o,
                DVal::Bits(c) => {
                    s.imm |= u64::from(imm32(c)?) << 32;
                    s.flags |= F2_IMM2;
                }
            }
            if r_right {
                s.flags |= F2_R_RIGHT;
            }
            s.bin = *op1;
            s.bin2 = *op2;
            s.dst = j.0;
            // The dominant flag shapes get dedicated branch-free opcodes;
            // the generic decoder stays for the long tail.
            s.opc = match s.flags {
                f if f == F2_IMM1 | F2_IMM2 => SOpc::Fuse2II,
                f if f == F2_IMM1 => SOpc::Fuse2IR,
                f if f == F2_IMM1 | F2_R_RIGHT => SOpc::Fuse2IRr,
                _ => SOpc::Fuse2,
            };
            Some((s, m))
        }
        _ => None,
    }
}

/// Lowers one instruction to a one-constituent op. Total: pure ops whose
/// operands are all immediates fold to [`SOpc::FoldedDef`], and every other
/// shape has an encoding. Call arguments are appended to `args`.
fn lower_single(i: InstId, di: &DInst, args: &mut Vec<DVal>) -> (SInst, SMeta) {
    let m = SMeta::new(i, di.latency);
    let def = |mut s: SInst| {
        s.dst = i.0;
        (s, m)
    };
    let folded = |bits: u64| {
        let mut s = SInst::new(SOpc::FoldedDef);
        s.imm = bits;
        def(s)
    };
    let unary = |opc: SOpc, val: &DVal, fold: &dyn Fn(u64) -> u64| match *val {
        DVal::Slot(x) => {
            let mut s = SInst::new(opc);
            s.a = x;
            s
        }
        DVal::Bits(c) => {
            let mut s = SInst::new(SOpc::FoldedDef);
            s.imm = fold(c);
            s
        }
    };
    match &di.kind {
        DKind::Param { index } => {
            let mut s = SInst::new(SOpc::Param);
            s.imm = *index as u64;
            def(s)
        }
        DKind::Const { bits } => {
            let mut s = SInst::new(SOpc::ConstV);
            s.imm = *bits;
            def(s)
        }
        DKind::BinI64 { op, lhs, rhs } => {
            // Specialized shapes for the dominant operators; a constant on
            // either side becomes an immediate form (reverse-subtract and
            // generic left-immediate opcodes keep non-commutative operators
            // exact).
            let mut s = SInst::new(SOpc::BinRR);
            s.bin = *op;
            match (*lhs, *rhs) {
                (DVal::Slot(x), DVal::Slot(y)) => {
                    s.opc = match op {
                        BinOp::Add => SOpc::AddRR,
                        BinOp::Sub => SOpc::SubRR,
                        BinOp::Mul => SOpc::MulRR,
                        _ => SOpc::BinRR,
                    };
                    s.a = x;
                    s.b = y;
                }
                (DVal::Slot(x), DVal::Bits(c)) => {
                    s.opc = match op {
                        BinOp::Add => SOpc::AddImm,
                        BinOp::Sub => SOpc::SubImm,
                        BinOp::Mul => SOpc::MulImm,
                        _ => SOpc::BinImm,
                    };
                    s.a = x;
                    s.imm = c;
                }
                (DVal::Bits(c), DVal::Slot(y)) => {
                    s.opc = match op {
                        BinOp::Add => SOpc::AddImm,
                        BinOp::Sub => SOpc::RsbImm,
                        BinOp::Mul => SOpc::MulImm,
                        _ => SOpc::BinImmL,
                    };
                    s.a = y;
                    s.imm = c;
                }
                (DVal::Bits(x), DVal::Bits(y)) => {
                    return folded(op.eval_i64(x as i64, y as i64) as u64)
                }
            }
            def(s)
        }
        DKind::BinF64 { op, lhs, rhs } => {
            let mut s = SInst::new(SOpc::BinF64RR);
            s.bin = *op;
            match (*lhs, *rhs) {
                (DVal::Slot(x), DVal::Slot(y)) => {
                    s.a = x;
                    s.b = y;
                }
                (DVal::Slot(x), DVal::Bits(c)) => {
                    s.opc = SOpc::BinF64Imm;
                    s.a = x;
                    s.imm = c;
                }
                (DVal::Bits(c), DVal::Slot(y)) => {
                    s.opc = SOpc::BinF64ImmL;
                    s.a = y;
                    s.imm = c;
                }
                (DVal::Bits(x), DVal::Bits(y)) => {
                    return folded(op.eval_f64(f64::from_bits(x), f64::from_bits(y)).to_bits())
                }
            }
            def(s)
        }
        DKind::CmpI64 { op, lhs, rhs } | DKind::CmpF64 { op, lhs, rhs } => {
            let float = matches!(di.kind, DKind::CmpF64 { .. });
            let (rr, imm) = if float {
                (SOpc::CmpF64RR, SOpc::CmpF64Imm)
            } else {
                (SOpc::CmpRR, SOpc::CmpImm)
            };
            let mut s = SInst::new(rr);
            s.cmp = *op;
            match (*lhs, *rhs) {
                (DVal::Slot(x), DVal::Slot(y)) => {
                    s.a = x;
                    s.b = y;
                }
                (DVal::Slot(x), DVal::Bits(c)) => {
                    s.opc = imm;
                    s.a = x;
                    s.imm = c;
                }
                (DVal::Bits(c), DVal::Slot(y)) => {
                    s.opc = imm;
                    s.cmp = cmp_swapped(*op);
                    s.a = y;
                    s.imm = c;
                }
                (DVal::Bits(x), DVal::Bits(y)) => {
                    let t = if float {
                        op.eval_f64(f64::from_bits(x), f64::from_bits(y))
                    } else {
                        op.eval_i64(x as i64, y as i64)
                    };
                    return folded(t as u64);
                }
            }
            def(s)
        }
        DKind::UnI64 { op, val } => {
            let mut s = unary(SOpc::UnI64, val, &|c| op.eval_i64(c as i64) as u64);
            s.un = *op;
            def(s)
        }
        DKind::UnF64 { op, val } => {
            let mut s = unary(SOpc::UnF64, val, &|c| {
                op.eval_f64(f64::from_bits(c)).to_bits()
            });
            s.un = *op;
            def(s)
        }
        DKind::IntToFloat { val } => def(unary(SOpc::IntToFloat, val, &|c| {
            ((c as i64) as f64).to_bits()
        })),
        DKind::FloatToInt { val } => def(unary(SOpc::FloatToInt, val, &|c| {
            (f64::from_bits(c) as i64) as u64
        })),
        DKind::Copy { val } => def(unary(SOpc::Copy, val, &|c| c)),
        DKind::Load { addr } => {
            let mut s = SInst::new(SOpc::Load);
            match *addr {
                DVal::Slot(x) => s.a = x,
                DVal::Bits(c) => {
                    s.opc = SOpc::LoadImm;
                    s.imm = c;
                }
            }
            def(s)
        }
        DKind::Store { addr, val } => {
            let mut s = SInst::new(SOpc::StoreRR);
            match (*addr, *val) {
                (DVal::Slot(x), DVal::Slot(y)) => {
                    s.a = x;
                    s.b = y;
                }
                (DVal::Slot(x), DVal::Bits(c)) => {
                    s.opc = SOpc::StoreRI;
                    s.a = x;
                    s.imm = c;
                }
                (DVal::Bits(c), DVal::Slot(y)) => {
                    s.opc = SOpc::StoreIR;
                    s.imm = c;
                    s.b = y;
                }
                (DVal::Bits(c), DVal::Bits(v)) => {
                    s.opc = SOpc::StoreII;
                    s.imm = c;
                    s.a = v as u32;
                    s.b = (v >> 32) as u32;
                }
            }
            (s, m)
        }
        DKind::Call {
            callee,
            args: cargs,
        } => {
            let mut s = SInst::new(SOpc::Call);
            s.aux = callee.0;
            s.a = args.len() as u32;
            s.b = cargs.len() as u32;
            args.extend_from_slice(cargs);
            def(s)
        }
        DKind::Jump { target } => {
            let mut s = SInst::new(SOpc::Jump);
            s.t1 = *target;
            (s, m)
        }
        DKind::Branch {
            cond,
            then_bb,
            else_bb,
        } => {
            let mut s = SInst::new(SOpc::Branch);
            match *cond {
                DVal::Slot(x) => s.a = x,
                DVal::Bits(c) => {
                    s.opc = SOpc::BranchImm;
                    s.imm = c;
                }
            }
            s.t1 = *then_bb;
            s.t2 = *else_bb;
            (s, m)
        }
        DKind::Ret { val } => match *val {
            Some(DVal::Slot(x)) => {
                let mut s = SInst::new(SOpc::RetVal);
                s.a = x;
                (s, m)
            }
            Some(DVal::Bits(c)) => {
                let mut s = SInst::new(SOpc::RetImm);
                s.imm = c;
                (s, m)
            }
            None => (SInst::new(SOpc::RetVoid), m),
        },
        DKind::SptFork { tag, target } => {
            let mut s = SInst::new(SOpc::SptFork);
            s.imm = *tag as u64;
            s.t1 = *target;
            (s, m)
        }
        DKind::SptKill { tag } => {
            let mut s = SInst::new(SOpc::SptKill);
            s.imm = *tag as u64;
            (s, m)
        }
        DKind::SkippedPhi => (SInst::new(SOpc::SkipPhi), m),
        DKind::Unsupported => (SInst::new(SOpc::Unsupported), m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::Operand;
    use crate::module::Module;
    use crate::types::Ty;

    /// `fn f(n) { s = 0; for (i = 0; i < n; i++) { s = s + i } return s }`
    /// built by hand: a header with phis + CmpBr shape and a straight-line
    /// latch.
    fn loop_module() -> Module {
        let mut b = FuncBuilder::new("f", vec![("n".into(), Ty::I64)], Some(Ty::I64));
        let n = b.param(0);
        let entry = b.entry();
        let header = b.add_block();
        let body = b.add_block();
        let exit = b.add_block();
        b.switch_to(entry);
        b.jump(header);
        b.switch_to(header);
        let i = b.phi(Ty::I64, vec![(entry, Operand::const_i64(0))]);
        let s = b.phi(Ty::I64, vec![(entry, Operand::const_i64(0))]);
        let c = b.cmp(crate::ops::CmpOp::Lt, Ty::I64, i, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        let s2 = b.binary(BinOp::Add, s, i);
        let i2 = b.binary(BinOp::Add, i, Operand::const_i64(1));
        b.jump(header);
        b.switch_to(exit);
        b.ret(Some(s));
        let func = b.finish();
        // Complete the phis' latch arguments.
        let mut func = func;
        let (iid, sid) = match (i, s) {
            (Operand::Inst(a), Operand::Inst(bb)) => (a, bb),
            _ => unreachable!(),
        };
        let (i2id, s2id) = match (i2, s2) {
            (Operand::Inst(a), Operand::Inst(bb)) => (a, bb),
            _ => unreachable!(),
        };
        for (phi, val) in [(iid, i2id), (sid, s2id)] {
            if let crate::inst::InstKind::Phi { args } = &mut func.insts[phi.index()].kind {
                args.push((body, Operand::Inst(val)));
            }
        }
        let mut m = Module::new();
        m.add_func(func);
        m
    }

    /// Every stream position resumes at an op whose metadata starts at or
    /// after it within the same block, and pair tails resume exactly at the
    /// pair's second constituent.
    fn assert_total(decoded: &DecodedModule, sup: &SuperblockModule) {
        for (df, sf) in decoded.funcs.iter().zip(&sup.funcs) {
            assert_eq!(sf.meta.len(), sf.ops.len());
            for (db, sb) in df.blocks.iter().zip(sf.blocks.iter()) {
                let (start, end) = sb.range;
                assert!(start < end, "every block has at least one op");
                let last = sf.ops[end as usize - 1].opc;
                assert!(
                    matches!(
                        last,
                        SOpc::FallOff
                            | SOpc::Jump
                            | SOpc::Branch
                            | SOpc::BranchImm
                            | SOpc::RetVal
                            | SOpc::RetImm
                            | SOpc::RetVoid
                    ) || sf.ops[end as usize - 2].opc.is_pair(),
                    "block ends in a terminator or sentinel: {last:?}"
                );
                for pos in db.body_start..db.body_end {
                    let idx = sf.op_at[pos as usize];
                    assert!(
                        start <= idx && idx < end,
                        "position {pos} resumes in its block"
                    );
                    assert!(sf.meta[idx as usize].pos >= pos);
                }
                let mut idx = start as usize;
                while idx < end as usize {
                    let (s, m) = (&sf.ops[idx], &sf.meta[idx]);
                    if s.opc.is_pair() {
                        let tail = &sf.meta[idx + 1];
                        assert_eq!(tail.inst, m.inst2);
                        assert_eq!(tail.pos, m.pos + 1);
                        assert_eq!(sf.op_at[tail.pos as usize] as usize, idx + 1);
                        idx += 2;
                    } else {
                        idx += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn sinst_stays_compact() {
        // The hot dispatch loop's working set: one 40-byte record per op.
        assert!(std::mem::size_of::<SInst>() <= 40, "SInst grew");
        assert!(std::mem::size_of::<SMeta>() <= 24, "SMeta grew");
    }

    #[test]
    fn loop_blocks_fuse_and_account() {
        let m = loop_module();
        let decoded = DecodedModule::new(&m);
        let sup = SuperblockModule::build(&decoded);
        let sf = sup.func(FuncId::new(0));
        // The header ends in cmp+branch: fused.
        let has_cmpbr = sf
            .ops
            .iter()
            .any(|o| matches!(o.opc, SOpc::CmpBr | SOpc::CmpBrImm));
        assert!(has_cmpbr, "cmp+branch must fuse: {:?}", sf.ops);
        // `i + 1` feeding the backedge fuses into the jump.
        assert!(sf
            .ops
            .iter()
            .any(|o| o.opc == SOpc::BinImmJump && o.bin == crate::BinOp::Add));
        // Per-block totals match the decoded bodies.
        let df = decoded.func(FuncId::new(0));
        for (bi, sb) in sf.blocks.iter().enumerate() {
            let db = &df.blocks[bi];
            assert_eq!(sb.retires, (db.phis.len() + db.body.len()) as u64);
            let lat: u64 = db.body.iter().map(|&i| df.insts[i.index()].latency).sum();
            assert_eq!(sb.cycles, lat);
            assert!(!sb.has_call);
        }
        assert_total(&decoded, &sup);
    }

    #[test]
    fn cmp_feeding_fused_branch_elides_its_slot_when_single_use() {
        let m = loop_module();
        let decoded = DecodedModule::new(&m);
        let sup = SuperblockModule::build(&decoded);
        let sf = sup.func(FuncId::new(0));
        let at = sf
            .ops
            .iter()
            .position(|o| matches!(o.opc, SOpc::CmpBr | SOpc::CmpBrImm))
            .expect("fused cmp+branch");
        // The comparison feeds only the branch, so its slot write is elided,
        // and the tail branches on the comparison's real slot.
        assert_eq!(sf.ops[at].dst, NO_SLOT);
        let tail = &sf.ops[at + 1];
        assert_eq!(tail.opc, SOpc::Branch);
        assert_eq!(tail.a, sf.meta[at].inst.0);
    }

    #[test]
    fn blocks_with_calls_lower() {
        let mut m = Module::new();
        let mut cal = FuncBuilder::new("leaf", vec![("x".into(), Ty::I64)], Some(Ty::I64));
        let x = cal.param(0);
        let r = cal.binary(BinOp::Mul, x, Operand::const_i64(3));
        cal.ret(Some(r));
        let leaf = m.add_func(cal.finish());
        let mut b = FuncBuilder::new("main", vec![("n".into(), Ty::I64)], Some(Ty::I64));
        let n = b.param(0);
        let r = b
            .call(leaf, vec![n, Operand::const_i64(7)], Some(Ty::I64))
            .expect("call");
        b.ret(Some(r));
        m.add_func(b.finish());
        let decoded = DecodedModule::new(&m);
        let sup = SuperblockModule::build(&decoded);
        let caller = sup.func(FuncId::new(1));
        assert!(caller.blocks[0].has_call);
        let call = caller
            .ops
            .iter()
            .find(|o| o.opc == SOpc::Call)
            .expect("call op");
        assert_eq!(call.aux, leaf.0);
        let args = &caller.args[call.a as usize..(call.a + call.b) as usize];
        assert_eq!(args[1], DVal::Bits(7));
        assert_total(&decoded, &sup);
    }

    #[test]
    fn irregular_blocks_lower() {
        // 20 leading phis, a phi row with a missing source, an out-of-range
        // constant store and a block that falls off its end.
        let mut b = FuncBuilder::new("irregular", vec![], Some(Ty::I64));
        let entry = b.entry();
        let merge = b.add_block();
        let dead = b.add_block();
        b.switch_to(entry);
        b.jump(merge);
        b.switch_to(merge);
        let mut phis = Vec::new();
        for k in 0..20 {
            phis.push(b.phi(Ty::I64, vec![(entry, Operand::const_i64(k))]));
        }
        let orphan = b.phi(Ty::I64, vec![(dead, Operand::const_i64(1))]);
        b.store(
            Operand::const_i64(-5),
            Operand::const_i64(i64::MIN + 3),
            crate::ids::RegionId::UNKNOWN,
        );
        b.ret(Some(orphan));
        b.switch_to(dead);
        let _ = b.binary(BinOp::Add, phis[0], Operand::const_i64(1));
        let mut m = Module::new();
        m.add_func(b.finish());
        let decoded = DecodedModule::new(&m);
        let sup = SuperblockModule::build(&decoded);
        let sf = sup.func(FuncId::new(0));
        let merge_sb = &sf.blocks[merge.index()];
        assert_eq!(merge_sb.phis.len(), 1);
        assert_eq!(merge_sb.phis[0].moves.len(), 21);
        assert_eq!(merge_sb.phis[0].missing, orphan.as_inst());
        let store = sf
            .ops
            .iter()
            .find(|o| o.opc == SOpc::StoreII)
            .expect("const/const store");
        assert_eq!(store.imm as i64, -5);
        assert_eq!(
            u64::from(store.a) | (u64::from(store.b) << 32),
            (i64::MIN + 3) as u64
        );
        let (_, end) = sf.blocks[dead.index()].range;
        assert_eq!(sf.ops[end as usize - 1].opc, SOpc::FallOff);
        assert_total(&decoded, &sup);
    }

    #[test]
    fn constant_operands_fold_to_a_single_def() {
        let mut b = FuncBuilder::new("k", vec![], Some(Ty::I64));
        let v = b.binary(BinOp::Mul, Operand::const_i64(6), Operand::const_i64(7));
        b.ret(Some(v));
        let mut m = Module::new();
        m.add_func(b.finish());
        let decoded = DecodedModule::new(&m);
        let sup = SuperblockModule::build(&decoded);
        let folded = sup.funcs[0]
            .ops
            .iter()
            .find(|o| o.opc == SOpc::FoldedDef)
            .expect("folded def");
        assert_eq!(folded.imm, 42);
    }

    #[test]
    fn swapped_comparisons_stay_exact() {
        let vals: [i64; 4] = [-3, 0, 7, i64::MIN];
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for &a in &vals {
                for &b in &vals {
                    assert_eq!(op.eval_i64(a, b), cmp_swapped(op).eval_i64(b, a));
                }
            }
            let fvals = [-1.5, 0.0, 2.25, f64::NAN, f64::INFINITY];
            for &a in &fvals {
                for &b in &fvals {
                    assert_eq!(op.eval_f64(a, b), cmp_swapped(op).eval_f64(b, a));
                }
            }
        }
    }
}
