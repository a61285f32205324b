//! Superblock lowering: threaded-code compilation of the decoded IR.
//!
//! This module compiles every block body once per module into an array of
//! ops ([`SInst`]) that the profiling interpreter and the SPT simulator
//! execute by threaded-code dispatch. It is their only executable form.
//! Every body instruction lowers to exactly one op, in block order:
//!
//! * **constant folding** — pure ops whose operands are all immediates
//!   collapse to a single pre-computed [`SOpc::FoldedDef`];
//! * **immediate specialization** — every opcode comes in slot/slot and
//!   slot/immediate forms (`AddRR`/`AddImm`, `CmpRR`/`CmpImm`, `StoreRR`/
//!   `StoreRI`/…), so the hot dispatch loop never re-discriminates operand
//!   kinds: an [`SInst`] operand (`a`, `b`, `aux`) is always a value-array
//!   slot index, and constants live pre-extracted in `imm`. Reads of
//!   zero-latency constant defs (region bases) fold into `imm` too; the
//!   defs themselves still lower to [`SOpc::ConstV`] ops.
//!
//! **Lowering is total.** Every instruction of every block lowers: calls
//! ([`SOpc::Call`], arguments in [`SuperblockFunc::args`]), stray non-leading
//! phis ([`SOpc::SkipPhi`]), pre-SSA variable accesses
//! ([`SOpc::Unsupported`]) and constant/constant stores at any address
//! ([`SOpc::StoreII`]) each become one op, and a block whose body does not
//! end in a terminator (including an empty one) ends in a [`SOpc::FallOff`]
//! sentinel. Leading phis, however many, lower to one [`PhiRow`] per
//! predecessor edge; a row records a missing source instead of refusing it,
//! so each engine reproduces its own runtime behavior for malformed merges
//! (the interpreter faults, the simulator reads 0).
//!
//! **Every instruction is an op start.** Body instruction `k` of a block is
//! op `range.0 + k` of its [`SBlock`] ([`SuperblockFunc::op_at`]), so an
//! engine resumes at any instruction — after a call returns, or wherever a
//! validation replay stopped — by block-offset arithmetic.
//!
//! The hot [`SInst`] is a compact `Copy` record; the cold per-op metadata
//! engines need for accounting and event replay (the instruction's
//! [`InstId`] and static latency) lives in a parallel [`SMeta`] array.
//! Lowering is purely structural: per-instruction retire order, profiler
//! events and timing semantics are properties of the executing engine.
//! [`SBlock::retires`]/[`SBlock::cycles`] additionally pre-aggregate a
//! block's retirement accounting so non-observing runs can batch it per
//! block entry.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::decoded::{DBlock, DInst, DKind, DVal, DecodedFunc, DecodedModule};
use crate::ids::{BlockId, FuncId, InstId};
use crate::ops::{BinOp, CmpOp, UnOp};

/// Slot sentinel: the op defines no slot.
pub const NO_SLOT: u32 = u32::MAX;

/// Op codes. Field usage per opcode is documented on [`SInst`]. `RR`
/// suffixes read both operands from slots, `Imm` forms carry one constant in
/// [`SInst::imm`].
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
    /// faults. It has no instruction ([`SMeta::inst`] is [`NO_SLOT`]).
    FallOff,
}

/// One op: a compact `Copy` record. `a`/`b`/`aux` are always value-array
/// slot indices (constants are pre-extracted into `imm` by lowering), so the
/// hot loops never re-discriminate operand kinds. Unused fields hold inert
/// defaults. The op's [`DInst`] id and static latency live in the parallel
/// cold array [`SuperblockFunc::meta`].
#[derive(Clone, Copy, Debug)]
pub struct SInst {
    /// Opcode.
    pub opc: SOpc,
    /// Binary operator, for the generic binary opcodes.
    pub bin: BinOp,
    /// Comparison operator, for the compare opcodes.
    pub cmp: CmpOp,
    /// Unary operator, for `UnI64`/`UnF64`.
    pub un: UnOp,
    /// Destination slot ([`NO_SLOT`] = none).
    pub dst: u32,
    /// First operand slot.
    pub a: u32,
    /// Second operand slot.
    pub b: u32,
    /// Third slot: `Call`'s callee.
    pub aux: u32,
    /// Immediate payload (folded bits, specialized-op immediate, parameter
    /// index, or SPT tag).
    pub imm: u64,
    /// Primary control target.
    pub t1: BlockId,
    /// Secondary control target (`Branch` else-target).
    pub t2: BlockId,
}

impl SInst {
    fn new(opc: SOpc) -> SInst {
        SInst {
            opc,
            bin: BinOp::Add,
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

/// Cold per-op metadata, parallel to [`SuperblockFunc::ops`]: the op's
/// decoded instruction and its static latency, read by the simulator and the
/// stepwise interpreter for per-instruction event replay and accounting.
#[derive(Clone, Copy, Debug)]
pub struct SMeta {
    /// The instruction.
    pub inst: InstId,
    /// Its static latency.
    pub lat: u32,
}

impl SMeta {
    fn new(inst: InstId, lat: u64) -> SMeta {
        SMeta {
            inst,
            lat: u32::try_from(lat).unwrap_or(u32::MAX),
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
    /// `[start, end)` into [`SuperblockFunc::ops`]: one op per body
    /// instruction, then a [`SOpc::FallOff`] sentinel when the body does not
    /// end in a terminator.
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
}

/// One function's superblock code.
#[derive(Clone, Debug)]
pub struct SuperblockFunc {
    /// Per-block ranges, indexed by [`BlockId`].
    pub blocks: Box<[SBlock]>,
    /// All ops, grouped per block.
    pub ops: Box<[SInst]>,
    /// Cold per-op metadata, parallel to `ops`.
    pub meta: Box<[SMeta]>,
    /// Call arguments, referenced by [`SOpc::Call`] ops.
    pub args: Box<[DVal]>,
}

impl SuperblockFunc {
    /// The op that executes body instruction `k` of `block`; `k` equal to
    /// the body's length names its [`SOpc::FallOff`] sentinel.
    #[inline(always)]
    pub fn op_at(&self, block: BlockId, k: u32) -> usize {
        (self.blocks[block.index()].range.0 + k) as usize
    }
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

/// Clones `di` with every slot operand that names a zero-latency constant
/// def rewritten to its bits, so lowering encodes immediates.
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

/// The op/meta/argument arrays one function's blocks lower into.
struct Out {
    ops: Vec<SInst>,
    meta: Vec<SMeta>,
    args: Vec<DVal>,
}

fn lower_func(df: &DecodedFunc) -> SuperblockFunc {
    let cmap = const_map(df);
    let mut out = Out {
        ops: Vec::new(),
        meta: Vec::new(),
        args: Vec::new(),
    };
    let blocks: Box<[SBlock]> = df
        .blocks
        .iter()
        .map(|b| lower_block(df, b, &cmap, &mut out))
        .collect();
    SuperblockFunc {
        blocks,
        ops: out.ops.into_boxed_slice(),
        meta: out.meta.into_boxed_slice(),
        args: out.args.into_boxed_slice(),
    }
}

fn lower_block(df: &DecodedFunc, b: &DBlock, cmap: &[Option<u64>], out: &mut Out) -> SBlock {
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

    let body = &b.body;
    let start = out.ops.len() as u32;
    for &i in body.iter() {
        let (op, m) = lower_single(i, &resolve_inst(&df.insts[i.index()], cmap), &mut out.args);
        out.ops.push(op);
        out.meta.push(m);
    }
    let ends_in_terminator = body
        .last()
        .is_some_and(|&i| is_terminator(&df.insts[i.index()].kind));
    if !ends_in_terminator {
        out.ops.push(SInst::new(SOpc::FallOff));
        out.meta.push(SMeta::new(InstId(NO_SLOT), 0));
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
    }
}

/// Lowers one instruction to its op. Total: pure ops whose operands are all
/// immediates fold to [`SOpc::FoldedDef`], and every other shape has an
/// encoding. Call arguments are appended to `args`.
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

    /// One op per body instruction, in block order, then a fall-off
    /// sentinel exactly when the body does not end in a terminator.
    fn assert_total(decoded: &DecodedModule, sup: &SuperblockModule) {
        for (df, sf) in decoded.funcs.iter().zip(&sup.funcs) {
            assert_eq!(sf.meta.len(), sf.ops.len());
            for (db, sb) in df.blocks.iter().zip(sf.blocks.iter()) {
                let (start, end) = (sb.range.0 as usize, sb.range.1 as usize);
                let ops: Vec<InstId> = sf.meta[start..end].iter().map(|m| m.inst).collect();
                let falls_off = sf.ops[end - 1].opc == SOpc::FallOff;
                assert_eq!(&ops[..end - start - usize::from(falls_off)], &db.body[..]);
            }
        }
    }

    #[test]
    fn sinst_stays_compact() {
        // The hot dispatch loop's working set: one 40-byte record per op.
        assert!(std::mem::size_of::<SInst>() <= 40, "SInst grew");
        assert!(std::mem::size_of::<SMeta>() <= 8, "SMeta grew");
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
