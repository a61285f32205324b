//! The IR's canonical byte form, and the encoding primitives every on-disk
//! and on-wire format in the workspace shares.
//!
//! [`encode_module`] writes an exact, self-delimiting image of a [`Module`]:
//! every function's whole instruction and block arena (unplaced arena
//! entries included), every global with its initializer, float immediates
//! by bit pattern. [`decode_module`] inverts it, so a decoded module is
//! `==` to the one encoded, and two modules encode to the same bytes exactly
//! when they are equal. That makes the bytes the IR's identity:
//! [`Function::content_hash`] and [`Module::content_hash`] hash them with
//! [`word_hash`].
//!
//! Integers are LEB128 varints ([`put_varint`]), signed ones zigzag-mapped
//! first ([`zigzag`]); enums are one tag byte. The encoding carries no
//! magic, version or checksum: the formats that store it frame it.

use crate::ids::{BlockId, FuncId, InstId, RegionId, VarId};
use crate::inst::{Inst, InstKind, Operand};
use crate::module::{Block, Function, Global, Module};
use crate::ops::{BinOp, CmpOp, UnOp};
use crate::types::Ty;

/// Map a signed value onto an unsigned one so that small magnitudes (of
/// either sign) become small varints.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append `v` to `out` as an LEB128 varint (1..=10 bytes).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode one LEB128 varint from `buf` starting at `*pos`, advancing `*pos`.
/// Returns `None` on truncation or a varint longer than 10 bytes.
#[inline]
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Multiplier of [`word_hash`]'s step (odd, so each step is a bijection).
const WORD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// A 64-bit hash of `bytes` that consumes one 8-byte word per step (the
/// tail zero-padded, the length folded in first), then avalanches the
/// result. Each step is a bijection of the running state for a fixed
/// word, so two inputs of one length that differ in a single word always
/// hash differently: a checksum catches any damage confined to one word,
/// and a wider one with probability 1 − 2⁻⁶⁴.
pub fn word_hash(bytes: &[u8]) -> u64 {
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(WORD_MUL).rotate_left(29);
    let mut h = (bytes.len() as u64).wrapping_mul(WORD_MUL);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let mut word = [0u8; 8];
        word.copy_from_slice(w);
        h = step(h, u64::from_le_bytes(word));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = step(h, u64::from_le_bytes(tail));
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A cursor over encoded bytes; every read is `None` past the end or on a
/// malformed field, so decoding arbitrary bytes never panics.
pub struct Reader<'a> {
    buf: &'a [u8],
    /// The offset of the next unread byte.
    pub pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader of `buf` from offset `pos`.
    pub fn new(buf: &'a [u8], pos: usize) -> Self {
        Reader { buf, pos }
    }

    /// One byte.
    pub fn byte(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    /// One varint.
    #[inline]
    pub fn varint(&mut self) -> Option<u64> {
        get_varint(self.buf, &mut self.pos)
    }

    /// A varint that fits a `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        u32::try_from(self.varint()?).ok()
    }

    /// A varint used as an element count: at most one element per
    /// remaining byte, so a damaged count cannot demand a huge allocation.
    pub fn count(&mut self) -> Option<usize> {
        let n = usize::try_from(self.varint()?).ok()?;
        (n <= self.buf.len() - self.pos).then_some(n)
    }

    /// A boolean byte (0 or 1).
    pub fn bool(&mut self) -> Option<bool> {
        match self.byte()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        let n = self.count()?;
        let bytes = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

/// Appends a length-prefixed string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

// Operator tags are declaration-order discriminants (`op as u8`); these
// tables, in the same order, decode them.
const BIN_OPS: [BinOp; 12] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Min,
    BinOp::Max,
];
const UN_OPS: [UnOp; 6] = [
    UnOp::Neg,
    UnOp::Not,
    UnOp::Abs,
    UnOp::Sqrt,
    UnOp::IntToFloat,
    UnOp::FloatToInt,
];
const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

fn put_ty(out: &mut Vec<u8>, ty: Ty) {
    out.push(match ty {
        Ty::I64 => 0,
        Ty::F64 => 1,
    });
}

fn get_ty(r: &mut Reader<'_>) -> Option<Ty> {
    match r.byte()? {
        0 => Some(Ty::I64),
        1 => Some(Ty::F64),
        _ => None,
    }
}

fn put_opt_ty(out: &mut Vec<u8>, ty: Option<Ty>) {
    out.push(match ty {
        None => 0,
        Some(Ty::I64) => 1,
        Some(Ty::F64) => 2,
    });
}

fn get_opt_ty(r: &mut Reader<'_>) -> Option<Option<Ty>> {
    match r.byte()? {
        0 => Some(None),
        1 => Some(Some(Ty::I64)),
        2 => Some(Some(Ty::F64)),
        _ => None,
    }
}

fn put_operand(out: &mut Vec<u8>, op: Operand) {
    match op {
        Operand::Inst(id) => {
            out.push(0);
            put_varint(out, id.0 as u64);
        }
        Operand::ConstI64(v) => {
            out.push(1);
            put_varint(out, zigzag(v));
        }
        Operand::ConstF64Bits(bits) => {
            out.push(2);
            put_varint(out, bits);
        }
    }
}

fn get_operand(r: &mut Reader<'_>) -> Option<Operand> {
    match r.byte()? {
        0 => Some(Operand::Inst(InstId(r.u32()?))),
        1 => Some(Operand::ConstI64(unzigzag(r.varint()?))),
        2 => Some(Operand::ConstF64Bits(r.varint()?)),
        _ => None,
    }
}

fn put_kind(out: &mut Vec<u8>, kind: &InstKind) {
    let id = |out: &mut Vec<u8>, v: u32| put_varint(out, v as u64);
    match kind {
        InstKind::Param { index } => {
            out.push(0);
            put_varint(out, *index as u64);
        }
        InstKind::Binary { op, lhs, rhs } => {
            out.extend_from_slice(&[1, *op as u8]);
            put_operand(out, *lhs);
            put_operand(out, *rhs);
        }
        InstKind::Unary { op, val } => {
            out.extend_from_slice(&[2, *op as u8]);
            put_operand(out, *val);
        }
        InstKind::Cmp {
            op,
            operand_ty,
            lhs,
            rhs,
        } => {
            out.extend_from_slice(&[3, *op as u8]);
            put_ty(out, *operand_ty);
            put_operand(out, *lhs);
            put_operand(out, *rhs);
        }
        InstKind::Phi { args } => {
            out.push(4);
            put_varint(out, args.len() as u64);
            for (bb, v) in args {
                id(out, bb.0);
                put_operand(out, *v);
            }
        }
        InstKind::Copy { val } => {
            out.push(5);
            put_operand(out, *val);
        }
        InstKind::RegionBase { region } => {
            out.push(6);
            id(out, region.0);
        }
        InstKind::Load { addr, region } => {
            out.push(7);
            put_operand(out, *addr);
            id(out, region.0);
        }
        InstKind::Store { addr, val, region } => {
            out.push(8);
            put_operand(out, *addr);
            put_operand(out, *val);
            id(out, region.0);
        }
        InstKind::Call { callee, args } => {
            out.push(9);
            id(out, callee.0);
            put_varint(out, args.len() as u64);
            for a in args {
                put_operand(out, *a);
            }
        }
        InstKind::VarLoad { var } => {
            out.push(10);
            id(out, var.0);
        }
        InstKind::VarStore { var, val } => {
            out.push(11);
            id(out, var.0);
            put_operand(out, *val);
        }
        InstKind::Jump { target } => {
            out.push(12);
            id(out, target.0);
        }
        InstKind::Branch {
            cond,
            then_bb,
            else_bb,
        } => {
            out.push(13);
            put_operand(out, *cond);
            id(out, then_bb.0);
            id(out, else_bb.0);
        }
        InstKind::Ret { val } => match val {
            None => out.extend_from_slice(&[14, 0]),
            Some(v) => {
                out.extend_from_slice(&[14, 1]);
                put_operand(out, *v);
            }
        },
        InstKind::SptFork {
            loop_tag,
            spawn_target,
        } => {
            out.push(15);
            id(out, *loop_tag);
            id(out, spawn_target.0);
        }
        InstKind::SptKill { loop_tag } => {
            out.push(16);
            id(out, *loop_tag);
        }
    }
}

fn get_kind(r: &mut Reader<'_>) -> Option<InstKind> {
    Some(match r.byte()? {
        0 => InstKind::Param {
            index: usize::try_from(r.varint()?).ok()?,
        },
        1 => InstKind::Binary {
            op: *BIN_OPS.get(r.byte()? as usize)?,
            lhs: get_operand(r)?,
            rhs: get_operand(r)?,
        },
        2 => InstKind::Unary {
            op: *UN_OPS.get(r.byte()? as usize)?,
            val: get_operand(r)?,
        },
        3 => InstKind::Cmp {
            op: *CMP_OPS.get(r.byte()? as usize)?,
            operand_ty: get_ty(r)?,
            lhs: get_operand(r)?,
            rhs: get_operand(r)?,
        },
        4 => {
            let n = r.count()?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push((BlockId(r.u32()?), get_operand(r)?));
            }
            InstKind::Phi { args }
        }
        5 => InstKind::Copy {
            val: get_operand(r)?,
        },
        6 => InstKind::RegionBase {
            region: RegionId(r.u32()?),
        },
        7 => InstKind::Load {
            addr: get_operand(r)?,
            region: RegionId(r.u32()?),
        },
        8 => InstKind::Store {
            addr: get_operand(r)?,
            val: get_operand(r)?,
            region: RegionId(r.u32()?),
        },
        9 => {
            let callee = FuncId(r.u32()?);
            let n = r.count()?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(get_operand(r)?);
            }
            InstKind::Call { callee, args }
        }
        10 => InstKind::VarLoad {
            var: VarId(r.u32()?),
        },
        11 => InstKind::VarStore {
            var: VarId(r.u32()?),
            val: get_operand(r)?,
        },
        12 => InstKind::Jump {
            target: BlockId(r.u32()?),
        },
        13 => InstKind::Branch {
            cond: get_operand(r)?,
            then_bb: BlockId(r.u32()?),
            else_bb: BlockId(r.u32()?),
        },
        14 => InstKind::Ret {
            val: match r.byte()? {
                0 => None,
                1 => Some(get_operand(r)?),
                _ => return None,
            },
        },
        15 => InstKind::SptFork {
            loop_tag: r.u32()?,
            spawn_target: BlockId(r.u32()?),
        },
        16 => InstKind::SptKill { loop_tag: r.u32()? },
        _ => return None,
    })
}

/// Appends the canonical encoding of one function.
pub fn encode_function(out: &mut Vec<u8>, f: &Function) {
    put_str(out, &f.name);
    put_varint(out, f.params.len() as u64);
    for (name, ty) in &f.params {
        put_str(out, name);
        put_ty(out, *ty);
    }
    put_opt_ty(out, f.ret_ty);
    put_varint(out, f.insts.len() as u64);
    for inst in &f.insts {
        put_kind(out, &inst.kind);
        put_opt_ty(out, inst.ty);
    }
    put_varint(out, f.blocks.len() as u64);
    for block in &f.blocks {
        put_varint(out, block.insts.len() as u64);
        for i in &block.insts {
            put_varint(out, i.0 as u64);
        }
    }
    put_varint(out, f.entry.0 as u64);
    put_varint(out, f.num_vars as u64);
}

fn decode_function(r: &mut Reader<'_>) -> Option<Function> {
    let name = r.str()?;
    let n = r.count()?;
    let mut params = Vec::with_capacity(n);
    for _ in 0..n {
        params.push((r.str()?, get_ty(r)?));
    }
    let ret_ty = get_opt_ty(r)?;
    let n = r.count()?;
    let mut insts = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = get_kind(r)?;
        insts.push(Inst::new(kind, get_opt_ty(r)?));
    }
    let n = r.count()?;
    let mut blocks = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.count()?;
        let mut block = Block {
            insts: Vec::with_capacity(len),
        };
        for _ in 0..len {
            block.insts.push(InstId(r.u32()?));
        }
        blocks.push(block);
    }
    Some(Function {
        name,
        params,
        ret_ty,
        insts,
        blocks,
        entry: BlockId(r.u32()?),
        num_vars: usize::try_from(r.varint()?).ok()?,
    })
}

/// Appends the canonical encoding of a globals table.
pub fn encode_globals(out: &mut Vec<u8>, globals: &[Global]) {
    put_varint(out, globals.len() as u64);
    for g in globals {
        put_str(out, &g.name);
        put_varint(out, g.size as u64);
        put_ty(out, g.elem_ty);
        match &g.init {
            None => out.push(0),
            Some(words) => {
                out.push(1);
                put_varint(out, words.len() as u64);
                for &w in words {
                    put_varint(out, w);
                }
            }
        }
    }
}

fn decode_globals(r: &mut Reader<'_>) -> Option<Vec<Global>> {
    let n = r.count()?;
    let mut globals = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let size = usize::try_from(r.varint()?).ok()?;
        let elem_ty = get_ty(r)?;
        let init = match r.byte()? {
            0 => None,
            1 => {
                let len = r.count()?;
                let mut words = Vec::with_capacity(len);
                for _ in 0..len {
                    words.push(r.varint()?);
                }
                Some(words)
            }
            _ => return None,
        };
        globals.push(Global {
            name,
            size,
            elem_ty,
            init,
        });
    }
    Some(globals)
}

/// Appends the canonical encoding of `m`: its functions in index order,
/// then its globals table.
pub fn encode_module(out: &mut Vec<u8>, m: &Module) {
    put_varint(out, m.funcs.len() as u64);
    for f in &m.funcs {
        encode_function(out, f);
    }
    encode_globals(out, &m.globals);
}

/// Inverse of [`encode_module`], reading from `r`; `None` when the bytes
/// are not a module encoding.
pub fn decode_module(r: &mut Reader<'_>) -> Option<Module> {
    let n = r.count()?;
    let mut funcs = Vec::with_capacity(n);
    for _ in 0..n {
        funcs.push(decode_function(r)?);
    }
    Some(Module {
        funcs,
        globals: decode_globals(r)?,
    })
}

/// [`word_hash`] of the bytes `encode` appends.
pub(crate) fn hash_encoding(encode: impl FnOnce(&mut Vec<u8>)) -> u64 {
    let mut buf = Vec::with_capacity(1024);
    encode(&mut buf);
    word_hash(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;

    #[test]
    fn varint_round_trip() {
        let samples = [
            0u64,
            1,
            127,
            128,
            255,
            16_384,
            u32::MAX as u64,
            u64::MAX,
            0x8000_0000_0000_0000,
        ];
        let mut buf = Vec::new();
        for &s in &samples {
            put_varint(&mut buf, s);
        }
        let mut pos = 0;
        for &s in &samples {
            assert_eq!(get_varint(&buf, &mut pos), Some(s));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_truncated_is_none() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        buf.pop();
        let mut pos = 0;
        assert_eq!(get_varint(&buf, &mut pos), None);
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 123_456, -987_654] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes stay small.
        assert!(zigzag(-1) <= 2);
        assert!(zigzag(1) <= 2);
    }

    #[test]
    fn operator_tables_are_in_tag_order() {
        assert!(BIN_OPS.iter().enumerate().all(|(i, &op)| op as usize == i));
        assert!(UN_OPS.iter().enumerate().all(|(i, &op)| op as usize == i));
        assert!(CMP_OPS.iter().enumerate().all(|(i, &op)| op as usize == i));
    }

    #[test]
    fn word_hash_sees_every_byte_and_the_length() {
        let base: Vec<u8> = (0..37u8).collect();
        let h = word_hash(&base);
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 0x01;
            assert_ne!(word_hash(&flipped), h, "byte {i}");
        }
        let mut padded = base.clone();
        padded.push(0);
        assert_ne!(word_hash(&padded), h);
        assert_ne!(word_hash(&base[..36]), h);
        assert_ne!(word_hash(&[]), word_hash(&[0]));
    }

    /// A module using every instruction kind, operand form and global shape.
    fn every_kind() -> Module {
        let mut m = Module::new();
        let g = m.add_global("g", 4, Ty::I64);
        m.add_global("h", 2, Ty::F64);
        m.globals[1].init = Some(vec![f64::NAN.to_bits(), 1]);
        let mut b = FuncBuilder::new("f", vec![("x".into(), Ty::I64)], Some(Ty::I64));
        let x = b.param(0);
        let base = b.region_base(g);
        let sum = b.binary(BinOp::Max, x, Operand::const_i64(-7));
        b.store(base, sum, g);
        b.ret(Some(sum));
        let mut f = b.finish();
        let bb = f.add_block();
        let a = f.append_inst(
            bb,
            Inst::new(InstKind::VarLoad { var: VarId(3) }, Some(Ty::F64)),
        );
        let kinds = [
            InstKind::Unary {
                op: UnOp::FloatToInt,
                val: Operand::const_f64(-0.0),
            },
            InstKind::Cmp {
                op: CmpOp::Ge,
                operand_ty: Ty::F64,
                lhs: Operand::Inst(a),
                rhs: Operand::ConstF64Bits(f64::NAN.to_bits() | 1),
            },
            InstKind::Phi {
                args: vec![
                    (bb, Operand::Inst(a)),
                    (BlockId(0), Operand::const_i64(i64::MIN)),
                ],
            },
            InstKind::Copy {
                val: Operand::Inst(a),
            },
            InstKind::Load {
                addr: Operand::const_i64(3),
                region: RegionId::UNKNOWN,
            },
            InstKind::Call {
                callee: FuncId(0),
                args: vec![Operand::const_i64(1), Operand::Inst(a)],
            },
            InstKind::VarStore {
                var: VarId(0),
                val: Operand::const_i64(2),
            },
            InstKind::SptFork {
                loop_tag: 9,
                spawn_target: bb,
            },
            InstKind::SptKill { loop_tag: u32::MAX },
            InstKind::Ret { val: None },
        ];
        for kind in kinds {
            f.append_inst(bb, Inst::new(kind, None));
        }
        // An arena entry no block places still belongs to the function.
        f.add_inst(Inst::new(InstKind::Jump { target: bb }, None));
        let mut branch = FuncBuilder::new("g", vec![], None);
        let c = branch.binary(BinOp::Shl, Operand::const_i64(1), Operand::const_i64(2));
        let then_bb = branch.add_block();
        branch.branch(c, then_bb, then_bb);
        branch.switch_to(then_bb);
        branch.ret(None);
        m.add_func(f);
        m.add_func(branch.finish());
        m.funcs[0].num_vars = 5;
        m
    }

    #[test]
    fn module_round_trips_exactly_and_rejects_damage() {
        let m = every_kind();
        let mut bytes = Vec::new();
        encode_module(&mut bytes, &m);
        let mut r = Reader::new(&bytes, 0);
        let back = decode_module(&mut r).expect("decodes");
        assert_eq!(r.pos, bytes.len());
        assert_eq!(back, m);
        let mut again = Vec::new();
        encode_module(&mut again, &back);
        assert_eq!(again, bytes);
        for cut in 0..bytes.len() {
            assert!(decode_module(&mut Reader::new(&bytes[..cut], 0)).is_none());
        }
    }
}
