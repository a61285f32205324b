//! A convenience builder for constructing IR functions.
//!
//! The builder keeps a *current block* cursor and provides one method per
//! instruction kind. The frontend and the transformation passes both use it;
//! tests use it to write IR fixtures compactly.

use crate::ids::{BlockId, FuncId, InstId, RegionId, VarId};
use crate::inst::{Inst, InstKind, Operand};
use crate::module::Function;
use crate::ops::{BinOp, CmpOp, UnOp};
use crate::types::Ty;

/// Incrementally builds a [`Function`].
///
/// # Example
///
/// ```
/// use spt_ir::{FuncBuilder, Ty, BinOp, CmpOp, Operand};
///
/// // fn sum(n) { s = 0; i = 0; while (i < n) { s = s + i; i = i + 1 } return s }
/// let mut b = FuncBuilder::new("sum", vec![("n".into(), Ty::I64)], Some(Ty::I64));
/// let n = b.param(0);
/// let s = b.declare_var(Ty::I64);
/// let i = b.declare_var(Ty::I64);
/// b.var_store(s, Operand::const_i64(0));
/// b.var_store(i, Operand::const_i64(0));
/// let header = b.add_block();
/// let body = b.add_block();
/// let exit = b.add_block();
/// b.jump(header);
/// b.switch_to(header);
/// let iv = b.var_load(i, Ty::I64);
/// let c = b.cmp(CmpOp::Lt, Ty::I64, iv, n);
/// b.branch(c, body, exit);
/// b.switch_to(body);
/// let sv = b.var_load(s, Ty::I64);
/// let iv2 = b.var_load(i, Ty::I64);
/// let s2 = b.binary(BinOp::Add, sv, iv2);
/// b.var_store(s, s2);
/// let i2 = b.binary(BinOp::Add, iv2, Operand::const_i64(1));
/// b.var_store(i, i2);
/// b.jump(header);
/// b.switch_to(exit);
/// let out = b.var_load(s, Ty::I64);
/// b.ret(Some(out));
/// let func = b.finish();
/// assert_eq!(func.blocks.len(), 4);
/// ```
#[derive(Debug)]
pub struct FuncBuilder {
    func: Function,
    current: BlockId,
    param_insts: Vec<InstId>,
}

impl FuncBuilder {
    /// Starts building a function. Parameter instructions are pre-inserted in
    /// the entry block.
    pub fn new(name: impl Into<String>, params: Vec<(String, Ty)>, ret_ty: Option<Ty>) -> Self {
        let mut func = Function::new(name, params, ret_ty);
        let entry = func.entry;
        let mut param_insts = Vec::with_capacity(func.params.len());
        for index in 0..func.params.len() {
            let ty = func.params[index].1;
            let id = func.append_inst(entry, Inst::new(InstKind::Param { index }, Some(ty)));
            param_insts.push(id);
        }
        FuncBuilder {
            func,
            current: entry,
            param_insts,
        }
    }

    /// The value of the `index`-th parameter.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn param(&self, index: usize) -> Operand {
        Operand::Inst(self.param_insts[index])
    }

    /// Declares a frontend variable slot (pre-SSA mutable local).
    pub fn declare_var(&mut self, _ty: Ty) -> VarId {
        let id = VarId::new(self.func.num_vars);
        self.func.num_vars += 1;
        id
    }

    /// Adds a new empty block.
    pub fn add_block(&mut self) -> BlockId {
        self.func.add_block()
    }

    /// Moves the insertion cursor to `block`.
    pub fn switch_to(&mut self, block: BlockId) {
        self.current = block;
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.func.entry
    }

    fn emit(&mut self, kind: InstKind, ty: Option<Ty>) -> InstId {
        self.func.append_inst(self.current, Inst::new(kind, ty))
    }

    /// Emits a binary operation; the result type is inferred from `lhs` (or
    /// `rhs` when `lhs` is an integer immediate and `rhs` is a float).
    pub fn binary(&mut self, op: BinOp, lhs: Operand, rhs: Operand) -> Operand {
        let ty = self
            .operand_ty(lhs)
            .or_else(|| self.operand_ty(rhs))
            .unwrap_or(Ty::I64);
        Operand::Inst(self.emit(InstKind::Binary { op, lhs, rhs }, Some(ty)))
    }

    /// Emits a typed binary operation.
    pub fn binary_ty(&mut self, op: BinOp, ty: Ty, lhs: Operand, rhs: Operand) -> Operand {
        Operand::Inst(self.emit(InstKind::Binary { op, lhs, rhs }, Some(ty)))
    }

    /// Emits a unary operation.
    pub fn unary(&mut self, op: UnOp, val: Operand) -> Operand {
        let in_ty = self.operand_ty(val).unwrap_or(Ty::I64);
        let ty = op.result_ty(in_ty);
        Operand::Inst(self.emit(InstKind::Unary { op, val }, Some(ty)))
    }

    /// Emits a comparison over operands of type `operand_ty`.
    pub fn cmp(&mut self, op: CmpOp, operand_ty: Ty, lhs: Operand, rhs: Operand) -> Operand {
        Operand::Inst(self.emit(
            InstKind::Cmp {
                op,
                operand_ty,
                lhs,
                rhs,
            },
            Some(Ty::I64),
        ))
    }

    /// Emits a copy.
    pub fn copy(&mut self, val: Operand, ty: Ty) -> Operand {
        Operand::Inst(self.emit(InstKind::Copy { val }, Some(ty)))
    }

    /// Emits a phi with the given incoming `(block, value)` pairs.
    pub fn phi(&mut self, ty: Ty, args: Vec<(BlockId, Operand)>) -> Operand {
        Operand::Inst(self.emit(InstKind::Phi { args }, Some(ty)))
    }

    /// Emits the base address of a region.
    pub fn region_base(&mut self, region: RegionId) -> Operand {
        Operand::Inst(self.emit(InstKind::RegionBase { region }, Some(Ty::I64)))
    }

    /// Emits a load of `elem_ty` from `addr`, attributed to `region`.
    pub fn load_ty(&mut self, addr: Operand, region: RegionId, elem_ty: Ty) -> Operand {
        Operand::Inst(self.emit(InstKind::Load { addr, region }, Some(elem_ty)))
    }

    /// Emits an `i64` load from `addr`, attributed to `region`.
    pub fn load(&mut self, addr: Operand, region: RegionId) -> Operand {
        self.load_ty(addr, region, Ty::I64)
    }

    /// Emits a store of `val` to `addr`, attributed to `region`.
    pub fn store(&mut self, addr: Operand, val: Operand, region: RegionId) -> InstId {
        self.emit(InstKind::Store { addr, val, region }, None)
    }

    /// Emits a call; `ret_ty` is the callee's return type.
    pub fn call(
        &mut self,
        callee: FuncId,
        args: Vec<Operand>,
        ret_ty: Option<Ty>,
    ) -> Option<Operand> {
        let id = self.emit(InstKind::Call { callee, args }, ret_ty);
        ret_ty.map(|_| Operand::Inst(id))
    }

    /// Emits a read of a frontend variable slot.
    pub fn var_load(&mut self, var: VarId, ty: Ty) -> Operand {
        Operand::Inst(self.emit(InstKind::VarLoad { var }, Some(ty)))
    }

    /// Emits a write of a frontend variable slot.
    pub fn var_store(&mut self, var: VarId, val: Operand) -> InstId {
        self.emit(InstKind::VarStore { var, val }, None)
    }

    /// Emits an unconditional jump terminator.
    pub fn jump(&mut self, target: BlockId) -> InstId {
        self.emit(InstKind::Jump { target }, None)
    }

    /// Emits a conditional branch terminator.
    pub fn branch(&mut self, cond: Operand, then_bb: BlockId, else_bb: BlockId) -> InstId {
        self.emit(
            InstKind::Branch {
                cond,
                then_bb,
                else_bb,
            },
            None,
        )
    }

    /// Emits a return terminator.
    pub fn ret(&mut self, val: Option<Operand>) -> InstId {
        self.emit(InstKind::Ret { val }, None)
    }

    /// Emits an `SPT_FORK` marker.
    pub fn spt_fork(&mut self, loop_tag: u32, spawn_target: BlockId) -> InstId {
        self.emit(
            InstKind::SptFork {
                loop_tag,
                spawn_target,
            },
            None,
        )
    }

    /// Emits an `SPT_KILL` marker.
    pub fn spt_kill(&mut self, loop_tag: u32) -> InstId {
        self.emit(InstKind::SptKill { loop_tag }, None)
    }

    /// The result type of an operand, when determinable.
    pub fn operand_ty(&self, op: Operand) -> Option<Ty> {
        match op {
            Operand::Inst(id) => self.func.inst(id).ty,
            Operand::ConstI64(_) => Some(Ty::I64),
            Operand::ConstF64Bits(_) => Some(Ty::F64),
        }
    }

    /// Finishes construction, returning the function.
    pub fn finish(self) -> Function {
        self.func
    }

    /// Read-only access to the function under construction.
    pub fn func(&self) -> &Function {
        &self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_straightline_function() {
        let mut b = FuncBuilder::new(
            "f",
            vec![("a".into(), Ty::I64), ("b".into(), Ty::F64)],
            Some(Ty::F64),
        );
        let a = b.param(0);
        let bf = b.param(1);
        let af = b.unary(UnOp::IntToFloat, a);
        let sum = b.binary(BinOp::Add, af, bf);
        b.ret(Some(sum));
        let f = b.finish();
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.block(f.entry).insts.len(), 5);
        assert_eq!(f.param_insts().len(), 2);
    }

    #[test]
    fn type_inference_in_builder() {
        let mut b = FuncBuilder::new("g", vec![], Some(Ty::F64));
        // int imm + float imm => float (inferred from rhs)
        let v = b.binary(BinOp::Add, Operand::const_f64(1.0), Operand::const_f64(2.0));
        assert_eq!(b.operand_ty(v), Some(Ty::F64));
        let w = b.binary(BinOp::Add, Operand::const_i64(1), Operand::const_i64(2));
        assert_eq!(b.operand_ty(w), Some(Ty::I64));
        let c = b.unary(UnOp::IntToFloat, w);
        assert_eq!(b.operand_ty(c), Some(Ty::F64));
        b.ret(Some(c));
    }

    #[test]
    fn memory_ops() {
        let mut b = FuncBuilder::new("h", vec![], None);
        let r = RegionId::new(0);
        let base = b.region_base(r);
        let addr = b.binary(BinOp::Add, base, Operand::const_i64(3));
        let v = b.load(addr, r);
        b.store(addr, v, r);
        b.ret(None);
        let f = b.finish();
        assert_eq!(f.block(f.entry).insts.len(), 5);
    }

    #[test]
    fn var_slots() {
        let mut b = FuncBuilder::new("v", vec![], None);
        let x = b.declare_var(Ty::I64);
        let y = b.declare_var(Ty::F64);
        assert_ne!(x, y);
        b.var_store(x, Operand::const_i64(1));
        let got = b.var_load(x, Ty::I64);
        b.var_store(y, Operand::const_f64(0.5));
        b.ret(None);
        assert!(got.as_inst().is_some());
        assert_eq!(b.func().num_vars, 2);
    }
}
