//! Intermediate representation substrate for the SPT cost-driven speculative
//! parallelization framework.
//!
//! The PLDI 2004 paper implements its framework inside the Open Research
//! Compiler's machine-independent scalar optimizer (WOPT), operating on SSA
//! form. This crate provides the equivalent substrate built from scratch:
//!
//! * a typed, instruction-granular IR with explicit control flow
//!   ([`Function`], [`Block`], [`Inst`]),
//! * control-flow utilities (predecessors/successors, reverse postorder),
//! * dominator trees and dominance frontiers ([`dom`]),
//! * natural-loop discovery and a loop-nest forest ([`loops`]),
//! * SSA construction from frontend variable slots ([`ssa`]),
//! * the cleanup passes the paper applies after its SPT transformation
//!   (copy propagation, dead-code elimination, CFG simplification; see
//!   [`passes`]),
//! * an IR verifier ([`verify`]) and a textual printer ([`printer`]),
//! * the canonical byte encoding that is the IR's identity ([`codec`]).
//!
//! The IR models memory as a set of *regions* (arrays/globals); loads and
//! stores carry a region attribution used for type-based disambiguation, the
//! same role ORC's type-based alias analysis plays in the paper.
//!
//! # Example
//!
//! ```
//! use spt_ir::{FuncBuilder, Module, Ty, BinOp, Operand};
//!
//! let mut module = Module::new();
//! let mut b = FuncBuilder::new("add1", vec![("x".into(), Ty::I64)], Some(Ty::I64));
//! let x = b.param(0);
//! let one = Operand::const_i64(1);
//! let sum = b.binary(BinOp::Add, x, one);
//! b.ret(Some(sum));
//! let func = b.finish();
//! module.add_func(func);
//! assert!(spt_ir::verify::verify_module(&module).is_ok());
//! ```

pub mod builder;
pub mod cfg;
pub mod codec;
pub mod dom;
pub mod groups;
pub mod ids;
pub mod inst;
pub mod loops;
pub mod module;
pub mod ops;
pub mod passes;
pub mod printer;
pub mod ssa;
pub mod superblock;
pub mod types;
pub mod verify;

pub use builder::FuncBuilder;
pub use cfg::Cfg;
pub use dom::DomTree;
pub use groups::Groups;
pub use ids::{BlockId, FuncId, InstId, RegionId, VarId};
pub use inst::{Inst, InstKind, Operand};
pub use loops::{Loop, LoopForest, LoopId};
pub use module::{Block, Function, Global, Module, Successors};
pub use ops::{BinOp, CmpOp, UnOp};
pub use superblock::{DVal, SBlock, SInst, SOpc, SuperblockFunc, SuperblockModule, NO_SLOT};
pub use types::Ty;
