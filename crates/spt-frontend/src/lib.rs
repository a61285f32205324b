//! `minic` frontend: a small C-like language compiled to the SPT IR.
//!
//! The PLDI 2004 paper implements its framework inside ORC's scalar
//! optimizer, consuming C programs. This crate plays the role of ORC's
//! frontend: it lexes, parses, type-checks and lowers `minic` — a C subset
//! with 64-bit integers/floats, global arrays, `while`/`for`/`if`, and
//! function calls — into the SSA IR of [`spt_ir`].
//!
//! # Language sketch
//!
//! ```text
//! global cost: float;
//! global error[4096]: float;
//!
//! fn kernel(n: int) -> float {
//!     let i = 0;
//!     let acc = 0.0;
//!     while (i < n) {
//!         acc = acc + fabs(error[i]);
//!         i = i + 1;
//!     }
//!     return acc;
//! }
//! ```
//!
//! # Example
//!
//! ```
//! let src = "fn main() -> int { let x = 2; return x * 21; }";
//! let module = spt_frontend::compile(src)?;
//! assert!(module.func_by_name("main").is_some());
//! # Ok::<(), spt_frontend::CompileError>(())
//! ```

// The frontend faces arbitrary (possibly hostile) source text: every
// failure must surface as a `CompileError`, never a panic. Production code
// therefore may not unwrap/expect; tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod ast;
mod lexer;
mod lower;
mod parser;

use spt_ir::Module;
use std::fmt;

/// A frontend diagnostic with source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileError {
    /// Human-readable message.
    pub message: String,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub col: usize,
}

impl CompileError {
    pub(crate) fn new(message: impl Into<String>, line: usize, col: usize) -> Self {
        CompileError {
            message: message.into(),
            line,
            col,
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for CompileError {}

/// Compiles `minic` source into an SSA-form IR [`Module`].
///
/// The returned module has been through SSA construction and the standard
/// cleanup pipeline, and passes the IR verifier.
///
/// # Errors
///
/// Returns a [`CompileError`] on any lexical, syntactic or type error.
pub fn compile(source: &str) -> Result<Module, CompileError> {
    let mut module = compile_raw(source)?;
    for func in &mut module.funcs {
        spt_ir::ssa::mem2reg(func);
        spt_ir::passes::cleanup(func);
        spt_ir::passes::loop_simplify(func);
        spt_ir::passes::cleanup(func);
        spt_ir::passes::loop_simplify(func);
    }
    spt_ir::verify::verify_module(&module).map_err(|e| CompileError::new(e.to_string(), 0, 0))?;
    Ok(module)
}

/// Compiles without running SSA construction or cleanup; useful for tests
/// that want to observe the raw lowered IR.
///
/// # Errors
///
/// Returns a [`CompileError`] on any lexical, syntactic or type error.
pub fn compile_raw(source: &str) -> Result<Module, CompileError> {
    // The tokens go as soon as the AST is built, and the AST with this
    // frame, so neither is alive while `compile` runs the IR passes.
    let program = parser::parse(&lexer::lex(source)?)?;
    lower::lower(&program)
}
