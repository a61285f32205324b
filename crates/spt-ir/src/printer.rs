//! Textual IR printer for debugging and golden tests.

use crate::inst::InstKind;
use crate::module::{Function, Module};
use std::fmt::Write as _;

/// Renders a function as text.
///
/// The format is stable enough for golden tests:
///
/// ```text
/// fn sum(n: i64) -> i64 {
/// bb0:
///   v0 = param 0
///   ...
/// }
/// ```
pub fn print_func(func: &Function) -> String {
    let mut out = String::new();
    let params: Vec<String> = func
        .params
        .iter()
        .map(|(n, t)| format!("{n}: {t}"))
        .collect();
    let ret = func.ret_ty.map(|t| format!(" -> {t}")).unwrap_or_default();
    let _ = writeln!(out, "fn {}({}){} {{", func.name, params.join(", "), ret);
    for bb in func.block_ids() {
        let block = func.block(bb);
        if block.insts.is_empty() {
            continue;
        }
        let _ = writeln!(out, "{bb}:");
        for &i in &block.insts {
            let inst = func.inst(i);
            let lhs = if inst.produces_value() {
                format!("{i} = ")
            } else {
                String::new()
            };
            let body = match &inst.kind {
                InstKind::Param { index } => format!("param {index}"),
                InstKind::Binary { op, lhs, rhs } => format!("{op} {lhs}, {rhs}"),
                InstKind::Unary { op, val } => format!("{op} {val}"),
                InstKind::Cmp {
                    op,
                    operand_ty,
                    lhs,
                    rhs,
                } => format!("cmp.{op}.{operand_ty} {lhs}, {rhs}"),
                InstKind::Phi { args } => {
                    let parts: Vec<String> =
                        args.iter().map(|(b, v)| format!("[{b}: {v}]")).collect();
                    format!("phi {}", parts.join(", "))
                }
                InstKind::Copy { val } => format!("copy {val}"),
                InstKind::RegionBase { region } => format!("region_base {region}"),
                InstKind::Load { addr, region } => format!("load {addr} @{region}"),
                InstKind::Store { addr, val, region } => {
                    format!("store {val} -> {addr} @{region}")
                }
                InstKind::Call { callee, args } => {
                    let parts: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                    format!("call {callee}({})", parts.join(", "))
                }
                InstKind::VarLoad { var } => format!("var_load {var}"),
                InstKind::VarStore { var, val } => format!("var_store {val} -> {var}"),
                InstKind::Jump { target } => format!("jump {target}"),
                InstKind::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => format!("br {cond}, {then_bb}, {else_bb}"),
                InstKind::Ret { val } => match val {
                    Some(v) => format!("ret {v}"),
                    None => "ret".to_string(),
                },
                InstKind::SptFork {
                    loop_tag,
                    spawn_target,
                } => format!("spt_fork #{loop_tag} -> {spawn_target}"),
                InstKind::SptKill { loop_tag } => format!("spt_kill #{loop_tag}"),
            };
            let ty = inst.ty.map(|t| format!(" : {t}")).unwrap_or_default();
            let _ = writeln!(out, "  {lhs}{body}{ty}");
        }
    }
    let _ = writeln!(out, "}}");
    out
}

/// Renders a whole module (globals then functions).
pub fn print_module(module: &Module) -> String {
    let mut out = String::new();
    for (idx, g) in module.globals.iter().enumerate() {
        let _ = writeln!(
            out,
            "global region{idx} {}: [{}; {}]",
            g.name, g.elem_ty, g.size
        );
    }
    if !module.globals.is_empty() {
        out.push('\n');
    }
    for func in &module.funcs {
        out.push_str(&print_func(func));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::Operand;
    use crate::ops::BinOp;
    use crate::types::Ty;

    #[test]
    fn prints_function() {
        let mut b = FuncBuilder::new("f", vec![("x".into(), Ty::I64)], Some(Ty::I64));
        let x = b.param(0);
        let y = b.binary(BinOp::Add, x, Operand::const_i64(1));
        b.ret(Some(y));
        let text = print_func(&b.finish());
        assert!(text.contains("fn f(x: i64) -> i64 {"));
        assert!(text.contains("v0 = param 0 : i64"));
        assert!(text.contains("v1 = add v0, 1 : i64"));
        assert!(text.contains("ret v1"));
    }

    #[test]
    fn prints_module_with_globals() {
        let mut m = Module::new();
        m.add_global("tab", 8, Ty::F64);
        let mut b = FuncBuilder::new("main", vec![], None);
        b.ret(None);
        m.add_func(b.finish());
        let text = print_module(&m);
        assert!(text.contains("global region0 tab: [f64; 8]"));
        assert!(text.contains("fn main()"));
    }
}
