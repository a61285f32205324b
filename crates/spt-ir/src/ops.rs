//! Operators: binary, unary and comparison operations, with constant
//! evaluation helpers and the static latency classes used by the cost model
//! and the SPT machine simulator.

use crate::types::Ty;
use std::fmt;

/// Binary arithmetic/logic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition (wrapping for `i64`).
    Add,
    /// Subtraction (wrapping for `i64`).
    Sub,
    /// Multiplication (wrapping for `i64`).
    Mul,
    /// Division. Integer division by zero yields 0 (the interpreter traps are
    /// avoided so profiling runs always complete, mirroring a speculative
    /// hardware context that suppresses faults).
    Div,
    /// Remainder; remainder by zero yields 0.
    Rem,
    /// Bitwise and (integers only).
    And,
    /// Bitwise or (integers only).
    Or,
    /// Bitwise xor (integers only).
    Xor,
    /// Logical shift left, masked shift amount (integers only).
    Shl,
    /// Arithmetic shift right, masked shift amount (integers only).
    Shr,
    /// Two-operand minimum.
    Min,
    /// Two-operand maximum.
    Max,
}

impl BinOp {
    /// Evaluates the operator on two `i64` operands.
    #[inline(always)]
    pub fn eval_i64(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 || (a == i64::MIN && b == -1) {
                    0
                } else {
                    a / b
                }
            }
            BinOp::Rem => {
                if b == 0 || (a == i64::MIN && b == -1) {
                    0
                } else {
                    a % b
                }
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl((b & 63) as u32),
            BinOp::Shr => a.wrapping_shr((b & 63) as u32),
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        }
    }

    /// Evaluates the operator on two `f64` operands.
    ///
    /// Bitwise/shift operators are meaningless on floats; they evaluate to
    /// `0.0` and are rejected earlier by the verifier.
    #[inline(always)]
    pub fn eval_f64(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Rem => a % b,
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
            BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr => 0.0,
        }
    }

    /// Returns `true` if the operator is defined for the given operand type.
    pub fn supports(self, ty: Ty) -> bool {
        match self {
            BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr => ty == Ty::I64,
            _ => true,
        }
    }

    /// Static latency in machine cycles, used both by the misspeculation
    /// cost model (`Cost(c)` in §4.2.4 of the paper) and the simulator.
    pub fn latency(self, ty: Ty) -> u64 {
        match (self, ty) {
            (BinOp::Mul, Ty::I64) => 3,
            (BinOp::Div | BinOp::Rem, Ty::I64) => 20,
            (BinOp::Mul, Ty::F64) => 4,
            (BinOp::Div | BinOp::Rem, Ty::F64) => 24,
            (_, Ty::F64) => 4,
            _ => 1,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Min => "min",
            BinOp::Max => "max",
        };
        write!(f, "{s}")
    }
}

/// Unary operators, including the pure math intrinsics the benchmark programs
/// use (`fabs` appears in the paper's Figure 2 example).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Bitwise not (integers only).
    Not,
    /// Absolute value (`fabs` for floats, `labs` for integers).
    Abs,
    /// Square root (floats; integer operand converted first).
    Sqrt,
    /// Convert `i64` to `f64`.
    IntToFloat,
    /// Convert `f64` to `i64` (truncating).
    FloatToInt,
}

impl UnOp {
    /// Evaluates the operator on an `i64` operand, returning an `i64`
    /// whenever the result type is integral.
    #[inline(always)]
    pub fn eval_i64(self, a: i64) -> i64 {
        match self {
            UnOp::Neg => a.wrapping_neg(),
            UnOp::Not => !a,
            UnOp::Abs => a.wrapping_abs(),
            UnOp::Sqrt => (a.max(0) as f64).sqrt() as i64,
            UnOp::IntToFloat | UnOp::FloatToInt => a,
        }
    }

    /// Evaluates the operator on an `f64` operand.
    #[inline(always)]
    pub fn eval_f64(self, a: f64) -> f64 {
        match self {
            UnOp::Neg => -a,
            UnOp::Not => 0.0,
            UnOp::Abs => a.abs(),
            UnOp::Sqrt => a.sqrt(),
            UnOp::IntToFloat | UnOp::FloatToInt => a,
        }
    }

    /// The result type of the operator given its operand type.
    pub fn result_ty(self, operand: Ty) -> Ty {
        match self {
            UnOp::IntToFloat => Ty::F64,
            UnOp::FloatToInt => Ty::I64,
            _ => operand,
        }
    }

    /// Returns `true` if the operator is defined for the given operand type.
    pub fn supports(self, ty: Ty) -> bool {
        match self {
            UnOp::Not => ty == Ty::I64,
            UnOp::IntToFloat => ty == Ty::I64,
            UnOp::FloatToInt => ty == Ty::F64,
            _ => true,
        }
    }

    /// Static latency in machine cycles.
    pub fn latency(self, ty: Ty) -> u64 {
        match self {
            UnOp::Sqrt => 30,
            UnOp::IntToFloat | UnOp::FloatToInt => 4,
            _ => {
                if ty == Ty::F64 {
                    4
                } else {
                    1
                }
            }
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
            UnOp::Abs => "abs",
            UnOp::Sqrt => "sqrt",
            UnOp::IntToFloat => "i2f",
            UnOp::FloatToInt => "f2i",
        };
        write!(f, "{s}")
    }
}

/// Comparison operators. The result is always an `i64` containing 0 or 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl CmpOp {
    /// Evaluates the comparison on `i64` operands.
    #[inline(always)]
    pub fn eval_i64(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// Evaluates the comparison on `f64` operands.
    #[inline(always)]
    pub fn eval_f64(self, a: f64, b: f64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The comparison with swapped operand order (`a op b` == `b op.swapped()
    /// a`). Exact for integers and floats alike, NaN operands included: every
    /// ordered comparison with a NaN is false in both orders.
    pub fn swapped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The logical negation of the comparison.
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_arith() {
        assert_eq!(BinOp::Add.eval_i64(2, 3), 5);
        assert_eq!(BinOp::Sub.eval_i64(2, 3), -1);
        assert_eq!(BinOp::Mul.eval_i64(-4, 3), -12);
        assert_eq!(BinOp::Div.eval_i64(7, 2), 3);
        assert_eq!(BinOp::Rem.eval_i64(7, 2), 1);
    }

    #[test]
    fn division_by_zero_is_total() {
        assert_eq!(BinOp::Div.eval_i64(7, 0), 0);
        assert_eq!(BinOp::Rem.eval_i64(7, 0), 0);
        assert_eq!(BinOp::Div.eval_i64(i64::MIN, -1), 0);
        assert_eq!(BinOp::Rem.eval_i64(i64::MIN, -1), 0);
    }

    #[test]
    fn wrapping_semantics() {
        assert_eq!(BinOp::Add.eval_i64(i64::MAX, 1), i64::MIN);
        assert_eq!(UnOp::Neg.eval_i64(i64::MIN), i64::MIN);
        assert_eq!(UnOp::Abs.eval_i64(i64::MIN), i64::MIN);
    }

    #[test]
    fn shifts_mask_amount() {
        assert_eq!(BinOp::Shl.eval_i64(1, 65), 2);
        assert_eq!(BinOp::Shr.eval_i64(-8, 1), -4);
    }

    #[test]
    fn float_arith() {
        assert_eq!(BinOp::Add.eval_f64(1.5, 2.25), 3.75);
        assert_eq!(UnOp::Abs.eval_f64(-2.5), 2.5);
        assert_eq!(UnOp::Sqrt.eval_f64(9.0), 3.0);
        assert_eq!(BinOp::Min.eval_f64(1.0, 2.0), 1.0);
        assert_eq!(BinOp::Max.eval_i64(1, 2), 2);
    }

    #[test]
    fn type_support() {
        assert!(!BinOp::And.supports(Ty::F64));
        assert!(BinOp::Add.supports(Ty::F64));
        assert!(!UnOp::Not.supports(Ty::F64));
        assert!(UnOp::FloatToInt.supports(Ty::F64));
        assert!(!UnOp::FloatToInt.supports(Ty::I64));
    }

    #[test]
    fn cmp_eval_and_transforms() {
        assert!(CmpOp::Lt.eval_i64(1, 2));
        assert!(!CmpOp::Lt.eval_i64(2, 2));
        assert!(CmpOp::Le.eval_f64(2.0, 2.0));
        assert_eq!(CmpOp::Lt.swapped(), CmpOp::Gt);
        assert_eq!(CmpOp::Lt.negated(), CmpOp::Ge);
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for (a, b) in [(1, 2), (2, 2), (3, 2)] {
                assert_eq!(op.eval_i64(a, b), !op.negated().eval_i64(a, b));
            }
            let ints = [-3, 0, 2, 7, i64::MIN];
            for a in ints {
                for b in ints {
                    assert_eq!(op.eval_i64(a, b), op.swapped().eval_i64(b, a));
                }
            }
            let floats = [-1.5, 0.0, 2.25, f64::NAN, f64::INFINITY];
            for a in floats {
                for b in floats {
                    assert_eq!(op.eval_f64(a, b), op.swapped().eval_f64(b, a));
                }
            }
        }
    }

    #[test]
    fn latencies_ordered() {
        assert!(BinOp::Div.latency(Ty::I64) > BinOp::Mul.latency(Ty::I64));
        assert!(BinOp::Mul.latency(Ty::I64) > BinOp::Add.latency(Ty::I64));
        assert!(UnOp::Sqrt.latency(Ty::F64) > UnOp::Neg.latency(Ty::F64));
    }

    #[test]
    fn conversions() {
        assert_eq!(UnOp::IntToFloat.result_ty(Ty::I64), Ty::F64);
        assert_eq!(UnOp::FloatToInt.result_ty(Ty::F64), Ty::I64);
        assert_eq!(UnOp::Neg.result_ty(Ty::F64), Ty::F64);
    }
}
