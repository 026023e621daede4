//! Kernel expressions.

use std::fmt;

use crate::types::Scalar;

/// Binary operators available to kernels.
///
/// These are the operations Vitis_HLS synthesizes directly into datapath
/// logic; each maps to a macro cell in `hlsim` and to one or a few RV32IM
/// instructions in the softcore compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    #[allow(missing_docs)]
    Add,
    #[allow(missing_docs)]
    Sub,
    #[allow(missing_docs)]
    Mul,
    #[allow(missing_docs)]
    Div,
    #[allow(missing_docs)]
    Rem,
    #[allow(missing_docs)]
    And,
    #[allow(missing_docs)]
    Or,
    #[allow(missing_docs)]
    Xor,
    #[allow(missing_docs)]
    Shl,
    #[allow(missing_docs)]
    Shr,
    #[allow(missing_docs)]
    Eq,
    #[allow(missing_docs)]
    Ne,
    #[allow(missing_docs)]
    Lt,
    #[allow(missing_docs)]
    Le,
    #[allow(missing_docs)]
    Gt,
    #[allow(missing_docs)]
    Ge,
    /// Logical AND: both operands tested against zero.
    LAnd,
    /// Logical OR: both operands tested against zero.
    LOr,
    #[allow(missing_docs)]
    Min,
    #[allow(missing_docs)]
    Max,
}

impl BinOp {
    /// Whether the operator yields a single-bit boolean.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::LAnd
                | BinOp::LOr
        )
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::LAnd => "&&",
            BinOp::LOr => "||",
            BinOp::Min => "min",
            BinOp::Max => "max",
        };
        f.write_str(s)
    }
}

/// Unary operators available to kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Bitwise complement.
    Not,
    /// Logical negation (`!x`, tests against zero).
    LNot,
    /// Absolute value.
    Abs,
}

/// A kernel expression tree.
///
/// Expressions are pure: all side effects (stream I/O, stores) live in
/// [`crate::Stmt`], which is what lets the HLS backend schedule expression
/// DAGs freely within a loop body.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A typed integer literal (raw two's-complement bits of the scalar).
    #[allow(missing_docs)]
    Const { raw: i128, ty: Scalar },
    /// A scalar variable, loop index, or parameter reference.
    Var(String),
    /// An element load: `array[index]`.
    #[allow(missing_docs)]
    ArrayGet { array: String, index: Box<Expr> },
    /// A unary operation.
    #[allow(missing_docs)]
    Un { op: UnOp, arg: Box<Expr> },
    /// A binary operation.
    #[allow(missing_docs)]
    Bin {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// An explicit conversion to `ty` with `ap` assignment semantics.
    #[allow(missing_docs)]
    Cast { ty: Scalar, arg: Box<Expr> },
    /// `cond ? then_val : else_val`, synthesized as a mux.
    #[allow(missing_docs)]
    Select {
        cond: Box<Expr>,
        then_val: Box<Expr>,
        else_val: Box<Expr>,
    },
    /// The `ap_int` range select `arg(hi, lo)`, an unsigned bit-slice.
    #[allow(missing_docs)]
    BitRange { arg: Box<Expr>, hi: u32, lo: u32 },
}

impl Expr {
    /// An integer constant of type `ap_int<32>`.
    pub fn cint(v: i64) -> Expr {
        Expr::Const {
            raw: v as i128,
            ty: Scalar::int(32),
        }
    }

    /// An integer constant of an explicit type.
    pub fn cint_ty(v: i128, ty: Scalar) -> Expr {
        Expr::Const { raw: v, ty }
    }

    /// A fixed-point constant: `value` rounded into shape `ty`.
    ///
    /// # Panics
    ///
    /// Panics if `ty` is not a fixed-point scalar.
    pub fn cfixed(value: f64, ty: Scalar) -> Expr {
        match ty {
            Scalar::Fixed {
                width,
                int_bits,
                signed,
            } => {
                let raw = aplib::DynFixed::from_f64(width, int_bits, signed, value).raw();
                Expr::Const {
                    raw: raw as i128,
                    ty,
                }
            }
            Scalar::Int { .. } => panic!("cfixed requires a fixed-point type"),
        }
    }

    /// A variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// An array element load.
    pub fn index(array: impl Into<String>, index: Expr) -> Expr {
        Expr::ArrayGet {
            array: array.into(),
            index: Box::new(index),
        }
    }

    fn bin(self, op: BinOp, rhs: Expr) -> Expr {
        Expr::Bin {
            op,
            lhs: Box::new(self),
            rhs: Box::new(rhs),
        }
    }

    /// `self + rhs`.
    pub fn add(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Add, rhs)
    }
    /// `self - rhs`.
    pub fn sub(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Sub, rhs)
    }
    /// `self * rhs`.
    pub fn mul(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Mul, rhs)
    }
    /// `self / rhs` (division by zero yields zero).
    pub fn div(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Div, rhs)
    }
    /// `self % rhs` (remainder by zero yields zero).
    pub fn rem(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Rem, rhs)
    }
    /// Bitwise `self & rhs`.
    pub fn and(self, rhs: Expr) -> Expr {
        self.bin(BinOp::And, rhs)
    }
    /// Bitwise `self | rhs`.
    pub fn or(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Or, rhs)
    }
    /// Bitwise `self ^ rhs`.
    pub fn xor(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Xor, rhs)
    }
    /// `self << rhs`.
    pub fn shl(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Shl, rhs)
    }
    /// `self >> rhs` (arithmetic when signed).
    pub fn shr(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Shr, rhs)
    }
    /// `self == rhs`.
    pub fn eq(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Eq, rhs)
    }
    /// `self != rhs`.
    pub fn ne(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Ne, rhs)
    }
    /// `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Lt, rhs)
    }
    /// `self <= rhs`.
    pub fn le(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Le, rhs)
    }
    /// `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Gt, rhs)
    }
    /// `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Ge, rhs)
    }
    /// Logical `self && rhs`.
    pub fn land(self, rhs: Expr) -> Expr {
        self.bin(BinOp::LAnd, rhs)
    }
    /// Logical `self || rhs`.
    pub fn lor(self, rhs: Expr) -> Expr {
        self.bin(BinOp::LOr, rhs)
    }
    /// `min(self, rhs)`.
    pub fn min(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Min, rhs)
    }
    /// `max(self, rhs)`.
    pub fn max(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Max, rhs)
    }

    /// Arithmetic negation `-self`.
    pub fn neg(self) -> Expr {
        Expr::Un {
            op: UnOp::Neg,
            arg: Box::new(self),
        }
    }
    /// Bitwise complement `~self`.
    pub fn not(self) -> Expr {
        Expr::Un {
            op: UnOp::Not,
            arg: Box::new(self),
        }
    }
    /// Logical negation `!self`.
    pub fn lnot(self) -> Expr {
        Expr::Un {
            op: UnOp::LNot,
            arg: Box::new(self),
        }
    }
    /// Absolute value `|self|`.
    pub fn abs(self) -> Expr {
        Expr::Un {
            op: UnOp::Abs,
            arg: Box::new(self),
        }
    }

    /// Explicit conversion to `ty`.
    pub fn cast(self, ty: Scalar) -> Expr {
        Expr::Cast {
            ty,
            arg: Box::new(self),
        }
    }

    /// `self ? then_val : else_val`.
    pub fn select(self, then_val: Expr, else_val: Expr) -> Expr {
        Expr::Select {
            cond: Box::new(self),
            then_val: Box::new(then_val),
            else_val: Box::new(else_val),
        }
    }

    /// Bit slice `self(hi, lo)`.
    pub fn bits(self, hi: u32, lo: u32) -> Expr {
        Expr::BitRange {
            arg: Box::new(self),
            hi,
            lo,
        }
    }

    /// Number of operation nodes in the tree (used by cost models).
    pub fn op_count(&self) -> usize {
        match self {
            Expr::Const { .. } | Expr::Var(_) => 0,
            Expr::ArrayGet { index, .. } => 1 + index.op_count(),
            Expr::Un { arg, .. } => 1 + arg.op_count(),
            Expr::Bin { lhs, rhs, .. } => 1 + lhs.op_count() + rhs.op_count(),
            Expr::Cast { arg, .. } => arg.op_count(),
            Expr::Select {
                cond,
                then_val,
                else_val,
            } => 1 + cond.op_count() + then_val.op_count() + else_val.op_count(),
            Expr::BitRange { arg, .. } => arg.op_count(),
        }
    }

    /// Visits every node in the tree, children before parents.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Expr::Const { .. } | Expr::Var(_) => {}
            Expr::ArrayGet { index, .. } => index.visit(f),
            Expr::Un { arg, .. } | Expr::Cast { arg, .. } | Expr::BitRange { arg, .. } => {
                arg.visit(f)
            }
            Expr::Bin { lhs, rhs, .. } => {
                lhs.visit(f);
                rhs.visit(f);
            }
            Expr::Select {
                cond,
                then_val,
                else_val,
            } => {
                cond.visit(f);
                then_val.visit(f);
                else_val.visit(f);
            }
        }
        f(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_expected_tree() {
        let e = Expr::var("a").add(Expr::cint(1)).mul(Expr::var("b"));
        match &e {
            Expr::Bin {
                op: BinOp::Mul,
                lhs,
                ..
            } => match lhs.as_ref() {
                Expr::Bin { op: BinOp::Add, .. } => {}
                other => panic!("unexpected lhs {other:?}"),
            },
            other => panic!("unexpected root {other:?}"),
        }
        assert_eq!(e.op_count(), 2);
    }

    #[test]
    fn visit_covers_all_nodes() {
        let e = Expr::var("c").select(Expr::var("a"), Expr::var("b").neg());
        let mut count = 0;
        e.visit(&mut |_| count += 1);
        assert_eq!(count, 5); // 3 vars + neg + select
    }

    #[test]
    fn cfixed_encodes_raw_bits() {
        let e = Expr::cfixed(1.5, Scalar::fixed(32, 17));
        match e {
            Expr::Const { raw, .. } => assert_eq!(raw, (3 << 14) as i128),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "fixed-point")]
    fn cfixed_rejects_int_types() {
        Expr::cfixed(1.0, Scalar::int(32));
    }
}
