//! The closure-compiled engine: each resolved kernel is compiled once into
//! closures, one per expression node, each with its node's static
//! `ap_int`/`ap_fixed` shape already folded into a few shift amounts.
//!
//! Values are held as *canonical* `i128`s: the numeric value sign- or
//! zero-extended from its shape's width, which is also `DynInt::to_i128` /
//! `DynFixed`'s scaled integer. The one shape that does not fit,
//! `ap_uint<128>`, keeps its raw bit pattern; the few operators whose result
//! depends on reading it as unsigned (compare, divide, shift) pick a
//! dedicated form when the node is built. Shapes are the resolved kernel's
//! ([`crate::resolve`]), so every node runs at the shape the checker gave it.
//!
//! A node's closure is specialised on its operator and on whether each
//! operand is a slot, a constant or another node: leaves are read in place,
//! a pure operator on constants folds away, and each closure holds only its
//! own operator's arithmetic. The statements stay a small tree walked by
//! [`Machine::block`].
//!
//! Budget charging is prepaid per statement: every expression node costs one
//! op unconditionally, so a statement's cost is static. When the remaining
//! budget cannot cover a statement, that statement alone is re-run on its
//! resolved tree charging op by op, in the oracle's order, so
//! `OpBudgetExceeded` and an in-flight `IndexOutOfBounds` race exactly as
//! they do in the tree walker.

use std::cmp::Ordering;

use aplib::{DynFixed, DynInt};

use super::{InterpError, InterpStats, KernelIo};
use crate::expr::{BinOp, UnOp};
use crate::kernel::Kernel;
use crate::resolved::{RExpr, RNode, RStmt, ResolvedKernel};
use crate::types::{Scalar, Value};

/// Fractional bits; an integer enters fixed-point arithmetic as
/// `ap_fixed<W,W>`, the promotion `ops` applies in mixed expressions.
fn frac(ty: Scalar) -> i32 {
    match ty {
        Scalar::Int { .. } => 0,
        Scalar::Fixed {
            width, int_bits, ..
        } => width as i32 - int_bits,
    }
}

fn int_bits(ty: Scalar) -> i32 {
    match ty {
        Scalar::Int { width, .. } => width as i32,
        Scalar::Fixed { int_bits, .. } => int_bits,
    }
}

/// `ap_uint<128>`: the one shape whose values need not fit an `i128`.
fn is_u128(ty: Scalar) -> bool {
    !ty.is_signed() && ty.width() == 128
}

/// Wraps a value into one shape (`from_raw` followed by re-extension).
#[derive(Debug, Clone, Copy)]
struct Norm {
    sh: u32,
    signed: bool,
}

impl Norm {
    fn of(ty: Scalar) -> Norm {
        Norm {
            sh: 128 - ty.width(),
            signed: ty.is_signed(),
        }
    }

    #[inline(always)]
    fn apply(self, v: i128) -> i128 {
        if self.sh >= 64 {
            // Widths up to 64 bits wrap in one machine word.
            let (lo, s) = (v as u64, self.sh - 64);
            if self.signed {
                (((lo << s) as i64) >> s) as i128
            } else {
                ((lo << s) >> s) as i128
            }
        } else if self.signed {
            (v << self.sh) >> self.sh
        } else {
            ((v as u128) << self.sh >> self.sh) as i128
        }
    }
}

/// Moves a binary point: `DynFixed::align`'s clamped shift.
#[derive(Debug, Clone, Copy)]
struct Align {
    shl: u32,
    sar: u32,
}

impl Align {
    /// Shifts left by `d` bits when `d >= 0`, arithmetic right otherwise.
    fn by(d: i32) -> Align {
        let n = d.unsigned_abs().min(127);
        if d >= 0 {
            Align { shl: n, sar: 0 }
        } else {
            Align { shl: 0, sar: n }
        }
    }

    #[inline(always)]
    fn apply(self, v: i128) -> i128 {
        v.wrapping_shl(self.shl) >> self.sar
    }
}

/// `Value::coerce` between two static shapes.
#[derive(Debug, Clone, Copy)]
enum Conv {
    Same,
    /// Integer resize, or a fixed resize that keeps the binary point.
    Wrap(Norm),
    /// Fixed resize moving the binary point (`DynFixed::resize`).
    Scale(Align, Norm),
    /// Fixed → integer: `DynFixed::to_int` at the source shape, then wrap.
    ToInt(Align, Norm, Norm),
    /// A fixed resize shifting left by 128 bits or more.
    Zero,
}

impl Conv {
    fn new(from: Scalar, to: Scalar) -> Conv {
        if from == to {
            return Conv::Same;
        }
        match (from, to) {
            (Scalar::Int { .. }, Scalar::Int { .. }) => Conv::Wrap(Norm::of(to)),
            (Scalar::Fixed { .. }, Scalar::Int { .. }) => {
                let f = frac(from);
                let align = if f >= 0 {
                    Align {
                        shl: 0,
                        sar: f.min(127) as u32,
                    }
                } else {
                    // `wrapping_shl` takes the amount modulo 128.
                    Align {
                        shl: f.unsigned_abs() & 127,
                        sar: 0,
                    }
                };
                Conv::ToInt(align, Norm::of(from), Norm::of(to))
            }
            _ => match frac(to) - frac(from) {
                shift if shift >= 128 => Conv::Zero,
                0 => Conv::Wrap(Norm::of(to)),
                shift => Conv::Scale(Align::by(shift), Norm::of(to)),
            },
        }
    }

    #[inline(always)]
    fn apply(self, v: i128) -> i128 {
        match self {
            Conv::Same => v,
            Conv::Wrap(n) => n.apply(v),
            Conv::Scale(a, n) => n.apply(a.apply(v)),
            Conv::ToInt(a, src, dst) => dst.apply(src.apply(a.apply(v))),
            Conv::Zero => 0,
        }
    }
}

/// `cmp_value` for one pair of operand shapes.
#[derive(Debug, Clone, Copy)]
enum Order {
    /// Integers whose canonical values both fit an `i128`: plain `i128`
    /// order.
    Int,
    /// Fixed or mixed: `i128` order after aligning binary points.
    Signed(Align, Align),
    /// Unsigned integers, one an `ap_uint<128>`: raw-pattern order.
    Unsigned,
    /// A signed integer against an `ap_uint<128>` that may exceed `i128`.
    Wide { lhs_u128: bool, rhs_u128: bool },
}

impl Order {
    fn new(l: Scalar, r: Scalar) -> Order {
        if l.is_fixed() || r.is_fixed() {
            let f = frac(l).max(frac(r));
            Order::Signed(Align::by(f - frac(l)), Align::by(f - frac(r)))
        } else if !is_u128(l) && !is_u128(r) {
            Order::Int
        } else if !l.is_signed() && !r.is_signed() {
            Order::Unsigned
        } else {
            Order::Wide {
                lhs_u128: is_u128(l),
                rhs_u128: is_u128(r),
            }
        }
    }

    #[inline(always)]
    fn cmp(self, a: i128, b: i128) -> Ordering {
        match self {
            Order::Int => a.cmp(&b),
            Order::Signed(x, y) => x.apply(a).cmp(&y.apply(b)),
            Order::Unsigned => (a as u128).cmp(&(b as u128)),
            Order::Wide { lhs_u128, rhs_u128 } => match (lhs_u128 && a < 0, rhs_u128 && b < 0) {
                (true, true) => (a as u128).cmp(&(b as u128)),
                (true, false) => Ordering::Greater,
                (false, true) => Ordering::Less,
                (false, false) => a.cmp(&b),
            },
        }
    }
}

/// Which orderings satisfy a comparison: bit 0 `Less`, 1 `Equal`,
/// 2 `Greater`.
fn order_mask(op: BinOp) -> u8 {
    match op {
        BinOp::Lt => 0b001,
        BinOp::Le | BinOp::Min => 0b011,
        BinOp::Eq => 0b010,
        BinOp::Ne => 0b101,
        BinOp::Gt => 0b100,
        BinOp::Ge | BinOp::Max => 0b110,
        _ => unreachable!("{op} is not an ordering"),
    }
}

#[inline(always)]
fn holds(mask: u8, ord: Ordering) -> bool {
    (mask >> (ord as i8 + 1)) & 1 == 1
}

/// A shift amount: the right operand clamped to `0..=255`.
#[inline(always)]
fn amount(b: i128, wide: bool) -> u32 {
    if wide {
        (b as u128).min(255) as u32
    } else {
        b.clamp(0, 255) as u32
    }
}

#[derive(Debug, Clone, Copy)]
enum TUn {
    Neg(Norm),
    Not(Norm),
    LNot,
    Abs(Norm),
    /// `Abs` of a shape that can never be negative.
    Keep,
}

impl TUn {
    fn new(op: UnOp, arg: Scalar, res: Scalar) -> TUn {
        match op {
            UnOp::Neg => TUn::Neg(Norm::of(res)),
            UnOp::Not => TUn::Not(Norm::of(res)),
            UnOp::LNot => TUn::LNot,
            // `DynInt` negates only signed negatives; `DynFixed` tests
            // `to_f64() < 0.0`, which a scale factor that underflows to
            // zero can never satisfy.
            UnOp::Abs if arg.is_fixed() && (-(frac(arg) as f64)).exp2() > 0.0 => {
                TUn::Abs(Norm::of(res))
            }
            UnOp::Abs if !arg.is_fixed() && arg.is_signed() => TUn::Abs(Norm::of(res)),
            UnOp::Abs => TUn::Keep,
        }
    }

    #[inline(always)]
    fn apply(self, a: i128) -> i128 {
        match self {
            TUn::Neg(n) => n.apply(a.wrapping_neg()),
            TUn::Not(n) => n.apply(!a),
            TUn::LNot => (a == 0) as i128,
            TUn::Abs(n) if a < 0 => n.apply(a.wrapping_neg()),
            TUn::Abs(_) | TUn::Keep => a,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum TBin {
    Add(Norm),
    Sub(Norm),
    Mul(Norm),
    And(Norm),
    Or(Norm),
    Xor(Norm),
    /// `wide`: an unsigned 128-bit result divides as `u128`.
    Div {
        norm: Norm,
        wide: bool,
    },
    Rem {
        norm: Norm,
        wide: bool,
    },
    /// The result keeps the left operand's shape; `wide`: the amount is an
    /// `ap_uint<128>`.
    Shl {
        width: u32,
        norm: Norm,
        wide: bool,
    },
    Shr {
        width: u32,
        signed: bool,
        wide: bool,
    },
    Cmp {
        mask: u8,
        order: Order,
    },
    LAnd,
    LOr,
    /// `Min`/`Max`: the kept operand, resized into the common shape.
    Pick {
        mask: u8,
        order: Order,
        a: Conv,
        b: Conv,
    },
    FAdd {
        a: Align,
        b: Align,
        norm: Norm,
    },
    FSub {
        a: Align,
        b: Align,
        norm: Norm,
    },
    FMul {
        sar: u32,
        norm: Norm,
    },
    FDiv {
        pre: Align,
        norm: Norm,
    },
}

impl TBin {
    fn new(op: BinOp, l: Scalar, r: Scalar, res: Scalar) -> TBin {
        use BinOp::*;
        let norm = Norm::of(res);
        match op {
            Eq | Ne | Lt | Le | Gt | Ge => TBin::Cmp {
                mask: order_mask(op),
                order: Order::new(l, r),
            },
            LAnd => TBin::LAnd,
            LOr => TBin::LOr,
            Min | Max => TBin::Pick {
                mask: order_mask(op),
                order: Order::new(l, r),
                a: Conv::new(l, res),
                b: Conv::new(r, res),
            },
            _ if l.is_fixed() || r.is_fixed() => {
                let f = frac(res);
                match op {
                    Add => TBin::FAdd {
                        a: Align::by(f - frac(l)),
                        b: Align::by(f - frac(r)),
                        norm,
                    },
                    Sub => TBin::FSub {
                        a: Align::by(f - frac(l)),
                        b: Align::by(f - frac(r)),
                        norm,
                    },
                    Mul => {
                        // The full product has frac(l) + frac(r) fraction
                        // bits; a width cap drops the excess.
                        let full = frac(l) + frac(r);
                        let adjust = full - (res.width() as i32 - (int_bits(l) + int_bits(r)));
                        TBin::FMul {
                            sar: adjust.clamp(0, 127) as u32,
                            norm,
                        }
                    }
                    Div => TBin::FDiv {
                        pre: Align::by(frac(r)),
                        norm,
                    },
                    _ => unreachable!(
                        "operator {op} is integer-only; the validator rejects fixed operands"
                    ),
                }
            }
            Add => TBin::Add(norm),
            Sub => TBin::Sub(norm),
            Mul => TBin::Mul(norm),
            And => TBin::And(norm),
            Or => TBin::Or(norm),
            Xor => TBin::Xor(norm),
            Div => TBin::Div {
                norm,
                wide: is_u128(res),
            },
            Rem => TBin::Rem {
                norm,
                wide: is_u128(res),
            },
            Shl => TBin::Shl {
                width: l.width(),
                norm: Norm::of(l),
                wide: is_u128(r),
            },
            Shr => TBin::Shr {
                width: l.width(),
                signed: l.is_signed(),
                wide: is_u128(r),
            },
        }
    }

    #[inline(always)]
    fn apply(self, a: i128, b: i128) -> i128 {
        match self {
            TBin::Add(n) => n.apply(a.wrapping_add(b)),
            TBin::Sub(n) => n.apply(a.wrapping_sub(b)),
            TBin::Mul(n) => n.apply(a.wrapping_mul(b)),
            TBin::And(n) => n.apply(a & b),
            TBin::Or(n) => n.apply(a | b),
            TBin::Xor(n) => n.apply(a ^ b),
            TBin::Div { norm, wide } => match (b, wide) {
                (0, _) => 0,
                (_, true) => ((a as u128) / (b as u128)) as i128,
                _ => norm.apply(a.wrapping_div(b)),
            },
            TBin::Rem { norm, wide } => match (b, wide) {
                (0, _) => 0,
                (_, true) => ((a as u128) % (b as u128)) as i128,
                _ => norm.apply(a.wrapping_rem(b)),
            },
            TBin::Shl { width, norm, wide } => {
                let n = amount(b, wide);
                if n >= width {
                    0
                } else {
                    norm.apply(((a as u128) << n) as i128)
                }
            }
            TBin::Shr {
                width,
                signed,
                wide,
            } => {
                let n = amount(b, wide);
                match (signed, n >= width) {
                    (true, true) => -((a < 0) as i128),
                    (false, true) => 0,
                    (true, false) => a >> n,
                    (false, false) => ((a as u128) >> n) as i128,
                }
            }
            TBin::Cmp { mask, order } => holds(mask, order.cmp(a, b)) as i128,
            TBin::LAnd => (a != 0 && b != 0) as i128,
            TBin::LOr => (a != 0 || b != 0) as i128,
            TBin::Pick {
                mask,
                order,
                a: ca,
                b: cb,
            } => {
                if holds(mask, order.cmp(a, b)) {
                    ca.apply(a)
                } else {
                    cb.apply(b)
                }
            }
            TBin::FAdd { a: x, b: y, norm } => norm.apply(x.apply(a).wrapping_add(y.apply(b))),
            TBin::FSub { a: x, b: y, norm } => norm.apply(x.apply(a).wrapping_sub(y.apply(b))),
            TBin::FMul { sar, norm } => norm.apply(a.wrapping_mul(b) >> sar),
            TBin::FDiv { pre, norm } => {
                if b == 0 {
                    0
                } else {
                    norm.apply(pre.apply(a).wrapping_div(b))
                }
            }
        }
    }
}

/// One compiled expression node.
type NodeFn = Box<dyn Fn(&mut Frame) -> i128 + Send + Sync>;

/// A compiled operand. Leaves stay leaves, so the node that uses one reads
/// it in place rather than through a call.
enum Operand {
    Slot(usize),
    Imm(i128),
    Node(NodeFn),
}

impl Operand {
    #[inline(always)]
    fn get(&self, f: &mut Frame) -> i128 {
        match self {
            Operand::Slot(slot) => f.vars[*slot],
            Operand::Imm(c) => *c,
            Operand::Node(node) => node(f),
        }
    }
}

fn boxed(f: impl Fn(&mut Frame) -> i128 + Send + Sync + 'static) -> NodeFn {
    Box::new(f)
}

/// A node applying `op` to one operand, specialised on the operand's kind.
fn node1<F>(a: Operand, op: F) -> NodeFn
where
    F: Fn(&mut Frame, i128) -> i128 + Send + Sync + 'static,
{
    match a {
        Operand::Slot(s) => boxed(move |f| {
            let x = f.vars[s];
            op(f, x)
        }),
        Operand::Imm(c) => boxed(move |f| op(f, c)),
        Operand::Node(n) => boxed(move |f| {
            let x = n(f);
            op(f, x)
        }),
    }
}

/// A pure operator on one operand; on a constant it folds.
fn pure1<F>(a: Operand, op: F) -> Operand
where
    F: Fn(i128) -> i128 + Send + Sync + 'static,
{
    match a {
        Operand::Imm(c) => Operand::Imm(op(c)),
        a => Operand::Node(node1(a, move |_, x| op(x))),
    }
}

/// A pure operator on two operands, the left evaluated first, specialised
/// on both operands' kinds; on two constants it folds.
fn pure2<F>(a: Operand, b: Operand, op: F) -> Operand
where
    F: Fn(i128, i128) -> i128 + Send + Sync + 'static,
{
    use Operand::{Imm, Node, Slot};
    Node(match (a, b) {
        (Imm(x), Imm(y)) => return Imm(op(x, y)),
        (Imm(x), Slot(t)) => boxed(move |f| op(x, f.vars[t])),
        (Imm(x), Node(m)) => boxed(move |f| op(x, m(f))),
        (Slot(s), Imm(y)) => boxed(move |f| op(f.vars[s], y)),
        (Slot(s), Slot(t)) => boxed(move |f| op(f.vars[s], f.vars[t])),
        (Slot(s), Node(m)) => boxed(move |f| {
            let x = f.vars[s];
            op(x, m(f))
        }),
        (Node(n), Imm(y)) => boxed(move |f| op(n(f), y)),
        (Node(n), Slot(t)) => boxed(move |f| {
            let x = n(f);
            op(x, f.vars[t])
        }),
        (Node(n), Node(m)) => boxed(move |f| {
            let x = n(f);
            op(x, m(f))
        }),
    })
}

// Each arm below rebuilds its operator's variant inside the closure, so the
// inlined `apply` matches on a constant and the closure keeps only that
// variant's arithmetic.

fn un(op: TUn, a: Operand) -> Operand {
    match op {
        TUn::Neg(n) => pure1(a, move |x| TUn::Neg(n).apply(x)),
        TUn::Not(n) => pure1(a, move |x| TUn::Not(n).apply(x)),
        TUn::LNot => pure1(a, |x| TUn::LNot.apply(x)),
        TUn::Abs(n) => pure1(a, move |x| TUn::Abs(n).apply(x)),
        TUn::Keep => a,
    }
}

fn cast(conv: Conv, a: Operand) -> Operand {
    match conv {
        Conv::Same => a,
        Conv::Wrap(n) => pure1(a, move |x| Conv::Wrap(n).apply(x)),
        Conv::Scale(s, n) => pure1(a, move |x| Conv::Scale(s, n).apply(x)),
        Conv::ToInt(s, src, dst) => pure1(a, move |x| Conv::ToInt(s, src, dst).apply(x)),
        Conv::Zero => pure1(a, |_| 0),
    }
}

fn bin(op: TBin, a: Operand, b: Operand) -> Operand {
    macro_rules! arm {
        ($op:expr) => {
            pure2(a, b, move |x, y| $op.apply(x, y))
        };
    }
    match op {
        TBin::Add(n) => arm!(TBin::Add(n)),
        TBin::Sub(n) => arm!(TBin::Sub(n)),
        TBin::Mul(n) => arm!(TBin::Mul(n)),
        TBin::And(n) => arm!(TBin::And(n)),
        TBin::Or(n) => arm!(TBin::Or(n)),
        TBin::Xor(n) => arm!(TBin::Xor(n)),
        TBin::Div { norm, wide } => arm!(TBin::Div { norm, wide }),
        TBin::Rem { norm, wide } => arm!(TBin::Rem { norm, wide }),
        TBin::Shl { width, norm, wide } => arm!(TBin::Shl { width, norm, wide }),
        TBin::Shr {
            width,
            signed,
            wide,
        } => arm!(TBin::Shr {
            width,
            signed,
            wide
        }),
        TBin::Cmp {
            mask,
            order: Order::Int,
        } => arm!(TBin::Cmp {
            mask,
            order: Order::Int
        }),
        TBin::Cmp { mask, order } => arm!(TBin::Cmp { mask, order }),
        TBin::LAnd => arm!(TBin::LAnd),
        TBin::LOr => arm!(TBin::LOr),
        TBin::Pick {
            mask,
            order: Order::Int,
            a: ca,
            b: cb,
        } => arm!(TBin::Pick {
            mask,
            order: Order::Int,
            a: ca,
            b: cb
        }),
        TBin::Pick {
            mask,
            order,
            a: ca,
            b: cb,
        } => arm!(TBin::Pick {
            mask,
            order,
            a: ca,
            b: cb
        }),
        TBin::FAdd { a: x, b: y, norm } => arm!(TBin::FAdd { a: x, b: y, norm }),
        TBin::FSub { a: x, b: y, norm } => arm!(TBin::FSub { a: x, b: y, norm }),
        TBin::FMul { sar, norm } => arm!(TBin::FMul { sar, norm }),
        TBin::FDiv { pre, norm } => arm!(TBin::FDiv { pre, norm }),
    }
}

/// Compiles a resolved expression into closures.
fn compile(e: &RExpr) -> Operand {
    match &e.node {
        RNode::Const(raw) => Operand::Imm(Norm::of(e.ty).apply(*raw)),
        RNode::Var(slot) => Operand::Slot(*slot),
        RNode::ArrayGet(array, index) => {
            let array = *array;
            Operand::Node(node1(compile(index), move |f, i| f.load(array, i)))
        }
        RNode::Un(op, arg) => un(TUn::new(*op, arg.ty, e.ty), compile(arg)),
        RNode::Bin(op, args) => bin(
            TBin::new(*op, args[0].ty, args[1].ty, e.ty),
            compile(&args[0]),
            compile(&args[1]),
        ),
        RNode::Cast(arg) => cast(Conv::new(arg.ty, e.ty), compile(arg)),
        RNode::Select(args) => {
            let (tconv, econv) = (Conv::new(args[1].ty, e.ty), Conv::new(args[2].ty, e.ty));
            let pick = move |c: i128, t: i128, e: i128| {
                if c == 0 {
                    econv.apply(e)
                } else {
                    tconv.apply(t)
                }
            };
            match args.each_ref().map(compile) {
                [Operand::Imm(c), Operand::Imm(t), Operand::Imm(e)] => Operand::Imm(pick(c, t, e)),
                [c, t, e] => Operand::Node(boxed(move |f| {
                    let c = c.get(f);
                    let t = t.get(f);
                    pick(c, t, e.get(f))
                })),
            }
        }
        RNode::BitRange(arg, _, lo) => {
            let (lo, norm) = (*lo, Norm::of(e.ty));
            pure1(compile(arg), move |a| {
                norm.apply(((a as u128) >> lo) as i128)
            })
        }
    }
}

/// The ops an expression charges: one per node, casts and leaves free.
fn cost(e: &RExpr) -> u64 {
    let own = match e.node {
        RNode::Const(_) | RNode::Var(_) | RNode::Cast(_) => 0,
        _ => 1,
    };
    own + e.args().iter().map(cost).sum::<u64>()
}

/// An expression as the hot path runs it (`code`) and as the budget's cold
/// path walks it (`tree`).
struct Lowered {
    code: Operand,
    tree: RExpr,
}

/// A statement; `cost` is the ops it charges outside nested bodies. A
/// stored value's conversion into its destination's shape is compiled into
/// its code.
enum TStmt {
    Assign {
        slot: usize,
        value: Lowered,
        cost: u64,
    },
    ArraySet {
        array: usize,
        index: Lowered,
        value: Lowered,
        cost: u64,
    },
    Read {
        slot: usize,
        ty: Scalar,
        port: usize,
    },
    Write {
        port: usize,
        elem: Scalar,
        value: Lowered,
        cost: u64,
    },
    For {
        slot: usize,
        begin: i64,
        end: i64,
        step: i64,
        body: Vec<TStmt>,
    },
    If {
        cond: Lowered,
        cost: u64,
        then_body: Vec<TStmt>,
        else_body: Vec<TStmt>,
    },
}

/// A compiled kernel body with its initial storage.
pub(super) struct Code {
    vars: usize,
    arrays: Vec<(String, Vec<i128>)>,
    body: Vec<TStmt>,
}

/// Compiles an expression, converting its value into the shape `into`
/// when one is given; returns it with its op count.
fn lower(tree: RExpr, into: Option<Scalar>) -> (Lowered, u64) {
    let conv = into.map_or(Conv::Same, |to| Conv::new(tree.ty, to));
    let code = cast(conv, compile(&tree));
    let cost = cost(&tree);
    (Lowered { code, tree }, cost)
}

fn block(k: &Kernel, body: Vec<RStmt>) -> Vec<TStmt> {
    body.into_iter().map(|s| stmt(k, s)).collect()
}

fn stmt(k: &Kernel, s: RStmt) -> TStmt {
    match s {
        RStmt::Assign(slot, value) => {
            let (value, cost) = lower(value, Some(k.locals[slot].ty));
            TStmt::Assign {
                slot,
                value,
                cost: cost + 1,
            }
        }
        RStmt::ArraySet(array, index, value) => {
            let (index, ic) = lower(index, None);
            let (value, vc) = lower(value, Some(k.arrays[array].elem));
            TStmt::ArraySet {
                array,
                index,
                value,
                cost: ic + vc + 1,
            }
        }
        RStmt::Read(slot, port) => TStmt::Read {
            slot,
            ty: k.locals[slot].ty,
            port,
        },
        RStmt::Write(port, value) => {
            let elem = k.outputs[port].elem;
            let (value, cost) = lower(value, Some(elem));
            TStmt::Write {
                port,
                elem,
                value,
                cost: cost + 1,
            }
        }
        RStmt::For {
            var,
            begin,
            end,
            step,
            body,
            ..
        } => TStmt::For {
            slot: var,
            begin,
            end,
            step,
            body: block(k, body),
        },
        RStmt::If(cond, then_body, else_body) => {
            let (cond, cost) = lower(cond, None);
            TStmt::If {
                cond,
                cost: cost + 1,
                then_body: block(k, then_body),
                else_body: block(k, else_body),
            }
        }
    }
}

impl Code {
    pub(super) fn new(rk: ResolvedKernel<'_>) -> Code {
        let arrays = rk
            .kernel
            .arrays
            .iter()
            .map(|a| {
                let init = match &a.init {
                    Some(init) => {
                        let norm = Norm::of(a.elem);
                        init.iter().map(|&raw| norm.apply(raw as i128)).collect()
                    }
                    None => vec![0; a.len as usize],
                };
                (a.name.clone(), init)
            })
            .collect();
        Code {
            vars: rk.slots(),
            arrays,
            body: block(rk.kernel, rk.body),
        }
    }

    pub(super) fn run(
        &self,
        io: &mut dyn KernelIo,
        budget: u64,
        inputs: &[(String, Scalar)],
    ) -> Result<InterpStats, InterpError> {
        let mut m = Machine {
            frame: Frame {
                vars: vec![0; self.vars],
                arrays: self.arrays.iter().map(|(_, a)| a.clone()).collect(),
                fault: None,
            },
            io,
            stats: InterpStats::default(),
            budget,
        };
        match m.block(&self.body) {
            Ok(()) => Ok(m.stats),
            Err(fault) => Err(match fault {
                Fault::Budget => InterpError::OpBudgetExceeded { budget },
                Fault::Bounds { array, index } => {
                    let (name, init) = &self.arrays[array];
                    InterpError::IndexOutOfBounds {
                        array: name.clone(),
                        index,
                        len: init.len() as u64,
                    }
                }
                Fault::Underflow(port) => InterpError::StreamUnderflow {
                    port: inputs[port].0.clone(),
                },
            }),
        }
    }
}

/// The first thing that went wrong; named into an [`InterpError`] only once
/// it ends the run.
#[derive(Debug, Clone, Copy)]
enum Fault {
    Budget,
    Bounds { array: usize, index: i128 },
    Underflow(usize),
}

fn to_value(c: i128, ty: Scalar) -> Value {
    match ty {
        Scalar::Int { width, signed } => Value::Int(DynInt::from_raw(width, signed, c as u128)),
        Scalar::Fixed {
            width,
            int_bits,
            signed,
        } => Value::Fixed(DynFixed::from_raw(width, int_bits, signed, c as u128)),
    }
}

/// The storage compiled expressions read: the one argument every node's
/// closure takes.
struct Frame {
    vars: Vec<i128>,
    arrays: Vec<Vec<i128>>,
    /// The first fault raised inside an expression (evaluation goes on with
    /// a zero in its place; statements check before any side effect).
    fault: Option<Fault>,
}

impl Frame {
    #[cold]
    fn raise(&mut self, fault: Fault) {
        self.fault.get_or_insert(fault);
    }

    #[inline(always)]
    fn settle(&mut self) -> Result<(), Fault> {
        match self.fault.take() {
            None => Ok(()),
            Some(f) => Err(f),
        }
    }

    #[inline(always)]
    fn load(&mut self, array: usize, index: i128) -> i128 {
        let a = &self.arrays[array];
        if index < 0 || index as u64 >= a.len() as u64 {
            self.raise(Fault::Bounds { array, index });
            return 0;
        }
        a[index as usize]
    }
}

struct Machine<'r> {
    frame: Frame,
    io: &'r mut dyn KernelIo,
    stats: InterpStats,
    budget: u64,
}

impl Machine<'_> {
    /// Charges a statement's static cost up front; `false` when the budget
    /// cannot cover it (nothing is charged then).
    #[inline(always)]
    fn prepay(&mut self, cost: u64) -> bool {
        let ops = self.stats.ops + cost;
        let ok = ops <= self.budget;
        if ok {
            self.stats.ops = ops;
        }
        ok
    }

    /// Per-op charging, for the statement that exhausts the budget.
    fn charge(&mut self) {
        self.stats.ops += 1;
        if self.stats.ops > self.budget {
            self.frame.raise(Fault::Budget);
        }
    }

    /// Walks a resolved tree charging op by op, in the oracle's order.
    fn eval(&mut self, e: &RExpr) -> i128 {
        match &e.node {
            RNode::Const(raw) => Norm::of(e.ty).apply(*raw),
            RNode::Var(slot) => self.frame.vars[*slot],
            RNode::ArrayGet(array, index) => {
                let i = self.eval(index);
                self.charge();
                self.frame.load(*array, i)
            }
            RNode::Un(op, arg) => {
                let a = self.eval(arg);
                self.charge();
                TUn::new(*op, arg.ty, e.ty).apply(a)
            }
            RNode::Bin(op, args) => {
                let a = self.eval(&args[0]);
                let b = self.eval(&args[1]);
                self.charge();
                TBin::new(*op, args[0].ty, args[1].ty, e.ty).apply(a, b)
            }
            RNode::Cast(arg) => {
                let a = self.eval(arg);
                Conv::new(arg.ty, e.ty).apply(a)
            }
            RNode::Select(args) => {
                let c = self.eval(&args[0]);
                self.charge();
                let t = self.eval(&args[1]);
                let f = self.eval(&args[2]);
                if c == 0 {
                    Conv::new(args[2].ty, e.ty).apply(f)
                } else {
                    Conv::new(args[1].ty, e.ty).apply(t)
                }
            }
            RNode::BitRange(arg, _, lo) => {
                let a = self.eval(arg);
                self.charge();
                Norm::of(e.ty).apply(((a as u128) >> lo) as i128)
            }
        }
    }

    /// Re-runs a statement the budget cannot cover, charging op by op in
    /// the oracle's order, and returns the fault that ends the run: either
    /// the budget or something the statement hits first.
    #[cold]
    fn exhaust(&mut self, s: &TStmt) -> Fault {
        match s {
            TStmt::Assign { value, .. } | TStmt::Write { value, .. } => {
                self.eval(&value.tree);
                self.charge();
            }
            TStmt::ArraySet {
                array,
                index,
                value,
                ..
            } => {
                let i = self.eval(&index.tree);
                self.eval(&value.tree);
                self.charge();
                self.frame.load(*array, i);
            }
            TStmt::If { cond, .. } => {
                self.eval(&cond.tree);
                self.charge();
            }
            TStmt::Read { .. } | TStmt::For { .. } => self.charge(),
        }
        self.frame
            .fault
            .take()
            .expect("a statement costing more than the remaining budget faults")
    }

    fn block(&mut self, body: &[TStmt]) -> Result<(), Fault> {
        for s in body {
            match s {
                TStmt::Assign { slot, value, cost } => {
                    if !self.prepay(*cost) {
                        return Err(self.exhaust(s));
                    }
                    let v = value.code.get(&mut self.frame);
                    self.frame.settle()?;
                    self.frame.vars[*slot] = v;
                }
                TStmt::ArraySet {
                    array,
                    index,
                    value,
                    cost,
                } => {
                    if !self.prepay(*cost) {
                        return Err(self.exhaust(s));
                    }
                    let i = index.code.get(&mut self.frame);
                    let v = value.code.get(&mut self.frame);
                    self.frame.settle()?;
                    let a = &mut self.frame.arrays[*array];
                    if i < 0 || i as u64 >= a.len() as u64 {
                        return Err(Fault::Bounds {
                            array: *array,
                            index: i,
                        });
                    }
                    a[i as usize] = v;
                }
                TStmt::Read { slot, ty, port } => {
                    if !self.prepay(1) {
                        return Err(self.exhaust(s));
                    }
                    let v = self.io.read(*port).map_err(|_| Fault::Underflow(*port))?;
                    self.stats.reads += 1;
                    let from = v.scalar();
                    let c = Norm::of(from).apply(v.raw() as i128);
                    self.frame.vars[*slot] = if from == *ty {
                        c
                    } else {
                        Conv::new(from, *ty).apply(c)
                    };
                }
                TStmt::Write {
                    port,
                    elem,
                    value,
                    cost,
                } => {
                    if !self.prepay(*cost) {
                        return Err(self.exhaust(s));
                    }
                    let v = value.code.get(&mut self.frame);
                    self.frame.settle()?;
                    self.stats.writes += 1;
                    self.io.write(*port, to_value(v, *elem));
                }
                TStmt::For {
                    slot,
                    begin,
                    end,
                    step,
                    body,
                } => {
                    let mut i = *begin;
                    while i < *end {
                        if !self.prepay(1) {
                            return Err(self.exhaust(s));
                        }
                        self.frame.vars[*slot] = i as i32 as i128;
                        self.block(body)?;
                        i += *step;
                    }
                }
                TStmt::If {
                    cond,
                    cost,
                    then_body,
                    else_body,
                } => {
                    if !self.prepay(*cost) {
                        return Err(self.exhaust(s));
                    }
                    let c = cond.code.get(&mut self.frame);
                    self.frame.settle()?;
                    self.block(if c == 0 { else_body } else { then_body })?;
                }
            }
        }
        Ok(())
    }
}
