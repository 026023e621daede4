//! Evaluation semantics for kernel operators.
//!
//! One function pair — [`eval_bin`] / [`eval_un`] — defines what every
//! operator *means*. The interpreter applies them to real values; the type
//! checker and the HLS datapath-sizing model apply them to zero values of the
//! operand types and read off the result shape, which guarantees that static
//! width inference can never disagree with runtime behaviour.

use aplib::{DynFixed, DynInt};

use crate::expr::{BinOp, UnOp};
use crate::types::{Scalar, Value};

/// Promotes an integer value to an exactly-equal fixed-point value
/// (`frac = 0`), the implicit conversion HLS applies in mixed expressions.
/// The raw bits go in as they are (with `frac = 0`, `from_int` only wraps
/// them to the width), so an `ap_uint<128>` above `i128::MAX` promotes
/// exactly.
fn int_to_fixed(v: Value) -> DynFixed {
    match v {
        Value::Fixed(f) => f,
        Value::Int(i) => {
            DynFixed::from_int(i.width(), i.width() as i32, i.is_signed(), i.raw() as i128)
        }
    }
}

fn bool_value(b: bool) -> Value {
    Value::Int(aplib::DynInt::from_raw(1, false, b as u128))
}

/// Evaluates a binary operator with `ap_int`/`ap_fixed` promotion semantics.
///
/// Mixed integer/fixed operands promote the integer side to an exact
/// fixed-point value. Shifts use the low bits of the right operand as an
/// unsigned amount. Division and remainder by zero yield zero.
pub fn eval_bin(op: BinOp, lhs: Value, rhs: Value) -> Value {
    use BinOp::*;
    // Comparisons and logical operators produce a 1-bit result regardless of
    // operand kinds.
    match op {
        Eq | Ne | Lt | Le | Gt | Ge => {
            let ord = match (lhs, rhs) {
                (Value::Int(a), Value::Int(b)) => a.cmp_value(&b),
                (a, b) => int_to_fixed(a).cmp_value(&int_to_fixed(b)),
            };
            return bool_value(match op {
                Eq => ord == std::cmp::Ordering::Equal,
                Ne => ord != std::cmp::Ordering::Equal,
                Lt => ord == std::cmp::Ordering::Less,
                Le => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            });
        }
        LAnd => return bool_value(!lhs.is_zero() && !rhs.is_zero()),
        LOr => return bool_value(!lhs.is_zero() || !rhs.is_zero()),
        _ => {}
    }

    match (lhs, rhs) {
        (Value::Int(a), Value::Int(b)) => match op {
            Add => Value::Int(a.add(b)),
            Sub => Value::Int(a.sub(b)),
            Mul => Value::Int(a.mul(b)),
            Div => Value::Int(a.div(b)),
            Rem => Value::Int(a.rem(b)),
            And => Value::Int(a.bitand(b)),
            Or => Value::Int(a.bitor(b)),
            Xor => Value::Int(a.bitxor(b)),
            Shl => Value::Int(a.shl(shift_amount(b))),
            Shr => Value::Int(a.shr(shift_amount(b))),
            Min => Value::Int(if a.cmp_value(&b).is_le() {
                a.add(b.sub(b))
            } else {
                b.add(a.sub(a))
            }),
            Max => Value::Int(if a.cmp_value(&b).is_ge() {
                a.add(b.sub(b))
            } else {
                b.add(a.sub(a))
            }),
            _ => unreachable!("handled above"),
        },
        (a, b) => {
            let fa = int_to_fixed(a);
            let fb = int_to_fixed(b);
            match op {
                Add => Value::Fixed(fa.add(fb)),
                Sub => Value::Fixed(fa.sub(fb)),
                Mul => Value::Fixed(fa.mul(fb)),
                Div => Value::Fixed(fa.div(fb)),
                Min | Max => {
                    // The common shape is a function of the operand shapes
                    // alone (the one `result_type` reads off zeros), so the
                    // losing side's shape never leaks into the result.
                    let common = fa.add(fb.sub(fb));
                    let ord = fa.cmp_value(&fb);
                    let keep_a = if op == Min { ord.is_le() } else { ord.is_ge() };
                    let pick = if keep_a { fa } else { fb };
                    Value::Fixed(pick.resize(common.width(), common.int_bits(), common.is_signed()))
                }
                Rem | And | Or | Xor | Shl | Shr => {
                    panic!("operator {op} is integer-only; the validator rejects fixed operands")
                }
                _ => unreachable!("handled above"),
            }
        }
    }
}

/// The right operand of a shift clamped to `0..=255`: a negative amount
/// shifts by zero, and any amount above 255 (an `ap_uint<128>` above
/// `i128::MAX` included) saturates.
fn shift_amount(v: DynInt) -> u32 {
    v.to_u128().map_or(0, |u| u.min(255) as u32)
}

/// Evaluates a unary operator.
pub fn eval_un(op: UnOp, arg: Value) -> Value {
    match (op, arg) {
        (UnOp::Neg, Value::Int(v)) => Value::Int(v.neg()),
        (UnOp::Neg, Value::Fixed(v)) => Value::Fixed(v.neg()),
        (UnOp::Not, Value::Int(v)) => Value::Int(v.not()),
        (UnOp::Not, Value::Fixed(_)) => {
            panic!("bitwise NOT is integer-only; the validator rejects fixed operands")
        }
        (UnOp::LNot, v) => bool_value(v.is_zero()),
        (UnOp::Abs, Value::Int(v)) => {
            if v.is_signed() && v.to_i128() < 0 {
                Value::Int(v.neg())
            } else {
                Value::Int(v)
            }
        }
        (UnOp::Abs, Value::Fixed(v)) => {
            if v.to_f64() < 0.0 {
                Value::Fixed(v.neg())
            } else {
                Value::Fixed(v)
            }
        }
    }
}

/// The result type of `op` applied to operands of the given types, derived
/// by evaluating on zero values so static shapes always match runtime shapes.
pub fn result_type(op: BinOp, lhs: Scalar, rhs: Scalar) -> Scalar {
    eval_bin(op, lhs.zero(), rhs.zero()).scalar()
}

/// The result type of unary `op` on an operand of type `arg`.
pub fn result_type_un(op: UnOp, arg: Scalar) -> Scalar {
    eval_un(op, arg.zero()).scalar()
}

/// The result type of a `Select` (mux) whose arms have types `then_ty` and
/// `else_ty`: the arms' own type when they agree, otherwise the common shape
/// of a `Max`. Both arms are coerced to it.
pub fn select_type(then_ty: Scalar, else_ty: Scalar) -> Scalar {
    if then_ty == else_ty {
        then_ty
    } else {
        result_type(BinOp::Max, then_ty, else_ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aplib::DynInt;

    fn iv(w: u32, s: bool, v: i128) -> Value {
        Value::Int(DynInt::from_i128(w, s, v))
    }
    fn fv(v: f64) -> Value {
        Value::Fixed(DynFixed::from_f64(32, 17, true, v))
    }

    #[test]
    fn comparisons_yield_single_bit() {
        let r = eval_bin(BinOp::Lt, iv(8, true, -1), iv(8, false, 1));
        assert_eq!(r.scalar(), Scalar::uint(1));
        assert!(!r.is_zero());
    }

    #[test]
    fn mixed_int_fixed_promotes() {
        let r = eval_bin(BinOp::Mul, iv(8, true, 3), fv(1.5));
        assert_eq!(r.to_f64(), 4.5);
        assert!(r.scalar().is_fixed());
    }

    #[test]
    fn min_max_take_common_shape() {
        let r = eval_bin(BinOp::Min, iv(8, true, -3), iv(16, true, 100));
        assert_eq!(r.to_f64(), -3.0);
        assert_eq!(r.scalar().width(), 16);
        let r = eval_bin(BinOp::Max, fv(2.0), fv(-5.0));
        assert_eq!(r.to_f64(), 2.0);
    }

    #[test]
    fn min_max_shape_does_not_depend_on_the_winner() {
        let shapes = [
            Scalar::fixed(32, 17),
            Scalar::fixed(16, 4),
            Scalar::ufixed(16, 8),
            Scalar::fixed(8, -2),
            Scalar::fixed(12, 14),
            Scalar::fixed(128, 64),
            Scalar::int(7),
            Scalar::uint(33),
        ];
        let value = |ty: Scalar, raw: u128| match ty {
            Scalar::Int { width, signed } => Value::Int(DynInt::from_raw(width, signed, raw)),
            Scalar::Fixed {
                width,
                int_bits,
                signed,
            } => Value::Fixed(DynFixed::from_raw(width, int_bits, signed, raw)),
        };
        for a in shapes {
            for b in shapes {
                for op in [BinOp::Min, BinOp::Max] {
                    let want = result_type(op, a, b);
                    for (ra, rb) in [(1, 2), (2, 1), (u128::MAX, 1), (1, u128::MAX)] {
                        let got = eval_bin(op, value(a, ra), value(b, rb)).scalar();
                        assert_eq!(got, want, "{op}({a}, {b})");
                    }
                }
            }
        }
    }

    #[test]
    fn logical_ops() {
        assert!(eval_bin(BinOp::LAnd, iv(8, false, 1), iv(8, false, 0)).is_zero());
        assert!(!eval_bin(BinOp::LOr, iv(8, false, 1), iv(8, false, 0)).is_zero());
        assert!(eval_un(UnOp::LNot, iv(8, false, 0)).raw() == 1);
    }

    #[test]
    fn abs_negates_negatives() {
        assert_eq!(eval_un(UnOp::Abs, iv(8, true, -5)).to_f64(), 5.0);
        assert_eq!(eval_un(UnOp::Abs, iv(8, true, 5)).to_f64(), 5.0);
        assert_eq!(eval_un(UnOp::Abs, fv(-2.25)).to_f64(), 2.25);
    }

    #[test]
    fn result_type_matches_eval() {
        let a = Scalar::fixed(32, 17);
        let b = Scalar::int(16);
        let t = result_type(BinOp::Add, a, b);
        let v = eval_bin(BinOp::Add, a.zero(), b.zero());
        assert_eq!(t, v.scalar());
    }

    #[test]
    fn shifts_clamp_amounts() {
        assert_eq!(
            eval_bin(BinOp::Shl, iv(8, false, 1), iv(8, true, -1)).to_f64(),
            1.0
        );
        assert_eq!(
            eval_bin(BinOp::Shr, iv(8, false, 128), iv(8, false, 200)).to_f64(),
            0.0
        );
    }
}
