//! Scalar types and runtime values for kernel IR.

use aplib::{DynFixed, DynInt};
use std::fmt;

/// A kernel scalar type: an arbitrary-precision integer or fixed-point
/// number, mirroring the `ap_int`/`ap_uint`/`ap_fixed`/`ap_ufixed` datatypes
/// the paper's operator discipline mandates (Sec. 3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scalar {
    /// `ap_int<width>` (signed) or `ap_uint<width>`.
    #[allow(missing_docs)]
    Int { width: u32, signed: bool },
    /// `ap_fixed<width,int_bits>` (signed) or `ap_ufixed<width,int_bits>`.
    #[allow(missing_docs)]
    Fixed {
        width: u32,
        int_bits: i32,
        signed: bool,
    },
}

impl Scalar {
    /// `ap_int<width>`.
    pub const fn int(width: u32) -> Self {
        Scalar::Int {
            width,
            signed: true,
        }
    }

    /// `ap_uint<width>`.
    pub const fn uint(width: u32) -> Self {
        Scalar::Int {
            width,
            signed: false,
        }
    }

    /// `ap_fixed<width,int_bits>`.
    pub const fn fixed(width: u32, int_bits: i32) -> Self {
        Scalar::Fixed {
            width,
            int_bits,
            signed: true,
        }
    }

    /// `ap_ufixed<width,int_bits>`.
    pub const fn ufixed(width: u32, int_bits: i32) -> Self {
        Scalar::Fixed {
            width,
            int_bits,
            signed: false,
        }
    }

    /// The single-bit boolean type produced by comparisons.
    pub const fn bool_type() -> Self {
        Scalar::Int {
            width: 1,
            signed: false,
        }
    }

    /// Total bit width.
    pub fn width(&self) -> u32 {
        match *self {
            Scalar::Int { width, .. } | Scalar::Fixed { width, .. } => width,
        }
    }

    /// Whether values are interpreted as signed two's complement.
    pub fn is_signed(&self) -> bool {
        match *self {
            Scalar::Int { signed, .. } | Scalar::Fixed { signed, .. } => signed,
        }
    }

    /// Whether this is a fixed-point type.
    pub fn is_fixed(&self) -> bool {
        matches!(self, Scalar::Fixed { .. })
    }

    /// Number of 32-bit words this type occupies on a stream link.
    pub fn words(&self) -> u32 {
        self.width().div_ceil(32)
    }

    /// The zero value of this type.
    pub fn zero(&self) -> Value {
        match *self {
            Scalar::Int { width, signed } => Value::Int(DynInt::zero(width, signed)),
            Scalar::Fixed {
                width,
                int_bits,
                signed,
            } => Value::Fixed(DynFixed::zero(width, int_bits, signed)),
        }
    }

    /// Checks the width is legal (1..=128 as supported by `aplib`).
    pub fn is_legal(&self) -> bool {
        let w = self.width();
        (1..=aplib::MAX_WIDTH).contains(&w)
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Scalar::Int {
                width,
                signed: true,
            } => write!(f, "ap_int<{width}>"),
            Scalar::Int {
                width,
                signed: false,
            } => write!(f, "ap_uint<{width}>"),
            Scalar::Fixed {
                width,
                int_bits,
                signed: true,
            } => {
                write!(f, "ap_fixed<{width},{int_bits}>")
            }
            Scalar::Fixed {
                width,
                int_bits,
                signed: false,
            } => {
                write!(f, "ap_ufixed<{width},{int_bits}>")
            }
        }
    }
}

/// A runtime kernel value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// An integer value.
    Int(DynInt),
    /// A fixed-point value.
    Fixed(DynFixed),
}

impl Value {
    /// The value's type.
    pub fn scalar(&self) -> Scalar {
        match self {
            Value::Int(v) => Scalar::Int {
                width: v.width(),
                signed: v.is_signed(),
            },
            Value::Fixed(v) => Scalar::Fixed {
                width: v.width(),
                int_bits: v.int_bits(),
                signed: v.is_signed(),
            },
        }
    }

    /// The raw bit pattern.
    pub fn raw(&self) -> u128 {
        match self {
            Value::Int(v) => v.raw(),
            Value::Fixed(v) => v.raw(),
        }
    }

    /// Whether the value is numerically zero (the branch condition test).
    pub fn is_zero(&self) -> bool {
        match self {
            Value::Int(v) => v.is_zero(),
            Value::Fixed(v) => v.is_zero(),
        }
    }

    /// Converts/resizes the value to `target` with `ap` assignment semantics
    /// (wrap on overflow, truncate fractions toward negative infinity).
    pub fn coerce(&self, target: Scalar) -> Value {
        match (*self, target) {
            (Value::Int(v), Scalar::Int { width, signed }) => Value::Int(v.resize(width, signed)),
            (
                Value::Fixed(v),
                Scalar::Fixed {
                    width,
                    int_bits,
                    signed,
                },
            ) => Value::Fixed(v.resize(width, int_bits, signed)),
            (
                Value::Int(v),
                Scalar::Fixed {
                    width,
                    int_bits,
                    signed,
                },
            ) => {
                // Integers convert exactly (up to wrap) via frac = 0, from
                // their raw bits as `int_to_fixed` in `ops` does.
                let as_fixed =
                    DynFixed::from_int(v.width(), v.width() as i32, v.is_signed(), v.raw() as i128);
                Value::Fixed(as_fixed.resize(width, int_bits, signed))
            }
            (Value::Fixed(v), Scalar::Int { width, signed }) => {
                Value::Int(v.to_int().resize(width, signed))
            }
        }
    }

    /// Converts the value to `f64` for reporting.
    pub fn to_f64(&self) -> f64 {
        match self {
            Value::Int(v) => v.to_f64(),
            Value::Fixed(v) => v.to_f64(),
        }
    }

    /// Views an integer value, panicking on fixed (internal invariant).
    pub(crate) fn as_int(&self) -> DynInt {
        match self {
            Value::Int(v) => *v,
            Value::Fixed(_) => panic!("expected integer value, found fixed-point"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => fmt::Display::fmt(v, f),
            Value::Fixed(v) => fmt::Display::fmt(v, f),
        }
    }
}

impl From<DynInt> for Value {
    fn from(v: DynInt) -> Self {
        Value::Int(v)
    }
}

impl From<DynFixed> for Value {
    fn from(v: DynFixed) -> Self {
        Value::Fixed(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_hls_spellings() {
        assert_eq!(Scalar::int(8).to_string(), "ap_int<8>");
        assert_eq!(Scalar::uint(32).to_string(), "ap_uint<32>");
        assert_eq!(Scalar::fixed(32, 17).to_string(), "ap_fixed<32,17>");
        assert_eq!(Scalar::ufixed(16, 8).to_string(), "ap_ufixed<16,8>");
    }

    #[test]
    fn word_counts() {
        assert_eq!(Scalar::uint(1).words(), 1);
        assert_eq!(Scalar::uint(32).words(), 1);
        assert_eq!(Scalar::uint(33).words(), 2);
        assert_eq!(Scalar::fixed(64, 40).words(), 2);
        assert_eq!(Scalar::uint(128).words(), 4);
    }

    #[test]
    fn coerce_int_to_fixed_exact() {
        let v = Value::Int(DynInt::from_i128(16, true, -7));
        let f = v.coerce(Scalar::fixed(32, 17));
        assert_eq!(f.to_f64(), -7.0);
    }

    #[test]
    fn coerce_fixed_to_int_truncates() {
        let v = Value::Fixed(DynFixed::from_f64(32, 17, true, -2.5));
        let i = v.coerce(Scalar::int(16));
        assert_eq!(i.to_f64(), -3.0);
    }

    #[test]
    fn zero_values() {
        assert!(Scalar::uint(8).zero().is_zero());
        assert!(Scalar::fixed(32, 17).zero().is_zero());
    }
}
