//! Width-as-value arbitrary-precision fixed-point numbers.

use std::cmp::Ordering;
use std::fmt;

use crate::bits::{sign_extend, wrap_to_width};
use crate::DynInt;

/// An arbitrary-precision fixed-point number with runtime shape, the twin of
/// `ap_fixed<W,I>` / `ap_ufixed<W,I>`.
///
/// `width` is the total number of bits and `int_bits` the number of integer
/// bits *including* the sign bit for signed values, exactly as in the Xilinx
/// template; the number of fractional bits is `width - int_bits` and may be
/// negative (values then carry an implicit scale). Assignment/resizing
/// truncates toward negative infinity (`AP_TRN`) and wraps on overflow
/// (`AP_WRAP`), the defaults the Rosetta kernels are written against.
///
/// # Examples
///
/// ```
/// use aplib::DynFixed;
///
/// // ap_fixed<32,17>, as used by the paper's flow_calc operator (Fig. 2).
/// let a = DynFixed::from_f64(32, 17, true, 1.5);
/// let b = DynFixed::from_f64(32, 17, true, 2.25);
/// assert_eq!(a.add(b).to_f64(), 3.75);
/// assert_eq!(a.mul(b).to_f64(), 3.375);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct DynFixed {
    width: u32,
    int_bits: i32,
    signed: bool,
    raw: u128,
}

impl DynFixed {
    /// Creates a fixed-point value from its raw (scaled) bit pattern.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`crate::MAX_WIDTH`].
    pub fn from_raw(width: u32, int_bits: i32, signed: bool, raw: u128) -> Self {
        DynFixed {
            width,
            int_bits,
            signed,
            raw: wrap_to_width(raw, width),
        }
    }

    /// Creates a fixed-point value by rounding an `f64` to the nearest
    /// representable value (ties away from zero), then wrapping.
    pub fn from_f64(width: u32, int_bits: i32, signed: bool, value: f64) -> Self {
        let frac = width as i32 - int_bits;
        let scaled = (value * (frac as f64).exp2()).round();
        Self::from_raw(width, int_bits, signed, (scaled as i128) as u128)
    }

    /// Creates a fixed-point value from an integer, exactly when it fits.
    pub fn from_int(width: u32, int_bits: i32, signed: bool, value: i128) -> Self {
        let frac = width as i32 - int_bits;
        let raw = if frac >= 0 {
            if frac >= 128 {
                0
            } else {
                (value as u128).wrapping_shl(frac as u32)
            }
        } else {
            (value >> (-frac).min(127) as u32) as u128
        };
        Self::from_raw(width, int_bits, signed, raw)
    }

    /// The zero value of the given shape.
    pub fn zero(width: u32, int_bits: i32, signed: bool) -> Self {
        Self::from_raw(width, int_bits, signed, 0)
    }

    /// Total bit width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Integer bits (including sign for signed shapes).
    pub fn int_bits(&self) -> i32 {
        self.int_bits
    }

    /// Fractional bits (`width - int_bits`); may be negative.
    pub fn frac_bits(&self) -> i32 {
        self.width as i32 - self.int_bits
    }

    /// Whether the value is signed.
    pub fn is_signed(&self) -> bool {
        self.signed
    }

    /// The raw scaled bit pattern.
    pub fn raw(&self) -> u128 {
        self.raw
    }

    /// Returns `true` if the value is numerically zero.
    pub fn is_zero(&self) -> bool {
        self.raw == 0
    }

    /// The raw pattern as a signed scaled integer.
    fn scaled(&self) -> i128 {
        if self.signed {
            sign_extend(self.raw, self.width)
        } else {
            self.raw as i128
        }
    }

    /// Converts to `f64`. Exact for widths ≤ 53 fractional-plus-integer bits.
    pub fn to_f64(&self) -> f64 {
        self.scaled() as f64 * (-(self.frac_bits() as f64)).exp2()
    }

    /// Truncates to the integer part (toward negative infinity), as a [`DynInt`]
    /// of the same width.
    pub fn to_int(&self) -> DynInt {
        let f = self.frac_bits();
        let v = if f >= 0 {
            self.scaled() >> f.min(127)
        } else {
            self.scaled().wrapping_shl((-f) as u32)
        };
        DynInt::from_i128(self.width, self.signed, v)
    }

    /// Reinterprets the raw bits as an integer of the same width (the
    /// `ap_fixed` range-select `t[i](31,0)` idiom from Fig. 2 of the paper).
    pub fn raw_bits(&self) -> DynInt {
        DynInt::from_raw(self.width, false, self.raw)
    }

    /// Resizes to a new shape with `AP_TRN` / `AP_WRAP` semantics.
    pub fn resize(&self, width: u32, int_bits: i32, signed: bool) -> Self {
        let shift = (width as i32 - int_bits) - self.frac_bits();
        let v = self.scaled();
        let shifted = if shift >= 0 {
            if shift >= 128 {
                0
            } else {
                (v as u128).wrapping_shl(shift as u32)
            }
        } else {
            // Arithmetic shift right truncates toward negative infinity.
            (v >> (-shift).min(127) as u32) as u128
        };
        DynFixed::from_raw(width, int_bits, signed, shifted)
    }

    /// Shape of the full-precision result of addition, per the `ap_fixed`
    /// promotion rules (integer and fraction both grow to cover both operands,
    /// plus one carry bit).
    fn add_shape(&self, rhs: &DynFixed) -> (u32, i32, bool) {
        let int = self.int_bits.max(rhs.int_bits) + 1;
        let frac = self.frac_bits().max(rhs.frac_bits());
        let signed = self.signed || rhs.signed;
        (
            ((int + frac).max(1) as u32).min(crate::MAX_WIDTH),
            int,
            signed,
        )
    }

    fn align(&self, frac: i32) -> i128 {
        let d = frac - self.frac_bits();
        if d >= 0 {
            self.scaled().wrapping_shl(d.min(127) as u32)
        } else {
            self.scaled() >> (-d).min(127) as u32
        }
    }

    /// Full-precision addition.
    pub fn add(self, rhs: DynFixed) -> DynFixed {
        let (w, i, s) = self.add_shape(&rhs);
        let frac = w as i32 - i;
        DynFixed::from_raw(
            w,
            i,
            s,
            self.align(frac).wrapping_add(rhs.align(frac)) as u128,
        )
    }

    /// Full-precision subtraction.
    pub fn sub(self, rhs: DynFixed) -> DynFixed {
        let (w, i, s) = self.add_shape(&rhs);
        let frac = w as i32 - i;
        DynFixed::from_raw(
            w,
            i,
            s,
            self.align(frac).wrapping_sub(rhs.align(frac)) as u128,
        )
    }

    /// Full-precision multiplication (`W = W1+W2`, `I = I1+I2`, capped at
    /// [`crate::MAX_WIDTH`]).
    pub fn mul(self, rhs: DynFixed) -> DynFixed {
        let int = self.int_bits + rhs.int_bits;
        let frac = self.frac_bits() + rhs.frac_bits();
        let w = ((int + frac).max(1) as u32).min(crate::MAX_WIDTH);
        let signed = self.signed || rhs.signed;
        let product = self.scaled().wrapping_mul(rhs.scaled());
        let result_frac = w as i32 - int;
        let adjust = frac - result_frac;
        let v = if adjust > 0 {
            product >> adjust.min(127) as u32
        } else {
            product
        };
        DynFixed::from_raw(w, int, signed, v as u128)
    }

    /// Division at the left operand's shape. Division by zero yields zero.
    pub fn div(self, rhs: DynFixed) -> DynFixed {
        if rhs.raw == 0 {
            return DynFixed::zero(self.width, self.int_bits, self.signed || rhs.signed);
        }
        // Quotient fraction = fa - fb; pre-scale the numerator so the result
        // carries the left operand's fraction (Vitis computes at full
        // precision; the Rosetta kernels immediately assign to the LHS shape).
        let target_frac = self.frac_bits();
        let pre = target_frac + rhs.frac_bits() - self.frac_bits();
        let mut num = self.scaled();
        if pre > 0 {
            num = num.wrapping_shl(pre.min(127) as u32);
        } else if pre < 0 {
            num >>= (-pre).min(127) as u32;
        }
        let q = num.wrapping_div(rhs.scaled());
        DynFixed::from_raw(
            self.width,
            self.int_bits,
            self.signed || rhs.signed,
            q as u128,
        )
    }

    /// Arithmetic negation at the value's own shape.
    pub fn neg(self) -> DynFixed {
        DynFixed::from_raw(
            self.width,
            self.int_bits,
            self.signed,
            (!self.raw).wrapping_add(1),
        )
    }

    /// Numeric comparison (operands may have different shapes).
    pub fn cmp_value(&self, rhs: &DynFixed) -> Ordering {
        let frac = self.frac_bits().max(rhs.frac_bits());
        self.align(frac).cmp(&rhs.align(frac))
    }
}

impl fmt::Debug for DynFixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.signed { "fixed" } else { "ufixed" };
        write!(
            f,
            "ap_{}<{},{}>({})",
            kind,
            self.width,
            self.int_bits,
            self.to_f64()
        )
    }
}

impl fmt::Display for DynFixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fx(v: f64) -> DynFixed {
        DynFixed::from_f64(32, 17, true, v)
    }

    #[test]
    fn roundtrip_f64() {
        for v in [0.0, 1.0, -1.0, 3.25, -7.875, 1234.5] {
            assert_eq!(fx(v).to_f64(), v, "roundtrip {v}");
        }
    }

    #[test]
    fn add_sub_grow_one_bit() {
        let a = fx(100.5);
        let b = fx(-0.25);
        let c = a.add(b);
        assert_eq!(c.to_f64(), 100.25);
        assert_eq!(c.int_bits(), 18);
        assert_eq!(c.width(), 33);
        assert_eq!(a.sub(b).to_f64(), 100.75);
    }

    #[test]
    fn mul_full_precision() {
        // The paper's flow_calc computes ap_fixed<64,40> products of
        // ap_fixed<32,17> values: t[1]*t[2].
        let a = fx(181.25);
        let b = fx(-3.0625);
        let p = a.mul(b);
        assert_eq!(p.to_f64(), 181.25 * -3.0625);
        assert_eq!(p.width(), 64);
        assert_eq!(p.int_bits(), 34);
        let narrowed = p.resize(64, 40, true);
        assert_eq!(narrowed.to_f64(), 181.25 * -3.0625);
    }

    #[test]
    fn division_matches_flow_calc_usage() {
        let numer = DynFixed::from_f64(64, 40, true, -10.5);
        let denom = DynFixed::from_f64(64, 40, true, 4.0);
        let q = numer.div(denom);
        assert_eq!(q.to_f64(), -2.625);
        let z = numer.div(DynFixed::zero(64, 40, true));
        assert!(z.is_zero());
    }

    #[test]
    fn truncation_toward_negative_infinity() {
        let v = DynFixed::from_f64(32, 17, true, -1.75);
        let t = v.resize(32, 31, true); // 1 fractional bit
        assert_eq!(t.to_f64(), -2.0); // -1.75 truncates down to -2.0
        let p = DynFixed::from_f64(32, 17, true, 1.75).resize(32, 31, true);
        assert_eq!(p.to_f64(), 1.5);
    }

    #[test]
    fn wrap_on_overflow() {
        // ap_ufixed<8,8> holds integers 0..=255.
        let v = DynFixed::from_int(8, 8, false, 300);
        assert_eq!(v.to_f64(), 44.0);
    }

    #[test]
    fn to_int_truncates() {
        assert_eq!(fx(3.9).to_int().to_i128(), 3);
        assert_eq!(fx(-3.1).to_int().to_i128(), -4);
    }

    #[test]
    fn raw_bits_roundtrip() {
        let v = fx(-2.5);
        let bits = v.raw_bits();
        let back = DynFixed::from_raw(32, 17, true, bits.raw());
        assert_eq!(back.to_f64(), -2.5);
    }

    #[test]
    fn comparisons_across_shapes() {
        let a = DynFixed::from_f64(16, 8, true, 1.5);
        let b = DynFixed::from_f64(32, 17, true, 1.25);
        assert_eq!(a.cmp_value(&b), Ordering::Greater);
        assert_eq!(b.cmp_value(&a), Ordering::Less);
        assert_eq!(a.cmp_value(&a), Ordering::Equal);
    }

    #[test]
    fn negation() {
        assert_eq!(fx(2.5).neg().to_f64(), -2.5);
        assert_eq!(fx(0.0).neg().to_f64(), 0.0);
    }

    #[test]
    fn negative_frac_bits_shape() {
        // ap_ufixed<4,8>: values are multiples of 16, max 240.
        let v = DynFixed::from_int(4, 8, false, 48);
        assert_eq!(v.to_f64(), 48.0);
        assert_eq!(v.frac_bits(), -4);
    }
}
