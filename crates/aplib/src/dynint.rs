//! Width-as-value arbitrary-precision integers.
//!
//! [`DynInt`] is the runtime twin of `ap_int<W>` / `ap_uint<W>` used wherever
//! the bit width is data rather than a type parameter: the `kir` interpreter,
//! the HLS datapath sizing model, and the softcore code generator.

use std::cmp::Ordering;
use std::fmt;

use crate::bits::{mask, min_bits_signed, min_bits_unsigned, sign_extend, wrap_to_width};

/// An arbitrary-precision two's-complement integer with a runtime width.
///
/// The value is stored as a raw bit pattern in a `u128`; `signed` selects the
/// interpretation. All arithmetic wraps to `width` bits (`AP_WRAP`), matching
/// the Xilinx `ap_int` defaults the paper's operators assume.
///
/// # Examples
///
/// ```
/// use aplib::DynInt;
///
/// let a = DynInt::from_i128(8, true, 100);
/// let b = DynInt::from_i128(8, true, 100);
/// assert_eq!(a.add(b).to_i128(), -56); // 200 wraps in signed 8-bit
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct DynInt {
    width: u32,
    signed: bool,
    raw: u128,
}

impl DynInt {
    /// Creates a value from a signed integer, wrapping it to `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`crate::MAX_WIDTH`].
    pub fn from_i128(width: u32, signed: bool, value: i128) -> Self {
        DynInt {
            width,
            signed,
            raw: wrap_to_width(value as u128, width),
        }
    }

    /// Creates a value from a raw bit pattern, wrapping it to `width` bits.
    pub fn from_raw(width: u32, signed: bool, raw: u128) -> Self {
        DynInt {
            width,
            signed,
            raw: wrap_to_width(raw, width),
        }
    }

    /// The zero value of the given shape.
    pub fn zero(width: u32, signed: bool) -> Self {
        Self::from_raw(width, signed, 0)
    }

    /// Bit width of the value.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Whether the value is interpreted as signed two's complement.
    pub fn is_signed(&self) -> bool {
        self.signed
    }

    /// The raw bit pattern, masked to the value's width.
    pub fn raw(&self) -> u128 {
        self.raw
    }

    /// The numeric value as an `i128` (sign- or zero-extended as appropriate).
    ///
    /// # Panics
    ///
    /// Panics if the value is unsigned, 128 bits wide, and has its top bit
    /// set, since such a value does not fit in an `i128`.
    pub fn to_i128(&self) -> i128 {
        if self.signed {
            sign_extend(self.raw, self.width)
        } else {
            assert!(
                self.width < 128 || self.raw >> 127 == 0,
                "unsigned 128-bit value does not fit in i128"
            );
            self.raw as i128
        }
    }

    /// The numeric value as a `u128` if it is non-negative.
    pub fn to_u128(&self) -> Option<u128> {
        if self.signed && sign_extend(self.raw, self.width) < 0 {
            None
        } else {
            Some(self.raw)
        }
    }

    /// Converts to `f64` (used only for reporting; kernels never touch floats).
    pub fn to_f64(&self) -> f64 {
        if self.signed {
            sign_extend(self.raw, self.width) as f64
        } else {
            self.raw as f64
        }
    }

    /// Returns `true` if the value is numerically zero.
    pub fn is_zero(&self) -> bool {
        self.raw == 0
    }

    /// Reinterprets the value with a new width and signedness.
    ///
    /// Matches `ap_int` assignment: the source is first extended to infinite
    /// precision according to its own signedness, then wrapped to the target
    /// width (`AP_WRAP`).
    pub fn resize(&self, width: u32, signed: bool) -> Self {
        let extended = if self.signed {
            sign_extend(self.raw, self.width) as u128
        } else {
            self.raw
        };
        DynInt::from_raw(width, signed, extended)
    }

    fn value_i128(&self) -> i128 {
        if self.signed {
            sign_extend(self.raw, self.width)
        } else {
            // Guaranteed to fit unless unsigned 128-bit with top bit set;
            // arithmetic below special-cases that via raw u128 math.
            self.raw as i128
        }
    }

    fn binary_shape(&self, rhs: &DynInt) -> (u32, bool) {
        // C-style usual arithmetic conversions, collapsed to the ap_int rule
        // the HLS model uses: the result of a native binary op keeps the
        // larger width; signedness is signed if either side is signed.
        (self.width.max(rhs.width), self.signed || rhs.signed)
    }

    /// Wrapping addition at the wider of the two operand widths.
    pub fn add(self, rhs: DynInt) -> DynInt {
        let (w, s) = self.binary_shape(&rhs);
        DynInt::from_raw(w, s, self.extend_raw(w).wrapping_add(rhs.extend_raw(w)))
    }

    /// Wrapping subtraction at the wider of the two operand widths.
    pub fn sub(self, rhs: DynInt) -> DynInt {
        let (w, s) = self.binary_shape(&rhs);
        DynInt::from_raw(w, s, self.extend_raw(w).wrapping_sub(rhs.extend_raw(w)))
    }

    /// Wrapping multiplication at the wider of the two operand widths.
    pub fn mul(self, rhs: DynInt) -> DynInt {
        let (w, s) = self.binary_shape(&rhs);
        DynInt::from_raw(w, s, self.extend_raw(w).wrapping_mul(rhs.extend_raw(w)))
    }

    /// Division. Division by zero yields zero (hardware-divider model).
    pub fn div(self, rhs: DynInt) -> DynInt {
        let (w, s) = self.binary_shape(&rhs);
        if rhs.raw == 0 {
            return DynInt::zero(w, s);
        }
        if s {
            let q = self.value_i128().wrapping_div(rhs.value_i128());
            DynInt::from_i128(w, s, q)
        } else {
            DynInt::from_raw(w, s, self.raw / rhs.raw)
        }
    }

    /// Remainder. Remainder by zero yields zero (hardware-divider model).
    pub fn rem(self, rhs: DynInt) -> DynInt {
        let (w, s) = self.binary_shape(&rhs);
        if rhs.raw == 0 {
            return DynInt::zero(w, s);
        }
        if s {
            let r = self.value_i128().wrapping_rem(rhs.value_i128());
            DynInt::from_i128(w, s, r)
        } else {
            DynInt::from_raw(w, s, self.raw % rhs.raw)
        }
    }

    /// Bitwise AND at the wider of the two operand widths.
    pub fn bitand(self, rhs: DynInt) -> DynInt {
        let (w, s) = self.binary_shape(&rhs);
        DynInt::from_raw(w, s, self.extend_raw(w) & rhs.extend_raw(w))
    }

    /// Bitwise OR at the wider of the two operand widths.
    pub fn bitor(self, rhs: DynInt) -> DynInt {
        let (w, s) = self.binary_shape(&rhs);
        DynInt::from_raw(w, s, self.extend_raw(w) | rhs.extend_raw(w))
    }

    /// Bitwise XOR at the wider of the two operand widths.
    pub fn bitxor(self, rhs: DynInt) -> DynInt {
        let (w, s) = self.binary_shape(&rhs);
        DynInt::from_raw(w, s, self.extend_raw(w) ^ rhs.extend_raw(w))
    }

    /// Bitwise NOT at the value's own width.
    pub fn not(self) -> DynInt {
        DynInt::from_raw(self.width, self.signed, !self.raw)
    }

    /// Arithmetic negation at the value's own width.
    pub fn neg(self) -> DynInt {
        DynInt::from_raw(self.width, self.signed, (!self.raw).wrapping_add(1))
    }

    /// Logical shift left; shifts of `width` or more produce zero.
    pub fn shl(self, amount: u32) -> DynInt {
        if amount >= self.width {
            DynInt::zero(self.width, self.signed)
        } else {
            DynInt::from_raw(self.width, self.signed, self.raw << amount)
        }
    }

    /// Shift right: arithmetic for signed values, logical for unsigned.
    pub fn shr(self, amount: u32) -> DynInt {
        if amount >= self.width {
            let fill = if self.signed && self.top_bit() {
                u128::MAX
            } else {
                0
            };
            return DynInt::from_raw(self.width, self.signed, fill);
        }
        let v = if self.signed {
            (sign_extend(self.raw, self.width) >> amount) as u128
        } else {
            self.raw >> amount
        };
        DynInt::from_raw(self.width, self.signed, v)
    }

    /// Extracts the inclusive bit range `[hi:lo]` as an unsigned value, the
    /// `ap_int` range-select `x(hi, lo)` used throughout the Rosetta kernels.
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi` is outside the value's width.
    pub fn bit_range(&self, hi: u32, lo: u32) -> DynInt {
        assert!(hi >= lo, "bit range [{hi}:{lo}] is reversed");
        assert!(
            hi < self.width,
            "bit {hi} out of range for width {}",
            self.width
        );
        let w = hi - lo + 1;
        DynInt::from_raw(w, false, self.raw >> lo)
    }

    /// Returns bit `index` as a boolean.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the value's width.
    pub fn bit(&self, index: u32) -> bool {
        assert!(
            index < self.width,
            "bit {index} out of range for width {}",
            self.width
        );
        (self.raw >> index) & 1 == 1
    }

    /// Replaces the inclusive bit range `[hi:lo]` with the low bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi` is outside the value's width.
    pub fn with_bit_range(&self, hi: u32, lo: u32, value: u128) -> DynInt {
        assert!(hi >= lo, "bit range [{hi}:{lo}] is reversed");
        assert!(
            hi < self.width,
            "bit {hi} out of range for width {}",
            self.width
        );
        let w = hi - lo + 1;
        let field_mask = mask(w) << lo;
        let raw = (self.raw & !field_mask) | ((value & mask(w)) << lo);
        DynInt::from_raw(self.width, self.signed, raw)
    }

    /// Numeric comparison honouring each operand's own signedness.
    pub fn cmp_value(&self, rhs: &DynInt) -> Ordering {
        match (self.signed, rhs.signed) {
            (false, false) => self.raw.cmp(&rhs.raw),
            _ => {
                // At least one side signed: compare as i128. Unsigned 128-bit
                // values with the top bit set compare greater than any i128.
                let l_big = !self.signed && self.width == 128 && self.top_bit();
                let r_big = !rhs.signed && rhs.width == 128 && rhs.top_bit();
                match (l_big, r_big) {
                    (true, true) => self.raw.cmp(&rhs.raw),
                    (true, false) => Ordering::Greater,
                    (false, true) => Ordering::Less,
                    (false, false) => self.value_i128().cmp(&rhs.value_i128()),
                }
            }
        }
    }

    /// Number of bits the packed softcore representation needs (Sec. 5.2's
    /// "minimum number of bits" memory-efficiency argument).
    pub fn min_bits(&self) -> u32 {
        if self.signed {
            min_bits_signed(sign_extend(self.raw, self.width)).min(self.width)
        } else {
            min_bits_unsigned(self.raw).min(self.width)
        }
    }

    fn top_bit(&self) -> bool {
        (self.raw >> (self.width - 1)) & 1 == 1
    }

    fn extend_raw(&self, to_width: u32) -> u128 {
        if self.signed {
            wrap_to_width(sign_extend(self.raw, self.width) as u128, to_width)
        } else {
            wrap_to_width(self.raw, to_width)
        }
    }
}

impl fmt::Debug for DynInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.signed { "int" } else { "uint" };
        write!(f, "ap_{}<{}>(", kind, self.width)?;
        fmt::Display::fmt(self, f)?;
        write!(f, ")")
    }
}

impl fmt::Display for DynInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.signed {
            write!(f, "{}", sign_extend(self.raw, self.width))
        } else {
            write!(f, "{}", self.raw)
        }
    }
}

impl fmt::LowerHex for DynInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.raw, f)
    }
}

impl fmt::Binary for DynInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.raw, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s8(v: i128) -> DynInt {
        DynInt::from_i128(8, true, v)
    }
    fn u8v(v: i128) -> DynInt {
        DynInt::from_i128(8, false, v)
    }

    #[test]
    fn wrapping_add_signed() {
        assert_eq!(s8(127).add(s8(1)).to_i128(), -128);
        assert_eq!(s8(-128).sub(s8(1)).to_i128(), 127);
    }

    #[test]
    fn wrapping_unsigned() {
        assert_eq!(u8v(255).add(u8v(1)).to_i128(), 0);
        assert_eq!(u8v(0).sub(u8v(1)).to_i128(), 255);
    }

    #[test]
    fn mixed_width_ops_take_wider_shape() {
        let a = DynInt::from_i128(4, false, 15);
        let b = DynInt::from_i128(12, false, 100);
        let c = a.add(b);
        assert_eq!(c.width(), 12);
        assert_eq!(c.to_i128(), 115);
    }

    #[test]
    fn mixed_signedness_is_signed() {
        let a = DynInt::from_i128(8, false, 200);
        let b = DynInt::from_i128(8, true, -1);
        let c = a.add(b);
        assert!(c.is_signed());
        assert_eq!(c.to_i128(), -57); // 200 + 255 = 455 wraps to -57 in i8
    }

    #[test]
    fn division_by_zero_is_zero() {
        assert_eq!(s8(100).div(s8(0)).to_i128(), 0);
        assert_eq!(s8(100).rem(s8(0)).to_i128(), 0);
    }

    #[test]
    fn signed_division_truncates() {
        assert_eq!(s8(-7).div(s8(2)).to_i128(), -3);
        assert_eq!(s8(-7).rem(s8(2)).to_i128(), -1);
    }

    #[test]
    fn shifts() {
        assert_eq!(u8v(0b1011).shl(2).to_i128(), 0b101100);
        assert_eq!(u8v(0b1011).shl(8).to_i128(), 0);
        assert_eq!(s8(-8).shr(1).to_i128(), -4);
        assert_eq!(s8(-8).shr(10).to_i128(), -1);
        assert_eq!(u8v(0x80).shr(3).to_i128(), 0x10);
        assert_eq!(u8v(0x80).shr(10).to_i128(), 0);
    }

    #[test]
    fn bit_ops() {
        assert_eq!(u8v(0b1100).bitand(u8v(0b1010)).to_i128(), 0b1000);
        assert_eq!(u8v(0b1100).bitor(u8v(0b1010)).to_i128(), 0b1110);
        assert_eq!(u8v(0b1100).bitxor(u8v(0b1010)).to_i128(), 0b0110);
        assert_eq!(u8v(0).not().to_i128(), 255);
        assert_eq!(s8(5).neg().to_i128(), -5);
        assert_eq!(s8(-128).neg().to_i128(), -128); // two's complement edge
    }

    #[test]
    fn bit_range_select_and_set() {
        let v = DynInt::from_raw(16, false, 0xabcd);
        assert_eq!(v.bit_range(7, 4).raw(), 0xc);
        assert_eq!(v.bit_range(15, 12).raw(), 0xa);
        assert_eq!(v.bit_range(7, 4).width(), 4);
        assert!(v.bit(15));
        assert!(!v.bit(1));
        let w = v.with_bit_range(7, 4, 0x5);
        assert_eq!(w.raw(), 0xab5d);
    }

    #[test]
    fn resize_sign_extension() {
        let v = s8(-3).resize(16, true);
        assert_eq!(v.to_i128(), -3);
        let u = s8(-3).resize(16, false);
        assert_eq!(u.to_i128(), 0xfffd);
        let narrowed = DynInt::from_i128(16, true, 0x1234).resize(8, true);
        assert_eq!(narrowed.to_i128(), 0x34);
    }

    #[test]
    fn comparisons() {
        assert_eq!(s8(-1).cmp_value(&u8v(1)), Ordering::Less);
        assert_eq!(u8v(200).cmp_value(&s8(-1)), Ordering::Greater);
        assert_eq!(u8v(200).cmp_value(&u8v(100)), Ordering::Greater);
        let big = DynInt::from_raw(128, false, u128::MAX);
        let neg = DynInt::from_i128(64, true, -1);
        assert_eq!(big.cmp_value(&neg), Ordering::Greater);
        assert_eq!(neg.cmp_value(&big), Ordering::Less);
    }

    #[test]
    fn min_bits_packing() {
        assert_eq!(DynInt::from_i128(32, false, 5).min_bits(), 3);
        assert_eq!(DynInt::from_i128(32, true, -1).min_bits(), 1);
        assert_eq!(DynInt::from_i128(32, true, 127).min_bits(), 8);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", s8(-3)), "-3");
        assert_eq!(format!("{:?}", u8v(7)), "ap_uint<8>(7)");
        assert_eq!(format!("{:x}", u8v(255)), "ff");
        assert_eq!(format!("{:b}", u8v(5)), "101");
    }

    #[test]
    fn full_width_128() {
        let a = DynInt::from_raw(128, false, u128::MAX);
        let b = a.add(DynInt::from_i128(128, false, 1));
        assert!(b.is_zero());
        assert!(a.to_u128() == Some(u128::MAX));
    }
}
