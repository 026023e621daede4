//! Memory map and firmware intrinsics of the PLD softcore page.
//!
//! The memory map follows the paper's Fig. 4: a unified instruction/data
//! BRAM at the bottom of the address space and memory-mapped stream ports
//! wired to the leaf-interface FIFOs at high addresses. Loads from a read
//! port and stores to a write port *block* until the FIFO can serve them,
//! giving the latency-insensitive semantics of Sec. 3.2 in software.
//!
//! Wide (`> 32`-bit) `ap_int`/`ap_fixed` arithmetic is provided by firmware
//! routines — the paper's memory-efficient compatibility libraries
//! (Sec. 5.2). In the simulator these execute as semihosted `ecall`s with a
//! calibrated cycle cost approximating the software routine they stand for.

use kir::expr::{BinOp, UnOp};
use kir::Scalar;

/// Base address of stream-read ports; port `k`'s data register is
/// `STREAM_READ_BASE + 8 * k`.
pub const STREAM_READ_BASE: u32 = 0x1000_0000;

/// Base address of stream-write ports; port `k`'s data register is
/// `STREAM_WRITE_BASE + 8 * k`.
pub const STREAM_WRITE_BASE: u32 = 0x2000_0000;

/// Stride between consecutive port register blocks.
pub const PORT_STRIDE: u32 = 8;

/// Maximum unified memory per page: "PLD pages support at most 192 KB
/// (96 BRAM18s) of unified memory" (Sec. 5.1).
pub const MAX_PAGE_MEMORY: u32 = 192 * 1024;

/// Cycle costs of the PicoRV32-class core (unpipelined; Sec. 7.4 calls it
/// "a slow, unpipelined core").
pub mod cycles {
    /// Base ALU / immediate instruction.
    pub const ALU: u64 = 4;
    /// Memory load.
    pub const LOAD: u64 = 5;
    /// Memory store.
    pub const STORE: u64 = 5;
    /// Taken or not-taken branch / jump.
    pub const BRANCH: u64 = 5;
    /// 32-bit multiply (PicoRV32 with the fast multiplier option).
    pub const MUL: u64 = 6;
    /// 32-bit divide.
    pub const DIV: u64 = 38;
    /// A wide-arithmetic firmware routine (modelled software loop).
    pub const INTRINSIC: u64 = 90;
    /// Stalled cycle waiting on a stream port.
    pub const STALL: u64 = 1;
}

/// One firmware intrinsic: an exact wide-arithmetic operation with static
/// operand shapes, invoked by `ecall` with `a7` holding the table index and
/// `a0..a3` holding operand/result slot addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// `*a2 = (*a0) op (*a1)`
    #[allow(missing_docs)]
    Bin { op: BinOp, lhs: Scalar, rhs: Scalar },
    /// `*a1 = op (*a0)`
    #[allow(missing_docs)]
    Un { op: UnOp, arg: Scalar },
    /// `*a1 = cast<to>(*a0)`
    #[allow(missing_docs)]
    Cast { from: Scalar, to: Scalar },
    /// `*a3 = (*a0) ? (*a1) : (*a2)` with arm shapes `t`/`e`.
    #[allow(missing_docs)]
    Select { cond: Scalar, t: Scalar, e: Scalar },
    /// `*a1 = (*a0)(hi, lo)`
    #[allow(missing_docs)]
    BitRange { arg: Scalar, hi: u32, lo: u32 },
}

/// Size in bytes of one value slot in softcore memory. All scalar slots are
/// 16 bytes so that any `ap` value up to 128 bits fits; narrow values use
/// the first word, sign- or zero-extended.
pub const SLOT_BYTES: u32 = 16;

/// Byte stride of an array element of width `w` bits (power-of-two strides
/// keep index arithmetic to a shift).
pub fn elem_stride(width: u32) -> u32 {
    match width {
        0..=8 => 1,
        9..=16 => 2,
        17..=32 => 4,
        33..=64 => 8,
        _ => 16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_are_pow2_and_fit() {
        for w in 1..=128u32 {
            let s = elem_stride(w);
            assert!(s.is_power_of_two());
            assert!(s * 8 >= w, "stride {s} too small for width {w}");
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn port_addresses_disjoint() {
        // Compile-time layout invariants, asserted for documentation value.
        assert!(STREAM_READ_BASE >= MAX_PAGE_MEMORY);
        assert_ne!(STREAM_READ_BASE, STREAM_WRITE_BASE);
    }
}
