#![warn(missing_docs)]
//! Arbitrary-precision integer and fixed-point libraries for PLD.
//!
//! The PLD paper (Sec. 5.2) requires datatypes "with compatible implementations
//! for processor and FPGA (e.g., arbitrary precision integer and fixed-point
//! libraries: `ap_int`, `ap_fixed`)" so that the *same* operator source can be
//! compiled to FPGA pages and to softcore processors. It further notes that the
//! vendor libraries waste memory on small softcore pages, motivating a
//! memory-efficient reimplementation.
//!
//! This crate provides [`DynInt`] / [`DynFixed`]: `ap_int<W>` / `ap_uint<W>`
//! and `ap_fixed<W,I>` / `ap_ufixed<W,I>` with the shape carried as a value,
//! used by the `kir` interpreter, the HLS datapath model and the softcore
//! compiler, where operator types are runtime data.
//!
//! Semantics follow the Xilinx defaults the paper's benchmarks rely on:
//! overflow **wraps** (`AP_WRAP`) and fixed-point assignment **truncates
//! toward negative infinity** (`AP_TRN`). Division by zero yields zero, the
//! conventional model for a hardware divider with undefined output (the
//! paper's `flow_calc` operator in Fig. 2 explicitly guards `denom == 0`).
//!
//! # Examples
//!
//! ```
//! use aplib::{DynFixed, DynInt};
//!
//! // ap_uint<12>: the sum wraps at 12 bits.
//! let a = DynInt::from_i128(12, false, 4000);
//! let b = DynInt::from_i128(12, false, 200);
//! assert_eq!(a.add(b).to_u128(), Some((4000 + 200) % (1 << 12)));
//!
//! // ap_fixed<32,17>: 17 integer bits (incl. sign), 15 fractional bits.
//! let x = DynFixed::from_f64(32, 17, true, 3.25);
//! let y = DynFixed::from_f64(32, 17, true, -1.5);
//! assert_eq!(x.mul(y).resize(32, 17, true).to_f64(), -4.875);
//! ```

#![allow(clippy::should_implement_trait)] // ap-arithmetic methods mirror the HLS API

mod bits;
mod dynfixed;
mod dynint;

pub use bits::{mask, min_bits_signed, min_bits_unsigned, sign_extend, wrap_to_width};
pub use dynfixed::DynFixed;
pub use dynint::DynInt;

/// Maximum supported bit width for all arbitrary-precision types.
///
/// Xilinx `ap_int` supports up to 1024 bits by default; the Rosetta operators
/// exercised by the paper use at most 64 (`ap_fixed<64,40>` in Fig. 2), so a
/// 128-bit backing store is generous while staying cheap on the softcore.
pub const MAX_WIDTH: u32 = 128;
