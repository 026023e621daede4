#![warn(missing_docs)]
//! Softcore integration: the `-O0` target (paper Sec. 5).
//!
//! "We can always configure portions of the FPGA, including an FPGA page,
//! as a processor. The processor serves as a simple overlay architecture
//! that admits to fast compilation." PLD pre-loads each page with a
//! PicoRV32 soft processor; the *same* operator source then compiles to
//! RISC-V in about a second, giving the near-instant `-O0` edit-compile-
//! debug turn of Tab. 2 at the cost of the 10³–10⁵× slowdown of Tab. 3.
//!
//! This crate rebuilds that stack:
//!
//! * [`isa`] — RV32IM instruction encoding/decoding;
//! * [`cpu`] — a PicoRV32-class (unpipelined, ~4 cycles/instruction)
//!   instruction-set simulator with memory-mapped, *blocking* stream ports
//!   matching the leaf-interface FIFOs (Fig. 4);
//! * [`cc`] — the operator compiler from kernel IR to RV32IM machine code.
//!   Arithmetic at 32 bits or less compiles to native instructions; wider
//!   `ap_int`/`ap_fixed` arithmetic calls firmware intrinsics (the paper's
//!   memory-efficient compatibility libraries of Sec. 5.2), modelled as
//!   semihosted calls with calibrated cycle costs;
//! * [`binary`] — the ELF-like artifact and the pre-linker/loader (`pld`)
//!   packing of Sec. 6.1 (binary + page number + load addresses);
//! * [`block`] — the pre-decoded basic-block cache: firmware decodes once
//!   into dense micro-op buffers executed by a tight dispatch loop, with
//!   the decode-per-step [`cpu`] interpreter kept as the bit-identical
//!   reference;
//! * [`run`] — a batch executor wiring a compiled operator to word streams:
//!   [`execute`] on the block cache, [`execute_reference`] on the
//!   decode-per-step oracle.
//!
//! The compiler and the `kir` interpreter are property-tested to produce
//! identical streams — the single-source guarantee the whole paper rests
//! on.

pub mod binary;
pub mod block;
pub mod cc;
pub mod cpu;
pub mod firmware;
pub mod isa;
pub mod run;

pub use binary::{PackedBinary, SoftBinary};
pub use block::IcacheStats;
pub use cc::{compile_kernel, CcError};
pub use cpu::{Cpu, StepResult, StreamIo};
pub use run::{execute, execute_reference, ExecOutput, RunError};
