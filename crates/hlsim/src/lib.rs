#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]
//! High-level synthesis: kernel IR → macro-cell netlist.
//!
//! This crate plays Vitis_HLS's role in the paper's flows (the `hls_caller`
//! box in Figs. 5–7): it compiles one operator's source into RTL-level
//! hardware. Three passes mirror what a real HLS compiler does:
//!
//! * **scheduling** ([`mod@schedule`]) — assigns statement latencies, computes
//!   each loop's initiation interval (II) from loop-carried dependencies,
//!   multi-cycle operators and stream-port word rates, and derives a cycle
//!   count per kernel invocation;
//! * **binding** ([`mod@lower`]) — instantiates one datapath macro cell per
//!   static operation (adders, multipliers, dividers, muxes, BRAM ports,
//!   stream interfaces, loop FSMs) with widths from the resolved kernel
//!   ([`kir::resolve`]), except that an expression reading a loop index is
//!   lowered at 32 bits (see [`lower()`]);
//! * **reporting** ([`report`]) — the resource/timing summary (`HlsReport`)
//!   that drives page fitting, the performance simulations and the Tab. 4
//!   area numbers.
//!
//! # Examples
//!
//! ```
//! use kir::{Expr, KernelBuilder, Scalar, Stmt};
//!
//! let k = KernelBuilder::new("double")
//!     .input("in", Scalar::uint(32))
//!     .output("out", Scalar::uint(32))
//!     .local("x", Scalar::uint(32))
//!     .body([Stmt::for_pipelined("i", 0..1024, [
//!         Stmt::read("x", "in"),
//!         Stmt::write("out", Expr::var("x").add(Expr::var("x"))),
//!     ])])
//!     .build()?;
//!
//! let out = hlsim::compile(&k)?;
//! assert!(out.netlist.cell_count() > 4);
//! assert_eq!(out.report.top_ii, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod lower;
pub mod report;
pub mod schedule;

pub use lower::lower;
pub use report::HlsReport;
pub use schedule::{schedule, LoopSchedule, Schedule};

use kir::Kernel;
use netlist::Netlist;

/// The product of one HLS compilation.
#[derive(Debug, Clone)]
pub struct HlsOutput {
    /// The synthesized netlist (the operator's `.v` file, ready for P&R).
    pub netlist: Netlist,
    /// The schedule (latencies, IIs, cycle counts).
    pub schedule: Schedule,
    /// The resource/timing report.
    pub report: HlsReport,
}

/// Compiles a kernel to hardware.
///
/// # Errors
///
/// Returns [`kir::CheckError`] if the kernel violates the operator
/// discipline (kernels built via [`kir::KernelBuilder`] always pass).
pub fn compile(kernel: &Kernel) -> Result<HlsOutput, kir::CheckError> {
    let resolved = kir::resolve(kernel)?;
    let schedule = schedule::schedule(&resolved);
    let netlist = lower::lower(&resolved);
    let report = report::HlsReport::new(&resolved, &netlist, &schedule);
    Ok(HlsOutput {
        netlist,
        schedule,
        report,
    })
}
