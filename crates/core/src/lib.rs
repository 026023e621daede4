#![warn(missing_docs)]
//! PLD: Partition, Linking and LoaDing on Programmable Logic Devices.
//!
//! The top of the stack: the automated tool flow of the paper's Sec. 6,
//! tying every substrate together behind the three compiler options of
//! Fig. 1:
//!
//! * **`-O0`** ([`flow`] with [`OptLevel::O0`]) — compile every operator to
//!   a page softcore in seconds (Fig. 5);
//! * **`-O1`** ([`OptLevel::O1`]) — separate compilation: each operator is
//!   synthesized and placed-and-routed alone onto its page against an
//!   abstract shell, in parallel, in minutes (Fig. 6);
//! * **`-O3`** ([`OptLevel::O3`]) — the monolithic flow: stitch all
//!   operators into one kernel with hardware FIFOs and compile the whole
//!   device at once, in hours (Fig. 7).
//!
//! Mixed targets are first-class: each operator's `#pragma target` picks its
//! own flow, and [`incremental`] recompiles only operators whose source,
//! target or page changed — the edit-compile-debug loop the paper is about.
//!
//! [`execute`] holds the `-O1` and `-O0` performance models behind Tab. 3
//! and Figs. 10–11, and [`vtime`] the calibrated virtual-time model that converts the
//! toolchain's measured work into Vitis-2021.1-scale seconds for Tab. 2
//! (both real wall-clock and virtual seconds are always reported).
//!
//! # Examples
//!
//! ```
//! use dfg::{GraphBuilder, Target};
//! use kir::{Expr, KernelBuilder, Scalar, Stmt};
//! use pld::{compile, CompileOptions, OptLevel};
//!
//! let double = KernelBuilder::new("double")
//!     .input("in", Scalar::uint(32))
//!     .output("out", Scalar::uint(32))
//!     .local("x", Scalar::uint(32))
//!     .body([Stmt::for_pipelined("i", 0..16, [
//!         Stmt::read("x", "in"),
//!         Stmt::write("out", Expr::var("x").add(Expr::var("x"))),
//!     ])])
//!     .build()?;
//!
//! let mut b = GraphBuilder::new("app");
//! let d = b.add("d", double, Target::riscv_auto());
//! b.ext_input("Input_1", d, "in");
//! b.ext_output("Output_1", d, "out");
//! let graph = b.build()?;
//!
//! let compiled = compile(&graph, &CompileOptions::new(OptLevel::O0))?;
//! assert_eq!(compiled.operators.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod artifact;
pub mod build;
pub mod cache;
mod codec;
pub mod cosim;
pub mod execute;
pub mod farm;
pub mod flow;
pub mod incremental;
pub mod loader;
pub mod report;
pub mod store;
pub mod vtime;

pub use artifact::{Driver, LinkOp, LoadOp, Xclbin, XclbinKind};
pub use build::{build, build_batch, BuildReport, OperatorStages, StageCount};
pub use cache::{CacheBackend, DiskCache, TieredCache};
pub use cosim::{cosim_o0, cosim_o0_reference, CosimError, CosimOutput};
pub use execute::{PerfReport, RunMode};
pub use flow::{
    bft_distance, compile, CompileError, CompileOptions, CompiledApp, CompiledOperator, LinkStyle,
    OptLevel,
};
pub use incremental::BuildCache;
pub use loader::{load, page_load_ops, replay_loads, LoadReport};
pub use report::{area, AreaReport};
pub use store::{
    ArtifactStore, HlsProduct, PnrProduct, SoftProduct, StageKey, StageKind, StageProduct,
};
pub use vtime::{PhaseTimes, VtimeModel};
