#![warn(missing_docs)]
//! Kernel IR: the single-source operator description at the centre of PLD.
//!
//! The paper's pivotal abstraction (Sec. 3) is that one C source file per
//! operator compiles to *three* targets: a processor (`-O0`, seconds), an
//! FPGA page (`-O1`, minutes) and a slice of a monolithic design (`-O3`,
//! hours). In this reproduction the role of that C source is played by
//! [`Kernel`] — a typed, loop-structured IR over `ap_int`/`ap_fixed` scalars
//! and blocking stream ports.
//!
//! The *operator discipline* of Sec. 3.4 (streams for all I/O, no allocation,
//! no recursion, standard arbitrary-precision datatypes) is enforced by
//! [`resolve`], and is what makes the three-way compilation possible. The
//! same walk types every expression and resolves every name to a
//! declaration index, giving a [`ResolvedKernel`]; [`validate`] is that walk
//! with the tree dropped. Three backends consume the resolved kernel, so
//! none of them types the source again:
//!
//! * [`interp`] (this crate) — direct host execution; the golden model and
//!   the paper's "X86 g++" baseline,
//! * `hlsim` — high-level synthesis to a macro-cell netlist (`-O1`/`-O3`),
//! * `softcore::cc` — compilation to RV32IM code for the page softcores
//!   (`-O0`).
//!
//! # Examples
//!
//! A doubling operator, the "hello world" of streaming dataflow:
//!
//! ```
//! use kir::{Expr, KernelBuilder, Scalar, Stmt};
//!
//! let k = KernelBuilder::new("doubler")
//!     .input("in", Scalar::uint(32))
//!     .output("out", Scalar::uint(32))
//!     .local("x", Scalar::uint(32))
//!     .body([Stmt::for_loop(
//!         "i",
//!         0..16,
//!         [
//!             Stmt::read("x", "in"),
//!             Stmt::write("out", Expr::var("x").add(Expr::var("x"))),
//!         ],
//!     )])
//!     .build()
//!     .unwrap();
//!
//! let out = kir::interp::run_words(&k, &[("in", (0..16).collect())]).unwrap();
//! assert_eq!(out["out"], (0..16u32).map(|v| v * 2).collect::<Vec<_>>());
//! ```

#![allow(clippy::should_implement_trait)] // Expr builder methods mirror C operators

pub mod check;
pub mod expr;
pub mod hash;
pub mod interp;
pub mod kernel;
pub mod ops;
pub mod resolved;
pub mod stmt;
pub mod types;
pub mod wire;

pub use check::{resolve, validate, CheckError};
pub use expr::{BinOp, Expr, UnOp};
pub use kernel::{ArrayDecl, Kernel, KernelBuilder, PortDecl, VarDecl};
pub use resolved::{RExpr, RNode, RStmt, ResolvedKernel};
pub use stmt::Stmt;
pub use types::{Scalar, Value};
