#![warn(missing_docs)]
//! Macro-cell netlists: the RTL-level artifact between HLS and place & route.
//!
//! In the paper's tool flow, Vitis_HLS compiles each operator's C to Verilog
//! (`a.v`, `b.v` in Figs. 5–7), which Vivado then synthesizes, places and
//! routes. This crate is that intermediate level. A [`Netlist`] is a DAG of
//! [`Cell`]s — datapath macros (adders, multipliers, register banks, BRAM
//! ports, stream interfaces...) rather than individual gates — connected by
//! [`Net`]s. Working at macro granularity keeps whole-application netlists in
//! the thousands of cells, big enough for realistic place-and-route behaviour
//! (the paper's compile times are dominated by P&R, Tab. 2) while keeping the
//! full Table-2 sweep tractable.
//!
//! Each cell kind carries a calibrated resource weight ([`Resources`]: LUTs,
//! FFs, BRAM18s, DSPs — the four columns of the paper's Tab. 1/Tab. 4) and an
//! intrinsic delay used by static timing analysis in `pnr`.

pub mod cell;
pub mod graph;

pub use cell::{CellKind, Resources};
pub use graph::{Cell, CellId, Net, NetId, Netlist, NetlistError};
