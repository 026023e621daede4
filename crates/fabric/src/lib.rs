#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]
//! FPGA device and page model (paper Sec. 4, Tab. 1, Fig. 8).
//!
//! Models a data-center FPGA as a grid of heterogeneous resource tiles —
//! CLB columns interrupted by BRAM and DSP columns at irregular intervals,
//! exactly the irregularity the paper blames for pages being "a
//! heterogeneous mix of resources" (Sec. 4.1). On top of the [`Device`] grid
//! sits a [`Floorplan`]: the static-shell region, the linking-network strip
//! (the L1 DFX region), infrastructure blocks (DMA, HBM driver,
//! debug/profile, configuration), and the 22 user pages (L2 DFX regions) of
//! the paper's Alveo U50 decomposition.
//!
//! The [`efficiency`] module implements the paper's Eq. 1 page-sizing model,
//! used to justify the ~18k-LUT page choice.
//!
//! # Examples
//!
//! ```
//! use fabric::Floorplan;
//!
//! let fp = Floorplan::u50();
//! assert_eq!(fp.pages.len(), 22);
//! let total = fp.device.user_resources();
//! assert!(total.luts > 700_000); // XCU50-class fabric
//! ```

pub mod device;
pub mod efficiency;
pub mod floorplan;

pub use device::{ColumnKind, Device, Rect};
pub use efficiency::{page_efficiency, EfficiencyParams};
pub use floorplan::{Floorplan, FloorplanError, Page, PageId};
