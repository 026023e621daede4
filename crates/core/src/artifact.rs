//! Build artifacts: xclbin containers and the generated driver.
//!
//! The names mirror the paper's Figs. 5–7: page compiles produce per-operator
//! `xclbin` files, the overlay (linking network + shells + softcores) is its
//! own `overlay.xclbin`, the monolithic flow produces one `kernel.xclbin`,
//! and the pre-linker/loader emits a *driver* — the load-and-link program
//! (`driver.c`) the host executes to bring the application up.

use fabric::PageId;
use noc::PortAddr;
use pnr::Bitstream;
use softcore::PackedBinary;

/// What an xclbin contains.
#[derive(Debug, Clone, PartialEq)]
pub enum XclbinKind {
    /// The static overlay: linking network, shells, support logic (L1 DFX).
    Overlay,
    /// One operator's partial bitstream for one page (L2 DFX).
    #[allow(missing_docs)]
    Page { page: PageId, bitstream: Bitstream },
    /// A packed softcore binary destined for one page's processor.
    #[allow(missing_docs)]
    Softcore { page: PageId, binary: PackedBinary },
    /// A monolithic kernel bitstream for the whole user region.
    #[allow(missing_docs)]
    Kernel { bitstream: Bitstream },
}

/// A configuration container (our stand-in for the Xilinx xclbin format).
#[derive(Debug, Clone, PartialEq)]
pub struct Xclbin {
    /// Artifact name, e.g. `a.xclbin`, `overlay.xclbin`.
    pub name: String,
    /// Contents.
    pub kind: XclbinKind,
    /// Content hash for incremental builds.
    pub hash: u64,
}

impl Xclbin {
    /// The page this artifact programs, if any (overlay and monolithic
    /// kernel artifacts are not page-scoped).
    pub fn page(&self) -> Option<PageId> {
        match &self.kind {
            XclbinKind::Page { page, .. } | XclbinKind::Softcore { page, .. } => Some(*page),
            XclbinKind::Overlay | XclbinKind::Kernel { .. } => None,
        }
    }

    /// Bytes the loader must move for this artifact.
    pub fn payload_bytes(&self) -> u64 {
        match &self.kind {
            XclbinKind::Overlay => 8 * 1024 * 1024, // precompiled overlay image
            XclbinKind::Page { bitstream, .. } | XclbinKind::Kernel { bitstream } => {
                bitstream.config_bits / 8
            }
            XclbinKind::Softcore { binary, .. } => binary.payload_bytes(),
        }
    }

    /// Seconds to load this artifact through the configuration path.
    pub fn load_seconds(&self) -> f64 {
        match &self.kind {
            XclbinKind::Page { bitstream, .. } | XclbinKind::Kernel { bitstream } => {
                bitstream.load_seconds()
            }
            // Softcore images stream over the NoC at ~200 MHz × 32 b.
            XclbinKind::Softcore { binary, .. } => binary.payload_bytes() as f64 / 800e6,
            XclbinKind::Overlay => 8.0 * 1024.0 * 1024.0 / 400e6,
        }
    }
}

/// One load step in the generated driver.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadOp {
    /// Load the overlay (must be first).
    Overlay,
    /// Program a page with a partial bitstream artifact (by index into the
    /// compiled app's artifact list).
    #[allow(missing_docs)]
    PageBitstream { artifact: usize },
    /// Stream a softcore binary into a page's processor memory.
    #[allow(missing_docs)]
    SoftcoreImage { artifact: usize },
}

/// One linking-network configuration write: point `src` page's output
/// `stream` at a destination leaf/port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkOp {
    /// Source NoC leaf (page or DMA).
    pub src_leaf: u16,
    /// Output stream register index at the source leaf.
    pub stream: u8,
    /// Destination address.
    pub dest: PortAddr,
}

/// The generated load-and-link program (the paper's `driver.c`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Driver {
    /// Load steps, in order.
    pub loads: Vec<LoadOp>,
    /// Linking-network configuration writes ("a few packets per page").
    pub links: Vec<LinkOp>,
}

impl Driver {
    /// Number of configuration packets linking needs — the quantity the
    /// paper contrasts with recompilation (Sec. 4.3).
    pub fn link_packets(&self) -> usize {
        self.links.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlay_loads_are_constant_size() {
        let x = Xclbin {
            name: "overlay.xclbin".into(),
            kind: XclbinKind::Overlay,
            hash: 1,
        };
        assert!(x.payload_bytes() > 0);
        assert!(x.load_seconds() > 0.0);
    }

    #[test]
    fn driver_counts_link_packets() {
        let d = Driver {
            loads: vec![LoadOp::Overlay],
            links: vec![
                LinkOp {
                    src_leaf: 0,
                    stream: 0,
                    dest: PortAddr { leaf: 1, port: 0 },
                },
                LinkOp {
                    src_leaf: 1,
                    stream: 0,
                    dest: PortAddr { leaf: 2, port: 0 },
                },
            ],
        };
        assert_eq!(d.link_packets(), 2);
    }
}
