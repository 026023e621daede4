//! The runtime's view of the card: which tenant owns each page, and the
//! persistent linking network whose destination registers are the ground
//! truth for every route on the fabric.

use std::collections::HashSet;

use fabric::{Floorplan, PageId};
use noc::BftNoc;
use pld::execute::OVERLAY_MHZ;
use pld::{LinkOp, Xclbin, XclbinKind};

use crate::FleetAppId;

/// Occupancy record for one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageBinding {
    /// The resident application owning the page.
    pub app: FleetAppId,
    /// Operator index within that application.
    pub operator: usize,
}

/// Device state owned by the runtime: the floorplan, per-page occupancy,
/// and one [`BftNoc`] that persists across admissions — unlike the
/// single-app loader, which brings up a fresh network per load, the
/// runtime's network carries every resident app's routes at once.
#[derive(Debug)]
pub struct DeviceState {
    /// The overlay's page decomposition.
    pub floorplan: Floorplan,
    bindings: Vec<Option<PageBinding>>,
    noc: BftNoc,
    /// Content hashes of every artifact ever transferred to this card —
    /// the device-local bitstream cache the fleet's placement consults
    /// (an artifact already on the card is a warm re-admission there).
    loaded_artifacts: HashSet<u64>,
    /// Seconds spent bringing up the static overlay (paid once).
    pub overlay_seconds: f64,
}

impl DeviceState {
    /// Brings up the overlay on an empty card: loads the static L1 image
    /// and starts the linking network with one leaf per page plus the two
    /// DMA endpoints.
    pub fn new(floorplan: Floorplan) -> DeviceState {
        let n_pages = floorplan.pages.len();
        let overlay = Xclbin {
            name: "overlay.xclbin".into(),
            kind: XclbinKind::Overlay,
            hash: 0,
        };
        DeviceState {
            bindings: vec![None; n_pages],
            noc: BftNoc::new(n_pages + 2, 4, 64),
            loaded_artifacts: HashSet::new(),
            overlay_seconds: overlay.load_seconds(),
            floorplan,
        }
    }

    /// The NoC leaf of the DMA input engine (shared by every tenant).
    pub fn dma_in_leaf(&self) -> u16 {
        self.floorplan.pages.len() as u16
    }

    /// The NoC leaf of the DMA output engine.
    pub fn dma_out_leaf(&self) -> u16 {
        self.floorplan.pages.len() as u16 + 1
    }

    /// Occupancy of one page.
    pub fn binding(&self, page: PageId) -> Option<PageBinding> {
        self.bindings.get(page.0 as usize).copied().flatten()
    }

    /// Free/occupied map in page order.
    pub fn free_map(&self) -> Vec<bool> {
        self.bindings.iter().map(Option::is_none).collect()
    }

    /// Number of occupied pages.
    pub fn occupied(&self) -> usize {
        self.bindings.iter().filter(|b| b.is_some()).count()
    }

    /// Marks a page as owned.
    pub fn bind(&mut self, page: PageId, binding: PageBinding) {
        debug_assert!(
            self.bindings[page.0 as usize].is_none(),
            "double-binding {page}"
        );
        self.bindings[page.0 as usize] = Some(binding);
    }

    /// Releases a page and lifts its NoC injection budget, so the next
    /// tenant bound there does not inherit the last one's throttle.
    pub fn release(&mut self, page: PageId) {
        self.bindings[page.0 as usize] = None;
        self.set_page_inject_budget(page, None);
    }

    /// Programs a batch of routes by sending one in-band configuration
    /// packet each from the DMA-in leaf, exactly as the generated driver
    /// does, and returns the measured network cycles the batch took — the
    /// link half of the swap's downtime bill.
    pub fn link(&mut self, links: &[LinkOp]) -> u64 {
        if links.is_empty() {
            return 0;
        }
        let host = self.dma_in_leaf() as usize;
        let c0 = self.noc.cycle();
        for link in links {
            while self
                .noc
                .send_config(host, link.src_leaf, link.stream, link.dest)
                .is_err()
            {
                self.noc.step();
            }
        }
        self.noc.drain(1_000_000);
        self.noc.cycle() - c0
    }

    /// Tears down a batch of routes (departing or swapped tenant), leaving
    /// every other destination register on the fabric untouched.
    pub fn unlink(&mut self, links: &[LinkOp]) {
        for link in links {
            self.noc
                .clear_dest(link.src_leaf as usize, link.stream as usize);
        }
    }

    /// Whether a route is currently programmed at its source leaf.
    pub fn route_programmed(&self, link: &LinkOp) -> bool {
        self.noc
            .leaf(link.src_leaf as usize)
            .dest(link.stream as usize)
            == Some(link.dest)
    }

    /// Configuration packets delivered since bring-up.
    pub fn config_writes(&self) -> u64 {
        self.noc.stats().config_writes
    }

    /// Converts measured link cycles to seconds at the overlay clock.
    pub fn link_seconds(cycles: u64) -> f64 {
        cycles as f64 / (OVERLAY_MHZ * 1e6)
    }

    /// Records that an artifact with this content hash was transferred to
    /// the card (it is now in the device-local bitstream cache).
    pub fn note_loaded(&mut self, hash: u64) {
        self.loaded_artifacts.insert(hash);
    }

    /// Whether the device-local bitstream cache holds this artifact hash.
    pub fn holds_artifact(&self, hash: u64) -> bool {
        self.loaded_artifacts.contains(&hash)
    }

    /// How many of the given artifact hashes are already cached on this
    /// card — the fleet placement's cache-affinity score.
    pub fn cached_artifacts(&self, hashes: &[u64]) -> usize {
        hashes
            .iter()
            .filter(|h| self.loaded_artifacts.contains(h))
            .count()
    }

    /// Sets (or with `None` lifts) the data-injection credit budget of one
    /// page's NoC leaf — the per-tenant QoS throttle, forwarded to
    /// [`BftNoc::set_inject_budget`].
    pub fn set_page_inject_budget(&mut self, page: PageId, budget: Option<u32>) {
        self.noc.set_inject_budget(page.0 as usize, budget);
    }

    /// Remaining injection credits at one page's leaf (`None` =
    /// unthrottled).
    pub fn page_inject_budget(&self, page: PageId) -> Option<u32> {
        self.noc.inject_budget(page.0 as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc::PortAddr;

    #[test]
    fn link_then_unlink_roundtrip() {
        let mut dev = DeviceState::new(Floorplan::u50());
        assert!(dev.overlay_seconds > 0.0);
        let route = LinkOp {
            src_leaf: 3,
            stream: 0,
            dest: PortAddr { leaf: 9, port: 1 },
        };
        let cycles = dev.link(&[route]);
        assert!(cycles > 0, "config packets take network time");
        assert!(dev.route_programmed(&route));
        assert_eq!(dev.config_writes(), 1);
        dev.unlink(&[route]);
        assert!(!dev.route_programmed(&route));
    }

    #[test]
    fn bindings_track_occupancy() {
        let mut dev = DeviceState::new(Floorplan::u50());
        assert_eq!(dev.occupied(), 0);
        dev.bind(
            PageId(4),
            PageBinding {
                app: FleetAppId(1),
                operator: 0,
            },
        );
        assert_eq!(dev.occupied(), 1);
        assert_eq!(
            dev.binding(PageId(4)),
            Some(PageBinding {
                app: FleetAppId(1),
                operator: 0
            })
        );
        assert!(!dev.free_map()[4]);
        dev.release(PageId(4));
        assert_eq!(dev.occupied(), 0);
    }
}
