//! The runtime's view of the card: which tenant owns each page, and the
//! persistent linking network whose destination registers are the ground
//! truth for every route on the fabric.

use std::collections::HashSet;

use fabric::{Floorplan, PageId};
use noc::BftNoc;
use pld::loader::{link_network, send_links};
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
            noc: link_network(n_pages),
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

    /// Releases a page.
    pub fn release(&mut self, page: PageId) {
        self.bindings[page.0 as usize] = None;
    }

    /// Programs a batch of routes by sending one in-band configuration
    /// packet each from the DMA-in leaf, exactly as the generated driver
    /// does, and returns the measured network cycles the batch took — the
    /// link half of the swap's downtime bill.
    pub fn link(&mut self, links: &[LinkOp]) -> u64 {
        let host = self.dma_in_leaf() as usize;
        send_links(&mut self.noc, host, links)
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

    /// Records that an artifact with this content hash was transferred to
    /// the card (it is now in the device-local bitstream cache).
    pub fn note_loaded(&mut self, hash: u64) {
        self.loaded_artifacts.insert(hash);
    }

    /// How many of the given artifact hashes are already cached on this
    /// card — the fleet placement's cache-affinity score.
    pub fn cached_artifacts(&self, hashes: &[u64]) -> usize {
        hashes
            .iter()
            .filter(|h| self.loaded_artifacts.contains(h))
            .count()
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

    /// A linear pipeline of `n` operators, each adding `addend`.
    fn pipeline(name: &str, n: usize, addend: i64) -> dfg::Graph {
        use kir::{Expr, KernelBuilder, Scalar, Stmt};
        let mut b = dfg::GraphBuilder::new(name);
        let mut prev = None;
        for i in 0..n {
            let kernel = KernelBuilder::new(format!("s{i}"))
                .input("in", Scalar::uint(32))
                .output("out", Scalar::uint(32))
                .local("x", Scalar::uint(32))
                .body([Stmt::for_pipelined(
                    "i",
                    0..8,
                    [
                        Stmt::read("x", "in"),
                        Stmt::write("out", Expr::var("x").add(Expr::cint(addend))),
                    ],
                )])
                .build()
                .unwrap();
            let id = b.add(format!("s{i}"), kernel, dfg::Target::riscv_auto());
            match prev {
                None => b.ext_input("Input_1", id, "in"),
                Some(p) => {
                    b.connect(format!("l{i}"), p, "out", id, "in");
                }
            }
            prev = Some(id);
        }
        b.ext_output("Output_1", prev.unwrap(), "out");
        b.build().unwrap()
    }

    /// Requests run on the interpreter code compiled at admission, so a
    /// device's linking network carries configuration packets only. If
    /// request data ever travels the network, this fails — and a data
    /// throttle on that network can then be tested for what it throttles.
    #[test]
    fn serving_sends_no_data_flit_through_a_device_network() {
        use crate::{DeviceId, Fleet, TenantId};
        use pld::{BuildCache, CompileOptions, OptLevel};

        let opts = CompileOptions::new(OptLevel::O0);
        let mut cache = BuildCache::new();
        let graph = pipeline("edited", 3, 2);
        let mut fleet = Fleet::new(2, &Floorplan::u50());
        let t = TenantId(0);
        let a = fleet
            .submit(t, "edited", cache.compile(&graph, &opts).unwrap())
            .unwrap();
        let b = fleet
            .submit(
                t,
                "moved",
                cache.compile(&pipeline("moved", 2, 5), &opts).unwrap(),
            )
            .unwrap();
        fleet.pump();
        let input = [("Input_1", vec![kir::Scalar::uint(32).zero(); 8])];
        for id in [a, b] {
            fleet.run(id, &input).unwrap();
        }

        // Hot-swap a: re-pin its tail operator to a page it does not use.
        let homes: Vec<u32> = cache
            .compile(&graph, &opts)
            .unwrap()
            .operators
            .iter()
            .filter_map(|o| o.page.map(|p| p.0))
            .collect();
        let mut edited = graph.clone();
        edited.operators[2].target =
            dfg::Target::riscv((0..22u32).rev().find(|p| !homes.contains(p)).unwrap());
        let (dev_a, _) = fleet.locate(a).unwrap();
        let report = fleet
            .runtime_mut(dev_a)
            .unwrap()
            .hot_swap(a, &edited, &mut cache, &opts)
            .unwrap();
        assert_eq!(report.swapped_pages.len(), 1);
        fleet.run(a, &input).unwrap();

        // Migrate b to the other card, serve it there, then retire a.
        let (dev_b, _) = fleet.locate(b).unwrap();
        let to = DeviceId(1 - dev_b.0);
        fleet.migrate(b, to).unwrap();
        assert_eq!(fleet.locate(b).unwrap().0, to);
        fleet.run(b, &input).unwrap();
        fleet.retire(a).unwrap();

        let mut config_writes = 0;
        for d in 0..2 {
            let noc = fleet.device(DeviceId(d)).unwrap().device().noc.stats();
            assert_eq!(noc.injected, 0, "dev{d} carried request data");
            assert_eq!(noc.delivered, 0, "dev{d} delivered request data");
            config_writes += noc.config_writes;
        }
        assert!(config_writes > 0, "the networks linked the apps' pages");
    }
}
