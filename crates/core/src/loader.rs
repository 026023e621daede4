//! The loader: bringing a compiled application up on the card.
//!
//! Executes the generated [`Driver`](crate::artifact::Driver) against the
//! simulated card: partial bitstreams stream through the configuration port,
//! softcore images stream over the linking network into page memories, and
//! the final link step sends one configuration packet per stream through a
//! real [`noc::BftNoc`]. The report's timings are the "downtime" the paper
//! discusses in Sec. 7.3 — the window during which an edited page is being
//! reloaded.

use fabric::PageId;
use noc::BftNoc;

use crate::artifact::{LinkOp, LoadOp};
use crate::flow::CompiledApp;

/// Timing breakdown of one application bring-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadReport {
    /// Seconds loading the overlay (L1 bitstream).
    pub overlay_seconds: f64,
    /// Seconds loading page bitstreams (L2, via the configuration port).
    pub bitstream_seconds: f64,
    /// Seconds streaming softcore images over the linking network.
    pub softcore_seconds: f64,
    /// Linking-network cycles spent delivering configuration packets.
    pub link_cycles: u64,
    /// Configuration packets sent ("a few packets per page", Sec. 4.3).
    pub link_packets: usize,
    /// Total bytes moved.
    pub payload_bytes: u64,
}

impl LoadReport {
    /// Total bring-up seconds.
    pub fn total_seconds(&self) -> f64 {
        self.overlay_seconds
            + self.bitstream_seconds
            + self.softcore_seconds
            + crate::vtime::overlay_seconds(self.link_cycles)
    }

    /// The downtime for reloading just the given artifacts (an incremental
    /// edit): time to reload those pages plus a full re-link.
    pub fn incremental_seconds(&self, artifact_seconds: f64) -> f64 {
        artifact_seconds + crate::vtime::overlay_seconds(self.link_cycles)
    }
}

/// The subset of an app's load ops that (re)program the given pages — what
/// an incremental reload or a multi-tenant page swap must replay.
pub fn page_load_ops(app: &CompiledApp, pages: &[PageId]) -> Vec<LoadOp> {
    app.driver
        .loads
        .iter()
        .filter(|op| {
            let artifact = match op {
                LoadOp::Overlay => return false,
                LoadOp::PageBitstream { artifact } | LoadOp::SoftcoreImage { artifact } => {
                    *artifact
                }
            };
            app.artifacts[artifact]
                .page()
                .is_some_and(|p| pages.contains(&p))
        })
        .cloned()
        .collect()
}

/// Replays a subset of an app's load ops, reporting the artifact-side
/// transfer timing (link fields stay zero — the caller owns the link step,
/// which may run on a shared, already-linked network).
pub fn replay_loads(app: &CompiledApp, ops: &[LoadOp]) -> LoadReport {
    let mut report = LoadReport {
        overlay_seconds: 0.0,
        bitstream_seconds: 0.0,
        softcore_seconds: 0.0,
        link_cycles: 0,
        link_packets: 0,
        payload_bytes: 0,
    };
    for op in ops {
        match op {
            LoadOp::Overlay => {
                let x = &app.artifacts[0];
                report.overlay_seconds += x.load_seconds();
                report.payload_bytes += x.payload_bytes();
            }
            LoadOp::PageBitstream { artifact } => {
                let x = &app.artifacts[*artifact];
                report.bitstream_seconds += x.load_seconds();
                report.payload_bytes += x.payload_bytes();
            }
            LoadOp::SoftcoreImage { artifact } => {
                let x = &app.artifacts[*artifact];
                report.softcore_seconds += x.load_seconds();
                report.payload_bytes += x.payload_bytes();
            }
        }
    }
    report
}

/// The linking network of a card with `n_pages` pages: one leaf per page
/// plus the DMA-in and DMA-out endpoints.
pub fn link_network(n_pages: usize) -> BftNoc {
    BftNoc::new(n_pages + 2, 4, 64)
}

/// Programs a batch of routes by sending one in-band configuration packet
/// each from the `host` leaf, exactly as the generated driver does, and
/// returns the network cycles the batch took to apply.
pub fn send_links(net: &mut BftNoc, host: usize, links: &[LinkOp]) -> u64 {
    if links.is_empty() {
        return 0;
    }
    let c0 = net.cycle();
    for link in links {
        while net
            .send_config(host, link.src_leaf, link.stream, link.dest)
            .is_err()
        {
            net.step();
        }
    }
    net.drain(1_000_000);
    net.cycle() - c0
}

/// Simulates loading and linking a compiled application.
///
/// Bitstream/image transfer times come from artifact sizes; the link step
/// actually runs on a [`BftNoc`] instance so the packet count and cycle cost
/// are measured, not estimated.
pub fn load(app: &CompiledApp) -> LoadReport {
    let mut report = replay_loads(app, &app.driver.loads);
    report.link_packets = app.driver.links.len();

    // Linking: deliver the driver's configuration packets through the tree
    // from the DMA leaf, as the generated driver.c does.
    if !app.driver.links.is_empty() {
        let mut net = link_network(app.floorplan.pages.len());
        report.link_cycles = send_links(&mut net, app.dma_in_leaf() as usize, &app.driver.links);
        assert_eq!(
            net.stats().config_writes,
            app.driver.links.len() as u64,
            "every link packet must apply"
        );
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{compile, CompileOptions, OptLevel};
    use dfg::{GraphBuilder, Target};
    use kir::{Expr, KernelBuilder, Scalar, Stmt};

    fn app(level: OptLevel) -> CompiledApp {
        let k = |name: &str| {
            KernelBuilder::new(name)
                .input("in", Scalar::uint(32))
                .output("out", Scalar::uint(32))
                .local("x", Scalar::uint(32))
                .body([Stmt::for_pipelined(
                    "i",
                    0..32,
                    [Stmt::read("x", "in"), Stmt::write("out", Expr::var("x"))],
                )])
                .build()
                .unwrap()
        };
        let mut b = GraphBuilder::new("g");
        let a = b.add("a", k("a"), Target::hw_auto());
        let c = b.add("c", k("c"), Target::hw_auto());
        b.ext_input("Input_1", a, "in");
        b.connect("l", a, "out", c, "in");
        b.ext_output("Output_1", c, "out");
        compile(&b.build().unwrap(), &CompileOptions::new(level)).unwrap()
    }

    #[test]
    fn o1_load_is_pages_plus_link_packets() {
        let report = load(&app(OptLevel::O1));
        assert!(report.bitstream_seconds > 0.0);
        assert_eq!(report.softcore_seconds, 0.0);
        assert_eq!(report.link_packets, 3); // dma-in, a->c, dma-out
        assert!(report.link_cycles > 0);
        // Linking is microseconds-scale — packets, not recompiles.
        assert!(report.link_cycles < 1_000);
    }

    #[test]
    fn o0_load_streams_small_images() {
        let report = load(&app(OptLevel::O0));
        assert!(report.softcore_seconds > 0.0);
        assert_eq!(report.bitstream_seconds, 0.0);
        // Paper Sec. 5.2: operator footprints are tens of KB.
        assert!(report.payload_bytes < 64 * 1024 * 1024);
    }

    #[test]
    fn page_subset_replay_covers_only_those_pages() {
        let app = app(OptLevel::O1);
        let full = load(&app);
        let pages: Vec<_> = app.operators.iter().filter_map(|o| o.page).collect();
        let one = page_load_ops(&app, &pages[..1]);
        assert_eq!(one.len(), 1);
        let partial = replay_loads(&app, &one);
        assert!(partial.bitstream_seconds > 0.0);
        assert!(partial.bitstream_seconds < full.bitstream_seconds);
        assert_eq!(partial.overlay_seconds, 0.0);
        assert_eq!(partial.link_cycles, 0);
        // All pages replayed equals the full bitstream phase.
        let all = replay_loads(&app, &page_load_ops(&app, &pages));
        assert_eq!(all.bitstream_seconds, full.bitstream_seconds);
    }

    #[test]
    fn page_reload_downtime_beats_full_bringup() {
        let app = app(OptLevel::O1);
        let report = load(&app);
        let one_page = app.artifacts[1].load_seconds();
        assert!(report.incremental_seconds(one_page) < report.total_seconds());
    }
}
