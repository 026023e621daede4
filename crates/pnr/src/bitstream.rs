//! Configuration bitstreams for full and partial reconfiguration.
//!
//! Partial reconfiguration's payoff (paper Sec. 2.3) is that "the size of the
//! bitstream, and hence time to load the bitstream, is proportional to the
//! amount of FPGA logic being reconfigured": a full device bitstream runs to
//! hundreds of megabytes while a page bitstream is orders of magnitude
//! smaller. [`Bitstream::generate`] serializes a placed-and-routed region
//! into a frame-per-tile artifact with exactly that proportionality, plus a
//! content hash used by the incremental build system.

use fabric::Rect;
use netlist::Netlist;

use crate::place::Placement;
use crate::route::RoutedDesign;

/// Configuration bits per fabric tile (one configuration frame).
pub const BITS_PER_TILE: u64 = 48 * 1024;

/// A configuration artifact for one rectangular region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitstream {
    /// Design name.
    pub design: String,
    /// The region this bitstream (re)configures.
    pub region: Rect,
    /// Size of the configuration payload in bits.
    pub config_bits: u64,
    /// Content hash over placement and routing (incremental-build identity).
    pub payload_hash: u64,
}

impl Bitstream {
    /// Serializes a placed-and-routed design into its configuration frames.
    pub fn generate(
        netlist: &Netlist,
        region: Rect,
        placement: &Placement,
        routed: &RoutedDesign,
        seed: u64,
    ) -> Bitstream {
        let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ seed;
        let mut mix = |v: u64| {
            hash ^= v;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        };
        for (i, &(x, y)) in placement.assignment.iter().enumerate() {
            mix(i as u64);
            mix(((x as u64) << 32) | y as u64);
        }
        for sink_paths in &routed.routes {
            for path in sink_paths {
                for &(x, y) in path {
                    mix(((x as u64) << 32) | y as u64);
                }
            }
        }
        Bitstream {
            design: netlist.name.clone(),
            region,
            config_bits: region.area() as u64 * BITS_PER_TILE,
            payload_hash: hash,
        }
    }

    /// Time to load this bitstream over a configuration port, in seconds.
    ///
    /// The ICAP-class port moves ~400 MiB/s; loading time is proportional to
    /// payload size, the property that makes partial bitstreams fast to
    /// load.
    pub fn load_seconds(&self) -> f64 {
        const PORT_BYTES_PER_SEC: f64 = 400.0 * 1024.0 * 1024.0;
        (self.config_bits as f64 / 8.0) / PORT_BYTES_PER_SEC
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::Placement;
    use crate::route::RoutedDesign;
    use netlist::{CellKind, Netlist};

    fn artifacts() -> (Netlist, Placement, RoutedDesign) {
        let mut nl = Netlist::new("d");
        let a = nl.add_cell("a", CellKind::Adder { width: 8 });
        let b = nl.add_cell("b", CellKind::Register { width: 8 });
        nl.add_net(a, vec![b], 8);
        let placement = Placement {
            assignment: vec![(2, 0), (3, 0)],
            cost: 1.0,
            moves_evaluated: 10,
        };
        let routed = RoutedDesign {
            routes: vec![vec![vec![(2, 0), (3, 0)]]],
            overused_edges: 0,
            iterations: 1,
            edges_relaxed: 4,
            wirelength: 1,
            nets_rerouted: 1,
            history: Vec::new(),
        };
        (nl, placement, routed)
    }

    #[test]
    fn partial_is_much_smaller_than_full() {
        let (nl, placement, routed) = artifacts();
        let fp = fabric::Floorplan::u50();
        let page = Bitstream::generate(&nl, fp.pages[0].rect, &placement, &routed, 1);
        let full = Bitstream::generate(
            &nl,
            Rect::new(0, 0, fp.device.width, fp.device.height),
            &placement,
            &routed,
            1,
        );
        assert!(full.config_bits > page.config_bits * 30);
        assert!(full.load_seconds() > page.load_seconds() * 30.0);
    }

    #[test]
    fn hash_tracks_content() {
        let (nl, placement, routed) = artifacts();
        let region = Rect::new(2, 0, 11, 10);
        let a = Bitstream::generate(&nl, region, &placement, &routed, 1);
        let b = Bitstream::generate(&nl, region, &placement, &routed, 1);
        assert_eq!(a, b);
        let mut moved = placement.clone();
        moved.assignment[0] = (4, 2);
        let c = Bitstream::generate(&nl, region, &moved, &routed, 1);
        assert_ne!(a.payload_hash, c.payload_hash);
    }

    #[test]
    fn size_proportional_to_area() {
        let (nl, placement, routed) = artifacts();
        let small = Bitstream::generate(&nl, Rect::new(2, 0, 5, 10), &placement, &routed, 1);
        let big = Bitstream::generate(&nl, Rect::new(2, 0, 10, 10), &placement, &routed, 1);
        assert_eq!(big.config_bits, small.config_bits * 2);
    }
}
