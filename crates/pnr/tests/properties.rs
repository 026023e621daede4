//! Property tests: place-and-route must produce legal results for arbitrary
//! (fitting) netlists — every cell on a correctly-typed in-region tile with
//! capacities respected, every net routed between its true endpoints.

use fabric::{ColumnKind, Floorplan};
use netlist::{CellKind, Netlist};
use pnr::{place_and_route, PnrOptions};
use proptest::prelude::*;
use std::collections::HashMap;

/// Builds a random connected netlist from a compact gene vector.
fn netlist_from_genes(genes: &[(u8, u8)]) -> Netlist {
    let mut nl = Netlist::new("gen");
    let first = nl.add_cell("in", CellKind::StreamIn { width: 32 });
    let mut cells = vec![first];
    for (i, (kind_gene, fan_gene)) in genes.iter().enumerate() {
        let kind = match kind_gene % 7 {
            0 => CellKind::Adder {
                width: 16 + (*kind_gene as u32 % 3) * 16,
            },
            1 => CellKind::Mult { width: 18 },
            2 => CellKind::Register { width: 32 },
            3 => CellKind::Logic { width: 8 },
            4 => CellKind::Mux { width: 32 },
            5 => CellKind::BramPort { bits: 4096 },
            _ => CellKind::Comparator { width: 24 },
        };
        let id = nl.add_cell(format!("c{i}"), kind);
        // Driver: some earlier cell; sequential cells break comb cycles.
        let driver = cells[*fan_gene as usize % cells.len()];
        nl.add_net(driver, vec![id], 32);
        cells.push(id);
    }
    nl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn placement_is_always_legal(
        genes in proptest::collection::vec((any::<u8>(), any::<u8>()), 3..60),
        seed in any::<u64>(),
        page in 0usize..22,
    ) {
        let nl = netlist_from_genes(&genes);
        prop_assume!(nl.check().is_ok());
        let fp = Floorplan::u50();
        let region = fp.pages[page].rect;
        let opts = PnrOptions { seed, ..Default::default() };
        let Ok(result) = place_and_route(&nl, &fp.device, region, &opts) else {
            // Netlists that genuinely exceed the page are allowed to fail.
            return Ok(());
        };

        // 1. Every cell sits on an in-region tile of its required kind.
        for (i, &(x, y)) in result.placement.assignment.iter().enumerate() {
            prop_assert!(region.contains(x, y), "cell {i} at ({x},{y}) escapes the page");
            let r = nl.cells[i].kind.resources();
            let want = if r.dsp > 0 {
                ColumnKind::Dsp
            } else if r.bram18 > 0 {
                ColumnKind::Bram
            } else {
                ColumnKind::Clb
            };
            prop_assert_eq!(fp.device.columns[x as usize], want, "cell {}", i);
        }

        // 2. Tile capacities hold for single-tile cells (multi-tile macros
        //    spread beyond their anchor and are accounted at allocation).
        let mut used: HashMap<(u32, u32), u64> = HashMap::new();
        for (i, &(x, y)) in result.placement.assignment.iter().enumerate() {
            let r = nl.cells[i].kind.resources();
            let demand = if r.dsp > 0 {
                r.dsp
            } else if r.bram18 > 0 {
                r.bram18
            } else {
                r.luts.max(r.ffs / 2).max(1)
            };
            let cap = match fp.device.columns[x as usize] {
                ColumnKind::Clb => fp.device.columns[x as usize].tile_resources().luts,
                ColumnKind::Bram => fp.device.columns[x as usize].tile_resources().bram18,
                ColumnKind::Dsp => fp.device.columns[x as usize].tile_resources().dsp,
            };
            if demand <= cap {
                *used.entry((x, y)).or_default() += demand;
            }
        }
        for ((x, _y), total) in used {
            let cap = match fp.device.columns[x as usize] {
                ColumnKind::Clb => fp.device.columns[x as usize].tile_resources().luts,
                ColumnKind::Bram => fp.device.columns[x as usize].tile_resources().bram18,
                ColumnKind::Dsp => fp.device.columns[x as usize].tile_resources().dsp,
            };
            prop_assert!(total <= cap, "tile overloaded: {total} > {cap}");
        }

        // 3. Every route starts at its driver and ends at its sink, moving
        //    one tile per hop.
        for (ni, net) in nl.nets.iter().enumerate() {
            for (si, sink) in net.sinks.iter().enumerate() {
                let path = &result.routed.routes[ni][si];
                prop_assert_eq!(
                    path.first().copied(),
                    Some(result.placement.assignment[net.driver.0])
                );
                prop_assert_eq!(path.last().copied(), Some(result.placement.assignment[sink.0]));
                for w in path.windows(2) {
                    let d = (w[1].0 as i64 - w[0].0 as i64).abs()
                        + (w[1].1 as i64 - w[0].1 as i64).abs();
                    prop_assert_eq!(d, 1);
                }
            }
        }

        // 4. Timing is sane and deterministic.
        prop_assert!(result.timing.fmax_mhz.is_finite());
        prop_assert!(result.timing.fmax_mhz > 0.0);
        let again = place_and_route(&nl, &fp.device, region, &opts).expect("still fits");
        prop_assert_eq!(again.bitstream.payload_hash, result.bitstream.payload_hash);
    }
}
