//! Property tests for warm-start incremental P&R: for arbitrary (fitting)
//! netlists and arbitrary edits, the warm path must be (a) byte-identical
//! at every worker count, (b) fully legal after delta rip-up — every cell
//! on a typed in-region tile, every route a unit-step path between its true
//! endpoints — and (c) bit-identical to a fresh cold run whenever the
//! quality guard trips or the hint is inconsistent. One fixed-seed test holds a warm result that passes
//! the guard to the quality of a cold run of the same netlist.

use fabric::{ColumnKind, Floorplan};
use netlist::{CellKind, Netlist};
use pnr::{extract_hints, place_and_route, place_and_route_incremental, PnrHints, PnrOptions};
use proptest::prelude::*;

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
        let driver = cells[*fan_gene as usize % cells.len()];
        nl.add_net(driver, vec![id], 32);
        cells.push(id);
    }
    nl
}

/// Applies a random edit: append `edit` cells, each fed from an existing
/// cell — the structural shape of a developer extending one operator.
fn edited_netlist(base: &Netlist, edit: &[(u8, u8)]) -> Netlist {
    let mut nl = base.clone();
    let n = nl.cells.len();
    for (i, (kind_gene, fan_gene)) in edit.iter().enumerate() {
        let kind = match kind_gene % 3 {
            0 => CellKind::Register { width: 32 },
            1 => CellKind::Logic { width: 8 },
            _ => CellKind::Adder { width: 16 },
        };
        let id = nl.add_cell(format!("e{i}"), kind);
        let driver = netlist::CellId(*fan_gene as usize % n);
        nl.add_net(driver, vec![id], 32);
    }
    nl
}

/// Asserts full placement + routing legality of a P&R result.
fn assert_legal(nl: &Netlist, fp: &Floorplan, region: fabric::Rect, result: &pnr::PnrResult) {
    for (i, &(x, y)) in result.placement.assignment.iter().enumerate() {
        assert!(region.contains(x, y), "cell {i} at ({x},{y}) escapes");
        let r = nl.cells[i].kind.resources();
        let want = if r.dsp > 0 {
            ColumnKind::Dsp
        } else if r.bram18 > 0 {
            ColumnKind::Bram
        } else {
            ColumnKind::Clb
        };
        assert_eq!(fp.device.columns[x as usize], want, "cell {i} column kind");
    }
    for (ni, net) in nl.nets.iter().enumerate() {
        for (si, sink) in net.sinks.iter().enumerate() {
            let path = &result.routed.routes[ni][si];
            assert_eq!(
                path.first().copied(),
                Some(result.placement.assignment[net.driver.0]),
                "net {ni} sink {si} does not start at its driver"
            );
            assert_eq!(
                path.last().copied(),
                Some(result.placement.assignment[sink.0]),
                "net {ni} sink {si} does not end at its sink"
            );
            for w in path.windows(2) {
                let d =
                    (w[1].0 as i64 - w[0].0 as i64).abs() + (w[1].1 as i64 - w[0].1 as i64).abs();
                assert_eq!(d, 1, "net {ni} sink {si} skips tiles");
            }
        }
    }
    assert_eq!(result.routed.overused_edges, 0, "residual congestion");
}

/// What HLS and the leaf interface make of a one-adder pipelined stream
/// operator (`out = in + k` over a counted loop): the page-sized netlist a
/// developer's small edit lands in.
fn page_operator(name: &str) -> Netlist {
    let mut nl = Netlist::new(name);
    let kinds = [
        ("in_in", CellKind::StreamIn { width: 32 }),
        ("out_out", CellKind::StreamOut { width: 32 }),
        ("reg_x", CellKind::Register { width: 32 }),
        ("fsm_i_1", CellKind::Fsm { states: 4 }),
        ("ctr_i_2", CellKind::Register { width: 32 }),
        ("inc_i_3", CellKind::Adder { width: 32 }),
        ("cmp_i_4", CellKind::Comparator { width: 32 }),
        ("const_5", CellKind::Const { width: 32 }),
        ("bin_6", CellKind::Adder { width: 32 }),
        ("pipe_7", CellKind::Register { width: 32 }),
        ("leaf_iface", CellKind::Logic { width: 800 }),
        (
            "leaf_fifo",
            CellKind::FifoBuf {
                width: 32,
                depth: 64,
            },
        ),
    ];
    let c: Vec<_> = kinds.into_iter().map(|(n, k)| nl.add_cell(n, k)).collect();
    for (driver, sinks, width) in [
        (4, vec![5, 6], 32),
        (5, vec![4], 32),
        (6, vec![3], 1),
        (0, vec![2], 32),
        (2, vec![8], 32),
        (7, vec![8], 32),
        (8, vec![9], 32),
        (9, vec![1], 32),
        (10, vec![11], 32),
        (11, vec![0], 32),
        (11, vec![1], 32),
    ] {
        nl.add_net(c[driver], sinks.into_iter().map(|s| c[s]).collect(), width);
    }
    nl
}

/// Warm-start quality parity on eight operator pages: after a 1-, 2- or
/// 4-cell edit, a warm run the guard accepts is within 5% of the wirelength
/// and fmax of a *cold* run of the same edited netlist — a stricter bar than
/// the guard's own, which only has the previous version's cold numbers.
#[test]
fn accepted_warm_runs_match_cold_quality_on_operator_pages() {
    let fp = Floorplan::u50();
    let opts = PnrOptions::default();
    let pages: Vec<(Netlist, fabric::Rect, PnrHints)> = (0..8)
        .map(|i| {
            let nl = page_operator(&format!("op{i}"));
            let region = fp.pages[i].rect;
            let cold = place_and_route(&nl, &fp.device, region, &opts).expect("base fits");
            let hints = extract_hints(&nl, region, &cold);
            (nl, region, hints)
        })
        .collect();
    for cells in [1usize, 2, 4] {
        let mut accepted = 0;
        for (base, region, hints) in &pages {
            let mut edited = base.clone();
            let n = edited.cells.len();
            for k in 0..cells {
                let id = edited.add_cell(format!("edit{k}"), CellKind::Register { width: 32 });
                edited.add_net(netlist::CellId((3 + 7 * k) % n), vec![id], 32);
            }
            let cold = place_and_route(&edited, &fp.device, *region, &opts).expect("fits");
            let (warm, report) =
                place_and_route_incremental(&edited, &fp.device, *region, &opts, hints, 4)
                    .expect("fits");
            if report.fell_back {
                continue;
            }
            accepted += 1;
            let wirelength = warm.routed.wirelength as f64 / cold.routed.wirelength.max(1) as f64;
            let fmax = warm.timing.fmax_mhz / cold.timing.fmax_mhz;
            assert!(
                wirelength <= 1.05 && fmax >= 0.95,
                "{} +{cells}: warm wirelength {wirelength:.3}x, fmax {fmax:.3}x of cold",
                base.name
            );
        }
        assert!(
            accepted > 0,
            "+{cells}: every warm run fell back, nothing compared"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (a) + (b): a warm rerun of an edited netlist is legal and its
    /// artifacts are byte-identical at every worker count.
    #[test]
    fn warm_rerun_is_legal_and_worker_count_invariant(
        genes in proptest::collection::vec((any::<u8>(), any::<u8>()), 4..40),
        edit in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..4),
        seed in any::<u64>(),
        page in 0usize..22,
    ) {
        let base = netlist_from_genes(&genes);
        prop_assume!(base.check().is_ok());
        let fp = Floorplan::u50();
        let region = fp.pages[page].rect;
        let opts = PnrOptions { seed, ..Default::default() };
        let Ok(cold) = place_and_route(&base, &fp.device, region, &opts) else {
            return Ok(()); // genuinely over-full pages may fail
        };
        let hints = extract_hints(&base, region, &cold);

        let edited = edited_netlist(&base, &edit);
        prop_assume!(edited.check().is_ok());
        let mut runs = Vec::new();
        for workers in [1usize, 2, 4] {
            let Ok((result, report)) = place_and_route_incremental(
                &edited, &fp.device, region, &opts, &hints, workers,
            ) else {
                return Ok(()); // the edit no longer fits: cold also fails
            };
            assert_legal(&edited, &fp, region, &result);
            runs.push((result, report));
        }
        let (first, first_report) = &runs[0];
        for (other, report) in &runs[1..] {
            prop_assert_eq!(report.fell_back, first_report.fell_back);
            prop_assert_eq!(&other.placement.assignment, &first.placement.assignment);
            prop_assert_eq!(&other.routed.routes, &first.routed.routes);
            prop_assert_eq!(other.bitstream.payload_hash, first.bitstream.payload_hash);
            prop_assert_eq!(other.work_units, first.work_units);
        }
    }

    /// (c): an impossible quality bar always trips the guard, and the
    /// fallback is bit-identical to a fresh cold run.
    #[test]
    fn tripped_guard_falls_back_to_bit_identical_cold(
        genes in proptest::collection::vec((any::<u8>(), any::<u8>()), 4..40),
        seed in any::<u64>(),
        page in 0usize..22,
    ) {
        let nl = netlist_from_genes(&genes);
        prop_assume!(nl.check().is_ok());
        let fp = Floorplan::u50();
        let region = fp.pages[page].rect;
        let opts = PnrOptions { seed, ..Default::default() };
        let Ok(cold) = place_and_route(&nl, &fp.device, region, &opts) else {
            return Ok(());
        };
        // A hint claiming zero wirelength and 1 GHz cold quality: no warm
        // run can match it, so the guard must discard the warm attempt.
        let poisoned = PnrHints {
            wirelength: 0,
            fmax_mhz: 1e9,
            ..extract_hints(&nl, region, &cold)
        };
        let (result, report) =
            place_and_route_incremental(&nl, &fp.device, region, &opts, &poisoned, 4).unwrap();
        prop_assert!(report.fell_back, "impossible bar must trip the guard");
        prop_assert_eq!(&result.placement.assignment, &cold.placement.assignment);
        prop_assert_eq!(&result.routed.routes, &cold.routed.routes);
        prop_assert_eq!(result.bitstream.payload_hash, cold.bitstream.payload_hash);
        prop_assert_eq!(result.work_units, cold.work_units);
    }

    /// A hint decoded from a damaged store may list more net identities
    /// than routes: it is inconsistent, so the run falls back to a cold run
    /// bit-identical to `place_and_route` instead of indexing past the end.
    #[test]
    fn hint_with_fewer_routes_than_nets_falls_back_cold(
        genes in proptest::collection::vec((any::<u8>(), any::<u8>()), 4..40),
        edit in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..3),
        keep in 0usize..4,
        seed in any::<u64>(),
        page in 0usize..22,
    ) {
        let base = netlist_from_genes(&genes);
        prop_assume!(base.check().is_ok());
        let fp = Floorplan::u50();
        let region = fp.pages[page].rect;
        let opts = PnrOptions { seed, ..Default::default() };
        let Ok(prior) = place_and_route(&base, &fp.device, region, &opts) else {
            return Ok(());
        };
        let mut torn = extract_hints(&base, region, &prior);
        torn.routes.truncate(keep.min(torn.net_ids.len() - 1));
        let edited = edited_netlist(&base, &edit);
        prop_assume!(edited.check().is_ok());
        let Ok(cold) = place_and_route(&edited, &fp.device, region, &opts) else {
            return Ok(());
        };
        let (result, report) =
            place_and_route_incremental(&edited, &fp.device, region, &opts, &torn, 2).unwrap();
        prop_assert!(report.fell_back, "an inconsistent hint must fall back");
        prop_assert_eq!(&result.placement.assignment, &cold.placement.assignment);
        prop_assert_eq!(&result.routed.routes, &cold.routed.routes);
        prop_assert_eq!(result.bitstream.payload_hash, cold.bitstream.payload_hash);
        prop_assert_eq!(result.work_units, cold.work_units);
    }
}
