//! Golden fingerprints of cold and warm place-and-route runs.
//!
//! Every Tab. 2 row is priced in the placer's and router's work counters,
//! and every artifact hash downstream depends on the exact move sequence and
//! rip-up order. This table pins both: each row is one run's fingerprint
//! (`moves_evaluated`, `edges_relaxed`, `nets_rerouted`, `iterations`,
//! `wirelength`, fmax bits, `payload_hash`, `fell_back`), recorded once and
//! compared bit for bit. A change to the annealer or the router that moves
//! any of them re-prices the paper's tables and must update this table on
//! purpose.
//!
//! The cases cover generated netlists on eight pages (cold, then warm after
//! a small edit), a congested cold run that needs several negotiation
//! iterations, a cold run with a pinned multi-tile macro, a warm run whose
//! first round reroutes enough nets to take the frozen-congestion (Jacobi)
//! path, and a warm run whose quality guard falls back to a cold run.

use fabric::Floorplan;
use netlist::{CellId, CellKind, Netlist};
use pnr::{extract_hints, place_and_route, place_and_route_incremental, PnrOptions, PnrResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One run's observable outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    moves_evaluated: u64,
    edges_relaxed: u64,
    nets_rerouted: u64,
    iterations: u32,
    wirelength: u64,
    fmax_bits: u64,
    payload_hash: u64,
    fell_back: bool,
}

fn fingerprint(r: &PnrResult, fell_back: bool) -> Fingerprint {
    Fingerprint {
        moves_evaluated: r.placement.moves_evaluated,
        edges_relaxed: r.routed.edges_relaxed,
        nets_rerouted: r.routed.nets_rerouted,
        iterations: r.routed.iterations,
        wirelength: r.routed.wirelength,
        fmax_bits: r.timing.fmax_mhz.to_bits(),
        payload_hash: r.bitstream.payload_hash,
        fell_back,
    }
}

/// A random connected netlist of `n` cells with mixed kinds and fanout.
fn generated(seed: u64, n: usize) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nl = Netlist::new(format!("gen{seed}"));
    let mut cells = vec![nl.add_cell("in", CellKind::StreamIn { width: 32 })];
    for i in 0..n {
        let kind = match rng.gen_range(0..6u32) {
            0 => CellKind::Adder { width: 32 },
            1 => CellKind::Mult { width: 18 },
            2 => CellKind::Register { width: 32 },
            3 => CellKind::BramPort { bits: 4096 },
            4 => CellKind::Mux { width: 16 },
            _ => CellKind::Logic { width: 16 },
        };
        let id = nl.add_cell(format!("c{i}"), kind);
        let driver = cells[rng.gen_range(0..cells.len())];
        let mut sinks = vec![id];
        if rng.gen_range(0..3u32) == 0 {
            let tap = nl.add_cell(format!("t{i}"), CellKind::Register { width: 32 });
            sinks.push(tap);
            cells.push(tap);
        }
        nl.add_net(driver, sinks, 1 << rng.gen_range(0..7u32));
        cells.push(id);
    }
    nl
}

/// Appends `k` registers, each fed from an existing cell.
fn edited(base: &Netlist, k: usize) -> Netlist {
    let mut nl = base.clone();
    let n = nl.cells.len();
    for i in 0..k {
        let id = nl.add_cell(format!("edit{i}"), CellKind::Register { width: 32 });
        nl.add_net(CellId((5 + 7 * i) % n), vec![id], 32);
    }
    nl
}

/// Sixteen tile-sized registers joined by 32 random 192-bit nets: each
/// channel edge carries two such nets, so a first-come routing overuses
/// edges and negotiation needs several rounds.
fn congested(seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nl = Netlist::new("congested");
    let cells: Vec<_> = (0..16)
        .map(|i| nl.add_cell(format!("r{i}"), CellKind::Register { width: 400 }))
        .collect();
    for _ in 0..32 {
        let a = cells[rng.gen_range(0..16usize)];
        let b = cells[rng.gen_range(0..16usize)];
        if a != b {
            nl.add_net(a, vec![b], 192);
        }
    }
    nl
}

/// An operator page with an 800-bit leaf interface: a macro wider than one
/// CLB tile, which the placer spreads over several sites and pins.
fn with_macro() -> Netlist {
    let mut nl = Netlist::new("leaf");
    let iface = nl.add_cell("leaf_iface", CellKind::Logic { width: 800 });
    let mut prev = nl.add_cell("in", CellKind::StreamIn { width: 32 });
    nl.add_net(iface, vec![prev], 32);
    for i in 0..12 {
        let c = nl.add_cell(format!("c{i}"), CellKind::Adder { width: 32 });
        nl.add_net(prev, vec![c], 32);
        prev = c;
    }
    let out = nl.add_cell("out", CellKind::StreamOut { width: 32 });
    nl.add_net(prev, vec![out], 32);
    nl
}

/// A hub driving twelve sinks on separate nets; the edit changes the hub's
/// kind, so its identity and every net it drives must be rerouted at once.
fn fanout(hub_kind: CellKind) -> Netlist {
    let mut nl = Netlist::new("fan");
    let hub = nl.add_cell("hub", hub_kind);
    for i in 0..12 {
        let s = nl.add_cell(format!("s{i}"), CellKind::Register { width: 400 });
        nl.add_net(hub, vec![s], 32);
    }
    nl
}

fn runs() -> Vec<(String, Fingerprint)> {
    let fp = Floorplan::u50();
    let mut out = Vec::new();
    let mut cold_warm = |name: &str, base: &Netlist, next: &Netlist, page: usize, seed: u64| {
        let region = fp.pages[page].rect;
        let opts = PnrOptions {
            seed,
            ..Default::default()
        };
        let cold = place_and_route(base, &fp.device, region, &opts).expect("base fits");
        out.push((format!("{name}/cold"), fingerprint(&cold, false)));
        let hints = extract_hints(base, region, &cold);
        for workers in [1, 4] {
            let (warm, report) =
                place_and_route_incremental(next, &fp.device, region, &opts, &hints, workers)
                    .expect("edit fits");
            out.push((
                format!("{name}/warm{workers}"),
                fingerprint(&warm, report.fell_back),
            ));
        }
    };
    for i in 0..8u64 {
        let base = generated(i, 10 + 6 * i as usize);
        let next = edited(&base, 1 + i as usize % 3);
        cold_warm(&format!("gen{i}"), &base, &next, 3 * i as usize, i * 13 + 1);
    }
    let dense = congested(0);
    cold_warm("congested", &dense, &edited(&dense, 2), 0, 1);
    let leaf = with_macro();
    cold_warm("macro", &leaf, &edited(&leaf, 2), 2, 5);
    cold_warm(
        "jacobi",
        &fanout(CellKind::Adder { width: 32 }),
        &fanout(CellKind::Adder { width: 16 }),
        1,
        3,
    );

    // A poisoned hint: no warm run can meet zero wirelength at 1 GHz.
    let region = fp.pages[4].rect;
    let opts = PnrOptions::default();
    let base = generated(99, 20);
    let cold = place_and_route(&base, &fp.device, region, &opts).unwrap();
    let mut hints = extract_hints(&base, region, &cold);
    hints.wirelength = 0;
    hints.fmax_mhz = 1e9;
    let (fallen, report) =
        place_and_route_incremental(&base, &fp.device, region, &opts, &hints, 2).unwrap();
    out.push(("fallback".into(), fingerprint(&fallen, report.fell_back)));

    // Six more wide nets on the congested page, under a hint lenient
    // enough that the guard keeps the warm result: the warm router must
    // renegotiate over several rounds from the seeded history.
    let region = fp.pages[0].rect;
    let cold = place_and_route(&dense, &fp.device, region, &opts).unwrap();
    let mut hints = extract_hints(&dense, region, &cold);
    hints.wirelength = 1 << 20;
    hints.fmax_mhz = 0.0;
    let mut rewired = dense.clone();
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..6 {
        let (a, b) = (rng.gen_range(0..16usize), rng.gen_range(0..16usize));
        if a != b {
            rewired.add_net(CellId(a), vec![CellId(b)], 192);
        }
    }
    for workers in [1, 4] {
        let (warm, report) =
            place_and_route_incremental(&rewired, &fp.device, region, &opts, &hints, workers)
                .unwrap();
        out.push((
            format!("renegotiated/warm{workers}"),
            fingerprint(&warm, report.fell_back),
        ));
    }
    out
}

/// The fingerprints recorded before the cold and warm engines were merged:
/// `[moves_evaluated, edges_relaxed, nets_rerouted, iterations, wirelength,
/// fmax bits, payload_hash]` and `fell_back`, per run.
#[rustfmt::skip]
const GOLDEN: &[(&str, [u64; 7], bool)] = &[
    ("gen0/cold", [21641, 456, 10, 1, 4, 0x407a0aaaaaaaaaab, 0x42940fc3899afb08], false),
    ("gen0/warm1", [357, 444, 2, 1, 5, 0x407a0aaaaaaaaaab, 0xf20c694317dccac0], false),
    ("gen0/warm4", [357, 444, 2, 1, 5, 0x407a0aaaaaaaaaab, 0xf20c694317dccac0], false),
    ("gen1/cold", [33098, 524, 16, 1, 21, 0x40657a4823306287, 0x362612ce8b7c975f], false),
    ("gen1/warm1", [1071, 443, 2, 1, 22, 0x40657a4823306287, 0x2229b2a12e0e20e5], false),
    ("gen1/warm4", [1071, 443, 2, 1, 22, 0x40657a4823306287, 0x2229b2a12e0e20e5], false),
    ("gen2/cold", [40105, 526, 22, 1, 20, 0x4074f920a4f08972, 0x2e61cf3eba0a7b6a], false),
    ("gen2/warm1", [1760, 468, 6, 1, 22, 0x4074f920a4f08972, 0x746134df243f2d84], false),
    ("gen2/warm4", [1760, 468, 6, 1, 22, 0x4074f920a4f08972, 0x746134df243f2d84], false),
    ("gen3/cold", [60456, 584, 28, 1, 33, 0x405e3177f61b352d, 0x569b158e1406fe67], false),
    ("gen3/warm1", [399, 496, 3, 1, 32, 0x405e3177f61b352d, 0x726078a664aa63d4], false),
    ("gen3/warm4", [399, 496, 3, 1, 32, 0x405e3177f61b352d, 0x726078a664aa63d4], false),
    ("gen4/cold", [81984, 608, 34, 1, 42, 0x40675226357e16ed, 0xd9acaed4f028056c], false),
    ("gen4/warm1", [1020, 444, 2, 1, 43, 0x40675226357e16ed, 0x81bdd5c6026f5b8a], false),
    ("gen4/warm4", [1020, 444, 2, 1, 43, 0x40675226357e16ed, 0x81bdd5c6026f5b8a], false),
    ("gen5/cold", [113124, 596, 40, 1, 42, 0x40675226357e16ed, 0xac4e8198eddf4960], false),
    ("gen5/warm1", [1760, 412, 5, 1, 42, 0x40675226357e16ed, 0x7dbc0eb348acd485], false),
    ("gen5/warm4", [1760, 412, 5, 1, 42, 0x40675226357e16ed, 0x7dbc0eb348acd485], false),
    ("gen6/cold", [137216, 564, 46, 1, 41, 0x405d11dc47711dc5, 0x08e48c6836a43f0a], false),
    ("gen6/warm1", [378, 400, 1, 1, 41, 0x405d11dc47711dc5, 0xbe88cf0adbdfb816], false),
    ("gen6/warm4", [378, 400, 1, 1, 41, 0x405d11dc47711dc5, 0xbe88cf0adbdfb816], false),
    ("gen7/cold", [169048, 798, 52, 1, 59, 0x406ab59b59b59b5a, 0x7300e5fda66a5ec1], false),
    ("gen7/warm1", [969, 568, 2, 1, 61, 0x406ab59b59b59b5a, 0x51c9ce44a7a372b4], false),
    ("gen7/warm4", [969, 568, 2, 1, 61, 0x406ab59b59b59b5a, 0x51c9ce44a7a372b4], false),
    ("congested/cold", [21964, 6758, 55, 5, 45, 0x4093880000000000, 0xc826c021075587e3], false),
    ("congested/warm1", [1122, 444, 2, 1, 46, 0x4093880000000000, 0x2f1623c6781dea7f], false),
    ("congested/warm4", [1122, 444, 2, 1, 46, 0x4093880000000000, 0x2f1623c6781dea7f], false),
    ("macro/cold", [19832, 469, 14, 1, 8, 0x404c583c5f33aa16, 0xff7e8280dc41df25], false),
    ("macro/warm1", [1071, 464, 3, 1, 12, 0x404c583c5f33aa16, 0x422bcf5abc507a30], false),
    ("macro/warm4", [1071, 464, 3, 1, 12, 0x404c583c5f33aa16, 0x422bcf5abc507a30], false),
    ("jacobi/cold", [16660, 528, 12, 1, 22, 0x407f90cede62433c, 0x50f65a9eb34fe4d2], false),
    ("jacobi/warm1", [6370, 532, 12, 1, 22, 0x4081f5b37e875b37, 0x1a617a5cbfe2029b], false),
    ("jacobi/warm4", [6370, 532, 12, 1, 22, 0x4081f5b37e875b37, 0x1a617a5cbfe2029b], false),
    ("fallback", [52260, 531, 20, 1, 23, 0x406ef0cac5b3f5dc, 0x1759ee730300e07a], true),
    ("renegotiated/warm1", [0, 39839, 105, 12, 89, 0x4093880000000000, 0xdd4f776367b073cd], false),
    ("renegotiated/warm4", [0, 39839, 105, 12, 89, 0x4093880000000000, 0xdd4f776367b073cd], false),
];

#[test]
fn cold_and_warm_runs_match_their_recorded_fingerprints() {
    let got = runs();
    assert_eq!(got.len(), GOLDEN.len(), "case list changed");
    for ((name, f), &(want_name, w, fell_back)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, want_name);
        let want = Fingerprint {
            moves_evaluated: w[0],
            edges_relaxed: w[1],
            nets_rerouted: w[2],
            iterations: w[3] as u32,
            wirelength: w[4],
            fmax_bits: w[5],
            payload_hash: w[6],
            fell_back,
        };
        assert_eq!(*f, want, "{name}");
    }
}
