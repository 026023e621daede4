#![warn(missing_docs)]
//! Place & route: the expensive half of FPGA compilation.
//!
//! "Placement and routing problems are all NP-hard problems, typically solved
//! by heuristics, and the good heuristics in use are super-linear" (paper
//! Sec. 2.2) — and Tab. 2 shows p&r taking roughly half of every Vitis
//! compile. This crate implements the textbook versions of those heuristics
//! on the `fabric` tile grid:
//!
//! * [`mod@place`] — simulated-annealing placement minimizing half-perimeter
//!   wirelength, with per-tile capacity legality over the heterogeneous
//!   CLB/BRAM/DSP columns;
//! * [`mod@route`] — PathFinder-style negotiated-congestion routing over
//!   capacitated channel edges;
//! * [`timing`] — static timing analysis combining intrinsic cell delays
//!   with routed wire delays and SLR-crossing penalties (Sec. 2.5);
//! * [`bitstream`] — configuration artifacts whose size is proportional to
//!   the (partial) region being programmed, the property partial
//!   reconfiguration exploits for fast loading (Sec. 2.3).
//!
//! Because the algorithms are the real ones, the paper's headline behaviour
//! *emerges* rather than being hard-coded: compiling one operator onto one
//! ~100-tile page is dramatically cheaper than compiling a whole application
//! onto the 4,000-tile device, and an abstract-shell compile (region-scoped
//! context, Sec. 4.1) beats a full-context compile.

pub mod bitstream;
pub mod place;
pub mod route;
pub mod timing;

pub use bitstream::Bitstream;
pub use place::{cell_identities, place, Placement};
pub use route::{net_identities, route, RoutedDesign};
pub use timing::{analyze_timing, TimingReport};

use fabric::{Device, Rect};
use netlist::Netlist;
use std::fmt;

/// Options controlling a place-and-route run.
#[derive(Debug, Clone, Copy)]
pub struct PnrOptions {
    /// RNG seed; equal seeds give identical results.
    pub seed: u64,
    /// Use the abstract shell: scope all work to the target region. When
    /// `false`, the tools carry the whole device as context (the slow
    /// pre-abstract-shell behaviour the paper contrasts in Sec. 4.1).
    pub abstract_shell: bool,
    /// Simulated-annealing effort multiplier (1.0 = default schedule).
    pub effort: f64,
}

impl Default for PnrOptions {
    fn default() -> Self {
        PnrOptions {
            seed: 1,
            abstract_shell: true,
            effort: 1.0,
        }
    }
}

/// The product of a successful place-and-route run.
#[derive(Debug, Clone)]
pub struct PnrResult {
    /// Final placement.
    pub placement: Placement,
    /// Routed design.
    pub routed: RoutedDesign,
    /// Timing closure report.
    pub timing: TimingReport,
    /// The configuration bitstream for the target region.
    pub bitstream: Bitstream,
    /// Wall-clock seconds spent in placement.
    pub place_seconds: f64,
    /// Wall-clock seconds spent in routing.
    pub route_seconds: f64,
    /// Abstract work units (for the calibrated virtual-time model).
    pub work_units: u64,
}

/// Failure of a place-and-route run.
#[derive(Debug, Clone, PartialEq)]
pub enum PnrError {
    /// The design demands more resources than the region offers.
    #[allow(missing_docs)]
    DoesNotFit { what: String },
    /// The netlist failed structural validation.
    BadNetlist(netlist::NetlistError),
    /// Routing could not resolve congestion within the iteration budget.
    #[allow(missing_docs)]
    Unroutable { overused_edges: u32 },
}

impl fmt::Display for PnrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PnrError::DoesNotFit { what } => write!(f, "design does not fit region: {what}"),
            PnrError::BadNetlist(e) => write!(f, "netlist error: {e}"),
            PnrError::Unroutable { overused_edges } => {
                write!(f, "routing failed with {overused_edges} overused edges")
            }
        }
    }
}

impl std::error::Error for PnrError {}

impl From<netlist::NetlistError> for PnrError {
    fn from(e: netlist::NetlistError) -> Self {
        PnrError::BadNetlist(e)
    }
}

/// Places and routes `netlist` into `region` of `device`.
///
/// This is the work the paper's `-O1` flow does once per page (fast, small
/// region) and the `-O3`/Vitis flow does once for the whole device (slow).
///
/// # Errors
///
/// See [`PnrError`].
pub fn place_and_route(
    netlist: &Netlist,
    device: &Device,
    region: Rect,
    options: &PnrOptions,
) -> Result<PnrResult, PnrError> {
    netlist.check()?;
    run(netlist, device, region, options, None, 1)
}

/// One place → route → timing → bitstream run, cold or from a hint.
fn run(
    netlist: &Netlist,
    device: &Device,
    region: Rect,
    options: &PnrOptions,
    hint: Option<&PnrHints>,
    workers: usize,
) -> Result<PnrResult, PnrError> {
    let t0 = std::time::Instant::now();
    let placement = place::anneal::<false>(netlist, device, region, options, hint)?;
    let place_seconds = t0.elapsed().as_secs_f64();

    let t1 = std::time::Instant::now();
    let routed = route::negotiate(netlist, device, region, &placement, options, hint, workers)?;
    let route_seconds = t1.elapsed().as_secs_f64();

    let timing = timing::analyze_timing(netlist, device, &placement, &routed);
    let bitstream =
        bitstream::Bitstream::generate(netlist, region, &placement, &routed, options.seed);

    // Work units: SA moves plus router edge relaxations, the superlinear
    // quantities the virtual-time model maps to Vitis-scale seconds.
    let work_units = placement.moves_evaluated + routed.edges_relaxed;

    Ok(PnrResult {
        placement,
        routed,
        timing,
        bitstream,
        place_seconds,
        route_seconds,
        work_units,
    })
}

/// Placement and route state saved from a finished P&R run, replayable as
/// an *optimization input* for a warm rerun of an edited version of the
/// same operator. Hints are advisory: a warm run whose quality regresses
/// past the guard in [`place_and_route_incremental`] is discarded in favour
/// of a cold run, so a stale or mismatched hint can cost time but never
/// correctness.
#[derive(Debug, Clone, PartialEq)]
pub struct PnrHints {
    /// The region the hinted run targeted; a different region voids the hint.
    pub region: Rect,
    /// Content-derived identity per prior cell ([`cell_identities`]).
    pub cell_ids: Vec<u64>,
    /// Prior tile assignment, indexed like `cell_ids`.
    pub assignment: Vec<(u32, u32)>,
    /// Content-derived identity per prior net ([`net_identities`]).
    pub net_ids: Vec<u64>,
    /// Prior tile paths per net per sink.
    pub routes: Vec<Vec<Vec<(u32, u32)>>>,
    /// Final PathFinder history costs of the prior run.
    pub history: Vec<f32>,
    /// Prior routed wirelength — the cold-quality estimate the warm
    /// result's wirelength is guarded against.
    pub wirelength: u64,
    /// Prior fmax — the cold-quality estimate the warm fmax is guarded
    /// against.
    pub fmax_mhz: f64,
    /// Work units the prior cold run spent (prices cache eviction).
    pub work_units: u64,
}

/// Builds the [`PnrHints`] a future warm run of an edited sibling of
/// `netlist` can start from.
pub fn extract_hints(netlist: &Netlist, region: Rect, result: &PnrResult) -> PnrHints {
    let cell_ids = cell_identities(netlist);
    let net_ids = net_identities(netlist, &cell_ids);
    PnrHints {
        region,
        cell_ids,
        assignment: result.placement.assignment.clone(),
        net_ids,
        routes: result.routed.routes.clone(),
        history: result.routed.history.clone(),
        wirelength: result.routed.wirelength,
        fmax_mhz: result.timing.fmax_mhz,
        work_units: result.work_units,
    }
}

/// How a warm-started run went, alongside its [`PnrResult`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmReport {
    /// `true` when the quality guard (or a routing failure) discarded the
    /// warm attempt and the result is a cold run, bit-identical to calling
    /// [`place_and_route`] directly.
    pub fell_back: bool,
}

/// Warm wirelength may exceed the hint's cold wirelength by at most this
/// factor before the quality guard falls back to a cold run.
pub const WARM_WIRELENGTH_SLACK: f64 = 1.05;

/// Warm fmax may undercut the hint's cold fmax by at most this factor.
pub const WARM_FMAX_SLACK: f64 = 0.95;

/// Places and routes warm-started from `hints`, falling back to a cold
/// [`place_and_route`] whenever the hint does not describe this region, the
/// warm attempt fails, or its quality regresses more than 5% against the
/// hint's cold estimates.
///
/// The warm path is deterministic for fixed inputs and byte-identical at
/// every `workers` count (its Jacobi rounds commit in net order whatever
/// the thread count); the fallback is bit-identical to a fresh cold run
/// because it *is* one.
///
/// # Errors
///
/// See [`PnrError`] — only errors the cold fallback also hits escape.
pub fn place_and_route_incremental(
    netlist: &Netlist,
    device: &Device,
    region: Rect,
    options: &PnrOptions,
    hints: &PnrHints,
    workers: usize,
) -> Result<(PnrResult, WarmReport), PnrError> {
    netlist.check()?;

    // Hints are decoded from the store: one for another page, or whose
    // identity and payload lists disagree, is not replayed.
    let consistent = hints.region == region
        && hints.cell_ids.len() == hints.assignment.len()
        && hints.net_ids.len() == hints.routes.len();
    let warm = if consistent {
        run(netlist, device, region, options, Some(hints), workers).ok()
    } else {
        None
    };
    // Quality guard: the hint's cold numbers are the estimate of what a cold
    // run of the edited netlist would achieve (the edit is small by
    // assumption — that is what made the hint applicable).
    let kept = warm.filter(|r| {
        r.routed.wirelength as f64 <= hints.wirelength as f64 * WARM_WIRELENGTH_SLACK + 4.0
            && r.timing.fmax_mhz >= hints.fmax_mhz * WARM_FMAX_SLACK
    });
    match kept {
        Some(r) => Ok((r, WarmReport { fell_back: false })),
        None => place_and_route(netlist, device, region, options)
            .map(|r| (r, WarmReport { fell_back: true })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::CellKind;

    fn datapath(cells: usize) -> Netlist {
        let mut nl = Netlist::new("dp");
        let input = nl.add_cell("in", CellKind::StreamIn { width: 32 });
        let mut prev = input;
        for i in 0..cells {
            let kind = match i % 4 {
                0 => CellKind::Adder { width: 32 },
                1 => CellKind::Mult { width: 18 },
                2 => CellKind::Register { width: 32 },
                _ => CellKind::Logic { width: 32 },
            };
            let c = nl.add_cell(format!("c{i}"), kind);
            nl.add_net(prev, vec![c], 32);
            prev = c;
        }
        let out = nl.add_cell("out", CellKind::StreamOut { width: 32 });
        nl.add_net(prev, vec![out], 32);
        nl
    }

    fn page() -> (Device, Rect) {
        let fp = fabric::Floorplan::u50();
        let rect = fp.pages[0].rect;
        (fp.device, rect)
    }

    #[test]
    fn small_design_closes_on_a_page() {
        let (device, region) = page();
        let nl = datapath(40);
        let result = place_and_route(&nl, &device, region, &PnrOptions::default()).unwrap();
        assert_eq!(result.routed.overused_edges, 0);
        assert!(
            result.timing.fmax_mhz > 100.0,
            "fmax {}",
            result.timing.fmax_mhz
        );
        assert!(result.timing.fmax_mhz < 800.0);
        assert!(result.work_units > 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let (device, region) = page();
        let nl = datapath(30);
        let opts = PnrOptions {
            seed: 42,
            ..Default::default()
        };
        let a = place_and_route(&nl, &device, region, &opts).unwrap();
        let b = place_and_route(&nl, &device, region, &opts).unwrap();
        assert_eq!(a.placement.assignment, b.placement.assignment);
        assert_eq!(a.bitstream.payload_hash, b.bitstream.payload_hash);
        let c = place_and_route(
            &nl,
            &device,
            region,
            &PnrOptions {
                seed: 43,
                ..Default::default()
            },
        )
        .unwrap();
        assert_ne!(a.placement.assignment, c.placement.assignment);
    }

    #[test]
    fn empty_netlist_places_and_routes_nothing() {
        let (device, region) = page();
        let result = place_and_route(
            &Netlist::new("empty"),
            &device,
            region,
            &PnrOptions::default(),
        )
        .unwrap();
        assert!(result.placement.assignment.is_empty());
        assert_eq!(result.routed.overused_edges, 0);
    }

    #[test]
    fn oversized_design_rejected() {
        let (device, region) = page();
        let mut nl = Netlist::new("huge");
        let a = nl.add_cell("a", CellKind::Logic { width: 1 });
        // 300 BRAM cells cannot fit a page with ~60-120 BRAM18s.
        let mut prev = a;
        for i in 0..300 {
            let c = nl.add_cell(format!("m{i}"), CellKind::BramPort { bits: 18 * 1024 });
            nl.add_net(prev, vec![c], 32);
            prev = c;
        }
        let err = place_and_route(&nl, &device, region, &PnrOptions::default()).unwrap_err();
        assert!(matches!(err, PnrError::DoesNotFit { .. }));
    }

    #[test]
    fn warm_rerun_of_unchanged_netlist_replays_everything() {
        let (device, region) = page();
        let nl = datapath(40);
        let opts = PnrOptions::default();
        let cold = place_and_route(&nl, &device, region, &opts).unwrap();
        let hints = extract_hints(&nl, region, &cold);
        let (warm, report) =
            place_and_route_incremental(&nl, &device, region, &opts, &hints, 2).unwrap();
        assert!(!report.fell_back);
        assert_eq!(warm.placement.assignment, cold.placement.assignment);
        assert_eq!(warm.routed.routes, cold.routed.routes);
        assert_eq!(warm.bitstream.payload_hash, cold.bitstream.payload_hash);
        assert!(
            warm.work_units < cold.work_units / 3,
            "warm {} vs cold {}",
            warm.work_units,
            cold.work_units
        );
    }

    #[test]
    fn warm_rerun_after_edit_is_legal_and_worker_independent() {
        let (device, region) = page();
        let base = datapath(40);
        let opts = PnrOptions::default();
        let cold = place_and_route(&base, &device, region, &opts).unwrap();
        let hints = extract_hints(&base, region, &cold);

        // Edit: splice one extra cell into the middle of the datapath.
        let mut edited = datapath(40);
        let tap = edited.cells.iter().position(|c| c.name == "c20").unwrap();
        let extra = edited.add_cell("c20_fix", CellKind::Adder { width: 32 });
        edited.add_net(netlist::CellId(tap), vec![extra], 32);

        let mut runs = Vec::new();
        for workers in [1usize, 2, 4] {
            let (warm, _) =
                place_and_route_incremental(&edited, &device, region, &opts, &hints, workers)
                    .unwrap();
            assert_eq!(warm.routed.overused_edges, 0);
            for (ni, net) in edited.nets.iter().enumerate() {
                for (si, sink) in net.sinks.iter().enumerate() {
                    let path = &warm.routed.routes[ni][si];
                    assert_eq!(
                        path.first().copied().unwrap(),
                        warm.placement.assignment[net.driver.0]
                    );
                    assert_eq!(
                        path.last().copied().unwrap(),
                        warm.placement.assignment[sink.0]
                    );
                }
            }
            runs.push(warm);
        }
        for w in &runs[1..] {
            assert_eq!(w.placement.assignment, runs[0].placement.assignment);
            assert_eq!(w.routed.routes, runs[0].routed.routes);
            assert_eq!(w.bitstream.payload_hash, runs[0].bitstream.payload_hash);
        }
        // The edit-local rerun must be far cheaper than the cold run.
        assert!(
            runs[0].work_units < cold.work_units / 2,
            "warm {} vs cold {}",
            runs[0].work_units,
            cold.work_units
        );
    }

    #[test]
    fn quality_guard_falls_back_to_bit_identical_cold_run() {
        let (device, region) = page();
        let nl = datapath(40);
        let opts = PnrOptions::default();
        let cold = place_and_route(&nl, &device, region, &opts).unwrap();
        // Poison the hint: claim the cold run achieved impossible quality,
        // so any warm result trips the guard.
        let mut hints = extract_hints(&nl, region, &cold);
        hints.wirelength = 0;
        hints.fmax_mhz = 1e9;
        let (fallen, report) =
            place_and_route_incremental(&nl, &device, region, &opts, &hints, 2).unwrap();
        assert!(report.fell_back);
        assert_eq!(fallen.placement.assignment, cold.placement.assignment);
        assert_eq!(fallen.bitstream.payload_hash, cold.bitstream.payload_hash);
        assert_eq!(fallen.work_units, cold.work_units);
    }

    #[test]
    fn page_compile_is_cheaper_than_whole_device() {
        // The paper's core claim: effort scales with region × design size.
        let fp = fabric::Floorplan::u50();
        let nl = datapath(60);
        let small =
            place_and_route(&nl, &fp.device, fp.pages[0].rect, &PnrOptions::default()).unwrap();
        let whole = place_and_route(
            &nl,
            &fp.device,
            fabric::Rect::new(2, 0, 22, 40),
            &PnrOptions::default(),
        )
        .unwrap();
        assert!(
            whole.work_units > small.work_units,
            "whole-region work {} should exceed page work {}",
            whole.work_units,
            small.work_units
        );
    }
}
