//! Layer replays for the traced run, and the counters both runs keep.
//!
//! The harness measures layers from outside: under each compile or simulate
//! call of a traced turn it replays the same inputs through the layer's own
//! public functions (`hlsim::compile`, `pnr::place`, `softcore::execute`,
//! a driven `BftNoc`, ...), one span per call. A layer's `*_busy_s` is the
//! self time of its spans; its counts come from what those calls return.
//! Work that has no public entry shows up as the gap between the top-level
//! call and its replay (`core.unattributed_s`).
//!
//! A replay re-derives what the build does with an operator (its P&R seed,
//! its options) from outside, so every replayed product is compared with
//! the one the build returned; a replay that no longer does the build's
//! work is counted in `replay.diverged` and fails the run.

use std::collections::{BTreeMap, HashMap};

use dfg::{Graph, GraphTrace, IrLink};
use fabric::{Device, Floorplan, Rect};
use kir::wire::stream_to_words;
use netlist::Netlist;
use noc::BftNoc;
use pld::flow::CompiledOperator;
use pld::CompiledApp;
use pnr::{PnrHints, PnrOptions, PnrResult};

use crate::apps::AppCase;
use crate::trace::Tracer;

/// Cycle budget for softcore and cosim runs: far above any app in the set,
/// so hitting it means a hang, which is reported as a failure.
pub const CYCLE_BUDGET: u64 = 50_000_000_000;

/// Span names of the top-level calls a replay explains. `trace.coverage`
/// divides replayed layer time by the time of these calls only; the other
/// top-level calls (`core.load`, `core.cache_open`, `runtime.admit`, ...)
/// are single layer calls already.
pub const REPLAYED_CALLS: [&str; 5] = [
    "core.compile",
    "core.cosim",
    "core.execute",
    "runtime.request",
    "runtime.swap",
];

/// Tracer plus named counters, threaded through every workload. Counters
/// are kept in both runs (they come from values the calls return anyway);
/// replays run only when the tracer is enabled.
pub struct Layers {
    pub tr: Tracer,
    counts: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    fmax_mhz: Vec<f64>,
}

impl Layers {
    pub fn new(traced: bool) -> Layers {
        Layers {
            tr: Tracer::new(traced),
            counts: BTreeMap::new(),
            samples: BTreeMap::new(),
            fmax_mhz: Vec::new(),
        }
    }

    pub fn add(&mut self, name: &'static str, amount: f64) {
        *self.counts.entry(name).or_insert(0.0) += amount;
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Counters a workload keeps about itself (named `<workload>.*`) and
    /// the replays' comparison tally (`replay.*`), which are reported as
    /// observations rather than as catalogue metrics.
    pub fn observations(&self, workload: &str) -> Vec<(&'static str, f64)> {
        self.counts
            .iter()
            .filter(|(name, _)| {
                let layer = name.split('.').next();
                layer == Some(workload) || layer == Some("replay")
            })
            .map(|(name, v)| (*name, *v))
            .collect()
    }

    /// Geometric mean of every replayed P&R result's fmax.
    pub fn fmax_geomean(&self) -> Option<f64> {
        crate::stats::geomean(&self.fmax_mhz)
    }

    /// Tallies one comparison of a replayed product with the build's own.
    fn compare(&mut self, same: bool) {
        self.add("replay.compared", 1.0);
        if !same {
            self.add("replay.diverged", 1.0);
        }
    }

    /// Records one sample of a quantity reported as a median.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn sample_median(&self, name: &str) -> Option<f64> {
        crate::stats::median(self.samples.get(name)?)
    }

    /// Counts one finished place-and-route result. Moves, relaxations and
    /// iterations are counted for cold runs only, so that they describe the
    /// work inside the `pnr.place` and `pnr.route` spans; a warm run's work
    /// sits inside its one `pnr.warm` span.
    fn note_pnr(&mut self, r: &PnrResult, warm: bool) {
        if !warm {
            self.add("pnr.place_moves", r.placement.moves_evaluated as f64);
            self.add("pnr.route_relaxations", r.routed.edges_relaxed as f64);
            self.add("pnr.route_iterations", f64::from(r.routed.iterations));
        }
        self.add("pnr.route_nets_rerouted", r.routed.nets_rerouted as f64);
        self.add("pnr.wirelength", r.routed.wirelength as f64);
        self.fmax_mhz.push(r.timing.fmax_mhz);
    }
}

/// FNV-1a, as `pld::build` hashes operator names into per-operator P&R
/// seeds (`options.seed ^ fnv(name)`); the replay must place with the seed
/// the build used to do the same work.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The replay's copy of the warm-start lineage the build keeps in its
/// store: hints are filed per (operator name, kernel version, page
/// region), the first filing stands, and a lookup tries this kernel version
/// before the one the operator had in the previous compile. Whether the copy still
/// follows the build shows in the comparison of every warm replay's timing
/// report with the build's.
#[derive(Default)]
pub struct HintBook(HashMap<(String, u64, Rect), PnrHints>);

impl HintBook {
    fn key(name: &str, kernel: &kir::Kernel, rect: Rect) -> (String, u64, Rect) {
        (
            name.to_string(),
            fnv(format!("{kernel:?}").as_bytes()),
            rect,
        )
    }

    /// The hints the build warm-starts `kernel` of operator `name` on the
    /// page at `rect` from, `prev` being the graph its cache compiled last.
    pub fn probe(
        &self,
        name: &str,
        kernel: &kir::Kernel,
        rect: Rect,
        prev: Option<&Graph>,
    ) -> Option<&PnrHints> {
        self.0.get(&Self::key(name, kernel, rect)).or_else(|| {
            let before = prev?.operators.iter().find(|o| o.name == name)?;
            self.0.get(&Self::key(name, &before.kernel, rect))
        })
    }

    /// Files the hints a replay left, which carry the region they are for.
    pub fn file(&mut self, name: &str, kernel: &kir::Kernel, hints: PnrHints) {
        self.0
            .entry(Self::key(name, kernel, hints.region))
            .or_insert(hints);
    }
}

/// Cold place, route, timing and bitstream generation as separate spans.
fn replay_cold_pnr(
    ly: &mut Layers,
    netlist: &Netlist,
    device: &Device,
    region: Rect,
    opts: &PnrOptions,
) -> Option<PnrResult> {
    let (placed, place_seconds) = ly
        .tr
        .timed("pnr.place", || pnr::place(netlist, device, region, opts));
    let placement = placed.ok()?;
    let (routed, route_seconds) = ly.tr.timed("pnr.route", || {
        pnr::route(netlist, device, region, &placement, opts)
    });
    let routed = match routed {
        Ok(r) => r,
        Err(e) => {
            ly.add("pnr.place_moves", placement.moves_evaluated as f64);
            if matches!(e, pnr::PnrError::Unroutable { .. }) {
                ly.add("pnr.unroutable", 1.0);
            }
            return None;
        }
    };
    let (timing, _) = ly.tr.timed("pnr.timing", || {
        pnr::analyze_timing(netlist, device, &placement, &routed)
    });
    let (bitstream, _) = ly.tr.timed("pnr.bitstream", || {
        pnr::Bitstream::generate(netlist, region, &placement, &routed, opts.seed)
    });
    let work_units = placement.moves_evaluated + routed.edges_relaxed;
    let result = PnrResult {
        placement,
        routed,
        timing,
        bitstream,
        place_seconds,
        route_seconds,
        work_units,
    };
    ly.note_pnr(&result, false);
    Some(result)
}

/// Which stage kinds a build executed (as opposed to served from the
/// cache): a replay puts spans around those only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagesRan {
    pub hls: bool,
    pub pnr: bool,
    pub softcore_cc: bool,
}

impl StagesRan {
    /// A from-scratch build.
    pub const ALL: StagesRan = StagesRan {
        hls: true,
        pnr: true,
        softcore_cc: true,
    };

    pub fn of(report: &pld::BuildReport) -> StagesRan {
        StagesRan {
            hls: report.executions(pld::StageKind::HlsLower) > 0,
            pnr: report.executions(pld::StageKind::PlaceRoute) > 0,
            softcore_cc: report.executions(pld::StageKind::SoftcoreCc) > 0,
        }
    }
}

/// One paged operator whose stage chain a replay runs.
pub struct OperatorReplay<'a> {
    pub name: &'a str,
    pub kernel: &'a kir::Kernel,
    /// What the build made of the operator: its target and page, and the
    /// products every replayed stage is compared with.
    pub built: &'a CompiledOperator,
    /// Warm-start from these hints, as the build does for an edited
    /// operator; `None` replays a cold P&R.
    pub hint: Option<&'a PnrHints>,
    /// The stage kinds the build executed. A netlist the build took from
    /// the cache is lowered again outside any span; P&R or a softcore
    /// compile it took from the cache is not replayed at all.
    pub ran: StagesRan,
}

/// Replays one operator's stage chain: HLS, leaf-interface wrap and P&R
/// for a hardware target, the softcore compiler and page packing for a
/// RISC-V one. Returns the hints a later warm replay starts from.
fn replay_operator(
    ly: &mut Layers,
    op: &OperatorReplay,
    floorplan: &Floorplan,
    seed: u64,
    jobs: usize,
) -> Option<PnrHints> {
    let page = op.built.page.expect("paged compile");
    if !op.built.target.is_hw() {
        if op.ran.softcore_cc {
            let (binary, _) = ly
                .tr
                .timed("softcore.cc", || softcore::compile_kernel(op.kernel));
            let binary = binary.ok()?;
            ly.compare(Some(&binary) == op.built.soft.as_ref());
            ly.add("softcore.cc_code_bytes", binary.code.len() as f64 * 4.0);
            ly.tr.timed("core.pack", || binary.pack(page.0));
        }
        return None;
    }
    if !op.ran.hls && !op.ran.pnr {
        return None;
    }
    let hls = if op.ran.hls {
        let (hls, _) = ly.tr.timed("hlsim", || hlsim::compile(op.kernel));
        let hls = hls.ok()?;
        ly.compare(Some(&hls.report) == op.built.hls.as_ref());
        ly.add("hlsim.kernels", 1.0);
        ly.add("hlsim.cells_out", hls.netlist.cell_count() as f64);
        hls
    } else {
        hlsim::compile(op.kernel).ok()?
    };
    if !op.ran.pnr {
        return None;
    }
    let (wrapped, _) = ly.tr.timed("core.wrap", || {
        pld::flow::wrap_with_leaf_interface(&hls.netlist)
    });
    let rect = floorplan.pages[page.0 as usize].rect;
    // The build's per-operator P&R options; the comparison with the build's
    // timing report below is what holds this copy to them.
    let opts = PnrOptions {
        seed: seed ^ fnv(op.name.as_bytes()),
        abstract_shell: true,
        effort: 1.0,
    };
    let result = match op.hint {
        Some(hint) => {
            let (warm, _) = ly.tr.timed("pnr.warm", || {
                pnr::place_and_route_incremental(
                    &wrapped,
                    &floorplan.device,
                    rect,
                    &opts,
                    hint,
                    jobs,
                )
            });
            let (result, _) = warm.ok()?;
            ly.note_pnr(&result, true);
            result
        }
        None => replay_cold_pnr(ly, &wrapped, &floorplan.device, rect, &opts)?,
    };
    ly.compare(Some(&result.timing) == op.built.timing.as_ref());
    Some(pnr::extract_hints(&wrapped, rect, &result))
}

/// Replays the stage chains of `ops` one after another on the calling
/// thread (the build farm ran them on `jobs` lanes). Returns each
/// operator's new hints, in `ops` order.
pub fn replay_operators(
    ly: &mut Layers,
    ops: &[OperatorReplay],
    floorplan: &Floorplan,
    seed: u64,
    jobs: usize,
) -> Vec<Option<PnrHints>> {
    ops.iter()
        .map(|op| replay_operator(ly, op, floorplan, seed, jobs))
        .collect()
}

/// The operators at `indices` of a paged build, as the replay takes them.
pub fn operators_of<'a>(
    app: &'a CompiledApp,
    indices: &[usize],
    ran: StagesRan,
    hint_of: impl Fn(&str, &kir::Kernel, Rect) -> Option<&'a PnrHints>,
) -> Vec<OperatorReplay<'a>> {
    indices
        .iter()
        .map(|&i| {
            let op = &app.graph.operators[i];
            let built = &app.operators[i];
            let page = built.page.expect("paged compile");
            let rect = app.floorplan.pages[page.0 as usize].rect;
            OperatorReplay {
                name: &op.name,
                kernel: &op.kernel,
                built,
                hint: hint_of(&op.name, &op.kernel, rect),
                ran,
            }
        })
        .collect()
}

/// Replays a monolithic (`-O3`) compile: HLS of every operator, then place,
/// route, timing and bitstream of the stitched kernel netlist the compile
/// kept. The kernel stitch and the fused-baseline P&R inside
/// `compile_monolithic` have no public entry and stay unattributed.
pub fn replay_monolithic(ly: &mut Layers, app: &CompiledApp, seed: u64) {
    for (op, built) in app.graph.operators.iter().zip(&app.operators) {
        let (hls, _) = ly.tr.timed("hlsim", || hlsim::compile(&op.kernel));
        if let Ok(hls) = hls {
            ly.compare(Some(&hls.report) == built.hls.as_ref());
            ly.add("hlsim.kernels", 1.0);
            ly.add("hlsim.cells_out", hls.netlist.cell_count() as f64);
        }
    }
    let Some(mono) = &app.monolithic else { return };
    let opts = PnrOptions {
        seed,
        abstract_shell: true,
        effort: 1.0,
    };
    let region = pld::flow::monolithic_region(&app.floorplan);
    let replayed = replay_cold_pnr(ly, &mono.netlist, &app.floorplan.device, region, &opts);
    ly.compare(
        replayed.is_some_and(|r| r.timing == mono.timing && r.work_units == mono.work_units),
    );
}

/// Replays the KPN optimizer on `source` with `config` clamped to the
/// floorplan the way the build clamps it; the rewritten graph must be the
/// one `built` was compiled from.
pub fn replay_optimize(
    ly: &mut Layers,
    source: &Graph,
    config: &dfg::OptimizerConfig,
    built: &CompiledApp,
) {
    let floorplan = &built.floorplan;
    let mut resolved = config.clone();
    resolved.max_operators = resolved.max_operators.min(floorplan.pages.len().max(1));
    let bram = floorplan.min_page_bram_bits();
    if bram > 0 {
        resolved.page_array_bits = resolved.page_array_bits.min(bram);
    }
    let (out, _) = ly.tr.timed("dfg.opt", || dfg::optimize(source, &resolved));
    ly.compare(out.graph == built.graph);
    ly.add(
        "dfg.opt_rewrites",
        (out.report.fused.len() + out.report.fissioned.len()) as f64,
    );
}

/// Replays a functional run: `dfg::run_graph_trace` as the `dfg.exec` span,
/// then each operator's kernel directly through `kir::interp` on the
/// streams just traced. The interpreter runs *inside* `run_graph`, so the
/// kernel replays are recorded as children of the `dfg.exec` span (laid out
/// back to back from its start): `dfg.exec`'s self time is then the graph
/// executor's own routing, and `kir.interp`'s the interpretation.
pub fn replay_run_graph(ly: &mut Layers, case: &AppCase, graph: &Graph) -> Option<GraphTrace> {
    if !ly.tr.enabled() {
        return None;
    }
    let inputs = case.input_refs();
    let id = ly.tr.begin("dfg.exec");
    let t0 = std::time::Instant::now();
    let traced = dfg::run_graph_trace(graph, &inputs);
    let exec_ns = t0.elapsed().as_nanos() as u64;
    let (outputs, stats, trace) = match traced {
        Ok(t) => t,
        Err(_) => {
            ly.tr.end_with_duration(id, exec_ns);
            return None;
        }
    };
    let mut kernel_ns = Vec::new();
    let mut kir_tokens = 0u64;
    for (op, op_inputs) in graph.operators.iter().zip(&trace.op_inputs) {
        let streams: Vec<(&str, Vec<kir::Value>)> = op
            .kernel
            .inputs
            .iter()
            .zip(op_inputs)
            .map(|(p, s)| (p.name.as_str(), s.clone()))
            .collect();
        let t0 = std::time::Instant::now();
        let ran = kir::interp::run_with_stats(&op.kernel, &streams);
        kernel_ns.push(t0.elapsed().as_nanos() as u64);
        if let Ok((_, s)) = ran {
            kir_tokens += s.reads + s.writes;
        }
    }
    let mut offset = 0;
    for dur in &kernel_ns {
        ly.tr.synthetic_child("kir.interp", offset, *dur);
        offset += dur;
    }
    ly.tr.end_with_duration(id, exec_ns);
    ly.add("kir.interp_tokens", kir_tokens as f64);
    let ext_in: usize = inputs.iter().map(|(_, v)| v.len()).sum();
    let ext_out: usize = outputs.values().map(Vec::len).sum();
    ly.add(
        "dfg.exec_tokens",
        (ext_in + ext_out) as f64 + stats.edge_tokens.iter().sum::<u64>() as f64,
    );
    Some(trace)
}

/// Replays every operator's compiled binary through `softcore::execute` on
/// the streams `trace` captured: the batch use of the engine the cosim
/// drives in lock-step.
pub fn replay_softcore_exec(ly: &mut Layers, app: &CompiledApp, trace: &GraphTrace) {
    for (op, op_inputs) in app.operators.iter().zip(&trace.op_inputs) {
        let Some(binary) = &op.soft else { continue };
        let words: Vec<Vec<u32>> = op_inputs.iter().map(stream_to_words).collect();
        let (ran, _) = ly.tr.timed("softcore.exec", || {
            softcore::execute(binary, &words, CYCLE_BUDGET)
        });
        if let Ok(out) = ran {
            ly.add("softcore.exec_instructions", out.instructions as f64);
        }
    }
}

/// Drives a `BftNoc` with the app's link table and the word count every
/// link carried in `trace`: all links inject as fast as the network takes
/// words until everything is delivered. This is the linking network under
/// the app's traffic matrix, without the cores that pace it in the cosim.
pub fn replay_noc(ly: &mut Layers, app: &CompiledApp, case: &AppCase, trace: &GraphTrace) {
    let golden = case.golden_words();
    let mut pending: Vec<(usize, usize, u64)> = app
        .ir
        .links
        .iter()
        .zip(&app.driver.links)
        .map(|(ir, link)| {
            let words = if ir.to.0 == IrLink::HOST {
                golden[ir.to.1 as usize].len()
            } else {
                stream_to_words(&trace.op_inputs[ir.to.0 as usize][ir.to.1 as usize]).len()
            };
            (link.src_leaf as usize, link.stream as usize, words as u64)
        })
        .collect();
    let total: u64 = pending.iter().map(|p| p.2).sum();
    let mut net = BftNoc::new(app.floorplan.pages.len() + 2, 8, 64);
    for link in &app.driver.links {
        net.set_dest(link.src_leaf as usize, link.stream as usize, link.dest);
    }
    let id = ly.tr.begin("noc.step");
    // A word needs a handful of cycles end to end; a network that has not
    // delivered after this many has stalled.
    let limit = 64 * total + 10_000;
    while net.stats().delivered < total && net.cycle() < limit {
        for (leaf, stream, left) in pending.iter_mut() {
            if *left > 0 && net.inject(*leaf, *stream, *left as u32).is_ok() {
                *left -= 1;
            }
        }
        net.step();
    }
    ly.tr.end(id);
    let stats = net.stats();
    ly.add("noc.flits_delivered", stats.delivered as f64);
    ly.add("noc.cycles", net.cycle() as f64);
    ly.add("noc.deflections", stats.deflections as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_fnv1a_64() {
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    /// A replay of a fresh build reproduces the build's products; one made
    /// under another P&R seed does not, and says so.
    #[test]
    fn replay_is_held_to_the_builds_products() {
        let cases = crate::apps::generated_apps(1, 16, 1);
        let case = &cases[0];
        let opts = crate::workloads::compile_options(pld::OptLevel::O1, 3);
        let app = pld::compile(&case.graph, &opts).unwrap();
        let all: Vec<usize> = (0..app.operators.len()).collect();
        let run = |seed: u64| {
            let mut ly = Layers::new(true);
            let ops = operators_of(&app, &all, StagesRan::ALL, |_, _, _| None);
            let hints = replay_operators(&mut ly, &ops, &app.floorplan, seed, 1);
            assert!(hints.iter().all(Option::is_some));
            ly
        };
        let same = run(opts.seed);
        assert!(same.count("pnr.place_moves") > 0.0);
        assert!(same.count("replay.compared") >= 2.0 * all.len() as f64);
        assert_eq!(same.count("replay.diverged"), 0.0);
        let other = run(opts.seed + 1);
        assert!(other.count("replay.diverged") > 0.0);
    }
}
