//! The staged build graph: one driver materializes every compile.
//!
//! A compile is a DAG of typed stages per operator —
//! [`HlsLower`](StageKind::HlsLower) → [`PlaceRoute`](StageKind::PlaceRoute)
//! → [`BitstreamPack`](StageKind::BitstreamPack) for hardware pages,
//! [`SoftcoreCc`](StageKind::SoftcoreCc) →
//! [`BitstreamPack`](StageKind::BitstreamPack) for softcore pages — joined
//! by one app-wide [`LinkDriver`](StageKind::LinkDriver) stage. Every stage
//! is addressed by a content hash over *all* of its inputs, so the store
//! answers "is this exact work already done?" per phase, not per operator:
//! a seed-only edit re-runs P&R against the cached HLS netlist, an edit that
//! leaves the netlist as it was (new constants, say) re-runs HLS and packing
//! but not P&R, and a virtual-time recalibration recompiles nothing at all,
//! because seconds are derived from stored work measures at materialization
//! time rather than baked into the products.
//!
//! What each key is the hash of is written down once, as the fields of the
//! crate-private `StageInputs` record: one variant per key shape, keyed by
//! FNV-1a over its codec bytes.
//!
//! One driver runs every build, of one graph or of a batch, at every level.
//! It plans each graph by fetching every stage it can key, and each operator
//! whose chain misses a stage becomes one farm job that runs the rest of the
//! chain: HLS (then, with the netlist in hand, the P&R probe) or the
//! softcore compile, then P&R and packing. Under `-O3` a chain is its HLS
//! stage alone. The jobs of all the graphs run in one round, submitted
//! longest-first (LPT list scheduling) so the slowest page compile starts
//! immediately — the paper's Sec. 6.2 observation that parallel compile time
//! "is determined by the longest individual one" made concrete. `-O3` adds a
//! second round: each graph's stitch and monolithic P&R, one job per graph.
//! Nothing is filed until the rounds are over, so every graph builds against
//! the store as it stood before. [`build`] is a batch of one, [`build_batch`]
//! a batch of many, and [`crate::BuildCache`] (a persistent store, which
//! `pld-runtime`'s hot swap compiles through) a batch of one that also
//! hands the driver the previous version of the graph.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use dfg::{extract, Graph, Target};
use fabric::{PageId, Rect};
use pnr::PnrOptions;

use kir::hash::debug_len;

use crate::artifact::{Driver, LoadOp, Xclbin, XclbinKind};
use crate::cache::CacheBackend;
use crate::codec::{self, codec_enum, Codec};
use crate::farm;
use crate::flow::{
    assign_pages, build_driver, fnv, monolithic, source_hash, wrap_with_leaf_interface,
    CompileError, CompileOptions, CompiledApp, CompiledOperator, MonolithicInfo, OptLevel,
    OptSummary,
};
use crate::store::{
    HintsProduct, HlsProduct, OptProduct, PnrProduct, SoftProduct, StageKey, StageKind,
    StageProduct,
};
use crate::vtime::{PhaseTimes, VtimeModel};

/// Per-stage hit/execution counters for one build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCount {
    /// Stage results served from the store.
    pub hits: u64,
    /// Stage executions actually performed.
    pub executions: u64,
}

/// Stage accounting for one operator of one build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorStages {
    /// Operator instance name.
    pub name: String,
    /// Stages served from the store.
    pub hits: u64,
    /// Stages executed.
    pub executions: u64,
}

/// What one [`build`] did: which stages ran, which were cache hits, and what
/// the build would have cost from scratch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BuildReport {
    /// Hit/execution counters per stage kind.
    pub stages: BTreeMap<StageKind, StageCount>,
    /// Per-operator stage accounting, in graph operator order.
    pub operators: Vec<OperatorStages>,
    /// Virtual seconds of the longest executed per-operator stage chain —
    /// the build's critical path on an unbounded farm.
    pub critical_path_seconds: f64,
    /// What a from-scratch compile of the same graph would cost, serially.
    /// Derived from stored work measures, so it is bit-identical to the
    /// `vtime_serial` a fresh [`crate::compile`] reports.
    pub fresh_vtime_serial: PhaseTimes,
    /// From-scratch cost on an unbounded farm (slowest operator).
    pub fresh_vtime_parallel: PhaseTimes,
    /// `PnrHints` lookups for a warm start: hardware operators whose
    /// `PlaceRoute` stage missed (incremental P&R on) and was not found
    /// through the netlist's or this version's own hint either (that is a
    /// stage hit).
    pub hint_fetches: u64,
    /// Hint lookups that found a usable hint, arming the warm path.
    pub hint_hits: u64,
    /// Executed `PlaceRoute` stages that ran warm-started from a hint
    /// (including those whose quality guard then fell back cold).
    pub warm_pnr_ops: u64,
    /// Warm-started stages the quality guard (or a routing failure)
    /// discarded in favour of a bit-identical cold run.
    pub warm_fallbacks: u64,
}

impl BuildReport {
    /// Stage results served from the store, across all stage kinds.
    pub fn total_hits(&self) -> u64 {
        self.stages.values().map(|c| c.hits).sum()
    }

    /// Stage executions performed, across all stage kinds.
    pub fn total_executions(&self) -> u64 {
        self.stages.values().map(|c| c.executions).sum()
    }

    /// Hits for one stage kind.
    pub fn hits(&self, kind: StageKind) -> u64 {
        self.stages.get(&kind).map_or(0, |c| c.hits)
    }

    /// Executions for one stage kind.
    pub fn executions(&self, kind: StageKind) -> u64 {
        self.stages.get(&kind).map_or(0, |c| c.executions)
    }

    /// Fraction of stage lookups served from the store (0 when the build
    /// looked nothing up).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.total_hits();
        let total = hits + self.total_executions();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    pub(crate) fn record(&mut self, kind: StageKind, hit: bool) {
        let c = self.stages.entry(kind).or_default();
        if hit {
            c.hits += 1;
        } else {
            c.executions += 1;
        }
    }
}

/// The named inputs of one stage execution, written down once: each variant
/// is a key shape, its fields everything that can change the product. The
/// key hashes the record's codec bytes ([`StageInputs::key`]), so the tags of
/// the variant, of `warm`'s `Option` and of [`HintOf`] keep domains apart.
/// Each `u64` input is FNV-1a over codec bytes too: [`kernel_hash`],
/// [`HlsProduct::netlist_hash`], [`HintsProduct::content_hash`],
/// [`graph_hash`], [`source_hash`], and those of the device and the IR.
#[derive(Debug)]
pub(crate) enum StageInputs {
    /// The source graph and the optimizer config resolved for the floorplan.
    KpnOptimize {
        graph: u64,
        config: dfg::OptimizerConfig,
    },
    /// A kernel, lowered to a netlist.
    HlsLower { kernel: u64 },
    /// A kernel, compiled for the softcore.
    SoftcoreCc { kernel: u64 },
    /// The hint of operator `name` on a page, filed for a netlist or a kernel
    /// version; seed-free, as a hint is no part of any artifact's identity.
    PnrHints {
        name: String,
        of: HintOf,
        rect: Rect,
        device: u64,
    },
    /// A cold run's inputs — the HLS netlist, page, device and per-operator
    /// seed — and, for a warm-started one, the fingerprint of the hint it
    /// starts from. With `warm: None` this is also the key a warm run the
    /// quality guard discarded is aliased under.
    PlaceRoute {
        netlist: u64,
        rect: Rect,
        device: u64,
        seed: u64,
        warm: Option<u64>,
    },
    /// A hardware page's pack, of the bitstream packed: a product filed under
    /// several `PlaceRoute` keys (a fallback's warm and plain) shares a pack.
    PagePack {
        region: Rect,
        payload: u64,
        page: PageId,
        name: String,
        source: u64,
    },
    /// A softcore page's pack: the `SoftcoreCc` key's hash, page, operator.
    SoftPack {
        binary: u64,
        page: PageId,
        name: String,
    },
    /// The app-wide link stage: the dataflow IR, the page count, and each
    /// operator's page and artifact hash, in operator order.
    LinkDriver {
        ir: u64,
        pages: u16,
        placed: Vec<(PageId, u64)>,
    },
}

/// What a [`StageInputs::PnrHints`] hint is filed for.
#[derive(Debug)]
pub(crate) enum HintOf {
    /// A kernel version whose P&R ran: a compile probes its own, then the
    /// **previous** version's (a warm start).
    Lineage(u64),
    /// A netlist: a pointer ([`HintsProduct::origin`]) to its first P&R run
    /// on the page, so any version that lowers to it again is a hit.
    Netlist(u64),
}

codec_enum!(HintOf, "hint origin" { 0 => Lineage(kernel), 1 => Netlist(netlist) });
codec_enum!(StageInputs, "stage inputs" {
    0 => KpnOptimize { graph, config },
    1 => HlsLower { kernel },
    2 => SoftcoreCc { kernel },
    3 => PnrHints { name, of, rect, device },
    4 => PlaceRoute { netlist, rect, device, seed, warm },
    5 => PagePack { region, payload, page, name, source },
    6 => SoftPack { binary, page, name },
    7 => LinkDriver { ir, pages, placed },
});

impl StageInputs {
    /// The key of packing `bitstream` as operator `name`'s artifact on `page`.
    fn page_pack(bitstream: &pnr::Bitstream, page: PageId, name: &str, source: u64) -> StageKey {
        StageInputs::PagePack {
            region: bitstream.region,
            payload: bitstream.payload_hash,
            page,
            name: name.to_string(),
            source,
        }
        .key()
    }

    /// The key these inputs address: FNV-1a over the record's codec bytes.
    pub(crate) fn key(&self) -> StageKey {
        let kind = match self {
            StageInputs::KpnOptimize { .. } => StageKind::KpnOptimize,
            StageInputs::HlsLower { .. } => StageKind::HlsLower,
            StageInputs::SoftcoreCc { .. } => StageKind::SoftcoreCc,
            StageInputs::PnrHints { .. } => StageKind::PnrHints,
            StageInputs::PlaceRoute { .. } => StageKind::PlaceRoute,
            StageInputs::PagePack { .. } | StageInputs::SoftPack { .. } => StageKind::BitstreamPack,
            StageInputs::LinkDriver { .. } => StageKind::LinkDriver,
        };
        kind.key(fnv(&codec::encode(self)))
    }
}

#[cfg(test)]
thread_local! {
    /// Kernels this thread has content-hashed: what the tests that pin
    /// "an unchanged operator is never encoded" read.
    pub(crate) static KERNELS_HASHED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Content hash of a kernel's source — the one input every per-operator
/// stage key and the operator's [`source_hash`] are folded from. It encodes
/// the whole kernel, so a build takes it at most once per operator: see
/// [`kernel_hashes`].
pub(crate) fn kernel_hash(kernel: &kir::Kernel) -> u64 {
    #[cfg(test)]
    KERNELS_HASHED.with(|n| n.set(n.get() + 1));
    fnv(&codec::encode(kernel))
}

/// A graph with the [`kernel_hash`] of each of its operators, in order.
#[derive(Clone, Copy)]
pub(crate) struct Hashed<'a> {
    pub(crate) graph: &'a Graph,
    pub(crate) kernels: &'a [u64],
}

/// The kernel hashes of `graph`'s operators. Where `prev` holds an equal
/// kernel at the same position its hash is reused (comparing two kernels is
/// far cheaper than encoding one), so hashing a graph costs what the edit
/// since `prev` touched.
pub(crate) fn kernel_hashes(graph: &Graph, prev: Option<Hashed<'_>>) -> Vec<u64> {
    graph
        .operators
        .iter()
        .enumerate()
        .map(|(i, op)| {
            prev.and_then(|p| (p.graph.operators.get(i)?.kernel == op.kernel).then(|| p.kernels[i]))
                .unwrap_or_else(|| kernel_hash(&op.kernel))
        })
        .collect()
}

/// Content hash of a whole graph — the `KpnOptimize` stage's input: FNV-1a
/// over the graph's codec bytes with each kernel's replaced by the kernel
/// hash already taken.
fn graph_hash(g: Hashed<'_>) -> u64 {
    let mut out = Vec::new();
    g.graph.name.put(&mut out);
    g.graph.operators.len().put(&mut out);
    for (op, kernel) in g.graph.operators.iter().zip(g.kernels) {
        op.name.put(&mut out);
        kernel.put(&mut out);
        op.target.put(&mut out);
    }
    g.graph.edges.put(&mut out);
    g.graph.ext_inputs.put(&mut out);
    g.graph.ext_outputs.put(&mut out);
    fnv(&out)
}

/// A stage of one operator's chain: its key, and its product when the
/// plan's fetch has it.
type Staged<T> = (StageKey, Option<Arc<T>>);

/// A stage's product in hand, and whether the store served it.
type Got<T> = (Arc<T>, bool);

/// Products a farm job computed, filed once the round is over.
type Filed = Vec<(StageKey, StageProduct)>;

/// A stage's product: the one the plan fetched, or `run`'s, queued in
/// `filed` under the stage's key.
fn fetched_or<T>(
    (key, fetched): Staged<T>,
    filed: &mut Filed,
    file: fn(Arc<T>) -> StageProduct,
    run: impl FnOnce() -> Result<T, CompileError>,
) -> Result<Got<T>, CompileError> {
    if let Some(p) = fetched {
        return Ok((p, true));
    }
    let p = Arc::new(run()?);
    filed.push((key, file(p.clone())));
    Ok((p, false))
}

/// The `HlsLower` stage: `op`'s netlist as fetched, or its kernel lowered now.
fn lower(
    op: &dfg::OperatorInst,
    hls: Staged<HlsProduct>,
    filed: &mut Filed,
) -> Result<Got<HlsProduct>, CompileError> {
    fetched_or(hls, filed, StageProduct::Hls, || {
        let out = hlsim::compile(&op.kernel).map_err(|error| CompileError::Hls {
            op: op.name.clone(),
            error,
        })?;
        Ok(HlsProduct::new(out.netlist, out.report))
    })
}

/// The `SoftcoreCc` stage: `op`'s kernel compiled for the softcore.
fn compile_soft(op: &dfg::OperatorInst) -> Result<SoftProduct, CompileError> {
    let binary = softcore::compile_kernel(&op.kernel).map_err(|error| CompileError::Softcore {
        op: op.name.clone(),
        error,
    })?;
    Ok(SoftProduct { binary })
}

/// Packs a softcore binary as operator `at`'s page image.
fn pack_soft(at: &OpInputs<'_>, binary: &softcore::SoftBinary) -> Xclbin {
    let packed = binary.pack(at.page.0);
    let bytes: Vec<u8> = packed.records.iter().flat_map(|r| &r.1).copied().collect();
    Xclbin {
        name: format!("{}.elf.xclbin", at.op.name),
        hash: fnv(&bytes),
        kind: XclbinKind::Softcore {
            page: at.page,
            binary: packed,
        },
    }
}

/// Packs a placed-and-routed page as its loadable artifact. Constants live in
/// the source, not the structural netlist: artifact identity mixes the
/// operator's source hash in.
fn pack_page(at: &OpInputs<'_>, bitstream: &pnr::Bitstream) -> Xclbin {
    Xclbin {
        name: format!("{}.xclbin", at.op.name),
        kind: XclbinKind::Page {
            page: at.page,
            bitstream: bitstream.clone(),
        },
        hash: bitstream.payload_hash ^ at.src_hash,
    }
}

/// What one graph's plan and farm jobs share.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    options: &'a CompileOptions,
    /// Content hash of the device every P&R and hint key names.
    device: u64,
    /// The previous version of the graph, whose hints warm-start P&R.
    prev: Option<Hashed<'a>>,
}

/// What one operator's stage keys name besides upstream products.
#[derive(Clone, Copy)]
struct OpInputs<'a> {
    op: &'a dfg::OperatorInst,
    kernel: u64,
    target: Target,
    page: PageId,
    rect: Rect,
    /// The build's seed mixed with the operator's name: no two operators of
    /// a build share a `PlaceRoute` key.
    seed: u64,
    src_hash: u64,
}

/// What the P&R probe of a hardware operator found with its netlist in hand.
struct PnrProbe {
    /// The cold `PlaceRoute` key, which a warm run the quality guard
    /// discarded is aliased under.
    plain: StageKey,
    /// The stage: `plain`, or the warm key of `hint`.
    pnr: Staged<PnrProduct>,
    /// Only ever in hand together with `pnr`'s product, whose bitstream keys
    /// it.
    pack: Option<Arc<Xclbin>>,
    /// Warm-start hint; its content hash is already folded into `pnr`'s key.
    hint: Option<Arc<HintsProduct>>,
    /// Whether the probe looked a warm-start hint up.
    hint_fetched: bool,
    /// Where a run files fresh [`StageKind::PnrHints`] for the netlist and
    /// the kernel version (incremental P&R on, none filed there yet).
    hints_now: Vec<StageKey>,
}

/// Probes a hardware operator's P&R and pack with its netlist in hand, so an
/// edit that left the netlist as it was is a hit: the plain key; then, with
/// incremental P&R on, the hints filed for the netlist and for this kernel
/// version, each a pointer to a finished P&R; then a warm start from this
/// version's hint or the previous version's.
fn probe_pnr<C: CacheBackend>(
    store: &mut C,
    cx: &Ctx<'_>,
    at: &OpInputs<'_>,
    netlist: u64,
) -> PnrProbe {
    let (op, rect, device) = (at.op, at.rect, cx.device);
    let place_key = |warm| {
        StageInputs::PlaceRoute {
            netlist,
            rect,
            device,
            seed: at.seed,
            warm,
        }
        .key()
    };
    let hints_key = |of| {
        StageInputs::PnrHints {
            name: op.name.clone(),
            of,
            rect,
            device,
        }
        .key()
    };
    let plain = place_key(None);
    let (mut pnr_key, mut pnr) = (plain, store.fetch_pnr(plain.hash));
    // An already-cached cold stage needs no hint at all.
    let mut hints_now = Vec::new();
    let (mut hint, mut hint_fetched) = (None, false);
    if let (None, true) = (&pnr, cx.options.incremental_pnr) {
        // A hint for different page geometry can never replay.
        let usable = |h: &Arc<HintsProduct>| h.hints().region == rect;
        // The netlist's hint, then this version's own, points at a finished
        // P&R: while that product is there, the stage is a hit. And the
        // first filing stands, so this build files no other.
        let lineage = hints_key(HintOf::Lineage(at.kernel));
        let mut own = None;
        for key in [hints_key(HintOf::Netlist(netlist)), lineage] {
            let filed = store.fetch_hints(key.hash);
            if filed.is_none() {
                hints_now.push(key);
            }
            own = filed.filter(usable);
            pnr = own
                .as_ref()
                .and_then(|h| store.fetch_pnr(h.origin()))
                .filter(|p| p.seed == at.seed);
            if pnr.is_some() {
                break;
            }
        }
        if pnr.is_none() {
            // That product gone (unreadable, or never filed in this store),
            // the version's own layout is the start; an edit starts from
            // what it is an edit *of*.
            hint_fetched = true;
            hint = own.or_else(|| {
                let p = cx.prev?;
                let j = p.graph.operators.iter().position(|o| o.name == op.name)?;
                let before = hints_key(HintOf::Lineage(p.kernels[j]));
                let before = (before != lineage).then(|| store.fetch_hints(before.hash));
                before?.filter(usable)
            });
            if let Some(h) = &hint {
                // Fold the hint's identity into the stage key: a warm product
                // is a function of (netlist, hint), so it must never collide
                // with the cold product.
                pnr_key = place_key(Some(h.content_hash()));
                pnr = store.fetch_pnr(pnr_key.hash);
            }
        }
    }
    // Packing keys on the bitstream: no product, no pack to find.
    let pack = pnr.as_ref().and_then(|p| {
        let pack = StageInputs::page_pack(&p.bitstream, at.page, &op.name, at.src_hash);
        store.fetch_pack(pack.hash)
    });
    PnrProbe {
        plain,
        pnr: (pnr_key, pnr),
        pack,
        hint,
        hint_fetched,
        hints_now,
    }
}

/// The `PlaceRoute` stage: `hls`'s netlist, wrapped in the leaf interface,
/// placed and routed on the operator's page. With a hint it runs warm, and a
/// run the quality guard discarded is also queued under the plain key: the
/// fallback *is* a cold run. The run's hints are queued under the probe's
/// `hints_now`. Returns `Some(fell_back)` for a warm attempt.
fn place_route(
    options: &CompileOptions,
    at: &OpInputs<'_>,
    hls: &HlsProduct,
    probe: &PnrProbe,
    filed: &mut Filed,
) -> Result<(Arc<PnrProduct>, Option<bool>), CompileError> {
    let device = &options.floorplan.device;
    let pnr_error = |error| CompileError::Pnr {
        op: at.op.name.clone(),
        error,
    };
    let wrapped = wrap_with_leaf_interface(hls.netlist());
    let opts = PnrOptions {
        seed: at.seed,
        abstract_shell: true,
        effort: 1.0,
    };
    let (result, cold_work, warm) = match &probe.hint {
        Some(h) => {
            // Warm path: place from the prior layout, rip up and re-route
            // only what the edit moved, guarded against quality loss.
            let (result, wr) = pnr::place_and_route_incremental(
                &wrapped,
                device,
                at.rect,
                &opts,
                h.hints(),
                options.jobs,
            )
            .map_err(pnr_error)?;
            // A surviving warm run records the hint's cold estimate, so
            // fresh_vtime stays a from-scratch figure while work_units is
            // the measured work.
            let cold_work = if wr.fell_back {
                result.work_units
            } else {
                h.hints().work_units.max(result.work_units)
            };
            (result, cold_work, Some(wr.fell_back))
        }
        None => {
            let result =
                pnr::place_and_route(&wrapped, device, at.rect, &opts).map_err(pnr_error)?;
            let cold_work = result.work_units;
            (result, cold_work, None)
        }
    };
    let p = Arc::new(PnrProduct {
        bitstream: result.bitstream.clone(),
        timing: result.timing.clone(),
        work_units: result.work_units,
        wrapped_cells: wrapped.cell_count() as u64,
        seed: at.seed,
        cold_work,
    });
    if warm == Some(true) {
        // A later hint-less rebuild is a hit.
        filed.push((probe.plain, StageProduct::Pnr(p.clone())));
    }
    if !probe.hints_now.is_empty() {
        let mut fresh = pnr::extract_hints(&wrapped, at.rect, &result);
        fresh.work_units = cold_work;
        let hints = Arc::new(HintsProduct::new(fresh, probe.pnr.0.hash));
        for &key in &probe.hints_now {
            filed.push((key, StageProduct::Hints(hints.clone())));
        }
    }
    filed.push((probe.pnr.0, StageProduct::Pnr(p.clone())));
    Ok((p, warm))
}

/// One operator's stage chain with every product in hand: fetched by the
/// plan, or run by the operator's farm job.
enum Chain {
    /// A hardware operator's netlist and, on its page, the netlist placed
    /// and packed; under `-O3` the netlist alone.
    Hw {
        hls: Got<HlsProduct>,
        page: Option<Placed>,
    },
    Soft {
        soft: Got<SoftProduct>,
        pack: Got<Xclbin>,
    },
}

/// A hardware operator's page: its P&R and pack.
struct Placed {
    pnr: Got<PnrProduct>,
    pack: Got<Xclbin>,
    /// `Some(hit)` when the P&R probe looked a warm-start hint up.
    hint: Option<bool>,
    /// `Some(fell_back)` when the chain attempted a hint-warmed P&R.
    warm: Option<bool>,
}

impl Chain {
    /// Records the chain in `report` — its stages, its from-scratch cost —
    /// and returns what it cost this build: a stage the store served costs
    /// nothing; the bit phase belongs to packing, riscv to the softcore
    /// compile.
    fn account(&self, vt: &VtimeModel, report: &mut BuildReport, name: &str) -> PhaseTimes {
        use StageKind::*;
        let (stages, fresh) = match self {
            Chain::Hw { hls, page: None } => {
                let hls_seconds = vt.hls_seconds(hls.0.report.hls_work);
                let fresh = PhaseTimes {
                    hls: hls_seconds,
                    ..PhaseTimes::default()
                };
                (vec![(HlsLower, hls.1)], fresh)
            }
            Chain::Hw { hls, page: Some(p) } => {
                let pnr = &p.pnr.0;
                let (cells, bits) = (pnr.wrapped_cells, pnr.bitstream.config_bits);
                let fresh = vt.hw_phases(hls.0.report.hls_work, cells, pnr.cold_work, bits);
                let stages = vec![
                    (HlsLower, hls.1),
                    (PlaceRoute, p.pnr.1),
                    (BitstreamPack, p.pack.1),
                ];
                (stages, fresh)
            }
            Chain::Soft { soft, pack } => {
                let fresh = vt.soft_phases(soft.0.binary.load_bytes());
                (vec![(SoftcoreCc, soft.1), (BitstreamPack, pack.1)], fresh)
            }
        };
        let mut executed = fresh;
        for &(kind, hit) in &stages {
            report.record(kind, hit);
            match (hit, kind) {
                (false, _) => {}
                (true, HlsLower | SoftcoreCc) => (executed.hls, executed.riscv) = (0.0, 0.0),
                (true, PlaceRoute) => (executed.syn, executed.pnr) = (0.0, 0.0),
                (true, _) => executed.bit = 0.0,
            }
        }
        let hits = stages.iter().filter(|s| s.1).count() as u64;
        report.operators.push(OperatorStages {
            name: name.to_string(),
            hits,
            executions: stages.len() as u64 - hits,
        });
        if let Chain::Hw { page: Some(p), .. } = self {
            if let Some(hit) = p.hint {
                report.hint_fetches += 1;
                report.hint_hits += hit as u64;
            }
            if let Some(fell_back) = p.warm {
                report.warm_pnr_ops += 1;
                report.warm_fallbacks += fell_back as u64;
                if !fell_back {
                    // A surviving warm run is priced by its own (small)
                    // measured work at the warm fixed cost; the product's
                    // cold work keeps fresh_vtime a from-scratch figure.
                    executed.pnr = vt.pnr_warm_seconds(p.pnr.0.work_units);
                }
            }
        }
        report.fresh_vtime_serial = report.fresh_vtime_serial.add(&fresh);
        report.fresh_vtime_parallel = report.fresh_vtime_parallel.parallel_max(&fresh);
        report.critical_path_seconds = report.critical_path_seconds.max(executed.total());
        executed
    }
}

/// The stages of an operator's chain the plan's fetches left missing.
enum Missing {
    /// A hardware operator's netlist, under its `HlsLower` key: the chain is
    /// lowered, then its P&R probed with the netlist in hand.
    Netlist(StageKey),
    /// A hardware operator's P&R and pack, probed with the fetched netlist.
    Pnr(Arc<HlsProduct>, PnrProbe),
    /// A softcore operator's compile and pack.
    Soft(Staged<SoftProduct>, Staged<Xclbin>),
}

impl Missing {
    /// LPT weight of the missing stages: P&R dominates, then HLS, then
    /// packing. Zero when the plan fetched the whole chain.
    fn weight(&self) -> f64 {
        let miss = |hit: bool, weight: f64| if hit { 0.0 } else { weight };
        match self {
            Missing::Netlist(_) => 1e5 + 1e6 + 1e3,
            Missing::Pnr(_, p) => miss(p.pnr.1.is_some(), 1e6) + miss(p.pack.is_some(), 1e3),
            Missing::Soft(soft, pack) => miss(soft.1.is_some(), 1e4) + miss(pack.1.is_some(), 1e3),
        }
    }
}

/// Runs what `missing` lacks of operator `at`'s chain, queueing the products
/// in `filed`. `probe` probes P&R with a netlist the chain lowered; a chain
/// whose every stage was fetched runs nothing.
fn run_chain(
    options: &CompileOptions,
    at: &OpInputs<'_>,
    missing: Missing,
    filed: &mut Filed,
    probe: impl FnOnce(u64) -> PnrProbe,
) -> Result<Chain, CompileError> {
    let (hls, mut probe) = match missing {
        Missing::Soft(soft, pack) => {
            let soft = fetched_or(soft, filed, StageProduct::Soft, || compile_soft(at.op))?;
            let pack = fetched_or(pack, filed, StageProduct::Pack, || {
                Ok(pack_soft(at, &soft.0.binary))
            })?;
            return Ok(Chain::Soft { soft, pack });
        }
        Missing::Netlist(key) => {
            let hls = lower(at.op, (key, None), filed)?;
            let probe = probe(hls.0.netlist_hash());
            (hls, probe)
        }
        Missing::Pnr(hls, probe) => ((hls, true), probe),
    };
    let hint = probe.hint_fetched.then_some(probe.hint.is_some());
    let (pnr, warm) = match probe.pnr.1.take() {
        Some(p) => ((p, true), None),
        None => {
            let (p, warm) = place_route(options, at, &hls.0, &probe, filed)?;
            ((p, false), warm)
        }
    };
    let pack_key = StageInputs::page_pack(&pnr.0.bitstream, at.page, &at.op.name, at.src_hash);
    let pack = fetched_or((pack_key, probe.pack), filed, StageProduct::Pack, || {
        Ok(pack_page(at, &pnr.0.bitstream))
    })?;
    let page = Some(Placed {
        pnr,
        pack,
        hint,
        warm,
    });
    Ok(Chain::Hw { hls, page })
}

/// What one job of a build's first farm round runs.
enum Job<'a> {
    /// The rest of a paged operator's chain.
    Chain(Ctx<'a>, OpInputs<'a>, Missing),
    /// An `-O3` operator's netlist: that chain is its `HlsLower` stage.
    Lower(&'a dfg::OperatorInst, StageKey),
}

/// A farm job's outcome as a build's result: a panic is
/// [`CompileError::JobPanicked`] for `op`; any other failure is the job's own
/// (a routing failure is already the job's [`CompileError::Pnr`]).
pub(crate) fn settle<T>(
    op: &str,
    outcome: farm::JobOutcome<Result<T, CompileError>>,
) -> Result<T, CompileError> {
    let op = op.to_string();
    (outcome.result).map_err(|message| CompileError::JobPanicked { op, message })?
}

/// One farm round of `jobs` — each `(graph, name, LPT cost, job)` —
/// longest first. Each outcome is settled under its name and handed to its
/// graph's plan with the job's wall seconds; a failure becomes the plan's
/// error unless it has one already.
fn round<'a, T: Send, F>(
    plans: &mut [Plan<'a>],
    jobs: Vec<(usize, &str, f64, F)>,
    lanes: usize,
    mut done: impl FnMut(&mut Plan<'a>, T, f64),
) where
    F: FnOnce() -> Result<T, CompileError> + Send,
{
    let (heads, jobs): (Vec<_>, Vec<_>) = (jobs.into_iter())
        .map(|(g, name, cost, job)| ((g, name), (cost, job)))
        .unzip();
    for ((g, name), outcome) in heads.into_iter().zip(farm::run_jobs_lpt(jobs, lanes)) {
        let wall_seconds = outcome.wall_seconds;
        match settle(name, outcome) {
            Ok(product) => done(&mut plans[g], product, wall_seconds),
            Err(e) => {
                plans[g].error.get_or_insert(e);
            }
        }
    }
}

/// Hashes one build of an app leaves for the next build of it, which copies
/// them where its input is equal instead of encoding it again.
#[derive(Default)]
pub(crate) struct Memo {
    /// The source graph's `KpnOptimize` input hash. Valid for the source the
    /// caller last built: the caller clears it when the source changes.
    pub(crate) graph_hash: Option<u64>,
    /// The `KpnOptimize` product the last build used: an optimizer rerun
    /// copies the hashes of the kernels it rewrote to the same code.
    pub(crate) opt: Option<Arc<OptProduct>>,
}

/// One graph to build, its kernels hashed; its previous version, whose
/// [`StageKind::PnrHints`] warm-start P&R with
/// [`CompileOptions::incremental_pnr`] on (matched by operator name, so an
/// operator the KPN optimizer renamed runs cold: hints are an optimization
/// input, never a correctness input); and the memo of that version's build,
/// left holding this one's.
pub(crate) type Source<'a> = (Hashed<'a>, Option<Hashed<'a>>, &'a mut Memo);

/// The `KpnOptimize` stage, run first and on the caller: keyed on (source
/// graph, resolved config), so every per-kernel stage keys on the
/// *optimized* kernels, whose hashes the product carries — fused/split
/// operators cache like hand-written ones. A product run now comes back
/// queued for filing.
fn optimize<C: CacheBackend>(
    source: Hashed<'_>,
    memo: &mut Memo,
    options: &CompileOptions,
    store: &mut C,
) -> (Option<Got<OptProduct>>, Filed) {
    let mut filed = Vec::new();
    let Some(cfg) = &options.optimize else {
        return (None, filed);
    };
    let config = resolve_optimizer(cfg, &options.floorplan);
    let key = StageInputs::KpnOptimize {
        graph: *memo.graph_hash.get_or_insert_with(|| graph_hash(source)),
        config: config.clone(),
    }
    .key();
    let opt = match store.fetch_opt(key.hash) {
        Some(p) => (p, true),
        None => {
            let out = dfg::opt::optimize(source.graph, &config);
            let summary = OptSummary {
                fused: out.report.fused,
                fissioned: out.report.fissioned,
                balance_before: out.report.balance_before,
                balance_after: out.report.balance_after,
            };
            let p = Arc::new(OptProduct::new(out.graph, summary, memo.opt.as_deref()));
            filed.push((key, StageProduct::Opt(p.clone())));
            (p, false)
        }
    };
    memo.opt = Some(opt.0.clone());
    (Some(opt), filed)
}

/// Clamps an optimizer config to what the floorplan can host: no more
/// operators than pages, and per-operator arrays no larger than the
/// smallest page's BRAM.
fn resolve_optimizer(
    cfg: &dfg::OptimizerConfig,
    floorplan: &fabric::Floorplan,
) -> dfg::OptimizerConfig {
    let mut resolved = cfg.clone();
    resolved.max_operators = resolved.max_operators.min(floorplan.pages.len().max(1));
    let bram = floorplan.min_page_bram_bits();
    if bram > 0 {
        resolved.page_array_bits = resolved.page_array_bits.min(bram);
    }
    resolved
}

/// One graph's build: planned against the shared store, completed by the
/// farm rounds, and filed once they are over.
struct Plan<'a> {
    cx: Ctx<'a>,
    /// The graph compiled: the source, or the optimizer's rewrite of it.
    built: Hashed<'a>,
    opt: Option<Got<OptProduct>>,
    /// Each operator's page and stage inputs, in operator order: empty under
    /// `-O3`, where no operator has a page.
    ops: Vec<OpInputs<'a>>,
    /// The chains in hand: the operator's index, its chain, and its job's
    /// wall seconds.
    chains: Vec<(usize, Chain, f64)>,
    /// The `-O3` second round's design.
    kernel: Option<(MonolithicInfo, pnr::Bitstream)>,
    /// Products to file once the rounds are over, in operator order.
    filed: Filed,
    /// The first failure, in operator order.
    error: Option<CompileError>,
}

/// Plans graph `g` by fetch: one fetch per stage of every operator's chain,
/// and a hit is the product in hand. A hardware operator's P&R keys on its
/// netlist, so the plan probes it only with the netlist fetched. Whatever a
/// fetch cannot serve — never built, or unreadable on disk — is a miss, and
/// the operator gets one farm job in `jobs` that runs the rest of its chain.
/// Under `-O3` every chain is the `HlsLower` stage alone.
fn plan<'a, C: CacheBackend>(
    g: usize,
    plan: &mut Plan<'a>,
    store: &mut C,
    jobs: &mut Vec<(usize, usize, f64, Job<'a>)>,
) {
    let (cx, built) = (plan.cx, plan.built);
    let options = cx.options;
    let graph = built.graph;
    if options.level == OptLevel::O3 {
        for (i, (op, &kernel)) in graph.operators.iter().zip(built.kernels).enumerate() {
            let key = StageInputs::HlsLower { kernel }.key();
            match store.fetch_hls(key.hash) {
                Some(hls) => {
                    let hls = (hls, true);
                    plan.chains.push((i, Chain::Hw { hls, page: None }, 0.0));
                }
                None => {
                    let cost = 1e5 + debug_len(&op.kernel) as f64;
                    jobs.push((g, i, cost, Job::Lower(op, key)));
                }
            }
        }
        return;
    }
    let force_riscv = options.level == OptLevel::O0;
    let pages = match assign_pages(graph, &options.floorplan, force_riscv) {
        Ok(pages) => pages,
        Err(e) => return plan.error = Some(e),
    };
    for (i, ((op, &kernel), &(target, page))) in graph
        .operators
        .iter()
        .zip(built.kernels)
        .zip(&pages)
        .enumerate()
    {
        let at = OpInputs {
            op,
            kernel,
            target,
            page,
            rect: options.floorplan.pages[page.0 as usize].rect,
            seed: options.seed ^ fnv(op.name.as_bytes()),
            src_hash: source_hash(kernel, target),
        };
        plan.ops.push(at);
        let missing = match target {
            Target::Hw { .. } => {
                let key = StageInputs::HlsLower { kernel }.key();
                match store.fetch_hls(key.hash) {
                    Some(hls) => {
                        let probe = probe_pnr(store, &cx, &at, hls.netlist_hash());
                        Missing::Pnr(hls, probe)
                    }
                    None => Missing::Netlist(key),
                }
            }
            Target::Riscv { .. } => {
                let soft = StageInputs::SoftcoreCc { kernel }.key();
                let pack = StageInputs::SoftPack {
                    binary: soft.hash,
                    page,
                    name: op.name.clone(),
                }
                .key();
                let pack = (pack, store.fetch_pack(pack.hash));
                Missing::Soft((soft, store.fetch_soft(soft.hash)), pack)
            }
        };
        match missing.weight() {
            // A chain the plan fetched whole runs nothing.
            0.0 => {
                let probe = |netlist| probe_pnr(store, &cx, &at, netlist);
                match run_chain(options, &at, missing, &mut Vec::new(), probe) {
                    Ok(chain) => plan.chains.push((i, chain, 0.0)),
                    Err(e) => {
                        plan.error.get_or_insert(e);
                    }
                }
            }
            // Only an operator with work to do pays for the walk over its
            // kernel's source text, which breaks LPT ties.
            weight => {
                let cost = weight + debug_len(&op.kernel) as f64;
                jobs.push((g, i, cost, Job::Chain(cx, at, missing)));
            }
        }
    }
}

/// Assembles one graph's app from the chains in hand, deriving both the
/// executed and the from-scratch virtual times from the stored work
/// measures. Returns it with the products the graph's build queued for
/// filing, a failed build's included.
fn finish<C: CacheBackend>(
    plan: Plan<'_>,
    t0: Instant,
    store: &mut C,
) -> (Result<(CompiledApp, BuildReport), CompileError>, Filed) {
    if let Some(e) = plan.error {
        return (Err(e), plan.filed);
    }
    let (options, built, ops, mut filed) = (plan.cx.options, plan.built, plan.ops, plan.filed);
    let graph = built.graph;
    let vt = &options.vtime;
    let mut report = BuildReport::default();
    let mut artifacts = Vec::new();
    if options.level != OptLevel::O3 {
        artifacts.push(Xclbin {
            name: "overlay.xclbin".into(),
            kind: XclbinKind::Overlay,
            hash: 0,
        });
    }
    let mut operators = Vec::with_capacity(graph.operators.len());
    let [mut serial, mut parallel] = [PhaseTimes::default(); 2];
    for (i, chain, wall_seconds) in plan.chains {
        let op = &graph.operators[i];
        let executed = chain.account(vt, &mut report, &op.name);
        serial = serial.add(&executed);
        parallel = parallel.parallel_max(&executed);

        let (hls, timing, soft, pack) = match chain {
            Chain::Hw { hls, page } => {
                let timing = page.as_ref().map(|p| p.pnr.0.timing.clone());
                let report = Some(hls.0.report.clone());
                (report, timing, None, page.map(|p| p.pack.0))
            }
            Chain::Soft { soft, pack } => (None, None, Some(soft.0.binary.clone()), Some(pack.0)),
        };
        let artifact = pack.map(|pack| {
            artifacts.push(Xclbin::clone(&pack));
            artifacts.len() - 1
        });
        // An `-O3` operator has no page, and its HLS stage is priced in the
        // app's times alone.
        let (target, page, source_hash, vtime) = match ops.get(i) {
            Some(at) => (at.target, Some(at.page), at.src_hash, executed),
            None => {
                let src_hash = source_hash(built.kernels[i], op.target);
                (op.target, None, src_hash, PhaseTimes::default())
            }
        };
        operators.push(CompiledOperator {
            name: op.name.clone(),
            target,
            page,
            artifact,
            hls,
            timing,
            soft,
            vtime,
            wall_seconds,
            source_hash,
        });
    }

    let ir = extract(graph);
    let (driver, monolithic) = match plan.kernel {
        // The monolithic synthesis, P&R and bitgen always run: they have no
        // separately reusable parts, exactly the paper's complaint.
        Some((info, bitstream)) => {
            let mono = PhaseTimes {
                syn: vt.syn_seconds(info.netlist.cell_count() as u64),
                pnr: vt.pnr_seconds(info.work_units),
                bit: vt.bit_seconds(bitstream.config_bits),
                ..PhaseTimes::default()
            };
            serial = serial.add(&mono);
            parallel = serial;
            let fresh = report.fresh_vtime_serial.add(&mono);
            (report.fresh_vtime_serial, report.fresh_vtime_parallel) = (fresh, fresh);
            report.critical_path_seconds = serial.total();
            report.record(StageKind::PlaceRoute, false);
            report.record(StageKind::BitstreamPack, false);
            artifacts.push(Xclbin {
                name: "kernel.xclbin".into(),
                hash: bitstream.payload_hash,
                kind: XclbinKind::Kernel { bitstream },
            });
            let loads = vec![LoadOp::PageBitstream { artifact: 0 }];
            let driver = Driver {
                loads,
                links: Vec::new(),
            };
            (driver, Some(info))
        }
        // The app-wide link/driver stage: keyed on the dataflow IR, the page
        // map, and every artifact's content hash.
        None => {
            let pages: Vec<_> = ops.iter().map(|at| (at.target, at.page)).collect();
            let n_pages = options.floorplan.pages.len() as u16;
            let driver_key = StageInputs::LinkDriver {
                ir: fnv(&codec::encode(&ir)),
                pages: n_pages,
                placed: (pages.iter().zip(&artifacts[1..]))
                    .map(|(&(_, page), artifact)| (page, artifact.hash))
                    .collect(),
            }
            .key();
            let fetched = store.fetch_driver(driver_key.hash);
            report.record(StageKind::LinkDriver, fetched.is_some());
            let driver = fetched.unwrap_or_else(|| {
                let d = Arc::new(build_driver(&ir, &pages, &artifacts, n_pages));
                filed.push((driver_key, StageProduct::Driver(d.clone())));
                d
            });
            (Driver::clone(&driver), None)
        }
    };

    let opt = plan.opt.map(|(p, hit)| {
        report.record(StageKind::KpnOptimize, hit);
        p.summary.clone()
    });
    let app = CompiledApp {
        graph: graph.clone(),
        level: options.level,
        floorplan: options.floorplan.clone(),
        operators,
        artifacts,
        driver,
        ir,
        monolithic,
        vtime_serial: serial,
        vtime_parallel: parallel,
        wall_seconds: t0.elapsed().as_secs_f64(),
        opt,
    };
    (Ok((app, report)), filed)
}

/// The one build driver (see the [module docs](self)), its rounds on `lanes`
/// lanes. A job's P&R probes go through the store under a mutex; once the
/// rounds are over, each graph's products are filed in (graph, operator)
/// order, a failed graph's healthy chains included. Results come back in
/// `sources` order; a graph's error is its first failed operator's.
pub(crate) fn build_graphs<C: CacheBackend>(
    sources: Vec<Source<'_>>,
    options: &CompileOptions,
    store: &mut C,
    lanes: usize,
) -> Vec<Result<(CompiledApp, BuildReport), CompileError>> {
    let t0 = Instant::now();
    let device = fnv(&codec::encode(&options.floorplan.device));
    let optimized: Vec<_> = (sources.into_iter())
        .map(|(source, prev, memo)| (source, prev, optimize(source, memo, options, store)))
        .collect();
    let mut jobs = Vec::new();
    let mut plans: Vec<_> = (optimized.iter().enumerate())
        .map(|(g, (source, prev, (opt, filed)))| {
            let built = opt.as_ref().map_or(*source, |(p, _)| Hashed {
                graph: p.graph(),
                kernels: p.kernel_hashes(),
            });
            let mut p = Plan {
                cx: Ctx {
                    options,
                    device,
                    prev: *prev,
                },
                built,
                opt: opt.clone(),
                ops: Vec::new(),
                chains: Vec::new(),
                kernel: None,
                filed: filed.clone(),
                error: None,
            };
            plan(g, &mut p, store, &mut jobs);
            p
        })
        .collect();

    // The first round: every job runs its operator's whole chain. The keys
    // past the front of a chain are the operator's own, and no job files
    // anything while the round runs, so a job's fetches see what the plan's
    // saw.
    {
        let shared = Mutex::new(&mut *store);
        let probe = |cx: &Ctx<'_>, at: &OpInputs<'_>, netlist| {
            // A fetch files at most one whole product in a faster tier, so a
            // job that panicked mid-fetch leaves the store valid.
            let mut store = shared.lock().unwrap_or_else(PoisonError::into_inner);
            probe_pnr(&mut **store, cx, at, netlist)
        };
        let jobs = (jobs.into_iter())
            .map(|(g, i, cost, job)| {
                let name = plans[g].built.graph.operators[i].name.as_str();
                let job = move || {
                    let mut filed = Vec::new();
                    let chain = match job {
                        Job::Chain(cx, at, missing) => {
                            run_chain(options, &at, missing, &mut filed, |n| probe(&cx, &at, n))?
                        }
                        Job::Lower(op, key) => Chain::Hw {
                            hls: lower(op, (key, None), &mut filed)?,
                            page: None,
                        },
                    };
                    Ok((i, chain, filed))
                };
                (g, name, cost, job)
            })
            .collect();
        round(&mut plans, jobs, lanes, |plan, (i, chain, filed), wall| {
            plan.filed.extend(filed);
            plan.chains.push((i, chain, wall));
        });
    }
    for plan in &mut plans {
        plan.chains.sort_by_key(|&(i, ..)| i);
    }

    // The second round, `-O3` only: each graph's netlists stitched with
    // hardware FIFOs (the kernel generator of Fig. 7) and placed and routed
    // as one design, one job per graph.
    if options.level == OptLevel::O3 {
        let jobs = (plans.iter().enumerate())
            .filter(|(_, plan)| plan.error.is_none())
            .map(|(g, plan)| {
                let netlists: Vec<_> = (plan.chains.iter())
                    .filter_map(|(_, chain, _)| match chain {
                        Chain::Hw { hls, .. } => Some(hls.0.clone()),
                        Chain::Soft { .. } => None,
                    })
                    .collect();
                let cost: usize = netlists.iter().map(|h| h.netlist().cell_count()).sum();
                let graph = plan.built.graph;
                let job = move || monolithic(graph, netlists.iter().map(|h| h.netlist()), options);
                (g, graph.name.as_str(), cost as f64, job)
            })
            .collect();
        round(&mut plans, jobs, lanes, |plan, kernel, _| {
            plan.kernel = Some(kernel);
        });
    }

    let mut results = Vec::with_capacity(plans.len());
    let mut filed = Vec::new();
    for plan in plans {
        let (result, products) = finish(plan, t0, store);
        results.push(result);
        filed.extend(products);
    }
    for (key, product) in filed {
        store.put(key, product);
    }
    results
}

/// Compiles a graph by materializing its stage DAG against `store` — any
/// [`CacheBackend`]: the bare in-memory [`crate::ArtifactStore`], or a persistent
/// [`crate::cache::TieredCache`] shared across processes.
///
/// Stages whose keys are present in the store are reused (a *hit*); missing
/// stages are executed on the build farm, longest-first, and their products
/// filed back. With an empty store this is exactly a fresh [`crate::compile`]
/// — same artifacts, same hashes, same virtual times. The returned
/// [`BuildReport`] says what ran and what the critical path cost.
///
/// The compiled app's `vtime` fields charge only the stages that executed
/// (reused work costs nothing this build); the report's `fresh_vtime_*`
/// fields carry the from-scratch cost for comparison.
///
/// # Errors
///
/// See [`CompileError`].
pub fn build<C: CacheBackend + Send>(
    graph: &Graph,
    options: &CompileOptions,
    store: &mut C,
) -> Result<(CompiledApp, BuildReport), CompileError> {
    build_batch(std::slice::from_ref(graph), options, store, options.jobs).swap_remove(0)
}

/// Compiles a batch of graphs together on the build farm — the
/// admission-compile path of a serving fleet, where many tenants' apps
/// arrive at once. Every graph is planned against the warm `store`, the
/// missing stages of all of them run in one farm round on `workers` lanes,
/// and the new products are filed afterwards: each graph builds against the
/// store as it stood before the batch, exactly as a lone [`build`] would.
/// Results come back in input order. A failed or panicked stage is its
/// graph's error ([`CompileError::JobPanicked`] for a panic) without sinking
/// the rest of the batch.
pub fn build_batch<C: CacheBackend>(
    graphs: &[Graph],
    options: &CompileOptions,
    store: &mut C,
    workers: usize,
) -> Vec<Result<(CompiledApp, BuildReport), CompileError>> {
    let kernels: Vec<_> = graphs.iter().map(|g| kernel_hashes(g, None)).collect();
    let mut memos: Vec<_> = graphs.iter().map(|_| Memo::default()).collect();
    let sources = (graphs.iter().zip(&kernels).zip(&mut memos))
        .map(|((graph, kernels), memo)| (Hashed { graph, kernels }, None, memo))
        .collect();
    build_graphs(sources, options, store, workers)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Key derivation, value for value: one fixed record of every
    /// [`StageInputs`] shape keys to the hash it did when format v8 was
    /// introduced. A change to a field list, a tag or an input's encoding
    /// moves this, and so must [`crate::cache::disk::FORMAT_VERSION`].
    #[test]
    fn input_record_keys_are_pinned() {
        let (rect, page, name) = (Rect::new(2, 0, 10, 10), PageId(3), || "op".to_string());
        let place = |warm| StageInputs::PlaceRoute {
            netlist: 1,
            rect,
            device: 2,
            seed: 3,
            warm,
        };
        let hints = |of| StageInputs::PnrHints {
            name: name(),
            of,
            rect,
            device: 2,
        };
        let records = [
            StageInputs::KpnOptimize {
                graph: 1,
                config: dfg::OptimizerConfig::default(),
            },
            StageInputs::HlsLower { kernel: 1 },
            StageInputs::SoftcoreCc { kernel: 1 },
            hints(HintOf::Lineage(1)),
            hints(HintOf::Netlist(1)),
            place(None),
            place(Some(1)),
            StageInputs::PagePack {
                region: rect,
                payload: 1,
                page,
                name: name(),
                source: 2,
            },
            StageInputs::SoftPack {
                binary: 1,
                page,
                name: name(),
            },
            StageInputs::LinkDriver {
                ir: 1,
                pages: 22,
                placed: vec![(page, 1)],
            },
        ];
        let keys: Vec<StageKey> = records.iter().map(StageInputs::key).collect();
        use StageKind::*;
        let pinned = [
            (KpnOptimize, 0xf9c7_e698_a254_22a5),
            (HlsLower, 0x7194_f3e5_9ae4_7dcd),
            (SoftcoreCc, 0xedde_65ec_42d6_cbc4),
            (PnrHints, 0x3e94_a8d1_6b44_32a4),
            (PnrHints, 0x8584_4f8b_dff2_15b3),
            (PlaceRoute, 0x288f_a619_eae9_08a3),
            (PlaceRoute, 0x528d_c58a_890a_8f11),
            (BitstreamPack, 0xe747_c8c7_a1b1_8567),
            (BitstreamPack, 0x7bac_1522_c06c_3786),
            (LinkDriver, 0x0e96_7be8_f02d_e532),
        ];
        assert_eq!(keys, pinned.map(|(kind, hash)| kind.key(hash)));
        // A lineage's hint and a netlist's of the same `u64`, and a cold and
        // a warm run of the same inputs, never share a key.
        assert_ne!(keys[3], keys[4]);
        assert_ne!(keys[5], keys[6]);
    }
}
