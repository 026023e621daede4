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
//! The plan fetches every stage it can key, and each operator whose chain
//! misses a stage becomes one farm job that runs the rest of the chain: HLS
//! (then, with the netlist in hand, the P&R probe) or the softcore compile,
//! then P&R and packing. The jobs run in one round, submitted longest-first
//! (LPT list scheduling) so the slowest page compile starts immediately —
//! the paper's Sec. 6.2 observation that parallel compile time "is
//! determined by the longest individual one" made concrete.
//! [`crate::compile`] (with an ephemeral store), [`crate::BuildCache`] (a
//! persistent store), and `pld-runtime`'s hot swap are all thin drivers over
//! [`build`].

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use dfg::{extract, Graph, Target};
use fabric::{PageId, Rect};
use pnr::PnrOptions;

use kir::hash::debug_len;

use crate::artifact::{Driver, Xclbin, XclbinKind};
use crate::cache::CacheBackend;
use crate::codec::{self, codec_enum, Codec};
use crate::farm;
use crate::flow::{
    assign_pages, build_driver, compile_monolithic, fnv, source_hash, wrap_with_leaf_interface,
    CompileError, CompileOptions, CompiledApp, CompiledOperator, OptLevel, OptSummary,
};
use crate::store::{
    HintsProduct, HlsProduct, OptProduct, PnrProduct, SoftProduct, StageKey, StageKind,
    StageProduct,
};
use crate::vtime::PhaseTimes;

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
pub(crate) type Filed = Vec<(StageKey, StageProduct)>;

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
pub(crate) fn lower(
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

/// What one paged build's plan and farm jobs share.
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
    Hw {
        hls: Got<HlsProduct>,
        pnr: Got<PnrProduct>,
        pack: Got<Xclbin>,
        /// `Some(hit)` when the P&R probe looked a warm-start hint up.
        hint: Option<bool>,
        /// `Some(fell_back)` when the chain attempted a hint-warmed P&R.
        warm: Option<bool>,
    },
    Soft {
        soft: Got<SoftProduct>,
        pack: Got<Xclbin>,
    },
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
    Ok(Chain::Hw {
        hls,
        pnr,
        pack,
        hint,
        warm,
    })
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
    let kernels = kernel_hashes(graph, None);
    let source = Hashed {
        graph,
        kernels: &kernels,
    };
    build_with_prev(source, None, &mut Memo::default(), options, store)
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

/// [`build`] for a graph whose kernels are already hashed, given the
/// *previous* version of the graph as warm-start context. With
/// [`CompileOptions::incremental_pnr`] on, a hardware operator whose netlist
/// has no `PlaceRoute` product yet probes the [`StageKind::PnrHints`] filed
/// when the previous version of that operator was placed and, on a hit,
/// warm-starts from it (see [`pnr::place_and_route_incremental`]). `prev` is
/// matched by operator name against the graph as supplied; when the KPN
/// optimizer rewrites operator names the probe simply misses and the stage
/// runs cold — hints are an optimization input, never a correctness input.
/// `memo` holds what the previous build hashed, and is left holding this
/// build's.
pub(crate) fn build_with_prev<C: CacheBackend + Send>(
    source: Hashed<'_>,
    prev: Option<Hashed<'_>>,
    memo: &mut Memo,
    options: &CompileOptions,
    store: &mut C,
) -> Result<(CompiledApp, BuildReport), CompileError> {
    let t0 = std::time::Instant::now();
    // The optimizer runs first, as its own content-addressed stage: keyed on
    // (source graph, resolved config), so recompiles of an unchanged app
    // reuse the rewritten graph, and every per-kernel stage below keys on
    // the *optimized* kernels — fused/split operators cache like
    // hand-written ones. The product carries those kernels' hashes.
    let optimized = options.optimize.as_ref().map(|cfg| {
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
                store.put(key, StageProduct::Opt(p.clone()));
                (p, false)
            }
        };
        memo.opt = Some(opt.0.clone());
        opt
    });
    let built = optimized.as_ref().map_or(source, |(p, _)| Hashed {
        graph: p.graph(),
        kernels: p.kernel_hashes(),
    });

    let ir = extract(built.graph);
    let (mut app, mut report) = match options.level {
        OptLevel::O3 => {
            let mut report = BuildReport::default();
            let app = compile_monolithic(built, ir, options, t0, store, &mut report)?;
            (app, report)
        }
        OptLevel::O0 | OptLevel::O1 => build_paged(built, prev, ir, options, t0, store)?,
    };
    if let Some((p, hit)) = optimized {
        report.record(StageKind::KpnOptimize, hit);
        app.opt = Some(p.summary.clone());
    }
    Ok((app, report))
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

fn build_paged<C: CacheBackend + Send>(
    built: Hashed<'_>,
    prev: Option<Hashed<'_>>,
    ir: dfg::DfgIr,
    options: &CompileOptions,
    t0: std::time::Instant,
    store: &mut C,
) -> Result<(CompiledApp, BuildReport), CompileError> {
    let graph = built.graph;
    let force_riscv = options.level == OptLevel::O0;
    let pages = assign_pages(graph, &options.floorplan, force_riscv)?;
    let cx = Ctx {
        options,
        device: fnv(&codec::encode(&options.floorplan.device)),
        prev,
    };
    let mut report = BuildReport::default();

    // Plan by fetch: one fetch per stage of every operator's chain, and a
    // hit is the product in hand. A hardware operator's P&R keys on its
    // netlist, so the plan probes it only with the netlist fetched. Whatever
    // a fetch cannot serve — never built, or unreadable on disk — is a miss,
    // and the operator gets one farm job that runs the rest of its chain.
    let mut chains = Vec::with_capacity(graph.operators.len());
    let mut jobs = Vec::new();
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
            0.0 => {
                let chain = run_chain(options, &at, missing, &mut Vec::new(), |netlist| {
                    probe_pnr(store, &cx, &at, netlist)
                })?;
                chains.push((i, at, chain, 0.0));
            }
            // Only an operator with work to do pays for the walk over its
            // kernel's source text, which breaks LPT ties.
            weight => jobs.push((i, at, weight + debug_len(&op.kernel) as f64, missing)),
        }
    }

    // One round: every job runs its operator's whole chain, longest first.
    // No job files anything while the round runs, and the keys past the
    // front of a chain are the operator's own, so a job's fetches see what
    // the plan's saw.
    let heads: Vec<_> = jobs.iter().map(|&(i, at, ..)| (i, at)).collect();
    let outcomes = {
        let shared = Mutex::new(&mut *store);
        let probe = |at: &OpInputs<'_>, netlist| {
            // A fetch files at most one whole product in a faster tier, so a
            // job that panicked mid-fetch leaves the store valid.
            let mut store = shared.lock().unwrap_or_else(PoisonError::into_inner);
            probe_pnr(&mut **store, &cx, at, netlist)
        };
        let jobs = jobs
            .into_iter()
            .map(|(_, at, cost, missing)| {
                let job = move || {
                    let mut filed = Vec::new();
                    let chain = run_chain(options, &at, missing, &mut filed, |n| probe(&at, n))?;
                    Ok::<_, CompileError>((chain, filed))
                };
                (cost, job)
            })
            .collect();
        farm::run_jobs_lpt(jobs, options.jobs)
    };
    // File every finished chain's products, in operator order; the first
    // failed operator's error is the build's.
    let mut error = None;
    for ((i, at), outcome) in heads.into_iter().zip(outcomes) {
        let done = outcome.result.map_err(|message| CompileError::JobPanicked {
            op: at.op.name.clone(),
            message,
        });
        match done.and_then(|done| done) {
            Ok((chain, filed)) => {
                for (key, product) in filed {
                    store.put(key, product);
                }
                chains.push((i, at, chain, outcome.wall_seconds));
            }
            Err(e) => {
                error.get_or_insert(e);
            }
        }
    }
    if let Some(e) = error {
        return Err(e);
    }
    chains.sort_by_key(|&(i, ..)| i);

    // Materialize: assemble the app from the chains in hand, and derive both
    // the executed and the from-scratch virtual times from the stored work
    // measures.
    let vt = &options.vtime;
    let mut artifacts = vec![Xclbin {
        name: "overlay.xclbin".into(),
        kind: XclbinKind::Overlay,
        hash: 0,
    }];
    let mut operators = Vec::with_capacity(graph.operators.len());
    let mut serial = PhaseTimes::default();
    let mut parallel = PhaseTimes::default();
    let mut fresh_serial = PhaseTimes::default();
    let mut fresh_parallel = PhaseTimes::default();
    let mut critical = 0.0f64;

    for (_, at, chain, wall_seconds) in chains {
        let mut warm_pnr_seconds = None;
        let (front_hit, pnr_hit, pack, hls, timing, soft, fresh) = match chain {
            Chain::Hw {
                hls,
                pnr,
                pack,
                hint,
                warm,
            } => {
                report.record(StageKind::HlsLower, hls.1);
                report.record(StageKind::PlaceRoute, pnr.1);
                if let Some(hit) = hint {
                    report.hint_fetches += 1;
                    report.hint_hits += hit as u64;
                }
                if let Some(fell_back) = warm {
                    report.warm_pnr_ops += 1;
                    if fell_back {
                        report.warm_fallbacks += 1;
                    } else {
                        // A surviving warm run is priced by its own (small)
                        // measured work at the warm fixed cost; the
                        // product's cold work keeps fresh_vtime a
                        // from-scratch figure.
                        warm_pnr_seconds = Some(vt.pnr_warm_seconds(pnr.0.work_units));
                    }
                }
                let fresh = vt.hw_phases(
                    hls.0.report.hls_work,
                    pnr.0.wrapped_cells,
                    pnr.0.cold_work,
                    pnr.0.bitstream.config_bits,
                );
                let (report, timing) = (hls.0.report.clone(), pnr.0.timing.clone());
                (
                    hls.1,
                    Some(pnr.1),
                    pack,
                    Some(report),
                    Some(timing),
                    None,
                    fresh,
                )
            }
            Chain::Soft { soft, pack } => {
                report.record(StageKind::SoftcoreCc, soft.1);
                let fresh = vt.soft_phases(soft.0.binary.load_bytes());
                let binary = Some(soft.0.binary.clone());
                (soft.1, None, pack, None, None, binary, fresh)
            }
        };
        report.record(StageKind::BitstreamPack, pack.1);
        let hits = front_hit as u64 + pnr_hit.unwrap_or(false) as u64 + pack.1 as u64;
        report.operators.push(OperatorStages {
            name: at.op.name.clone(),
            hits,
            executions: 2 + pnr_hit.is_some() as u64 - hits,
        });

        // Executed time: reused stages cost nothing this build. The bit
        // phase belongs to packing, riscv to the softcore compile.
        let pnr_hit = pnr_hit.unwrap_or(false);
        let executed = PhaseTimes {
            hls: if front_hit { 0.0 } else { fresh.hls },
            syn: if pnr_hit { 0.0 } else { fresh.syn },
            pnr: if pnr_hit {
                0.0
            } else {
                warm_pnr_seconds.unwrap_or(fresh.pnr)
            },
            bit: if pack.1 { 0.0 } else { fresh.bit },
            riscv: if front_hit { 0.0 } else { fresh.riscv },
        };
        serial = serial.add(&executed);
        parallel = parallel.parallel_max(&executed);
        fresh_serial = fresh_serial.add(&fresh);
        fresh_parallel = fresh_parallel.parallel_max(&fresh);
        critical = critical.max(executed.total());

        let idx = artifacts.len();
        artifacts.push(Xclbin::clone(&pack.0));
        operators.push(CompiledOperator {
            name: at.op.name.clone(),
            target: at.target,
            page: Some(at.page),
            artifact: Some(idx),
            hls,
            timing,
            soft,
            vtime: executed,
            wall_seconds,
            source_hash: at.src_hash,
        });
    }

    // The app-wide link/driver stage: keyed on the dataflow IR, the page
    // map, and every artifact's content hash.
    let n_pages = options.floorplan.pages.len() as u16;
    let driver_key = StageInputs::LinkDriver {
        ir: fnv(&codec::encode(&ir)),
        pages: n_pages,
        placed: (pages.iter().zip(&artifacts[1..]))
            .map(|(&(_, page), artifact)| (page, artifact.hash))
            .collect(),
    }
    .key();
    let driver = match store.fetch_driver(driver_key.hash) {
        Some(d) => {
            report.record(StageKind::LinkDriver, true);
            Driver::clone(&d)
        }
        None => {
            let d = build_driver(&ir, &pages, &artifacts, n_pages);
            store.put(driver_key, StageProduct::Driver(Arc::new(d.clone())));
            report.record(StageKind::LinkDriver, false);
            d
        }
    };

    report.critical_path_seconds = critical;
    report.fresh_vtime_serial = fresh_serial;
    report.fresh_vtime_parallel = fresh_parallel;

    let app = CompiledApp {
        graph: graph.clone(),
        level: options.level,
        floorplan: options.floorplan.clone(),
        operators,
        artifacts,
        driver,
        ir,
        monolithic: None,
        vtime_serial: serial,
        vtime_parallel: parallel,
        wall_seconds: t0.elapsed().as_secs_f64(),
        opt: None,
    };
    Ok((app, report))
}

/// Compiles a batch of graphs concurrently on the build farm — the
/// admission-compile path of a serving fleet, where many tenants' apps
/// arrive at once. Each job builds against a [`CacheBackend::snapshot`] of
/// the warm `store` (stage hits carry over), and every job's new stage
/// products are absorbed back afterwards; content addressing makes the
/// merge a plain union. Results come back in input order. A panicked job
/// is reported as [`CompileError::JobPanicked`] without sinking the rest
/// of the batch.
pub fn build_batch<C: CacheBackend>(
    graphs: &[Graph],
    options: &CompileOptions,
    store: &mut C,
    workers: usize,
) -> Vec<Result<(CompiledApp, BuildReport), CompileError>> {
    let jobs: Vec<_> = graphs
        .iter()
        .map(|graph| {
            let mut job_store = store.snapshot();
            move || {
                let result = build(graph, options, &mut job_store);
                (result, job_store)
            }
        })
        .collect();
    let mut results = Vec::with_capacity(graphs.len());
    for outcome in farm::run_jobs(jobs, workers) {
        match outcome.result {
            Ok((result, job_store)) => {
                store.absorb(job_store);
                results.push(result);
            }
            Err(message) => results.push(Err(CompileError::JobPanicked {
                op: format!("batch job {}", outcome.index),
                message,
            })),
        }
    }
    results
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
