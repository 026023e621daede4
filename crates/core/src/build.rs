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
//! a seed-only edit re-runs P&R against the cached HLS netlist, and a
//! virtual-time recalibration recompiles nothing at all, because seconds are
//! derived from stored work measures at materialization time rather than
//! baked into the products.
//!
//! Key composition (all hashes FNV-1a over the listed inputs):
//!
//! | stage | key inputs |
//! |---|---|
//! | `HlsLower` | kernel source |
//! | `PlaceRoute` | kernel source, page rect, device, per-operator seed, racing policy (when racing) |
//! | `BitstreamPack` | upstream stage key, page id, operator name, resolved target |
//! | `SoftcoreCc` | kernel source |
//! | `LinkDriver` | dataflow IR, page map, every artifact hash |
//!
//! Stages whose keys miss become farm jobs, submitted longest-first (LPT
//! list scheduling) so the slowest page compile starts immediately — the
//! paper's Sec. 6.2 observation that parallel compile time "is determined by
//! the longest individual one" made concrete. [`crate::compile`] (with an
//! ephemeral store), [`crate::BuildCache`] (a persistent store), and
//! `pld-runtime`'s hot swap are all thin drivers over [`build`].

use std::collections::BTreeMap;
use std::sync::Arc;

use dfg::{extract, Graph, Target};
use fabric::{Device, PageId, Rect};
use netlist::Netlist;
use pnr::{PnrOptions, TimingReport};

use crate::artifact::{Xclbin, XclbinKind};
use crate::cache::CacheBackend;
use crate::farm;
use crate::flow::{
    assign_pages_with, build_driver, compile_monolithic, fnv, source_hash,
    wrap_with_leaf_interface, CompileError, CompileOptions, CompiledApp, CompiledOperator,
    OptLevel, OptSummary, SeedRace,
};
use crate::store::{
    HintsProduct, HlsProduct, PnrProduct, SoftProduct, StageKey, StageKind, StageProduct,
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
    /// Seed attempts charged across this build's executed `PlaceRoute`
    /// stages (each non-raced stage counts 1).
    pub race_attempts_charged: u64,
    /// Executed `PlaceRoute` stages that raced more than one seed.
    pub raced_stages: u64,
    /// `PnrHints` lookups performed for hardware operators whose
    /// `PlaceRoute` stage missed (incremental P&R on, non-raced).
    pub hint_fetches: u64,
    /// Hint lookups that found a usable hint, arming the warm path.
    pub hint_hits: u64,
    /// Executed `PlaceRoute` stages that ran warm-started from a hint
    /// (including those whose quality guard then fell back cold).
    pub warm_pnr_ops: u64,
    /// Warm-started stages the quality guard (or a routing failure)
    /// discarded in favour of a bit-identical cold run.
    pub warm_fallbacks: u64,
    /// Winning seed-ladder index of every executed *raced* `PlaceRoute`
    /// stage, in operator order — the speculator biases its extra-seed
    /// guesses toward historically winning indices.
    pub race_winner_indices: Vec<u32>,
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

pub(crate) fn stage_key(kind: StageKind, parts: &[u64]) -> StageKey {
    let mut bytes = Vec::with_capacity(parts.len() * 8);
    for p in parts {
        bytes.extend_from_slice(&p.to_le_bytes());
    }
    StageKey {
        kind,
        hash: fnv(&bytes),
    }
}

/// Key of the [`StageKind::HlsLower`] stage for a kernel.
pub(crate) fn hls_key(kernel_hash: u64) -> StageKey {
    stage_key(StageKind::HlsLower, &[kernel_hash])
}

/// Content hash of a kernel's source (the HLS/softcore stage input).
pub(crate) fn kernel_hash(kernel: &kir::Kernel) -> u64 {
    fnv(format!("{kernel:?}").as_bytes())
}

/// Domain tag folded into a `PlaceRoute` key (followed by the hint's
/// content hash) when the stage is warm-started, so warm and cold products
/// of the same source never share a key.
pub(crate) const HINT_TAG: u64 = 0x7761_726d; // "warm"

/// Key of the [`StageKind::PnrHints`] artifact for one operator *lineage*:
/// operator name + page geometry + device, plus the kernel version whose
/// P&R produced the hint. Deliberately seed-free — a hint is an
/// optimization input, not part of any artifact's identity. A compile of an
/// *edited* operator probes this key with the **previous** version's kernel
/// hash (and with its own, which speculation may have pre-filled).
pub(crate) fn hints_key(name: &str, khash: u64, rect: Rect, device_hash: u64) -> StageKey {
    stage_key(
        StageKind::PnrHints,
        &[
            fnv(name.as_bytes()),
            khash,
            rect.x0 as u64,
            rect.y0 as u64,
            rect.w as u64,
            rect.h as u64,
            device_hash,
        ],
    )
}

/// Which stages one operator needs, and which are already in the store.
struct OpPlan {
    target: Target,
    page: PageId,
    src_hash: u64,
    /// `HlsLower` for hardware, `SoftcoreCc` for softcore targets.
    front: StageKey,
    front_hit: bool,
    /// `PlaceRoute` (hardware targets only).
    pnr: Option<StageKey>,
    pnr_hit: bool,
    /// Where this build files fresh [`StageKind::PnrHints`] for the current
    /// kernel version (incremental P&R on, non-raced hardware only).
    hints_key: Option<StageKey>,
    /// Warm-start hint fetched for a missing `PlaceRoute` stage; its
    /// content hash is already folded into `pnr`.
    hint: Option<HintsProduct>,
    pack: StageKey,
    pack_hit: bool,
    /// LPT cost estimate for the farm job (missing work, roughly weighted).
    cost: f64,
    /// Index into the farm job list, if any stage needs to run.
    job: Option<usize>,
}

impl OpPlan {
    fn hits(&self) -> u64 {
        [
            self.front_hit,
            self.pnr.is_some() && self.pnr_hit,
            self.pack_hit,
        ]
        .iter()
        .filter(|&&h| h)
        .count() as u64
    }

    fn executions(&self) -> u64 {
        let stages = if self.pnr.is_some() { 3 } else { 2 };
        stages - self.hits()
    }
}

/// What one farm job produced, plus how its P&R stage ran.
struct JobDone {
    products: Vec<(StageKey, StageProduct)>,
    /// `Some(fell_back)` when the job attempted a hint-warmed P&R.
    warm: Option<bool>,
}

type JobResult = Result<JobDone, CompileError>;

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
pub fn build<C: CacheBackend>(
    graph: &Graph,
    options: &CompileOptions,
    store: &mut C,
) -> Result<(CompiledApp, BuildReport), CompileError> {
    build_with_prev(graph, None, options, store)
}

/// [`build`], given the *previous* version of the graph as warm-start
/// context. With [`CompileOptions::incremental_pnr`] on, a dirty hardware
/// operator's `PlaceRoute` stage probes the [`StageKind::PnrHints`] filed
/// when the previous version of that operator compiled and, on a hit,
/// warm-starts from it (see [`pnr::place_and_route_incremental`]). `prev`
/// is matched by operator name against the graph as supplied; when the KPN
/// optimizer rewrites operator names the probe simply misses and the stage
/// runs cold — hints are an optimization input, never a correctness input.
pub fn build_with_prev<C: CacheBackend>(
    graph: &Graph,
    prev: Option<&Graph>,
    options: &CompileOptions,
    store: &mut C,
) -> Result<(CompiledApp, BuildReport), CompileError> {
    let t0 = std::time::Instant::now();
    // The optimizer runs first, as its own content-addressed stage: keyed on
    // (source graph, resolved config), so recompiles of an unchanged app
    // reuse the rewritten graph, and every per-kernel stage below keys on
    // the *optimized* kernels — fused/split operators cache like
    // hand-written ones.
    let optimized = match &options.optimize {
        Some(cfg) => {
            let resolved = resolve_optimizer(cfg, &options.floorplan);
            let key = stage_key(
                StageKind::KpnOptimize,
                &[
                    fnv(format!("{graph:?}").as_bytes()),
                    fnv(format!("{resolved:?}").as_bytes()),
                ],
            );
            match store.fetch_opt(key.hash) {
                Some(p) => Some((p, true)),
                None => {
                    let out = dfg::opt::optimize(graph, &resolved);
                    let p = crate::store::OptProduct {
                        graph: out.graph,
                        edge_depths: out.edge_depths.iter().map(|d| *d as u64).collect(),
                        fused: out.report.fused,
                        fissioned: out.report.fissioned,
                        balance_before: out.report.balance_before,
                        balance_after: out.report.balance_after,
                    };
                    store.put(key, StageProduct::Opt(p.clone()));
                    Some((p, false))
                }
            }
        }
        None => None,
    };
    let build_graph = optimized.as_ref().map_or(graph, |(p, _)| &p.graph);

    let ir = extract(build_graph);
    let (mut app, mut report) = match options.level {
        OptLevel::O3 => {
            let mut report = BuildReport::default();
            let app = compile_monolithic(build_graph, ir, options, t0, store, &mut report)?;
            (app, report)
        }
        OptLevel::O0 | OptLevel::O1 => build_paged(build_graph, prev, ir, options, t0, store)?,
    };
    if let Some((p, hit)) = optimized {
        report.record(StageKind::KpnOptimize, hit);
        app.edge_depths = Some(p.edge_depths.iter().map(|d| *d as usize).collect());
        app.opt = Some(OptSummary {
            fused: p.fused,
            fissioned: p.fissioned,
            balance_before: p.balance_before,
            balance_after: p.balance_after,
        });
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

fn build_paged<C: CacheBackend>(
    graph: &Graph,
    prev: Option<&Graph>,
    ir: dfg::DfgIr,
    options: &CompileOptions,
    t0: std::time::Instant,
    store: &mut C,
) -> Result<(CompiledApp, BuildReport), CompileError> {
    let force_riscv = options.level == OptLevel::O0;
    let pages = assign_pages_with(graph, &options.floorplan, force_riscv, options.page_assign)?;
    let device_hash = fnv(format!("{:?}", options.floorplan.device).as_bytes());
    let mut report = BuildReport::default();

    // Plan: probe every operator's stage chain against the store.
    let mut plans = Vec::with_capacity(graph.operators.len());
    let mut jobs: Vec<(f64, Box<dyn FnOnce() -> JobResult + Send>)> = Vec::new();
    for (op, (target, page)) in graph.operators.iter().zip(&pages) {
        let kernel_debug = format!("{:?}", op.kernel);
        let khash = fnv(kernel_debug.as_bytes());
        let src_hash = source_hash(&op.kernel, *target);
        let mut plan = match target {
            Target::Hw { .. } => {
                let rect = options.floorplan.pages[page.0 as usize].rect;
                let seed = options.seed ^ fnv(op.name.as_bytes());
                let front = hls_key(khash);
                // A raced stage keys on the racing policy too: a K-seed
                // race is different work from a single-seed compile, even
                // from the same base seed. K = 1 leaves the key unchanged.
                let mut pnr_parts = vec![
                    khash,
                    rect.x0 as u64,
                    rect.y0 as u64,
                    rect.w as u64,
                    rect.h as u64,
                    device_hash,
                    seed,
                ];
                if options.race.attempts > 1 {
                    pnr_parts.push(options.race.attempts as u64);
                    pnr_parts.push(options.race.target_fmax_mhz.to_bits());
                }
                // Warm-start planning. A race explores the seed space on
                // purpose, so hints only arm non-raced stages; and an
                // already-cached cold stage needs no hint at all. The probe
                // order — this kernel version first (speculation may have
                // pre-filed it), then the previous version's — means an
                // edit warm-starts from the layout it is an edit *of*.
                let incremental = options.incremental_pnr && options.race.attempts <= 1;
                let hk_now = incremental.then(|| hints_key(&op.name, khash, rect, device_hash));
                let mut hint = None;
                if let Some(hk) =
                    hk_now.filter(|_| !store.contains(stage_key(StageKind::PlaceRoute, &pnr_parts)))
                {
                    report.hint_fetches += 1;
                    hint = store.fetch_hints(hk.hash);
                    if hint.is_none() {
                        if let Some(prev_op) =
                            prev.and_then(|p| p.operators.iter().find(|o| o.name == op.name))
                        {
                            let prev_khash = kernel_hash(&prev_op.kernel);
                            if prev_khash != khash {
                                let hk = hints_key(&op.name, prev_khash, rect, device_hash);
                                hint = store.fetch_hints(hk.hash);
                            }
                        }
                    }
                    // A hint for different page geometry can never replay.
                    if hint.as_ref().is_some_and(|h| h.hints.region != rect) {
                        hint = None;
                    }
                    if let Some(h) = &hint {
                        report.hint_hits += 1;
                        // Fold the hint's identity into the stage key: a
                        // warm product is a function of (source, hint), so
                        // it must never collide with the cold product.
                        pnr_parts.push(HINT_TAG);
                        pnr_parts.push(h.content_hash());
                    }
                }
                let pnr = stage_key(StageKind::PlaceRoute, &pnr_parts);
                let pack = stage_key(
                    StageKind::BitstreamPack,
                    &[pnr.hash, page.0 as u64, fnv(op.name.as_bytes()), src_hash],
                );
                OpPlan {
                    target: *target,
                    page: *page,
                    src_hash,
                    front,
                    front_hit: store.contains(front),
                    pnr: Some(pnr),
                    pnr_hit: store.contains(pnr),
                    hints_key: hk_now,
                    hint,
                    pack,
                    pack_hit: store.contains(pack),
                    cost: 0.0,
                    job: None,
                }
            }
            Target::Riscv { .. } => {
                let front = stage_key(StageKind::SoftcoreCc, &[khash]);
                let pack = stage_key(
                    StageKind::BitstreamPack,
                    &[front.hash, page.0 as u64, fnv(op.name.as_bytes())],
                );
                OpPlan {
                    target: *target,
                    page: *page,
                    src_hash,
                    front,
                    front_hit: store.contains(front),
                    pnr: None,
                    pnr_hit: false,
                    hints_key: None,
                    hint: None,
                    pack,
                    pack_hit: store.contains(pack),
                    cost: 0.0,
                    job: None,
                }
            }
        };
        if plan.executions() > 0 {
            // LPT cost: rank missing stages by expected weight (P&R
            // dominates, then HLS, then packing), kernel size breaks ties.
            plan.cost = (!plan.front_hit) as u64 as f64
                * if plan.pnr.is_some() { 1e5 } else { 1e4 }
                + plan
                    .pnr
                    .map_or(0.0, |_| (!plan.pnr_hit) as u64 as f64 * 1e6)
                + (!plan.pack_hit) as u64 as f64 * 1e3
                + kernel_debug.len() as f64;
            plan.job = Some(jobs.len());
            jobs.push((plan.cost, job_for(&plan, op, options, store)));
        }
        plans.push(plan);
    }

    // Execute missing stages on the farm, longest-first.
    let mut outcomes: Vec<Option<farm::JobOutcome<JobResult>>> =
        farm::run_jobs_lpt(jobs, options.jobs)
            .into_iter()
            .map(Some)
            .collect();
    let mut wall_by_job = vec![0.0; outcomes.len()];
    let mut warm_by_job: Vec<Option<bool>> = vec![None; outcomes.len()];
    for (op, plan) in graph.operators.iter().zip(&plans) {
        if let Some(j) = plan.job {
            // A missing outcome is a farm accounting bug, not a reason to
            // unwind through `Runtime::hot_swap`.
            let outcome = outcomes.get_mut(j).and_then(Option::take).ok_or_else(|| {
                CompileError::JobPanicked {
                    op: op.name.clone(),
                    message: "farm returned no outcome for this operator's job".into(),
                }
            })?;
            wall_by_job[j] = outcome.wall_seconds;
            let done = outcome
                .result
                .map_err(|message| CompileError::JobPanicked {
                    op: op.name.clone(),
                    message,
                })??;
            warm_by_job[j] = done.warm;
            for (key, product) in done.products {
                store.put(key, product);
            }
        }
    }

    // Materialize: every product is now in the store; assemble the app and
    // derive both the executed and the from-scratch virtual times from the
    // stored work measures.
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

    for (op, plan) in graph.operators.iter().zip(&plans) {
        report.record(
            if plan.pnr.is_some() {
                StageKind::HlsLower
            } else {
                StageKind::SoftcoreCc
            },
            plan.front_hit,
        );
        if plan.pnr.is_some() {
            report.record(StageKind::PlaceRoute, plan.pnr_hit);
        }
        report.record(StageKind::BitstreamPack, plan.pack_hit);
        report.operators.push(OperatorStages {
            name: op.name.clone(),
            hits: plan.hits(),
            executions: plan.executions(),
        });

        let pack = store
            .fetch_pack(plan.pack.hash)
            .expect("pack stage materialized");
        let warm_flag = plan.job.and_then(|j| warm_by_job[j]);
        let mut warm_pnr_seconds = None;
        let (hls, timing, soft, fresh, fresh_ser) = match plan.pnr {
            Some(pnr_key) => {
                let hls = store.fetch_hls(plan.front.hash).expect("hls materialized");
                let pnr = store.fetch_pnr(pnr_key.hash).expect("pnr materialized");
                if !plan.pnr_hit {
                    report.race_attempts_charged += pnr.race_charged as u64;
                    if pnr.race_attempts > 1 {
                        report.raced_stages += 1;
                        let base = options.seed ^ fnv(op.name.as_bytes());
                        let idx = (0..pnr.race_attempts)
                            .find(|&i| race_seed(base, i) == pnr.winning_seed)
                            .unwrap_or(0);
                        report.race_winner_indices.push(idx);
                    }
                    if let Some(fell_back) = warm_flag {
                        report.warm_pnr_ops += 1;
                        if fell_back {
                            report.warm_fallbacks += 1;
                        } else {
                            // A surviving warm run is priced by its own
                            // (small) measured work at the warm fixed cost;
                            // the product's race work fields carry the cold
                            // estimate, keeping fresh_vtime a from-scratch
                            // figure.
                            warm_pnr_seconds = Some(vt.pnr_warm_seconds(pnr.work_units));
                        }
                    }
                }
                // On a wide farm a seed race's attempts overlap, so the pnr
                // phase's latency is the slowest charged attempt; on one
                // serial build machine the charged attempts queue instead.
                // Both measures live in the stored product, so K = 1 prices
                // bit-identically to a non-raced compile.
                let fresh = vt.hw_phases(
                    hls.report.hls_work,
                    pnr.wrapped_cells,
                    pnr.race_latency_work,
                    pnr.bitstream.config_bits,
                );
                let fresh_ser = PhaseTimes {
                    pnr: vt.pnr_race_serial_seconds(pnr.race_charged, pnr.race_total_work),
                    ..fresh
                };
                (
                    Some(hls.report.clone()),
                    Some(pnr.timing.clone()),
                    None,
                    fresh,
                    fresh_ser,
                )
            }
            None => {
                let soft = store.fetch_soft(plan.front.hash).expect("cc materialized");
                let fresh = vt.soft_phases(soft.binary.load_bytes());
                (None, None, Some(soft.binary), fresh, fresh)
            }
        };
        // Executed time: reused stages cost nothing this build. The bit
        // phase belongs to packing, riscv to the softcore compile.
        let executed = PhaseTimes {
            hls: if plan.front_hit { 0.0 } else { fresh.hls },
            syn: if plan.pnr_hit { 0.0 } else { fresh.syn },
            pnr: if plan.pnr_hit {
                0.0
            } else {
                warm_pnr_seconds.unwrap_or(fresh.pnr)
            },
            bit: if plan.pack_hit { 0.0 } else { fresh.bit },
            riscv: if plan.front_hit { 0.0 } else { fresh.riscv },
        };
        let executed_ser = PhaseTimes {
            pnr: if plan.pnr_hit {
                0.0
            } else {
                warm_pnr_seconds.unwrap_or(fresh_ser.pnr)
            },
            ..executed
        };
        serial = serial.add(&executed_ser);
        parallel = parallel.parallel_max(&executed);
        fresh_serial = fresh_serial.add(&fresh_ser);
        fresh_parallel = fresh_parallel.parallel_max(&fresh);
        critical = critical.max(executed.total());

        let idx = artifacts.len();
        artifacts.push(pack);
        operators.push(CompiledOperator {
            name: op.name.clone(),
            target: plan.target,
            page: Some(plan.page),
            artifact: Some(idx),
            hls,
            timing,
            soft,
            vtime: executed,
            wall_seconds: plan.job.map_or(0.0, |j| wall_by_job[j]),
            source_hash: plan.src_hash,
        });
    }

    // The app-wide link/driver stage: keyed on the dataflow IR, the page
    // map, and every artifact's content hash.
    let n_pages = options.floorplan.pages.len() as u16;
    let mut driver_parts = vec![fnv(format!("{ir:?}").as_bytes()), n_pages as u64];
    for ((_, page), artifact) in pages.iter().zip(artifacts.iter().skip(1)) {
        driver_parts.push(page.0 as u64);
        driver_parts.push(artifact.hash);
    }
    let driver_key = stage_key(StageKind::LinkDriver, &driver_parts);
    let driver = match store.fetch_driver(driver_key.hash) {
        Some(d) => {
            report.record(StageKind::LinkDriver, true);
            d
        }
        None => {
            let d = build_driver(&ir, &pages, &artifacts, n_pages);
            store.put(driver_key, StageProduct::Driver(d.clone()));
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
        edge_depths: None,
        opt: None,
    };
    Ok((app, report))
}

/// Builds the farm job that executes an operator's missing stages. Cached
/// upstream products are cloned in so the job never touches the store.
fn job_for<C: CacheBackend>(
    plan: &OpPlan,
    op: &dfg::OperatorInst,
    options: &CompileOptions,
    store: &mut C,
) -> Box<dyn FnOnce() -> JobResult + Send> {
    let kernel = op.kernel.clone();
    let name = op.name.clone();
    let front = plan.front;
    let pack_key = plan.pack;
    let pack_hit = plan.pack_hit;
    let page = plan.page;
    match plan.pnr {
        Some(pnr_key) => {
            let src_hash = plan.src_hash;
            let rect = options.floorplan.pages[page.0 as usize].rect;
            let device = options.floorplan.device.clone();
            let device_hash = fnv(format!("{device:?}").as_bytes());
            let khash = kernel_hash(&kernel);
            let seed = options.seed ^ fnv(name.as_bytes());
            let race = options.race;
            let race_workers = options.jobs;
            let hint = plan.hint.clone();
            let hints_key_now = plan.hints_key;
            let hls_in: Option<HlsProduct> = if plan.front_hit {
                store.fetch_hls(front.hash)
            } else {
                None
            };
            let pnr_in: Option<PnrProduct> = if plan.pnr_hit {
                store.fetch_pnr(pnr_key.hash)
            } else {
                None
            };
            Box::new(move || {
                let mut computed = Vec::new();
                let mut warm = None;
                let hls = match hls_in {
                    Some(p) => p,
                    None => {
                        let out = hlsim::compile(&kernel).map_err(|error| CompileError::Hls {
                            op: name.clone(),
                            error,
                        })?;
                        let p = HlsProduct {
                            netlist: out.netlist,
                            report: out.report,
                        };
                        computed.push((front, StageProduct::Hls(p.clone())));
                        p
                    }
                };
                let pnr = match pnr_in {
                    Some(p) => p,
                    None => {
                        let wrapped = wrap_with_leaf_interface(&hls.netlist);
                        let p = match (&hint, hints_key_now) {
                            (Some(h), _) => {
                                // Warm path: place from the prior layout,
                                // rip up and re-route only what the edit
                                // moved, guarded against quality loss.
                                let opts = PnrOptions {
                                    seed,
                                    abstract_shell: true,
                                    effort: 1.0,
                                };
                                let (result, wr) = pnr::place_and_route_incremental(
                                    &wrapped,
                                    &device,
                                    rect,
                                    &opts,
                                    &h.hints,
                                    race_workers,
                                )
                                .map_err(|error| CompileError::Pnr {
                                    op: name.clone(),
                                    error,
                                })?;
                                warm = Some(wr.fell_back);
                                // race work fields carry the cold estimate:
                                // fresh_vtime stays a from-scratch figure
                                // while work_units is the measured (warm)
                                // work.
                                let cold_estimate = if wr.fell_back {
                                    result.work_units
                                } else {
                                    h.hints.work_units.max(result.work_units)
                                };
                                let product = pnr_product(&wrapped, &result, seed, cold_estimate);
                                if wr.fell_back {
                                    // The fallback *is* a cold run, so alias
                                    // it under the plain single-seed key: a
                                    // later hint-less rebuild is a hit.
                                    let plain = stage_key(
                                        StageKind::PlaceRoute,
                                        &[
                                            khash,
                                            rect.x0 as u64,
                                            rect.y0 as u64,
                                            rect.w as u64,
                                            rect.h as u64,
                                            device_hash,
                                            seed,
                                        ],
                                    );
                                    computed.push((plain, StageProduct::Pnr(product.clone())));
                                }
                                if let Some(hk) = hints_key_now {
                                    let mut fresh = pnr::extract_hints(&wrapped, rect, &result);
                                    if !wr.fell_back {
                                        fresh.work_units = cold_estimate;
                                    }
                                    computed.push((
                                        hk,
                                        StageProduct::Hints(HintsProduct { hints: fresh }),
                                    ));
                                }
                                product
                            }
                            (None, Some(hk)) => {
                                // Cold, but hints must be filed for the next
                                // edit — and filing needs the placement and
                                // routes the race driver discards, so run
                                // the (single-seed, identical-product) P&R
                                // directly.
                                let opts = PnrOptions {
                                    seed,
                                    abstract_shell: true,
                                    effort: 1.0,
                                };
                                let result = pnr::place_and_route(&wrapped, &device, rect, &opts)
                                    .map_err(|error| CompileError::Pnr {
                                    op: name.clone(),
                                    error,
                                })?;
                                let product =
                                    pnr_product(&wrapped, &result, seed, result.work_units);
                                let fresh = pnr::extract_hints(&wrapped, rect, &result);
                                computed
                                    .push((hk, StageProduct::Hints(HintsProduct { hints: fresh })));
                                product
                            }
                            (None, None) => {
                                race_place_route(&wrapped, &device, rect, seed, &race, race_workers)
                                    .map_err(|error| CompileError::Pnr {
                                        op: name.clone(),
                                        error,
                                    })?
                            }
                        };
                        computed.push((pnr_key, StageProduct::Pnr(p.clone())));
                        if race.attempts > 1 {
                            // File the winner under the plain single-seed
                            // key as well: the winning seed is part of the
                            // content-addressed identity, so a later
                            // non-raced compile configured with exactly
                            // that seed is a cache hit, not a re-run.
                            let alias_key = stage_key(
                                StageKind::PlaceRoute,
                                &[
                                    khash,
                                    rect.x0 as u64,
                                    rect.y0 as u64,
                                    rect.w as u64,
                                    rect.h as u64,
                                    device_hash,
                                    p.winning_seed,
                                ],
                            );
                            let alias = PnrProduct {
                                race_attempts: 1,
                                race_charged: 1,
                                race_latency_work: p.work_units,
                                race_total_work: p.work_units,
                                ..p.clone()
                            };
                            computed.push((alias_key, StageProduct::Pnr(alias)));
                        }
                        p
                    }
                };
                if !pack_hit {
                    // Constants live in the source, not the structural
                    // netlist, so artifact identity mixes in the source hash.
                    let hash = pnr.bitstream.payload_hash ^ src_hash;
                    let x = Xclbin {
                        name: format!("{name}.xclbin"),
                        kind: XclbinKind::Page {
                            page,
                            bitstream: pnr.bitstream.clone(),
                        },
                        hash,
                    };
                    computed.push((pack_key, StageProduct::Pack(x)));
                }
                Ok(JobDone {
                    products: computed,
                    warm,
                })
            })
        }
        None => {
            let soft_in: Option<SoftProduct> = if plan.front_hit {
                store.fetch_soft(front.hash)
            } else {
                None
            };
            Box::new(move || {
                let mut computed = Vec::new();
                let soft = match soft_in {
                    Some(p) => p,
                    None => {
                        let binary = softcore::compile_kernel(&kernel).map_err(|error| {
                            CompileError::Softcore {
                                op: name.clone(),
                                error,
                            }
                        })?;
                        let p = SoftProduct { binary };
                        computed.push((front, StageProduct::Soft(p.clone())));
                        p
                    }
                };
                if !pack_hit {
                    let packed = soft.binary.pack(page.0);
                    let hash = fnv(&packed
                        .records
                        .iter()
                        .flat_map(|(_, b)| b.clone())
                        .collect::<Vec<u8>>());
                    let x = Xclbin {
                        name: format!("{name}.elf.xclbin"),
                        kind: XclbinKind::Softcore {
                            page,
                            binary: packed,
                        },
                        hash,
                    };
                    computed.push((pack_key, StageProduct::Pack(x)));
                }
                Ok(JobDone {
                    products: computed,
                    warm: None,
                })
            })
        }
    }
}

/// Wraps a single-seed [`pnr::PnrResult`] as the [`PnrProduct`] a one-
/// attempt [`race_place_route`] would file, except that the race work
/// fields carry `charged_work` — the *cold-equivalent* work the stage
/// would cost from scratch (equal to the measured work for a cold run,
/// the hint's cold estimate for a surviving warm run).
pub(crate) fn pnr_product(
    wrapped: &Netlist,
    result: &pnr::PnrResult,
    seed: u64,
    charged_work: u64,
) -> PnrProduct {
    PnrProduct {
        bitstream: result.bitstream.clone(),
        timing: result.timing.clone(),
        work_units: result.work_units,
        wrapped_cells: wrapped.cell_count() as u64,
        winning_seed: seed,
        race_attempts: 1,
        race_charged: 1,
        race_latency_work: charged_work,
        race_total_work: charged_work,
    }
}

/// Seed for raced attempt `i`: attempt 0 races the configured seed itself,
/// later attempts decorrelate from it by golden-ratio stepping. Purely a
/// function of `(base, i)`, so the attempt list — and with it every stage
/// key — is reproducible from the compile options alone.
pub(crate) fn race_seed(base: u64, i: u32) -> u64 {
    if i == 0 {
        base
    } else {
        base ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

/// One raced attempt's full product (kept only until the winner is picked).
struct RaceAttempt {
    seed: u64,
    outcome: Result<(TimingReport, pnr::Bitstream, u64), pnr::PnrError>,
}

/// Runs one `PlaceRoute` stage as a seed race: `race.attempts` P&R attempts
/// with seeds derived by [`race_seed`] fan out across up to `workers`
/// threads. An attempt whose fmax meets `race.target_fmax_mhz` cancels all
/// higher-indexed attempts — between its place and route stages if it got
/// the signal mid-flight. The winner and the charged-attempt horizon come
/// from [`farm::race_outcome`], so the returned product (and therefore the
/// stage's artifact hash and virtual-time charge) is identical on any
/// worker count. `attempts == 1` degenerates to a plain single-seed
/// compile: same product, same key, priced identically.
pub(crate) fn race_place_route(
    wrapped: &Netlist,
    device: &Device,
    rect: Rect,
    base_seed: u64,
    race: &SeedRace,
    workers: usize,
) -> Result<PnrProduct, pnr::PnrError> {
    wrapped.check()?;
    let wrapped_cells = wrapped.cell_count() as u64;
    let shared = Arc::new((wrapped.clone(), device.clone()));
    let target = race.target_fmax_mhz;
    let attempts: Vec<_> = (0..race.attempts.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            let seed = race_seed(base_seed, i);
            move |cancel: &farm::RaceCancel| -> Option<RaceAttempt> {
                let (nl, device) = &*shared;
                let opts = PnrOptions {
                    seed,
                    abstract_shell: true,
                    effort: 1.0,
                };
                let placement = match pnr::place(nl, device, rect, &opts) {
                    Ok(p) => p,
                    Err(e) => {
                        return Some(RaceAttempt {
                            seed,
                            outcome: Err(e),
                        })
                    }
                };
                // Stage boundary: a lower-indexed attempt met the target
                // while we placed, so routing this attempt is wasted work.
                if cancel.cancelled() {
                    return None;
                }
                let routed = match pnr::route(nl, device, rect, &placement, &opts) {
                    Ok(r) => r,
                    Err(e) => {
                        return Some(RaceAttempt {
                            seed,
                            outcome: Err(e),
                        })
                    }
                };
                let timing = pnr::analyze_timing(nl, device, &placement, &routed);
                let bitstream = pnr::Bitstream::generate(nl, rect, &placement, &routed, seed);
                let work = placement.moves_evaluated + routed.edges_relaxed;
                if target > 0.0 && timing.fmax_mhz >= target {
                    cancel.target_met();
                }
                Some(RaceAttempt {
                    seed,
                    outcome: Ok((timing, bitstream, work)),
                })
            }
        })
        .collect();

    let ran: Vec<Option<RaceAttempt>> = farm::run_race(attempts, workers)
        .into_iter()
        .map(|o| match o.result {
            Ok(r) => r,
            // P&R never panics; if it somehow does, surface it through the
            // outer farm's panic isolation instead of inventing a verdict.
            Err(message) => std::panic::panic_any(message),
        })
        .collect();

    let summaries: Vec<Option<farm::RaceResult>> = ran
        .iter()
        .map(|a| {
            a.as_ref().map(|a| match &a.outcome {
                Ok((timing, _, _)) => farm::RaceResult {
                    met_target: target > 0.0 && timing.fmax_mhz >= target,
                    cost: timing.critical_ns,
                },
                Err(_) => farm::RaceResult {
                    met_target: false,
                    cost: f64::INFINITY,
                },
            })
        })
        .collect();
    let (winner, charged) =
        farm::race_outcome(&summaries).expect("attempts within the race horizon always complete");

    // An errored winner means every charged attempt failed (any success
    // would have beaten infinite cost), and no later attempt met the
    // target; report the lowest-indexed failure.
    let win = ran[winner].as_ref().expect("winner completed");
    let (timing, bitstream, work_units) = match &win.outcome {
        Ok(product) => product.clone(),
        Err(e) => return Err(e.clone()),
    };

    // Charge the deterministic horizon: its attempts complete on any farm
    // width. Failed attempts carry no recorded work measure.
    let mut race_latency_work = 0;
    let mut race_total_work = 0;
    for a in ran[..charged].iter().flatten() {
        if let Ok((_, _, w)) = &a.outcome {
            race_latency_work = race_latency_work.max(*w);
            race_total_work += *w;
        }
    }

    Ok(PnrProduct {
        bitstream,
        timing,
        work_units,
        wrapped_cells,
        winning_seed: win.seed,
        race_attempts: race.attempts.max(1),
        race_charged: charged as u32,
        race_latency_work,
        race_total_work,
    })
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
            let graph = graph.clone();
            let options = options.clone();
            let mut job_store = store.snapshot();
            move || {
                let result = build(&graph, &options, &mut job_store);
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
