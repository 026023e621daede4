//! Speculative compiles: warm the cache ahead of the next edit.
//!
//! After a demand build finishes, the farm's workers go idle while the
//! developer reads results and edits — exactly when a little guessing is
//! free. The predictor proposes stage keys the *next* compile is likely to
//! want and files them as cancellable background jobs:
//!
//! * **Extra P&R seeds** for each just-edited hardware operator: seed `i`
//!   of the `race_seed` ladder, filed under its plain
//!   single-seed key — so a follow-up "try another seed" rebuild (or a
//!   wider seed race) is a cache hit.
//! * **The other compile tier** for edited operators and their dataflow
//!   neighbors: the softcore front for a hardware operator, the HLS front
//!   for a softcore one — so flipping a `#pragma target` (or dropping from
//!   `-O1` to `-O0` to iterate faster) starts warm.
//!
//! Background jobs poll a [`farm::BackgroundCancel`] between stages and
//! return whatever partial products they finished; a demand compile
//! cancels the batch on arrival ([`Speculator::absorb`]) and merges the
//! partials into the cache via [`CacheBackend::put_speculative`], which
//! marks them so the first demand fetch counts toward
//! [`CacheBackend::speculative_hits`].

use std::collections::HashSet;
use std::sync::Arc;

use dfg::Target;
use kir::hash::debug_fnv1a;

use crate::build::{
    hints_key, hls_key, pack_page, pnr_key, pnr_product, race_place_route, race_seed, stage_key,
    BuildReport, Hashed,
};
use crate::cache::CacheBackend;
use crate::farm;
use crate::flow::{
    assign_pages_with, fnv, source_hash, wrap_with_leaf_interface, CompileOptions, OptLevel,
    SeedRace,
};
use crate::incremental::dirty_set;
use crate::store::{HintsProduct, HlsProduct, SoftProduct, StageKey, StageKind, StageProduct};

/// Tuning for the speculative compile pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeculationConfig {
    /// Farm workers the background batch may occupy.
    pub workers: usize,
    /// Extra single-seed P&R attempts to pre-compile per edited hardware
    /// operator (seed ladder indices `1..=extra_seeds`).
    pub extra_seeds: u32,
    /// Cap on background jobs per batch — speculation must never swamp
    /// the farm the next demand build wants back.
    pub max_jobs: usize,
}

impl Default for SpeculationConfig {
    fn default() -> SpeculationConfig {
        SpeculationConfig {
            workers: 2,
            extra_seeds: 2,
            max_jobs: 8,
        }
    }
}

/// Counters for what speculation did (hits are counted by the cache; see
/// [`CacheBackend::speculative_hits`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpeculationStats {
    /// Background batches launched.
    pub batches: u64,
    /// Jobs submitted across all batches.
    pub jobs_launched: u64,
    /// Stage products merged into the cache from completed jobs.
    pub products_merged: u64,
}

type SpecJob = Box<dyn FnOnce(&farm::BackgroundCancel) -> Vec<(StageKey, StageProduct)> + Send>;

/// Drives speculative compiles between demand builds. Owned by
/// [`crate::BuildCache`] when speculation is enabled; at most one
/// background batch is in flight at a time.
#[derive(Default)]
pub struct Speculator {
    config: SpeculationConfig,
    inflight: Option<farm::BackgroundJobs<Vec<(StageKey, StageProduct)>>>,
    stats: SpeculationStats,
    /// Wins per seed-ladder index across observed seed races (index 0 is
    /// the configured base seed). Extra-seed speculation is ordered by
    /// these counts: if index 2 keeps winning the developer's races, it is
    /// the seed most worth pre-compiling.
    seed_wins: Vec<u64>,
}

impl Speculator {
    /// Creates a speculator with the given tuning.
    pub fn new(config: SpeculationConfig) -> Speculator {
        Speculator {
            config,
            inflight: None,
            stats: SpeculationStats::default(),
            seed_wins: Vec::new(),
        }
    }

    /// What speculation has done so far.
    pub fn stats(&self) -> SpeculationStats {
        self.stats
    }

    /// Whether a background batch is currently in flight.
    pub fn in_flight(&self) -> bool {
        self.inflight.is_some()
    }

    /// Feeds one demand build's race outcomes into the seed-win history
    /// that biases future extra-seed speculation.
    pub fn observe(&mut self, report: &BuildReport) {
        for &idx in &report.race_winner_indices {
            let idx = idx as usize;
            if self.seed_wins.len() <= idx {
                self.seed_wins.resize(idx + 1, 0);
            }
            self.seed_wins[idx] += 1;
        }
    }

    /// Extra-seed ladder indices `1..=extra`, historically winning indices
    /// first (ties to the lower index, so no history gives `1, 2, …`).
    fn ladder_order(&self, extra: u32) -> Vec<u32> {
        let mut order: Vec<u32> = (1..=extra).collect();
        order.sort_by_key(|&i| {
            let wins = self.seed_wins.get(i as usize).copied().unwrap_or(0);
            (std::cmp::Reverse(wins), i)
        });
        order
    }

    /// Cancels any in-flight batch (demand work has arrived) and merges
    /// every product the jobs managed to finish into `cache`.
    pub fn absorb<C: CacheBackend>(&mut self, cache: &mut C) {
        if let Some(bg) = self.inflight.take() {
            bg.cancel();
            self.merge(bg.wait(), cache);
        }
    }

    /// Waits for the in-flight batch to run to completion (no
    /// cancellation) and merges its products — the deterministic variant
    /// tests and benchmarks use.
    pub fn wait_absorb<C: CacheBackend>(&mut self, cache: &mut C) {
        if let Some(bg) = self.inflight.take() {
            self.merge(bg.wait(), cache);
        }
    }

    fn merge<C: CacheBackend>(
        &mut self,
        batches: Vec<Vec<(StageKey, StageProduct)>>,
        cache: &mut C,
    ) {
        for (key, product) in batches.into_iter().flatten() {
            self.stats.products_merged += 1;
            cache.put_speculative(key, product);
        }
    }

    /// Predicts likely-next stage keys for the edit `prev → graph` and
    /// launches background jobs for the missing ones. Absorbs any previous
    /// batch first, so at most one is ever in flight.
    pub(crate) fn launch<C: CacheBackend>(
        &mut self,
        prev: Option<Hashed<'_>>,
        source: Hashed<'_>,
        options: &CompileOptions,
        cache: &mut C,
    ) {
        self.absorb(cache);
        let seed_order = self.ladder_order(self.config.extra_seeds);
        let jobs = predict(prev, source, options, cache, &self.config, &seed_order);
        if jobs.is_empty() {
            return;
        }
        self.stats.batches += 1;
        self.stats.jobs_launched += jobs.len() as u64;
        self.inflight = Some(farm::run_jobs_background(jobs, self.config.workers));
    }
}

/// Builds the background job list for one edit. Pure prediction: only
/// keys missing from `cache` become jobs, capped at `config.max_jobs`.
fn predict<C: CacheBackend>(
    prev: Option<Hashed<'_>>,
    source: Hashed<'_>,
    options: &CompileOptions,
    cache: &mut C,
    config: &SpeculationConfig,
    seed_order: &[u32],
) -> Vec<SpecJob> {
    // -O3 has no reusable per-operator stage structure worth guessing, and
    // a first-ever build has no edit to extrapolate from.
    if options.level == OptLevel::O3 {
        return Vec::new();
    }
    let Some(prev) = prev else { return Vec::new() };
    let graph = source.graph;
    let dirty: HashSet<String> = dirty_set(prev.graph, graph).into_iter().collect();
    if dirty.is_empty() {
        return Vec::new();
    }

    // Focus set: the edited operators, then their dataflow neighbors (the
    // developer is working in this region of the graph), in graph order.
    let mut focus: Vec<usize> = Vec::new();
    let mut in_focus = vec![false; graph.operators.len()];
    for (i, op) in graph.operators.iter().enumerate() {
        if dirty.contains(&op.name) {
            focus.push(i);
            in_focus[i] = true;
        }
    }
    let dirty_idx: Vec<usize> = focus.clone();
    for edge in &graph.edges {
        let (a, b) = ((edge.from.0).0, (edge.to.0).0);
        for (this, other) in [(a, b), (b, a)] {
            if dirty_idx.contains(&this) && !in_focus[other] {
                focus.push(other);
                in_focus[other] = true;
            }
        }
    }

    let force_riscv = options.level == OptLevel::O0;
    let Ok(pages) = assign_pages_with(graph, &options.floorplan, force_riscv, options.page_assign)
    else {
        return Vec::new();
    };
    // Background jobs outlive this call: one copy of the device for the batch.
    let device = Arc::new(options.floorplan.device.clone());
    let device_hash = debug_fnv1a(&*device);

    let mut jobs: Vec<SpecJob> = Vec::new();
    for &i in &focus {
        if jobs.len() >= config.max_jobs {
            break;
        }
        let op = &graph.operators[i];
        let (target, page) = pages[i];
        let khash = source.kernels[i];
        let name_hash = fnv(op.name.as_bytes());
        let edited = dirty.contains(&op.name);

        if let (Target::Hw { .. }, true) = (target, edited) {
            // Extra seeds of the race ladder for the operator just edited:
            // filed under the plain single-seed P&R key, exactly what a
            // reseeded rebuild (or a race alias probe) will ask for.
            let rect = options.floorplan.pages[page.0 as usize].rect;
            let base_seed = options.seed ^ name_hash;
            let src_hash = source_hash(khash, target);
            for &i in seed_order {
                if jobs.len() >= config.max_jobs {
                    break;
                }
                let seed = race_seed(base_seed, i);
                let pnr_key = pnr_key(khash, rect, device_hash, seed, &[]);
                if cache.contains(pnr_key) {
                    continue;
                }
                let Some(hls) = cache.fetch_hls(hls_key(khash).hash) else {
                    continue;
                };
                let device = Arc::clone(&device);
                let name = op.name.clone();
                jobs.push(Box::new(move |cancel: &farm::BackgroundCancel| {
                    let mut out = Vec::new();
                    if cancel.cancelled() {
                        return out;
                    }
                    let wrapped = wrap_with_leaf_interface(&hls.netlist);
                    let race = SeedRace {
                        attempts: 1,
                        target_fmax_mhz: 0.0,
                    };
                    let Ok(pnr) = race_place_route(&wrapped, &device, rect, seed, &race, 1) else {
                        return out;
                    };
                    let pnr = Arc::new(pnr);
                    out.push((pnr_key, StageProduct::Pnr(pnr.clone())));
                    // Stage boundary: packing is cheap, but respect demand.
                    if cancel.cancelled() {
                        return out;
                    }
                    let (key, pack) = pack_page(&name, page, &pnr.bitstream, src_hash);
                    out.push((key, StageProduct::Pack(pack)));
                    out
                }));
            }
        }

        if jobs.len() >= config.max_jobs {
            break;
        }
        // Warm-start hints for the edit neighborhood: with incremental P&R
        // on, the next edit to any operator near this one will probe
        // `PnrHints` under that operator's *current* kernel hash — exactly
        // this key. Operators that executed this build already filed their
        // hints; this covers neighbors whose stages have been all-hits
        // since before incremental P&R was switched on.
        if options.incremental_pnr && options.race.attempts <= 1 {
            if let Target::Hw { .. } = target {
                let rect = options.floorplan.pages[page.0 as usize].rect;
                let hk = hints_key(name_hash, khash, rect, device_hash);
                if !cache.contains(hk) {
                    if let Some(hls) = cache.fetch_hls(hls_key(khash).hash) {
                        let seed = options.seed ^ name_hash;
                        let pnr_key = pnr_key(khash, rect, device_hash, seed, &[]);
                        let have_pnr = cache.contains(pnr_key);
                        let device = Arc::clone(&device);
                        jobs.push(Box::new(move |cancel: &farm::BackgroundCancel| {
                            let mut out = Vec::new();
                            if cancel.cancelled() {
                                return out;
                            }
                            let wrapped = wrap_with_leaf_interface(&hls.netlist);
                            let opts = pnr::PnrOptions {
                                seed,
                                abstract_shell: true,
                                effort: 1.0,
                            };
                            let Ok(result) = pnr::place_and_route(&wrapped, &device, rect, &opts)
                            else {
                                return out;
                            };
                            let hints = pnr::extract_hints(&wrapped, rect, &result);
                            // The pointer a demand build files: the plain key
                            // this layout's product is (or already was) under.
                            let hints = HintsProduct::new(hints, pnr_key.hash);
                            out.push((hk, StageProduct::Hints(Arc::new(hints))));
                            if !have_pnr {
                                let product =
                                    pnr_product(&wrapped, &result, seed, result.work_units);
                                out.push((pnr_key, StageProduct::Pnr(Arc::new(product))));
                            }
                            out
                        }));
                    }
                }
            }
        }

        if jobs.len() >= config.max_jobs {
            break;
        }
        // The other compile tier's front stage for this operator — cheap
        // insurance against a target flip or an -O level change.
        match target {
            Target::Hw { .. } => {
                let key = stage_key(StageKind::SoftcoreCc, [khash]);
                if !cache.contains(key) {
                    let kernel = op.kernel.clone();
                    jobs.push(Box::new(move |cancel: &farm::BackgroundCancel| {
                        if cancel.cancelled() {
                            return Vec::new();
                        }
                        match softcore::compile_kernel(&kernel) {
                            Ok(binary) => {
                                vec![(key, StageProduct::Soft(Arc::new(SoftProduct { binary })))]
                            }
                            Err(_) => Vec::new(),
                        }
                    }));
                }
            }
            Target::Riscv { .. } => {
                let key = hls_key(khash);
                if !cache.contains(key) {
                    let kernel = op.kernel.clone();
                    jobs.push(Box::new(move |cancel: &farm::BackgroundCancel| {
                        if cancel.cancelled() {
                            return Vec::new();
                        }
                        match hlsim::compile(&kernel) {
                            Ok(out) => vec![(
                                key,
                                StageProduct::Hls(Arc::new(HlsProduct {
                                    netlist: out.netlist,
                                    report: out.report,
                                })),
                            )],
                            Err(_) => Vec::new(),
                        }
                    }));
                }
            }
        }
    }
    jobs
}
