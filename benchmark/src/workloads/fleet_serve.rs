//! `fleet_serve`: the serving runtime. A 2-device fleet, three tenants
//! (fair-share weights 4/2/1, eviction classes Guaranteed / Standard /
//! Revocable) and about forty app variants, farm-built at `-O0` into one
//! shared cache during set-up. Waves of admissions keep page demand above
//! the fleet's 44 pages; between admissions the tenants' resident apps
//! serve requests, and every wave hot-swaps an edited operator into one
//! app and migrates another.
//!
//! Compile is almost entirely cached here: this is the one workload where
//! placement, eviction, swap, migration and the functional interpreter on
//! the request path are what the clock sees.

use std::cell::RefCell;
use std::rc::Rc;

use dfg::Graph;
use fabric::Floorplan;
use pld::{build_batch, BuildCache, CompileOptions, CompiledApp, OptLevel};
use pld_runtime::{
    Admission, DeviceId, EvictClass, Executor, Fleet, FleetAppId, FleetError, FleetEvent, QosSpec,
    TenantId,
};
use rosetta::Scale;

use crate::apps::{generated_apps, mix, rosetta_apps, AppCase};
use crate::edits::edit_operator;
use crate::host::farm_jobs;
use crate::layers::{replay_run_graph, Layers};
use crate::recorder::{Failure, Recorder};
use crate::workloads::{compile_options, Size, Workload};
use dfg::generate::Rng;

/// Waves per unit of [`Size::factor`]; a wave is 4 admissions, 14 weighted
/// requests, a hot swap and a migration, each followed by a checked
/// request: 22 turns, 80 to 95 ms on the reference host. Fifteen regions.
const BASE_WAVES: usize = 15 * WAVES_PER_REGION;

/// Waves per region of the timed run (see `Recorder::end_region`). The
/// tenants draw their admissions round-robin from pools of 14 variants (the
/// Revocable tenant two a wave), so after 14 waves every variant has been
/// admitted and served and the next 14 do the same work. Fewer would not:
/// one request to Rosetta BNN costs two hundred to a generated fan-out.
const WAVES_PER_REGION: usize = 14;

/// Admissions and migrations are the scheduler's work: 10 to 40 us whatever
/// the app, a class each. (A class per app group put twenty classes of 9 to
/// 18 microsecond-scale samples into `turn_ms_geomean`, whose medians ranged
/// over 12 to 58% between identical runs.) Requests and hot swaps cost what
/// the app costs and keep a class per group.
const ADMIT_CLASS: &str = "all/admit";
const MIGRATE_CLASS: &str = "all/migrate";

const DEVICES: usize = 2;

/// Tokens at each external input of a generated app: a request costs what
/// the interpreter needs for this many tokens per stage.
const TOKENS: u64 = 1024;

/// Tenants as (weight, eviction class, admissions per wave, lease in waves).
/// Guaranteed and Standard apps together stay well under the fleet's pages;
/// the Revocable tenant's demand pushes the total over, so it is its apps
/// that get evicted, and no admission has to be refused.
const TENANTS: [(u32, EvictClass, usize, usize); 3] = [
    (4, EvictClass::Guaranteed, 1, 2),
    (2, EvictClass::Standard, 1, 2),
    (1, EvictClass::Revocable, 2, 4),
];

/// Requests per weight unit per wave.
const REQUESTS_PER_WEIGHT: usize = 2;

struct Variant {
    case: AppCase,
    compiled: CompiledApp,
    /// Index of `case.group` among the distinct groups.
    group: usize,
}

/// One admitted app instance.
struct Instance {
    id: FleetAppId,
    variant: usize,
    tenant: usize,
    admitted_wave: usize,
    /// The instance's current source: the variant's graph plus hot swaps.
    source: Graph,
    swaps: usize,
}

pub struct FleetServe {
    seed: u64,
    variants: Vec<Variant>,
    /// Variant indices each tenant draws its admissions from.
    pools: [Vec<usize>; 3],
    cache: BuildCache,
    options: CompileOptions,
    floorplan: Floorplan,
}

struct Serving<'a> {
    w: &'a mut FleetServe,
    fleet: Fleet,
    pool: Executor,
    instances: Vec<Instance>,
    /// Draws the edit tags. Which apps arrive, are served, swapped and moved
    /// is the workload definition (a request to one app costs a hundred
    /// times one to another, so a seeded mix would decide the numbers); the
    /// seed draws the request data and the edits.
    rng: Rng,
    /// Round-robin cursors: next variant per tenant pool, next resident app
    /// per tenant for requests.
    next_variant: [usize; 3],
    next_request: [usize; 3],
    /// Hot swaps and migrations so far per app group: the next one goes to
    /// the resident app whose group has had fewest, so that every turn
    /// class gets its share of samples.
    swapped: Vec<usize>,
    migrated: Vec<usize>,
}

impl Serving<'_> {
    fn resident(&self, tenant: Option<usize>) -> Vec<usize> {
        self.instances
            .iter()
            .enumerate()
            .filter(|(_, i)| tenant.is_none_or(|t| i.tenant == t) && self.fleet.is_resident(i.id))
            .map(|(idx, _)| idx)
            .collect()
    }

    fn admit(&mut self, tenant: usize, wave: usize, rec: &mut Recorder, ly: &mut Layers) {
        let pool = &self.w.pools[tenant];
        let variant = pool[self.next_variant[tenant] % pool.len()];
        self.next_variant[tenant] += 1;
        let v = &self.w.variants[variant];
        let class = ADMIT_CLASS;
        let app = v.compiled.clone();
        let name = format!("{}#{}", v.case.name, self.instances.len());
        let landed: Rc<RefCell<Option<Result<Admission, FleetError>>>> = Rc::default();
        ly.tr.set_turn(rec.turns());
        let turn_span = ly.tr.begin("turn");
        let (events, seconds) = ly.tr.timed("runtime.admit", || {
            let submitted = self.fleet.submit_async(TenantId(tenant as u32), &name, app);
            match submitted {
                Ok(ticket) => {
                    let slot = Rc::clone(&landed);
                    self.pool.spawn(async move {
                        *slot.borrow_mut() = Some(ticket.await);
                    });
                    let events = self.fleet.pump();
                    self.pool.run_until_stalled();
                    events
                }
                Err(e) => {
                    *landed.borrow_mut() = Some(Err(e));
                    Vec::new()
                }
            }
        });
        ly.tr.end(turn_span);
        for e in &events {
            if matches!(e, FleetEvent::Evicted { .. }) {
                ly.add("runtime.evicted", 1.0);
            }
        }
        let outcome = match landed.borrow_mut().take() {
            Some(Ok(admission)) => {
                ly.add("runtime.admitted", 1.0);
                self.instances.push(Instance {
                    id: admission.app,
                    variant,
                    tenant,
                    admitted_wave: wave,
                    source: self.w.variants[variant].case.graph.clone(),
                    swaps: 0,
                });
                rec.down(admission.downtime_seconds);
                if admission.downtime_seconds > 0.0 && !admission.pages.is_empty() {
                    Ok(())
                } else {
                    Err(Failure::check("admission_empty"))
                }
            }
            Some(Err(e)) => {
                ly.add("runtime.rejected", 1.0);
                Err(Failure::from(&e))
            }
            None => Err(Failure::check("ticket_unresolved")),
        };
        rec.turn(class, seconds, outcome);
    }

    /// Serves one request to instance `idx` and checks the outputs.
    fn request(&mut self, idx: usize, rec: &mut Recorder, ly: &mut Layers) {
        let inst = &self.instances[idx];
        let case = &self.w.variants[inst.variant].case;
        let class = format!("{}/request", case.group);
        let inputs = case.input_refs();
        ly.tr.set_turn(rec.turns());
        let turn_span = ly.tr.begin("turn");
        let (served, seconds) = ly
            .tr
            .timed("runtime.request", || self.fleet.run(inst.id, &inputs));
        if served.is_ok() && ly.tr.enabled() {
            let replay = ly.tr.begin("replay");
            replay_run_graph(ly, case, &inst.source);
            ly.tr.end(replay);
        }
        ly.tr.end(turn_span);
        let outcome = match served {
            Ok(outputs) if outputs == *case.golden() => Ok(()),
            Ok(_) => Err(Failure::check("request_output_mismatch")),
            Err(e) => Err(Failure::from(&e)),
        };
        rec.turn(&class, seconds, outcome);
    }

    /// Hot-swaps an edited operator into instance `idx`.
    fn hot_swap(&mut self, idx: usize, rec: &mut Recorder, ly: &mut Layers) {
        let inst = &self.instances[idx];
        let case = &self.w.variants[inst.variant].case;
        let class = format!("{}/hot_swap", case.group);
        let op = inst.swaps % inst.source.operators.len();
        let edited = edit_operator(&inst.source, op, self.rng.next_u64());
        let Some((device, local)) = self.fleet.locate(inst.id) else {
            rec.turn(&class, 0.0, Err(Failure::check("swap_target_not_resident")));
            return;
        };
        ly.tr.set_turn(rec.turns());
        let turn_span = ly.tr.begin("turn");
        let (swapped, seconds) = ly.tr.timed("runtime.swap", || {
            self.fleet
                .runtime_mut(device)
                .expect("located on this device")
                .hot_swap(local, &edited, &mut self.w.cache, &self.w.options)
        });
        if swapped.is_ok() && ly.tr.enabled() {
            let replay = ly.tr.begin("replay");
            let kernel = &edited.operators[op].kernel;
            let (binary, _) = ly
                .tr
                .timed("softcore.cc", || softcore::compile_kernel(kernel));
            if let Ok(binary) = binary {
                ly.add("softcore.cc_code_bytes", binary.code.len() as f64 * 4.0);
            }
            ly.tr.end(replay);
        }
        ly.tr.end(turn_span);
        let outcome = match swapped {
            Ok(report) => {
                rec.modelled(report.compile_vtime_seconds);
                rec.down(report.downtime_seconds);
                rec.simulated(report.link_cycles);
                ly.add("runtime.swap_downtime_s", report.downtime_seconds);
                ly.add(
                    "runtime.swap_pages_reloaded",
                    report.swapped_pages.len() as f64,
                );
                ly.add("core.stage_hits", report.stage_hits as f64);
                ly.add("core.stage_executions", report.stage_executions as f64);
                let name = &edited.operators[op].name;
                let one_page = report.recompiled.len() == 1
                    && report.recompiled[0] == *name
                    && report.swapped_pages.len() == 1;
                let inst = &mut self.instances[idx];
                inst.source = edited;
                inst.swaps += 1;
                if !one_page {
                    Err(Failure::check("swap_not_one_page"))
                } else if report.downtime_seconds <= 0.0
                    || report.downtime_seconds >= report.full_reload_seconds
                {
                    Err(Failure::check("swap_downtime"))
                } else {
                    Ok(())
                }
            }
            Err(e) => Err(Failure::from(&e)),
        };
        rec.turn(&class, seconds, outcome);
    }

    /// Migrates instance `idx` to the other device.
    fn migrate(&mut self, idx: usize, rec: &mut Recorder, ly: &mut Layers) {
        let inst = &self.instances[idx];
        let class = MIGRATE_CLASS;
        let Some((from, _)) = self.fleet.locate(inst.id) else {
            rec.turn(
                class,
                0.0,
                Err(Failure::check("migrate_target_not_resident")),
            );
            return;
        };
        let to = DeviceId((from.0 + 1) % DEVICES);
        ly.tr.set_turn(rec.turns());
        let turn_span = ly.tr.begin("turn");
        let (moved, seconds) = ly
            .tr
            .timed("runtime.migrate", || self.fleet.migrate(inst.id, to));
        ly.tr.end(turn_span);
        let outcome = match moved {
            Ok(downtime) => {
                rec.down(downtime);
                ly.add("runtime.migrate_downtime_s", downtime);
                if downtime > 0.0 && self.fleet.locate(inst.id).map(|(d, _)| d) == Some(to) {
                    Ok(())
                } else {
                    Err(Failure::check("migrate_did_not_move"))
                }
            }
            Err(e) => Err(Failure::from(&e)),
        };
        rec.turn(class, seconds, outcome);
    }

    fn wave(&mut self, wave: usize, rec: &mut Recorder, ly: &mut Layers) {
        // Leases first: retired pages host this wave's arrivals.
        for inst in &self.instances {
            let lease = TENANTS[inst.tenant].3;
            if inst.admitted_wave + lease <= wave && self.fleet.is_resident(inst.id) {
                let _ = self.fleet.retire(inst.id);
            }
        }
        for (tenant, (_, _, admissions, _)) in TENANTS.iter().enumerate() {
            for _ in 0..*admissions {
                self.admit(tenant, wave, rec, ly);
            }
        }
        for (tenant, (weight, _, _, _)) in TENANTS.iter().enumerate() {
            for _ in 0..*weight as usize * REQUESTS_PER_WEIGHT {
                let mine = self.resident(Some(tenant));
                if mine.is_empty() {
                    continue;
                }
                let idx = mine[self.next_request[tenant] % mine.len()];
                self.next_request[tenant] += 1;
                self.request(idx, rec, ly);
            }
        }
        // A developer pushes an edit to a running app: swap, then serve.
        if let Some(idx) = self.least_served(&self.resident(None), &self.swapped) {
            let group = self.group_of(idx);
            self.swapped[group] += 1;
            self.hot_swap(idx, rec, ly);
            if self.fleet.is_resident(self.instances[idx].id) {
                self.request(idx, rec, ly);
            }
        }
        // The operator rebalances: move a Guaranteed app, then serve.
        if let Some(idx) = self.least_served(&self.resident(Some(0)), &self.migrated) {
            let group = self.group_of(idx);
            self.migrated[group] += 1;
            self.migrate(idx, rec, ly);
            if self.fleet.is_resident(self.instances[idx].id) {
                self.request(idx, rec, ly);
            }
        }
    }

    fn group_of(&self, instance: usize) -> usize {
        self.w.variants[self.instances[instance].variant].group
    }

    /// The instance among `candidates` whose group has the lowest count
    /// (ties to the earliest admitted).
    fn least_served(&self, candidates: &[usize], counts: &[usize]) -> Option<usize> {
        candidates
            .iter()
            .copied()
            .min_by_key(|&idx| (counts[self.group_of(idx)], idx))
    }
}

impl FleetServe {
    fn waves(&self, size: &Size) -> usize {
        size.count(BASE_WAVES, 6)
    }

    /// Serves `waves` waves on a fresh fleet.
    fn drive(&mut self, seed: u64, waves: usize, rec: &mut Recorder, ly: &mut Layers) {
        let mut fleet = Fleet::new(DEVICES, &self.floorplan);
        for (t, (weight, evict, _, _)) in TENANTS.iter().enumerate() {
            fleet.set_tenant(
                TenantId(t as u32),
                QosSpec {
                    weight: *weight,
                    evict: *evict,
                },
            );
        }
        let groups = 1 + self.variants.iter().map(|v| v.group).max().unwrap_or(0);
        let mut serving = Serving {
            w: self,
            fleet,
            pool: Executor::new(),
            instances: Vec::new(),
            rng: Rng::new(seed),
            next_variant: [0; 3],
            next_request: [0; 3],
            swapped: vec![0; groups],
            migrated: vec![0; groups],
        };
        for wave in 0..waves {
            serving.wave(wave, rec, ly);
            if (wave + 1) % WAVES_PER_REGION == 0 {
                rec.end_region();
            }
        }
        let stats = serving.fleet.stats();
        let occupied: usize = stats.per_device.iter().map(|d| d.pages_occupied).sum();
        let total: usize = stats.per_device.iter().map(|d| d.pages_total).sum();
        ly.add("runtime.occupancy", occupied as f64 / total.max(1) as f64);
        ly.add("runtime.fairness_jain", stats.fairness_index());
    }
}

impl Workload for FleetServe {
    fn setup(seed: u64, size: &Size, _traced: bool) -> FleetServe {
        let rosetta_scale = if size.smoke {
            Scale::Tiny
        } else {
            Scale::Small
        };
        let mut cases = rosetta_apps(rosetta_scale, seed);
        let replicates = if size.smoke { 1 } else { 6 };
        cases.extend(generated_apps(replicates, size.tokens(TOKENS), seed));
        for case in &cases {
            case.golden();
        }
        let options = compile_options(OptLevel::O0, 1);
        let graphs: Vec<Graph> = cases.iter().map(|c| c.graph.clone()).collect();
        let mut cache = BuildCache::new();
        let mut group_names: Vec<String> = Vec::new();
        let variants: Vec<Variant> = build_batch(&graphs, &options, cache.cache_mut(), farm_jobs())
            .into_iter()
            .zip(cases)
            .map(|(built, case)| {
                let (compiled, _) =
                    built.unwrap_or_else(|e| panic!("-O0 build of {} failed: {e}", case.name));
                let group = match group_names.iter().position(|g| *g == case.group) {
                    Some(g) => g,
                    None => {
                        group_names.push(case.group.clone());
                        group_names.len() - 1
                    }
                };
                Variant {
                    case,
                    compiled,
                    group,
                }
            })
            .collect();
        // The Revocable tenant takes the largest third of the variants, so
        // that Guaranteed and Standard residents never crowd it out.
        let mut by_pages: Vec<usize> = (0..variants.len()).collect();
        by_pages.sort_by_key(|&i| (variants[i].compiled.operators.len(), i));
        let third = variants.len() / 3;
        let (small, large) = by_pages.split_at(variants.len() - third);
        let pools = [
            small.iter().copied().step_by(2).collect(),
            small.iter().copied().skip(1).step_by(2).collect(),
            large.to_vec(),
        ];
        let mut w = FleetServe {
            seed,
            variants,
            pools,
            cache,
            options,
            floorplan: Floorplan::u50(),
        };
        let mut warm_up = Recorder::new();
        w.drive(
            mix(&[seed, 0x7761726d]),
            6,
            &mut warm_up,
            &mut Layers::new(false),
        );
        assert_eq!(
            warm_up.failed(),
            0,
            "warm-up waves failed: {:?}",
            warm_up.failures()
        );
        w
    }

    fn run(&mut self, size: &Size, rec: &mut Recorder, ly: &mut Layers) {
        self.drive(self.seed, self.waves(size), rec, ly);
    }

    fn finish(self, _rec: &mut Recorder, ly: &mut Layers) {
        ly.add("core.store_products", self.cache.store().len() as f64);
    }

    fn sizing(&self, size: &Size) -> Vec<(&'static str, u64)> {
        vec![
            ("devices", DEVICES as u64),
            ("pages", (DEVICES * self.floorplan.pages.len()) as u64),
            ("variants", self.variants.len() as u64),
            ("waves", self.waves(size) as u64),
            ("generated_tokens", size.tokens(TOKENS)),
        ]
    }
}
