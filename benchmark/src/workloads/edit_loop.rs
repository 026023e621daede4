//! `edit_loop`: the paper's headline loop. Every app is cold-built once
//! into its own on-disk `BuildCache` (set-up), then a seeded sequence of
//! developer turns runs against the caches: edit one operator's body, flip
//! a pragma to RISC-V and back, rebuild without a change, close and reopen
//! the cache. One turn = `BuildCache::compile`, then reload of the pages
//! whose artifacts changed, then the checks.
//!
//! Place-and-route runs only on the warm path here, so this isolates the
//! build graph, the store, the cache and incremental P&R, and it mixes
//! cache reads (hits, disk fetches after a reopen) with writes (fills,
//! persists) so that a read gain paid for by writes shows.

use dfg::{Graph, Target};
use fabric::PageId;
use pld::{BuildCache, CompileOptions, CompiledApp, OptLevel, StageKind};

use crate::apps::{generated_apps, mix, rosetta_apps, AppCase};
use crate::edits::{
    edit_operator, retarget_operator, same_function, schedule, ScheduledTurn, TurnKind, CYCLE_LEN,
};
use crate::layers::{operators_of, replay_operators, replay_optimize, HintBook, Layers, StagesRan};
use crate::recorder::{Failure, Recorder};
use crate::workloads::{
    artifact_hashes, check_compiled, check_function, compile_options, count_build, ScratchDir,
    Size, Workload,
};

/// Rounds (one turn per app each) per unit of [`Size::factor`]: 18 apps x
/// 1152 rounds = 20736 turns, 24 periods of the kind cycle (whole periods,
/// also at the traced run's half size, so that every app does every kind of
/// turn equally often whatever its seeded phase). A turn takes 0.2 to 2 ms,
/// and the checks between turns take half as long again: the region is 17 s
/// of a 30 s run.
const BASE_ROUNDS: usize = 1152;

/// P&R seed of every build. Fixed: the cold builds' layouts decide how often
/// a warm-started edit falls back to a cold run, which costs ten times as
/// much, so a seeded layout would decide the numbers.
const PNR_SEED: u64 = 1;

/// Warm-up: one period of the kind cycle, so every kind of turn (and every
/// cache path it takes) has run once per app before the clock starts.
const WARM_UP_ROUNDS: usize = CYCLE_LEN;

/// Tokens at each external input of a generated app: what the functional
/// check of a rebuilt optimizer output runs.
const TOKENS: u64 = 1024;

struct EditApp {
    case: AppCase,
    options: CompileOptions,
    dir: ScratchDir,
    /// `None` only between the close and the reopen of a `reopen` turn.
    cache: Option<BuildCache>,
    /// The developer's current source.
    source: Graph,
    /// The last successful build of `source`.
    built: CompiledApp,
    /// The last built program that passed the functional check: a build
    /// that returns the same program again (a no-change rebuild, a reopen)
    /// computes what that one did.
    checked: Graph,
    /// Hints for warm layer replays (traced runs only).
    replay_hints: HintBook,
}

pub struct EditLoop {
    seed: u64,
    apps: Vec<EditApp>,
    /// The timed region's turns (the plan minus the warm-up's).
    timed: Vec<ScheduledTurn>,
    rounds: usize,
}

/// Pages whose artifact differs between two builds of one app (matched by
/// operator name): what an incremental reload must reprogram.
fn dirty_pages(old: &CompiledApp, new: &CompiledApp) -> Vec<PageId> {
    let hash_of = |app: &CompiledApp, name: &str| {
        app.operators
            .iter()
            .find(|o| o.name == name)
            .and_then(|o| o.artifact)
            .map(|a| (app.artifacts[a].hash, app.artifacts[a].page()))
    };
    new.operators
        .iter()
        .filter(|o| hash_of(old, &o.name) != hash_of(new, &o.name))
        .filter_map(|o| o.page)
        .collect()
}

impl EditApp {
    fn open(case: AppCase, index: usize, traced: bool) -> EditApp {
        let options = CompileOptions {
            incremental_pnr: true,
            optimize: (!case.rosetta).then(dfg::OptimizerConfig::default),
            ..compile_options(OptLevel::O1, PNR_SEED)
        };
        case.golden();
        let dir = ScratchDir::create(&format!("edit_loop-{index}"))
            .unwrap_or_else(|e| panic!("cannot create a cache directory: {e}"));
        let mut cache = BuildCache::open_dir(dir.path())
            .unwrap_or_else(|e| panic!("cannot open a cache in {:?}: {e}", dir.path()));
        let built = cache
            .compile(&case.graph, &options)
            .unwrap_or_else(|e| panic!("cold build of {} failed: {e}", case.name));
        check_function(&case, &built.graph).unwrap_or_else(|e| {
            panic!(
                "cold build of {} computes another function: {e:?}",
                case.name
            )
        });
        let mut app = EditApp {
            source: case.graph.clone(),
            checked: built.graph.clone(),
            case,
            options,
            dir,
            cache: Some(cache),
            built,
            replay_hints: HintBook::default(),
        };
        if traced {
            // The build filed warm-start hints for every hardware operator;
            // a replay has no access to the store, so it derives its own by
            // replaying the cold build once.
            let mut scratch = Layers::new(true);
            let all: Vec<usize> = (0..app.built.operators.len()).collect();
            app.replay(&mut scratch, &all, None, StagesRan::ALL);
        }
        app
    }

    /// Replays the stages `ran` of the operators at `indices` of the last
    /// build, warm-started where this app's hint book has what the build
    /// found in its store (`prev` is the source its cache compiled before),
    /// and files the hints they leave.
    fn replay(&mut self, ly: &mut Layers, indices: &[usize], prev: Option<&Graph>, ran: StagesRan) {
        let book = &self.replay_hints;
        let ops = operators_of(&self.built, indices, ran, |name, kernel, rect| {
            book.probe(name, kernel, rect, prev)
        });
        let next = replay_operators(
            ly,
            &ops,
            &self.built.floorplan,
            self.options.seed,
            self.options.jobs,
        );
        for (&i, hints) in indices.iter().zip(next) {
            if let Some(hints) = hints {
                let op = &self.built.graph.operators[i];
                self.replay_hints.file(&op.name, &op.kernel, hints);
            }
        }
    }

    fn turn(&mut self, t: &ScheduledTurn, rec: &mut Recorder, ly: &mut Layers) {
        // A reopen costs what the file system charges for an index and a
        // segment file, whatever the app: one class, not one per app.
        let class = match t.kind {
            TurnKind::Reopen => "all/reopen".to_string(),
            kind => format!("{}/{}", self.case.name, kind.name()),
        };
        let retargeted =
            self.source.operators[t.op].target != self.case.graph.operators[t.op].target;
        let source_changed = match t.kind {
            TurnKind::BodyEdit | TurnKind::PragmaToRiscv => true,
            TurnKind::PragmaBack => retargeted,
            TurnKind::Noop | TurnKind::Reopen => false,
        };
        let source = match t.kind {
            TurnKind::BodyEdit => edit_operator(&self.source, t.op, t.tag),
            TurnKind::PragmaToRiscv => retarget_operator(&self.source, t.op, Target::riscv_auto()),
            TurnKind::PragmaBack if retargeted => {
                retarget_operator(&self.source, t.op, self.case.graph.operators[t.op].target)
            }
            TurnKind::PragmaBack | TurnKind::Noop | TurnKind::Reopen => self.source.clone(),
        };
        ly.tr.set_turn(rec.turns());
        let turn_span = ly.tr.begin("turn");
        let mut seconds = 0.0;
        let mut io_failed = false;

        if t.kind == TurnKind::Reopen {
            let mut cache = self.cache.take().expect("cache is open between turns");
            let (persisted, s) = ly.tr.timed("core.cache_persist", || {
                let r = cache.persist();
                drop(cache);
                r
            });
            seconds += s;
            let (opened, s) = ly
                .tr
                .timed("core.cache_open", || BuildCache::open_dir(self.dir.path()));
            seconds += s;
            // On an I/O error the turn fails; a memory-only cache lets the
            // remaining turns of this app run (cold).
            io_failed = persisted.is_err() || opened.is_err();
            self.cache = Some(opened.unwrap_or_default());
        }

        let cache = self.cache.as_mut().expect("cache is open");
        let (compiled, s) = ly
            .tr
            .timed("core.compile", || cache.compile(&source, &self.options));
        seconds += s;
        let built = match compiled {
            Ok(built) => built,
            Err(e) => {
                ly.tr.end(turn_span);
                rec.turn(&class, seconds, Err(Failure::from(&e)));
                return;
            }
        };
        let report = cache
            .last_report()
            .expect("a compile leaves its report")
            .clone();
        if t.kind == TurnKind::Reopen {
            ly.sample("core.cache_warm_rebuild_ms", s * 1e3);
        }

        let dirty = dirty_pages(&self.built, &built);
        let (load, s) = ly.tr.timed("core.load", || {
            let ops = pld::page_load_ops(&built, &dirty);
            pld::replay_loads(&built, &ops)
        });
        seconds += s;

        let old_hashes = artifact_hashes(&self.built);
        self.built = built;
        // What the cache compiled before this turn; a reopened cache has
        // compiled nothing yet.
        let prev = std::mem::replace(&mut self.source, source);
        let prev = (t.kind != TurnKind::Reopen).then_some(prev);

        if ly.tr.enabled() {
            let replay = ly.tr.begin("replay");
            if report.executions(StageKind::KpnOptimize) > 0 {
                if let Some(config) = &self.options.optimize {
                    replay_optimize(ly, &self.source, config, &self.built);
                }
            }
            let ran: Vec<usize> = report
                .operators
                .iter()
                .enumerate()
                .filter(|(_, o)| o.executions > 0)
                .map(|(i, _)| i)
                .collect();
            self.replay(ly, &ran, prev.as_ref(), StagesRan::of(&report));
            ly.tr.end(replay);
        }
        ly.tr.end(turn_span);

        count_build(ly, &self.built, &report);
        rec.modelled(self.built.compile_seconds());
        if !dirty.is_empty() {
            // An incremental reload is down for the dirty pages' transfer
            // plus a full re-link (`LoadReport::incremental_seconds`). The
            // link step is the caller's (`replay_loads` leaves it out); its
            // cycles are taken from a full load here, off the clock.
            let relink = pld::load(&self.built);
            let downtime = relink.incremental_seconds(load.total_seconds());
            rec.down(downtime);
            rec.simulated(relink.link_cycles);
            ly.add("core.load_vtime_s", downtime);
            ly.add("noc.link_packets", relink.link_packets as f64);
            ly.add("noc.link_cycles", relink.link_cycles as f64);
        }

        let outcome = if io_failed {
            Err(Failure("cache.io".to_string()))
        } else {
            self.check_turn(t, source_changed, &old_hashes, &report, &dirty)
        };
        if !source_changed && report.total_executions() > 0 {
            ly.add("edit_loop.no_change_turns_rebuilt", 1.0);
        }
        rec.turn(&class, seconds, outcome);
    }

    /// What a turn must have done, given the build before it.
    ///
    /// The build graph promises *what* gets rebuilt, not that a rebuild
    /// without a change is free: with warm-start P&R on, the first build
    /// after a warm edit finds the hints that edit filed for its own kernel
    /// version, keys the page's `PlaceRoute` stage on them, misses, and
    /// places the page again. Such rebuilds are not failures; they are
    /// counted (`no_change_turns_rebuilt`) and cost what `core.build_noop_ms`
    /// and `vtime_s_per_turn` say.
    fn check_turn(
        &mut self,
        t: &ScheduledTurn,
        source_changed: bool,
        old_hashes: &[u64],
        report: &pld::BuildReport,
        dirty: &[PageId],
    ) -> Result<(), Failure> {
        check_compiled(&self.built, OptLevel::O1)?;
        if !same_function(&self.case.graph, &self.source) {
            return Err(Failure::check("edit_changed_function"));
        }
        if self.built.graph != self.checked {
            check_function(&self.case, &self.built.graph)?;
            self.checked = self.built.graph.clone();
        }
        let rebuilt = report.total_executions() > 0;
        if t.kind == TurnKind::BodyEdit && (!rebuilt || dirty.is_empty()) {
            // A new body has never been compiled.
            return Err(Failure::check("edit_rebuilt_nothing"));
        }
        if self.options.optimize.is_none() {
            // Without the optimizer an operator keeps its name and page.
            let op = &self.built.operators[t.op];
            if source_changed && !dirty.contains(&op.page.expect("paged compile")) {
                return Err(Failure::check("edit_did_not_reload_its_page"));
            }
            if t.kind == TurnKind::PragmaToRiscv && op.soft.is_none() {
                return Err(Failure::check("retarget_not_softcore"));
            }
        }
        if !rebuilt && self.built.compile_seconds() != 0.0 {
            return Err(Failure::check("cache_hit_charged_vtime"));
        }
        if !rebuilt
            && !source_changed
            && (!dirty.is_empty() || artifact_hashes(&self.built) != old_hashes)
        {
            return Err(Failure::check("cache_hit_changed_artifacts"));
        }
        Ok(())
    }
}

impl Workload for EditLoop {
    fn setup(seed: u64, size: &Size, traced: bool) -> EditLoop {
        let mut cases = rosetta_apps(size.scale, seed);
        let replicates = if size.smoke { 1 } else { 2 };
        cases.extend(generated_apps(replicates, size.tokens(TOKENS), seed));
        let apps: Vec<EditApp> = cases
            .into_iter()
            .enumerate()
            .map(|(i, case)| EditApp::open(case, i, traced))
            .collect();
        // One plan for the warm-up and the timed region, so that the timed
        // turns pick the kind cycle up where the warm-up left it (a
        // `pragma_to_riscv` the warm-up ended on is undone by the first timed
        // turn of that app) and never repeat an edit tag.
        let ops: Vec<usize> = apps.iter().map(|a| a.case.graph.operators.len()).collect();
        let rounds = size.count(BASE_ROUNDS, CYCLE_LEN);
        let mut plan = schedule(seed, &ops, WARM_UP_ROUNDS + rounds);
        let timed = plan.split_off(WARM_UP_ROUNDS * apps.len());
        let mut w = EditLoop {
            seed,
            apps,
            timed,
            rounds,
        };
        let mut warm_up = Recorder::new();
        w.drive(&plan, &mut warm_up, &mut Layers::new(traced));
        assert_eq!(
            warm_up.failed(),
            0,
            "warm-up turns failed: {:?}",
            warm_up.failures()
        );
        w
    }

    fn run(&mut self, _size: &Size, rec: &mut Recorder, ly: &mut Layers) {
        let timed = std::mem::take(&mut self.timed);
        self.drive(&timed, rec, ly);
    }

    fn finish(mut self, rec: &mut Recorder, ly: &mut Layers) {
        for app in &mut self.apps {
            // The program the developer ended on still computes the golden.
            let ran = dfg::run_graph(&app.built.graph, &app.case.input_refs());
            rec.final_check(match ran {
                Ok((out, _)) if out == *app.case.golden() => Ok(()),
                Ok(_) => Err(Failure::check("final_output_mismatch")),
                Err(_) => Err(Failure::check("final_run_failed")),
            });
            let cache = app.cache.as_ref().expect("cache is open between turns");
            // Memory and disk tiers together (a reopen empties the former).
            ly.add(
                "core.store_products",
                pld::CacheBackend::len(cache.cache()) as f64,
            );
            ly.add("core.store_bytes", cache.cache().disk_bytes() as f64);
        }
        // Staged == fresh, on one sampled app: its final source built cold
        // through its well-used cache must equal a from-scratch compile.
        let pick = (mix(&[self.seed, 0x66726573]) % self.apps.len() as u64) as usize;
        let app = &mut self.apps[pick];
        let cold = CompileOptions {
            incremental_pnr: false,
            ..app.options.clone()
        };
        let staged = app
            .cache
            .as_mut()
            .expect("cache is open")
            .compile(&app.source, &cold);
        let fresh = pld::compile(&app.source, &cold);
        rec.final_check(match (staged, fresh) {
            (Ok(s), Ok(f))
                if artifact_hashes(&s) == artifact_hashes(&f) && s.driver == f.driver =>
            {
                Ok(())
            }
            (Ok(_), Ok(_)) => Err(Failure::check("staged_differs_from_fresh")),
            (Err(e), _) | (_, Err(e)) => Err(Failure::from(&e)),
        });
    }

    fn sizing(&self, _size: &Size) -> Vec<(&'static str, u64)> {
        vec![
            ("apps", self.apps.len() as u64),
            ("warm_up_rounds", WARM_UP_ROUNDS as u64),
            ("rounds", self.rounds as u64),
            ("turns", (self.rounds * self.apps.len()) as u64),
        ]
    }
}

impl EditLoop {
    /// Runs `plan`; every period of the kind cycle is a region.
    fn drive(&mut self, plan: &[ScheduledTurn], rec: &mut Recorder, ly: &mut Layers) {
        for period in plan.chunks(CYCLE_LEN * self.apps.len()) {
            for t in period {
                self.apps[t.app].turn(t, rec, ly);
            }
            rec.end_region();
        }
    }
}
