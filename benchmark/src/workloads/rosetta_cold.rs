//! `rosetta_cold`: the paper's Tab. 2. Six Rosetta apps compiled from an
//! empty store at `-O0`, `-O1` and `-O3`, then loaded; one turn per
//! (app, level), repeated over passes whose P&R seed moves with the pass.
//!
//! Every cache lookup misses, so placement dominates and cache changes show
//! only through their write path.

use std::collections::HashMap;

use pld::{ArtifactStore, OptLevel};

use crate::apps::{rosetta_apps, AppCase};
use crate::layers::{operators_of, replay_monolithic, replay_operators, Layers, StagesRan};
use crate::recorder::{Failure, Recorder};
use crate::workloads::{
    artifact_hashes, check_compiled, check_function, check_load, compile_options, count_build,
    count_load, Size, Workload,
};

/// Passes per unit of [`Size::factor`]: a pass of 18 turns takes 0.85 to
/// 1 s on the reference host. Three full walks of the P&R seed ladder, so
/// that at the default size every seed compiles every app under every
/// ladder seed exactly three times.
const BASE_PASSES: usize = 24;

const LEVELS: [OptLevel; 3] = [OptLevel::O0, OptLevel::O1, OptLevel::O3];

/// P&R seeds are drawn from this ladder, walked from a seeded start: one
/// step per pass. The ladder is part of the workload definition: on commit
/// `ce8a822` every seed on it routes every app, while e.g. seeds 9, 14 and
/// 16 leave Optical Flow `-O3` unroutable, and the contract asks for
/// workloads on which no operation fails. `--seed` picks where the walk
/// starts; over a whole number of walks it changes the order of the compiles
/// and nothing else.
const PNR_SEED_LADDER: u64 = 8;

fn pnr_seed(seed: u64, pass: u64) -> u64 {
    1 + seed.wrapping_add(pass) % PNR_SEED_LADDER
}

pub struct RosettaCold {
    seed: u64,
    apps: Vec<AppCase>,
    /// Artifact hashes per (app, level, P&R seed). The warm-up pass fills
    /// the entries of its seed during set-up; the first timed compile under
    /// another seed fills that seed's. Every later compile under the same
    /// seed must reproduce them bit for bit.
    golden_hashes: HashMap<(usize, usize, u64), Vec<u64>>,
}

impl RosettaCold {
    /// One turn: compile `app` at `level` from an empty store, load it,
    /// check it. `pld::build` over a fresh `ArtifactStore` is what
    /// `pld::compile` does, and also hands back the stage report and the
    /// store the compile wrote.
    fn turn(
        &mut self,
        app_idx: usize,
        level_idx: usize,
        pnr_seed: u64,
        rec: &mut Recorder,
        ly: &mut Layers,
    ) {
        let case = &self.apps[app_idx];
        let level = LEVELS[level_idx];
        let class = format!("{}/{level}", case.name);
        let opts = compile_options(level, pnr_seed);
        ly.tr.set_turn(rec.turns());
        let turn_span = ly.tr.begin("turn");

        let mut store = ArtifactStore::new();
        let (built, mut seconds) = ly.tr.timed("core.compile", || {
            pld::build(&case.graph, &opts, &mut store)
        });
        let (app, report) = match built {
            Ok(b) => b,
            Err(e) => {
                ly.tr.end(turn_span);
                rec.turn(&class, seconds, Err(Failure::from(&e)));
                return;
            }
        };
        let (load, load_seconds) = ly.tr.timed("core.load", || pld::load(&app));
        seconds += load_seconds;

        if ly.tr.enabled() {
            let replay = ly.tr.begin("replay");
            if level == OptLevel::O3 {
                replay_monolithic(ly, &app, opts.seed);
            } else {
                let all: Vec<usize> = (0..app.operators.len()).collect();
                let ops = operators_of(&app, &all, StagesRan::ALL, |_, _, _| None);
                replay_operators(ly, &ops, &app.floorplan, opts.seed, opts.jobs);
            }
            ly.tr.end(replay);
            ly.add("core.store_bytes", store.to_bytes().len() as f64);
        }
        ly.tr.end(turn_span);

        count_build(ly, &app, &report);
        rec.modelled(app.compile_seconds());
        count_load(rec, ly, &load);
        rec.simulated(load.link_cycles);
        ly.add("core.store_products", store.len() as f64);

        let hashes = artifact_hashes(&app);
        let golden = self
            .golden_hashes
            .entry((app_idx, level_idx, pnr_seed))
            .or_insert_with(|| hashes.clone());
        let outcome = check_compiled(&app, level)
            .and_then(|()| check_load(&app, &load))
            .and_then(|()| check_function(case, &app.graph))
            .and_then(|()| {
                if *golden == hashes {
                    Ok(())
                } else {
                    Err(Failure::check("artifact_hash_not_reproduced"))
                }
            });
        rec.turn(&class, seconds, outcome);
    }

    fn pass(&mut self, pass: u64, rec: &mut Recorder, ly: &mut Layers) {
        let pnr = pnr_seed(self.seed, pass);
        for level_idx in 0..LEVELS.len() {
            for app_idx in 0..self.apps.len() {
                self.turn(app_idx, level_idx, pnr, rec, ly);
            }
        }
        rec.end_region();
    }
}

impl Workload for RosettaCold {
    fn setup(seed: u64, size: &Size, _traced: bool) -> RosettaCold {
        let mut w = RosettaCold {
            seed,
            apps: rosetta_apps(size.scale, seed),
            golden_hashes: HashMap::new(),
        };
        w.pass(0, &mut Recorder::new(), &mut Layers::new(false));
        w
    }

    fn run(&mut self, size: &Size, rec: &mut Recorder, ly: &mut Layers) {
        for pass in 1..=size.count(BASE_PASSES, 1) as u64 {
            self.pass(pass, rec, ly);
        }
    }

    fn finish(self, _rec: &mut Recorder, _ly: &mut Layers) {}

    fn sizing(&self, size: &Size) -> Vec<(&'static str, u64)> {
        vec![
            ("apps", self.apps.len() as u64),
            ("levels", LEVELS.len() as u64),
            ("passes", size.count(BASE_PASSES, 1) as u64),
            ("pnr_seed_ladder", PNR_SEED_LADDER),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rosetta::Scale;

    #[test]
    fn ladder_seeds_stay_on_the_ladder() {
        for seed in [0, 1, 7, u64::MAX] {
            for pass in 0..20 {
                assert!((1..=PNR_SEED_LADDER).contains(&pnr_seed(seed, pass)));
            }
            assert_ne!(pnr_seed(seed, 0), pnr_seed(seed, 1));
            assert_eq!(pnr_seed(seed, 0), pnr_seed(seed, PNR_SEED_LADDER));
        }
    }

    /// Off the ladder: on `ce8a822` Optical Flow `-O3` at `Medium` with P&R
    /// seed 9 ends in `Unroutable { overused_edges: 2 }`. Whatever a later
    /// router makes of that seed, the turn must be counted, and a failure
    /// tallied under its typed kind rather than unwinding the run.
    #[test]
    fn a_failing_compile_is_tallied_by_kind() {
        let mut w = RosettaCold {
            seed: 0,
            apps: rosetta_apps(Scale::Medium, 1),
            golden_hashes: HashMap::new(),
        };
        let optical = w
            .apps
            .iter()
            .position(|a| a.name == "rosetta/optical")
            .unwrap();
        let o3 = LEVELS.iter().position(|l| *l == OptLevel::O3).unwrap();
        let mut rec = Recorder::new();
        w.turn(optical, o3, 9, &mut rec, &mut Layers::new(false));
        assert_eq!(rec.attempted(), 1);
        assert!(rec.timed_seconds() > 0.0);
        let kinds: Vec<&str> = rec.failures().keys().map(String::as_str).collect();
        if rec.failed() == 1 {
            assert_eq!(kinds, ["compile.pnr.unroutable"]);
            assert_eq!(rec.vtime_s_per_turn(), None);
        } else {
            assert!(kinds.is_empty());
        }
    }
}
