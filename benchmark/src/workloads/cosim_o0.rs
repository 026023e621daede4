//! `cosim_o0`: the simulators. Every app is compiled to softcores once
//! (untimed); each pass then runs every app twice: `cosim` brings the app up
//! (`pld::load`) and steps all cores in lock-step over the cycle-level
//! linking network, `batch` runs the same binaries operator by operator on
//! traced streams.
//!
//! Place-and-route is absent. The Rosetta apps are compute-bound (long
//! private instruction runs between stream accesses), the generated chains,
//! diamonds and fan-outs transport-bound (a stream access every few
//! instructions), so the two halves split softcore speed from network and
//! barrier cost.

use dfg::GraphTrace;
use pld::{CompiledApp, OptLevel};

use crate::apps::{generated_apps, rosetta_apps, AppCase};
use crate::layers::{replay_noc, replay_run_graph, replay_softcore_exec, Layers, CYCLE_BUDGET};
use crate::recorder::{Failure, Recorder};
use crate::workloads::{check_load, compile_options, count_load, Size, Workload};

/// Passes per unit of [`Size::factor`]; a pass of 36 turns takes 1.9 to
/// 2.3 s on the reference host.
const BASE_PASSES: usize = 10;

/// Tokens at each external input of a generated app.
const TOKENS: u64 = 4096;

struct Simulated {
    case: AppCase,
    app: CompiledApp,
    /// Per-operator input streams of the golden run, for the layer replays.
    trace: Option<GraphTrace>,
    /// What the warm-up pass measured: the simulators are deterministic, so
    /// every timed turn must reproduce these exactly.
    cosim_cycles: u64,
    cosim_instructions: u64,
    batch_cycles: u64,
}

pub struct CosimO0 {
    apps: Vec<Simulated>,
}

impl CosimO0 {
    fn cosim_turn(&mut self, idx: usize, learn: bool, rec: &mut Recorder, ly: &mut Layers) {
        let sim = &mut self.apps[idx];
        let class = format!("{}/cosim", sim.case.name);
        let inputs = sim.case.input_words();
        let golden = sim.case.golden_words();
        let lens: Vec<usize> = golden.iter().map(Vec::len).collect();
        ly.tr.set_turn(rec.turns());
        let turn_span = ly.tr.begin("turn");
        let (load, load_seconds) = ly.tr.timed("core.load", || pld::load(&sim.app));
        let (ran, cosim_seconds) = ly.tr.timed("core.cosim", || {
            pld::cosim_o0(&sim.app, &inputs, &lens, CYCLE_BUDGET)
        });
        let seconds = load_seconds + cosim_seconds;
        if let (Ok(_), Some(trace)) = (&ran, &sim.trace) {
            let replay = ly.tr.begin("replay");
            replay_softcore_exec(ly, &sim.app, trace);
            replay_noc(ly, &sim.app, &sim.case, trace);
            ly.tr.end(replay);
        }
        ly.tr.end(turn_span);
        let out = match ran {
            Ok(out) => out,
            Err(e) => {
                rec.turn(&class, seconds, Err(Failure::from(&e)));
                return;
            }
        };
        if learn {
            sim.cosim_cycles = out.cycles;
            sim.cosim_instructions = out.instructions;
        }
        count_load(rec, ly, &load);
        rec.simulated(load.link_cycles + out.cycles);
        rec.modelled(out.seconds);
        ly.add("core.cosim_instructions", out.instructions as f64);
        let (cycles, wall) = if sim.case.rosetta {
            ("core.cosim_cycles.compute", "core.cosim_wall_s.compute")
        } else {
            ("core.cosim_cycles.transport", "core.cosim_wall_s.transport")
        };
        ly.add(cycles, out.cycles as f64);
        ly.add(wall, cosim_seconds);
        let outcome = if let Err(e) = check_load(&sim.app, &load) {
            Err(e)
        } else if out.outputs != golden {
            Err(Failure::check("cosim_output_mismatch"))
        } else if out.cycles != sim.cosim_cycles || out.instructions != sim.cosim_instructions {
            Err(Failure::check("cosim_not_deterministic"))
        } else {
            Ok(())
        };
        rec.turn(&class, seconds, outcome);
    }

    fn batch_turn(&mut self, idx: usize, learn: bool, rec: &mut Recorder, ly: &mut Layers) {
        let sim = &mut self.apps[idx];
        let class = format!("{}/batch", sim.case.name);
        let inputs = sim.case.input_refs();
        ly.tr.set_turn(rec.turns());
        let turn_span = ly.tr.begin("turn");
        let (ran, seconds) = ly
            .tr
            .timed("core.execute", || pld::execute::perf_o0(&sim.app, &inputs));
        if ran.is_ok() && ly.tr.enabled() {
            let replay = ly.tr.begin("replay");
            if let Some(trace) = replay_run_graph(ly, &sim.case, &sim.app.graph) {
                replay_softcore_exec(ly, &sim.app, &trace);
            }
            ly.tr.end(replay);
        }
        ly.tr.end(turn_span);
        let outcome = match ran {
            Err(e) => Err(Failure::from(&e)),
            Ok(perf) => {
                rec.modelled(perf.seconds_per_input);
                if learn {
                    sim.batch_cycles = perf.cycles;
                }
                if perf.cycles == 0 || perf.cycles != sim.batch_cycles {
                    Err(Failure::check("batch_cycles"))
                } else {
                    Ok(())
                }
            }
        };
        rec.turn(&class, seconds, outcome);
    }

    fn pass(&mut self, learn: bool, rec: &mut Recorder, ly: &mut Layers) {
        for idx in 0..self.apps.len() {
            self.cosim_turn(idx, learn, rec, ly);
            self.batch_turn(idx, learn, rec, ly);
        }
        rec.end_region();
    }
}

impl Workload for CosimO0 {
    fn setup(seed: u64, size: &Size, traced: bool) -> CosimO0 {
        let mut cases = rosetta_apps(size.scale, seed);
        let replicates = if size.smoke { 1 } else { 2 };
        cases.extend(generated_apps(replicates, size.tokens(TOKENS), seed));
        let apps = cases
            .into_iter()
            .map(|case| {
                case.golden();
                let app = pld::compile(&case.graph, &compile_options(OptLevel::O0, 1))
                    .unwrap_or_else(|e| panic!("-O0 compile of {} failed: {e}", case.name));
                let trace = traced.then(|| {
                    dfg::run_graph_trace(&case.graph, &case.input_refs())
                        .expect("the golden run already succeeded")
                        .2
                });
                Simulated {
                    case,
                    app,
                    trace,
                    cosim_cycles: 0,
                    cosim_instructions: 0,
                    batch_cycles: 0,
                }
            })
            .collect();
        let mut w = CosimO0 { apps };
        let mut warm_up = Recorder::new();
        w.pass(true, &mut warm_up, &mut Layers::new(false));
        assert_eq!(
            warm_up.failed(),
            0,
            "warm-up pass failed: {:?}",
            warm_up.failures()
        );
        w
    }

    fn run(&mut self, size: &Size, rec: &mut Recorder, ly: &mut Layers) {
        for _ in 0..size.count(BASE_PASSES, 1) {
            self.pass(false, rec, ly);
        }
    }

    fn finish(self, _rec: &mut Recorder, _ly: &mut Layers) {}

    fn sizing(&self, size: &Size) -> Vec<(&'static str, u64)> {
        vec![
            ("apps", self.apps.len() as u64),
            ("passes", size.count(BASE_PASSES, 1) as u64),
            ("cosim_threads", 1),
            ("generated_tokens", size.tokens(TOKENS)),
        ]
    }
}
