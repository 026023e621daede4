//! End-to-end integration: source graph → compile flows → artifacts →
//! execution, across crates.

use dfg::Target;
use pld::{compile, BuildCache, CompileOptions, OptLevel};
use rosetta::{suite, Bench, Scale};

#[path = "../crates/core/tests/common/mod.rs"]
mod common;
use common::hits_and_misses;

/// Every Rosetta benchmark compiles under `-O0` and the *compiled softcore
/// binaries*, run operator by operator on traced streams, reproduce the
/// functional golden outputs exactly — the full single-source guarantee
/// through the real `-O0` artifacts.
#[test]
fn o0_softcore_binaries_reproduce_golden_outputs() {
    for bench in suite(Scale::Tiny) {
        let app = compile(&bench.graph, &CompileOptions::new(OptLevel::O0))
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        let (golden_out, _, trace) =
            dfg::run_graph_trace(&bench.graph, &bench.input_refs()).expect("functional run");

        for (i, op) in app.operators.iter().enumerate() {
            let binary = op.soft.as_ref().expect("-O0 maps everything to softcores");
            let inputs: Vec<Vec<u32>> = trace.op_inputs[i]
                .iter()
                .map(kir::wire::stream_to_words)
                .collect();
            let result = softcore::execute(binary, &inputs, 20_000_000_000)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", bench.name, op.name));

            // Each output port must match what the interpreter produced.
            let kernel = &bench.graph.operators[i].kernel;
            let (expected, _) = kir::interp::run_with_stats(
                kernel,
                &kernel
                    .inputs
                    .iter()
                    .enumerate()
                    .map(|(pi, p)| (p.name.as_str(), trace.op_inputs[i][pi].clone()))
                    .collect::<Vec<_>>(),
            )
            .expect("interp");
            for (pi, port) in kernel.outputs.iter().enumerate() {
                let want = kir::wire::stream_to_words(&expected[&port.name]);
                assert_eq!(
                    result.outputs[pi], want,
                    "{}/{} port {}",
                    bench.name, op.name, port.name
                );
            }
        }
        // And the graph-level golden output exists.
        assert!(golden_out.values().any(|v| !v.is_empty()));
    }
}

/// Every benchmark compiles under `-O1`: each HW operator closes timing on
/// its own page, artifacts land on distinct pages, and the driver carries
/// one link per stream.
#[test]
fn o1_separate_compilation_closes_on_pages() {
    for bench in suite(Scale::Tiny) {
        let app = compile(&bench.graph, &CompileOptions::new(OptLevel::O1))
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        let mut pages_seen = std::collections::HashSet::new();
        for op in &app.operators {
            let page = op.page.expect("paged flow assigns pages");
            assert!(
                pages_seen.insert(page),
                "{}: page {page} reused",
                bench.name
            );
            let t = op.timing.as_ref().expect("HW operators close timing");
            assert!(
                t.fmax_mhz > 100.0 && t.fmax_mhz < 800.0,
                "{}/{}: fmax {}",
                bench.name,
                op.name,
                t.fmax_mhz
            );
        }
        let expected_links =
            bench.graph.edges.len() + bench.graph.ext_inputs.len() + bench.graph.ext_outputs.len();
        assert_eq!(app.driver.link_packets(), expected_links, "{}", bench.name);
        // Re-linking is packets, not recompiles: a handful per stream.
        assert!(app.driver.link_packets() < 64);
    }
}

/// The headline compile-time ordering holds on a real benchmark:
/// `-O0` (seconds) < `-O1` (minutes) < `-O3` (hours), in virtual time.
#[test]
fn compile_time_ordering_on_rendering() {
    let bench = rosetta::rendering::bench(Scale::Tiny);
    let o0 = compile(&bench.graph, &CompileOptions::new(OptLevel::O0)).unwrap();
    let o1 = compile(&bench.graph, &CompileOptions::new(OptLevel::O1)).unwrap();
    let o3 = compile(&bench.graph, &CompileOptions::new(OptLevel::O3)).unwrap();

    let (t0, t1, t3) = (
        o0.compile_seconds(),
        o1.compile_seconds(),
        o3.compile_seconds(),
    );
    assert!(t0 < 10.0, "-O0 compiles in seconds, got {t0}");
    assert!(t0 * 10.0 < t1, "-O1 is minutes-scale: {t0} vs {t1}");
    assert!(t1 < t3, "-O3 is the slowest: {t1} vs {t3}");
}

/// Editing one operator recompiles one page; the other artifacts are
/// bit-identical across the incremental build.
#[test]
fn incremental_rebuild_touches_one_page() {
    let (w, h) = rosetta::optical::dims(Scale::Tiny);
    let g1 = rosetta::optical::graph(w, h);
    // "Edit" flow_calc by replacing it with a same-interface variant: wrap
    // the graph again with a different seed elsewhere is not an edit, so
    // instead retarget one operator — a pragma flip is the paper's edit.
    let mut b = dfg::GraphBuilder::new("optical_flow");
    let ids: Vec<_> = g1
        .operators
        .iter()
        .map(|o| {
            let target = if o.name == "flow_calc" {
                Target::riscv_auto()
            } else {
                o.target
            };
            b.add(o.name.clone(), o.kernel.clone(), target)
        })
        .collect();
    for p in &g1.ext_inputs {
        b.ext_input(p.name.clone(), ids[p.op.0], &p.port);
    }
    for e in &g1.edges {
        b.connect(
            e.name.clone(),
            ids[e.from.0 .0],
            &e.from.1,
            ids[e.to.0 .0],
            &e.to.1,
        );
    }
    for p in &g1.ext_outputs {
        b.ext_output(p.name.clone(), ids[p.op.0], &p.port);
    }
    let g2 = b.build().unwrap();

    let mut cache = BuildCache::new();
    let opts = CompileOptions::new(OptLevel::O1);
    let full = cache.compile(&g1, &opts).unwrap();
    assert_eq!(hits_and_misses(&cache), (0, 7));
    let incr = cache.compile(&g2, &opts).unwrap();
    assert_eq!(
        hits_and_misses(&cache),
        (6, 1),
        "exactly one operator recompiled"
    );
    // The flipped operator is now a softcore image; others unchanged.
    let flow = incr
        .operators
        .iter()
        .find(|o| o.name == "flow_calc")
        .unwrap();
    assert!(flow.soft.is_some());
    for (a, b) in full.operators.iter().zip(&incr.operators) {
        if a.name != "flow_calc" {
            let ia = a.artifact.unwrap();
            let ib = b.artifact.unwrap();
            assert_eq!(
                full.artifacts[ia].hash, incr.artifacts[ib].hash,
                "{}",
                a.name
            );
        }
    }
    // The incremental turn is seconds-scale: the paper's whole point.
    assert!(incr.vtime_serial.total() < 10.0);
}

/// Functional outputs are identical across compile levels (the Kahn
/// guarantee): spot-check via the `-O1` co-simulation path's functional
/// trace against plain graph execution.
#[test]
fn functional_outputs_level_independent() {
    let bench = rosetta::spam::bench(Scale::Tiny);
    let (a, _) = dfg::run_graph(&bench.graph, &bench.input_refs()).unwrap();
    let (b, _, _) = dfg::run_graph_trace(&bench.graph, &bench.input_refs()).unwrap();
    assert_eq!(a, b);
}

/// The whole suite fits the 22-page floorplan at every paged level.
#[test]
fn suite_fits_the_u50_floorplan() {
    for bench in suite(Scale::Tiny) {
        assert!(
            bench.graph.operators.len() <= 22,
            "{} needs more pages than the U50 floorplan offers",
            bench.name
        );
        for level in [OptLevel::O0, OptLevel::O1] {
            compile(&bench.graph, &CompileOptions::new(level))
                .unwrap_or_else(|e| panic!("{} at {level}: {e}", bench.name));
        }
    }
}

/// Loading artifacts is fast for pages and slow for full-device bitstreams.
#[test]
fn partial_bitstreams_load_faster() {
    let bench: Bench = rosetta::spam::bench(Scale::Tiny);
    let o1 = compile(&bench.graph, &CompileOptions::new(OptLevel::O1)).unwrap();
    let o3 = compile(&bench.graph, &CompileOptions::new(OptLevel::O3)).unwrap();
    let page_load: f64 = o1.artifacts.iter().skip(1).map(|x| x.load_seconds()).sum();
    let kernel_load: f64 = o3.artifacts.iter().map(|x| x.load_seconds()).sum();
    assert!(
        kernel_load > page_load,
        "full bitstream {kernel_load}s vs pages {page_load}s"
    );
}

/// The complete `-O0` system — compiled softcore binaries on their pages,
/// exchanging every word through the cycle-level linking network under DMA —
/// reproduces the golden outputs for a real benchmark.
#[test]
fn full_system_cosimulation_of_spam_filter() {
    let bench = rosetta::spam::bench(Scale::Tiny);
    let app = compile(&bench.graph, &CompileOptions::new(OptLevel::O0)).unwrap();

    let input_words = rosetta::util::unwords(&bench.inputs[0].1);
    let golden = {
        let out = bench.run_functional();
        rosetta::util::unwords(&out["Output_1"])
    };

    let result = pld::cosim_o0(&app, &[input_words], &[golden.len()], 2_000_000_000)
        .expect("system completes");
    assert_eq!(result.outputs[0], golden);
    // Tab. 3's point: the softcore system costs milliseconds of card time
    // for a workload hardware finishes in microseconds.
    assert!(result.seconds > 1e-5, "cosim took {}s", result.seconds);
}

/// The cosim engine's host-time shortcuts — block cache, stall skip-ahead,
/// windows between NoC barriers, idle skipping — are purely host-side: on
/// a real benchmark it must produce bit-identical outputs, simulated cycle
/// counts, and instruction counts to the decode-per-step cycle-by-cycle
/// oracle.
#[test]
fn cosim_fast_paths_are_cycle_accurate_on_spam_filter() {
    let bench = rosetta::spam::bench(Scale::Tiny);
    let app = compile(&bench.graph, &CompileOptions::new(OptLevel::O0)).unwrap();
    let input_words = rosetta::util::unwords(&bench.inputs[0].1);
    let golden = {
        let out = bench.run_functional();
        rosetta::util::unwords(&out["Output_1"])
    };
    let inputs = std::slice::from_ref(&input_words);

    let reference = pld::cosim_o0_reference(&app, inputs, &[golden.len()], 2_000_000_000)
        .expect("system completes");
    assert_eq!(reference.outputs[0], golden);
    let got =
        pld::cosim_o0(&app, inputs, &[golden.len()], 2_000_000_000).expect("system completes");
    assert_eq!(got.outputs, reference.outputs);
    assert_eq!(got.cycles, reference.cycles, "changed virtual time");
    assert_eq!(got.instructions, reference.instructions);
}

/// The `-O0` batch executor's block cache (`softcore::execute`) reproduces
/// the reference interpreter (`softcore::execute_reference`) bit-for-bit
/// across the whole Rosetta suite: the real compiled binaries must agree
/// on outputs, cycles, and instructions (registers and memory: the next
/// test).
#[test]
fn o0_block_cached_engine_matches_reference_on_suite() {
    for bench in suite(Scale::Tiny) {
        let app = compile(&bench.graph, &CompileOptions::new(OptLevel::O0))
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        let (_, _, trace) =
            dfg::run_graph_trace(&bench.graph, &bench.input_refs()).expect("functional run");
        for (i, op) in app.operators.iter().enumerate() {
            let binary = op.soft.as_ref().expect("-O0 maps everything to softcores");
            let inputs: Vec<Vec<u32>> = trace.op_inputs[i]
                .iter()
                .map(kir::wire::stream_to_words)
                .collect();
            let fast = softcore::execute(binary, &inputs, 20_000_000_000);
            let slow = softcore::execute_reference(binary, &inputs, 20_000_000_000);
            assert_eq!(fast, slow, "{}/{}", bench.name, op.name);
        }
    }
}

/// Stream endpoint for [`o0_fused_groups_match_reference_state_in_budget_slices`]:
/// traced input words, collected output words.
struct QueueIo {
    inputs: Vec<std::collections::VecDeque<u32>>,
    outputs: Vec<Vec<u32>>,
}

impl softcore::StreamIo for QueueIo {
    fn read(&mut self, port: u32) -> Option<u32> {
        self.inputs[port as usize].pop_front()
    }

    fn write(&mut self, port: u32, word: u32) -> bool {
        self.outputs[port as usize].push(word);
        true
    }
}

/// Real `cc` output is where the block cache's fused slot-access groups
/// occur. Each Rosetta Tiny operator's binary runs on the cached engine in
/// seeded `step_then_run` budget slices — many small enough to stop inside
/// a group — and after every slice a decode-per-step core (`Cpu::step`)
/// steps to the same instruction count. Every run-ahead instruction must
/// have started inside its slice's budgets; registers, pc, cycles and
/// instructions must agree at every stop; memory and emitted words at the
/// halt.
#[test]
fn o0_fused_groups_match_reference_state_in_budget_slices() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use softcore::StepResult;
    for bench in suite(Scale::Tiny) {
        let app = compile(&bench.graph, &CompileOptions::new(OptLevel::O0))
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        let (_, _, trace) =
            dfg::run_graph_trace(&bench.graph, &bench.input_refs()).expect("functional run");
        for (i, op) in app.operators.iter().enumerate() {
            let binary = op.soft.as_ref().expect("-O0 maps everything to softcores");
            let io = || QueueIo {
                inputs: trace.op_inputs[i]
                    .iter()
                    .map(|s| kir::wire::stream_to_words(s).into())
                    .collect(),
                outputs: vec![Vec::new(); binary.out_ports as usize],
            };
            let (mut fast, mut slow) = (binary.instantiate(), binary.instantiate());
            let (mut fast_io, mut slow_io) = (io(), io());
            let mut rng = StdRng::seed_from_u64(i as u64);
            let at =
                |cpu: &softcore::Cpu| format!("{}/{} at pc {:#x}", bench.name, op.name, cpu.pc);
            loop {
                // Mostly short slices (a stop every few instructions), some
                // long ones so the whole suite stays quick.
                let (max_retire, span) = if rng.gen_bool(0.25) {
                    (rng.gen_range(0..100_000), rng.gen_range(0..1_000_000u64))
                } else {
                    (rng.gen_range(0..8), rng.gen_range(0..64u64))
                };
                let cycle_limit = fast.cycles + span;
                let (result, ran) = fast.step_then_run(&mut fast_io, max_retire, cycle_limit);
                assert_eq!(result, slow.step(&mut slow_io), "{}", at(&slow));
                for k in 0..ran {
                    // Every run-ahead instruction started inside the budgets.
                    assert!(k < max_retire && slow.cycles < cycle_limit, "{}", at(&slow));
                    assert_eq!(slow.step(&mut slow_io), StepResult::Ok, "{}", at(&slow));
                }
                assert_eq!(fast.regs, slow.regs, "{}", at(&slow));
                assert_eq!(fast.pc, slow.pc, "{}", at(&slow));
                assert_eq!(fast.cycles, slow.cycles, "{}", at(&slow));
                assert_eq!(fast.instructions, slow.instructions, "{}", at(&slow));
                match result {
                    StepResult::Ok => {}
                    StepResult::Halt => break,
                    other => panic!("{other:?}: {}", at(&slow)),
                }
            }
            assert!(fast.memory() == slow.memory(), "{}/{}", bench.name, op.name);
            assert_eq!(
                fast_io.outputs, slow_io.outputs,
                "{}/{}",
                bench.name, op.name
            );
        }
    }
}
