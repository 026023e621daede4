//! Acceptance tests for the content-addressed `KpnOptimize` stage: the
//! optimizer rewrite is cached like any other stage product (a rebuild of
//! the same graph + config hits instead of re-running the passes), the
//! compiled app carries the optimizer's rewrite summary, and — the property
//! everything else rests on — an optimized `-O0` build is bit-identical
//! under cycle-accurate cosim to the *source* graph's reference execution.

use dfg::generate::FAMILIES;
use dfg::{GenConfig, Graph, GraphBuilder, OptimizerConfig, Target};
use kir::{Expr, KernelBuilder, Scalar, Stmt};
use pld::{build, cosim_o0, ArtifactStore, CompileOptions, OptLevel, StageKind};
use proptest::prelude::*;

const N: i64 = 32;

/// One cheap streaming stage: ~2 dynamic ops per token, exact 1:1 rates —
/// prime fusion bait for the optimizer's transport-bound heuristic.
fn cheap(name: &str, addend: i64) -> kir::Kernel {
    KernelBuilder::new(name)
        .input("in", Scalar::uint(32))
        .output("out", Scalar::uint(32))
        .local("x", Scalar::uint(32))
        .body([Stmt::for_pipelined(
            "i",
            0..N,
            [
                Stmt::read("x", "in"),
                Stmt::write("out", Expr::var("x").add(Expr::cint(addend))),
            ],
        )])
        .build()
        .unwrap()
}

/// A three-stage chain of cheap kernels; the optimizer should collapse it.
fn chain3() -> Graph {
    let mut b = GraphBuilder::new("chain3");
    let a = b.add("a", cheap("a", 1), Target::hw_auto());
    let c = b.add("c", cheap("c", 2), Target::hw_auto());
    let d = b.add("d", cheap("d", 3), Target::hw_auto());
    b.ext_input("Input_1", a, "in");
    b.connect("l1", a, "out", c, "in");
    b.connect("l2", c, "out", d, "in");
    b.ext_output("Output_1", d, "out");
    b.build().unwrap()
}

fn opt_options(level: OptLevel) -> CompileOptions {
    CompileOptions {
        optimize: Some(OptimizerConfig::default()),
        ..CompileOptions::new(level)
    }
}

fn golden_words(g: &Graph, input: &[u32]) -> Vec<u32> {
    let vals: Vec<kir::types::Value> = input
        .iter()
        .map(|&w| kir::types::Value::Int(aplib::DynInt::from_raw(32, false, w as u128)))
        .collect();
    let (out, _) = dfg::run_graph(g, &[("Input_1", vals)]).unwrap();
    kir::wire::stream_to_words(&out["Output_1"])
}

#[test]
fn optimizer_rewrites_the_graph_and_caches_across_rebuilds() {
    let g = chain3();
    let mut store = ArtifactStore::new();
    let opts = opt_options(OptLevel::O1);

    let (app, first) = build(&g, &opts, &mut store).unwrap();
    assert_eq!(first.executions(StageKind::KpnOptimize), 1);
    assert_eq!(first.hits(StageKind::KpnOptimize), 0);

    // The compiled app is built from the rewrite: fewer operators than the
    // source and a recorded fusion.
    let opt = app.opt.as_ref().expect("optimizer summary populated");
    assert!(!opt.fused.is_empty());
    assert!(app.graph.operators.len() < g.operators.len());

    // Same graph + same config: the rewrite is fetched, not recomputed.
    let (again, second) = build(&g, &opts, &mut store).unwrap();
    assert_eq!(second.executions(StageKind::KpnOptimize), 0);
    assert_eq!(second.hits(StageKind::KpnOptimize), 1);
    assert_eq!(again.opt, app.opt);
    assert_eq!(again.graph, app.graph);

    // A different optimizer config is a different stage key.
    let reconfigured = CompileOptions {
        optimize: Some(OptimizerConfig {
            fuse: false,
            ..OptimizerConfig::default()
        }),
        ..opts
    };
    let (_, third) = build(&g, &reconfigured, &mut store).unwrap();
    assert_eq!(third.executions(StageKind::KpnOptimize), 1);
}

#[test]
fn builds_without_optimizer_have_no_opt_stage() {
    let g = chain3();
    let mut store = ArtifactStore::new();
    let (app, report) = build(&g, &CompileOptions::new(OptLevel::O1), &mut store).unwrap();
    assert_eq!(report.executions(StageKind::KpnOptimize), 0);
    assert_eq!(report.hits(StageKind::KpnOptimize), 0);
    assert!(app.opt.is_none());
    assert_eq!(app.graph.operators.len(), g.operators.len());
}

#[test]
fn optimized_o0_cosim_matches_the_source_graph() {
    let g = chain3();
    let mut store = ArtifactStore::new();
    let (app, _) = build(&g, &opt_options(OptLevel::O0), &mut store).unwrap();
    // The rewrite really happened — this differential is not vacuous.
    assert!(app.graph.operators.len() < g.operators.len());

    let input: Vec<u32> = (100..100 + N as u32).collect();
    let golden = golden_words(&g, &input);
    let result = cosim_o0(&app, &[input], &[golden.len()], 50_000_000).unwrap();
    assert_eq!(result.outputs[0], golden);
}

/// The optimizer configurations the `-O0` differential runs: every pass,
/// fusion alone, and fission alone at a threshold low enough to split the
/// generated apps' multi-phase operators.
fn optimizer_configs() -> [OptimizerConfig; 3] {
    [
        OptimizerConfig::default(),
        OptimizerConfig {
            fission: false,
            ..OptimizerConfig::default()
        },
        OptimizerConfig {
            fuse: false,
            fission_min_ops: 512,
            ..OptimizerConfig::default()
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The Kahn property on bounded hardware FIFOs: for every generated
    /// family and optimizer configuration, the optimized `-O0` build's
    /// cycle-accurate cosim produces the *source* graph's batch outputs.
    /// Each case also checks that both passes rewrote some family, so the
    /// differential is not vacuous.
    #[test]
    fn optimized_generator_apps_match_their_reference_execution_at_o0(
        seed in any::<u64>(),
        tokens in 16u64..=64,
    ) {
        let (mut fused, mut fissioned) = (0, 0);
        for family in FAMILIES {
            let cfg = GenConfig { seed, tokens, max_stages: 4 };
            let gen = dfg::generate::generate_family(&cfg, family).expect("family generates");
            let (ref_out, _) = dfg::run_graph(&gen.graph, &gen.input_refs()).unwrap();
            let inputs: Vec<Vec<u32>> = gen
                .graph
                .ext_inputs
                .iter()
                .map(|ext| {
                    let (_, vals) = gen
                        .inputs
                        .iter()
                        .find(|(name, _)| *name == ext.name)
                        .expect("input stream for ext port");
                    kir::wire::stream_to_words(vals)
                })
                .collect();
            let want: Vec<Vec<u32>> = gen
                .graph
                .ext_outputs
                .iter()
                .map(|ext| kir::wire::stream_to_words(&ref_out[&ext.name]))
                .collect();
            let lens: Vec<usize> = want.iter().map(Vec::len).collect();

            for (c, config) in optimizer_configs().into_iter().enumerate() {
                let opts = CompileOptions {
                    optimize: Some(config),
                    ..CompileOptions::new(OptLevel::O0)
                };
                let mut store = ArtifactStore::new();
                let (app, _) = build(&gen.graph, &opts, &mut store).unwrap();
                let opt = app.opt.as_ref().expect("optimizer summary populated");
                fused += opt.fused.len();
                fissioned += opt.fissioned.len();
                let result = cosim_o0(&app, &inputs, &lens, 100_000_000).unwrap();
                prop_assert_eq!(
                    &result.outputs,
                    &want,
                    "{} seed {} tokens {} config {} diverged under -O0",
                    family,
                    seed,
                    tokens,
                    c
                );
            }
        }
        prop_assert!(fused > 0 && fissioned > 0, "seed {} tokens {}: fused {} fissioned {}", seed, tokens, fused, fissioned);
    }
}
