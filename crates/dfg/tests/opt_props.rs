//! Differential proptests for the KPN optimizer.
//!
//! The optimizer's contract is bit-exact semantics preservation: for any
//! generated application, the optimized graph must produce token streams
//! identical to the original under the batch interpreter. By the Kahn
//! property the batch run is the golden reference for every schedule; the
//! `-O0` cosim leg, which runs the optimized graph on bounded hardware
//! FIFOs, lives in the `pld` crate's `optimize_stage` tests.

use dfg::generate::{generate_family, GenConfig, FAMILIES};
use dfg::opt::{optimize, OptimizerConfig};
use dfg::run_graph;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Default optimizer (all passes) is bit-identical on every family.
    #[test]
    fn optimized_apps_are_bit_identical(
        seed in any::<u64>(),
        tokens in 16u64..96,
        fam in 0..FAMILIES.len(),
    ) {
        let cfg = GenConfig { seed, tokens, max_stages: 5 };
        let app = generate_family(&cfg, FAMILIES[fam]).unwrap();
        let inputs = app.input_refs();
        let opt = optimize(&app.graph, &OptimizerConfig::default());

        let (base, _) = run_graph(&app.graph, &inputs).unwrap();
        let (opt_exec, _) = run_graph(&opt.graph, &inputs).unwrap();
        prop_assert_eq!(&base, &opt_exec, "exec divergence on {}", app.family);
    }

    /// Every single-pass configuration is independently bit-identical, so a
    /// regression in one pass cannot hide behind another.
    #[test]
    fn each_pass_is_independently_sound(
        seed in any::<u64>(),
        tokens in 16u64..64,
        fam in 0..FAMILIES.len(),
        pass in 0usize..2,
    ) {
        let cfg = GenConfig { seed, tokens, max_stages: 4 };
        let app = generate_family(&cfg, FAMILIES[fam]).unwrap();
        let inputs = app.input_refs();
        let ocfg = OptimizerConfig {
            fuse: pass == 0,
            fission: pass == 1,
            fission_min_ops: 512,
            ..OptimizerConfig::default()
        };
        let opt = optimize(&app.graph, &ocfg);

        let (base, _) = run_graph(&app.graph, &inputs).unwrap();
        let (opt_exec, _) = run_graph(&opt.graph, &inputs).unwrap();
        prop_assert_eq!(&base, &opt_exec, "pass {} exec divergence", pass);
    }
}
