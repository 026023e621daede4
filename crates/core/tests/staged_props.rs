//! The staged build graph is observationally equivalent to a fresh compile:
//! across arbitrary edit sequences — kernel edits, `#pragma target` flips,
//! seed changes — an incremental build against a warm store produces
//! bit-identical artifacts, the same driver, and a from-scratch virtual-time
//! estimate equal to what a cold compile actually records.

use dfg::{Graph, GraphBuilder, Target};
use kir::{Expr, KernelBuilder, Scalar, Stmt, VarDecl};
use pld::{build, compile, ArtifactStore, BuildCache, CompileOptions, OptLevel};
use proptest::prelude::*;

fn stage(name: &str, addend: i64) -> kir::Kernel {
    KernelBuilder::new(name)
        .input("in", Scalar::uint(32))
        .output("out", Scalar::uint(32))
        .local("x", Scalar::uint(32))
        .body([Stmt::for_pipelined(
            "i",
            0..16,
            [
                Stmt::read("x", "in"),
                Stmt::write("out", Expr::var("x").add(Expr::cint(addend))),
            ],
        )])
        .build()
        .unwrap()
}

fn pipeline(addends: &[i64; 3], riscv: &[bool; 3]) -> Graph {
    let mut b = GraphBuilder::new("pipe");
    let mut prev = None;
    for i in 0..3 {
        let target = if riscv[i] {
            Target::riscv_auto()
        } else {
            Target::hw_auto()
        };
        let id = b.add(format!("s{i}"), stage(&format!("s{i}"), addends[i]), target);
        match prev {
            None => b.ext_input("Input_1", id, "in"),
            Some(p) => {
                b.connect(format!("l{i}"), p, "out", id, "in");
            }
        }
        prev = Some(id);
    }
    b.ext_output("Output_1", prev.unwrap(), "out");
    b.build().unwrap()
}

/// One edit: change an operator's kernel, maybe flip its target, maybe
/// reseed the whole compile.
type Edit = (usize, i64, bool, u64);

fn staged_equals_fresh(level: OptLevel, edits: Vec<Edit>) {
    let mut addends = [1i64, 2, 3];
    let mut riscv = [false, false, false];
    let mut store = ArtifactStore::new();
    let mut opts = CompileOptions::new(level);

    let check = |opts: &CompileOptions, store: &mut ArtifactStore, graph: &Graph| {
        let (staged, report) = build(graph, opts, store).unwrap();
        let fresh = compile(graph, opts).unwrap();
        prop_assert_eq!(staged.artifacts.len(), fresh.artifacts.len());
        for (s, f) in staged.artifacts.iter().zip(&fresh.artifacts) {
            prop_assert_eq!(s.hash, f.hash);
            prop_assert_eq!(s, f);
        }
        prop_assert_eq!(&staged.driver, &fresh.driver);
        // The report's from-scratch estimate is bit-identical to the cost
        // the cold compile charges itself.
        prop_assert_eq!(report.fresh_vtime_serial, fresh.vtime_serial);
        prop_assert_eq!(report.fresh_vtime_parallel, fresh.vtime_parallel);
        // Incremental work never exceeds the from-scratch cost.
        prop_assert!(staged.vtime_serial.total() <= fresh.vtime_serial.total() + 1e-9);
    };

    check(&opts, &mut store, &pipeline(&addends, &riscv));
    for (op, addend, flip, seed) in edits {
        addends[op] = addend;
        if flip {
            riscv[op] = !riscv[op];
        }
        opts.seed = seed;
        check(&opts, &mut store, &pipeline(&addends, &riscv));
    }
}

/// One developer action on the graph *in place*, through its public fields:
/// `(kind, operator, argument)`.
type InPlaceEdit = (u8, usize, i64);

const DEAD: &str = "dead";

fn edit_in_place(g: &mut Graph, (kind, op, arg): InPlaceEdit) {
    let other = (op + 1 + arg as usize % 2) % 3;
    let strip = |k: &mut kir::Kernel| {
        k.locals.retain(|v| v.name != DEAD);
        k.body
            .retain(|s| !matches!(s, Stmt::Assign { var, .. } if var == DEAD));
    };
    match kind {
        // A body edit as `benchmark/src/edits.rs` makes it: strip the last
        // one, then append a dead assignment. Kind 0 assigns a constant, so
        // the netlist is the one any earlier kind-0 edit made (a `PlaceRoute`
        // hit); kind 1 assigns `x + arg`, one more operator, so it is new.
        0 | 1 => {
            let k = &mut g.operators[op].kernel;
            strip(k);
            k.locals.push(VarDecl {
                name: DEAD.into(),
                ty: Scalar::uint(32),
            });
            let value = match kind {
                0 => Expr::cint(arg),
                _ => Expr::var("x").add(Expr::cint(arg)),
            };
            k.body.push(Stmt::assign(DEAD, value));
        }
        // ...and its revert.
        2 => strip(&mut g.operators[op].kernel),
        // Rename the instance (and back): same kernel, another P&R seed.
        3 => {
            let name = &mut g.operators[op].name;
            *name = match name.strip_suffix("_r") {
                Some(base) => base.to_string(),
                None => format!("{name}_r"),
            };
        }
        // Two operators trade kernels (all stages share one port signature).
        4 => {
            let mine = g.operators[op].kernel.clone();
            g.operators[op].kernel = std::mem::replace(&mut g.operators[other].kernel, mine);
        }
        // Flip the pragma; flipping twice reverts.
        _ => {
            let t = &mut g.operators[op].target;
            *t = match t {
                Target::Hw { .. } => Target::riscv_auto(),
                Target::Riscv { .. } => Target::hw_auto(),
            };
        }
    }
}

/// The `BuildCache` keeps the last graph's kernel hashes and reuses them for
/// kernels that compare equal. However the caller's graph is edited — here
/// one `Graph` value mutated in place, so neither its address nor any
/// operator's says what changed — no build may see a stale hash: each equals
/// a from-scratch compile of the graph as it stands.
fn one_cache_in_place_edits_equal_fresh(edits: Vec<InPlaceEdit>) {
    let mut g = pipeline(&[1, 2, 3], &[false, false, false]);
    let opts = CompileOptions::new(OptLevel::O1);
    let mut cache = BuildCache::new();
    for step in 0..=edits.len() {
        if step > 0 {
            edit_in_place(&mut g, edits[step - 1]);
        }
        let staged = cache.compile(&g, &opts).unwrap();
        let fresh = compile(&g, &opts).unwrap();
        prop_assert_eq!(&staged.artifacts, &fresh.artifacts, "step {}", step);
        prop_assert_eq!(&staged.driver, &fresh.driver);
        let report = cache.last_report().unwrap();
        prop_assert_eq!(report.fresh_vtime_serial, fresh.vtime_serial);
        for (s, f) in staged.operators.iter().zip(&fresh.operators) {
            prop_assert_eq!(s.source_hash, f.source_hash);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn in_place_edits_through_one_build_cache_equal_fresh_compiles(
        edits in proptest::collection::vec((0u8..6, 0usize..3, 1i64..4), 1..7),
    ) {
        one_cache_in_place_edits_equal_fresh(edits);
    }

    #[test]
    fn staged_incremental_equals_fresh_compile_o1(
        edits in proptest::collection::vec(
            (0usize..3, 1i64..5, any::<bool>(), 1u64..4), 1..4),
    ) {
        staged_equals_fresh(OptLevel::O1, edits);
    }

    #[test]
    fn staged_incremental_equals_fresh_compile_o0(
        edits in proptest::collection::vec(
            (0usize..3, 1i64..5, any::<bool>(), 1u64..4), 1..4),
    ) {
        staged_equals_fresh(OptLevel::O0, edits);
    }
}
