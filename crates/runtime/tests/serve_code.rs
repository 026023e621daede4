//! The serve path runs the code compiled at admission, not the graph: a hot
//! swap must recompile what it edits, and a migration must carry the edit.
//! An edit that keeps every output (the kind a benchmark's swaps make)
//! cannot tell stale code from fresh, so this one changes the outputs.

use dfg::{run_graph, Graph, GraphBuilder, Target};
use fabric::Floorplan;
use kir::{Expr, KernelBuilder, Scalar, Stmt};
use pld::{BuildCache, CompileOptions, OptLevel};
use pld_runtime::{DeviceId, Fleet, TenantId};

const TOKENS: u32 = 32;

fn stage(name: &str, addend: i64) -> kir::Kernel {
    KernelBuilder::new(name)
        .input("in", Scalar::uint(32))
        .output("out", Scalar::uint(32))
        .local("x", Scalar::uint(32))
        .body([Stmt::for_pipelined(
            "i",
            0..TOKENS as i64,
            [
                Stmt::read("x", "in"),
                Stmt::write("out", Expr::var("x").add(Expr::cint(addend))),
            ],
        )])
        .build()
        .unwrap()
}

fn pipeline(addends: [i64; 3]) -> Graph {
    let mut b = GraphBuilder::new("pipe");
    let a = b.add("a", stage("a", addends[0]), Target::riscv_auto());
    let c = b.add("c", stage("c", addends[1]), Target::riscv_auto());
    let d = b.add("d", stage("d", addends[2]), Target::riscv_auto());
    b.ext_input("Input_1", a, "in");
    b.connect("l1", a, "out", c, "in");
    b.connect("l2", c, "out", d, "in");
    b.ext_output("Output_1", d, "out");
    b.build().unwrap()
}

#[test]
fn swapped_and_migrated_apps_serve_the_edited_graph() {
    let words: Vec<u32> = (0..TOKENS).collect();
    let inputs = [(
        "Input_1",
        kir::wire::words_to_stream(Scalar::uint(32), &words),
    )];
    let fresh = |g: &Graph| run_graph(g, &inputs).unwrap().0;

    let mut cache = BuildCache::new();
    let opts = CompileOptions::new(OptLevel::O0);
    let (before, after) = (pipeline([1, 2, 3]), pipeline([1, 200, 3]));
    assert_ne!(fresh(&before), fresh(&after), "the edit changes outputs");

    let mut fleet = Fleet::new(2, &Floorplan::u50());
    let id = fleet
        .submit(TenantId(0), "pipe", cache.compile(&before, &opts).unwrap())
        .unwrap();
    fleet.pump();
    assert_eq!(fleet.run(id, &inputs).unwrap(), fresh(&before));

    let (home, _) = fleet.locate(id).unwrap();
    let report = fleet
        .runtime_mut(home)
        .unwrap()
        .hot_swap(id, &after, &mut cache, &opts)
        .unwrap();
    assert_eq!(report.recompiled, vec!["c".to_string()]);
    assert_eq!(fleet.run(id, &inputs).unwrap(), fresh(&after));

    let other = DeviceId(1 - home.0);
    fleet.migrate(id, other).unwrap();
    assert_eq!(fleet.locate(id).map(|(d, _)| d), Some(other));
    assert_eq!(fleet.run(id, &inputs).unwrap(), fresh(&after));
}
