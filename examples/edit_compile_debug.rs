//! The edit-compile-debug loop the paper is about (Secs. 1, 6, 7.6).
//!
//! A developer brings up the optical-flow application the way the paper
//! describes modern software engineering: start with everything on
//! softcores (instant compiles, slow execution), then *incrementally*
//! promote one operator per turn to native FPGA logic by flipping its
//! pragma — each turn recompiles exactly one page while the application
//! stays runnable throughout.
//!
//! Run with: `cargo run --release --example edit_compile_debug`

use dfg::{Graph, GraphBuilder, Target};
use pld::{BuildCache, CompileOptions, OptLevel};
use rosetta::{optical, Scale};

/// Rebuilds the optical-flow graph with chosen per-operator targets.
fn with_targets(base: &Graph, hw: &[&str]) -> Graph {
    let mut b = GraphBuilder::new(base.name.clone());
    let ids: Vec<_> = base
        .operators
        .iter()
        .map(|o| {
            let target = if hw.contains(&o.name.as_str()) {
                Target::hw_auto()
            } else {
                Target::riscv_auto()
            };
            b.add(o.name.clone(), o.kernel.clone(), target)
        })
        .collect();
    for p in &base.ext_inputs {
        b.ext_input(p.name.clone(), ids[p.op.0], &p.port);
    }
    for e in &base.edges {
        b.connect(
            e.name.clone(),
            ids[e.from.0 .0],
            &e.from.1,
            ids[e.to.0 .0],
            &e.to.1,
        );
    }
    for p in &base.ext_outputs {
        b.ext_output(p.name.clone(), ids[p.op.0], &p.port);
    }
    b.build().expect("retargeted graph is well-formed")
}

fn main() {
    let (w, h) = optical::dims(Scale::Tiny);
    let base = optical::graph(w, h);
    let order = [
        "flow_calc",
        "tensor_x",
        "tensor_y",
        "weight_y",
        "grad_xy",
        "grad_z",
        "unpack",
    ];

    let mut cache = BuildCache::new();
    let opts = CompileOptions::new(OptLevel::O1);

    println!("turn  promoted      recompiled  stages hit/run  turn vtime  app still runs?");
    let mut promoted: Vec<&str> = Vec::new();
    for turn in 0..=order.len() {
        let graph = with_targets(&base, &promoted);
        let app = cache.compile(&graph, &opts).expect("compiles");
        // The build graph reports which operators executed a stage, and
        // which typed stages were served from the artifact store and which
        // ran.
        let report = cache.last_report().expect("just compiled");
        let recompiled = report.operators.iter().filter(|o| o.executions > 0).count();
        let stages = format!("{}/{}", report.total_hits(), report.total_executions());
        // The application is always runnable: functional check each turn.
        let bench = optical::bench(Scale::Tiny);
        let (out, _) = dfg::run_graph(&graph, &bench.input_refs()).expect("runs");
        let ok = !out["Output_1"].is_empty();
        println!(
            "{:>4}  {:12}  {:>10}  {:>14}  {:>8.1} s  {}",
            turn,
            promoted.last().copied().unwrap_or("(all -O0)"),
            recompiled,
            stages,
            app.vtime_serial.total(),
            if ok { "yes" } else { "NO" },
        );
        if turn < order.len() {
            promoted.push(order[turn]);
        }
    }

    println!("\nEvery turn after the first recompiled exactly one operator; the");
    println!("developer always had a running application (paper Sec. 10).");
}
