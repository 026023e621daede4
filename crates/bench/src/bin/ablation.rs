//! Ablations of PLD's design choices (the extensions DESIGN.md calls out):
//!
//! 1. `-O3` link style — stream FIFOs vs relay stations (paper Sec. 7.5);
//! 2. overlay granularity — 22 coarse pages vs 44 fine pages (Sec. 9).
//!
//! `cargo run --release -p pld-bench --bin ablation [tiny|small|medium]`

use fabric::Floorplan;
use pld::{compile, CompileOptions, LinkStyle, OptLevel};
use pld_bench::scale_from_args;
use rosetta::suite;

fn main() {
    let scale = scale_from_args();

    println!("Ablation 1: -O3 link style (stream FIFOs vs relay stations)\n");
    println!(
        "{:18} {:>10} {:>8} | {:>10} {:>8}",
        "benchmark", "FIFO LUT", "B18", "relay LUT", "B18"
    );
    for bench in suite(scale) {
        let fifo = compile(&bench.graph, &CompileOptions::new(OptLevel::O3)).expect("fifo");
        let relay = compile(
            &bench.graph,
            &CompileOptions {
                link_style: LinkStyle::RelayStation,
                ..CompileOptions::new(OptLevel::O3)
            },
        )
        .expect("relay");
        let f = fifo.monolithic.as_ref().expect("mono").netlist.resources();
        let r = relay.monolithic.as_ref().expect("mono").netlist.resources();
        println!(
            "{:18} {:>10} {:>8} | {:>10} {:>8}",
            bench.name, f.luts, f.bram18, r.luts, r.bram18
        );
    }
    println!("paper claim: relay stations remove the FIFO BRAM cost (Sec. 7.5).\n");

    println!("Ablation 2: overlay granularity (22 coarse vs 44 fine pages), -O1 compile\n");
    println!(
        "{:18} {:>16} {:>16}",
        "benchmark", "coarse worst(s)", "fine worst(s)"
    );
    for bench in suite(scale) {
        let coarse = compile(&bench.graph, &CompileOptions::new(OptLevel::O1)).expect("coarse");
        let fine = compile(
            &bench.graph,
            &CompileOptions {
                floorplan: Floorplan::u50_fine(),
                ..CompileOptions::new(OptLevel::O1)
            },
        );
        match fine {
            Ok(fine) => println!(
                "{:18} {:>16.0} {:>16.0}",
                bench.name,
                coarse.vtime_parallel.total(),
                fine.vtime_parallel.total()
            ),
            Err(e) => println!(
                "{:18} {:>16.0} {:>16}",
                bench.name,
                coarse.vtime_parallel.total(),
                format!("does not fit ({e})")
            ),
        }
    }
    println!("\npaper Sec. 9: smaller pages = faster turns when the operators fit;");
    println!("operators too big for a fine page fail placement, the capacity");
    println!("trade-off Eq. 1 and Sec. 4.1 describe.");
}
