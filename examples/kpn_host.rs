//! Host-side Kahn-process-network execution: the same dataflow graph, run
//! truly concurrently with one OS thread per operator and bounded
//! latency-insensitive channels between them.
//!
//! This is the strongest demonstration of the paper's Sec. 3.2 claim: the
//! *functional* behaviour of a latency-insensitive design is independent of
//! operator timing — the batch interpreter, the threaded host runtime and
//! every hardware mapping produce bit-identical streams.
//!
//! Run with: `cargo run --release --example kpn_host`

use rosetta::{suite, Scale};
use std::time::Instant;

fn main() {
    println!(
        "{:18} {:>12} {:>12}  outputs identical?",
        "benchmark", "batch", "threaded"
    );
    for bench in suite(Scale::Small) {
        let inputs = bench.input_refs();

        let t0 = Instant::now();
        let (batch, _) = dfg::run_graph(&bench.graph, &inputs).expect("batch run");
        let batch_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let (threaded, _) = dfg::run_graph_threaded(&bench.graph, &inputs).expect("threaded run");
        let threaded_s = t1.elapsed().as_secs_f64();

        let identical = batch == threaded;
        println!(
            "{:18} {:>10.1}ms {:>10.1}ms  {}",
            bench.name,
            batch_s * 1e3,
            threaded_s * 1e3,
            if identical { "yes" } else { "NO" },
        );
        assert!(identical, "{}: Kahn determinism violated", bench.name);
    }
    println!("\nEvery pipeline produced bit-identical output under concurrent");
    println!("execution with bounded FIFOs — the Kahn guarantee PLD builds on.");
}
