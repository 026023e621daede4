//! The paper's flagship workload end to end: compile optical flow at every
//! level and print its slice of Tab. 2 (compile time) and Tab. 3
//! (performance).
//!
//! Run with: `cargo run --release --example optical_flow`

use pld::execute::{perf_o0, perf_o1};
use pld::{compile, CompileOptions, OptLevel};
use pld_repro::perf::{perf_emu, perf_o3, perf_vitis, perf_x86};
use pld_repro::vitis_baseline;
use rosetta::{optical, Scale};

fn main() {
    let bench = optical::bench(Scale::Small);
    let inputs = bench.input_refs();
    println!(
        "optical flow, {} operators, {} stream links",
        bench.graph.operators.len(),
        bench.graph.edges.len()
    );

    // Compile three ways.
    let o0 = compile(&bench.graph, &CompileOptions::new(OptLevel::O0)).expect("-O0");
    let o1 = compile(&bench.graph, &CompileOptions::new(OptLevel::O1)).expect("-O1");
    let o3_options = CompileOptions::new(OptLevel::O3);
    let o3 = compile(&bench.graph, &o3_options).expect("-O3");

    println!("\ncompile time (virtual seconds, Tab. 2 shape):");
    println!(
        "  {:6} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "", "hls", "syn", "p&r", "bit", "total"
    );
    for (name, t) in [("-O3", o3.vtime_serial), ("-O1", o1.vtime_parallel)] {
        println!(
            "  {:6} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
            name,
            t.hls,
            t.syn,
            t.pnr,
            t.bit,
            t.total()
        );
    }
    println!("  {:6} {:>54.1}", "-O0", o0.vtime_parallel.total());

    // Performance rows.
    println!("\nperformance (Tab. 3 shape):");
    let o3_perf = perf_o3(&o3).expect("O3 perf");
    let baseline = vitis_baseline(&o3, &o3_options);
    let vitis = perf_vitis(&o3, baseline.as_ref()).expect("Vitis perf");
    let o1_perf = perf_o1(&o1, &inputs).expect("O1 perf");
    let o0_perf = perf_o0(&o0, &inputs).expect("O0 perf");
    let x86 = perf_x86(&bench.graph, &inputs).expect("x86 perf");
    let emu = perf_emu(&o3).expect("emu perf");
    for p in [vitis, o3_perf, o1_perf, o0_perf, x86, emu] {
        let fmax = if p.fmax_mhz > 0.0 {
            format!("{:.0} MHz", p.fmax_mhz)
        } else {
            "-".into()
        };
        println!(
            "  {:10} {:>9}  {:>14.6} s/input",
            p.mode.to_string(),
            fmax,
            p.seconds_per_input / bench.items as f64
        );
    }

    println!("\narea (Tab. 4 shape):");
    for (name, app) in [("-O3", &o3), ("-O1", &o1), ("-O0", &o0)] {
        let a = pld::report::area(app);
        println!(
            "  {:6} {:>9} LUT {:>6} BRAM18 {:>6} DSP {:>4} pages",
            name, a.resources.luts, a.resources.bram18, a.resources.dsp, a.pages
        );
    }
}
