//! One renderer per table and figure of the paper's Sec. 7 evaluation.
//!
//! Each returns the text committed under `results/` and, apart, whatever it
//! measured on the host (wall-clock times, the X86 and emulation rows):
//! those change from run to run and go to `results/host.txt`.

use dfg::Target;
use fabric::Floorplan;
use pld::execute::{perf_o0, perf_o1, PerfReport};
use pld::report::{area, vitis_baseline_area};
use pld::{compile, CompileOptions, LinkStyle, OptLevel, PhaseTimes};

use crate::perf::{perf_emu, perf_o3, perf_vitis, perf_x86};
use crate::{histogram_line, latency, secs, Suite};

/// One rendered artifact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rendered {
    /// The deterministic text: the same bits on every run and host.
    pub text: String,
    /// Host-measured lines (empty for most artifacts).
    pub host: String,
}

impl From<String> for Rendered {
    fn from(text: String) -> Rendered {
        Rendered {
            text,
            host: String::new(),
        }
    }
}

/// Appends one formatted line to a `String`.
macro_rules! out {
    ($dst:expr, $($arg:tt)*) => {{
        $dst.push_str(&format!($($arg)*));
        $dst.push('\n');
    }};
}

/// Tab. 1: resource distribution of the page types.
pub fn table1() -> Rendered {
    let fp = Floorplan::u50();
    let mut t = String::from(
        "Table 1: Resource Distribution (model vs paper)\n\n\
         Page Type       LUTs       FFs   BRAM18s    DSPs  Number\n",
    );
    for ty in 1..=fp.type_count() {
        let r = fp.type_resources(ty).expect("type exists");
        let n = fp.pages_of_type(ty).count();
        let name = format!("Type-{ty}");
        let (l, f, b, d) = (r.luts, r.ffs, r.bram18, r.dsp);
        out!(t, "{name:10} {l:>9} {f:>9} {b:>9} {d:>7} {n:>7}");
    }
    t.push_str("\npaper           LUTs       FFs   BRAM18s    DSPs  Number\n");
    for (ty, l, f, b, d, n) in [
        (1, 21_240, 43_200, 120, 168, 7),
        (2, 17_464, 35_520, 72, 120, 7),
        (3, 18_880, 38_400, 72, 144, 7),
        (4, 18_560, 37_440, 48, 144, 1),
    ] {
        out!(t, "Type-{ty}     {l:>9} {f:>9} {b:>9} {d:>7} {n:>7}");
    }
    out!(t, "\ndevice totals: {}", fp.device.user_resources());
    t.push_str(
        "paper device : 751,793 LUT, ~2,300 BRAM18, 5,936 DSP (Sec. 7.1)\n\n\
         Shape checks: 22 pages; four heterogeneous types; counts 7/7/7/1;\n\
         page LUTs in the 17-29k band around the ~18k operating point.\n",
    );
    t.into()
}

/// Tab. 2: Rosetta compile times across the flows. The "Vitis Flow" column
/// is the fused baseline — the same design with the inter-operator stream
/// interfaces collapsed, compiled monolithically — standing in for the
/// vendor compile of the original undecomposed benchmarks (the paper found
/// it within a few percent of the decomposed `-O3` compile, as here).
pub fn table2(suite: &Suite) -> Rendered {
    let scale = suite.scale;
    let mut t = format!(
        "Table 2: Rosetta Benchmark Compile Time (virtual seconds, {scale:?} scale)\n\n\
         benchmark          |    Vitis |     hls     syn     p&r     bit  O3total |     hls     syn     p&r     bit  O1total |       O0\n\
         -------------------+----------+------------------------------------------+------------------------------------------+---------\n"
    );
    let mut host = format!(
        "Table 2: measured toolchain wall-clock (seconds, {scale:?} scale)\n\
         benchmark                 -O3        -O1        -O0\n"
    );
    let phases = |p: PhaseTimes| {
        let [h, s, r, b, total] = [p.hls, p.syn, p.pnr, p.bit, p.total()].map(secs);
        format!("{h:>7} {s:>7} {r:>7} {b:>7} {total:>8}")
    };
    for e in &suite.entries {
        let name = e.bench.name;
        let vitis = e.vitis.as_ref().map(|b| b.vtime.total());
        let vitis = vitis.map_or("-".into(), secs);
        // -O3 bills one machine; -O1 pages compile in parallel, so the
        // slowest page defines the turn.
        let (o3, o1) = (phases(e.o3.vtime_serial), phases(e.o1.vtime_parallel));
        let o0 = secs(e.o0.vtime_parallel.total());
        out!(t, "{name:18} | {vitis:>8} | {o3} | {o1} | {o0:>8}");
        let (o3, o1, o0) = (e.o3.wall_seconds, e.o1.wall_seconds, e.o0.wall_seconds);
        out!(host, "{name:18} {o3:>10.2} {o1:>10.2} {o0:>10.3}");
    }

    // The paper's headline ratios.
    t.push_str(
        "\nspeedups over the monolithic flow:\nbenchmark                 O3/O1        O3/O0\n",
    );
    for e in &suite.entries {
        let o3 = e.o3.compile_seconds();
        let (o1, o0) = (o3 / e.o1.compile_seconds(), o3 / e.o0.compile_seconds());
        out!(t, "{:18} {o1:>11.1}x {o0:>11.0}x", e.bench.name);
    }
    t.push_str("\npaper shape: -O1 4.2-7.3x faster than monolithic; -O0 under 4 s.\n");
    Rendered { text: t, host }
}

/// Tab. 3: Rosetta performance across execution modes.
pub fn table3(suite: &Suite) -> Rendered {
    let scale = suite.scale;
    let mut t = format!(
        "Table 3: Rosetta Benchmark Performance ({scale:?} scale)\n\n\
         benchmark          |   Fmax      Vitis |   Fmax        -O3 |   Fmax        -O1 |   Fmax        -O0\n"
    );
    let mut host = format!(
        "Table 3: host-measured rows (per input, {scale:?} scale)\n\
         benchmark          |        X86 |   VitisEmu\n"
    );
    let mut ratios = String::new();
    for e in &suite.entries {
        let inputs = e.bench.input_refs();
        let per = |p: PerfReport| latency(p.seconds_per_input / e.bench.items as f64);
        let vitis = perf_vitis(&e.o3, e.vitis.as_ref()).expect("vitis model");
        let o3 = perf_o3(&e.o3).expect("o3 model");
        let o1 = perf_o1(&e.o1, &inputs).expect("o1 cosim");
        let o0 = perf_o0(&e.o0, &inputs).expect("o0 softcores");
        let mut cells = String::new();
        for p in [vitis, o3, o1, o0] {
            cells += &format!(" | {:>4.0}MHz {:>10}", p.fmax_mhz, per(p));
        }
        out!(t, "{:18}{cells}", e.bench.name);
        let x86 = per(perf_x86(&e.bench.graph, &inputs).expect("x86"));
        let emu = per(perf_emu(&e.o3).expect("emulation"));
        out!(host, "{:18} | {x86:>10} | {emu:>10}", e.bench.name);
        let [r1, r0] = [o1, o0].map(|p| p.seconds_per_input / o3.seconds_per_input);
        out!(ratios, "{:18} {r1:>9.1}x {r0:>11.0}x", e.bench.name);
    }
    t.push_str(
        "\nslowdown ratios vs -O3 (paper shape: -O1 1.5-10x; -O0 10^3-10^5x):\n\
         benchmark               O1/O3        O0/O3\n",
    );
    t.push_str(&ratios);
    Rendered { text: t, host }
}

/// Tab. 4: Rosetta area consumption across the flows.
pub fn table4(suite: &Suite) -> Rendered {
    let mut t = format!(
        "Table 4: Rosetta Benchmark Area Consumption ({:?} scale)\n\n\
         benchmark          | VitisLUT   B18   DSP |   O3 LUT   B18   DSP |   O1 LUT   B18   DSP pages |   O0 LUT   B18   DSP pages\n",
        suite.scale
    );
    for e in &suite.entries {
        let vitis = vitis_baseline_area(&e.o1);
        let (o3, o1, o0) = (area(&e.o3), area(&e.o1), area(&e.o0));
        out!(
            t,
            "{:18} | {:>8} {:>5} {:>5} | {:>8} {:>5} {:>5} | {:>8} {:>5} {:>5} {:>5} | {:>8} {:>5} {:>5} {:>5}",
            e.bench.name,
            vitis.luts, vitis.bram18, vitis.dsp,
            o3.resources.luts, o3.resources.bram18, o3.resources.dsp,
            o1.resources.luts, o1.resources.bram18, o1.resources.dsp, o1.pages,
            o0.resources.luts, o0.resources.bram18, o0.resources.dsp, o0.pages,
        );
    }
    t.push_str(
        "\npaper shape checks:\n  \
         - O3 and O1 exceed the Vitis baseline (link FIFOs + leaf interfaces);\n  \
         - O1 exceeds O3 (one leaf interface per operator);\n  \
         - O0 dwarfs everything (whole one-size-fits-all pages, Sec. 7.5).\n",
    );
    t.into()
}

/// Fig. 8: the physical layout floorplan.
pub fn fig8() -> Rendered {
    let fp = Floorplan::u50();
    let mut t = format!(
        "Figure 8: Physical Layout Floorplan (model)\n\n{}\ninfrastructure blocks:\n",
        fp.render()
    );
    for (name, r) in &fp.infra {
        out!(t, "  {name:16} at ({:2},{:2}) {}x{}", r.x0, r.y0, r.w, r.h);
    }
    t.into()
}

/// Fig. 9: the distribution of per-page operator mapping times under `-O1`.
pub fn fig9(suite: &Suite) -> Rendered {
    let mut t = format!(
        "Figure 9: Operators Mapping Time for PLD with -O1 ({:?} scale)\n\n\
         benchmark              min  median     max  distribution (min..max)\n",
        suite.scale
    );
    for e in &suite.entries {
        let mut times: Vec<f64> = e.o1.operators.iter().map(|o| o.vtime.total()).collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        let [min, median, max] = [0, times.len() / 2, times.len() - 1].map(|i| secs(times[i]));
        let (name, hist) = (e.bench.name, histogram_line(&times, 24));
        out!(t, "{name:18} {min:>6}s {median:>6}s {max:>6}s  [{hist}]");
    }
    t.push_str(
        "\npaper shape: per-page compiles spread over minutes; the worst page\n\
         defines the -O1 turn, and designs with a 2x-slowest page also hold\n\
         pages that compile in half the time (Sec. 7.3).\n",
    );
    t.into()
}

/// `graph` with `soft_op` mapped to a softcore and every other operator to
/// an FPGA page.
fn retarget(graph: &dfg::Graph, soft_op: &str) -> dfg::Graph {
    let mut graph = graph.clone();
    for o in &mut graph.operators {
        let soft = o.name == soft_op;
        o.target = if soft {
            Target::riscv_auto()
        } else {
            Target::hw_auto()
        };
    }
    graph
}

/// Fig. 10: speedup distribution with one operator on a softcore (`-O0`)
/// and the rest on FPGA pages (`-O1`), normalized to the all-softcore case.
pub fn fig10(suite: &Suite) -> Rendered {
    let mut t = format!(
        "Figure 10: Speedup with One Softcore (-O0) and Rest on Pages (-O1),\n\
         normalized to the all-softcore (-O0) case ({:?} scale)\n\n",
        suite.scale
    );
    for e in &suite.entries {
        let inputs = e.bench.input_refs();
        // Baseline: everything on softcores.
        let base = perf_o0(&e.o0, &inputs).expect("o0 perf").seconds_per_input;
        let mut speedups = Vec::new();
        for op in &e.bench.graph.operators {
            let g = retarget(&e.bench.graph, &op.name);
            let app = compile(&g, &CompileOptions::new(OptLevel::O1))
                .unwrap_or_else(|err| panic!("{}/{}: {err}", e.bench.name, op.name));
            let mixed = perf_o1(&app, &inputs).expect("mixed cosim");
            speedups.push(base / mixed.seconds_per_input);
        }
        speedups.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let (lo, hi) = (speedups[0], speedups[speedups.len() - 1]);
        let (name, hist) = (e.bench.name, histogram_line(&speedups, 24));
        out!(
            t,
            "{name:18} speedup {lo:>8.1}x .. {hi:>8.1}x over all--O0  [{hist}]"
        );
    }
    t.push_str(
        "\npaper shape: when the bottleneck operator is the softcore the speedup\n\
         approaches 1x; otherwise it falls between the all--O0 and all--O1 cases.\n",
    );
    t.into()
}

/// Fig. 11: performance vs compile time across the options. The Vitis
/// point sits at the fused baseline's compile time, Tab. 2's Vitis column.
pub fn fig11(suite: &Suite) -> Rendered {
    let mut t = format!(
        "Figure 11: Performance vs. Compile Time ({:?} scale)\n\n\
         benchmark          option      compile (s)          s/input    norm perf\n",
        suite.scale
    );
    let mut points: Vec<(f64, f64)> = Vec::new();
    for e in &suite.entries {
        let (bench, inputs) = (e.bench.name, e.bench.input_refs());
        let items = e.bench.items as f64;
        let o3_perf = perf_o3(&e.o3).expect("o3").seconds_per_input / items;
        let vitis = e.vitis.as_ref().map(|b| {
            let perf = perf_vitis(&e.o3, Some(b)).expect("vitis");
            ("Vitis", b.vtime.total(), perf.seconds_per_input / items)
        });
        let o1 = perf_o1(&e.o1, &inputs).expect("o1").seconds_per_input;
        let o0 = perf_o0(&e.o0, &inputs).expect("o0").seconds_per_input;
        let rows = [
            ("-O3", e.o3.compile_seconds(), o3_perf),
            ("-O1", e.o1.compile_seconds(), o1 / items),
            ("-O0", e.o0.compile_seconds(), o0 / items),
        ];
        for (name, compile_s, per_input) in vitis.into_iter().chain(rows) {
            let norm = o3_perf / per_input; // 1.0 = -O3 performance
            out!(
                t,
                "{bench:18} {name:8} {compile_s:>14.1} {per_input:>16.6} {norm:>12.6}"
            );
            points.push((compile_s, norm));
        }
    }

    // ASCII scatter: log-x compile time, log-y normalized performance.
    t.push_str("\nlog-log scatter (x: compile seconds, y: normalized performance):\n");
    let (w, h) = (64, 16);
    let xs: Vec<f64> = points.iter().map(|p| p.0.log10()).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.1.log10()).collect();
    let range = |v: &[f64]| {
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        (lo, v.iter().cloned().fold(f64::NEG_INFINITY, f64::max) - lo)
    };
    let ((x0, dx), (y0, dy)) = (range(&xs), range(&ys));
    let mut grid = vec![vec![' '; w]; h];
    for (x, y) in xs.iter().zip(&ys) {
        let cx = (((x - x0) / dx.max(1e-9)) * (w as f64 - 1.0)) as usize;
        let cy = (((y - y0) / dy.max(1e-9)) * (h as f64 - 1.0)) as usize;
        grid[h - 1 - cy][cx] = '*';
    }
    for row in grid {
        out!(t, "  |{}", row.into_iter().collect::<String>());
    }
    out!(t, "  +{}", "-".repeat(w));
    t.push_str(
        "\npaper shape: three clusters — seconds/slow (-O0), minutes/mid (-O1),\n\
         hours/fast (Vitis & -O3) — new points in the compile-time/performance\n\
         trade space (Sec. 7.4).\n",
    );
    t.into()
}

/// Ablations of PLD's design choices (the extensions DESIGN.md calls out):
/// the `-O3` link style — stream FIFOs vs relay stations (Sec. 7.5) — and
/// the overlay granularity — 22 coarse pages vs 44 fine pages (Sec. 9).
pub fn ablation(suite: &Suite) -> Rendered {
    let mut t = String::from(
        "Ablation 1: -O3 link style (stream FIFOs vs relay stations)\n\n\
         benchmark            FIFO LUT      B18 |  relay LUT      B18\n",
    );
    for e in &suite.entries {
        let relay = CompileOptions {
            link_style: LinkStyle::RelayStation,
            ..CompileOptions::new(OptLevel::O3)
        };
        let relay = compile(&e.bench.graph, &relay).expect("relay");
        let f = e.o3.monolithic.as_ref().expect("mono").netlist.resources();
        let r = relay.monolithic.as_ref().expect("mono").netlist.resources();
        let (name, fl, fb, rl, rb) = (e.bench.name, f.luts, f.bram18, r.luts, r.bram18);
        out!(t, "{name:18} {fl:>10} {fb:>8} | {rl:>10} {rb:>8}");
    }
    t.push_str(
        "paper claim: relay stations remove the FIFO BRAM cost (Sec. 7.5).\n\n\
         Ablation 2: overlay granularity (22 coarse vs 44 fine pages), -O1 compile\n\n\
         benchmark           coarse worst(s)    fine worst(s)\n",
    );
    for e in &suite.entries {
        let coarse = e.o1.vtime_parallel.total();
        let fine = CompileOptions {
            floorplan: Floorplan::u50_fine(),
            ..CompileOptions::new(OptLevel::O1)
        };
        let fine = match compile(&e.bench.graph, &fine) {
            Ok(app) => format!("{:>16.0}", app.vtime_parallel.total()),
            Err(err) => format!("{:>16}", format!("does not fit ({err})")),
        };
        out!(t, "{:18} {coarse:>16.0} {fine}", e.bench.name);
    }
    t.push_str(
        "\npaper Sec. 9: smaller pages = faster turns when the operators fit;\n\
         operators too big for a fine page fail placement, the capacity\n\
         trade-off Eq. 1 and Sec. 4.1 describe.\n",
    );
    t.into()
}
