//! Tab. 3's Vitis, `-O3`, X86 and emulation rows; the `-O1` and `-O0` rows
//! are `pld::execute::{perf_o1, perf_o0}`. The Vitis and `-O3` rows run the
//! bottleneck operator's cycles at the fused ([`crate::baseline`]) and the
//! FIFO-isolated kernel's post-P&R clock; X86 times the host interpreter;
//! the emulation row extrapolates the netlist emulator's measured rate.

use dfg::Graph;
use kir::types::Value;
use pld::execute::{PerfError, PerfReport, RunMode};
use pld::flow::MonolithicInfo;
use pld::{CompiledApp, OptLevel};

use crate::baseline::Baseline;

/// The monolithic results of `app` and its bottleneck operator's cycles
/// per input under direct FIFOs, or the typed error of a paged app.
fn monolithic(app: &CompiledApp) -> Result<(&MonolithicInfo, u64), PerfError> {
    let expected = OptLevel::O3;
    let mono = app
        .monolithic
        .as_ref()
        .ok_or(PerfError::WrongLevel { expected })?;
    let hw_cycles = app
        .operators
        .iter()
        .map(|o| o.hls.as_ref().map_or(1, |h| h.invocation_cycles));
    Ok((mono, hw_cycles.max().unwrap_or(1)))
}

/// A row running `cycles` per input at `fmax_mhz`.
fn clocked(mode: RunMode, cycles: u64, fmax_mhz: f64) -> PerfReport {
    let seconds_per_input = cycles as f64 / (fmax_mhz * 1e6);
    PerfReport {
        mode,
        fmax_mhz,
        seconds_per_input,
        cycles,
    }
}

/// Vitis row: bottleneck cycles at the fused-design frequency.
///
/// The fused frequency penalty reflects the paper's observation that the
/// original monolithic designs "may suffer from long wires and slow SLR
/// crossings" that PLD's `-O3` FIFOs isolate. Without a routed `baseline`
/// the frequency falls back to the analytic long-wire model (critical path
/// plus the worst net delay of the `-O3` design).
pub fn perf_vitis(app: &CompiledApp, baseline: Option<&Baseline>) -> Result<PerfReport, PerfError> {
    let (mono, cycles) = monolithic(app)?;
    let fmax = match baseline {
        Some(b) => b.timing.fmax_mhz.min(300.0),
        None => (1000.0 / (mono.timing.critical_ns + mono.timing.worst_net_ns)).min(300.0),
    };
    Ok(clocked(RunMode::Vitis, cycles, fmax))
}

/// `-O3` row: bottleneck cycles at the kernel's post-P&R frequency.
pub fn perf_o3(app: &CompiledApp) -> Result<PerfReport, PerfError> {
    let (mono, cycles) = monolithic(app)?;
    Ok(clocked(
        RunMode::O3,
        cycles,
        mono.timing.fmax_mhz.min(300.0),
    ))
}

/// X86 row: measured native execution of the same graph.
pub fn perf_x86(graph: &Graph, inputs: &[(&str, Vec<Value>)]) -> Result<PerfReport, PerfError> {
    let t0 = std::time::Instant::now();
    let _ = dfg::run_graph(graph, inputs)?;
    let seconds = t0.elapsed().as_secs_f64();
    Ok(PerfReport {
        mode: RunMode::X86,
        fmax_mhz: 0.0,
        seconds_per_input: seconds,
        cycles: 0,
    })
}

/// Vitis-Emu row: RTL-style emulation of the monolithic netlist. Measures
/// the real event rate on a calibration slice, then extrapolates to the
/// bottleneck cycle count.
pub fn perf_emu(app: &CompiledApp) -> Result<PerfReport, PerfError> {
    let (mono, cycles) = monolithic(app)?;
    let probe = crate::emu::emulate(&mono.netlist, 2_000);
    let events_needed = cycles.saturating_mul(mono.netlist.cell_count() as u64);
    let seconds = events_needed as f64 / probe.events_per_second();
    Ok(PerfReport {
        mode: RunMode::VitisEmu,
        fmax_mhz: 0.0,
        seconds_per_input: seconds,
        cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::vitis_baseline;
    use aplib::DynInt;
    use dfg::{GraphBuilder, Target};
    use kir::{Expr, KernelBuilder, Scalar, Stmt};
    use pld::execute::{perf_o0, perf_o1};
    use pld::{compile, CompileOptions};

    const N: i64 = 64;

    fn stage(name: &str) -> kir::Kernel {
        KernelBuilder::new(name)
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([Stmt::for_pipelined(
                "i",
                0..N,
                [
                    Stmt::read("x", "in"),
                    Stmt::write("out", Expr::var("x").add(Expr::cint(1))),
                ],
            )])
            .build()
            .unwrap()
    }

    fn graph(targets: [Target; 2]) -> Graph {
        let mut b = GraphBuilder::new("g");
        let a = b.add("a", stage("a"), targets[0]);
        let c = b.add("c", stage("c"), targets[1]);
        b.ext_input("Input_1", a, "in");
        b.connect("l", a, "out", c, "in");
        b.ext_output("Output_1", c, "out");
        b.build().unwrap()
    }

    fn words() -> Vec<Value> {
        (0..N as u128)
            .map(|i| Value::Int(DynInt::from_raw(32, false, i)))
            .collect()
    }

    #[test]
    fn tab3_ordering_o3_beats_o1_beats_o0() {
        let g = graph([Target::hw_auto(), Target::hw_auto()]);
        let o3_app = compile(&g, &CompileOptions::new(OptLevel::O3)).unwrap();
        let o1_app = compile(&g, &CompileOptions::new(OptLevel::O1)).unwrap();
        let o0_app = compile(&g, &CompileOptions::new(OptLevel::O0)).unwrap();

        let inputs = vec![("Input_1", words())];
        let o3 = perf_o3(&o3_app).unwrap();
        let o1 = perf_o1(&o1_app, &inputs).unwrap();
        let o0 = perf_o0(&o0_app, &inputs).unwrap();

        assert!(
            o3.seconds_per_input < o1.seconds_per_input,
            "{o3:?} vs {o1:?}"
        );
        assert!(
            o1.seconds_per_input * 10.0 < o0.seconds_per_input,
            "softcores are orders of magnitude slower: {o1:?} vs {o0:?}"
        );
        assert_eq!(o1.fmax_mhz, 200.0);
    }

    #[test]
    fn vitis_fused_is_not_faster_than_o3() {
        let g = graph([Target::hw_auto(), Target::hw_auto()]);
        let options = CompileOptions::new(OptLevel::O3);
        let app = compile(&g, &options).unwrap();
        let baseline = vitis_baseline(&app, &options);
        assert!(baseline.is_some(), "the fused two-stage design routes");
        let vitis = perf_vitis(&app, baseline.as_ref()).unwrap();
        let o3 = perf_o3(&app).unwrap();
        assert!(vitis.fmax_mhz <= o3.fmax_mhz + 1e-9);
    }

    #[test]
    fn emulation_is_much_slower_than_hardware() {
        let g = graph([Target::hw_auto(), Target::hw_auto()]);
        let app = compile(&g, &CompileOptions::new(OptLevel::O3)).unwrap();
        let o3 = perf_o3(&app).unwrap();
        let emu = perf_emu(&app).unwrap();
        // The emulator rate comes from a wall-clock probe of the host, so
        // the exact ratio varies with machine and build profile; the stable
        // claim is only that emulation never beats modeled hardware.
        assert!(emu.seconds_per_input > o3.seconds_per_input);
    }

    #[test]
    fn x86_measures_wall_clock() {
        let g = graph([Target::hw_auto(), Target::hw_auto()]);
        let r = perf_x86(&g, &[("Input_1", words())]).unwrap();
        assert!(r.seconds_per_input > 0.0);
    }

    #[test]
    fn monolithic_rows_reject_a_paged_app() {
        let g = graph([Target::hw_auto(), Target::hw_auto()]);
        let o1_app = compile(&g, &CompileOptions::new(OptLevel::O1)).unwrap();
        for row in [
            perf_o3(&o1_app),
            perf_vitis(&o1_app, None),
            perf_emu(&o1_app),
        ] {
            assert!(matches!(row, Err(PerfError::WrongLevel { .. })));
        }
    }
}
