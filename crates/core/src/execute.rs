//! Performance models of PLD's own levels: the `-O1` and `-O0` numbers
//! behind Tab. 3, Fig. 10 and Fig. 11.
//!
//! * **`-O1`** — a cycle-level co-simulation of the page-decomposed design:
//!   fluid operator actors exchanging every token through the BFT linking
//!   network at 200 MHz, which is where the paper's 1.5–10× slowdowns come
//!   from;
//! * **`-O0`** — every operator executed on its page softcore (real RV32
//!   emulation of the compiled binaries); the pipeline bottleneck is the
//!   slowest softcore.
//!
//! Mixed `-O0`/`-O1` mappings (Fig. 10) fall out of the `-O1` co-simulation
//! by giving softcore-mapped operators their measured softcore cycle counts.
//! The Vitis baseline, `-O3`, host and emulation rows are the reproduction's
//! own (`pld-repro`); [`RunMode`] names all six.

use dfg::{run_graph_trace, Target};
use kir::types::Value;
use noc::BftNoc;
use std::collections::VecDeque;
use std::fmt;

use crate::flow::{CompiledApp, OptLevel};

/// The overlay clock: the linking network and page logic run at 200 MHz
/// (paper Sec. 7.1).
pub const OVERLAY_MHZ: f64 = 200.0;

/// Execution mode of a performance measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunMode {
    /// Original monolithic design under the vendor flow.
    Vitis,
    /// PLD monolithic (`-O3`).
    O3,
    /// PLD page-decomposed (`-O1`).
    O1,
    /// PLD all-softcore (`-O0`).
    O0,
    /// Native host execution.
    X86,
    /// RTL-style emulation.
    VitisEmu,
}

impl fmt::Display for RunMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RunMode::Vitis => "Vitis",
            RunMode::O3 => "PLD -O3",
            RunMode::O1 => "PLD -O1",
            RunMode::O0 => "PLD -O0",
            RunMode::X86 => "X86 g++",
            RunMode::VitisEmu => "Vitis Emu",
        };
        f.write_str(s)
    }
}

/// One performance measurement (one cell group of Tab. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfReport {
    /// Mode measured.
    pub mode: RunMode,
    /// Clock frequency of the implementation (0 for host/emulation rows).
    pub fmax_mhz: f64,
    /// Simulated (or measured) seconds to process one input.
    pub seconds_per_input: f64,
    /// Simulated cycles (0 when not cycle-based).
    pub cycles: u64,
}

/// Performance-model failures.
#[derive(Debug)]
pub enum PerfError {
    /// Functional execution failed.
    Graph(dfg::GraphRunError),
    /// A softcore run failed.
    #[allow(missing_docs)]
    Softcore {
        op: String,
        error: softcore::RunError,
    },
    /// The co-simulation did not converge within its cycle budget.
    #[allow(missing_docs)]
    CycleBudget { cycles: u64 },
    /// The app was compiled at a level incompatible with the requested model.
    #[allow(missing_docs)]
    WrongLevel { expected: OptLevel },
}

impl fmt::Display for PerfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PerfError::Graph(e) => write!(f, "functional run failed: {e}"),
            PerfError::Softcore { op, error } => {
                write!(f, "softcore run of `{op}` failed: {error}")
            }
            PerfError::CycleBudget { cycles } => {
                write!(f, "co-simulation exceeded {cycles} cycles")
            }
            PerfError::WrongLevel { expected } => {
                write!(f, "model requires an app compiled at {expected}")
            }
        }
    }
}

impl std::error::Error for PerfError {}

impl From<dfg::GraphRunError> for PerfError {
    fn from(e: dfg::GraphRunError) -> Self {
        PerfError::Graph(e)
    }
}

fn words_of(values: &[Value]) -> u64 {
    values.iter().map(|v| v.scalar().words() as u64).sum()
}

/// Per-operator cycle counts behind the overlay leaf interface (`-O1`).
fn overlay_hw_cycles(app: &CompiledApp) -> Vec<u64> {
    app.operators
        .iter()
        .map(|o| o.hls.as_ref().map(|h| h.overlay_cycles).unwrap_or(1))
        .collect()
}

/// Cycle budget of one softcore run: far above any app, so hitting it
/// means a hang.
const SOFTCORE_BUDGET: u64 = 50_000_000_000;

/// Softcore cycle counts for one input (0 for hardware operators), by
/// actually running the compiled binaries on the traced input streams.
///
/// Each softcore operator is one farm job on `lanes` lanes: operators sit
/// on separate softcores (paper Sec. 6.2) and, by the Kahn property, each
/// run is fixed by its traced inputs, so the runs are independent. Outcomes
/// are read in operator order, so the counts and the error (the first
/// failing operator) are those of running the operators one after another.
///
/// # Panics
///
/// Re-raises a panicking run, naming its operator.
fn softcore_cycles(
    app: &CompiledApp,
    trace: &dfg::GraphTrace,
    lanes: usize,
) -> Result<Vec<u64>, PerfError> {
    let (ops, jobs): (Vec<usize>, Vec<_>) = app
        .operators
        .iter()
        .zip(&trace.op_inputs)
        .enumerate()
        .filter_map(|(i, (op, ports))| {
            let binary = op.soft.as_ref()?;
            let job = move || {
                let inputs: Vec<Vec<u32>> = ports.iter().map(kir::wire::stream_to_words).collect();
                softcore::execute(binary, &inputs, SOFTCORE_BUDGET).map(|out| out.cycles)
            };
            Some((i, job))
        })
        .unzip();
    let mut cycles = vec![0; app.operators.len()];
    for (i, outcome) in ops.into_iter().zip(crate::farm::run_jobs(jobs, lanes)) {
        let op = &app.operators[i].name;
        let ran = outcome
            .result
            .unwrap_or_else(|message| panic!("softcore run of `{op}` panicked: {message}"));
        cycles[i] = ran.map_err(|error| PerfError::Softcore {
            op: op.clone(),
            error,
        })?;
    }
    Ok(cycles)
}

/// `-O1` (and mixed `-O0`/`-O1`) row: cycle-level co-simulation of fluid
/// operator actors over the BFT linking network.
///
/// # Errors
///
/// See [`PerfError`].
pub fn perf_o1(app: &CompiledApp, inputs: &[(&str, Vec<Value>)]) -> Result<PerfReport, PerfError> {
    if app.level == OptLevel::O3 {
        return Err(PerfError::WrongLevel {
            expected: OptLevel::O1,
        });
    }
    let graph = &app.graph;
    let (outputs, _stats, trace) = run_graph_trace(graph, inputs)?;
    let soft_cycles = softcore_cycles(app, &trace, crate::farm::host_lanes())?;
    let hw = overlay_hw_cycles(app);

    // Per-operator total compute cycles for this workload.
    let compute: Vec<u64> = app
        .operators
        .iter()
        .enumerate()
        .map(|(i, o)| match o.target {
            Target::Hw { .. } => hw[i].max(1),
            Target::Riscv { .. } => soft_cycles[i].max(1),
        })
        .collect();

    // Token budgets per operator port, from the trace (exact).
    let in_words: Vec<Vec<u64>> = trace
        .op_inputs
        .iter()
        .map(|ports| ports.iter().map(|s| words_of(s)).collect())
        .collect();
    // Output words per (operator, output port index).
    let mut out_words: Vec<Vec<u64>> = graph
        .operators
        .iter()
        .map(|o| vec![0u64; o.kernel.outputs.len()])
        .collect();
    for e in &graph.edges {
        let dst_port = graph.operators[e.to.0 .0]
            .kernel
            .inputs
            .iter()
            .position(|p| p.name == e.to.1)
            .unwrap();
        let src_port = graph.operators[e.from.0 .0]
            .kernel
            .outputs
            .iter()
            .position(|p| p.name == e.from.1)
            .unwrap();
        out_words[e.from.0 .0][src_port] = in_words[e.to.0 .0][dst_port];
    }
    let mut ext_out_words = 0u64;
    for p in &graph.ext_outputs {
        let src_port = graph.operators[p.op.0]
            .kernel
            .outputs
            .iter()
            .position(|o| o.name == p.port)
            .unwrap();
        let words = words_of(&outputs[&p.name]);
        out_words[p.op.0][src_port] = words;
        ext_out_words += words;
    }

    // NoC setup: one leaf per page, plus DMA-in and DMA-out leaves.
    let n_pages = app.floorplan.pages.len();
    let max_ports = graph
        .operators
        .iter()
        .map(|o| o.kernel.inputs.len().max(o.kernel.outputs.len()))
        .max()
        .unwrap_or(1)
        .max(graph.ext_inputs.len())
        .max(graph.ext_outputs.len());
    let mut net = BftNoc::new(n_pages + 2, max_ports, 32);
    for link in &app.driver.links {
        net.set_dest(link.src_leaf as usize, link.stream as usize, link.dest);
    }

    let leaf_of: Vec<usize> = app
        .operators
        .iter()
        .map(|o| o.page.map(|p| p.0 as usize).unwrap_or(0))
        .collect();
    let dma_in = app.dma_in_leaf() as usize;
    let dma_out = app.dma_out_leaf() as usize;

    // DMA input queues: per ext input stream index, the word queue.
    let mut dma_queues: Vec<VecDeque<u32>> = Vec::new();
    for p in &graph.ext_inputs {
        let stream = inputs
            .iter()
            .find(|(n, _)| *n == p.name)
            .map(|(_, v)| v.as_slice())
            .unwrap_or(&[]);
        let words: VecDeque<u32> = stream.iter().flat_map(kir::wire::to_words).collect();
        dma_queues.push(words);
    }

    // Fluid actors.
    struct Actor {
        leaf: usize,
        compute: u64,
        progress: u64,
        in_need: Vec<u64>,
        consumed: Vec<u64>,
        out_total: Vec<u64>,
        emitted: Vec<u64>,
        injected: Vec<u64>,
    }
    let mut actors: Vec<Actor> = graph
        .operators
        .iter()
        .enumerate()
        .map(|(i, o)| Actor {
            leaf: leaf_of[i],
            compute: compute[i],
            progress: 0,
            in_need: in_words[i].clone(),
            consumed: vec![0; o.kernel.inputs.len()],
            out_total: out_words[i].clone(),
            emitted: vec![0; o.kernel.outputs.len()],
            injected: vec![0; o.kernel.outputs.len()],
        })
        .collect();

    let mut received_ext = 0u64;
    let max_cycles: u64 = 4_000_000_000;
    let mut cycles = 0u64;

    while received_ext < ext_out_words {
        if cycles >= max_cycles {
            return Err(PerfError::CycleBudget { cycles });
        }
        // DMA in: one word per cycle onto its uplink.
        for (stream_idx, q) in dma_queues.iter_mut().enumerate() {
            if let Some(&w) = q.front() {
                if net.inject(dma_in, stream_idx, w).is_ok() {
                    q.pop_front();
                }
                break; // single uplink: one injection attempt per cycle
            }
        }

        for actor in &mut actors {
            // Drain arrived tokens.
            for (port, consumed) in actor.consumed.iter_mut().enumerate() {
                while net.try_recv(actor.leaf, port as u8).is_some() {
                    *consumed += 1;
                }
            }
            // Advance the fluid compute front if input coverage allows.
            if actor.progress < actor.compute {
                let t = actor.progress + 1;
                let ready = actor
                    .in_need
                    .iter()
                    .zip(&actor.consumed)
                    .all(|(&need, &have)| {
                        let required = (need as u128 * t as u128).div_ceil(actor.compute as u128);
                        have as u128 >= required
                    });
                if ready {
                    actor.progress = t;
                }
            }
            // Emit due output words.
            for (stream, emitted) in actor.emitted.iter_mut().enumerate() {
                let due = (actor.out_total[stream] as u128 * actor.progress as u128
                    / actor.compute as u128) as u64;
                *emitted = due;
            }
            // Inject pending words (uplink backpressure limits the rate).
            for stream in 0..actor.injected.len() {
                while actor.injected[stream] < actor.emitted[stream] {
                    if net.inject(actor.leaf, stream, 0).is_ok() {
                        actor.injected[stream] += 1;
                    } else {
                        break;
                    }
                }
            }
        }

        net.step();
        cycles += 1;

        // DMA out: count arrivals on every port.
        for port in 0..max_ports {
            while net.try_recv(dma_out, port as u8).is_some() {
                received_ext += 1;
            }
        }
    }

    Ok(PerfReport {
        mode: RunMode::O1,
        fmax_mhz: OVERLAY_MHZ,
        seconds_per_input: crate::vtime::overlay_seconds(cycles),
        cycles,
    })
}

/// `-O0` row: every operator on its softcore; the pipeline bottleneck is
/// the slowest core (they run concurrently, linked by the NoC, whose
/// bandwidth is negligible next to softcore compute). The host runs the
/// softcores concurrently too, on up to [`crate::farm::host_lanes`] lanes.
pub fn perf_o0(app: &CompiledApp, inputs: &[(&str, Vec<Value>)]) -> Result<PerfReport, PerfError> {
    if app.operators.iter().any(|o| o.soft.is_none()) {
        return Err(PerfError::WrongLevel {
            expected: OptLevel::O0,
        });
    }
    let (_outputs, _stats, trace) = run_graph_trace(&app.graph, inputs)?;
    let cycles = softcore_cycles(app, &trace, crate::farm::host_lanes())?
        .into_iter()
        .max()
        .unwrap_or(1);
    Ok(PerfReport {
        mode: RunMode::O0,
        fmax_mhz: OVERLAY_MHZ,
        seconds_per_input: crate::vtime::overlay_seconds(cycles),
        cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{compile, CompileOptions};
    use aplib::DynInt;
    use dfg::{Graph, GraphBuilder};
    use kir::{Expr, KernelBuilder, Scalar, Stmt};

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
    fn o1_cosim_delivers_all_tokens() {
        let g = graph([Target::hw_auto(), Target::hw_auto()]);
        let app = compile(&g, &CompileOptions::new(OptLevel::O1)).unwrap();
        let r = perf_o1(&app, &[("Input_1", words())]).unwrap();
        // At least one cycle per word through the shared uplinks.
        assert!(r.cycles >= N as u64, "{}", r.cycles);
    }

    #[test]
    fn mixed_mapping_lands_between_extremes() {
        let inputs = vec![("Input_1", words())];
        let all_hw = compile(
            &graph([Target::hw_auto(), Target::hw_auto()]),
            &CompileOptions::new(OptLevel::O1),
        )
        .unwrap();
        let mixed = compile(
            &graph([Target::riscv_auto(), Target::hw_auto()]),
            &CompileOptions::new(OptLevel::O1),
        )
        .unwrap();
        let all_soft = compile(
            &graph([Target::hw_auto(), Target::hw_auto()]),
            &CompileOptions::new(OptLevel::O0),
        )
        .unwrap();

        let hw = perf_o1(&all_hw, &inputs).unwrap();
        let mix = perf_o1(&mixed, &inputs).unwrap();
        let soft = perf_o0(&all_soft, &inputs).unwrap();
        assert!(hw.seconds_per_input <= mix.seconds_per_input);
        // Fig. 10's point: one softcore can approach the all-softcore case
        // but never beats the all-hardware one.
        assert!(mix.seconds_per_input <= soft.seconds_per_input * 1.05);
    }

    /// An `-O0` build of `graph` and the trace of one run on `inputs`.
    fn o0_traced(graph: &Graph, inputs: &[(&str, Vec<Value>)]) -> (CompiledApp, dfg::GraphTrace) {
        let app = compile(graph, &CompileOptions::new(OptLevel::O0)).unwrap();
        let (_outputs, _stats, trace) = run_graph_trace(graph, inputs).unwrap();
        (app, trace)
    }

    /// The contract [`softcore_cycles`] keeps: the operators run one after
    /// another, stopping at the first failure.
    fn serial_cycles(app: &CompiledApp, trace: &dfg::GraphTrace) -> Result<Vec<u64>, PerfError> {
        let mut out = Vec::new();
        for (op, ports) in app.operators.iter().zip(&trace.op_inputs) {
            let binary = op.soft.as_ref().unwrap();
            let inputs: Vec<Vec<u32>> = ports.iter().map(kir::wire::stream_to_words).collect();
            let ran = softcore::execute(binary, &inputs, SOFTCORE_BUDGET);
            out.push(
                ran.map_err(|error| PerfError::Softcore {
                    op: op.name.clone(),
                    error,
                })?
                .cycles,
            );
        }
        Ok(out)
    }

    fn fan_out_app() -> dfg::generate::GeneratedApp {
        let cfg = dfg::GenConfig {
            seed: 3,
            tokens: 48,
            max_stages: 4,
        };
        dfg::generate::generate_family(&cfg, "fan-out").unwrap()
    }

    #[test]
    fn farm_softcore_cycles_equal_a_serial_loop() {
        // Small: four k-NN stages and the vote (Tiny has two stages).
        let digit = rosetta::suite(rosetta::Scale::Small)
            .into_iter()
            .find(|b| b.name == "Digit Recognition")
            .unwrap();
        let fan_out = fan_out_app();
        for (graph, inputs) in [
            (&digit.graph, digit.input_refs()),
            (&fan_out.graph, fan_out.input_refs()),
        ] {
            let (app, trace) = o0_traced(graph, &inputs);
            let serial = serial_cycles(&app, &trace).unwrap();
            assert!(serial.len() > 2 && serial.iter().all(|&c| c > 0));
            for lanes in [1, 2, 4, crate::farm::host_lanes()] {
                let farmed = softcore_cycles(&app, &trace, lanes).unwrap();
                assert_eq!(farmed, serial, "{} on {lanes} lanes", graph.name);
            }
        }
        assert_eq!(digit.graph.operators.len(), 5);
    }

    #[test]
    fn the_first_failing_operator_in_graph_order_is_reported() {
        let gen = fan_out_app();
        let (app, mut trace) = o0_traced(&gen.graph, &gen.input_refs());
        let truncate = |trace: &mut dfg::GraphTrace, op: usize| {
            for port in &mut trace.op_inputs[op] {
                port.truncate(port.len() / 2);
            }
        };
        let starved_op = |result: Result<Vec<u64>, PerfError>| match result {
            Err(PerfError::Softcore {
                op,
                error: softcore::RunError::Starved { .. },
            }) => op,
            other => panic!("expected a starved softcore, got {other:?}"),
        };
        let reported = |trace: &dfg::GraphTrace, expected: &str| {
            assert_eq!(starved_op(serial_cycles(&app, trace)), expected);
            for lanes in [1, 2, 4] {
                let farmed = starved_op(softcore_cycles(&app, trace, lanes));
                assert_eq!(farmed, expected, "{lanes} lanes");
            }
        };
        // The later operator alone fails under its own name...
        truncate(&mut trace, 3);
        reported(&trace, &app.operators[3].name);
        // ...and with an earlier one truncated too, the earlier one is
        // reported on any number of lanes, as in the serial loop.
        truncate(&mut trace, 1);
        reported(&trace, &app.operators[1].name);
    }

    #[test]
    fn a_panicking_run_is_re_raised_naming_its_operator() {
        let gen = fan_out_app();
        let (mut app, trace) = o0_traced(&gen.graph, &gen.input_refs());
        // A page memory above the cap makes instantiating the core panic.
        app.operators[2].soft.as_mut().unwrap().mem_bytes = u32::MAX;
        for lanes in [1, 2] {
            let payload = std::panic::catch_unwind(|| softcore_cycles(&app, &trace, lanes))
                .expect_err("the run panics");
            let message = payload.downcast_ref::<String>().unwrap();
            let expected = format!("softcore run of `{}` panicked", app.operators[2].name);
            assert!(message.starts_with(&expected), "{message}");
            assert!(message.contains("page memory capped"), "{message}");
        }
    }

    #[test]
    fn wrong_level_rejected() {
        let g = graph([Target::hw_auto(), Target::hw_auto()]);
        let o1_app = compile(&g, &CompileOptions::new(OptLevel::O1)).unwrap();
        assert!(matches!(
            perf_o0(&o1_app, &[("Input_1", words())]),
            Err(PerfError::WrongLevel { .. })
        ));
        let o3_app = compile(&g, &CompileOptions::new(OptLevel::O3)).unwrap();
        assert!(matches!(
            perf_o1(&o3_app, &[("Input_1", words())]),
            Err(PerfError::WrongLevel { .. })
        ));
    }
}
