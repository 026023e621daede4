//! The compile flows: `-O0`, `-O1`, `-O3` from one source graph.

use dfg::{DfgIr, Graph, IrLink, Target};
use fabric::{Floorplan, PageId, Rect};
use hlsim::HlsReport;
pub(crate) use kir::hash::fnv1a as fnv;
use netlist::{CellKind, Netlist};
use noc::PortAddr;
use pnr::{place_and_route, PnrOptions, TimingReport};
use std::fmt;
use std::sync::Arc;

use crate::artifact::{Driver, LinkOp, LoadOp, Xclbin, XclbinKind};
use crate::vtime::{PhaseTimes, VtimeModel};

/// The compiler optimization levels of the paper's Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// Everything on softcores: compile in seconds.
    O0,
    /// Separate compilation per pragma: `HW` operators each get their own
    /// page compile, `RISCV` operators a softcore binary; minutes.
    O1,
    /// Monolithic: all operators stitched with hardware FIFOs and compiled
    /// as one design; hours.
    O3,
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptLevel::O0 => write!(f, "-O0"),
            OptLevel::O1 => write!(f, "-O1"),
            OptLevel::O3 => write!(f, "-O3"),
        }
    }
}

/// Hop distance between two leaves of the binary BFT (up to the common
/// ancestor and back down).
pub fn bft_distance(a: u32, b: u32) -> u32 {
    if a == b {
        0
    } else {
        2 * (32 - (a ^ b).leading_zeros())
    }
}

/// How the `-O3` kernel generator connects operators (paper Sec. 7.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkStyle {
    /// Hardware stream FIFOs, the paper's default. Robust (deep elastic
    /// buffering) but BRAM-hungry: Tab. 4 blames the FIFOs for `-O3`'s area
    /// overhead.
    #[default]
    StreamFifo,
    /// Relay stations: two-register elastic pipeline stages. Far cheaper
    /// ("one promising solution is to use Relay Station to connect operators
    /// together, instead of stream FIFOs") but, as the paper cautions, the
    /// shallow buffering "requires care to set the buffer sizes appropriately
    /// to avoid introducing deadlock"; acyclic graphs like the Rosetta suite
    /// are safe.
    RelayStation,
}

/// Options for one compile invocation.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Optimization level / flow selection.
    pub level: OptLevel,
    /// Parallel build-farm width (the paper's Slurm cluster analogue).
    pub jobs: usize,
    /// Deterministic seed for placement and routing.
    pub seed: u64,
    /// Target floorplan; defaults to the paper's 22-page U50 decomposition.
    pub floorplan: Floorplan,
    /// Virtual-time calibration.
    pub vtime: VtimeModel,
    /// `-O3` inter-operator link implementation.
    pub link_style: LinkStyle,
    /// Warm-start incremental P&R (default: off). When on, every executed
    /// `PlaceRoute` stage also files a [`crate::store::StageKind::PnrHints`]
    /// product keyed by the operator's *lineage* (name + kernel version + page
    /// rect) and by its netlist, and a later compile of an edited version of
    /// that operator fetches the hint as an optimization input: placement is warm-started
    /// from the prior assignment and only ripped-up nets re-route, with a
    /// quality guard falling back to a cold run if wirelength or fmax
    /// regress more than 5% against the hint's cold estimates. Hints fold
    /// into the `PlaceRoute` stage key, so warm and cold products never
    /// collide.
    pub incremental_pnr: bool,
    /// KPN optimizer configuration; `None` compiles the graph exactly as
    /// written. When set, the build runs a content-addressed
    /// [`crate::store::StageKind::KpnOptimize`] stage first — `max_operators`
    /// and `page_array_bits` are clamped to the floorplan — and every
    /// downstream stage compiles the *optimized* graph.
    pub optimize: Option<dfg::OptimizerConfig>,
}

impl CompileOptions {
    /// Default options at the given level.
    pub fn new(level: OptLevel) -> CompileOptions {
        CompileOptions {
            level,
            jobs: 8,
            seed: 1,
            floorplan: Floorplan::u50(),
            vtime: VtimeModel::default(),
            link_style: LinkStyle::default(),
            incremental_pnr: false,
            optimize: None,
        }
    }
}

/// Per-operator compile product.
#[derive(Debug, Clone)]
pub struct CompiledOperator {
    /// Operator instance name.
    pub name: String,
    /// Resolved target (page pinned).
    pub target: Target,
    /// The page hosting the operator (`None` under `-O3`).
    pub page: Option<PageId>,
    /// Index of this operator's artifact in [`CompiledApp::artifacts`]
    /// (`None` under `-O3`, where there is a single kernel artifact).
    pub artifact: Option<usize>,
    /// HLS report (hardware flows only).
    pub hls: Option<HlsReport>,
    /// Post-P&R timing for the operator's page (hardware `-O1` only).
    pub timing: Option<TimingReport>,
    /// Softcore binary (softcore-mapped operators only).
    pub soft: Option<softcore::SoftBinary>,
    /// Virtual compile time per phase.
    pub vtime: PhaseTimes,
    /// Measured wall-clock seconds for this operator's compile job.
    pub wall_seconds: f64,
    /// Content hash of (kernel, target) for incremental builds.
    pub source_hash: u64,
}

/// Results of the monolithic (`-O3`) implementation.
#[derive(Debug, Clone)]
pub struct MonolithicInfo {
    /// The stitched kernel netlist (kept for emulation-mode experiments).
    pub netlist: Netlist,
    /// Index of each operator's first cell in `netlist`, in graph operator
    /// order.
    pub offsets: Vec<usize>,
    /// Post-P&R timing of the whole design.
    pub timing: TimingReport,
    /// P&R work units.
    pub work_units: u64,
}

/// What the optimizer stage did to a compiled app's graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OptSummary {
    /// Fused operators the passes created.
    pub fused: Vec<String>,
    /// Operators split into head/tail pairs.
    pub fissioned: Vec<String>,
    /// Jain fairness of per-operator work before optimizing.
    pub balance_before: f64,
    /// Jain fairness after optimizing.
    pub balance_after: f64,
}

/// A fully compiled application.
#[derive(Debug, Clone)]
pub struct CompiledApp {
    /// The compiled graph — the source graph as written, or the optimizer's
    /// rewrite of it when [`CompileOptions::optimize`] is set.
    pub graph: Graph,
    /// Level this app was compiled at.
    pub level: OptLevel,
    /// The floorplan used.
    pub floorplan: Floorplan,
    /// Per-operator products, in graph operator order.
    pub operators: Vec<CompiledOperator>,
    /// All artifacts (overlay first).
    pub artifacts: Vec<Xclbin>,
    /// The generated load-and-link driver.
    pub driver: Driver,
    /// The extracted dataflow IR.
    pub ir: DfgIr,
    /// Monolithic results (`-O3` only).
    pub monolithic: Option<MonolithicInfo>,
    /// Serial virtual compile time (single build machine).
    pub vtime_serial: PhaseTimes,
    /// Parallel virtual compile time (unbounded farm: slowest job).
    pub vtime_parallel: PhaseTimes,
    /// Measured wall-clock of the whole compile.
    pub wall_seconds: f64,
    /// Optimizer pass summary (`None` when the optimizer did not run).
    pub opt: Option<OptSummary>,
}

impl CompiledApp {
    /// Total virtual seconds when pages compile in parallel, as the paper
    /// reports `-O1` (Sec. 6.2: "the compilation time is determined by the
    /// longest individual one").
    pub fn compile_seconds(&self) -> f64 {
        match self.level {
            OptLevel::O1 | OptLevel::O0 => self.vtime_parallel.total(),
            OptLevel::O3 => self.vtime_serial.total(),
        }
    }

    /// The leaf index used by the DMA input engine.
    pub fn dma_in_leaf(&self) -> u16 {
        self.floorplan.pages.len() as u16
    }

    /// The leaf index used by the DMA output engine.
    pub fn dma_out_leaf(&self) -> u16 {
        self.floorplan.pages.len() as u16 + 1
    }
}

/// Compile failures.
#[derive(Debug)]
pub enum CompileError {
    /// No page can host the operator (resources or availability).
    #[allow(missing_docs)]
    PageAssignment { op: String, reason: String },
    /// HLS rejected the operator.
    #[allow(missing_docs)]
    Hls { op: String, error: kir::CheckError },
    /// Place-and-route failed.
    #[allow(missing_docs)]
    Pnr { op: String, error: pnr::PnrError },
    /// The softcore compiler rejected the operator.
    #[allow(missing_docs)]
    Softcore {
        op: String,
        error: softcore::CcError,
    },
    /// The operator's compile job panicked on the build farm.
    #[allow(missing_docs)]
    JobPanicked { op: String, message: String },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::PageAssignment { op, reason } => {
                write!(f, "cannot place operator `{op}`: {reason}")
            }
            CompileError::Hls { op, error } => write!(f, "HLS failed for `{op}`: {error}"),
            CompileError::Pnr { op, error } => write!(f, "P&R failed for `{op}`: {error}"),
            CompileError::Softcore { op, error } => {
                write!(f, "softcore compile failed for `{op}`: {error}")
            }
            CompileError::JobPanicked { op, message } => {
                write!(f, "compile job for `{op}` panicked: {message}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Stable content hash of (kernel, target) for incremental builds: FNV-1a
/// over the codec bytes of the kernel's content hash
/// ([`crate::build::kernel_hash`]) and the target.
pub(crate) fn source_hash(kernel_hash: u64, target: Target) -> u64 {
    fnv(&crate::codec::encode(&(kernel_hash, target)))
}

/// The leaf-interface overhead wrapped around every page operator
/// (Sec. 4.1: "Our network interfaces run about 500 LUTs").
pub fn wrap_with_leaf_interface(netlist: &Netlist) -> Netlist {
    let mut wrapped = netlist.clone();
    let leaf = wrapped.add_cell("leaf_iface", CellKind::Logic { width: 800 });
    let fifo = wrapped.add_cell(
        "leaf_fifo",
        CellKind::FifoBuf {
            width: 32,
            depth: 64,
        },
    );
    wrapped.add_net(leaf, vec![fifo], 32);
    // Hook every stream interface through the leaf logic.
    let stream_cells: Vec<_> = wrapped
        .cells_where(|k| matches!(k, CellKind::StreamIn { .. } | CellKind::StreamOut { .. }))
        .collect();
    for s in stream_cells {
        if s != leaf && s != fifo {
            wrapped.add_net(fifo, vec![s], 32);
        }
    }
    wrapped
}

/// Assigns every operator a page, honouring pins. An unpinned operator takes
/// the free page nearest, in butterfly-fat-tree hops, to the pages already
/// chosen for the operators it communicates with, so linked operators share
/// low subtrees of the network — automation in the spirit of the paper's
/// Sec. 9 mapping-tool extensions.
pub fn assign_pages(
    graph: &Graph,
    floorplan: &Floorplan,
    force_riscv: bool,
) -> Result<Vec<(Target, PageId)>, CompileError> {
    let n_pages = floorplan.pages.len() as u32;
    let mut taken = vec![false; n_pages as usize];
    let mut out = Vec::with_capacity(graph.operators.len());

    // First pass: pins.
    for op in &graph.operators {
        if let Some(p) = op.target.page() {
            if p >= n_pages {
                return Err(CompileError::PageAssignment {
                    op: op.name.clone(),
                    reason: format!("pinned to page {p}, but the floorplan has {n_pages} pages"),
                });
            }
            if taken[p as usize] {
                return Err(CompileError::PageAssignment {
                    op: op.name.clone(),
                    reason: format!("page {p} already occupied"),
                });
            }
            taken[p as usize] = true;
        }
    }
    // Second pass: allocation.
    let mut assigned: Vec<Option<u32>> = vec![None; graph.operators.len()];
    for (i, op) in graph.operators.iter().enumerate() {
        let mut target = if force_riscv {
            Target::riscv_auto()
        } else {
            op.target
        };
        if let Some(p) = op.target.page() {
            if force_riscv {
                target = Target::riscv(p);
            }
            assigned[i] = Some(p);
            out.push((target, PageId(p)));
            continue;
        }
        // Pages already chosen for operators this one communicates with.
        let neighbour_pages: Vec<u32> = graph
            .edges
            .iter()
            .filter_map(|e| {
                if e.from.0 .0 == i {
                    assigned[e.to.0 .0]
                } else if e.to.0 .0 == i {
                    assigned[e.from.0 .0]
                } else {
                    None
                }
            })
            .collect();
        let chosen = (0..n_pages)
            .filter(|&p| !taken[p as usize])
            .min_by_key(|&p| {
                let cost: u32 = neighbour_pages.iter().map(|&q| bft_distance(p, q)).sum();
                (cost, p)
            });
        match chosen {
            Some(p) => {
                taken[p as usize] = true;
                assigned[i] = Some(p);
                out.push((target.with_page(p), PageId(p)));
            }
            None => {
                return Err(CompileError::PageAssignment {
                    op: op.name.clone(),
                    reason: "no free pages left".into(),
                })
            }
        }
    }
    Ok(out)
}

/// Builds the driver: load everything, then link the dataflow graph with
/// configuration packets.
pub(crate) fn build_driver(
    ir: &DfgIr,
    pages: &[(Target, PageId)],
    artifacts: &[Xclbin],
    n_pages: u16,
) -> Driver {
    let mut driver = Driver {
        loads: vec![LoadOp::Overlay],
        links: Vec::new(),
    };
    for (i, artifact) in artifacts.iter().enumerate() {
        match artifact.kind {
            XclbinKind::Page { .. } => driver.loads.push(LoadOp::PageBitstream { artifact: i }),
            XclbinKind::Softcore { .. } => driver.loads.push(LoadOp::SoftcoreImage { artifact: i }),
            _ => {}
        }
    }
    let dma_in = n_pages;
    let dma_out = n_pages + 1;
    let leaf_of = |op: u32| -> u16 {
        if op == IrLink::HOST {
            dma_in
        } else {
            pages[op as usize].1 .0 as u16
        }
    };
    for link in &ir.links {
        let (src_leaf, stream) = if link.from.0 == IrLink::HOST {
            (dma_in, link.from.1 as u8)
        } else {
            (leaf_of(link.from.0), link.from.1 as u8)
        };
        let dest = if link.to.0 == IrLink::HOST {
            PortAddr {
                leaf: dma_out,
                port: link.to.1 as u8,
            }
        } else {
            PortAddr {
                leaf: leaf_of(link.to.0),
                port: link.to.1 as u8,
            }
        };
        driver.links.push(LinkOp {
            src_leaf,
            stream,
            dest,
        });
    }
    driver
}

/// Compiles a graph at the requested level.
///
/// This is a thin driver over the staged build graph ([`mod@crate::build`])
/// with an ephemeral [`crate::ArtifactStore`]: every stage executes, exactly
/// as a from-scratch compile should. Use [`crate::build::build`] (or
/// [`crate::BuildCache`]) with a long-lived store to reuse stages across
/// compiles.
///
/// # Errors
///
/// See [`CompileError`].
pub fn compile(graph: &Graph, options: &CompileOptions) -> Result<CompiledApp, CompileError> {
    let mut store = crate::store::ArtifactStore::new();
    crate::build::build(graph, options, &mut store).map(|(app, _)| app)
}

/// The whole-device user region compiled by the monolithic flow.
pub fn monolithic_region(floorplan: &Floorplan) -> Rect {
    let d = &floorplan.device;
    Rect::new(2, 0, d.width - 2, d.height)
}

/// Runs the monolithic P&R as a one-job farm run on the caller: a panic is
/// a [`CompileError::JobPanicked`], a routing failure the compile's
/// [`CompileError::Pnr`].
fn run_pnr_job<T: Send>(
    name: &str,
    job: impl FnOnce() -> Result<T, pnr::PnrError> + Send,
) -> Result<T, CompileError> {
    let outcome = crate::farm::run_jobs(vec![job], 1).pop();
    let op = name.to_string();
    match outcome.expect("one job, one outcome").result {
        Ok(result) => result.map_err(|error| CompileError::Pnr { op, error }),
        Err(message) => Err(CompileError::JobPanicked { op, message }),
    }
}

pub(crate) fn compile_monolithic<C: crate::cache::CacheBackend>(
    built: crate::build::Hashed<'_>,
    ir: DfgIr,
    options: &CompileOptions,
    t0: std::time::Instant,
    store: &mut C,
    report: &mut crate::build::BuildReport,
) -> Result<CompiledApp, CompileError> {
    // HLS every operator — through the shared store, so a netlist already
    // lowered for a paged compile is reused here — then stitch with hardware
    // FIFOs (the kernel generator of Fig. 7). The monolithic P&R itself has
    // no separately reusable parts: exactly the paper's complaint.
    let graph = built.graph;
    let mut kernel_netlist = Netlist::new(format!("{}_kernel", graph.name));
    let mut offsets = Vec::new();
    let mut operators = Vec::with_capacity(graph.operators.len());
    let mut hls_executed = 0.0;
    let mut hls_fresh = 0.0;
    let mut reports = Vec::new();

    for (op, &khash) in graph.operators.iter().zip(built.kernels) {
        let key = crate::build::StageInputs::HlsLower { kernel: khash }.key();
        let (product, hit) = match store.fetch_hls(key.hash) {
            Some(p) => (p, true),
            None => {
                let hls = hlsim::compile(&op.kernel).map_err(|error| CompileError::Hls {
                    op: op.name.clone(),
                    error,
                })?;
                let p = Arc::new(crate::store::HlsProduct::new(hls.netlist, hls.report));
                store.put(key, crate::store::StageProduct::Hls(p.clone()));
                (p, false)
            }
        };
        report.record(crate::store::StageKind::HlsLower, hit);
        report.operators.push(crate::build::OperatorStages {
            name: op.name.clone(),
            hits: hit as u64,
            executions: !hit as u64,
        });
        let seconds = options.vtime.hls_seconds(product.report.hls_work);
        hls_fresh += seconds;
        if !hit {
            hls_executed += seconds;
        }
        offsets.push(kernel_netlist.absorb(product.netlist()));
        reports.push(product.report.clone());
    }

    // FIFO per internal link, wired between the stream interface cells.
    for edge in &graph.edges {
        let from_off = offsets[edge.from.0 .0];
        let to_off = offsets[edge.to.0 .0];
        let out_name = format!("out_{}", edge.from.1);
        let in_name = format!("in_{}", edge.to.1);
        let from_cell = kernel_netlist
            .cells
            .iter()
            .enumerate()
            .position(|(i, c)| i >= from_off && c.name == out_name)
            .map(netlist::CellId);
        let to_cell = kernel_netlist
            .cells
            .iter()
            .enumerate()
            .position(|(i, c)| i >= to_off && c.name == in_name)
            .map(netlist::CellId);
        if let (Some(f), Some(t)) = (from_cell, to_cell) {
            let w = edge.elem.width();
            match options.link_style {
                LinkStyle::StreamFifo => {
                    let fifo = kernel_netlist.add_cell(
                        format!("fifo_{}", edge.name),
                        CellKind::FifoBuf {
                            width: w,
                            depth: 512,
                        },
                    );
                    kernel_netlist.add_net(f, vec![fifo], w);
                    kernel_netlist.add_net(fifo, vec![t], w);
                }
                LinkStyle::RelayStation => {
                    // Two elastic registers: same isolation, no BRAM.
                    let r1 = kernel_netlist.add_cell(
                        format!("relay_{}_a", edge.name),
                        CellKind::Register { width: w },
                    );
                    let r2 = kernel_netlist.add_cell(
                        format!("relay_{}_b", edge.name),
                        CellKind::Register { width: w },
                    );
                    kernel_netlist.add_net(f, vec![r1], w);
                    kernel_netlist.add_net(r1, vec![r2], w);
                    kernel_netlist.add_net(r2, vec![t], w);
                }
            }
        }
    }

    let device = &options.floorplan.device;
    let region = monolithic_region(&options.floorplan);
    let opts = PnrOptions {
        seed: options.seed,
        abstract_shell: true,
        effort: 1.0,
    };
    let result = run_pnr_job(&graph.name, || {
        place_and_route(&kernel_netlist, device, region, &opts)
    })?;

    // Executed cost: HLS stages served from the store are free; the
    // monolithic synthesis, P&R and bitgen always run.
    let vtime = PhaseTimes {
        hls: hls_executed,
        syn: options
            .vtime
            .syn_seconds(kernel_netlist.cell_count() as u64),
        pnr: options.vtime.pnr_seconds(result.work_units),
        bit: options.vtime.bit_seconds(result.bitstream.config_bits),
        riscv: 0.0,
    };
    report.record(crate::store::StageKind::PlaceRoute, false);
    report.record(crate::store::StageKind::BitstreamPack, false);
    report.critical_path_seconds = vtime.total();
    report.fresh_vtime_serial = PhaseTimes {
        hls: hls_fresh,
        ..vtime
    };
    report.fresh_vtime_parallel = report.fresh_vtime_serial;

    for ((op, report), &khash) in graph.operators.iter().zip(reports).zip(built.kernels) {
        operators.push(CompiledOperator {
            name: op.name.clone(),
            target: op.target,
            page: None,
            artifact: None,
            hls: Some(report),
            timing: None,
            soft: None,
            vtime: PhaseTimes::default(),
            wall_seconds: 0.0,
            source_hash: source_hash(khash, op.target),
        });
    }

    let bitstream_hash = result.bitstream.payload_hash;
    let artifacts = vec![Xclbin {
        name: "kernel.xclbin".into(),
        kind: XclbinKind::Kernel {
            bitstream: result.bitstream,
        },
        hash: bitstream_hash,
    }];

    Ok(CompiledApp {
        graph: graph.clone(),
        level: OptLevel::O3,
        floorplan: options.floorplan.clone(),
        operators,
        artifacts,
        driver: Driver {
            loads: vec![LoadOp::PageBitstream { artifact: 0 }],
            links: Vec::new(),
        },
        ir,
        monolithic: Some(MonolithicInfo {
            netlist: kernel_netlist,
            offsets,
            timing: result.timing,
            work_units: result.work_units,
        }),
        vtime_serial: vtime,
        vtime_parallel: vtime,
        wall_seconds: t0.elapsed().as_secs_f64(),
        opt: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfg::GraphBuilder;
    use kir::{Expr, KernelBuilder, Scalar, Stmt};

    fn stage(name: &str, addend: i64) -> kir::Kernel {
        KernelBuilder::new(name)
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([Stmt::for_pipelined(
                "i",
                0..64,
                [
                    Stmt::read("x", "in"),
                    Stmt::write("out", Expr::var("x").add(Expr::cint(addend))),
                ],
            )])
            .build()
            .unwrap()
    }

    fn three_stage(targets: [Target; 3]) -> Graph {
        let mut b = GraphBuilder::new("pipe");
        let a = b.add("a", stage("a", 1), targets[0]);
        let c = b.add("c", stage("c", 2), targets[1]);
        let d = b.add("d", stage("d", 3), targets[2]);
        b.ext_input("Input_1", a, "in");
        b.connect("l1", a, "out", c, "in");
        b.connect("l2", c, "out", d, "in");
        b.ext_output("Output_1", d, "out");
        b.build().unwrap()
    }

    #[test]
    fn o0_compiles_everything_to_softcores() {
        let g = three_stage([Target::hw_auto(), Target::hw_auto(), Target::hw_auto()]);
        let app = compile(&g, &CompileOptions::new(OptLevel::O0)).unwrap();
        assert_eq!(app.operators.len(), 3);
        assert!(app.operators.iter().all(|o| o.soft.is_some()));
        assert!(app.vtime_parallel.total() < 10.0, "-O0 compiles in seconds");
        // Driver: overlay + 3 softcore loads; 4 links (2 DMA + 2 internal).
        assert_eq!(app.driver.loads.len(), 4);
        assert_eq!(app.driver.link_packets(), 4);
    }

    #[test]
    fn o1_respects_pragmas_and_is_parallel() {
        let g = three_stage([Target::hw(0), Target::riscv(1), Target::hw_auto()]);
        let app = compile(&g, &CompileOptions::new(OptLevel::O1)).unwrap();
        assert!(app.operators[0].hls.is_some());
        assert!(app.operators[1].soft.is_some());
        assert_eq!(app.operators[0].page, Some(PageId(0)));
        assert_eq!(app.operators[1].page, Some(PageId(1)));
        // Auto page skips occupied 0 and 1.
        assert_eq!(app.operators[2].page, Some(PageId(2)));
        // Parallel virtual time is below serial (several jobs overlap).
        assert!(app.vtime_parallel.total() <= app.vtime_serial.total());
        // Timing closed at FPGA-plausible frequency.
        let t = app.operators[0].timing.as_ref().unwrap();
        assert!(t.fmax_mhz > 100.0);
    }

    #[test]
    fn o3_builds_one_kernel() {
        let g = three_stage([Target::hw_auto(), Target::hw_auto(), Target::hw_auto()]);
        let app = compile(&g, &CompileOptions::new(OptLevel::O3)).unwrap();
        assert_eq!(app.artifacts.len(), 1);
        let mono = app.monolithic.as_ref().unwrap();
        // Stitched netlist contains all three operators plus link FIFOs.
        let fifo_count = mono
            .netlist
            .cells_where(|k| matches!(k, CellKind::FifoBuf { .. }))
            .count();
        assert!(fifo_count >= 2);
        assert!(
            app.driver.links.is_empty(),
            "monolithic needs no linking packets"
        );
    }

    #[test]
    fn o3_pnr_job_types_a_panic_and_a_routing_failure() {
        match run_pnr_job("k", || -> Result<u32, pnr::PnrError> {
            panic!("p&r exploded")
        }) {
            Err(CompileError::JobPanicked { op, message }) => {
                assert_eq!(op, "k");
                assert!(message.contains("exploded"), "got: {message}");
            }
            other => panic!("{other:?}"),
        }
        let unroutable = pnr::PnrError::Unroutable { overused_edges: 2 };
        match run_pnr_job("k", || Err::<u32, _>(unroutable.clone())) {
            Err(CompileError::Pnr { op, error }) => {
                assert_eq!(op, "k");
                assert_eq!(error, unroutable);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(run_pnr_job("k", || Ok(7u32)), Ok(7)));
    }

    #[test]
    fn o1_beats_o3_compile_time() {
        // The headline result, on a small pipeline.
        let g = three_stage([Target::hw_auto(), Target::hw_auto(), Target::hw_auto()]);
        let o1 = compile(&g, &CompileOptions::new(OptLevel::O1)).unwrap();
        let o3 = compile(&g, &CompileOptions::new(OptLevel::O3)).unwrap();
        assert!(
            o1.compile_seconds() < o3.compile_seconds(),
            "O1 {} vs O3 {}",
            o1.compile_seconds(),
            o3.compile_seconds()
        );
        let o0 = compile(&g, &CompileOptions::new(OptLevel::O0)).unwrap();
        assert!(o0.compile_seconds() < o1.compile_seconds());
    }

    #[test]
    fn pin_conflicts_rejected() {
        let g = three_stage([Target::hw(3), Target::hw(3), Target::hw_auto()]);
        let err = compile(&g, &CompileOptions::new(OptLevel::O1)).unwrap_err();
        assert!(matches!(err, CompileError::PageAssignment { .. }));
    }

    #[test]
    fn bad_pin_rejected() {
        let g = three_stage([Target::hw(99), Target::hw_auto(), Target::hw_auto()]);
        let err = compile(&g, &CompileOptions::new(OptLevel::O1)).unwrap_err();
        assert!(matches!(err, CompileError::PageAssignment { .. }));
    }

    #[test]
    fn bft_distance_is_a_metric() {
        assert_eq!(bft_distance(3, 3), 0);
        assert_eq!(bft_distance(0, 1), 2); // siblings share the level-1 switch
        assert_eq!(bft_distance(0, 2), 4);
        assert_eq!(bft_distance(0, 16), 10); // cross a 32-leaf root
        for (a, b) in [(0u32, 5), (7, 19), (2, 3)] {
            assert_eq!(bft_distance(a, b), bft_distance(b, a));
        }
    }

    #[test]
    fn affinity_places_neighbours_in_the_same_subtree() {
        // Pin the first operator deep into the page array; the rest cluster
        // around it instead of running back to page 0.
        let g = three_stage([Target::hw(16), Target::hw_auto(), Target::hw_auto()]);
        let app = compile(&g, &CompileOptions::new(OptLevel::O1)).unwrap();
        let pages: Vec<u32> = app.operators.iter().map(|o| o.page.unwrap().0).collect();
        let chain_cost: u32 = pages.windows(2).map(|w| bft_distance(w[0], w[1])).sum();
        // `c` is `a`'s sibling; `d` shares the 4-leaf subtree with `c`.
        assert_eq!(pages, vec![16, 17, 18]);
        assert_eq!(chain_cost, 2 + 4, "affinity {pages:?}");
    }

    #[test]
    fn relay_stations_save_bram_over_fifos() {
        let g = three_stage([Target::hw_auto(), Target::hw_auto(), Target::hw_auto()]);
        let fifo = compile(&g, &CompileOptions::new(OptLevel::O3)).unwrap();
        let relay = compile(
            &g,
            &CompileOptions {
                link_style: LinkStyle::RelayStation,
                ..CompileOptions::new(OptLevel::O3)
            },
        )
        .unwrap();
        let fr = fifo.monolithic.as_ref().unwrap().netlist.resources();
        let rr = relay.monolithic.as_ref().unwrap().netlist.resources();
        assert!(rr.bram18 < fr.bram18, "relay {rr} vs fifo {fr}");
        assert!(rr.ffs > fr.ffs, "relay stations trade FFs for BRAM");
    }

    #[test]
    fn deterministic_artifacts() {
        let g = three_stage([Target::hw_auto(), Target::hw_auto(), Target::hw_auto()]);
        let a = compile(&g, &CompileOptions::new(OptLevel::O1)).unwrap();
        let b = compile(&g, &CompileOptions::new(OptLevel::O1)).unwrap();
        let hashes = |app: &CompiledApp| app.artifacts.iter().map(|x| x.hash).collect::<Vec<_>>();
        assert_eq!(hashes(&a), hashes(&b));
    }
}
