//! The HLS report: resources, timing, throughput.

use kir::{Kernel, RStmt, ResolvedKernel};
use netlist::{Netlist, Resources};
use std::fmt;

use crate::schedule::Schedule;

/// Summary of one operator's synthesis results, the analogue of the Vitis_HLS
/// synthesis report the paper's tool flow consumes to pick pages and the
/// numbers behind Tab. 4's area columns.
#[derive(Debug, Clone, PartialEq)]
pub struct HlsReport {
    /// Operator name.
    pub name: String,
    /// Resource demand of the synthesized netlist.
    pub resources: Resources,
    /// Cell count (the P&R problem size).
    pub cells: usize,
    /// Net count.
    pub nets: usize,
    /// Intrinsic critical path before placement, in ns.
    pub intrinsic_ns: f64,
    /// Initiation interval of the outermost loop.
    pub top_ii: u64,
    /// Cycles per kernel invocation with direct stream FIFOs (`-O3`).
    pub invocation_cycles: u64,
    /// Cycles per invocation behind the overlay leaf interface (`-O1`).
    pub overlay_cycles: u64,
    /// Words consumed per invocation on each input port (static bound).
    pub input_words: Vec<(String, u64)>,
    /// Words produced per invocation on each output port (static bound).
    pub output_words: Vec<(String, u64)>,
    /// HLS work units (a compile-effort measure for the virtual-time model):
    /// proportional to the IR size plus the emitted netlist size.
    pub hls_work: u64,
}

impl HlsReport {
    /// Builds the report from the schedule and netlist.
    pub fn new(rk: &ResolvedKernel<'_>, netlist: &Netlist, schedule: &Schedule) -> HlsReport {
        let kernel = rk.kernel();
        let (input_words, output_words) = port_word_bounds(rk);
        HlsReport {
            name: kernel.name.clone(),
            resources: netlist.resources(),
            cells: netlist.cell_count(),
            nets: netlist.net_count(),
            intrinsic_ns: netlist.intrinsic_critical_path_ns(),
            top_ii: schedule.top_ii(),
            invocation_cycles: schedule.total_cycles,
            overlay_cycles: schedule.overlay_cycles,
            input_words,
            output_words,
            hls_work: kernel.static_size() + netlist.cell_count() as u64 * 4,
        }
    }

    /// Maximum clock frequency in MHz implied by the intrinsic critical path
    /// (before wire delay; post-P&R timing comes from `pnr`).
    pub fn intrinsic_fmax_mhz(&self) -> f64 {
        1000.0 / self.intrinsic_ns
    }
}

impl fmt::Display for HlsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== HLS report: {} ==", self.name)?;
        writeln!(f, "  resources: {}", self.resources)?;
        writeln!(f, "  cells/nets: {}/{}", self.cells, self.nets)?;
        writeln!(
            f,
            "  intrinsic path: {:.2} ns ({:.0} MHz)",
            self.intrinsic_ns,
            self.intrinsic_fmax_mhz()
        )?;
        writeln!(
            f,
            "  II: {}  cycles/invocation: {} (direct FIFOs) / {} (overlay)",
            self.top_ii, self.invocation_cycles, self.overlay_cycles
        )
    }
}

/// Per-port `(name, words)` totals.
type PortWords = Vec<(String, u64)>;

/// Static upper bounds on words moved per invocation, from trip counts.
fn port_word_bounds(rk: &ResolvedKernel<'_>) -> (PortWords, PortWords) {
    fn walk(kernel: &Kernel, body: &[RStmt], mult: u64, reads: &mut [u64], writes: &mut [u64]) {
        for s in body {
            match s {
                RStmt::Read(_, port) => {
                    reads[*port] += mult * kernel.inputs[*port].elem.words() as u64;
                }
                RStmt::Write(port, _) => {
                    writes[*port] += mult * kernel.outputs[*port].elem.words() as u64;
                }
                RStmt::For { body, .. } => walk(
                    kernel,
                    body,
                    mult * s.trip_count().unwrap_or(0),
                    reads,
                    writes,
                ),
                RStmt::If(_, then_body, else_body) => {
                    // Worst case across branches.
                    walk(kernel, then_body, mult, reads, writes);
                    walk(kernel, else_body, mult, reads, writes);
                }
                _ => {}
            }
        }
    }
    let kernel = rk.kernel();
    let mut reads = vec![0; kernel.inputs.len()];
    let mut writes = vec![0; kernel.outputs.len()];
    walk(kernel, rk.body(), 1, &mut reads, &mut writes);
    let named = |ports: &[kir::PortDecl], words: Vec<u64>| {
        ports.iter().map(|p| p.name.clone()).zip(words).collect()
    };
    (named(&kernel.inputs, reads), named(&kernel.outputs, writes))
}

#[cfg(test)]
mod tests {
    use kir::{Expr, KernelBuilder, Scalar, Stmt};

    #[test]
    fn report_captures_port_traffic() {
        let k = KernelBuilder::new("r")
            .input("a", Scalar::uint(32))
            .input("b", Scalar::uint(64))
            .output("y", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .local("w", Scalar::uint(64))
            .body([Stmt::for_pipelined(
                "i",
                0..100,
                [
                    Stmt::read("x", "a"),
                    Stmt::read("w", "b"),
                    Stmt::write("y", Expr::var("x")),
                ],
            )])
            .build()
            .unwrap();
        let out = crate::compile(&k).unwrap();
        let r = &out.report;
        assert_eq!(r.input_words, vec![("a".into(), 100), ("b".into(), 200)]);
        assert_eq!(r.output_words, vec![("y".into(), 100)]);
        assert!(r.intrinsic_fmax_mhz() > 100.0);
        assert!(r.hls_work > 0);
        let text = r.to_string();
        assert!(text.contains("HLS report: r"));
    }
}
