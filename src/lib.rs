#![warn(missing_docs)]
//! The reproduction of the PLD paper's evaluation, as a client of the
//! system.
//!
//! The workspace crates are the system: `pld` compiles an app at `-O0`,
//! `-O1` or `-O3` and models its own levels. What only the paper's tables
//! read lives here instead:
//!
//! * [`baseline`] — the "Vitis flow" baseline of Tab. 2/3 and Fig. 11,
//!   placed and routed on demand from an `-O3` compile;
//! * [`perf`] — Tab. 3's Vitis, `-O3`, X86 and emulation rows;
//! * [`emu`] — the netlist emulation behind the emulation row;
//! * [`tables`] — one renderer per table and figure. The `reproduce`
//!   binary (`src/bin/reproduce.rs`) drives them and writes `results/`.
//!
//! The system's own performance is `pldbench`'s (`benchmark/`), and
//! EXPERIMENTS.md compares these tables' shapes with the paper's.

pub mod baseline;
pub mod emu;
pub mod perf;
pub mod tables;

pub use baseline::{vitis_baseline, Baseline};

use pld::execute::{perf_o0, perf_o1, PerfReport};
use pld::{compile, CompileOptions, CompiledApp, OptLevel};
use rosetta::{suite, Bench, Scale};
use std::sync::OnceLock;

/// A benchmark compiled at every level, with its Vitis baseline.
pub struct CompiledSuiteEntry {
    /// The workload.
    pub bench: Bench,
    /// `-O0` build.
    pub o0: CompiledApp,
    /// `-O1` build.
    pub o1: CompiledApp,
    /// `-O3` build.
    pub o3: CompiledApp,
    /// The fused baseline of the `-O3` build (`None` if it does not route).
    pub vitis: Option<Baseline>,
    o1_perf: OnceLock<PerfReport>,
    o0_perf: OnceLock<PerfReport>,
}

impl CompiledSuiteEntry {
    /// The `-O1` build's performance on the bench's inputs, modelled on
    /// first use and kept: Tab. 3 and Fig. 11 both read it.
    ///
    /// # Panics
    ///
    /// Panics if the co-simulation fails.
    pub fn o1_perf(&self) -> PerfReport {
        *self.o1_perf.get_or_init(|| {
            perf_o1(&self.o1, &self.bench.input_refs())
                .unwrap_or_else(|e| panic!("{} -O1 perf: {e}", self.bench.name))
        })
    }

    /// The `-O0` build's performance on the bench's inputs, modelled on
    /// first use and kept: Tab. 3, Fig. 10 and Fig. 11 read it.
    ///
    /// # Panics
    ///
    /// Panics if a softcore run fails.
    pub fn o0_perf(&self) -> PerfReport {
        *self.o0_perf.get_or_init(|| {
            perf_o0(&self.o0, &self.bench.input_refs())
                .unwrap_or_else(|e| panic!("{} -O0 perf: {e}", self.bench.name))
        })
    }
}

/// The Rosetta suite compiled once at one scale.
pub struct Suite {
    /// The scale every entry was built at.
    pub scale: Scale,
    /// One entry per benchmark, in suite order.
    pub entries: Vec<CompiledSuiteEntry>,
}

/// Compiles the whole Rosetta suite at all three levels with default
/// options, and places and routes each `-O3` build's Vitis baseline.
///
/// # Panics
///
/// Panics if any benchmark fails to compile — the suite is constructed to
/// always build.
pub fn compile_suite(scale: Scale) -> Suite {
    let entries = suite(scale)
        .into_iter()
        .map(|bench| {
            let at = |level| {
                compile(&bench.graph, &CompileOptions::new(level))
                    .unwrap_or_else(|e| panic!("{} {level}: {e}", bench.name))
            };
            let (o0, o1, o3) = (at(OptLevel::O0), at(OptLevel::O1), at(OptLevel::O3));
            let vitis = vitis_baseline(&o3, &CompileOptions::new(OptLevel::O3));
            CompiledSuiteEntry {
                bench,
                o0,
                o1,
                o3,
                vitis,
                o1_perf: OnceLock::new(),
                o0_perf: OnceLock::new(),
            }
        })
        .collect();
    Suite { scale, entries }
}

/// Formats seconds compactly (paper tables use raw seconds).
pub fn secs(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Formats a per-input latency the way Tab. 3 does (ms or s).
pub fn latency(v: f64) -> String {
    if v >= 1.0 {
        format!("{v:.1} s")
    } else if v >= 1e-3 {
        format!("{:.1} ms", v * 1e3)
    } else {
        format!("{:.1} us", v * 1e6)
    }
}

/// A crude console histogram line (for the figure renderers).
pub fn histogram_line(values: &[f64], buckets: usize) -> String {
    if values.is_empty() {
        return String::new();
    }
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    let mut counts = vec![0usize; buckets];
    for &v in values {
        let b = (((v - min) / span) * (buckets as f64 - 1.0)).round() as usize;
        counts[b.min(buckets - 1)] += 1;
    }
    counts
        .iter()
        .map(|&c| match c {
            0 => '.',
            1..=2 => ':',
            3..=5 => '|',
            _ => '#',
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(4264.0), "4264");
        assert_eq!(secs(3.17), "3.2");
        assert_eq!(secs(0.5), "0.50");
        assert_eq!(latency(1.6e-3), "1.6 ms");
        assert_eq!(latency(137.0), "137.0 s");
        assert_eq!(latency(5e-6), "5.0 us");
    }

    #[test]
    fn histogram_is_stable() {
        let line = histogram_line(&[1.0, 1.0, 1.0, 2.0, 10.0], 5);
        assert_eq!(line.len(), 5);
        assert!(line.starts_with('|'));
        assert!(line.ends_with(':'));
    }
}
