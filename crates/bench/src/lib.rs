//! Shared harness for regenerating every table and figure of the paper.
//!
//! Each `table*`/`fig*` binary in `src/bin/` prints one artifact of the
//! paper's Sec. 7 evaluation. This library holds the plumbing they share.
//! Performance is not measured here: that is `pldbench` (`benchmark/`).
//!
//! Absolute numbers come from the simulated substrate, not the authors'
//! Vitis testbed; EXPERIMENTS.md records, per table, which *shape* claims
//! are checked (who wins, rough ratios, crossovers) and how the virtual-time
//! calibration was fixed once against the paper's Vitis column.

use pld::{compile, CompileOptions, CompiledApp, OptLevel};
use rosetta::{suite, Bench, Scale};

/// Parses the harness scale from argv (default `small`; `tiny` and `medium`
/// accepted).
pub fn scale_from_args() -> Scale {
    match std::env::args().nth(1).as_deref() {
        Some("tiny") => Scale::Tiny,
        Some("medium") => Scale::Medium,
        _ => Scale::Small,
    }
}

/// A benchmark compiled at every level.
pub struct CompiledSuiteEntry {
    /// The workload.
    pub bench: Bench,
    /// `-O0` build.
    pub o0: CompiledApp,
    /// `-O1` build.
    pub o1: CompiledApp,
    /// `-O3` build (also stands in for the paper's Vitis column; see
    /// EXPERIMENTS.md).
    pub o3: CompiledApp,
}

/// Compiles the whole Rosetta suite at all three levels.
///
/// # Panics
///
/// Panics if any benchmark fails to compile — the suite is constructed to
/// always build.
pub fn compile_suite(scale: Scale) -> Vec<CompiledSuiteEntry> {
    suite(scale)
        .into_iter()
        .map(|bench| {
            let o0 = compile(&bench.graph, &CompileOptions::new(OptLevel::O0))
                .unwrap_or_else(|e| panic!("{} -O0: {e}", bench.name));
            let o1 = compile(&bench.graph, &CompileOptions::new(OptLevel::O1))
                .unwrap_or_else(|e| panic!("{} -O1: {e}", bench.name));
            let o3 = compile(&bench.graph, &CompileOptions::new(OptLevel::O3))
                .unwrap_or_else(|e| panic!("{} -O3: {e}", bench.name));
            CompiledSuiteEntry { bench, o0, o1, o3 }
        })
        .collect()
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

/// A crude console histogram line (for the figure harnesses).
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
