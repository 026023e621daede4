//! The virtual-time model: measured toolchain work → Vitis-scale seconds.
//!
//! Our substrate compiles macro-cell netlists, not LUT-level Vitis designs,
//! so its wall-clock times are far smaller than the paper's even though the
//! *ratios* between flows emerge from the same algorithms. To let the Tab. 2
//! harness print numbers in the paper's units, this module converts each
//! phase's measured work (IR nodes synthesized, SA moves, router edge
//! relaxations, configuration bits, code bytes) into seconds with constants
//! calibrated **once** against the paper's Vitis column; the `-O3`, `-O1`
//! and `-O0` columns are then *predictions*, making shape comparisons
//! honest. EXPERIMENTS.md reports both wall-clock and virtual seconds.

/// Seconds of card time for `cycles` overlay cycles at the overlay clock
/// ([`crate::execute::OVERLAY_MHZ`]) — the one conversion every execution
/// engine (`-O0` cosim, `-O1` fluid actors, loader link accounting) shares.
pub fn overlay_seconds(cycles: u64) -> f64 {
    cycles as f64 / (crate::execute::OVERLAY_MHZ * 1e6)
}

/// Per-phase compile times, in seconds (the columns of Tab. 2).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseTimes {
    /// C-to-RTL high-level synthesis.
    pub hls: f64,
    /// Logic synthesis (netlist elaboration / optimization).
    pub syn: f64,
    /// Placement and routing.
    pub pnr: f64,
    /// Bitstream generation.
    pub bit: f64,
    /// RISC-V `-O0` compilation (the paper's separate `riscv g++` column).
    pub riscv: f64,
}

impl PhaseTimes {
    /// Total seconds across phases.
    pub fn total(&self) -> f64 {
        self.hls + self.syn + self.pnr + self.bit + self.riscv
    }

    /// Component-wise addition.
    pub fn add(&self, other: &PhaseTimes) -> PhaseTimes {
        PhaseTimes {
            hls: self.hls + other.hls,
            syn: self.syn + other.syn,
            pnr: self.pnr + other.pnr,
            bit: self.bit + other.bit,
            riscv: self.riscv + other.riscv,
        }
    }

    /// Component-wise maximum (parallel compilation: the slowest job wins).
    pub fn parallel_max(&self, other: &PhaseTimes) -> PhaseTimes {
        PhaseTimes {
            hls: self.hls.max(other.hls),
            syn: self.syn.max(other.syn),
            pnr: self.pnr.max(other.pnr),
            bit: self.bit.max(other.bit),
            riscv: self.riscv.max(other.riscv),
        }
    }
}

/// Calibrated work→seconds constants.
///
/// Calibration target: the paper's Vitis column for Rosetta-class designs —
/// whole-application compiles of 1–2 hours split roughly 2–25% HLS, 30%
/// synthesis, 50% p&r, 15% bitgen (Tab. 2), with page (`-O1`) compiles
/// landing at about 10–20 minutes and RISC-V (`-O0`) compiles under 4 s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VtimeModel {
    /// Seconds per HLS work unit (kernel IR nodes + emitted cells).
    pub hls_per_work: f64,
    /// Fixed HLS invocation overhead per operator, seconds.
    pub hls_fixed: f64,
    /// Seconds per netlist cell during logic synthesis.
    pub syn_per_cell: f64,
    /// Fixed synthesis overhead per compile, seconds.
    pub syn_fixed: f64,
    /// Seconds per P&R work unit (SA moves + router edge relaxations).
    pub pnr_per_work: f64,
    /// Fixed P&R overhead per compile (tool launch, context load), seconds.
    pub pnr_fixed: f64,
    /// Seconds per configuration bit at bitstream generation.
    pub bit_per_bit: f64,
    /// Fixed bitgen overhead, seconds.
    pub bit_fixed: f64,
    /// Seconds per emitted RISC-V code byte (`-O0` compiles).
    pub cc_per_byte: f64,
    /// Fixed `-O0` compile overhead, seconds.
    pub cc_fixed: f64,
    /// Fixed overhead of a *warm* (hint-seeded incremental) P&R run,
    /// seconds. Much smaller than [`VtimeModel::pnr_fixed`]: the warm run
    /// skips the cold tool launch / context load — the prior placement and
    /// congestion state replace the from-scratch setup — while per-work
    /// pricing stays identical (the warm run's work units are measured and
    /// already small).
    pub pnr_warm_fixed: f64,
}

impl Default for VtimeModel {
    fn default() -> Self {
        VtimeModel {
            hls_per_work: 0.018,
            hls_fixed: 8.0,
            syn_per_cell: 5.5,
            syn_fixed: 60.0,
            pnr_per_work: 2.8e-3,
            pnr_fixed: 120.0,
            bit_per_bit: 2.9e-6,
            bit_fixed: 100.0,
            cc_per_byte: 2.5e-5,
            cc_fixed: 0.6,
            pnr_warm_fixed: 15.0,
        }
    }
}

impl VtimeModel {
    /// Virtual seconds of an HLS run.
    pub fn hls_seconds(&self, hls_work: u64) -> f64 {
        self.hls_fixed + hls_work as f64 * self.hls_per_work
    }

    /// Virtual seconds of logic synthesis over `cells`.
    pub fn syn_seconds(&self, cells: u64) -> f64 {
        self.syn_fixed + cells as f64 * self.syn_per_cell
    }

    /// Virtual seconds of place-and-route with the given work units.
    pub fn pnr_seconds(&self, work_units: u64) -> f64 {
        self.pnr_fixed + work_units as f64 * self.pnr_per_work
    }

    /// Virtual seconds of a warm (hint-seeded incremental) place-and-route
    /// run with the given measured work units. Same per-work pricing as
    /// [`VtimeModel::pnr_seconds`], but with the much smaller warm fixed
    /// overhead — the tool keeps the prior run's context instead of
    /// launching cold.
    pub fn pnr_warm_seconds(&self, work_units: u64) -> f64 {
        self.pnr_warm_fixed + work_units as f64 * self.pnr_per_work
    }

    /// Virtual seconds of bitstream generation for `config_bits`.
    pub fn bit_seconds(&self, config_bits: u64) -> f64 {
        self.bit_fixed + config_bits as f64 * self.bit_per_bit
    }

    /// Virtual seconds of a `-O0` RISC-V compile emitting `code_bytes`.
    pub fn riscv_seconds(&self, code_bytes: u64) -> f64 {
        self.cc_fixed + code_bytes as f64 * self.cc_per_byte
    }

    /// Per-phase times of a full hardware page compile, from its measured
    /// work (HLS work units, wrapped netlist cells, P&R work units, config
    /// bits). The build graph stores these work measures instead of seconds,
    /// so recalibrating the model reprices past compiles without re-running
    /// anything.
    pub fn hw_phases(
        &self,
        hls_work: u64,
        cells: u64,
        work_units: u64,
        config_bits: u64,
    ) -> PhaseTimes {
        PhaseTimes {
            hls: self.hls_seconds(hls_work),
            syn: self.syn_seconds(cells),
            pnr: self.pnr_seconds(work_units),
            bit: self.bit_seconds(config_bits),
            riscv: 0.0,
        }
    }

    /// Per-phase times of a softcore compile emitting `code_bytes`.
    pub fn soft_phases(&self, code_bytes: u64) -> PhaseTimes {
        PhaseTimes {
            riscv: self.riscv_seconds(code_bytes),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_algebra() {
        let a = PhaseTimes {
            hls: 1.0,
            syn: 2.0,
            pnr: 3.0,
            bit: 4.0,
            riscv: 0.0,
        };
        let b = PhaseTimes {
            hls: 4.0,
            syn: 1.0,
            pnr: 5.0,
            bit: 0.5,
            riscv: 1.0,
        };
        assert_eq!(a.total(), 10.0);
        let s = a.add(&b);
        assert_eq!(s.total(), 21.5);
        let m = a.parallel_max(&b);
        assert_eq!(
            m,
            PhaseTimes {
                hls: 4.0,
                syn: 2.0,
                pnr: 5.0,
                bit: 4.0,
                riscv: 1.0
            }
        );
    }

    #[test]
    fn o0_compiles_in_seconds_scale() {
        let m = VtimeModel::default();
        // A 20 KB operator binary: paper Tab. 2 reports 1.0-3.4 s.
        let t = m.riscv_seconds(20 * 1024);
        assert!(t > 0.5 && t < 4.0, "{t}");
    }

    #[test]
    fn warm_pnr_is_cheaper_than_cold_at_equal_work() {
        let m = VtimeModel::default();
        assert!(m.pnr_warm_seconds(1000) < m.pnr_seconds(1000));
        // The fixed saving alone must be large enough that a small warm run
        // can beat a cold run by the headline 3x even before work savings.
        assert!(m.pnr_warm_fixed < m.pnr_fixed / 3.0);
    }

    #[test]
    fn fixed_overheads_present() {
        let m = VtimeModel::default();
        assert!(m.hls_seconds(0) > 0.0);
        assert!(m.pnr_seconds(0) >= 100.0);
    }
}
