//! Cell kinds, resource weights and intrinsic delays.

use std::fmt;
use std::ops::{Add, AddAssign};

/// FPGA resource vector: the four quantities the paper reports everywhere
/// (Tab. 1 page inventory, Tab. 4 area consumption).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Resources {
    /// 6-input look-up tables.
    pub luts: u64,
    /// Flip-flops.
    pub ffs: u64,
    /// 18 Kib block RAMs (BRAM18).
    pub bram18: u64,
    /// DSP48 arithmetic slices.
    pub dsp: u64,
}

impl Resources {
    /// A resource vector with only LUTs.
    pub const fn luts(n: u64) -> Resources {
        Resources {
            luts: n,
            ffs: 0,
            bram18: 0,
            dsp: 0,
        }
    }

    /// Component-wise `self <= rhs`: does a demand fit in a budget?
    pub fn fits_in(&self, budget: &Resources) -> bool {
        self.luts <= budget.luts
            && self.ffs <= budget.ffs
            && self.bram18 <= budget.bram18
            && self.dsp <= budget.dsp
    }

    /// Component-wise saturating subtraction.
    pub fn saturating_sub(&self, rhs: &Resources) -> Resources {
        Resources {
            luts: self.luts.saturating_sub(rhs.luts),
            ffs: self.ffs.saturating_sub(rhs.ffs),
            bram18: self.bram18.saturating_sub(rhs.bram18),
            dsp: self.dsp.saturating_sub(rhs.dsp),
        }
    }

    /// The largest utilization fraction across resource classes, against a
    /// budget; `None` entries of the budget are skipped.
    pub fn utilization(&self, budget: &Resources) -> f64 {
        fn frac(d: u64, b: u64) -> f64 {
            if b == 0 {
                if d == 0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                d as f64 / b as f64
            }
        }
        frac(self.luts, budget.luts)
            .max(frac(self.ffs, budget.ffs))
            .max(frac(self.bram18, budget.bram18))
            .max(frac(self.dsp, budget.dsp))
    }
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, rhs: Resources) -> Resources {
        Resources {
            luts: self.luts + rhs.luts,
            ffs: self.ffs + rhs.ffs,
            bram18: self.bram18 + rhs.bram18,
            dsp: self.dsp + rhs.dsp,
        }
    }
}

impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        *self = *self + rhs;
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} LUT, {} FF, {} BRAM18, {} DSP",
            self.luts, self.ffs, self.bram18, self.dsp
        )
    }
}

/// A datapath macro cell.
///
/// Resource weights and delays are calibrated to UltraScale+-class fabric:
/// a `W`-bit ripple/carry adder costs ~`W` LUTs, wide multipliers map to
/// DSP48 tiles (27×18 signed), local arrays map to BRAM18s, and stream/FIFO
/// interfaces carry the ~500-LUT overhead the paper quotes for leaf
/// interfaces (Sec. 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Carry-chain adder/subtractor.
    #[allow(missing_docs)]
    Adder { width: u32 },
    /// Multiplier; wide ones bind to DSP48 tiles.
    #[allow(missing_docs)]
    Mult { width: u32 },
    /// Iterative divider (also serves remainder).
    #[allow(missing_docs)]
    Divider { width: u32 },
    /// Bitwise logic (AND/OR/XOR/NOT).
    #[allow(missing_docs)]
    Logic { width: u32 },
    /// Barrel shifter.
    #[allow(missing_docs)]
    Shifter { width: u32 },
    /// Magnitude comparator.
    #[allow(missing_docs)]
    Comparator { width: u32 },
    /// 2:1 multiplexer.
    #[allow(missing_docs)]
    Mux { width: u32 },
    /// Pipeline/architectural register bank.
    #[allow(missing_docs)]
    Register { width: u32 },
    /// One port of a block RAM holding `bits` of state.
    #[allow(missing_docs)]
    BramPort { bits: u64 },
    /// Loop/control finite-state machine.
    #[allow(missing_docs)]
    Fsm { states: u32 },
    /// Stream input interface (handshake + capture).
    #[allow(missing_docs)]
    StreamIn { width: u32 },
    /// Stream output interface (handshake + staging).
    #[allow(missing_docs)]
    StreamOut { width: u32 },
    /// An inter-operator FIFO buffer (used by the `-O3` kernel generator and
    /// the leaf interface).
    #[allow(missing_docs)]
    FifoBuf { width: u32, depth: u32 },
    /// A constant driver (free after synthesis).
    #[allow(missing_docs)]
    Const { width: u32 },
}

/// Bits in one BRAM18.
pub const BRAM18_BITS: u64 = 18 * 1024;

impl CellKind {
    /// The resource weight of this cell.
    pub fn resources(&self) -> Resources {
        match *self {
            CellKind::Adder { width } => Resources {
                luts: width as u64,
                ffs: 0,
                bram18: 0,
                dsp: 0,
            },
            CellKind::Mult { width } => {
                if width <= 4 {
                    Resources::luts((width * width) as u64 / 2 + 1)
                } else {
                    // DSP48: 27x18 signed multiplier tiles.
                    let tiles = width.div_ceil(18) as u64 * width.div_ceil(27) as u64;
                    Resources {
                        luts: width as u64 / 2,
                        ffs: 0,
                        bram18: 0,
                        dsp: tiles,
                    }
                }
            }
            CellKind::Divider { width } => Resources {
                luts: (width as u64 * width as u64) / 2 + 8,
                ffs: width as u64 * 2,
                bram18: 0,
                dsp: 0,
            },
            CellKind::Logic { width } => Resources::luts((width as u64 / 2).max(1)),
            CellKind::Shifter { width } => {
                let stages = 32 - (width.max(2) - 1).leading_zeros();
                Resources::luts((width as u64 * stages as u64) / 2 + 1)
            }
            CellKind::Comparator { width } => Resources::luts(width as u64 / 2 + 1),
            CellKind::Mux { width } => Resources::luts(width as u64 / 2 + 1),
            CellKind::Register { width } => Resources {
                luts: 0,
                ffs: width as u64,
                bram18: 0,
                dsp: 0,
            },
            CellKind::BramPort { bits } => Resources {
                luts: 20,
                ffs: 8,
                bram18: bits.div_ceil(BRAM18_BITS),
                dsp: 0,
            },
            CellKind::Fsm { states } => Resources {
                luts: states as u64 * 2 + 8,
                ffs: (32 - states.max(2).leading_zeros()) as u64,
                bram18: 0,
                dsp: 0,
            },
            CellKind::StreamIn { width } | CellKind::StreamOut { width } => Resources {
                luts: 50 + width as u64 / 2,
                ffs: width as u64 + 4,
                bram18: 0,
                dsp: 0,
            },
            CellKind::FifoBuf { width, depth } => {
                let bits = width as u64 * depth as u64;
                if bits > 1024 {
                    Resources {
                        luts: 40,
                        ffs: width as u64,
                        bram18: bits.div_ceil(BRAM18_BITS),
                        dsp: 0,
                    }
                } else {
                    Resources {
                        luts: bits / 8 + 20,
                        ffs: width as u64,
                        bram18: 0,
                        dsp: 0,
                    }
                }
            }
            CellKind::Const { .. } => Resources::default(),
        }
    }

    /// Intrinsic combinational delay in nanoseconds (UltraScale+-calibrated).
    pub fn delay_ns(&self) -> f64 {
        match *self {
            CellKind::Adder { width } => 0.9 + 0.015 * width as f64,
            CellKind::Mult { width } => {
                if width <= 4 {
                    1.1
                } else {
                    2.2 + 0.01 * width as f64
                }
            }
            CellKind::Divider { width } => 2.8 + 0.02 * width as f64,
            CellKind::Logic { .. } => 0.5,
            CellKind::Shifter { width } => 0.9 + 0.1 * (width.max(2) as f64).log2(),
            CellKind::Comparator { width } => 0.8 + 0.01 * width as f64,
            CellKind::Mux { .. } => 0.6,
            CellKind::Register { .. } => 0.0,
            CellKind::BramPort { .. } => 1.8,
            CellKind::Fsm { .. } => 1.0,
            CellKind::StreamIn { .. } | CellKind::StreamOut { .. } => 1.0,
            CellKind::FifoBuf { .. } => 1.5,
            CellKind::Const { .. } => 0.0,
        }
    }

    /// Whether the cell is a sequential element (a timing-path endpoint).
    pub fn is_sequential(&self) -> bool {
        matches!(
            self,
            CellKind::Register { .. }
                | CellKind::BramPort { .. }
                | CellKind::StreamIn { .. }
                | CellKind::StreamOut { .. }
                | CellKind::FifoBuf { .. }
        )
    }

    /// Pipeline latency in cycles for multi-cycle cells (1 for most).
    pub fn latency_cycles(&self) -> u32 {
        match *self {
            CellKind::Divider { width } => width.max(4),
            CellKind::Mult { width } if width > 18 => 3,
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_vector_algebra() {
        let a = Resources {
            luts: 10,
            ffs: 4,
            bram18: 1,
            dsp: 0,
        };
        let b = Resources {
            luts: 5,
            ffs: 0,
            bram18: 0,
            dsp: 2,
        };
        let s = a + b;
        assert_eq!(
            s,
            Resources {
                luts: 15,
                ffs: 4,
                bram18: 1,
                dsp: 2
            }
        );
        assert!(a.fits_in(&s));
        assert!(!s.fits_in(&a));
        assert_eq!(s.saturating_sub(&a), b);
    }

    #[test]
    fn utilization_picks_binding_resource() {
        let demand = Resources {
            luts: 50,
            ffs: 10,
            bram18: 9,
            dsp: 0,
        };
        let budget = Resources {
            luts: 1000,
            ffs: 2000,
            bram18: 10,
            dsp: 10,
        };
        assert!((demand.utilization(&budget) - 0.9).abs() < 1e-9);
        let impossible = Resources {
            luts: 0,
            ffs: 0,
            bram18: 0,
            dsp: 1,
        };
        let no_dsp = Resources {
            luts: 100,
            ffs: 100,
            bram18: 1,
            dsp: 0,
        };
        assert_eq!(impossible.utilization(&no_dsp), f64::INFINITY);
    }

    #[test]
    fn adder_scales_linearly() {
        assert_eq!(CellKind::Adder { width: 32 }.resources().luts, 32);
        assert_eq!(CellKind::Adder { width: 64 }.resources().luts, 64);
    }

    #[test]
    fn wide_mult_uses_dsps() {
        let r = CellKind::Mult { width: 32 }.resources();
        assert!(
            r.dsp >= 2,
            "32-bit multiply should need multiple DSP48 tiles, got {}",
            r.dsp
        );
        let small = CellKind::Mult { width: 4 }.resources();
        assert_eq!(small.dsp, 0);
    }

    #[test]
    fn bram_rounds_up() {
        assert_eq!(CellKind::BramPort { bits: 1 }.resources().bram18, 1);
        assert_eq!(
            CellKind::BramPort { bits: BRAM18_BITS }.resources().bram18,
            1
        );
        assert_eq!(
            CellKind::BramPort {
                bits: BRAM18_BITS + 1
            }
            .resources()
            .bram18,
            2
        );
    }

    #[test]
    fn stream_interfaces_cost_roughly_paper_numbers() {
        // Paper Sec. 4.1: "Our network interfaces run about 500 LUTs" for a
        // full leaf interface; a single stream port should be a fraction.
        let r = CellKind::StreamIn { width: 32 }.resources();
        assert!(r.luts >= 50 && r.luts <= 200);
    }

    #[test]
    fn sequential_classification() {
        assert!(CellKind::Register { width: 8 }.is_sequential());
        assert!(CellKind::FifoBuf {
            width: 32,
            depth: 16
        }
        .is_sequential());
        assert!(!CellKind::Adder { width: 8 }.is_sequential());
    }

    #[test]
    fn divider_is_multi_cycle() {
        assert!(CellKind::Divider { width: 32 }.latency_cycles() >= 16);
        assert_eq!(CellKind::Adder { width: 32 }.latency_cycles(), 1);
    }

    #[test]
    fn delays_are_positive_for_comb_cells() {
        for k in [
            CellKind::Adder { width: 32 },
            CellKind::Mult { width: 32 },
            CellKind::Logic { width: 8 },
            CellKind::Shifter { width: 32 },
            CellKind::Mux { width: 16 },
        ] {
            assert!(k.delay_ns() > 0.0, "{k:?}");
        }
        assert_eq!(CellKind::Register { width: 8 }.delay_ns(), 0.0);
    }
}
