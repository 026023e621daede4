//! Event-driven netlist emulation.
//!
//! This is the reproduction's stand-in for RTL emulation (the "Vitis Emu"
//! column of the paper's Tab. 3): every simulated cycle sweeps the whole
//! design, evaluating each cell from its input values. The *values* are a
//! deterministic mixing function — the macro cells don't carry gate-level
//! functions — but the *cost* is the real cost of software emulation:
//! proportional to `cells × cycles`, three-to-five orders of magnitude
//! slower than the hardware it models, exactly the gap Tab. 3 reports.

use netlist::Netlist;

/// Statistics from one emulation run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EmuStats {
    /// Simulated clock cycles.
    pub cycles: u64,
    /// Cell evaluation events executed.
    pub events: u64,
    /// Wall-clock seconds spent emulating.
    pub wall_seconds: f64,
    /// A digest of all cell states, making the sweep impossible to
    /// dead-code-eliminate and runs comparable for determinism tests.
    pub digest: u64,
}

impl EmuStats {
    /// Emulation throughput in events per wall-clock second.
    pub fn events_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.events as f64 / self.wall_seconds
        } else {
            f64::INFINITY
        }
    }
}

/// Emulates `cycles` clock cycles of the design.
///
/// Each cycle evaluates every cell once from the current values on its input
/// nets (a full-sweep two-phase simulator: combinational values settle into
/// a shadow state that becomes visible at the cycle boundary, like a
/// synchronous RTL simulator with one delta cycle).
pub fn emulate(netlist: &Netlist, cycles: u64) -> EmuStats {
    let start = std::time::Instant::now();
    let n = netlist.cells.len();

    // Precompute per-cell input lists (net drivers feeding each cell).
    let mut inputs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for net in &netlist.nets {
        for s in &net.sinks {
            inputs[s.0].push(net.driver.0);
        }
    }

    let mut state: Vec<u64> = (0..n as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let mut next: Vec<u64> = state.clone();
    let mut events = 0u64;

    for cycle in 0..cycles {
        for (i, ins) in inputs.iter().enumerate() {
            // splitmix-style mix of the cell's inputs and its own state.
            let mut acc = state[i] ^ cycle;
            for &d in ins {
                acc = acc
                    .wrapping_add(state[d])
                    .wrapping_mul(0xbf58_476d_1ce4_e5b9);
                acc ^= acc >> 27;
            }
            next[i] = acc.wrapping_mul(0x94d0_49bb_1331_11eb) ^ (acc >> 31);
            events += 1;
        }
        std::mem::swap(&mut state, &mut next);
    }

    let digest = state.iter().fold(0u64, |a, &v| a.rotate_left(7) ^ v);
    EmuStats {
        cycles,
        events,
        wall_seconds: start.elapsed().as_secs_f64(),
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::CellKind;

    fn chain(len: usize) -> Netlist {
        let mut nl = Netlist::new("chain");
        let mut prev = nl.add_cell("c0", CellKind::Register { width: 32 });
        for i in 1..len {
            let next = nl.add_cell(format!("c{i}"), CellKind::Adder { width: 32 });
            nl.add_net(prev, vec![next], 32);
            prev = next;
        }
        nl
    }

    #[test]
    fn event_count_is_cells_times_cycles() {
        let nl = chain(10);
        let stats = emulate(&nl, 100);
        assert_eq!(stats.events, 10 * 100);
        assert_eq!(stats.cycles, 100);
    }

    #[test]
    fn emulation_is_deterministic() {
        let nl = chain(50);
        let a = emulate(&nl, 200);
        let b = emulate(&nl, 200);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, emulate(&nl, 201).digest);
    }

    #[test]
    fn cost_scales_with_design_size() {
        let small = emulate(&chain(10), 2000);
        let large = emulate(&chain(1000), 2000);
        assert_eq!(large.events, small.events * 100);
    }

    #[test]
    fn throughput_is_finite_and_positive() {
        let stats = emulate(&chain(100), 1000);
        assert!(stats.events_per_second() > 0.0);
        assert!(stats.events_per_second().is_finite());
    }
}
