//! The netlist container: cells, nets and whole-design queries.

use std::fmt;

use crate::cell::{CellKind, Resources};

/// Index of a cell within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub usize);

/// Index of a net within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NetId(pub usize);

/// A placed-and-routable instance of a [`CellKind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Hierarchical instance name (for reports and debugging).
    pub name: String,
    /// The macro kind, carrying resources and timing.
    pub kind: CellKind,
}

/// A point-to-multipoint connection from one driving cell to sink cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Driving cell.
    pub driver: CellId,
    /// Sink cells (fanout).
    pub sinks: Vec<CellId>,
    /// Bus width in bits.
    pub width: u32,
}

/// Structural errors detected by [`Netlist::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net references a cell index past the end of the cell list.
    #[allow(missing_docs)]
    DanglingCellRef { net: usize },
    /// A net has no sinks.
    #[allow(missing_docs)]
    EmptyNet { net: usize },
    /// The combinational subgraph contains a cycle (unregistered loop).
    CombinationalLoop,
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DanglingCellRef { net } => {
                write!(f, "net {net} references a nonexistent cell")
            }
            NetlistError::EmptyNet { net } => write!(f, "net {net} has no sinks"),
            NetlistError::CombinationalLoop => {
                write!(f, "netlist contains an unregistered combinational loop")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// A macro-cell netlist for one operator (or a whole monolithic kernel).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Netlist {
    /// Design name.
    pub name: String,
    /// Cell instances.
    pub cells: Vec<Cell>,
    /// Nets.
    pub nets: Vec<Net>,
}

impl Netlist {
    /// Creates an empty netlist named `name`.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            cells: Vec::new(),
            nets: Vec::new(),
        }
    }

    /// Adds a cell, returning its id.
    pub fn add_cell(&mut self, name: impl Into<String>, kind: CellKind) -> CellId {
        let id = CellId(self.cells.len());
        self.cells.push(Cell {
            name: name.into(),
            kind,
        });
        id
    }

    /// Adds a net from `driver` to `sinks`, returning its id.
    pub fn add_net(&mut self, driver: CellId, sinks: Vec<CellId>, width: u32) -> NetId {
        let id = NetId(self.nets.len());
        self.nets.push(Net {
            driver,
            sinks,
            width,
        });
        id
    }

    /// Total resource demand of the design.
    pub fn resources(&self) -> Resources {
        self.cells
            .iter()
            .map(|c| c.kind.resources())
            .fold(Resources::default(), |a, b| a + b)
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Merges another netlist into this one, returning the cell-id offset
    /// that was applied to `other`'s cells (used by the `-O3` kernel
    /// generator when stitching operators together, Fig. 7).
    pub fn absorb(&mut self, other: &Netlist) -> usize {
        let offset = self.cells.len();
        self.cells.extend(other.cells.iter().cloned());
        for net in &other.nets {
            self.nets.push(Net {
                driver: CellId(net.driver.0 + offset),
                sinks: net.sinks.iter().map(|s| CellId(s.0 + offset)).collect(),
                width: net.width,
            });
        }
        offset
    }

    /// Cells of a given predicate, by id.
    pub fn cells_where<'a>(
        &'a self,
        pred: impl Fn(&CellKind) -> bool + 'a,
    ) -> impl Iterator<Item = CellId> + 'a {
        self.cells
            .iter()
            .enumerate()
            .filter(move |(_, c)| pred(&c.kind))
            .map(|(i, _)| CellId(i))
    }

    /// Validates structural invariants.
    ///
    /// # Errors
    ///
    /// See [`NetlistError`].
    pub fn check(&self) -> Result<(), NetlistError> {
        for (i, net) in self.nets.iter().enumerate() {
            if net.driver.0 >= self.cells.len() || net.sinks.iter().any(|s| s.0 >= self.cells.len())
            {
                return Err(NetlistError::DanglingCellRef { net: i });
            }
            if net.sinks.is_empty() {
                return Err(NetlistError::EmptyNet { net: i });
            }
        }
        // Combinational-loop check: longest-path over comb cells must not
        // revisit; run Kahn over the comb-only subgraph.
        let n = self.cells.len();
        let mut indeg = vec![0usize; n];
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        for net in &self.nets {
            if self.cells[net.driver.0].kind.is_sequential() {
                continue;
            }
            for s in &net.sinks {
                if self.cells[s.0].kind.is_sequential() {
                    continue;
                }
                succ[net.driver.0].push(s.0);
                indeg[s.0] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(u) = queue.pop() {
            seen += 1;
            for &v in &succ[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        if seen != n {
            return Err(NetlistError::CombinationalLoop);
        }
        Ok(())
    }

    /// Length (in intrinsic ns, excluding wire delay) of the longest
    /// register-to-register combinational path. Wire delay is added by
    /// `pnr`'s timing analysis after placement.
    pub fn intrinsic_critical_path_ns(&self) -> f64 {
        // Longest path in the comb DAG; sequential cells contribute their
        // clock-to-out/setup as path endpoints.
        let n = self.cells.len();
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for net in &self.nets {
            for s in &net.sinks {
                if !self.cells[net.driver.0].kind.is_sequential()
                    && !self.cells[s.0].kind.is_sequential()
                {
                    succ[net.driver.0].push(s.0);
                    indeg[s.0] += 1;
                }
            }
        }
        let mut dist: Vec<f64> = self.cells.iter().map(|c| c.kind.delay_ns()).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut best = 0.0f64;
        while let Some(u) = queue.pop() {
            best = best.max(dist[u]);
            for &v in &succ[u] {
                let cand = dist[u] + self.cells[v].kind.delay_ns();
                if cand > dist[v] {
                    dist[v] = cand;
                }
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        // Sequential launch/capture overhead.
        best + 0.6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Netlist {
        let mut nl = Netlist::new("tiny");
        let a = nl.add_cell("in", CellKind::StreamIn { width: 32 });
        let add = nl.add_cell("add", CellKind::Adder { width: 32 });
        let reg = nl.add_cell("reg", CellKind::Register { width: 32 });
        let out = nl.add_cell("out", CellKind::StreamOut { width: 32 });
        nl.add_net(a, vec![add], 32);
        nl.add_net(add, vec![reg], 32);
        nl.add_net(reg, vec![out], 32);
        nl
    }

    #[test]
    fn resources_accumulate() {
        let nl = tiny();
        let r = nl.resources();
        assert_eq!(r.luts, 50 + 16 + 32 + 50 + 16);
        assert_eq!(r.ffs, 36 + 32 + 36);
    }

    #[test]
    fn check_accepts_wellformed() {
        assert!(tiny().check().is_ok());
    }

    #[test]
    fn check_rejects_dangling() {
        let mut nl = tiny();
        nl.add_net(CellId(99), vec![CellId(0)], 1);
        assert_eq!(nl.check(), Err(NetlistError::DanglingCellRef { net: 3 }));
    }

    #[test]
    fn check_rejects_empty_net() {
        let mut nl = tiny();
        nl.add_net(CellId(0), vec![], 1);
        assert_eq!(nl.check(), Err(NetlistError::EmptyNet { net: 3 }));
    }

    #[test]
    fn check_rejects_comb_loop() {
        let mut nl = Netlist::new("loop");
        let a = nl.add_cell("a", CellKind::Logic { width: 1 });
        let b = nl.add_cell("b", CellKind::Logic { width: 1 });
        nl.add_net(a, vec![b], 1);
        nl.add_net(b, vec![a], 1);
        assert_eq!(nl.check(), Err(NetlistError::CombinationalLoop));
    }

    #[test]
    fn registered_loop_is_fine() {
        let mut nl = Netlist::new("acc");
        let add = nl.add_cell("add", CellKind::Adder { width: 32 });
        let reg = nl.add_cell("reg", CellKind::Register { width: 32 });
        nl.add_net(add, vec![reg], 32);
        nl.add_net(reg, vec![add], 32); // feedback through a register
        assert!(nl.check().is_ok());
    }

    #[test]
    fn absorb_offsets_ids() {
        let mut a = tiny();
        let b = tiny();
        let offset = a.absorb(&b);
        assert_eq!(offset, 4);
        assert_eq!(a.cell_count(), 8);
        assert_eq!(a.net_count(), 6);
        assert!(a.check().is_ok());
        assert_eq!(a.nets[3].driver, CellId(4));
    }

    #[test]
    fn critical_path_reflects_depth() {
        let mut shallow = Netlist::new("shallow");
        let r1 = shallow.add_cell("r1", CellKind::Register { width: 8 });
        let add = shallow.add_cell("a", CellKind::Adder { width: 8 });
        let r2 = shallow.add_cell("r2", CellKind::Register { width: 8 });
        shallow.add_net(r1, vec![add], 8);
        shallow.add_net(add, vec![r2], 8);

        let mut deep = Netlist::new("deep");
        let r1 = deep.add_cell("r1", CellKind::Register { width: 8 });
        let mut prev = deep.add_cell("a0", CellKind::Adder { width: 8 });
        deep.add_net(r1, vec![prev], 8);
        for i in 1..6 {
            let next = deep.add_cell(format!("a{i}"), CellKind::Adder { width: 8 });
            deep.add_net(prev, vec![next], 8);
            prev = next;
        }
        let r2 = deep.add_cell("r2", CellKind::Register { width: 8 });
        deep.add_net(prev, vec![r2], 8);

        assert!(deep.intrinsic_critical_path_ns() > shallow.intrinsic_critical_path_ns() * 3.0);
    }
}
