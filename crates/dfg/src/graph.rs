//! The application dataflow graph and its builder.

use kir::{Kernel, Scalar};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

use crate::target::Target;

/// Index of an operator instance within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub usize);

/// Index of a stream edge within a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(pub usize);

/// One instantiated operator: a kernel plus its mapping pragma.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorInst {
    /// Instance name, unique within the graph.
    pub name: String,
    /// The operator body (one C source file in the paper's flow).
    pub kernel: Kernel,
    /// Mapping target from the header pragma.
    pub target: Target,
}

/// A latency-insensitive stream link between two operator ports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamEdge {
    /// Link name (the `hls::stream` variable in `top.cpp`).
    pub name: String,
    /// Producing operator and its output port.
    pub from: (OpId, String),
    /// Consuming operator and its input port.
    pub to: (OpId, String),
    /// Element type carried by the link.
    pub elem: Scalar,
}

/// An external DMA-facing port of the top-level kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtPort {
    /// Name visible to the host (`Input_1`, `Output_1`, ...).
    pub name: String,
    /// The operator endpoint it binds to.
    pub op: OpId,
    /// The operator's port name.
    pub port: String,
    /// Element type.
    pub elem: Scalar,
}

/// Errors raised while constructing or validating a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Two operator instances share a name.
    DuplicateOperator(String),
    /// Referenced operator does not exist.
    UnknownOperator(String),
    /// Referenced port does not exist on the operator.
    #[allow(missing_docs)]
    UnknownPort { op: String, port: String },
    /// The two endpoints of a link carry different element types.
    #[allow(missing_docs)]
    TypeMismatch {
        link: String,
        from: Scalar,
        to: Scalar,
    },
    /// An input port is fed by more than one link.
    #[allow(missing_docs)]
    InputDoubleDriven { op: String, port: String },
    /// An output port feeds more than one link (streams are point-to-point).
    #[allow(missing_docs)]
    OutputDoubleUsed { op: String, port: String },
    /// A port is left unconnected.
    #[allow(missing_docs)]
    Unconnected { op: String, port: String },
    /// The graph contains a cycle, which batch execution cannot order.
    Cyclic,
    /// Two external ports share a name.
    DuplicateExtPort(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DuplicateOperator(n) => write!(f, "duplicate operator instance `{n}`"),
            GraphError::UnknownOperator(n) => write!(f, "unknown operator `{n}`"),
            GraphError::UnknownPort { op, port } => {
                write!(f, "operator `{op}` has no port named `{port}`")
            }
            GraphError::TypeMismatch { link, from, to } => {
                write!(f, "link `{link}` connects {from} to {to}")
            }
            GraphError::InputDoubleDriven { op, port } => {
                write!(f, "input `{op}.{port}` is driven by more than one link")
            }
            GraphError::OutputDoubleUsed { op, port } => {
                write!(f, "output `{op}.{port}` feeds more than one link")
            }
            GraphError::Unconnected { op, port } => {
                write!(f, "port `{op}.{port}` is unconnected")
            }
            GraphError::Cyclic => write!(f, "dataflow graph contains a cycle"),
            GraphError::DuplicateExtPort(n) => write!(f, "duplicate external port `{n}`"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A complete application: operators, stream links and external ports.
///
/// Construct with [`GraphBuilder`]; [`GraphBuilder::build`] validates
/// connectivity, type agreement and acyclicity.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    /// Application name (the top-level kernel name).
    pub name: String,
    /// Operator instances.
    pub operators: Vec<OperatorInst>,
    /// Internal stream links.
    pub edges: Vec<StreamEdge>,
    /// External input ports (DMA in).
    pub ext_inputs: Vec<ExtPort>,
    /// External output ports (DMA out).
    pub ext_outputs: Vec<ExtPort>,
}

impl Graph {
    /// Looks up an operator by instance name.
    pub fn operator(&self, name: &str) -> Option<(OpId, &OperatorInst)> {
        self.operators
            .iter()
            .enumerate()
            .find(|(_, o)| o.name == name)
            .map(|(i, o)| (OpId(i), o))
    }

    /// The operators in a valid dataflow execution order.
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic; [`GraphBuilder::build`] guarantees
    /// acyclicity for graphs it produces.
    pub fn topo_order(&self) -> Vec<OpId> {
        self.try_topo_order().expect("graph validated as acyclic")
    }

    pub(crate) fn try_topo_order(&self) -> Result<Vec<OpId>, GraphError> {
        let n = self.operators.len();
        let mut indegree = vec![0usize; n];
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &self.edges {
            succ[e.from.0 .0].push(e.to.0 .0);
            indegree[e.to.0 .0] += 1;
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(OpId(i));
            for &s in &succ[i] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    queue.push_back(s);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(GraphError::Cyclic)
        }
    }

    /// Incoming edges of an operator (including none for sources).
    pub fn in_edges(&self, op: OpId) -> impl Iterator<Item = (EdgeId, &StreamEdge)> {
        self.edges
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.to.0 == op)
            .map(|(i, e)| (EdgeId(i), e))
    }

    /// Outgoing edges of an operator.
    pub fn out_edges(&self, op: OpId) -> impl Iterator<Item = (EdgeId, &StreamEdge)> {
        self.edges
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.from.0 == op)
            .map(|(i, e)| (EdgeId(i), e))
    }

    /// Total number of stream endpoints (for linking-network sizing).
    pub fn endpoint_count(&self) -> usize {
        self.edges.len() * 2 + self.ext_inputs.len() + self.ext_outputs.len()
    }

    fn validate(&self) -> Result<(), GraphError> {
        // Unique operator names.
        let mut names = HashSet::new();
        for o in &self.operators {
            if !names.insert(o.name.as_str()) {
                return Err(GraphError::DuplicateOperator(o.name.clone()));
            }
        }
        // Unique external port names.
        let mut ext_names = HashSet::new();
        for p in self.ext_inputs.iter().chain(&self.ext_outputs) {
            if !ext_names.insert(p.name.as_str()) {
                return Err(GraphError::DuplicateExtPort(p.name.clone()));
            }
        }

        // Each input port driven exactly once; each output port used exactly once.
        let mut driven: HashMap<(usize, &str), usize> = HashMap::new();
        let mut used: HashMap<(usize, &str), usize> = HashMap::new();
        for e in &self.edges {
            *used.entry((e.from.0 .0, e.from.1.as_str())).or_default() += 1;
            *driven.entry((e.to.0 .0, e.to.1.as_str())).or_default() += 1;
        }
        for p in &self.ext_inputs {
            *driven.entry((p.op.0, p.port.as_str())).or_default() += 1;
        }
        for p in &self.ext_outputs {
            *used.entry((p.op.0, p.port.as_str())).or_default() += 1;
        }

        for (i, o) in self.operators.iter().enumerate() {
            for port in &o.kernel.inputs {
                match driven.get(&(i, port.name.as_str())).copied().unwrap_or(0) {
                    0 => {
                        return Err(GraphError::Unconnected {
                            op: o.name.clone(),
                            port: port.name.clone(),
                        })
                    }
                    1 => {}
                    _ => {
                        return Err(GraphError::InputDoubleDriven {
                            op: o.name.clone(),
                            port: port.name.clone(),
                        })
                    }
                }
            }
            for port in &o.kernel.outputs {
                match used.get(&(i, port.name.as_str())).copied().unwrap_or(0) {
                    0 => {
                        return Err(GraphError::Unconnected {
                            op: o.name.clone(),
                            port: port.name.clone(),
                        })
                    }
                    1 => {}
                    _ => {
                        return Err(GraphError::OutputDoubleUsed {
                            op: o.name.clone(),
                            port: port.name.clone(),
                        })
                    }
                }
            }
        }

        self.try_topo_order()?;
        Ok(())
    }
}

/// Builder composing operators into a graph — the analogue of writing
/// `top.cpp` (paper Fig. 2(b)).
///
/// # Examples
///
/// ```
/// use dfg::{GraphBuilder, Target};
/// use kir::{Expr, KernelBuilder, Scalar, Stmt};
///
/// let double = KernelBuilder::new("double")
///     .input("in", Scalar::uint(32))
///     .output("out", Scalar::uint(32))
///     .local("x", Scalar::uint(32))
///     .body([Stmt::for_loop("i", 0..4, [
///         Stmt::read("x", "in"),
///         Stmt::write("out", Expr::var("x").add(Expr::var("x"))),
///     ])])
///     .build()?;
///
/// let mut b = GraphBuilder::new("app");
/// let d1 = b.add("d1", double.clone(), Target::hw(0));
/// let d2 = b.add("d2", double, Target::riscv(1));
/// b.ext_input("Input_1", d1, "in");
/// b.connect("s1", d1, "out", d2, "in");
/// b.ext_output("Output_1", d2, "out");
/// let g = b.build()?;
/// assert_eq!(g.operators.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct GraphBuilder {
    name: String,
    operators: Vec<OperatorInst>,
    edges: Vec<StreamEdge>,
    ext_inputs: Vec<ExtPort>,
    ext_outputs: Vec<ExtPort>,
    errors: Vec<GraphError>,
}

impl GraphBuilder {
    /// Starts a graph named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        GraphBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Adds an operator instance and returns its id.
    pub fn add(&mut self, name: impl Into<String>, kernel: Kernel, target: Target) -> OpId {
        let id = OpId(self.operators.len());
        self.operators.push(OperatorInst {
            name: name.into(),
            kernel,
            target,
        });
        id
    }

    fn port_elem(&mut self, op: OpId, port: &str, output: bool) -> Option<Scalar> {
        let inst = &self.operators[op.0];
        let decl = if output {
            inst.kernel.output(port)
        } else {
            inst.kernel.input(port)
        };
        match decl {
            Some(p) => Some(p.elem),
            None => {
                self.errors.push(GraphError::UnknownPort {
                    op: inst.name.clone(),
                    port: port.to_string(),
                });
                None
            }
        }
    }

    /// Connects `from.out_port -> to.in_port` with a named stream link.
    pub fn connect(
        &mut self,
        link: impl Into<String>,
        from: OpId,
        out_port: &str,
        to: OpId,
        in_port: &str,
    ) -> EdgeId {
        let link = link.into();
        let fe = self.port_elem(from, out_port, true);
        let te = self.port_elem(to, in_port, false);
        if let (Some(fe), Some(te)) = (fe, te) {
            if fe != te {
                self.errors.push(GraphError::TypeMismatch {
                    link: link.clone(),
                    from: fe,
                    to: te,
                });
            }
        }
        let id = EdgeId(self.edges.len());
        self.edges.push(StreamEdge {
            name: link,
            from: (from, out_port.to_string()),
            to: (to, in_port.to_string()),
            elem: fe.or(te).unwrap_or(Scalar::uint(32)),
        });
        id
    }

    /// Binds a host-visible input to an operator input port.
    pub fn ext_input(&mut self, name: impl Into<String>, op: OpId, port: &str) {
        let elem = self.port_elem(op, port, false).unwrap_or(Scalar::uint(32));
        self.ext_inputs.push(ExtPort {
            name: name.into(),
            op,
            port: port.to_string(),
            elem,
        });
    }

    /// Binds an operator output port to a host-visible output.
    pub fn ext_output(&mut self, name: impl Into<String>, op: OpId, port: &str) {
        let elem = self.port_elem(op, port, true).unwrap_or(Scalar::uint(32));
        self.ext_outputs.push(ExtPort {
            name: name.into(),
            op,
            port: port.to_string(),
            elem,
        });
    }

    /// Finishes and validates the graph.
    ///
    /// # Errors
    ///
    /// Returns the first [`GraphError`] recorded during construction or found
    /// during validation.
    pub fn build(self) -> Result<Graph, GraphError> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        let graph = Graph {
            name: self.name,
            operators: self.operators,
            edges: self.edges,
            ext_inputs: self.ext_inputs,
            ext_outputs: self.ext_outputs,
        };
        graph.validate()?;
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kir::{Expr, KernelBuilder, Stmt};

    fn passthrough(n: i64) -> Kernel {
        KernelBuilder::new("pass")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([Stmt::for_loop(
                "i",
                0..n,
                [Stmt::read("x", "in"), Stmt::write("out", Expr::var("x"))],
            )])
            .build()
            .unwrap()
    }

    fn chain(len: usize) -> Graph {
        let mut b = GraphBuilder::new("chain");
        let ids: Vec<OpId> = (0..len)
            .map(|i| b.add(format!("op{i}"), passthrough(4), Target::hw(i as u32)))
            .collect();
        b.ext_input("Input_1", ids[0], "in");
        for w in ids.windows(2) {
            b.connect(format!("l{}", w[0].0), w[0], "out", w[1], "in");
        }
        b.ext_output("Output_1", ids[len - 1], "out");
        b.build().unwrap()
    }

    #[test]
    fn builds_valid_chain() {
        let g = chain(4);
        assert_eq!(g.operators.len(), 4);
        assert_eq!(g.edges.len(), 3);
        assert_eq!(g.topo_order(), (0..4).map(OpId).collect::<Vec<_>>());
        assert_eq!(g.endpoint_count(), 8);
    }

    #[test]
    fn rejects_unconnected_port() {
        let mut b = GraphBuilder::new("g");
        let a = b.add("a", passthrough(1), Target::hw(0));
        b.ext_input("in", a, "in");
        // output left dangling
        let err = b.build().unwrap_err();
        assert_eq!(
            err,
            GraphError::Unconnected {
                op: "a".into(),
                port: "out".into()
            }
        );
    }

    #[test]
    fn rejects_double_driven_input() {
        let mut b = GraphBuilder::new("g");
        let a = b.add("a", passthrough(1), Target::hw(0));
        b.ext_input("in1", a, "in");
        b.ext_input("in2", a, "in");
        b.ext_output("out", a, "out");
        let err = b.build().unwrap_err();
        assert_eq!(
            err,
            GraphError::InputDoubleDriven {
                op: "a".into(),
                port: "in".into()
            }
        );
    }

    #[test]
    fn rejects_fanout_output() {
        let mut b = GraphBuilder::new("g");
        let a = b.add("a", passthrough(1), Target::hw(0));
        let c = b.add("c", passthrough(1), Target::hw(1));
        let d = b.add("d", passthrough(1), Target::hw(2));
        b.ext_input("in", a, "in");
        b.connect("l1", a, "out", c, "in");
        b.connect("l2", a, "out", d, "in");
        b.ext_output("o1", c, "out");
        b.ext_output("o2", d, "out");
        let err = b.build().unwrap_err();
        assert_eq!(
            err,
            GraphError::OutputDoubleUsed {
                op: "a".into(),
                port: "out".into()
            }
        );
    }

    #[test]
    fn rejects_cycle() {
        let mut b = GraphBuilder::new("g");
        let a = b.add("a", passthrough(1), Target::hw(0));
        let c = b.add("c", passthrough(1), Target::hw(1));
        b.connect("l1", a, "out", c, "in");
        b.connect("l2", c, "out", a, "in");
        let err = b.build().unwrap_err();
        assert_eq!(err, GraphError::Cyclic);
    }

    #[test]
    fn rejects_unknown_port() {
        let mut b = GraphBuilder::new("g");
        let a = b.add("a", passthrough(1), Target::hw(0));
        b.ext_input("in", a, "bogus");
        b.ext_output("out", a, "out");
        let err = b.build().unwrap_err();
        assert_eq!(
            err,
            GraphError::UnknownPort {
                op: "a".into(),
                port: "bogus".into()
            }
        );
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut b = GraphBuilder::new("g");
        let a = b.add("a", passthrough(1), Target::hw(0));
        let a2 = b.add("a", passthrough(1), Target::hw(1));
        b.ext_input("in", a, "in");
        b.connect("l", a, "out", a2, "in");
        b.ext_output("out", a2, "out");
        let err = b.build().unwrap_err();
        assert_eq!(err, GraphError::DuplicateOperator("a".into()));
    }

    #[test]
    fn type_mismatch_detected() {
        let wide = KernelBuilder::new("wide")
            .input("in", Scalar::uint(64))
            .output("out", Scalar::uint(64))
            .local("x", Scalar::uint(64))
            .body([Stmt::read("x", "in"), Stmt::write("out", Expr::var("x"))])
            .build()
            .unwrap();
        let mut b = GraphBuilder::new("g");
        let a = b.add("a", passthrough(1), Target::hw(0));
        let w = b.add("w", wide, Target::hw(1));
        b.ext_input("in", a, "in");
        b.connect("l", a, "out", w, "in");
        b.ext_output("out", w, "out");
        let err = b.build().unwrap_err();
        assert!(matches!(err, GraphError::TypeMismatch { .. }));
    }

    #[test]
    fn diamond_topology_orders_correctly() {
        // a -> (b, c) -> d needs a fanout operator in real designs; here we
        // give `a` two outputs to test topo ordering of a diamond.
        let two_out = KernelBuilder::new("split")
            .input("in", Scalar::uint(32))
            .output("o1", Scalar::uint(32))
            .output("o2", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([
                Stmt::read("x", "in"),
                Stmt::write("o1", Expr::var("x")),
                Stmt::write("o2", Expr::var("x")),
            ])
            .build()
            .unwrap();
        let two_in = KernelBuilder::new("join")
            .input("i1", Scalar::uint(32))
            .input("i2", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .local("y", Scalar::uint(32))
            .body([
                Stmt::read("x", "i1"),
                Stmt::read("y", "i2"),
                Stmt::write("out", Expr::var("x").add(Expr::var("y"))),
            ])
            .build()
            .unwrap();
        let mut b = GraphBuilder::new("diamond");
        let s = b.add("s", two_out, Target::hw(0));
        let p1 = b.add("p1", passthrough(1), Target::hw(1));
        let p2 = b.add("p2", passthrough(1), Target::hw(2));
        let j = b.add("j", two_in, Target::hw(3));
        b.ext_input("in", s, "in");
        b.connect("l1", s, "o1", p1, "in");
        b.connect("l2", s, "o2", p2, "in");
        b.connect("l3", p1, "out", j, "i1");
        b.connect("l4", p2, "out", j, "i2");
        b.ext_output("out", j, "out");
        let g = b.build().unwrap();
        let order = g.topo_order();
        let pos = |id: OpId| order.iter().position(|&o| o == id).unwrap();
        assert!(pos(s) < pos(p1));
        assert!(pos(s) < pos(p2));
        assert!(pos(p1) < pos(j));
        assert!(pos(p2) < pos(j));
    }
}
