//! Functional execution of a whole dataflow graph on the host.
//!
//! Runs every operator through the `kir` interpreter in topological order,
//! routing tokens along the stream links. By the Kahn-network property
//! (paper Sec. 3.2) the values produced are identical to those of any
//! hardware mapping, so this is both the "X86 g++" baseline of Tab. 3 and
//! the golden reference the `-O0`/`-O1`/`-O3` simulations are checked
//! against.

use kir::interp::{InterpError, InterpStats, IoError, KernelIo, Resolved};
use kir::types::Value;
use std::collections::HashMap;
use std::fmt;

use crate::graph::{Graph, OpId};

/// Aggregate statistics of one graph execution.
#[derive(Debug, Clone, Default)]
pub struct GraphRunStats {
    /// Per-operator interpreter statistics, in operator index order.
    pub per_op: Vec<InterpStats>,
    /// Tokens carried by each internal edge, in edge index order.
    pub edge_tokens: Vec<u64>,
}

impl GraphRunStats {
    /// Total dynamic operations across all operators (the sequential-host
    /// work estimate).
    pub fn total_ops(&self) -> u64 {
        self.per_op.iter().map(|s| s.ops).sum()
    }

    /// The largest per-operator operation count (the pipeline bottleneck).
    pub fn bottleneck_ops(&self) -> u64 {
        self.per_op.iter().map(|s| s.ops).max().unwrap_or(0)
    }
}

/// Failure of a graph execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphRunError {
    /// An operator failed; carries the instance name and the kernel error.
    #[allow(missing_docs)]
    Operator { op: String, error: InterpError },
    /// The caller supplied a stream for an unknown external input.
    NoSuchInput(String),
    /// The caller omitted a required external input.
    MissingInput(String),
}

impl fmt::Display for GraphRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphRunError::Operator { op, error } => write!(f, "operator `{op}` failed: {error}"),
            GraphRunError::NoSuchInput(n) => write!(f, "graph has no external input `{n}`"),
            GraphRunError::MissingInput(n) => write!(f, "external input `{n}` not supplied"),
        }
    }
}

impl std::error::Error for GraphRunError {}

/// A capture of every operator's input streams from one execution — what a
/// timing simulator needs to know exactly how many tokens crossed each link.
#[derive(Debug, Clone, Default)]
pub struct GraphTrace {
    /// Per operator (by index), per input port (by declaration order), the
    /// full token stream it consumed.
    pub op_inputs: Vec<Vec<Vec<Value>>>,
}

/// External output streams keyed by port name.
pub type GraphOutputs = HashMap<String, Vec<Value>>;

/// Runs the graph and additionally captures each operator's input streams.
///
/// # Errors
///
/// See [`run_graph`].
pub fn run_graph_trace(
    graph: &Graph,
    inputs: &[(&str, Vec<Value>)],
) -> Result<(GraphOutputs, GraphRunStats, GraphTrace), GraphRunError> {
    compile(graph).run_trace(inputs)
}

/// Runs the graph on external input streams, returning the external output
/// streams and execution statistics: [`compile`], then
/// [`CompiledGraph::run`].
///
/// # Errors
///
/// Returns [`GraphRunError`] if inputs are missing/unknown or any operator
/// hits a runtime error (stream underflow, bounds violation, budget).
pub fn run_graph(
    graph: &Graph,
    inputs: &[(&str, Vec<Value>)],
) -> Result<(GraphOutputs, GraphRunStats), GraphRunError> {
    compile(graph).run(inputs)
}

/// Compiles every operator of a graph once ([`Resolved`]) and binds every
/// port name to its declaration index, for repeated execution.
///
/// # Panics
///
/// Panics on an operator whose kernel does not validate; kernels from
/// [`kir::KernelBuilder`] always do.
pub fn compile(graph: &Graph) -> CompiledGraph {
    CompiledGraph::build(graph, |_| None)
}

/// A graph compiled for execution: one [`Resolved`] kernel per operator and
/// its stream links by index. Running one resolves nothing.
#[derive(Debug)]
pub struct CompiledGraph {
    pub(crate) ops: Vec<CompiledOp>,
    /// Operator indices in [`Graph::topo_order`].
    pub(crate) order: Vec<usize>,
    /// Per internal edge, indexed like [`Graph::edges`].
    pub(crate) edges: Vec<Link>,
    /// External inputs in declaration order: the name and the operator
    /// input it feeds.
    pub(crate) ext_inputs: Vec<(String, Port)>,
    /// External outputs in declaration order: the name and the operator
    /// output it drains.
    pub(crate) ext_outputs: Vec<(String, Port)>,
}

#[derive(Debug)]
pub(crate) struct CompiledOp {
    pub(crate) name: String,
    pub(crate) code: Resolved,
    pub(crate) inputs: usize,
    pub(crate) outputs: usize,
    /// This operator's outgoing edges, in edge index order.
    out_edges: Vec<usize>,
}

/// An operator and one of its ports by declaration index; `None` when the
/// kernel declares no port of the linked name.
pub(crate) type Port = (usize, Option<usize>);

/// One internal stream: producer output to consumer input.
#[derive(Debug)]
pub(crate) struct Link {
    pub(crate) from: Port,
    pub(crate) to: Port,
}

impl CompiledGraph {
    /// `reuse(i)` may hand back operator `i`'s code from an earlier build;
    /// every other operator is compiled afresh.
    fn build(graph: &Graph, mut reuse: impl FnMut(usize) -> Option<Resolved>) -> CompiledGraph {
        let in_port =
            |op: OpId, name: &str| (op.0, port_index(&graph.operators[op.0].kernel.inputs, name));
        let out_port = |op: OpId, name: &str| {
            (
                op.0,
                port_index(&graph.operators[op.0].kernel.outputs, name),
            )
        };
        let ops = graph
            .operators
            .iter()
            .enumerate()
            .map(|(i, inst)| CompiledOp {
                name: inst.name.clone(),
                code: reuse(i).unwrap_or_else(|| Resolved::new(&inst.kernel)),
                inputs: inst.kernel.inputs.len(),
                outputs: inst.kernel.outputs.len(),
                out_edges: graph.out_edges(OpId(i)).map(|(e, _)| e.0).collect(),
            })
            .collect();
        CompiledGraph {
            ops,
            order: graph.topo_order().into_iter().map(|op| op.0).collect(),
            edges: graph
                .edges
                .iter()
                .map(|e| Link {
                    from: out_port(e.from.0, &e.from.1),
                    to: in_port(e.to.0, &e.to.1),
                })
                .collect(),
            ext_inputs: graph
                .ext_inputs
                .iter()
                .map(|p| (p.name.clone(), in_port(p.op, &p.port)))
                .collect(),
            ext_outputs: graph
                .ext_outputs
                .iter()
                .map(|p| (p.name.clone(), out_port(p.op, &p.port)))
                .collect(),
        }
    }

    /// Recompiles for `to`, an edit of `from`, the graph this was compiled
    /// from, that keeps its operators in order: each operator whose kernel
    /// the edit changed is compiled afresh, every other one keeps its code,
    /// and every link is rebound.
    ///
    /// # Panics
    ///
    /// Panics if the two graphs have different numbers of operators.
    pub fn recompile(&mut self, from: &Graph, to: &Graph) {
        assert_eq!(
            (from.operators.len(), to.operators.len()),
            (self.ops.len(), self.ops.len()),
            "a recompile keeps the operator set"
        );
        let mut kept: Vec<Option<Resolved>> = std::mem::take(&mut self.ops)
            .into_iter()
            .zip(from.operators.iter().zip(&to.operators))
            .map(|(op, (old, new))| (old.kernel == new.kernel).then_some(op.code))
            .collect();
        *self = CompiledGraph::build(to, |i| kept[i].take());
    }

    /// Runs the graph on external input streams, returning the external
    /// output streams and execution statistics.
    ///
    /// # Errors
    ///
    /// See [`run_graph`].
    pub fn run(
        &self,
        inputs: &[(&str, Vec<Value>)],
    ) -> Result<(GraphOutputs, GraphRunStats), GraphRunError> {
        self.execute(inputs, false)
            .map(|(out, stats, _)| (out, stats))
    }

    /// Runs the graph and additionally captures each operator's input
    /// streams.
    ///
    /// # Errors
    ///
    /// See [`run_graph`].
    pub fn run_trace(
        &self,
        inputs: &[(&str, Vec<Value>)],
    ) -> Result<(GraphOutputs, GraphRunStats, GraphTrace), GraphRunError> {
        self.execute(inputs, true)
    }

    /// Checks the caller's external inputs: every name known, every input
    /// supplied. Returns each external input's stream, in declaration
    /// order.
    pub(crate) fn external_streams<'i>(
        &self,
        inputs: &'i [(&str, Vec<Value>)],
    ) -> Result<Vec<&'i Vec<Value>>, GraphRunError> {
        for (name, _) in inputs {
            if !self.ext_inputs.iter().any(|(n, _)| n == name) {
                return Err(GraphRunError::NoSuchInput(name.to_string()));
            }
        }
        self.ext_inputs
            .iter()
            .map(|(name, _)| {
                inputs
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| v)
                    .ok_or_else(|| GraphRunError::MissingInput(name.clone()))
            })
            .collect()
    }

    fn execute(
        &self,
        inputs: &[(&str, Vec<Value>)],
        capture: bool,
    ) -> Result<(GraphOutputs, GraphRunStats, GraphTrace), GraphRunError> {
        let streams = self.external_streams(inputs)?;

        // Streams buffered per operator, per input port (declaration order).
        let mut pending: Vec<Vec<Vec<Value>>> = self
            .ops
            .iter()
            .map(|o| vec![Vec::new(); o.inputs])
            .collect();
        for ((_, (op, port)), stream) in self.ext_inputs.iter().zip(streams) {
            if let Some(i) = port {
                pending[*op][*i] = stream.clone();
            }
        }

        let mut per_op = vec![InterpStats::default(); self.ops.len()];
        let mut edge_tokens = vec![0u64; self.edges.len()];
        // Streams produced per operator, per output port; taken once routed.
        let mut produced: Vec<Vec<Option<Vec<Value>>>> = vec![Vec::new(); self.ops.len()];
        let mut trace = GraphTrace {
            op_inputs: self
                .ops
                .iter()
                .map(|o| vec![Vec::new(); o.inputs])
                .collect(),
        };

        for &op in &self.order {
            let compiled = &self.ops[op];
            let staged = std::mem::take(&mut pending[op]);
            if capture {
                trace.op_inputs[op].clone_from(&staged);
            }
            let mut io = Streams {
                inputs: staged.into_iter().map(|s| (s, 0)).collect(),
                outputs: vec![Vec::new(); compiled.outputs],
            };
            per_op[op] = compiled
                .code
                .run_with_io(&mut io, kir::interp::DEFAULT_OP_BUDGET)
                .map_err(|error| GraphRunError::Operator {
                    op: compiled.name.clone(),
                    error,
                })?;
            produced[op] = io.outputs.into_iter().map(Some).collect();
            // Route along outgoing edges.
            for &e in &compiled.out_edges {
                let Link { from, to } = &self.edges[e];
                if let Some(stream) = from.1.and_then(|i| produced[op][i].take()) {
                    edge_tokens[e] = stream.len() as u64;
                    if let Some(i) = to.1 {
                        pending[to.0][i] = stream;
                    }
                }
            }
        }

        let ext = self
            .ext_outputs
            .iter()
            .map(|(name, (op, port))| {
                let stream = port
                    .and_then(|i| produced[*op].get_mut(i)?.take())
                    .unwrap_or_default();
                (name.clone(), stream)
            })
            .collect();
        Ok((
            ext,
            GraphRunStats {
                per_op,
                edge_tokens,
            },
            trace,
        ))
    }
}

fn port_index(ports: &[kir::PortDecl], name: &str) -> Option<usize> {
    ports.iter().position(|p| p.name == name)
}

/// One operator's batch transport: staged input streams read through a
/// cursor, output streams collected by port index.
struct Streams {
    inputs: Vec<(Vec<Value>, usize)>,
    outputs: Vec<Vec<Value>>,
}

impl KernelIo for Streams {
    fn read(&mut self, port: usize) -> Result<Value, IoError> {
        let (stream, next) = &mut self.inputs[port];
        let v = stream.get(*next).copied().ok_or(IoError::Underflow)?;
        *next += 1;
        Ok(v)
    }

    fn write(&mut self, port: usize, value: Value) {
        self.outputs[port].push(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::target::Target;
    use aplib::DynInt;
    use kir::{Expr, KernelBuilder, Scalar, Stmt};

    fn stage(name: &str, n: i64, addend: i64) -> kir::Kernel {
        KernelBuilder::new(name)
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([Stmt::for_loop(
                "i",
                0..n,
                [
                    Stmt::read("x", "in"),
                    Stmt::write("out", Expr::var("x").add(Expr::cint(addend))),
                ],
            )])
            .build()
            .unwrap()
    }

    fn word_values(words: impl IntoIterator<Item = u32>) -> Vec<Value> {
        words
            .into_iter()
            .map(|w| Value::Int(DynInt::from_raw(32, false, w as u128)))
            .collect()
    }

    #[test]
    fn pipeline_adds_in_sequence() {
        let mut b = GraphBuilder::new("p");
        let a = b.add("a", stage("a", 8, 1), Target::hw(0));
        let c = b.add("c", stage("c", 8, 10), Target::hw(1));
        b.ext_input("Input_1", a, "in");
        b.connect("mid", a, "out", c, "in");
        b.ext_output("Output_1", c, "out");
        let g = b.build().unwrap();

        let (out, stats) = run_graph(&g, &[("Input_1", word_values(0..8))]).unwrap();
        let got: Vec<u64> = out["Output_1"].iter().map(|v| v.raw() as u64).collect();
        assert_eq!(got, (11..19).collect::<Vec<_>>());
        assert_eq!(stats.edge_tokens, vec![8]);
        assert_eq!(stats.per_op.len(), 2);
        assert!(stats.total_ops() >= stats.bottleneck_ops());
    }

    #[test]
    fn recompile_runs_the_edited_graph() {
        let pipeline = |addend| {
            let mut b = GraphBuilder::new("p");
            let a = b.add("a", stage("a", 8, 1), Target::hw(0));
            let c = b.add("c", stage("c", 8, addend), Target::hw(1));
            b.ext_input("Input_1", a, "in");
            b.connect("mid", a, "out", c, "in");
            b.ext_output("Output_1", c, "out");
            b.build().unwrap()
        };
        let (before, after) = (pipeline(10), pipeline(20));
        let inputs = [("Input_1", word_values(0..8))];
        let mut compiled = compile(&before);
        compiled.recompile(&before, &after);
        let (out, _) = compiled.run(&inputs).unwrap();
        assert_eq!(out, run_graph(&after, &inputs).unwrap().0);
        assert_ne!(out, run_graph(&before, &inputs).unwrap().0);
    }

    #[test]
    fn missing_input_is_reported() {
        let mut b = GraphBuilder::new("p");
        let a = b.add("a", stage("a", 1, 0), Target::hw(0));
        b.ext_input("Input_1", a, "in");
        b.ext_output("Output_1", a, "out");
        let g = b.build().unwrap();
        let err = run_graph(&g, &[]).unwrap_err();
        assert_eq!(err, GraphRunError::MissingInput("Input_1".into()));
    }

    #[test]
    fn unknown_input_is_reported() {
        let mut b = GraphBuilder::new("p");
        let a = b.add("a", stage("a", 1, 0), Target::hw(0));
        b.ext_input("Input_1", a, "in");
        b.ext_output("Output_1", a, "out");
        let g = b.build().unwrap();
        let err = run_graph(&g, &[("zzz", vec![])]).unwrap_err();
        assert_eq!(err, GraphRunError::NoSuchInput("zzz".into()));
    }

    #[test]
    fn operator_underflow_carries_instance_name() {
        let mut b = GraphBuilder::new("p");
        let a = b.add("first", stage("a", 8, 0), Target::hw(0));
        b.ext_input("Input_1", a, "in");
        b.ext_output("Output_1", a, "out");
        let g = b.build().unwrap();
        let err = run_graph(&g, &[("Input_1", word_values(0..3))]).unwrap_err();
        match err {
            GraphRunError::Operator { op, .. } => assert_eq!(op, "first"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn the_failing_producer_is_blamed_not_its_starved_consumer() {
        // The consumer is declared first, so declaration order is not
        // execution order. The producer indexes a 2-element array with
        // each token and fails on the first (value 5); its consumer would
        // then underflow, but the producer's error is the one reported.
        let lookup = KernelBuilder::new("lookup")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .array("lut", Scalar::uint(32), 2)
            .body([Stmt::for_loop(
                "i",
                0..8,
                [
                    Stmt::read("x", "in"),
                    Stmt::write("out", Expr::index("lut", Expr::var("x"))),
                ],
            )])
            .build()
            .unwrap();
        let mut b = GraphBuilder::new("p");
        let c = b.add("consumer", stage("c", 8, 0), Target::hw(0));
        let p = b.add("producer", lookup, Target::hw(1));
        b.ext_input("Input_1", p, "in");
        b.connect("l", p, "out", c, "in");
        b.ext_output("Output_1", c, "out");
        let g = b.build().unwrap();
        let err = run_graph(&g, &[("Input_1", word_values([5; 8]))]).unwrap_err();
        assert!(
            matches!(
                &err,
                GraphRunError::Operator { op, error: InterpError::IndexOutOfBounds { .. } }
                    if op == "producer"
            ),
            "{err:?}"
        );
    }
}
