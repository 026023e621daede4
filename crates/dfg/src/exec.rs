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

use crate::graph::Graph;

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
    run_graph_inner(graph, inputs, true)
}

/// Runs the graph on external input streams, returning the external output
/// streams and execution statistics.
///
/// # Errors
///
/// Returns [`GraphRunError`] if inputs are missing/unknown or any operator
/// hits a runtime error (stream underflow, bounds violation, budget).
pub fn run_graph(
    graph: &Graph,
    inputs: &[(&str, Vec<Value>)],
) -> Result<(GraphOutputs, GraphRunStats), GraphRunError> {
    run_graph_inner(graph, inputs, false).map(|(out, stats, _)| (out, stats))
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

    fn write(&mut self, port: usize, value: Value) -> Result<(), IoError> {
        self.outputs[port].push(value);
        Ok(())
    }
}

fn run_graph_inner(
    graph: &Graph,
    inputs: &[(&str, Vec<Value>)],
    capture: bool,
) -> Result<(GraphOutputs, GraphRunStats, GraphTrace), GraphRunError> {
    for (name, _) in inputs {
        if !graph.ext_inputs.iter().any(|p| p.name == *name) {
            return Err(GraphRunError::NoSuchInput(name.to_string()));
        }
    }

    // Streams buffered per operator, per input port (declaration order).
    let mut pending: Vec<Vec<Vec<Value>>> = graph
        .operators
        .iter()
        .map(|o| vec![Vec::new(); o.kernel.inputs.len()])
        .collect();
    for p in &graph.ext_inputs {
        let stream = inputs
            .iter()
            .find(|(n, _)| *n == p.name)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| GraphRunError::MissingInput(p.name.clone()))?;
        if let Some(i) = port_index(&graph.operators[p.op.0].kernel.inputs, &p.port) {
            pending[p.op.0][i] = stream;
        }
    }

    let mut per_op = vec![InterpStats::default(); graph.operators.len()];
    let mut edge_tokens = vec![0u64; graph.edges.len()];
    // Streams produced per operator, per output port; taken once routed.
    let mut produced: Vec<Vec<Option<Vec<Value>>>> = vec![Vec::new(); graph.operators.len()];
    let mut trace = GraphTrace {
        op_inputs: graph
            .operators
            .iter()
            .map(|o| vec![Vec::new(); o.kernel.inputs.len()])
            .collect(),
    };

    for op_id in graph.topo_order() {
        let inst = &graph.operators[op_id.0];
        let staged = std::mem::take(&mut pending[op_id.0]);
        if capture {
            trace.op_inputs[op_id.0].clone_from(&staged);
        }
        let mut io = Streams {
            inputs: staged.into_iter().map(|s| (s, 0)).collect(),
            outputs: vec![Vec::new(); inst.kernel.outputs.len()],
        };
        per_op[op_id.0] = Resolved::new(&inst.kernel)
            .run_with_io(&mut io, kir::interp::DEFAULT_OP_BUDGET)
            .map_err(|error| GraphRunError::Operator {
                op: inst.name.clone(),
                error,
            })?;
        produced[op_id.0] = io.outputs.into_iter().map(Some).collect();
        // Route along outgoing edges.
        for (edge_id, edge) in graph.out_edges(op_id) {
            let from = port_index(&inst.kernel.outputs, &edge.from.1);
            if let Some(stream) = from.and_then(|i| produced[op_id.0][i].take()) {
                edge_tokens[edge_id.0] = stream.len() as u64;
                let to = &graph.operators[edge.to.0 .0].kernel.inputs;
                if let Some(i) = port_index(to, &edge.to.1) {
                    pending[edge.to.0 .0][i] = stream;
                }
            }
        }
    }

    let mut ext = HashMap::new();
    for p in &graph.ext_outputs {
        let outputs = &graph.operators[p.op.0].kernel.outputs;
        let stream = port_index(outputs, &p.port)
            .and_then(|i| produced[p.op.0].get_mut(i)?.take())
            .unwrap_or_default();
        ext.insert(p.name.clone(), stream);
    }
    Ok((
        ext,
        GraphRunStats {
            per_op,
            edge_tokens,
        },
        trace,
    ))
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
}
