#![warn(missing_docs)]
//! Streaming dataflow graphs: PLD's application description (paper Sec. 3.3).
//!
//! "The top-level kernel is a graph of operators connected by latency-
//! insensitive stream links." In the paper that graph is written as a C
//! function (`top.cpp`, Fig. 2(b)) composing operator calls over
//! `hls::stream` arguments, with `#pragma target=...` lines selecting where
//! each operator maps. Here the same information is carried by [`Graph`],
//! built with [`GraphBuilder`] — the function-composition analogue — and by
//! [`Target`], the pragma analogue (parseable from the paper's literal pragma
//! syntax via [`Target::parse_pragma`]).
//!
//! The *dfg extractor* of the tool flow (Sec. 6, Figs. 5–7) is [`ir::extract`],
//! which lowers a graph to the serializable `dfg.ir` interchange form the
//! linker/loader consumes.
//!
//! Functional execution of a whole graph (every operator interpreted on the
//! host, tokens routed along edges) lives in [`exec`]: [`compile`] builds a
//! [`CompiledGraph`] once and [`CompiledGraph::run`] runs it in batch. By
//! the Kahn property its results are the golden reference for every
//! hardware mapping.

pub mod exec;
pub mod generate;
pub mod graph;
pub mod ir;
pub mod opt;
pub mod target;

pub use exec::{
    compile, run_graph, run_graph_trace, CompiledGraph, GraphRunError, GraphRunStats, GraphTrace,
};
pub use generate::{GenConfig, GeneratedApp, Rng};
pub use graph::{EdgeId, ExtPort, Graph, GraphBuilder, GraphError, OpId, OperatorInst, StreamEdge};
pub use ir::{extract, DfgIr, IrLink, IrOperator, ParseIrError};
pub use opt::{optimize, OptReport, Optimized, OptimizerConfig};
pub use target::{PragmaError, Target};
