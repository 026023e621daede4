//! Threaded Kahn-process-network execution of a dataflow graph.
//!
//! Every operator runs as its own OS thread; every stream link is a bounded
//! `listream` channel with blocking reads (data presence) and blocking
//! writes (backpressure) — a software realization of the paper's compute
//! model (Sec. 3.2) in which "if either the producer or consumer run faster
//! or slower... this doesn't change the functional behavior". The tests
//! below assert exactly that: threaded outputs are bit-identical to the
//! sequential batch execution ([`crate::run_graph`]) for any channel depth
//! and chunk size.
//!
//! Token transport is chunked: each operator buffers reads and writes in
//! chunks of [`WRITE_CHUNK`] tokens so a channel lock round-trip is paid per
//! chunk rather than per token. Writes are buffered in a single
//! program-order log that is flushed whenever it reaches the chunk size,
//! before any blocking read, and when the operator completes — so every
//! token still becomes visible no later than the first point where a
//! per-token engine could have blocked on it, and the chunked engine
//! deadlocks only where a per-token engine would too.
//!
//! Channel depth is the engine's own decision, made from the graph it is
//! handed (Alias, "Improving Communication Patterns in Polyhedral Process
//! Networks"): the static rate analysis ([`crate::opt::rate`]) gives each
//! edge's traffic, and `ring_depth` grows the edges that need slack. An
//! edge carrying a large stream through a shallow FIFO forces a condvar
//! round-trip per `depth`-sized slice, so such edges get deeper rings,
//! never below [`CHANNEL_DEPTH`] — sizing must not regress any app.

use kir::interp::{InterpError, IoError, KernelIo};
use kir::types::Value;
use listream::{LinkStats, StreamReader, StreamWriter};
use std::collections::VecDeque;
use std::thread;

use crate::exec::{compile, GraphOutputs, GraphRunError, Port};
use crate::graph::Graph;
use crate::opt::rate::{edge_rates, EdgeRate};

/// FIFO depth of every external link, and the floor of every internal one
/// (tokens).
pub const CHANNEL_DEPTH: usize = 256;

/// Cap on an internal link's FIFO depth (tokens).
const MAX_CHANNEL_DEPTH: usize = 8192;

/// Tokens moved per channel round-trip.
pub const WRITE_CHUNK: usize = 64;

/// Stall statistics from one threaded run, per internal edge.
///
/// Collected from the shared ring counters when each consumer operator
/// finishes; a producer still parked at that instant may add one final
/// episode that goes unrecorded, which is harmless for the relative
/// comparisons these feed (one graph against its rewrite).
#[derive(Debug, Clone, Default)]
pub struct ThreadedRunStats {
    /// Per-edge stall counters, indexed like [`Graph::edges`].
    pub edge_stats: Vec<LinkStats>,
}

impl ThreadedRunStats {
    /// Total stall episodes across every internal edge, both directions.
    pub fn total_blocks(&self) -> u64 {
        self.edge_stats.iter().map(|s| s.total()).sum()
    }
}

/// FIFO depth of one internal edge, from its static rates.
///
/// Heuristic rather than LP: the engine pays one condvar round-trip each
/// time a `depth`-sized window fills, so a *bursty or rate-mismatched* edge
/// carrying `T` tokens wants a depth on the order of `T` to let its
/// producer run ahead — those edges get a quarter of the worst-side traffic,
/// rounded to a power of two. Steady edges (exact, matched rates) keep
/// [`CHANNEL_DEPTH`]: extra depth there buys nothing but memory. Everything
/// is clamped to `[CHANNEL_DEPTH, 8192]`, so sizing can only remove stalls,
/// never add them.
fn ring_depth(r: &EdgeRate) -> usize {
    let traffic = r.produced.tokens.max(r.consumed.tokens);
    let want = if r.phase_consumer {
        // A two-phase consumer drains nothing until its fill phase is done,
        // so its producer stalls on every ring-fill unless the channel holds
        // the whole stream (the classic reorder-channel result from the PPN
        // literature). Size to the full traffic.
        traffic
    } else if r.produced.exact && r.consumed.exact && r.produced.tokens == r.consumed.tokens {
        // A steady edge never runs ahead in aggregate, so the floor already
        // decouples it; a bigger ring would only cost memory and cache
        // locality.
        return CHANNEL_DEPTH;
    } else {
        traffic / 4
    };
    want.max(1)
        .checked_next_power_of_two()
        .and_then(|w| usize::try_from(w).ok())
        .map_or(MAX_CHANNEL_DEPTH, |w| {
            w.clamp(CHANNEL_DEPTH, MAX_CHANNEL_DEPTH)
        })
}

/// Every internal edge's FIFO depth, indexed like [`Graph::edges`].
fn ring_depths(graph: &Graph) -> Vec<usize> {
    edge_rates(graph).iter().map(ring_depth).collect()
}

struct ChannelIo {
    readers: Vec<Option<StreamReader<Value>>>,
    writers: Vec<Option<StreamWriter<Value>>>,
    /// Read-side chunk buffers, one per input port.
    rbufs: Vec<VecDeque<Value>>,
    /// Pending writes in program order. Keeping one log (rather than one
    /// buffer per port) preserves the per-token blocking order on flush,
    /// which is what makes chunking deadlock-equivalent to per-token.
    wlog: Vec<(usize, Value)>,
    scratch: Vec<Value>,
    chunk: usize,
}

impl ChannelIo {
    /// Delivers every logged write to its channel, in program order,
    /// batching runs of consecutive writes to the same port.
    fn flush(&mut self) -> Result<(), IoError> {
        let mut i = 0;
        while i < self.wlog.len() {
            let port = self.wlog[i].0;
            let mut j = i + 1;
            while j < self.wlog.len() && self.wlog[j].0 == port {
                j += 1;
            }
            self.scratch.extend(self.wlog[i..j].iter().map(|(_, v)| *v));
            match &self.writers[port] {
                Some(tx) => {
                    if tx.write_batch(&mut self.scratch).is_err() {
                        // Downstream hung up: nothing further we produce can
                        // be delivered, so surface shutdown to the kernel.
                        self.scratch.clear();
                        self.wlog.clear();
                        return Err(IoError::Closed);
                    }
                }
                // Unconnected output: tokens are dropped.
                None => self.scratch.clear(),
            }
            i = j;
        }
        self.wlog.clear();
        Ok(())
    }
}

impl KernelIo for ChannelIo {
    fn read(&mut self, port: usize) -> Result<Value, IoError> {
        if let Some(v) = self.rbufs[port].pop_front() {
            return Ok(v);
        }
        // About to block: make everything produced so far visible first —
        // a downstream operator may need it to generate the very tokens
        // this read is waiting for.
        self.flush()?;
        let Some(rx) = &self.readers[port] else {
            return Err(IoError::Underflow);
        };
        debug_assert!(self.scratch.is_empty());
        match rx.read_batch(&mut self.scratch, self.chunk) {
            Ok(_) => {
                let mut drained = self.scratch.drain(..);
                let first = drained.next().expect("read_batch yields >= 1 token");
                self.rbufs[port].extend(drained);
                Ok(first)
            }
            Err(_) => Err(IoError::Underflow),
        }
    }

    fn write(&mut self, port: usize, value: Value) -> Result<(), IoError> {
        self.wlog.push((port, value));
        if self.wlog.len() >= self.chunk {
            self.flush()
        } else {
            Ok(())
        }
    }
}

/// Runs the graph with one thread per operator and bounded channels per
/// link, returning the external output streams and per-edge stall counts.
///
/// Functionally identical to [`crate::run_graph`] by the Kahn property, but
/// actually concurrent: pipeline stages overlap on host cores the way they
/// overlap on pages. Each internal channel's depth comes from the graph's
/// static rates (see the [module docs](self)).
///
/// # Errors
///
/// Returns [`GraphRunError`] if inputs are missing/unknown or any operator
/// thread hits a runtime error. When several operators fail, the error is
/// the first failing operator's in [`Graph::topo_order`], the order the
/// batch engine runs them in — so a consumer starved by a failed producer
/// never takes the blame for it.
pub fn run_graph_threaded(
    graph: &Graph,
    inputs: &[(&str, Vec<Value>)],
) -> Result<(GraphOutputs, ThreadedRunStats), GraphRunError> {
    run_with_transport(
        graph,
        inputs,
        &ring_depths(graph),
        WRITE_CHUNK,
        kir::interp::DEFAULT_OP_BUDGET,
    )
}

/// The engine with its transport spelled out: `depths` per internal edge
/// (indexed like [`Graph::edges`]; external links use [`CHANNEL_DEPTH`]),
/// `chunk` tokens per channel round-trip, and a dynamic-operation `budget`
/// per operator. Only tests pass anything but the engine's own choices.
/// The graph is compiled once ([`compile`]); the operator threads are
/// scoped and borrow its kernels.
fn run_with_transport(
    graph: &Graph,
    inputs: &[(&str, Vec<Value>)],
    depths: &[usize],
    chunk: usize,
    budget: u64,
) -> Result<(GraphOutputs, ThreadedRunStats), GraphRunError> {
    let graph = compile(graph);
    let streams = graph.external_streams(inputs)?;

    // Channel endpoints per (operator, port index).
    let mut op_readers: Vec<Vec<Option<StreamReader<Value>>>> = graph
        .ops
        .iter()
        .map(|o| (0..o.inputs).map(|_| None).collect())
        .collect();
    let mut op_writers: Vec<Vec<Option<StreamWriter<Value>>>> = graph
        .ops
        .iter()
        .map(|o| (0..o.outputs).map(|_| None).collect())
        .collect();
    let port = |(op, port): Port| (op, port.expect("validated"));

    debug_assert_eq!(depths.len(), graph.edges.len());
    for (e, &depth) in graph.edges.iter().zip(depths) {
        let (tx, rx) = listream::channel(depth);
        let (from, to) = (port(e.from), port(e.to));
        op_writers[from.0][from.1] = Some(tx);
        op_readers[to.0][to.1] = Some(rx);
    }

    thread::scope(|s| {
        // External inputs: feeder threads; external outputs: collector
        // threads.
        let mut feeders = Vec::new();
        for ((_, at), stream) in graph.ext_inputs.iter().zip(streams) {
            let (tx, rx) = listream::channel(CHANNEL_DEPTH);
            let (op, i) = port(*at);
            op_readers[op][i] = Some(rx);
            let mut stream = stream.clone();
            feeders.push(s.spawn(move || {
                // One batched hand-off; if the consumer failed, its thread
                // reports the error.
                let _ = tx.write_batch(&mut stream);
            }));
        }
        let mut collectors = Vec::new();
        for (name, at) in &graph.ext_outputs {
            let (tx, rx) = listream::channel(CHANNEL_DEPTH);
            let (op, i) = port(*at);
            op_writers[op][i] = Some(tx);
            collectors.push(s.spawn(move || {
                let mut stream = Vec::new();
                while rx.read_batch(&mut stream, usize::MAX).is_ok() {}
                (name.clone(), stream)
            }));
        }

        // Operator threads.
        let mut workers = Vec::new();
        for (i, op) in graph.ops.iter().enumerate() {
            let mut io = ChannelIo {
                readers: std::mem::take(&mut op_readers[i]),
                writers: std::mem::take(&mut op_writers[i]),
                rbufs: (0..op.inputs).map(|_| VecDeque::new()).collect(),
                wlog: Vec::with_capacity(chunk),
                scratch: Vec::with_capacity(chunk),
                chunk,
            };
            workers.push(s.spawn(move || {
                let error = match op.code.run_with_io(&mut io, budget) {
                    // Deliver tokens still buffered before the channels
                    // close. A hangup here means a downstream operator
                    // already failed; that thread reports the error.
                    Ok(_) => {
                        let _ = io.flush();
                        None
                    }
                    // Downstream hung up mid-run: this operator shut down
                    // promptly, and the failure is reported where it
                    // happened.
                    Err(InterpError::DownstreamClosed { .. }) => None,
                    Err(error) => Some(GraphRunError::Operator {
                        op: op.name.clone(),
                        error,
                    }),
                };
                // Snapshot each input link's shared stall counters while
                // the endpoints are still alive; they map back to edges by
                // consumer port below.
                let port_stats: Vec<Option<LinkStats>> = io
                    .readers
                    .iter()
                    .map(|r| r.as_ref().map(|rx| rx.stats()))
                    .collect();
                (error, port_stats)
                // `io` drops here, closing the operator's output channels.
            }));
        }

        for f in feeders {
            f.join().expect("feeder threads do not panic");
        }
        let (mut errors, per_op_port_stats): (Vec<_>, Vec<_>) = workers
            .into_iter()
            .map(|w| w.join().expect("operator threads do not panic"))
            .unzip();
        let mut outputs = GraphOutputs::new();
        for c in collectors {
            let (name, stream) = c.join().expect("collector threads do not panic");
            outputs.insert(name, stream);
        }
        if let Some(e) = graph.order.iter().find_map(|&op| errors[op].take()) {
            return Err(e);
        }
        let edge_stats = graph
            .edges
            .iter()
            .map(|e| {
                let (op, i) = port(e.to);
                per_op_port_stats[op][i].unwrap_or_default()
            })
            .collect();
        Ok((outputs, ThreadedRunStats { edge_stats }))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_graph;
    use crate::generate::{generate_family, GenConfig, FAMILIES};
    use crate::graph::GraphBuilder;
    use crate::target::Target;
    use kir::{Expr, KernelBuilder, Scalar, Stmt};
    use proptest::prelude::*;

    const BUDGET: u64 = kir::interp::DEFAULT_OP_BUDGET;

    fn word_values(n: u32) -> Vec<Value> {
        (0..n)
            .map(|w| Value::Int(aplib::DynInt::from_raw(32, false, w as u128)))
            .collect()
    }

    fn stage(name: &str, addend: i64, tokens: i64) -> kir::Kernel {
        KernelBuilder::new(name)
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([Stmt::for_loop(
                "i",
                0..tokens,
                [
                    Stmt::read("x", "in"),
                    Stmt::write("out", Expr::var("x").add(Expr::cint(addend))),
                ],
            )])
            .build()
            .unwrap()
    }

    /// A linear pipeline of `n_stages` add-stages over `tokens` tokens.
    fn pipeline(n_stages: usize, tokens: i64) -> Graph {
        let mut b = GraphBuilder::new("pipe");
        let ids: Vec<_> = (0..n_stages)
            .map(|i| {
                b.add(
                    format!("s{i}"),
                    stage(&format!("s{i}"), i as i64 + 1, tokens),
                    Target::hw_auto(),
                )
            })
            .collect();
        b.ext_input("Input_1", ids[0], "in");
        for w in ids.windows(2) {
            b.connect(format!("l{:?}", w[0]), w[0], "out", w[1], "in");
        }
        b.ext_output("Output_1", ids[n_stages - 1], "out");
        b.build().unwrap()
    }

    /// A diamond: fork duplicates each token onto two arms with different
    /// addends; join re-merges them by addition. Exercises one producer
    /// feeding two channels and one consumer draining two — the shape where
    /// per-port write buffering (rather than this engine's program-order
    /// write log) would deadlock.
    fn diamond(tokens: i64) -> Graph {
        let fork = KernelBuilder::new("fork")
            .input("in", Scalar::uint(32))
            .output("a", Scalar::uint(32))
            .output("b", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([Stmt::for_loop(
                "i",
                0..tokens,
                [
                    Stmt::read("x", "in"),
                    Stmt::write("a", Expr::var("x")),
                    Stmt::write("b", Expr::var("x")),
                ],
            )])
            .build()
            .unwrap();
        let join = KernelBuilder::new("join")
            .input("a", Scalar::uint(32))
            .input("b", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .local("y", Scalar::uint(32))
            .body([Stmt::for_loop(
                "i",
                0..tokens,
                [
                    Stmt::read("x", "a"),
                    Stmt::read("y", "b"),
                    Stmt::write("out", Expr::var("x").add(Expr::var("y"))),
                ],
            )])
            .build()
            .unwrap();

        let mut b = GraphBuilder::new("diamond");
        let f = b.add("fork", fork, Target::hw_auto());
        let up = b.add("up", stage("up", 10, tokens), Target::hw_auto());
        let down = b.add("down", stage("down", 100, tokens), Target::hw_auto());
        let j = b.add("join", join, Target::hw_auto());
        b.ext_input("Input_1", f, "in");
        b.connect("fa", f, "a", up, "in");
        b.connect("fb", f, "b", down, "in");
        b.connect("aj", up, "out", j, "a");
        b.connect("bj", down, "out", j, "b");
        b.ext_output("Output_1", j, "out");
        b.build().unwrap()
    }

    /// Runs `g` on the transport (`depth` on every internal edge) and
    /// checks the outputs against the batch oracle.
    fn assert_matches_oracle(g: &Graph, tokens: u32, depth: usize, chunk: usize) {
        let inputs = vec![("Input_1", word_values(tokens))];
        let (oracle, _) = run_graph(g, &inputs).unwrap();
        let depths = vec![depth; g.edges.len()];
        let (threaded, _) = run_with_transport(g, &inputs, &depths, chunk, BUDGET).unwrap();
        assert_eq!(oracle, threaded, "depth={depth} chunk={chunk}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Pipelines of every shape agree with the batch oracle for any
        /// (depth, chunk) transport, including chunk > stream length.
        #[test]
        fn pipeline_agrees_with_oracle(
            n_stages in 1usize..6,
            tokens in 0u32..600,
            depth in 1usize..300,
            chunk in 1usize..130,
        ) {
            assert_matches_oracle(&pipeline(n_stages, tokens as i64), tokens, depth, chunk);
        }

        /// Diamonds (fork/join with interleaved multi-port writes) agree with
        /// the oracle; the program-order write log keeps chunked flushes
        /// deadlock-free even when chunk > depth.
        #[test]
        fn diamond_agrees_with_oracle(
            tokens in 0u32..400,
            depth in 1usize..300,
            chunk in 1usize..130,
        ) {
            assert_matches_oracle(&diamond(tokens as i64), tokens, depth, chunk);
        }

        /// Depth is a scheduling detail: depth 1 on every edge of every
        /// generated family neither deadlocks nor changes a token.
        #[test]
        fn depth_one_on_generated_apps_is_schedule_only(
            seed in any::<u64>(),
            tokens in 16u64..64,
            fam in 0..FAMILIES.len(),
            chunk in 1usize..8,
        ) {
            let cfg = GenConfig { seed, tokens, max_stages: 4 };
            let app = generate_family(&cfg, FAMILIES[fam]).unwrap();
            let inputs = app.input_refs();
            let (oracle, _) = run_graph(&app.graph, &inputs).unwrap();
            let depths = vec![1; app.graph.edges.len()];
            let (threaded, _) =
                run_with_transport(&app.graph, &inputs, &depths, chunk, BUDGET).unwrap();
            prop_assert_eq!(&oracle, &threaded, "depth-1 divergence on {}", app.family);
        }
    }

    #[test]
    fn chunk_larger_than_the_stream_still_flushes() {
        for tokens in [0, 1, 5] {
            assert_matches_oracle(&pipeline(3, tokens as i64), tokens, 1, 4096);
            assert_matches_oracle(&diamond(tokens as i64), tokens, 1, 4096);
        }
    }

    #[test]
    fn engine_matches_batch_execution() {
        let g = pipeline(5, 1024);
        let inputs = vec![("Input_1", word_values(1024))];
        let (batch, _) = run_graph(&g, &inputs).unwrap();
        let (threaded, stats) = run_graph_threaded(&g, &inputs).unwrap();
        assert_eq!(batch, threaded);
        assert_eq!(stats.edge_stats.len(), g.edges.len());
    }

    #[test]
    fn heterogeneous_depths_below_and_above_the_chunk_agree() {
        let g = pipeline(4, 400);
        let inputs = vec![("Input_1", word_values(400))];
        let (batch, _) = run_graph(&g, &inputs).unwrap();
        let (threaded, _) =
            run_with_transport(&g, &inputs, &[2, 1024, 1], WRITE_CHUNK, BUDGET).unwrap();
        assert_eq!(batch, threaded);
    }

    #[test]
    fn steady_edges_keep_the_floor_and_phase_edges_hold_their_stream() {
        // A plain pipeline is steady everywhere.
        assert_eq!(ring_depths(&pipeline(4, 100_000)), vec![CHANNEL_DEPTH; 3]);
        // A generated two-phase app's `pre -> tp` edge feeds a fill-then-emit
        // consumer: next_power_of_two(traffic), clamped to [256, 8192].
        for (tokens, want) in [(100, 256), (3000, 4096), (20_000, 8192)] {
            let cfg = GenConfig {
                seed: 7,
                tokens,
                max_stages: 4,
            };
            let app = generate_family(&cfg, "two-phase").unwrap();
            let e0 = app.graph.edges.iter().position(|e| e.name == "e0").unwrap();
            assert_eq!(ring_depths(&app.graph)[e0], want, "{tokens} tokens");
        }
    }

    #[test]
    fn bursty_depths_scale_with_traffic() {
        use crate::opt::rate::Rate;
        let rate = |tokens, exact| Rate { tokens, exact };
        let edge = |produced, consumed| EdgeRate {
            produced,
            consumed,
            phase_consumer: false,
        };
        // A data-dependent producer wants slack on the order of its
        // traffic, a quarter of it rounded up to a power of two...
        let bursty = edge(rate(16_384, false), rate(16_384, true));
        assert_eq!(ring_depth(&bursty), 4096);
        // ...capped...
        let huge = edge(rate(1 << 20, false), rate(1 << 20, true));
        assert_eq!(ring_depth(&huge), 8192);
        // ...and a small bursty edge never drops below the floor.
        let small = edge(rate(64, false), rate(64, true));
        assert_eq!(ring_depth(&small), CHANNEL_DEPTH);
        // Mismatched exact rates are bursty too.
        let mismatched = edge(rate(8192, true), rate(4096, true));
        assert_eq!(ring_depth(&mismatched), 2048);
        // A saturated count (the rate analysis adds and multiplies trip
        // counts with saturation) hits the cap instead of overflowing.
        let saturated = EdgeRate {
            phase_consumer: true,
            ..edge(rate(u64::MAX, true), rate(u64::MAX, true))
        };
        assert_eq!(ring_depth(&saturated), 8192);
    }

    #[test]
    fn stats_report_stalls_on_shallow_edges() {
        // Depth-1 channels with per-token transport force a stall on nearly
        // every hand-off; the stats must observe them.
        let g = pipeline(3, 200);
        let inputs = vec![("Input_1", word_values(200))];
        let (out, stats) = run_with_transport(&g, &inputs, &[1, 1], 1, BUDGET).unwrap();
        assert_eq!(out["Output_1"].len(), 200);
        assert_eq!(stats.edge_stats.len(), g.edges.len());
        assert!(stats.total_blocks() > 0, "{stats:?}");
    }

    #[test]
    fn operator_failure_is_reported() {
        let g = pipeline(2, 100);
        // Too little input: the first stage underflows.
        let err = run_graph_threaded(&g, &[("Input_1", word_values(10))]).unwrap_err();
        assert!(matches!(err, GraphRunError::Operator { .. }), "{err:?}");
    }

    #[test]
    fn missing_input_is_reported() {
        let g = pipeline(2, 4);
        let err = run_graph_threaded(&g, &[]).unwrap_err();
        assert_eq!(err, GraphRunError::MissingInput("Input_1".into()));
    }

    /// Copies `tokens` values from `in` to `out`.
    fn copy(tokens: i64) -> kir::Kernel {
        KernelBuilder::new("copy")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([Stmt::for_loop(
                "i",
                0..tokens,
                [Stmt::read("x", "in"), Stmt::write("out", Expr::var("x"))],
            )])
            .build()
            .unwrap()
    }

    /// Indexes a 2-element array with each of `tokens` incoming values, so
    /// a token of value 5 kills it with an out-of-bounds access.
    fn lookup(tokens: i64) -> kir::Kernel {
        KernelBuilder::new("lookup")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .array("lut", Scalar::uint(32), 2)
            .body([Stmt::for_loop(
                "i",
                0..tokens,
                [
                    Stmt::read("x", "in"),
                    Stmt::write("out", Expr::index("lut", Expr::var("x"))),
                ],
            )])
            .build()
            .unwrap()
    }

    /// `producer -> consumer`, with the consumer declared first when
    /// `consumer_first`.
    fn producer_consumer(
        producer: kir::Kernel,
        consumer: kir::Kernel,
        consumer_first: bool,
    ) -> Graph {
        let mut gb = GraphBuilder::new("g");
        let (p, c) = if consumer_first {
            let c = gb.add("consumer", consumer, Target::hw_auto());
            (gb.add("producer", producer, Target::hw_auto()), c)
        } else {
            let p = gb.add("producer", producer, Target::hw_auto());
            (p, gb.add("consumer", consumer, Target::hw_auto()))
        };
        gb.ext_input("Input_1", p, "in");
        gb.connect("l", p, "out", c, "in");
        gb.ext_output("Output_1", c, "out");
        gb.build().unwrap()
    }

    fn fives(n: i64) -> Vec<Value> {
        (0..n)
            .map(|_| Value::Int(aplib::DynInt::from_raw(32, false, 5)))
            .collect()
    }

    #[test]
    fn the_failing_producer_is_blamed_not_its_starved_consumer() {
        // The consumer is declared first. The producer fails on its first
        // token; the consumer then underflows on the closed channel. Both
        // engines must name the producer, which the batch engine runs first.
        let g = producer_consumer(lookup(8), copy(8), true);
        let inputs = vec![("Input_1", fives(8))];
        let batch = run_graph(&g, &inputs).unwrap_err();
        assert!(
            matches!(
                &batch,
                GraphRunError::Operator { op, error: InterpError::IndexOutOfBounds { .. } }
                    if op == "producer"
            ),
            "{batch:?}"
        );
        assert_eq!(run_graph_threaded(&g, &inputs).unwrap_err(), batch);
    }

    #[test]
    fn producer_shuts_down_promptly_when_downstream_fails() {
        // The first token (value 5) kills the consumer almost immediately.
        // The producer is given an op budget that only covers a few thousand
        // tokens: if the write error were swallowed, it would keep producing
        // into the void for all TOKENS iterations and blow its budget,
        // mis-reporting the failure as its own. With shutdown propagation it
        // parks on the full channel, observes the hangup, and exits cleanly
        // — so the one reported error is the consumer's out-of-bounds access.
        const TOKENS: i64 = 2_000_000;
        let g = producer_consumer(copy(TOKENS), lookup(TOKENS), false);
        let err =
            run_with_transport(&g, &[("Input_1", fives(TOKENS))], &[8], 4, 50_000).unwrap_err();
        match err {
            GraphRunError::Operator { op, error } => {
                assert_eq!(op, "consumer");
                assert!(
                    matches!(error, InterpError::IndexOutOfBounds { .. }),
                    "{error:?}"
                );
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }
}
