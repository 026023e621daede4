//! KPN optimizer passes over dataflow graphs (ROADMAP item: "Dataflow
//! optimization passes + an app generator").
//!
//! Two semantics-preserving passes, each justified by the Kahn property
//! (token values are independent of scheduling, so any rewrite that
//! preserves per-edge token streams preserves the program), over one
//! analysis:
//!
//! * **Rate analysis** ([`rate`]): static per-port token counts, which
//!   decide fusion legality.
//! * **Fusion** ([`fuse`]): transport-bound adjacent operators merge into
//!   one kernel, replacing channel hops with in-page scratch arrays.
//! * **Fission** ([`fission`]): multi-phase operators split at a legal cut
//!   into a pipelined head/tail pair, halving the bottleneck and splitting
//!   BRAM across pages.
//!
//! [`optimize`] composes them — fuse to fixpoint, then fission under the
//! floorplan's operator budget — and returns the rewritten graph plus an
//! [`OptReport`]. Passes are best-effort: any candidate whose rewrite fails
//! re-validation is skipped, so `optimize` is total and the worst case is
//! the identity transform.

pub mod fission;
pub mod fuse;
pub mod rate;

pub use fission::{split_kernel, FissionPlan};
pub use fuse::{fuse_pair, InternalEdge};
pub use rate::{port_rates, PortRates, Rate};

use crate::graph::{Graph, GraphBuilder, OpId};
use crate::target::Target;

/// Fuse a pair when its combined static work per internalized token is at
/// most this — the transport-bound regime where a channel hop costs more
/// than the compute it feeds.
const FUSE_OPS_PER_TOKEN: u64 = 48;

/// ...or when combined work is at most this percentage of the graph's
/// bottleneck operator (fusing far-below-bottleneck operators can never
/// lengthen the critical path).
const FUSE_UTIL_PERCENT: u64 = 50;

/// Optimizer knobs. `Default` enables every pass with the page BRAM budget
/// as capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizerConfig {
    /// Enable operator fusion.
    pub fuse: bool,
    /// Enable operator fission.
    pub fission: bool,
    /// Upper bound on operators in the optimized graph — the floorplan's
    /// page count when driven from the build flow.
    pub max_operators: usize,
    /// BRAM bits available per operator (per page), bounding fusion scratch
    /// buffers and triggering fission of oversized operators.
    pub page_array_bits: u64,
    /// Minimum static work before the bottleneck is worth splitting.
    pub fission_min_ops: u64,
}

impl Default for OptimizerConfig {
    fn default() -> OptimizerConfig {
        OptimizerConfig {
            fuse: true,
            fission: true,
            max_operators: usize::MAX,
            page_array_bits: kir::check::MAX_ARRAY_BITS,
            fission_min_ops: 4096,
        }
    }
}

/// What the optimizer did to one graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OptReport {
    /// Names of fused operators created (each replaces a pair).
    pub fused: Vec<String>,
    /// Names of operators split into head/tail pairs.
    pub fissioned: Vec<String>,
    /// Jain fairness index of per-operator static work before optimizing
    /// (1.0 = perfectly balanced pages).
    pub balance_before: f64,
    /// Jain fairness index after optimizing.
    pub balance_after: f64,
}

/// An optimized graph and what the passes did to it.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The rewritten graph (possibly identical to the input).
    pub graph: Graph,
    /// Pass log and balance metrics.
    pub report: OptReport,
}

/// Runs every enabled pass. Total: candidates that fail re-validation are
/// skipped, so the worst case is the identity transform.
pub fn optimize(graph: &Graph, config: &OptimizerConfig) -> Optimized {
    let balance_before = jain(&work_profile(graph));
    let mut g = graph.clone();
    let mut report = OptReport {
        balance_before,
        ..OptReport::default()
    };

    if config.fuse {
        // Opportunistic loop-merge fusion first: zero-buffer merges that are
        // profitable on every engine. When no producer/consumer pair is
        // mergeable, try packing a pair of siblings side by side — that
        // removes no channel itself but restores merge_pair's totality rule
        // around splitters and joiners (a diamond collapses end to end this
        // way). Each step removes one operator, so the loop terminates.
        loop {
            if let Some((next, name)) = fuse_round(&g, config, FuseMode::Merge) {
                g = next;
                report.fused.push(name);
                continue;
            }
            if let Some((next, name)) = sibling_round(&g, config) {
                g = next;
                report.fused.push(name);
                continue;
            }
            break;
        }
        // Then buffered fusion, but only under floorplan pressure: whole-
        // stream scratch buffers serialize the pair, so they are worth it
        // exactly when the graph has more operators than pages.
        while g.operators.len() > config.max_operators {
            let Some((next, name)) = fuse_round(&g, config, FuseMode::Buffered) else {
                break;
            };
            g = next;
            report.fused.push(name);
        }
    }

    if config.fission {
        // Bounded rounds: re-evaluate the bottleneck after each split.
        for _ in 0..4 {
            let Some((op, plan)) = find_fission(&g, config) else {
                break;
            };
            match apply_fission(&g, op, plan) {
                Some((next, name)) => {
                    g = next;
                    report.fissioned.push(name);
                }
                None => break,
            }
        }
    }

    report.balance_after = jain(&work_profile(&g));
    Optimized { graph: g, report }
}

/// Per-operator static work, the per-page utilization proxy.
fn work_profile(g: &Graph) -> Vec<f64> {
    g.operators
        .iter()
        .map(|o| o.kernel.dynamic_ops() as f64)
        .collect()
}

/// Jain's fairness index: 1.0 when all pages carry equal work, toward
/// `1/n` when one page carries everything.
pub fn jain(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sq)
}

/// How a fusion round builds the combined kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FuseMode {
    /// Zero-buffer loop merge ([`fuse::merge_pair`]): profitable everywhere,
    /// applied opportunistically to transport-bound / low-utilization pairs.
    Merge,
    /// Whole-stream scratch buffer ([`fuse_pair`]): serializes the pair, so
    /// only used to squeeze the graph under the operator budget.
    Buffered,
}

/// One fusion round: finds the best legal pair for `mode`, applies it, and
/// returns the rewritten graph. Candidates whose mechanical rewrite fails
/// validation are skipped, so a `Some` return is always a committed fusion.
///
/// Legality (both modes): `a`'s outputs all feed `b`, `b`'s inputs all come
/// from `a`, every internalized edge moves an exact, matched token count,
/// and combined arrays (plus scratch, for `Buffered`) fit the page budget.
/// `Merge` additionally requires profitability — the pair is transport-bound
/// or far below the bottleneck; `Buffered` instead prefers the pair with the
/// least combined work, hurting the pipeline's critical path least.
fn fuse_round(g: &Graph, config: &OptimizerConfig, mode: FuseMode) -> Option<(Graph, String)> {
    let rates: Vec<PortRates> = g.operators.iter().map(|o| port_rates(&o.kernel)).collect();
    let work: Vec<u64> = g.operators.iter().map(|o| o.kernel.dynamic_ops()).collect();
    let bottleneck = work.iter().copied().max().unwrap_or(0);
    let budget = config.page_array_bits.min(kir::check::MAX_ARRAY_BITS);

    // (combined work, a, b) for every legal candidate under `mode`.
    let mut candidates: Vec<(u64, OpId, OpId)> = Vec::new();
    for a in (0..g.operators.len()).map(OpId) {
        if g.ext_outputs.iter().any(|p| p.op == a) {
            continue;
        }
        let outs: Vec<_> = g.out_edges(a).collect();
        let Some((_, first)) = outs.first() else {
            continue;
        };
        let b = first.to.0;
        if b == a || outs.iter().any(|(_, e)| e.to.0 != b) {
            continue;
        }
        if g.ext_inputs.iter().any(|p| p.op == b) {
            continue;
        }
        if g.in_edges(b).any(|(_, e)| e.from.0 != a) {
            continue;
        }

        // Exactness and matched counts on every internalized edge.
        let mut tokens_moved = 0u64;
        let mut buffer_bits = 0u64;
        let mut legal = true;
        for (_, e) in &outs {
            let w = rates[a.0]
                .writes
                .get(&e.from.1)
                .copied()
                .unwrap_or(Rate::ZERO);
            let r = rates[b.0].reads.get(&e.to.1).copied().unwrap_or(Rate::ZERO);
            if !w.exact || !r.exact || w.tokens != r.tokens {
                legal = false;
                break;
            }
            tokens_moved += w.tokens;
            buffer_bits += w.tokens.max(1) * u64::from(e.elem.width());
        }
        if !legal {
            continue;
        }
        let ka = &g.operators[a.0].kernel;
        let kb = &g.operators[b.0].kernel;
        let scratch = match mode {
            FuseMode::Merge => 0,
            FuseMode::Buffered => buffer_bits,
        };
        if ka.array_bits() + kb.array_bits() + scratch > budget {
            continue;
        }
        let combined = work[a.0].saturating_add(work[b.0]);
        if mode == FuseMode::Merge {
            let transport_bound = combined <= tokens_moved.max(1) * FUSE_OPS_PER_TOKEN;
            let below_bottleneck = combined * 100 <= bottleneck.saturating_mul(FUSE_UTIL_PERCENT);
            if !transport_bound && !below_bottleneck {
                continue;
            }
        }
        candidates.push((combined, a, b));
    }
    // Cheapest combined work first: under budget pressure this grows the
    // bottleneck least, and for merges it collapses the thinnest operators
    // before touching anything substantial.
    candidates.sort_by_key(|&(combined, a, _)| (combined, a.0));
    candidates
        .into_iter()
        .find_map(|(_, a, b)| apply_fusion(g, a, b, mode))
}

/// One round of horizontal (sibling) packing: finds two parallel operators
/// that share a producer or a consumer and merges them side by side with
/// [`fuse::merge_parallel`]. Packing removes no channel on its own, so it
/// only runs when [`fuse_round`] found nothing — its purpose is to restore
/// merge_pair's totality rule around splitters and joiners.
fn sibling_round(g: &Graph, config: &OptimizerConfig) -> Option<(Graph, String)> {
    let rates: Vec<PortRates> = g.operators.iter().map(|o| port_rates(&o.kernel)).collect();
    let work: Vec<u64> = g.operators.iter().map(|o| o.kernel.dynamic_ops()).collect();
    let bottleneck = work.iter().copied().max().unwrap_or(0);
    let budget = config.page_array_bits.min(kir::check::MAX_ARRAY_BITS);

    let mut candidates: Vec<(u64, OpId, OpId)> = Vec::new();
    for x in (0..g.operators.len()).map(OpId) {
        for y in (x.0 + 1..g.operators.len()).map(OpId) {
            // Parallel: no edge either way.
            if g.edges
                .iter()
                .any(|e| (e.from.0 == x && e.to.0 == y) || (e.from.0 == y && e.to.0 == x))
            {
                continue;
            }
            // Siblings must share a *consumer*: the packed pair then owns
            // all of that joiner's inputs, so the next merge round absorbs
            // the joiner and internalizes the packed op's interleaved
            // writes. Pairs sharing only a producer stay separate: packing
            // them enables no merge, since their writes still go to
            // unrelated downstream operators.
            let shares_consumer = g
                .out_edges(x)
                .any(|(_, ex)| g.out_edges(y).any(|(_, ey)| ex.to.0 == ey.to.0));
            if !shares_consumer {
                continue;
            }
            let kx = &g.operators[x.0].kernel;
            let ky = &g.operators[y.0].kernel;
            if kx.array_bits() + ky.array_bits() > budget {
                continue;
            }
            // Same profitability regime as loop merges: packing serializes
            // the pair on one page, so it must be transport-bound or far
            // below the bottleneck.
            let traffic: u64 = rates[x.0]
                .writes
                .values()
                .chain(rates[y.0].writes.values())
                .map(|r| r.tokens)
                .sum();
            let combined = work[x.0].saturating_add(work[y.0]);
            let transport_bound = combined <= traffic.max(1) * FUSE_OPS_PER_TOKEN;
            let below_bottleneck = combined * 100 <= bottleneck.saturating_mul(FUSE_UTIL_PERCENT);
            if !transport_bound && !below_bottleneck {
                continue;
            }
            candidates.push((combined, x, y));
        }
    }
    candidates.sort_by_key(|&(combined, x, _)| (combined, x.0));
    candidates
        .into_iter()
        .find_map(|(_, x, y)| apply_sibling(g, x, y))
}

/// Rewrites the graph with parallel operators `x` and `y` replaced by their
/// side-by-side merge. `x`'s ports keep their names under `f0_`, `y`'s move
/// under `f1_`.
fn apply_sibling(g: &Graph, x: OpId, y: OpId) -> Option<(Graph, String)> {
    let mut name = format!("{}__{}", g.operators[x.0].name, g.operators[y.0].name);
    while g.operators.iter().any(|o| o.name == name) {
        name.push('_');
    }
    let merged = fuse::merge_parallel(&name, &g.operators[x.0].kernel, &g.operators[y.0].kernel)?;

    let mut builder = GraphBuilder::new(g.name.clone());
    let mut id_map: Vec<Option<OpId>> = vec![None; g.operators.len()];
    for (i, op) in g.operators.iter().enumerate() {
        if i == y.0 {
            continue;
        }
        let id = if i == x.0 {
            builder.add(name.clone(), merged.clone(), op.target)
        } else {
            builder.add(op.name.clone(), op.kernel.clone(), op.target)
        };
        id_map[i] = Some(id);
    }
    id_map[y.0] = id_map[x.0];

    let rename = |op: OpId, port: &str| {
        if op == x {
            format!("f0_{port}")
        } else if op == y {
            format!("f1_{port}")
        } else {
            port.to_string()
        }
    };
    for e in &g.edges {
        builder.connect(
            e.name.clone(),
            id_map[e.from.0 .0]?,
            &rename(e.from.0, &e.from.1),
            id_map[e.to.0 .0]?,
            &rename(e.to.0, &e.to.1),
        );
    }
    for p in &g.ext_inputs {
        builder.ext_input(p.name.clone(), id_map[p.op.0]?, &rename(p.op, &p.port));
    }
    for p in &g.ext_outputs {
        builder.ext_output(p.name.clone(), id_map[p.op.0]?, &rename(p.op, &p.port));
    }
    builder.build().ok().map(|g| (g, name))
}

/// Rewrites the graph with `a` and `b` replaced by their fusion. Returns the
/// new graph and the fused operator's name, or `None` when the mechanical
/// rewrite fails validation (the caller skips the candidate).
fn apply_fusion(g: &Graph, a: OpId, b: OpId, mode: FuseMode) -> Option<(Graph, String)> {
    let internal: Vec<InternalEdge> = {
        let rates = port_rates(&g.operators[a.0].kernel);
        g.out_edges(a)
            .map(|(_, e)| InternalEdge {
                out_port: e.from.1.clone(),
                in_port: e.to.1.clone(),
                tokens: rates.writes.get(&e.from.1).map_or(0, |r| r.tokens),
                elem: e.elem,
            })
            .collect()
    };
    let mut name = format!("{}__{}", g.operators[a.0].name, g.operators[b.0].name);
    while g.operators.iter().any(|o| o.name == name) {
        name.push('_');
    }
    let fused = match mode {
        FuseMode::Merge => fuse::merge_pair(
            &name,
            &g.operators[a.0].kernel,
            &g.operators[b.0].kernel,
            &internal,
        )?,
        FuseMode::Buffered => fuse_pair(
            &name,
            &g.operators[a.0].kernel,
            &g.operators[b.0].kernel,
            &internal,
        )
        .ok()?,
    };

    let mut builder = GraphBuilder::new(g.name.clone());
    let mut id_map: Vec<Option<OpId>> = vec![None; g.operators.len()];
    for (i, op) in g.operators.iter().enumerate() {
        if i == b.0 {
            continue;
        }
        let id = if i == a.0 {
            builder.add(name.clone(), fused.clone(), op.target)
        } else {
            builder.add(op.name.clone(), op.kernel.clone(), op.target)
        };
        id_map[i] = Some(id);
    }
    id_map[b.0] = id_map[a.0];

    for e in &g.edges {
        if e.from.0 == a && e.to.0 == b {
            continue; // internalized
        }
        let from_port = if e.from.0 == b {
            format!("f1_{}", e.from.1)
        } else {
            e.from.1.clone()
        };
        let to_port = if e.to.0 == a {
            format!("f0_{}", e.to.1)
        } else {
            e.to.1.clone()
        };
        builder.connect(
            e.name.clone(),
            id_map[e.from.0 .0]?,
            &from_port,
            id_map[e.to.0 .0]?,
            &to_port,
        );
    }
    for p in &g.ext_inputs {
        let port = if p.op == a {
            format!("f0_{}", p.port)
        } else {
            p.port.clone()
        };
        builder.ext_input(p.name.clone(), id_map[p.op.0]?, &port);
    }
    for p in &g.ext_outputs {
        let port = if p.op == b {
            format!("f1_{}", p.port)
        } else {
            p.port.clone()
        };
        builder.ext_output(p.name.clone(), id_map[p.op.0]?, &port);
    }
    builder.build().ok().map(|g| (g, name))
}

/// Finds an operator worth splitting: one whose arrays exceed the page
/// budget, or the work bottleneck when a cut balances it meaningfully.
fn find_fission(g: &Graph, config: &OptimizerConfig) -> Option<(OpId, FissionPlan)> {
    if g.operators.len() >= config.max_operators {
        return None;
    }
    let budget = config.page_array_bits.min(kir::check::MAX_ARRAY_BITS);

    // Oversized first: splitting is mandatory for mappability there.
    for (i, op) in g.operators.iter().enumerate() {
        if op.kernel.array_bits() > budget {
            if let Some(plan) = split_kernel(&op.kernel) {
                if plan.head.array_bits() < op.kernel.array_bits()
                    && plan.tail.array_bits() < op.kernel.array_bits()
                {
                    return Some((OpId(i), plan));
                }
            }
        }
    }

    // Then the bottleneck, when it dominates and the cut balances.
    let (i, op) = g
        .operators
        .iter()
        .enumerate()
        .max_by_key(|(_, o)| o.kernel.dynamic_ops())?;
    let total = op.kernel.dynamic_ops();
    if total < config.fission_min_ops {
        return None;
    }
    let plan = split_kernel(&op.kernel)?;
    // Require the worst half at most 3/4 of the original, so the pipeline
    // actually shortens the critical path.
    if plan.head_ops.max(plan.tail_ops) * 4 <= total * 3 {
        Some((OpId(i), plan))
    } else {
        None
    }
}

/// Rewrites the graph with `op` replaced by the plan's head/tail pair joined
/// by state edges.
fn apply_fission(g: &Graph, op: OpId, plan: FissionPlan) -> Option<(Graph, String)> {
    let base = &g.operators[op.0].name;
    let head_name = format!("{base}__h");
    let tail_name = format!("{base}__t");
    if g.operators
        .iter()
        .any(|o| o.name == head_name || o.name == tail_name)
    {
        return None;
    }
    // Drop any page pin: two new operators cannot share the original's page.
    let target = match g.operators[op.0].target {
        Target::Hw { .. } => Target::hw_auto(),
        Target::Riscv { .. } => Target::riscv_auto(),
    };

    let mut builder = GraphBuilder::new(g.name.clone());
    let mut id_map: Vec<Option<OpId>> = vec![None; g.operators.len()];
    let mut head_id = None;
    let mut tail_id = None;
    for (i, o) in g.operators.iter().enumerate() {
        if i == op.0 {
            let h = builder.add(head_name.clone(), plan.head.clone(), target);
            let t = builder.add(tail_name.clone(), plan.tail.clone(), target);
            head_id = Some(h);
            tail_id = Some(t);
            id_map[i] = Some(h);
        } else {
            id_map[i] = Some(builder.add(o.name.clone(), o.kernel.clone(), o.target));
        }
    }
    let (head_id, tail_id) = (head_id?, tail_id?);

    for e in &g.edges {
        let from = if e.from.0 == op {
            tail_id // outputs live on the tail
        } else {
            id_map[e.from.0 .0]?
        };
        let to = if e.to.0 == op {
            head_id // inputs live on the head
        } else {
            id_map[e.to.0 .0]?
        };
        builder.connect(e.name.clone(), from, &e.from.1, to, &e.to.1);
    }
    for (k, p) in plan.state_ports.iter().enumerate() {
        builder.connect(format!("{base}__st{k}"), head_id, &p.name, tail_id, &p.name);
    }
    for p in &g.ext_inputs {
        let id = if p.op == op { head_id } else { id_map[p.op.0]? };
        builder.ext_input(p.name.clone(), id, &p.port);
    }
    for p in &g.ext_outputs {
        let id = if p.op == op { tail_id } else { id_map[p.op.0]? };
        builder.ext_output(p.name.clone(), id, &p.port);
    }
    builder.build().ok().map(|g| (g, base.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_graph;
    use crate::graph::GraphBuilder;
    use kir::types::Value;
    use kir::{Expr, KernelBuilder, Scalar, Stmt};

    fn word_values(n: u32) -> Vec<Value> {
        (0..n)
            .map(|w| Value::Int(aplib::DynInt::from_raw(32, false, w as u128)))
            .collect()
    }

    fn tiny_chain(n_stages: usize, tokens: i64) -> Graph {
        let stage = |name: &str, addend: i64| {
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
        };
        let mut b = GraphBuilder::new("chain");
        let ids: Vec<_> = (0..n_stages)
            .map(|i| {
                b.add(
                    format!("s{i}"),
                    stage(&format!("s{i}"), i as i64 + 1),
                    crate::target::Target::hw_auto(),
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

    #[test]
    fn tiny_chain_fuses_and_stays_bit_identical() {
        let g = tiny_chain(5, 64);
        let opt = optimize(&g, &OptimizerConfig::default());
        assert!(
            opt.graph.operators.len() < g.operators.len(),
            "expected fusion on a transport-bound chain: {:?}",
            opt.report
        );

        let inputs = vec![("Input_1", word_values(64))];
        let (base, _) = run_graph(&g, &inputs).unwrap();
        let (fused, _) = run_graph(&opt.graph, &inputs).unwrap();
        assert_eq!(base, fused);
    }

    #[test]
    fn diamond_collapses_through_sibling_packing() {
        // split -> {two map arms} -> join: no producer/consumer pair is
        // mergeable on its own (the splitter has two consumers, the joiner
        // two producers). Packing the arms side by side restores totality
        // and the whole diamond folds into one operator.
        let tokens = 64i64;
        let map = |name: &str, addend: i64| {
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
        };
        let sp = KernelBuilder::new("sp")
            .input("in", Scalar::uint(32))
            .output("out0", Scalar::uint(32))
            .output("out1", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([Stmt::for_loop(
                "i",
                0..tokens,
                [
                    Stmt::read("x", "in"),
                    Stmt::write("out0", Expr::var("x")),
                    Stmt::write("out1", Expr::var("x").xor(Expr::cint(7))),
                ],
            )])
            .build()
            .unwrap();
        let jn = KernelBuilder::new("jn")
            .input("in0", Scalar::uint(32))
            .input("in1", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("a", Scalar::uint(32))
            .local("b", Scalar::uint(32))
            .body([Stmt::for_loop(
                "i",
                0..tokens,
                [
                    Stmt::read("a", "in0"),
                    Stmt::read("b", "in1"),
                    Stmt::write("out", Expr::var("a").add(Expr::var("b"))),
                ],
            )])
            .build()
            .unwrap();

        let mut b = GraphBuilder::new("diamond");
        let t = crate::target::Target::hw_auto();
        let sp_id = b.add("sp", sp, t);
        let l0 = b.add("l0", map("l0", 3), t);
        let l1 = b.add("l1", map("l1", 9), t);
        let jn_id = b.add("jn", jn, t);
        b.ext_input("Input_1", sp_id, "in");
        b.connect("e0", sp_id, "out0", l0, "in");
        b.connect("e1", sp_id, "out1", l1, "in");
        b.connect("e2", l0, "out", jn_id, "in0");
        b.connect("e3", l1, "out", jn_id, "in1");
        b.ext_output("Output_1", jn_id, "out");
        let g = b.build().unwrap();

        let opt = optimize(&g, &OptimizerConfig::default());
        assert_eq!(
            opt.graph.operators.len(),
            1,
            "diamond should fold completely: {:?}",
            opt.report
        );

        let inputs = vec![("Input_1", word_values(64))];
        let (base, _) = run_graph(&g, &inputs).unwrap();
        let (folded, _) = run_graph(&opt.graph, &inputs).unwrap();
        assert_eq!(base, folded);
    }

    #[test]
    fn optimizer_is_identity_when_passes_disabled() {
        let g = tiny_chain(3, 32);
        let cfg = OptimizerConfig {
            fuse: false,
            fission: false,
            ..OptimizerConfig::default()
        };
        let opt = optimize(&g, &cfg);
        assert_eq!(opt.graph, g);
    }

    #[test]
    fn heavy_operators_are_not_fused() {
        // Two heavy stages (inner compute loop per token): fusing would
        // serialize them, so the pass must leave the graph alone.
        let heavy = |name: &str| {
            KernelBuilder::new(name)
                .input("in", Scalar::uint(32))
                .output("out", Scalar::uint(32))
                .local("x", Scalar::uint(32))
                .local("acc", Scalar::uint(32))
                .body([Stmt::for_loop(
                    "i",
                    0..256,
                    [
                        Stmt::read("x", "in"),
                        Stmt::assign("acc", Expr::cint(0)),
                        Stmt::for_loop(
                            "j",
                            0..200,
                            [Stmt::assign(
                                "acc",
                                Expr::var("acc").add(Expr::var("x").mul(Expr::var("j"))),
                            )],
                        ),
                        Stmt::write("out", Expr::var("acc")),
                    ],
                )])
                .build()
                .unwrap()
        };
        let mut b = GraphBuilder::new("heavy");
        let h0 = b.add("h0", heavy("h0"), crate::target::Target::hw_auto());
        let h1 = b.add("h1", heavy("h1"), crate::target::Target::hw_auto());
        b.ext_input("Input_1", h0, "in");
        b.connect("l", h0, "out", h1, "in");
        b.ext_output("Output_1", h1, "out");
        let g = b.build().unwrap();

        let cfg = OptimizerConfig {
            fission: false,
            ..OptimizerConfig::default()
        };
        let opt = optimize(&g, &cfg);
        assert_eq!(opt.graph.operators.len(), 2, "{:?}", opt.report);
    }

    #[test]
    fn bottleneck_two_phase_operator_is_split() {
        let n = 64i64;
        let two_phase = KernelBuilder::new("tp")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .array("buf", Scalar::uint(32), n as u64)
            .body([
                Stmt::for_loop(
                    "i",
                    0..n,
                    [
                        Stmt::read("x", "in"),
                        Stmt::for_loop(
                            "j",
                            0..64,
                            [Stmt::assign("x", Expr::var("x").add(Expr::cint(1)))],
                        ),
                        Stmt::store("buf", Expr::var("i"), Expr::var("x")),
                    ],
                ),
                Stmt::for_loop(
                    "i",
                    0..n,
                    [
                        Stmt::assign("x", Expr::index("buf", Expr::var("i"))),
                        Stmt::for_loop(
                            "j",
                            0..64,
                            [Stmt::assign("x", Expr::var("x").add(Expr::cint(3)))],
                        ),
                        Stmt::write("out", Expr::var("x")),
                    ],
                ),
            ])
            .build()
            .unwrap();
        let mut b = GraphBuilder::new("fiss");
        let id = b.add("tp", two_phase, crate::target::Target::hw_auto());
        b.ext_input("Input_1", id, "in");
        b.ext_output("Output_1", id, "out");
        let g = b.build().unwrap();

        let cfg = OptimizerConfig {
            fuse: false,
            fission_min_ops: 1000,
            ..OptimizerConfig::default()
        };
        let opt = optimize(&g, &cfg);
        assert_eq!(opt.graph.operators.len(), 2, "{:?}", opt.report);
        assert_eq!(opt.report.fissioned, vec!["tp".to_string()]);

        let inputs = vec![("Input_1", word_values(n as u32))];
        let (base, _) = run_graph(&g, &inputs).unwrap();
        let (split, _) = run_graph(&opt.graph, &inputs).unwrap();
        assert_eq!(base, split);
    }

    #[test]
    fn jain_index_brackets() {
        assert_eq!(jain(&[]), 1.0);
        assert_eq!(jain(&[5.0, 5.0, 5.0]), 1.0);
        let skewed = jain(&[100.0, 1.0, 1.0]);
        assert!(skewed < 0.5, "{skewed}");
    }
}
