//! Property-based random KPN application generator.
//!
//! Samples well-formed streaming applications — random topologies × token
//! rates × kernel bodies — for two consumers:
//!
//! * the differential proptests, which check that [`crate::opt::optimize`] is
//!   semantics-preserving on a population far wider than the hand-written
//!   example apps, and
//! * the benchmark harness, which measures optimizer wins (tokens/sec,
//!   stall-cycle reduction, page balance) as population statistics rather
//!   than single-app anecdotes.
//!
//! Generation is deterministic from a [`GenConfig`] seed (a hand-rolled
//! splitmix64 [`Rng`]; no external crates), and token accounting is exact by
//! construction: every kernel is built around concrete per-port token counts
//! forward-propagated from the external input, so generated apps never
//! deadlock and always drain.
//!
//! Families cover the optimizer's whole surface: transport-bound chains
//! (fusion bait), multi-phase kernels (fission bait), rate-mismatched
//! up/downsampling chains (channel-sizing bait), plus diamonds and fan-outs
//! that stress graph rewiring around fused/split operators.

use aplib::DynInt;
use kir::{Expr, Kernel, KernelBuilder, Scalar, Stmt, Value};

use crate::graph::{Graph, GraphBuilder};
use crate::target::Target;

/// Deterministic splitmix64 generator — tiny, seedable, dependency-free.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Creates a generator from a seed (any value, including 0, is fine).
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; returns 0 for `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Uniform value in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi.saturating_sub(lo) + 1)
    }
}

/// Knobs for one generated application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenConfig {
    /// Seed: same config ⇒ same app, bit for bit.
    pub seed: u64,
    /// Stream length at the external input (scaled internally by resampling
    /// stages; kept exact throughout).
    pub tokens: u64,
    /// Upper bound on pipeline stages per chain.
    pub max_stages: usize,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            seed: 1,
            tokens: 256,
            max_stages: 6,
        }
    }
}

/// A generated application: graph plus matching input streams.
#[derive(Debug, Clone)]
pub struct GeneratedApp {
    /// Topology family this app was drawn from.
    pub family: &'static str,
    /// The application graph (already validated by [`GraphBuilder::build`]).
    pub graph: Graph,
    /// External input streams, sized to drain the graph exactly.
    pub inputs: Vec<(String, Vec<Value>)>,
}

impl GeneratedApp {
    /// Inputs in the borrowed form the run APIs take.
    pub fn input_refs(&self) -> Vec<(&str, Vec<Value>)> {
        self.inputs
            .iter()
            .map(|(n, v)| (n.as_str(), v.clone()))
            .collect()
    }
}

/// Every topology family [`generate`] samples from.
pub const FAMILIES: &[&str] = &[
    "tiny-chain",
    "rate-chain",
    "diamond",
    "fan-out",
    "two-phase",
    "mixed-chain",
];

const U32: Scalar = Scalar::uint(32);

/// Generates one application; the family is drawn from the seed.
pub fn generate(cfg: &GenConfig) -> GeneratedApp {
    let mut rng = Rng::new(cfg.seed);
    let family = FAMILIES[rng.below(FAMILIES.len() as u64) as usize];
    generate_family(cfg, family).expect("built-in family")
}

/// Generates one application from a named family (see [`FAMILIES`]).
pub fn generate_family(cfg: &GenConfig, family: &str) -> Option<GeneratedApp> {
    // Offset the stream so different families from one seed differ too.
    let mut rng = Rng::new(cfg.seed ^ fnv(family));
    let tokens = cfg.tokens.max(1);
    let app = match family {
        "tiny-chain" => tiny_chain(&mut rng, tokens, cfg.max_stages),
        "rate-chain" => rate_chain(&mut rng, tokens, cfg.max_stages),
        "diamond" => diamond(&mut rng, tokens),
        "fan-out" => fan_out(&mut rng, tokens),
        "two-phase" => two_phase(&mut rng, tokens),
        "mixed-chain" => mixed_chain(&mut rng, tokens, cfg.max_stages),
        _ => return None,
    };
    Some(app)
}

/// Generates a whole population: one app per (family × replicate).
pub fn population(base: &GenConfig, replicates: u64) -> Vec<GeneratedApp> {
    let mut out = Vec::new();
    for r in 0..replicates {
        for family in FAMILIES {
            let cfg = GenConfig {
                seed: base.seed.wrapping_add(r.wrapping_mul(0x9e37)),
                ..base.clone()
            };
            out.extend(generate_family(&cfg, family));
        }
    }
    out
}

fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn stream(rng: &mut Rng, n: u64) -> Vec<Value> {
    (0..n)
        .map(|_| {
            Value::Int(DynInt::from_raw(
                32,
                false,
                u128::from(rng.next_u64() & 0xffff_ffff),
            ))
        })
        .collect()
}

/// A random cheap per-token transform of `x`.
fn cheap_transform(rng: &mut Rng) -> Expr {
    let c = rng.range(1, 250) as i64;
    match rng.below(4) {
        0 => Expr::var("x").add(Expr::cint(c)),
        1 => Expr::var("x").xor(Expr::cint(c)),
        2 => Expr::var("x").mul(Expr::cint((c | 1) & 0xff)),
        _ => Expr::var("x").sub(Expr::cint(c)),
    }
}

/// `n` tokens in, `n` tokens out, one cheap op per token: fusion bait.
fn map_kernel(rng: &mut Rng, name: &str, n: u64) -> Kernel {
    let f = cheap_transform(rng);
    KernelBuilder::new(name)
        .input("in", U32)
        .output("out", U32)
        .local("x", U32)
        .body([Stmt::for_loop(
            "i",
            0..n as i64,
            [Stmt::read("x", "in"), Stmt::write("out", f)],
        )])
        .build()
        .expect("generated map kernel")
}

/// `n` in, `n` out, `inner` compute ops per token: a real compute stage.
fn heavy_kernel(rng: &mut Rng, name: &str, n: u64, inner: u64) -> Kernel {
    let c = rng.range(1, 31) as i64;
    KernelBuilder::new(name)
        .input("in", U32)
        .output("out", U32)
        .local("x", U32)
        .local("acc", U32)
        .body([Stmt::for_loop(
            "i",
            0..n as i64,
            [
                Stmt::read("x", "in"),
                Stmt::assign("acc", Expr::var("x")),
                Stmt::for_loop(
                    "j",
                    0..inner as i64,
                    [Stmt::assign(
                        "acc",
                        Expr::var("acc")
                            .mul(Expr::cint(3))
                            .add(Expr::var("j").xor(Expr::cint(c))),
                    )],
                ),
                Stmt::write("out", Expr::var("acc")),
            ],
        )])
        .build()
        .expect("generated heavy kernel")
}

/// `n` in, `n * k` out.
fn upsample_kernel(name: &str, n: u64, k: u64) -> Kernel {
    KernelBuilder::new(name)
        .input("in", U32)
        .output("out", U32)
        .local("x", U32)
        .body([Stmt::for_loop(
            "i",
            0..n as i64,
            [
                Stmt::read("x", "in"),
                Stmt::for_loop(
                    "j",
                    0..k as i64,
                    [Stmt::write("out", Expr::var("x").add(Expr::var("j")))],
                ),
            ],
        )])
        .build()
        .expect("generated upsample kernel")
}

/// `n * k` in, `n` out (running sum over each window).
fn downsample_kernel(name: &str, n: u64, k: u64) -> Kernel {
    KernelBuilder::new(name)
        .input("in", U32)
        .output("out", U32)
        .local("x", U32)
        .local("acc", U32)
        .body([Stmt::for_loop(
            "i",
            0..n as i64,
            [
                Stmt::assign("acc", Expr::cint(0)),
                Stmt::for_loop(
                    "j",
                    0..k as i64,
                    [
                        Stmt::read("x", "in"),
                        Stmt::assign("acc", Expr::var("acc").add(Expr::var("x"))),
                    ],
                ),
                Stmt::write("out", Expr::var("acc")),
            ],
        )])
        .build()
        .expect("generated downsample kernel")
}

/// `n` in, `n` out on each of two branches.
fn split_kernel2(name: &str, n: u64) -> Kernel {
    KernelBuilder::new(name)
        .input("in", U32)
        .output("out0", U32)
        .output("out1", U32)
        .local("x", U32)
        .body([Stmt::for_loop(
            "i",
            0..n as i64,
            [
                Stmt::read("x", "in"),
                Stmt::write("out0", Expr::var("x").add(Expr::cint(1))),
                Stmt::write("out1", Expr::var("x").xor(Expr::cint(0x55))),
            ],
        )])
        .build()
        .expect("generated split kernel")
}

/// Two `n`-token branches in, `n` tokens out.
fn join_kernel2(name: &str, n: u64) -> Kernel {
    KernelBuilder::new(name)
        .input("in0", U32)
        .input("in1", U32)
        .output("out", U32)
        .local("a", U32)
        .local("b", U32)
        .body([Stmt::for_loop(
            "i",
            0..n as i64,
            [
                Stmt::read("a", "in0"),
                Stmt::read("b", "in1"),
                Stmt::write("out", Expr::var("a").add(Expr::var("b"))),
            ],
        )])
        .build()
        .expect("generated join kernel")
}

/// Two sequential phases over an internal buffer array: fission bait.
fn two_phase_kernel(rng: &mut Rng, name: &str, n: u64, inner: u64) -> Kernel {
    let c = rng.range(1, 100) as i64;
    KernelBuilder::new(name)
        .input("in", U32)
        .output("out", U32)
        .local("x", U32)
        .array("buf", U32, n.max(1))
        .body([
            Stmt::for_loop(
                "i",
                0..n as i64,
                [
                    Stmt::read("x", "in"),
                    Stmt::for_loop(
                        "j",
                        0..inner as i64,
                        [Stmt::assign("x", Expr::var("x").add(Expr::cint(c)))],
                    ),
                    Stmt::store("buf", Expr::var("i"), Expr::var("x")),
                ],
            ),
            Stmt::for_loop(
                "i",
                0..n as i64,
                [
                    Stmt::assign("x", Expr::index("buf", Expr::var("i"))),
                    Stmt::for_loop(
                        "j",
                        0..inner as i64,
                        [Stmt::assign("x", Expr::var("x").xor(Expr::var("j")))],
                    ),
                    Stmt::write("out", Expr::var("x")),
                ],
            ),
        ])
        .build()
        .expect("generated two-phase kernel")
}

/// Chain of cheap maps: every adjacent pair is a fusion candidate.
fn tiny_chain(rng: &mut Rng, tokens: u64, max_stages: usize) -> GeneratedApp {
    let stages = rng.range(3, max_stages.max(3) as u64) as usize;
    let mut b = GraphBuilder::new("gen_tiny_chain");
    let ids: Vec<_> = (0..stages)
        .map(|i| {
            let k = map_kernel(rng, &format!("s{i}"), tokens);
            b.add(format!("s{i}"), k, Target::hw_auto())
        })
        .collect();
    b.ext_input("in0", ids[0], "in");
    for (i, w) in ids.windows(2).enumerate() {
        b.connect(format!("e{i}"), w[0], "out", w[1], "in");
    }
    b.ext_output("out0", ids[stages - 1], "out");
    finish(rng, "tiny-chain", b, &[("in0", tokens)])
}

/// Up/downsampling chain with matched rates: channel-sizing bait.
fn rate_chain(rng: &mut Rng, tokens: u64, max_stages: usize) -> GeneratedApp {
    let k = rng.range(2, 4); // resample factor
    let n = tokens.max(k);
    let stages = rng.range(3, max_stages.max(3) as u64) as usize;
    let mut b = GraphBuilder::new("gen_rate_chain");
    // up(k) → maps at k× rate → down(k): interior runs k× hotter than ends.
    let up = b.add("up", upsample_kernel("up", n, k), Target::hw_auto());
    let mut prev = up;
    let mut mids = Vec::new();
    for i in 0..stages.saturating_sub(2).max(1) {
        let m = b.add(
            format!("m{i}"),
            map_kernel(rng, &format!("m{i}"), n * k),
            Target::hw_auto(),
        );
        b.connect(format!("e{i}"), prev, "out", m, "in");
        prev = m;
        mids.push(m);
    }
    let down = b.add("down", downsample_kernel("down", n, k), Target::hw_auto());
    b.connect("e_down", prev, "out", down, "in");
    b.ext_input("in0", up, "in");
    b.ext_output("out0", down, "out");
    finish(rng, "rate-chain", b, &[("in0", n)])
}

/// Split → two unequal branches → join: rewiring stress around fusion. Each
/// branch is a short chain of maps (the light one also ends in a heavy
/// stage's shadow), so fusion has to rewire edges *inside* an arm while the
/// split/join boundary ops stay untouched.
fn diamond(rng: &mut Rng, tokens: u64) -> GeneratedApp {
    let mut b = GraphBuilder::new("gen_diamond");
    let sp = b.add("sp", split_kernel2("sp", tokens), Target::hw_auto());
    let light = rng.range(1, 3) as usize;
    let mut l_prev = sp;
    let mut l_port = "out0";
    for i in 0..light {
        let m = b.add(
            format!("l0_{i}"),
            map_kernel(rng, &format!("l0_{i}"), tokens),
            Target::hw_auto(),
        );
        b.connect(format!("el{i}"), l_prev, l_port, m, "in");
        l_prev = m;
        l_port = "out";
    }
    let inner = rng.range(4, 12);
    let l1 = b.add(
        "l1",
        heavy_kernel(rng, "l1", tokens, inner),
        Target::hw_auto(),
    );
    // The heavy arm also gets a trailing map so both arms exercise fusion.
    let l1b = b.add("l1b", map_kernel(rng, "l1b", tokens), Target::hw_auto());
    let jn = b.add("jn", join_kernel2("jn", tokens), Target::hw_auto());
    b.ext_input("in0", sp, "in");
    b.connect("e1", sp, "out1", l1, "in");
    b.connect("e1b", l1, "out", l1b, "in");
    b.connect("e2", l_prev, l_port, jn, "in0");
    b.connect("e3", l1b, "out", jn, "in1");
    b.ext_output("out0", jn, "out");
    finish(rng, "diamond", b, &[("in0", tokens)])
}

/// One source splitting into independent branches with own outputs; each
/// branch is a short chain of maps, so branches fuse internally without
/// disturbing the shared source.
fn fan_out(rng: &mut Rng, tokens: u64) -> GeneratedApp {
    let mut b = GraphBuilder::new("gen_fan_out");
    let sp = b.add("sp", split_kernel2("sp", tokens), Target::hw_auto());
    b.ext_input("in0", sp, "in");
    for (branch, src_port) in [("c0", "out0"), ("c1", "out1")] {
        let stages = rng.range(2, 4) as usize;
        let mut prev = sp;
        let mut port = src_port;
        for i in 0..stages {
            let name = format!("{branch}_{i}");
            let m = b.add(
                name.clone(),
                map_kernel(rng, &name, tokens),
                Target::hw_auto(),
            );
            b.connect(format!("e_{branch}_{i}"), prev, port, m, "in");
            prev = m;
            port = "out";
        }
        let ext = if branch == "c0" { "out0" } else { "out1" };
        b.ext_output(ext, prev, port);
    }
    finish(rng, "fan-out", b, &[("in0", tokens)])
}

/// A light pre-stage feeding one heavy two-phase bottleneck: fission bait.
fn two_phase(rng: &mut Rng, tokens: u64) -> GeneratedApp {
    let inner = rng.range(8, 24);
    let mut b = GraphBuilder::new("gen_two_phase");
    let pre = b.add("pre", map_kernel(rng, "pre", tokens), Target::hw_auto());
    let tp = b.add(
        "tp",
        two_phase_kernel(rng, "tp", tokens, inner),
        Target::hw_auto(),
    );
    b.ext_input("in0", pre, "in");
    b.connect("e0", pre, "out", tp, "in");
    // A short post-processing chain: the merge pass can absorb it into the
    // two-phase kernel's emit loop (and the pre-stage into its fill loop).
    let post = rng.range(1, 2) as usize;
    let mut prev = tp;
    for i in 0..post {
        let name = format!("post{i}");
        let m = b.add(
            name.clone(),
            map_kernel(rng, &name, tokens),
            Target::hw_auto(),
        );
        b.connect(format!("ep{i}"), prev, "out", m, "in");
        prev = m;
    }
    b.ext_output("out0", prev, "out");
    finish(rng, "two-phase", b, &[("in0", tokens)])
}

/// Random mix of cheap and heavy stages in one chain.
fn mixed_chain(rng: &mut Rng, tokens: u64, max_stages: usize) -> GeneratedApp {
    let stages = rng.range(3, max_stages.max(3) as u64) as usize;
    let mut b = GraphBuilder::new("gen_mixed_chain");
    let ids: Vec<_> = (0..stages)
        .map(|i| {
            let name = format!("s{i}");
            let k = if rng.below(3) == 0 {
                // Moderate per-token compute: these model streaming operators,
                // which are communication-bound by design (paper Sec. 2) —
                // huge inner loops would turn every app into an interpreter
                // compute benchmark instead.
                let inner = rng.range(4, 16);
                heavy_kernel(rng, &name, tokens, inner)
            } else {
                map_kernel(rng, &name, tokens)
            };
            b.add(name, k, Target::hw_auto())
        })
        .collect();
    b.ext_input("in0", ids[0], "in");
    for (i, w) in ids.windows(2).enumerate() {
        b.connect(format!("e{i}"), w[0], "out", w[1], "in");
    }
    b.ext_output("out0", ids[stages - 1], "out");
    finish(rng, "mixed-chain", b, &[("in0", tokens)])
}

fn finish(
    rng: &mut Rng,
    family: &'static str,
    builder: GraphBuilder,
    input_tokens: &[(&str, u64)],
) -> GeneratedApp {
    let graph = builder.build().expect("generated graph validates");
    let inputs = input_tokens
        .iter()
        .map(|(name, n)| ((*name).to_string(), stream(rng, *n)))
        .collect();
    GeneratedApp {
        family,
        graph,
        inputs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_graph;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.family, b.family);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.inputs, b.inputs);
    }

    #[test]
    fn every_family_generates_runs_and_drains() {
        for family in FAMILIES {
            for seed in 0..4u64 {
                let cfg = GenConfig {
                    seed,
                    tokens: 48,
                    max_stages: 5,
                };
                let app = generate_family(&cfg, family).unwrap();
                let inputs = app.input_refs();
                let (exec_out, _) = run_graph(&app.graph, &inputs)
                    .unwrap_or_else(|e| panic!("{family} seed {seed}: {e:?}"));
                // Every declared output produced something.
                for p in &app.graph.ext_outputs {
                    assert!(!exec_out[&p.name].is_empty(), "{family}:{}", p.name);
                }
            }
        }
    }

    #[test]
    fn population_covers_all_families() {
        let pop = population(&GenConfig::default(), 2);
        assert_eq!(pop.len(), FAMILIES.len() * 2);
        for family in FAMILIES {
            assert!(pop.iter().any(|a| a.family == *family));
        }
    }
}
