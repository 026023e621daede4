//! The backends' products, pinned operator by operator.
//!
//! Every operator of the six Rosetta apps (at `Tiny` and `Small` scale) and
//! of one generated population (one replicate of each family) is compiled
//! by `hlsim::compile` and `softcore::compile_kernel`. Each product is
//! reduced to an FNV-1a fingerprint over its public fields:
//!
//! * HLS: the netlist's cell names and kinds and its nets' drivers, sinks
//!   and widths, the `Schedule`, and the `HlsReport` (floats as bits);
//! * softcore: the `SoftBinary`'s name, code, data init, `mem_bytes`,
//!   intrinsic table, port counts and entry, or the `CcError` when the
//!   compiler rejects the operator.
//!
//! A refactor of either backend must leave every fingerprint in place.

use dfg::generate::{population, GenConfig};
use dfg::Graph;
use hlsim::HlsOutput;
use kir::{BinOp, Scalar, UnOp};
use netlist::CellKind;
use rosetta::{suite, Scale};
use softcore::firmware::Intrinsic;
use softcore::{CcError, SoftBinary};

/// FNV-1a over a stream of fields; every field is framed by its length.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn scalar(&mut self, s: Scalar) {
        match s {
            Scalar::Int { width, signed } => {
                self.u64(0);
                self.u64(u64::from(width));
                self.u64(u64::from(signed));
            }
            Scalar::Fixed {
                width,
                int_bits,
                signed,
            } => {
                self.u64(1);
                self.u64(u64::from(width));
                self.u64(int_bits as i64 as u64);
                self.u64(u64::from(signed));
            }
        }
    }
}

fn cell_kind(h: &mut Fnv, kind: &CellKind) {
    let (tag, a, b) = match *kind {
        CellKind::Adder { width } => (0, u64::from(width), 0),
        CellKind::Mult { width } => (1, u64::from(width), 0),
        CellKind::Divider { width } => (2, u64::from(width), 0),
        CellKind::Logic { width } => (3, u64::from(width), 0),
        CellKind::Shifter { width } => (4, u64::from(width), 0),
        CellKind::Comparator { width } => (5, u64::from(width), 0),
        CellKind::Mux { width } => (6, u64::from(width), 0),
        CellKind::Register { width } => (7, u64::from(width), 0),
        CellKind::BramPort { bits } => (8, bits, 0),
        CellKind::Fsm { states } => (9, u64::from(states), 0),
        CellKind::StreamIn { width } => (10, u64::from(width), 0),
        CellKind::StreamOut { width } => (11, u64::from(width), 0),
        CellKind::FifoBuf { width, depth } => (12, u64::from(width), u64::from(depth)),
        CellKind::Const { width } => (13, u64::from(width), 0),
    };
    h.u64(tag);
    h.u64(a);
    h.u64(b);
}

fn hls_fingerprint(out: &HlsOutput) -> u64 {
    let mut h = Fnv::new();
    let nl = &out.netlist;
    h.str(&nl.name);
    h.u64(nl.cells.len() as u64);
    for c in &nl.cells {
        h.str(&c.name);
        cell_kind(&mut h, &c.kind);
    }
    h.u64(nl.nets.len() as u64);
    for n in &nl.nets {
        h.u64(n.driver.0 as u64);
        h.u64(n.sinks.len() as u64);
        for s in &n.sinks {
            h.u64(s.0 as u64);
        }
        h.u64(u64::from(n.width));
    }

    let s = &out.schedule;
    h.u64(s.loops.len() as u64);
    for l in &s.loops {
        h.str(&l.var);
        for v in [l.trips, l.depth, l.ii, u64::from(l.pipelined), l.cycles] {
            h.u64(v);
        }
    }
    h.u64(s.total_cycles);
    h.u64(s.overlay_cycles);

    let r = &out.report;
    h.str(&r.name);
    for v in [
        r.resources.luts,
        r.resources.ffs,
        r.resources.bram18,
        r.resources.dsp,
        r.cells as u64,
        r.nets as u64,
    ] {
        h.u64(v);
    }
    h.f64(r.intrinsic_ns);
    for v in [r.top_ii, r.invocation_cycles, r.overlay_cycles] {
        h.u64(v);
    }
    for words in [&r.input_words, &r.output_words] {
        h.u64(words.len() as u64);
        for (port, n) in words {
            h.str(port);
            h.u64(*n);
        }
    }
    h.u64(r.hls_work);
    h.0
}

fn bin_op(op: BinOp) -> u64 {
    use BinOp::*;
    [
        Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Eq, Ne, Lt, Le, Gt, Ge, LAnd, LOr, Min,
        Max,
    ]
    .iter()
    .position(|&o| o == op)
    .expect("every operator is listed") as u64
}

fn un_op(op: UnOp) -> u64 {
    match op {
        UnOp::Neg => 0,
        UnOp::Not => 1,
        UnOp::LNot => 2,
        UnOp::Abs => 3,
    }
}

fn intrinsic(h: &mut Fnv, i: &Intrinsic) {
    match *i {
        Intrinsic::Bin { op, lhs, rhs } => {
            h.u64(0);
            h.u64(bin_op(op));
            h.scalar(lhs);
            h.scalar(rhs);
        }
        Intrinsic::Un { op, arg } => {
            h.u64(1);
            h.u64(un_op(op));
            h.scalar(arg);
        }
        Intrinsic::Cast { from, to } => {
            h.u64(2);
            h.scalar(from);
            h.scalar(to);
        }
        Intrinsic::Select { cond, t, e } => {
            h.u64(3);
            h.scalar(cond);
            h.scalar(t);
            h.scalar(e);
        }
        Intrinsic::BitRange { arg, hi, lo } => {
            h.u64(4);
            h.scalar(arg);
            h.u64(u64::from(hi));
            h.u64(u64::from(lo));
        }
    }
}

fn softcore_fingerprint(bin: &Result<SoftBinary, CcError>) -> u64 {
    let mut h = Fnv::new();
    match bin {
        Ok(b) => {
            h.u64(0);
            h.str(&b.name);
            h.u64(b.code.len() as u64);
            for w in &b.code {
                h.u64(u64::from(*w));
            }
            h.u64(b.data_init.len() as u64);
            for (addr, bytes) in &b.data_init {
                h.u64(u64::from(*addr));
                h.bytes(bytes);
            }
            h.u64(u64::from(b.mem_bytes));
            h.u64(b.intrinsics.len() as u64);
            for i in &b.intrinsics {
                intrinsic(&mut h, i);
            }
            for v in [b.in_ports, b.out_ports, b.entry] {
                h.u64(u64::from(v));
            }
        }
        Err(CcError::Invalid(e)) => {
            h.u64(1);
            h.str(&e.to_string());
        }
        Err(CcError::CodeTooLarge { words }) => {
            h.u64(2);
            h.u64(*words as u64);
        }
        Err(CcError::MemoryTooLarge { bytes }) => {
            h.u64(3);
            h.u64(*bytes);
        }
    }
    h.0
}

/// `(app/operator, HLS fingerprint, softcore fingerprint)` for every
/// operator the test covers, in a fixed order.
fn fingerprints() -> Vec<(String, u64, u64)> {
    let mut graphs: Vec<(String, Graph)> = Vec::new();
    for (tag, scale) in [("tiny", Scale::Tiny), ("small", Scale::Small)] {
        for b in suite(scale) {
            graphs.push((format!("{tag}/{}", b.name), b.graph));
        }
    }
    for (i, app) in population(&GenConfig::default(), 1).into_iter().enumerate() {
        graphs.push((format!("gen{i}/{}", app.family), app.graph));
    }
    let mut rows = Vec::new();
    for (app, graph) in &graphs {
        for op in &graph.operators {
            let hls = hlsim::compile(&op.kernel).expect("every operator validates");
            let soft = softcore::compile_kernel(&op.kernel);
            rows.push((
                format!("{app}/{}", op.name),
                hls_fingerprint(&hls),
                softcore_fingerprint(&soft),
            ));
        }
    }
    rows
}

const PINNED: &[(&str, u64, u64)] = &[
    (
        "tiny/3D Rendering/projection",
        0xb3444ec09db48118,
        0x2423f9327caf4a55,
    ),
    (
        "tiny/3D Rendering/rasterization",
        0x8fa677befa7e77ad,
        0x5e602e3598fe3c6c,
    ),
    (
        "tiny/3D Rendering/zbuffer",
        0x23a9e237503be093,
        0xf376a4b785bf59a9,
    ),
    (
        "tiny/Digit Recognition/knn_stage_0",
        0xec4096a60496f499,
        0x3648f6ac678ea808,
    ),
    (
        "tiny/Digit Recognition/knn_stage_1",
        0x082925fd2b7e119d,
        0x2c7c3d9453714c58,
    ),
    (
        "tiny/Digit Recognition/classify",
        0xfc9a2296d45116b8,
        0xacd8757555639f9e,
    ),
    (
        "tiny/Spam Filter/scatter",
        0xeb371f29bbb7532f,
        0xe5f7232b592153ce,
    ),
    (
        "tiny/Spam Filter/reduce",
        0xe01c48c0aab71a5a,
        0x89e9bbd82c19a4b5,
    ),
    (
        "tiny/Spam Filter/dot_0",
        0xea7ccd5fc71ce71e,
        0xfc566982be7f9159,
    ),
    (
        "tiny/Spam Filter/dot_1",
        0x8899ef7a24bf79bc,
        0x4ed44d3ea0bad6f6,
    ),
    (
        "tiny/Spam Filter/dot_2",
        0xbb5b646434c46066,
        0xe45616e7d8d34844,
    ),
    (
        "tiny/Spam Filter/dot_3",
        0x5abc0c77c84b0720,
        0x1077a553362b3679,
    ),
    (
        "tiny/Optical Flow/unpack",
        0x2063a85fdb576baf,
        0x8ef8788907559a3f,
    ),
    (
        "tiny/Optical Flow/grad_xy",
        0xbd7d1d51768104e0,
        0x8dd13ecf2d3cf1ba,
    ),
    (
        "tiny/Optical Flow/grad_z",
        0xd42912c03d27cda3,
        0xf0626525bc1595ff,
    ),
    (
        "tiny/Optical Flow/weight_y",
        0x70b6b430a0a95a79,
        0x3764803470292930,
    ),
    (
        "tiny/Optical Flow/tensor_y",
        0x95ee1186babf67e6,
        0xe3a16228c48f4b68,
    ),
    (
        "tiny/Optical Flow/tensor_x",
        0x7edb778671dc405f,
        0x65c3463c94324cc8,
    ),
    (
        "tiny/Optical Flow/flow_calc",
        0x94668506af1e4e23,
        0x640db4ccf3bb7e38,
    ),
    (
        "tiny/Face Detection/integral",
        0x8c80b4e823edf870,
        0x03be75e06535e806,
    ),
    (
        "tiny/Face Detection/strong_a",
        0x2c1a8e7cfbdbc694,
        0x2393fb7464fcd2ec,
    ),
    (
        "tiny/Face Detection/strong_b",
        0xdb5b75f9aa0f54d3,
        0x2c5312ee191b8ef8,
    ),
    (
        "tiny/Face Detection/weak_a",
        0x936f12f86d8fe269,
        0x30375294a1335c60,
    ),
    (
        "tiny/Face Detection/weak_b",
        0xadc063b1be1fcd48,
        0x087cdf1f84ce519c,
    ),
    (
        "tiny/Binary NN/conv1",
        0x801fcc1a840254aa,
        0x333187c5091b3c52,
    ),
    (
        "tiny/Binary NN/pool",
        0x17cebfd643de0756,
        0x4dfa01c6ffbd92d3,
    ),
    (
        "tiny/Binary NN/conv2",
        0x93a652c5d8119360,
        0x3269e0805f677c4e,
    ),
    ("tiny/Binary NN/fc1", 0x9d171e3ab0755c21, 0xd933e872fcf1a4ae),
    ("tiny/Binary NN/fc2", 0xbecc0e0a902c7c5f, 0x81ca4ad7fbc84ecf),
    (
        "tiny/Binary NN/argmax",
        0x14c9296cfa88b9bd,
        0xfbb4d61f8f080bb0,
    ),
    (
        "small/3D Rendering/projection",
        0xfad20be9db2127b0,
        0xee747dfcd1fc41be,
    ),
    (
        "small/3D Rendering/rasterization",
        0xacf6a4efed750a6b,
        0x926f78f232f2fcde,
    ),
    (
        "small/3D Rendering/zbuffer",
        0x19709461a2430a21,
        0x924f38110e96440e,
    ),
    (
        "small/Digit Recognition/knn_stage_0",
        0xef96d2a4bbe9cfbe,
        0x8ebf59cd077a02fd,
    ),
    (
        "small/Digit Recognition/knn_stage_1",
        0xe9811d5eb40a9966,
        0xa9bcb490df1348d0,
    ),
    (
        "small/Digit Recognition/knn_stage_2",
        0x2ff33a8556109816,
        0x6ce6f6e16c621d6e,
    ),
    (
        "small/Digit Recognition/knn_stage_3",
        0x84ebbe4cf8511ade,
        0xa7f6c73fb1f629e1,
    ),
    (
        "small/Digit Recognition/classify",
        0x13f2a13f4a61b21c,
        0x8500d8b3e22ef25e,
    ),
    (
        "small/Spam Filter/scatter",
        0xa584c6051ab3360b,
        0x295791b6f0cb310d,
    ),
    (
        "small/Spam Filter/reduce",
        0x3526add1ea968ada,
        0x31bdd2462ba787c6,
    ),
    (
        "small/Spam Filter/dot_0",
        0x6a2b4b9fb76389e8,
        0x2378fb997ef4e04b,
    ),
    (
        "small/Spam Filter/dot_1",
        0x06067982555b2bfe,
        0x804f2d11c843393a,
    ),
    (
        "small/Spam Filter/dot_2",
        0x0e41302746838d4c,
        0x394357e707531ba9,
    ),
    (
        "small/Spam Filter/dot_3",
        0xfaadb77994de0cb6,
        0x5c012fb871235dd2,
    ),
    (
        "small/Optical Flow/unpack",
        0xaec65e7d2a49d7d9,
        0x50138b3d127c6837,
    ),
    (
        "small/Optical Flow/grad_xy",
        0x70e95698f2357e8e,
        0x354c578bbc5a280c,
    ),
    (
        "small/Optical Flow/grad_z",
        0x220aabfbaa96c9af,
        0xa2e3d3f551a0ac07,
    ),
    (
        "small/Optical Flow/weight_y",
        0x5e26fa7a993d0e63,
        0x75131d9733422b98,
    ),
    (
        "small/Optical Flow/tensor_y",
        0x3af2cf3d90f8eddf,
        0xcc4f46bf2c19beeb,
    ),
    (
        "small/Optical Flow/tensor_x",
        0x6c91b4808ad9739e,
        0x2bbe77e73fea60c0,
    ),
    (
        "small/Optical Flow/flow_calc",
        0xc9b8abf57c0e9c43,
        0xe6afbcd0f2676652,
    ),
    (
        "small/Face Detection/integral",
        0xabae4a623884cfbe,
        0xc0d4499fc0c6b44c,
    ),
    (
        "small/Face Detection/strong_a",
        0x0cf7bb750c5a7d37,
        0x969fdc1d8ae7831e,
    ),
    (
        "small/Face Detection/strong_b",
        0x01705ecba452c3bc,
        0x205c7ac0fd8cb6aa,
    ),
    (
        "small/Face Detection/weak_a",
        0x20e072e5fc76de11,
        0x670612961b58d842,
    ),
    (
        "small/Face Detection/weak_b",
        0xa3eb8315a94cc6f5,
        0xf70ad53622aba4da,
    ),
    (
        "small/Binary NN/conv1",
        0xb19eeb87245bf624,
        0x3134f3462e441772,
    ),
    (
        "small/Binary NN/pool",
        0xf42b64553b4da09a,
        0x68ee6a03314b49b3,
    ),
    (
        "small/Binary NN/conv2",
        0x2f30fd165167fc31,
        0x7c8a6ddb55b465ee,
    ),
    (
        "small/Binary NN/fc1",
        0xfe31880e1143c0f4,
        0x0335c452ed5ff60e,
    ),
    (
        "small/Binary NN/fc2",
        0x63c2f81255cfb9c5,
        0x2f0853f089e4be6f,
    ),
    (
        "small/Binary NN/argmax",
        0x0c469c5a55ca41fb,
        0x33c3965dc4583bd0,
    ),
    ("gen0/tiny-chain/s0", 0xb05abe55ba304143, 0x93c26934addd66c7),
    ("gen0/tiny-chain/s1", 0x0f249d12dca118c6, 0x1282c71342126331),
    ("gen0/tiny-chain/s2", 0xf7adc94a25949f82, 0xa43ea479155f4f68),
    ("gen1/rate-chain/up", 0x9b22e1ea702409f9, 0x1594afc5ff852d0a),
    ("gen1/rate-chain/m0", 0x4f716bceda440f74, 0xaf1f750478567be7),
    (
        "gen1/rate-chain/down",
        0x81e4c7e87658e80a,
        0xa356e95c1b95cb52,
    ),
    ("gen2/diamond/sp", 0xa206975ea38f8153, 0x8be71a00ac33f58f),
    ("gen2/diamond/l0_0", 0x9a0b52bb03fbe38f, 0x851e8515390dcd96),
    ("gen2/diamond/l0_1", 0xe61ceb1d901f2668, 0x049921eaf09e0f55),
    ("gen2/diamond/l0_2", 0x8c10db9f370ceacf, 0x0066b158e5e003b2),
    ("gen2/diamond/l1", 0x9edd714588c35161, 0x200c05662376021c),
    ("gen2/diamond/l1b", 0x4b9df424aee2835e, 0x78194aceec8a9837),
    ("gen2/diamond/jn", 0x5b95f987d75fa659, 0x4f29a4b31c6ba3bf),
    ("gen3/fan-out/sp", 0xa206975ea38f8153, 0x8be71a00ac33f58f),
    ("gen3/fan-out/c0_0", 0x6b511394f83a05d7, 0xf27e923720efd14b),
    ("gen3/fan-out/c0_1", 0x0036d457ed235914, 0x2f3b3c2d926c187f),
    ("gen3/fan-out/c0_2", 0x152b39b63aa91de2, 0x4e067a0738e40148),
    ("gen3/fan-out/c1_0", 0xe3ea57f830aabc4e, 0xa00787c36b824d14),
    ("gen3/fan-out/c1_1", 0xca0a22c29a108bfc, 0x41d37a0facc5a70f),
    ("gen4/two-phase/pre", 0x9d516380f7b6acce, 0x9a9b67787c11906b),
    ("gen4/two-phase/tp", 0x7884eb4ca6e88dba, 0x7ef903c0fe1d1c57),
    (
        "gen4/two-phase/post0",
        0xf2721f375a4f96a9,
        0x0cd4bcbf7544bc75,
    ),
    (
        "gen5/mixed-chain/s0",
        0x1e4381f2ec068870,
        0x832f730a1fe7ae28,
    ),
    (
        "gen5/mixed-chain/s1",
        0xc23c42a468ef64bc,
        0x3c91160f0a57d448,
    ),
    (
        "gen5/mixed-chain/s2",
        0x24b011bc815ae7e9,
        0x17717b2af4456d7e,
    ),
    (
        "gen5/mixed-chain/s3",
        0xa72193a286f3c51e,
        0xe72df7f23520af17,
    ),
    (
        "gen5/mixed-chain/s4",
        0x3f5616630efeba5b,
        0x3fd985cc2ffed2a7,
    ),
    (
        "gen5/mixed-chain/s5",
        0xb0468df1d52c58a6,
        0x0158b5f631671741,
    ),
];

#[test]
fn backend_products_match_their_pins() {
    let got = fingerprints();
    let mismatches: Vec<String> = got
        .iter()
        .zip(PINNED.iter().map(Some).chain(std::iter::repeat(None)))
        .filter(|((name, hls, soft), pin)| *pin != Some(&(name.as_str(), *hls, *soft)))
        .map(|((name, hls, soft), _)| format!("    ({name:?}, {hls:#018x}, {soft:#018x}),"))
        .collect();
    assert!(
        mismatches.is_empty() && got.len() == PINNED.len(),
        "{} of {} operators differ from their pins ({} pinned):\n{}",
        mismatches.len(),
        got.len(),
        PINNED.len(),
        mismatches.join("\n")
    );
}
