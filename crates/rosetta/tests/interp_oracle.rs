//! The kernel interpreter's typed engine (`kir::interp::Resolved`) against
//! its oracle, the tree walker (`kir::interp::run_reference`): outputs,
//! `InterpStats` and `InterpError`s must agree bit for bit.
//!
//! Covered: a seeded expression fuzzer over every operator at the width
//! corners with mixed `ap_fixed` shapes, kernels from every `dfg::generate`
//! family, the six Rosetta kernels on their traced streams, and every error
//! path — out-of-bounds, underflow, and budget exhaustion at every budget
//! from zero to the kernel's op count.

use std::collections::VecDeque;

use aplib::{DynFixed, DynInt};
use dfg::generate::{generate_family, GenConfig, FAMILIES};
use dfg::Rng;
use kir::interp::{run_reference, InterpError, InterpStats, IoError, KernelIo, Resolved};
use kir::ops::result_type;
use kir::{BinOp, Expr, Kernel, KernelBuilder, Scalar, Stmt, UnOp, Value};
use proptest::prelude::*;

/// Batch transport: inputs staged up front, outputs collected.
struct Tape {
    inputs: Vec<VecDeque<Value>>,
    outputs: Vec<Vec<Value>>,
}

impl KernelIo for Tape {
    fn read(&mut self, port: usize) -> Result<Value, IoError> {
        self.inputs[port].pop_front().ok_or(IoError::Underflow)
    }

    fn write(&mut self, port: usize, value: Value) {
        self.outputs[port].push(value);
    }
}

/// Everything a run can observe: the result, what was written, and how
/// many tokens each input has left.
type Outcome = (
    Result<InterpStats, InterpError>,
    Vec<Vec<Value>>,
    Vec<usize>,
);

fn tape(kernel: &Kernel, inputs: &[Vec<Value>]) -> Tape {
    Tape {
        inputs: inputs.iter().map(|s| s.iter().copied().collect()).collect(),
        outputs: vec![Vec::new(); kernel.outputs.len()],
    }
}

fn outcome(result: Result<InterpStats, InterpError>, io: Tape) -> Outcome {
    (
        result,
        io.outputs,
        io.inputs.iter().map(VecDeque::len).collect(),
    )
}

/// Runs both engines and asserts they agree.
fn agree(kernel: &Kernel, inputs: &[Vec<Value>], budget: u64) -> Outcome {
    let resolved = Resolved::new(kernel);
    let mut io = tape(kernel, inputs);
    let fast = outcome(resolved.run_with_io(&mut io, budget), io);
    let mut io = tape(kernel, inputs);
    let oracle = outcome(run_reference(kernel, &mut io, budget), io);
    assert_eq!(
        fast, oracle,
        "typed engine and oracle disagree on `{}` (budget {budget})",
        kernel.name
    );
    fast
}

/// Full run, then — unless it executes more than `sweep_limit` ops — every
/// budget from zero until the run no longer ends on the budget.
fn agree_everywhere(kernel: &Kernel, inputs: &[Vec<Value>], sweep_limit: u64) {
    let (full, _, _) = agree(kernel, inputs, u64::MAX);
    if matches!(full, Ok(stats) if stats.ops > sweep_limit) {
        return;
    }
    for budget in 0.. {
        let (Err(InterpError::OpBudgetExceeded { .. }), _, _) = agree(kernel, inputs, budget)
        else {
            break;
        };
    }
}

// ---------------------------------------------------------------------------
// Expression fuzzer
// ---------------------------------------------------------------------------

const WIDTHS: [u32; 10] = [1, 7, 31, 32, 33, 63, 64, 65, 127, 128];

const BIN_OPS: [BinOp; 20] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::LAnd,
    BinOp::LOr,
    BinOp::Min,
    BinOp::Max,
];

const UN_OPS: [UnOp; 4] = [UnOp::Neg, UnOp::Not, UnOp::LNot, UnOp::Abs];

fn pick<T: Copy>(rng: &mut Rng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

fn int_shape(rng: &mut Rng) -> Scalar {
    Scalar::Int {
        width: pick(rng, &WIDTHS),
        signed: rng.below(2) == 0,
    }
}

/// An integer or fixed-point shape. Fixed shapes mix the paper's
/// `ap_fixed<32,17>` with negative, zero and beyond-width integer parts.
fn shape(rng: &mut Rng) -> Scalar {
    if rng.below(2) == 0 {
        return int_shape(rng);
    }
    let width = pick(rng, &WIDTHS);
    let int_bits = match rng.below(6) {
        0 => 17.min(width as i32),
        1 => -(rng.below(8) as i32),
        2 => width as i32 + rng.below(4) as i32,
        _ => rng.below(u64::from(width) + 1) as i32,
    };
    Scalar::Fixed {
        width,
        int_bits,
        signed: rng.below(3) != 0,
    }
}

/// A raw pattern biased toward the corners: zero, one, all ones, the top
/// bit alone, the largest positive, or noise.
fn raw(rng: &mut Rng, width: u32) -> u128 {
    let noise = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
    let top = 1u128 << (width - 1);
    let v = match rng.below(7) {
        0 => 0,
        1 => 1,
        2 => u128::MAX,
        3 => top,
        4 => top - 1,
        5 => noise & 0xff,
        _ => noise,
    };
    aplib::wrap_to_width(v, width)
}

fn value(rng: &mut Rng, ty: Scalar) -> Value {
    let r = raw(rng, ty.width());
    match ty {
        Scalar::Int { width, signed } => Value::Int(DynInt::from_raw(width, signed, r)),
        Scalar::Fixed {
            width,
            int_bits,
            signed,
        } => Value::Fixed(DynFixed::from_raw(width, int_bits, signed, r)),
    }
}

/// Builds random well-typed expressions over the fuzz kernel's locals and
/// its one array, tracking each node's shape so integer-only operators only
/// ever see integers.
struct Fuzzer<'a> {
    rng: Rng,
    locals: &'a [(String, Scalar)],
    array: (&'a str, Scalar),
}

impl Fuzzer<'_> {
    fn as_int(&mut self, (e, ty): (Expr, Scalar)) -> (Expr, Scalar) {
        if ty.is_fixed() {
            let to = int_shape(&mut self.rng);
            (e.cast(to), to)
        } else {
            (e, ty)
        }
    }

    fn leaf(&mut self) -> (Expr, Scalar) {
        if self.rng.below(3) == 0 {
            let ty = shape(&mut self.rng);
            let raw = raw(&mut self.rng, ty.width()) as i128;
            (Expr::cint_ty(raw, ty), ty)
        } else {
            let (name, ty) = &self.locals[self.rng.below(self.locals.len() as u64) as usize];
            (Expr::var(name.clone()), *ty)
        }
    }

    fn expr(&mut self, depth: u32) -> (Expr, Scalar) {
        if depth == 0 || self.rng.below(5) == 0 {
            return self.leaf();
        }
        match self.rng.below(12) {
            0..=5 => {
                let op = pick(&mut self.rng, &BIN_OPS);
                let int_only = matches!(
                    op,
                    BinOp::Rem | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr
                );
                let mut l = self.expr(depth - 1);
                let mut r = self.expr(depth - 1);
                if int_only {
                    l = self.as_int(l);
                    r = self.as_int(r);
                }
                let ty = result_type(op, l.1, r.1);
                (
                    Expr::Bin {
                        op,
                        lhs: Box::new(l.0),
                        rhs: Box::new(r.0),
                    },
                    ty,
                )
            }
            6 => {
                let op = pick(&mut self.rng, &UN_OPS);
                let mut a = self.expr(depth - 1);
                if op == UnOp::Not {
                    a = self.as_int(a);
                }
                let ty = kir::ops::result_type_un(op, a.1);
                (
                    Expr::Un {
                        op,
                        arg: Box::new(a.0),
                    },
                    ty,
                )
            }
            7 | 8 => {
                let (a, _) = self.expr(depth - 1);
                let ty = shape(&mut self.rng);
                (a.cast(ty), ty)
            }
            9 => {
                let (c, _) = self.expr(depth - 1);
                let (t, tt) = self.expr(depth - 1);
                let (e, et) = self.expr(depth - 1);
                (c.select(t, e), kir::ops::select_type(tt, et))
            }
            10 => {
                let (a, ty) = self.expr(depth - 1);
                let w = ty.width();
                let lo = self.rng.below(u64::from(w)) as u32;
                let hi = lo + self.rng.below(u64::from(w - lo)) as u32;
                (a.bits(hi, lo), Scalar::uint(hi - lo + 1))
            }
            _ => {
                // Mostly in range for the 24-element array; 24..32 is not.
                let index = self.expr(depth - 1);
                let (i, _) = self.as_int(index);
                let (name, elem) = self.array;
                (Expr::index(name, i.cast(Scalar::uint(5))), elem)
            }
        }
    }
}

/// A kernel exercising every statement kind on fuzzed expressions: reads
/// that coerce port shapes into local shapes, assignments, array stores,
/// conditional writes and writes that coerce into port shapes.
fn fuzz_kernel(seed: u64) -> Option<(Kernel, Vec<Vec<Value>>)> {
    let mut rng = Rng::new(seed);
    let locals: Vec<(String, Scalar)> =
        (0..3).map(|i| (format!("v{i}"), shape(&mut rng))).collect();
    let port_shapes: Vec<Scalar> = (0..3).map(|_| shape(&mut rng)).collect();
    let outs = [shape(&mut rng), shape(&mut rng)];
    let elem = shape(&mut rng);
    let trips = 1 + rng.below(3) as i64;
    let mut fz = Fuzzer {
        rng: Rng::new(seed ^ 0x5eed),
        locals: &locals,
        array: ("mem", elem),
    };
    let depth = 1 + fz.rng.below(4) as u32;
    let mut body: Vec<Stmt> = (0..3)
        .map(|i| Stmt::read(format!("v{i}"), format!("in{i}")))
        .collect();
    let target = pick(&mut fz.rng, &["v0", "v1", "v2"]);
    body.push(Stmt::assign(target, fz.expr(depth).0));
    let index = fz.expr(depth);
    let (index, _) = fz.as_int(index);
    body.push(Stmt::store(
        "mem",
        index.cast(Scalar::uint(5)),
        fz.expr(depth).0,
    ));
    let cond = fz.expr(depth).0;
    body.push(Stmt::if_else(
        cond,
        [Stmt::write("out0", fz.expr(depth).0)],
        [Stmt::write("out1", fz.expr(depth).0)],
    ));
    body.push(Stmt::write("out0", fz.expr(depth).0));

    let mut b = KernelBuilder::new(format!("fuzz{seed:x}"));
    for (i, ty) in port_shapes.iter().enumerate() {
        b = b.input(format!("in{i}"), *ty);
    }
    b = b.output("out0", outs[0]).output("out1", outs[1]);
    for (name, ty) in &locals {
        b = b.local(name.clone(), *ty);
    }
    let init: Vec<u128> = (0..24).map(|_| raw(&mut rng, elem.width())).collect();
    let kernel = b
        .array_init("mem", elem, init)
        .body([Stmt::for_loop("t", 0..trips, body)])
        .build()
        .ok()?;
    let inputs = port_shapes
        .iter()
        .map(|&ty| (0..trips).map(|_| value(&mut rng, ty)).collect())
        .collect();
    Some((kernel, inputs))
}

// ---------------------------------------------------------------------------
// Operator table: every operator on every pair of corner shapes
// ---------------------------------------------------------------------------

/// The corner shapes: every fuzz width, signed and unsigned, and fixed
/// shapes whose binary point sits inside, left of and far right of the
/// word, down to shifts of 128 bits or more.
fn corner_shapes() -> Vec<Scalar> {
    let mut shapes: Vec<Scalar> = WIDTHS
        .iter()
        .flat_map(|&w| [Scalar::int(w), Scalar::uint(w)])
        .collect();
    shapes.extend([
        Scalar::fixed(32, 17),
        Scalar::fixed(16, 4),
        Scalar::ufixed(16, 8),
        Scalar::fixed(8, -2),
        Scalar::fixed(12, 14),
        Scalar::fixed(1, 1),
        Scalar::ufixed(33, 33),
        Scalar::fixed(65, 3),
        Scalar::fixed(128, 64),
        Scalar::ufixed(128, 1),
        Scalar::fixed(8, 140),
        Scalar::ufixed(64, -70),
    ]);
    shapes
}

fn of_raw(ty: Scalar, raw: u128) -> Value {
    match ty {
        Scalar::Int { width, signed } => Value::Int(DynInt::from_raw(width, signed, raw)),
        Scalar::Fixed {
            width,
            int_bits,
            signed,
        } => Value::Fixed(DynFixed::from_raw(width, int_bits, signed, raw)),
    }
}

/// Zero, one, all ones, the top bit alone, the largest positive and two
/// alternating patterns.
fn corner_values(ty: Scalar) -> Vec<Value> {
    let top = 1u128 << (ty.width() - 1);
    [
        0,
        1,
        u128::MAX,
        top,
        top - 1,
        0x5a5a_5a5a << 40 | 0x5a5a,
        u128::MAX / 3,
    ]
    .into_iter()
    .map(|raw| of_raw(ty, raw))
    .collect()
}

fn int_only(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Rem | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr
    )
}

/// Every pair of corner values of `a` and `b`, as two streams.
fn corner_pairs(a: Scalar, b: Scalar) -> Vec<Vec<Value>> {
    let (va, vb) = (corner_values(a), corner_values(b));
    let pairs: Vec<(Value, Value)> = va
        .iter()
        .flat_map(|&x| vb.iter().map(move |&y| (x, y)))
        .collect();
    vec![
        pairs.iter().map(|p| p.0).collect(),
        pairs.iter().map(|p| p.1).collect(),
    ]
}

/// A kernel reading one token per input port per iteration and writing
/// each expression to its own output of the expression's shape, so no
/// coercion hides a bit.
fn probe_kernel(name: String, inputs: &[(&str, Scalar)], outs: Vec<(Expr, Scalar)>) -> Kernel {
    let mut b = KernelBuilder::new(name);
    let mut body = Vec::new();
    for &(port, ty) in inputs {
        let var = port.to_uppercase();
        b = b.input(port, ty).local(var.clone(), ty);
        body.push(Stmt::read(var, port));
    }
    for (i, (e, ty)) in outs.into_iter().enumerate() {
        b = b.output(format!("o{i}"), ty);
        body.push(Stmt::write(format!("o{i}"), e));
    }
    b.body([Stmt::for_loop("t", 0..1 << 20, body)])
        .build()
        .unwrap()
}

/// Runs a probe kernel until its inputs run dry: the underflow that ends
/// it must match too.
fn probe(kernel: &Kernel, inputs: &[Vec<Value>]) {
    let (result, _, _) = agree(kernel, inputs, u64::MAX);
    assert!(matches!(result, Err(InterpError::StreamUnderflow { .. })));
}

/// Every binary operator the validator admits on `a` and `b`, over every
/// pair of corner values.
fn binary_kernels(a: Scalar, b: Scalar) -> Vec<(Kernel, Vec<Vec<Value>>)> {
    let bin = |op| {
        let e = Expr::Bin {
            op,
            lhs: Box::new(Expr::var("A")),
            rhs: Box::new(Expr::var("B")),
        };
        (e, result_type(op, a, b))
    };
    let ports = [("a", a), ("b", b)];
    let (shifts, rest): (Vec<BinOp>, Vec<BinOp>) = BIN_OPS
        .iter()
        .filter(|&&op| !(int_only(op) && (a.is_fixed() || b.is_fixed())))
        .partition(|&&op| matches!(op, BinOp::Shl | BinOp::Shr));
    let mut kernels = vec![(
        probe_kernel(
            format!("bin_{a}_{b}"),
            &ports,
            rest.into_iter().map(bin).collect(),
        ),
        corner_pairs(a, b),
    )];
    if !shifts.is_empty() {
        kernels.push((
            probe_kernel(
                format!("shift_{a}_{b}"),
                &ports,
                shifts.into_iter().map(bin).collect(),
            ),
            corner_pairs(a, b),
        ));
    }
    kernels
}

/// `c ? x : y` for both conditions over every pair of corner values (the
/// arms of a mixed mux convert to fixed point).
fn select_kernel(a: Scalar, b: Scalar) -> (Kernel, Vec<Vec<Value>>) {
    let mut inputs = corner_pairs(a, b);
    let n = inputs[0].len();
    for s in &mut inputs {
        s.extend_from_within(..);
    }
    inputs.push(
        (0..2 * n)
            .map(|i| of_raw(Scalar::uint(1), (i / n) as u128))
            .collect(),
    );
    let e = Expr::var("C").select(Expr::var("A"), Expr::var("B"));
    let outs = vec![(e, kir::ops::select_type(a, b))];
    let ports = [("a", a), ("b", b), ("c", Scalar::uint(1))];
    (probe_kernel(format!("sel_{a}_{b}"), &ports, outs), inputs)
}

/// Every unary operator and four bit ranges of `a`; then every cast.
fn unary_kernels(a: Scalar, targets: &[Scalar]) -> Vec<(Kernel, Vec<Vec<Value>>)> {
    let x = || Expr::var("A");
    let w = a.width();
    let mut outs: Vec<(Expr, Scalar)> = UN_OPS
        .iter()
        .filter(|&&op| !(op == UnOp::Not && a.is_fixed()))
        .map(|&op| {
            let e = Expr::Un {
                op,
                arg: Box::new(x()),
            };
            (e, kir::ops::result_type_un(op, a))
        })
        .collect();
    for (hi, lo) in [(w - 1, 0), (w - 1, w - 1), (w / 2, 0), (w - 1, w / 2)] {
        outs.push((x().bits(hi, lo), Scalar::uint(hi - lo + 1)));
    }
    let casts = targets.iter().map(|&t| (x().cast(t), t)).collect();
    let values = corner_values(a);
    vec![
        (
            probe_kernel(format!("un_{a}"), &[("a", a)], outs),
            vec![values.clone()],
        ),
        (
            probe_kernel(format!("cast_{a}"), &[("a", a)], casts),
            vec![values],
        ),
    ]
}

/// Every operator, cast and bit range on every pair of corner shapes and
/// every pair of corner values: the fuzzer's operator-level floor.
#[test]
fn every_operator_agrees_on_every_corner_shape_pair() {
    let shapes = corner_shapes();
    for &a in &shapes {
        for (kernel, inputs) in unary_kernels(a, &shapes) {
            probe(&kernel, &inputs);
        }
        for &b in &shapes {
            for (kernel, inputs) in binary_kernels(a, b) {
                probe(&kernel, &inputs);
            }
            let (kernel, inputs) = select_kernel(a, b);
            probe(&kernel, &inputs);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fuzzed expressions over every operator and width corner agree, with
    /// full inputs, with inputs cut short (underflow) and at every budget.
    #[test]
    fn fuzzed_kernels_agree(seed in any::<u64>(), cut in any::<u64>()) {
        // Eight kernels per case: the stub generator does not shrink, so
        // breadth per case is cheap.
        for k in 0..8u64 {
            let Some((kernel, inputs)) = fuzz_kernel(seed.wrapping_add(k)) else {
                continue;
            };
            agree_everywhere(&kernel, &inputs, 400);
            let short: Vec<Vec<Value>> = inputs
                .iter()
                .map(|s| s[..(cut as usize + k as usize) % (s.len() + 1)].to_vec())
                .collect();
            let _ = agree(&kernel, &short, u64::MAX);
        }
    }

    /// Every generated family agrees operator by operator on its traced
    /// streams; small apps are swept over every budget.
    #[test]
    fn generated_families_agree(seed in any::<u64>(), tokens in 1u64..24) {
        for family in FAMILIES {
            let cfg = GenConfig { seed, tokens, max_stages: 4 };
            let app = generate_family(&cfg, family).unwrap();
            let (_, _, trace) = dfg::run_graph_trace(&app.graph, &app.input_refs()).unwrap();
            for (op, streams) in app.graph.operators.iter().zip(&trace.op_inputs) {
                agree_everywhere(&op.kernel, streams, 600);
            }
        }
    }
}

/// The six Rosetta kernels agree on the streams they see in a `Small` run.
#[test]
fn rosetta_small_kernels_agree_on_traced_streams() {
    for bench in rosetta::suite(rosetta::Scale::Small) {
        let (_, _, trace) = dfg::run_graph_trace(&bench.graph, &bench.input_refs()).unwrap();
        for (op, streams) in bench.graph.operators.iter().zip(&trace.op_inputs) {
            let got = agree(&op.kernel, streams, u64::MAX);
            assert!(got.0.is_ok(), "{} / {}: {:?}", bench.name, op.name, got.0);
        }
    }
}

/// The error paths the fuzzer reaches by chance, each pinned once.
#[test]
fn every_error_kind_agrees() {
    let k = KernelBuilder::new("errs")
        .input("in", Scalar::uint(32))
        .output("out", Scalar::fixed(32, 17))
        .local("x", Scalar::uint(32))
        .array("a", Scalar::fixed(16, 4), 4)
        .body([Stmt::for_loop(
            "i",
            0..4,
            [
                Stmt::read("x", "in"),
                Stmt::store(
                    "a",
                    Expr::var("x"),
                    Expr::var("x").cast(Scalar::fixed(16, 4)),
                ),
                Stmt::write("out", Expr::index("a", Expr::var("x")).mul(Expr::var("i"))),
            ],
        )])
        .build()
        .unwrap();
    let words = |ws: &[u128]| -> Vec<Vec<Value>> {
        vec![ws
            .iter()
            .map(|&w| Value::Int(DynInt::from_raw(32, false, w)))
            .collect()]
    };
    let ok = agree(&k, &words(&[0, 1, 2, 3]), u64::MAX);
    let stats = ok.0.unwrap();
    let oob = agree(&k, &words(&[0, 9]), u64::MAX);
    assert!(matches!(
        oob.0,
        Err(InterpError::IndexOutOfBounds { index: 9, .. })
    ));
    let under = agree(&k, &words(&[0, 1]), u64::MAX);
    assert!(matches!(under.0, Err(InterpError::StreamUnderflow { .. })));
    for budget in 0..stats.ops {
        let r = agree(&k, &words(&[0, 1, 2, 3]), budget);
        assert_eq!(r.0, Err(InterpError::OpBudgetExceeded { budget }));
    }
}

/// An `ap_uint<128>` index above `i128::MAX` reads as a negative `i128` in
/// both engines, on a load and on a store: out of bounds, with that index.
#[test]
fn wide_index_above_i128_max_is_out_of_bounds() {
    let wide = Scalar::uint(128);
    let load = Stmt::write("out", Expr::index("a", Expr::var("x")));
    let store = Stmt::store("a", Expr::var("x"), Expr::var("x").cast(Scalar::uint(8)));
    for body in [[load.clone(), store.clone()], [store, load]] {
        let mut stmts = vec![Stmt::read("x", "in")];
        stmts.extend(body);
        let k = KernelBuilder::new("wide_index")
            .input("in", wide)
            .output("out", Scalar::uint(8))
            .local("x", wide)
            .array("a", Scalar::uint(8), 4)
            .body([Stmt::for_loop("i", 0..2, stmts)])
            .build()
            .unwrap();
        for raw in [1u128 << 127, u128::MAX] {
            let input = vec![vec![
                Value::Int(DynInt::from_raw(128, false, 2)),
                of_raw(wide, raw),
            ]];
            let (result, written, _) = agree(&k, &input, u64::MAX);
            assert_eq!(written[0].len(), 1);
            assert_eq!(
                result,
                Err(InterpError::IndexOutOfBounds {
                    array: "a".into(),
                    index: raw as i128,
                    len: 4
                })
            );
        }
    }
}
