//! The host interpreter: direct execution of kernel IR.
//!
//! This backend serves three roles in the reproduction:
//!
//! * the **golden model** every other backend is property-tested against,
//! * the paper's **"X86 g++"** baseline in Tab. 3 (native execution of the
//!   same operator source on the host), and
//! * the **functional half** of the `-O1`/`-O3` performance simulations: by
//!   the Kahn-network property (Sec. 3.2), token *values* are independent of
//!   timing, so the timing simulators only need rates while values come from
//!   here.
//!
//! It has one fast path and one oracle:
//!
//! * [`Resolved`] compiles the [`crate::ResolvedKernel`] once into
//!   **closures**, one per expression node: names are dense slots, every
//!   node's `ap_int`/`ap_fixed` shape, fixed by the checker, is folded into
//!   precomputed shifts, each closure is specialised on its operator and on
//!   its operands' kinds (slot, constant or node), and values run as
//!   canonical `i128`s. [`Value`]s appear only at the stream boundary
//!   ([`KernelIo`]).
//! * [`run_reference`] is the tree walker that re-derives every shape from
//!   [`Value`] tags through [`crate::ops`]. It defines the semantics; the
//!   differential tests hold the compiled engine to it bit for bit —
//!   outputs, [`InterpStats`] and [`InterpError`]s.

mod reference;
mod typed;

use std::collections::HashMap;
use std::fmt;

use crate::kernel::Kernel;
use crate::types::{Scalar, Value};
use crate::wire;

pub use reference::run_reference;

/// Default dynamic-operation budget: generous enough for every Rosetta
/// workload frame, small enough to catch accidentally quadratic kernels.
pub const DEFAULT_OP_BUDGET: u64 = 2_000_000_000;

/// Transport-level stream failure, independent of port names.
///
/// [`KernelIo`] implementations return this cheap, `Copy` code from the
/// per-token hot path; the interpreter attaches the port *name* (a `String`
/// clone) lazily, only when the error actually surfaces as an
/// [`InterpError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoError {
    /// No token is available and none can ever arrive.
    Underflow,
}

/// Runtime failure of a kernel execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// A `Read` executed with no token available on the port. In batch
    /// execution this is a deadlock: the producer can never supply more.
    #[allow(missing_docs)]
    StreamUnderflow { port: String },
    /// An array access evaluated to an out-of-bounds index.
    #[allow(missing_docs)]
    IndexOutOfBounds {
        array: String,
        index: i128,
        len: u64,
    },
    /// The kernel exceeded its dynamic-operation budget.
    #[allow(missing_docs)]
    OpBudgetExceeded { budget: u64 },
    /// An input stream name was supplied that the kernel does not declare.
    #[allow(missing_docs)]
    NoSuchPort { port: String },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::StreamUnderflow { port } => {
                write!(f, "read from `{port}` with no token available")
            }
            InterpError::IndexOutOfBounds { array, index, len } => {
                write!(
                    f,
                    "index {index} out of bounds for `{array}` of length {len}"
                )
            }
            InterpError::OpBudgetExceeded { budget } => {
                write!(
                    f,
                    "kernel exceeded the dynamic-operation budget of {budget}"
                )
            }
            InterpError::NoSuchPort { port } => write!(f, "kernel has no port named `{port}`"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Dynamic execution statistics, consumed by the host-runtime cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InterpStats {
    /// Expression/statement operations executed.
    pub ops: u64,
    /// Stream tokens read.
    pub reads: u64,
    /// Stream tokens written.
    pub writes: u64,
}

/// A kernel compiled to closures, ready for repeated execution.
pub struct Resolved {
    name: String,
    inputs: Vec<(String, Scalar)>,
    outputs: Vec<(String, Scalar)>,
    code: typed::Code,
}

impl fmt::Debug for Resolved {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Resolved")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl Resolved {
    /// Resolves a kernel for execution. The kernel must already have passed
    /// [`crate::validate`] (kernels from [`crate::KernelBuilder`] always have).
    ///
    /// # Panics
    ///
    /// Panics, naming the [`crate::CheckError`], on a kernel that does not
    /// validate.
    pub fn new(kernel: &Kernel) -> Resolved {
        let rk = crate::resolve(kernel)
            .unwrap_or_else(|e| panic!("kernel `{}` does not validate: {e}", kernel.name));
        let ports = |ps: &[crate::kernel::PortDecl]| -> Vec<(String, Scalar)> {
            ps.iter().map(|p| (p.name.clone(), p.elem)).collect()
        };
        Resolved {
            name: kernel.name.clone(),
            inputs: ports(&kernel.inputs),
            outputs: ports(&kernel.outputs),
            code: typed::Code::new(rk),
        }
    }

    /// The kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs the kernel on value streams, producing output value streams.
    ///
    /// # Errors
    ///
    /// See [`InterpError`].
    pub fn run(
        &self,
        inputs: &[(&str, Vec<Value>)],
        budget: u64,
    ) -> Result<(HashMap<String, Vec<Value>>, InterpStats), InterpError> {
        let mut in_queues: Vec<std::collections::VecDeque<Value>> =
            self.inputs.iter().map(|_| Default::default()).collect();
        for (name, values) in inputs {
            let idx = self
                .inputs
                .iter()
                .position(|(n, _)| n == name)
                .ok_or_else(|| InterpError::NoSuchPort {
                    port: name.to_string(),
                })?;
            in_queues[idx] = values.iter().copied().collect();
        }

        let mut io = BatchIo {
            in_queues,
            out_queues: vec![Vec::new(); self.outputs.len()],
        };
        let stats = self.run_with_io(&mut io, budget)?;

        let outputs = self
            .outputs
            .iter()
            .zip(io.out_queues)
            .map(|((name, _), q)| (name.clone(), q))
            .collect();
        Ok((outputs, stats))
    }

    /// Runs the kernel against an arbitrary stream transport: the entry
    /// point for callers that own the token queues, such as the graph
    /// executor, which routes tokens between operators itself.
    ///
    /// # Errors
    ///
    /// See [`InterpError`].
    pub fn run_with_io(
        &self,
        io: &mut dyn KernelIo,
        budget: u64,
    ) -> Result<InterpStats, InterpError> {
        self.code.run(io, budget, &self.inputs)
    }
}

/// Stream transport for one kernel execution: ports are addressed by their
/// declaration index. Errors are the name-free [`IoError`] codes — the
/// interpreter maps them to named [`InterpError`] variants only when they
/// actually terminate execution, keeping `String` work off the token path.
pub trait KernelIo {
    /// Delivers the next token on input port `port`.
    ///
    /// # Errors
    ///
    /// Returns [`IoError::Underflow`] when no token can ever arrive (batch
    /// queue empty, or all producers finished).
    fn read(&mut self, port: usize) -> Result<Value, IoError>;

    /// Accepts a token on output port `port`.
    fn write(&mut self, port: usize, value: Value);
}

/// The batch transport: inputs fully staged up front, outputs collected.
struct BatchIo {
    in_queues: Vec<std::collections::VecDeque<Value>>,
    out_queues: Vec<Vec<Value>>,
}

impl KernelIo for BatchIo {
    fn read(&mut self, port: usize) -> Result<Value, IoError> {
        self.in_queues[port].pop_front().ok_or(IoError::Underflow)
    }

    fn write(&mut self, port: usize, value: Value) {
        self.out_queues[port].push(value);
    }
}

// ---------------------------------------------------------------------------
// Convenience entry points
// ---------------------------------------------------------------------------

/// Runs a kernel on value streams with the default operation budget.
///
/// # Errors
///
/// See [`InterpError`].
pub fn run(
    kernel: &Kernel,
    inputs: &[(&str, Vec<Value>)],
) -> Result<HashMap<String, Vec<Value>>, InterpError> {
    Resolved::new(kernel)
        .run(inputs, DEFAULT_OP_BUDGET)
        .map(|(out, _)| out)
}

/// Runs a kernel on value streams, also returning execution statistics.
///
/// # Errors
///
/// See [`InterpError`].
pub fn run_with_stats(
    kernel: &Kernel,
    inputs: &[(&str, Vec<Value>)],
) -> Result<(HashMap<String, Vec<Value>>, InterpStats), InterpError> {
    Resolved::new(kernel).run(inputs, DEFAULT_OP_BUDGET)
}

/// Runs a kernel on raw 32-bit word streams (the on-wire representation).
///
/// # Errors
///
/// See [`InterpError`].
pub fn run_words(
    kernel: &Kernel,
    inputs: &[(&str, Vec<u32>)],
) -> Result<HashMap<String, Vec<u32>>, InterpError> {
    let typed: Vec<(&str, Vec<Value>)> = inputs
        .iter()
        .map(|(name, words)| {
            let ty = kernel
                .input(name)
                .map(|p| p.elem)
                .ok_or(InterpError::NoSuchPort {
                    port: name.to_string(),
                })?;
            Ok((*name, wire::words_to_stream(ty, words)))
        })
        .collect::<Result<_, InterpError>>()?;
    let out = run(kernel, &typed)?;
    Ok(out
        .into_iter()
        .map(|(name, vals)| (name, wire::stream_to_words(&vals)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelBuilder;
    use crate::stmt::Stmt;
    use crate::Expr;

    fn accumulate_kernel() -> Kernel {
        // Reads 8 values, emits running sums.
        KernelBuilder::new("acc")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .local("sum", Scalar::uint(32))
            .body([Stmt::for_loop(
                "i",
                0..8,
                [
                    Stmt::read("x", "in"),
                    Stmt::assign("sum", Expr::var("sum").add(Expr::var("x"))),
                    Stmt::write("out", Expr::var("sum")),
                ],
            )])
            .build()
            .unwrap()
    }

    #[test]
    fn running_sum() {
        let out = run_words(&accumulate_kernel(), &[("in", (1..=8).collect())]).unwrap();
        assert_eq!(out["out"], vec![1, 3, 6, 10, 15, 21, 28, 36]);
    }

    #[test]
    fn underflow_reported() {
        let err = run_words(&accumulate_kernel(), &[("in", vec![1, 2])]).unwrap_err();
        assert_eq!(err, InterpError::StreamUnderflow { port: "in".into() });
    }

    #[test]
    fn unknown_port_reported() {
        let err = run_words(&accumulate_kernel(), &[("bogus", vec![])]).unwrap_err();
        assert_eq!(
            err,
            InterpError::NoSuchPort {
                port: "bogus".into()
            }
        );
    }

    #[test]
    fn stats_count_work() {
        let (out, stats) = run_with_stats(
            &accumulate_kernel(),
            &[(
                "in",
                (1..=8)
                    .map(|v| Value::Int(aplib::DynInt::from_i128(32, false, v)))
                    .collect(),
            )],
        )
        .unwrap();
        assert_eq!(out["out"].len(), 8);
        assert_eq!(stats.reads, 8);
        assert_eq!(stats.writes, 8);
        assert!(stats.ops > 24);
    }

    #[test]
    fn budget_enforced() {
        let k = KernelBuilder::new("spin")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([
                Stmt::for_loop(
                    "i",
                    0..1_000_000,
                    [Stmt::assign("x", Expr::var("x").add(Expr::cint(1)))],
                ),
                Stmt::write("out", Expr::var("x")),
            ])
            .build()
            .unwrap();
        let err = Resolved::new(&k).run(&[], 1000).unwrap_err();
        assert_eq!(err, InterpError::OpBudgetExceeded { budget: 1000 });
    }

    #[test]
    fn arrays_and_conditionals() {
        // Histogram of low 2 bits, then emit the 4 bins.
        let k = KernelBuilder::new("hist")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .array("bins", Scalar::uint(32), 4)
            .body([
                Stmt::for_loop(
                    "i",
                    0..16,
                    [
                        Stmt::read("x", "in"),
                        Stmt::store(
                            "bins",
                            Expr::var("x").and(Expr::cint(3)),
                            Expr::index("bins", Expr::var("x").and(Expr::cint(3)))
                                .add(Expr::cint(1)),
                        ),
                    ],
                ),
                Stmt::for_loop(
                    "j",
                    0..4,
                    [Stmt::write("out", Expr::index("bins", Expr::var("j")))],
                ),
            ])
            .build()
            .unwrap();
        let out = run_words(&k, &[("in", (0..16).collect())]).unwrap();
        assert_eq!(out["out"], vec![4, 4, 4, 4]);
    }

    #[test]
    fn fixed_point_pipeline_matches_f64() {
        // y = (a*b + c) in ap_fixed<32,17>
        let k = KernelBuilder::new("mac")
            .input("a", Scalar::fixed(32, 17))
            .input("b", Scalar::fixed(32, 17))
            .input("c", Scalar::fixed(32, 17))
            .output("y", Scalar::fixed(32, 17))
            .local("va", Scalar::fixed(32, 17))
            .local("vb", Scalar::fixed(32, 17))
            .local("vc", Scalar::fixed(32, 17))
            .body([Stmt::for_loop(
                "i",
                0..4,
                [
                    Stmt::read("va", "a"),
                    Stmt::read("vb", "b"),
                    Stmt::read("vc", "c"),
                    Stmt::write(
                        "y",
                        Expr::var("va").mul(Expr::var("vb")).add(Expr::var("vc")),
                    ),
                ],
            )])
            .build()
            .unwrap();
        let f = |x: f64| Value::Fixed(aplib::DynFixed::from_f64(32, 17, true, x));
        let out = run(
            &k,
            &[
                ("a", vec![f(1.5), f(-2.0), f(0.25), f(100.0)]),
                ("b", vec![f(2.0), f(3.5), f(-4.0), f(0.5)]),
                ("c", vec![f(0.5), f(1.0), f(0.0), f(-50.0)]),
            ],
        )
        .unwrap();
        let got: Vec<f64> = out["y"].iter().map(Value::to_f64).collect();
        assert_eq!(got, vec![3.5, -6.0, -1.0, 0.0]);
    }

    #[test]
    fn index_bounds_checked() {
        let k = KernelBuilder::new("oob")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .array("a", Scalar::uint(32), 2)
            .body([
                Stmt::read("x", "in"),
                Stmt::write("out", Expr::index("a", Expr::var("x"))),
            ])
            .build()
            .unwrap();
        let err = run_words(&k, &[("in", vec![5])]).unwrap_err();
        assert_eq!(
            err,
            InterpError::IndexOutOfBounds {
                array: "a".into(),
                index: 5,
                len: 2
            }
        );
    }
}
