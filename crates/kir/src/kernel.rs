//! Kernel definitions and the builder used to construct them.

use crate::check::{validate, CheckError};
use crate::stmt::Stmt;
use crate::types::Scalar;

/// A stream port declaration: one `hls::stream<T>&` argument of the operator
/// function (paper Fig. 2(a)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortDecl {
    /// Port name, e.g. `Input_1`.
    pub name: String,
    /// Element type carried by the stream.
    pub elem: Scalar,
}

/// A scalar local variable declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarDecl {
    /// Variable name.
    pub name: String,
    /// Declared type; assignments coerce to it.
    pub ty: Scalar,
}

/// A statically sized local array, synthesized to BRAM on the FPGA and to
/// data memory on the softcore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDecl {
    /// Array name.
    pub name: String,
    /// Element type.
    pub elem: Scalar,
    /// Number of elements (compile-time constant; no allocation, Sec. 3.4).
    pub len: u64,
    /// Optional initializer (e.g. weight ROMs); raw bit patterns per element.
    pub init: Option<Vec<u128>>,
}

/// A dataflow operator body: the IR stand-in for one C operator source file.
///
/// Construct with [`KernelBuilder`], which validates the operator discipline
/// on `build`.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Operator name (the C function name).
    pub name: String,
    /// Input stream ports, in argument order.
    pub inputs: Vec<PortDecl>,
    /// Output stream ports, in argument order.
    pub outputs: Vec<PortDecl>,
    /// Scalar locals.
    pub locals: Vec<VarDecl>,
    /// Local arrays.
    pub arrays: Vec<ArrayDecl>,
    /// Statement list executed once per kernel invocation.
    pub body: Vec<Stmt>,
}

impl Kernel {
    /// Looks up an input port by name.
    pub fn input(&self, name: &str) -> Option<&PortDecl> {
        self.inputs.iter().find(|p| p.name == name)
    }

    /// Looks up an output port by name.
    pub fn output(&self, name: &str) -> Option<&PortDecl> {
        self.outputs.iter().find(|p| p.name == name)
    }

    /// Looks up a local variable by name.
    pub fn local(&self, name: &str) -> Option<&VarDecl> {
        self.locals.iter().find(|v| v.name == name)
    }

    /// Looks up an array by name.
    pub fn array(&self, name: &str) -> Option<&ArrayDecl> {
        self.arrays.iter().find(|a| a.name == name)
    }

    /// Total bits of array storage (the BRAM demand of the operator).
    pub fn array_bits(&self) -> u64 {
        self.arrays
            .iter()
            .map(|a| a.len * u64::from(a.elem.width()))
            .sum()
    }

    /// Total number of operation nodes in the body, weighted by trip counts —
    /// a static estimate of dynamic work used by the cost models.
    pub fn dynamic_ops(&self) -> u64 {
        fn stmt_ops(s: &Stmt) -> u64 {
            match s {
                Stmt::Assign { value, .. } | Stmt::Write { value, .. } => {
                    1 + value.op_count() as u64
                }
                Stmt::ArraySet { index, value, .. } => {
                    2 + index.op_count() as u64 + value.op_count() as u64
                }
                Stmt::Read { .. } => 1,
                Stmt::For { body, .. } => {
                    let inner: u64 = body.iter().map(stmt_ops).sum();
                    let trips = s.trip_count().unwrap_or(1);
                    // +1 per iteration for the loop counter increment/test.
                    trips.saturating_mul(inner + 1)
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    // Both sides of a branch exist in hardware; count the
                    // heavier side for a dynamic estimate.
                    let t: u64 = then_body.iter().map(stmt_ops).sum();
                    let e: u64 = else_body.iter().map(stmt_ops).sum();
                    1 + cond.op_count() as u64 + t.max(e)
                }
            }
        }
        self.body.iter().map(stmt_ops).sum()
    }

    /// Static count of expression/statement nodes (a code-size proxy).
    pub fn static_size(&self) -> u64 {
        let mut n = 0u64;
        for s in &self.body {
            s.visit(&mut |_| n += 1);
            s.visit_exprs(&mut |_| n += 1);
        }
        n
    }
}

/// Builder for [`Kernel`]; terminal [`build`](KernelBuilder::build) validates
/// the operator discipline.
///
/// # Examples
///
/// ```
/// use kir::{Expr, KernelBuilder, Scalar, Stmt};
///
/// let k = KernelBuilder::new("passthrough")
///     .input("in", Scalar::uint(32))
///     .output("out", Scalar::uint(32))
///     .local("x", Scalar::uint(32))
///     .body([Stmt::for_loop("i", 0..8, [
///         Stmt::read("x", "in"),
///         Stmt::write("out", Expr::var("x")),
///     ])])
///     .build()?;
/// assert_eq!(k.name, "passthrough");
/// # Ok::<(), kir::CheckError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct KernelBuilder {
    name: String,
    inputs: Vec<PortDecl>,
    outputs: Vec<PortDecl>,
    locals: Vec<VarDecl>,
    arrays: Vec<ArrayDecl>,
    body: Vec<Stmt>,
}

impl KernelBuilder {
    /// Starts a kernel named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Declares an input stream port.
    pub fn input(mut self, name: impl Into<String>, elem: Scalar) -> Self {
        self.inputs.push(PortDecl {
            name: name.into(),
            elem,
        });
        self
    }

    /// Declares an output stream port.
    pub fn output(mut self, name: impl Into<String>, elem: Scalar) -> Self {
        self.outputs.push(PortDecl {
            name: name.into(),
            elem,
        });
        self
    }

    /// Declares a scalar local.
    pub fn local(mut self, name: impl Into<String>, ty: Scalar) -> Self {
        self.locals.push(VarDecl {
            name: name.into(),
            ty,
        });
        self
    }

    /// Declares an uninitialized local array of `len` elements.
    pub fn array(mut self, name: impl Into<String>, elem: Scalar, len: u64) -> Self {
        self.arrays.push(ArrayDecl {
            name: name.into(),
            elem,
            len,
            init: None,
        });
        self
    }

    /// Declares a local array initialized with raw element bit patterns
    /// (a weight/coefficient ROM).
    pub fn array_init(
        mut self,
        name: impl Into<String>,
        elem: Scalar,
        init: impl Into<Vec<u128>>,
    ) -> Self {
        let init = init.into();
        self.arrays.push(ArrayDecl {
            name: name.into(),
            elem,
            len: init.len() as u64,
            init: Some(init),
        });
        self
    }

    /// Sets the kernel body.
    pub fn body(mut self, body: impl IntoIterator<Item = Stmt>) -> Self {
        self.body = body.into_iter().collect();
        self
    }

    /// Finishes the kernel, validating the operator discipline (Sec. 3.4).
    ///
    /// # Errors
    ///
    /// Returns a [`CheckError`] describing the first discipline violation:
    /// undeclared names, duplicate declarations, type errors, illegal widths,
    /// out-of-range constant indices, or stream misuse.
    pub fn build(self) -> Result<Kernel, CheckError> {
        let kernel = Kernel {
            name: self.name,
            inputs: self.inputs,
            outputs: self.outputs,
            locals: self.locals,
            arrays: self.arrays,
            body: self.body,
        };
        validate(&kernel)?;
        Ok(kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn small_kernel() -> Kernel {
        KernelBuilder::new("k")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .array("buf", Scalar::uint(8), 16)
            .body([Stmt::for_loop(
                "i",
                0..4,
                [Stmt::read("x", "in"), Stmt::write("out", Expr::var("x"))],
            )])
            .build()
            .unwrap()
    }

    #[test]
    fn lookups() {
        let k = small_kernel();
        assert!(k.input("in").is_some());
        assert!(k.output("out").is_some());
        assert!(k.local("x").is_some());
        assert!(k.array("buf").is_some());
        assert!(k.input("missing").is_none());
    }

    #[test]
    fn array_bits_accounts_width() {
        let k = small_kernel();
        assert_eq!(k.array_bits(), 16 * 8);
    }

    #[test]
    fn dynamic_ops_scale_with_trip_count() {
        let k = small_kernel();
        // 4 iterations of (read=1 + write=1 + loop overhead=1)
        assert_eq!(k.dynamic_ops(), 12);
    }

    #[test]
    fn clone_preserves_equality() {
        let k = small_kernel();
        assert_eq!(k.clone(), k);
    }
}
