//! The operator-discipline validator and type checker (paper Sec. 3.4).
//!
//! "There are some restrictions for C functions to make good, concurrent
//! dataflow operators for acceleration": stream-only I/O, no allocation or
//! recursion, standard arbitrary-precision datatypes, static loop structure.
//! The IR makes recursion and allocation inexpressible; this module checks
//! everything else and infers a type for every expression.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::expr::{BinOp, Expr, UnOp};
use crate::kernel::Kernel;
use crate::ops::{result_type, result_type_un, select_type};
use crate::stmt::Stmt;
use crate::types::Scalar;

/// Maximum bits of local array storage per operator.
///
/// The largest PLD page carries 120 BRAM18s (Tab. 1) = 120 × 18 Kib; an
/// operator whose arrays exceed that cannot map to any page.
pub const MAX_ARRAY_BITS: u64 = 120 * 18 * 1024;

/// A violation of the operator discipline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// A declared name (port/local/array/loop variable) is used twice.
    DuplicateName(String),
    /// A scalar type has an unsupported width.
    #[allow(missing_docs)]
    IllegalType { name: String, ty: Scalar },
    /// An array has zero length or exceeds the page BRAM budget.
    #[allow(missing_docs)]
    ArrayTooLarge { name: String, bits: u64 },
    /// An expression references an undeclared variable.
    UnknownVar(String),
    /// An expression references an undeclared array.
    UnknownArray(String),
    /// A stream statement references an undeclared port.
    UnknownPort(String),
    /// A `Read` targets an output port or a `Write` targets an input port.
    #[allow(missing_docs)]
    WrongDirection { port: String },
    /// Assignment target is not a declared local.
    NotAssignable(String),
    /// A bit-range select is reversed or exceeds the operand width.
    #[allow(missing_docs)]
    BadBitRange { hi: u32, lo: u32, width: u32 },
    /// An integer-only operator was applied to a fixed-point operand.
    #[allow(missing_docs)]
    FixedOperandNotAllowed { op: String },
    /// A loop has a non-positive step.
    #[allow(missing_docs)]
    BadLoopStep { var: String, step: i64 },
    /// A loop unroll factor of zero.
    #[allow(missing_docs)]
    BadUnrollFactor { var: String },
    /// The kernel has no stream ports at all, so it can never communicate.
    NoPorts,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::DuplicateName(n) => write!(f, "duplicate declaration of `{n}`"),
            CheckError::IllegalType { name, ty } => {
                write!(f, "`{name}` has unsupported type {ty}")
            }
            CheckError::ArrayTooLarge { name, bits } => {
                write!(
                    f,
                    "array `{name}` needs {bits} bits, over the page budget of {MAX_ARRAY_BITS}"
                )
            }
            CheckError::UnknownVar(n) => write!(f, "use of undeclared variable `{n}`"),
            CheckError::UnknownArray(n) => write!(f, "use of undeclared array `{n}`"),
            CheckError::UnknownPort(n) => write!(f, "use of undeclared stream port `{n}`"),
            CheckError::WrongDirection { port } => {
                write!(f, "stream port `{port}` used against its direction")
            }
            CheckError::NotAssignable(n) => {
                write!(f, "`{n}` is not an assignable local variable")
            }
            CheckError::BadBitRange { hi, lo, width } => {
                write!(f, "bit range [{hi}:{lo}] is invalid for width {width}")
            }
            CheckError::FixedOperandNotAllowed { op } => {
                write!(f, "operator `{op}` does not accept fixed-point operands")
            }
            CheckError::BadLoopStep { var, step } => {
                write!(f, "loop over `{var}` has non-positive step {step}")
            }
            CheckError::BadUnrollFactor { var } => {
                write!(f, "loop over `{var}` has unroll factor 0")
            }
            CheckError::NoPorts => write!(f, "operator has no stream ports"),
        }
    }
}

impl std::error::Error for CheckError {}

/// Static name environment for type inference inside one kernel.
pub struct TypeEnv<'k> {
    kernel: &'k Kernel,
    locals: HashMap<&'k str, Scalar>,
    arrays: HashMap<&'k str, Scalar>,
    /// Loop variables currently in scope (always `ap_int<32>`).
    loop_vars: Vec<String>,
}

impl<'k> TypeEnv<'k> {
    /// Builds the environment for a kernel's declarations.
    pub fn new(kernel: &'k Kernel) -> Self {
        TypeEnv {
            kernel,
            locals: kernel
                .locals
                .iter()
                .map(|v| (v.name.as_str(), v.ty))
                .collect(),
            arrays: kernel
                .arrays
                .iter()
                .map(|a| (a.name.as_str(), a.elem))
                .collect(),
            loop_vars: Vec::new(),
        }
    }

    /// The type of a scalar variable or loop index, if declared.
    pub fn var_type(&self, name: &str) -> Option<Scalar> {
        if self.loop_vars.iter().any(|v| v == name) {
            Some(Scalar::int(32))
        } else {
            self.locals.get(name).copied()
        }
    }

    /// The element type of an array, if declared.
    pub fn array_elem(&self, name: &str) -> Option<Scalar> {
        self.arrays.get(name).copied()
    }

    /// Infers the type of an expression.
    ///
    /// # Errors
    ///
    /// Returns the first discipline violation found in the tree.
    pub fn infer(&self, expr: &Expr) -> Result<Scalar, CheckError> {
        match expr {
            Expr::Const { ty, .. } => Ok(*ty),
            Expr::Var(name) => self
                .var_type(name)
                .ok_or_else(|| CheckError::UnknownVar(name.clone())),
            Expr::ArrayGet { array, index } => {
                let it = self.infer(index)?;
                if it.is_fixed() {
                    return Err(CheckError::FixedOperandNotAllowed { op: "[]".into() });
                }
                self.array_elem(array)
                    .ok_or_else(|| CheckError::UnknownArray(array.clone()))
            }
            Expr::Un { op, arg } => {
                let at = self.infer(arg)?;
                if *op == UnOp::Not && at.is_fixed() {
                    return Err(CheckError::FixedOperandNotAllowed { op: "~".into() });
                }
                Ok(result_type_un(*op, at))
            }
            Expr::Bin { op, lhs, rhs } => {
                let lt = self.infer(lhs)?;
                let rt = self.infer(rhs)?;
                let int_only = matches!(
                    op,
                    BinOp::Rem | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr
                );
                if int_only && (lt.is_fixed() || rt.is_fixed()) {
                    return Err(CheckError::FixedOperandNotAllowed { op: op.to_string() });
                }
                Ok(result_type(*op, lt, rt))
            }
            Expr::Cast { ty, arg } => {
                self.infer(arg)?;
                if !ty.is_legal() {
                    return Err(CheckError::IllegalType {
                        name: "<cast>".into(),
                        ty: *ty,
                    });
                }
                Ok(*ty)
            }
            Expr::Select {
                cond,
                then_val,
                else_val,
            } => {
                self.infer(cond)?;
                let tt = self.infer(then_val)?;
                let et = self.infer(else_val)?;
                Ok(select_type(tt, et))
            }
            Expr::BitRange { arg, hi, lo } => {
                let at = self.infer(arg)?;
                if hi < lo || *hi >= at.width() {
                    return Err(CheckError::BadBitRange {
                        hi: *hi,
                        lo: *lo,
                        width: at.width(),
                    });
                }
                Ok(Scalar::uint(hi - lo + 1))
            }
        }
    }

    /// Brings a loop variable into scope (for backends walking the body
    /// themselves). Must be balanced with [`TypeEnv::exit_loop`].
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::DuplicateName`] if the name shadows another
    /// declaration.
    pub fn enter_loop(&mut self, name: &str) -> Result<(), CheckError> {
        self.push_loop_var(name)
    }

    /// Removes the innermost loop variable from scope.
    pub fn exit_loop(&mut self) {
        self.pop_loop_var();
    }

    fn push_loop_var(&mut self, name: &str) -> Result<(), CheckError> {
        let clashes = self.locals.contains_key(name)
            || self.arrays.contains_key(name)
            || self.loop_vars.iter().any(|v| v == name)
            || self.kernel.input(name).is_some()
            || self.kernel.output(name).is_some();
        if clashes {
            return Err(CheckError::DuplicateName(name.to_string()));
        }
        self.loop_vars.push(name.to_string());
        Ok(())
    }

    fn pop_loop_var(&mut self) {
        self.loop_vars.pop();
    }
}

/// Validates a kernel against the operator discipline.
///
/// # Errors
///
/// Returns the first violation found; see [`CheckError`] for the catalogue.
pub fn validate(kernel: &Kernel) -> Result<(), CheckError> {
    // Unique names across all declaration kinds.
    let mut seen = HashSet::new();
    for name in kernel
        .inputs
        .iter()
        .map(|p| &p.name)
        .chain(kernel.outputs.iter().map(|p| &p.name))
        .chain(kernel.locals.iter().map(|v| &v.name))
        .chain(kernel.arrays.iter().map(|a| &a.name))
    {
        if !seen.insert(name.as_str()) {
            return Err(CheckError::DuplicateName(name.clone()));
        }
    }

    if kernel.inputs.is_empty() && kernel.outputs.is_empty() {
        return Err(CheckError::NoPorts);
    }

    // Legal scalar widths everywhere.
    for (name, ty) in kernel
        .inputs
        .iter()
        .map(|p| (&p.name, p.elem))
        .chain(kernel.outputs.iter().map(|p| (&p.name, p.elem)))
        .chain(kernel.locals.iter().map(|v| (&v.name, v.ty)))
        .chain(kernel.arrays.iter().map(|a| (&a.name, a.elem)))
    {
        if !ty.is_legal() {
            return Err(CheckError::IllegalType {
                name: name.clone(),
                ty,
            });
        }
    }

    // Array sizes within the page BRAM budget.
    for a in &kernel.arrays {
        let bits = a.len * u64::from(a.elem.width());
        if a.len == 0 || bits > MAX_ARRAY_BITS {
            return Err(CheckError::ArrayTooLarge {
                name: a.name.clone(),
                bits,
            });
        }
        if let Some(init) = &a.init {
            if init.len() as u64 != a.len {
                return Err(CheckError::ArrayTooLarge {
                    name: a.name.clone(),
                    bits,
                });
            }
        }
    }

    let mut env = TypeEnv::new(kernel);
    check_block(kernel, &mut env, &kernel.body)?;
    Ok(())
}

fn check_block(kernel: &Kernel, env: &mut TypeEnv<'_>, body: &[Stmt]) -> Result<(), CheckError> {
    for stmt in body {
        match stmt {
            Stmt::Assign { var, value } => {
                env.infer(value)?;
                if env.kernel.local(var).is_none() {
                    return Err(CheckError::NotAssignable(var.clone()));
                }
            }
            Stmt::ArraySet {
                array,
                index,
                value,
            } => {
                if env.array_elem(array).is_none() {
                    return Err(CheckError::UnknownArray(array.clone()));
                }
                let it = env.infer(index)?;
                if it.is_fixed() {
                    return Err(CheckError::FixedOperandNotAllowed { op: "[]".into() });
                }
                env.infer(value)?;
            }
            Stmt::Read { var, port } => {
                if kernel.output(port).is_some() {
                    return Err(CheckError::WrongDirection { port: port.clone() });
                }
                if kernel.input(port).is_none() {
                    return Err(CheckError::UnknownPort(port.clone()));
                }
                if kernel.local(var).is_none() {
                    return Err(CheckError::NotAssignable(var.clone()));
                }
            }
            Stmt::Write { port, value } => {
                if kernel.input(port).is_some() {
                    return Err(CheckError::WrongDirection { port: port.clone() });
                }
                if kernel.output(port).is_none() {
                    return Err(CheckError::UnknownPort(port.clone()));
                }
                env.infer(value)?;
            }
            Stmt::For {
                var,
                step,
                unroll,
                body,
                ..
            } => {
                if *step <= 0 {
                    return Err(CheckError::BadLoopStep {
                        var: var.clone(),
                        step: *step,
                    });
                }
                if *unroll == 0 {
                    return Err(CheckError::BadUnrollFactor { var: var.clone() });
                }
                env.push_loop_var(var)?;
                let result = check_block(kernel, env, body);
                env.pop_loop_var();
                result?;
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                env.infer(cond)?;
                check_block(kernel, env, then_body)?;
                check_block(kernel, env, else_body)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelBuilder;

    fn base() -> KernelBuilder {
        KernelBuilder::new("k")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
    }

    #[test]
    fn accepts_wellformed_kernel() {
        let k = base()
            .body([Stmt::read("x", "in"), Stmt::write("out", Expr::var("x"))])
            .build();
        assert!(k.is_ok());
    }

    #[test]
    fn rejects_duplicate_names() {
        let err = base()
            .local("in", Scalar::uint(8))
            .body([])
            .build()
            .unwrap_err();
        assert_eq!(err, CheckError::DuplicateName("in".into()));
    }

    #[test]
    fn rejects_unknown_variable() {
        let err = base()
            .body([Stmt::write("out", Expr::var("nope"))])
            .build()
            .unwrap_err();
        assert_eq!(err, CheckError::UnknownVar("nope".into()));
    }

    #[test]
    fn rejects_wrong_direction() {
        let err = base().body([Stmt::read("x", "out")]).build().unwrap_err();
        assert_eq!(err, CheckError::WrongDirection { port: "out".into() });
        let err = base()
            .body([Stmt::write("in", Expr::cint(1))])
            .build()
            .unwrap_err();
        assert_eq!(err, CheckError::WrongDirection { port: "in".into() });
    }

    #[test]
    fn rejects_fixed_bitops() {
        let err = base()
            .local("f", Scalar::fixed(32, 17))
            .body([Stmt::assign("x", Expr::var("f").and(Expr::cint(1)))])
            .build()
            .unwrap_err();
        assert_eq!(err, CheckError::FixedOperandNotAllowed { op: "&".into() });
    }

    #[test]
    fn rejects_oversized_array() {
        let err = base()
            .array("big", Scalar::uint(32), 100_000)
            .body([])
            .build()
            .unwrap_err();
        assert!(matches!(err, CheckError::ArrayTooLarge { .. }));
    }

    #[test]
    fn rejects_assignment_to_loop_var() {
        let err = base()
            .body([Stmt::for_loop(
                "i",
                0..4,
                [Stmt::assign("i", Expr::cint(0))],
            )])
            .build()
            .unwrap_err();
        assert_eq!(err, CheckError::NotAssignable("i".into()));
    }

    #[test]
    fn rejects_loop_var_shadowing() {
        let err = base()
            .body([Stmt::for_loop("x", 0..4, [])])
            .build()
            .unwrap_err();
        assert_eq!(err, CheckError::DuplicateName("x".into()));
    }

    #[test]
    fn rejects_bad_bit_range() {
        let err = base()
            .body([Stmt::assign("x", Expr::var("x").bits(40, 0))])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            CheckError::BadBitRange {
                hi: 40,
                lo: 0,
                width: 32
            }
        );
    }

    #[test]
    fn rejects_portless_kernel() {
        let err = KernelBuilder::new("k")
            .local("x", Scalar::uint(8))
            .body([])
            .build()
            .unwrap_err();
        assert_eq!(err, CheckError::NoPorts);
    }

    #[test]
    fn loop_var_usable_inside_scope_only() {
        let ok = base()
            .body([Stmt::for_loop(
                "i",
                0..4,
                [Stmt::assign("x", Expr::var("i"))],
            )])
            .build();
        assert!(ok.is_ok());
        let err = base()
            .body([
                Stmt::for_loop("i", 0..4, []),
                Stmt::assign("x", Expr::var("i")),
            ])
            .build()
            .unwrap_err();
        assert_eq!(err, CheckError::UnknownVar("i".into()));
    }

    #[test]
    fn infer_types_for_mixed_expressions() {
        let k = base()
            .local("f", Scalar::fixed(32, 17))
            .body([Stmt::read("x", "in"), Stmt::write("out", Expr::var("x"))])
            .build()
            .unwrap();
        let env = TypeEnv::new(&k);
        let t = env.infer(&Expr::var("f").mul(Expr::var("f"))).unwrap();
        assert_eq!(t, Scalar::fixed(64, 34));
        let t = env.infer(&Expr::var("x").lt(Expr::cint(5))).unwrap();
        assert_eq!(t, Scalar::uint(1));
    }
}
