//! The operator-discipline validator and type checker (paper Sec. 3.4).
//!
//! "There are some restrictions for C functions to make good, concurrent
//! dataflow operators for acceleration": stream-only I/O, no allocation or
//! recursion, standard arbitrary-precision datatypes, static loop structure.
//! The IR makes recursion and allocation inexpressible; this module checks
//! everything else and, in the same walk, types every expression and
//! resolves every name ([`resolve`]).

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::expr::{BinOp, Expr, UnOp};
use crate::kernel::{Kernel, PortDecl};
use crate::ops::{result_type, result_type_un, select_type};
use crate::resolved::{RExpr, RNode, RStmt, ResolvedKernel};
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

/// The names in scope while one kernel is resolved.
struct TypeEnv<'k> {
    kernel: &'k Kernel,
    locals: HashMap<&'k str, usize>,
    arrays: HashMap<&'k str, usize>,
    /// Loop variables in scope, innermost last, with their slots.
    scope: Vec<(&'k str, usize)>,
    /// Every loop variable so far, in pre-order: slot `locals + i`.
    loop_vars: Vec<&'k str>,
}

impl<'k> TypeEnv<'k> {
    fn new(kernel: &'k Kernel) -> Self {
        TypeEnv {
            kernel,
            locals: (kernel.locals.iter().enumerate())
                .map(|(i, v)| (v.name.as_str(), i))
                .collect(),
            arrays: (kernel.arrays.iter().enumerate())
                .map(|(i, a)| (a.name.as_str(), i))
                .collect(),
            scope: Vec::new(),
            loop_vars: Vec::new(),
        }
    }

    /// The slot and type of a scalar variable or loop index, if declared.
    fn var(&self, name: &str) -> Option<(usize, Scalar)> {
        match self.scope.iter().find(|(n, _)| *n == name) {
            Some(&(_, slot)) => Some((slot, Scalar::int(32))),
            None => self
                .locals
                .get(name)
                .map(|&i| (i, self.kernel.locals[i].ty)),
        }
    }

    /// The index of a local that a statement may assign.
    fn assignable(&self, name: &str) -> Result<usize, CheckError> {
        self.locals
            .get(name)
            .copied()
            .ok_or_else(|| CheckError::NotAssignable(name.to_string()))
    }

    fn array(&self, name: &str) -> Result<usize, CheckError> {
        self.arrays
            .get(name)
            .copied()
            .ok_or_else(|| CheckError::UnknownArray(name.to_string()))
    }

    /// Types an array index, which must be an integer.
    fn index(&self, index: &Expr) -> Result<RExpr, CheckError> {
        let index = self.expr(index)?;
        if index.ty.is_fixed() {
            return Err(CheckError::FixedOperandNotAllowed { op: "[]".into() });
        }
        Ok(index)
    }

    /// Types and resolves an expression, or returns the first discipline
    /// violation found in the tree.
    fn expr(&self, expr: &Expr) -> Result<RExpr, CheckError> {
        let typed = |ty, node| Ok(RExpr { ty, node });
        let boxed = |e: &Expr| self.expr(e).map(Box::new);
        match expr {
            Expr::Const { raw, ty } => typed(*ty, RNode::Const(*raw)),
            Expr::Var(name) => {
                let (slot, ty) = self
                    .var(name)
                    .ok_or_else(|| CheckError::UnknownVar(name.clone()))?;
                typed(ty, RNode::Var(slot))
            }
            Expr::ArrayGet { array, index } => {
                let index = Box::new(self.index(index)?);
                let array = self.array(array)?;
                typed(
                    self.kernel.arrays[array].elem,
                    RNode::ArrayGet(array, index),
                )
            }
            Expr::Un { op, arg } => {
                let arg = boxed(arg)?;
                if *op == UnOp::Not && arg.ty.is_fixed() {
                    return Err(CheckError::FixedOperandNotAllowed { op: "~".into() });
                }
                typed(result_type_un(*op, arg.ty), RNode::Un(*op, arg))
            }
            Expr::Bin { op, lhs, rhs } => {
                let args = Box::new([self.expr(lhs)?, self.expr(rhs)?]);
                let [l, r] = [args[0].ty, args[1].ty];
                let int_only = matches!(
                    op,
                    BinOp::Rem | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr
                );
                if int_only && (l.is_fixed() || r.is_fixed()) {
                    return Err(CheckError::FixedOperandNotAllowed { op: op.to_string() });
                }
                typed(result_type(*op, l, r), RNode::Bin(*op, args))
            }
            Expr::Cast { ty, arg } => {
                let arg = boxed(arg)?;
                if !ty.is_legal() {
                    return Err(CheckError::IllegalType {
                        name: "<cast>".into(),
                        ty: *ty,
                    });
                }
                typed(*ty, RNode::Cast(arg))
            }
            Expr::Select {
                cond,
                then_val,
                else_val,
            } => {
                let args = [self.expr(cond)?, self.expr(then_val)?, self.expr(else_val)?];
                let ty = select_type(args[1].ty, args[2].ty);
                typed(ty, RNode::Select(Box::new(args)))
            }
            Expr::BitRange { arg, hi, lo } => {
                let arg = boxed(arg)?;
                let width = arg.ty.width();
                if hi < lo || *hi >= width {
                    return Err(CheckError::BadBitRange {
                        hi: *hi,
                        lo: *lo,
                        width,
                    });
                }
                typed(Scalar::uint(hi - lo + 1), RNode::BitRange(arg, *hi, *lo))
            }
        }
    }

    /// Brings a loop variable into scope under the next loop slot.
    fn push_loop_var(&mut self, name: &'k str) -> Result<usize, CheckError> {
        let clashes = self.locals.contains_key(name)
            || self.arrays.contains_key(name)
            || self.scope.iter().any(|(v, _)| *v == name)
            || self.kernel.input(name).is_some()
            || self.kernel.output(name).is_some();
        if clashes {
            return Err(CheckError::DuplicateName(name.to_string()));
        }
        let slot = self.kernel.locals.len() + self.loop_vars.len();
        self.loop_vars.push(name);
        self.scope.push((name, slot));
        Ok(slot)
    }

    fn block(&mut self, body: &'k [Stmt]) -> Result<Vec<RStmt>, CheckError> {
        body.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, stmt: &'k Stmt) -> Result<RStmt, CheckError> {
        let kernel = self.kernel;
        // A port's index among `ports`, checking it is not one of `other`.
        let port = |ports: &[PortDecl], other: &[PortDecl], name: &str| {
            if other.iter().any(|p| p.name == name) {
                return Err(CheckError::WrongDirection {
                    port: name.to_string(),
                });
            }
            ports
                .iter()
                .position(|p| p.name == name)
                .ok_or_else(|| CheckError::UnknownPort(name.to_string()))
        };
        Ok(match stmt {
            Stmt::Assign { var, value } => {
                let value = self.expr(value)?;
                RStmt::Assign(self.assignable(var)?, value)
            }
            Stmt::ArraySet {
                array,
                index,
                value,
            } => {
                let array = self.array(array)?;
                let index = self.index(index)?;
                RStmt::ArraySet(array, index, self.expr(value)?)
            }
            Stmt::Read { var, port: name } => {
                let port = port(&kernel.inputs, &kernel.outputs, name)?;
                RStmt::Read(self.assignable(var)?, port)
            }
            Stmt::Write { port: name, value } => {
                let port = port(&kernel.outputs, &kernel.inputs, name)?;
                RStmt::Write(port, self.expr(value)?)
            }
            Stmt::For {
                var,
                begin,
                end,
                step,
                pipeline,
                unroll,
                body,
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
                let slot = self.push_loop_var(var)?;
                let body = self.block(body)?;
                self.scope.pop();
                RStmt::For {
                    var: slot,
                    begin: *begin,
                    end: *end,
                    step: *step,
                    pipeline: *pipeline,
                    unroll: *unroll,
                    body,
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => RStmt::If(
                self.expr(cond)?,
                self.block(then_body)?,
                self.block(else_body)?,
            ),
        })
    }
}

/// Validates a kernel against the operator discipline.
///
/// # Errors
///
/// Returns the first violation found; see [`CheckError`] for the catalogue.
pub fn validate(kernel: &Kernel) -> Result<(), CheckError> {
    resolve(kernel).map(|_| ())
}

/// Validates a kernel and, in the same walk, types every expression and
/// resolves every name to a declaration index (see [`ResolvedKernel`]).
///
/// # Errors
///
/// Returns the first violation found, exactly as [`validate`] does.
pub fn resolve(kernel: &Kernel) -> Result<ResolvedKernel<'_>, CheckError> {
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
    let body = env.block(&kernel.body)?;
    Ok(ResolvedKernel {
        kernel,
        body,
        loop_vars: env.loop_vars,
    })
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

    /// The type `resolve` gives `e` as the value of the kernel's only
    /// statement, a write to `out`.
    fn root_type(k: &Kernel, e: Expr) -> Scalar {
        let k = Kernel {
            body: vec![Stmt::write("out", e)],
            ..k.clone()
        };
        match &resolve(&k).unwrap().body[..] {
            [RStmt::Write(_, value)] => value.ty,
            other => panic!("one write expected, got {other:?}"),
        }
    }

    #[test]
    fn infer_types_for_mixed_expressions() {
        let k = base()
            .local("f", Scalar::fixed(32, 17))
            .body([Stmt::read("x", "in"), Stmt::write("out", Expr::var("x"))])
            .build()
            .unwrap();
        let t = root_type(&k, Expr::var("f").mul(Expr::var("f")));
        assert_eq!(t, Scalar::fixed(64, 34));
        let t = root_type(&k, Expr::var("x").lt(Expr::cint(5)));
        assert_eq!(t, Scalar::uint(1));
    }

    #[test]
    fn slots_number_locals_then_loop_indices_in_pre_order() {
        let k = base()
            .local("y", Scalar::int(8))
            .body([
                Stmt::for_loop(
                    "i",
                    0..2,
                    [
                        Stmt::for_loop("j", 0..2, [Stmt::assign("y", Expr::var("j"))]),
                        Stmt::assign("x", Expr::var("i")),
                    ],
                ),
                Stmt::for_loop("i", 0..2, [Stmt::assign("y", Expr::var("i"))]),
            ])
            .build()
            .unwrap();
        let rk = resolve(&k).unwrap();
        assert_eq!(rk.slots(), 5);
        let names: Vec<&str> = (0..rk.slots()).map(|s| rk.slot_name(s)).collect();
        assert_eq!(names, ["x", "y", "i", "j", "i"]);
        assert!(!rk.is_loop_index(1) && rk.is_loop_index(2));

        // In pre-order: every loop's slot, and every assignment's target
        // with the slot and type it reads. Each `Var` reads its own loop's
        // slot, and the sibling `i` loops get distinct slots.
        #[derive(Debug, PartialEq)]
        enum Seen {
            Loop(usize),
            Assign(usize, usize, Scalar),
        }
        fn walk(body: &[RStmt], out: &mut Vec<Seen>) {
            for s in body {
                match s {
                    RStmt::For { var, body, .. } => {
                        out.push(Seen::Loop(*var));
                        walk(body, out);
                    }
                    RStmt::Assign(
                        var,
                        RExpr {
                            ty,
                            node: RNode::Var(slot),
                        },
                    ) => out.push(Seen::Assign(*var, *slot, *ty)),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        let mut seen = Vec::new();
        walk(&rk.body, &mut seen);
        let int32 = Scalar::int(32);
        use Seen::{Assign, Loop};
        assert_eq!(
            seen,
            [
                Loop(2),
                Loop(3),
                Assign(1, 3, int32),
                Assign(0, 2, int32),
                Loop(4),
                Assign(1, 4, int32)
            ]
        );
    }

    #[test]
    fn declarations_keep_their_indices_used_or_not() {
        let k = base()
            .local("unused", Scalar::uint(4))
            .local("y", Scalar::uint(8))
            .array("dead", Scalar::uint(8), 4)
            .array("a", Scalar::uint(8), 4)
            .output("o2", Scalar::uint(8))
            .body([
                Stmt::read("y", "in"),
                Stmt::store("a", Expr::cint(0), Expr::var("y")),
                Stmt::write("o2", Expr::index("a", Expr::cint(1))),
            ])
            .build()
            .unwrap();
        let rk = resolve(&k).unwrap();
        assert_eq!(rk.slots(), 3);
        assert_eq!(rk.body[0], RStmt::Read(2, 0));
        assert!(matches!(rk.body[1], RStmt::ArraySet(1, ..)));
        match &rk.body[2] {
            RStmt::Write(1, value) => {
                assert_eq!(value.ty, Scalar::uint(8));
                assert!(matches!(value.node, RNode::ArrayGet(1, _)));
            }
            other => panic!("a write to `o2` expected, got {other:?}"),
        }
    }
}
