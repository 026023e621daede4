//! The resolved kernel: one typed, name-free view of a validated kernel.
//!
//! [`crate::resolve`] checks a kernel and, in the same walk, types every
//! expression node and replaces every name by a declaration index. The
//! three backends (the interpreter's compiled closures, `softcore::cc` and
//! `hlsim`'s scheduler, binder and report) read this tree, so none of them
//! works out a type or looks up a name again.
//!
//! Scalar variables share one *slot* numbering: the kernel's locals first,
//! in declaration order, then one slot per `For` loop index, in pre-order
//! of the loops. Every declaration keeps its index, used or not. Names stay
//! on the borrowed [`Kernel`].

use crate::expr::{BinOp, UnOp};
use crate::kernel::Kernel;
use crate::types::Scalar;

/// A validated kernel with every expression typed and every name resolved.
/// Only [`crate::resolve`] builds one, so every index in `body` is valid
/// for `kernel`.
#[derive(Debug, Clone)]
pub struct ResolvedKernel<'k> {
    pub(crate) kernel: &'k Kernel,
    pub(crate) body: Vec<RStmt>,
    /// Loop variable names, indexed by `slot - kernel.locals.len()`.
    pub(crate) loop_vars: Vec<&'k str>,
}

impl<'k> ResolvedKernel<'k> {
    /// The source kernel, which keeps the declarations and their names.
    pub fn kernel(&self) -> &'k Kernel {
        self.kernel
    }

    /// The resolved body.
    pub fn body(&self) -> &[RStmt] {
        &self.body
    }

    /// Number of scalar slots: the locals, then one per loop index.
    pub fn slots(&self) -> usize {
        self.kernel.locals.len() + self.loop_vars.len()
    }

    /// Whether `slot` holds a loop index rather than a local.
    pub fn is_loop_index(&self, slot: usize) -> bool {
        slot >= self.kernel.locals.len()
    }

    /// The source name of a slot's local or loop variable.
    pub fn slot_name(&self, slot: usize) -> &'k str {
        match self.kernel.locals.get(slot) {
            Some(v) => &v.name,
            None => self.loop_vars[slot - self.kernel.locals.len()],
        }
    }
}

/// A typed expression node.
#[derive(Debug, Clone, PartialEq)]
pub struct RExpr {
    /// The node's static `ap_int`/`ap_fixed` shape, by the checker's rules.
    pub ty: Scalar,
    /// The operation.
    pub node: RNode,
}

/// The operation of an [`RExpr`]; each mirrors the [`crate::Expr`] variant
/// of the same name, with operands in source order.
#[derive(Debug, Clone, PartialEq)]
pub enum RNode {
    /// A literal's raw bits; its shape is the node's `ty`.
    Const(i128),
    /// A local or loop index, by slot.
    Var(usize),
    /// `array[index]`, by array index.
    ArrayGet(usize, Box<RExpr>),
    /// A unary operation.
    Un(UnOp, Box<RExpr>),
    /// A binary operation on `[lhs, rhs]`.
    Bin(BinOp, Box<[RExpr; 2]>),
    /// A conversion to the node's `ty`.
    Cast(Box<RExpr>),
    /// `[cond, then_val, else_val]`.
    Select(Box<[RExpr; 3]>),
    /// `arg(hi, lo)`.
    BitRange(Box<RExpr>, u32, u32),
}

impl RExpr {
    /// The node's operands, in source order.
    pub fn args(&self) -> &[RExpr] {
        match &self.node {
            RNode::Const(_) | RNode::Var(_) => &[],
            RNode::ArrayGet(_, arg)
            | RNode::Un(_, arg)
            | RNode::Cast(arg)
            | RNode::BitRange(arg, ..) => std::slice::from_ref(&**arg),
            RNode::Bin(_, args) => &args[..],
            RNode::Select(args) => &args[..],
        }
    }

    /// Visits every node of this expression, operands before the node.
    pub fn visit(&self, f: &mut impl FnMut(&RExpr)) {
        for arg in self.args() {
            arg.visit(f);
        }
        f(self);
    }
}

/// A resolved statement; each mirrors the [`crate::Stmt`] variant of the
/// same name. Scalars are slots; arrays and ports are declaration indices.
#[derive(Debug, Clone, PartialEq)]
pub enum RStmt {
    /// `slot = value`, to a local.
    Assign(usize, RExpr),
    /// `array[index] = value`.
    ArraySet(usize, RExpr, RExpr),
    /// `slot = inputs[port].read()`, to a local.
    Read(usize, usize),
    /// `outputs[port].write(value)`.
    Write(usize, RExpr),
    /// A counted loop; `var` is its index's slot.
    #[allow(missing_docs)]
    For {
        var: usize,
        begin: i64,
        end: i64,
        step: i64,
        pipeline: bool,
        unroll: u32,
        body: Vec<RStmt>,
    },
    /// `if (cond) then_body else else_body`.
    If(RExpr, Vec<RStmt>, Vec<RStmt>),
}

impl RStmt {
    /// A `For`'s iteration count; `None` for every other statement.
    pub fn trip_count(&self) -> Option<u64> {
        match self {
            RStmt::For {
                begin, end, step, ..
            } if *step > 0 && end > begin => Some(((end - begin) as u64).div_ceil(*step as u64)),
            RStmt::For { .. } => Some(0),
            _ => None,
        }
    }
}
