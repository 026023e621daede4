//! The oracle: the tree-walking interpreter that evaluates every IR op on
//! tagged [`Value`]s through [`eval_bin`]/[`eval_un`] and [`Value::coerce`],
//! re-deriving each result's shape at run time. It defines what a kernel
//! computes; the compiled engine behind [`super::Resolved`] must agree with it
//! in every output, every [`InterpStats`] field and every [`InterpError`].

use std::collections::HashMap;

use super::{InterpError, InterpStats, KernelIo};
use crate::expr::Expr;
use crate::kernel::Kernel;
use crate::ops::{eval_bin, eval_un};
use crate::stmt::Stmt;
use crate::types::{Scalar, Value};

/// [`super::Resolved::run_with_io`]'s oracle: resolves `kernel` and runs it
/// on the tree walker. Bit-identical in outputs, [`InterpStats`] and
/// [`InterpError`]s, which the differential tests assert; only slower.
/// Production code never calls it.
///
/// # Errors
///
/// See [`InterpError`].
pub fn run_reference(
    kernel: &Kernel,
    io: &mut dyn KernelIo,
    budget: u64,
) -> Result<InterpStats, InterpError> {
    Reference::new(kernel).run_with_io(io, budget)
}

enum RExpr {
    Const(Value),
    Var(usize),
    ArrayGet { array: usize, index: Box<RExpr> },
    Un(crate::expr::UnOp, Box<RExpr>),
    Bin(crate::expr::BinOp, Box<RExpr>, Box<RExpr>),
    Cast(Scalar, Box<RExpr>),
    Select(Box<RExpr>, Box<RExpr>, Box<RExpr>),
    BitRange(Box<RExpr>, u32, u32),
}

enum RStmt {
    Assign {
        slot: usize,
        ty: Scalar,
        value: RExpr,
    },
    ArraySet {
        array: usize,
        index: RExpr,
        value: RExpr,
    },
    Read {
        slot: usize,
        ty: Scalar,
        port: usize,
    },
    Write {
        port: usize,
        elem: Scalar,
        value: RExpr,
    },
    For {
        slot: usize,
        begin: i64,
        end: i64,
        step: i64,
        body: Vec<RStmt>,
    },
    If {
        cond: RExpr,
        then_body: Vec<RStmt>,
        else_body: Vec<RStmt>,
    },
}

/// A kernel with names resolved to slots, ready for the tree walker.
struct Reference {
    inputs: Vec<(String, Scalar)>,
    var_init: Vec<Value>,
    array_meta: Vec<(String, Scalar, u64)>,
    array_init: Vec<Vec<Value>>,
    body: Vec<RStmt>,
}

struct Resolver<'k> {
    kernel: &'k Kernel,
    var_slots: HashMap<String, (usize, Scalar)>,
    array_slots: HashMap<String, usize>,
    in_slots: HashMap<String, usize>,
    out_slots: HashMap<String, usize>,
    scope: Vec<(String, usize)>,
    next_var: usize,
}

impl<'k> Resolver<'k> {
    fn lookup_var(&self, name: &str) -> (usize, Scalar) {
        if let Some((_, slot)) = self.scope.iter().rev().find(|(n, _)| n == name) {
            return (*slot, Scalar::int(32));
        }
        self.var_slots[name]
    }

    fn expr(&mut self, e: &Expr) -> RExpr {
        match e {
            Expr::Const { raw, ty } => RExpr::Const(match *ty {
                Scalar::Int { width, signed } => {
                    Value::Int(aplib::DynInt::from_i128(width, signed, *raw))
                }
                Scalar::Fixed {
                    width,
                    int_bits,
                    signed,
                } => Value::Fixed(aplib::DynFixed::from_raw(
                    width,
                    int_bits,
                    signed,
                    *raw as u128,
                )),
            }),
            Expr::Var(name) => RExpr::Var(self.lookup_var(name).0),
            Expr::ArrayGet { array, index } => RExpr::ArrayGet {
                array: self.array_slots[array.as_str()],
                index: Box::new(self.expr(index)),
            },
            Expr::Un { op, arg } => RExpr::Un(*op, Box::new(self.expr(arg))),
            Expr::Bin { op, lhs, rhs } => {
                RExpr::Bin(*op, Box::new(self.expr(lhs)), Box::new(self.expr(rhs)))
            }
            Expr::Cast { ty, arg } => RExpr::Cast(*ty, Box::new(self.expr(arg))),
            Expr::Select {
                cond,
                then_val,
                else_val,
            } => RExpr::Select(
                Box::new(self.expr(cond)),
                Box::new(self.expr(then_val)),
                Box::new(self.expr(else_val)),
            ),
            Expr::BitRange { arg, hi, lo } => RExpr::BitRange(Box::new(self.expr(arg)), *hi, *lo),
        }
    }

    fn block(&mut self, body: &[Stmt]) -> Vec<RStmt> {
        body.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, s: &Stmt) -> RStmt {
        match s {
            Stmt::Assign { var, value } => {
                let (slot, ty) = self.lookup_var(var);
                RStmt::Assign {
                    slot,
                    ty,
                    value: self.expr(value),
                }
            }
            Stmt::ArraySet {
                array,
                index,
                value,
            } => RStmt::ArraySet {
                array: self.array_slots[array.as_str()],
                index: self.expr(index),
                value: self.expr(value),
            },
            Stmt::Read { var, port } => {
                let (slot, ty) = self.lookup_var(var);
                RStmt::Read {
                    slot,
                    ty,
                    port: self.in_slots[port.as_str()],
                }
            }
            Stmt::Write { port, value } => {
                let idx = self.out_slots[port.as_str()];
                RStmt::Write {
                    port: idx,
                    elem: self.kernel.outputs[idx].elem,
                    value: self.expr(value),
                }
            }
            Stmt::For {
                var,
                begin,
                end,
                step,
                body,
                ..
            } => {
                let slot = self.next_var;
                self.next_var += 1;
                self.scope.push((var.clone(), slot));
                let body = self.block(body);
                self.scope.pop();
                RStmt::For {
                    slot,
                    begin: *begin,
                    end: *end,
                    step: *step,
                    body,
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => RStmt::If {
                cond: self.expr(cond),
                then_body: self.block(then_body),
                else_body: self.block(else_body),
            },
        }
    }
}

impl Reference {
    /// Resolves a kernel for execution. The kernel must already have passed
    /// [`crate::validate`] (kernels from [`crate::KernelBuilder`] always have).
    fn new(kernel: &Kernel) -> Reference {
        let mut var_slots = HashMap::new();
        let mut var_init = Vec::new();
        for v in &kernel.locals {
            var_slots.insert(v.name.clone(), (var_init.len(), v.ty));
            var_init.push(v.ty.zero());
        }
        // Loop variables get slots appended after the locals; count them.
        let mut loop_count = 0usize;
        for s in &kernel.body {
            s.visit(&mut |s| {
                if matches!(s, Stmt::For { .. }) {
                    loop_count += 1;
                }
            });
        }
        var_init.extend(std::iter::repeat_n(Scalar::int(32).zero(), loop_count));

        let array_slots: HashMap<String, usize> = kernel
            .arrays
            .iter()
            .enumerate()
            .map(|(i, a)| (a.name.clone(), i))
            .collect();
        let array_meta: Vec<(String, Scalar, u64)> = kernel
            .arrays
            .iter()
            .map(|a| (a.name.clone(), a.elem, a.len))
            .collect();
        let array_init: Vec<Vec<Value>> = kernel
            .arrays
            .iter()
            .map(|a| match &a.init {
                Some(init) => init
                    .iter()
                    .map(|raw| match a.elem {
                        Scalar::Int { width, signed } => {
                            Value::Int(aplib::DynInt::from_raw(width, signed, *raw))
                        }
                        Scalar::Fixed {
                            width,
                            int_bits,
                            signed,
                        } => Value::Fixed(aplib::DynFixed::from_raw(width, int_bits, signed, *raw)),
                    })
                    .collect(),
                None => vec![a.elem.zero(); a.len as usize],
            })
            .collect();

        let mut resolver = Resolver {
            kernel,
            next_var: kernel.locals.len(),
            var_slots,
            array_slots,
            in_slots: kernel
                .inputs
                .iter()
                .enumerate()
                .map(|(i, p)| (p.name.clone(), i))
                .collect(),
            out_slots: kernel
                .outputs
                .iter()
                .enumerate()
                .map(|(i, p)| (p.name.clone(), i))
                .collect(),
            scope: Vec::new(),
        };
        let body = resolver.block(&kernel.body);

        Reference {
            inputs: kernel
                .inputs
                .iter()
                .map(|p| (p.name.clone(), p.elem))
                .collect(),
            var_init,
            array_meta,
            array_init,
            body,
        }
    }

    fn run_with_io(&self, io: &mut dyn KernelIo, budget: u64) -> Result<InterpStats, InterpError> {
        let mut state = ExecState {
            vars: self.var_init.clone(),
            arrays: self.array_init.clone(),
            array_meta: &self.array_meta,
            inputs: &self.inputs,
            io,
            stats: InterpStats::default(),
            budget,
        };
        exec_block(&self.body, &mut state)?;
        Ok(state.stats)
    }
}

struct ExecState<'r> {
    vars: Vec<Value>,
    arrays: Vec<Vec<Value>>,
    array_meta: &'r [(String, Scalar, u64)],
    inputs: &'r [(String, Scalar)],
    io: &'r mut dyn KernelIo,
    stats: InterpStats,
    budget: u64,
}

impl ExecState<'_> {
    #[inline]
    fn charge(&mut self, n: u64) -> Result<(), InterpError> {
        self.stats.ops += n;
        if self.stats.ops > self.budget {
            Err(InterpError::OpBudgetExceeded {
                budget: self.budget,
            })
        } else {
            Ok(())
        }
    }

    /// Cold path: name the port only once an underflow ends the run.
    #[cold]
    fn read_failed(&self, port: usize) -> InterpError {
        InterpError::StreamUnderflow {
            port: self.inputs[port].0.clone(),
        }
    }
}

/// An array index read as the compiled engine reads it: the value's canonical
/// `i128`, which for an `ap_uint<128>` is its raw bits (negative above
/// `i128::MAX`, hence out of bounds).
fn index_of(v: Value) -> i128 {
    let i = v.as_int();
    if i.is_signed() {
        i.to_i128()
    } else {
        i.raw() as i128
    }
}

fn eval(e: &RExpr, st: &mut ExecState<'_>) -> Result<Value, InterpError> {
    match e {
        RExpr::Const(v) => Ok(*v),
        RExpr::Var(slot) => Ok(st.vars[*slot]),
        RExpr::ArrayGet { array, index } => {
            let idx = index_of(eval(index, st)?);
            st.charge(1)?;
            let (name, _, len) = &st.array_meta[*array];
            if idx < 0 || idx as u64 >= *len {
                return Err(InterpError::IndexOutOfBounds {
                    array: name.clone(),
                    index: idx,
                    len: *len,
                });
            }
            Ok(st.arrays[*array][idx as usize])
        }
        RExpr::Un(op, arg) => {
            let v = eval(arg, st)?;
            st.charge(1)?;
            Ok(eval_un(*op, v))
        }
        RExpr::Bin(op, lhs, rhs) => {
            let l = eval(lhs, st)?;
            let r = eval(rhs, st)?;
            st.charge(1)?;
            Ok(eval_bin(*op, l, r))
        }
        RExpr::Cast(ty, arg) => {
            let v = eval(arg, st)?;
            Ok(v.coerce(*ty))
        }
        RExpr::Select(cond, then_val, else_val) => {
            let c = eval(cond, st)?;
            st.charge(1)?;
            let t = eval(then_val, st)?;
            let e = eval(else_val, st)?;
            // Mux: both sides are computed in hardware; pick by condition and
            // carry the checker's shape so either arm yields the same type.
            let common = crate::ops::select_type(t.scalar(), e.scalar());
            Ok(if c.is_zero() {
                e.coerce(common)
            } else {
                t.coerce(common)
            })
        }
        RExpr::BitRange(arg, hi, lo) => {
            let v = eval(arg, st)?;
            st.charge(1)?;
            let as_int = aplib::DynInt::from_raw(v.scalar().width(), false, v.raw());
            Ok(Value::Int(as_int.bit_range(*hi, *lo)))
        }
    }
}

fn exec_block(body: &[RStmt], st: &mut ExecState<'_>) -> Result<(), InterpError> {
    for s in body {
        match s {
            RStmt::Assign { slot, ty, value } => {
                let v = eval(value, st)?;
                st.charge(1)?;
                st.vars[*slot] = v.coerce(*ty);
            }
            RStmt::ArraySet {
                array,
                index,
                value,
            } => {
                let idx = index_of(eval(index, st)?);
                let v = eval(value, st)?;
                st.charge(1)?;
                let (name, elem, len) = &st.array_meta[*array];
                if idx < 0 || idx as u64 >= *len {
                    return Err(InterpError::IndexOutOfBounds {
                        array: name.clone(),
                        index: idx,
                        len: *len,
                    });
                }
                st.arrays[*array][idx as usize] = v.coerce(*elem);
            }
            RStmt::Read { slot, ty, port } => {
                st.charge(1)?;
                let v = match st.io.read(*port) {
                    Ok(v) => v,
                    Err(_) => return Err(st.read_failed(*port)),
                };
                st.stats.reads += 1;
                st.vars[*slot] = v.coerce(*ty);
            }
            RStmt::Write { port, elem, value } => {
                let v = eval(value, st)?;
                st.charge(1)?;
                st.stats.writes += 1;
                st.io.write(*port, v.coerce(*elem));
            }
            RStmt::For {
                slot,
                begin,
                end,
                step,
                body,
            } => {
                let mut i = *begin;
                while i < *end {
                    st.charge(1)?;
                    st.vars[*slot] = Value::Int(aplib::DynInt::from_i128(32, true, i as i128));
                    exec_block(body, st)?;
                    i += *step;
                }
            }
            RStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = eval(cond, st)?;
                st.charge(1)?;
                if c.is_zero() {
                    exec_block(else_body, st)?;
                } else {
                    exec_block(then_body, st)?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::IoError;
    use crate::kernel::KernelBuilder;
    use crate::resolved;

    /// Integer shapes at every width and a grid of fixed shapes: widths at
    /// the word corners, integer parts negative, zero, inside and beyond
    /// the width.
    fn legal_shapes() -> Vec<Scalar> {
        let mut shapes = Vec::new();
        for width in 1..=aplib::MAX_WIDTH {
            shapes.push(Scalar::int(width));
            shapes.push(Scalar::uint(width));
        }
        for width in [1, 2, 7, 8, 16, 17, 31, 32, 33, 48, 63, 64, 65, 96, 127, 128] {
            let w = width as i32;
            for int_bits in [-4, 0, 1, w / 2, 17, w, w + 3] {
                shapes.push(Scalar::fixed(width, int_bits));
                shapes.push(Scalar::ufixed(width, int_bits));
            }
        }
        shapes
    }

    struct NoIo;

    impl KernelIo for NoIo {
        fn read(&mut self, _: usize) -> Result<Value, IoError> {
            Err(IoError::Underflow)
        }
        fn write(&mut self, _: usize, _: Value) {}
    }

    /// The tree walker's mux carries the checker's shape for every legal
    /// pair of arm shapes, whichever arm it picks.
    #[test]
    fn select_runtime_shape_is_the_checkers() {
        let k = KernelBuilder::new("k")
            .output("out", Scalar::uint(8))
            .body([Stmt::write("out", Expr::cint(0))])
            .build()
            .unwrap();
        // The type `resolve` gives an expression written to `out`.
        let resolved_type = |e: Expr| {
            let k = Kernel {
                body: vec![Stmt::write("out", e)],
                ..k.clone()
            };
            match &crate::resolve(&k).unwrap().body[..] {
                [resolved::RStmt::Write(_, value)] => value.ty,
                other => panic!("one write expected, got {other:?}"),
            }
        };
        let mut io = NoIo;
        let mut st = ExecState {
            vars: Vec::new(),
            arrays: Vec::new(),
            array_meta: &[],
            inputs: &[],
            io: &mut io,
            stats: InterpStats::default(),
            budget: u64::MAX,
        };
        let one = |ty: Scalar| Expr::Const { raw: 1, ty };
        let shapes = legal_shapes();
        for &t in &shapes {
            for &e in &shapes {
                let want = resolved_type(Expr::cint(1).select(one(t), one(e)));
                for cond in [0, 1] {
                    let select = Expr::cint(cond).select(one(t), one(e));
                    let mut r = Resolver {
                        kernel: &k,
                        var_slots: HashMap::new(),
                        array_slots: HashMap::new(),
                        in_slots: HashMap::new(),
                        out_slots: HashMap::new(),
                        scope: Vec::new(),
                        next_var: 0,
                    };
                    let got = eval(&r.expr(&select), &mut st).unwrap().scalar();
                    assert_eq!(got, want, "select({cond}, {t}, {e})");
                }
            }
        }
    }
}
