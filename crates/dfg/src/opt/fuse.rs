//! Operator fusion: merging a producer/consumer pair into one kernel.
//!
//! `-O1` hardware pays a page per operator and `-O0` a softcore and a
//! network hop per stream link. Tiny operators are therefore
//! transport-bound — StreamBlocks-style repartitioning fuses them so the
//! stream hops become array accesses inside one kernel.
//!
//! Legality (deadlock-safe under every engine, from the batch interpreter to
//! `-O0` cosim, whose leaf out FIFOs are bounded):
//!
//! 1. *Totality*: every output edge of `A` lands on `B` and `A` drives no
//!    external output; every input edge of `B` comes from `A` and `B` reads
//!    no external input. The fused kernel then has exactly `A`'s inputs and
//!    `B`'s outputs, so the external I/O order of the graph is unchanged.
//! 2. *Exactness*: each internalized edge moves a data-independent token
//!    count, with writes equal to reads (from [`super::rate`]). The edge can
//!    then be replaced by a scratch array holding the whole stream — `A`'s
//!    body runs to completion, then `B`'s — without overflow or underflow on
//!    any input data.
//! 3. *Capacity*: combined arrays plus the scratch buffers fit the per-page
//!    BRAM budget ([`kir::check::MAX_ARRAY_BITS`] or the floorplan's page).
//!
//! Values are bit-identical because the rewrite preserves coercion points:
//! a stream `Write` coerces to the port element type exactly as the
//! replacement `ArraySet` coerces to the buffer element type, and a stream
//! `Read` coerces into the target variable exactly as the replacement
//! `Assign` from `ArrayGet` does.

use std::collections::BTreeMap;

use kir::{ArrayDecl, CheckError, Expr, Kernel, Scalar, Stmt, VarDecl};

/// One internalized edge: `A.out_port -> B.in_port` carrying `tokens`
/// elements of type `elem`.
#[derive(Debug, Clone)]
pub struct InternalEdge {
    /// Producer-side output port name (before prefixing).
    pub out_port: String,
    /// Consumer-side input port name (before prefixing).
    pub in_port: String,
    /// Exact token count moved per invocation.
    pub tokens: u64,
    /// Element type of the stream.
    pub elem: Scalar,
}

/// Builds the fused kernel for a legal `(a, b)` pair. The caller has already
/// established legality; this is the mechanical rewrite. Validation runs as
/// a safety net via [`kir::validate`].
///
/// # Errors
///
/// Returns the first discipline violation if the rewrite produced an illegal
/// kernel (callers treat that as "skip this candidate").
pub fn fuse_pair(
    name: &str,
    a: &Kernel,
    b: &Kernel,
    internal: &[InternalEdge],
) -> Result<Kernel, CheckError> {
    let pa = prefix_kernel(a, "f0_");
    let pb = prefix_kernel(b, "f1_");

    let mut locals: Vec<VarDecl> = pa.locals;
    locals.extend(pb.locals);
    let mut arrays: Vec<ArrayDecl> = pa.arrays;
    arrays.extend(pb.arrays);

    let mut a_body = pa.body;
    let mut b_body = pb.body;
    let mut prologue = Vec::new();
    for (k, edge) in internal.iter().enumerate() {
        let buf = format!("fb{k}_buf");
        let wi = format!("fb{k}_w");
        let ri = format!("fb{k}_r");
        arrays.push(ArrayDecl {
            name: buf.clone(),
            elem: edge.elem,
            len: edge.tokens.max(1),
            init: None,
        });
        locals.push(VarDecl {
            name: wi.clone(),
            ty: Scalar::int(32),
        });
        locals.push(VarDecl {
            name: ri.clone(),
            ty: Scalar::int(32),
        });
        // Locals start at zero, but reset explicitly so the rewrite does not
        // depend on the engine's initialization policy.
        prologue.push(Stmt::assign(wi.clone(), Expr::cint(0)));
        prologue.push(Stmt::assign(ri.clone(), Expr::cint(0)));
        rewrite_writes(&mut a_body, &format!("f0_{}", edge.out_port), &buf, &wi);
        rewrite_reads(&mut b_body, &format!("f1_{}", edge.in_port), &buf, &ri);
    }

    let mut body = prologue;
    body.extend(a_body);
    body.extend(b_body);

    let fused = Kernel {
        name: name.to_string(),
        inputs: pa.inputs,
        outputs: pb.outputs,
        locals,
        arrays,
        body,
    };
    kir::validate(&fused)?;
    Ok(fused)
}

/// Builds a *loop-merged* fused kernel for a legal `(a, b)` pair, the zero-
/// buffer fast path of fusion: when both kernels are a single counted loop
/// with the same trip count and every internalized edge moves exactly one
/// token per iteration at the loop's top level, the two loop bodies
/// concatenate into one loop and each internal stream hop becomes a plain
/// scalar temporary — no scratch arrays, no counters.
///
/// This is the profitable form on every engine: the host interpreter trades
/// two stream operations for one local assignment, and `-O1` hardware chains
/// the two datapaths combinationally inside one page instead of spending
/// BRAM on a whole-stream buffer. [`fuse_pair`] remains the general fallback
/// for rate-mismatched or multi-phase pairs.
///
/// Bit-identity argument: a stream `Write` coerces to the port element type
/// and the consumer's `Read` coerces into its variable type. The rewrite
/// routes the value through a temporary declared with the *edge element
/// type*, so both coercion points happen at the same places with the same
/// types.
///
/// Returns `None` when the pair does not have the mergeable shape (callers
/// fall back to [`fuse_pair`] or skip the candidate).
pub fn merge_pair(name: &str, a: &Kernel, b: &Kernel, internal: &[InternalEdge]) -> Option<Kernel> {
    let pa = prefix_kernel(a, "f0_");
    let pb = prefix_kernel(b, "f1_");
    // The producer may carry leading top-level statements before its
    // producing loop (e.g. the fill phase of a two-phase kernel) — they run
    // before the merged loop, exactly as they ran before the emit loop.
    // Symmetrically, the consumer may carry trailing statements after its
    // consuming loop; they run after the merged loop. The per-edge checks
    // below pin all internalized I/O to the two merged loops, so the moved
    // statements never touch a rewritten port, and per-channel token order
    // (all that Kahn semantics observes) is preserved.
    let (a_lead, la) = trailing_loop(&pa.body)?;
    let (lb, b_rest) = leading_loop(&pb.body)?;
    let (a_var, a_begin, a_end, a_step, a_pipe, a_body) = la;
    let (b_var, b_begin, b_end, b_step, b_pipe, b_body) = lb;
    if a_begin != 0 || b_begin != 0 || a_step != 1 || b_step != 1 || a_end != b_end || a_end <= 0 {
        return None;
    }

    let mut a_iter = a_body.to_vec();
    // The merged loop runs on `a`'s index variable; `b`'s body sees the same
    // 0..n sequence, just under the new name.
    let mut var_map = BTreeMap::new();
    var_map.insert(b_var.to_string(), a_var.to_string());
    let mut b_iter: Vec<Stmt> = b_body.iter().map(|s| rename_stmt(s, &var_map)).collect();

    let mut locals: Vec<VarDecl> = pa.locals;
    locals.extend(pb.locals);
    let mut elided: Vec<String> = Vec::new();
    for (k, edge) in internal.iter().enumerate() {
        // One token per iteration, exactly: the edge's total must match the
        // trip count and the single write/read must sit at the loop's top
        // level (unconditional, once per iteration).
        if edge.tokens != a_end as u64 {
            return None;
        }
        let in_port = format!("f1_{}", edge.in_port);
        if count_port_ops(&b_iter, &in_port, false) != 1 {
            return None;
        }
        // All internalized I/O must happen inside the two merged loops — a
        // read in the consumer's trailing statements (or a write in the
        // producer's leading ones) would touch tokens the merged loop no
        // longer routes through a channel.
        if count_port_ops(b_rest, &in_port, false) != 0 {
            return None;
        }
        if count_port_ops(a_lead, &format!("f0_{}", edge.out_port), true) != 0 {
            return None;
        }
        let read_pos = b_iter
            .iter()
            .position(|s| matches!(s, Stmt::Read { port, .. } if *port == in_port))?;
        let Stmt::Read { var: read_var, .. } = &b_iter[read_pos] else {
            return None;
        };
        let read_var = read_var.clone();
        let read_ty = locals.iter().find(|v| v.name == read_var).map(|v| v.ty);

        // Elide the temporary entirely when the coercion chain collapses:
        // the stream coerced value→elem (write) then elem→var type (read);
        // if the variable's type IS the element type, a single direct
        // assignment performs the same one coercion. Only legal when `b`
        // does not look at the variable before the read (no value carried
        // across iterations) and no other edge already targets it.
        let elide = read_ty == Some(edge.elem)
            && !b_iter[..read_pos]
                .iter()
                .any(|s| mentions_var(s, &read_var))
            && !elided.contains(&read_var);
        if elide {
            if !replace_single_write(&mut a_iter, &format!("f0_{}", edge.out_port), &read_var) {
                return None;
            }
            b_iter.remove(read_pos);
            elided.push(read_var);
        } else {
            let tmp = format!("fm{k}_t");
            if !replace_single_write(&mut a_iter, &format!("f0_{}", edge.out_port), &tmp) {
                return None;
            }
            if !replace_single_read(&mut b_iter, &in_port, &tmp) {
                return None;
            }
            locals.push(VarDecl {
                name: tmp,
                ty: edge.elem,
            });
        }
    }

    let mut arrays: Vec<ArrayDecl> = pa.arrays;
    arrays.extend(pb.arrays);
    let mut loop_body = a_iter;
    loop_body.extend(b_iter);
    let mut body = a_lead.to_vec();
    body.push(Stmt::For {
        var: a_var.to_string(),
        begin: 0,
        end: a_end,
        step: 1,
        pipeline: a_pipe && b_pipe,
        unroll: 1,
        body: loop_body,
    });
    body.extend(b_rest.iter().cloned());
    let merged = Kernel {
        name: name.to_string(),
        inputs: pa.inputs,
        outputs: pb.outputs,
        locals,
        arrays,
        body,
    };
    kir::validate(&merged).ok()?;
    Some(merged)
}

/// Merges two *parallel* kernels — no edges between them — into one kernel
/// running both loop bodies under a single `For` (horizontal fusion).
///
/// On its own this removes no channels; its value is as an enabler: packing
/// two siblings of a splitter (or of a joiner) gives the combined operator
/// *all* of the neighbour's edges, which makes the pair legal for
/// [`merge_pair`]'s totality rule and lets a diamond collapse end to end.
///
/// Legality: both kernels are a single top-level `For` over the same
/// `0..n` range. The bodies touch disjoint ports, locals, and arrays (the
/// `f0_`/`f1_` prefixes guarantee it), so interleaving the two iteration
/// bodies preserves each kernel's per-channel token order exactly — the only
/// thing Kahn semantics observes.
pub fn merge_parallel(name: &str, x: &Kernel, y: &Kernel) -> Option<Kernel> {
    let px = prefix_kernel(x, "f0_");
    let py = prefix_kernel(y, "f1_");
    let (lx, x_rest) = leading_loop(&px.body)?;
    let (ly, y_rest) = leading_loop(&py.body)?;
    if !x_rest.is_empty() || !y_rest.is_empty() {
        return None;
    }
    let (x_var, x_begin, x_end, x_step, x_pipe, x_body) = lx;
    let (y_var, y_begin, y_end, y_step, y_pipe, y_body) = ly;
    if x_begin != 0 || y_begin != 0 || x_step != 1 || y_step != 1 || x_end != y_end || x_end <= 0 {
        return None;
    }

    let mut var_map = BTreeMap::new();
    var_map.insert(y_var.to_string(), x_var.to_string());
    let mut body = x_body.to_vec();
    body.extend(y_body.iter().map(|s| rename_stmt(s, &var_map)));

    let mut inputs = px.inputs;
    inputs.extend(py.inputs);
    let mut outputs = px.outputs;
    outputs.extend(py.outputs);
    let mut locals = px.locals;
    locals.extend(py.locals);
    let mut arrays = px.arrays;
    arrays.extend(py.arrays);
    let merged = Kernel {
        name: name.to_string(),
        inputs,
        outputs,
        locals,
        arrays,
        body: vec![Stmt::For {
            var: x_var.to_string(),
            begin: 0,
            end: x_end,
            step: 1,
            pipeline: x_pipe && y_pipe,
            unroll: 1,
            body,
        }],
    };
    kir::validate(&merged).ok()?;
    Some(merged)
}

type LoopParts<'a> = (&'a str, i64, i64, i64, bool, &'a [Stmt]);

/// The body's single counted loop, if the body is exactly one `For`.
/// Splits a body whose first statement is a `For` into that loop's parts
/// and the trailing statements.
fn leading_loop(body: &[Stmt]) -> Option<(LoopParts<'_>, &[Stmt])> {
    let (first, rest) = body.split_first()?;
    match first {
        Stmt::For {
            var,
            begin,
            end,
            step,
            pipeline,
            body,
            ..
        } => Some(((var, *begin, *end, *step, *pipeline, body), rest)),
        _ => None,
    }
}

/// Splits a body whose last statement is a `For` into the leading
/// statements and that loop's parts.
fn trailing_loop(body: &[Stmt]) -> Option<(&[Stmt], LoopParts<'_>)> {
    let (last, lead) = body.split_last()?;
    match last {
        Stmt::For {
            var,
            begin,
            end,
            step,
            pipeline,
            body,
            ..
        } => Some((lead, (var, *begin, *end, *step, *pipeline, body))),
        _ => None,
    }
}

/// Whether `s` references `name` anywhere — as an assignment/read target or
/// inside any expression — including in nested statements.
fn mentions_var(s: &Stmt, name: &str) -> bool {
    fn in_expr(e: &Expr, name: &str) -> bool {
        match e {
            Expr::Const { .. } => false,
            Expr::Var(v) => v == name,
            Expr::ArrayGet { array, index } => array == name || in_expr(index, name),
            Expr::Un { arg, .. } | Expr::Cast { arg, .. } | Expr::BitRange { arg, .. } => {
                in_expr(arg, name)
            }
            Expr::Bin { lhs, rhs, .. } => in_expr(lhs, name) || in_expr(rhs, name),
            Expr::Select {
                cond,
                then_val,
                else_val,
            } => in_expr(cond, name) || in_expr(then_val, name) || in_expr(else_val, name),
        }
    }
    match s {
        Stmt::Assign { var, value } => var == name || in_expr(value, name),
        Stmt::ArraySet {
            array,
            index,
            value,
        } => array == name || in_expr(index, name) || in_expr(value, name),
        Stmt::Read { var, .. } => var == name,
        Stmt::Write { value, .. } => in_expr(value, name),
        Stmt::For { var, body, .. } => var == name || body.iter().any(|s| mentions_var(s, name)),
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            in_expr(cond, name)
                || then_body.iter().any(|s| mentions_var(s, name))
                || else_body.iter().any(|s| mentions_var(s, name))
        }
    }
}

/// True if `body` contains statements of interest for the merge shape check.
fn count_port_ops(body: &[Stmt], port: &str, write: bool) -> usize {
    let mut n = 0;
    for s in body {
        s.visit(&mut |s| match s {
            Stmt::Write { port: p, .. } if write && p == port => n += 1,
            Stmt::Read { port: p, .. } if !write && p == port => n += 1,
            _ => {}
        });
    }
    n
}

/// Replaces the single top-level `Write` to `port` with `tmp = value`.
/// Fails (returns `false`) unless the write is unique in the whole body and
/// sits at the top level — i.e. executes exactly once per loop iteration.
fn replace_single_write(iter_body: &mut [Stmt], port: &str, tmp: &str) -> bool {
    if count_port_ops(iter_body, port, true) != 1 {
        return false;
    }
    for s in iter_body.iter_mut() {
        if let Stmt::Write { port: p, value } = s {
            if p == port {
                *s = Stmt::assign(tmp, value.clone());
                return true;
            }
        }
    }
    false
}

/// Replaces the single top-level `Read` from `port` with `var = tmp`.
fn replace_single_read(iter_body: &mut [Stmt], port: &str, tmp: &str) -> bool {
    if count_port_ops(iter_body, port, false) != 1 {
        return false;
    }
    for s in iter_body.iter_mut() {
        if let Stmt::Read { var, port: p } = s {
            if p == port {
                *s = Stmt::assign(var.clone(), Expr::var(tmp));
                return true;
            }
        }
    }
    false
}

/// Applies `prefix` to every declared name of `k` — ports, locals, arrays,
/// and loop variables — and to every reference. Distinct prefixes make two
/// kernels' namespaces disjoint so their declarations can be concatenated.
fn prefix_kernel(k: &Kernel, prefix: &str) -> Kernel {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    for p in k.inputs.iter().chain(&k.outputs) {
        map.insert(p.name.clone(), format!("{prefix}{}", p.name));
    }
    for v in &k.locals {
        map.insert(v.name.clone(), format!("{prefix}{}", v.name));
    }
    for a in &k.arrays {
        map.insert(a.name.clone(), format!("{prefix}{}", a.name));
    }
    for s in &k.body {
        s.visit(&mut |s| {
            if let Stmt::For { var, .. } = s {
                map.entry(var.clone())
                    .or_insert_with(|| format!("{prefix}{var}"));
            }
        });
    }
    Kernel {
        name: format!("{prefix}{}", k.name),
        inputs: k
            .inputs
            .iter()
            .map(|p| kir::PortDecl {
                name: map[&p.name].clone(),
                elem: p.elem,
            })
            .collect(),
        outputs: k
            .outputs
            .iter()
            .map(|p| kir::PortDecl {
                name: map[&p.name].clone(),
                elem: p.elem,
            })
            .collect(),
        locals: k
            .locals
            .iter()
            .map(|v| VarDecl {
                name: map[&v.name].clone(),
                ty: v.ty,
            })
            .collect(),
        arrays: k
            .arrays
            .iter()
            .map(|a| ArrayDecl {
                name: map[&a.name].clone(),
                ..a.clone()
            })
            .collect(),
        body: k.body.iter().map(|s| rename_stmt(s, &map)).collect(),
    }
}

fn renamed(map: &BTreeMap<String, String>, name: &str) -> String {
    map.get(name).cloned().unwrap_or_else(|| name.to_string())
}

fn rename_stmt(s: &Stmt, map: &BTreeMap<String, String>) -> Stmt {
    match s {
        Stmt::Assign { var, value } => Stmt::Assign {
            var: renamed(map, var),
            value: rename_expr(value, map),
        },
        Stmt::ArraySet {
            array,
            index,
            value,
        } => Stmt::ArraySet {
            array: renamed(map, array),
            index: rename_expr(index, map),
            value: rename_expr(value, map),
        },
        Stmt::Read { var, port } => Stmt::Read {
            var: renamed(map, var),
            port: renamed(map, port),
        },
        Stmt::Write { port, value } => Stmt::Write {
            port: renamed(map, port),
            value: rename_expr(value, map),
        },
        Stmt::For {
            var,
            begin,
            end,
            step,
            pipeline,
            unroll,
            body,
        } => Stmt::For {
            var: renamed(map, var),
            begin: *begin,
            end: *end,
            step: *step,
            pipeline: *pipeline,
            unroll: *unroll,
            body: body.iter().map(|s| rename_stmt(s, map)).collect(),
        },
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => Stmt::If {
            cond: rename_expr(cond, map),
            then_body: then_body.iter().map(|s| rename_stmt(s, map)).collect(),
            else_body: else_body.iter().map(|s| rename_stmt(s, map)).collect(),
        },
    }
}

fn rename_expr(e: &Expr, map: &BTreeMap<String, String>) -> Expr {
    match e {
        Expr::Const { .. } => e.clone(),
        Expr::Var(name) => Expr::Var(renamed(map, name)),
        Expr::ArrayGet { array, index } => Expr::ArrayGet {
            array: renamed(map, array),
            index: Box::new(rename_expr(index, map)),
        },
        Expr::Un { op, arg } => Expr::Un {
            op: *op,
            arg: Box::new(rename_expr(arg, map)),
        },
        Expr::Bin { op, lhs, rhs } => Expr::Bin {
            op: *op,
            lhs: Box::new(rename_expr(lhs, map)),
            rhs: Box::new(rename_expr(rhs, map)),
        },
        Expr::Cast { ty, arg } => Expr::Cast {
            ty: *ty,
            arg: Box::new(rename_expr(arg, map)),
        },
        Expr::Select {
            cond,
            then_val,
            else_val,
        } => Expr::Select {
            cond: Box::new(rename_expr(cond, map)),
            then_val: Box::new(rename_expr(then_val, map)),
            else_val: Box::new(rename_expr(else_val, map)),
        },
        Expr::BitRange { arg, hi, lo } => Expr::BitRange {
            arg: Box::new(rename_expr(arg, map)),
            hi: *hi,
            lo: *lo,
        },
    }
}

/// Replaces every `Write` to `port` with a buffer store plus counter bump.
fn rewrite_writes(body: &mut Vec<Stmt>, port: &str, buf: &str, counter: &str) {
    let mut out = Vec::with_capacity(body.len());
    for s in body.drain(..) {
        match s {
            Stmt::Write { port: p, value } if p == port => {
                out.push(Stmt::store(buf, Expr::var(counter), value));
                out.push(Stmt::assign(counter, Expr::var(counter).add(Expr::cint(1))));
            }
            Stmt::For {
                var,
                begin,
                end,
                step,
                pipeline,
                unroll,
                mut body,
            } => {
                rewrite_writes(&mut body, port, buf, counter);
                out.push(Stmt::For {
                    var,
                    begin,
                    end,
                    step,
                    pipeline,
                    unroll,
                    body,
                });
            }
            Stmt::If {
                cond,
                mut then_body,
                mut else_body,
            } => {
                rewrite_writes(&mut then_body, port, buf, counter);
                rewrite_writes(&mut else_body, port, buf, counter);
                out.push(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                });
            }
            other => out.push(other),
        }
    }
    *body = out;
}

/// Replaces every `Read` from `port` with a buffer load plus counter bump.
fn rewrite_reads(body: &mut Vec<Stmt>, port: &str, buf: &str, counter: &str) {
    let mut out = Vec::with_capacity(body.len());
    for s in body.drain(..) {
        match s {
            Stmt::Read { var, port: p } if p == port => {
                out.push(Stmt::assign(var, Expr::index(buf, Expr::var(counter))));
                out.push(Stmt::assign(counter, Expr::var(counter).add(Expr::cint(1))));
            }
            Stmt::For {
                var,
                begin,
                end,
                step,
                pipeline,
                unroll,
                mut body,
            } => {
                rewrite_reads(&mut body, port, buf, counter);
                out.push(Stmt::For {
                    var,
                    begin,
                    end,
                    step,
                    pipeline,
                    unroll,
                    body,
                });
            }
            Stmt::If {
                cond,
                mut then_body,
                mut else_body,
            } => {
                rewrite_reads(&mut then_body, port, buf, counter);
                rewrite_reads(&mut else_body, port, buf, counter);
                out.push(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                });
            }
            other => out.push(other),
        }
    }
    *body = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use kir::interp::Resolved;
    use kir::types::Value;
    use kir::KernelBuilder;

    fn word(v: u32) -> Value {
        Value::Int(aplib::DynInt::from_raw(32, false, v as u128))
    }

    #[test]
    fn fused_chain_matches_sequential_run() {
        let n = 16i64;
        let a = KernelBuilder::new("a")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([Stmt::for_loop(
                "i",
                0..n,
                [
                    Stmt::read("x", "in"),
                    Stmt::write("out", Expr::var("x").add(Expr::cint(3))),
                ],
            )])
            .build()
            .unwrap();
        let b = KernelBuilder::new("b")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([Stmt::for_loop(
                "i",
                0..n,
                [
                    Stmt::read("x", "in"),
                    Stmt::write("out", Expr::var("x").mul(Expr::cint(2))),
                ],
            )])
            .build()
            .unwrap();
        let fused = fuse_pair(
            "ab",
            &a,
            &b,
            &[InternalEdge {
                out_port: "out".into(),
                in_port: "in".into(),
                tokens: n as u64,
                elem: Scalar::uint(32),
            }],
        )
        .unwrap();
        assert_eq!(fused.inputs.len(), 1);
        assert_eq!(fused.outputs.len(), 1);

        let stream: Vec<Value> = (0..n as u32).map(word).collect();
        let (out, _) = Resolved::new(&fused)
            .run(&[("f0_in", stream)], kir::interp::DEFAULT_OP_BUDGET)
            .unwrap();
        let expect: Vec<Value> = (0..n as u32).map(|v| word((v + 3) * 2)).collect();
        assert_eq!(out["f1_out"], expect);
    }

    #[test]
    fn coercion_points_survive_fusion() {
        // a writes 32-bit values into an 8-bit port (truncating coercion);
        // b reads them into a 16-bit local. The buffer must truncate at the
        // same point the stream did.
        let n = 8i64;
        let a = KernelBuilder::new("a")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(8))
            .local("x", Scalar::uint(32))
            .body([Stmt::for_loop(
                "i",
                0..n,
                [
                    Stmt::read("x", "in"),
                    Stmt::write("out", Expr::var("x").add(Expr::cint(250))),
                ],
            )])
            .build()
            .unwrap();
        let b = KernelBuilder::new("b")
            .input("in", Scalar::uint(8))
            .output("out", Scalar::uint(16))
            .local("y", Scalar::uint(16))
            .body([Stmt::for_loop(
                "i",
                0..n,
                [
                    Stmt::read("y", "in"),
                    Stmt::write("out", Expr::var("y").add(Expr::cint(1))),
                ],
            )])
            .build()
            .unwrap();
        let fused = fuse_pair(
            "ab",
            &a,
            &b,
            &[InternalEdge {
                out_port: "out".into(),
                in_port: "in".into(),
                tokens: n as u64,
                elem: Scalar::uint(8),
            }],
        )
        .unwrap();

        let stream: Vec<Value> = (0..n as u32).map(word).collect();
        let (out, _) = Resolved::new(&fused)
            .run(&[("f0_in", stream)], kir::interp::DEFAULT_OP_BUDGET)
            .unwrap();
        // Sequential reference: coerce to u8 after +250, then widen, +1.
        let expect: Vec<Value> = (0..n as u32)
            .map(|v| {
                Value::Int(aplib::DynInt::from_raw(
                    16,
                    false,
                    (((v + 250) & 0xff) + 1) as u128,
                ))
            })
            .collect();
        assert_eq!(out["f1_out"], expect);
    }

    fn map32(name: &str, n: i64, addend: i64) -> Kernel {
        KernelBuilder::new(name)
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([Stmt::for_loop(
                "i",
                0..n,
                [
                    Stmt::read("x", "in"),
                    Stmt::write("out", Expr::var("x").add(Expr::cint(addend))),
                ],
            )])
            .build()
            .unwrap()
    }

    fn u32_edge(n: u64) -> InternalEdge {
        InternalEdge {
            out_port: "out".into(),
            in_port: "in".into(),
            tokens: n,
            elem: Scalar::uint(32),
        }
    }

    #[test]
    fn merged_chain_elides_the_temporary_and_matches_sequential_run() {
        let n = 8i64;
        let a = map32("a", n, 3);
        let b = map32("b", n, 10);
        let merged = merge_pair("ab", &a, &b, &[u32_edge(n as u64)]).unwrap();

        // Same element and variable type: the internal hop collapses to a
        // direct assignment — one loop, no channel I/O on the fused ports,
        // no extra temporary local.
        assert_eq!(merged.body.len(), 1);
        let mut internal_io = 0;
        merged.body[0].visit(&mut |s| {
            if matches!(s, Stmt::Read { port, .. } if port == "f1_in")
                || matches!(s, Stmt::Write { port, .. } if port == "f0_out")
            {
                internal_io += 1;
            }
        });
        assert_eq!(internal_io, 0);
        assert!(!merged.locals.iter().any(|v| v.name.starts_with("fm")));

        let stream: Vec<Value> = (0..n as u32).map(word).collect();
        let (out, _) = Resolved::new(&merged)
            .run(&[("f0_in", stream)], kir::interp::DEFAULT_OP_BUDGET)
            .unwrap();
        let expect: Vec<Value> = (0..n as u32).map(|v| word(v + 13)).collect();
        assert_eq!(out["f1_out"], expect);
    }

    #[test]
    fn merge_keeps_coercing_through_a_temporary_when_types_differ() {
        // a writes u32 into a u8 port; b reads into a u16 local — the elision
        // precondition (variable type == element type) fails, so the merge
        // must route through a u8 temporary to truncate where the stream did.
        let n = 4i64;
        let a = KernelBuilder::new("a")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(8))
            .local("x", Scalar::uint(32))
            .body([Stmt::for_loop(
                "i",
                0..n,
                [
                    Stmt::read("x", "in"),
                    Stmt::write("out", Expr::var("x").add(Expr::cint(250))),
                ],
            )])
            .build()
            .unwrap();
        let b = KernelBuilder::new("b")
            .input("in", Scalar::uint(8))
            .output("out", Scalar::uint(16))
            .local("y", Scalar::uint(16))
            .body([Stmt::for_loop(
                "i",
                0..n,
                [
                    Stmt::read("y", "in"),
                    Stmt::write("out", Expr::var("y").add(Expr::cint(1))),
                ],
            )])
            .build()
            .unwrap();
        let merged = merge_pair(
            "ab",
            &a,
            &b,
            &[InternalEdge {
                out_port: "out".into(),
                in_port: "in".into(),
                tokens: n as u64,
                elem: Scalar::uint(8),
            }],
        )
        .unwrap();
        assert!(merged.locals.iter().any(|v| v.ty == Scalar::uint(8)));

        let stream: Vec<Value> = (0..n as u32).map(word).collect();
        let (out, _) = Resolved::new(&merged)
            .run(&[("f0_in", stream)], kir::interp::DEFAULT_OP_BUDGET)
            .unwrap();
        let expect: Vec<Value> = (0..n as u32)
            .map(|v| {
                Value::Int(aplib::DynInt::from_raw(
                    16,
                    false,
                    (((v + 250) & 0xff) + 1) as u128,
                ))
            })
            .collect();
        assert_eq!(out["f1_out"], expect);
    }

    #[test]
    fn merge_absorbs_a_map_into_a_two_phase_fill_loop() {
        // Consumer with a fill loop then an emit loop: the producer merges
        // into the fill loop and the emit phase survives as a trailing
        // statement.
        let n = 6i64;
        let a = map32("a", n, 5);
        let b = KernelBuilder::new("b")
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
                        Stmt::store("buf", Expr::var("i"), Expr::var("x")),
                    ],
                ),
                Stmt::for_loop(
                    "j",
                    0..n,
                    [Stmt::write(
                        "out",
                        Expr::index("buf", Expr::cint(n - 1).sub(Expr::var("j"))),
                    )],
                ),
            ])
            .build()
            .unwrap();
        let merged = merge_pair("ab", &a, &b, &[u32_edge(n as u64)]).unwrap();
        assert_eq!(merged.body.len(), 2);

        let stream: Vec<Value> = (0..n as u32).map(word).collect();
        let (out, _) = Resolved::new(&merged)
            .run(&[("f0_in", stream)], kir::interp::DEFAULT_OP_BUDGET)
            .unwrap();
        // Reference: +5 map, then reversed by the emit phase.
        let expect: Vec<Value> = (0..n as u32).rev().map(|v| word(v + 5)).collect();
        assert_eq!(out["f1_out"], expect);
    }

    #[test]
    fn parallel_merge_runs_both_bodies_under_one_loop() {
        let n = 5i64;
        let x = map32("x", n, 1);
        let y = map32("y", n, 2);
        let merged = merge_parallel("xy", &x, &y).unwrap();
        assert_eq!(merged.body.len(), 1);
        assert_eq!(merged.inputs.len(), 2);
        assert_eq!(merged.outputs.len(), 2);

        let s0: Vec<Value> = (0..n as u32).map(word).collect();
        let s1: Vec<Value> = (10..10 + n as u32).map(word).collect();
        let (out, _) = Resolved::new(&merged)
            .run(
                &[("f0_in", s0), ("f1_in", s1)],
                kir::interp::DEFAULT_OP_BUDGET,
            )
            .unwrap();
        let e0: Vec<Value> = (0..n as u32).map(|v| word(v + 1)).collect();
        let e1: Vec<Value> = (10..10 + n as u32).map(|v| word(v + 2)).collect();
        assert_eq!(out["f0_out"], e0);
        assert_eq!(out["f1_out"], e1);
    }
}
