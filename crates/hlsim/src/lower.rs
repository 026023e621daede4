//! Binding/lowering: kernel IR → macro-cell netlist.
//!
//! One datapath cell is instantiated per *static* operation (hardware is
//! shared across loop iterations; unrolled loops replicate their body
//! datapath). Expression trees become cell DAGs with one net per operand
//! edge; variables live in register banks, arrays in BRAM ports, stream
//! ports in leaf-interface stream cells, and every loop gets a control FSM
//! with its counter/compare logic.

use kir::expr::{BinOp, UnOp};
use kir::{RExpr, RNode, RStmt, ResolvedKernel};
use netlist::{CellId, CellKind, Netlist};

struct Lowerer<'r, 'k> {
    rk: &'r ResolvedKernel<'k>,
    nl: Netlist,
    /// Register cell per scalar slot: one per local, then the counter of
    /// each loop lowered so far.
    slot_cells: Vec<CellId>,
    /// BRAM cell per array.
    array_cells: Vec<CellId>,
    /// Stream interface cell per input port.
    in_cells: Vec<CellId>,
    /// Stream interface cell per output port.
    out_cells: Vec<CellId>,
    /// Unique-name counter.
    fresh: usize,
}

/// Lowers a resolved kernel to a netlist. Nets take the width of the
/// resolved type of the expression driving them, except that an expression
/// reading a loop index drives a 32-bit net whatever its type (ROADMAP
/// *Findings*).
pub fn lower(rk: &ResolvedKernel<'_>) -> Netlist {
    let kernel = rk.kernel();
    let mut lw = Lowerer {
        rk,
        nl: Netlist::new(kernel.name.clone()),
        slot_cells: Vec::with_capacity(rk.slots()),
        array_cells: Vec::new(),
        in_cells: Vec::new(),
        out_cells: Vec::new(),
        fresh: 0,
    };

    for p in &kernel.inputs {
        let id = lw.nl.add_cell(
            format!("in_{}", p.name),
            CellKind::StreamIn {
                width: p.elem.width(),
            },
        );
        lw.in_cells.push(id);
    }
    for p in &kernel.outputs {
        let id = lw.nl.add_cell(
            format!("out_{}", p.name),
            CellKind::StreamOut {
                width: p.elem.width(),
            },
        );
        lw.out_cells.push(id);
    }
    for v in &kernel.locals {
        let id = lw.nl.add_cell(
            format!("reg_{}", v.name),
            CellKind::Register {
                width: v.ty.width(),
            },
        );
        lw.slot_cells.push(id);
    }
    for a in &kernel.arrays {
        let bits = a.len * u64::from(a.elem.width());
        let id = lw
            .nl
            .add_cell(format!("bram_{}", a.name), CellKind::BramPort { bits });
        lw.array_cells.push(id);
    }

    lw.block(rk.body(), 1);
    lw.nl
}

impl Lowerer<'_, '_> {
    fn fresh_name(&mut self, tag: &str) -> String {
        self.fresh += 1;
        format!("{tag}_{}", self.fresh)
    }

    /// Bit width `e`'s value lowers at: its type's width, except that an
    /// expression whose subtree reads a loop index lowers at the index's
    /// 32 bits whatever its type. `lut[i]` of a `uint8` array thus drives a
    /// 32-bit net while `lut[x[7:0]]` drives an 8-bit one. This reproduces
    /// the pricing of a lowering that typed expressions without loop
    /// indices in scope; every priced netlist depends on it (ROADMAP
    /// *Findings*). The re-pricing fix deletes this function and uses
    /// `e.ty.width()`.
    fn width_of(&self, e: &RExpr) -> u32 {
        fn reads_loop_index(rk: &ResolvedKernel<'_>, e: &RExpr) -> bool {
            matches!(e.node, RNode::Var(s) if rk.is_loop_index(s))
                || e.args().iter().any(|a| reads_loop_index(rk, a))
        }
        if reads_loop_index(self.rk, e) {
            32
        } else {
            e.ty.width()
        }
    }

    /// Maximum combinational operators chained between registers.
    ///
    /// HLS schedulers chain a few cheap operations into one cycle and
    /// register the result; without this bound a large expression tree
    /// would synthesize into one arbitrarily slow combinational cloud.
    const CHAIN_LIMIT: u32 = 1;

    /// Lowers an expression; returns the cell driving its value.
    fn expr(&mut self, e: &RExpr, copies: u32) -> CellId {
        self.expr_d(e, copies).0
    }

    /// Registers `id` if the accumulated combinational depth hit the
    /// chaining limit, returning the (possibly re-driven) cell and depth.
    fn chain(&mut self, id: CellId, depth: u32, width: u32) -> (CellId, u32) {
        if depth < Self::CHAIN_LIMIT {
            return (id, depth);
        }
        let name = self.fresh_name("pipe");
        let reg = self.nl.add_cell(name, CellKind::Register { width });
        self.nl.add_net(id, vec![reg], width);
        (reg, 0)
    }

    /// Lowers an expression; returns the driving cell and its combinational
    /// depth since the last register (constants get `Const` cells so nets
    /// always have drivers).
    fn expr_d(&mut self, e: &RExpr, copies: u32) -> (CellId, u32) {
        match &e.node {
            RNode::Const(_) => {
                let name = self.fresh_name("const");
                let width = e.ty.width();
                (self.nl.add_cell(name, CellKind::Const { width }), 0)
            }
            RNode::Var(slot) => (self.slot_cells[*slot], 0),
            RNode::ArrayGet(array, index) => {
                let (idx, _) = self.expr_d(index, copies);
                let bram = self.array_cells[*array];
                self.nl.add_net(idx, vec![bram], self.width_of(index));
                (bram, 0) // BRAM reads are registered
            }
            RNode::Un(op, arg) => {
                let w = self.width_of(arg);
                let (a, ad) = self.expr_d(arg, copies);
                let kind = match op {
                    UnOp::Neg => CellKind::Adder { width: w },
                    UnOp::Not => CellKind::Logic { width: w },
                    UnOp::LNot => CellKind::Comparator { width: w },
                    UnOp::Abs => CellKind::Mux { width: w },
                };
                let name = self.fresh_name("un");
                let id = self.add_scaled(name, kind, copies);
                self.nl.add_net(a, vec![id], w);
                self.chain(id, ad + 1, w)
            }
            RNode::Bin(op, args) => {
                let [lhs, rhs] = &**args;
                let lw = self.width_of(lhs);
                let rw = self.width_of(rhs);
                let w = lw.max(rw);
                let (l, ld) = self.expr_d(lhs, copies);
                let (r, rd) = self.expr_d(rhs, copies);
                let kind = match op {
                    BinOp::Add | BinOp::Sub => CellKind::Adder { width: w },
                    BinOp::Mul => CellKind::Mult { width: w },
                    BinOp::Div | BinOp::Rem => CellKind::Divider { width: w },
                    BinOp::And | BinOp::Or | BinOp::Xor => CellKind::Logic { width: w },
                    BinOp::Shl | BinOp::Shr => CellKind::Shifter { width: w },
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        CellKind::Comparator { width: w }
                    }
                    BinOp::LAnd | BinOp::LOr => CellKind::Logic { width: 1 },
                    BinOp::Min | BinOp::Max => CellKind::Comparator { width: w },
                };
                let name = self.fresh_name("bin");
                let id = self.add_scaled(name, kind, copies);
                self.nl.add_net(l, vec![id], lw);
                self.nl.add_net(r, vec![id], rw);
                let depth = ld.max(rd) + 1;
                if matches!(op, BinOp::Min | BinOp::Max) {
                    // Compare + select pair.
                    let name = self.fresh_name("minmax_mux");
                    let mux = self.add_scaled(name, CellKind::Mux { width: w }, copies);
                    self.nl.add_net(id, vec![mux], 1);
                    return self.chain(mux, depth + 1, w);
                }
                self.chain(id, depth, w)
            }
            RNode::Cast(arg) | RNode::BitRange(arg, ..) => {
                // Pure wiring: resize/slice costs nothing after synthesis.
                self.expr_d(arg, copies)
            }
            RNode::Select(args) => {
                let [cond, then_val, else_val] = &**args;
                let w = self.width_of(then_val).max(self.width_of(else_val));
                let (c, cd) = self.expr_d(cond, copies);
                let (t, td) = self.expr_d(then_val, copies);
                let (e, ed) = self.expr_d(else_val, copies);
                let name = self.fresh_name("mux");
                let id = self.add_scaled(name, CellKind::Mux { width: w }, copies);
                self.nl.add_net(c, vec![id], 1);
                self.nl.add_net(t, vec![id], w);
                self.nl.add_net(e, vec![id], w);
                self.chain(id, cd.max(td).max(ed) + 1, w)
            }
        }
    }

    /// Adds a cell, replicating its resources for unroll copies by scaling
    /// the width (macro-level approximation of duplicated datapath).
    fn add_scaled(&mut self, name: String, kind: CellKind, copies: u32) -> CellId {
        if copies <= 1 {
            return self.nl.add_cell(name, kind);
        }
        // Represent `copies` parallel instances as one cell of scaled width;
        // resources scale linearly, which is what unrolling costs.
        let scaled = match kind {
            CellKind::Adder { width } => CellKind::Adder {
                width: width * copies,
            },
            CellKind::Mult { width } => CellKind::Mult {
                width: width * copies,
            },
            CellKind::Divider { width } => CellKind::Divider {
                width: width * copies,
            },
            CellKind::Logic { width } => CellKind::Logic {
                width: width * copies,
            },
            CellKind::Shifter { width } => CellKind::Shifter {
                width: width * copies,
            },
            CellKind::Comparator { width } => CellKind::Comparator {
                width: width * copies,
            },
            CellKind::Mux { width } => CellKind::Mux {
                width: width * copies,
            },
            other => other,
        };
        self.nl.add_cell(name, scaled)
    }

    fn block(&mut self, body: &[RStmt], copies: u32) {
        for s in body {
            self.stmt(s, copies);
        }
    }

    fn stmt(&mut self, s: &RStmt, copies: u32) {
        match s {
            RStmt::Assign(var, value) => {
                let src = self.expr(value, copies);
                let dst = self.slot_cells[*var];
                self.nl.add_net(src, vec![dst], self.width_of(value));
            }
            RStmt::ArraySet(array, index, value) => {
                let idx = self.expr(index, copies);
                let val = self.expr(value, copies);
                let bram = self.array_cells[*array];
                self.nl.add_net(idx, vec![bram], self.width_of(index));
                self.nl.add_net(val, vec![bram], self.width_of(value));
            }
            RStmt::Read(var, port) => {
                let src = self.in_cells[*port];
                let dst = self.slot_cells[*var];
                let w = self.rk.kernel().locals[*var].ty.width();
                self.nl.add_net(src, vec![dst], w);
            }
            RStmt::Write(port, value) => {
                let src = self.expr(value, copies);
                let dst = self.out_cells[*port];
                self.nl.add_net(src, vec![dst], self.width_of(value));
            }
            RStmt::For {
                var: slot,
                body,
                unroll,
                ..
            } => {
                let var = self.rk.slot_name(*slot);
                // Control: FSM + counter register + increment + bound compare.
                let fsm_name = self.fresh_name(&format!("fsm_{var}"));
                let fsm = self.nl.add_cell(
                    fsm_name,
                    CellKind::Fsm {
                        states: body.len() as u32 + 2,
                    },
                );
                let ctr_name = self.fresh_name(&format!("ctr_{var}"));
                let ctr = self.nl.add_cell(ctr_name, CellKind::Register { width: 32 });
                let inc_name = self.fresh_name(&format!("inc_{var}"));
                let inc = self.nl.add_cell(inc_name, CellKind::Adder { width: 32 });
                let cmp_name = self.fresh_name(&format!("cmp_{var}"));
                let cmp = self
                    .nl
                    .add_cell(cmp_name, CellKind::Comparator { width: 32 });
                self.nl.add_net(ctr, vec![inc, cmp], 32);
                self.nl.add_net(inc, vec![ctr], 32);
                self.nl.add_net(cmp, vec![fsm], 1);

                // Loops are lowered in pre-order, the order their slots
                // are numbered in.
                debug_assert_eq!(*slot, self.slot_cells.len());
                self.slot_cells.push(ctr);
                self.block(body, copies * *unroll);
            }
            RStmt::If(cond, then_body, else_body) => {
                let c = self.expr(cond, copies);
                // Branch select feeds the enclosing control region; model as
                // a mux gating a 1-bit control signal.
                let name = self.fresh_name("brmux");
                let mux = self.nl.add_cell(name, CellKind::Mux { width: 1 });
                self.nl.add_net(c, vec![mux], 1);
                self.block(then_body, copies);
                self.block(else_body, copies);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kir::{Expr, Kernel, KernelBuilder, Scalar, Stmt};

    fn lower(k: &Kernel) -> Netlist {
        super::lower(&kir::resolve(k).unwrap())
    }

    fn streaming_kernel() -> Kernel {
        KernelBuilder::new("s")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .local("acc", Scalar::fixed(32, 17))
            .array("lut", Scalar::uint(8), 256)
            .body([Stmt::for_pipelined(
                "i",
                0..64,
                [
                    Stmt::read("x", "in"),
                    Stmt::assign(
                        "acc",
                        Expr::var("acc").add(
                            Expr::var("x")
                                .cast(Scalar::fixed(32, 17))
                                .mul(Expr::cfixed(0.5, Scalar::fixed(32, 17))),
                        ),
                    ),
                    Stmt::write("out", Expr::index("lut", Expr::var("x").bits(7, 0))),
                ],
            )])
            .build()
            .unwrap()
    }

    /// `lut[x[7:0]]` types as the array's 8 bits; `lut[i]` reads the loop
    /// index, so `width_of` lowers it at 32.
    #[test]
    fn expressions_over_a_loop_index_lower_at_32_bits() {
        let kernel = |index: Expr| {
            KernelBuilder::new("k")
                .input("in", Scalar::uint(32))
                .output("out", Scalar::uint(8))
                .local("x", Scalar::uint(32))
                .array("lut", Scalar::uint(8), 256)
                .body([Stmt::for_pipelined(
                    "i",
                    0..4,
                    [
                        Stmt::read("x", "in"),
                        Stmt::write("out", Expr::index("lut", index)),
                    ],
                )])
                .build()
                .unwrap()
        };
        let out_width = |k: &Kernel| {
            let nl = lower(k);
            let out = nl.cells.iter().position(|c| c.name == "out_out").unwrap();
            let net = nl.nets.iter().find(|n| n.sinks.iter().any(|s| s.0 == out));
            net.expect("the write drives `out`").width
        };
        assert_eq!(out_width(&kernel(Expr::var("x").bits(7, 0))), 8);
        assert_eq!(out_width(&kernel(Expr::var("i"))), 32);
    }

    #[test]
    fn netlist_is_wellformed() {
        let nl = lower(&streaming_kernel());
        nl.check().unwrap();
    }

    #[test]
    fn interfaces_registers_and_brams_present() {
        let nl = lower(&streaming_kernel());
        assert_eq!(
            nl.cells_where(|k| matches!(k, CellKind::StreamIn { .. }))
                .count(),
            1
        );
        assert_eq!(
            nl.cells_where(|k| matches!(k, CellKind::StreamOut { .. }))
                .count(),
            1
        );
        assert_eq!(
            nl.cells_where(|k| matches!(k, CellKind::BramPort { .. }))
                .count(),
            1
        );
        assert!(
            nl.cells_where(|k| matches!(k, CellKind::Register { .. }))
                .count()
                >= 3
        );
        assert_eq!(
            nl.cells_where(|k| matches!(k, CellKind::Fsm { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn datapath_cells_follow_operations() {
        let nl = lower(&streaming_kernel());
        // acc + (x * 0.5): one adder (plus loop counter's), one multiplier.
        assert!(
            nl.cells_where(|k| matches!(k, CellKind::Mult { .. }))
                .count()
                >= 1
        );
        assert!(
            nl.cells_where(|k| matches!(k, CellKind::Adder { .. }))
                .count()
                >= 2
        );
    }

    #[test]
    fn unrolling_scales_resources() {
        let mut k = streaming_kernel();
        let base = lower(&k).resources();
        if let Stmt::For { unroll, .. } = &mut k.body[0] {
            *unroll = 4;
        }
        let unrolled = lower(&k).resources();
        // Fixed overhead (interfaces, BRAM, FSM) is unchanged; the datapath
        // (here, the DSP multiplier) must scale with the unroll factor.
        assert!(
            unrolled.luts > base.luts,
            "unrolled {} vs base {}",
            unrolled.luts,
            base.luts
        );
        assert!(
            unrolled.dsp >= base.dsp * 4,
            "unrolled dsp {} vs base {}",
            unrolled.dsp,
            base.dsp
        );
    }

    #[test]
    fn bigger_kernels_make_bigger_netlists() {
        let small = lower(&streaming_kernel());
        let big_kernel = {
            let mut b = KernelBuilder::new("big")
                .input("in", Scalar::uint(32))
                .output("out", Scalar::uint(32))
                .local("x", Scalar::uint(32));
            for i in 0..20 {
                b = b.local(format!("t{i}"), Scalar::uint(32));
            }
            let mut stmts = vec![Stmt::read("x", "in")];
            for i in 0..20 {
                stmts.push(Stmt::assign(
                    format!("t{i}"),
                    Expr::var("x").mul(Expr::cint(i)).add(Expr::cint(1)),
                ));
            }
            stmts.push(Stmt::write("out", Expr::var("t19")));
            b.body([Stmt::for_pipelined("i", 0..16, stmts)])
                .build()
                .unwrap()
        };
        let big = lower(&big_kernel);
        assert!(big.cell_count() > small.cell_count() * 2);
    }
}
