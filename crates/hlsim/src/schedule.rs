//! Scheduling: latencies, initiation intervals, invocation cycle counts.

use kir::{BinOp, RExpr, RNode, RStmt, ResolvedKernel};

/// Schedule of one loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopSchedule {
    /// Loop variable name (loops are identified by nesting path in reports).
    pub var: String,
    /// Trip count.
    pub trips: u64,
    /// Pipeline depth (cycles for one iteration to traverse the datapath).
    pub depth: u64,
    /// Initiation interval: cycles between successive iteration launches.
    /// Only meaningful for pipelined loops; non-pipelined loops relaunch
    /// after `depth` cycles (`ii == depth`).
    pub ii: u64,
    /// Whether the loop was pipelined.
    pub pipelined: bool,
    /// Total cycles for the loop.
    pub cycles: u64,
}

/// Whole-kernel schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schedule {
    /// Per-loop schedules in source order (outer before inner).
    pub loops: Vec<LoopSchedule>,
    /// Cycles for one complete kernel invocation with *direct* stream FIFOs
    /// (the monolithic `-O3`/Vitis implementation): each stream port allows
    /// one access per cycle, and distinct ports operate in parallel.
    pub total_cycles: u64,
    /// Cycles for one invocation behind the overlay's leaf interface
    /// (`-O1`/`-O0` mappings): all of the operator's streams share a single
    /// 32-bit network port in each direction (Sec. 4.3's bandwidth
    /// bottleneck), so per-iteration words serialize.
    pub overlay_cycles: u64,
}

impl Schedule {
    /// The II of the outermost hot loop (the kernel's steady-state launch
    /// rate); 1 if the kernel has no loops.
    pub fn top_ii(&self) -> u64 {
        self.loops.first().map(|l| l.ii).unwrap_or(1)
    }
}

/// Computes the schedule of a resolved kernel.
pub fn schedule(rk: &ResolvedKernel<'_>) -> Schedule {
    let mut loops = Vec::new();
    let total = block_latency(rk, rk.body(), &mut loops, false);
    let mut overlay_loops = Vec::new();
    let overlay = block_latency(rk, rk.body(), &mut overlay_loops, true);
    Schedule {
        loops,
        total_cycles: total.max(1),
        overlay_cycles: overlay.max(1),
    }
}

/// Extra cycles a statement needs beyond its slot, from multi-cycle ops.
fn expr_extra_cycles(e: &RExpr) -> u64 {
    let mut extra = 0u64;
    e.visit(&mut |node| {
        if let RNode::Bin(op, _) = &node.node {
            let lat = match op {
                BinOp::Div | BinOp::Rem => 32u64, // iterative divider
                BinOp::Mul => 2,                  // wide multiplier pipeline
                _ => 0,
            };
            extra += lat.saturating_sub(1);
        }
    });
    extra
}

/// Words a `Read` into `slot` takes: a W-bit token needs ceil(W/32) words
/// through the 32-bit link.
fn read_words(rk: &ResolvedKernel<'_>, slot: usize) -> u64 {
    rk.kernel().locals[slot].ty.words() as u64
}

/// Latency in cycles of a straight-line statement (its schedule slot plus
/// multi-cycle operator stages).
fn stmt_latency(
    rk: &ResolvedKernel<'_>,
    s: &RStmt,
    loops: &mut Vec<LoopSchedule>,
    overlay: bool,
) -> u64 {
    match s {
        RStmt::Assign(_, value) | RStmt::Write(_, value) => 1 + expr_extra_cycles(value),
        RStmt::ArraySet(_, index, value) => 1 + expr_extra_cycles(index) + expr_extra_cycles(value),
        RStmt::Read(slot, _) => read_words(rk, *slot),
        RStmt::For { .. } => loop_latency(rk, s, loops, overlay),
        RStmt::If(cond, then_body, else_body) => {
            let t = block_latency(rk, then_body, loops, overlay);
            let e = block_latency(rk, else_body, loops, overlay);
            1 + expr_extra_cycles(cond) + t.max(e)
        }
    }
}

fn block_latency(
    rk: &ResolvedKernel<'_>,
    body: &[RStmt],
    loops: &mut Vec<LoopSchedule>,
    overlay: bool,
) -> u64 {
    body.iter()
        .map(|s| stmt_latency(rk, s, loops, overlay))
        .sum()
}

/// Per-iteration stream-port pressure: a lower bound on II.
///
/// With direct FIFOs (`overlay == false`, the monolithic implementation)
/// each *individual* port sustains one word per cycle, so the bound is the
/// busiest single port. Behind the overlay's leaf interface
/// (`overlay == true`) every stream shares one 32-bit uplink and one
/// downlink, so reads and writes each serialize across ports.
fn port_words_per_iteration(rk: &ResolvedKernel<'_>, body: &[RStmt], overlay: bool) -> u64 {
    /// Words read and written, summed over every port.
    fn walk(rk: &ResolvedKernel<'_>, body: &[RStmt], words: &mut (u64, u64)) {
        for s in body {
            match s {
                RStmt::Read(slot, _) => words.0 += read_words(rk, *slot),
                RStmt::Write(port, _) => words.1 += rk.kernel().outputs[*port].elem.words() as u64,
                RStmt::If(_, then_body, else_body) => {
                    walk(rk, then_body, words);
                    walk(rk, else_body, words);
                }
                _ => {}
            }
        }
    }
    let mut words = (0, 0);
    walk(rk, body, &mut words);
    let (reads, writes) = words;
    if overlay {
        reads.max(writes)
    } else {
        // The -O3 kernel generator sizes each hardware FIFO "according to
        // the datawidth for each link" (Fig. 7): a port moves its whole
        // per-iteration payload in one cycle, so streams never bound II.
        u64::from(reads + writes > 0)
    }
}

/// Variables carried across iterations: assigned from an expression that
/// reads the variable itself (e.g. `sum = sum + x`).
fn recurrence_ii(body: &[RStmt]) -> u64 {
    let mut ii = 1u64;
    for s in body {
        match s {
            RStmt::Assign(slot, value) => {
                let mut self_dep = false;
                value.visit(&mut |e| self_dep |= e.node == RNode::Var(*slot));
                if self_dep {
                    // The recurrence can't relaunch faster than its own
                    // multi-cycle operators complete.
                    ii = ii.max(1 + expr_extra_cycles(value));
                }
            }
            RStmt::If(_, then_body, else_body) => {
                ii = ii
                    .max(recurrence_ii(then_body))
                    .max(recurrence_ii(else_body));
            }
            _ => {}
        }
    }
    ii
}

/// Arrays both written and read inside the body: a load-after-store memory
/// dependency that bounds II at 2 on a single BRAM port pair.
fn memory_ii(rk: &ResolvedKernel<'_>, body: &[RStmt]) -> u64 {
    fn reads(e: &RExpr, read: &mut [bool]) {
        e.visit(&mut |e| {
            if let RNode::ArrayGet(array, _) = e.node {
                read[array] = true;
            }
        });
    }
    fn walk(body: &[RStmt], written: &mut [bool], read: &mut [bool]) {
        for s in body {
            match s {
                RStmt::Assign(_, value) | RStmt::Write(_, value) => reads(value, read),
                RStmt::ArraySet(array, index, value) => {
                    written[*array] = true;
                    reads(index, read);
                    reads(value, read);
                }
                RStmt::Read(..) => {}
                RStmt::For { body, .. } => walk(body, written, read),
                RStmt::If(cond, then_body, else_body) => {
                    reads(cond, read);
                    walk(then_body, written, read);
                    walk(else_body, written, read);
                }
            }
        }
    }
    let arrays = rk.kernel().arrays.len();
    let (mut written, mut read) = (vec![false; arrays], vec![false; arrays]);
    walk(body, &mut written, &mut read);
    if written.iter().zip(&read).any(|(w, r)| *w && *r) {
        2
    } else {
        1
    }
}

fn loop_latency(
    rk: &ResolvedKernel<'_>,
    s: &RStmt,
    loops: &mut Vec<LoopSchedule>,
    overlay: bool,
) -> u64 {
    let RStmt::For {
        var,
        body,
        pipeline,
        unroll,
        ..
    } = s
    else {
        unreachable!()
    };
    let trips = s.trip_count().unwrap_or(0);
    let slot = loops.len();
    // Reserve the slot so outer loops precede inner ones in the report.
    loops.push(LoopSchedule {
        var: rk.slot_name(*var).to_string(),
        trips,
        depth: 0,
        ii: 1,
        pipelined: *pipeline,
        cycles: 0,
    });
    let mut inner = Vec::new();
    let depth = block_latency(rk, body, &mut inner, overlay).max(1);

    let has_inner_loop = body.iter().any(|s| matches!(s, RStmt::For { .. }));
    let effective_trips = trips
        .div_ceil(*unroll as u64)
        .max(if trips == 0 { 0 } else { 1 });

    let (ii, cycles) = if *pipeline && !has_inner_loop {
        let ii = recurrence_ii(body)
            .max(memory_ii(rk, body))
            .max(port_words_per_iteration(rk, body, overlay));
        let cycles = if effective_trips == 0 {
            0
        } else {
            depth + (effective_trips - 1) * ii
        };
        (ii, cycles)
    } else {
        // Non-pipelined (or containing inner loops): iterations serialize.
        (depth, effective_trips * depth + 2)
    };

    loops[slot].depth = depth;
    loops[slot].ii = ii;
    loops[slot].cycles = cycles;
    loops.extend(inner);
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use kir::{Expr, Kernel, KernelBuilder, Scalar, Stmt};

    fn schedule(k: &Kernel) -> Schedule {
        super::schedule(&kir::resolve(k).unwrap())
    }

    fn k_pipelined(n: i64) -> Kernel {
        KernelBuilder::new("k")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([Stmt::for_pipelined(
                "i",
                0..n,
                [
                    Stmt::read("x", "in"),
                    Stmt::write("out", Expr::var("x").add(Expr::cint(1))),
                ],
            )])
            .build()
            .unwrap()
    }

    #[test]
    fn pipelined_streaming_loop_achieves_ii_1() {
        let s = schedule(&k_pipelined(1000));
        assert_eq!(s.loops.len(), 1);
        assert_eq!(s.loops[0].ii, 1);
        assert!(s.loops[0].pipelined);
        // depth + (trips-1)*II ≈ trips for II=1.
        assert!(
            s.total_cycles >= 1000 && s.total_cycles < 1100,
            "{}",
            s.total_cycles
        );
    }

    #[test]
    fn recurrence_bounds_ii() {
        let k = KernelBuilder::new("acc")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .local("sum", Scalar::uint(32))
            .body([
                Stmt::for_pipelined(
                    "i",
                    0..100,
                    [
                        Stmt::read("x", "in"),
                        Stmt::assign("sum", Expr::var("sum").mul(Expr::var("x"))),
                    ],
                ),
                Stmt::write("out", Expr::var("sum")),
            ])
            .build()
            .unwrap();
        let s = schedule(&k);
        // sum = sum * x: the 2-cycle multiplier is in the recurrence.
        assert_eq!(s.loops[0].ii, 2);
    }

    #[test]
    fn divider_dominates_latency() {
        let k = KernelBuilder::new("div")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([
                Stmt::read("x", "in"),
                Stmt::write("out", Expr::var("x").div(Expr::cint(3))),
            ])
            .build()
            .unwrap();
        let s = schedule(&k);
        assert!(s.total_cycles >= 32);
    }

    #[test]
    fn wide_ports_raise_overlay_ii_only() {
        let k = KernelBuilder::new("wide")
            .input("in", Scalar::uint(64))
            .output("out", Scalar::uint(64))
            .local("x", Scalar::uint(64))
            .body([Stmt::for_pipelined(
                "i",
                0..100,
                [Stmt::read("x", "in"), Stmt::write("out", Expr::var("x"))],
            )])
            .build()
            .unwrap();
        let s = schedule(&k);
        // Direct FIFOs carry the whole 64-bit token each cycle...
        assert_eq!(s.loops[0].ii, 1);
        // ...but the 32-bit overlay link serializes the two words.
        assert!(s.overlay_cycles >= 200, "overlay {}", s.overlay_cycles);
        assert!(s.overlay_cycles >= s.total_cycles);
    }

    #[test]
    fn memory_dependency_raises_ii() {
        let k = KernelBuilder::new("mem")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .array("buf", Scalar::uint(32), 16)
            .body([Stmt::for_pipelined(
                "i",
                0..100,
                [
                    Stmt::read("x", "in"),
                    Stmt::store("buf", Expr::var("i").and(Expr::cint(15)), Expr::var("x")),
                    Stmt::write(
                        "out",
                        Expr::index("buf", Expr::var("x").and(Expr::cint(15))),
                    ),
                ],
            )])
            .build()
            .unwrap();
        let s = schedule(&k);
        assert!(s.loops[0].ii >= 2);
    }

    #[test]
    fn nested_loops_serialize() {
        let k = KernelBuilder::new("nest")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([Stmt::for_loop(
                "r",
                0..10,
                [Stmt::for_pipelined(
                    "c",
                    0..20,
                    [Stmt::read("x", "in"), Stmt::write("out", Expr::var("x"))],
                )],
            )])
            .build()
            .unwrap();
        let s = schedule(&k);
        assert_eq!(s.loops.len(), 2);
        assert_eq!(s.loops[0].var, "r");
        // Outer runs inner to completion each trip: >= 10 * 20 cycles.
        assert!(s.total_cycles >= 200, "{}", s.total_cycles);
    }

    #[test]
    fn unrolling_divides_trip_count() {
        let mut k = k_pipelined(1000);
        if let Stmt::For { unroll, .. } = &mut k.body[0] {
            *unroll = 4;
        }
        let s = schedule(&k);
        assert!(s.total_cycles < 400, "{}", s.total_cycles);
    }

    #[test]
    fn loopless_kernel_has_min_one_cycle() {
        let k = KernelBuilder::new("tiny")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([Stmt::read("x", "in"), Stmt::write("out", Expr::var("x"))])
            .build()
            .unwrap();
        let s = schedule(&k);
        assert!(s.total_cycles >= 1);
        assert_eq!(s.top_ii(), 1);
    }
}
