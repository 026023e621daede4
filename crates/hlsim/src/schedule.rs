//! Scheduling: latencies, initiation intervals, invocation cycle counts.

use kir::expr::{BinOp, Expr};
use kir::stmt::Stmt;
use kir::Kernel;
use std::collections::HashSet;

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

/// Computes the schedule of a validated kernel.
pub fn schedule(kernel: &Kernel) -> Schedule {
    let mut loops = Vec::new();
    let total = block_latency(kernel, &kernel.body, &mut loops, false);
    let mut overlay_loops = Vec::new();
    let overlay = block_latency(kernel, &kernel.body, &mut overlay_loops, true);
    Schedule {
        loops,
        total_cycles: total.max(1),
        overlay_cycles: overlay.max(1),
    }
}

/// Extra cycles a statement needs beyond its slot, from multi-cycle ops.
fn expr_extra_cycles(e: &Expr) -> u64 {
    let mut extra = 0u64;
    e.visit(&mut |node| {
        if let Expr::Bin { op, .. } = node {
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

/// Latency in cycles of a straight-line statement (its schedule slot plus
/// multi-cycle operator stages).
fn stmt_latency(kernel: &Kernel, s: &Stmt, loops: &mut Vec<LoopSchedule>, overlay: bool) -> u64 {
    match s {
        Stmt::Assign { value, .. } | Stmt::Write { value, .. } => 1 + expr_extra_cycles(value),
        Stmt::ArraySet { index, value, .. } => {
            1 + expr_extra_cycles(index) + expr_extra_cycles(value)
        }
        Stmt::Read { var, .. } => {
            // A W-bit token needs ceil(W/32) words through the 32-bit link.
            let words = kernel.local(var).map(|v| v.ty.words()).unwrap_or(1) as u64;
            words
        }
        Stmt::For { .. } => loop_latency(kernel, s, loops, overlay),
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            let t = block_latency(kernel, then_body, loops, overlay);
            let e = block_latency(kernel, else_body, loops, overlay);
            1 + expr_extra_cycles(cond) + t.max(e)
        }
    }
}

fn block_latency(
    kernel: &Kernel,
    body: &[Stmt],
    loops: &mut Vec<LoopSchedule>,
    overlay: bool,
) -> u64 {
    body.iter()
        .map(|s| stmt_latency(kernel, s, loops, overlay))
        .sum()
}

/// Per-iteration stream-port pressure: a lower bound on II.
///
/// With direct FIFOs (`overlay == false`, the monolithic implementation)
/// each *individual* port sustains one word per cycle, so the bound is the
/// busiest single port. Behind the overlay's leaf interface
/// (`overlay == true`) every stream shares one 32-bit uplink and one
/// downlink, so reads and writes each serialize across ports.
fn port_words_per_iteration(kernel: &Kernel, body: &[Stmt], overlay: bool) -> u64 {
    use std::collections::HashMap;
    fn walk<'k>(
        kernel: &'k Kernel,
        body: &'k [Stmt],
        reads: &mut HashMap<&'k str, u64>,
        writes: &mut HashMap<&'k str, u64>,
    ) {
        for s in body {
            match s {
                Stmt::Read { var, port } => {
                    let w = kernel.local(var).map(|v| v.ty.words()).unwrap_or(1) as u64;
                    *reads.entry(port.as_str()).or_default() += w;
                }
                Stmt::Write { port, .. } => {
                    let w = kernel.output(port).map(|p| p.elem.words()).unwrap_or(1) as u64;
                    *writes.entry(port.as_str()).or_default() += w;
                }
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    walk(kernel, then_body, reads, writes);
                    walk(kernel, else_body, reads, writes);
                }
                _ => {}
            }
        }
    }
    let mut reads: HashMap<&str, u64> = HashMap::new();
    let mut writes: HashMap<&str, u64> = HashMap::new();
    walk(kernel, body, &mut reads, &mut writes);
    if overlay {
        let in_total: u64 = reads.values().sum();
        let out_total: u64 = writes.values().sum();
        in_total.max(out_total)
    } else {
        // The -O3 kernel generator sizes each hardware FIFO "according to
        // the datawidth for each link" (Fig. 7): a port moves its whole
        // per-iteration payload in one cycle, so streams never bound II.
        if reads.is_empty() && writes.is_empty() {
            0
        } else {
            1
        }
    }
}

/// Variables carried across iterations: assigned from an expression that
/// reads the variable itself (e.g. `sum = sum + x`).
fn recurrence_ii(body: &[Stmt]) -> u64 {
    let mut ii = 1u64;
    for s in body {
        match s {
            Stmt::Assign { var, value } => {
                let mut self_dep = false;
                value.visit(&mut |e| {
                    if let Expr::Var(name) = e {
                        if name == var {
                            self_dep = true;
                        }
                    }
                });
                if self_dep {
                    // The recurrence can't relaunch faster than its own
                    // multi-cycle operators complete.
                    ii = ii.max(1 + expr_extra_cycles(value));
                }
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
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
fn memory_ii(body: &[Stmt]) -> u64 {
    let mut written: HashSet<String> = HashSet::new();
    let mut read: HashSet<String> = HashSet::new();
    for s in body {
        s.visit(&mut |s| {
            if let Stmt::ArraySet { array, .. } = s {
                written.insert(array.clone());
            }
        });
        s.visit_exprs(&mut |e| {
            if let Expr::ArrayGet { array, .. } = e {
                read.insert(array.clone());
            }
        });
    }
    if written.intersection(&read).next().is_some() {
        2
    } else {
        1
    }
}

fn loop_latency(kernel: &Kernel, s: &Stmt, loops: &mut Vec<LoopSchedule>, overlay: bool) -> u64 {
    let Stmt::For {
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
        var: var.clone(),
        trips,
        depth: 0,
        ii: 1,
        pipelined: *pipeline,
        cycles: 0,
    });
    let mut inner = Vec::new();
    let depth = block_latency(kernel, body, &mut inner, overlay).max(1);

    let has_inner_loop = body.iter().any(|s| matches!(s, Stmt::For { .. }));
    let effective_trips = trips
        .div_ceil(*unroll as u64)
        .max(if trips == 0 { 0 } else { 1 });

    let (ii, cycles) = if *pipeline && !has_inner_loop {
        let ii = recurrence_ii(body)
            .max(memory_ii(body))
            .max(port_words_per_iteration(kernel, body, overlay));
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
    use kir::{Expr, KernelBuilder, Scalar};

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
