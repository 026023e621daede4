//! Static rate analysis: per-port token counts per kernel invocation.
//!
//! Because kernels have static loop structure (the operator discipline,
//! paper Sec. 3.4), the number of tokens a kernel moves through each port is
//! a compile-time quantity: trip-count-weighted sums over the body, taking
//! the worst case across `If` branches. Ports whose I/O never sits under a
//! branch get an *exact* count — the property the fusion pass requires —
//! while branch-dependent ports get a safe upper bound.

use std::collections::{BTreeMap, BTreeSet};

use kir::{Kernel, Stmt};

/// A static token count for one port over one kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rate {
    /// Tokens transferred per invocation (worst case across branches).
    pub tokens: u64,
    /// True when the count is data-independent: no I/O on the port occurs
    /// under an `If`, so exactly `tokens` tokens move on every run.
    pub exact: bool,
}

impl Rate {
    /// The rate of a port with no I/O at all.
    pub const ZERO: Rate = Rate {
        tokens: 0,
        exact: true,
    };
}

/// Per-port rates of one kernel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PortRates {
    /// Tokens read per input port.
    pub reads: BTreeMap<String, Rate>,
    /// Tokens written per output port.
    pub writes: BTreeMap<String, Rate>,
}

/// Computes the static token count of every port of `kernel`.
pub fn port_rates(kernel: &Kernel) -> PortRates {
    let mut rates = PortRates::default();
    walk(&kernel.body, 1, true, &mut rates);
    // Ports with no I/O anywhere still deserve an entry.
    for p in &kernel.inputs {
        rates.reads.entry(p.name.clone()).or_insert(Rate::ZERO);
    }
    for p in &kernel.outputs {
        rates.writes.entry(p.name.clone()).or_insert(Rate::ZERO);
    }
    rates
}

fn walk(stmts: &[Stmt], mult: u64, exact: bool, acc: &mut PortRates) {
    for s in stmts {
        match s {
            Stmt::Read { port, .. } => bump(&mut acc.reads, port, mult, exact),
            Stmt::Write { port, .. } => bump(&mut acc.writes, port, mult, exact),
            Stmt::For { body, .. } => {
                let trips = s.trip_count().unwrap_or(0);
                walk(body, mult.saturating_mul(trips), exact, acc);
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                // Count each branch separately, then take the per-port max:
                // a safe bound whichever way the condition goes. Anything
                // under a branch is data-dependent, hence inexact.
                let mut t = PortRates::default();
                let mut e = PortRates::default();
                walk(then_body, mult, false, &mut t);
                walk(else_body, mult, false, &mut e);
                merge_branch(&mut acc.reads, &t.reads, &e.reads);
                merge_branch(&mut acc.writes, &t.writes, &e.writes);
            }
            Stmt::Assign { .. } | Stmt::ArraySet { .. } => {}
        }
    }
}

fn bump(map: &mut BTreeMap<String, Rate>, port: &str, n: u64, exact: bool) {
    let r = map.entry(port.to_string()).or_insert(Rate::ZERO);
    r.tokens = r.tokens.saturating_add(n);
    r.exact &= exact;
}

fn merge_branch(
    acc: &mut BTreeMap<String, Rate>,
    then_side: &BTreeMap<String, Rate>,
    else_side: &BTreeMap<String, Rate>,
) {
    let ports: BTreeSet<&String> = then_side.keys().chain(else_side.keys()).collect();
    for port in ports {
        let t = then_side.get(port).map_or(0, |r| r.tokens);
        let e = else_side.get(port).map_or(0, |r| r.tokens);
        let r = acc.entry(port.clone()).or_insert(Rate::ZERO);
        r.tokens = r.tokens.saturating_add(t.max(e));
        r.exact = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kir::{Expr, KernelBuilder, Scalar};

    #[test]
    fn nested_loops_multiply_counts() {
        let k = KernelBuilder::new("k")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([Stmt::for_loop(
                "i",
                0..10,
                [
                    Stmt::read("x", "in"),
                    Stmt::for_loop("j", 0..3, [Stmt::write("out", Expr::var("x"))]),
                ],
            )])
            .build()
            .unwrap();
        let r = port_rates(&k);
        assert_eq!(
            r.reads["in"],
            Rate {
                tokens: 10,
                exact: true
            }
        );
        assert_eq!(
            r.writes["out"],
            Rate {
                tokens: 30,
                exact: true
            }
        );
    }

    #[test]
    fn branch_io_is_inexact_worst_case() {
        let k = KernelBuilder::new("k")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([Stmt::for_loop(
                "i",
                0..8,
                [
                    Stmt::read("x", "in"),
                    Stmt::if_else(
                        Expr::var("x").lt(Expr::cint(4)),
                        [
                            Stmt::write("out", Expr::var("x")),
                            Stmt::write("out", Expr::var("x")),
                        ],
                        [Stmt::write("out", Expr::var("x"))],
                    ),
                ],
            )])
            .build()
            .unwrap();
        let r = port_rates(&k);
        assert_eq!(
            r.reads["in"],
            Rate {
                tokens: 8,
                exact: true
            }
        );
        // Worst case: two writes per iteration.
        assert_eq!(
            r.writes["out"],
            Rate {
                tokens: 16,
                exact: false
            }
        );
    }
}
