//! The seeded edit generator: output-preserving source edits to one
//! operator of an application, the developer's turn in the
//! edit-compile-load-run loop.
//!
//! A body edit changes exactly one statement: the assignment to a local the
//! kernel never reads (`pld_edit`), appended once and rewritten by every
//! later edit. The kernel's streams cannot observe it, so the set-up golden
//! stays valid, and [`strip_body_edit`] proves that statically: removing the
//! local and its assignment must give back the original kernel. The HLS
//! model still lowers the statement to five to eleven cells, so the edit is
//! a real k-cell netlist change for place-and-route, and the softcore
//! compiler emits code for it.

use dfg::generate::Rng;
use dfg::{Graph, Target};

use crate::apps::mix;
use kir::{Expr, Kernel, Scalar, Stmt, VarDecl};

/// The local no generated or Rosetta kernel declares.
const EDIT_LOCAL: &str = "pld_edit";

/// The edit's right-hand side for `tag`: a chain of one to three cheap
/// operations over constants, all drawn from the tag.
fn edit_expr(tag: u64) -> Expr {
    let mut rng = Rng::new(tag);
    let ops = 1 + rng.below(3);
    let mut e = Expr::cint(rng.range(1, 0xffff) as i64);
    for _ in 0..ops {
        let c = Expr::cint(rng.range(1, 0xffff) as i64);
        e = match rng.below(3) {
            0 => e.add(c),
            1 => e.xor(c),
            _ => e.sub(c),
        };
    }
    e
}

/// `kernel` with its body edit set to the one `tag` names. Editing an
/// already edited kernel replaces the statement, so kernels do not grow
/// with the number of turns.
pub fn apply_body_edit(kernel: &Kernel, tag: u64) -> Kernel {
    let mut k = strip_body_edit(kernel);
    k.locals.push(VarDecl {
        name: EDIT_LOCAL.to_string(),
        ty: Scalar::uint(32),
    });
    k.body.push(Stmt::assign(EDIT_LOCAL, edit_expr(tag)));
    kir::validate(&k).expect("a dead assignment keeps a valid kernel valid");
    k
}

/// `kernel` without its body edit (unchanged if it has none).
pub fn strip_body_edit(kernel: &Kernel) -> Kernel {
    let mut k = kernel.clone();
    k.locals.retain(|v| v.name != EDIT_LOCAL);
    k.body
        .retain(|s| !matches!(s, Stmt::Assign { var, .. } if var == EDIT_LOCAL));
    k
}

/// `graph` with operator `op` body-edited.
pub fn edit_operator(graph: &Graph, op: usize, tag: u64) -> Graph {
    let mut g = graph.clone();
    g.operators[op].kernel = apply_body_edit(&g.operators[op].kernel, tag);
    g
}

/// `graph` with operator `op`'s pragma flipped to `target`, keeping any
/// page pin.
pub fn retarget_operator(graph: &Graph, op: usize, target: Target) -> Graph {
    let mut g = graph.clone();
    let pinned = g.operators[op].target.page();
    g.operators[op].target = match pinned {
        Some(p) => target.with_page(p),
        None => target,
    };
    g
}

/// Whether `edited` is `base` up to body edits and pragmas: same operators,
/// same links, and every kernel equal once its body edit is stripped. Graphs
/// for which this holds compute the same streams.
pub fn same_function(base: &Graph, edited: &Graph) -> bool {
    base.name == edited.name
        && base.edges == edited.edges
        && base.ext_inputs == edited.ext_inputs
        && base.ext_outputs == edited.ext_outputs
        && base.operators.len() == edited.operators.len()
        && base
            .operators
            .iter()
            .zip(&edited.operators)
            .all(|(b, e)| b.name == e.name && b.kernel == strip_body_edit(&e.kernel))
}

/// The five kinds of turn in the edit loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TurnKind {
    BodyEdit,
    PragmaToRiscv,
    PragmaBack,
    Noop,
    Reopen,
}

impl TurnKind {
    pub fn name(self) -> &'static str {
        match self {
            TurnKind::BodyEdit => "body_edit",
            TurnKind::PragmaToRiscv => "pragma_to_riscv",
            TurnKind::PragmaBack => "pragma_back",
            TurnKind::Noop => "noop",
            TurnKind::Reopen => "reopen",
        }
    }
}

/// Length of one period of an app's turn kinds.
pub const CYCLE_LEN: usize = 48;

/// The kind of the turn at `step` of the cycle. Every app walks the cycle
/// from a seeded phase, so the mix of kinds is the same for every seed (and
/// a `pragma_back` always undoes the `pragma_to_riscv` before it) while
/// their interleaving across apps is not. One period is four rounds of
/// edit / rebuild / retarget / undo / edit / rebuild / edit / rebuild /
/// retarget / undo / edit / rebuild, with one of its sixteen rebuilds a
/// `reopen`: a developer closes the tool once in a while, not every dozen
/// turns. (A reopen's persist and open are file-system work, whose time
/// depends on what the disk was doing before the run: at one turn in twelve
/// they decided `turn_ms_p90` and moved `turns_per_s` by 8% between
/// identical runs.)
pub fn kind_at(step: usize) -> TurnKind {
    const ROUND: [TurnKind; 12] = [
        TurnKind::BodyEdit,
        TurnKind::Noop,
        TurnKind::PragmaToRiscv,
        TurnKind::PragmaBack,
        TurnKind::BodyEdit,
        TurnKind::Noop,
        TurnKind::BodyEdit,
        TurnKind::Noop,
        TurnKind::PragmaToRiscv,
        TurnKind::PragmaBack,
        TurnKind::BodyEdit,
        TurnKind::Noop,
    ];
    match step % CYCLE_LEN {
        7 => TurnKind::Reopen,
        s => ROUND[s % ROUND.len()],
    }
}

/// One scheduled turn: which app, what kind, which operator, and the tag a
/// body edit uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledTurn {
    pub app: usize,
    pub kind: TurnKind,
    pub op: usize,
    pub tag: u64,
}

/// The seeded turn sequence: `rounds` rounds, each visiting every app once
/// in a seeded order. `ops[a]` is app `a`'s operator count.
///
/// The seed draws the order of the apps within a round, each app's phase in
/// the kind cycle and the operator its rotations start from. Body edits
/// rotate over an app's operators and retargets rotate on their own, so
/// every operator gets its share of both whatever the phase. What the seed
/// does *not* draw is the edit itself: an operator's k-th body edit is the
/// same statement in every run. An edit's cell count decides whether warm
/// P&R keeps its result or falls back to a cold run at ten times the cost,
/// and with seeded statements `turn_ms_p90` ranged over 17% across five
/// seeds against 3% across five runs of one seed.
pub fn schedule(seed: u64, ops: &[usize], rounds: usize) -> Vec<ScheduledTurn> {
    let mut rng = Rng::new(seed);
    let phase: Vec<usize> = ops
        .iter()
        .map(|_| rng.below(CYCLE_LEN as u64) as usize)
        .collect();
    let first_op: Vec<usize> = ops.iter().map(|&n| rng.below(n as u64) as usize).collect();
    let mut edits = vec![0usize; ops.len()];
    let mut retargets = vec![0usize; ops.len()];
    let mut turns = Vec::with_capacity(rounds * ops.len());
    for round in 0..rounds {
        let mut order: Vec<usize> = (0..ops.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for app in order {
            let kind = kind_at(phase[app] + round);
            let nth = |count: usize| (first_op[app] + count) % ops[app];
            let (op, tag) = match kind {
                TurnKind::BodyEdit => {
                    let (op, ordinal) = (nth(edits[app]), edits[app] / ops[app]);
                    edits[app] += 1;
                    (
                        op,
                        mix(&[0x65646974, app as u64, op as u64, ordinal as u64]),
                    )
                }
                TurnKind::PragmaToRiscv => (nth(retargets[app]), 0),
                // Names the operator the retarget before it did.
                TurnKind::PragmaBack => {
                    retargets[app] += 1;
                    (nth(retargets[app] - 1), 0)
                }
                TurnKind::Noop | TurnKind::Reopen => (0, 0),
            };
            turns.push(ScheduledTurn { app, kind, op, tag });
        }
    }
    turns
}

#[cfg(test)]
mod tests {
    use super::*;
    use kir::KernelBuilder;

    fn kernel() -> Kernel {
        KernelBuilder::new("k")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([Stmt::for_loop(
                "i",
                0..8,
                [
                    Stmt::read("x", "in"),
                    Stmt::write("out", Expr::var("x").add(Expr::cint(3))),
                ],
            )])
            .build()
            .unwrap()
    }

    #[test]
    fn body_edit_preserves_outputs_and_strips_back() {
        let base = kernel();
        let input: Vec<u32> = (0..8).collect();
        let want = kir::interp::run_words(&base, &[("in", input.clone())]).unwrap();
        let mut prev = base.clone();
        for tag in [1u64, 2, 0xdead_beef] {
            let edited = apply_body_edit(&prev, tag);
            assert_ne!(edited, base, "an edit changes the source");
            assert_ne!(edited, prev, "successive edits differ");
            assert_eq!(strip_body_edit(&edited), base);
            // One statement and one local more than the base, however many
            // edits came before.
            assert_eq!(edited.body.len(), base.body.len() + 1);
            assert_eq!(edited.locals.len(), base.locals.len() + 1);
            let got = kir::interp::run_words(&edited, &[("in", input.clone())]).unwrap();
            assert_eq!(got, want);
            prev = edited;
        }
        assert_eq!(apply_body_edit(&base, 5), apply_body_edit(&prev, 5));
    }

    #[test]
    fn body_edit_changes_the_netlist_by_a_few_cells() {
        let base = hlsim::compile(&kernel()).unwrap().netlist.cell_count();
        for tag in 0..16 {
            let cells = hlsim::compile(&apply_body_edit(&kernel(), tag))
                .unwrap()
                .netlist
                .cell_count();
            // The local's register, two to four constants, and one to three
            // operators each with the pipeline register HLS puts after it.
            assert!((base + 5..=base + 11).contains(&cells), "{base} -> {cells}");
        }
    }

    #[test]
    fn schedule_is_seeded_with_a_fixed_mix() {
        let ops = [3usize, 5, 2, 7];
        let rounds = CYCLE_LEN;
        let a = schedule(1, &ops, rounds);
        assert_eq!(a, schedule(1, &ops, rounds));
        let b = schedule(2, &ops, rounds);
        assert_ne!(a, b);
        let count = |turns: &[ScheduledTurn], app: usize, kind: TurnKind| {
            turns
                .iter()
                .filter(|t| t.app == app && t.kind == kind)
                .count()
        };
        for app in 0..ops.len() {
            // One full cycle: the same mix for every seed.
            for (kind, n) in [
                (TurnKind::BodyEdit, 16),
                (TurnKind::Noop, 15),
                (TurnKind::PragmaToRiscv, 8),
                (TurnKind::PragmaBack, 8),
                (TurnKind::Reopen, 1),
            ] {
                assert_eq!(count(&a, app, kind), n);
                assert_eq!(count(&b, app, kind), n);
            }
        }
        // Every round visits every app once.
        for round in a.chunks(ops.len()) {
            let mut apps: Vec<usize> = round.iter().map(|t| t.app).collect();
            apps.sort_unstable();
            assert_eq!(apps, [0, 1, 2, 3]);
        }
        // A pragma_back names the operator the pragma_to_riscv before it did.
        for (app, n_ops) in ops.iter().enumerate() {
            let mine: Vec<&ScheduledTurn> = a.iter().filter(|t| t.app == app).collect();
            for w in mine.windows(2) {
                if w[1].kind == TurnKind::PragmaBack {
                    assert_eq!(w[0].kind, TurnKind::PragmaToRiscv);
                    assert_eq!(w[0].op, w[1].op);
                }
                assert!(w[0].op < *n_ops);
            }
        }
        // Whatever the seed, an operator's k-th body edit is the same
        // statement, and every operator gets its share of edits.
        let edits_of = |turns: &[ScheduledTurn], app: usize, op: usize| -> Vec<u64> {
            turns
                .iter()
                .filter(|t| t.kind == TurnKind::BodyEdit && t.app == app && t.op == op)
                .map(|t| t.tag)
                .collect()
        };
        for (app, n_ops) in ops.iter().enumerate() {
            for op in 0..*n_ops {
                let (x, y) = (edits_of(&a, app, op), edits_of(&b, app, op));
                let shared = x.len().min(y.len());
                assert!(shared >= 16 / n_ops && x.len().abs_diff(y.len()) <= 1);
                assert_eq!(x[..shared], y[..shared]);
            }
        }
    }
}
