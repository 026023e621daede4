//! Kernel statements.

use std::ops::Range;

use crate::expr::Expr;

/// A kernel statement.
///
/// Statements carry all side effects: assignments, array stores, blocking
/// stream I/O and structured control flow. Loops have static bounds — part of
/// the operator discipline (Sec. 3.4) that keeps kernels synthesizable and
/// lets the HLS model compute trip counts and initiation intervals.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `var = value;` — the value is coerced to the variable's declared type.
    #[allow(missing_docs)]
    Assign { var: String, value: Expr },
    /// `array[index] = value;`
    #[allow(missing_docs)]
    ArraySet {
        array: String,
        index: Expr,
        value: Expr,
    },
    /// `var = port.read();` — blocks until a token is present.
    #[allow(missing_docs)]
    Read { var: String, port: String },
    /// `port.write(value);` — blocks while the link FIFO is full.
    #[allow(missing_docs)]
    Write { port: String, value: Expr },
    /// `for (var = begin; var < end; var += step) body`
    ///
    /// `pipeline` mirrors `#pragma HLS PIPELINE` and `unroll` mirrors
    /// `#pragma HLS UNROLL factor=N` (1 = no unrolling); both are
    /// implementation hints that never change semantics.
    For {
        /// Variable name.
        var: String,
        /// First index value.
        begin: i64,
        /// Exclusive upper bound.
        end: i64,
        /// Index increment per iteration.
        step: i64,
        /// Whether the loop is pipelined (`#pragma HLS PIPELINE`).
        pipeline: bool,
        /// Unroll factor (1 = none).
        unroll: u32,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `if (cond) then_body else else_body`
    #[allow(missing_docs)]
    If {
        cond: Expr,
        then_body: Vec<Stmt>,
        else_body: Vec<Stmt>,
    },
}

impl Stmt {
    /// `var = value;`
    pub fn assign(var: impl Into<String>, value: Expr) -> Stmt {
        Stmt::Assign {
            var: var.into(),
            value,
        }
    }

    /// `array[index] = value;`
    pub fn store(array: impl Into<String>, index: Expr, value: Expr) -> Stmt {
        Stmt::ArraySet {
            array: array.into(),
            index,
            value,
        }
    }

    /// `var = port.read();`
    pub fn read(var: impl Into<String>, port: impl Into<String>) -> Stmt {
        Stmt::Read {
            var: var.into(),
            port: port.into(),
        }
    }

    /// `port.write(value);`
    pub fn write(port: impl Into<String>, value: Expr) -> Stmt {
        Stmt::Write {
            port: port.into(),
            value,
        }
    }

    /// A unit-step counted loop over `range`.
    pub fn for_loop(
        var: impl Into<String>,
        range: Range<i64>,
        body: impl IntoIterator<Item = Stmt>,
    ) -> Stmt {
        Stmt::For {
            var: var.into(),
            begin: range.start,
            end: range.end,
            step: 1,
            pipeline: false,
            unroll: 1,
            body: body.into_iter().collect(),
        }
    }

    /// A unit-step counted loop marked `#pragma HLS PIPELINE`.
    pub fn for_pipelined(
        var: impl Into<String>,
        range: Range<i64>,
        body: impl IntoIterator<Item = Stmt>,
    ) -> Stmt {
        match Self::for_loop(var, range, body) {
            Stmt::For {
                var,
                begin,
                end,
                step,
                body,
                ..
            } => Stmt::For {
                var,
                begin,
                end,
                step,
                pipeline: true,
                unroll: 1,
                body,
            },
            _ => unreachable!(),
        }
    }

    /// `if (cond) { then_body }`
    pub fn if_then(cond: Expr, then_body: impl IntoIterator<Item = Stmt>) -> Stmt {
        Stmt::If {
            cond,
            then_body: then_body.into_iter().collect(),
            else_body: Vec::new(),
        }
    }

    /// `if (cond) { then_body } else { else_body }`
    pub fn if_else(
        cond: Expr,
        then_body: impl IntoIterator<Item = Stmt>,
        else_body: impl IntoIterator<Item = Stmt>,
    ) -> Stmt {
        Stmt::If {
            cond,
            then_body: then_body.into_iter().collect(),
            else_body: else_body.into_iter().collect(),
        }
    }

    /// Trip count of a `For` statement; `None` for other statements or
    /// degenerate loops.
    pub fn trip_count(&self) -> Option<u64> {
        match self {
            Stmt::For {
                begin, end, step, ..
            } if *step > 0 && end > begin => Some(((end - begin) as u64).div_ceil(*step as u64)),
            Stmt::For { .. } => Some(0),
            _ => None,
        }
    }

    /// Visits this statement and all nested statements, parents first.
    pub fn visit(&self, f: &mut impl FnMut(&Stmt)) {
        f(self);
        match self {
            Stmt::For { body, .. } => {
                for s in body {
                    s.visit(f);
                }
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                for s in then_body.iter().chain(else_body) {
                    s.visit(f);
                }
            }
            _ => {}
        }
    }

    /// Visits every expression in this statement and nested statements.
    pub fn visit_exprs(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Stmt::Assign { value, .. } | Stmt::Write { value, .. } => value.visit(f),
            Stmt::ArraySet { index, value, .. } => {
                index.visit(f);
                value.visit(f);
            }
            Stmt::Read { .. } => {}
            Stmt::For { body, .. } => {
                for s in body {
                    s.visit_exprs(f);
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                cond.visit(f);
                for s in then_body.iter().chain(else_body) {
                    s.visit_exprs(f);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    #[test]
    fn trip_counts() {
        assert_eq!(Stmt::for_loop("i", 0..10, []).trip_count(), Some(10));
        assert_eq!(Stmt::for_loop("i", 5..5, []).trip_count(), Some(0));
        let s = Stmt::For {
            var: "i".into(),
            begin: 0,
            end: 10,
            step: 3,
            pipeline: false,
            unroll: 1,
            body: vec![],
        };
        assert_eq!(s.trip_count(), Some(4));
        assert_eq!(Stmt::read("x", "in").trip_count(), None);
    }

    #[test]
    fn visit_walks_nesting() {
        let s = Stmt::for_loop(
            "i",
            0..4,
            [Stmt::if_then(
                Expr::var("i").lt(Expr::cint(2)),
                [Stmt::read("x", "in")],
            )],
        );
        let mut kinds = Vec::new();
        s.visit(&mut |s| {
            kinds.push(match s {
                Stmt::For { .. } => "for",
                Stmt::If { .. } => "if",
                Stmt::Read { .. } => "read",
                _ => "other",
            })
        });
        assert_eq!(kinds, ["for", "if", "read"]);
    }

    #[test]
    fn visit_exprs_reaches_conditions() {
        let s = Stmt::if_else(
            Expr::var("a").eq(Expr::cint(0)),
            [Stmt::assign("b", Expr::cint(1))],
            [Stmt::assign("b", Expr::var("a").add(Expr::cint(2)))],
        );
        let mut n = 0;
        s.visit_exprs(&mut |_| n += 1);
        // cond: a, 0, == (3 nodes); then: 1 (1); else: a, 2, + (3)
        assert_eq!(n, 7);
    }

    #[test]
    fn pipelined_builder_sets_flag() {
        match Stmt::for_pipelined("i", 0..4, []) {
            Stmt::For { pipeline, .. } => assert!(pipeline),
            _ => unreachable!(),
        }
    }
}
