//! Mapping targets: the `#pragma target=...` directive (paper Fig. 2(a)).

use std::fmt;

/// Where an operator is mapped, as selected by its header pragma.
///
/// Changing the target is the paper's whole development loop: flip a pragma
/// from `RISCV` to `HW` and the tool flow recompiles just that operator from
/// seconds-scale softcore code to a minutes-scale FPGA page, without touching
/// the rest of the design (Sec. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// Native FPGA logic on a PLD page (`target=HW`): the `-O1` flow.
    Hw {
        /// Physical page number (`p_num=N`), or `None` to let the mapper pick.
        page: Option<u32>,
    },
    /// A PicoRV32-class softcore overlay on a page (`target=RISCV`): `-O0`.
    Riscv {
        /// Physical page number (`p_num=N`), or `None` to let the mapper pick.
        page: Option<u32>,
    },
}

impl Target {
    /// `target=HW` with an explicit page.
    pub const fn hw(page: u32) -> Target {
        Target::Hw { page: Some(page) }
    }

    /// `target=HW` with automatic page assignment.
    pub const fn hw_auto() -> Target {
        Target::Hw { page: None }
    }

    /// `target=RISCV` with an explicit page.
    pub const fn riscv(page: u32) -> Target {
        Target::Riscv { page: Some(page) }
    }

    /// `target=RISCV` with automatic page assignment.
    pub const fn riscv_auto() -> Target {
        Target::Riscv { page: None }
    }

    /// Whether this target maps to native FPGA logic.
    pub fn is_hw(self) -> bool {
        matches!(self, Target::Hw { .. })
    }

    /// The requested physical page, if pinned.
    pub fn page(self) -> Option<u32> {
        match self {
            Target::Hw { page } | Target::Riscv { page } => page,
        }
    }

    /// Returns a copy pinned to `page`.
    pub fn with_page(self, page: u32) -> Target {
        match self {
            Target::Hw { .. } => Target::Hw { page: Some(page) },
            Target::Riscv { .. } => Target::Riscv { page: Some(page) },
        }
    }

    /// Parses the paper's pragma syntax, e.g. `#pragma target=HW p_num=8`.
    ///
    /// The leading `#pragma` is optional; `p_num` is optional; tokens are
    /// whitespace-separated.
    ///
    /// # Errors
    ///
    /// Returns [`PragmaError`] on unknown targets, malformed `p_num` values,
    /// or stray tokens.
    pub fn parse_pragma(text: &str) -> Result<Target, PragmaError> {
        let mut target: Option<&str> = None;
        let mut page: Option<u32> = None;
        for tok in text.split_whitespace() {
            if tok == "#pragma" {
                continue;
            }
            if let Some(v) = tok.strip_prefix("target=") {
                target = Some(v);
            } else if let Some(v) = tok.strip_prefix("p_num=") {
                page = Some(
                    v.parse()
                        .map_err(|_| PragmaError::BadPageNumber(v.to_string()))?,
                );
            } else {
                return Err(PragmaError::UnknownToken(tok.to_string()));
            }
        }
        match target {
            Some("HW") => Ok(Target::Hw { page }),
            Some("RISCV") => Ok(Target::Riscv { page }),
            Some(other) => Err(PragmaError::UnknownTarget(other.to_string())),
            None => Err(PragmaError::MissingTarget),
        }
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Hw { page: Some(p) } => write!(f, "#pragma target=HW p_num={p}"),
            Target::Hw { page: None } => write!(f, "#pragma target=HW"),
            Target::Riscv { page: Some(p) } => write!(f, "#pragma target=RISCV p_num={p}"),
            Target::Riscv { page: None } => write!(f, "#pragma target=RISCV"),
        }
    }
}

/// Error parsing a `#pragma target=...` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PragmaError {
    /// No `target=` token present.
    MissingTarget,
    /// `target=` names something other than `HW` or `RISCV`.
    UnknownTarget(String),
    /// `p_num=` value is not an unsigned integer.
    BadPageNumber(String),
    /// An unrecognized token appeared in the pragma.
    UnknownToken(String),
}

impl fmt::Display for PragmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PragmaError::MissingTarget => write!(f, "pragma has no target= token"),
            PragmaError::UnknownTarget(t) => {
                write!(f, "unknown target `{t}` (expected HW or RISCV)")
            }
            PragmaError::BadPageNumber(v) => write!(f, "p_num value `{v}` is not a page number"),
            PragmaError::UnknownToken(t) => write!(f, "unrecognized pragma token `{t}`"),
        }
    }
}

impl std::error::Error for PragmaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example() {
        // Fig. 2(a) line 3.
        let t = Target::parse_pragma("#pragma target=HW  p_num=8").unwrap();
        assert_eq!(t, Target::hw(8));
        // Fig. 2(a) line 4 (commented alternative).
        let t = Target::parse_pragma("target=RISCV p_num=8").unwrap();
        assert_eq!(t, Target::riscv(8));
    }

    #[test]
    fn page_is_optional() {
        assert_eq!(
            Target::parse_pragma("target=HW").unwrap(),
            Target::hw_auto()
        );
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            Target::parse_pragma("p_num=1"),
            Err(PragmaError::MissingTarget)
        );
        assert_eq!(
            Target::parse_pragma("target=GPU"),
            Err(PragmaError::UnknownTarget("GPU".into()))
        );
        assert_eq!(
            Target::parse_pragma("target=HW p_num=banana"),
            Err(PragmaError::BadPageNumber("banana".into()))
        );
        assert_eq!(
            Target::parse_pragma("target=HW fast"),
            Err(PragmaError::UnknownToken("fast".into()))
        );
    }

    #[test]
    fn display_roundtrips() {
        for t in [
            Target::hw(3),
            Target::hw_auto(),
            Target::riscv(7),
            Target::riscv_auto(),
        ] {
            assert_eq!(Target::parse_pragma(&t.to_string()).unwrap(), t);
        }
    }

    #[test]
    fn with_page_pins() {
        assert_eq!(Target::hw_auto().with_page(5), Target::hw(5));
        assert_eq!(Target::riscv(1).with_page(5), Target::riscv(5));
        assert_eq!(Target::hw(5).page(), Some(5));
        assert!(Target::hw_auto().page().is_none());
    }
}
