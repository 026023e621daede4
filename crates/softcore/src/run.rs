//! Batch execution of a compiled operator against word streams.

use std::collections::VecDeque;
use std::fmt;

use crate::binary::SoftBinary;
use crate::cpu::{StepResult, StreamIo};

/// Result of a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOutput {
    /// Output word streams, per output port index.
    pub outputs: Vec<Vec<u32>>,
    /// Softcore cycles elapsed (including stream stalls).
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
}

/// Execution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The kernel read more input than was supplied.
    #[allow(missing_docs)]
    Starved { port: u32 },
    /// Illegal instruction or out-of-range access.
    #[allow(missing_docs)]
    Trap { pc: u32 },
    /// Did not halt within the cycle budget.
    #[allow(missing_docs)]
    CycleBudget { budget: u64 },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Starved { port } => write!(f, "input port {port} ran dry"),
            RunError::Trap { pc } => write!(f, "softcore trapped at pc {pc:#x}"),
            RunError::CycleBudget { budget } => {
                write!(f, "softcore exceeded the {budget}-cycle budget")
            }
        }
    }
}

impl std::error::Error for RunError {}

struct BatchIo {
    inputs: Vec<VecDeque<u32>>,
    outputs: Vec<Vec<u32>>,
    starved: Option<u32>,
}

impl StreamIo for BatchIo {
    fn read(&mut self, port: u32) -> Option<u32> {
        match self
            .inputs
            .get_mut(port as usize)
            .and_then(VecDeque::pop_front)
        {
            Some(w) => Some(w),
            None => {
                self.starved = Some(port);
                None
            }
        }
    }

    fn write(&mut self, port: u32, word: u32) -> bool {
        let p = port as usize;
        if p >= self.outputs.len() {
            self.outputs.resize(p + 1, Vec::new());
        }
        self.outputs[p].push(word);
        true
    }
}

/// Runs a compiled operator on input word streams until it halts, on the
/// pre-decoded block cache: firmware decodes once into micro-op buffers
/// and runs through [`crate::Cpu::run_ahead`], with visible stream I/O
/// executed by [`crate::Cpu::step_cached`]; only halts and traps drop to
/// the reference `step`.
///
/// In batch mode the input FIFOs are never refilled, so a stall on an empty
/// read port is a starvation error rather than a wait.
///
/// # Errors
///
/// See [`RunError`].
pub fn execute(
    binary: &SoftBinary,
    inputs: &[Vec<u32>],
    max_cycles: u64,
) -> Result<ExecOutput, RunError> {
    run_batch(binary, inputs, max_cycles, true)
}

/// [`execute`]'s oracle: the decode-per-step interpreter
/// ([`crate::Cpu::step`]) in a loop. Bit-identical in every architectural
/// observable (outputs, cycles, instructions), which the differential
/// tests assert; only slower.
///
/// # Errors
///
/// See [`RunError`].
pub fn execute_reference(
    binary: &SoftBinary,
    inputs: &[Vec<u32>],
    max_cycles: u64,
) -> Result<ExecOutput, RunError> {
    run_batch(binary, inputs, max_cycles, false)
}

/// The batch loop behind [`execute`] (`cached`) and
/// [`execute_reference`]. One non-generic loop on purpose: a version
/// generic over a step closure changed the thin-LTO code generated for
/// `Cpu::run_ahead_inner` and slowed compute-bound cosim by 8–10%.
fn run_batch(
    binary: &SoftBinary,
    inputs: &[Vec<u32>],
    max_cycles: u64,
    cached: bool,
) -> Result<ExecOutput, RunError> {
    let mut cpu = binary.instantiate();
    let mut io = BatchIo {
        inputs: inputs.iter().map(|v| v.iter().copied().collect()).collect(),
        outputs: vec![Vec::new(); binary.out_ports as usize],
        starved: None,
    };
    loop {
        if cached {
            // Burn through core-private work; stops with pc on the next
            // instruction that does I/O, halts, traps, or busts the
            // budget — which step_cached() below then handles, exactly
            // as the reference loop would have.
            cpu.run_ahead(u64::MAX, max_cycles);
        }
        if cpu.cycles >= max_cycles {
            return Err(RunError::CycleBudget { budget: max_cycles });
        }
        let result = if cached {
            cpu.step_cached(&mut io)
        } else {
            cpu.step(&mut io)
        };
        match result {
            StepResult::Ok => {}
            StepResult::Stall => {
                if let Some(port) = io.starved {
                    return Err(RunError::Starved { port });
                }
            }
            StepResult::Halt => {
                return Ok(ExecOutput {
                    outputs: io.outputs,
                    cycles: cpu.cycles,
                    instructions: cpu.instructions,
                })
            }
            StepResult::Trap { pc } => return Err(RunError::Trap { pc }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::compile_kernel;
    use kir::{Expr, KernelBuilder, Scalar, Stmt};

    fn doubler() -> SoftBinary {
        let k = KernelBuilder::new("double")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([Stmt::for_loop(
                "i",
                0..8,
                [
                    Stmt::read("x", "in"),
                    Stmt::write("out", Expr::var("x").add(Expr::var("x"))),
                ],
            )])
            .build()
            .unwrap();
        compile_kernel(&k).unwrap()
    }

    #[test]
    fn runs_to_completion() {
        let out = execute(&doubler(), &[(1..=8).collect()], 1_000_000).unwrap();
        assert_eq!(out.outputs[0], vec![2, 4, 6, 8, 10, 12, 14, 16]);
        assert!(out.cycles > out.instructions, "PicoRV32-class CPI > 1");
    }

    #[test]
    fn starvation_detected() {
        let err = execute(&doubler(), &[vec![1, 2]], 1_000_000).unwrap_err();
        assert_eq!(err, RunError::Starved { port: 0 });
    }

    #[test]
    fn cycle_budget_enforced() {
        let err = execute(&doubler(), &[(1..=8).collect()], 10).unwrap_err();
        assert!(matches!(err, RunError::CycleBudget { .. }));
    }

    #[test]
    fn block_cache_matches_reference() {
        let bin = doubler();
        let inputs = vec![(1..=8).collect::<Vec<u32>>()];
        let fast = execute(&bin, &inputs, 1_000_000).unwrap();
        let slow = execute_reference(&bin, &inputs, 1_000_000).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn block_cache_matches_reference_on_budget_exhaustion() {
        // The budget error must fire at the same point in both, across
        // budgets that land mid-block and mid-instruction.
        let bin = doubler();
        let inputs = vec![(1..=8).collect::<Vec<u32>>()];
        for budget in [1u64, 7, 10, 33, 100, 250] {
            let fast = execute(&bin, &inputs, budget);
            let slow = execute_reference(&bin, &inputs, budget);
            assert_eq!(fast, slow, "budget {budget}");
        }
    }
}
