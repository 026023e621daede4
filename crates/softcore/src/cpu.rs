//! The PicoRV32-class instruction-set simulator.

use aplib::{DynFixed, DynInt};
use kir::expr::{BinOp, UnOp};
use kir::ops::{eval_bin, eval_un};
use kir::types::{Scalar, Value};

use crate::block::BlockCache;
use crate::firmware::{self, cycles, Intrinsic};
use crate::isa::Instr;

/// Stream-port backend: the leaf-interface FIFOs the core's memory-mapped
/// ports talk to.
pub trait StreamIo {
    /// Pops one word from read port `port`; `None` stalls the core.
    fn read(&mut self, port: u32) -> Option<u32>;
    /// Pushes one word to write port `port`; `false` stalls the core.
    fn write(&mut self, port: u32, word: u32) -> bool;
}

/// Result of one [`Cpu::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// Instruction retired.
    Ok,
    /// Blocked on a stream port; the cycle was spent stalling.
    Stall,
    /// `ebreak` reached: the operator invocation completed.
    Halt,
    /// Illegal instruction or memory access; carries the faulting pc.
    #[allow(missing_docs)]
    Trap { pc: u32 },
}

/// An intrinsic-table entry as `ecall` runs it: the [`Intrinsic`] with
/// `Select`'s common arm type worked out once, when the core is built.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Routine {
    Bin {
        op: BinOp,
        lhs: Scalar,
        rhs: Scalar,
    },
    Un {
        op: UnOp,
        arg: Scalar,
    },
    Cast {
        from: Scalar,
        to: Scalar,
    },
    Select {
        cond: Scalar,
        t: Scalar,
        e: Scalar,
        common: Scalar,
    },
    BitRange {
        arg: Scalar,
        hi: u32,
        lo: u32,
    },
}

impl From<Intrinsic> for Routine {
    fn from(intr: Intrinsic) -> Routine {
        match intr {
            Intrinsic::Bin { op, lhs, rhs } => Routine::Bin { op, lhs, rhs },
            Intrinsic::Un { op, arg } => Routine::Un { op, arg },
            Intrinsic::Cast { from, to } => Routine::Cast { from, to },
            Intrinsic::Select { cond, t, e } => Routine::Select {
                cond,
                t,
                e,
                common: kir::ops::select_type(t, e),
            },
            Intrinsic::BitRange { arg, hi, lo } => Routine::BitRange { arg, hi, lo },
        }
    }
}

/// The softcore: RV32IM, unified little-endian memory, blocking stream
/// ports, and a PicoRV32-calibrated cycle counter.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// General-purpose registers; `x0` reads as zero.
    pub regs: [u32; 32],
    /// Program counter.
    pub pc: u32,
    pub(crate) mem: Vec<u8>,
    pub(crate) intrinsics: Vec<Routine>,
    /// Cycles elapsed (including stalls).
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Pre-decoded basic blocks for [`Cpu::run_ahead`]; invalidated by any
    /// write into decoded bytes (`store_n`, intrinsic slot writes, loader).
    pub(crate) icache: BlockCache,
}

impl Cpu {
    /// Creates a core with `mem_bytes` of unified memory and an intrinsic
    /// table.
    ///
    /// # Panics
    ///
    /// Panics if `mem_bytes` exceeds the page's 192 KB BRAM budget.
    pub fn new(mem_bytes: u32, intrinsics: Vec<Intrinsic>) -> Cpu {
        assert!(
            mem_bytes <= firmware::MAX_PAGE_MEMORY,
            "page memory capped at {} bytes",
            firmware::MAX_PAGE_MEMORY
        );
        Cpu {
            regs: [0; 32],
            pc: 0,
            mem: vec![0; mem_bytes as usize],
            intrinsics: intrinsics.into_iter().map(Routine::from).collect(),
            cycles: 0,
            instructions: 0,
            icache: BlockCache::default(),
        }
    }

    /// Loads bytes at an address (the loader writing a packed binary).
    ///
    /// # Panics
    ///
    /// Panics if the range is outside memory.
    pub fn load(&mut self, addr: u32, bytes: &[u8]) {
        // The loader rewriting memory (initial load, runtime hot swap)
        // invalidates any decoded blocks covering the range.
        self.icache.invalidate(addr, bytes.len() as u32);
        let a = addr as usize;
        self.mem[a..a + bytes.len()].copy_from_slice(bytes);
    }

    /// The unified memory (diagnostics / tests).
    pub fn memory(&self) -> &[u8] {
        &self.mem
    }

    /// Reads a 32-bit word from memory (diagnostics / tests).
    pub fn peek_word(&self, addr: u32) -> u32 {
        let a = addr as usize;
        u32::from_le_bytes(self.mem[a..a + 4].try_into().unwrap())
    }

    fn reg(&self, r: u32) -> u32 {
        if r == 0 {
            0
        } else {
            self.regs[r as usize]
        }
    }

    /// Register read for the micro-op dispatch loop (unpacked `u8` index,
    /// decode-validated `< 32`). Masking keeps the index in range without
    /// a bounds check, and slot 0 reads as zero because [`Cpu::wr`] (and
    /// every other register write) refuses to write it.
    #[inline(always)]
    pub(crate) fn rr(&self, r: u8) -> u32 {
        self.regs[(r & 31) as usize]
    }

    /// Register write for the micro-op dispatch loop.
    #[inline(always)]
    pub(crate) fn wr(&mut self, r: u8, v: u32) {
        if r != 0 {
            self.regs[(r & 31) as usize] = v;
        }
    }

    fn set_reg(&mut self, r: u32, v: u32) {
        if r != 0 {
            self.regs[r as usize] = v;
        }
    }

    #[inline]
    pub(crate) fn mem_ok(&self, addr: u32, len: u32) -> bool {
        (addr as usize)
            .checked_add(len as usize)
            .map(|end| end <= self.mem.len())
            .unwrap_or(false)
    }

    #[inline]
    pub(crate) fn load_n(&self, addr: u32, len: u32) -> u32 {
        let a = addr as usize;
        match len {
            1 => self.mem[a] as u32,
            2 => u16::from_le_bytes(self.mem[a..a + 2].try_into().unwrap()) as u32,
            _ => u32::from_le_bytes(self.mem[a..a + 4].try_into().unwrap()),
        }
    }

    #[inline]
    pub(crate) fn store_n(&mut self, addr: u32, len: u32, v: u32) {
        // Every architectural memory write funnels through here (executed
        // stores and intrinsic slot writes), so this is the one place the
        // block cache watches for self-modifying code. The common case —
        // data living above the decoded span — is a single compare.
        self.icache.invalidate(addr, len);
        let a = addr as usize;
        match len {
            1 => self.mem[a] = v as u8,
            2 => self.mem[a..a + 2].copy_from_slice(&(v as u16).to_le_bytes()),
            _ => self.mem[a..a + 4].copy_from_slice(&v.to_le_bytes()),
        }
    }

    fn read_slot_value(&self, addr: u32, shape: Scalar) -> Value {
        if shape.width() <= 32 {
            let w = self.load_n(addr, 4);
            // Narrow slots hold the extended 32-bit representation; masking
            // recovers the raw bits.
            match shape {
                Scalar::Int { width, signed } => {
                    Value::Int(DynInt::from_raw(width, signed, w as u128))
                }
                Scalar::Fixed {
                    width,
                    int_bits,
                    signed,
                } => Value::Fixed(DynFixed::from_raw(width, int_bits, signed, w as u128)),
            }
        } else {
            let mut raw = 0u128;
            for i in 0..4 {
                raw |= (self.load_n(addr + 4 * i, 4) as u128) << (32 * i);
            }
            match shape {
                Scalar::Int { width, signed } => Value::Int(DynInt::from_raw(width, signed, raw)),
                Scalar::Fixed {
                    width,
                    int_bits,
                    signed,
                } => Value::Fixed(DynFixed::from_raw(width, int_bits, signed, raw)),
            }
        }
    }

    fn write_slot_value(&mut self, addr: u32, v: &Value) {
        let shape = v.scalar();
        if shape.width() <= 32 {
            // Extended representation for narrow values.
            let word = if shape.is_signed() {
                (aplib::sign_extend(v.raw(), shape.width()) as i32) as u32
            } else {
                v.raw() as u32
            };
            self.store_n(addr, 4, word);
        } else {
            let raw = v.raw();
            for i in 0..4 {
                self.store_n(addr + 4 * i, 4, (raw >> (32 * i)) as u32);
            }
        }
    }

    pub(crate) fn ecall(&mut self) -> Result<(), ()> {
        let idx = self.reg(crate::isa::reg::A7) as usize;
        let Some(routine) = self.intrinsics.get(idx).copied() else {
            return Err(());
        };
        let a0 = self.reg(crate::isa::reg::A0);
        let a1 = self.reg(crate::isa::reg::A1);
        let a2 = self.reg(crate::isa::reg::A2);
        let a3 = self.reg(crate::isa::reg::A3);
        match routine {
            Routine::Bin { op, lhs, rhs } => {
                let l = self.read_slot_value(a0, lhs);
                let r = self.read_slot_value(a1, rhs);
                let out = eval_bin(op, l, r);
                self.write_slot_value(a2, &out);
            }
            Routine::Un { op, arg } => {
                let v = self.read_slot_value(a0, arg);
                let out = eval_un(op, v);
                self.write_slot_value(a1, &out);
            }
            Routine::Cast { from, to } => {
                let v = self.read_slot_value(a0, from);
                let out = v.coerce(to);
                self.write_slot_value(a1, &out);
            }
            Routine::Select { cond, t, e, common } => {
                let c = self.read_slot_value(a0, cond);
                let tv = self.read_slot_value(a1, t);
                let ev = self.read_slot_value(a2, e);
                let out = if c.is_zero() {
                    ev.coerce(common)
                } else {
                    tv.coerce(common)
                };
                self.write_slot_value(a3, &out);
            }
            Routine::BitRange { arg, hi, lo } => {
                let v = self.read_slot_value(a0, arg);
                let as_int = DynInt::from_raw(arg.width(), false, v.raw());
                self.write_slot_value(a1, &Value::Int(as_int.bit_range(hi, lo)));
            }
        }
        Ok(())
    }

    /// Executes one instruction (or spends one stall cycle).
    pub fn step(&mut self, io: &mut dyn StreamIo) -> StepResult {
        use Instr::*;
        if !self.mem_ok(self.pc, 4) {
            return StepResult::Trap { pc: self.pc };
        }
        let word = self.load_n(self.pc, 4);
        let Some(ins) = Instr::decode(word) else {
            return StepResult::Trap { pc: self.pc };
        };

        let mut next_pc = self.pc.wrapping_add(4);
        let mut cost = cycles::ALU;
        match ins {
            Lui { rd, imm } => self.set_reg(rd, imm as u32),
            Addi { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1).wrapping_add(imm as u32)),
            Andi { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1) & imm as u32),
            Ori { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1) | imm as u32),
            Xori { rd, rs1, imm } => self.set_reg(rd, self.reg(rs1) ^ imm as u32),
            Slli { rd, rs1, shamt } => self.set_reg(rd, self.reg(rs1) << (shamt & 31)),
            Srli { rd, rs1, shamt } => self.set_reg(rd, self.reg(rs1) >> (shamt & 31)),
            Srai { rd, rs1, shamt } => {
                self.set_reg(rd, ((self.reg(rs1) as i32) >> (shamt & 31)) as u32)
            }
            Add { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1).wrapping_add(self.reg(rs2))),
            Sub { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1).wrapping_sub(self.reg(rs2))),
            Sll { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) << (self.reg(rs2) & 31)),
            Srl { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) >> (self.reg(rs2) & 31)),
            Sra { rd, rs1, rs2 } => {
                self.set_reg(rd, ((self.reg(rs1) as i32) >> (self.reg(rs2) & 31)) as u32)
            }
            Slt { rd, rs1, rs2 } => {
                self.set_reg(rd, ((self.reg(rs1) as i32) < (self.reg(rs2) as i32)) as u32)
            }
            Sltu { rd, rs1, rs2 } => self.set_reg(rd, (self.reg(rs1) < self.reg(rs2)) as u32),
            And { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) & self.reg(rs2)),
            Or { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) | self.reg(rs2)),
            Xor { rd, rs1, rs2 } => self.set_reg(rd, self.reg(rs1) ^ self.reg(rs2)),
            Mul { rd, rs1, rs2 } => {
                cost = cycles::MUL;
                self.set_reg(rd, self.reg(rs1).wrapping_mul(self.reg(rs2)));
            }
            Div { rd, rs1, rs2 } => {
                cost = cycles::DIV;
                let a = self.reg(rs1) as i32;
                let b = self.reg(rs2) as i32;
                let q = if b == 0 { -1 } else { a.wrapping_div(b) };
                self.set_reg(rd, q as u32);
            }
            Divu { rd, rs1, rs2 } => {
                cost = cycles::DIV;
                let q = self.reg(rs1).checked_div(self.reg(rs2)).unwrap_or(u32::MAX);
                self.set_reg(rd, q);
            }
            Rem { rd, rs1, rs2 } => {
                cost = cycles::DIV;
                let a = self.reg(rs1) as i32;
                let b = self.reg(rs2) as i32;
                let r = if b == 0 { a } else { a.wrapping_rem(b) };
                self.set_reg(rd, r as u32);
            }
            Remu { rd, rs1, rs2 } => {
                cost = cycles::DIV;
                let b = self.reg(rs2);
                let r = if b == 0 {
                    self.reg(rs1)
                } else {
                    self.reg(rs1) % b
                };
                self.set_reg(rd, r);
            }
            Lw { rd, rs1, imm }
            | Lh { rd, rs1, imm }
            | Lhu { rd, rs1, imm }
            | Lb { rd, rs1, imm }
            | Lbu { rd, rs1, imm } => {
                cost = cycles::LOAD;
                let addr = self.reg(rs1).wrapping_add(imm as u32);
                if (firmware::STREAM_READ_BASE..firmware::STREAM_WRITE_BASE).contains(&addr) {
                    let port = (addr - firmware::STREAM_READ_BASE) / firmware::PORT_STRIDE;
                    match io.read(port) {
                        Some(w) => self.set_reg(rd, w),
                        None => {
                            self.cycles += cycles::STALL;
                            return StepResult::Stall;
                        }
                    }
                } else {
                    let len = match ins {
                        Lw { .. } => 4,
                        Lh { .. } | Lhu { .. } => 2,
                        _ => 1,
                    };
                    if !self.mem_ok(addr, len) {
                        return StepResult::Trap { pc: self.pc };
                    }
                    let raw = self.load_n(addr, len);
                    let v = match ins {
                        Lh { .. } => (raw as u16 as i16 as i32) as u32,
                        Lb { .. } => (raw as u8 as i8 as i32) as u32,
                        _ => raw,
                    };
                    self.set_reg(rd, v);
                }
            }
            Sw { rs1, rs2, imm } | Sh { rs1, rs2, imm } | Sb { rs1, rs2, imm } => {
                cost = cycles::STORE;
                let addr = self.reg(rs1).wrapping_add(imm as u32);
                if addr >= firmware::STREAM_WRITE_BASE {
                    let port = (addr - firmware::STREAM_WRITE_BASE) / firmware::PORT_STRIDE;
                    if !io.write(port, self.reg(rs2)) {
                        self.cycles += cycles::STALL;
                        return StepResult::Stall;
                    }
                } else {
                    let len = match ins {
                        Sw { .. } => 4,
                        Sh { .. } => 2,
                        _ => 1,
                    };
                    if !self.mem_ok(addr, len) {
                        return StepResult::Trap { pc: self.pc };
                    }
                    self.store_n(addr, len, self.reg(rs2));
                }
            }
            Beq { rs1, rs2, imm } => {
                cost = cycles::BRANCH;
                if self.reg(rs1) == self.reg(rs2) {
                    next_pc = self.pc.wrapping_add(imm as u32);
                }
            }
            Bne { rs1, rs2, imm } => {
                cost = cycles::BRANCH;
                if self.reg(rs1) != self.reg(rs2) {
                    next_pc = self.pc.wrapping_add(imm as u32);
                }
            }
            Blt { rs1, rs2, imm } => {
                cost = cycles::BRANCH;
                if (self.reg(rs1) as i32) < (self.reg(rs2) as i32) {
                    next_pc = self.pc.wrapping_add(imm as u32);
                }
            }
            Bge { rs1, rs2, imm } => {
                cost = cycles::BRANCH;
                if (self.reg(rs1) as i32) >= (self.reg(rs2) as i32) {
                    next_pc = self.pc.wrapping_add(imm as u32);
                }
            }
            Bltu { rs1, rs2, imm } => {
                cost = cycles::BRANCH;
                if self.reg(rs1) < self.reg(rs2) {
                    next_pc = self.pc.wrapping_add(imm as u32);
                }
            }
            Bgeu { rs1, rs2, imm } => {
                cost = cycles::BRANCH;
                if self.reg(rs1) >= self.reg(rs2) {
                    next_pc = self.pc.wrapping_add(imm as u32);
                }
            }
            Jal { rd, imm } => {
                cost = cycles::BRANCH;
                self.set_reg(rd, self.pc.wrapping_add(4));
                next_pc = self.pc.wrapping_add(imm as u32);
            }
            Jalr { rd, rs1, imm } => {
                cost = cycles::BRANCH;
                self.set_reg(rd, self.pc.wrapping_add(4));
                next_pc = self.reg(rs1).wrapping_add(imm as u32) & !1;
            }
            Ecall => {
                cost = cycles::INTRINSIC;
                if self.ecall().is_err() {
                    return StepResult::Trap { pc: self.pc };
                }
            }
            Ebreak => {
                self.cycles += cycles::ALU;
                self.instructions += 1;
                return StepResult::Halt;
            }
        }

        self.pc = next_pc;
        self.cycles += cost;
        self.instructions += 1;
        StepResult::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{load_imm, reg};

    struct NoIo;
    impl StreamIo for NoIo {
        fn read(&mut self, _port: u32) -> Option<u32> {
            None
        }
        fn write(&mut self, _port: u32, _word: u32) -> bool {
            false
        }
    }

    fn program(instrs: &[Instr]) -> Cpu {
        let mut cpu = Cpu::new(4096, vec![]);
        let bytes: Vec<u8> = instrs
            .iter()
            .flat_map(|i| i.encode().to_le_bytes())
            .collect();
        cpu.load(0, &bytes);
        cpu
    }

    fn run(cpu: &mut Cpu, max: usize) -> StepResult {
        let mut io = NoIo;
        for _ in 0..max {
            match cpu.step(&mut io) {
                StepResult::Ok => continue,
                other => return other,
            }
        }
        panic!("program did not halt in {max} steps");
    }

    #[test]
    fn arithmetic_program() {
        // t0 = 7; t1 = 5; t2 = t0 * t1 - 3; halt.
        let mut code = load_imm(reg::T0, 7);
        code.extend(load_imm(reg::T1, 5));
        code.push(Instr::Mul {
            rd: reg::T2,
            rs1: reg::T0,
            rs2: reg::T1,
        });
        code.push(Instr::Addi {
            rd: reg::T2,
            rs1: reg::T2,
            imm: -3,
        });
        code.push(Instr::Ebreak);
        let mut cpu = program(&code);
        assert_eq!(run(&mut cpu, 100), StepResult::Halt);
        assert_eq!(cpu.regs[reg::T2 as usize], 32);
        assert!(cpu.cycles > cpu.instructions); // multi-cycle core
    }

    #[test]
    fn division_edge_cases_follow_riscv() {
        let mut code = load_imm(reg::T0, 10);
        code.extend(load_imm(reg::T1, 0));
        code.push(Instr::Div {
            rd: reg::T2,
            rs1: reg::T0,
            rs2: reg::T1,
        });
        code.push(Instr::Ebreak);
        let mut cpu = program(&code);
        run(&mut cpu, 100);
        assert_eq!(cpu.regs[reg::T2 as usize], u32::MAX); // div by zero = -1
    }

    #[test]
    fn loop_sums_memory() {
        // Sum mem[0x100..0x110] word-wise into t2.
        let mut code = Vec::new();
        code.extend(load_imm(reg::T0, 0x100)); // ptr
        code.extend(load_imm(reg::T1, 0x110)); // end
        code.extend(load_imm(reg::T2, 0)); // acc
        let loop_start = code.len() as i32 * 4;
        code.push(Instr::Lw {
            rd: reg::A0,
            rs1: reg::T0,
            imm: 0,
        });
        code.push(Instr::Add {
            rd: reg::T2,
            rs1: reg::T2,
            rs2: reg::A0,
        });
        code.push(Instr::Addi {
            rd: reg::T0,
            rs1: reg::T0,
            imm: 4,
        });
        let here = code.len() as i32 * 4;
        code.push(Instr::Blt {
            rs1: reg::T0,
            rs2: reg::T1,
            imm: loop_start - here,
        });
        code.push(Instr::Ebreak);
        let mut cpu = program(&code);
        for (i, v) in [10u32, 20, 30, 40].iter().enumerate() {
            cpu.load(0x100 + 4 * i as u32, &v.to_le_bytes());
        }
        run(&mut cpu, 1000);
        assert_eq!(cpu.regs[reg::T2 as usize], 100);
    }

    #[test]
    fn stream_read_stalls_until_data() {
        struct OneShot(Option<u32>);
        impl StreamIo for OneShot {
            fn read(&mut self, _p: u32) -> Option<u32> {
                self.0.take()
            }
            fn write(&mut self, _p: u32, _w: u32) -> bool {
                true
            }
        }
        let mut code = load_imm(reg::T1, firmware::STREAM_READ_BASE as i32);
        code.push(Instr::Lw {
            rd: reg::T0,
            rs1: reg::T1,
            imm: 0,
        });
        code.push(Instr::Ebreak);
        let mut cpu = program(&code);
        let mut io = OneShot(None);
        // li takes 2 steps; then the load stalls while io is empty.
        assert_eq!(cpu.step(&mut io), StepResult::Ok);
        assert_eq!(cpu.step(&mut io), StepResult::Ok);
        assert_eq!(cpu.step(&mut io), StepResult::Stall);
        assert_eq!(cpu.step(&mut io), StepResult::Stall);
        io.0 = Some(77);
        assert_eq!(cpu.step(&mut io), StepResult::Ok);
        assert_eq!(cpu.regs[reg::T0 as usize], 77);
        assert_eq!(run(&mut cpu, 4), StepResult::Halt);
    }

    #[test]
    fn illegal_instruction_traps() {
        let mut cpu = Cpu::new(64, vec![]);
        cpu.load(0, &0xffff_ffffu32.to_le_bytes());
        let mut io = NoIo;
        assert_eq!(cpu.step(&mut io), StepResult::Trap { pc: 0 });
    }

    #[test]
    fn out_of_range_memory_traps() {
        let mut code = load_imm(reg::T0, 0x0090_0000); // beyond memory, below MMIO
        code.push(Instr::Lw {
            rd: reg::T1,
            rs1: reg::T0,
            imm: 0,
        });
        let mut cpu = program(&code);
        let mut io = NoIo;
        assert_eq!(cpu.step(&mut io), StepResult::Ok);
        assert_eq!(cpu.step(&mut io), StepResult::Ok);
        assert!(matches!(cpu.step(&mut io), StepResult::Trap { .. }));
    }

    #[test]
    fn intrinsic_executes_wide_arithmetic() {
        // 64-bit multiply via intrinsic 0.
        let shape = Scalar::uint(64);
        let mut cpu = Cpu::new(
            4096,
            vec![Intrinsic::Bin {
                op: kir::expr::BinOp::Mul,
                lhs: shape,
                rhs: shape,
            }],
        );
        // Operands at 0x200/0x210, result at 0x220.
        let a: u64 = 0x1_0000_0001;
        let b: u64 = 3;
        cpu.load(0x200, &(a as u128).to_le_bytes());
        cpu.load(0x210, &(b as u128).to_le_bytes());
        let mut code = load_imm(reg::A0, 0x200);
        code.extend(load_imm(reg::A1, 0x210));
        code.extend(load_imm(reg::A2, 0x220));
        code.extend(load_imm(reg::A7, 0));
        code.push(Instr::Ecall);
        code.push(Instr::Ebreak);
        let bytes: Vec<u8> = code.iter().flat_map(|i| i.encode().to_le_bytes()).collect();
        cpu.load(0, &bytes);
        let mut io = NoIo;
        loop {
            match cpu.step(&mut io) {
                StepResult::Ok => continue,
                StepResult::Halt => break,
                other => panic!("{other:?}"),
            }
        }
        let lo = cpu.peek_word(0x220) as u64;
        let hi = cpu.peek_word(0x224) as u64;
        assert_eq!((hi << 32) | lo, a.wrapping_mul(b));
    }
}
