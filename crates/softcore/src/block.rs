//! Pre-decoded basic-block execution: the fast path of the softcore.
//!
//! [`Cpu::step`] pays fetch + decode + dispatch for every simulated
//! instruction even though firmware is static between hot swaps. This
//! module decodes straight-line runs of instructions **once** into dense
//! micro-op buffers — immediates folded, register indices unpacked, branch
//! targets and link values pre-computed, cycle costs resolved — and
//! executes them with a tight dispatch loop ([`Cpu::run_ahead`]) that only
//! returns to the driver when the *next* instruction must interact with
//! the outside world (a stream-port access, `ebreak`, or a trap) or a
//! budget runs out. The driver then performs that one externally-visible
//! instruction through [`Cpu::step_cached`], which executes the single
//! pre-decoded micro-op — stream I/O, stalls, traps and all — mirroring
//! the decode-per-step [`Cpu::step`] case for case. `step` stays the
//! unmodified reference implementation, and the differential test suite
//! asserts the two engines produce bit-identical architectural state,
//! cycle counts, instruction counts, and stream traffic.
//!
//! Decoding is one micro-op per instruction word, after which the head
//! slot of each of the compiler's slot-access idioms — `li R, A`, then
//! `load R, 0(R)` or `store rs, 0(R)` at an in-bounds `A` — becomes one
//! fused micro-op doing the whole group in one dispatch (see
//! `fuse_groups`). The group's other slots are untouched, so branches
//! into a group run its words one by one; a budget-checked dispatch and
//! the visible step run the head alone, so every stop stays exact.
//!
//! Invalidation is centralized at the two places softcore memory is ever
//! written — `store_n` (covering executed stores *and* `ecall` intrinsic
//! slot writes) and [`Cpu::load`] (covering the loader and runtime
//! hot-swap reloads) — so self-modifying stores and swapped-in firmware
//! can never execute stale micro-ops. A store outside the cached span
//! costs one compare; an overlapping write drops the affected blocks and
//! bumps an epoch the dispatch loop checks after every memory write,
//! aborting the current block if its backing bytes may have changed.

use std::sync::Arc;

use crate::cpu::Cpu;
use crate::firmware::{self, cycles};
use crate::isa::Instr;

/// Longest straight-line run decoded into one block.
const MAX_BLOCK_OPS: usize = 64;

/// Pre-resolved load flavour (width + extension folded at decode time).
#[derive(Debug, Clone, Copy)]
enum LoadKind {
    Word,
    Half,
    HalfU,
    Byte,
    ByteU,
}

impl LoadKind {
    #[inline]
    fn len(self) -> u32 {
        match self {
            LoadKind::Word => 4,
            LoadKind::Half | LoadKind::HalfU => 2,
            LoadKind::Byte | LoadKind::ByteU => 1,
        }
    }

    /// Sign- or zero-extends the `len()` raw bytes `load_n` returned.
    #[inline]
    fn extend(self, raw: u32) -> u32 {
        match self {
            LoadKind::Word | LoadKind::HalfU | LoadKind::ByteU => raw,
            LoadKind::Half => (raw as u16 as i16 as i32) as u32,
            LoadKind::Byte => (raw as u8 as i8 as i32) as u32,
        }
    }
}

/// Pre-resolved store width.
#[derive(Debug, Clone, Copy)]
enum StoreKind {
    Word,
    Half,
    Byte,
}

impl StoreKind {
    #[inline]
    fn len(self) -> u32 {
        match self {
            StoreKind::Word => 4,
            StoreKind::Half => 2,
            StoreKind::Byte => 1,
        }
    }
}

/// Branch predicate.
#[derive(Debug, Clone, Copy)]
enum Cond {
    Eq,
    Ne,
    Lt,
    Ge,
    Ltu,
    Geu,
}

/// One pre-decoded micro-op. Register indices are unpacked to `u8`,
/// immediates are pre-cast to the `u32` the wrapping arithmetic wants,
/// shift amounts are pre-masked, and control transfers carry absolute
/// `target`/`link` addresses so the dispatch loop never re-derives them.
#[derive(Debug, Clone, Copy)]
enum UOp {
    Lui {
        rd: u8,
        imm: u32,
    },
    Addi {
        rd: u8,
        rs1: u8,
        imm: u32,
    },
    Andi {
        rd: u8,
        rs1: u8,
        imm: u32,
    },
    Ori {
        rd: u8,
        rs1: u8,
        imm: u32,
    },
    Xori {
        rd: u8,
        rs1: u8,
        imm: u32,
    },
    Slli {
        rd: u8,
        rs1: u8,
        shamt: u32,
    },
    Srli {
        rd: u8,
        rs1: u8,
        shamt: u32,
    },
    Srai {
        rd: u8,
        rs1: u8,
        shamt: u32,
    },
    Add {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Sub {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Sll {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Srl {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Sra {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Slt {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Sltu {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    And {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Or {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Xor {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Mul {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Div {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Divu {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Rem {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Remu {
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Load {
        rd: u8,
        rs1: u8,
        imm: u32,
        kind: LoadKind,
    },
    Store {
        rs1: u8,
        rs2: u8,
        imm: u32,
        kind: StoreKind,
    },
    Branch {
        rs1: u8,
        rs2: u8,
        cond: Cond,
        target: u32,
    },
    Jal {
        rd: u8,
        link: u32,
        target: u32,
    },
    Jalr {
        rd: u8,
        rs1: u8,
        imm: u32,
        link: u32,
    },
    Ecall,
    // Fused `li` groups (see `fuse_groups`). Each replaces only the head
    // slot of its group: the group's other words keep their one-to-one
    // micro-ops. An unchecked dispatch runs the whole group; a
    // budget-checked one and `exec_uop` run the head alone, which writes
    // `rd = addr - lo` (`value - lo` for a pair; `lo` is the group's
    // `addi` immediate, 0 when the group has no `addi`).
    /// `lui rd, hi; addi rd, rd, lo`: `rd = value`.
    LiPair {
        rd: u8,
        lo: i16,
        value: u32,
    },
    /// `li rd, addr` in `n - 1` words, then `load rd, 0(rd)`:
    /// `rd = mem[addr]`, with `addr` in bounds.
    LiLoad {
        rd: u8,
        kind: LoadKind,
        n: u8,
        lo: i16,
        addr: u32,
    },
    /// `li rd, addr` in `n - 1` words, then `store rs, 0(rd)`:
    /// `rd = addr; mem[addr] = rs`, with `addr` in bounds.
    LiStore {
        rd: u8,
        rs: u8,
        kind: StoreKind,
        n: u8,
        lo: i16,
        addr: u32,
    },
}

/// A decoded straight-line block: micro-ops for the instruction words at
/// `[start, end)`. Blocks end at the first control transfer (included —
/// it executes in the dispatch loop) or at the first instruction the fast
/// path must hand back to [`Cpu::step`] (`ebreak`, an undecodable word, a
/// fetch past memory — all excluded, so `end` covers exactly the decoded
/// bytes the cache must watch for writes).
#[derive(Debug)]
struct Block {
    start: u32,
    end: u32,
    ops: Box<[UOp]>,
}

/// The per-core block cache: a direct-mapped table indexed by `pc >> 2`
/// (entries verify their exact `start`, so misaligned or colliding entry
/// points miss instead of aliasing), plus the union span of cached bytes
/// for the one-compare store fast path.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockCache {
    slots: Vec<Option<Arc<Block>>>,
    /// Union span of decoded bytes; `hi == 0` means the cache is empty.
    lo: u32,
    hi: u32,
    /// Bumped on every invalidation; the dispatch loop snapshots it per
    /// block and aborts the block when it moves.
    epoch: u64,
    decoded: u64,
    invalidations: u64,
}

/// Block-cache counters, exposed for diagnostics and the differential
/// tests (a self-modifying store must show up here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcacheStats {
    /// Blocks currently cached.
    pub blocks: usize,
    /// Blocks decoded since reset (includes re-decodes after invalidation).
    pub decoded: u64,
    /// Invalidation events (writes that dropped at least one block).
    pub invalidations: u64,
}

impl BlockCache {
    #[inline]
    fn get(&self, pc: u32) -> Option<&Arc<Block>> {
        match self.slots.get((pc >> 2) as usize) {
            Some(Some(b)) if b.start == pc => Some(b),
            _ => None,
        }
    }

    fn insert(&mut self, block: Arc<Block>) {
        debug_assert!(!block.ops.is_empty());
        let idx = (block.start >> 2) as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, None);
        }
        if self.hi == 0 {
            self.lo = block.start;
            self.hi = block.end;
        } else {
            self.lo = self.lo.min(block.start);
            self.hi = self.hi.max(block.end);
        }
        self.decoded += 1;
        self.slots[idx] = Some(block);
    }

    /// Drops every block whose decoded bytes overlap `[addr, addr+len)`.
    /// The fast path is the two compares against the union span.
    #[inline]
    pub(crate) fn invalidate(&mut self, addr: u32, len: u32) {
        if addr >= self.hi || addr.saturating_add(len) <= self.lo {
            return;
        }
        self.invalidate_slow(addr, len);
    }

    #[cold]
    fn invalidate_slow(&mut self, addr: u32, len: u32) {
        let end = addr.saturating_add(len);
        let mut dropped = false;
        let (mut lo, mut hi) = (u32::MAX, 0u32);
        for slot in self.slots.iter_mut() {
            let Some(b) = slot else { continue };
            if b.start < end && addr < b.end {
                *slot = None;
                dropped = true;
            } else {
                lo = lo.min(b.start);
                hi = hi.max(b.end);
            }
        }
        if dropped {
            if hi == 0 {
                self.lo = 0;
            } else {
                self.lo = lo;
            }
            self.hi = hi;
            self.epoch += 1;
            self.invalidations += 1;
        }
    }

    fn stats(&self) -> IcacheStats {
        IcacheStats {
            blocks: self.slots.iter().flatten().count(),
            decoded: self.decoded,
            invalidations: self.invalidations,
        }
    }
}

/// Decodes the straight-line block starting at `pc`. Returns an empty
/// block when the very first instruction must go through [`Cpu::step`].
fn decode_block(mem: &[u8], pc: u32) -> Block {
    let mut ops = Vec::new();
    let mut at = pc;
    while ops.len() < MAX_BLOCK_OPS {
        let a = at as usize;
        let Some(end) = a.checked_add(4).filter(|&e| e <= mem.len()) else {
            break;
        };
        let word = u32::from_le_bytes(mem[a..end].try_into().unwrap());
        let Some(ins) = Instr::decode(word) else {
            break;
        };
        let (op, control) = match translate(ins, at) {
            Some(pair) => pair,
            None => break, // ebreak: always step()'s business
        };
        ops.push(op);
        at = at.wrapping_add(4);
        if control {
            break;
        }
    }
    fuse_groups(&mut ops, mem.len());
    Block {
        start: pc,
        end: pc.wrapping_add(4 * ops.len() as u32),
        ops: ops.into_boxed_slice(),
    }
}

/// Replaces the head slot of every `li R, A` group — `lui R` + `addi R, R`,
/// `lui R` alone, or `addi R, x0` — followed by `load R, 0(R)` or
/// `store rs, 0(R)` with `A` inside `mem_len`, and of every `lui R` +
/// `addi R, R` pair otherwise, by one fused micro-op. `A` is known here
/// and memory never changes size, so a fused access can never trap or
/// reach a stream port (`STREAM_READ_BASE >= MAX_PAGE_MEMORY`).
fn fuse_groups(ops: &mut [UOp], mem_len: usize) {
    let mut i = 0;
    while i < ops.len() {
        // The `li`: its register, the value it leaves, the `addi`
        // immediate of a two-word form, and its length in words.
        let (rd, value, lo, n) = match ops[i] {
            UOp::Lui { rd, imm } if rd != 0 => match ops.get(i + 1) {
                Some(&UOp::Addi {
                    rd: d,
                    rs1,
                    imm: lo,
                }) if d == rd && rs1 == rd => (rd, imm.wrapping_add(lo), lo as i16, 2),
                _ => (rd, imm, 0, 1),
            },
            UOp::Addi { rd, rs1: 0, imm } if rd != 0 => (rd, imm, 0, 1),
            _ => {
                i += 1;
                continue;
            }
        };
        let fits = |len: u32| {
            (value as usize)
                .checked_add(len as usize)
                .is_some_and(|end| end <= mem_len)
        };
        let fused = match ops.get(i + n) {
            Some(&UOp::Load {
                rd: d,
                rs1,
                imm: 0,
                kind,
            }) if d == rd && rs1 == rd && fits(kind.len()) => Some((
                UOp::LiLoad {
                    rd,
                    kind,
                    n: n as u8 + 1,
                    lo,
                    addr: value,
                },
                n + 1,
            )),
            Some(&UOp::Store {
                rs1,
                rs2,
                imm: 0,
                kind,
            }) if rs1 == rd && fits(kind.len()) => Some((
                UOp::LiStore {
                    rd,
                    rs: rs2,
                    kind,
                    n: n as u8 + 1,
                    lo,
                    addr: value,
                },
                n + 1,
            )),
            _ if n == 2 => Some((UOp::LiPair { rd, lo, value }, 2)),
            _ => None,
        };
        match fused {
            Some((op, words)) => {
                ops[i] = op;
                i += words;
            }
            None => i += 1,
        }
    }
}

/// Lowers one decoded instruction at address `at` to a micro-op; the bool
/// marks control transfers (which terminate the block). `None` is
/// `ebreak` — never pre-decoded, the driver handles it via `step`.
#[allow(clippy::too_many_lines)]
fn translate(ins: Instr, at: u32) -> Option<(UOp, bool)> {
    use Instr as I;
    let r = |x: u32| x as u8;
    let straight = |op: UOp| Some((op, false));
    let control = |op: UOp| Some((op, true));
    match ins {
        I::Lui { rd, imm } => straight(UOp::Lui {
            rd: r(rd),
            imm: imm as u32,
        }),
        I::Addi { rd, rs1, imm } => straight(UOp::Addi {
            rd: r(rd),
            rs1: r(rs1),
            imm: imm as u32,
        }),
        I::Andi { rd, rs1, imm } => straight(UOp::Andi {
            rd: r(rd),
            rs1: r(rs1),
            imm: imm as u32,
        }),
        I::Ori { rd, rs1, imm } => straight(UOp::Ori {
            rd: r(rd),
            rs1: r(rs1),
            imm: imm as u32,
        }),
        I::Xori { rd, rs1, imm } => straight(UOp::Xori {
            rd: r(rd),
            rs1: r(rs1),
            imm: imm as u32,
        }),
        I::Slli { rd, rs1, shamt } => straight(UOp::Slli {
            rd: r(rd),
            rs1: r(rs1),
            shamt: shamt & 31,
        }),
        I::Srli { rd, rs1, shamt } => straight(UOp::Srli {
            rd: r(rd),
            rs1: r(rs1),
            shamt: shamt & 31,
        }),
        I::Srai { rd, rs1, shamt } => straight(UOp::Srai {
            rd: r(rd),
            rs1: r(rs1),
            shamt: shamt & 31,
        }),
        I::Add { rd, rs1, rs2 } => straight(UOp::Add {
            rd: r(rd),
            rs1: r(rs1),
            rs2: r(rs2),
        }),
        I::Sub { rd, rs1, rs2 } => straight(UOp::Sub {
            rd: r(rd),
            rs1: r(rs1),
            rs2: r(rs2),
        }),
        I::Sll { rd, rs1, rs2 } => straight(UOp::Sll {
            rd: r(rd),
            rs1: r(rs1),
            rs2: r(rs2),
        }),
        I::Srl { rd, rs1, rs2 } => straight(UOp::Srl {
            rd: r(rd),
            rs1: r(rs1),
            rs2: r(rs2),
        }),
        I::Sra { rd, rs1, rs2 } => straight(UOp::Sra {
            rd: r(rd),
            rs1: r(rs1),
            rs2: r(rs2),
        }),
        I::Slt { rd, rs1, rs2 } => straight(UOp::Slt {
            rd: r(rd),
            rs1: r(rs1),
            rs2: r(rs2),
        }),
        I::Sltu { rd, rs1, rs2 } => straight(UOp::Sltu {
            rd: r(rd),
            rs1: r(rs1),
            rs2: r(rs2),
        }),
        I::And { rd, rs1, rs2 } => straight(UOp::And {
            rd: r(rd),
            rs1: r(rs1),
            rs2: r(rs2),
        }),
        I::Or { rd, rs1, rs2 } => straight(UOp::Or {
            rd: r(rd),
            rs1: r(rs1),
            rs2: r(rs2),
        }),
        I::Xor { rd, rs1, rs2 } => straight(UOp::Xor {
            rd: r(rd),
            rs1: r(rs1),
            rs2: r(rs2),
        }),
        I::Mul { rd, rs1, rs2 } => straight(UOp::Mul {
            rd: r(rd),
            rs1: r(rs1),
            rs2: r(rs2),
        }),
        I::Div { rd, rs1, rs2 } => straight(UOp::Div {
            rd: r(rd),
            rs1: r(rs1),
            rs2: r(rs2),
        }),
        I::Divu { rd, rs1, rs2 } => straight(UOp::Divu {
            rd: r(rd),
            rs1: r(rs1),
            rs2: r(rs2),
        }),
        I::Rem { rd, rs1, rs2 } => straight(UOp::Rem {
            rd: r(rd),
            rs1: r(rs1),
            rs2: r(rs2),
        }),
        I::Remu { rd, rs1, rs2 } => straight(UOp::Remu {
            rd: r(rd),
            rs1: r(rs1),
            rs2: r(rs2),
        }),
        I::Lw { rd, rs1, imm } => straight(UOp::Load {
            rd: r(rd),
            rs1: r(rs1),
            imm: imm as u32,
            kind: LoadKind::Word,
        }),
        I::Lh { rd, rs1, imm } => straight(UOp::Load {
            rd: r(rd),
            rs1: r(rs1),
            imm: imm as u32,
            kind: LoadKind::Half,
        }),
        I::Lhu { rd, rs1, imm } => straight(UOp::Load {
            rd: r(rd),
            rs1: r(rs1),
            imm: imm as u32,
            kind: LoadKind::HalfU,
        }),
        I::Lb { rd, rs1, imm } => straight(UOp::Load {
            rd: r(rd),
            rs1: r(rs1),
            imm: imm as u32,
            kind: LoadKind::Byte,
        }),
        I::Lbu { rd, rs1, imm } => straight(UOp::Load {
            rd: r(rd),
            rs1: r(rs1),
            imm: imm as u32,
            kind: LoadKind::ByteU,
        }),
        I::Sw { rs1, rs2, imm } => straight(UOp::Store {
            rs1: r(rs1),
            rs2: r(rs2),
            imm: imm as u32,
            kind: StoreKind::Word,
        }),
        I::Sh { rs1, rs2, imm } => straight(UOp::Store {
            rs1: r(rs1),
            rs2: r(rs2),
            imm: imm as u32,
            kind: StoreKind::Half,
        }),
        I::Sb { rs1, rs2, imm } => straight(UOp::Store {
            rs1: r(rs1),
            rs2: r(rs2),
            imm: imm as u32,
            kind: StoreKind::Byte,
        }),
        I::Beq { rs1, rs2, imm } => control(branch(Cond::Eq, rs1, rs2, imm, at)),
        I::Bne { rs1, rs2, imm } => control(branch(Cond::Ne, rs1, rs2, imm, at)),
        I::Blt { rs1, rs2, imm } => control(branch(Cond::Lt, rs1, rs2, imm, at)),
        I::Bge { rs1, rs2, imm } => control(branch(Cond::Ge, rs1, rs2, imm, at)),
        I::Bltu { rs1, rs2, imm } => control(branch(Cond::Ltu, rs1, rs2, imm, at)),
        I::Bgeu { rs1, rs2, imm } => control(branch(Cond::Geu, rs1, rs2, imm, at)),
        I::Jal { rd, imm } => control(UOp::Jal {
            rd: r(rd),
            link: at.wrapping_add(4),
            target: at.wrapping_add(imm as u32),
        }),
        I::Jalr { rd, rs1, imm } => control(UOp::Jalr {
            rd: r(rd),
            rs1: r(rs1),
            imm: imm as u32,
            link: at.wrapping_add(4),
        }),
        I::Ecall => straight(UOp::Ecall),
        I::Ebreak => None,
    }
}

fn branch(cond: Cond, rs1: u32, rs2: u32, imm: i32, at: u32) -> UOp {
    UOp::Branch {
        rs1: rs1 as u8,
        rs2: rs2 as u8,
        cond,
        target: at.wrapping_add(imm as u32),
    }
}

impl Cpu {
    /// Executes pre-decoded micro-ops until the next instruction needs the
    /// driver — a stream-port load/store, `ebreak`, or an instruction that
    /// would trap — or until `max_retire` instructions have retired or
    /// `self.cycles` reaches `cycle_limit`. Returns the number of
    /// instructions retired. The driver performs the visible instruction
    /// via [`Cpu::step_cached`] (or the reference [`Cpu::step`]).
    ///
    /// The fast path never performs an externally-visible access and never
    /// mutates state an about-to-trap instruction would leave untouched:
    /// it stops *before* such instructions, with `pc` pointing at them, so
    /// a follow-up `step` behaves exactly as in the decode-per-step loop.
    /// Interleaving `run_ahead` and `step` therefore produces bit-identical
    /// registers, memory, cycle counts, and instruction counts to stepping
    /// alone — the invariant the differential tests pin down.
    pub fn run_ahead(&mut self, max_retire: u64, cycle_limit: u64) -> u64 {
        self.run_ahead_inner(None, max_retire, cycle_limit)
    }

    /// The dispatch loop behind [`Cpu::run_ahead`]. `entry` optionally
    /// pre-supplies the block containing `self.pc` (which may point
    /// *mid-block*), letting [`Cpu::step_then_run`] continue in the block
    /// it just executed a visible op from without a fresh cache lookup.
    /// The hint must be current — callers check the invalidation epoch.
    fn run_ahead_inner(
        &mut self,
        mut entry: Option<Arc<Block>>,
        max_retire: u64,
        cycle_limit: u64,
    ) -> u64 {
        let mut retired = 0u64;
        // Counters accumulate in locals (flushed at every exit) so the hot
        // dispatch loop touches registers, not `self` fields.
        let mut cycles = self.cycles;
        // Every retirement bumps the instruction count by exactly one, so
        // the count is derived at flush time instead of per op.
        let instructions0 = self.instructions;
        macro_rules! flush {
            () => {{
                self.cycles = cycles;
                self.instructions = instructions0 + retired;
            }};
        }
        'blocks: loop {
            if retired >= max_retire || cycles >= cycle_limit {
                flush!();
                return retired;
            }
            let block = match entry.take() {
                Some(b) => b,
                None => match self.icache.get(self.pc) {
                    Some(b) => Arc::clone(b),
                    None => {
                        let b = decode_block(&self.mem, self.pc);
                        if b.ops.is_empty() {
                            flush!();
                            return retired;
                        }
                        let b = Arc::new(b);
                        self.icache.insert(Arc::clone(&b));
                        b
                    }
                },
            };
            let epoch = self.icache.epoch;
            let mut pc = self.pc;
            // If one pass over the whole block fits inside both budgets
            // even at the worst per-op cost, the per-op budget checks are
            // provably true and can be skipped until the next control
            // transfer re-establishes the bound.
            let len = block.ops.len() as u64;
            let mut unchecked = max_retire - retired >= len
                && cycles.saturating_add(len * cycles::INTRINSIC) < cycle_limit;
            // Retire one sequential micro-op: advance past it and charge.
            macro_rules! retire {
                ($cost:expr) => {{
                    pc = pc.wrapping_add(4);
                    cycles += $cost;
                    retired += 1;
                }};
            }
            // One full pass over the block fits the budgets (used when a
            // control transfer re-enters the block, below).
            macro_rules! budget_clear {
                () => {
                    max_retire - retired >= len
                        && cycles.saturating_add(len * cycles::INTRINSIC) < cycle_limit
                };
            }
            let ops = &block.ops;
            // Normal entries start at the block head; an `entry` hint may
            // resume mid-block (pc is inside `[start, end)` by contract).
            let mut idx = ((pc - block.start) >> 2) as usize;
            // Retire a fused group of `$n` words as one dispatch.
            macro_rules! retire_group {
                ($n:expr, $cost:expr) => {{
                    idx += $n as usize - 1;
                    pc = pc.wrapping_add(4 * $n as u32);
                    cycles += $cost;
                    retired += $n as u64;
                }};
            }
            'ops: while idx < ops.len() {
                if !unchecked && (retired >= max_retire || cycles >= cycle_limit) {
                    self.pc = pc;
                    flush!();
                    return retired;
                }
                let op = ops[idx];
                idx += 1;
                match op {
                    UOp::Lui { rd, imm } => {
                        self.wr(rd, imm);
                        retire!(cycles::ALU);
                    }
                    UOp::Addi { rd, rs1, imm } => {
                        self.wr(rd, self.rr(rs1).wrapping_add(imm));
                        retire!(cycles::ALU);
                    }
                    UOp::Andi { rd, rs1, imm } => {
                        self.wr(rd, self.rr(rs1) & imm);
                        retire!(cycles::ALU);
                    }
                    UOp::Ori { rd, rs1, imm } => {
                        self.wr(rd, self.rr(rs1) | imm);
                        retire!(cycles::ALU);
                    }
                    UOp::Xori { rd, rs1, imm } => {
                        self.wr(rd, self.rr(rs1) ^ imm);
                        retire!(cycles::ALU);
                    }
                    UOp::Slli { rd, rs1, shamt } => {
                        self.wr(rd, self.rr(rs1) << shamt);
                        retire!(cycles::ALU);
                    }
                    UOp::Srli { rd, rs1, shamt } => {
                        self.wr(rd, self.rr(rs1) >> shamt);
                        retire!(cycles::ALU);
                    }
                    UOp::Srai { rd, rs1, shamt } => {
                        self.wr(rd, ((self.rr(rs1) as i32) >> shamt) as u32);
                        retire!(cycles::ALU);
                    }
                    UOp::Add { rd, rs1, rs2 } => {
                        self.wr(rd, self.rr(rs1).wrapping_add(self.rr(rs2)));
                        retire!(cycles::ALU);
                    }
                    UOp::Sub { rd, rs1, rs2 } => {
                        self.wr(rd, self.rr(rs1).wrapping_sub(self.rr(rs2)));
                        retire!(cycles::ALU);
                    }
                    UOp::Sll { rd, rs1, rs2 } => {
                        self.wr(rd, self.rr(rs1) << (self.rr(rs2) & 31));
                        retire!(cycles::ALU);
                    }
                    UOp::Srl { rd, rs1, rs2 } => {
                        self.wr(rd, self.rr(rs1) >> (self.rr(rs2) & 31));
                        retire!(cycles::ALU);
                    }
                    UOp::Sra { rd, rs1, rs2 } => {
                        self.wr(rd, ((self.rr(rs1) as i32) >> (self.rr(rs2) & 31)) as u32);
                        retire!(cycles::ALU);
                    }
                    UOp::Slt { rd, rs1, rs2 } => {
                        self.wr(rd, ((self.rr(rs1) as i32) < (self.rr(rs2) as i32)) as u32);
                        retire!(cycles::ALU);
                    }
                    UOp::Sltu { rd, rs1, rs2 } => {
                        self.wr(rd, (self.rr(rs1) < self.rr(rs2)) as u32);
                        retire!(cycles::ALU);
                    }
                    UOp::And { rd, rs1, rs2 } => {
                        self.wr(rd, self.rr(rs1) & self.rr(rs2));
                        retire!(cycles::ALU);
                    }
                    UOp::Or { rd, rs1, rs2 } => {
                        self.wr(rd, self.rr(rs1) | self.rr(rs2));
                        retire!(cycles::ALU);
                    }
                    UOp::Xor { rd, rs1, rs2 } => {
                        self.wr(rd, self.rr(rs1) ^ self.rr(rs2));
                        retire!(cycles::ALU);
                    }
                    UOp::Mul { rd, rs1, rs2 } => {
                        self.wr(rd, self.rr(rs1).wrapping_mul(self.rr(rs2)));
                        retire!(cycles::MUL);
                    }
                    UOp::Div { rd, rs1, rs2 } => {
                        let a = self.rr(rs1) as i32;
                        let b = self.rr(rs2) as i32;
                        let q = if b == 0 { -1 } else { a.wrapping_div(b) };
                        self.wr(rd, q as u32);
                        retire!(cycles::DIV);
                    }
                    UOp::Divu { rd, rs1, rs2 } => {
                        let q = self.rr(rs1).checked_div(self.rr(rs2)).unwrap_or(u32::MAX);
                        self.wr(rd, q);
                        retire!(cycles::DIV);
                    }
                    UOp::Rem { rd, rs1, rs2 } => {
                        let a = self.rr(rs1) as i32;
                        let b = self.rr(rs2) as i32;
                        let v = if b == 0 { a } else { a.wrapping_rem(b) };
                        self.wr(rd, v as u32);
                        retire!(cycles::DIV);
                    }
                    UOp::Remu { rd, rs1, rs2 } => {
                        let b = self.rr(rs2);
                        let v = if b == 0 {
                            self.rr(rs1)
                        } else {
                            self.rr(rs1) % b
                        };
                        self.wr(rd, v);
                        retire!(cycles::DIV);
                    }
                    UOp::Load { rd, rs1, imm, kind } => {
                        let addr = self.rr(rs1).wrapping_add(imm);
                        if (firmware::STREAM_READ_BASE..firmware::STREAM_WRITE_BASE).contains(&addr)
                            || !self.mem_ok(addr, kind.len())
                        {
                            // Stream I/O or trap: step()'s business.
                            self.pc = pc;
                            flush!();
                            return retired;
                        }
                        self.wr(rd, kind.extend(self.load_n(addr, kind.len())));
                        retire!(cycles::LOAD);
                    }
                    UOp::Store {
                        rs1,
                        rs2,
                        imm,
                        kind,
                    } => {
                        let addr = self.rr(rs1).wrapping_add(imm);
                        if addr >= firmware::STREAM_WRITE_BASE || !self.mem_ok(addr, kind.len()) {
                            self.pc = pc;
                            flush!();
                            return retired;
                        }
                        self.store_n(addr, kind.len(), self.rr(rs2));
                        retire!(cycles::STORE);
                        if self.icache.epoch != epoch {
                            // The store hit decoded bytes (self-modifying
                            // code): this block may be stale past here.
                            self.pc = pc;
                            continue 'blocks;
                        }
                    }
                    UOp::Branch {
                        rs1,
                        rs2,
                        cond,
                        target,
                    } => {
                        let a = self.rr(rs1);
                        let b = self.rr(rs2);
                        let taken = match cond {
                            Cond::Eq => a == b,
                            Cond::Ne => a != b,
                            Cond::Lt => (a as i32) < (b as i32),
                            Cond::Ge => (a as i32) >= (b as i32),
                            Cond::Ltu => a < b,
                            Cond::Geu => a >= b,
                        };
                        pc = if taken { target } else { pc.wrapping_add(4) };
                        cycles += cycles::BRANCH;
                        retired += 1;
                        // Tight loops usually land back inside this block:
                        // resolve the target to a local op index and keep
                        // dispatching rather than paying the block-entry
                        // overhead once per loop iteration.
                        if pc >= block.start && pc < block.end {
                            idx = ((pc - block.start) >> 2) as usize;
                            unchecked = budget_clear!();
                            continue 'ops;
                        }
                        self.pc = pc;
                        continue 'blocks;
                    }
                    UOp::Jal { rd, link, target } => {
                        self.wr(rd, link);
                        pc = target;
                        cycles += cycles::BRANCH;
                        retired += 1;
                        if pc >= block.start && pc < block.end {
                            idx = ((pc - block.start) >> 2) as usize;
                            unchecked = budget_clear!();
                            continue 'ops;
                        }
                        self.pc = pc;
                        continue 'blocks;
                    }
                    UOp::Jalr { rd, rs1, imm, link } => {
                        // Link before reading rs1, mirroring step()'s write
                        // order (observable when rd == rs1).
                        self.wr(rd, link);
                        pc = self.rr(rs1).wrapping_add(imm) & !1;
                        cycles += cycles::BRANCH;
                        retired += 1;
                        if pc >= block.start && pc < block.end {
                            idx = ((pc - block.start) >> 2) as usize;
                            unchecked = budget_clear!();
                            continue 'ops;
                        }
                        self.pc = pc;
                        continue 'blocks;
                    }
                    UOp::Ecall => {
                        if self.rr(crate::isa::reg::A7 as u8) as usize >= self.intrinsics.len() {
                            // Would trap; leave it to step().
                            self.pc = pc;
                            flush!();
                            return retired;
                        }
                        self.ecall().expect("intrinsic index pre-checked");
                        retire!(cycles::INTRINSIC);
                        if self.icache.epoch != epoch {
                            // An intrinsic slot write landed in decoded
                            // bytes; treat like a self-modifying store.
                            self.pc = pc;
                            continue 'blocks;
                        }
                    }
                    // A fused group runs whole only on an unchecked pass:
                    // no word of it is a visible instruction, so only a
                    // budget could stop inside it.
                    UOp::LiPair { rd, value, .. } if unchecked => {
                        self.wr(rd, value);
                        retire_group!(2, 2 * cycles::ALU);
                    }
                    UOp::LiLoad {
                        rd, kind, n, addr, ..
                    } if unchecked => {
                        self.wr(rd, kind.extend(self.load_n(addr, kind.len())));
                        retire_group!(n, u64::from(n - 1) * cycles::ALU + cycles::LOAD);
                    }
                    UOp::LiStore {
                        rd,
                        rs,
                        kind,
                        n,
                        addr,
                        ..
                    } if unchecked => {
                        self.wr(rd, addr);
                        self.store_n(addr, kind.len(), self.rr(rs));
                        retire_group!(n, u64::from(n - 1) * cycles::ALU + cycles::STORE);
                        if self.icache.epoch != epoch {
                            self.pc = pc;
                            continue 'blocks;
                        }
                    }
                    // Budget-checked: the head alone, so a stop can land
                    // on any word of the group.
                    UOp::LiPair {
                        rd,
                        lo,
                        value: addr,
                        ..
                    }
                    | UOp::LiLoad { rd, lo, addr, .. }
                    | UOp::LiStore { rd, lo, addr, .. } => {
                        self.wr(rd, addr.wrapping_sub(lo as u32));
                        retire!(cycles::ALU);
                    }
                }
            }
            // Fell off the end of a straight-line block (length cap, or
            // the next word is step()'s business — re-looked up fresh).
            self.pc = pc;
            if self.icache.get(pc).is_none() && decodes_fast(&self.mem, pc) {
                continue;
            }
            if self.icache.get(pc).is_some() {
                continue;
            }
            flush!();
            return retired;
        }
    }

    /// Executes exactly one instruction through the pre-decoded cache —
    /// including the externally-visible stream-port accesses [`Cpu::run_ahead`]
    /// stops at — with semantics mirroring [`Cpu::step`] case for case:
    /// identical stall, trap, cycle-cost, and register write-order
    /// behaviour. Falls back to `step` for anything without a micro-op
    /// form (`ebreak`, undecodable words, fetches past memory), so fast
    /// drivers can use it as a drop-in replacement for `step`.
    pub fn step_cached(&mut self, io: &mut dyn crate::cpu::StreamIo) -> crate::cpu::StepResult {
        let op = match self.icache.get(self.pc) {
            Some(b) => b.ops[0],
            None => {
                let b = decode_block(&self.mem, self.pc);
                let Some(&op) = b.ops.first() else {
                    return self.step(io);
                };
                self.icache.insert(Arc::new(b));
                op
            }
        };
        self.exec_uop(op, io)
    }

    /// [`Cpu::step_cached`] fused with [`Cpu::run_ahead`]: executes the
    /// visible instruction at `self.pc`, and — when it succeeds — keeps
    /// dispatching private work from the *same* pre-decoded block, paying
    /// one cache lookup for the whole visible-step-plus-run-ahead unit
    /// instead of two. Returns the step result and the instructions
    /// retired by the run-ahead (0 unless the step returned `Ok`).
    /// Equivalent to `(self.step_cached(io), self.run_ahead(..))` —
    /// pinned by the differential tests.
    pub fn step_then_run(
        &mut self,
        io: &mut dyn crate::cpu::StreamIo,
        max_retire: u64,
        cycle_limit: u64,
    ) -> (crate::cpu::StepResult, u64) {
        use crate::cpu::StepResult;
        let block = match self.icache.get(self.pc) {
            Some(b) => Arc::clone(b),
            None => {
                let b = decode_block(&self.mem, self.pc);
                if b.ops.is_empty() {
                    let result = self.step(io);
                    let ran = if result == StepResult::Ok {
                        self.run_ahead(max_retire, cycle_limit)
                    } else {
                        0
                    };
                    return (result, ran);
                }
                let b = Arc::new(b);
                self.icache.insert(Arc::clone(&b));
                b
            }
        };
        let epoch = self.icache.epoch;
        let result = self.exec_uop(block.ops[0], io);
        if result != StepResult::Ok {
            return (result, 0);
        }
        // Continue in the same block when control stayed inside it and no
        // store invalidated decoded bytes; otherwise fall back to a fresh
        // lookup (which re-validates against the cache).
        let entry = (self.icache.epoch == epoch && self.pc >= block.start && self.pc < block.end)
            .then_some(block);
        let ran = self.run_ahead_inner(entry, max_retire, cycle_limit);
        (result, ran)
    }

    /// Executes one visible micro-op (the `step_cached` body after block
    /// lookup), mirroring [`Cpu::step`] case for case.
    fn exec_uop(&mut self, op: UOp, io: &mut dyn crate::cpu::StreamIo) -> crate::cpu::StepResult {
        use crate::cpu::StepResult;
        let mut next_pc = self.pc.wrapping_add(4);
        let mut cost = cycles::ALU;
        match op {
            UOp::Lui { rd, imm } => self.wr(rd, imm),
            UOp::Addi { rd, rs1, imm } => self.wr(rd, self.rr(rs1).wrapping_add(imm)),
            UOp::Andi { rd, rs1, imm } => self.wr(rd, self.rr(rs1) & imm),
            UOp::Ori { rd, rs1, imm } => self.wr(rd, self.rr(rs1) | imm),
            UOp::Xori { rd, rs1, imm } => self.wr(rd, self.rr(rs1) ^ imm),
            UOp::Slli { rd, rs1, shamt } => self.wr(rd, self.rr(rs1) << shamt),
            UOp::Srli { rd, rs1, shamt } => self.wr(rd, self.rr(rs1) >> shamt),
            UOp::Srai { rd, rs1, shamt } => self.wr(rd, ((self.rr(rs1) as i32) >> shamt) as u32),
            UOp::Add { rd, rs1, rs2 } => self.wr(rd, self.rr(rs1).wrapping_add(self.rr(rs2))),
            UOp::Sub { rd, rs1, rs2 } => self.wr(rd, self.rr(rs1).wrapping_sub(self.rr(rs2))),
            UOp::Sll { rd, rs1, rs2 } => self.wr(rd, self.rr(rs1) << (self.rr(rs2) & 31)),
            UOp::Srl { rd, rs1, rs2 } => self.wr(rd, self.rr(rs1) >> (self.rr(rs2) & 31)),
            UOp::Sra { rd, rs1, rs2 } => {
                self.wr(rd, ((self.rr(rs1) as i32) >> (self.rr(rs2) & 31)) as u32)
            }
            UOp::Slt { rd, rs1, rs2 } => {
                self.wr(rd, ((self.rr(rs1) as i32) < (self.rr(rs2) as i32)) as u32)
            }
            UOp::Sltu { rd, rs1, rs2 } => self.wr(rd, (self.rr(rs1) < self.rr(rs2)) as u32),
            UOp::And { rd, rs1, rs2 } => self.wr(rd, self.rr(rs1) & self.rr(rs2)),
            UOp::Or { rd, rs1, rs2 } => self.wr(rd, self.rr(rs1) | self.rr(rs2)),
            UOp::Xor { rd, rs1, rs2 } => self.wr(rd, self.rr(rs1) ^ self.rr(rs2)),
            UOp::Mul { rd, rs1, rs2 } => {
                cost = cycles::MUL;
                self.wr(rd, self.rr(rs1).wrapping_mul(self.rr(rs2)));
            }
            UOp::Div { rd, rs1, rs2 } => {
                cost = cycles::DIV;
                let a = self.rr(rs1) as i32;
                let b = self.rr(rs2) as i32;
                let q = if b == 0 { -1 } else { a.wrapping_div(b) };
                self.wr(rd, q as u32);
            }
            UOp::Divu { rd, rs1, rs2 } => {
                cost = cycles::DIV;
                let q = self.rr(rs1).checked_div(self.rr(rs2)).unwrap_or(u32::MAX);
                self.wr(rd, q);
            }
            UOp::Rem { rd, rs1, rs2 } => {
                cost = cycles::DIV;
                let a = self.rr(rs1) as i32;
                let b = self.rr(rs2) as i32;
                let v = if b == 0 { a } else { a.wrapping_rem(b) };
                self.wr(rd, v as u32);
            }
            UOp::Remu { rd, rs1, rs2 } => {
                cost = cycles::DIV;
                let b = self.rr(rs2);
                let v = if b == 0 {
                    self.rr(rs1)
                } else {
                    self.rr(rs1) % b
                };
                self.wr(rd, v);
            }
            UOp::Load { rd, rs1, imm, kind } => {
                cost = cycles::LOAD;
                let addr = self.rr(rs1).wrapping_add(imm);
                if (firmware::STREAM_READ_BASE..firmware::STREAM_WRITE_BASE).contains(&addr) {
                    let port = (addr - firmware::STREAM_READ_BASE) / firmware::PORT_STRIDE;
                    match io.read(port) {
                        Some(w) => self.wr(rd, w),
                        None => {
                            self.cycles += cycles::STALL;
                            return StepResult::Stall;
                        }
                    }
                } else {
                    if !self.mem_ok(addr, kind.len()) {
                        return StepResult::Trap { pc: self.pc };
                    }
                    self.wr(rd, kind.extend(self.load_n(addr, kind.len())));
                }
            }
            UOp::Store {
                rs1,
                rs2,
                imm,
                kind,
            } => {
                cost = cycles::STORE;
                let addr = self.rr(rs1).wrapping_add(imm);
                if addr >= firmware::STREAM_WRITE_BASE {
                    let port = (addr - firmware::STREAM_WRITE_BASE) / firmware::PORT_STRIDE;
                    if !io.write(port, self.rr(rs2)) {
                        self.cycles += cycles::STALL;
                        return StepResult::Stall;
                    }
                } else {
                    if !self.mem_ok(addr, kind.len()) {
                        return StepResult::Trap { pc: self.pc };
                    }
                    self.store_n(addr, kind.len(), self.rr(rs2));
                }
            }
            UOp::Branch {
                rs1,
                rs2,
                cond,
                target,
            } => {
                cost = cycles::BRANCH;
                let a = self.rr(rs1);
                let b = self.rr(rs2);
                let taken = match cond {
                    Cond::Eq => a == b,
                    Cond::Ne => a != b,
                    Cond::Lt => (a as i32) < (b as i32),
                    Cond::Ge => (a as i32) >= (b as i32),
                    Cond::Ltu => a < b,
                    Cond::Geu => a >= b,
                };
                if taken {
                    next_pc = target;
                }
            }
            UOp::Jal { rd, link, target } => {
                cost = cycles::BRANCH;
                self.wr(rd, link);
                next_pc = target;
            }
            UOp::Jalr { rd, rs1, imm, link } => {
                cost = cycles::BRANCH;
                self.wr(rd, link);
                next_pc = self.rr(rs1).wrapping_add(imm) & !1;
            }
            UOp::Ecall => {
                cost = cycles::INTRINSIC;
                if self.ecall().is_err() {
                    return StepResult::Trap { pc: self.pc };
                }
            }
            // A fused group's head alone (the rest of the group keeps its
            // own slots).
            UOp::LiPair {
                rd,
                lo,
                value: addr,
                ..
            }
            | UOp::LiLoad { rd, lo, addr, .. }
            | UOp::LiStore { rd, lo, addr, .. } => self.wr(rd, addr.wrapping_sub(lo as u32)),
        }
        self.pc = next_pc;
        self.cycles += cost;
        self.instructions += 1;
        StepResult::Ok
    }

    /// Block-cache counters (diagnostics / tests).
    pub fn icache_stats(&self) -> IcacheStats {
        self.icache.stats()
    }
}

/// Whether the word at `pc` starts another pre-decodable run (cheap probe
/// so falling off a capped block keeps running instead of bouncing to the
/// driver).
fn decodes_fast(mem: &[u8], pc: u32) -> bool {
    let a = pc as usize;
    match a.checked_add(4) {
        Some(end) if end <= mem.len() => {
            let word = u32::from_le_bytes(mem[a..end].try_into().unwrap());
            !matches!(Instr::decode(word), None | Some(Instr::Ebreak))
        }
        _ => false,
    }
}
