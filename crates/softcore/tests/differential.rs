//! Differential suite: the block-cached engine, the softcore's one fast
//! path, must be bit-identical to the decode-per-step reference
//! (`Cpu::step`) on random firmware images under random stream
//! stall/availability patterns — final registers, memory, cycle count,
//! instruction count, and emitted tokens all equal. The random body mixes
//! single instructions with the compiler's slot-access idioms (`li R, A`
//! in all three forms, then a load or store through `0(R)`), whose
//! addresses land in bounds, out of bounds, on a stream port or inside
//! the code, so fused groups, their refusals and branches into them all
//! occur; counted loops around stretches of the body enter those groups
//! again from warm blocks; the cached side also runs under random budgets
//! that stop it mid-group. The scenario tests pin the cases random firmware
//! rarely reaches: stores into decoded bytes and firmware reloads over a
//! live core.

use proptest::prelude::*;
use softcore::cpu::{StepResult, StreamIo};
use softcore::isa::Instr;
use softcore::{firmware, Cpu};

/// Three 4 KiB pages, so a bare `lui` can address in-bounds data.
const MEM_BYTES: u32 = 3 * 4096;
/// Scratch data region for random loads/stores (code sits below it).
const SCRATCH: i32 = 1024;
const CYCLE_BUDGET: u64 = 50_000;

/// Deterministic stream endpoint: availability is a function of the call
/// number alone, so two engines that issue the same architectural sequence
/// of port accesses observe the same stalls and the same tokens.
struct PatternIo {
    read_avail: Vec<bool>,
    write_avail: Vec<bool>,
    read_calls: usize,
    write_calls: usize,
    tokens_read: u32,
    written: Vec<u32>,
}

impl PatternIo {
    fn new(read_avail: Vec<bool>, write_avail: Vec<bool>) -> PatternIo {
        PatternIo {
            read_avail,
            write_avail,
            read_calls: 0,
            write_calls: 0,
            tokens_read: 0,
            written: Vec::new(),
        }
    }
}

impl StreamIo for PatternIo {
    fn read(&mut self, _port: u32) -> Option<u32> {
        let ok = self.read_avail[self.read_calls % self.read_avail.len()];
        self.read_calls += 1;
        if ok {
            self.tokens_read += 1;
            Some(self.tokens_read.wrapping_mul(0x9E37_79B9))
        } else {
            None
        }
    }

    fn write(&mut self, port: u32, word: u32) -> bool {
        let ok = self.write_avail[self.write_calls % self.write_avail.len()];
        self.write_calls += 1;
        if ok {
            self.written.push((port << 24) ^ word);
        }
        ok
    }
}

/// The general registers a generated instruction may write: x1..x12
/// without the prelude's base registers x5..x7.
const SCRATCH_REGS: [u32; 9] = [1, 2, 3, 4, 8, 9, 10, 11, 12];

/// Appends one recipe entry to `code`: a single random instruction, or
/// (five selectors in 23) a slot-access group. Control flow only jumps
/// forward (backward branches come from a dedicated selector with a small
/// bounded hop, so loops re-enter recently executed code — often the
/// middle of a group — and exercise the intra-block transfer path); the
/// cycle budget bounds the runaway cases identically in both engines.
fn emit(code: &mut Vec<Instr>, (sel, a, b, imm): (u8, u8, u8, i16), last: bool) {
    // x1..x12 are general scratch; x5 points at SCRATCH, x6/x7 at the
    // stream read/write windows (set up by the prelude). Destinations never
    // overwrite x5..x7, so the scratch and stream selectors keep addressing
    // valid memory instead of trapping the program within a few
    // instructions.
    let at = code.len();
    let rd = SCRATCH_REGS[usize::from(a % 9)];
    let rs1 = u32::from(b % 12) + 1;
    let rs2 = u32::from(a.wrapping_add(b) % 12) + 1;
    let word_off = i32::from(imm as u8 % 200) * 4;
    let fwd = 4 * (i32::from(b % 4) + 1);
    let ins = match sel % 23 {
        0 => Instr::Addi {
            rd,
            rs1,
            imm: i32::from(imm % 2048),
        },
        1 => Instr::Add { rd, rs1, rs2 },
        2 => Instr::Sub { rd, rs1, rs2 },
        3 => Instr::Mul { rd, rs1, rs2 },
        4 => Instr::Div { rd, rs1, rs2 },
        5 => Instr::Remu { rd, rs1, rs2 },
        6 => Instr::Xor { rd, rs1, rs2 },
        7 => Instr::Sltu { rd, rs1, rs2 },
        8 => Instr::Slli {
            rd,
            rs1,
            shamt: u32::from(b) % 32,
        },
        9 => Instr::Srai {
            rd,
            rs1,
            shamt: u32::from(a) % 32,
        },
        10 => Instr::Lw {
            rd,
            rs1: 5,
            imm: word_off,
        },
        11 => Instr::Lbu {
            rd,
            rs1: 5,
            imm: i32::from(imm as u8),
        },
        12 => Instr::Sw {
            rs1: 5,
            rs2,
            imm: word_off,
        },
        13 => Instr::Sb {
            rs1: 5,
            rs2,
            imm: i32::from(imm as u8),
        },
        // Stream read / write through the port windows.
        14 => Instr::Lw { rd, rs1: 6, imm: 0 },
        15 => Instr::Sw {
            rs1: 7,
            rs2,
            imm: 0,
        },
        16 => Instr::Bne { rs1, rs2, imm: fwd },
        17 => {
            // A short backward hop over the one to three instructions
            // before it when there is room, else forward. The hop spends
            // one unit of `HOP_REG` per pass and is taken while any is
            // left, so its loop ends at the same instruction in both
            // engines and the run goes on to new code.
            if at >= 4 && !last {
                if a.is_multiple_of(4) {
                    code.push(Instr::Addi {
                        rd: HOP_REG,
                        rs1: HOP_REG,
                        imm: -1,
                    });
                    Instr::Blt {
                        rs1: 0,
                        rs2: HOP_REG,
                        imm: -4 * (i32::from(b % 3) + 2),
                    }
                } else {
                    Instr::Beq {
                        rs1,
                        rs2: rs1,
                        imm: fwd,
                    }
                }
            } else {
                Instr::Jal { rd: 1, imm: fwd }
            }
        }
        _ => return emit_slot_access(code, a, b, imm),
    };
    code.push(ins);
}

/// Appends `li R, A` in one of its three forms (`lui` + `addi`, `lui`
/// alone, `addi` from `x0`), then a load `R, 0(R)`, a store `rs, 0(R)`
/// (`rs == R` included) or nothing. `A` is in bounds, out of bounds, a
/// stream port, or a word of the code itself; `R` is sometimes `x0`,
/// whose `li` leaves the access at address 0.
fn emit_slot_access(code: &mut Vec<Instr>, a: u8, b: u8, imm: i16) {
    // Never the prelude's x5..x7, which the single instructions address
    // through; sometimes x0.
    let r = [0, 1, 2, 3, 4, 8, 9, 10, 11, 12][usize::from(a / 16 % 10)];
    let access = (imm as u16 >> 2) % 9; // 0..=4 load, 5..=7 store, 8 none
    let store = (5..=7).contains(&access);
    let k = u32::from(imm as u16 >> 6);
    // Form 0 is `lui` + `addi` (any A), 1 `lui` alone (A a multiple of
    // 4096), 2 `addi x0` (A sign-extended from 12 bits).
    let mut form = b % 3;
    // An access out of bounds traps, and a store into the code usually
    // leaves a word that traps when it runs: either ends the program, so
    // three draws in four of those two classes address in bounds instead,
    // and programs (loops above all) live long enough to enter their
    // groups again.
    let class = match a % 16 {
        10 | 11 | 14 | 15 if (b >> 3) & 3 != 0 => a % 10,
        class => class,
    };
    let addr: u32 = match class {
        // In bounds.
        0..=9 => match form {
            0 => SCRATCH as u32 + k % (MEM_BYTES - SCRATCH as u32 - 4),
            1 => 4096 * (1 + k % 2),
            _ => SCRATCH as u32 + k % (2048 - SCRATCH as u32 - 4),
        },
        // Out of bounds (below the stream windows, or across the end).
        10 | 11 => match form {
            0 => MEM_BYTES - 2 + k % 64,
            1 => 4 * 4096 * (1 + k % 8),
            _ => (-1 - (k % 2048) as i32) as u32,
        },
        // A stream port: only the `lui` forms reach the read window.
        12 | 13 => {
            form %= 2;
            let base = if store {
                firmware::STREAM_WRITE_BASE
            } else {
                firmware::STREAM_READ_BASE
            };
            base + if form == 0 { 8 * (k % 4) } else { 0 }
        }
        // A word of the code around the group: a store there is
        // self-modifying (a bare `lui` can only reach address 0).
        _ => match form {
            1 => 0,
            _ => 4 * (code.len() as u32 + k % 8).saturating_sub(2),
        },
    };
    match form {
        0 => code.extend([
            Instr::Lui {
                rd: r,
                imm: (addr.wrapping_add(0x800) & 0xffff_f000) as i32,
            },
            Instr::Addi {
                rd: r,
                // One pair in eight adds to another register: not a `li`.
                rs1: if b >> 5 == 7 { 5 } else { r },
                imm: ((addr as i32) << 20) >> 20,
            },
        ]),
        1 => code.push(Instr::Lui {
            rd: r,
            imm: addr as i32,
        }),
        _ => code.push(Instr::Addi {
            rd: r,
            rs1: 0,
            imm: ((addr as i32) << 20) >> 20,
        }),
    }
    let rs = if imm & 1 == 0 {
        r
    } else {
        u32::from(b % 12) + 1
    };
    // Three accesses in sixteen miss the idiom, so must not fuse: another
    // base, an offset, or (loads) another destination.
    let (rd, rs1, imm) = match imm as u16 >> 12 {
        0 => (r, 5, 0),
        1 => (r, r, 4),
        2 => (rs, r, 0),
        _ => (r, r, 0),
    };
    code.push(match access {
        0 => Instr::Lw { rd, rs1, imm },
        1 => Instr::Lh { rd, rs1, imm },
        2 => Instr::Lhu { rd, rs1, imm },
        3 => Instr::Lb { rd, rs1, imm },
        4 => Instr::Lbu { rd, rs1, imm },
        5 => Instr::Sw { rs1, rs2: rs, imm },
        6 => Instr::Sh { rs1, rs2: rs, imm },
        7 => Instr::Sb { rs1, rs2: rs, imm },
        _ => return,
    });
}

/// The loop counter of [`build_cpu`]'s counted loops: no generated
/// instruction reads or writes it.
const LOOP_REG: u32 = 13;
/// The backward hops' shared budget: the prelude loads it with
/// `HOP_PASSES`, each hop decrements it, and no other instruction touches
/// it. It only falls, so however hops nest, they take at most
/// `HOP_PASSES` backward passes in all.
const HOP_REG: u32 = 14;
const HOP_PASSES: i32 = 32;

/// Assembles the prelude + random body + ebreak tail into a fresh core.
/// Each `(start, len, trips)` of `loops` wraps the `len` recipe entries from
/// `start` on in a counted loop of `trips` passes, so the body's groups
/// (fused or refused) and block boundaries are entered again and again from
/// warm blocks. One loop is open at a time: one starting inside another is
/// dropped. The count falls at the top of the body, so every pass
/// decrements it, and a forward hop onto the back edge takes at most the
/// passes left. A forward hop out of the body leaves the loop.
fn build_cpu(recipe: &[(u8, u8, u8, i16)], loops: &[(usize, usize, u8)]) -> Cpu {
    let mut code: Vec<Instr> = vec![
        // x5 = scratch base, x6 = stream read window, x7 = write window.
        Instr::Addi {
            rd: 5,
            rs1: 0,
            imm: SCRATCH,
        },
        Instr::Lui {
            rd: 6,
            imm: firmware::STREAM_READ_BASE as i32,
        },
        Instr::Lui {
            rd: 7,
            imm: firmware::STREAM_WRITE_BASE as i32,
        },
        Instr::Addi {
            rd: HOP_REG,
            rs1: 0,
            imm: HOP_PASSES,
        },
    ];
    // The open loop: its last recipe entry and its body's first word.
    let mut open: Option<(usize, usize)> = None;
    for (i, &entry) in recipe.iter().enumerate() {
        if open.is_none() {
            if let Some(&(_, len, trips)) = loops.iter().find(|l| l.0 == i) {
                code.push(Instr::Addi {
                    rd: LOOP_REG,
                    rs1: 0,
                    imm: i32::from(trips),
                });
                open = Some(((i + len - 1).min(recipe.len() - 1), code.len()));
                code.push(Instr::Addi {
                    rd: LOOP_REG,
                    rs1: LOOP_REG,
                    imm: -1,
                });
            }
        }
        emit(&mut code, entry, i + 1 == recipe.len());
        if let Some((_, body)) = open.filter(|&(end, _)| end == i) {
            let back = 4 * (body as i32 - code.len() as i32);
            // Back to the decrement while the count is positive, so a hop
            // onto this edge after the count ran out leaves at once.
            code.push(Instr::Blt {
                rs1: 0,
                rs2: LOOP_REG,
                imm: back,
            });
            open = None;
        }
    }
    // Padding halts so every bounded forward hop lands on valid code.
    for _ in 0..6 {
        code.push(Instr::Ebreak);
    }
    let mut cpu = Cpu::new(MEM_BYTES, vec![]);
    let image: Vec<u8> = code.iter().flat_map(|i| i.encode().to_le_bytes()).collect();
    cpu.load(0, &image);
    cpu
}

#[derive(Clone, Copy)]
enum Mode {
    Reference,
    BlockCached,
}

/// The architectural state a run ends in.
#[derive(Debug, PartialEq)]
struct Snapshot {
    regs: [u32; 32],
    pc: u32,
    mem: Vec<u32>,
    cycles: u64,
    instructions: u64,
    written: Vec<u32>,
    /// The halt or trap that ended the run; `None` for the cycle budget.
    end: Option<StepResult>,
}

/// Drives one core to halt/trap/budget and snapshots its state.
fn run(mut cpu: Cpu, mut io: PatternIo, mode: Mode) -> Snapshot {
    let mut end = None;
    while cpu.cycles < CYCLE_BUDGET {
        let result = match mode {
            Mode::Reference => cpu.step(&mut io),
            Mode::BlockCached => cpu.step_then_run(&mut io, u64::MAX, CYCLE_BUDGET).0,
        };
        match result {
            StepResult::Ok | StepResult::Stall => {}
            StepResult::Halt | StepResult::Trap { .. } => {
                end = Some(result);
                break;
            }
        }
    }
    Snapshot {
        regs: cpu.regs,
        pc: cpu.pc,
        mem: (0..MEM_BYTES / 4).map(|w| cpu.peek_word(w * 4)).collect(),
        cycles: cpu.cycles,
        instructions: cpu.instructions,
        written: io.written,
        end,
    }
}

/// Drives the cached engine through `(max_retire, cycles)` budget slices,
/// taken in turn, so its stops land anywhere — mid-group included. After
/// each slice a reference core steps to the same instruction count: every
/// run-ahead instruction must have started inside its slice's budgets,
/// and registers, pc, cycles and instructions must agree at every stop.
fn run_sliced(cpu: &mut Cpu, reference: &mut Cpu, io: [&mut PatternIo; 2], budgets: &[(u8, u16)]) {
    let [io, ref_io] = io;
    for slice in 0.. {
        if cpu.cycles >= CYCLE_BUDGET {
            break;
        }
        let (retire, span) = budgets[slice % budgets.len()];
        let limit = (cpu.cycles + u64::from(span)).min(CYCLE_BUDGET);
        let (result, ran) = cpu.step_then_run(io, u64::from(retire), limit);
        assert_eq!(result, reference.step(ref_io), "visible step diverges");
        for i in 0..ran {
            assert!(
                i < u64::from(retire) && reference.cycles < limit,
                "run-ahead retired past its budget"
            );
            assert_eq!(reference.step(ref_io), StepResult::Ok);
        }
        assert_eq!(cpu.regs, reference.regs, "registers diverge at a stop");
        assert_eq!(cpu.pc, reference.pc, "pc diverges at a stop");
        assert_eq!(cpu.cycles, reference.cycles, "cycles diverge at a stop");
        assert_eq!(cpu.instructions, reference.instructions);
        if matches!(result, StepResult::Halt | StepResult::Trap { .. }) {
            break;
        }
    }
}

fn assert_same(reference: &Snapshot, cached: &Snapshot) {
    assert_eq!(reference.regs, cached.regs, "registers diverge");
    assert_eq!(reference.pc, cached.pc, "pc diverges");
    assert_eq!(reference.mem, cached.mem, "memory diverges");
    assert_eq!(reference.cycles, cached.cycles, "cycles diverge");
    assert_eq!(
        reference.instructions, cached.instructions,
        "instructions diverge"
    );
    assert_eq!(reference.written, cached.written, "stream output diverges");
    assert_eq!(reference.end, cached.end, "halt/trap state diverges");
}

/// `avail` with its last call made available when none is: a stream that
/// refuses every access would stall the run at its first one.
fn some_available(mut avail: Vec<bool>) -> Vec<bool> {
    if !avail.contains(&true) {
        *avail.last_mut().expect("one call at least") = true;
    }
    avail
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn block_cached_matches_reference(
        recipe in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<i16>()), 1..120),
        loops in proptest::collection::vec((0usize..120, 1usize..16, 2u8..9), 0..6),
        read_avail in proptest::collection::vec(any::<bool>(), 1..12),
        write_avail in proptest::collection::vec(any::<bool>(), 1..12),
        budgets in proptest::collection::vec((0u8..24, 0u16..400), 1..8),
    ) {
        let (read_avail, write_avail) = (some_available(read_avail), some_available(write_avail));
        let io = || PatternIo::new(read_avail.clone(), write_avail.clone());
        let build = || build_cpu(&recipe, &loops);
        let reference = run(build(), io(), Mode::Reference);
        assert_same(&reference, &run(build(), io(), Mode::BlockCached));
        let (mut cpu, mut ref_cpu) = (build(), build());
        let (mut cpu_io, mut ref_io) = (io(), io());
        run_sliced(&mut cpu, &mut ref_cpu, [&mut cpu_io, &mut ref_io], &budgets);
        prop_assert_eq!(cpu.memory(), ref_cpu.memory(), "memory diverges");
        prop_assert_eq!(cpu_io.written, ref_io.written, "stream output diverges");
    }
}

/// A store into already-decoded instruction bytes must invalidate the
/// cached block and re-decode: both engines take the *new* instruction.
/// The patch lands *ahead of the pc inside the same straight-line block*
/// (blocks end at control transfers), so without invalidation the cached
/// engine would retire the stale pre-decoded micro-op.
#[test]
fn self_modifying_store_invalidates_the_decoded_block() {
    let patch = Instr::Addi {
        rd: 2,
        rs1: 2,
        imm: 100,
    }
    .encode();
    // x3 = patch word; x4 = address of the second increment below, which
    // starts as `addi x2, x2, 1` and is rewritten to `addi x2, x2, 100`
    // before execution reaches it.
    let mut code = softcore::isa::load_imm(3, patch as i32);
    let patch_addr = (code.len() as i32 + 3) * 4;
    code.push(Instr::Addi {
        rd: 4,
        rs1: 0,
        imm: patch_addr,
    });
    code.push(Instr::Sw {
        rs1: 4,
        rs2: 3,
        imm: 0,
    });
    code.push(Instr::Addi {
        rd: 2,
        rs1: 2,
        imm: 1,
    });
    // The patch target: originally +1, becomes +100 before it runs.
    code.push(Instr::Addi {
        rd: 2,
        rs1: 2,
        imm: 1,
    });
    code.push(Instr::Ebreak);
    let build = || {
        let mut cpu = Cpu::new(MEM_BYTES, vec![]);
        let image: Vec<u8> = code.iter().flat_map(|i| i.encode().to_le_bytes()).collect();
        cpu.load(0, &image);
        cpu
    };
    let reference = run(
        build(),
        PatternIo::new(vec![true], vec![true]),
        Mode::Reference,
    );
    let mut cached_cpu = build();
    let mut io = PatternIo::new(vec![true], vec![true]);
    let mut halted = false;
    while cached_cpu.cycles < CYCLE_BUDGET {
        match cached_cpu.step_then_run(&mut io, u64::MAX, CYCLE_BUDGET).0 {
            StepResult::Ok | StepResult::Stall => {}
            StepResult::Halt => {
                halted = true;
                break;
            }
            StepResult::Trap { .. } => break,
        }
    }
    assert!(halted, "self-modifying program must halt");
    // x2 = 1 (first pass) + 100 (patched second pass).
    assert_eq!(cached_cpu.regs[2], 101);
    assert_eq!(
        reference.regs[2], 101,
        "reference agrees on the patched sum"
    );
    assert_eq!(cached_cpu.cycles, reference.cycles, "cycle counts agree");
    assert_eq!(cached_cpu.instructions, reference.instructions);
    assert!(
        cached_cpu.icache_stats().invalidations > 0,
        "the store into decoded bytes must invalidate the block cache"
    );
}

/// Reloading firmware over a core that already decoded blocks — the
/// runtime hot-swap path, which reuses a live `Cpu` via `Cpu::load` —
/// must also invalidate, so the swapped-in binary never executes stale
/// micro-ops from its predecessor.
#[test]
fn firmware_reload_invalidates_decoded_blocks() {
    let image = |imm: i32| -> Vec<u8> {
        [Instr::Addi { rd: 2, rs1: 0, imm }, Instr::Ebreak]
            .iter()
            .flat_map(|i| i.encode().to_le_bytes())
            .collect()
    };
    let mut cpu = Cpu::new(MEM_BYTES, vec![]);
    cpu.load(0, &image(7));
    let mut io = PatternIo::new(vec![true], vec![true]);
    while cpu.step_then_run(&mut io, u64::MAX, CYCLE_BUDGET).0 != StepResult::Halt {}
    assert_eq!(cpu.regs[2], 7);
    let decoded_before = cpu.icache_stats().decoded;
    assert!(decoded_before > 0, "first run must have decoded a block");

    // Hot-swap: new firmware over the same bytes, pc rewound.
    cpu.load(0, &image(42));
    cpu.pc = 0;
    while cpu.step_then_run(&mut io, u64::MAX, CYCLE_BUDGET).0 != StepResult::Halt {}
    assert_eq!(cpu.regs[2], 42, "the swapped-in instruction must execute");
    assert!(
        cpu.icache_stats().invalidations > 0,
        "the reload must invalidate the predecessor's decoded blocks"
    );
    assert!(
        cpu.icache_stats().decoded > decoded_before,
        "re-decode happened"
    );
}

/// Two-pass loop over two cached blocks (head block → body block,
/// re-entering the head), after which the program, running in a third
/// block, *stores into the hot body block* — rewriting one of its
/// instructions — and loops again with a new bound. The store must drop
/// the body block although it is not the one executing, and the
/// re-decoded block must execute the patched instruction: final state
/// bit-identical to the decode-per-step reference.
#[test]
fn self_modifying_store_invalidates_another_hot_block() {
    let patch = Instr::Addi {
        rd: 4,
        rs1: 2,
        imm: 9,
    }
    .encode();
    let mut code = vec![
        Instr::Addi {
            rd: 2,
            rs1: 0,
            imm: 0,
        },
        Instr::Addi {
            rd: 3,
            rs1: 0,
            imm: 40,
        },
        // Loop head (word 2, addr 8): block A = { addi; beq }.
        Instr::Addi {
            rd: 2,
            rs1: 2,
            imm: 1,
        },
        Instr::Beq {
            rs1: 0,
            rs2: 0,
            imm: 8, // -> word 5
        },
        Instr::Ebreak, // word 4: jumped over, never runs
        // Word 5 (addr 20): block B = { addi x4; bne } — the patch target.
        Instr::Addi {
            rd: 4,
            rs1: 2,
            imm: 0,
        },
        Instr::Bne {
            rs1: 2,
            rs2: 3,
            imm: -16, // -> word 2, the loop's back edge
        },
    ];
    // Tail (runs after the loop exits): on the first exit x8 == 0, so fall
    // through, patch word 5 in place, raise the bound, and re-enter the
    // loop; on the second exit x8 == 1, branch straight to the ebreak.
    let tail_at = code.len();
    code.push(Instr::Bne {
        rs1: 8,
        rs2: 0,
        imm: 0, // rewritten below once `done` is known
    });
    code.extend(softcore::isa::load_imm(6, patch as i32));
    code.push(Instr::Addi {
        rd: 7,
        rs1: 0,
        imm: 20, // address of word 5
    });
    code.push(Instr::Sw {
        rs1: 7,
        rs2: 6,
        imm: 0,
    });
    code.push(Instr::Addi {
        rd: 3,
        rs1: 0,
        imm: 80,
    });
    code.push(Instr::Addi {
        rd: 8,
        rs1: 0,
        imm: 1,
    });
    let jal_at = code.len() as i32;
    code.push(Instr::Jal {
        rd: 1,
        imm: 8 - jal_at * 4, // back to the loop head
    });
    let done = code.len();
    code[tail_at] = Instr::Bne {
        rs1: 8,
        rs2: 0,
        imm: ((done - tail_at) as i32) * 4,
    };
    code.push(Instr::Ebreak);

    let build = || {
        let mut cpu = Cpu::new(MEM_BYTES, vec![]);
        let image: Vec<u8> = code.iter().flat_map(|i| i.encode().to_le_bytes()).collect();
        cpu.load(0, &image);
        cpu
    };
    let reference = run(
        build(),
        PatternIo::new(vec![true], vec![true]),
        Mode::Reference,
    );
    let mut cpu = build();
    let mut io = PatternIo::new(vec![true], vec![true]);
    let mut halted = false;
    while cpu.cycles < CYCLE_BUDGET {
        match cpu.step_then_run(&mut io, u64::MAX, CYCLE_BUDGET).0 {
            StepResult::Ok | StepResult::Stall => {}
            StepResult::Halt => {
                halted = true;
                break;
            }
            StepResult::Trap { .. } => break,
        }
    }
    assert!(halted, "two-pass loop must halt");
    // Pass 1 counts to 40 with `x4 = x2`; pass 2 counts to 80 with the
    // patched `x4 = x2 + 9`.
    assert_eq!(cpu.regs[2], 80);
    assert_eq!(
        cpu.regs[4], 89,
        "patched instruction executed in the re-decoded block"
    );
    assert_eq!(
        &reference.regs[..],
        &cpu.regs[..],
        "registers match reference"
    );
    assert_eq!(reference.cycles, cpu.cycles, "cycles match reference");
    assert_eq!(
        reference.instructions, cpu.instructions,
        "instructions match reference"
    );
    assert!(
        cpu.icache_stats().invalidations > 0,
        "store into the body block must invalidate"
    );
}

/// Runtime hot-swap (`Cpu::load` over a live core) landing while the pc is
/// parked *inside a hot loop* — stalled on the stream read that heads the
/// loop's second cached block — must drop the block cache: the swapped-in
/// firmware runs from freshly decoded blocks, bit-identical to the
/// reference driven through the same reload.
#[test]
fn hot_swap_reload_mid_hot_loop_falls_back() {
    // Loop: bump x2, jump over a dead word, stream-read, repeat until
    // x2 == bound. Identical shape in both images; only the bound and the
    // increment differ.
    let image = |bound: i32, inc: i32| -> Vec<u8> {
        [
            Instr::Lui {
                rd: 6,
                imm: firmware::STREAM_READ_BASE as i32,
            },
            Instr::Addi {
                rd: 2,
                rs1: 0,
                imm: 0,
            },
            Instr::Addi {
                rd: 3,
                rs1: 0,
                imm: bound,
            },
            // Loop head (word 3, addr 12).
            Instr::Addi {
                rd: 2,
                rs1: 2,
                imm: inc,
            },
            Instr::Beq {
                rs1: 0,
                rs2: 0,
                imm: 8, // -> word 6
            },
            Instr::Ebreak, // jumped over
            Instr::Lw {
                rd: 5,
                rs1: 6,
                imm: 0, // stream read: the stall point
            },
            Instr::Bne {
                rs1: 2,
                rs2: 3,
                imm: -16, // -> word 3
            },
            Instr::Ebreak,
        ]
        .iter()
        .flat_map(|i| i.encode().to_le_bytes())
        .collect()
    };
    // Ten reads succeed (ten full iterations of the cached loop), then the
    // eleventh stalls with the pc parked on the `lw` that heads the loop's
    // second block.
    let avail = {
        let mut v = vec![true; 10];
        v.push(false);
        v
    };
    let drive = |cpu: &mut Cpu, io: &mut PatternIo, cached: bool| -> StepResult {
        loop {
            let r = if cached {
                cpu.step_then_run(io, u64::MAX, CYCLE_BUDGET).0
            } else {
                cpu.step(io)
            };
            match r {
                StepResult::Ok => {}
                other => return other,
            }
            assert!(cpu.cycles < CYCLE_BUDGET, "runaway");
        }
    };

    let mut cpu = Cpu::new(MEM_BYTES, vec![]);
    cpu.load(0, &image(100, 1));
    let mut io = PatternIo::new(avail.clone(), vec![true]);
    assert_eq!(drive(&mut cpu, &mut io, true), StepResult::Stall);
    let decoded_before = cpu.icache_stats().decoded;
    assert!(
        decoded_before > 0,
        "the hot loop must run from decoded blocks"
    );

    // Hot-swap new firmware over the stalled core, exactly as the runtime
    // reload path does, and run the replacement to completion.
    cpu.load(0, &image(35, 7));
    cpu.pc = 0;
    assert_eq!(drive(&mut cpu, &mut io, true), StepResult::Halt);
    assert_eq!(
        cpu.regs[2], 35,
        "swapped-in loop ran its own five iterations"
    );
    let stats = cpu.icache_stats();
    assert!(stats.invalidations > 0, "reload must invalidate the loop");
    assert!(
        stats.decoded > decoded_before,
        "replacement loop re-decoded from scratch"
    );

    // The reference, driven through the identical stall + reload sequence,
    // must land on the same architectural state.
    let mut reference = Cpu::new(MEM_BYTES, vec![]);
    reference.load(0, &image(100, 1));
    let mut ref_io = PatternIo::new(avail, vec![true]);
    assert_eq!(drive(&mut reference, &mut ref_io, false), StepResult::Stall);
    reference.load(0, &image(35, 7));
    reference.pc = 0;
    assert_eq!(drive(&mut reference, &mut ref_io, false), StepResult::Halt);
    assert_eq!(&reference.regs[..], &cpu.regs[..], "registers diverge");
    assert_eq!(reference.cycles, cpu.cycles, "cycles diverge");
    assert_eq!(reference.instructions, cpu.instructions);
    assert_eq!(ref_io.read_calls, io.read_calls, "stream schedule diverges");
}
