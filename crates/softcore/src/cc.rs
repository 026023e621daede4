//! The operator compiler: kernel IR → RV32IM machine code.
//!
//! This is the `riscv-gcc caller` of the paper's `-O0` flow (Fig. 5): it
//! turns the same operator source that HLS synthesizes into a standalone
//! softcore binary in well under a second. Code generation is deliberately
//! simple (a slot machine: every value lives in a 16-byte memory slot, and
//! expressions evaluate through scratch registers `t0`–`t2`), because the
//! point of `-O0` is compile speed, not execution speed — the paper's Tab. 3
//! accepts a 10³–10⁵× slowdown for it.
//!
//! Arithmetic at ≤ 32 bits on integer shapes compiles to native RV32IM
//! instructions with exact `ap_int` wrap/extension semantics; fixed-point
//! and wide arithmetic call firmware intrinsics (see [`crate::firmware`]).

use kir::expr::{BinOp, UnOp};
use kir::{Kernel, RExpr, RNode, RStmt, Scalar};
use std::collections::HashMap;
use std::fmt;

use crate::binary::SoftBinary;
use crate::firmware::{self, elem_stride, Intrinsic, SLOT_BYTES};
use crate::isa::{load_imm, reg, Instr};

/// Start of the data region; code must fit below this address.
pub const DATA_BASE: u32 = 0xC000;

/// Compilation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CcError {
    /// The kernel failed operator-discipline validation.
    Invalid(kir::CheckError),
    /// Emitted code overflows the code region.
    #[allow(missing_docs)]
    CodeTooLarge { words: usize },
    /// Locals + arrays + stack exceed the page's unified memory.
    #[allow(missing_docs)]
    MemoryTooLarge { bytes: u64 },
}

impl fmt::Display for CcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CcError::Invalid(e) => write!(f, "invalid kernel: {e}"),
            CcError::CodeTooLarge { words } => {
                write!(
                    f,
                    "code of {words} words exceeds the {DATA_BASE}-byte code region"
                )
            }
            CcError::MemoryTooLarge { bytes } => {
                write!(f, "data footprint {bytes} exceeds page memory")
            }
        }
    }
}

impl std::error::Error for CcError {}

impl From<kir::CheckError> for CcError {
    fn from(e: kir::CheckError) -> Self {
        CcError::Invalid(e)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Label(usize);

enum Fixup {
    Jump { at: usize, label: Label },
}

struct Cc<'k> {
    kernel: &'k Kernel,
    code: Vec<Instr>,
    fixups: Vec<Fixup>,
    labels: Vec<Option<usize>>,
    intrinsics: Vec<Intrinsic>,
    intrinsic_ids: HashMap<Intrinsic, usize>,
    /// Base address and element stride of each array.
    arrays: Vec<(u32, u32)>,
    temp_base: u32,
}

/// Compiles a kernel to a softcore binary.
///
/// # Errors
///
/// See [`CcError`].
pub fn compile_kernel(kernel: &Kernel) -> Result<SoftBinary, CcError> {
    let rk = kir::resolve(kernel)?;

    // --- Data layout ------------------------------------------------------
    // One slot per local, then one per static loop (unique nesting slots):
    // scalar slot `s` lives at `DATA_BASE + s * SLOT_BYTES`.
    let mut cursor = DATA_BASE + rk.slots() as u32 * SLOT_BYTES;

    // Temp slots: deep enough for the worst expression plus slack.
    let mut max_depth = 1u32;
    visit_roots(rk.body(), &mut |e| {
        max_depth = max_depth.max(expr_depth(e) + 4)
    });
    let temp_base = cursor;
    cursor += max_depth * SLOT_BYTES;

    let mut arrays = Vec::new();
    let mut data_init: Vec<(u32, Vec<u8>)> = Vec::new();
    for a in &kernel.arrays {
        cursor = (cursor + 15) & !15;
        let stride = elem_stride(a.elem.width());
        arrays.push((cursor, stride));
        if let Some(init) = &a.init {
            let mut bytes = Vec::with_capacity(init.len() * stride as usize);
            for raw in init {
                bytes.extend_from_slice(&raw.to_le_bytes()[..stride as usize]);
            }
            data_init.push((cursor, bytes));
        }
        cursor += a.len as u32 * stride;
    }

    let mem_bytes = (cursor + 1024 + 15) & !15; // + stack headroom
    if mem_bytes as u64 > firmware::MAX_PAGE_MEMORY as u64 {
        return Err(CcError::MemoryTooLarge {
            bytes: mem_bytes as u64,
        });
    }

    // --- Code generation --------------------------------------------------
    let mut cc = Cc {
        kernel,
        code: Vec::new(),
        fixups: Vec::new(),
        labels: Vec::new(),
        intrinsics: Vec::new(),
        intrinsic_ids: HashMap::new(),
        arrays,
        temp_base,
    };

    cc.block(rk.body());
    cc.code.push(Instr::Ebreak);
    cc.resolve_fixups();

    if cc.code.len() * 4 > DATA_BASE as usize {
        return Err(CcError::CodeTooLarge {
            words: cc.code.len(),
        });
    }

    Ok(SoftBinary {
        name: kernel.name.clone(),
        code: cc.code.iter().map(|i| i.encode()).collect(),
        data_init,
        mem_bytes,
        intrinsics: cc.intrinsics,
        in_ports: kernel.inputs.len() as u32,
        out_ports: kernel.outputs.len() as u32,
        entry: 0,
    })
}

/// Calls `f` on every statement-level expression, nested bodies included.
fn visit_roots(body: &[RStmt], f: &mut impl FnMut(&RExpr)) {
    for s in body {
        match s {
            RStmt::Assign(_, value) | RStmt::Write(_, value) => f(value),
            RStmt::ArraySet(_, index, value) => {
                f(index);
                f(value);
            }
            RStmt::Read(..) => {}
            RStmt::For { body, .. } => visit_roots(body, f),
            RStmt::If(cond, then_body, else_body) => {
                f(cond);
                visit_roots(then_body, f);
                visit_roots(else_body, f);
            }
        }
    }
}

fn expr_depth(e: &RExpr) -> u32 {
    match &e.node {
        RNode::Const(_) | RNode::Var(_) => 1,
        RNode::ArrayGet(_, index) => expr_depth(index).max(2),
        RNode::Un(_, arg) | RNode::Cast(arg) | RNode::BitRange(arg, ..) => expr_depth(arg) + 1,
        RNode::Bin(_, args) => expr_depth(&args[0]).max(expr_depth(&args[1]) + 1) + 1,
        RNode::Select(args) => {
            let [cond, then_val, else_val] = &**args;
            expr_depth(cond)
                .max(expr_depth(then_val) + 1)
                .max(expr_depth(else_val) + 2)
                + 1
        }
    }
}

/// Whether a comparison/division over these integer shapes is exact with
/// one 32-bit signed/unsigned instruction.
fn sign_uniform(lt: Scalar, rt: Scalar) -> Option<bool> {
    // Returns Some(use_unsigned).
    match (lt.is_signed(), rt.is_signed()) {
        (false, false) => Some(true),
        _ => {
            let bad =
                (!lt.is_signed() && lt.width() == 32) || (!rt.is_signed() && rt.width() == 32);
            if bad {
                None
            } else {
                Some(false)
            }
        }
    }
}

fn narrow_int(s: Scalar) -> bool {
    !s.is_fixed() && s.width() <= 32
}

/// The address of a scalar slot (a local or a loop index).
fn slot_addr(slot: usize) -> u32 {
    DATA_BASE + slot as u32 * SLOT_BYTES
}

impl<'k> Cc<'k> {
    // --- infrastructure ---------------------------------------------------

    fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    fn bind(&mut self, label: Label) {
        self.labels[label.0] = Some(self.code.len());
    }

    /// Emits a conditional branch to `label` with unlimited range: the
    /// condition is inverted to skip a `jal` (±1 MiB reach), since large
    /// unrolled kernels routinely exceed the ±4 KiB B-type range.
    fn branch_to(&mut self, ins: Instr, label: Label) {
        let inverted = match ins {
            Instr::Beq { rs1, rs2, .. } => Instr::Bne { rs1, rs2, imm: 8 },
            Instr::Bne { rs1, rs2, .. } => Instr::Beq { rs1, rs2, imm: 8 },
            Instr::Blt { rs1, rs2, .. } => Instr::Bge { rs1, rs2, imm: 8 },
            Instr::Bge { rs1, rs2, .. } => Instr::Blt { rs1, rs2, imm: 8 },
            Instr::Bltu { rs1, rs2, .. } => Instr::Bgeu { rs1, rs2, imm: 8 },
            Instr::Bgeu { rs1, rs2, .. } => Instr::Bltu { rs1, rs2, imm: 8 },
            other => panic!("branch_to on non-branch {other:?}"),
        };
        self.code.push(inverted);
        self.jump_to(label);
    }

    fn jump_to(&mut self, label: Label) {
        self.fixups.push(Fixup::Jump {
            at: self.code.len(),
            label,
        });
        self.code.push(Instr::Jal {
            rd: reg::ZERO,
            imm: 0,
        });
    }

    fn resolve_fixups(&mut self) {
        for fixup in &self.fixups {
            let Fixup::Jump { at, label } = fixup;
            let (at, label) = (*at, *label);
            let target = self.labels[label.0].expect("label bound") as i32;
            let offset = (target - at as i32) * 4;
            match &mut self.code[at] {
                Instr::Jal { imm, .. } => *imm = offset,
                other => panic!("fixup on non-jump {other:?}"),
            }
        }
    }

    fn li(&mut self, rd: u32, value: i32) {
        self.code.extend(load_imm(rd, value));
    }

    fn intrinsic_id(&mut self, intr: Intrinsic) -> usize {
        if let Some(&id) = self.intrinsic_ids.get(&intr) {
            return id;
        }
        let id = self.intrinsics.len();
        self.intrinsics.push(intr);
        self.intrinsic_ids.insert(intr, id);
        id
    }

    fn temp(&self, index: u32) -> u32 {
        self.temp_base + index * SLOT_BYTES
    }

    /// Loads the first word of a slot into `rd`.
    fn load_word(&mut self, rd: u32, addr: u32) {
        self.li(rd, addr as i32);
        self.code.push(Instr::Lw {
            rd,
            rs1: rd,
            imm: 0,
        });
    }

    /// Stores `rs` to the first word of a slot (clobbers `t2`).
    fn store_word(&mut self, rs: u32, addr: u32) {
        self.li(reg::T2, addr as i32);
        self.code.push(Instr::Sw {
            rs1: reg::T2,
            rs2: rs,
            imm: 0,
        });
    }

    /// Copies `words` 32-bit words between slots (clobbers `t0`, `t2`).
    fn copy_words(&mut self, src: u32, dst: u32, words: u32) {
        for i in 0..words {
            self.load_word(reg::T0, src + 4 * i);
            self.store_word(reg::T0, dst + 4 * i);
        }
    }

    fn slot_words(shape: Scalar) -> u32 {
        if shape.width() <= 32 {
            1
        } else {
            4
        }
    }

    /// Masks/extends `t0` in place to the canonical representation of an
    /// integer shape (sign-extended if signed, zero-extended otherwise).
    fn canonicalize_t0(&mut self, shape: Scalar) {
        let w = shape.width();
        if w >= 32 {
            return;
        }
        let sh = 32 - w;
        self.code.push(Instr::Slli {
            rd: reg::T0,
            rs1: reg::T0,
            shamt: sh,
        });
        if shape.is_signed() {
            self.code.push(Instr::Srai {
                rd: reg::T0,
                rs1: reg::T0,
                shamt: sh,
            });
        } else {
            self.code.push(Instr::Srli {
                rd: reg::T0,
                rs1: reg::T0,
                shamt: sh,
            });
        }
    }

    /// Emits an intrinsic call with up to four slot-address arguments.
    fn call_intrinsic(&mut self, intr: Intrinsic, args: &[u32]) {
        let id = self.intrinsic_id(intr);
        let arg_regs = [reg::A0, reg::A1, reg::A2, reg::A3];
        for (i, &addr) in args.iter().enumerate() {
            self.li(arg_regs[i], addr as i32);
        }
        self.li(reg::A7, id as i32);
        self.code.push(Instr::Ecall);
    }

    /// Writes an `ap` cast from `(src, from)` to `(dst, to)`.
    fn emit_cast(&mut self, src: u32, from: Scalar, dst: u32, to: Scalar) {
        if from == to {
            if src != dst {
                self.copy_words(src, dst, Self::slot_words(from));
            }
            return;
        }
        if narrow_int(from) && narrow_int(to) {
            self.load_word(reg::T0, src);
            self.canonicalize_t0(to);
            self.store_word(reg::T0, dst);
            return;
        }
        self.call_intrinsic(Intrinsic::Cast { from, to }, &[src, dst]);
    }

    // --- expressions -------------------------------------------------------

    /// Evaluates `e` into temp slot `d`; returns the value's static shape.
    fn eval(&mut self, e: &RExpr, d: u32) -> Scalar {
        let shape = e.ty;
        match &e.node {
            RNode::Const(raw) => {
                let dst = self.temp(d);
                if shape.width() <= 32 {
                    // Canonical extended representation of the constant.
                    let v = if shape.is_signed() {
                        aplib::sign_extend(
                            aplib::wrap_to_width(*raw as u128, shape.width()),
                            shape.width(),
                        ) as i32
                    } else {
                        aplib::wrap_to_width(*raw as u128, shape.width()) as u32 as i32
                    };
                    self.li(reg::T0, v);
                    self.store_word(reg::T0, dst);
                } else {
                    let raw = aplib::wrap_to_width(*raw as u128, shape.width());
                    for i in 0..4 {
                        self.li(reg::T0, (raw >> (32 * i)) as u32 as i32);
                        self.store_word(reg::T0, dst + 4 * i);
                    }
                }
            }
            RNode::Var(slot) => {
                self.copy_words(slot_addr(*slot), self.temp(d), Self::slot_words(shape));
            }
            RNode::ArrayGet(array, index) => {
                self.eval(index, d);
                let (base, stride) = self.arrays[*array];
                let elem = shape;
                // t1 = base + idx * stride
                self.load_word(reg::T0, self.temp(d));
                if stride > 1 {
                    self.code.push(Instr::Slli {
                        rd: reg::T0,
                        rs1: reg::T0,
                        shamt: stride.trailing_zeros(),
                    });
                }
                self.li(reg::T1, base as i32);
                self.code.push(Instr::Add {
                    rd: reg::T1,
                    rs1: reg::T1,
                    rs2: reg::T0,
                });
                let dst = self.temp(d);
                match stride {
                    1 => {
                        let ins = if elem.is_signed() && elem.width() == 8 {
                            Instr::Lb {
                                rd: reg::T0,
                                rs1: reg::T1,
                                imm: 0,
                            }
                        } else {
                            Instr::Lbu {
                                rd: reg::T0,
                                rs1: reg::T1,
                                imm: 0,
                            }
                        };
                        self.code.push(ins);
                        self.canonicalize_elem(elem);
                        self.store_word(reg::T0, dst);
                    }
                    2 => {
                        let ins = if elem.is_signed() && elem.width() == 16 {
                            Instr::Lh {
                                rd: reg::T0,
                                rs1: reg::T1,
                                imm: 0,
                            }
                        } else {
                            Instr::Lhu {
                                rd: reg::T0,
                                rs1: reg::T1,
                                imm: 0,
                            }
                        };
                        self.code.push(ins);
                        self.canonicalize_elem(elem);
                        self.store_word(reg::T0, dst);
                    }
                    4 => {
                        self.code.push(Instr::Lw {
                            rd: reg::T0,
                            rs1: reg::T1,
                            imm: 0,
                        });
                        self.canonicalize_elem(elem);
                        self.store_word(reg::T0, dst);
                    }
                    _ => {
                        // Wide element: copy stride bytes, zero the rest.
                        let words = stride / 4;
                        for i in 0..words {
                            self.code.push(Instr::Lw {
                                rd: reg::T0,
                                rs1: reg::T1,
                                imm: (4 * i) as i32,
                            });
                            self.store_word(reg::T0, dst + 4 * i);
                        }
                        for i in words..4 {
                            self.li(reg::T0, 0);
                            self.store_word(reg::T0, dst + 4 * i);
                        }
                    }
                }
            }
            RNode::Un(op, arg) => {
                let ashape = self.eval(arg, d);
                self.emit_unary(*op, ashape, shape, d);
            }
            RNode::Bin(op, args) => {
                let [lhs, rhs] = &**args;
                let lshape = self.eval(lhs, d);
                let rshape = self.eval(rhs, d + 1);
                self.emit_binary(*op, lshape, rshape, shape, d, rhs);
            }
            RNode::Cast(arg) => {
                let ashape = self.eval(arg, d);
                let t = self.temp(d);
                self.emit_cast(t, ashape, t, shape);
            }
            RNode::Select(args) => {
                let [cond, then_val, else_val] = &**args;
                let cshape = self.eval(cond, d);
                let tshape = self.eval(then_val, d + 1);
                let eshape = self.eval(else_val, d + 2);
                if narrow_int(cshape)
                    && narrow_int(tshape)
                    && narrow_int(eshape)
                    && narrow_int(shape)
                {
                    let l_else = self.label();
                    let l_end = self.label();
                    self.load_word(reg::T0, self.temp(d));
                    self.branch_to(
                        Instr::Beq {
                            rs1: reg::T0,
                            rs2: reg::ZERO,
                            imm: 0,
                        },
                        l_else,
                    );
                    self.load_word(reg::T0, self.temp(d + 1));
                    self.canonicalize_t0(shape);
                    self.store_word(reg::T0, self.temp(d));
                    self.jump_to(l_end);
                    self.bind(l_else);
                    self.load_word(reg::T0, self.temp(d + 2));
                    self.canonicalize_t0(shape);
                    self.store_word(reg::T0, self.temp(d));
                    self.bind(l_end);
                } else {
                    self.call_intrinsic(
                        Intrinsic::Select {
                            cond: cshape,
                            t: tshape,
                            e: eshape,
                        },
                        &[
                            self.temp(d),
                            self.temp(d + 1),
                            self.temp(d + 2),
                            self.temp(d),
                        ],
                    );
                }
            }
            RNode::BitRange(arg, hi, lo) => {
                let ashape = self.eval(arg, d);
                if narrow_int(ashape) || (ashape.is_fixed() && ashape.width() <= 32) {
                    // Zero-extend the raw bits, shift, mask.
                    let w = ashape.width();
                    self.load_word(reg::T0, self.temp(d));
                    if w < 32 {
                        self.code.push(Instr::Slli {
                            rd: reg::T0,
                            rs1: reg::T0,
                            shamt: 32 - w,
                        });
                        self.code.push(Instr::Srli {
                            rd: reg::T0,
                            rs1: reg::T0,
                            shamt: 32 - w,
                        });
                    }
                    if *lo > 0 {
                        self.code.push(Instr::Srli {
                            rd: reg::T0,
                            rs1: reg::T0,
                            shamt: *lo,
                        });
                    }
                    self.canonicalize_t0(Scalar::uint(hi - lo + 1));
                    self.store_word(reg::T0, self.temp(d));
                } else {
                    self.call_intrinsic(
                        Intrinsic::BitRange {
                            arg: ashape,
                            hi: *hi,
                            lo: *lo,
                        },
                        &[self.temp(d), self.temp(d)],
                    );
                }
            }
        }
        shape
    }

    fn canonicalize_elem(&mut self, elem: Scalar) {
        // Array elements are stored as raw bits; canonicalize narrow loads.
        if !elem.is_fixed() {
            self.canonicalize_t0(elem);
        } else if elem.width() < 32 {
            // Fixed-point narrow values canonicalize by sign.
            self.canonicalize_t0(Scalar::Int {
                width: elem.width(),
                signed: elem.is_signed(),
            });
        }
    }

    fn emit_unary(&mut self, op: UnOp, ashape: Scalar, result: Scalar, d: u32) {
        let t = self.temp(d);
        if narrow_int(ashape) && narrow_int(result) {
            match op {
                UnOp::Neg => {
                    self.load_word(reg::T0, t);
                    self.code.push(Instr::Sub {
                        rd: reg::T0,
                        rs1: reg::ZERO,
                        rs2: reg::T0,
                    });
                    self.canonicalize_t0(result);
                    self.store_word(reg::T0, t);
                    return;
                }
                UnOp::Not => {
                    self.load_word(reg::T0, t);
                    self.code.push(Instr::Xori {
                        rd: reg::T0,
                        rs1: reg::T0,
                        imm: -1,
                    });
                    self.canonicalize_t0(result);
                    self.store_word(reg::T0, t);
                    return;
                }
                UnOp::LNot => {
                    self.load_word(reg::T0, t);
                    self.code.push(Instr::Sltu {
                        rd: reg::T0,
                        rs1: reg::ZERO,
                        rs2: reg::T0,
                    });
                    self.code.push(Instr::Xori {
                        rd: reg::T0,
                        rs1: reg::T0,
                        imm: 1,
                    });
                    self.store_word(reg::T0, t);
                    return;
                }
                UnOp::Abs => {
                    self.load_word(reg::T0, t);
                    if ashape.is_signed() {
                        self.code.push(Instr::Srai {
                            rd: reg::T1,
                            rs1: reg::T0,
                            shamt: 31,
                        });
                        self.code.push(Instr::Xor {
                            rd: reg::T0,
                            rs1: reg::T0,
                            rs2: reg::T1,
                        });
                        self.code.push(Instr::Sub {
                            rd: reg::T0,
                            rs1: reg::T0,
                            rs2: reg::T1,
                        });
                        self.canonicalize_t0(result);
                    }
                    self.store_word(reg::T0, t);
                    return;
                }
            }
        }
        self.call_intrinsic(Intrinsic::Un { op, arg: ashape }, &[t, t]);
    }

    fn emit_binary(
        &mut self,
        op: BinOp,
        lshape: Scalar,
        rshape: Scalar,
        result: Scalar,
        d: u32,
        rhs_expr: &RExpr,
    ) {
        let tl = self.temp(d);
        let tr = self.temp(d + 1);
        let narrow = narrow_int(lshape) && narrow_int(rshape) && narrow_int(result);

        let native = narrow
            && match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor => true,
                BinOp::LAnd | BinOp::LOr => true,
                BinOp::Shl | BinOp::Shr => matches!(
                    rhs_expr.node,
                    RNode::Const(raw) if raw >= 0 && (raw as u32) < lshape.width()
                ),
                BinOp::Div
                | BinOp::Rem
                | BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::Min
                | BinOp::Max => sign_uniform(lshape, rshape).is_some(),
            };

        if !native {
            self.call_intrinsic(
                Intrinsic::Bin {
                    op,
                    lhs: lshape,
                    rhs: rshape,
                },
                &[tl, tr, tl],
            );
            return;
        }

        self.load_word(reg::T0, tl);
        self.load_word(reg::T1, tr);
        match op {
            BinOp::Add => self.code.push(Instr::Add {
                rd: reg::T0,
                rs1: reg::T0,
                rs2: reg::T1,
            }),
            BinOp::Sub => self.code.push(Instr::Sub {
                rd: reg::T0,
                rs1: reg::T0,
                rs2: reg::T1,
            }),
            BinOp::Mul => self.code.push(Instr::Mul {
                rd: reg::T0,
                rs1: reg::T0,
                rs2: reg::T1,
            }),
            BinOp::And => self.code.push(Instr::And {
                rd: reg::T0,
                rs1: reg::T0,
                rs2: reg::T1,
            }),
            BinOp::Or => self.code.push(Instr::Or {
                rd: reg::T0,
                rs1: reg::T0,
                rs2: reg::T1,
            }),
            BinOp::Xor => self.code.push(Instr::Xor {
                rd: reg::T0,
                rs1: reg::T0,
                rs2: reg::T1,
            }),
            BinOp::Shl => {
                if let RNode::Const(raw) = rhs_expr.node {
                    self.code.push(Instr::Slli {
                        rd: reg::T0,
                        rs1: reg::T0,
                        shamt: raw as u32,
                    });
                }
            }
            BinOp::Shr => {
                if let RNode::Const(raw) = rhs_expr.node {
                    let sh = raw as u32;
                    // The canonical representation already sign/zero extends,
                    // so an arithmetic/logical shift picks the right fill.
                    if lshape.is_signed() {
                        self.code.push(Instr::Srai {
                            rd: reg::T0,
                            rs1: reg::T0,
                            shamt: sh,
                        });
                    } else {
                        self.code.push(Instr::Srli {
                            rd: reg::T0,
                            rs1: reg::T0,
                            shamt: sh,
                        });
                    }
                }
            }
            BinOp::Div | BinOp::Rem => {
                let unsigned = sign_uniform(lshape, rshape).expect("checked native");
                let l_zero = self.label();
                let l_end = self.label();
                self.branch_to(
                    Instr::Beq {
                        rs1: reg::T1,
                        rs2: reg::ZERO,
                        imm: 0,
                    },
                    l_zero,
                );
                let ins = match (op, unsigned) {
                    (BinOp::Div, false) => Instr::Div {
                        rd: reg::T0,
                        rs1: reg::T0,
                        rs2: reg::T1,
                    },
                    (BinOp::Div, true) => Instr::Divu {
                        rd: reg::T0,
                        rs1: reg::T0,
                        rs2: reg::T1,
                    },
                    (BinOp::Rem, false) => Instr::Rem {
                        rd: reg::T0,
                        rs1: reg::T0,
                        rs2: reg::T1,
                    },
                    _ => Instr::Remu {
                        rd: reg::T0,
                        rs1: reg::T0,
                        rs2: reg::T1,
                    },
                };
                self.code.push(ins);
                self.jump_to(l_end);
                self.bind(l_zero);
                // ap semantics: division/remainder by zero yields zero.
                self.li(reg::T0, 0);
                self.bind(l_end);
            }
            BinOp::Eq | BinOp::Ne => {
                self.code.push(Instr::Sub {
                    rd: reg::T0,
                    rs1: reg::T0,
                    rs2: reg::T1,
                });
                self.code.push(Instr::Sltu {
                    rd: reg::T0,
                    rs1: reg::ZERO,
                    rs2: reg::T0,
                });
                if op == BinOp::Eq {
                    self.code.push(Instr::Xori {
                        rd: reg::T0,
                        rs1: reg::T0,
                        imm: 1,
                    });
                }
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let unsigned = sign_uniform(lshape, rshape).expect("checked native");
                let slt = |rd, rs1, rs2| {
                    if unsigned {
                        Instr::Sltu { rd, rs1, rs2 }
                    } else {
                        Instr::Slt { rd, rs1, rs2 }
                    }
                };
                match op {
                    BinOp::Lt => self.code.push(slt(reg::T0, reg::T0, reg::T1)),
                    BinOp::Gt => self.code.push(slt(reg::T0, reg::T1, reg::T0)),
                    BinOp::Le => {
                        self.code.push(slt(reg::T0, reg::T1, reg::T0));
                        self.code.push(Instr::Xori {
                            rd: reg::T0,
                            rs1: reg::T0,
                            imm: 1,
                        });
                    }
                    BinOp::Ge => {
                        self.code.push(slt(reg::T0, reg::T0, reg::T1));
                        self.code.push(Instr::Xori {
                            rd: reg::T0,
                            rs1: reg::T0,
                            imm: 1,
                        });
                    }
                    _ => unreachable!(),
                }
            }
            BinOp::LAnd => {
                self.code.push(Instr::Sltu {
                    rd: reg::T0,
                    rs1: reg::ZERO,
                    rs2: reg::T0,
                });
                self.code.push(Instr::Sltu {
                    rd: reg::T1,
                    rs1: reg::ZERO,
                    rs2: reg::T1,
                });
                self.code.push(Instr::And {
                    rd: reg::T0,
                    rs1: reg::T0,
                    rs2: reg::T1,
                });
            }
            BinOp::LOr => {
                self.code.push(Instr::Or {
                    rd: reg::T0,
                    rs1: reg::T0,
                    rs2: reg::T1,
                });
                self.code.push(Instr::Sltu {
                    rd: reg::T0,
                    rs1: reg::ZERO,
                    rs2: reg::T0,
                });
            }
            BinOp::Min | BinOp::Max => {
                let unsigned = sign_uniform(lshape, rshape).expect("checked native");
                let l_keep = self.label();
                let cmp = if unsigned {
                    Instr::Sltu {
                        rd: reg::T2,
                        rs1: reg::T0,
                        rs2: reg::T1,
                    }
                } else {
                    Instr::Slt {
                        rd: reg::T2,
                        rs1: reg::T0,
                        rs2: reg::T1,
                    }
                };
                self.code.push(cmp);
                // For Min keep T0 when T0 < T1 (T2 == 1); for Max when T2 == 0.
                let want = if op == BinOp::Min { 1 } else { 0 };
                self.li(reg::T1, want); // careful: T1 now holds the sentinel
                                        // Reload rhs after the sentinel comparison when needed.
                self.branch_to(
                    Instr::Beq {
                        rs1: reg::T2,
                        rs2: reg::T1,
                        imm: 0,
                    },
                    l_keep,
                );
                self.load_word(reg::T0, tr);
                self.bind(l_keep);
            }
        }
        self.canonicalize_t0(result);
        self.store_word(reg::T0, tl);
    }

    // --- statements ---------------------------------------------------------

    fn block(&mut self, body: &[RStmt]) {
        for s in body {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &RStmt) {
        match s {
            RStmt::Assign(var, value) => {
                let vshape = self.eval(value, 0);
                let ty = self.kernel.locals[*var].ty;
                self.emit_cast(self.temp(0), vshape, slot_addr(*var), ty);
            }
            RStmt::ArraySet(array, index, value) => {
                let vshape = self.eval(value, 0);
                let (base, stride) = self.arrays[*array];
                let elem = self.kernel.arrays[*array].elem;
                // Coerce the value to the element shape into temp 1.
                self.emit_cast(self.temp(0), vshape, self.temp(1), elem);
                self.eval(index, 2);
                self.load_word(reg::T0, self.temp(2));
                if stride > 1 {
                    self.code.push(Instr::Slli {
                        rd: reg::T0,
                        rs1: reg::T0,
                        shamt: stride.trailing_zeros(),
                    });
                }
                self.li(reg::T1, base as i32);
                self.code.push(Instr::Add {
                    rd: reg::T1,
                    rs1: reg::T1,
                    rs2: reg::T0,
                });
                match stride {
                    1 => {
                        self.load_word(reg::T0, self.temp(1));
                        self.code.push(Instr::Sb {
                            rs1: reg::T1,
                            rs2: reg::T0,
                            imm: 0,
                        });
                    }
                    2 => {
                        self.load_word(reg::T0, self.temp(1));
                        self.code.push(Instr::Sh {
                            rs1: reg::T1,
                            rs2: reg::T0,
                            imm: 0,
                        });
                    }
                    4 => {
                        self.load_word(reg::T0, self.temp(1));
                        self.code.push(Instr::Sw {
                            rs1: reg::T1,
                            rs2: reg::T0,
                            imm: 0,
                        });
                    }
                    _ => {
                        for i in 0..stride / 4 {
                            self.load_word(reg::T0, self.temp(1) + 4 * i);
                            self.code.push(Instr::Sw {
                                rs1: reg::T1,
                                rs2: reg::T0,
                                imm: (4 * i) as i32,
                            });
                        }
                    }
                }
            }
            RStmt::Read(var, port) => {
                let elem = self.kernel.inputs[*port].elem;
                let port_addr = firmware::STREAM_READ_BASE + firmware::PORT_STRIDE * *port as u32;
                // Pull ceil(width/32) words into temp 0 (raw little-endian).
                let words = elem.words();
                for i in 0..words {
                    self.li(reg::T1, port_addr as i32);
                    self.code.push(Instr::Lw {
                        rd: reg::T0,
                        rs1: reg::T1,
                        imm: 0,
                    });
                    self.store_word(reg::T0, self.temp(0) + 4 * i);
                }
                if Self::slot_words(elem) == 4 {
                    for i in words..4 {
                        self.li(reg::T0, 0);
                        self.store_word(reg::T0, self.temp(0) + 4 * i);
                    }
                } else if elem.width() < 32 {
                    // Canonicalize the narrow raw word.
                    self.load_word(reg::T0, self.temp(0));
                    self.canonicalize_t0(Scalar::Int {
                        width: elem.width(),
                        signed: elem.is_signed(),
                    });
                    self.store_word(reg::T0, self.temp(0));
                }
                let ty = self.kernel.locals[*var].ty;
                self.emit_cast(self.temp(0), elem, slot_addr(*var), ty);
            }
            RStmt::Write(port, value) => {
                let elem = self.kernel.outputs[*port].elem;
                let vshape = self.eval(value, 0);
                self.emit_cast(self.temp(0), vshape, self.temp(1), elem);
                let port_addr = firmware::STREAM_WRITE_BASE + firmware::PORT_STRIDE * *port as u32;
                for i in 0..elem.words() {
                    self.load_word(reg::T0, self.temp(1) + 4 * i);
                    if i == 0 && elem.width() < 32 {
                        // Strip extension bits: the wire carries raw bits.
                        let w = elem.width();
                        self.code.push(Instr::Slli {
                            rd: reg::T0,
                            rs1: reg::T0,
                            shamt: 32 - w,
                        });
                        self.code.push(Instr::Srli {
                            rd: reg::T0,
                            rs1: reg::T0,
                            shamt: 32 - w,
                        });
                    }
                    self.li(reg::T1, port_addr as i32);
                    self.code.push(Instr::Sw {
                        rs1: reg::T1,
                        rs2: reg::T0,
                        imm: 0,
                    });
                }
            }
            RStmt::For {
                var,
                begin,
                end,
                step,
                body,
                ..
            } => {
                let slot = slot_addr(*var);
                self.li(reg::T0, *begin as i32);
                self.store_word(reg::T0, slot);
                let l_top = self.label();
                let l_end = self.label();
                self.bind(l_top);
                self.load_word(reg::T0, slot);
                self.li(reg::T1, *end as i32);
                self.branch_to(
                    Instr::Bge {
                        rs1: reg::T0,
                        rs2: reg::T1,
                        imm: 0,
                    },
                    l_end,
                );
                self.block(body);
                self.load_word(reg::T0, slot);
                self.li(reg::T1, *step as i32);
                self.code.push(Instr::Add {
                    rd: reg::T0,
                    rs1: reg::T0,
                    rs2: reg::T1,
                });
                self.store_word(reg::T0, slot);
                self.jump_to(l_top);
                self.bind(l_end);
            }
            RStmt::If(cond, then_body, else_body) => {
                let cshape = self.eval(cond, 0);
                // Zero test across the slot words.
                self.load_word(reg::T0, self.temp(0));
                if Self::slot_words(cshape) == 4 {
                    for i in 1..4 {
                        self.load_word(reg::T1, self.temp(0) + 4 * i);
                        self.code.push(Instr::Or {
                            rd: reg::T0,
                            rs1: reg::T0,
                            rs2: reg::T1,
                        });
                    }
                }
                let l_else = self.label();
                let l_end = self.label();
                self.branch_to(
                    Instr::Beq {
                        rs1: reg::T0,
                        rs2: reg::ZERO,
                        imm: 0,
                    },
                    l_else,
                );
                self.block(then_body);
                self.jump_to(l_end);
                self.bind(l_else);
                self.block(else_body);
                self.bind(l_end);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kir::{Expr, KernelBuilder, Stmt};

    #[test]
    fn compiles_simple_kernel() {
        let k = KernelBuilder::new("double")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([Stmt::for_loop(
                "i",
                0..4,
                [
                    Stmt::read("x", "in"),
                    Stmt::write("out", Expr::var("x").add(Expr::var("x"))),
                ],
            )])
            .build()
            .unwrap();
        let bin = compile_kernel(&k).unwrap();
        assert!(!bin.code.is_empty());
        assert_eq!(bin.in_ports, 1);
        assert_eq!(bin.out_ports, 1);
        // Pure 32-bit kernel needs no intrinsics.
        assert!(bin.intrinsics.is_empty());
    }

    #[test]
    fn wide_arithmetic_uses_intrinsics() {
        let k = KernelBuilder::new("wide")
            .input("in", Scalar::uint(64))
            .output("out", Scalar::uint(64))
            .local("x", Scalar::uint(64))
            .body([
                Stmt::read("x", "in"),
                Stmt::write("out", Expr::var("x").mul(Expr::var("x"))),
            ])
            .build()
            .unwrap();
        let bin = compile_kernel(&k).unwrap();
        assert!(!bin.intrinsics.is_empty());
    }

    #[test]
    fn intrinsics_are_deduplicated() {
        let fx = Scalar::fixed(32, 17);
        let k = KernelBuilder::new("fx")
            .input("in", fx)
            .output("out", fx)
            .local("x", fx)
            .body([
                Stmt::read("x", "in"),
                Stmt::write(
                    "out",
                    Expr::var("x")
                        .mul(Expr::var("x"))
                        .cast(fx)
                        .add(Expr::var("x").mul(Expr::var("x")).cast(fx))
                        .cast(fx),
                ),
            ])
            .build()
            .unwrap();
        let bin = compile_kernel(&k).unwrap();
        // mul appears twice in the source but once in the table.
        let muls = bin
            .intrinsics
            .iter()
            .filter(|i| matches!(i, Intrinsic::Bin { op: BinOp::Mul, .. }))
            .count();
        assert_eq!(muls, 1);
    }

    #[test]
    fn footprint_stays_in_page_budget() {
        // A Rosetta-class operator: a few KB of arrays.
        let k = KernelBuilder::new("buf")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .array("line", Scalar::uint(32), 2048)
            .body([Stmt::read("x", "in"), Stmt::write("out", Expr::var("x"))])
            .build()
            .unwrap();
        let bin = compile_kernel(&k).unwrap();
        assert!(bin.mem_bytes <= firmware::MAX_PAGE_MEMORY);
        // Paper Sec. 5.2: typical operator footprint 30-60 KB.
        assert!(bin.mem_bytes >= DATA_BASE);
    }

    #[test]
    fn oversized_arrays_rejected() {
        let k = KernelBuilder::new("big")
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .array("huge", Scalar::uint(64), 30_000)
            .body([Stmt::read("x", "in"), Stmt::write("out", Expr::var("x"))])
            .build()
            .unwrap();
        let err = compile_kernel(&k).unwrap_err();
        assert!(matches!(err, CcError::MemoryTooLarge { .. }));
    }
}
