//! The one binary codec: everything the artifact store, the warm-start hint
//! fingerprint and the cache directory's segments and index put into bytes.
//!
//! A stored type implements [`Codec`] by naming its fields once, in wire
//! order, in a field-list macro (`codec_struct!`, `codec_enum!`,
//! `codec_names!`); encoder and decoder are both generated from that list,
//! and a struct's list is checked for completeness by the compiler. The
//! lists of every type with public fields are at the bottom of this file —
//! together they *are* format v9.
//!
//! Wire rules: integers are little-endian at their declared width and floats
//! their IEEE bits, except that `usize` travels as `u64` and `u16` as `u32`;
//! `bool` is one byte; `String` and `Vec<T>` are a `u64` length then the
//! elements; `Option<T>` is a `0`/`1` byte then the value; a pair is its two
//! halves; `Box` and `Arc` are transparent; an enum is a `u8` tag then the
//! variant's fields, except the unit-only operator enums, which travel as
//! their variant name.
//!
//! Decoding trusts nothing: input ending early, an unknown tag or name, an
//! out-of-range integer and invalid UTF-8 are all [`io::ErrorKind::InvalidData`],
//! and a length prefix larger than the bytes left is refused before anything
//! is allocated for it (every element encodes to at least one byte).

use std::io;
use std::sync::Arc;

use crate::flow::fnv;

pub(crate) fn corrupt(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A type with one canonical byte encoding.
pub(crate) trait Codec: Sized {
    /// Appends the encoding of `self`.
    fn put(&self, out: &mut Vec<u8>);
    /// Decodes one value, advancing the cursor past it.
    fn get(c: &mut Cursor) -> io::Result<Self>;
}

/// The encoding of `value` alone.
pub(crate) fn encode<T: Codec>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.put(&mut out);
    out
}

/// Decodes a `T` that must account for every byte of `bytes`.
pub(crate) fn decode<T: Codec>(bytes: &[u8]) -> io::Result<T> {
    let mut c = Cursor::new(bytes);
    let value = T::get(&mut c)?;
    if c.remaining() != 0 {
        return Err(corrupt("trailing bytes after the last field"));
    }
    Ok(value)
}

/// Appends `pairs` exactly as a `Vec<(K, V)>` of the same items would be: how
/// a map is written from borrowed entries and read back with `Vec::get`.
pub(crate) fn write_pairs<K: Codec, V: Codec>(out: &mut Vec<u8>, pairs: &[(&K, &V)]) {
    pairs.len().put(out);
    for (key, value) in pairs {
        key.put(out);
        value.put(out);
    }
}

/// Appends the FNV-1a of everything in `out` so far: the whole-file trailer
/// that lets a reader tell bit rot from data.
pub(crate) fn seal(out: &mut Vec<u8>) {
    fnv(out).put(out);
}

/// The bytes a [`seal`] trailer vouches for, if it does.
pub(crate) fn unseal(bytes: &[u8]) -> io::Result<&[u8]> {
    let Some(end) = bytes.len().checked_sub(8) else {
        return Err(corrupt("too short for a checksum"));
    };
    let (body, sum) = bytes.split_at(end);
    if decode::<u64>(sum)? != fnv(body) {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(body)
}

/// A read position in untrusted bytes.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The bytes consumed since the cursor stood at `start`.
    pub(crate) fn since(&self, start: usize) -> &'a [u8] {
        &self.buf[start..self.pos]
    }

    /// The next `n` bytes. `n` may come straight from the input.
    pub(crate) fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&end| end <= self.buf.len());
        let Some(end) = end else {
            return Err(corrupt("unexpected end of input"));
        };
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// A `u64` element count, refused when the input left could not hold
    /// that many elements: the bound on every pre-allocation.
    pub(crate) fn len_prefix(&mut self) -> io::Result<usize> {
        let n = usize::get(self)?;
        if n > self.remaining() {
            return Err(corrupt("length prefix exceeds the remaining input"));
        }
        Ok(n)
    }

    /// A length-prefixed UTF-8 string, borrowed from the input.
    fn str(&mut self) -> io::Result<&'a str> {
        let n = self.len_prefix()?;
        std::str::from_utf8(self.take(n)?).map_err(|_| corrupt("invalid utf-8"))
    }
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    s.len().put(out);
    out.extend_from_slice(s.as_bytes());
}

macro_rules! codec_le {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(c: &mut Cursor) -> io::Result<Self> {
                let bytes = c.take(std::mem::size_of::<$t>())?;
                let bytes = bytes.try_into().expect("take returned the width asked for");
                Ok(<$t>::from_le_bytes(bytes))
            }
        }
    )*};
}
codec_le!(u8, u32, u64, u128, i32, i64, i128, f32, f64);

/// A type the format stores widened: `$t` travels as `$wire`, and a decoded
/// value that does not fit `$t` is an error, not a truncation.
macro_rules! codec_via {
    ($t:ty as $wire:ty, $what:literal) => {
        impl Codec for $t {
            fn put(&self, out: &mut Vec<u8>) {
                (*self as $wire).put(out);
            }
            fn get(c: &mut Cursor) -> io::Result<Self> {
                <$t>::try_from(<$wire>::get(c)?)
                    .map_err(|_| corrupt(concat!($what, " out of range")))
            }
        }
    };
}
codec_via!(usize as u64, "index or length");
codec_via!(u16 as u32, "NoC leaf");

impl Codec for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn get(c: &mut Cursor) -> io::Result<Self> {
        Ok(u8::get(c)? != 0)
    }
}

impl Codec for String {
    fn put(&self, out: &mut Vec<u8>) {
        write_str(out, self);
    }
    fn get(c: &mut Cursor) -> io::Result<Self> {
        c.str().map(str::to_owned)
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for item in self {
            item.put(out);
        }
    }
    fn get(c: &mut Cursor) -> io::Result<Self> {
        let n = c.len_prefix()?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(c)?);
        }
        Ok(items)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.put(out);
            }
        }
    }
    fn get(c: &mut Cursor) -> io::Result<Self> {
        match u8::get(c)? {
            0 => Ok(None),
            1 => T::get(c).map(Some),
            _ => Err(corrupt("unknown option flag")),
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(c: &mut Cursor) -> io::Result<Self> {
        Ok((A::get(c)?, B::get(c)?))
    }
}

macro_rules! codec_pointer {
    ($($p:ident),*) => {$(
        impl<T: Codec> Codec for $p<T> {
            fn put(&self, out: &mut Vec<u8>) {
                (**self).put(out);
            }
            fn get(c: &mut Cursor) -> io::Result<Self> {
                T::get(c).map($p::new)
            }
        }
    )*};
}
codec_pointer!(Box, Arc);

/// `codec_struct!(Type { a, b, c })`: the struct travels as its fields in the
/// order listed (`{ 0 }` for a tuple struct). Leaving a field out does not
/// compile.
macro_rules! codec_struct {
    ($t:ty { $($f:tt),* $(,)? }) => {
        impl $crate::codec::Codec for $t {
            fn put(&self, out: &mut Vec<u8>) {
                $( $crate::codec::Codec::put(&self.$f, out); )*
            }
            fn get(c: &mut $crate::codec::Cursor) -> std::io::Result<Self> {
                Ok(Self { $( $f: $crate::codec::Codec::get(c)? ),* })
            }
        }
    };
}
pub(crate) use codec_struct;

/// `codec_enum!(Type, "what" { 0 => Unit, 1 => Tuple(a), 2 => Struct { a, b } })`:
/// a `u8` tag, then the variant's fields in the order listed. A tag not in the
/// list decodes to "unknown what"; leaving a variant out does not compile.
macro_rules! codec_enum {
    ($t:ty, $what:literal {
        $( $tag:literal => $v:ident $( ( $($e:ident),* ) )? $( { $($f:ident),* } )? ),* $(,)?
    }) => {
        impl $crate::codec::Codec for $t {
            fn put(&self, out: &mut Vec<u8>) {
                match self {$(
                    Self::$v $( ( $($e),* ) )? $( { $($f),* } )? => {
                        out.push($tag);
                        $( $( $crate::codec::Codec::put($e, out); )* )?
                        $( $( $crate::codec::Codec::put($f, out); )* )?
                    }
                )*}
            }
            fn get(c: &mut $crate::codec::Cursor) -> std::io::Result<Self> {
                Ok(match <u8 as $crate::codec::Codec>::get(c)? {
                    $( $tag => Self::$v
                        $( ( $( { let $e = $crate::codec::Codec::get(c)?; $e } ),* ) )?
                        $( { $( $f: $crate::codec::Codec::get(c)? ),* } )?, )*
                    _ => return Err($crate::codec::corrupt(concat!("unknown ", $what))),
                })
            }
        }
    };
}
pub(crate) use codec_enum;

/// `codec_names!(Type, "what" { A, B })`: a unit-only enum that travels as its
/// variant's name, so the decoder rejects an unknown name instead of silently
/// remapping a renumbered one.
macro_rules! codec_names {
    ($t:ty, $what:literal { $($v:ident),* $(,)? }) => {
        impl Codec for $t {
            fn put(&self, out: &mut Vec<u8>) {
                write_str(out, match self { $( Self::$v => stringify!($v), )* });
            }
            fn get(c: &mut Cursor) -> io::Result<Self> {
                let name = c.str()?;
                $( if name == stringify!($v) { return Ok(Self::$v); } )*
                Err(corrupt(concat!("unknown ", $what)))
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Format v9: every stored type, each field once, in wire order. (The struct
// lists are brace-delimited so that rustfmt leaves each on its line.)

codec_struct! { fabric::Rect { x0, y0, w, h } }
codec_struct! { fabric::PageId { 0 } }
codec_enum!(fabric::ColumnKind, "column kind" { 0 => Clb, 1 => Bram, 2 => Dsp });
codec_struct! { fabric::Device { name, width, height, slr_height, columns, shell_cols, noc_cols } }

codec_struct! { netlist::Resources { luts, ffs, bram18, dsp } }
codec_enum!(netlist::CellKind, "cell kind" {
    0 => Adder { width },
    1 => Mult { width },
    2 => Divider { width },
    3 => Logic { width },
    4 => Shifter { width },
    5 => Comparator { width },
    6 => Mux { width },
    7 => Register { width },
    8 => BramPort { bits },
    9 => Fsm { states },
    10 => StreamIn { width },
    11 => StreamOut { width },
    12 => FifoBuf { width, depth },
    13 => Const { width },
});
codec_struct! { netlist::CellId { 0 } }
codec_struct! { netlist::Cell { name, kind } }
codec_struct! { netlist::Net { driver, sinks, width } }
codec_struct! { netlist::Netlist { name, cells, nets } }

codec_struct! { hlsim::HlsReport {
    name, resources, cells, nets, intrinsic_ns, top_ii, invocation_cycles, overlay_cycles,
    input_words, output_words, hls_work
} }

codec_struct! { pnr::Bitstream { design, region, config_bits, payload_hash } }
codec_struct! { pnr::TimingReport { critical_ns, fmax_mhz, slr_crossings, worst_net_ns } }
codec_struct! { pnr::PnrHints {
    region, cell_ids, assignment, net_ids, routes, history, wirelength, fmax_mhz, work_units
} }

codec_enum!(kir::Scalar, "scalar kind" {
    0 => Int { width, signed },
    1 => Fixed { width, int_bits, signed },
});
codec_names!(kir::UnOp, "unary op" { Neg, Not, LNot, Abs });
codec_names!(kir::BinOp, "binary op" {
    Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Eq, Ne, Lt, Le, Gt, Ge, LAnd, LOr, Min, Max,
});
codec_enum!(kir::Expr, "expression kind" {
    0 => Const { raw, ty },
    1 => Var(name),
    2 => ArrayGet { array, index },
    3 => Un { op, arg },
    4 => Bin { op, lhs, rhs },
    5 => Cast { ty, arg },
    6 => Select { cond, then_val, else_val },
    7 => BitRange { arg, hi, lo },
});
codec_enum!(kir::Stmt, "statement kind" {
    0 => Assign { var, value },
    1 => ArraySet { array, index, value },
    2 => Read { var, port },
    3 => Write { port, value },
    4 => For { var, begin, end, step, pipeline, unroll, body },
    5 => If { cond, then_body, else_body },
});
codec_struct! { kir::PortDecl { name, elem } }
codec_struct! { kir::VarDecl { name, ty } }
codec_struct! { kir::ArrayDecl { name, elem, len, init } }
codec_struct! { kir::Kernel { name, inputs, outputs, locals, arrays, body } }

codec_enum!(dfg::Target, "target kind" {
    0 => Hw { page },
    1 => Riscv { page },
});
codec_struct! { dfg::OpId { 0 } }
codec_struct! { dfg::OperatorInst { name, kernel, target } }
codec_struct! { dfg::StreamEdge { name, from, to, elem } }
codec_struct! { dfg::ExtPort { name, op, port, elem } }
codec_struct! { dfg::Graph { name, operators, edges, ext_inputs, ext_outputs } }
codec_struct! { dfg::IrOperator { name, target, num_inputs, num_outputs } }
codec_struct! { dfg::IrLink { name, from, to, words } }
codec_struct! { dfg::DfgIr { app, operators, links } }
codec_struct! { dfg::OptimizerConfig {
    fuse, fission, max_operators, page_array_bits, fission_min_ops
} }
codec_struct! { crate::flow::OptSummary { fused, fissioned, balance_before, balance_after } }

codec_enum!(softcore::firmware::Intrinsic, "intrinsic" {
    0 => Bin { op, lhs, rhs },
    1 => Un { op, arg },
    2 => Cast { from, to },
    3 => Select { cond, t, e },
    4 => BitRange { arg, hi, lo },
});
codec_struct! { softcore::SoftBinary {
    name, code, data_init, mem_bytes, intrinsics, in_ports, out_ports, entry
} }
codec_struct! { softcore::PackedBinary { operator, page, records } }

codec_enum!(crate::artifact::XclbinKind, "xclbin kind" {
    0 => Overlay,
    1 => Page { page, bitstream },
    2 => Softcore { page, binary },
    3 => Kernel { bitstream },
});
codec_struct! { crate::artifact::Xclbin { name, kind, hash } }
codec_enum!(crate::artifact::LoadOp, "load op" {
    0 => Overlay,
    1 => PageBitstream { artifact },
    2 => SoftcoreImage { artifact },
});
codec_struct! { noc::PortAddr { leaf, port } }
codec_struct! { crate::artifact::LinkOp { src_leaf, stream, dest } }
codec_struct! { crate::artifact::Driver { loads, links } }

codec_enum!(crate::store::StageKind, "stage kind" {
    0 => HlsLower,
    1 => PlaceRoute,
    2 => BitstreamPack,
    3 => SoftcoreCc,
    4 => LinkDriver,
    5 => KpnOptimize,
    6 => PnrHints,
});
codec_struct! { crate::store::StageKey { kind, hash } }
codec_struct! { crate::store::PnrProduct {
    bitstream, timing, work_units, wrapped_cells, seed, cold_work
} }
codec_struct! { crate::store::SoftProduct { binary } }
codec_enum!(crate::store::StageProduct, "product kind" {
    0 => Hls(p),
    1 => Pnr(p),
    2 => Soft(p),
    3 => Pack(p),
    4 => Driver(p),
    5 => Opt(p),
    6 => Hints(p),
});
