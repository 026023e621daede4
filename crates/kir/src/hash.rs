//! Content hashing for the build graph's stage keys: 64-bit FNV-1a, either
//! over bytes or over a value's `Debug` rendering streamed straight into
//! the hash, so a kernel is hashed without first being printed to a `String`.

use std::fmt::{self, Write as _};

/// A running FNV-1a hash. As a [`fmt::Write`] sink it hashes exactly the
/// bytes a `String` sink would have collected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The hash of no bytes.
    pub const fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds a word in, as its little-endian bytes.
    pub fn write_u64(&mut self, word: u64) {
        self.write(&word.to_le_bytes());
    }

    /// Folds in what `{value:?}` prints.
    pub fn write_debug<T: fmt::Debug + ?Sized>(&mut self, value: &T) {
        // The sink never fails, and derived `Debug` impls only forward its
        // errors.
        let _ = write!(self, "{value:?}");
    }

    /// The hash of everything folded in so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// FNV-1a of what `{value:?}` prints: `fnv1a(format!("{value:?}").as_bytes())`
/// without the `String`.
pub fn debug_fnv1a<T: fmt::Debug + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv1a::new();
    h.write_debug(value);
    h.finish()
}

/// How many bytes `{value:?}` prints (`format!("{value:?}").len()` without
/// the `String`): a size for source text.
pub fn debug_len<T: fmt::Debug + ?Sized>(value: &T) -> usize {
    struct Len(usize);
    impl fmt::Write for Len {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut len = Len(0);
    let _ = write!(len, "{value:?}");
    len.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_debug_hash_equals_the_hash_of_the_printed_string() {
        let k = crate::KernelBuilder::new("k")
            .input("in", crate::Scalar::uint(32))
            .output("out", crate::Scalar::fixed(16, 8))
            .local("x", crate::Scalar::uint(32))
            .body([
                crate::Stmt::read("x", "in"),
                crate::Stmt::write("out", crate::Expr::var("x")),
            ])
            .build()
            .unwrap();
        assert_eq!(debug_fnv1a(&k), fnv1a(format!("{k:?}").as_bytes()));
        assert_eq!(debug_fnv1a("a\"b"), fnv1a(br#""a\"b""#));
        assert_eq!(debug_len(&k), format!("{k:?}").len());
    }

    #[test]
    fn known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write_u64(7);
        assert_eq!(h.finish(), fnv1a(&7u64.to_le_bytes()));
    }
}
