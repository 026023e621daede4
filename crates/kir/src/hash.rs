//! 64-bit FNV-1a, the content hash of the build graph. Every stage key and
//! every input hash is FNV-1a over codec bytes; which inputs a key names is
//! the field list of the `pld` crate's `StageInputs` record, not this module's
//! business.

use std::fmt::{self, Write as _};

/// FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let step = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, step)
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
    fn debug_len_is_the_length_of_the_printed_string() {
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
        assert_eq!(debug_len(&k), format!("{k:?}").len());
        assert_eq!(debug_len("a\"b"), r#""a\"b""#.len());
    }

    #[test]
    fn known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
