//! VCODE operand types (paper Table 1).
//!
//! Every VCODE instruction operates on typed operands. The types are named
//! for their mappings to ANSI C types: `v` (`void`), `c`/`uc` (signed and
//! unsigned `char`), `s`/`us` (`short`), `i`/`u` (`int`), `l`/`ul` (`long`),
//! `p` (`void *`), `f` (`float`) and `d` (`double`). On a 32-bit target
//! some of these are not distinct (e.g. `l` is equivalent to `i`); the
//! [`Target`](crate::target::Target) decides the machine mapping.

use std::fmt;

/// A VCODE operand type.
///
/// Most non-memory operations only accept the word-sized and larger types
/// (`I`, `U`, `L`, `Ul`, `P`, `F`, `D`); the sub-word types (`C`, `Uc`, `S`,
/// `Us`) appear only in loads and stores, mirroring the paper's restriction
/// ("most architectures only provide word and long word operations on
/// registers").
///
/// # Examples
///
/// ```
/// use vcode::Ty;
/// assert!(Ty::I.is_int());
/// assert!(Ty::D.is_float());
/// assert_eq!(Ty::Us.size_bytes(64), 2);
/// assert_eq!(Ty::L.size_bytes(32), 4); // `l` folds to `i` on 32-bit machines
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Ty {
    /// `void` — only meaningful for returns.
    V,
    /// `signed char` (memory operations only).
    C,
    /// `unsigned char` (memory operations only).
    Uc,
    /// `signed short` (memory operations only).
    S,
    /// `unsigned short` (memory operations only).
    Us,
    /// `int` — 32-bit signed.
    I,
    /// `unsigned` — 32-bit unsigned.
    U,
    /// `long` — word-sized signed (32 or 64 bits depending on target).
    L,
    /// `unsigned long` — word-sized unsigned.
    Ul,
    /// `void *` — pointer, word-sized.
    P,
    /// `float` — single-precision IEEE-754.
    F,
    /// `double` — double-precision IEEE-754.
    D,
}

impl Ty {
    /// All types, in paper order.
    pub const ALL: [Ty; 12] = [
        Ty::V,
        Ty::C,
        Ty::Uc,
        Ty::S,
        Ty::Us,
        Ty::I,
        Ty::U,
        Ty::L,
        Ty::Ul,
        Ty::P,
        Ty::F,
        Ty::D,
    ];

    /// Types allowed as register operands of arithmetic instructions.
    pub const ARITH: [Ty; 7] = [Ty::I, Ty::U, Ty::L, Ty::Ul, Ty::P, Ty::F, Ty::D];

    /// Types allowed in loads and stores.
    pub const MEM: [Ty; 11] = [
        Ty::C,
        Ty::Uc,
        Ty::S,
        Ty::Us,
        Ty::I,
        Ty::U,
        Ty::L,
        Ty::Ul,
        Ty::P,
        Ty::F,
        Ty::D,
    ];

    /// Returns `true` for the integer family (including pointer).
    #[inline]
    pub fn is_int(self) -> bool {
        !matches!(self, Ty::F | Ty::D | Ty::V)
    }

    /// Returns `true` for `F` and `D`.
    #[inline]
    pub fn is_float(self) -> bool {
        matches!(self, Ty::F | Ty::D)
    }

    /// Returns `true` for signed integer types.
    #[inline]
    pub fn is_signed(self) -> bool {
        matches!(self, Ty::C | Ty::S | Ty::I | Ty::L)
    }

    /// Returns `true` for the sub-word types that only appear in memory
    /// operations.
    #[inline]
    pub fn is_subword(self) -> bool {
        matches!(self, Ty::C | Ty::Uc | Ty::S | Ty::Us)
    }

    /// Size of a value of this type in bytes on a machine with the given
    /// word width (32 or 64), or `None` for [`Ty::V`], which has no size.
    ///
    /// Client-facing paths (e.g. [`Assembler::local`](crate::Assembler::local))
    /// use this to turn a void-typed request into a latched
    /// [`Error::BadOperands`](crate::Error::BadOperands) instead of a panic.
    pub fn try_size_bytes(self, word_bits: u32) -> Option<usize> {
        assert!(word_bits == 32 || word_bits == 64, "bad word width");
        match self {
            Ty::V => None,
            Ty::C | Ty::Uc => Some(1),
            Ty::S | Ty::Us => Some(2),
            Ty::I | Ty::U | Ty::F => Some(4),
            Ty::L | Ty::Ul | Ty::P => Some((word_bits / 8) as usize),
            Ty::D => Some(8),
        }
    }

    /// Size of a value of this type in bytes on a machine with the given
    /// word width (32 or 64).
    ///
    /// # Panics
    ///
    /// Panics if `word_bits` is neither 32 nor 64, or if called on [`Ty::V`].
    /// Backend code that may see client-supplied types should prefer
    /// [`try_size_bytes`](Self::try_size_bytes).
    pub fn size_bytes(self, word_bits: u32) -> usize {
        self.try_size_bytes(word_bits).expect("void has no size")
    }

    /// The paper's single-letter suffix for this type (`"ul"` is two).
    pub fn suffix(self) -> &'static str {
        match self {
            Ty::V => "v",
            Ty::C => "c",
            Ty::Uc => "uc",
            Ty::S => "s",
            Ty::Us => "us",
            Ty::I => "i",
            Ty::U => "u",
            Ty::L => "l",
            Ty::Ul => "ul",
            Ty::P => "p",
            Ty::F => "f",
            Ty::D => "d",
        }
    }

    /// Parses one type from the front of a `lambda` type-string fragment,
    /// returning the type and the number of characters consumed.
    ///
    /// Used by [`Sig::parse`]. Longest match wins, so `"ul"` parses as `Ul`
    /// rather than `U` followed by `l`, and `"uc"`/`"us"` likewise.
    pub(crate) fn parse_prefix(s: &str) -> Option<(Ty, usize)> {
        let b = s.as_bytes();
        match b {
            [b'u', b'l', ..] => Some((Ty::Ul, 2)),
            [b'u', b'c', ..] => Some((Ty::Uc, 2)),
            [b'u', b's', ..] => Some((Ty::Us, 2)),
            [b'u', ..] => Some((Ty::U, 1)),
            [b'c', ..] => Some((Ty::C, 1)),
            [b's', ..] => Some((Ty::S, 1)),
            [b'i', ..] => Some((Ty::I, 1)),
            [b'l', ..] => Some((Ty::L, 1)),
            [b'p', ..] => Some((Ty::P, 1)),
            [b'f', ..] => Some((Ty::F, 1)),
            [b'd', ..] => Some((Ty::D, 1)),
            [b'v', ..] => Some((Ty::V, 1)),
            _ => None,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

/// A dynamically generated function's signature, parsed from a paper-style
/// type string.
///
/// The paper's `v_lambda` takes a type string listing the function's
/// incoming parameter types — e.g. `"%i%p"` for `(int, void *)`. The number
/// and type of parameters do not have to be fixed at static compile time.
///
/// # Examples
///
/// ```
/// use vcode::{Sig, Ty};
/// let sig = Sig::parse("%i%p%d")?;
/// assert_eq!(sig.args(), &[Ty::I, Ty::P, Ty::D]);
/// assert_eq!(sig.ret(), Ty::V);
/// let sig = Sig::parse("%i%i:%i")?; // optional ":<ret>" extension
/// assert_eq!(sig.ret(), Ty::I);
/// # Ok::<(), vcode::SigParseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Sig {
    args: Vec<Ty>,
    ret: Option<Ty>,
}

/// Error returned when a `lambda` type string is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SigParseError {
    /// Byte offset of the offending character.
    pub at: usize,
    /// The malformed input.
    pub input: String,
}

impl fmt::Display for SigParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "malformed type string {:?} at byte {}",
            self.input, self.at
        )
    }
}

impl std::error::Error for SigParseError {}

impl Sig {
    /// Creates a signature directly from parts.
    pub fn new(args: Vec<Ty>, ret: Ty) -> Sig {
        Sig {
            args,
            ret: Some(ret),
        }
    }

    /// Parses a paper-style type string: each argument is `%` followed by a
    /// type suffix, optionally terminated by `:` and a return-type suffix.
    ///
    /// # Errors
    ///
    /// Returns [`SigParseError`] when the string contains anything other
    /// than `%<type>` groups and an optional `:<type>` tail, or when `v`
    /// appears as an argument type.
    pub fn parse(s: &str) -> Result<Sig, SigParseError> {
        let err = |at: usize| SigParseError {
            at,
            input: s.to_owned(),
        };
        let mut args = Vec::new();
        let mut ret = None;
        let mut i = 0;
        let b = s.as_bytes();
        while i < b.len() {
            match b[i] {
                b'%' => {
                    let (ty, n) = Ty::parse_prefix(&s[i + 1..]).ok_or_else(|| err(i + 1))?;
                    if ty == Ty::V {
                        return Err(err(i + 1));
                    }
                    args.push(ty);
                    i += 1 + n;
                }
                b':' => {
                    // Accept both ":i" and ":%i" for the return type.
                    if b.get(i + 1) == Some(&b'%') {
                        i += 1;
                    }
                    let (ty, n) = Ty::parse_prefix(&s[i + 1..]).ok_or_else(|| err(i + 1))?;
                    i += 1 + n;
                    if i != b.len() {
                        return Err(err(i));
                    }
                    ret = Some(ty);
                }
                _ => return Err(err(i)),
            }
        }
        Ok(Sig { args, ret })
    }

    /// The argument types, in order.
    pub fn args(&self) -> &[Ty] {
        &self.args
    }

    /// The argument list's storage back, for the next signature built
    /// with [`new`](Self::new).
    pub fn into_args(self) -> Vec<Ty> {
        self.args
    }

    /// The return type (defaults to [`Ty::V`] when the string had no `:`
    /// tail; the actual value returned is whatever the generated `ret`
    /// instruction supplies, as in the paper).
    pub fn ret(&self) -> Ty {
        self.ret.unwrap_or(Ty::V)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suffix_roundtrip() {
        for ty in Ty::ALL {
            let s = ty.suffix();
            let (parsed, n) = Ty::parse_prefix(s).expect("parses");
            assert_eq!(parsed, ty, "suffix {s}");
            assert_eq!(n, s.len());
        }
    }

    #[test]
    fn sizes_32_vs_64() {
        assert_eq!(Ty::P.size_bytes(32), 4);
        assert_eq!(Ty::P.size_bytes(64), 8);
        assert_eq!(Ty::L.size_bytes(32), 4);
        assert_eq!(Ty::L.size_bytes(64), 8);
        assert_eq!(Ty::D.size_bytes(32), 8);
        assert_eq!(Ty::F.size_bytes(64), 4);
    }

    #[test]
    #[should_panic(expected = "void has no size")]
    fn void_has_no_size() {
        let _ = Ty::V.size_bytes(64);
    }

    #[test]
    fn parse_simple_sig() {
        let sig = Sig::parse("%i").unwrap();
        assert_eq!(sig.args(), &[Ty::I]);
        assert_eq!(sig.ret(), Ty::V);
    }

    #[test]
    fn parse_multi_and_ret() {
        let sig = Sig::parse("%i%ul%d%p:%l").unwrap();
        assert_eq!(sig.args(), &[Ty::I, Ty::Ul, Ty::D, Ty::P]);
        assert_eq!(sig.ret(), Ty::L);
    }

    #[test]
    fn parse_empty_is_nullary() {
        let sig = Sig::parse("").unwrap();
        assert!(sig.args().is_empty());
        assert_eq!(sig.ret(), Ty::V);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Sig::parse("%x").is_err());
        assert!(Sig::parse("i").is_err());
        assert!(Sig::parse("%i:").is_err());
        assert!(Sig::parse("%v").is_err());
        assert!(Sig::parse("%i:%i%i").is_err());
    }

    #[test]
    fn parse_prefers_longest_match() {
        let sig = Sig::parse("%uc%us%ul%u").unwrap();
        assert_eq!(sig.args(), &[Ty::Uc, Ty::Us, Ty::Ul, Ty::U]);
    }

    #[test]
    fn error_display_mentions_offset() {
        let e = Sig::parse("%i%q").unwrap_err();
        assert_eq!(e.at, 3);
        assert!(e.to_string().contains("byte 3"));
    }
}
