//! # tcc — a small C compiler that generates code at runtime (paper §4.1)
//!
//! The paper's first experimental client is `tcc`, a C compiler using
//! VCODE as its abstract machine: "compilers can rely on it to emit code
//! efficiently while retaining sufficient control to perform many
//! optimizations … the use of VCODE has allowed us to isolate most
//! machine dependencies from the tcc compiler itself."
//!
//! This crate is that client for a C subset (`int`, `long`, `char`,
//! `double`, pointers; full statement forms; recursion): source text in,
//! directly executable native functions out — no external assembler,
//! linker, or process involved. A unit's functions are emitted one after
//! another and installed together ([`vcode_x64::emit_native`]) as one
//! position-independent image.
//!
//! ```
//! let prog = tcc::Program::compile(r"
//!     int fib(int n) {
//!         if (n < 2) return n;
//!         return fib(n - 1) + fib(n - 2);
//!     }
//! ")?;
//! assert_eq!(prog.call_int("fib", &[10])?, 55);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codegen;
pub mod lex;
pub mod parse;

pub use codegen::CcError;
pub use lex::ParseError;
pub use parse::{CType, FnDef};

use codegen::{FnCg, FnSig};
use std::collections::HashMap;
use std::fmt;
use vcode_x64::ExecCode;

/// A compiled translation unit: every function is native code in one
/// executable mapping, callable through [`Program::call_int`],
/// [`Program::call_f64`], or a raw typed pointer.
pub struct Program {
    code: ExecCode,
    fns: HashMap<String, FnSig>,
    /// Each function's entry in `code` and the length of its code, by
    /// `FnSig::index`.
    table: Vec<(usize, usize)>,
    /// Total machine-code bytes generated.
    pub code_len: usize,
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("functions", &self.fns.keys().collect::<Vec<_>>())
            .field("code_len", &self.code_len)
            .finish()
    }
}

/// Error calling a compiled function through the checked helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CallError {
    /// No function with that name.
    Undefined(String),
    /// Wrong number of arguments.
    Arity {
        /// Expected count.
        expected: usize,
        /// Provided count.
        got: usize,
    },
    /// The helper's type shape does not match the function's signature.
    Signature(String),
}

impl fmt::Display for CallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallError::Undefined(n) => write!(f, "no function named `{n}`"),
            CallError::Arity { expected, got } => {
                write!(f, "expected {expected} arguments, got {got}")
            }
            CallError::Signature(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CallError {}

impl Program {
    /// Compiles C source into native code.
    ///
    /// # Errors
    ///
    /// [`CcError`] on lexical, syntactic, semantic, or code-generation
    /// problems.
    pub fn compile(source: &str) -> Result<Program, CcError> {
        let defs = parse::parse(source)?;
        let mut fns: HashMap<String, FnSig> = HashMap::new();
        for (i, d) in defs.iter().enumerate() {
            let prev = fns.insert(
                d.name.clone(),
                FnSig {
                    index: i,
                    ret: d.ret.clone(),
                    params: d.params.iter().map(|(t, _)| t.clone()).collect(),
                },
            );
            if prev.is_some() {
                return Err(CcError::Sem {
                    func: d.name.clone(),
                    msg: "function defined twice".into(),
                });
            }
        }
        let mut table = vec![(0, 0); defs.len()];
        // Each attempt (the scratch grows until the unit fits) writes
        // every byte again.
        let (code, unit) = vcode_x64::emit_native::<CcError>(|buf| {
            let mut unit = vcode::Finished::default();
            let mut calls = Vec::new();
            for (d, entry) in defs.iter().zip(&mut table) {
                // Each function is emitted at a 16-byte boundary and its
                // code moved down from its entry, so its pool, aligned
                // from there, is too. (The scratch is not cleared, so the
                // padding is written: `int3`.)
                let at = unit.len.next_multiple_of(16).min(buf.len());
                buf[unit.len..at].fill(0xcc);
                let (fin, callees) = FnCg::compile(d, &mut buf[at..], &fns)?;
                buf.copy_within(at + fin.entry..at + fin.len, at);
                let base = at + fin.data_at - fin.entry;
                calls.extend(
                    callees
                        .into_iter()
                        .map(|(c, word)| (c, base, base + 4 * word)),
                );
                *entry = (at, fin.code_end - fin.entry);
                unit.len = at + fin.len - fin.entry;
                unit.insns += fin.insns;
            }
            // Data, written before install: no code byte changes.
            for (callee, base, at) in calls {
                let dist = table[callee].0 as i64 - base as i64;
                buf[at..at + 8].copy_from_slice(&dist.to_le_bytes());
            }
            Ok(unit)
        })?;
        Ok(Program {
            code,
            fns,
            table,
            code_len: unit.len,
        })
    }

    /// Names of the compiled functions.
    pub fn functions(&self) -> impl Iterator<Item = &str> {
        self.fns.keys().map(String::as_str)
    }

    /// The native entry address of `name`, if defined.
    pub fn addr(&self, name: &str) -> Option<u64> {
        let sig = self.fns.get(name)?;
        Some(self.code.addr() + self.table[sig.index].0 as u64)
    }

    /// The machine code of `name`, without the literal pool after it
    /// (diagnostics).
    pub fn code_bytes(&self, name: &str) -> Option<&[u8]> {
        let (at, len) = self.table[self.fns.get(name)?.index];
        Some(&self.code.bytes()[at..at + len])
    }

    /// Reinterprets a compiled function as a typed function pointer.
    ///
    /// # Safety
    ///
    /// `F` must be an `extern "C"` fn-pointer type matching the C
    /// signature of `name`, and the [`Program`] must outlive all calls.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not defined.
    pub unsafe fn as_fn<F: Copy>(&self, name: &str) -> F {
        let addr = self.addr(name).expect("undefined function");
        assert_eq!(std::mem::size_of::<F>(), std::mem::size_of::<usize>());
        // SAFETY: size checked; ABI match is the caller's obligation.
        unsafe { std::mem::transmute_copy(&addr) }
    }

    /// `name`'s signature and entry address, if it takes `nargs` arguments.
    fn lookup(&self, name: &str, nargs: usize) -> Result<(&FnSig, u64), CallError> {
        let sig = self
            .fns
            .get(name)
            .ok_or_else(|| CallError::Undefined(name.to_owned()))?;
        if sig.params.len() != nargs {
            return Err(CallError::Arity {
                expected: sig.params.len(),
                got: nargs,
            });
        }
        Ok((sig, self.addr(name).expect("defined")))
    }

    /// Calls an integer-family function (params and return all
    /// `int`/`long`/`char`/pointer) with up to six arguments.
    ///
    /// # Errors
    ///
    /// [`CallError`] when the name, arity, or type shape does not match.
    pub fn call_int(&self, name: &str, args: &[i64]) -> Result<i64, CallError> {
        let (sig, addr) = self.lookup(name, args.len())?;
        if args.len() > 6 {
            return Err(CallError::Signature("more than 6 arguments".into()));
        }
        if sig.params.contains(&CType::Double) || sig.ret == CType::Double {
            return Err(CallError::Signature(format!(
                "`{name}` involves doubles; use call_f64 or as_fn"
            )));
        }
        let a = args;
        // SAFETY: integer-family C arguments all pass in the same
        // registers regardless of exact width; the generated code reads
        // only the meaningful low bits.
        let r = unsafe {
            match a.len() {
                0 => std::mem::transmute::<u64, extern "C" fn() -> i64>(addr)(),
                1 => std::mem::transmute::<u64, extern "C" fn(i64) -> i64>(addr)(a[0]),
                2 => std::mem::transmute::<u64, extern "C" fn(i64, i64) -> i64>(addr)(a[0], a[1]),
                3 => std::mem::transmute::<u64, extern "C" fn(i64, i64, i64) -> i64>(addr)(
                    a[0], a[1], a[2],
                ),
                4 => std::mem::transmute::<u64, extern "C" fn(i64, i64, i64, i64) -> i64>(addr)(
                    a[0], a[1], a[2], a[3],
                ),
                5 => std::mem::transmute::<u64, extern "C" fn(i64, i64, i64, i64, i64) -> i64>(
                    addr,
                )(a[0], a[1], a[2], a[3], a[4]),
                _ => {
                    std::mem::transmute::<u64, extern "C" fn(i64, i64, i64, i64, i64, i64) -> i64>(
                        addr,
                    )(a[0], a[1], a[2], a[3], a[4], a[5])
                }
            }
        };
        // Narrow the result to the declared width.
        Ok(match sig.ret {
            CType::Int | CType::Char => i64::from(r as i32),
            _ => r,
        })
    }

    /// Calls an all-`double` function with up to four arguments.
    ///
    /// # Errors
    ///
    /// [`CallError`] when the name, arity, or type shape does not match.
    pub fn call_f64(&self, name: &str, args: &[f64]) -> Result<f64, CallError> {
        let (sig, addr) = self.lookup(name, args.len())?;
        if sig.params.iter().any(|t| *t != CType::Double) || sig.ret != CType::Double {
            return Err(CallError::Signature(format!(
                "`{name}` is not an all-double function"
            )));
        }
        let a = args;
        // SAFETY: all-double signatures pass in xmm registers; shape
        // verified above.
        let r = unsafe {
            match a.len() {
                0 => std::mem::transmute::<u64, extern "C" fn() -> f64>(addr)(),
                1 => std::mem::transmute::<u64, extern "C" fn(f64) -> f64>(addr)(a[0]),
                2 => std::mem::transmute::<u64, extern "C" fn(f64, f64) -> f64>(addr)(a[0], a[1]),
                3 => std::mem::transmute::<u64, extern "C" fn(f64, f64, f64) -> f64>(addr)(
                    a[0], a[1], a[2],
                ),
                4 => std::mem::transmute::<u64, extern "C" fn(f64, f64, f64, f64) -> f64>(addr)(
                    a[0], a[1], a[2], a[3],
                ),
                _ => return Err(CallError::Signature("more than 4 arguments".into())),
            }
        };
        Ok(r)
    }
}
