//! The ASH itself: a vcode-generated data-copying loop specialized to
//! the operations each protocol layer registered.
//!
//! "The ASH system dynamically generates a memory copying loop
//! specialized to the operations performed by each layer" (paper §4.3).
//! Each [`Step`](crate::Step) contributes its word transformation to the
//! loop body; the generated loop makes exactly one pass over the message
//! no matter how many layers composed.

use crate::{generic, reference, Step};
use std::fmt;
use std::sync::{Arc, OnceLock};
use vcode::target::Leaf;
use vcode::{Assembler, CacheError, CacheKey, CacheStats, LambdaCache, RegClass, TargetId};
use vcode_x64::{ExecCode, ExecMem, X64};

/// The process-wide cache of fused kernels, keyed by the pipeline
/// *shape*: the generated loop depends only on which steps are present
/// and the unroll factor, so layers composing the same shape across many
/// message flows share one compiled kernel. It has no disk tier: a
/// kernel compiles in about a microsecond, a third of what a verified
/// load from disk costs (EXPERIMENTS.md "Persistence, measured (PR 26)").
fn cache() -> &'static LambdaCache<NativeCode> {
    static CACHE: OnceLock<LambdaCache<NativeCode>> = OnceLock::new();
    CACHE.get_or_init(|| LambdaCache::new(16))
}

/// Counters for the process-wide kernel cache.
pub fn cache_stats() -> CacheStats {
    cache().stats()
}

/// Drops every cached kernel (live pipelines keep theirs). Benchmarks
/// use this to measure cold compiles.
pub fn clear_cache() {
    cache().clear();
}

/// Which engine a [`Pipeline`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Dynamically generated native code (the fast path).
    Native,
    /// The scalar [`generic`] interpreter, engaged because code
    /// generation failed (graceful degradation).
    Interpreter,
}

/// Compilation options.
///
/// [`code_capacity`](Self::code_capacity) exists for the fault-injection
/// harness: forcing a tiny buffer exercises the overflow → retry →
/// degrade ladder deterministically.
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    /// Words per unrolled main-loop iteration (1 disables unrolling).
    pub unroll: i32,
    /// Code-buffer capacity in bytes; `None` picks a comfortable
    /// default.
    pub code_capacity: Option<usize>,
}

impl Default for PipelineOptions {
    fn default() -> PipelineOptions {
        PipelineOptions {
            unroll: UNROLL,
            code_capacity: None,
        }
    }
}

/// Error from compiling a pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// Code generation failed.
    Codegen(vcode::Error),
    /// Could not obtain executable memory.
    Exec(std::io::Error),
    /// A racing build held the kernel cache's `Building` slot past its
    /// stall timeout (the builder thread most likely died without
    /// unwinding). The slot was vacated; this compile degraded.
    Stalled,
    /// The requested unroll factor is outside `1..=16`; nothing was
    /// compiled.
    Unroll(i32),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Codegen(e) => write!(f, "{e}"),
            PipelineError::Exec(e) => write!(f, "executable memory: {e}"),
            PipelineError::Stalled => f.write_str("in-flight kernel build stalled"),
            PipelineError::Unroll(n) => write!(f, "unroll factor {n} is outside 1..=16"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<vcode::Error> for PipelineError {
    fn from(e: vcode::Error) -> PipelineError {
        PipelineError::Codegen(e)
    }
}

/// A compiled, fused data pipeline.
///
/// The generated function has signature
/// `fn(dst: *mut u8, src: *const u8, nbytes: u64) -> u64` and returns
/// the unfolded little-endian word sum when a checksum step is present.
///
/// When code generation fails the pipeline degrades to the scalar
/// [`generic`] interpreter rather than erroring — [`run`](Self::run)
/// keeps producing identical results, only slower; [`engine`]
/// (Self::engine) reports which path is active.
pub struct Pipeline {
    engine: Engine,
    steps: Vec<Step>,
    /// Bytes of generated machine code (0 in degraded mode).
    pub code_len: usize,
    /// VCODE instructions specified during generation (0 in degraded
    /// mode).
    pub vcode_insns: u64,
}

/// One fused, finished kernel: the live mapping plus its entry pointer
/// and size metadata. Shared (via `Arc`) between every pipeline with the
/// same shape and the process-wide cache; the mapping stays executable
/// until the last holder drops.
pub struct NativeCode {
    code: ExecCode,
    entry: extern "C" fn(*mut u8, *const u8, u64) -> u64,
    /// The kernel's length from its entry (`Finished::entry`).
    code_len: usize,
    vcode_insns: u64,
}

impl fmt::Debug for NativeCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeCode")
            .field("code_len", &self.code_len)
            .field("vcode_insns", &self.vcode_insns)
            .finish_non_exhaustive()
    }
}

enum Engine {
    Native(Arc<NativeCode>),
    Interpreter,
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field("steps", &self.steps)
            .field("engine", &self.engine_kind())
            .field("code_len", &self.code_len)
            .finish()
    }
}

/// Words per unrolled main-loop iteration.
const UNROLL: i32 = 8;

impl Pipeline {
    /// Dynamically composes and compiles the pipeline for `steps`,
    /// degrading gracefully when generation fails.
    ///
    /// The ladder: on a storage [`Overflow`](vcode::Error::Overflow)
    /// the compile is retried once with a doubled buffer; if generation
    /// still fails (or executable memory cannot be obtained at all),
    /// the pipeline falls back to the scalar [`generic`] interpreter —
    /// [`run`](Self::run) produces identical output on either engine.
    ///
    /// # Errors
    ///
    /// [`PipelineError`] only if even the interpreter cannot be built —
    /// which cannot currently happen, so callers may treat `Ok` as
    /// "the pipeline is runnable".
    pub fn compile(steps: &[Step]) -> Result<Pipeline, PipelineError> {
        Self::compile_with_options(steps, PipelineOptions::default())
    }

    /// Compiles with an explicit unroll factor (ablation knob; `1`
    /// disables unrolling). Same degradation ladder as
    /// [`compile`](Self::compile).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Unroll`] unless `unroll` is in `1..=16`;
    /// otherwise see [`compile`](Self::compile).
    pub fn compile_with_unroll(steps: &[Step], unroll: i32) -> Result<Pipeline, PipelineError> {
        Self::compile_with_options(
            steps,
            PipelineOptions {
                unroll,
                ..PipelineOptions::default()
            },
        )
    }

    /// Compiles with explicit [`PipelineOptions`]. Same degradation
    /// ladder as [`compile`](Self::compile).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Unroll`] unless `opts.unroll` is in `1..=16`;
    /// otherwise see [`compile`](Self::compile).
    pub fn compile_with_options(
        steps: &[Step],
        opts: PipelineOptions,
    ) -> Result<Pipeline, PipelineError> {
        if !(1..=16).contains(&opts.unroll) {
            return Err(PipelineError::Unroll(opts.unroll));
        }
        // An explicit code_capacity is a harness knob (fault injection /
        // overflow drills): those compiles are bespoke, never cached.
        // The cached path waits boundedly on a racing build: a stalled
        // `Building` slot degrades to the interpreter instead of
        // blocking the caller forever.
        let native = if opts.code_capacity.is_some() {
            Self::native_with_retry(steps, opts).map(Arc::new)
        } else {
            let cache = cache();
            cache
                .get_or_build(
                    Self::cache_key(steps, opts),
                    || Self::native_with_retry(steps, opts).map(Arc::new),
                    cache.stall_timeout(),
                )
                .map_err(|e| match e {
                    CacheError::Build(e) => e,
                    CacheError::Stalled { .. } => PipelineError::Stalled,
                })
        };
        Ok(Self::from_native(native, steps))
    }

    /// Compiles bypassing the process-wide kernel cache (always a cold
    /// compile, and the result is not shared). Same degradation ladder
    /// as [`compile`](Self::compile); benchmarks use this for the cold
    /// side of the amortization table.
    ///
    /// # Errors
    ///
    /// See [`compile`](Self::compile).
    pub fn compile_uncached(steps: &[Step]) -> Result<Pipeline, PipelineError> {
        let opts = PipelineOptions::default();
        let native = Self::native_with_retry(steps, opts).map(Arc::new);
        Ok(Self::from_native(native, steps))
    }

    fn from_native(native: Result<Arc<NativeCode>, PipelineError>, steps: &[Step]) -> Pipeline {
        match native {
            Ok(nc) => Pipeline {
                code_len: nc.code_len,
                vcode_insns: nc.vcode_insns,
                engine: Engine::Native(nc),
                steps: steps.to_vec(),
            },
            // Degrade: interpret the same steps.
            Err(_) => Pipeline {
                engine: Engine::Interpreter,
                steps: steps.to_vec(),
                code_len: 0,
                vcode_insns: 0,
            },
        }
    }

    /// Content key of a pipeline shape. The generated loop depends only
    /// on which step kinds are present and the unroll factor, not on the
    /// step order or multiplicity (`native` probes with `contains`).
    fn cache_key(steps: &[Step], opts: PipelineOptions) -> CacheKey {
        let bytes = format!(
            "ash|ck={}|sw={}|u={}",
            steps.contains(&Step::Checksum),
            steps.contains(&Step::Swap),
            opts.unroll
        )
        .into_bytes();
        CacheKey::new(TargetId::X64, bytes)
    }

    /// The overflow → doubled-buffer retry rung of the ladder.
    fn native_with_retry(
        steps: &[Step],
        opts: PipelineOptions,
    ) -> Result<NativeCode, PipelineError> {
        match Self::native(steps, opts) {
            Ok(nc) => Ok(nc),
            Err(PipelineError::Codegen(vcode::Error::Overflow { capacity })) => {
                let retry = PipelineOptions {
                    code_capacity: Some(capacity.max(1) * 2),
                    ..opts
                };
                Self::native(steps, retry)
            }
            Err(e) => Err(e),
        }
    }

    /// The native-codegen rung of the ladder.
    fn native(steps: &[Step], opts: PipelineOptions) -> Result<NativeCode, PipelineError> {
        let unroll = opts.unroll;
        let do_cksum = steps.contains(&Step::Checksum);
        let do_swap = steps.contains(&Step::Swap);
        let est = opts.code_capacity.unwrap_or(4096);
        let mut mem = ExecMem::new(est).map_err(PipelineError::Exec)?;
        // The mapping rounds up to whole pages; honor sub-page
        // capacities so the harness can force overflows.
        let cap = est.min(mem.len());
        let mut a =
            Assembler::<X64>::lambda(&mut mem.as_mut_slice()[..cap], "%p%p%ul:%ul", Leaf::Yes)?;
        let dst = a.arg(0);
        let src = a.arg(1);
        let n = a.arg(2);
        let acc = a.getreg(RegClass::Temp).expect("reg");
        // A second accumulator halves the add-latency dependency chain.
        let acc2 = a.getreg(RegClass::Temp).expect("reg");
        let w = a.getreg(RegClass::Temp).expect("reg");
        let t = a.getreg(RegClass::Temp).expect("reg");
        let end = a.getreg(RegClass::Temp).expect("reg");
        let end_main = a.getreg(RegClass::Temp).expect("reg");
        a.setul(acc, 0);
        a.setul(acc2, 0);
        a.addp(end, src, n);
        let chunk = i64::from(unroll) * 4;
        // end_main = src + (n & !(chunk - 1))
        a.anduli(end_main, n, !(chunk - 1));
        a.addp(end_main, src, end_main);

        // One 64-bit word of the fused body: the per-layer steps
        // contributed their transformations and the loop makes a single
        // pass. (The ones-complement sum may be accumulated over any
        // word width — 2^32 ≡ 1 (mod 65535) — but 64-bit lanes could
        // overflow the accumulator on long messages, so the two 32-bit
        // halves are added separately.)
        let body64 = |a: &mut Assembler<'_, X64>, off: i32, sum: vcode::Reg| {
            a.lduli(w, src, off);
            if do_cksum {
                a.movu(t, w); // 32-bit move zero-extends: the low lane
                a.addul(sum, sum, t);
                a.rshuli(t, w, 32);
                a.addul(sum, sum, t);
            }
            if do_swap {
                // Swap bytes within each halfword of the 64-bit word.
                a.anduli(t, w, 0x00ff_00ff_00ff_00ff);
                a.lshuli(t, t, 8);
                a.rshuli(w, w, 8);
                a.anduli(w, w, 0x00ff_00ff_00ff_00ff);
                a.orul(w, w, t);
            }
            a.stuli(w, dst, off);
        };
        let body32 = |a: &mut Assembler<'_, X64>, off: i32| {
            a.ldui(w, src, off);
            if do_cksum {
                a.addul(acc, acc, w);
            }
            if do_swap {
                a.andui(t, w, 0x00ff_00ff);
                a.lshui(t, t, 8);
                a.rshui(w, w, 8);
                a.andui(w, w, 0x00ff_00ff);
                a.oru(w, w, t);
            }
            a.stui(w, dst, off);
        };

        let main_top = a.genlabel();
        let tail_top = a.genlabel();
        let done = a.genlabel();
        a.label(main_top);
        a.bgep(src, end_main, tail_top);
        for k in 0..unroll / 2 {
            body64(&mut a, k * 8, if k % 2 == 0 { acc } else { acc2 });
        }
        if unroll % 2 == 1 {
            body32(&mut a, (unroll - 1) * 4);
        }
        a.addpi(src, src, chunk);
        a.addpi(dst, dst, chunk);
        a.jmp(main_top);
        // Tail: single 32-bit words.
        a.label(tail_top);
        a.bgep(src, end, done);
        body32(&mut a, 0);
        a.addpi(src, src, 4);
        a.addpi(dst, dst, 4);
        a.jmp(tail_top);
        a.label(done);
        a.addul(acc, acc, acc2);
        a.retul(acc);
        let vcode_insns = a.insn_count();
        let fin = a.end()?;
        let code = mem.finalize().map_err(PipelineError::Exec)?;
        // SAFETY: the generated function has the declared C ABI and only
        // touches dst[..n] / src[..n].
        let entry: extern "C" fn(*mut u8, *const u8, u64) -> u64 =
            unsafe { code.as_fn_at(fin.entry) };
        Ok(NativeCode {
            code,
            entry,
            code_len: fin.len - fin.entry,
            vcode_insns,
        })
    }

    /// Runs the pipeline, copying `src` to `dst` with the composed
    /// transformations; returns the Internet checksum when a
    /// [`Step::Checksum`] is present (0 otherwise).
    ///
    /// # Panics
    ///
    /// Panics unless `src.len() == dst.len()` and the length is a
    /// multiple of 4.
    #[inline]
    pub fn run(&self, src: &[u8], dst: &mut [u8]) -> u16 {
        assert_eq!(src.len(), dst.len());
        assert!(
            src.len().is_multiple_of(4),
            "pipelines operate on whole words"
        );
        let sum = match &self.engine {
            Engine::Native(nc) => (nc.entry)(dst.as_mut_ptr(), src.as_ptr(), src.len() as u64),
            Engine::Interpreter => generic::run_fused(&self.steps, src, dst),
        };
        if self.steps.contains(&Step::Checksum) {
            reference::fold_le_words(sum)
        } else {
            0
        }
    }

    /// The composed steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Which engine [`run`](Self::run) executes on.
    pub fn engine_kind(&self) -> EngineKind {
        match self.engine {
            Engine::Native(_) => EngineKind::Native,
            Engine::Interpreter => EngineKind::Interpreter,
        }
    }

    /// Entry address of the generated code (diagnostics); `None` in
    /// degraded mode.
    pub fn entry_addr(&self) -> Option<u64> {
        match &self.engine {
            Engine::Native(nc) => Some(nc.code.addr()),
            Engine::Interpreter => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{integrated, separate};

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 131 + 7) as u8).collect()
    }

    #[test]
    fn all_step_combinations_match_baselines() {
        for steps in [
            vec![],
            vec![Step::Checksum],
            vec![Step::Swap],
            vec![Step::Checksum, Step::Swap],
        ] {
            let p = Pipeline::compile(&steps).unwrap();
            for n in [0usize, 4, 8, 12, 16, 20, 64, 100, 1024, 1500 / 4 * 4] {
                let src = data(n);
                let mut d_ash = vec![0u8; n];
                let mut d_sep = vec![0u8; n];
                let mut d_int = vec![0u8; n];
                let c_ash = p.run(&src, &mut d_ash);
                let c_sep = separate(&steps, &src, &mut d_sep);
                let c_int = integrated(&steps, &src, &mut d_int);
                assert_eq!(d_ash, d_sep, "{steps:?} n={n}");
                assert_eq!(d_ash, d_int, "{steps:?} n={n}");
                assert_eq!(c_ash, c_sep, "{steps:?} n={n}");
                assert_eq!(c_ash, c_int, "{steps:?} n={n}");
            }
        }
    }

    #[test]
    fn unroll_factors_agree() {
        let src = data(4096);
        let steps = [Step::Checksum, Step::Swap];
        let reference_p = Pipeline::compile_with_unroll(&steps, 1).unwrap();
        let mut want = vec![0u8; src.len()];
        let want_ck = reference_p.run(&src, &mut want);
        for unroll in [2, 4, 8] {
            let p = Pipeline::compile_with_unroll(&steps, unroll).unwrap();
            let mut got = vec![0u8; src.len()];
            let ck = p.run(&src, &mut got);
            assert_eq!(got, want, "unroll {unroll}");
            assert_eq!(ck, want_ck, "unroll {unroll}");
        }
    }

    #[test]
    fn an_unroll_factor_out_of_range_is_a_typed_error() {
        for unroll in [0, 17] {
            let e = Pipeline::compile_with_unroll(&[Step::Swap], unroll).unwrap_err();
            assert!(matches!(e, PipelineError::Unroll(n) if n == unroll), "{e}");
            let opts = PipelineOptions {
                unroll,
                code_capacity: Some(4096),
            };
            let e = Pipeline::compile_with_options(&[Step::Swap], opts).unwrap_err();
            assert!(matches!(e, PipelineError::Unroll(n) if n == unroll), "{e}");
        }
        for unroll in [1, 16] {
            Pipeline::compile_with_unroll(&[Step::Swap], unroll).unwrap();
        }
    }

    #[test]
    fn non_multiple_of_unroll_hits_tail_loop() {
        let steps = [Step::Checksum];
        let p = Pipeline::compile_with_unroll(&steps, 4).unwrap();
        for words in [1usize, 2, 3, 5, 7, 9] {
            let src = data(words * 4);
            let mut dst = vec![0u8; src.len()];
            let ck = p.run(&src, &mut dst);
            assert_eq!(dst, src);
            assert_eq!(ck, reference::checksum(&src), "{words} words");
        }
    }

    #[test]
    #[should_panic(expected = "whole words")]
    fn odd_length_rejected() {
        let p = Pipeline::compile(&[]).unwrap();
        let src = [0u8; 6];
        let mut dst = [0u8; 6];
        let _ = p.run(&src[..6], &mut dst[..6]);
    }

    #[test]
    fn generated_code_is_small_and_counted() {
        let p = Pipeline::compile(&[Step::Checksum, Step::Swap]).unwrap();
        assert!(p.vcode_insns > 10);
        assert!(p.code_len < 1024);
        assert_eq!(p.steps(), &[Step::Checksum, Step::Swap]);
        assert_eq!(p.engine_kind(), EngineKind::Native);
        assert!(p.entry_addr().is_some());
    }

    #[test]
    fn forced_codegen_failure_degrades_to_interpreter() {
        for steps in [
            vec![],
            vec![Step::Checksum],
            vec![Step::Swap],
            vec![Step::Checksum, Step::Swap],
        ] {
            let p = Pipeline::compile_with_options(
                &steps,
                PipelineOptions {
                    code_capacity: Some(16), // retry doubles to 32: still hopeless
                    ..PipelineOptions::default()
                },
            )
            .unwrap();
            assert_eq!(p.engine_kind(), EngineKind::Interpreter, "{steps:?}");
            assert_eq!(p.code_len, 0);
            assert_eq!(p.entry_addr(), None);
            // Degraded mode must be semantically invisible.
            for n in [0usize, 4, 16, 100, 1024] {
                let src = data(n);
                let mut d_deg = vec![0u8; n];
                let mut d_sep = vec![0u8; n];
                let c_deg = p.run(&src, &mut d_deg);
                let c_sep = separate(&steps, &src, &mut d_sep);
                assert_eq!(d_deg, d_sep, "{steps:?} n={n}");
                assert_eq!(c_deg, c_sep, "{steps:?} n={n}");
            }
        }
    }

    #[test]
    fn overflow_retry_with_doubled_buffer_recovers() {
        let steps = [Step::Checksum, Step::Swap];
        let probe = Pipeline::compile(&steps).unwrap();
        // One byte short forces the overflow; the doubled retry fits.
        let p = Pipeline::compile_with_options(
            &steps,
            PipelineOptions {
                code_capacity: Some(probe.code_len - 1),
                ..PipelineOptions::default()
            },
        )
        .unwrap();
        assert_eq!(p.engine_kind(), EngineKind::Native);
        let src = data(256);
        let mut d1 = vec![0u8; 256];
        let mut d2 = vec![0u8; 256];
        assert_eq!(p.run(&src, &mut d1), probe.run(&src, &mut d2));
        assert_eq!(d1, d2);
    }
}
