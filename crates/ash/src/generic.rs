//! The ASH loop generator: one fused copy loop for every [`Target`].
//!
//! [`compile_fused`] writes the loop that [`Pipeline`](crate::Pipeline)
//! runs natively (`compile_fused::<X64>`) and the loop the `table4_sim`
//! bench runs on the simulated MIPS, SPARC and Alpha, so the simulators'
//! exact cycles and the native nanoseconds measure the same code. The
//! separate-pass baselines come from it too: a copy pass is
//! `compile_fused(&[])`, a swap pass is the fused swap run in place
//! (`dst == src`), and [`compile_cksum`] is the one variant that stores
//! nothing.
//!
//! The loop walks machine words (`ul`): 64 bits on x86-64 and Alpha, 32
//! on MIPS and SPARC. An unrolled main loop takes `unroll` words per
//! iteration and a tail loop the 32-bit words left over; each ends in one
//! conditional back edge, and both bump `src` and `dst` against an end
//! pointer. The swap mask is set into a register once, before the loop.

use crate::Step;
use vcode::target::Leaf;
use vcode::{Assembler, BrOperand, Cond, Error, Finished, Label, Reg, RegClass, Target, Ty};

/// Generates the fused pipeline `fn(dst: p, src: p, nbytes: ul) -> ul`:
/// copies `nbytes` from `src` to `dst`, swapping the bytes of every
/// halfword when `steps` has [`Step::Swap`], and returns the unfolded
/// little-endian sum of the source when it has [`Step::Checksum`] (0
/// otherwise; fold with
/// [`reference::fold_le_words`](crate::reference::fold_le_words)).
///
/// `nbytes` must be a multiple of 4 and `src` and `dst` aligned to the
/// target's word. `dst == src` runs the pipeline in place.
///
/// The checksum keeps two accumulators: one adds each whole word, the
/// other its upper half, and after the loop `lo - (hi << half) + hi` is
/// the sum of every word's two half-word fields. On a 64-bit target the
/// fields are 32 bits wide and no message can overflow the sum. On a
/// 32-bit target they are halfwords and the sum is exact up to 65 537
/// of them: every message of at most 128 KiB (131 072 bytes) folds
/// correctly, and 131 076 bytes of `0xff` overflow it.
///
/// # Errors
///
/// [`Error::BadOperands`] unless `unroll` is in `1..=16`; otherwise any
/// code-generation error.
pub fn compile_fused<T: Target>(
    mem: &mut [u8],
    steps: &[Step],
    unroll: i32,
) -> Result<Finished, Error> {
    emit::<T>(mem, steps, unroll, true)
}

/// Generates the checksum pass `fn(buf: p, nbytes: ul) -> ul`: the
/// fused loop of [`compile_fused`] with `[Step::Checksum]`, storing
/// nothing.
///
/// # Errors
///
/// As [`compile_fused`].
pub fn compile_cksum<T: Target>(mem: &mut [u8], unroll: i32) -> Result<Finished, Error> {
    emit::<T>(mem, &[Step::Checksum], unroll, false)
}

fn emit<T: Target>(
    mem: &mut [u8],
    steps: &[Step],
    unroll: i32,
    store: bool,
) -> Result<Finished, Error> {
    if !(1..=16).contains(&unroll) {
        return Err(Error::BadOperands("unroll factor outside 1..=16"));
    }
    let cksum = steps.contains(&Step::Checksum);
    let swap = steps.contains(&Step::Swap);
    let bytes = T::WORD_BITS as i32 / 8;
    let half = i64::from(T::WORD_BITS / 2);
    let chunk = unroll * bytes;
    let sig = if store { "%p%p%ul:%ul" } else { "%p%ul:%ul" };
    let mut a = Assembler::<T>::lambda(mem, sig, Leaf::Yes)?;
    let (dst, src, n) = if store {
        (Some(a.arg(0)), a.arg(1), a.arg(2))
    } else {
        (None, a.arg(0), a.arg(1))
    };
    let mut reg = || a.getreg(RegClass::Temp).expect("reg");
    let (lo, hi, t, end, mask) = (reg(), reg(), reg(), reg(), reg());
    let ws = [reg(), reg()];
    a.setul(lo, 0);
    a.setul(hi, 0);
    if swap {
        a.setul(mask, 0x00ff_00ff_00ff_00ff >> (64 - T::WORD_BITS));
    }

    // The steps' work on the word loaded into `w` from `off`: a whole
    // `ul`, or a `u` in the tail of a 64-bit target, where the 32-bit
    // word is a single checksum field.
    let work = |a: &mut Assembler<'_, T>, w: Reg, off: i32, whole: bool| {
        if cksum {
            if whole {
                a.rshuli(t, w, half);
                a.addul(hi, hi, t);
            } else {
                a.cvu2ul(w, w);
            }
            a.addul(lo, lo, w);
        }
        if swap {
            a.andul(t, w, mask);
            a.lshuli(t, t, 8);
            a.rshuli(w, w, 8);
            a.andul(w, w, mask);
            a.orul(w, w, t);
        }
        match (dst, whole) {
            (Some(dst), true) => a.stuli(w, dst, off),
            (Some(dst), false) => a.stui(w, dst, off),
            (None, _) => {}
        }
    };
    // Bumps both pointers by `step` (the second in the back edge's delay
    // slot) and branches to `top` while `src cond limit`.
    let next = |a: &mut Assembler<'_, T>, step: i32, cond: Cond, limit: Reg, top: Label| {
        let step = i64::from(step);
        a.addpi(src, src, step);
        let back = |a: &mut Assembler<'_, T>| a.branch(cond, Ty::P, src, BrOperand::R(limit), top);
        match dst {
            Some(dst) => a.schedule_delay(back, |a| a.addpi(dst, dst, step)),
            None => back(a),
        }
    };

    let (main, tail, tail_top, done) = (a.genlabel(), a.genlabel(), a.genlabel(), a.genlabel());
    a.addp(end, src, n);
    a.bltuli(n, i64::from(chunk), tail);
    // From here `n` is the last address a whole chunk starts at.
    a.subpi(n, end, i64::from(chunk));
    a.label(main);
    // Word k is loaded before word k - 1 is worked, so that work, not a
    // `nop`, fills the load delay (MIPS).
    for k in 0..=unroll {
        if k < unroll {
            let ahead = u32::from(k > 0 || unroll > 1);
            a.raw_load(|a| a.lduli(ws[k as usize % 2], src, k * bytes), ahead);
        }
        if k > 0 {
            work(&mut a, ws[(k - 1) as usize % 2], (k - 1) * bytes, true);
        }
    }
    next(&mut a, chunk, Cond::Le, n, main);
    a.label(tail);
    a.bgep(src, end, done);
    a.label(tail_top);
    if bytes == 4 {
        a.lduli(ws[0], src, 0);
    } else {
        a.ldui(ws[0], src, 0);
    }
    work(&mut a, ws[0], 0, bytes == 4);
    next(&mut a, 4, Cond::Lt, end, tail_top);
    a.label(done);
    if cksum {
        a.lshuli(t, hi, half);
        a.subul(lo, lo, t);
        a.addul(lo, lo, hi);
    }
    a.retul(lo);
    a.end()
}

/// Scalar host execution of the fused pipeline semantics — the engine
/// [`Pipeline`](crate::Pipeline) degrades to when native code
/// generation fails.
///
/// Mirrors the generated function's contract exactly: copies `src` to
/// `dst` applying the swap, and returns the *unfolded* little-endian
/// 32-bit word sum when a checksum step is present (fold with
/// [`reference::fold_le_words`](crate::reference::fold_le_words)).
///
/// # Panics
///
/// Panics unless `src.len() == dst.len()` and the length is a multiple
/// of 4.
pub fn run_fused(steps: &[Step], src: &[u8], dst: &mut [u8]) -> u64 {
    assert_eq!(src.len(), dst.len());
    assert!(src.len().is_multiple_of(4));
    let do_cksum = steps.contains(&Step::Checksum);
    let do_swap = steps.contains(&Step::Swap);
    let mut sum: u64 = 0;
    for (s, d) in src.chunks_exact(4).zip(dst.chunks_exact_mut(4)) {
        let w = u32::from_le_bytes(s.try_into().unwrap());
        if do_cksum {
            sum += u64::from(w);
        }
        let out = if do_swap {
            ((w & 0x00ff_00ff) << 8) | ((w >> 8) & 0x00ff_00ff)
        } else {
            w
        };
        d.copy_from_slice(&out.to_le_bytes());
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcode::fake::FakeTarget;

    #[test]
    fn generic_pipelines_build_for_the_test_target() {
        let mut mem = vec![0u8; 8192];
        for steps in [
            vec![],
            vec![Step::Checksum],
            vec![Step::Swap],
            vec![Step::Checksum, Step::Swap],
        ] {
            for unroll in [1, 3, 16] {
                let fin = compile_fused::<FakeTarget>(&mut mem, &steps, unroll).unwrap();
                assert!(fin.len > 0, "{steps:?} unroll {unroll}");
            }
        }
        assert!(compile_cksum::<FakeTarget>(&mut mem, 8).unwrap().len > 0);
        for unroll in [0, 17] {
            let e = compile_fused::<FakeTarget>(&mut mem, &[], unroll).unwrap_err();
            assert!(matches!(e, Error::BadOperands(_)), "{e}");
        }
    }
}
