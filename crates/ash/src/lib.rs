//! # ash — dynamic composition of message data pipelines (paper §4.3)
//!
//! ASHs (application-specific handlers) are message handlers downloaded
//! into the kernel. The problem they attack: modular protocol
//! composition is expensive because each layer's data-touching operation
//! (checksumming, byte swapping, copying) makes its own pass over the
//! message, and "touching memory multiple times stresses the weak link
//! in modern workstations, the memory subsystem".
//!
//! The ASH system uses VCODE to *integrate* protocol data operations
//! into a single optimized pass over memory — e.g. folding checksumming
//! and byte swapping into the copy loop — composed dynamically from the
//! modular steps each layer registers. Table 4 shows the payoff: 20–50%
//! with a warm cache and roughly 2× when the data is cold.
//!
//! This crate provides the three competitors of Table 4:
//!
//! - [`separate`]: one pass per operation (the modular baseline);
//! - [`integrated`]: a hand-written fused loop (the paper's
//!   "C integrated" row);
//! - [`Pipeline`]: the ASH — a vcode-generated fused loop built from a
//!   runtime list of [`Step`]s, compiled when the pipeline is composed
//!   and owned by it (a kernel compiles in about a microsecond, so
//!   nothing is cached or persisted).
//!
//! ```
//! use ash::{Pipeline, Step};
//! let p = Pipeline::compile(&[Step::Checksum, Step::Swap])?;
//! let src = vec![0x12u8; 64];
//! let mut dst = vec![0u8; 64];
//! let cksum = p.run(&src, &mut dst);
//! assert_eq!(cksum, ash::reference::checksum(&src));
//! assert_eq!(dst, ash::reference::swapped(&src));
//! # Ok::<(), ash::PipelineError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod compile;
pub mod generic;
pub mod hotloop;

pub use compile::{EngineKind, NativeCode, Pipeline, PipelineError, UNROLL};

/// A data-manipulation step a protocol layer contributes to the message
/// pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Step {
    /// Fold the data into an Internet checksum (16-bit one's-complement
    /// sum); the pipeline returns the folded sum.
    Checksum,
    /// Swap the bytes of every 16-bit halfword (network ↔ host order
    /// for halfword streams).
    Swap,
}

/// Reference (scalar, obviously-correct) implementations the engines are
/// validated against.
pub mod reference {
    /// Internet checksum of `data` (length must be even).
    pub fn checksum(data: &[u8]) -> u16 {
        assert!(data.len().is_multiple_of(2));
        let mut sum: u64 = 0;
        for h in data.chunks_exact(2) {
            sum += u64::from(u16::from_be_bytes([h[0], h[1]]));
        }
        fold(sum)
    }

    /// Folds a wide one's-complement accumulator to 16 bits.
    pub fn fold(mut sum: u64) -> u16 {
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }

    /// `data` with every 16-bit halfword byte-swapped.
    pub fn swapped(data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        for h in out.chunks_exact_mut(2) {
            h.swap(0, 1);
        }
        out
    }

    /// Folds a little-endian word-wise sum into the Internet checksum.
    ///
    /// Summing 32-bit little-endian words and folding is equivalent to
    /// summing big-endian 16-bit halfwords and folding, after one final
    /// byte swap — the classic trick fast checksum loops use.
    pub fn fold_le_words(sum: u64) -> u16 {
        let mut s = sum;
        while s >> 16 != 0 {
            s = (s & 0xffff) + (s >> 16);
        }
        !(s as u16).swap_bytes()
    }
}

/// The modular baseline: each operation is its own pass over the data
/// (the paper's "separate" rows). Returns the checksum if requested.
///
/// Pipeline semantics are canonical regardless of step order: the
/// checksum covers the *source* data, the swap applies to the *output* —
/// every engine in this crate implements that contract.
///
/// # Panics
///
/// Panics unless `src.len() == dst.len()` and the length is a multiple
/// of 4.
pub fn separate(steps: &[Step], src: &[u8], dst: &mut [u8]) -> u16 {
    assert_eq!(src.len(), dst.len());
    assert!(src.len().is_multiple_of(4));
    // Pass 1: copy.
    dst.copy_from_slice(src);
    let mut cksum = 0;
    let canonical = [Step::Checksum, Step::Swap];
    for step in canonical.iter().filter(|s| steps.contains(s)) {
        match step {
            Step::Checksum => {
                // Pass 2: checksum (its own walk over the data).
                let mut sum: u64 = 0;
                for w in dst.chunks_exact(4) {
                    sum += u64::from(u32::from_le_bytes(w.try_into().unwrap()));
                }
                cksum = reference::fold_le_words(sum);
            }
            Step::Swap => {
                // Pass 3: byte swap in place.
                for h in dst.chunks_exact_mut(2) {
                    h.swap(0, 1);
                }
            }
        }
    }
    cksum
}

/// The hand-integrated baseline (the paper's "C integrated" row): one
/// fused loop written by hand for each step combination.
///
/// # Panics
///
/// Panics unless lengths match and are a multiple of 4.
pub fn integrated(steps: &[Step], src: &[u8], dst: &mut [u8]) -> u16 {
    assert_eq!(src.len(), dst.len());
    assert!(src.len().is_multiple_of(4));
    let do_cksum = steps.contains(&Step::Checksum);
    let do_swap = steps.contains(&Step::Swap);
    let mut sum: u64 = 0;
    match (do_cksum, do_swap) {
        (true, false) => {
            for (s, d) in src.chunks_exact(4).zip(dst.chunks_exact_mut(4)) {
                let w = u32::from_le_bytes(s.try_into().unwrap());
                sum += u64::from(w);
                d.copy_from_slice(&w.to_le_bytes());
            }
        }
        (true, true) => {
            for (s, d) in src.chunks_exact(4).zip(dst.chunks_exact_mut(4)) {
                let w = u32::from_le_bytes(s.try_into().unwrap());
                sum += u64::from(w);
                let sw = ((w & 0x00ff_00ff) << 8) | ((w >> 8) & 0x00ff_00ff);
                d.copy_from_slice(&sw.to_le_bytes());
            }
        }
        (false, true) => {
            for (s, d) in src.chunks_exact(4).zip(dst.chunks_exact_mut(4)) {
                let w = u32::from_le_bytes(s.try_into().unwrap());
                let sw = ((w & 0x00ff_00ff) << 8) | ((w >> 8) & 0x00ff_00ff);
                d.copy_from_slice(&sw.to_le_bytes());
            }
        }
        (false, false) => dst.copy_from_slice(src),
    }
    if do_cksum {
        reference::fold_le_words(sum)
    } else {
        0
    }
}

/// Evicts `buf` from the data cache (the Table 4 "uncached" rows flush
/// between trials).
pub fn flush_cache(buf: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    {
        for line in buf.chunks(64) {
            // SAFETY: clflush is safe on any mapped address; `line`
            // points into a live slice.
            unsafe { core::arch::x86_64::_mm_clflush(line.as_ptr()) };
        }
        // SAFETY: mfence has no memory-safety preconditions.
        unsafe { core::arch::x86_64::_mm_mfence() };
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = buf;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 37 + 11) as u8).collect()
    }

    #[test]
    fn reference_checksum_known_vector() {
        // RFC 1071 example: 0x0001 0xf203 0xf4f5 0xf6f7 → sum 0xddf2,
        // checksum = !0xddf2 = 0x220d.
        let bytes = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(reference::checksum(&bytes), 0x220d);
    }

    #[test]
    fn le_word_fold_equals_be_halfword_fold() {
        for n in [4usize, 8, 64, 1000] {
            let d = data(n * 4);
            let mut sum: u64 = 0;
            for w in d.chunks_exact(4) {
                sum += u64::from(u32::from_le_bytes(w.try_into().unwrap()));
            }
            assert_eq!(
                reference::fold_le_words(sum),
                reference::checksum(&d),
                "n = {n}"
            );
        }
    }

    #[test]
    fn separate_and_integrated_agree() {
        let src = data(256);
        for steps in [
            vec![],
            vec![Step::Checksum],
            vec![Step::Swap],
            vec![Step::Checksum, Step::Swap],
        ] {
            let mut d1 = vec![0u8; 256];
            let mut d2 = vec![0u8; 256];
            let c1 = separate(&steps, &src, &mut d1);
            let c2 = integrated(&steps, &src, &mut d2);
            assert_eq!(d1, d2, "{steps:?}");
            assert_eq!(c1, c2, "{steps:?}");
            if steps.contains(&Step::Swap) {
                assert_eq!(d1, reference::swapped(&src));
            } else {
                assert_eq!(d1, src);
            }
            if steps.contains(&Step::Checksum) {
                assert_eq!(c1, reference::checksum(&src));
            }
        }
    }

    #[test]
    fn flush_cache_is_harmless() {
        let d = data(4096);
        flush_cache(&d);
        assert_eq!(d, data(4096));
    }
}
