//! `persist::redecode` against its previous implementation.
//!
//! The L2 load path's re-decode keeps instruction boundaries in a bitmap
//! and takes its decoder as a type parameter; it used to insert every
//! boundary into a `HashSet<i64>` and call through `&dyn`. The walk and
//! its three checks are meant to be the same, so the old function is
//! kept here, verbatim, as the oracle: on clean code images of all four
//! backends, on every kind of damage the corruption corpus applies to
//! them, and on seeded random bytes, both must accept or reject alike,
//! return the same count, and print the same error.

use harden::XorShift;
use std::collections::HashSet;
use std::sync::Arc;
use vcode::engine::{Backend, TargetId};
use vcode::persist::redecode;
use vcode::{InsnDecoder, PersistError};

/// `persist::redecode` as of the commit before the bitmap.
fn redecode_hashset(code: &[u8], dec: &dyn InsnDecoder) -> Result<u64, PersistError> {
    if code.is_empty() {
        return Err(PersistError::Revalidation("empty code buffer".into()));
    }
    let mut boundaries = HashSet::new();
    let mut targets: Vec<(usize, i64)> = Vec::new();
    let mut at = 0usize;
    let mut n = 0u64;
    while at < code.len() {
        let d = dec.decode(code, at).ok_or_else(|| {
            PersistError::Revalidation(format!("undecodable instruction at offset {at}"))
        })?;
        if d.len == 0 {
            return Err(PersistError::Revalidation(format!(
                "zero-length decode at offset {at}"
            )));
        }
        boundaries.insert(at as i64);
        if d.control {
            if let Some(t) = d.target {
                targets.push((at, t));
            }
        }
        at += d.len;
        if at > code.len() {
            return Err(PersistError::Revalidation(format!(
                "instruction at offset {} overruns the buffer",
                at - d.len
            )));
        }
        n += 1;
    }
    boundaries.insert(code.len() as i64);
    for (from, t) in targets {
        if t < 0 || !boundaries.contains(&t) {
            return Err(PersistError::Revalidation(format!(
                "branch at offset {from} targets non-boundary offset {t}"
            )));
        }
    }
    Ok(n)
}

/// What the comparisons saw, so a test can tell an exercised corpus
/// from one that happened to be all accepts or all rejects.
#[derive(Default)]
struct Tally {
    accepted: usize,
    rejected: usize,
}

/// Both implementations on one input, through static and dynamic
/// dispatch of the new one.
fn agree<D: InsnDecoder>(code: &[u8], dec: &D, what: &str, tally: &mut Tally) {
    let want = redecode_hashset(code, dec);
    let got = redecode(code, dec);
    assert_eq!(got, want, "{what}");
    assert_eq!(
        got.as_ref().map_err(ToString::to_string),
        want.as_ref().map_err(ToString::to_string),
        "{what}: error text"
    );
    let dynamic: &dyn InsnDecoder = dec;
    assert_eq!(redecode(code, dynamic), want, "{what}: through &dyn");
    match want {
        Ok(_) => tally.accepted += 1,
        Err(_) => tally.rejected += 1,
    }
}

/// The damage of `tests/persist.rs`, applied to the code bytes a
/// checksum-resealing writer would leave behind: truncation at every
/// length, seeded bit flips, seeded byte overwrites, a grafted tail.
fn damage<D: InsnDecoder>(code: &[u8], dec: &D, what: &str, rng: &mut XorShift, tally: &mut Tally) {
    for cut in 0..code.len() {
        agree(&code[..cut], dec, &format!("{what} cut at {cut}"), tally);
    }
    for _ in 0..64 {
        let mut c = code.to_vec();
        let bit = rng.below(c.len() as u64 * 8) as usize;
        c[bit / 8] ^= 1 << (bit % 8);
        agree(&c, dec, &format!("{what} bit {bit} flipped"), tally);
        let at = rng.below(c.len() as u64) as usize;
        c[at] = rng.next_u64() as u8;
        agree(
            &c,
            dec,
            &format!("{what} bit {bit} flipped, byte {at} overwritten"),
            tally,
        );
    }
    let mut c = code.to_vec();
    c.extend_from_slice(&code[code.len() / 2..]);
    agree(&c, dec, &format!("{what} with a grafted tail"), tally);
}

fn images(backend: &dyn Backend) -> Vec<Vec<u8>> {
    harden::regress_programs()
        .iter()
        .map(|p| {
            let lambda = backend.compile(p).expect("corpus program compiles");
            lambda.persist_image().expect("image is persistable").1
        })
        .collect()
}

fn corpus_agrees<D: InsnDecoder>(backend: &dyn Backend, dec: &D) {
    let target: TargetId = backend.id();
    let mut rng = XorShift::new(0x0dec_0de5 + target.index() as u64);
    let mut tally = Tally::default();
    let images = images(backend);
    for (i, code) in images.iter().enumerate() {
        let what = format!("{target} image {i}");
        let clean = redecode(code, dec);
        assert!(clean.is_ok(), "{what} must revalidate: {clean:?}");
        agree(code, dec, &what, &mut tally);
        // Every image is compared clean; every 16th takes the damage too.
        if i % 16 == 0 {
            damage(code, dec, &what, &mut rng, &mut tally);
        }
    }
    // Seeded random bytes, lengths on both sides of a bitmap word.
    for len in (1..=200).chain([255, 256, 257, 1024]) {
        let mut junk = vec![0u8; len];
        rng.fill(&mut junk);
        agree(
            &junk,
            dec,
            &format!("{target} {len} random bytes"),
            &mut tally,
        );
    }
    assert!(
        tally.accepted > images.len() && tally.rejected > 100,
        "{target}: {} accepted, {} rejected",
        tally.accepted,
        tally.rejected
    );
}

#[test]
fn mips_corpus_agrees() {
    corpus_agrees(
        &vcode_sim::engine::MipsBackend::default(),
        &vcode_sim::mips::Decoder,
    );
}

#[test]
fn sparc_corpus_agrees() {
    corpus_agrees(
        &vcode_sim::engine::SparcBackend::default(),
        &vcode_sim::sparc::Decoder,
    );
}

#[test]
fn alpha_corpus_agrees() {
    corpus_agrees(
        &vcode_sim::engine::AlphaBackend::default(),
        &vcode_sim::alpha::Decoder,
    );
}

#[test]
fn x64_corpus_agrees() {
    corpus_agrees(&vcode_x64::X64Backend, &vcode_x64::declen::Decoder);
}

/// Branch targets around the edges of the bitmap: a run of `nop`s ended
/// by `jmp rel8`, for buffer lengths on both sides of a 64-bit word and
/// every displacement — targets inside the run, on the one-past-the-end
/// offset (a boundary), just past it, far past it, and negative.
#[test]
fn branch_targets_at_the_bitmap_edges_agree() {
    let dec = vcode_x64::declen::Decoder;
    let mut tally = Tally::default();
    for len in [2usize, 3, 62, 63, 64, 65, 66, 126, 127, 128, 129, 130, 200] {
        for rel in i8::MIN..=i8::MAX {
            let mut code = vec![0x90u8; len];
            code[len - 2] = 0xeb;
            code[len - 1] = rel as u8;
            agree(
                &code,
                &dec,
                &format!("{len} bytes, jmp {rel:+}"),
                &mut tally,
            );
        }
        // Not every offset a boundary: a 5-byte `mov eax, imm32` first.
        if len >= 8 {
            for rel in i8::MIN..=i8::MAX {
                let mut code = vec![0x90u8; len];
                code[..5].copy_from_slice(&[0xb8, 1, 2, 3, 4]);
                code[len - 2] = 0xeb;
                code[len - 1] = rel as u8;
                agree(
                    &code,
                    &dec,
                    &format!("{len} bytes, mov, jmp {rel:+}"),
                    &mut tally,
                );
            }
        }
    }
    assert!(tally.accepted > 500 && tally.rejected > 500);
    // The shared `Arc<dyn InsnDecoder + Send + Sync>` of the decoder
    // registry is a third way in.
    let shared: Arc<dyn InsnDecoder + Send + Sync> = Arc::new(dec);
    assert_eq!(redecode(&[0x90, 0xc3], &*shared), Ok(2));
}
