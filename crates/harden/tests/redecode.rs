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
use vcode::engine::{Backend, Program, TargetId};
use vcode::persist::redecode;
use vcode::BinOp;
use vcode::{InsnDecoder, PersistError};
use vcode_x64::X64Backend;

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

/// Fills this thread's lowering scratch with an engine compile larger
/// than any client's below: what a client skips and fails to write
/// shows up as this program's bytes, not as zeros.
fn dirty_scratch() {
    let mut p = Program::new(2).unwrap();
    for i in 0..4000 {
        p.bin_imm(BinOp::Add, (i % 5) as u8, ((i + 1) % 5) as u8, i);
    }
    p.ret(0);
    let lambda = X64Backend.compile(&p).unwrap();
    assert!(lambda.code_len() > 16 * 1024);
}

/// `len` bytes of installed code at `addr`, copied out.
///
/// # Safety
///
/// `addr..addr + len` must be code its owner keeps mapped.
unsafe fn installed(addr: u64, len: usize) -> Vec<u8> {
    // SAFETY: the caller's obligation; the execution view is readable.
    unsafe { std::slice::from_raw_parts(addr as *const u8, len) }.to_vec()
}

/// The native code of DPF, ASH and tcc, each compiled after a larger
/// engine compile on this thread left its bytes in the scratch.
fn client_images() -> Vec<Vec<u8>> {
    use dpf::packet::{tcp_port_filter, tcp_port_filter_var_ihl};
    use dpf::{Filter, FilterBuilder, Options, Strategies};
    let mut images = Vec::new();
    let mut classifier = |filters: Vec<Filter>| -> Strategies {
        let set: Vec<(u32, Filter)> = (0..).zip(filters).collect();
        dirty_scratch();
        let compiled = dpf::compile::compile(&dpf::trie::build(&set), Options::default());
        let compiled = compiled.expect("set compiles");
        images.push(compiled.code_bytes().to_vec());
        compiled.strategies
    };
    // DPF: the 33-port set of dpf/tests/engines.rs (leaves, dispatched
    // by data); a dense jump table and a hash whose arms go on to a
    // protocol check; headers of variable length.
    let mut rng = XorShift::new(0x5eeb_0000 + 33);
    let mut sparse = std::collections::BTreeSet::new();
    while sparse.len() < 33 {
        sparse.insert(rng.range(1024, 65_000) as u16);
    }
    let then_proto = |port: u16, proto: u8| {
        FilterBuilder::new()
            .eq_u16(12, 0x0800)
            .eq_u16(36, port)
            .eq_u8(23, proto)
            .build()
            .unwrap()
    };
    let arms = |ports: &mut dyn Iterator<Item = u16>| -> Vec<Filter> {
        ports
            .flat_map(|p| [then_proto(p, 6), then_proto(p, 17)])
            .collect()
    };
    let leaves = sparse
        .iter()
        .map(|&p| tcp_port_filter(0x0a00_0002, p).unwrap());
    assert_eq!(classifier(leaves.collect()).hash, 1);
    assert_eq!(classifier(arms(&mut (2000..2012))).table, 1);
    assert_eq!(
        classifier(arms(&mut sparse.iter().copied().take(20))).hash,
        1
    );
    let shifted = [80, 443, 8080].map(|p| tcp_port_filter_var_ihl(p).unwrap());
    assert_eq!(classifier(shifted.to_vec()).linear, 1);
    // ASH: every step set at unroll factors on both sides of the tail
    // loop, each compiled on this thread.
    use ash::{Pipeline, Step};
    for steps in [
        vec![],
        vec![Step::Checksum],
        vec![Step::Swap],
        vec![Step::Checksum, Step::Swap],
    ] {
        for unroll in [1, 3, 8, 16] {
            dirty_scratch();
            let p = Pipeline::compile_with_unroll(&steps, unroll).unwrap();
            // SAFETY: `p` holds its kernel, `code_len` bytes from its entry.
            images.push(unsafe { installed(p.entry_addr().expect("native"), p.code_len) });
        }
    }
    // tcc: one unit of several functions, each function's code without
    // the literal pool after it (a call reads its callee's distance from
    // there): data, which no instruction decoder walks.
    dirty_scratch();
    let unit = tcc::Program::compile(TCC_UNIT).expect("unit compiles");
    assert_eq!(unit.call_int("fib", &[20]), Ok(6765));
    assert_eq!(unit.call_int("gcd_fib", &[12, 18]), Ok(8));
    let mut names: Vec<&str> = unit.functions().collect();
    names.sort_unstable();
    images.extend(names.iter().map(|f| unit.code_bytes(f).unwrap().to_vec()));
    images
}

/// The tcc unit of the corpus: integer and pointer code, calls between
/// its functions, and leaves among them.
const TCC_UNIT: &str = r"
    int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
    int gcd_fib(int a, int b) { return gcd(fib(a), fib(b)); }
    long sum(long *a, int n) { long s = 0; int i; for (i = 0; i < n; i = i + 1) s = s + a[i]; return s; }
    int gcd(int a, int b) { while (b != 0) { int t = a % b; a = b; b = t; } return a; }
    char low(char c) { return c | 32; }
";

fn corpus_agrees<D: InsnDecoder>(backend: &dyn Backend, dec: &D, clients: Vec<Vec<u8>>) {
    let target: TargetId = backend.id();
    let mut rng = XorShift::new(0x0dec_0de5 + target.index() as u64);
    let mut tally = Tally::default();
    let mut images = images(backend);
    images.extend(clients);
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
        Vec::new(),
    );
}

#[test]
fn sparc_corpus_agrees() {
    corpus_agrees(
        &vcode_sim::engine::SparcBackend::default(),
        &vcode_sim::sparc::Decoder,
        Vec::new(),
    );
}

#[test]
fn alpha_corpus_agrees() {
    corpus_agrees(
        &vcode_sim::engine::AlphaBackend::default(),
        &vcode_sim::alpha::Decoder,
        Vec::new(),
    );
}

#[test]
fn x64_corpus_agrees() {
    corpus_agrees(&X64Backend, &vcode_x64::declen::Decoder, client_images());
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
