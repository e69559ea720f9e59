//! `image_base` on all four targets: a function reads an id table and a
//! table of code distances from its own literal pool through the address
//! `image_base` computes, natively on x86-64 and on the MIPS, SPARC and
//! Alpha simulators at two load addresses, with the same results. Where
//! a form cannot reach the base, or would clobber the link register a
//! leaf returns through, `end` says so instead of loading a wrong
//! address.

use vcode::target::{Finished, Leaf};
use vcode::{Assembler, Error, RegClass, Target};
use vcode_sim::{alpha, mips, sparc, Isa, Machine};

const IDS: [u32; 4] = [10, 20, 30, 40];

/// `(k: i32) -> i32`: `IDS[k & 3]`, plus 1 through the arm whose
/// distance the pool's first code entry holds when bit 2 of `k` is
/// clear, and 2 through the second's when it is set. `pad` nops lie
/// between `image_base` and the pool.
fn emit<T: Target>(buf: &mut [u8], leaf: Leaf, pad: usize) -> Result<Finished, Error> {
    let mut a = Assembler::<T>::lambda(buf, "%i", leaf)?;
    let k = a.arg(0);
    let [b, t, d, r] = [(); 4].map(|_| a.getreg(RegClass::Temp).expect("temp"));
    let (clear, set) = (a.genlabel(), a.genlabel());
    let ids = a.pool().table(IDS.len(), [0]);
    for (i, &id) in IDS.iter().enumerate() {
        a.pool().set(ids + i, id);
    }
    let arms = a.pool().table(2, [0]);
    a.pool().set_label(arms, clear);
    a.pool().set_label(arms + 1, set);
    a.image_base(b);
    a.andii(t, k, 3);
    a.lshii(t, t, 2);
    a.addii(t, t, 4 * ids as i64);
    a.ldi(r, b, t);
    a.rshii(t, k, 2);
    a.andii(t, t, 1);
    a.lshii(t, t, 2);
    a.addp(t, t, b);
    a.ldii(d, t, 4 * arms as i32);
    a.subp(t, b, d);
    a.jmp_reg(t);
    a.label(clear);
    a.addii(r, r, 1);
    a.reti(r);
    a.label(set);
    a.addii(r, r, 2);
    for _ in 0..pad {
        a.nop();
    }
    a.reti(r);
    a.end()
}

fn expected(k: i32) -> i64 {
    i64::from(IDS[(k & 3) as usize]) + if k & 4 == 0 { 1 } else { 2 }
}

const KEYS: [i32; 6] = [0, 1, 3, 4, 6, 7];

/// Runs the image loaded after `shift` bytes of other code.
fn on_sim<I: Isa>(image: &[u8], shift: usize) -> Vec<i64> {
    let mut m = Machine::<I>::new(1 << 20);
    if shift > 0 {
        m.load_code(&vec![0; shift]).unwrap();
    }
    let entry = m.load_code(image).unwrap();
    let keys = KEYS
        .iter()
        .map(|&k| m.call_i32(entry, &[k], 10_000).expect(I::NAME));
    keys.collect()
}

fn image<T: Target>(leaf: Leaf) -> Vec<u8> {
    let mut buf = vec![0u8; 4096];
    let fin = emit::<T>(&mut buf, leaf, 0).unwrap_or_else(|e| panic!("{}: {e}", T::NAME));
    assert_eq!(fin.data_at % 8, fin.entry % 8, "{}", T::NAME);
    buf.truncate(fin.len);
    buf
}

fn runs_anywhere<T: Target, I: Isa>(leaf: Leaf) {
    let image = image::<T>(leaf);
    let want: Vec<i64> = KEYS.iter().map(|&k| expected(k)).collect();
    assert_eq!(on_sim::<I>(&image, 0), want, "{}", T::NAME);
    assert_eq!(on_sim::<I>(&image, 4096 + 8), want, "{}", T::NAME);
}

#[test]
fn native_code_reads_its_pool_through_image_base() {
    let (code, _) = vcode_x64::emit_native(|buf| {
        emit::<vcode_x64::X64>(buf, Leaf::Yes, 0).map_err(vcode::engine::EngineError::from)
    })
    .unwrap();
    // SAFETY: the code is a complete `(i32) -> i32` function.
    let f: extern "C" fn(i32) -> i32 = unsafe { code.as_fn() };
    for k in KEYS {
        assert_eq!(i64::from(f(k)), expected(k), "k = {k}");
    }
}

#[test]
fn simulated_code_reads_its_pool_wherever_it_is_loaded() {
    runs_anywhere::<vcode_mips::Mips, mips::Cpu>(Leaf::No);
    runs_anywhere::<vcode_sparc::Sparc, sparc::Cpu>(Leaf::No);
    runs_anywhere::<vcode_alpha::Alpha, alpha::Cpu>(Leaf::No);
    // `%o7` is the leaf's own (its `save` gave it a window), and Alpha's
    // `br` links into the result register.
    runs_anywhere::<vcode_sparc::Sparc, sparc::Cpu>(Leaf::Yes);
    runs_anywhere::<vcode_alpha::Alpha, alpha::Cpu>(Leaf::Yes);
}

#[test]
fn a_mips_leaf_refuses_image_base() {
    // `bal` writes `$ra`, which a MIPS leaf returns through unsaved.
    let mut buf = vec![0u8; 4096];
    let got = emit::<vcode_mips::Mips>(&mut buf, Leaf::Yes, 0);
    assert_eq!(got.err(), Some(Error::CallInLeaf));
}

#[test]
fn a_base_past_the_forms_reach_is_an_error() {
    let mut buf = vec![0u8; 1 << 17];
    let far = |r: Result<Finished, Error>| matches!(r, Err(Error::BranchOutOfRange { .. }));
    // SPARC's `add` reaches 4 KiB; MIPS's `addiu` and Alpha's `lda`
    // 32 KiB. Just inside, each still loads.
    assert!(emit::<vcode_sparc::Sparc>(&mut buf, Leaf::No, 900).is_ok());
    assert!(far(emit::<vcode_sparc::Sparc>(&mut buf, Leaf::No, 1100)));
    assert!(emit::<vcode_mips::Mips>(&mut buf, Leaf::No, 8000).is_ok());
    assert!(far(emit::<vcode_mips::Mips>(&mut buf, Leaf::No, 8200)));
    assert!(emit::<vcode_alpha::Alpha>(&mut buf, Leaf::No, 8000).is_ok());
    assert!(far(emit::<vcode_alpha::Alpha>(&mut buf, Leaf::No, 8200)));
}
