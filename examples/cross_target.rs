//! Retargetability (paper §3.3): one VCODE specification, four machines.
//! The same client code generates for x86-64 (run natively), MIPS, SPARC
//! and Alpha (run on the instruction-set simulators) — and they all
//! agree.
//!
//! ```sh
//! cargo run --example cross_target
//! ```

use std::error::Error;
use vcode::target::Leaf;
use vcode::{Assembler, RegClass, Target};
use vcode_alpha::Alpha;
use vcode_mips::Mips;
use vcode_sim::{alpha, mips, sparc, Isa, Machine};
use vcode_sparc::Sparc;
use vcode_x64::{ExecMem, X64};

/// The portable specification: gcd(a, b) by repeated remainder.
/// Written once against the idealized RISC interface.
fn gcd_spec<T: Target>(a: &mut Assembler<'_, T>) {
    let (x, y) = (a.arg(0), a.arg(1));
    let top = a.genlabel();
    let done = a.genlabel();
    let t = a.getreg(RegClass::Temp).expect("register");
    a.label(top);
    a.beqii(y, 0, done);
    a.modi(t, x, y);
    a.movi(x, y);
    a.movi(y, t);
    a.jmp(top);
    a.label(done);
    a.reti(x);
}

fn generate<T: Target>() -> Vec<u8> {
    let mut mem = vec![0u8; 4096];
    let mut a = Assembler::<T>::lambda(&mut mem, "%i%i", Leaf::Yes).expect("lambda");
    gcd_spec(&mut a);
    let fin = a.end().expect("end");
    mem.truncate(fin.len);
    mem
}

fn main() -> Result<(), Box<dyn Error>> {
    let cases = [(48, 36), (1071, 462), (17, 5), (270, 192)];

    // Native x86-64.
    let mut mem = ExecMem::new(4096)?;
    let mut a = Assembler::<X64>::lambda(mem.as_mut_slice(), "%i%i", Leaf::Yes)?;
    gcd_spec(&mut a);
    let fin = a.end()?;
    let code = mem.finalize()?;
    let native: extern "C" fn(i32, i32) -> i32 = unsafe { code.as_fn() };
    println!("x86-64 (native):    {} bytes", fin.len);

    // The three paper platforms, simulated.
    let mips = simulate::<Mips, mips::Cpu>(&cases)?;
    let sparc = simulate::<Sparc, sparc::Cpu>(&cases)?;
    let alpha = simulate::<Alpha, alpha::Cpu>(&cases)?;

    println!("\n  a      b    x86-64   MIPS  SPARC  Alpha");
    for (i, &(x, y)) in cases.iter().enumerate() {
        let n = i64::from(native(x, y));
        let (m, s, al) = (mips.0[i], sparc.0[i], alpha.0[i]);
        println!("{x:5} {y:6} {n:9} {m:6} {s:6} {al:6}");
        assert_eq!([n, n, n], [m, s, al]);
    }
    println!(
        "\nall four targets agree; simulated instruction counts: \
         MIPS {}  SPARC {}  Alpha {}",
        mips.1, sparc.1, alpha.1
    );
    Ok(())
}

/// Runs every case on `I`'s simulator: the results and the instructions
/// retired in all.
fn simulate<T: Target, I: Isa>(cases: &[(i32, i32)]) -> Result<(Vec<i64>, u64), Box<dyn Error>> {
    let code = generate::<T>();
    println!("{:6} (simulated): {} bytes", I::NAME, code.len());
    let mut m = Machine::<I>::new(1 << 20);
    let entry = m.load_code(&code)?;
    let got = cases
        .iter()
        .map(|&(x, y)| m.call_i32(entry, &[x, y], 100_000))
        .collect::<Result<_, _>>()?;
    Ok((got, m.stats().insns_retired))
}
