//! Quick start: the paper's Figure 1 — dynamically generate
//! `int plus1(int x) { return x + 1; }` and run it natively.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use vcode::target::Leaf;
use vcode::Assembler;
use vcode_mips::Mips;
use vcode_x64::{ExecMem, X64};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Native x86-64: generate, finalize, call. ---
    let mut mem = ExecMem::new(4096)?;
    let mut a = Assembler::<X64>::lambda(mem.as_mut_slice(), "%i", Leaf::Yes)?;
    let x = a.arg(0);
    a.addii(x, x, 1); // v_addii: ADD Integer Immediate
    a.reti(x); // v_reti:  RETurn Integer
    let fin = a.end()?; // v_end:   link + cleanup
    let code = mem.finalize()?;
    let plus1: extern "C" fn(i32) -> i32 = unsafe { code.as_fn() };

    println!("generated {} bytes of x86-64 in-place", fin.len);
    println!("plus1(41)      = {}", plus1(41));
    println!("plus1(i32::MAX) = {}", plus1(i32::MAX));

    // --- The same specification retargeted to MIPS (paper §3.2 shows
    //     the generated MIPS code), disassembled. ---
    let mut mips_mem = vec![0u8; 1024];
    let mut a = Assembler::<Mips>::lambda(&mut mips_mem, "%i", Leaf::Yes)?;
    let x = a.arg(0);
    a.addii(x, x, 1);
    a.reti(x);
    let fin = a.end()?;
    println!("\nthe same VCODE retargeted to MIPS ({} bytes):", fin.len);
    print!(
        "{}",
        vcode_sim::mips::Machine::disasm_all(&mips_mem[..fin.len])
    );

    // And executed on the simulator.
    let mut m = vcode_sim::mips::Machine::new(1 << 20);
    let entry = m.load_code(&mips_mem[..fin.len])?;
    println!(
        "simulated MIPS plus1(41) = {} ({} instructions)",
        m.call(entry, &[41], 10_000)?,
        m.stats().insns_retired
    );
    Ok(())
}
