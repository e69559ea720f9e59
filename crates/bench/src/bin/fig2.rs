//! Figure 2, counted: host instructions per generated VCODE instruction
//! (paper §1, §5.1), exactly, by single-stepping the emitter.
//!
//! Each body runs in a forked child that calls `PTRACE_TRACEME`, stops
//! itself with `SIGSTOP`, emits, and stops again; the parent steps it
//! with `PTRACE_SINGLESTEP` in between and counts the steps. A body is
//! counted at `n = 256` and `n = 512` generated instructions, and the
//! difference is the cost of 256 of them: `lambda`, `end` and the stops'
//! own instructions cancel. Every body is counted in a fresh process of
//! this binary (`--body <row> <target>`), so no count depends on what
//! ran before it, and at a fixed stack address (`child`), so none depends
//! on where the stack landed. A syscall is one step (the kernel's work is
//! invisible), and so is each iteration of a `rep` string instruction.
//! A binary, not a libtest test: forking inside a threaded harness is
//! unsafe.
//!
//! The "record + lower" row counts what a client pays per op for a
//! `Program` to be recorded and lowered (`engine::replay`) on every
//! target. A second table counts the same for two fixed corpora on
//! x86-64, whole (`corpora()`), each held under a bar relative to the
//! commit before liveness was kept while recording.
//!
//! ```text
//! cargo run -q --release -p vcode-bench --bin fig2                 # the table
//! cargo run -q --release -p vcode-bench --bin fig2 -- --check      # fail off the pins
//! cargo run -q --profile bench -p vcode-bench --bin fig2 -- --attribute
//! ```
//!
//! `--attribute` also records the instruction pointer at every step of
//! the VCODE bodies and prints, per class and target, where the host
//! instructions of one generated instruction go: per address and per
//! (inlined) function, resolved by `addr2line` against this binary's
//! debug info (the bench profile keeps it; the counts are those of the
//! release build).

use dcg::Fun;
use std::collections::BTreeMap;
use std::hint::black_box;
use vcode::engine::{replay, POp, Program};
use vcode::persist::digest64;
use vcode::target::{Leaf, Target};
use vcode::{Assembler, BinOp, Cond, Reg, RegClass, Ty, UnOp};
use vcode_alpha::Alpha;
use vcode_mips::Mips;
use vcode_sparc::Sparc;
use vcode_x64::X64;

/// The two body sizes; their difference is the unit counted.
const N: [usize; 2] = [256, 512];
const UNIT: f64 = (N[1] - N[0]) as f64;

const TARGETS: [&str; 4] = ["x86-64", "MIPS", "SPARC", "Alpha"];

/// A body: emits `n` generated instructions into `mem`, returns the
/// bytes written.
type Body = fn(&mut [u8], usize) -> usize;

/// One op class on the four targets, and the host-instruction steps
/// each must take from `n = 256` to `n = 512` (release build of this
/// binary, counted with rustc 1.95.0). They move when the emission
/// path's code or the compiler does, never with the host's load; the
/// DCG row also moves with the C library's `malloc` and `memcpy`.
/// `bytes` pins what the bodies emit at `n = 512`, so a moved count says
/// whether the emission moved or only the host code.
struct Row {
    class: &'static str,
    bodies: [Body; 4],
    pinned: [u64; 4],
    bytes: u64,
}

/// Opens a session with two integer arguments and an allocated temp,
/// and hands `(t, x, y)` to the body.
#[inline(always)]
fn session<T: Target>(
    mem: &mut [u8],
    n: usize,
    body: impl Fn(&mut Assembler<'_, T>, usize, Reg, Reg, Reg),
) -> usize {
    let mut a = Assembler::<T>::lambda(mem, "%i%i", Leaf::Yes).unwrap();
    let (x, y) = (a.arg(0), a.arg(1));
    let t = a.getreg(RegClass::Temp).unwrap();
    for i in 0..n {
        body(&mut a, i, t, x, y);
    }
    a.reti(t);
    a.end().unwrap().len
}

/// `codegen_cost`'s four-op mix.
#[inline(always)]
fn mix<T: Target>(a: &mut Assembler<'_, T>, i: usize, t: Reg, x: Reg, y: Reg) {
    match i % 4 {
        0 => a.addi(t, x, y),
        1 => a.subii(t, t, 3),
        2 => a.xori(t, t, x),
        _ => a.muli(t, t, y),
    }
}

#[inline(never)]
fn addi<T: Target>(mem: &mut [u8], n: usize) -> usize {
    session::<T>(mem, n, |a, _, t, x, y| a.addi(t, x, y))
}

#[inline(never)]
fn addii<T: Target>(mem: &mut [u8], n: usize) -> usize {
    session::<T>(mem, n, |a, _, t, x, _| a.addii(t, x, 3))
}

#[inline(never)]
fn ldii<T: Target>(mem: &mut [u8], n: usize) -> usize {
    session::<T>(mem, n, |a, _, t, x, _| a.ldii(t, x, 8))
}

#[inline(never)]
fn stii<T: Target>(mem: &mut [u8], n: usize) -> usize {
    session::<T>(mem, n, |a, _, t, x, _| a.stii(t, x, 8))
}

#[inline(never)]
fn mixed<T: Target>(mem: &mut [u8], n: usize) -> usize {
    session::<T>(mem, n, mix)
}

/// The mix with hard-coded register names (paper §5.3): the registers
/// the allocator hands out on each target, as constants the compiler
/// folds into the encoding (same bytes as [`mixed`]).
macro_rules! hard {
    ($($name:ident: $t:ty = $tr:literal, $xr:literal, $yr:literal;)*) => { $(
        #[inline(never)]
        fn $name(mem: &mut [u8], n: usize) -> usize {
            const T: Reg = Reg::int($tr);
            const X: Reg = Reg::int($xr);
            const Y: Reg = Reg::int($yr);
            session::<$t>(mem, n, |a, i, _, _, _| mix(a, i, T, X, Y))
        }
    )* };
}

hard! {
    hard_x64: X64 = 10, 7, 6;
    hard_mips: Mips = 8, 4, 5;
    hard_sparc: Sparc = 8, 24, 25;
    hard_alpha: Alpha = 1, 16, 17;
}

/// The mix through DCG: IR trees built, then consumed (paper §2).
#[inline(never)]
fn dcg<T: Target>(mem: &mut [u8], n: usize) -> usize {
    let mut f = Fun::new("%i%i").unwrap();
    let (x, y) = (f.arg(0), f.arg(1));
    let mut t = f.binop(BinOp::Add, Ty::I, x, y);
    for i in 1..n {
        t = match i % 4 {
            1 => {
                let c = f.constl(Ty::I, 3);
                f.binop(BinOp::Sub, Ty::I, t, c)
            }
            2 => f.binop(BinOp::Xor, Ty::I, t, x),
            _ => f.binop(BinOp::Mul, Ty::I, t, y),
        };
    }
    f.ret(Ty::I, t);
    f.compile::<T>(mem, Leaf::Yes).unwrap().len
}

/// Records one 32-op program of a fixed shape: a counted loop around a
/// temporary, five short-lived temporaries (each dead two ops after it
/// is written), a forward skip and a tail. Ten vregs in all, so
/// 1588d22's lowering, which kept a register per vreg, fits it on every
/// target too.
fn shape() -> Program {
    let mut p = Program::new(2).unwrap();
    let (top, skip) = (p.genlabel(), p.genlabel());
    p.set(2, 0);
    p.set(3, 3);
    p.label(top);
    p.bin(BinOp::Add, 4, 0, 1);
    p.bin(BinOp::Sub, 4, 4, 3);
    p.bin(BinOp::Xor, 2, 2, 4);
    p.bin_imm(BinOp::Sub, 3, 3, 1);
    p.br_imm(Cond::Gt, 3, 0, top);
    for t in 5..=9u8 {
        p.bin_imm(BinOp::Add, t, 0, i32::from(t));
        p.bin(BinOp::Mul, t, t, 1);
        p.bin(BinOp::Xor, 2, 2, t);
    }
    p.br(Cond::Lt, 0, 1, skip);
    p.un(UnOp::Neg, 2, 2);
    p.bin_imm(BinOp::Add, 2, 2, 7);
    p.label(skip);
    p.bin_imm(BinOp::Lsh, 2, 2, 1);
    p.bin_imm(BinOp::And, 2, 2, 0x7fff_ffff);
    p.un(UnOp::Com, 2, 2);
    p.bin_imm(BinOp::Xor, 2, 2, 0x55);
    p.ret(2);
    p
}

/// Records and lowers `n / 32` programs of [`shape`]: what a client that
/// records a program and compiles it pays per recorded op.
#[inline(never)]
fn record_lower<T: Target>(mem: &mut [u8], n: usize) -> usize {
    (0..n / 32)
        .map(|_| replay::<T>(&shape(), mem).unwrap().len)
        .sum()
}

macro_rules! four {
    ($f:ident) => {
        [$f::<X64>, $f::<Mips>, $f::<Sparc>, $f::<Alpha>]
    };
}

fn rows() -> [Row; 8] {
    [
        Row {
            class: "addi (binop, reg)",
            bodies: four!(addi),
            pinned: [4096, 2560, 2560, 2560],
            bytes: 0xd328_1f3b_72c2_69ea,
        },
        Row {
            class: "addii (binop, imm)",
            bodies: four!(addii),
            pinned: [3840, 2560, 2560, 2560],
            bytes: 0xf095_f1a0_1b8d_2f5d,
        },
        Row {
            class: "ldii (load, imm)",
            bodies: four!(ldii),
            pinned: [2560, 4352, 2560, 2560],
            bytes: 0xa3a2_5c70_3b49_23d6,
        },
        Row {
            class: "stii (store, imm)",
            bodies: four!(stii),
            pinned: [2560, 2560, 2560, 2560],
            bytes: 0xe3c0_71b3_849d_2497,
        },
        Row {
            class: "mix",
            bodies: four!(mixed),
            pinned: [5824, 4544, 4224, 4224],
            bytes: 0xba0b_e8d3_1ff0_1065,
        },
        Row {
            class: "mix, hard regs",
            bodies: [hard_x64, hard_mips, hard_sparc, hard_alpha],
            pinned: [5440, 4352, 4096, 4096],
            bytes: 0xba0b_e8d3_1ff0_1065,
        },
        // x86-64 took 202356 before `rd = rs1 - rd` became `neg; add`.
        // The mix emits the same bytes (it never hits that case); the
        // host code of `emit_binop` changed around the new branch.
        Row {
            class: "mix through DCG",
            bodies: four!(dcg),
            pinned: [202484, 185524, 185012, 187444],
            bytes: 0xca3b_c28d_29c4_fe83,
        },
        // 1588d22, whose `replay` kept a register per vreg for the whole
        // lambda, took [96144, 83928, 82680, 88480]: 1.02x, 1.09x, 1.11x
        // and 1.09x of it here. 16 steps fewer on every target since
        // `lambda` stopped loading a process-wide verifier switch:
        // [100184, 93736, 93696, 98328]. x86-64 took 100168 before
        // `rd = rs1 - rd` became `neg; add`, with the same bytes, as the
        // DCG row above. [99760, 93720, 93680, 98312] before `end` laid
        // out the literal pool's tables and base, with the same bytes:
        // this row ends a session every 32 ops, the others once.
        // [99896, 93880, 93888, 98472] while `end` copied the label
        // table into `Finished` (an allocation and a loop per session),
        // with the same bytes.
        Row {
            class: "record + lower",
            bodies: four!(record_lower),
            pinned: [97608, 91592, 91528, 96208],
            bytes: 0x921f_70bf_0a94_c723,
        },
    ]
}

/// A fixed corpus of programs, recorded from their op lists and then
/// lowered with `replay::<X64>` (no install), counted whole: the steps of
/// recording every program, then of lowering every one, each over the
/// corpus's recorded ops. Not a difference of two sizes, so the
/// per-program costs (`Program::new`, `lambda`, `end`) are in it.
///
/// What `--check` holds is the bar for keeping liveness while a program
/// is recorded: record + lower at most [`BAR_PCT`] % of what 1588d22
/// took, when lowering kept a register per vreg and recording kept
/// nothing. Not a pin: the recording count moves by a few steps with the
/// length of this executable's path (the heap layout under the
/// `realloc`s that grow a program, and so `memmove`'s alignment path).
struct Corpus {
    class: &'static str,
    programs: fn() -> Vec<Program>,
    /// Steps to record the corpus, and to lower it, at 1588d22.
    parent: [u64; 2],
}

/// Record + lower over a corpus, in percent of 1588d22's.
const BAR_PCT: u64 = 115;

/// `harden::seeded_program` serials 0 to 47 on the golden-bytes seed.
fn seeded() -> Vec<Program> {
    let mut rng = harden::XorShift::new(0x5eed_ed60_1de2_b17e);
    (0..48)
        .map(|serial| harden::seeded_program(&mut rng, serial))
        .collect()
}

/// The DPF and ASH hot loops.
fn hot_loops() -> Vec<Program> {
    dpf::hotloop::corpus()
        .into_iter()
        .chain(ash::hotloop::corpus())
        .map(|(_, p, _)| p)
        .collect()
}

fn corpora() -> [Corpus; 2] {
    [
        // 84.71 + 182.71 = 267.41 a recorded op at 1588d22; 102.10 +
        // 183.40 = 285.50 (1.068x) since liveness rides the recording.
        Corpus {
            class: "seeded, 48 programs",
            programs: seeded,
            parent: [494601, 1066826],
        },
        // 94.32 + 206.06 = 300.38 at 1588d22; 108.54 + 213.98 = 322.52
        // (1.074x) since.
        Corpus {
            class: "DPF + ASH hot loops",
            programs: hot_loops,
            parent: [35560, 77684],
        },
    ]
}

/// A program as its arity, label count and ops: what a client holds
/// before it records.
type Listed = (usize, u16, Vec<POp>);

/// Records `listed` into `into` through the recording methods, one
/// call per op as 1588d22's figure was counted (it had no
/// `Program::record`).
#[inline(never)]
fn record_all(listed: &[Listed], into: &mut Vec<Program>) {
    for (args, labels, ops) in listed {
        let mut p = Program::new(*args).unwrap();
        for _ in 0..*labels {
            p.genlabel();
        }
        for &op in ops {
            match op {
                POp::Set { dst, imm } => p.set(dst, imm),
                POp::Bin { op, dst, a, b } => p.bin(op, dst, a, b),
                POp::BinImm { op, dst, a, imm } => p.bin_imm(op, dst, a, imm),
                POp::Un { op, dst, a } => p.un(op, dst, a),
                POp::Label { l } => p.label(l),
                POp::Br { cond, a, b, l } => p.br(cond, a, b, l),
                POp::BrImm { cond, a, imm, l } => p.br_imm(cond, a, imm, l),
                POp::Jmp { l } => p.jmp(l),
                POp::Ret { src } => p.ret(src),
            }
        }
        into.push(p);
    }
}

/// Lowers every program of `progs` into `mem` on x86-64.
#[inline(never)]
fn lower_all(progs: &[Program], mem: &mut [u8]) -> usize {
    progs
        .iter()
        .map(|p| replay::<X64>(p, mem).unwrap().len)
        .sum()
}

/// The `[record, lower]` steps of one corpus, and with `ips` the steps
/// per address of both.
fn corpus_steps(progs: &[Program], mut ips: Option<&mut BTreeMap<u64, u64>>) -> [u64; 2] {
    let listed: Vec<Listed> = progs
        .iter()
        .map(|p| (p.args(), p.labels(), p.ops().collect()))
        .collect();
    let mut mem = vec![0u8; progs.iter().map(Program::code_capacity).max().unwrap_or(0)];
    let mut recorded = Vec::with_capacity(listed.len());
    // Warm up: the thread's lowering tables and the allocator.
    record_all(&listed, &mut recorded);
    black_box(lower_all(&recorded, &mut mem));
    recorded.clear();
    let record = trace::count(
        || record_all(&listed, black_box(&mut recorded)),
        ips.as_deref_mut(),
    );
    // The child's programs died with it: record them here, uncounted.
    record_all(&listed, &mut recorded);
    let lower = trace::count(
        || {
            black_box(lower_all(&recorded, &mut mem));
        },
        ips,
    );
    [record, lower]
}

/// The raw single-step counter: Linux on x86-64, through the libc std
/// already links.
mod trace {
    use std::collections::BTreeMap;
    use std::ffi::{c_int, c_long, c_void};

    extern "C" {
        fn fork() -> c_int;
        fn ptrace(request: c_int, ...) -> c_long;
        fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
        fn raise(sig: c_int) -> c_int;
        fn kill(pid: c_int, sig: c_int) -> c_int;
        fn _exit(status: c_int) -> !;
    }

    const PTRACE_TRACEME: c_int = 0;
    const PTRACE_PEEKUSER: c_int = 3;
    const PTRACE_SINGLESTEP: c_int = 9;
    const SIGKILL: c_int = 9;
    const SIGTRAP: c_int = 5;
    const SIGSTOP: c_int = 19;
    /// `offsetof(struct user_regs_struct, rip)`.
    const RIP: usize = 16 * 8;

    fn null() -> *mut c_void {
        std::ptr::null_mut()
    }

    /// Waits for `pid` to stop; the stop signal, or `None` if it did not.
    fn wait_stop(pid: c_int) -> Option<c_int> {
        let mut status: c_int = 0;
        // SAFETY: `status` is a valid out-pointer; `pid` is our child.
        let r = unsafe { waitpid(pid, &mut status, 0) };
        (r == pid && status & 0xff == 0x7f).then_some((status >> 8) & 0xff)
    }

    /// Steps `f` from one `SIGSTOP` to the next in a forked child;
    /// returns the steps taken, and with `ips` the steps per address.
    pub fn count(f: impl FnOnce(), mut ips: Option<&mut BTreeMap<u64, u64>>) -> u64 {
        // SAFETY: the process is single-threaded (a plain binary, no
        // harness), so the child may run arbitrary code after `fork`.
        let pid = unsafe { fork() };
        assert!(pid >= 0, "fork failed");
        if pid == 0 {
            // SAFETY: the child asks to be traced by its parent, stops
            // for it, runs the body, stops again, and exits without
            // unwinding into the parent's state.
            unsafe {
                ptrace(PTRACE_TRACEME, 0, null(), null());
                raise(SIGSTOP);
                f();
                raise(SIGSTOP);
                _exit(0);
            }
        }
        assert_eq!(wait_stop(pid), Some(SIGSTOP), "child did not stop");
        let mut steps = 0u64;
        loop {
            // SAFETY: `pid` is a stopped tracee of this process; a zero
            // signal argument drops the pending stop.
            let r = unsafe { ptrace(PTRACE_SINGLESTEP, pid, null(), null()) };
            assert_eq!(r, 0, "PTRACE_SINGLESTEP failed");
            match wait_stop(pid) {
                Some(SIGTRAP) => steps += 1,
                Some(SIGSTOP) => break,
                other => panic!("traced child stopped with {other:?}"),
            }
            if let Some(ips) = ips.as_deref_mut() {
                // SAFETY: as above; PEEKUSER reads one word of the
                // tracee's saved registers.
                let rip = unsafe { ptrace(PTRACE_PEEKUSER, pid, RIP as *mut c_void, null()) };
                *ips.entry(rip as u64).or_default() += 1;
            }
        }
        // SAFETY: `pid` is our child; it is killed and reaped here.
        unsafe {
            kill(pid, SIGKILL);
            waitpid(pid, &mut 0, 0);
        }
        steps
    }
}

/// `count(n = 512) - count(n = 256)` for one body, and with `ips` the
/// per-address difference.
fn unit_steps(body: Body, mem: &mut [u8], ips: Option<&mut BTreeMap<u64, u64>>) -> u64 {
    // Warm up in the parent, so lazy statics and the allocator's first
    // growth are not counted in either child.
    for n in N {
        black_box(body(mem, n));
    }
    let mut at = [BTreeMap::new(), BTreeMap::new()];
    let record = ips.is_some();
    let [lo, hi] = [0, 1].map(|k| {
        let n = N[k];
        trace::count(
            || {
                black_box(body(mem, n));
            },
            record.then_some(&mut at[k]),
        )
    });
    if let Some(ips) = ips {
        let [lo_ips, hi_ips] = at;
        for (ip, c) in hi_ips {
            let d = c.saturating_sub(lo_ips.get(&ip).copied().unwrap_or(0));
            if d > 0 {
                ips.insert(ip, d);
            }
        }
    }
    hi - lo
}

/// Where one generated instruction's steps went: per address, then per
/// innermost inlined function, through `addr2line` on this binary.
fn attribute(class: &str, target: &str, ips: &BTreeMap<u64, u64>) {
    let base = load_base();
    let addrs: Vec<String> = ips.keys().map(|ip| format!("{:#x}", ip - base)).collect();
    let exe = std::env::current_exe().unwrap_or_default();
    let out = std::process::Command::new("addr2line")
        .args(["-f", "-i", "-C", "-a", "-e"])
        .arg(&exe)
        .args(&addrs)
        .output();
    let Ok(out) = out else {
        println!("  (addr2line not found: no attribution)");
        return;
    };
    let text = String::from_utf8_lossy(&out.stdout);
    // `-a` prints each address, then (function, file:line) pairs from
    // the innermost inlined frame out.
    let mut frames: BTreeMap<u64, (String, String)> = BTreeMap::new();
    let mut lines = text.lines().peekable();
    while let Some(addr) = lines.next() {
        let ip = u64::from_str_radix(addr.trim_start_matches("0x"), 16).unwrap_or(0) + base;
        let func = lines.next().unwrap_or("?").to_string();
        let loc = lines.next().unwrap_or("?").to_string();
        while lines.peek().is_some_and(|l| !l.starts_with("0x")) {
            lines.next();
        }
        frames.insert(ip, (short(&func), short_loc(&loc)));
    }
    let mut per_fn: BTreeMap<&str, u64> = BTreeMap::new();
    println!("\n-- one {class} on {target}: steps per address --");
    for (ip, c) in ips {
        let (func, loc) = frames.get(ip).map_or(("?", "?"), |(f, l)| (f, l));
        println!(
            "  {:>8} {:>6.2}  {func}  ({loc})",
            format!("{:#x}", ip - base),
            *c as f64 / UNIT
        );
        *per_fn.entry(func).or_default() += c;
    }
    println!("-- one {class} on {target}: steps per function --");
    let mut by_count: Vec<_> = per_fn.into_iter().collect();
    by_count.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    for (func, c) in by_count {
        println!("  {:>6.2}  {func}", c as f64 / UNIT);
    }
}

/// Where this executable is mapped (`ip - base` is a file address).
fn load_base() -> u64 {
    let exe = std::env::current_exe().unwrap_or_default();
    let maps = std::fs::read_to_string("/proc/self/maps").unwrap_or_default();
    maps.lines()
        .find(|l| l.ends_with(&*exe.to_string_lossy()) && l.split(' ').nth(2) == Some("00000000"))
        .and_then(|l| l.split('-').next())
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .unwrap_or(0)
}

/// A function path without its generic arguments and crate prefix.
fn short(func: &str) -> String {
    let mut out = String::new();
    let mut depth = 0;
    for ch in func.chars() {
        match ch {
            '<' => depth += 1,
            '>' => depth -= 1,
            _ if depth == 0 => out.push(ch),
            _ => {}
        }
    }
    out
}

/// `file:line` with the file's directories dropped.
fn short_loc(loc: &str) -> String {
    let loc = loc.split(" (").next().unwrap_or(loc);
    loc.rsplit('/').next().unwrap_or(loc).to_string()
}

/// One line of the table: a label and four per-target figures.
fn line(label: &str, v: [f64; 4]) {
    println!(
        "{label:<20} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
        v[0], v[1], v[2], v[3]
    );
}

/// Counts one body, prints its attribution with `attr`, and then
/// `steps <n>` as the last line. `main` runs this in a fresh process per
/// body (`--body <row> <target>`), so no count depends on the allocator
/// state that the bodies counted before it left behind.
fn measure(row: usize, k: usize, attr: bool) {
    let row = &rows()[row];
    let mut mem = vec![0u8; 64 * 1024];
    let mut ips = BTreeMap::new();
    let want_ips = attr && !row.class.contains("DCG");
    let steps = unit_steps(row.bodies[k], &mut mem, want_ips.then_some(&mut ips));
    if want_ips {
        attribute(row.class, TARGETS[k], &ips);
    }
    let len = (row.bodies[k])(&mut mem, N[1]).min(mem.len());
    println!("steps {steps} {}", digest64(&mem[..len]));
}

/// [`measure`] for one corpus (`--corpus <k>`): `steps <record> <lower>`.
fn measure_corpus(k: usize, attr: bool) {
    let corpus = &corpora()[k];
    let mut ips = BTreeMap::new();
    let [record, lower] = corpus_steps(&(corpus.programs)(), attr.then_some(&mut ips));
    if attr {
        attribute(corpus.class, TARGETS[0], &ips);
    }
    println!("steps {record} {lower}");
}

/// Runs this binary with `args` (plus `--attribute` with `attr`) and
/// returns what it printed before its last line, and the counts on it.
///
/// The child's stack starts at the same address in every run: address
/// randomisation is off for it alone (`personality`, as `setarch -R`
/// does), and what the kernel copies above the stack is the same bytes
/// wherever the binary lives and whatever the environment holds (the
/// path it runs as, `/proc/self/exe`; its `argv[0]`; no environment).
/// A copy of the assembler state takes a different number of steps at a
/// different alignment, so with the stack left to move one body read one
/// of two counts from run to run.
fn child(args: &[String], attr: bool) -> (String, Vec<u64>) {
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn personality(persona: std::ffi::c_ulong) -> std::ffi::c_int;
    }
    /// `ADDR_NO_RANDOMIZE` from `<sys/personality.h>`.
    const ADDR_NO_RANDOMIZE: std::ffi::c_ulong = 0x0004_0000;
    /// Asks `personality` for the current persona without setting it.
    const QUERY: std::ffi::c_ulong = 0xffff_ffff;
    let mut cmd = std::process::Command::new("/proc/self/exe");
    cmd.arg0("fig2")
        .args(args)
        .args(attr.then_some("--attribute"))
        .env_clear();
    // SAFETY: the hook runs in the forked child before `exec` and makes
    // two `personality` calls, which are plain system calls: async-signal
    // safe, no allocation, no lock, nothing of the parent's touched.
    unsafe {
        cmd.pre_exec(|| {
            match personality(personality(QUERY) as std::ffi::c_ulong | ADDR_NO_RANDOMIZE) {
                -1 => Err(std::io::Error::last_os_error()),
                _ => Ok(()),
            }
        });
    }
    let out = cmd.output().expect("run this binary on one body");
    let text = String::from_utf8_lossy(&out.stdout);
    let (notes, last) = text.trim_end().rsplit_once('\n').unwrap_or(("", &text));
    let steps: Option<Vec<u64>> = last.trim().strip_prefix("steps ").and_then(|counts| {
        counts
            .split(' ')
            .map(|n| n.parse().ok())
            .collect::<Option<_>>()
    });
    match steps {
        Some(steps) if out.status.success() => (notes.to_string(), steps),
        _ => panic!(
            "counting {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let attr = args.iter().any(|a| a == "--attribute");
    let arg = |flag: &str, i: usize| {
        let at = args.iter().position(|a| a == flag)?;
        args.get(at + i).and_then(|a| a.parse().ok())
    };
    if let Some(row) = arg("--body", 1) {
        measure(row, arg("--body", 2).expect("target"), attr);
        return;
    }
    if let Some(k) = arg("--corpus", 1) {
        measure_corpus(k, attr);
        return;
    }
    println!(
        "=== Figure 2, counted: host instructions per generated instruction \
         (steps of n={} minus n={}, over {UNIT}) ===",
        N[1], N[0]
    );
    println!(
        "{:<20} {:>9} {:>9} {:>9} {:>9}",
        "class", TARGETS[0], TARGETS[1], TARGETS[2], TARGETS[3]
    );
    let mut counted = Vec::new();
    let mut bad = Vec::new();
    let mut notes = String::new();
    for (i, row) in rows().iter().enumerate() {
        let (mut steps, mut digests) = ([0u64; 4], [0u64; 4]);
        for k in 0..4 {
            let (body_notes, got) = child(&["--body".into(), i.to_string(), k.to_string()], attr);
            (steps[k], digests[k]) = (got[0], got[1]);
            notes.push_str(&body_notes);
        }
        let bytes = digest64(&digests.map(u64::to_le_bytes).concat());
        if steps != row.pinned || bytes != row.bytes {
            let what = if bytes == row.bytes {
                "emitted bytes as pinned: only the host code moved".to_string()
            } else {
                format!("emitted bytes moved: {bytes:#x}, pinned {:#x}", row.bytes)
            };
            let class = row.class;
            bad.push(format!(
                "{class}: {steps:?} steps, pinned {:?}; {what}",
                row.pinned
            ));
        }
        let per = steps.map(|s| s as f64 / UNIT);
        line(row.class, per);
        counted.push((row.class, steps, per, bytes));
    }
    let per = |class: &str| counted.iter().find(|r| r.0 == class).unwrap().2;
    let (m, h, d) = (per("mix"), per("mix, hard regs"), per("mix through DCG"));
    line("§5.3: mix / hard", [0, 1, 2, 3].map(|k| m[k] / h[k]));
    line("DCG / mix", [0, 1, 2, 3].map(|k| d[k] / m[k]));
    println!("pins (steps from n={} to n={}):", N[0], N[1]);
    for (class, steps, _, bytes) in &counted {
        println!("  {class:<20} {steps:?} bytes {bytes:#x}");
    }
    println!(
        "=== record + lower on x86-64 over a corpus, per recorded op ===\n\
         {:<20} {:>9} {:>9} {:>9} {:>9}",
        "corpus", "ops", "record", "lower", "sum"
    );
    for (k, corpus) in corpora().iter().enumerate() {
        let (body_notes, got) = child(&["--corpus".into(), k.to_string()], attr);
        notes.push_str(&body_notes);
        let ops: usize = (corpus.programs)().iter().map(Program::len).sum();
        let per = |s: u64| s as f64 / ops as f64;
        println!(
            "{:<20} {ops:>9} {:>9.2} {:>9.2} {:>9.2}   steps {got:?}",
            corpus.class,
            per(got[0]),
            per(got[1]),
            per(got[0] + got[1])
        );
        let (now, then) = (got[0] + got[1], corpus.parent[0] + corpus.parent[1]);
        println!(
            "  {:.3}x of 1588d22's {:?}",
            now as f64 / then as f64,
            corpus.parent
        );
        if now * 100 > then * BAR_PCT {
            bad.push(format!(
                "{}: record + lower {now} steps, over {BAR_PCT} % of 1588d22's {then}",
                corpus.class
            ));
        }
    }
    print!("{notes}");
    if check && !bad.is_empty() {
        eprintln!("Figure 2 counts moved off their pins or over their bar:");
        for b in &bad {
            eprintln!("  {b}");
        }
        eprintln!(
            "re-pin `rows()` in crates/bench/src/bin/fig2.rs if the change is \
             meant, and record why; `corpora()` holds a bar, not a pin"
        );
        std::process::exit(1);
    }
}
