//! Workspace integration: tier-2 as a library (`vcode::tier2`).
//!
//! Differential contract, four columns per backend (x86-64 natively,
//! MIPS/SPARC/Alpha on their simulators): `Program::interpret` =
//! `replay(p)` = `replay_opt(p)` = `replay_opt(optimize(p))`. The third
//! column runs linear scan on the *un*optimized stream, so a register
//! mapper bug cannot hide behind (or be blamed on) the optimizer. The
//! corpus is fixed kernels plus generated programs with bounded loops,
//! nested to depth two, and forward skips inside them.
//!
//! The engine serves tier-1 code only, so the lambdas here are built from
//! the two library functions directly.
//!
//! Generated programs keep divisors provably nonzero (`| 1` masking or
//! nonzero immediates): the native x86-64 engine path is unguarded, so
//! a div-by-zero would fault the test process rather than return a
//! typed error. Trap *preservation* is covered by the interpreter-level
//! unit tests in `vcode::tier2` and the simulator cases here.

use std::sync::Arc;
use vcode::engine::{replay, Lambda, POp, Program, TargetId};
use vcode::regress::XorShift;
use vcode::target::Finished;
use vcode::tier2::{optimize, replay_opt};
use vcode::{BinOp, Cond, EngineError, UnOp};
use vcode_alpha::Alpha;
use vcode_mips::Mips;
use vcode_sim::engine::{AlphaBackend, MipsBackend, SparcBackend};
use vcode_sparc::Sparc;
use vcode_x64::{X64Backend, X64};

type Lower = fn(&Program, &mut [u8]) -> Result<Finished, EngineError>;

/// The two lowerings of one target: first touch, linear scan.
fn lowerings(id: TargetId) -> (Lower, Lower) {
    match id {
        TargetId::Mips => (replay::<Mips>, replay_opt::<Mips>),
        TargetId::Sparc => (replay::<Sparc>, replay_opt::<Sparc>),
        TargetId::Alpha => (replay::<Alpha>, replay_opt::<Alpha>),
        TargetId::X64 => (replay::<X64>, replay_opt::<X64>),
    }
}

/// A callable lambda of `p` on `id` from `lower`'s bytes: executable
/// memory on x86-64, a simulator image for the other three.
fn build(id: TargetId, p: &Program, lower: Lower) -> Result<Arc<dyn Lambda>, EngineError> {
    match id {
        TargetId::Mips => MipsBackend::default().compile_with(p, lower),
        TargetId::Sparc => SparcBackend::default().compile_with(p, lower),
        TargetId::Alpha => AlphaBackend::default().compile_with(p, lower),
        TargetId::X64 => X64Backend.compile_with(p, lower),
    }
}

/// `|x + y| * 3`: arithmetic, an immediate form, a branch, a temp.
fn abs_times_3() -> Program {
    let mut p = Program::new(2).unwrap();
    p.bin(BinOp::Add, 2, 0, 1);
    let skip = p.genlabel();
    p.br_imm(Cond::Ge, 2, 0, skip);
    p.un(UnOp::Neg, 2, 2);
    p.label(skip);
    p.bin_imm(BinOp::Mul, 2, 2, 3);
    p.ret(2);
    p
}

/// Counted loop: sum of squares 1..=n (0 for n <= 0), with the
/// redundancy a naive frontend leaves (copies, re-stores, `addi 0`).
fn sum_squares_loop() -> Program {
    let mut p = Program::new(1).unwrap();
    let top = p.genlabel();
    let done = p.genlabel();
    p.set(1, 0); // sum
    p.bin_imm(BinOp::Add, 1, 1, 0); // redundant identity
    p.un(UnOp::Mov, 2, 0); // i = n
    p.un(UnOp::Mov, 2, 2); // self-move
    p.label(top);
    p.br_imm(Cond::Le, 2, 0, done);
    p.bin(BinOp::Mul, 3, 2, 2);
    p.bin(BinOp::Add, 1, 1, 3);
    p.bin_imm(BinOp::Sub, 2, 2, 1);
    p.jmp(top);
    p.label(done);
    p.ret(1);
    p
}

/// Compare-chain classifier in the DPF shape: a ladder of immediate
/// compares, each arm setting a class id and jumping to the exit.
fn classify_ladder() -> Program {
    let mut p = Program::new(1).unwrap();
    let exit = p.genlabel();
    for (k, bound) in [(1i32, 10i32), (2, 100), (3, 1000)] {
        let next = p.genlabel();
        p.br_imm(Cond::Ge, 0, bound, next);
        p.set(1, k);
        p.jmp(exit);
        p.label(next);
    }
    p.set(1, 0);
    p.label(exit);
    p.ret(1);
    p
}

/// Constant-heavy kernel: everything below the final combine folds.
fn const_heavy() -> Program {
    let mut p = Program::new(1).unwrap();
    p.set(1, 6);
    p.bin_imm(BinOp::Mul, 1, 1, 7);
    p.set(2, 100);
    p.bin(BinOp::Add, 2, 2, 1);
    p.bin_imm(BinOp::And, 2, 2, -1);
    p.bin(BinOp::Xor, 3, 0, 2);
    p.ret(3);
    p
}

/// Division with divisors forced nonzero — safe on the unguarded
/// native path while still exercising Div/Mod through tier-2.
fn safe_division() -> Program {
    let mut p = Program::new(2).unwrap();
    p.bin_imm(BinOp::Or, 2, 1, 1); // divisor | 1 != 0
    p.bin(BinOp::Div, 3, 0, 2);
    p.bin_imm(BinOp::Mod, 3, 3, 7);
    p.bin(BinOp::Add, 3, 3, 2);
    p.ret(3);
    p
}

/// Generator state for [`random_program`]. Two discipline rules keep a
/// program inside semantics every column defines identically: sources
/// are only ever registers already written (the interpreter zeroes
/// virtual registers, native code does not), and divisors are positive
/// immediates >= 2 (no div-by-zero, no MIN/-1 overflow — edges where
/// real ISAs and the word-portable interpreter legitimately disagree).
struct Gen<'a> {
    p: Program,
    rng: &'a mut XorShift,
    /// Registers already written.
    init: Vec<u8>,
}

/// Data registers are v0..v5; v6 counts an outer loop and v7 the loop
/// nested in it, and nothing else touches those two.
const DATA_REGS: u64 = 6;
const COUNTERS: [u8; 2] = [6, 7];

impl Gen<'_> {
    fn src(&mut self) -> u8 {
        self.init[self.rng.below(self.init.len() as u64) as usize]
    }

    /// A destination. Inside a skipped region (`fresh` false) only an
    /// already-written register, so every path through the program
    /// leaves the same set defined. (A loop body runs at least once, so
    /// it may define registers.)
    fn dst(&mut self, fresh: bool) -> u8 {
        if !fresh {
            return self.src();
        }
        let d = self.rng.below(DATA_REGS) as u8;
        if !self.init.contains(&d) {
            self.init.push(d);
        }
        d
    }

    /// One straight-line instruction — or, one time in ten, none: a
    /// register is forgotten (never read again unless rewritten), so
    /// live ranges end mid-program, inside loops too, and linear scan has
    /// machine registers to hand on to the vregs defined after.
    fn simple(&mut self, fresh: bool) {
        match self.rng.below(10) {
            9 if self.init.len() > 2 => {
                let at = self.rng.below(self.init.len() as u64) as usize;
                self.init.swap_remove(at);
            }
            0 => {
                let d = self.dst(fresh);
                let imm = self.rng.next_u64() as i32;
                self.p.set(d, imm);
            }
            1..=4 => {
                let op = match self.rng.below(5) {
                    0 => BinOp::Add,
                    1 => BinOp::Sub,
                    2 => BinOp::Mul,
                    3 => BinOp::Xor,
                    _ => BinOp::Or,
                };
                let (a, b) = (self.src(), self.src());
                let d = self.dst(fresh);
                self.p.bin(op, d, a, b);
            }
            5 => {
                let imm = self.rng.range(0, 2000) as i32 - 1000;
                let a = self.src();
                let d = self.dst(fresh);
                self.p.bin_imm(BinOp::Add, d, a, imm);
            }
            6 => {
                let imm = self.rng.range(2, 500) as i32;
                let op = if self.rng.below(2) == 0 {
                    BinOp::Div
                } else {
                    BinOp::Mod
                };
                let a = self.src();
                let d = self.dst(fresh);
                self.p.bin_imm(op, d, a, imm);
            }
            7 => {
                let imm = self.rng.below(31) as i32;
                let a = self.src();
                let d = self.dst(fresh);
                self.p.bin_imm(BinOp::Lsh, d, a, imm);
            }
            _ => {
                let op = match self.rng.below(4) {
                    0 => UnOp::Com,
                    1 => UnOp::Not,
                    2 => UnOp::Mov,
                    _ => UnOp::Neg,
                };
                let a = self.src();
                let d = self.dst(fresh);
                self.p.un(op, d, a);
            }
        }
    }

    /// A forward branch over one to three instructions.
    fn skip(&mut self) {
        const CONDS: [Cond; 6] = [Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge, Cond::Eq, Cond::Ne];
        let over = self.p.genlabel();
        let cond = CONDS[self.rng.below(6) as usize];
        let (a, b) = (self.src(), self.src());
        self.p.br(cond, a, b, over);
        for _ in 0..self.rng.range(1, 4) {
            self.simple(false);
        }
        self.p.label(over);
    }

    /// A counted loop at nesting `depth` (0 or 1): two to five trips
    /// over two to five items, each an instruction, a skip or — at depth
    /// 0 — a nested loop.
    fn counted_loop(&mut self, depth: usize) {
        let counter = COUNTERS[depth];
        let top = self.p.genlabel();
        self.p.set(counter, self.rng.range(2, 6) as i32);
        self.p.label(top);
        for _ in 0..self.rng.range(2, 6) {
            match self.rng.below(6) {
                0 if depth == 0 => self.counted_loop(1),
                1 => self.skip(),
                _ => self.simple(true),
            }
        }
        self.p.bin_imm(BinOp::Sub, counter, counter, 1);
        self.p.br_imm(Cond::Gt, counter, 0, top);
    }
}

/// A random terminating two-argument program: straight-line ops over six
/// registers, forward skips, and bounded counted loops nested up to
/// depth two with skips inside — so the linear scan's loop extension
/// (`LiveIntervals::extend_loop`) meets generated back edges, not just
/// the fixed corpus's.
fn random_program(rng: &mut XorShift) -> Program {
    let mut g = Gen {
        p: Program::new(2).unwrap(),
        rng,
        init: vec![0, 1],
    };
    for _ in 0..g.rng.range(4, 28) {
        match g.rng.below(11) {
            0 => g.counted_loop(0),
            1 | 2 => g.skip(),
            _ => g.simple(true),
        }
    }
    let r = g.src();
    g.p.ret(r);
    g.p
}

fn fixed_corpus() -> Vec<(&'static str, Program, Vec<Vec<i32>>)> {
    vec![
        (
            "abs_times_3",
            abs_times_3(),
            vec![
                vec![3, 4],
                vec![-10, 2],
                vec![0, 0],
                vec![1000, -2000],
                vec![i32::MAX, 1],
            ],
        ),
        (
            "sum_squares_loop",
            sum_squares_loop(),
            vec![vec![0], vec![1], vec![10], vec![-5], vec![100]],
        ),
        (
            "classify_ladder",
            classify_ladder(),
            vec![vec![5], vec![50], vec![500], vec![5000], vec![-1]],
        ),
        (
            "const_heavy",
            const_heavy(),
            vec![vec![0], vec![12345], vec![-1]],
        ),
        (
            "safe_division",
            safe_division(),
            vec![vec![100, 7], vec![-100, 6], vec![i32::MIN, 2], vec![7, 0]],
        ),
    ]
}

/// The differential core: for one program on one backend, the
/// interpreter and the three compiled columns agree on every argument
/// tuple.
fn assert_columns_agree(id: TargetId, name: &str, p: &Program, cases: &[Vec<i32>]) {
    let (first_touch, linear_scan) = lowerings(id);
    let (opt, _) = optimize(p);
    let columns = [
        ("replay", p, first_touch),
        ("replay_opt", p, linear_scan),
        ("optimize + replay_opt", &opt, linear_scan),
    ]
    .map(|(col, p, lower)| {
        let l = build(id, p, lower).unwrap_or_else(|er| panic!("{name}/{id} {col}: {er}"));
        (col, l)
    });
    assert!(
        columns[2].1.insns() <= columns[0].1.insns(),
        "{name}/{id}: tier-2 grew the code ({} -> {} insns)",
        columns[0].1.insns(),
        columns[2].1.insns()
    );
    for args in cases {
        let want = p
            .interpret(args, 10_000_000)
            .unwrap_or_else(|er| panic!("{name} interpret({args:?}): {er}"));
        for (col, l) in &columns {
            assert_eq!(l.call(args).unwrap(), want, "{name}/{id} {col} on {args:?}");
        }
    }
}

#[test]
fn tier2_matches_tier1_and_interpreter_on_all_backends() {
    for (name, p, cases) in fixed_corpus() {
        for id in TargetId::ALL {
            assert_columns_agree(id, name, &p, &cases);
        }
    }
}

#[test]
fn tier2_matches_on_random_programs_all_backends() {
    let mut rng = XorShift::new(0x7b15_2000);
    let inputs: Vec<Vec<i32>> = vec![
        vec![0, 0],
        vec![1, -1],
        vec![12345, -678],
        vec![-7, 3],
        vec![i32::MAX, i32::MIN],
    ];
    let mut back_edges = 0;
    for case in 0..RANDOM_PROGRAMS {
        let p = random_program(&mut rng);
        // The generator's only `BrImm` closes a counted loop.
        let closes_loop = |o: &POp| matches!(o, POp::BrImm { .. });
        back_edges += p.ops().filter(closes_loop).count();
        for id in TargetId::ALL {
            assert_columns_agree(id, &format!("rand{case}"), &p, &inputs);
        }
    }
    assert!(
        back_edges >= RANDOM_PROGRAMS,
        "the generator must keep producing loops ({back_edges} back edges)"
    );
}

/// Generated programs in the default lane: about a second in a debug
/// build (3 000 in release, about 9 s, found nothing either).
const RANDOM_PROGRAMS: usize = 200;

#[test]
fn simulated_div_by_zero_behaves_identically_in_both_tiers() {
    // Div with an unknown, actually-zero divisor: the optimizer may not
    // delete or fold the instruction, so whatever each simulated ISA
    // does with it (typed trap or an architecturally-unpredictable
    // result) must be byte-identical across tiers.
    let mut p = Program::new(2).unwrap();
    p.bin(BinOp::Div, 2, 0, 1);
    p.ret(2);
    for id in [TargetId::Mips, TargetId::Sparc, TargetId::Alpha] {
        let (first_touch, linear_scan) = lowerings(id);
        let t1 = build(id, &p, first_touch).unwrap();
        let t2 = build(id, &optimize(&p).0, linear_scan).unwrap();
        assert_eq!(t1.call(&[10, 2]).unwrap(), 5, "{id}");
        assert_eq!(t2.call(&[10, 2]).unwrap(), 5, "{id}");
        match (t1.call(&[10, 0]), t2.call(&[10, 0])) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{id} div-zero results diverge"),
            (Err(_), Err(_)) => {}
            (a, b) => panic!("{id} tiers diverge on div-zero: {a:?} vs {b:?}"),
        }
    }
}
