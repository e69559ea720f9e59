//! Seeded input generators: programs for the lambda and codegen
//! workloads, filters and packets for the DPF workloads, Zipf ranks.
//! The product only ever sees what these produce.

use crate::util::Rng;
use dpf::packet::{self, PacketSpec};
use dpf::Filter;
use vcode::engine::Program;
use vcode::{BinOp, Cond, UnOp};

/// Interpreter step budget for one generated program: the longest body
/// is 256 instructions and loops run at most 8 times.
pub const FUEL: u64 = 1_000_000;

/// Virtual registers: v0/v1 are the arguments, v2..=v6 temporaries and
/// v7 the loop counter, which ordinary instructions never touch. Eight
/// fit every backend's temp file (the hot-loop corpus uses nine).
const TEMPS: u64 = 7;
const COUNTER: u8 = 7;

struct Body<'a> {
    p: Program,
    rng: &'a mut Rng,
    /// Registers already written: the interpreter zeroes virtual
    /// registers and native code does not, so only these are read.
    init: Vec<u8>,
}

impl Body<'_> {
    fn src(&mut self) -> u8 {
        self.init[self.rng.below(self.init.len() as u64) as usize]
    }

    /// A destination. Inside a skipped region or a loop (`fresh` false)
    /// only registers that are already defined, so every path leaves
    /// the same set defined.
    fn dst(&mut self, fresh: bool) -> u8 {
        if !fresh {
            return self.src();
        }
        let d = self.rng.below(TEMPS) as u8;
        if !self.init.contains(&d) {
            self.init.push(d);
        }
        d
    }

    /// One straight-line instruction on which the interpreter and every
    /// backend agree: divisors are immediates >= 2 (no trap, no
    /// MIN / -1), shift counts are immediates below 32.
    fn simple(&mut self, fresh: bool) {
        const ALU: [BinOp; 6] = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
        ];
        // One instruction in forty divides: enough to keep the slow path
        // in every program's code, too few for `idiv`'s latency to make
        // one program's call several times dearer than another's.
        match self.rng.below(40) {
            0..=3 => {
                let d = self.dst(fresh);
                let imm = self.rng.next_u64() as i32;
                self.p.set(d, imm);
            }
            4..=15 => {
                let op = ALU[self.rng.below(6) as usize];
                let (a, b) = (self.src(), self.src());
                let d = self.dst(fresh);
                self.p.bin(op, d, a, b);
            }
            16..=26 => {
                let op = ALU[self.rng.below(6) as usize];
                // Half small immediates, half ones that need the
                // backends' large-constant synthesis.
                let imm = if self.rng.below(2) == 0 {
                    self.rng.range(0, 2000) as i32 - 1000
                } else {
                    self.rng.next_u64() as i32
                };
                let a = self.src();
                let d = self.dst(fresh);
                self.p.bin_imm(op, d, a, imm);
            }
            27 => {
                let op = if self.rng.below(2) == 0 {
                    BinOp::Div
                } else {
                    BinOp::Mod
                };
                let imm = self.rng.range(2, 500) as i32;
                let a = self.src();
                let d = self.dst(fresh);
                self.p.bin_imm(op, d, a, imm);
            }
            28..=33 => {
                let op = if self.rng.below(2) == 0 {
                    BinOp::Lsh
                } else {
                    BinOp::Rsh
                };
                let imm = self.rng.below(32) as i32;
                let a = self.src();
                let d = self.dst(fresh);
                self.p.bin_imm(op, d, a, imm);
            }
            _ => {
                const UN: [UnOp; 4] = [UnOp::Com, UnOp::Not, UnOp::Mov, UnOp::Neg];
                let op = UN[self.rng.below(4) as usize];
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
        let a = self.src();
        if self.rng.below(2) == 0 {
            let b = self.src();
            self.p.br(cond, a, b, over);
        } else {
            let imm = self.rng.range(0, 200) as i32 - 100;
            self.p.br_imm(cond, a, imm, over);
        }
        for _ in 0..self.rng.range(1, 3) {
            self.simple(false);
        }
        self.p.label(over);
    }

    /// A counted loop: two to eight trips over two to six instructions.
    fn counted_loop(&mut self) {
        let top = self.p.genlabel();
        self.p.set(COUNTER, self.rng.range(2, 8) as i32);
        self.p.label(top);
        for _ in 0..self.rng.range(2, 6) {
            self.simple(false);
        }
        self.p.bin_imm(BinOp::Sub, COUNTER, COUNTER, 1);
        self.p.br_imm(Cond::Gt, COUNTER, 0, top);
    }
}

/// A terminating two-argument program of 16 to 256 instructions: ALU
/// operations, small and large immediates, forward branches and
/// bounded loops. `serial` is planted in the first instruction, so two
/// programs of one run never share a cache key.
pub fn program(rng: &mut Rng, serial: u32) -> Program {
    let mut b = Body {
        p: Program::new(2).expect("two arguments are within MAX_PROGRAM_ARGS"),
        rng,
        init: vec![0, 1, 2],
    };
    b.p.set(2, serial as i32);
    let target = b.rng.range(16, 256) as usize;
    // Leave room for the longest construct (a loop: 10) and the `ret`.
    while b.p.len() + 11 < target {
        match b.rng.below(12) {
            0 => b.counted_loop(),
            1 | 2 => b.skip(),
            _ => b.simple(true),
        }
    }
    while b.p.len() + 1 < target {
        b.simple(true);
    }
    let r = b.src();
    b.p.ret(r);
    b.p
}

/// A generated program with the arguments it is called with and the
/// answer `Program::interpret` gives for them — the oracle every
/// compiled form is checked against.
#[derive(Debug)]
pub struct Case {
    pub prog: Program,
    pub args: [i32; 2],
    /// `None` when the interpreter itself refused the program; such a
    /// case counts as a failed operation, never a panic.
    pub want: Option<i64>,
}

pub fn case(rng: &mut Rng, serial: u32) -> Case {
    let prog = program(rng, serial);
    let args = [rng.next_u64() as i32, rng.range(0, 4096) as i32 - 2048];
    let want = prog.interpret(&args, FUEL).ok();
    Case { prog, args, want }
}

/// Ranks `0..n` drawn Zipf(s = 1): rank r has weight 1 / (r + 1).
pub fn zipf_ranks(rng: &mut Rng, n: usize, count: usize) -> Vec<u16> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for r in 0..n {
        acc += 1.0 / (r + 1) as f64;
        cdf.push(acc);
    }
    (0..count)
        .map(|_| {
            let u = rng.unit() * acc;
            cdf.partition_point(|&c| c <= u).min(n - 1) as u16
        })
        .collect()
}

/// Destination address every filter and every matching packet uses.
const DST_IP: u32 = 0x0a00_0002;

/// The DPF workloads' inputs: a resident filter set, a ring of churn
/// ports no packet ever targets, and a packet trace with the id each
/// packet must classify to while exactly the resident set (plus any
/// churn filter) is installed.
#[derive(Debug)]
pub struct Traffic {
    pub resident: Vec<u16>,
    pub churn: Vec<u16>,
    pub packets: Vec<Vec<u8>>,
}

/// Resident filters of the DPF workloads. Not 64: `dpf::compile` picks
/// its perfect-hash multiplier by random search, which at 64 keys is
/// 10 000 futile tries on every compile and at 65 a lottery of about
/// 3 000 whose length depends on the key set — install latency then
/// varies twofold with the seed. At 34 and 35 keys the search takes
/// some 150 tries and the compile time is steady. The sweep rows of the
/// traced `dpf_static` run show the cost at the other sizes.
pub const RESIDENT_FILTERS: usize = 33;
pub const CHURN_PORTS: usize = 512;
pub const PACKETS: usize = 4096;

pub fn port_filter(port: u16) -> Filter {
    packet::tcp_port_filter(DST_IP, port).expect("constant offsets make a valid filter")
}

/// `n` distinct ports, none in `taken`.
fn distinct_ports(
    rng: &mut Rng,
    n: usize,
    taken: &mut std::collections::BTreeSet<u16>,
) -> Vec<u16> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let p = rng.range(1024, 65_000) as u16;
        if taken.insert(p) {
            out.push(p);
        }
    }
    out
}

/// 85 % of packets go to a uniformly random resident port — random, so
/// the branch predictor cannot learn the trace the way it learns a
/// short cyclic one — and 15 % match nothing: an unknown port, UDP to a
/// resident port, or a non-IP frame.
pub fn traffic(rng: &mut Rng, filters: usize) -> Traffic {
    let mut taken = std::collections::BTreeSet::new();
    let resident = distinct_ports(rng, filters, &mut taken);
    let churn = distinct_ports(rng, CHURN_PORTS, &mut taken);
    let packets = (0..PACKETS)
        .map(|_| {
            let port = resident[rng.below(resident.len() as u64) as usize];
            let spec = PacketSpec {
                dst_ip: DST_IP,
                dst_port: port,
                src_port: rng.range(1024, 65_000) as u16,
                ..PacketSpec::default()
            };
            if rng.below(100) < 85 {
                return packet::build(&spec);
            }
            match rng.below(3) {
                0 => loop {
                    let p = rng.range(1024, 65_000) as u16;
                    if !taken.contains(&p) {
                        break packet::build(&PacketSpec {
                            dst_port: p,
                            ..spec
                        });
                    }
                },
                1 => packet::build(&PacketSpec {
                    proto: packet::IPPROTO_UDP,
                    ..spec
                }),
                _ => {
                    let mut arp = packet::build(&spec);
                    arp[packet::ETH_TYPE_OFF as usize..][..2].copy_from_slice(&[0x08, 0x06]);
                    arp
                }
            }
        })
        .collect();
    Traffic {
        resident,
        churn,
        packets,
    }
}

/// The id `msg` must classify to: a scan with `Filter::matches`, which
/// shares nothing with the trie, the compiler or the interpreter.
pub fn oracle_id(filters: &[(u32, Filter)], msg: &[u8]) -> Option<u32> {
    filters
        .iter()
        .find(|(_, f)| f.matches(msg))
        .map(|(id, _)| *id)
}
