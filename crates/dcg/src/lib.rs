//! # dcg — an IR-tree dynamic code generator (the VCODE paper's baseline)
//!
//! A reproduction of DCG (Engler & Proebsting, *"DCG: An efficient,
//! retargetable dynamic code generation system"*, ASPLOS 1994), the
//! system VCODE descends from and is compared against: "Compared to DCG,
//! VCODE is both substantially simpler and approximately 35 times faster.
//! Both of these benefits come from eschewing an intermediate
//! representation during code generation; in contrast, DCG builds and
//! consumes IR-trees at runtime" (paper §2).
//!
//! This crate exists to reproduce that comparison. Clients describe code
//! as expression trees ([`Fun::binop`], [`Fun::load`], ...) which are
//! *allocated at runtime*, then [`Fun::compile`] walks the trees doing
//! pattern-directed instruction selection (maximal munch with
//! constant-operand folding into immediate forms) and register
//! allocation, emitting through the same `vcode` backends. The space and
//! time proportional to the number of IR nodes is exactly the overhead
//! VCODE's in-place generation eliminates.
//!
//! ```
//! use dcg::Fun;
//! use vcode::{Leaf, Ty};
//! use vcode::fake::FakeTarget;
//!
//! // int plus1(int x) { return x + 1; }
//! let mut f = Fun::new("%i")?;
//! let x = f.arg(0);
//! let one = f.consti(1);
//! let sum = f.binop(vcode::BinOp::Add, Ty::I, x, one);
//! f.ret(Ty::I, sum);
//! let mut mem = vec![0u8; 1024];
//! let fin = f.compile::<FakeTarget>(&mut mem, Leaf::Yes)?;
//! assert!(fin.len > 0);
//! # Ok::<(), dcg::DcgError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use vcode::target::{JumpTarget, Leaf};
use vcode::{Assembler, BinOp, Cond, Error, Finished, Reg, RegClass, Sig, Target, Ty, UnOp};

/// Reference to an expression node within a [`Fun`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeId(u32);

/// A label in the statement stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelId(u32);

/// An expression-tree node — this is the intermediate representation
/// whose construction and consumption at runtime VCODE eliminates.
#[derive(Debug, Clone)]
enum Node {
    Arg(usize),
    ConstI(Ty, i64),
    ConstF32(f32),
    ConstF64(f64),
    Binop(BinOp, Ty, NodeId, NodeId),
    Unop(UnOp, Ty, NodeId),
    Cvt(Ty, Ty, NodeId),
    Load(Ty, NodeId, i32),
}

/// A statement (the roots of the expression trees).
#[derive(Debug, Clone)]
enum Stmt {
    Store(Ty, NodeId, i32, NodeId),
    Ret(Ty, NodeId),
    RetVoid,
    Branch(Cond, Ty, NodeId, NodeId, LabelId),
    Jump(LabelId),
    Bind(LabelId),
}

/// Error from building or compiling a function.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DcgError {
    /// Underlying code-generation error.
    Codegen(Error),
    /// Ran out of registers while evaluating a tree (tree too deep for
    /// the simple Sethi–Ullman-free allocator).
    OutOfRegisters,
    /// Malformed signature string.
    BadSignature(vcode::SigParseError),
}

impl fmt::Display for DcgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DcgError::Codegen(e) => write!(f, "{e}"),
            DcgError::OutOfRegisters => write!(f, "expression tree exhausted the register file"),
            DcgError::BadSignature(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DcgError {}

impl From<Error> for DcgError {
    fn from(e: Error) -> DcgError {
        DcgError::Codegen(e)
    }
}

impl From<vcode::SigParseError> for DcgError {
    fn from(e: vcode::SigParseError) -> DcgError {
        DcgError::BadSignature(e)
    }
}

/// A function under construction: a forest of expression trees plus a
/// statement list.
#[derive(Debug)]
pub struct Fun {
    sig: Sig,
    nodes: Vec<Node>,
    stmts: Vec<Stmt>,
    labels: u32,
}

impl Fun {
    /// Starts a function with a paper-style type string (`"%i%p"`).
    ///
    /// # Errors
    ///
    /// [`DcgError::BadSignature`] on a malformed string.
    pub fn new(type_str: &str) -> Result<Fun, DcgError> {
        Ok(Fun {
            sig: Sig::parse(type_str)?,
            nodes: Vec::new(),
            stmts: Vec::new(),
            labels: 0,
        })
    }

    fn push(&mut self, n: Node) -> NodeId {
        self.nodes.push(n);
        NodeId(self.nodes.len() as u32 - 1)
    }

    /// The `i`-th incoming argument.
    pub fn arg(&mut self, i: usize) -> NodeId {
        self.push(Node::Arg(i))
    }

    /// An `int` constant.
    pub fn consti(&mut self, v: i32) -> NodeId {
        self.push(Node::ConstI(Ty::I, i64::from(v)))
    }

    /// A word-sized constant of the given integer type.
    pub fn constl(&mut self, ty: Ty, v: i64) -> NodeId {
        self.push(Node::ConstI(ty, v))
    }

    /// A `float` constant.
    pub fn constf(&mut self, v: f32) -> NodeId {
        self.push(Node::ConstF32(v))
    }

    /// A `double` constant.
    pub fn constd(&mut self, v: f64) -> NodeId {
        self.push(Node::ConstF64(v))
    }

    /// A binary operation node.
    pub fn binop(&mut self, op: BinOp, ty: Ty, l: NodeId, r: NodeId) -> NodeId {
        self.push(Node::Binop(op, ty, l, r))
    }

    /// A unary operation node.
    pub fn unop(&mut self, op: UnOp, ty: Ty, e: NodeId) -> NodeId {
        self.push(Node::Unop(op, ty, e))
    }

    /// A conversion node.
    pub fn cvt(&mut self, from: Ty, to: Ty, e: NodeId) -> NodeId {
        self.push(Node::Cvt(from, to, e))
    }

    /// A typed load `*(ty*)(addr + off)`.
    pub fn load(&mut self, ty: Ty, addr: NodeId, off: i32) -> NodeId {
        self.push(Node::Load(ty, addr, off))
    }

    /// A typed store statement `*(ty*)(addr + off) = value`.
    pub fn store(&mut self, ty: Ty, addr: NodeId, off: i32, value: NodeId) {
        self.stmts.push(Stmt::Store(ty, addr, off, value));
    }

    /// Return-with-value statement.
    pub fn ret(&mut self, ty: Ty, value: NodeId) {
        self.stmts.push(Stmt::Ret(ty, value));
    }

    /// Return-void statement.
    pub fn ret_void(&mut self) {
        self.stmts.push(Stmt::RetVoid);
    }

    /// Creates a fresh label.
    pub fn label(&mut self) -> LabelId {
        self.labels += 1;
        LabelId(self.labels - 1)
    }

    /// Places `l` at the current point in the statement stream.
    pub fn bind(&mut self, l: LabelId) {
        self.stmts.push(Stmt::Bind(l));
    }

    /// Conditional branch statement.
    pub fn branch(&mut self, cond: Cond, ty: Ty, l: NodeId, r: NodeId, target: LabelId) {
        self.stmts.push(Stmt::Branch(cond, ty, l, r, target));
    }

    /// Unconditional jump statement.
    pub fn jump(&mut self, target: LabelId) {
        self.stmts.push(Stmt::Jump(target));
    }

    /// Number of IR nodes currently allocated (the space VCODE does not
    /// spend — used by the space-behaviour experiment).
    pub fn ir_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.stmts.capacity() * std::mem::size_of::<Stmt>()
    }

    /// Compiles the function into `mem` for target `T`: the passes over
    /// the intermediate representation that VCODE eliminates.
    ///
    /// Faithful to DCG's BURS discipline, compilation is two passes over
    /// every tree: a bottom-up *label* pass computing per-node cost
    /// state (heap-allocated per node, as BURG-generated matchers
    /// allocate state records), then a top-down *reduce* pass that emits
    /// code following the selected rules.
    ///
    /// # Errors
    ///
    /// [`DcgError::OutOfRegisters`] when a tree is too deep for the
    /// simple allocator, or any backend error.
    pub fn compile<T: Target>(&self, mem: &mut [u8], leaf: Leaf) -> Result<Finished, DcgError> {
        let mut a = Assembler::<T>::lambda_sig(mem, self.sig.clone(), leaf)?;
        self.reduce(&mut a)?;
        Ok(a.end()?)
    }

    /// Labels the trees, then reduces them into the open session `a`.
    fn reduce<T: Target>(&self, a: &mut Assembler<'_, T>) -> Result<(), DcgError> {
        let labels: Vec<vcode::Label> = (0..self.labels).map(|_| a.genlabel()).collect();
        // Pass 1: label.
        let states = self.label_pass();
        let mut cg = Codegen {
            fun: self,
            labels,
            states,
            temps: Vec::new(),
        };
        // Pass 2: reduce (emit).
        for stmt in &self.stmts {
            cg.stmt(a, stmt)?;
        }
        Ok(())
    }

    /// The BURS label pass: computes, for every node, the cost of
    /// deriving each nonterminal (`reg`, `imm`) and the rule achieving
    /// it. Nodes are numbered in creation order, so children always
    /// precede parents and one forward sweep suffices.
    // The boxing is the point: per-node heap-allocated state is the
    // DCG baseline behaviour being measured (see DESIGN.md).
    #[allow(clippy::vec_box)]
    fn label_pass(&self) -> Vec<Box<NodeState>> {
        let mut states: Vec<Box<NodeState>> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let st = match node {
                Node::Arg(_) => NodeState {
                    cost: [0, u16::MAX],
                    rule: [Rule::Leaf, Rule::None],
                },
                Node::ConstI(_, _) => NodeState {
                    // imm derivation is free; reg costs one `set`.
                    cost: [1, 0],
                    rule: [Rule::SetConst, Rule::ImmLeaf],
                },
                Node::ConstF32(_) | Node::ConstF64(_) => NodeState {
                    cost: [1, u16::MAX],
                    rule: [Rule::SetConst, Rule::None],
                },
                Node::Binop(op, ty, l, r) => {
                    let cl = states[l.0 as usize].cost[NT_REG];
                    let rimm = states[r.0 as usize].cost[NT_IMM];
                    let rreg = states[r.0 as usize].cost[NT_REG];
                    // Two candidate rules: reg ← reg op imm (when the
                    // target has an immediate form) and reg ← reg op reg.
                    let imm_ok = ty.is_int() && rimm != u16::MAX && op.accepts(*ty);
                    let cost_imm = if imm_ok {
                        cl.saturating_add(rimm).saturating_add(1)
                    } else {
                        u16::MAX
                    };
                    let cost_reg = cl.saturating_add(rreg).saturating_add(1);
                    if cost_imm <= cost_reg {
                        NodeState {
                            cost: [cost_imm, u16::MAX],
                            rule: [Rule::BinImm, Rule::None],
                        }
                    } else {
                        NodeState {
                            cost: [cost_reg, u16::MAX],
                            rule: [Rule::BinReg, Rule::None],
                        }
                    }
                }
                Node::Unop(_, _, e) | Node::Cvt(_, _, e) | Node::Load(_, e, _) => {
                    let ce = states[e.0 as usize].cost[NT_REG];
                    NodeState {
                        cost: [ce.saturating_add(1), u16::MAX],
                        rule: [Rule::Unary, Rule::None],
                    }
                }
            };
            states.push(Box::new(st));
        }
        states
    }
}

const NT_REG: usize = 0;
const NT_IMM: usize = 1;

/// Rules of the (tiny) tree grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    None,
    Leaf,
    ImmLeaf,
    SetConst,
    BinImm,
    BinReg,
    Unary,
}

/// Per-node matcher state, heap-allocated like the state records of
/// BURG-generated labelers (and of DCG's C implementation).
#[derive(Debug)]
struct NodeState {
    cost: [u16; 2],
    rule: [Rule; 2],
}

/// The reduce pass. A node carries its operation as a value, so binops,
/// immediates, unops and branches go through the assembler's runtime-op
/// entry points ([`Assembler::binop`] and siblings), which count and
/// verify them like any client's instruction. Five node kinds have no
/// such entry point and still emit through `T::emit_*(a.raw(), ..)`,
/// uncounted and unverified: `cvt`, `ld`, `st`, `ret` and `jump`.
struct Codegen<'f> {
    fun: &'f Fun,
    labels: Vec<vcode::Label>,
    #[allow(clippy::vec_box)]
    states: Vec<Box<NodeState>>,
    temps: Vec<Reg>,
}

impl<'f> Codegen<'f> {
    fn node(&self, id: NodeId) -> &'f Node {
        &self.fun.nodes[id.0 as usize]
    }

    fn alloc<T: Target>(&mut self, a: &mut Assembler<'_, T>, flt: bool) -> Result<Reg, DcgError> {
        let r = if flt {
            a.getreg_f(RegClass::Temp)
        } else {
            a.getreg(RegClass::Temp)
        };
        r.ok_or(DcgError::OutOfRegisters)
    }

    fn free<T: Target>(&mut self, a: &mut Assembler<'_, T>, r: Reg) {
        // Argument registers are owned by lambda, not the tree walker.
        if !a.args().contains(&r) {
            a.putreg(r);
        }
    }

    /// Pattern match: an integer constant usable as an immediate operand.
    fn as_const(&self, id: NodeId) -> Option<i64> {
        match self.node(id) {
            Node::ConstI(_, v) => Some(*v),
            _ => None,
        }
    }

    /// Evaluates a tree into a register (maximal munch).
    fn eval<T: Target>(&mut self, a: &mut Assembler<'_, T>, id: NodeId) -> Result<Reg, DcgError> {
        match self.node(id) {
            Node::Arg(i) => Ok(a.arg(*i)),
            Node::ConstI(ty, v) => {
                let r = self.alloc(a, false)?;
                emit_set_int(a, *ty, r, *v);
                Ok(r)
            }
            Node::ConstF32(v) => {
                let r = self.alloc(a, true)?;
                a.setf(r, *v);
                Ok(r)
            }
            Node::ConstF64(v) => {
                let r = self.alloc(a, true)?;
                a.setd(r, *v);
                Ok(r)
            }
            Node::Binop(op, ty, l, rn) => {
                let lr = self.eval(a, *l)?;
                // Reduce following the rule the label pass selected:
                // fold a constant right operand into the immediate form.
                if self.states[id.0 as usize].rule[NT_REG] == Rule::BinImm {
                    if let Some(imm) = self.as_const(*rn) {
                        let rd = self.result_reg(a, lr, false)?;
                        a.binop_imm(*op, *ty, rd, lr, imm);
                        if rd != lr {
                            self.free(a, lr);
                        }
                        return Ok(rd);
                    }
                }
                let rr = self.eval(a, *rn)?;
                let rd = self.result_reg(a, lr, ty.is_float())?;
                a.binop(*op, *ty, rd, lr, rr);
                self.free(a, rr);
                if rd != lr {
                    self.free(a, lr);
                }
                Ok(rd)
            }
            Node::Unop(op, ty, e) => {
                let er = self.eval(a, *e)?;
                let rd = self.result_reg(a, er, ty.is_float())?;
                a.unop(*op, *ty, rd, er);
                if rd != er {
                    self.free(a, er);
                }
                Ok(rd)
            }
            Node::Cvt(from, to, e) => {
                let er = self.eval(a, *e)?;
                let rd = if from.is_float() == to.is_float() {
                    self.result_reg(a, er, to.is_float())?
                } else {
                    let rd = self.alloc(a, to.is_float())?;
                    self.free(a, er);
                    rd
                };
                T::emit_cvt(a.raw(), *from, *to, rd, er);
                if rd != er && from.is_float() == to.is_float() {
                    self.free(a, er);
                }
                Ok(rd)
            }
            Node::Load(ty, addr, off) => {
                let ar = self.eval(a, *addr)?;
                let rd = if ty.is_float() {
                    let rd = self.alloc(a, true)?;
                    self.free(a, ar);
                    rd
                } else {
                    self.result_reg(a, ar, false)?
                };
                T::emit_ld(a.raw(), *ty, rd, ar, vcode::Off::I(*off));
                if !ty.is_float() && rd != ar {
                    self.free(a, ar);
                }
                Ok(rd)
            }
        }
    }

    /// Chooses the destination register: reuse the left operand's
    /// register when it is a tree temporary, otherwise allocate.
    fn result_reg<T: Target>(
        &mut self,
        a: &mut Assembler<'_, T>,
        left: Reg,
        flt: bool,
    ) -> Result<Reg, DcgError> {
        if a.args().contains(&left) {
            self.alloc(a, flt)
        } else if left.is_flt() == flt {
            Ok(left)
        } else {
            self.alloc(a, flt)
        }
    }

    fn stmt<T: Target>(&mut self, a: &mut Assembler<'_, T>, s: &Stmt) -> Result<(), DcgError> {
        match s {
            Stmt::Store(ty, addr, off, val) => {
                let vr = self.eval(a, *val)?;
                let ar = self.eval(a, *addr)?;
                T::emit_st(a.raw(), *ty, vr, ar, vcode::Off::I(*off));
                self.free(a, ar);
                self.free(a, vr);
            }
            Stmt::Ret(ty, val) => {
                let vr = self.eval(a, *val)?;
                T::emit_ret(a.raw(), Some((*ty, vr)));
                self.free(a, vr);
            }
            Stmt::RetVoid => T::emit_ret(a.raw(), None),
            Stmt::Branch(cond, ty, l, r, target) => {
                let lr = self.eval(a, *l)?;
                let lab = self.labels[target.0 as usize];
                if ty.is_int() {
                    if let Some(imm) = self.as_const(*r) {
                        a.branch(*cond, *ty, lr, vcode::BrOperand::I(imm), lab);
                        self.free(a, lr);
                        return Ok(());
                    }
                }
                let rr = self.eval(a, *r)?;
                a.branch(*cond, *ty, lr, vcode::BrOperand::R(rr), lab);
                self.free(a, rr);
                self.free(a, lr);
            }
            Stmt::Jump(target) => {
                T::emit_jump(a.raw(), JumpTarget::Label(self.labels[target.0 as usize]));
            }
            Stmt::Bind(l) => a.label(self.labels[l.0 as usize]),
        }
        let _ = &self.temps;
        Ok(())
    }
}

fn emit_set_int<T: Target>(a: &mut Assembler<'_, T>, ty: Ty, rd: Reg, v: i64) {
    match ty {
        Ty::I => a.seti(rd, v as i32),
        Ty::U => a.setu(rd, v as u32),
        Ty::L => a.setl(rd, v),
        Ty::Ul => a.setul(rd, v as u64),
        Ty::P => a.setp(rd, v as u64),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcode::fake::FakeTarget;

    #[test]
    fn ir_grows_with_the_program() {
        let mut f = Fun::new("%i").unwrap();
        let mut e = f.arg(0);
        let before = f.ir_bytes();
        for i in 0..100 {
            let c = f.consti(i);
            e = f.binop(BinOp::Add, Ty::I, e, c);
        }
        f.ret(Ty::I, e);
        assert!(
            f.ir_bytes() >= before + 200 * std::mem::size_of::<u32>(),
            "IR space is proportional to program size — the overhead \
             VCODE eliminates"
        );
    }

    #[test]
    fn constant_folding_into_immediate_forms() {
        // x + 1 must compile to a single immediate add, not set + add.
        let mut f = Fun::new("%i").unwrap();
        let x = f.arg(0);
        let one = f.consti(1);
        let sum = f.binop(BinOp::Add, Ty::I, x, one);
        f.ret(Ty::I, sum);
        let mut mem = vec![0u8; 1024];
        f.compile::<FakeTarget>(&mut mem, Leaf::Yes).unwrap();
        // FakeTarget: prologue 7 words, then BINOPI (0x02), then RET.
        assert_eq!(mem[7 * 4], 0x02, "immediate form selected");
    }

    #[test]
    fn deep_tree_exhausts_registers() {
        let mut f = Fun::new("%i").unwrap();
        // Build a fully left-leaning comb of loads to force register
        // pressure: (load(load(load(...)))) keeps only one live — use a
        // right-deep tree of adds instead, which keeps all lefts live.
        fn deep(f: &mut Fun, depth: usize) -> NodeId {
            if depth == 0 {
                f.consti(1)
            } else {
                let l = f.consti(depth as i32);
                let r = deep(f, depth - 1);
                f.binop(BinOp::Add, Ty::I, l, r)
            }
        }
        let e = deep(&mut f, 40);
        f.ret(Ty::I, e);
        let mut mem = vec![0u8; 65536];
        assert_eq!(
            f.compile::<FakeTarget>(&mut mem, Leaf::Yes).unwrap_err(),
            DcgError::OutOfRegisters
        );
    }

    #[test]
    fn labels_and_branches_compile() {
        let mut f = Fun::new("%i").unwrap();
        let x = f.arg(0);
        let zero = f.consti(0);
        let done = f.label();
        f.branch(Cond::Ge, Ty::I, x, zero, done);
        let neg = f.unop(UnOp::Neg, Ty::I, x);
        f.ret(Ty::I, neg);
        f.bind(done);
        f.ret(Ty::I, x);
        let mut mem = vec![0u8; 1024];
        f.compile::<FakeTarget>(&mut mem, Leaf::Yes).unwrap();
    }

    #[test]
    fn reduced_instructions_are_counted_and_verified() {
        // x + y * 3: a multiply-immediate and an add (the `ret` is one of
        // the five raw kinds).
        let mut f = Fun::new("%i%i").unwrap();
        let (x, y) = (f.arg(0), f.arg(1));
        let three = f.consti(3);
        let scaled = f.binop(BinOp::Mul, Ty::I, y, three);
        let sum = f.binop(BinOp::Add, Ty::I, x, scaled);
        f.ret(Ty::I, sum);
        let mut mem = vec![0u8; 1024];
        let fin = f.compile::<FakeTarget>(&mut mem, Leaf::Yes).unwrap();
        assert_eq!(fin.insns, 2);

        let mut a =
            Assembler::<FakeTarget>::lambda_sig(&mut mem, f.sig.clone(), Leaf::Yes).unwrap();
        a.enable_verifier();
        f.reduce(&mut a).unwrap();
        let (fin, report) = a.end_report();
        fin.unwrap();
        let report = report.expect("verified session");
        assert_eq!((report.vcode_insns, report.marks.len()), (2, 2));
        assert!(report.is_clean(), "{:?}", report.diags);
    }

    #[test]
    fn bad_signature_is_reported() {
        assert!(matches!(Fun::new("%q"), Err(DcgError::BadSignature(_))));
    }
}
