//! Code generation: the C subset lowered to VCODE.
//!
//! This mirrors the paper's experience using VCODE as a compiler target
//! (§4.1): "compiling to VCODE has been easier than compiling to more
//! traditional RISC architectures … due both to the regularity of the
//! VCODE instruction set and to the fact that VCODE handles calling
//! conventions." The backend is a straightforward one-pass tree walk:
//! variables live in stack slots, expressions in allocator temporaries,
//! calls are marshaled with the `call_begin`/`call_arg`/`call_end`
//! interface, and inter-function references go through a function table
//! so forward references and recursion need no link step.

use crate::lex::ParseError;
use crate::parse::{CType, Expr, FnDef, Stmt};
use std::collections::HashMap;
use std::fmt;
use vcode::target::{Finished, JumpTarget, Leaf, StackSlot};
use vcode::{Assembler, Label, Reg, RegClass, Sig, Ty};
use vcode_x64::X64;

/// Compilation error.
#[derive(Debug)]
#[non_exhaustive]
pub enum CcError {
    /// Lexical/syntactic error.
    Parse(ParseError),
    /// Semantic error (undeclared names, type misuse, ...).
    Sem {
        /// Function the error is in.
        func: String,
        /// Description.
        msg: String,
    },
    /// An expression needed more registers than the machine has.
    TooComplex {
        /// Function the expression is in.
        func: String,
    },
    /// Backend code-generation error.
    Codegen(vcode::Error),
    /// Could not obtain executable memory.
    Exec(std::io::Error),
}

impl fmt::Display for CcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CcError::Parse(e) => write!(f, "{e}"),
            CcError::Sem { func, msg } => write!(f, "in `{func}`: {msg}"),
            CcError::TooComplex { func } => {
                write!(f, "in `{func}`: expression exhausted the register file")
            }
            CcError::Codegen(e) => write!(f, "{e}"),
            CcError::Exec(e) => write!(f, "executable memory: {e}"),
        }
    }
}

impl std::error::Error for CcError {}

impl From<ParseError> for CcError {
    fn from(e: ParseError) -> CcError {
        CcError::Parse(e)
    }
}

impl From<vcode::Error> for CcError {
    fn from(e: vcode::Error) -> CcError {
        CcError::Codegen(e)
    }
}

impl vcode::engine::LowerError for CcError {
    fn overflowed(&self) -> bool {
        matches!(self, CcError::Codegen(vcode::Error::Overflow { .. }))
    }
    fn no_memory(e: std::io::Error) -> CcError {
        CcError::Exec(e)
    }
}

/// Signature info for the function table.
#[derive(Debug, Clone)]
pub struct FnSig {
    /// Index into the function table.
    pub index: usize,
    /// Return type.
    pub ret: CType,
    /// Parameter types.
    pub params: Vec<CType>,
}

fn vty(t: &CType) -> Ty {
    match t {
        CType::Int | CType::Char => Ty::I,
        CType::Long => Ty::L,
        CType::Double => Ty::D,
        CType::Ptr(_) | CType::Arr(..) => Ty::P,
        CType::Void => Ty::V,
    }
}

/// The vcode type used for a variable's stack slot (chars really occupy
/// one byte).
fn slot_ty(t: &CType) -> Ty {
    match t {
        CType::Char => Ty::C,
        other => vty(other),
    }
}

#[derive(Debug, Clone)]
struct VarInfo {
    slot: StackSlot,
    ty: CType,
}

/// An lvalue: somewhere a value can be stored.
enum Place {
    Slot(StackSlot, CType),
    /// Address in a register (owned; must be freed) + pointee type.
    Mem(Reg, CType),
}

fn expr_has_call(e: &Expr) -> bool {
    match e {
        Expr::Call(..) => true,
        Expr::Int(_) | Expr::Float(_) | Expr::Var(_) => false,
        Expr::Assign(a, b) | Expr::OpAssign(_, a, b) | Expr::Bin(_, a, b) | Expr::Index(a, b) => {
            expr_has_call(a) || expr_has_call(b)
        }
        Expr::Un(_, a)
        | Expr::PreIncDec(_, a)
        | Expr::PostIncDec(_, a)
        | Expr::Deref(a)
        | Expr::Addr(a)
        | Expr::Cast(_, a) => expr_has_call(a),
    }
}

pub(crate) struct FnCg<'m, 'ctx> {
    a: Assembler<'m, X64>,
    name: String,
    ret: CType,
    scopes: Vec<HashMap<String, VarInfo>>,
    fns: &'ctx HashMap<String, FnSig>,
    table_addr: u64,
    loops: Vec<(Label, Label)>, // (continue target, break target)
}

type CcResult<T> = Result<T, CcError>;

impl<'m, 'ctx> FnCg<'m, 'ctx> {
    /// Compiles one function definition into `mem`, returning the number
    /// of bytes emitted.
    pub(crate) fn compile(
        def: &FnDef,
        mem: &'m mut [u8],
        fns: &'ctx HashMap<String, FnSig>,
        table_addr: u64,
    ) -> CcResult<Finished> {
        let leaf = if def.body.iter().any(stmt_has_call) {
            Leaf::No
        } else {
            Leaf::Yes
        };
        let sig = Sig::new(
            def.params.iter().map(|(t, _)| vty(t)).collect(),
            vty(&def.ret),
        );
        let a = Assembler::<X64>::lambda_sig(mem, sig, leaf)?;
        let mut cg = FnCg {
            a,
            name: def.name.clone(),
            ret: def.ret.clone(),
            scopes: vec![HashMap::new()],
            fns,
            table_addr,
            loops: Vec::new(),
        };
        // Home every parameter in a stack slot and release its register:
        // simple, correct, and uniform with locals.
        for (i, (ty, pname)) in def.params.iter().enumerate() {
            let slot = cg.a.local(slot_ty(ty));
            let arg = cg.a.arg(i);
            cg.a.st_slot(slot, arg);
            cg.declare(pname, slot, ty.clone())?;
        }
        for i in (0..def.params.len()).rev() {
            cg.a.release_arg(i);
        }
        for s in &def.body {
            cg.stmt(s)?;
        }
        // Implicit return: 0 for value-returning functions (defensive),
        // plain return for void.
        match cg.ret.clone() {
            CType::Void => cg.a.retv(),
            t => {
                let r = cg.zero_of(&t)?;
                cg.emit_ret(r, &t);
            }
        }
        Ok(cg.a.end()?)
    }

    fn sem(&self, msg: impl Into<String>) -> CcError {
        CcError::Sem {
            func: self.name.clone(),
            msg: msg.into(),
        }
    }

    fn declare(&mut self, name: &str, slot: StackSlot, ty: CType) -> CcResult<()> {
        let scope = self.scopes.last_mut().expect("scope");
        if scope
            .insert(name.to_owned(), VarInfo { slot, ty })
            .is_some()
        {
            return Err(self.sem(format!("`{name}` redeclared in the same scope")));
        }
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<&VarInfo> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn alloc(&mut self, flt: bool) -> CcResult<Reg> {
        let r = if flt {
            self.a.getreg_f(RegClass::Temp)
        } else {
            self.a.getreg(RegClass::Temp)
        };
        r.ok_or(CcError::TooComplex {
            func: self.name.clone(),
        })
    }

    fn zero_of(&mut self, t: &CType) -> CcResult<Reg> {
        let r = self.alloc(*t == CType::Double)?;
        match t {
            CType::Double => self.a.setd(r, 0.0),
            CType::Long | CType::Ptr(_) => self.a.setl(r, 0),
            _ => self.a.seti(r, 0),
        }
        Ok(r)
    }

    fn emit_ret(&mut self, r: Reg, t: &CType) {
        match t {
            CType::Int | CType::Char => self.a.reti(r),
            CType::Long => self.a.retl(r),
            CType::Double => self.a.retd(r),
            CType::Ptr(_) | CType::Arr(..) => self.a.retp(r),
            CType::Void => self.a.retv(),
        }
        if *t != CType::Void {
            self.a.putreg(r);
        }
    }

    /// Converts a value to another C type, reusing the register when the
    /// bank is unchanged.
    fn convert(&mut self, r: Reg, from: &CType, to: &CType) -> CcResult<Reg> {
        if from == to || (from.is_integral() && to.is_integral() && vty(from) == vty(to)) {
            return Ok(r);
        }
        match (from, to) {
            (CType::Double, CType::Double) => Ok(r),
            (f, CType::Double) if f.is_integral() => {
                let d = self.alloc(true)?;
                if vty(f) == Ty::L {
                    self.a.cvl2d(d, r);
                } else {
                    self.a.cvi2d(d, r);
                }
                self.a.putreg(r);
                Ok(d)
            }
            (CType::Double, t) if t.is_integral() => {
                let i = self.alloc(false)?;
                if vty(t) == Ty::L {
                    self.a.cvd2l(i, r);
                } else {
                    self.a.cvd2i(i, r);
                }
                self.a.putreg(r);
                Ok(i)
            }
            // Integer-family widenings/narrowings and pointer casts stay
            // in the integer bank.
            (f, t) => {
                match (vty(f), vty(t)) {
                    (Ty::I, Ty::L | Ty::P) => self.a.cvi2l(r, r),
                    (Ty::L | Ty::P, Ty::I) => self.a.cvl2i(r, r),
                    (Ty::L, Ty::P) | (Ty::P, Ty::L) | (Ty::P, Ty::P) => {}
                    (a, b) if a == b => {}
                    (a, b) => {
                        return Err(self.sem(format!("unsupported conversion {a} -> {b}")));
                    }
                }
                Ok(r)
            }
        }
    }

    /// The usual arithmetic conversions: the common type of a binary
    /// operation.
    fn common_type(&self, l: &CType, r: &CType) -> CType {
        if *l == CType::Double || *r == CType::Double {
            CType::Double
        } else if l.is_ptr() {
            l.clone()
        } else if r.is_ptr() {
            r.clone()
        } else if *l == CType::Long || *r == CType::Long {
            CType::Long
        } else {
            CType::Int
        }
    }

    // ---- lvalues ----

    fn lvalue(&mut self, e: &Expr) -> CcResult<Place> {
        match e {
            Expr::Var(name) => {
                let v = self
                    .lookup(name)
                    .ok_or_else(|| self.sem(format!("`{name}` is not declared")))?
                    .clone();
                if matches!(v.ty, CType::Arr(..)) {
                    return Err(self.sem(format!("array `{name}` is not assignable")));
                }
                Ok(Place::Slot(v.slot, v.ty))
            }
            Expr::Deref(inner) => {
                let (r, t) = self.rvalue(inner)?;
                let CType::Ptr(elem) = t else {
                    return Err(self.sem("dereference of a non-pointer"));
                };
                Ok(Place::Mem(r, (*elem).clone()))
            }
            Expr::Index(base, idx) => {
                let addr = self.index_addr(base, idx)?;
                Ok(addr)
            }
            _ => Err(self.sem("expression is not an lvalue")),
        }
    }

    /// Computes `&base[idx]` as a Mem place.
    fn index_addr(&mut self, base: &Expr, idx: &Expr) -> CcResult<Place> {
        let (mut b, bt) = self.rvalue(base)?;
        let CType::Ptr(elem) = bt else {
            return Err(self.sem("indexing a non-pointer"));
        };
        // An index expression containing a call clobbers caller-saved
        // temporaries: spill the base around it.
        let (i, it) = if expr_has_call(idx) {
            let slot = self.a.local(Ty::P);
            self.a.st_slot(slot, b);
            self.a.putreg(b);
            let iv = self.rvalue(idx)?;
            b = self.alloc(false)?;
            self.a.ld_slot(b, slot);
            iv
        } else {
            self.rvalue(idx)?
        };
        if !it.is_integral() {
            return Err(self.sem("array index must be an integer"));
        }
        let i = self.convert(i, &it, &CType::Long)?;
        let size = elem.size() as i64;
        if size > 1 {
            if size.count_ones() == 1 {
                self.a.lshli(i, i, size.trailing_zeros() as i64);
            } else {
                self.a.mulli(i, i, size);
            }
        }
        self.a.addp(b, b, i);
        self.a.putreg(i);
        Ok(Place::Mem(b, (*elem).clone()))
    }

    fn load_place(&mut self, p: &Place) -> CcResult<(Reg, CType)> {
        match p {
            Place::Slot(slot, ty) => {
                let r = self.alloc(*ty == CType::Double)?;
                self.a.ld_slot(r, *slot);
                Ok((r, promote(ty)))
            }
            Place::Mem(addr, ty) => {
                let r = self.alloc(*ty == CType::Double)?;
                match ty {
                    CType::Char => self.a.ldci(r, *addr, 0),
                    CType::Int => self.a.ldii(r, *addr, 0),
                    CType::Long => self.a.ldli(r, *addr, 0),
                    CType::Double => self.a.lddi(r, *addr, 0),
                    CType::Ptr(_) => self.a.ldpi(r, *addr, 0),
                    CType::Arr(..) | CType::Void => {
                        return Err(self.sem("dereference of void pointer"))
                    }
                }
                Ok((r, promote(ty)))
            }
        }
    }

    fn store_place(&mut self, p: &Place, r: Reg) {
        match p {
            Place::Slot(slot, _) => self.a.st_slot(*slot, r),
            Place::Mem(addr, ty) => match ty {
                CType::Char => self.a.stci(r, *addr, 0),
                CType::Int => self.a.stii(r, *addr, 0),
                CType::Long => self.a.stli(r, *addr, 0),
                CType::Double => self.a.stdi(r, *addr, 0),
                CType::Ptr(_) => self.a.stpi(r, *addr, 0),
                CType::Arr(..) | CType::Void => {}
            },
        }
    }

    fn place_type(&self, p: &Place) -> CType {
        match p {
            Place::Slot(_, t) | Place::Mem(_, t) => t.clone(),
        }
    }

    fn free_place(&mut self, p: Place) {
        if let Place::Mem(addr, _) = p {
            self.a.putreg(addr);
        }
    }

    // ---- rvalues ----

    #[allow(clippy::too_many_lines)]
    fn rvalue(&mut self, e: &Expr) -> CcResult<(Reg, CType)> {
        match e {
            Expr::Int(v) => {
                let r = self.alloc(false)?;
                if i32::try_from(*v).is_ok() {
                    self.a.seti(r, *v as i32);
                    Ok((r, CType::Int))
                } else {
                    self.a.setl(r, *v);
                    Ok((r, CType::Long))
                }
            }
            Expr::Float(v) => {
                let r = self.alloc(true)?;
                self.a.setd(r, *v);
                Ok((r, CType::Double))
            }
            Expr::Var(name) => {
                // Arrays decay to a pointer to their first element.
                if let Some(v) = self.lookup(name) {
                    if let CType::Arr(elem, _) = v.ty.clone() {
                        let slot = v.slot;
                        let r = self.alloc(false)?;
                        self.a.movp(r, slot.base);
                        self.a.addpi(r, r, i64::from(slot.off));
                        return Ok((r, CType::Ptr(elem)));
                    }
                }
                let p = self.lvalue(e)?;
                let v = self.load_place(&p)?;
                self.free_place(p);
                Ok(v)
            }
            Expr::Deref(_) | Expr::Index(..) => {
                let p = self.lvalue(e)?;
                let v = self.load_place(&p)?;
                self.free_place(p);
                Ok(v)
            }
            Expr::Addr(inner) => {
                let p = self.lvalue(inner)?;
                match p {
                    Place::Slot(slot, ty) => {
                        let r = self.alloc(false)?;
                        // &local: base + offset.
                        self.a.movp(r, slot.base);
                        self.a.addpi(r, r, i64::from(slot.off));
                        Ok((r, CType::Ptr(Box::new(ty))))
                    }
                    Place::Mem(addr, ty) => Ok((addr, CType::Ptr(Box::new(ty)))),
                }
            }
            Expr::Cast(t, inner) => {
                let (r, ti) = self.rvalue(inner)?;
                if *t == CType::Void {
                    self.a.putreg(r);
                    return Err(self.sem("cast to void is not a value"));
                }
                let r = self.convert(r, &ti, t)?;
                Ok((r, t.clone()))
            }
            Expr::Assign(lhs, rhs) => {
                let (v, vt) = self.rvalue(rhs)?;
                let (v, p) = self.lvalue_with_live(lhs, v, &vt)?;
                let target = self.place_type(&p);
                let v = self.convert(v, &vt, &target)?;
                self.store_place(&p, v);
                self.free_place(p);
                Ok((v, promote(&target)))
            }
            Expr::OpAssign(op, lhs, rhs) => {
                let (v, vt) = self.rvalue(rhs)?;
                let (v, p) = self.lvalue_with_live(lhs, v, &vt)?;
                let target = self.place_type(&p);
                let (cur, curt) = self.load_place(&p)?;
                let (res, rest) = self.binop(op, cur, curt, v, vt)?;
                let res = self.convert(res, &rest, &target)?;
                self.store_place(&p, res);
                self.free_place(p);
                Ok((res, promote(&target)))
            }
            Expr::PreIncDec(op, inner) => {
                let p = self.lvalue(inner)?;
                let target = self.place_type(&p);
                let (cur, curt) = self.load_place(&p)?;
                let step = self.step_of(&target)?;
                let (res, rest) = self.binop(op, cur, curt.clone(), step, step_type(&target))?;
                let res = self.convert(res, &rest, &target)?;
                self.store_place(&p, res);
                self.free_place(p);
                Ok((res, promote(&target)))
            }
            Expr::PostIncDec(op, inner) => {
                let p = self.lvalue(inner)?;
                let target = self.place_type(&p);
                let (old, oldt) = self.load_place(&p)?;
                let (cur, curt) = self.load_place(&p)?;
                let step = self.step_of(&target)?;
                let (res, rest) = self.binop(op, cur, curt, step, step_type(&target))?;
                let res = self.convert(res, &rest, &target)?;
                self.store_place(&p, res);
                self.a.putreg(res);
                self.free_place(p);
                Ok((old, oldt))
            }
            Expr::Un("-", inner) => {
                let (r, t) = self.rvalue(inner)?;
                match vty(&t) {
                    Ty::D => self.a.negd(r, r),
                    Ty::L | Ty::P => self.a.negl(r, r),
                    _ => self.a.negi(r, r),
                }
                Ok((r, promote(&t)))
            }
            Expr::Un("~", inner) => {
                let (r, t) = self.rvalue(inner)?;
                if !t.is_integral() {
                    return Err(self.sem("~ needs an integer"));
                }
                if vty(&t) == Ty::L {
                    self.a.coml(r, r);
                } else {
                    self.a.comi(r, r);
                }
                Ok((r, promote(&t)))
            }
            Expr::Un("!", inner) => {
                let (r, t) = self.rvalue(inner)?;
                if t == CType::Double {
                    let z = self.alloc(true)?;
                    self.a.setd(z, 0.0);
                    let out = self.alloc(false)?;
                    let yes = self.a.genlabel();
                    self.a.seti(out, 1);
                    self.a.beqd(r, z, yes);
                    self.a.seti(out, 0);
                    self.a.label(yes);
                    self.a.putreg(r);
                    self.a.putreg(z);
                    Ok((out, CType::Int))
                } else {
                    if vty(&t) == Ty::L || t.is_ptr() {
                        self.a.notl(r, r);
                    } else {
                        self.a.noti(r, r);
                    }
                    Ok((r, CType::Int))
                }
            }
            Expr::Un(op, _) => Err(self.sem(format!("unsupported unary `{op}`"))),
            Expr::Bin("&&", l, r) => self.logical(l, r, true),
            Expr::Bin("||", l, r) => self.logical(l, r, false),
            Expr::Bin(op, l, r) => {
                let (lv, lt) = self.rvalue(l)?;
                // A right operand containing a call clobbers caller-saved
                // temporaries: spill the left value around it.
                let (lv, rv, rt) = if expr_has_call(r) {
                    let slot = self.a.local(slot_ty(&lt));
                    self.a.st_slot(slot, lv);
                    self.a.putreg(lv);
                    let (rv, rt) = self.rvalue(r)?;
                    let fresh = self.alloc(lt == CType::Double)?;
                    self.a.ld_slot(fresh, slot);
                    (fresh, rv, rt)
                } else {
                    let (rv, rt) = self.rvalue(r)?;
                    (lv, rv, rt)
                };
                self.binop(op, lv, lt, rv, rt)
            }
            Expr::Call(name, args) => self.call(name, args),
        }
    }

    /// Computes an lvalue while keeping an already-computed value alive:
    /// when the target computation contains a call (which clobbers
    /// caller-saved temporaries), the value is spilled around it.
    fn lvalue_with_live(&mut self, lhs: &Expr, v: Reg, vt: &CType) -> CcResult<(Reg, Place)> {
        if expr_has_call(lhs) {
            let slot = self.a.local(slot_ty(vt));
            self.a.st_slot(slot, v);
            self.a.putreg(v);
            let p = self.lvalue(lhs)?;
            let fresh = self.alloc(*vt == CType::Double)?;
            self.a.ld_slot(fresh, slot);
            Ok((fresh, p))
        } else {
            Ok((v, self.lvalue(lhs)?))
        }
    }

    fn step_of(&mut self, t: &CType) -> CcResult<Reg> {
        let r = self.alloc(false)?;
        self.a.seti(r, 1);
        let _ = t;
        Ok(r)
    }

    fn logical(&mut self, l: &Expr, r: &Expr, is_and: bool) -> CcResult<(Reg, CType)> {
        let out = self.alloc(false)?;
        let short = self.a.genlabel();
        let done = self.a.genlabel();
        self.a.seti(out, if is_and { 0 } else { 1 });
        // Short-circuit on the left operand.
        self.branch_if(l, short, !is_and)?;
        // Right operand decides.
        self.branch_if(r, short, !is_and)?;
        self.a.seti(out, if is_and { 1 } else { 0 });
        self.a.jmp(done);
        self.a.label(short);
        self.a.label(done);
        Ok((out, CType::Int))
    }

    fn binop(
        &mut self,
        op: &str,
        lv: Reg,
        lt: CType,
        rv: Reg,
        rt: CType,
    ) -> CcResult<(Reg, CType)> {
        // Comparisons produce int.
        if matches!(op, "==" | "!=" | "<" | "<=" | ">" | ">=") {
            return self.compare(op, lv, lt, rv, rt);
        }
        // Pointer arithmetic.
        if lt.is_ptr() || rt.is_ptr() {
            return self.ptr_arith(op, lv, lt, rv, rt);
        }
        let ct = self.common_type(&lt, &rt);
        let lv = self.convert(lv, &lt, &ct)?;
        let rv = self.convert(rv, &rt, &ct)?;
        match vty(&ct) {
            Ty::D => {
                match op {
                    "+" => self.a.addd(lv, lv, rv),
                    "-" => self.a.subd(lv, lv, rv),
                    "*" => self.a.muld(lv, lv, rv),
                    "/" => self.a.divd(lv, lv, rv),
                    _ => return Err(self.sem(format!("`{op}` needs integer operands"))),
                }
                self.a.putreg(rv);
                Ok((lv, CType::Double))
            }
            Ty::L => {
                match op {
                    "+" => self.a.addl(lv, lv, rv),
                    "-" => self.a.subl(lv, lv, rv),
                    "*" => self.a.mull(lv, lv, rv),
                    "/" => self.a.divl(lv, lv, rv),
                    "%" => self.a.modl(lv, lv, rv),
                    "&" => self.a.andl(lv, lv, rv),
                    "|" => self.a.orl(lv, lv, rv),
                    "^" => self.a.xorl(lv, lv, rv),
                    "<<" => self.a.lshl(lv, lv, rv),
                    ">>" => self.a.rshl(lv, lv, rv),
                    _ => return Err(self.sem(format!("unsupported operator `{op}`"))),
                }
                self.a.putreg(rv);
                Ok((lv, CType::Long))
            }
            _ => {
                match op {
                    "+" => self.a.addi(lv, lv, rv),
                    "-" => self.a.subi(lv, lv, rv),
                    "*" => self.a.muli(lv, lv, rv),
                    "/" => self.a.divi(lv, lv, rv),
                    "%" => self.a.modi(lv, lv, rv),
                    "&" => self.a.andi(lv, lv, rv),
                    "|" => self.a.ori(lv, lv, rv),
                    "^" => self.a.xori(lv, lv, rv),
                    "<<" => self.a.lshi(lv, lv, rv),
                    ">>" => self.a.rshi(lv, lv, rv),
                    _ => return Err(self.sem(format!("unsupported operator `{op}`"))),
                }
                self.a.putreg(rv);
                Ok((lv, CType::Int))
            }
        }
    }

    fn ptr_arith(
        &mut self,
        op: &str,
        lv: Reg,
        lt: CType,
        rv: Reg,
        rt: CType,
    ) -> CcResult<(Reg, CType)> {
        match (op, lt.is_ptr(), rt.is_ptr()) {
            ("-", true, true) => {
                if lt != rt {
                    return Err(self.sem("subtracting incompatible pointers"));
                }
                let CType::Ptr(elem) = &lt else {
                    unreachable!()
                };
                self.a.subl(lv, lv, rv);
                self.a.putreg(rv);
                let size = elem.size() as i64;
                if size > 1 {
                    self.a.divli(lv, lv, size);
                }
                Ok((lv, CType::Long))
            }
            ("+", true, false) | ("-", true, false) => {
                let CType::Ptr(elem) = &lt else {
                    unreachable!()
                };
                let rv = self.convert(rv, &rt, &CType::Long)?;
                let size = elem.size() as i64;
                if size > 1 {
                    if size.count_ones() == 1 {
                        self.a.lshli(rv, rv, size.trailing_zeros() as i64);
                    } else {
                        self.a.mulli(rv, rv, size);
                    }
                }
                if op == "+" {
                    self.a.addp(lv, lv, rv);
                } else {
                    self.a.subp(lv, lv, rv);
                }
                self.a.putreg(rv);
                Ok((lv, lt))
            }
            ("+", false, true) => self.ptr_arith(op, rv, rt, lv, lt),
            _ => Err(self.sem(format!("unsupported pointer operation `{op}`"))),
        }
    }

    fn compare(
        &mut self,
        op: &str,
        lv: Reg,
        lt: CType,
        rv: Reg,
        rt: CType,
    ) -> CcResult<(Reg, CType)> {
        let ct = self.common_type(&lt, &rt);
        let lv = self.convert(lv, &lt, &ct)?;
        let rv = self.convert(rv, &rt, &ct)?;
        let out = self.alloc(false)?;
        let yes = self.a.genlabel();
        self.a.seti(out, 1);
        match vty(&ct) {
            Ty::D => match op {
                "==" => self.a.beqd(lv, rv, yes),
                "!=" => self.a.bned(lv, rv, yes),
                "<" => self.a.bltd(lv, rv, yes),
                "<=" => self.a.bled(lv, rv, yes),
                ">" => self.a.bgtd(lv, rv, yes),
                _ => self.a.bged(lv, rv, yes),
            },
            Ty::L => match op {
                "==" => self.a.beql(lv, rv, yes),
                "!=" => self.a.bnel(lv, rv, yes),
                "<" => self.a.bltl(lv, rv, yes),
                "<=" => self.a.blel(lv, rv, yes),
                ">" => self.a.bgtl(lv, rv, yes),
                _ => self.a.bgel(lv, rv, yes),
            },
            Ty::P => match op {
                "==" => self.a.beqp(lv, rv, yes),
                "!=" => self.a.bnep(lv, rv, yes),
                "<" => self.a.bltp(lv, rv, yes),
                "<=" => self.a.blep(lv, rv, yes),
                ">" => self.a.bgtp(lv, rv, yes),
                _ => self.a.bgep(lv, rv, yes),
            },
            _ => match op {
                "==" => self.a.beqi(lv, rv, yes),
                "!=" => self.a.bnei(lv, rv, yes),
                "<" => self.a.blti(lv, rv, yes),
                "<=" => self.a.blei(lv, rv, yes),
                ">" => self.a.bgti(lv, rv, yes),
                _ => self.a.bgei(lv, rv, yes),
            },
        }
        self.a.seti(out, 0);
        self.a.label(yes);
        self.a.putreg(lv);
        self.a.putreg(rv);
        Ok((out, CType::Int))
    }

    fn call(&mut self, name: &str, args: &[Expr]) -> CcResult<(Reg, CType)> {
        let fi = self
            .fns
            .get(name)
            .ok_or_else(|| self.sem(format!("call to undeclared function `{name}`")))?
            .clone();
        if fi.params.len() != args.len() {
            return Err(self.sem(format!(
                "`{name}` takes {} arguments, {} given",
                fi.params.len(),
                args.len()
            )));
        }
        // Evaluate every argument into a typed spill slot first: argument
        // expressions may themselves contain calls, which clobber
        // temporaries and must not interleave with outgoing-argument
        // staging.
        let mut slots = Vec::with_capacity(args.len());
        for (arg, pty) in args.iter().zip(&fi.params) {
            let (r, t) = self.rvalue(arg)?;
            let r = self.convert(r, &t, pty)?;
            let slot = self.a.local(slot_ty(pty));
            self.a.st_slot(slot, r);
            self.a.putreg(r);
            slots.push(slot);
        }
        // Load the function pointer from the table.
        let fptr = self.alloc(false)?;
        self.a.setp(fptr, self.table_addr + 8 * fi.index as u64);
        self.a.ldpi(fptr, fptr, 0);
        // Marshal.
        let sig = Sig::new(fi.params.iter().map(vty).collect(), vty(&fi.ret));
        let mut cf = self.a.call_begin(&sig);
        for (i, (slot, pty)) in slots.iter().zip(&fi.params).enumerate() {
            let t = self.alloc(*pty == CType::Double)?;
            self.a.ld_slot(t, *slot);
            self.a.call_arg(&mut cf, i, vty(pty), t);
            self.a.putreg(t);
        }
        let (ret_reg, ret_ty) = if fi.ret == CType::Void {
            self.a.call_end(cf, JumpTarget::Reg(fptr), None);
            self.a.putreg(fptr);
            let r = self.zero_of(&CType::Int)?;
            (r, CType::Int)
        } else {
            let r = self.alloc(fi.ret == CType::Double)?;
            self.a.call_end(cf, JumpTarget::Reg(fptr), Some(r));
            self.a.putreg(fptr);
            (r, promote(&fi.ret))
        };
        Ok((ret_reg, ret_ty))
    }

    /// Emits a branch to `target` taken when `e` is truthy (or falsy when
    /// `when_true` is false). Comparison expressions branch directly.
    fn branch_if(&mut self, e: &Expr, target: Label, when_true: bool) -> CcResult<()> {
        let (r, t) = self.rvalue(e)?;
        match vty(&t) {
            Ty::D => {
                let z = self.alloc(true)?;
                self.a.setd(z, 0.0);
                if when_true {
                    self.a.bned(r, z, target);
                } else {
                    self.a.beqd(r, z, target);
                }
                self.a.putreg(z);
            }
            Ty::L | Ty::P => {
                if when_true {
                    self.a.bneli(r, 0, target);
                } else {
                    self.a.beqli(r, 0, target);
                }
            }
            _ => {
                if when_true {
                    self.a.bneii(r, 0, target);
                } else {
                    self.a.beqii(r, 0, target);
                }
            }
        }
        self.a.putreg(r);
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> CcResult<()> {
        match s {
            Stmt::Empty => Ok(()),
            Stmt::Expr(e) => {
                let (r, _) = self.rvalue(e)?;
                self.a.putreg(r);
                Ok(())
            }
            Stmt::Decl(ds) => {
                for (ty, name, init) in ds {
                    if let CType::Arr(elem, n) = ty {
                        if init.is_some() {
                            return Err(self.sem("array initializers are not supported"));
                        }
                        let slot = self.a.local_array(slot_ty(elem), *n);
                        self.declare(name, slot, ty.clone())?;
                        continue;
                    }
                    let slot = self.a.local(slot_ty(ty));
                    self.declare(name, slot, ty.clone())?;
                    if let Some(e) = init {
                        let (r, t) = self.rvalue(e)?;
                        let r = self.convert(r, &t, ty)?;
                        self.a.st_slot(slot, r);
                        self.a.putreg(r);
                    }
                }
                Ok(())
            }
            Stmt::Block(body) => {
                self.scopes.push(HashMap::new());
                for s in body {
                    self.stmt(s)?;
                }
                self.scopes.pop();
                Ok(())
            }
            Stmt::If(cond, then, els) => {
                let else_l = self.a.genlabel();
                let end = self.a.genlabel();
                self.branch_if(cond, else_l, false)?;
                self.stmt(then)?;
                self.a.jmp(end);
                self.a.label(else_l);
                if let Some(e) = els {
                    self.stmt(e)?;
                }
                self.a.label(end);
                Ok(())
            }
            Stmt::While(cond, body) => {
                let top = self.a.genlabel();
                let out = self.a.genlabel();
                self.a.label(top);
                self.branch_if(cond, out, false)?;
                self.loops.push((top, out));
                self.stmt(body)?;
                self.loops.pop();
                self.a.jmp(top);
                self.a.label(out);
                Ok(())
            }
            Stmt::DoWhile(body, cond) => {
                let top = self.a.genlabel();
                let cont = self.a.genlabel();
                let out = self.a.genlabel();
                self.a.label(top);
                self.loops.push((cont, out));
                self.stmt(body)?;
                self.loops.pop();
                self.a.label(cont);
                self.branch_if(cond, top, true)?;
                self.a.label(out);
                Ok(())
            }
            Stmt::For(init, cond, step, body) => {
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                let top = self.a.genlabel();
                let cont = self.a.genlabel();
                let out = self.a.genlabel();
                self.a.label(top);
                if let Some(c) = cond {
                    self.branch_if(c, out, false)?;
                }
                self.loops.push((cont, out));
                self.stmt(body)?;
                self.loops.pop();
                self.a.label(cont);
                if let Some(st) = step {
                    let (r, _) = self.rvalue(st)?;
                    self.a.putreg(r);
                }
                self.a.jmp(top);
                self.a.label(out);
                self.scopes.pop();
                Ok(())
            }
            Stmt::Return(e) => {
                match (e, self.ret.clone()) {
                    (None, CType::Void) => self.a.retv(),
                    (None, _) => return Err(self.sem("missing return value")),
                    (Some(_), CType::Void) => return Err(self.sem("void function returns a value")),
                    (Some(e), ret) => {
                        let (r, t) = self.rvalue(e)?;
                        let r = self.convert(r, &t, &ret)?;
                        self.emit_ret(r, &ret);
                    }
                }
                Ok(())
            }
            Stmt::Break => {
                let (_, out) = *self
                    .loops
                    .last()
                    .ok_or_else(|| self.sem("`break` outside a loop"))?;
                self.a.jmp(out);
                Ok(())
            }
            Stmt::Continue => {
                let (cont, _) = *self
                    .loops
                    .last()
                    .ok_or_else(|| self.sem("`continue` outside a loop"))?;
                self.a.jmp(cont);
                Ok(())
            }
        }
    }
}

fn stmt_has_call(s: &Stmt) -> bool {
    match s {
        Stmt::Expr(e) => expr_has_call(e),
        Stmt::Decl(ds) => ds
            .iter()
            .any(|(_, _, i)| i.as_ref().is_some_and(expr_has_call)),
        Stmt::If(c, a, b) => {
            expr_has_call(c) || stmt_has_call(a) || b.as_ref().is_some_and(|s| stmt_has_call(s))
        }
        Stmt::While(c, b) => expr_has_call(c) || stmt_has_call(b),
        Stmt::DoWhile(b, c) => expr_has_call(c) || stmt_has_call(b),
        Stmt::For(i, c, st, b) => {
            i.as_ref().is_some_and(|s| stmt_has_call(s))
                || c.as_ref().is_some_and(expr_has_call)
                || st.as_ref().is_some_and(expr_has_call)
                || stmt_has_call(b)
        }
        Stmt::Return(e) => e.as_ref().is_some_and(expr_has_call),
        Stmt::Block(b) => b.iter().any(stmt_has_call),
        Stmt::Break | Stmt::Continue | Stmt::Empty => false,
    }
}

/// Expression-level type of a stored value (chars promote to int).
fn promote(t: &CType) -> CType {
    match t {
        CType::Char => CType::Int,
        other => other.clone(),
    }
}

fn step_type(_t: &CType) -> CType {
    CType::Int
}
