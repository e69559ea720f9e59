//! An MPF-style interpreted packet-filter engine.
//!
//! MPF (Yuhara et al., USENIX 1994) is the "widely used packet filter
//! engine" of Table 3: a BPF-descended bytecode interpreter in which
//! each resident filter is a straight-line program run over the message;
//! classification tries the filters in turn. Its per-packet cost is
//! therefore (number of filters) × (interpretation cost per atom) — the
//! overhead DPF removes with dynamic code generation.

use crate::lang::{Atom, FieldSize, Filter};

/// One bytecode instruction of the interpreter.
///
/// Accumulator machine in the BPF tradition: `A` is the accumulator,
/// `X` the index register used for shifted (variable-header) offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insn {
    /// `A = msg[X + k .. ]` read big-endian with the given width;
    /// failure (out of bounds) rejects the packet.
    LdInd(FieldSize, u32),
    /// `A &= k`.
    And(u32),
    /// Reject unless `A == k`.
    JeqOrFail(u32),
    /// `X += A << k`.
    AddX(u32),
    /// Accept.
    Accept,
}

/// A compiled-to-bytecode filter program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    insns: Vec<Insn>,
}

impl Program {
    /// Translates a filter into bytecode.
    pub fn from_filter(f: &Filter) -> Program {
        let mut insns = Vec::new();
        for atom in f.atoms() {
            match *atom {
                Atom::Cmp {
                    offset,
                    size,
                    mask,
                    value,
                } => {
                    insns.push(Insn::LdInd(size, offset));
                    if mask & size.full_mask() != size.full_mask() {
                        insns.push(Insn::And(mask));
                    }
                    insns.push(Insn::JeqOrFail(value));
                }
                Atom::Shift {
                    offset,
                    size,
                    mask,
                    shift,
                } => {
                    insns.push(Insn::LdInd(size, offset));
                    insns.push(Insn::And(mask));
                    insns.push(Insn::AddX(shift));
                }
            }
        }
        insns.push(Insn::Accept);
        Program { insns }
    }

    /// The instruction stream (for inspection).
    pub fn insns(&self) -> &[Insn] {
        &self.insns
    }

    /// Runs the program over a message.
    pub fn run(&self, msg: &[u8]) -> bool {
        let mut a: u32 = 0;
        let mut x: u64 = 0;
        for insn in &self.insns {
            match *insn {
                Insn::LdInd(size, k) => {
                    match crate::lang::read_field(msg, x + u64::from(k), size) {
                        Some(v) => a = v,
                        None => return false,
                    }
                }
                Insn::And(k) => a &= k,
                Insn::JeqOrFail(k) => {
                    if a != k {
                        return false;
                    }
                }
                Insn::AddX(k) => x += u64::from(a) << k,
                Insn::Accept => return true,
            }
        }
        false
    }
}

/// The MPF-style demultiplexer: resident programs tried in insertion
/// order.
#[derive(Debug, Default)]
pub struct Mpf {
    programs: Vec<(u32, Program)>,
    next_id: u32,
}

impl Mpf {
    /// Creates an empty engine.
    pub fn new() -> Mpf {
        Mpf::default()
    }

    /// Installs a filter, returning its id.
    pub fn insert(&mut self, f: &Filter) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        self.programs.push((id, Program::from_filter(f)));
        id
    }

    /// Installs a filter under a caller-chosen id, so an MPF baseline
    /// reports the ids another engine (a [`DpfService`]) assigned to the
    /// same set.
    ///
    /// [`DpfService`]: crate::DpfService
    pub fn insert_as(&mut self, id: u32, f: &Filter) {
        self.programs.push((id, Program::from_filter(f)));
        self.next_id = self.next_id.max(id + 1);
    }

    /// Removes a filter by id; returns whether it existed.
    pub fn remove(&mut self, id: u32) -> bool {
        let n = self.programs.len();
        self.programs.retain(|(i, _)| *i != id);
        self.programs.len() != n
    }

    /// Number of resident filters.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// `true` when no filters are installed.
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }

    /// Classifies a message: the id of the first matching filter.
    pub fn classify(&self, msg: &[u8]) -> Option<u32> {
        self.programs
            .iter()
            .find(|(_, p)| p.run(msg))
            .map(|(id, _)| *id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{self, PacketSpec};

    #[test]
    fn bytecode_matches_reference_semantics() {
        let f = packet::tcp_port_filter(0x0a00_0002, 80).unwrap();
        let p = Program::from_filter(&f);
        let yes = packet::build(&PacketSpec::default());
        let no = packet::build(&PacketSpec {
            dst_port: 81,
            ..PacketSpec::default()
        });
        assert_eq!(p.run(&yes), f.matches(&yes));
        assert_eq!(p.run(&no), f.matches(&no));
        assert!(p.run(&yes));
        assert!(!p.run(&no));
    }

    #[test]
    fn masked_atoms_emit_and() {
        let f = packet::tcp_port_filter(0x0a00_0002, 80).unwrap();
        let p = Program::from_filter(&f);
        assert!(p.insns().iter().any(|i| matches!(i, Insn::And(0xf0))));
        // Full-width compares skip the And.
        assert!(!p.insns().iter().any(|i| matches!(i, Insn::And(0xffff))));
    }

    #[test]
    fn shift_programs_follow_headers() {
        let f = packet::tcp_port_filter_var_ihl(80).unwrap();
        let p = Program::from_filter(&f);
        let msg = packet::build(&PacketSpec::default());
        assert!(p.run(&msg));
    }

    #[test]
    fn classify_first_match_and_removal() {
        let mut mpf = Mpf::new();
        let set = packet::port_filter_set(10, 1000);
        let ids: Vec<u32> = set.iter().map(|f| mpf.insert(f)).collect();
        assert_eq!(mpf.len(), 10);
        let p = packet::build(&PacketSpec {
            dst_port: 1007,
            ..PacketSpec::default()
        });
        assert_eq!(mpf.classify(&p), Some(ids[7]));
        assert!(mpf.remove(ids[7]));
        assert_eq!(mpf.classify(&p), None);
        assert!(!mpf.remove(ids[7]), "already removed");
    }

    #[test]
    fn truncated_messages_reject_safely() {
        let mut mpf = Mpf::new();
        let f = packet::tcp_port_filter(0x0a00_0002, 80).unwrap();
        mpf.insert(&f);
        let p = packet::build(&PacketSpec::default());
        for cut in [0, 1, 13, 14, 23, 35, 37] {
            assert_eq!(mpf.classify(&p[..cut.min(p.len())]), None, "cut {cut}");
        }
    }
}
