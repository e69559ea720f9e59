//! The merged filter trie.
//!
//! DPF "optimizes the common situation where concurrently active filters
//! examine the same part of a message and compare against different
//! values" (paper §4.2): filters are merged into a trie keyed by the
//! field each atom examines, so shared prefixes are tested once and
//! same-field/different-value sets become a single multiway dispatch.
//!
//! The same structure drives both engines: interpreted walking (the
//! PATHFINDER-style baseline, [`Level::classify`]) and dynamic
//! compilation (`crate::compile`).

use crate::lang::{Atom, FieldSize, Filter};
use std::collections::HashMap;

/// What a trie node examines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Key {
    /// A masked field compare (dispatch on its value).
    Cmp {
        /// Offset from the current base.
        offset: u32,
        /// Field width.
        size: FieldSize,
        /// Mask applied before dispatch.
        mask: u32,
    },
    /// A base shift.
    Shift {
        /// Offset of the length field.
        offset: u32,
        /// Field width.
        size: FieldSize,
        /// Mask.
        mask: u32,
        /// Left shift.
        shift: u32,
    },
}

/// One dispatch arm of a [`Node`]: a distinct field value and its
/// continuation.
#[derive(Debug, Clone)]
pub struct Arm {
    /// The (masked, big-endian) field value.
    pub value: u32,
    /// Where matching continues.
    pub next: Level,
}

/// A trie node: a field examination with its dispatch arms (or, for
/// shifts, a single continuation).
#[derive(Debug, Clone)]
pub struct Node {
    /// What this node examines.
    pub key: Key,
    /// Value arms (`Cmp` nodes).
    pub arms: Vec<Arm>,
    /// Hashed cell index into `arms` (the PATHFINDER discipline).
    pub index: HashMap<u32, usize>,
    /// Continuation (`Shift` nodes).
    pub next: Option<Box<Level>>,
}

/// A trie level: alternative nodes tried in order, plus the filter
/// accepted when every deeper test fails (longest-match semantics).
#[derive(Debug, Clone, Default)]
pub struct Level {
    /// Alternative examinations.
    pub nodes: Vec<Node>,
    /// Filter accepted at this level.
    pub accept: Option<u32>,
}

impl Level {
    /// Inserts a filter's remaining atoms.
    pub fn insert(&mut self, atoms: &[Atom], id: u32) {
        let Some((first, rest)) = atoms.split_first() else {
            // First insertion wins, like the interpreter engines.
            if self.accept.is_none() {
                self.accept = Some(id);
            }
            return;
        };
        match *first {
            Atom::Cmp {
                offset,
                size,
                mask,
                value,
            } => {
                let mask = mask & size.full_mask();
                let key = Key::Cmp { offset, size, mask };
                let node = self.node_mut(key);
                match node.index.get(&value) {
                    Some(&i) => node.arms[i].next.insert(rest, id),
                    None => {
                        let mut next = Level::default();
                        next.insert(rest, id);
                        node.index.insert(value, node.arms.len());
                        node.arms.push(Arm { value, next });
                    }
                }
            }
            Atom::Shift {
                offset,
                size,
                mask,
                shift,
            } => {
                let key = Key::Shift {
                    offset,
                    size,
                    mask,
                    shift,
                };
                let node = self.node_mut(key);
                node.next.get_or_insert_with(Box::default).insert(rest, id);
            }
        }
    }

    fn node_mut(&mut self, key: Key) -> &mut Node {
        if let Some(i) = self.nodes.iter().position(|n| n.key == key) {
            &mut self.nodes[i]
        } else {
            self.nodes.push(Node {
                key,
                arms: Vec::new(),
                index: HashMap::new(),
                next: None,
            });
            self.nodes.last_mut().expect("just pushed")
        }
    }

    /// Interpreted classification — this is the PATHFINDER-style engine:
    /// walk the merged trie, hashing into each node's cell index.
    pub fn classify(&self, msg: &[u8], base: u64) -> Option<u32> {
        for node in &self.nodes {
            match node.key {
                Key::Cmp { offset, size, mask } => {
                    let Some(raw) = crate::lang::read_field(msg, base + u64::from(offset), size)
                    else {
                        continue;
                    };
                    if let Some(&i) = node.index.get(&(raw & mask)) {
                        if let Some(hit) = node.arms[i].next.classify(msg, base) {
                            return Some(hit);
                        }
                    }
                }
                Key::Shift {
                    offset,
                    size,
                    mask,
                    shift,
                } => {
                    let Some(raw) = crate::lang::read_field(msg, base + u64::from(offset), size)
                    else {
                        continue;
                    };
                    let nb = base + u64::from((raw & mask) << shift);
                    if let Some(next) = &node.next {
                        if let Some(hit) = next.classify(msg, nb) {
                            return Some(hit);
                        }
                    }
                }
            }
        }
        self.accept
    }

    /// Number of nodes in the (sub)trie.
    pub fn node_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                1 + n.arms.iter().map(|a| a.next.node_count()).sum::<usize>()
                    + n.next.as_ref().map_or(0, |l| l.node_count())
            })
            .sum()
    }

    /// Number of dispatch arms in the (sub)trie. A wide node is one node
    /// however many arms it has, and an arm that ends in an accepting
    /// leaf adds no node at all — but each arm is a compare in its
    /// node's dispatch plus a leaf body in the generated code.
    pub fn arm_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                n.arms.len()
                    + n.arms.iter().map(|a| a.next.arm_count()).sum::<usize>()
                    + n.next.as_ref().map_or(0, |l| l.arm_count())
            })
            .sum()
    }
}

/// Builds the merged trie for a resident filter set.
pub fn build(filters: &[(u32, Filter)]) -> Level {
    let mut root = Level::default();
    for (id, f) in filters {
        root.insert(f.atoms(), *id);
    }
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{self, PacketSpec};

    #[test]
    fn shared_prefixes_merge() {
        let set = packet::port_filter_set(10, 1000);
        let filters: Vec<(u32, Filter)> = set
            .into_iter()
            .enumerate()
            .map(|(i, f)| (i as u32, f))
            .collect();
        let trie = build(&filters);
        // 4 shared prefix nodes + 1 port-dispatch node = 5 nodes total,
        // not 10 × 5.
        assert_eq!(trie.node_count(), 5);
        assert_eq!(trie.arm_count(), 4 + 10);
        // The port node has 10 arms.
        fn port_node_arms(l: &Level) -> Option<usize> {
            for n in &l.nodes {
                if n.arms.len() > 1 {
                    return Some(n.arms.len());
                }
                for a in &n.arms {
                    if let Some(k) = port_node_arms(&a.next) {
                        return Some(k);
                    }
                }
            }
            None
        }
        assert_eq!(port_node_arms(&trie), Some(10));
    }

    #[test]
    fn interpreted_classification_matches_reference() {
        let set = packet::port_filter_set(10, 1000);
        let filters: Vec<(u32, Filter)> = set
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, f)| (i as u32, f))
            .collect();
        let trie = build(&filters);
        for port in 995..1015 {
            let p = packet::build(&PacketSpec {
                dst_port: port,
                ..PacketSpec::default()
            });
            let expect = set.iter().position(|f| f.matches(&p)).map(|i| i as u32);
            assert_eq!(trie.classify(&p, 0), expect, "port {port}");
        }
    }

    #[test]
    fn prefix_filter_accepts_when_deeper_fails() {
        // Filter 0: just "is IP". Filter 1: IP && port 80.
        let ip_only = crate::lang::FilterBuilder::new()
            .eq_u16(12, 0x0800)
            .build()
            .unwrap();
        let f80 = packet::tcp_port_filter(0x0a00_0002, 80).unwrap();
        let trie = build(&[(0, ip_only), (1, f80)]);
        let p80 = packet::build(&PacketSpec::default());
        let p99 = packet::build(&PacketSpec {
            dst_port: 99,
            ..PacketSpec::default()
        });
        // Longest match: the specific filter wins when it matches...
        assert_eq!(trie.classify(&p80, 0), Some(1));
        // ...and the prefix filter is the fallback.
        assert_eq!(trie.classify(&p99, 0), Some(0));
    }

    #[test]
    fn shift_nodes_share_continuations() {
        let f1 = packet::tcp_port_filter_var_ihl(80).unwrap();
        let f2 = packet::tcp_port_filter_var_ihl(81).unwrap();
        let trie = build(&[(0, f1), (1, f2)]);
        let p = packet::build(&PacketSpec::default());
        assert_eq!(trie.classify(&p, 0), Some(0));
        let p81 = packet::build(&PacketSpec {
            dst_port: 81,
            ..PacketSpec::default()
        });
        assert_eq!(trie.classify(&p81, 0), Some(1));
    }

    #[test]
    fn disjoint_first_atoms_coexist() {
        let a = crate::lang::FilterBuilder::new()
            .eq_u8(0, 7)
            .build()
            .unwrap();
        let b = crate::lang::FilterBuilder::new()
            .eq_u16(2, 9)
            .build()
            .unwrap();
        let trie = build(&[(0, a), (1, b)]);
        assert_eq!(trie.nodes.len(), 2, "two alternative root nodes");
        assert_eq!(trie.classify(&[7, 0, 0, 0], 0), Some(0));
        assert_eq!(trie.classify(&[0, 0, 0, 9], 0), Some(1));
        // A message matching both: first node wins.
        assert_eq!(trie.classify(&[7, 0, 0, 9], 0), Some(0));
    }
}
