//! A small dataflow framework over [`crate::cfg::Cfg`]: forward fixpoint
//! iteration with a lattice join over paths. The typestate engine
//! ([`crate::typestate`]) instantiates it with a powerset-of-protocol-states
//! bitmask, `cost-coverage` ([`crate::rules::cost`]) with a bitmask of
//! charged/uncharged facts.
//!
//! Determinism: the worklist is a monotone round-robin over block ids, so
//! the fixpoint — and therefore every finding derived from it — depends
//! only on the CFG, never on hash order or queue timing.

use crate::cfg::Cfg;

/// A join-semilattice. `join` must be commutative, associative, and
/// idempotent; `bottom` is its identity.
pub trait Lattice: Clone + PartialEq {
    fn bottom() -> Self;
    /// Joins `other` into `self`; returns true when `self` changed.
    fn join(&mut self, other: &Self) -> bool;
}

/// Powerset lattice as a bitmask (protocol states, block facts ≤ 32).
impl Lattice for u32 {
    fn bottom() -> Self {
        0
    }
    fn join(&mut self, other: &Self) -> bool {
        let before = *self;
        *self |= other;
        *self != before
    }
}

/// Forward fixpoint: `in[0] = init`, `in[b] = ⊔ out[p]` over predecessors,
/// `out[b] = transfer(b, in[b])`. Returns `(in_states, out_states)`.
///
/// Unreachable blocks keep `bottom` — transfer functions see them but
/// their output joins into nothing anyone reads.
pub fn forward<L: Lattice>(
    cfg: &Cfg,
    init: L,
    mut transfer: impl FnMut(usize, &L) -> L,
) -> (Vec<L>, Vec<L>) {
    let n = cfg.blocks.len();
    let mut inp = vec![L::bottom(); n];
    let mut out = vec![L::bottom(); n];
    if n == 0 {
        return (inp, out);
    }
    inp[0] = init;
    let mut dirty = vec![true; n];
    let mut any = true;
    while any {
        any = false;
        for b in 0..n {
            if !dirty[b] {
                continue;
            }
            dirty[b] = false;
            let new_out = transfer(b, &inp[b]);
            if new_out == out[b] {
                continue;
            }
            out[b] = new_out;
            for &s in &cfg.blocks[b].succs {
                if inp[s].join(&out[b]) {
                    dirty[s] = true;
                    any = true;
                }
            }
        }
    }
    (inp, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ParsedFile;
    use crate::cfg::{Cfg, Ev};

    fn cfg_of(body: &str) -> (ParsedFile, Cfg) {
        let src = format!("fn f() {{ {body} }}");
        let p = ParsedFile::parse("x", "crates/x/src/a.rs", &src);
        let f = p.fns[0].clone();
        let c = Cfg::build(&p, &f).unwrap();
        (p, c)
    }

    /// Bit 0 = "saw no call named `set` yet", bit 1 = "saw it". The join
    /// over an `if` without `else` must keep both possibilities alive.
    #[test]
    fn forward_join_unions_branch_facts() {
        let (p, c) = cfg_of("if x { set(); } sink();");
        let saw = |b: usize, s: &u32| -> u32 {
            let mut m = *s;
            for e in &c.blocks[b].events {
                if let Ev::Call(t) = e {
                    if p.toks[*t].is_ident("set") && m & 1 != 0 {
                        m = (m & !1) | 2;
                    }
                }
            }
            m
        };
        let (_, out) = forward(&c, 1u32, saw);
        let sink = c
            .blocks
            .iter()
            .position(|b| {
                b.events
                    .iter()
                    .any(|e| matches!(e, Ev::Call(t) if p.toks[*t].is_ident("sink")))
            })
            .unwrap();
        assert_eq!(out[sink], 1 | 2, "both paths must reach the sink");
    }

    #[test]
    fn forward_reaches_fixpoint_through_loops() {
        let (p, c) = cfg_of("loop { if done { break; } set(); }");
        let saw = |b: usize, s: &u32| -> u32 {
            let mut m = *s;
            for e in &c.blocks[b].events {
                if let Ev::Call(t) = e {
                    if p.toks[*t].is_ident("set") {
                        m |= 2;
                    }
                }
            }
            m
        };
        let (_, out) = forward(&c, 1u32, saw);
        // The loop-after block must see both "never iterated" and "saw set".
        let exit = c.blocks.iter().position(|b| b.exit.is_some()).unwrap();
        assert_eq!(out[exit] & 3, 3, "{out:?}");
    }
}
