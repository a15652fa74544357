//! Per-function control-flow graphs over the [`crate::ast`] token stream.
//!
//! The graph is the substrate for the typestate protocols in
//! [`crate::typestate`]: blocks hold an *ordered list of events* (call
//! sites and match-arm entries), edges follow the branch/loop structure,
//! and exits are classified success/error so protocol obligations only
//! bind on paths that report success. The construction recognizes exactly
//! the shapes the lifecycle rules need:
//!
//! - `if`/`else if`/`else` chains (conditions get their own blocks, so an
//!   event inside a condition is ordered before either arm);
//! - `match` statements — each arm entry records its pattern token range
//!   as an [`Ev::Arm`] event, so protocols can transition on "entered the
//!   `GuestBufferFull` arm";
//! - `for`/`while`/`loop` with back edges and the zero-iteration path;
//! - early `return` and tail expressions (classified error-shaped or
//!   success by payload, see [`range_err_shaped`]),
//!   `break`/`continue` against an explicit loop stack, and
//!   `let .. else { .. }` divergent arms;
//! - fault-injection exemption: a branch arm whose condition (or match
//!   pattern / guard) mentions an ident starting with `mutate_` is the
//!   model's *seeded-mutation* arm — its blocks are marked [`Block::exempt`]
//!   and the typestate engine drops all protocol states through them, so
//!   deliberately-wrong paths that only exist behind a mutation knob do
//!   not fire findings.
//!
//! `?` is deliberately ignored: its early exit is error-shaped by
//! construction and protocol obligations never bind on error paths.
//! Closure bodies contribute their call events to the enclosing block
//! (an over-approximation in the forgiving direction, like the call
//! graph's name-based resolution — see DESIGN.md §12).

use crate::ast::{calls_in, FnItem, ParsedFile, NO_MATCH};
use crate::lexer::{Tok, TokKind};

/// One event inside a block, in source order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ev {
    /// A call-shaped site — the token index of the name ident.
    Call(usize),
    /// Entry into a `match` arm; `lo..hi` is the pattern token range
    /// (guards included).
    Arm { lo: usize, hi: usize },
}

/// How control leaves the function from a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitKind {
    /// A success exit: plain `return`, `return Ok(..)`, or the implicit
    /// fall-through at the end of the body.
    Ok,
    /// An error-shaped exit (`return Err(..)` / `None` / `*Invalid*`, or a
    /// fall-through whose tail expression has that shape).
    Err,
}

#[derive(Debug, Clone, Copy)]
pub struct Exit {
    pub kind: ExitKind,
    /// Token index anchoring the exit in traces (the `return` keyword, or
    /// the body's closing brace for fall-through).
    pub site: usize,
}

#[derive(Debug, Default)]
pub struct Block {
    pub events: Vec<Ev>,
    /// Successor block ids.
    pub succs: Vec<usize>,
    /// True when this block sits under a fault-injection (`mutate_*`)
    /// guard; the typestate engine kills protocol states here.
    pub exempt: bool,
    /// Set when control leaves the function after this block's events.
    pub exit: Option<Exit>,
    /// True when the block ends in an error-shaped tail expression, so a
    /// fall-through exit from it is an error exit.
    pub err_tail: bool,
}

/// A per-function CFG. Block 0 is the entry.
#[derive(Debug)]
pub struct Cfg {
    pub blocks: Vec<Block>,
}

impl Cfg {
    /// Builds the CFG of `f`'s body, or `None` when it has no body.
    pub fn build(file: &ParsedFile, f: &FnItem) -> Option<Cfg> {
        let (open, close) = f.body?;
        let mut b = Builder {
            toks: &file.toks,
            matching: &file.matching,
            blocks: Vec::new(),
            loops: Vec::new(),
        };
        let entry = b.new_block(false);
        let opens = b.seq(open + 1, close, vec![entry], false);
        for id in opens {
            let kind = if b.blocks[id].err_tail {
                ExitKind::Err
            } else {
                ExitKind::Ok
            };
            b.blocks[id].exit = Some(Exit { kind, site: close });
        }
        Some(Cfg { blocks: b.blocks })
    }
}

struct Builder<'a> {
    toks: &'a [Tok],
    matching: &'a [usize],
    blocks: Vec<Block>,
    /// `(head, after)` block ids of the enclosing loops, innermost last —
    /// the targets of `continue` and `break`.
    loops: Vec<(usize, usize)>,
}

impl Builder<'_> {
    fn new_block(&mut self, exempt: bool) -> usize {
        self.blocks.push(Block {
            exempt,
            ..Block::default()
        });
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.blocks[from].succs.contains(&to) {
            self.blocks[from].succs.push(to);
        }
    }

    /// Creates a block fed by every id in `from`.
    fn block_after(&mut self, from: &[usize], exempt: bool) -> usize {
        let b = self.new_block(exempt);
        for &f in from {
            self.edge(f, b);
        }
        b
    }

    fn push_calls(&mut self, block: usize, lo: usize, hi: usize) {
        for c in calls_in(self.toks, lo, hi) {
            self.blocks[block].events.push(Ev::Call(c.tok));
        }
    }

    /// Walks the statement sequence `lo..hi`, threading the set of open
    /// (fall-through) block ids; returns the open ends. Statements after a
    /// divergence still build blocks (unreachable, no in-edges) so token
    /// accounting stays simple — dataflow never visits them.
    fn seq(&mut self, lo: usize, hi: usize, mut opens: Vec<usize>, exempt: bool) -> Vec<usize> {
        let hi = hi.min(self.toks.len());
        let mut i = lo;
        while i < hi {
            if self.toks[i].is_punct(';') {
                i += 1;
                continue;
            }
            if self.toks[i].is_ident("if") {
                let (next, out) = self.if_chain(i, hi, &opens, exempt);
                opens = out;
                i = next;
                continue;
            }
            if self.toks[i].is_ident("match") {
                if let Some((next, out)) = self.match_stmt(i, hi, &opens, exempt) {
                    opens = out;
                    i = next;
                    continue;
                }
            }
            if self.toks[i].is_ident("for")
                || self.toks[i].is_ident("while")
                || self.toks[i].is_ident("loop")
            {
                if let Some((open, close)) = find_block(self.toks, self.matching, i + 1, hi) {
                    opens = self.loop_stmt(i, open, close, &opens, exempt);
                    i = close + 1;
                    continue;
                }
            }
            // Bare `{ .. }` / `unsafe { .. }` block: inline its sequence.
            if self.toks[i].is_open('{')
                || (self.toks[i].is_ident("unsafe")
                    && self.toks.get(i + 1).is_some_and(|t| t.is_open('{')))
            {
                let open = if self.toks[i].is_open('{') { i } else { i + 1 };
                let close = self.matching[open];
                if close != NO_MATCH && close < hi {
                    opens = self.seq(open + 1, close, opens, exempt);
                    i = close + 1;
                    continue;
                }
            }
            // Plain statement: to the next `;` at this level.
            let start = i;
            while i < hi && !self.toks[i].is_punct(';') {
                if self.toks[i].kind == TokKind::Open {
                    let m = self.matching[i];
                    if m == NO_MATCH || m >= hi {
                        i = hi;
                        break;
                    }
                    i = m + 1;
                } else {
                    i += 1;
                }
            }
            let end = i.min(hi);
            let tail = i >= hi;
            if !tail {
                i += 1; // consume `;`
            }
            opens = self.plain_stmt(start, end, opens, exempt, tail);
        }
        opens
    }

    /// A plain statement: handles `let .. else`, top-level `return`,
    /// `break`, and `continue`; everything else is one event-carrying
    /// block. `tail` marks a block's final expression (no `;`).
    fn plain_stmt(
        &mut self,
        lo: usize,
        hi: usize,
        opens: Vec<usize>,
        exempt: bool,
        tail: bool,
    ) -> Vec<usize> {
        // `let PAT = expr else { .. };` — the else arm diverges.
        if self.toks[lo].is_ident("let") {
            if let Some((e_open, e_close)) = self.let_else_block(lo, hi) {
                let scrut = self.block_after(&opens, exempt);
                self.push_calls(scrut, lo, e_open);
                // Divergent arm: its own chain; any residual open end is a
                // malformed non-diverging else — drop it (those paths were
                // required to leave the block anyway).
                let arm = self.new_block(exempt);
                self.edge(scrut, arm);
                let _ = self.seq(e_open + 1, e_close, vec![arm], exempt);
                // Fall-through continues past the else with the binding.
                let cont = self.new_block(exempt);
                self.edge(scrut, cont);
                self.push_calls(cont, e_close + 1, hi);
                return vec![cont];
            }
        }
        let b = self.block_after(&opens, exempt);
        self.push_calls(b, lo, hi);
        if let Some(r) = self.top_level_ident(lo, hi, "return") {
            let kind = if range_err_shaped(self.toks, r + 1, hi) {
                ExitKind::Err
            } else {
                ExitKind::Ok
            };
            self.blocks[b].exit = Some(Exit { kind, site: r });
            return Vec::new();
        }
        if let Some(k) = self.top_level_ident(lo, hi, "break") {
            if let Some(&(_, after)) = self.loops.last() {
                self.edge(b, after);
            } else {
                // `break` outside a tracked loop (labelled break out of a
                // block expression): treat as an opaque success exit.
                self.blocks[b].exit = Some(Exit {
                    kind: ExitKind::Ok,
                    site: k,
                });
            }
            return Vec::new();
        }
        if self.top_level_ident(lo, hi, "continue").is_some() {
            if let Some(&(head, _)) = self.loops.last() {
                self.edge(b, head);
            }
            return Vec::new();
        }
        self.blocks[b].err_tail = tail && range_err_shaped(self.toks, lo, hi);
        vec![b]
    }

    /// Finds a top-level `else {` inside a `let` statement; returns the
    /// else-block delimiters.
    fn let_else_block(&mut self, lo: usize, hi: usize) -> Option<(usize, usize)> {
        let mut i = lo;
        while i < hi {
            if self.toks[i].kind == TokKind::Open {
                let m = self.matching[i];
                if m == NO_MATCH || m >= hi {
                    return None;
                }
                i = m + 1;
                continue;
            }
            if self.toks[i].is_ident("else") && self.toks.get(i + 1).is_some_and(|t| t.is_open('{'))
            {
                let close = self.matching[i + 1];
                if close != NO_MATCH && close < hi.max(close) {
                    return Some((i + 1, close));
                }
            }
            i += 1;
        }
        None
    }

    /// Token index of a top-level occurrence of ident `kw` in `lo..hi`.
    fn top_level_ident(&self, lo: usize, hi: usize, kw: &str) -> Option<usize> {
        let mut i = lo;
        while i < hi.min(self.toks.len()) {
            if self.toks[i].kind == TokKind::Open {
                let m = self.matching[i];
                if m == NO_MATCH || m >= hi {
                    return None;
                }
                i = m + 1;
                continue;
            }
            if self.toks[i].is_ident(kw) {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    /// `if c1 { A } else if c2 { B } else { C }` — each condition gets its
    /// own block (events in conditions are ordered before the arms), each
    /// arm is a sub-sequence, and a missing trailing `else` leaves the last
    /// condition block open.
    fn if_chain(
        &mut self,
        i: usize,
        hi: usize,
        opens: &[usize],
        exempt: bool,
    ) -> (usize, Vec<usize>) {
        let mut out: Vec<usize> = Vec::new();
        let mut prev: Vec<usize> = opens.to_vec();
        let mut j = i;
        loop {
            let Some((open, close)) = find_block(self.toks, self.matching, j + 1, hi) else {
                // Unparseable: degrade to one plain block over the rest.
                let b = self.block_after(&prev, exempt);
                self.push_calls(b, j, hi);
                return (hi, vec![b]);
            };
            let cond = self.block_after(&prev, exempt);
            self.push_calls(cond, j + 1, open);
            let arm_exempt = exempt || self.range_has_mutation_guard(j + 1, open);
            let arm = self.new_block(arm_exempt);
            self.edge(cond, arm);
            out.extend(self.seq(open + 1, close, vec![arm], arm_exempt));
            prev = vec![cond];
            j = close + 1;
            if j < hi && self.toks[j].is_ident("else") {
                if self.toks.get(j + 1).is_some_and(|t| t.is_ident("if")) {
                    j += 1;
                    continue;
                }
                if let Some((eo, ec)) = find_block(self.toks, self.matching, j + 1, hi) {
                    let arm = self.new_block(exempt);
                    self.edge(cond, arm);
                    out.extend(self.seq(eo + 1, ec, vec![arm], exempt));
                    prev = Vec::new();
                    j = ec + 1;
                }
            }
            break;
        }
        out.extend(prev);
        (j, out)
    }

    /// `match scrut { pat => body, .. }` — the scrutinee block fans out to
    /// one entry block per arm carrying an [`Ev::Arm`] pattern event.
    fn match_stmt(
        &mut self,
        i: usize,
        hi: usize,
        opens: &[usize],
        exempt: bool,
    ) -> Option<(usize, Vec<usize>)> {
        let (open, close) = find_block(self.toks, self.matching, i + 1, hi)?;
        let arms = match_arms(self.toks, self.matching, open);
        let scrut = self.block_after(opens, exempt);
        self.push_calls(scrut, i + 1, open);
        if arms.is_empty() {
            return Some((close + 1, vec![scrut]));
        }
        let mut out = Vec::new();
        for a in &arms {
            let arm_exempt = exempt || self.range_has_mutation_guard(a.pat_lo, a.pat_hi);
            let entry = self.new_block(arm_exempt);
            self.edge(scrut, entry);
            self.blocks[entry].events.push(Ev::Arm {
                lo: a.pat_lo,
                hi: a.pat_hi,
            });
            out.extend(self.seq(a.body_lo, a.body_hi, vec![entry], arm_exempt));
        }
        Some((close + 1, out))
    }

    /// `for`/`while`/`loop`: head (condition/iterator events) → body →
    /// back edge; the head also exits to the after block (zero-iteration
    /// path — `loop` gets the same shape, which over-approximates "may
    /// leave", the forgiving direction).
    fn loop_stmt(
        &mut self,
        i: usize,
        open: usize,
        close: usize,
        opens: &[usize],
        exempt: bool,
    ) -> Vec<usize> {
        let head = self.block_after(opens, exempt);
        self.push_calls(head, i + 1, open);
        let after = self.new_block(exempt);
        self.edge(head, after);
        self.loops.push((head, after));
        let body = self.new_block(exempt);
        self.edge(head, body);
        let ends = self.seq(open + 1, close, vec![body], exempt);
        self.loops.pop();
        for e in ends {
            self.edge(e, head);
        }
        vec![after]
    }

    /// True when `lo..hi` (a condition or match pattern) mentions an ident
    /// starting with `mutate_` — the seeded fault-injection knobs.
    fn range_has_mutation_guard(&self, lo: usize, hi: usize) -> bool {
        self.toks[lo..hi.min(self.toks.len())]
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text.starts_with("mutate_"))
    }
}

/// True when a `return` payload or tail expression is error-shaped: any
/// ident containing `Invalid` (a guard rejection, even as
/// `Ok(HypercallResult::Invalid)`) makes it one; otherwise the first of
/// `Err`/`None`/`Ok`/`Some` decides. A bare `return` is a success.
pub fn range_err_shaped(toks: &[Tok], lo: usize, hi: usize) -> bool {
    let mut idents = toks[lo..hi.min(toks.len())]
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str());
    if idents.clone().any(|t| t.contains("Invalid")) {
        return true;
    }
    idents
        .find(|t| matches!(*t, "Err" | "None" | "Ok" | "Some"))
        .is_some_and(|t| t == "Err" || t == "None")
}

/// Finds the first `{..}` block at the current nesting level starting from
/// `from`, skipping `(..)`/`[..]` groups (so `if let Some(x) = f(y) { .. }`
/// lands on the body, not a paren). Returns `(open, close)` token indices.
fn find_block(toks: &[Tok], matching: &[usize], from: usize, hi: usize) -> Option<(usize, usize)> {
    let mut i = from;
    while i < hi.min(toks.len()) {
        match toks[i].kind {
            TokKind::Open if toks[i].is_open('{') => {
                let m = matching[i];
                if m == NO_MATCH {
                    return None;
                }
                return Some((i, m));
            }
            TokKind::Open => {
                let m = matching[i];
                if m == NO_MATCH {
                    return None;
                }
                i = m + 1;
            }
            _ => i += 1,
        }
    }
    None
}

/// One `match` arm: pattern and body token ranges (body excludes braces
/// when it is a block).
#[derive(Debug)]
struct Arm {
    pub pat_lo: usize,
    pub pat_hi: usize,
    pub body_lo: usize,
    pub body_hi: usize,
}

/// Splits the interior of a `match` block (brace at `open`) into arms. The
/// body of a `pat => { block }` arm is the block interior; an expression
/// arm runs to the `,` at arm level (or the closing brace).
fn match_arms(toks: &[Tok], matching: &[usize], open: usize) -> Vec<Arm> {
    let close = matching[open];
    if close == NO_MATCH {
        return Vec::new();
    }
    let mut arms = Vec::new();
    let mut i = open + 1;
    while i < close {
        let pat_lo = i;
        // Scan to `=>` at arm level.
        let mut j = i;
        let mut found = false;
        while j < close {
            if toks[j].kind == TokKind::Open {
                let m = matching[j];
                if m == NO_MATCH || m > close {
                    break;
                }
                j = m + 1;
            } else if toks[j].is_punct('=') && toks.get(j + 1).is_some_and(|t| t.is_punct('>')) {
                found = true;
                break;
            } else {
                j += 1;
            }
        }
        if !found {
            break;
        }
        let pat_hi = j;
        let mut k = j + 2;
        let (body_lo, body_hi, next) = if k < close && toks[k].is_open('{') {
            let m = matching[k];
            if m == NO_MATCH || m > close {
                break;
            }
            let mut n = m + 1;
            if n < close && toks[n].is_punct(',') {
                n += 1;
            }
            (k + 1, m, n)
        } else {
            let body_lo = k;
            while k < close && !toks[k].is_punct(',') {
                if toks[k].kind == TokKind::Open {
                    let m = matching[k];
                    if m == NO_MATCH || m > close {
                        k = close;
                        break;
                    }
                    k = m + 1;
                } else {
                    k += 1;
                }
            }
            let body_hi = k;
            (body_lo, body_hi, (k + 1).min(close))
        };
        arms.push(Arm {
            pat_lo,
            pat_hi,
            body_lo,
            body_hi,
        });
        i = next.max(pat_lo + 1);
    }
    arms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ParsedFile;

    fn cfg_of(body: &str) -> (ParsedFile, Cfg) {
        let src = format!("fn f() {{ {body} }}");
        let p = ParsedFile::parse("x", "crates/x/src/a.rs", &src);
        let f = p.fns[0].clone();
        let c = Cfg::build(&p, &f).unwrap();
        (p, c)
    }

    fn call_names<'a>(p: &'a ParsedFile, b: &Block) -> Vec<&'a str> {
        b.events
            .iter()
            .filter_map(|e| match e {
                Ev::Call(t) => Some(p.toks[*t].text.as_str()),
                Ev::Arm { .. } => None,
            })
            .collect()
    }

    #[test]
    fn straight_line_is_one_block_exiting_ok() {
        let (p, c) = cfg_of("a(); b();");
        let exits: Vec<&Block> = c.blocks.iter().filter(|b| b.exit.is_some()).collect();
        assert_eq!(exits.len(), 1);
        assert_eq!(exits[0].exit.unwrap().kind, ExitKind::Ok);
        let all: Vec<Vec<&str>> = c.blocks.iter().map(|b| call_names(&p, b)).collect();
        assert!(all.iter().any(|n| n.contains(&"a")), "{all:?}");
    }

    #[test]
    fn early_return_err_is_an_error_exit() {
        let (_, c) = cfg_of("if bad { return Err(E::X); } a();");
        let kinds: Vec<ExitKind> = c
            .blocks
            .iter()
            .filter_map(|b| b.exit.map(|e| e.kind))
            .collect();
        assert!(kinds.contains(&ExitKind::Err), "{kinds:?}");
        assert!(kinds.contains(&ExitKind::Ok));
    }

    #[test]
    fn if_without_else_keeps_fallthrough_path() {
        // Path that skips the arm must exist: entry → cond → tail.
        let (p, c) = cfg_of("if x { a(); } b();");
        // The block holding b() must have an in-edge.
        let b_block = c
            .blocks
            .iter()
            .position(|blk| call_names(&p, blk).contains(&"b"))
            .unwrap();
        assert!(c.blocks.iter().any(|blk| blk.succs.contains(&b_block)));
        // The cond block reaches b() both through the arm and directly.
        let cond = c
            .blocks
            .iter()
            .position(|blk| call_names(&p, blk).contains(&"x") || blk.succs.len() == 2)
            .unwrap();
        assert_eq!(c.blocks[cond].succs.len(), 2);
    }

    #[test]
    fn match_arms_carry_pattern_events() {
        let (p, c) = cfg_of("match e { K::Full => { a(); } _ => b(), }");
        let arms: Vec<&Block> = c
            .blocks
            .iter()
            .filter(|b| b.events.iter().any(|e| matches!(e, Ev::Arm { .. })))
            .collect();
        assert_eq!(arms.len(), 2);
        let Ev::Arm { lo, hi } = arms[0].events[0] else {
            panic!()
        };
        let pat: Vec<&str> = p.toks[lo..hi].iter().map(|t| t.text.as_str()).collect();
        assert!(pat.contains(&"Full"), "{pat:?}");
    }

    #[test]
    fn loops_have_back_edges_and_zero_iteration_path() {
        let (p, c) = cfg_of("for x in v { a(); } b();");
        let head = c
            .blocks
            .iter()
            .position(|b| b.succs.len() == 2)
            .expect("loop head");
        // Some block in the body chain must edge back to the head.
        assert!(
            c.blocks
                .iter()
                .enumerate()
                .any(|(i, b)| i != head && b.succs.contains(&head)),
            "no back edge"
        );
        // b() is reachable without entering the body (via the after block).
        let after = c.blocks[head].succs[0];
        let b_block = c
            .blocks
            .iter()
            .position(|blk| call_names(&p, blk).contains(&"b"))
            .unwrap();
        assert!(after == b_block || c.blocks[after].succs.contains(&b_block));
    }

    #[test]
    fn let_else_arm_diverges_and_fallthrough_continues() {
        let (p, c) = cfg_of("let Some(x) = o else { cleanup(); return; }; use_it(x);");
        let div = c
            .blocks
            .iter()
            .find(|b| call_names(&p, b).contains(&"cleanup"))
            .expect("else arm block");
        // The else chain ends in an exit, not a fall-through to use_it.
        let use_block = c
            .blocks
            .iter()
            .position(|b| call_names(&p, b).contains(&"use_it"))
            .unwrap();
        assert!(!div.succs.contains(&use_block));
    }

    #[test]
    fn mutation_guarded_arm_is_exempt() {
        let (p, c) = cfg_of("if self.mutate_skip { return; } a();");
        let exempt: Vec<&Block> = c.blocks.iter().filter(|b| b.exempt).collect();
        assert!(!exempt.is_empty(), "mutate_ guard arm must be exempt");
        // The a() continuation is not exempt.
        let a_block = c
            .blocks
            .iter()
            .find(|b| call_names(&p, b).contains(&"a"))
            .unwrap();
        assert!(!a_block.exempt);
    }

    #[test]
    fn break_edges_to_loop_exit() {
        let (p, c) = cfg_of("loop { if done { break; } a(); } b();");
        // b() must be reachable: find it and confirm it has an in-edge.
        let b_block = c
            .blocks
            .iter()
            .position(|blk| call_names(&p, blk).contains(&"b"))
            .unwrap();
        assert!(
            c.blocks.iter().any(|blk| blk.succs.contains(&b_block)),
            "break must reach the loop exit"
        );
    }

    #[test]
    fn err_shape_classifier() {
        let p = ParsedFile::parse(
            "x",
            "crates/x/src/a.rs",
            "fn f() { return Err(Errno::EINVAL); }",
        );
        let r = p.toks.iter().position(|t| t.is_ident("return")).unwrap();
        assert!(range_err_shaped(&p.toks, r + 1, p.toks.len()));
        let shaped = |payload: &str| {
            let p = ParsedFile::parse("x", "crates/x/src/a.rs", payload);
            range_err_shaped(&p.toks, 0, p.toks.len())
        };
        assert!(!shaped("Ok(())"));
        assert!(!shaped("Ok(Some(x))"));
        assert!(!shaped(""), "a bare return is a success");
        // The first of Err/None/Ok/Some decides: `Ok(None)` is a success.
        assert!(!shaped("Ok(None)"));
        assert!(shaped("None"));
        // Any `Invalid` ident is a guard rejection, wherever it sits.
        assert!(shaped("Ok(HypercallResult::Invalid)"));
    }

    #[test]
    fn err_shaped_tail_expressions_are_error_exits() {
        let (_, c) = cfg_of("if bad { Err(E::X) } else { Ok(()) }");
        let mut kinds: Vec<ExitKind> = c
            .blocks
            .iter()
            .filter_map(|b| b.exit.map(|e| e.kind))
            .collect();
        kinds.sort_by_key(|k| *k == ExitKind::Ok);
        assert_eq!(kinds, vec![ExitKind::Err, ExitKind::Ok]);
        // A statement ending in `;` is not a tail, whatever it mentions.
        let (_, c) = cfg_of("self.set(None);");
        assert!(c
            .blocks
            .iter()
            .all(|b| b.exit.is_none_or(|e| e.kind == ExitKind::Ok)));
    }

    #[test]
    fn match_arms_split_expr_and_block_bodies() {
        let (p, _) =
            cfg_of("match x { A { q } => f(q), B(z) if z > 0 => { g(); h(); } _ => i(), }");
        let m = p.toks.iter().position(|t| t.is_ident("match")).unwrap();
        let open = (m..p.toks.len()).find(|&i| p.toks[i].is_open('{')).unwrap();
        let arms = match_arms(&p.toks, &p.matching, open);
        assert_eq!(arms.len(), 3, "{arms:?}");
        // Pattern of the second arm includes the guard.
        let pat: Vec<&str> = p.toks[arms[1].pat_lo..arms[1].pat_hi]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert!(pat.contains(&"if"), "{pat:?}");
    }
}
