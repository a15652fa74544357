//! The typestate rule engine: lifecycle protocols as state machines over
//! call events, checked by forward dataflow over the per-function CFGs
//! ([`crate::cfg`], [`crate::dataflow`]).
//!
//! A [`Protocol`] declares states, a start state, transitions keyed by
//! [`EventPat`] (call names, call-graph reachability, literal argument
//! idents, match-arm patterns, and two domain-specific shapes: SPSC ring
//! pushes and restricting PTE writes), and exit checks. The engine runs
//! each protocol over every in-scope function: the powerset of protocol
//! states is a `u32` bitmask, joined (unioned) over CFG paths to a
//! fixpoint, so "some success path reaches the exit in state S" is one
//! bit test on the exit block's out-state.
//!
//! Findings carry a *protocol trace*: a breadth-first search over the
//! (block, event-position, state) product graph recovers the shortest
//! path from function entry to the offending exit, and every transition
//! along it becomes a [`crate::TraceStep`] (rendered as SARIF
//! `codeFlows`/`relatedLocations`). Blocks guarded by a `mutate_*`
//! condition are fault-injection arms (the model's seeded mutations):
//! the transfer function kills all states through them, so deliberately
//! broken paths behind a knob are invisible — until a mutation driver
//! makes them unconditional, which is exactly how the seeded-mutation
//! cross-validation tests work (`tests/protocol_mutations.rs`).
//!
//! The shipped protocols mechanize the PML/TLB lifecycle choreography the
//! paper leaves implicit (DESIGN.md §12):
//!
//! - `spml-pairing` — every success path through the guest's `sched_out`
//!   must disable dirty logging (SPML `DisableLogging` hypercall, EPML
//!   `EpmlControl` vmwrite, or anything reaching `disable_logging`);
//! - `drain-before-clear`, index half — once `GuestPmlIndex` has been
//!   read (a drain began), writing it back while no entry was copied or
//!   notified loses logged pages;
//! - `drain-before-clear`, D-bit half — a path that destroys PTE dirty
//!   bits (`.without(DIRTY)`, `Pte::empty()`) in a phys-writing function
//!   must also carry a `note_*_dirty_cleared` notify (the PR 5 munmap
//!   bug as a static finding);
//! - `ring-guard` — an SPSC ring `push` must be dominated by a free-slot
//!   probe or consume its overflow result;
//! - `ipi-on-full` — entering the `GuestBufferFull` dispatch arm obliges
//!   `post_interrupt` (the EPML self-IPI) before the handler returns;
//! - `demote-before-log` — a guest function that demotes a huge mapping
//!   (reaches `demote_guest_region`) must both broadcast a TLB shootdown
//!   (`shootdown_page`/`shootdown_all`) and bump the process map
//!   generation before any success return (DESIGN.md §14);
//! - `shootdown-complete` — a sim-crate function that writes a PTE with a
//!   restricting value (`Pte::empty()`, `.without(..)` clearing
//!   `DIRTY`/`WRITABLE`/`SOFT_DIRTY`, `.with(Pte::UFFD_WP)`) must reach a
//!   TLB shootdown on every success path, and D-bit destruction must also
//!   reach a `note_*_dirty_cleared` notify. `.without(Pte::UFFD_WP)` is the
//!   unprotect direction — an upgrade — and deliberately unmatched: only
//!   restricting transitions need eager invalidation (paper §3).

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::ParsedFile;
use crate::callgraph::CallGraph;
use crate::cfg::{Cfg, Ev, ExitKind};
use crate::dataflow::forward;
use crate::lexer::TokKind;
use crate::{rule_info, TraceStep, Violation, SIM_CRATES};

/// Which functions a protocol runs over (always: non-test, with a body,
/// in one of [`Protocol::crates`]).
#[derive(Debug, Clone, Copy)]
pub enum Scope {
    /// Every function in the crate filter.
    Any,
    /// Only functions with one of these (normalized) names.
    FnNamed(&'static [&'static str]),
    /// Only functions whose body has a call whose name contains the
    /// substring (e.g. `phys_write` — the same fn-level predicate the
    /// shootdown rule uses to tell a PTE write-back from a value copy).
    BodyCallContains(&'static str),
}

/// An event pattern over CFG events.
#[derive(Debug, Clone, Copy)]
pub enum EventPat {
    /// Call whose normalized name is one of these (no graph walk).
    CallNamed(&'static [&'static str]),
    /// Call whose name is, or transitively reaches (via the workspace
    /// call graph), a function with one of these names.
    CallReaching(&'static [&'static str]),
    /// Call named `names` whose argument tokens mention one of the
    /// `args` idents verbatim (e.g. `guest_vmwrite(.., Field::GuestPmlIndex, ..)`).
    CallWithArg {
        names: &'static [&'static str],
        args: &'static [&'static str],
    },
    /// Entry into a `match` arm whose pattern mentions this ident.
    ArmPattern(&'static str),
    /// `.push(..)` on a ring-named receiver (`ring` / `*_ring`),
    /// regardless of whether the overflow result is consumed.
    RingPushAny,
    /// Same, but only when the push result is discarded and no
    /// guard keyword shapes the statement (see [`ring_push`]).
    RingPushUnchecked,
    /// A restricting PTE value: `Pte::empty()` (teardown),
    /// `.without(<flag>)` with a flag ident from `without`, or
    /// `.with(<flag>)` with a flag ident from `with` (write-protection
    /// restricts even though it sets a bit).
    PteDestruction {
        without: &'static [&'static str],
        with: &'static [&'static str],
    },
}

/// An exit obligation: flag a success exit whose state set contains
/// `bad` — unless `unless` is also present, which downgrades the path
/// union to "every destructive path also saw the compensating event".
#[derive(Debug, Clone, Copy)]
pub struct Check {
    pub bad: u8,
    pub unless: Option<u8>,
    /// Finding message; `{fn}` expands to the function name and `{site}`
    /// to the kind of PTE write that entered the bad state.
    pub message: &'static str,
}

/// One lifecycle protocol. States are indices into `states` (≤ 32); the
/// engine runs the powerset bitmask forward over each in-scope CFG.
#[derive(Debug)]
pub struct Protocol {
    /// Rule id — must exist in [`crate::RULES`].
    pub rule: &'static str,
    /// Short machine name distinguishing protocols that share a rule id.
    pub name: &'static str,
    pub crates: &'static [&'static str],
    pub scope: Scope,
    pub states: &'static [&'static str],
    pub start: u8,
    /// `(from, event, to)` — first matching transition wins; states with
    /// no matching transition are unchanged by the event.
    pub transitions: &'static [(u8, EventPat, u8)],
    pub checks: &'static [Check],
}

const NOTIFY_HOOKS: &[&str] = &[
    "note_guest_pte_dirty_cleared",
    "note_guest_dirty_cleared",
    "note_hyp_dirty_cleared",
];

const SHOOTDOWNS: &[&str] = &["shootdown_page", "shootdown_all"];

/// D-bit destruction must be notified to the PML shadow on the same path,
/// before or after the write (`drain-before-clear` and
/// `shootdown-complete` share this machine).
const DBIT_NOTIFY: &[(u8, EventPat, u8)] = &[
    (0, EventPat::CallReaching(NOTIFY_HOOKS), 2),
    (
        0,
        EventPat::PteDestruction {
            without: &["DIRTY"],
            with: &[],
        },
        1,
    ),
    (1, EventPat::CallReaching(NOTIFY_HOOKS), 2),
];

/// Free-slot / capacity probes that establish the ring-guard state.
const RING_PROBES: &[&str] = &[
    "free_slots",
    "is_full",
    "has_space",
];

/// The shipped protocols (see module docs).
pub const PROTOCOLS: &[Protocol] = &[
    Protocol {
        rule: "spml-pairing",
        name: "sched-out-disables",
        crates: &["guest"],
        scope: Scope::FnNamed(&["sched_out"]),
        states: &["enabled", "disabled"],
        start: 0,
        transitions: &[
            (0, EventPat::CallReaching(&["disable_logging"]), 1),
            (
                0,
                EventPat::CallWithArg {
                    names: &["hypercall"],
                    args: &["DisableLogging"],
                },
                1,
            ),
            (
                0,
                EventPat::CallWithArg {
                    names: &["guest_vmwrite", "vmwrite"],
                    args: &["EpmlControl"],
                },
                1,
            ),
        ],
        checks: &[Check {
            bad: 0,
            unless: None,
            message: "sched-out path leaves dirty logging enabled: `{fn}` can return without reaching DisableLogging",
        }],
    },
    Protocol {
        rule: "drain-before-clear",
        name: "pml-index-order",
        crates: &["guest"],
        scope: Scope::Any,
        states: &["idle", "armed", "drained", "cleared-early"],
        start: 0,
        transitions: &[
            (
                0,
                EventPat::CallWithArg {
                    names: &["guest_vmread", "vmread"],
                    args: &["GuestPmlIndex"],
                },
                1,
            ),
            (1, EventPat::RingPushAny, 2),
            (1, EventPat::CallReaching(NOTIFY_HOOKS), 2),
            (
                1,
                EventPat::CallWithArg {
                    names: &["guest_vmwrite", "vmwrite"],
                    args: &["GuestPmlIndex"],
                },
                3,
            ),
        ],
        checks: &[Check {
            bad: 3,
            unless: Some(2),
            message: "`{fn}` resets GuestPmlIndex before draining: logged entries on this path are lost",
        }],
    },
    Protocol {
        rule: "drain-before-clear",
        name: "dbit-notify",
        crates: &["guest", "core"],
        scope: Scope::BodyCallContains("phys_write"),
        states: &["clean", "pending-notify", "notified"],
        start: 0,
        transitions: DBIT_NOTIFY,
        checks: &[Check {
            bad: 1,
            unless: Some(2),
            message: "`{fn}` destroys PTE dirty bits but no path carries a note_*_dirty_cleared notify: the PML shadow misses the transition",
        }],
    },
    Protocol {
        rule: "ring-guard",
        name: "spsc-overflow-guard",
        crates: SIM_CRATES,
        scope: Scope::Any,
        states: &["unguarded", "guarded", "overflow-risk"],
        start: 0,
        transitions: &[
            (0, EventPat::CallNamed(RING_PROBES), 1),
            (0, EventPat::RingPushUnchecked, 2),
        ],
        checks: &[Check {
            bad: 2,
            unless: None,
            message: "unguarded ring push in `{fn}`: the overflow result is discarded and no free-slot probe dominates it",
        }],
    },
    Protocol {
        rule: "ipi-on-full",
        name: "epml-self-ipi",
        crates: &["hypervisor"],
        scope: Scope::Any,
        states: &["idle", "must-post-ipi"],
        start: 0,
        transitions: &[
            (0, EventPat::ArmPattern("GuestBufferFull"), 1),
            (1, EventPat::CallReaching(&["post_interrupt"]), 0),
        ],
        checks: &[Check {
            bad: 1,
            unless: None,
            message: "`{fn}` enters the GuestBufferFull arm but can return without posting the EPML self-IPI (post_interrupt)",
        }],
    },
    Protocol {
        rule: "demote-before-log",
        name: "demote-shootdown-generation",
        crates: &["guest"],
        scope: Scope::BodyCallContains("demote_guest_region"),
        states: &["idle", "demoted", "shot-down", "bumped", "done"],
        start: 0,
        transitions: &[
            (0, EventPat::CallReaching(&["demote_guest_region"]), 1),
            (1, EventPat::CallReaching(SHOOTDOWNS), 2),
            (1, EventPat::CallReaching(&["bump_map_generation"]), 3),
            (2, EventPat::CallReaching(&["bump_map_generation"]), 4),
            (3, EventPat::CallReaching(SHOOTDOWNS), 4),
        ],
        checks: &[
            Check {
                bad: 1,
                unless: Some(4),
                message: "`{fn}` demotes a huge mapping but can return without a TLB shootdown or a map-generation bump: other cores keep the stale 2M translation and reverse-map caches go stale",
            },
            Check {
                bad: 2,
                unless: Some(4),
                message: "`{fn}` demotes a huge mapping and shoots the TLB down but never bumps the map generation: GPA\u{2192}GVA reverse-map caches built against the huge layout stay live",
            },
            Check {
                bad: 3,
                unless: Some(4),
                message: "`{fn}` demotes a huge mapping and bumps the map generation but never broadcasts a shootdown: another core's TLB still translates through the replaced 2M entry",
            },
        ],
    },
    Protocol {
        rule: "shootdown-complete",
        name: "downgrade-shootdown",
        crates: SIM_CRATES,
        scope: Scope::BodyCallContains("phys_write"),
        states: &["clean", "downgraded", "shot-down"],
        start: 0,
        transitions: &[
            (0, EventPat::CallReaching(SHOOTDOWNS), 2),
            (
                0,
                EventPat::PteDestruction {
                    without: &["DIRTY", "WRITABLE", "SOFT_DIRTY"],
                    with: &["UFFD_WP"],
                },
                1,
            ),
            (1, EventPat::CallReaching(SHOOTDOWNS), 2),
        ],
        checks: &[Check {
            bad: 1,
            unless: Some(2),
            message: "PTE {site} in `{fn}` never reaches a TLB shootdown — remote cores may keep using the old translation",
        }],
    },
    Protocol {
        rule: "shootdown-complete",
        name: "dbit-shadow-notify",
        crates: SIM_CRATES,
        scope: Scope::BodyCallContains("phys_write"),
        states: &["clean", "pending-notify", "notified"],
        start: 0,
        transitions: DBIT_NOTIFY,
        checks: &[Check {
            bad: 1,
            unless: Some(2),
            message: "PTE {site} in `{fn}` destroys the D bit without notifying the PML shadow (note_*_dirty_cleared)",
        }],
    },
];

/// Runs every protocol over every in-scope function; the entry point
/// `lib.rs` wires into the scan pipeline.
pub fn check(files: &[ParsedFile], graph: &CallGraph) -> Vec<Violation> {
    let mut out = Vec::new();
    // Strict closures per leaf, shared across protocols.
    let mut closures: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for proto in PROTOCOLS {
        // Resolve CallReaching sets once per protocol: the names of every
        // workspace fn from which one of the leaves is reachable. Strict
        // resolution only — the permissive closure bridges subsystems
        // through ubiquitous names (see `names_reaching_strict`) and would
        // quietly satisfy obligations that were never met.
        let reach_sets: Vec<Option<BTreeSet<String>>> = proto
            .transitions
            .iter()
            .map(|(_, pat, _)| match pat {
                EventPat::CallReaching(leaves) => {
                    let mut set = BTreeSet::new();
                    for leaf in *leaves {
                        let closure = closures
                            .entry(leaf)
                            .or_insert_with(|| graph.names_reaching_strict(leaf));
                        set.extend(closure.iter().cloned());
                    }
                    Some(set)
                }
                _ => None,
            })
            .collect();
        for file in files {
            if !proto.crates.contains(&file.crate_name.as_str()) {
                continue;
            }
            for f in &file.fns {
                if f.in_test || f.body.is_none() || !in_scope(proto, file, f) {
                    continue;
                }
                let Some(cfg) = Cfg::build(file, f) else {
                    continue;
                };
                run_protocol(proto, &reach_sets, file, f, &cfg, &mut out);
            }
        }
    }
    out
}

fn in_scope(proto: &Protocol, file: &ParsedFile, f: &crate::ast::FnItem) -> bool {
    match proto.scope {
        Scope::Any => true,
        Scope::FnNamed(names) => names.contains(&f.name.as_str()),
        Scope::BodyCallContains(sub) => {
            let Some((lo, hi)) = file.body_inner(f) else {
                return false;
            };
            file.calls_in(lo, hi)
                .iter()
                .any(|c| file.toks[c.tok].name().contains(sub))
        }
    }
}

/// The per-(block, event) applicable transitions, precomputed so the
/// fixpoint's transfer function is a table walk.
type EventTrans = Vec<Vec<Vec<(u8, u8)>>>;

fn classify(
    proto: &Protocol,
    reach_sets: &[Option<BTreeSet<String>>],
    file: &ParsedFile,
    cfg: &Cfg,
) -> EventTrans {
    cfg.blocks
        .iter()
        .map(|b| {
            b.events
                .iter()
                .map(|ev| {
                    proto
                        .transitions
                        .iter()
                        .enumerate()
                        .filter(|(ti, (_, pat, _))| {
                            event_matches(pat, reach_sets[*ti].as_ref(), file, ev)
                        })
                        .map(|(_, (from, _, to))| (*from, *to))
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn event_matches(
    pat: &EventPat,
    reach: Option<&BTreeSet<String>>,
    file: &ParsedFile,
    ev: &Ev,
) -> bool {
    match (pat, ev) {
        (EventPat::CallNamed(names), Ev::Call(tok)) => names.contains(&file.toks[*tok].name()),
        (EventPat::CallReaching(_), Ev::Call(tok)) => {
            reach.is_some_and(|set| set.contains(file.toks[*tok].name()))
        }
        (EventPat::CallWithArg { names, args }, Ev::Call(tok)) => {
            names.contains(&file.toks[*tok].name()) && call_arg_mentions(file, *tok, args)
        }
        (EventPat::ArmPattern(ident), Ev::Arm { lo, hi }) => file.toks
            [*lo..(*hi).min(file.toks.len())]
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.name() == *ident),
        (EventPat::RingPushAny, Ev::Call(tok)) => ring_push(file, *tok).is_some(),
        (EventPat::RingPushUnchecked, Ev::Call(tok)) => ring_push(file, *tok) == Some(false),
        (EventPat::PteDestruction { without, with }, Ev::Call(tok)) => {
            pte_destruction(file, *tok, without, with)
        }
        _ => false,
    }
}

/// Idents inside the call's `( .. )` argument group.
fn call_arg_mentions(file: &ParsedFile, tok: usize, args: &[&str]) -> bool {
    let open = tok + 1;
    if !file.toks.get(open).is_some_and(|t| t.is_open('(')) {
        return false;
    }
    let close = file.matching[open];
    if close == crate::ast::NO_MATCH {
        return false;
    }
    file.toks[open + 1..close]
        .iter()
        .any(|t| t.kind == TokKind::Ident && args.contains(&t.name()))
}

/// Classifies a `.push(..)` on a ring-shaped receiver. Returns `None`
/// when the call is not a ring push, else `Some(checked)`: the push is
/// *checked* when the statement consumes its overflow result — it sits
/// under `if`/`while`/`match`/an `assert`, is negated, or is bound by a
/// non-`_` `let`/assignment. The receiver must be named `ring` or end in
/// `_ring`, which keeps `String::push` and friends out.
fn ring_push(file: &ParsedFile, tok: usize) -> Option<bool> {
    let toks = &file.toks;
    if toks[tok].name() != "push" || tok < 2 || !toks[tok - 1].is_punct('.') {
        return None;
    }
    let recv = &toks[tok - 2];
    if recv.kind != TokKind::Ident {
        return None;
    }
    let rname = recv.name();
    if rname != "ring" && !rname.ends_with("_ring") {
        return None;
    }
    // Walk back over the receiver chain (`self.pml.ring.push` → `self`).
    let mut r = tok - 2;
    while r >= 2 && toks[r - 1].is_punct('.') && toks[r - 2].kind == TokKind::Ident {
        r -= 2;
    }
    // Scan the statement prefix (bounded) back to `;` / `{` / `}` / `=>`.
    let (mut has_kw, mut has_bang, mut has_let, mut has_underscore, mut has_eq) =
        (false, false, false, false, false);
    let mut j = r;
    let mut budget = 32;
    while j > 0 && budget > 0 {
        j -= 1;
        budget -= 1;
        let t = &toks[j];
        if t.is_punct(';') || t.is_open('{') || t.is_close('}') {
            break;
        }
        if t.is_punct('>') && j > 0 && toks[j - 1].is_punct('=') {
            break; // match-arm arrow
        }
        match t.kind {
            TokKind::Ident => {
                if t.is_ident("if")
                    || t.is_ident("while")
                    || t.is_ident("match")
                    || t.text.starts_with("assert")
                    || t.text.starts_with("debug_assert")
                {
                    has_kw = true;
                } else if t.is_ident("let") {
                    has_let = true;
                } else if t.is_ident("_") {
                    has_underscore = true;
                }
            }
            TokKind::Punct if t.is_punct('!') => has_bang = true,
            TokKind::Punct if t.is_punct('=') => has_eq = true,
            _ => {}
        }
    }
    let checked = has_kw || has_bang || (has_let && !has_underscore) || (!has_let && has_eq);
    Some(checked)
}

/// `Pte::empty()`, `.without(<flag>)` with a flag from `without`, or
/// `.with(<flag>)` with a flag from `with`.
fn pte_destruction(file: &ParsedFile, tok: usize, without: &[&str], with: &[&str]) -> bool {
    match file.toks[tok].name() {
        "empty" => is_pte_empty(file, tok),
        "without" => call_arg_mentions(file, tok, without),
        "with" => call_arg_mentions(file, tok, with),
        _ => false,
    }
}

fn is_pte_empty(file: &ParsedFile, tok: usize) -> bool {
    tok >= 3 && crate::ast::seq_at(&file.toks, tok - 3, &["Pte", ":", ":", "empty"])
}

/// Where an event at call token `tok` is reported: the call name, except
/// `Pte::empty()`, which anchors at the path's `Pte`.
fn event_site(file: &ParsedFile, tok: usize) -> usize {
    if is_pte_empty(file, tok) {
        tok - 3
    } else {
        tok
    }
}

/// What kind of PTE write the call token `tok` is, for `{site}` messages.
fn pte_site_label(file: &ParsedFile, tok: usize) -> &'static str {
    match file.toks[tok].name() {
        "empty" => "teardown (`Pte::empty()`)",
        "without" => "permission downgrade (`.without(..)`)",
        "with" => "write-protection (`.with(Pte::UFFD_WP)`)",
        _ => "write",
    }
}

/// Applies a block's event transitions to a state mask, in event order.
fn apply_block(mask: u32, trans: &[Vec<(u8, u8)>]) -> u32 {
    let mut m = mask;
    for ev_trans in trans {
        if ev_trans.is_empty() {
            continue;
        }
        let mut next = 0u32;
        for s in 0..32u8 {
            if m & (1 << s) == 0 {
                continue;
            }
            let to = ev_trans
                .iter()
                .find(|(from, _)| *from == s)
                .map_or(s, |(_, to)| *to);
            next |= 1 << to;
        }
        m = next;
    }
    m
}

fn run_protocol(
    proto: &Protocol,
    reach_sets: &[Option<BTreeSet<String>>],
    file: &ParsedFile,
    f: &crate::ast::FnItem,
    cfg: &Cfg,
    out: &mut Vec<Violation>,
) {
    let trans = classify(proto, reach_sets, file, cfg);
    // Skip functions that never produce a protocol event: the start state
    // rides through unchanged and exit checks on it would flag every
    // unrelated function (spml-pairing scopes by name instead).
    let touches = trans.iter().flatten().any(|t| !t.is_empty());
    let named_scope = matches!(proto.scope, Scope::FnNamed(_));
    if !touches && !named_scope {
        return;
    }
    let start_mask = 1u32 << proto.start;
    let (_, outs) = forward(cfg, start_mask, |b, m| {
        if cfg.blocks[b].exempt {
            0
        } else {
            apply_block(*m, &trans[b])
        }
    });
    let mut seen: BTreeSet<(usize, usize, &'static str)> = BTreeSet::new();
    for (b, blk) in cfg.blocks.iter().enumerate() {
        let Some(exit) = blk.exit else { continue };
        if exit.kind != ExitKind::Ok || outs[b] == 0 {
            continue;
        }
        for check in proto.checks {
            if outs[b] & (1 << check.bad) == 0 {
                continue;
            }
            if let Some(u) = check.unless {
                if outs[b] & (1 << u) != 0 {
                    continue;
                }
            }
            let steps = trace_path(proto, cfg, &trans, b, check.bad);
            // Anchor at the last transition into the bad state, else at
            // the exit site (the bad state held from entry).
            let entered = steps.iter().rev().find(|s| s.entered_bad);
            let anchor = entered.map_or(exit.site, |s| event_site(file, s.tok));
            let t = &file.toks[anchor];
            if !seen.insert((t.line, t.col, check.message)) {
                continue;
            }
            let mut message = check.message.replace("{fn}", &f.name);
            if let Some(s) = entered {
                message = message.replace("{site}", pte_site_label(file, s.tok));
            }
            out.push(Violation {
                rule: proto.rule,
                path: file.rel_path.clone(),
                line: t.line,
                col: t.col,
                excerpt: file.raw_line(t.line),
                message,
                hint: rule_info(proto.rule).help.to_string(),
                trace: render_trace(proto, file, f, &steps, exit.site, check.bad),
            });
        }
    }
}

/// One recovered protocol step: a state transition at `tok`.
struct PathStep {
    tok: usize,
    from: u8,
    to: u8,
    is_arm: bool,
    /// True when `to` is the check's bad state (anchor candidate).
    entered_bad: bool,
}

/// Shortest entry→(exit, bad) path over the (block, event-pos, state)
/// product graph, as the list of state transitions along it. BFS order is
/// deterministic (block/event/state indices only). Returns an empty list
/// when no concrete path exists (the abstraction joined facts the product
/// walk cannot witness) — the finding then anchors at the exit.
fn trace_path(
    proto: &Protocol,
    cfg: &Cfg,
    trans: &EventTrans,
    exit_block: usize,
    bad: u8,
) -> Vec<PathStep> {
    #[derive(Clone, Copy)]
    struct Node {
        block: usize,
        pos: usize,
        state: u8,
        parent: usize,
        cause: Option<(usize, u8, u8, bool)>, // (tok, from, to, is_arm)
    }
    let n = cfg.blocks.len();
    let width = cfg
        .blocks
        .iter()
        .map(|b| b.events.len() + 1)
        .max()
        .unwrap_or(1);
    let nstates = proto.states.len();
    let idx = |b: usize, p: usize, s: u8| (b * width + p) * nstates + s as usize;
    let mut visited = vec![false; n * width * nstates];
    let mut nodes: Vec<Node> = vec![Node {
        block: 0,
        pos: 0,
        state: proto.start,
        parent: usize::MAX,
        cause: None,
    }];
    visited[idx(0, 0, proto.start)] = true;
    let mut head = 0;
    let mut found = None;
    while head < nodes.len() {
        let cur = nodes[head];
        let blk = &cfg.blocks[cur.block];
        if cur.pos == blk.events.len() {
            if cur.block == exit_block && cur.state == bad {
                found = Some(head);
                break;
            }
            for &s in &blk.succs {
                if cfg.blocks[s].exempt {
                    continue;
                }
                if !visited[idx(s, 0, cur.state)] {
                    visited[idx(s, 0, cur.state)] = true;
                    nodes.push(Node {
                        block: s,
                        pos: 0,
                        state: cur.state,
                        parent: head,
                        cause: None,
                    });
                }
            }
        } else {
            let ev_trans = &trans[cur.block][cur.pos];
            let to = ev_trans
                .iter()
                .find(|(from, _)| *from == cur.state)
                .map_or(cur.state, |(_, to)| *to);
            if !visited[idx(cur.block, cur.pos + 1, to)] {
                visited[idx(cur.block, cur.pos + 1, to)] = true;
                let cause = if to != cur.state {
                    let (tok, is_arm) = match blk.events[cur.pos] {
                        Ev::Call(t) => (t, false),
                        Ev::Arm { lo, .. } => (lo, true),
                    };
                    Some((tok, cur.state, to, is_arm))
                } else {
                    None
                };
                nodes.push(Node {
                    block: cur.block,
                    pos: cur.pos + 1,
                    state: to,
                    parent: head,
                    cause,
                });
            }
        }
        head += 1;
    }
    let Some(mut at) = found else {
        return Vec::new();
    };
    let mut steps = Vec::new();
    while at != usize::MAX {
        if let Some((tok, from, to, is_arm)) = nodes[at].cause {
            steps.push(PathStep {
                tok,
                from,
                to,
                is_arm,
                entered_bad: to == bad,
            });
        }
        at = nodes[at].parent;
    }
    steps.reverse();
    steps
}

fn render_trace(
    proto: &Protocol,
    file: &ParsedFile,
    f: &crate::ast::FnItem,
    steps: &[PathStep],
    exit_site: usize,
    bad: u8,
) -> Vec<TraceStep> {
    let mut out = Vec::new();
    let head = &file.toks[f.fn_tok];
    out.push(TraceStep {
        line: head.line,
        col: head.col,
        note: format!(
            "`{}` entered — protocol '{}' starts in state '{}'",
            f.name, proto.name, proto.states[proto.start as usize]
        ),
    });
    for s in steps {
        let what = if s.is_arm {
            format!("matched arm `{}`", arm_label(file, s.tok))
        } else {
            format!("call `{}`", file.toks[s.tok].name())
        };
        let t = &file.toks[if s.is_arm {
            s.tok
        } else {
            event_site(file, s.tok)
        }];
        out.push(TraceStep {
            line: t.line,
            col: t.col,
            note: format!(
                "{what} — state '{}' → '{}'",
                proto.states[s.from as usize], proto.states[s.to as usize]
            ),
        });
    }
    let e = &file.toks[exit_site];
    out.push(TraceStep {
        line: e.line,
        col: e.col,
        note: format!(
            "success exit reached in state '{}'",
            proto.states[bad as usize]
        ),
    });
    out
}

/// A readable label for a match-arm pattern starting at `lo`: its idents
/// joined with `::` (`PmlEvent::GuestBufferFull`).
fn arm_label(file: &ParsedFile, lo: usize) -> String {
    file.toks[lo..]
        .iter()
        .take_while(|t| !(t.is_punct('=') || t.is_open('{')))
        .filter(|t| t.kind == TokKind::Ident)
        .take(3)
        .map(|t| t.name().to_string())
        .collect::<Vec<_>>()
        .join("::")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ParsedFile;
    use crate::callgraph::CallGraph;

    fn scan(crate_name: &str, src: &str) -> Vec<Violation> {
        let files = vec![ParsedFile::parse(
            crate_name,
            &format!("crates/{crate_name}/src/t.rs"),
            src,
        )];
        let graph = CallGraph::build(&files);
        check(&files, &graph)
    }

    fn rules_of(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn sched_out_without_disable_is_flagged_with_trace() {
        let src = "impl M {\n    fn sched_out(&mut self, hv: &mut H) -> Result<(), E> {\n        if self.idle { return Ok(()); }\n        self.disable_logging(hv)\n    }\n    fn disable_logging(&mut self, hv: &mut H) -> Result<(), E> { hv.hypercall(0, Hypercall::DisableLogging, 0) }\n}\n";
        let v = scan("guest", src);
        assert_eq!(rules_of(&v), vec!["spml-pairing"], "{v:?}");
        assert!(
            v[0].trace.len() >= 2,
            "trace must have entry + exit: {:?}",
            v[0].trace
        );
        assert!(v[0].message.contains("sched_out"));
    }

    #[test]
    fn sched_out_that_always_disables_is_clean() {
        // Both return paths disable: the early-out disables first, the
        // tail uses the vmwrite form — no path escapes enabled.
        let src = "impl M {\n    fn sched_out(&mut self, hv: &mut H) -> Result<(), E> {\n        if self.idle { return self.disable_logging(hv); }\n        hv.guest_vmwrite(self.vm, 0, Field::EpmlControl, 0)?;\n        Ok(())\n    }\n    fn disable_logging(&mut self, hv: &mut H) -> Result<(), E> { hv.hypercall(0, Hypercall::DisableLogging, 0) }\n}\n";
        assert!(scan("guest", src).is_empty());
    }

    #[test]
    fn mutation_guarded_skip_path_is_exempt() {
        // The production shape: the skip path only exists behind the
        // seeded-mutation knob, so it must NOT fire.
        let src = "impl M {\n    fn sched_out(&mut self, hv: &mut H) -> Result<(), E> {\n        if self.mutate_skip_disable_logging { return Ok(()); }\n        self.disable_logging(hv)\n    }\n    fn disable_logging(&mut self, hv: &mut H) -> Result<(), E> { hv.hypercall(0, Hypercall::DisableLogging, 0) }\n}\n";
        assert!(scan("guest", src).is_empty());
    }

    #[test]
    fn index_reset_before_drain_is_flagged() {
        let src = "impl M {\n    fn drain(&mut self, hv: &mut H) -> Result<(), E> {\n        let idx = hv.guest_vmread(self.vm, 0, Field::GuestPmlIndex)?;\n        hv.guest_vmwrite(self.vm, 0, Field::GuestPmlIndex, 511)?;\n        let n = idx;\n        for k in 0..n { self.ring.push(k)?; }\n        Ok(())\n    }\n}\n";
        let v = scan("guest", src);
        assert!(rules_of(&v).contains(&"drain-before-clear"), "{v:?}");
    }

    #[test]
    fn index_reset_after_drain_is_clean() {
        let src = "impl M {\n    fn drain(&mut self, hv: &mut H) -> Result<(), E> {\n        let idx = hv.guest_vmread(self.vm, 0, Field::GuestPmlIndex)?;\n        for k in 0..idx { if !self.ring.push(k)? { self.overflow += 1; } }\n        hv.guest_vmwrite(self.vm, 0, Field::GuestPmlIndex, 511)?;\n        Ok(())\n    }\n}\n";
        assert!(scan("guest", src).is_empty());
    }

    #[test]
    fn dbit_destruction_without_notify_is_flagged() {
        // The PR 5 munmap bug shape: D-bit teardown, shootdown, no notify.
        let src = "impl K {\n    fn munmap(&mut self, hv: &mut H) -> Result<(), E> {\n        self.kernel_phys_write(hv, slot, Pte::empty().0)?;\n        Ok(())\n    }\n}\n";
        let v = scan("guest", src);
        assert!(rules_of(&v).contains(&"drain-before-clear"), "{v:?}");
    }

    #[test]
    fn dbit_destruction_with_notify_before_or_after_is_clean() {
        let before = "impl K {\n    fn munmap(&mut self, hv: &mut H) -> Result<(), E> {\n        hv.note_guest_pte_dirty_cleared(self.vm, 0, gpa);\n        self.kernel_phys_write(hv, slot, Pte::empty().0)?;\n        self.shootdown_page(hv, gva);\n        Ok(())\n    }\n}\n";
        assert!(
            scan("guest", before).is_empty(),
            "notify-then-clear is the munmap design"
        );
        let after = "impl K {\n    fn sweep(&mut self, hv: &mut H) -> Result<(), E> {\n        self.kernel_phys_write(hv, slot, pte.without(Pte::DIRTY).0)?;\n        hv.note_guest_pte_dirty_cleared(self.vm, 0, gpa);\n        self.shootdown_all(hv);\n        Ok(())\n    }\n}\n";
        assert!(
            scan("guest", after).is_empty(),
            "clear-then-notify is the drain design"
        );
    }

    #[test]
    fn unchecked_ring_push_is_flagged_but_guarded_forms_are_clean() {
        let bad = "fn burst(&mut self) { self.ring.push(v); }";
        let v = scan("machine", bad);
        assert_eq!(rules_of(&v), vec!["ring-guard"], "{v:?}");

        let consumed = "fn burst(&mut self) { if !self.ring.push(v) { self.overflow += 1; } }";
        assert!(scan("machine", consumed).is_empty());
        let probed = "fn burst(&mut self) { if self.ring.free_slots() == 0 { return; }\n self.ring.push(v); }";
        assert!(scan("machine", probed).is_empty());
        let bound = "fn burst(&mut self) { let ok = self.ring.push(v); self.note(ok); }";
        assert!(scan("machine", bound).is_empty());
        let discarded = "fn burst(&mut self) { let _ = self.ring.push(v); }";
        assert_eq!(rules_of(&scan("machine", discarded)), vec!["ring-guard"]);
    }

    #[test]
    fn vec_push_is_not_a_ring_push() {
        let src = "fn gather(&mut self) { self.out.push(1); self.string.push('c'); }";
        assert!(scan("machine", src).is_empty());
    }

    #[test]
    fn buffer_full_arm_must_post_interrupt() {
        let bad = "impl H {\n    fn dispatch(&mut self, ev: PmlEvent) {\n        match ev {\n            PmlEvent::GuestBufferFull => { self.ctx.charge(1, 2); }\n            _ => {}\n        }\n    }\n}\n";
        let v = scan("hypervisor", bad);
        assert_eq!(rules_of(&v), vec!["ipi-on-full"], "{v:?}");
        assert!(
            v[0].trace
                .iter()
                .any(|s| s.note.contains("GuestBufferFull")),
            "trace must show the arm entry: {:?}",
            v[0].trace
        );

        let good = "impl H {\n    fn dispatch(&mut self, ev: PmlEvent) {\n        match ev {\n            PmlEvent::GuestBufferFull => {\n                self.ctx.charge(1, 2);\n                v.post_interrupt(&self.ctx, 0, VEC);\n            }\n            _ => {}\n        }\n    }\n}\n";
        assert!(scan("hypervisor", good).is_empty());
    }

    #[test]
    fn traces_step_through_the_protocol() {
        let src = "impl M {\n    fn drain(&mut self, hv: &mut H) -> Result<(), E> {\n        let idx = hv.guest_vmread(self.vm, 0, Field::GuestPmlIndex)?;\n        hv.guest_vmwrite(self.vm, 0, Field::GuestPmlIndex, 511)?;\n        Ok(())\n    }\n}\n";
        let v = scan("guest", src);
        assert_eq!(v.len(), 1, "{v:?}");
        let notes: Vec<&str> = v[0].trace.iter().map(|s| s.note.as_str()).collect();
        assert!(notes[0].contains("starts in state"), "{notes:?}");
        assert!(
            notes.iter().any(|n| n.contains("'idle' → 'armed'")),
            "{notes:?}"
        );
        assert!(
            notes
                .iter()
                .any(|n| n.contains("'armed' → 'cleared-early'")),
            "{notes:?}"
        );
        assert!(notes.last().unwrap().contains("exit"), "{notes:?}");
    }

    #[test]
    fn invalid_guard_rejection_is_an_error_exit() {
        // `Ok(HypercallResult::Invalid)` is a guard rejection: obligations
        // do not bind on it, even though `Ok` comes first.
        let src = "impl M {\n    fn sched_out(&mut self, hv: &mut H) -> Result<R, E> {\n        if self.off { return Ok(HypercallResult::Invalid); }\n        self.disable_logging(hv)\n    }\n    fn disable_logging(&mut self, hv: &mut H) -> Result<R, E> { hv.hypercall(0, Hypercall::DisableLogging, 0) }\n}\n";
        assert!(scan("guest", src).is_empty());
    }

    fn shootdown(src: &str) -> Vec<Violation> {
        scan("guest", src)
            .into_iter()
            .filter(|v| v.rule == "shootdown-complete")
            .collect()
    }

    #[test]
    fn teardown_with_notify_and_shootdown_passes() {
        let src = "impl K {\n    fn munmap(&mut self, hv: &mut H) {\n        hv.note_guest_pte_dirty_cleared(gpa);\n        self.kernel_phys_write(pa, Pte::empty().0);\n        self.shootdown_all(hv);\n    }\n}\n";
        assert!(scan("guest", src).is_empty());
    }

    #[test]
    fn teardown_without_shootdown_is_flagged_at_the_pte_path() {
        let src = "impl K {\n    fn munmap(&mut self, hv: &mut H) {\n        hv.note_guest_pte_dirty_cleared(gpa);\n        self.kernel_phys_write(pa, Pte::empty().0);\n    }\n}\n";
        let vs = scan("guest", src);
        assert_eq!(rules_of(&vs), vec!["shootdown-complete"], "{vs:?}");
        assert_eq!((vs[0].line, vs[0].col), (4, 36));
        assert!(
            vs[0]
                .message
                .starts_with("PTE teardown (`Pte::empty()`) in `munmap`"),
            "{vs:?}"
        );
        let notes: Vec<&str> = vs[0].trace.iter().map(|s| s.note.as_str()).collect();
        assert!(
            notes
                .iter()
                .any(|n| n.contains("call `empty` — state 'clean' → 'downgraded'")),
            "{notes:?}"
        );
    }

    #[test]
    fn shootdown_on_one_branch_only_is_flagged() {
        let src = "impl K {\n    fn protect(&mut self, hv: &mut H) -> Result<(), E> {\n        self.kernel_phys_write(pa, pte.without(Pte::WRITABLE).0)?;\n        if self.single { return Ok(()); }\n        self.shootdown_all(hv);\n        Ok(())\n    }\n}\n";
        let vs = shootdown(src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("permission downgrade"), "{vs:?}");
    }

    #[test]
    fn dirty_clear_without_notify_is_flagged() {
        let src = "impl K {\n    fn sweep(&mut self, hv: &mut H) {\n        let v = pte.without(Pte::DIRTY);\n        self.kernel_phys_write(pa, v.0);\n        self.shootdown_all(hv);\n    }\n}\n";
        let vs = shootdown(src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("PML shadow"), "{vs:?}");
    }

    #[test]
    fn soft_dirty_clear_needs_no_notify() {
        let src = "impl K {\n    fn clear_refs(&mut self, hv: &mut H) {\n        let v = pte.without(Pte::SOFT_DIRTY | Pte::WRITABLE);\n        self.kernel_phys_write(pa, v.0);\n        self.shootdown_all(hv);\n    }\n}\n";
        assert!(scan("guest", src).is_empty());
    }

    #[test]
    fn uffd_unprotect_is_an_upgrade() {
        // `.without(Pte::UFFD_WP)` relaxes permissions; no shootdown needed.
        let src = "impl K {\n    fn unprotect(&mut self, hv: &mut H) {\n        let v = pte.without(Pte::UFFD_WP);\n        self.kernel_phys_write(pa, v.0);\n    }\n}\n";
        assert!(scan("guest", src).is_empty());
    }

    #[test]
    fn uffd_protect_requires_shootdown() {
        let src = "impl K {\n    fn writeprotect(&mut self, hv: &mut H) {\n        let v = pte.with(Pte::UFFD_WP);\n        self.kernel_phys_write(pa, v.0);\n    }\n}\n";
        let vs = scan("guest", src);
        assert_eq!(rules_of(&vs), vec!["shootdown-complete"], "{vs:?}");
        assert!(vs[0].message.contains("write-protection"), "{vs:?}");
    }

    #[test]
    fn shootdown_via_helper_counts() {
        let src = "impl K {\n    fn munmap(&mut self, hv: &mut H) {\n        hv.note_guest_pte_dirty_cleared(gpa);\n        self.kernel_phys_write(pa, Pte::empty().0);\n        self.broadcast(hv);\n    }\n    fn broadcast(&mut self, hv: &mut H) { self.shootdown_all(hv); }\n}\n";
        assert!(scan("guest", src).is_empty());
    }

    #[test]
    fn downgrade_without_phys_write_is_not_a_site() {
        // Computing a downgraded value without writing it is fine.
        let src = "impl K {\n    fn preview(&self) -> Pte { pte.without(Pte::DIRTY) }\n}\n";
        assert!(scan("guest", src).is_empty());
    }

    #[test]
    fn non_sim_crates_are_out_of_scope() {
        let src = "fn munmap() { kernel_phys_write(pa, Pte::empty().0); }";
        assert!(scan("bench", src).is_empty());
    }
}
