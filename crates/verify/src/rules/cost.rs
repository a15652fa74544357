//! `cost-coverage`: every handler reachable from the registered entry
//! points must charge the cost model — the call-graph upgrade of v1's
//! token-level `arch-cost`.
//!
//! Two tiers, chosen per entry shape:
//!
//! - **Strict (all success paths)** for the hypervisor's `handle_*` /
//!   `hypercall` bodies and the guest's `shootdown_page`/`shootdown_all`
//!   broadcast helpers: a forward "charged" dataflow over the function's
//!   [`Cfg`] checks that every path reaching a *success* exit includes a
//!   call that (transitively, via the call graph) reaches `charge`.
//!   Error-shaped exits — `?`, `return Err(..)`, `None`, and
//!   `HypercallResult::Invalid` guard rejections, classified by
//!   [`crate::cfg::range_err_shaped`] — are exempt: the simulator charges
//!   for work done, and a rejected hypercall's cost is the vmexit round trip
//!   its caller already accounted. Each `Hypercall::X => ..` arm of the
//!   dispatcher ([`Ev::Arm`]) is additionally checked on its own, so "added
//!   a variant, forgot the charge" is caught at the arm, not smeared over
//!   the whole function.
//! - **Weak (reaches a charge at all)** for the guest fault/IPI handlers
//!   and the tracker `collect`/`drain_*` surface in core, where charging
//!   legitimately lives several calls down (pagemap walks, ring drains)
//!   and per-path precision would only manufacture noise.
//!
//! - **Weak** also for the hypervisor's migration round surface
//!   (`round`/`finalize`/`run_*`): the copy channel charges per page inside
//!   `record_round`, one call down from every drain.
//!
//! The charging set is the call-graph fixpoint of "mentions a call named
//! `charge`" — unioned over all four `SimCtx` charging variants
//! (`charge`, `charge_n`, `charge_ns`, `charge_n_ns`), which record an
//! event but do not call each other — so helpers like `invlpg` (which
//! charges inside) satisfy the strict walk at their call sites.

use std::collections::BTreeSet;

use crate::ast::ParsedFile;
use crate::callgraph::CallGraph;
use crate::cfg::{Cfg, Ev, ExitKind};
use crate::dataflow::forward;
use crate::lexer::TokKind;
use crate::{Violation, SIM_CRATES};

pub const RULE: &str = "cost-coverage";
const HINT: &str = "charge the cost model (ctx.charge(lane, event)) on this path, or call a helper that does; suppress with verify.allow if the path is genuinely free";

/// Dataflow fact bits. A path that charged carries only `CHARGED`; bit 0
/// is an uncharged path outside any tracked arm, bit `1 + k` an uncharged
/// path since entering the `k`-th tracked `Hypercall::X` arm.
const CHARGED: u32 = 1 << 31;
/// Tracked arms per dispatcher (bits 1..=30).
const MAX_ARMS: usize = 30;

pub fn check(files: &[ParsedFile], graph: &CallGraph) -> Vec<Violation> {
    let mut charging = graph.names_reaching("charge");
    for leaf in ["charge_n", "charge_ns", "charge_n_ns"] {
        charging.extend(graph.names_reaching(leaf));
    }
    let reachable = graph.reachable_from_entries(files);
    let mut out = Vec::new();

    for (id, node) in graph.nodes.iter().enumerate() {
        let file = &files[node.file];
        let crate_name = file.crate_name.as_str();
        let name = node.name.as_str();
        let strict = (crate_name == "hypervisor"
            && (name == "hypercall" || name.starts_with("handle_")))
            || (crate_name == "guest" && (name == "shootdown_page" || name == "shootdown_all"));
        let weak = (crate_name == "guest" && name.starts_with("handle_"))
            || (crate_name == "core" && (name == "collect" || name.starts_with("drain_")))
            || (crate_name == "hypervisor"
                && (name == "round" || name == "finalize" || name.starts_with("run_")))
            || (name.starts_with("handle_")
                && SIM_CRATES.contains(&crate_name)
                && reachable.contains(&id));
        if !strict && !weak {
            continue;
        }
        let f = &file.fns[node.fn_idx];
        if !node.callees.iter().any(|c| charging.contains(c)) {
            out.push(Violation::at(
                file,
                f.fn_tok,
                RULE,
                format!(
                    "handler `{name}` never charges the cost model, directly or through any callee — every entry-point path must account its cycles"
                ),
                HINT,
            ));
            continue;
        }
        if !strict {
            continue;
        }
        let Some(cfg) = Cfg::build(file, f) else {
            continue;
        };
        let dispatcher = name == "hypercall" && crate_name == "hypervisor";
        check_paths(file, &cfg, &charging, name, f.fn_tok, dispatcher, &mut out);
    }
    out
}

/// The strict tier: runs the charged/uncharged facts forward over `cfg`
/// and reports every uncharged success `return`, then — only where a scope
/// has no such gap — an uncharged fall-through: at the fn for ordinary
/// handlers, at each `Hypercall::X` arm pattern for the dispatcher.
fn check_paths(
    file: &ParsedFile,
    cfg: &Cfg,
    charging: &BTreeSet<String>,
    name: &str,
    fn_tok: usize,
    dispatcher: bool,
    out: &mut Vec<Violation>,
) {
    // Tracked arms: the dispatcher's `Hypercall::X` patterns, by pattern
    // start token, in CFG order.
    let arms: Vec<(usize, usize)> = if dispatcher {
        cfg.blocks
            .iter()
            .flat_map(|b| &b.events)
            .filter_map(|ev| match *ev {
                Ev::Arm { lo, hi } if file.toks[lo..hi].iter().any(|t| t.is_ident("Hypercall")) => {
                    Some((lo, hi))
                }
                _ => None,
            })
            .take(MAX_ARMS)
            .collect()
    } else {
        Vec::new()
    };
    let (_, outs) = forward(cfg, 1u32, |b, &m| {
        let mut m = m;
        for ev in &cfg.blocks[b].events {
            match *ev {
                _ if m == 0 => break,
                Ev::Call(t) if charging.contains(file.toks[t].name()) => m = CHARGED,
                Ev::Arm { lo, .. } => {
                    if let Some(k) = arms.iter().position(|a| a.0 == lo) {
                        m = 1 << (k + 1);
                    }
                }
                Ev::Call(_) => {}
            }
        }
        m
    });
    let scope = |bit: usize| match bit {
        0 => format!("handler `{name}`"),
        k => format!("match arm for `{}`", variant(file, arms[k - 1])),
    };
    let (mut gaps, mut fallthrough) = (0u32, 0u32);
    for (b, blk) in cfg.blocks.iter().enumerate() {
        let Some(exit) = blk.exit else { continue };
        let uncharged = outs[b] & !CHARGED;
        if exit.kind != ExitKind::Ok || uncharged == 0 {
            continue;
        }
        if !file.toks[exit.site].is_ident("return") {
            fallthrough |= uncharged;
            continue;
        }
        gaps |= uncharged;
        for bit in (0..=arms.len()).filter(|k| uncharged & (1 << k) != 0) {
            out.push(Violation::at(
                file,
                exit.site,
                RULE,
                format!(
                    "success return without a cost-model charge in {}",
                    scope(bit)
                ),
                HINT,
            ));
        }
    }
    let open = fallthrough & !gaps;
    if open & 1 != 0 && !dispatcher {
        out.push(Violation::at(
            file,
            fn_tok,
            RULE,
            format!("some success path through handler `{name}` returns without charging the cost model"),
            HINT,
        ));
    }
    for (k, arm) in arms.iter().enumerate() {
        if open & (1 << (k + 1)) != 0 {
            out.push(Violation::at(
                file,
                arm.0,
                RULE,
                format!(
                    "match arm for `{}` never charges the cost model on some path",
                    variant(file, *arm)
                ),
                HINT,
            ));
        }
    }
}

/// `Hypercall::<first ident after a path separator>` for an arm pattern.
fn variant(file: &ParsedFile, (lo, hi): (usize, usize)) -> String {
    let mut saw_sep = false;
    for t in &file.toks[lo..hi] {
        if t.is_punct(':') {
            saw_sep = true;
        } else if saw_sep && t.kind == TokKind::Ident {
            return format!("Hypercall::{}", t.text);
        }
    }
    "Hypercall::".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(crate_name: &str, src: &str) -> Vec<Violation> {
        let files = vec![ParsedFile::parse(
            crate_name,
            &format!("crates/{crate_name}/src/lib.rs"),
            src,
        )];
        let graph = CallGraph::build(&files);
        check(&files, &graph)
    }

    #[test]
    fn handler_charging_transitively_passes() {
        let src = "impl H {\n    pub fn handle_pml_full(&mut self) -> R { self.pay(); self.drain() }\n    fn pay(&mut self) { self.ctx.charge(1, 2); }\n}\n";
        assert!(run("hypervisor", src).is_empty());
    }

    #[test]
    fn handler_without_any_charge_is_flagged() {
        let src = "impl H {\n    pub fn handle_pml_full(&mut self) -> R { self.drain() }\n    fn drain(&mut self) -> R { R }\n}\n";
        let vs = run("hypervisor", src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, RULE);
        assert!(vs[0].message.contains("handle_pml_full"));
    }

    #[test]
    fn uncharged_early_success_return_is_a_gap() {
        let src = "impl H {\n    pub fn handle_x(&mut self) -> R {\n        if self.idle { return Ok(()); }\n        self.ctx.charge(1, 2);\n        Ok(())\n    }\n}\n";
        let vs = run("hypervisor", src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("success return"));
        assert_eq!(vs[0].line, 3);
    }

    #[test]
    fn err_shaped_early_returns_are_exempt() {
        let src = "impl H {\n    pub fn handle_x(&mut self) -> R {\n        if self.bad { return Err(Bug); }\n        if self.off { return Ok(HypercallResult::Invalid); }\n        self.ctx.charge(1, 2);\n        Ok(())\n    }\n}\n";
        assert!(run("hypervisor", src).is_empty());
    }

    #[test]
    fn branchy_charging_must_cover_all_arms() {
        // Charge only in the then-branch: the else path escapes.
        let src = "impl H {\n    pub fn handle_x(&mut self) -> R {\n        if self.a { self.ctx.charge(1, 2); } else { self.noop(); }\n        Ok(())\n    }\n}\n";
        // Both arms exist but only one charges -> not definite -> flagged.
        let vs = run("hypervisor", src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("some success path"));
        // Charging in both arms passes.
        let src = "impl H {\n    pub fn handle_x(&mut self) -> R {\n        if self.a { self.ctx.charge(1, 2); } else { self.ctx.charge(1, 3); }\n        Ok(())\n    }\n}\n";
        assert!(run("hypervisor", src).is_empty());
    }

    #[test]
    fn hypercall_arm_without_charge_is_flagged_per_arm() {
        let src = "impl H {\n    pub fn hypercall(&mut self, c: Hypercall) -> R {\n        self.ctx.charge(1, 0);\n        match c {\n            Hypercall::SpmlInit { gpa } => { self.ctx.charge(1, 2); self.init(gpa) }\n            Hypercall::SpmlDeactivate => self.deactivate(),\n        }\n    }\n}\n";
        let vs = run("hypervisor", src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("SpmlDeactivate"), "{vs:?}");
    }

    #[test]
    fn uncharged_ok_none_return_is_a_gap() {
        // `Ok(None)` is a success: the first of Err/None/Ok/Some decides.
        let src = "impl H {\n    pub fn handle_x(&mut self) -> R {\n        if self.idle { return Ok(None); }\n        self.ctx.charge(1, 2);\n        Ok(Some(3))\n    }\n}\n";
        let vs = run("hypervisor", src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("success return"), "{vs:?}");
        assert_eq!(vs[0].line, 3);
    }

    #[test]
    fn hypercall_arm_guard_rejections_are_exempt() {
        let src = "impl H {\n    pub fn hypercall(&mut self, c: Hypercall) -> R {\n        match c {\n            Hypercall::EpmlInit => {\n                if !self.cfg.epml { return Ok(HypercallResult::Invalid); }\n                self.ctx.charge(1, 2);\n                Ok(HypercallResult::Ok)\n            }\n        }\n    }\n}\n";
        assert!(run("hypervisor", src).is_empty());
    }

    #[test]
    fn hypercall_arm_uncharged_tail_rejection_is_exempt() {
        let src = "impl H {\n    pub fn hypercall(&mut self, c: Hypercall) -> R {\n        match c {\n            Hypercall::Unsupported => Ok(HypercallResult::Invalid),\n            Hypercall::EpmlInit => { self.ctx.charge(1, 2); Ok(HypercallResult::Ok) }\n            Hypercall::Flush => Ok(HypercallResult::Ok),\n        }\n    }\n}\n";
        let vs = run("hypervisor", src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(
            vs[0].message,
            "match arm for `Hypercall::Flush` never charges the cost model on some path"
        );
    }

    #[test]
    fn hypercall_construction_is_not_an_arm() {
        let src = "impl H {\n    pub fn hypercall(&mut self, c: Hypercall) -> R {\n        let x = make(Hypercall::SpmlInit { gpa });\n        match c { Hypercall::SpmlInit { gpa } => self.ctx.charge(1, gpa), }\n    }\n}\n";
        assert!(run("hypervisor", src).is_empty());
    }

    #[test]
    fn guest_shootdowns_are_strict() {
        let src = "impl K {\n    pub fn shootdown_all(&self, hv: &mut H) { self.flush(hv) }\n    fn flush(&self, hv: &mut H) { hv.x(); }\n}\n";
        let vs = run("guest", src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("shootdown_all"));
        let src = "impl K {\n    pub fn shootdown_page(&self, hv: &mut H, gva: Gva) { self.invlpg(hv, gva); }\n    fn invlpg(&self, hv: &mut H, gva: Gva) { hv.ctx.charge(1, 2); }\n}\n";
        assert!(run("guest", src).is_empty());
    }

    #[test]
    fn guest_fault_handlers_use_the_weak_tier() {
        // Charges only on one branch: weak tier passes (reaches a charge),
        // strict would have flagged.
        let src = "impl K {\n    pub fn handle_fault(&mut self) -> R {\n        if self.wp { self.ctx.charge(1, 2); return Ok(()); }\n        Ok(())\n    }\n}\n";
        assert!(run("guest", src).is_empty());
        // No charge anywhere: flagged even on the weak tier.
        let src = "impl K {\n    pub fn handle_fault(&mut self) -> R { self.fix(); Ok(()) }\n    fn fix(&mut self) {}\n}\n";
        let vs = run("guest", src);
        assert_eq!(vs.len(), 1, "{vs:?}");
    }

    #[test]
    fn core_trackers_must_reach_charge() {
        let src = "impl T {\n    fn collect(&mut self, env: &mut E) -> R { self.walk(env) }\n    fn walk(&mut self, env: &mut E) -> R { env.ctx.charge(1, 2); R }\n}\n";
        assert!(run("core", src).is_empty());
        let src = "impl T {\n    fn collect(&mut self, env: &mut E) -> R { self.walk(env) }\n    fn walk(&mut self, env: &mut E) -> R { R }\n}\n";
        let vs = run("core", src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("collect"));
    }

    #[test]
    fn migration_rounds_use_the_weak_tier_and_variant_charges_count() {
        // `round` charges through `record_round`, which uses the explicit-ns
        // variant — the seed union must recognise `charge_n_ns` as charging.
        let src = "impl M {\n    pub fn round(&mut self, hv: &mut H) -> R { self.record_round(hv, 4); Ok(4) }\n    fn record_round(&mut self, hv: &H, pages: u64) { hv.ctx.charge_n_ns(1, 2, pages, 9); }\n}\n";
        assert!(run("hypervisor", src).is_empty());
        // A round surface that never reaches any charging variant is flagged.
        let src = "impl M {\n    pub fn round(&mut self, hv: &mut H) -> R { self.record_round(hv, 4); Ok(4) }\n    fn record_round(&mut self, hv: &H, pages: u64) { self.rounds.push(pages); }\n}\n";
        let vs = run("hypervisor", src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert!(vs[0].message.contains("round"));
    }

    #[test]
    fn non_entry_crates_are_out_of_scope() {
        let src = "fn handle_click() { draw(); }";
        assert!(run("bench", src).is_empty());
    }
}
