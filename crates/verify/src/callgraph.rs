//! Workspace-wide, name-based call graph over the [`crate::ast`] items.
//!
//! Resolution is *syntactic*: a call site `foo(..)` / `.foo(..)` edges to
//! every non-test workspace function named `foo`. That over-approximates
//! real dispatch (trait impls, shadowed helpers) — which is the right bias
//! for reachability queries of the form "does this handler eventually
//! charge the cost model": false *negatives* (a missed edge hiding a real
//! charge) would produce noise findings, while the occasional false edge
//! merely makes the lint a little more forgiving. The typestate protocols
//! need the opposite bias and resolve through
//! [`CallGraph::names_reaching_strict`] instead.
//!
//! Calls to names with no workspace definition (std, shims) are treated as
//! leaves: they satisfy a reachability query only if the *name itself*
//! matches the query predicate (so `ctx.charge(..)` reaches "charge" even
//! though `SimCtx::charge` lives behind a method the parser attributes to
//! another crate's file that is also scanned — and `ring.drain(..)` still
//! edges into every workspace `drain`).

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{CallSite, ParsedFile};

/// Node id: index into [`CallGraph::nodes`].
pub type NodeId = usize;

#[derive(Debug)]
pub struct Node {
    pub file: usize,
    /// Index into `files[file].fns`.
    pub fn_idx: usize,
    pub name: String,
    /// Distinct callee names referenced from the body (calls, methods, and
    /// macros; macro names keep no `!`).
    pub callees: BTreeSet<String>,
}

/// Registered analysis entry points, as `(crate, name-pattern)` pairs. A
/// trailing `*` in the pattern is a prefix wildcard. These are the places
/// control enters the simulator's accounted region: the vmexit dispatch
/// and hypercall table in the hypervisor, the tracker `collect`/`drain`
/// surface in core, and the guest kernel's shootdown broadcast helpers.
pub const ENTRY_POINTS: &[(&str, &str)] = &[
    ("hypervisor", "hypercall"),
    ("hypervisor", "handle_*"),
    // The pre-copy migration round surface: the fleet control plane drives
    // these directly, so the copy channel must account its pages.
    ("hypervisor", "round"),
    ("hypervisor", "finalize"),
    ("hypervisor", "run_*"),
    ("guest", "handle_*"),
    ("guest", "shootdown_page"),
    ("guest", "shootdown_all"),
    ("core", "collect"),
    ("core", "drain_*"),
];

/// True when `name` matches `pattern` (exact, or prefix when the pattern
/// ends in `*`).
pub fn pattern_matches(pattern: &str, name: &str) -> bool {
    match pattern.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => pattern == name,
    }
}

#[derive(Debug)]
pub struct CallGraph {
    pub nodes: Vec<Node>,
    by_name: BTreeMap<String, Vec<NodeId>>,
}

impl CallGraph {
    /// Builds the graph from every non-test fn with a body.
    pub fn build(files: &[ParsedFile]) -> CallGraph {
        let mut nodes = Vec::new();
        let mut by_name: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                let Some((lo, hi)) = file.body_inner(f) else {
                    continue;
                };
                // Callee names are normalized like definition names: the
                // raw-identifier prefix is stripped, so `self.r#yield()`
                // resolves to `fn r#yield`.
                let callees: BTreeSet<String> = file
                    .calls_in(lo, hi)
                    .iter()
                    .map(|c: &CallSite| file.toks[c.tok].name().to_string())
                    .collect();
                let id = nodes.len();
                nodes.push(Node {
                    file: fi,
                    fn_idx: gi,
                    name: f.name.clone(),
                    callees,
                });
                by_name.entry(f.name.clone()).or_default().push(id);
            }
        }
        CallGraph { nodes, by_name }
    }

    pub fn nodes_named(&self, name: &str) -> &[NodeId] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// The set of function *names* that transitively reach a call named
    /// `leaf` — computed as a reverse fixpoint so rules can test call sites
    /// in O(log n). The name `leaf` itself is a member.
    pub fn names_reaching(&self, leaf: &str) -> BTreeSet<String> {
        // Seed: every fn whose body directly mentions a call named `leaf`.
        let mut member: BTreeSet<String> = BTreeSet::new();
        member.insert(leaf.to_string());
        // Fixpoint over nodes: a fn joins when any callee name is a member.
        // Iterate until no change; the graph is small (a few hundred fns).
        loop {
            let mut changed = false;
            for node in &self.nodes {
                if member.contains(&node.name) {
                    continue;
                }
                if node.callees.iter().any(|c| member.contains(c)) {
                    member.insert(node.name.clone());
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        member
    }

    /// Like [`Self::names_reaching`], but propagation only flows through
    /// *unambiguously resolved* callees: a caller joins the member set when
    /// it calls the leaf by name, or calls a member name with exactly one
    /// workspace definition. The permissive variant is right for
    /// cost-coverage (a missed edge would mean noise); it is wrong for the
    /// typestate protocols, where ubiquitous names (`new`, `push`, `get`)
    /// bridge unrelated subsystems and would count a `guest_vmwrite` as
    /// "reaching" a dirty-notify hook through `PmlBuffer::new`. Strict
    /// resolution trades missed deep-indirection paths (the protocols only
    /// need one level of helper) for no spurious state transitions.
    pub fn names_reaching_strict(&self, leaf: &str) -> BTreeSet<String> {
        let mut member: BTreeSet<String> = BTreeSet::new();
        member.insert(leaf.to_string());
        loop {
            let mut changed = false;
            for node in &self.nodes {
                if member.contains(&node.name) {
                    continue;
                }
                let joins = node.callees.iter().any(|c| {
                    member.contains(c) && (c == leaf || self.nodes_named(c).len() == 1)
                });
                if joins {
                    member.insert(node.name.clone());
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        member
    }

    /// Node ids reachable from the registered [`ENTRY_POINTS`] (the entry
    /// nodes themselves included).
    pub fn reachable_from_entries(&self, files: &[ParsedFile]) -> BTreeSet<NodeId> {
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        let mut work: Vec<NodeId> = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let crate_name = &files[node.file].crate_name;
            if ENTRY_POINTS
                .iter()
                .any(|(c, p)| c == crate_name && pattern_matches(p, &node.name))
                && seen.insert(i)
            {
                work.push(i);
            }
        }
        while let Some(id) = work.pop() {
            let callees: Vec<String> = self.nodes[id].callees.iter().cloned().collect();
            for callee in callees {
                for &next in self.nodes_named(&callee) {
                    if seen.insert(next) {
                        work.push(next);
                    }
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ParsedFile;

    fn graph(srcs: &[(&str, &str)]) -> (Vec<ParsedFile>, CallGraph) {
        let files: Vec<ParsedFile> = srcs
            .iter()
            .enumerate()
            .map(|(i, (c, s))| ParsedFile::parse(c, &format!("crates/{c}/src/f{i}.rs"), s))
            .collect();
        let g = CallGraph::build(&files);
        (files, g)
    }

    #[test]
    fn transitive_reachability_by_name() {
        let (_, g) = graph(&[(
            "hypervisor",
            "fn handle_x(&mut self) { self.helper(); }\n\
             fn helper(&mut self) { self.ctx.charge(1, 2); }\n\
             fn idle(&self) { nothing(); }\n",
        )]);
        let set = g.names_reaching("charge");
        assert!(
            set.contains("handle_x") && set.contains("helper"),
            "{set:?}"
        );
        assert!(!set.contains("idle"));
    }

    #[test]
    fn cross_file_edges() {
        let (_, g) = graph(&[
            ("guest", "fn teardown(&mut self) { self.broadcast(); }"),
            ("guest", "fn broadcast(&self) { shootdown_all(); }"),
        ]);
        assert!(g.names_reaching("shootdown_all").contains("teardown"));
    }

    #[test]
    fn test_fns_are_excluded() {
        let (_, g) = graph(&[(
            "core",
            "#[cfg(test)]\nmod t { fn collect() { charge(); } }\nfn live() {}\n",
        )]);
        assert!(g.nodes_named("collect").is_empty());
        assert_eq!(g.nodes_named("live").len(), 1);
    }

    #[test]
    fn raw_identifier_calls_resolve_to_stripped_names() {
        // `fn r#loop` parses to the name "loop" (ast strips `r#`); a call
        // site `self.r#loop()` must edge to it, not to a phantom "r#loop".
        let (_, g) = graph(&[(
            "guest",
            "fn caller(&mut self) { self.r#loop(); }\n\
             fn r#loop(&mut self) { ctx.charge(1, 2); }\n",
        )]);
        assert!(g.nodes_named("r#loop").is_empty(), "names must be normalized");
        assert_eq!(g.nodes_named("loop").len(), 1);
        assert!(g.names_reaching("charge").contains("caller"));
    }

    #[test]
    fn names_reaching_fixpoint() {
        let (_, g) = graph(&[(
            "guest",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() { ctx.charge(); }\nfn d() { puts(); }\n",
        )]);
        let set = g.names_reaching("charge");
        for n in ["charge", "a", "b", "c"] {
            assert!(set.contains(n), "{n} missing: {set:?}");
        }
        assert!(!set.contains("d"));
    }

    #[test]
    fn strict_reachability_stops_at_ambiguous_names() {
        // `helper` (unique) propagates; `new` (two definitions) is an
        // ambiguous bridge and must not.
        let (files, g) = graph(&[(
            "guest",
            "fn direct(&mut self) { self.helper(); }\n\
             fn helper(&mut self) { hv.note_guest_dirty_cleared(p); }\n\
             fn via_new(&mut self) { Thing::new(); }\n\
             fn new() { hv.note_guest_dirty_cleared(p); }\n\
             fn new2(&mut self) { nothing(); }\n",
        )]);
        // Rename the second `new` definition by building a second file so
        // the workspace has two fns named `new`.
        let mut files2 = files;
        files2.push(ParsedFile::parse(
            "core",
            "crates/core/src/f9.rs",
            "fn new() { idle(); }",
        ));
        let g2 = CallGraph::build(&files2);
        let strict = g2.names_reaching_strict("note_guest_dirty_cleared");
        assert!(strict.contains("direct"), "{strict:?}");
        assert!(strict.contains("helper"));
        assert!(strict.contains("new"), "a fn named `new` that calls the leaf directly still joins");
        assert!(
            !strict.contains("via_new"),
            "ambiguous `new` must not bridge: {strict:?}"
        );
        // The permissive variant does bridge — that contrast is the point.
        let loose = g2.names_reaching("note_guest_dirty_cleared");
        assert!(loose.contains("via_new"));
        let _ = g;
    }

    #[test]
    fn entry_reachability_uses_patterns() {
        let (files, g) = graph(&[
            ("hypervisor", "fn handle_pml(&mut self) { self.drain_buf(); }\nfn drain_buf(&mut self) {}\nfn unrelated() {}"),
        ]);
        let reach = g.reachable_from_entries(&files);
        let names: Vec<&str> = reach.iter().map(|&i| g.nodes[i].name.as_str()).collect();
        assert!(names.contains(&"handle_pml"));
        assert!(names.contains(&"drain_buf"));
        assert!(!names.contains(&"unrelated"));
    }
}
