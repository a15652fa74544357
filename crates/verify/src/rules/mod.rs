//! The call-graph flow rules that are not lifecycle protocols: syntax-aware
//! lints over the [`crate::ast`] items, the [`crate::callgraph`], and (for
//! `cost-coverage`'s strict tier) the per-function [`crate::cfg::Cfg`].
//! Each submodule exports a single `check(files, graph) -> Vec<Violation>`;
//! `lib.rs` merges their output with the token rules and the
//! [`crate::typestate`] protocols into one deduplicated report.

pub mod cost;
pub mod order;
