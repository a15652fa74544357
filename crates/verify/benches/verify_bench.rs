//! Wall-clock benchmarks of the analyzer itself (host time): the cost of
//! a full workspace scan and its layers (lex/parse, call graph, typestate
//! protocols). The committed numbers live in
//! `bench_results/verify_bench.txt`; CI's `verify` job re-runs this bench
//! so a rule that regresses the scan from milliseconds to seconds is caught
//! as a perf diff, not discovered when `cargo test -q` starts crawling.
//!
//! The analyzer runs inside tier-1 (`tests/verify_lint.rs`) on every
//! `cargo test`, so its wall-clock *is* developer-loop latency.

#![allow(clippy::print_stdout)] // bench binaries print their results

use std::hint::black_box;

use criterion::{criterion_group, Criterion};
use ooh_verify::ast::ParsedFile;
use ooh_verify::callgraph::CallGraph;

fn workspace_inputs() -> Vec<(String, String, String)> {
    let root = ooh_verify::workspace_root();
    ooh_verify::collect_inputs(&root).expect("collect workspace sources")
}

fn bench_layers(c: &mut Criterion) {
    let inputs = workspace_inputs();
    let mut g = c.benchmark_group("verify_layers");

    g.bench_function("lex_parse_workspace", |b| {
        b.iter(|| {
            let parsed: Vec<ParsedFile> = inputs
                .iter()
                .map(|(cr, rel, src)| ParsedFile::parse(cr, rel, src))
                .collect();
            black_box(parsed.len())
        })
    });

    let parsed: Vec<ParsedFile> = inputs
        .iter()
        .map(|(cr, rel, src)| ParsedFile::parse(cr, rel, src))
        .collect();
    g.bench_function("callgraph_build", |b| {
        b.iter(|| black_box(CallGraph::build(&parsed).nodes.len()))
    });

    let graph = CallGraph::build(&parsed);
    g.bench_function("typestate_protocols", |b| {
        b.iter(|| black_box(ooh_verify::typestate::check(&parsed, &graph).len()))
    });

    g.bench_function("full_scan", |b| {
        b.iter(|| {
            let report = ooh_verify::scan_files(&inputs, &ooh_verify::Allowlist::parse(""));
            black_box(report.files_scanned)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_layers);

fn main() {
    benches();
}
