//! CLI entry point:
//! `cargo run -p ooh-verify [--prune-stale] [--format text|json|sarif] [--output FILE] [workspace-root]`.
//!
//! The default (text) mode prints every violation and exits 1 if any are
//! found, 0 on a clean tree — suitable for CI and pre-commit hooks, and
//! byte-compatible with v1 output. `--format json` / `--format sarif` emit
//! the structured report instead (to stdout, or to `--output FILE`); the
//! exit code contract is the same in every format. `--prune-stale` rewrites
//! `verify.allow` without the entries the `stale-allow` rule flagged, then
//! re-scans and reports on the pruned tree.
#![allow(clippy::print_stdout)]

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut prune = false;
    let mut format = Format::Text;
    let mut output: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--prune-stale" => prune = true,
            "--format" => {
                format = match args.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some("sarif") => Format::Sarif,
                    other => {
                        eprintln!(
                            "ooh-verify: --format takes text|json|sarif, got {:?}",
                            other.unwrap_or("nothing")
                        );
                        return ExitCode::from(2);
                    }
                };
            }
            "--output" => {
                let Some(path) = args.next() else {
                    eprintln!("ooh-verify: --output takes a file path");
                    return ExitCode::from(2);
                };
                output = Some(PathBuf::from(path));
            }
            other => root = Some(PathBuf::from(other)),
        }
    }
    let root = root.unwrap_or_else(ooh_verify::workspace_root);

    let mut report = match ooh_verify::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ooh-verify: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if prune {
        let stale_lines: BTreeSet<usize> = report
            .violations
            .iter()
            .filter(|v| v.rule == "stale-allow" && v.path == "verify.allow")
            .map(|v| v.line)
            .collect();
        if stale_lines.is_empty() {
            println!("ooh-verify: no stale verify.allow entries to prune");
        } else {
            let allow_path = root.join("verify.allow");
            let text = match std::fs::read_to_string(&allow_path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("ooh-verify: reading {}: {e}", allow_path.display());
                    return ExitCode::from(2);
                }
            };
            let pruned = ooh_verify::prune_stale(&text, &stale_lines);
            if let Err(e) = std::fs::write(&allow_path, pruned) {
                eprintln!("ooh-verify: writing {}: {e}", allow_path.display());
                return ExitCode::from(2);
            }
            println!(
                "ooh-verify: pruned {} stale entr{} from {}",
                stale_lines.len(),
                if stale_lines.len() == 1 { "y" } else { "ies" },
                allow_path.display()
            );
            // Report on the tree as it now stands.
            report = match ooh_verify::run(&root) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("ooh-verify: failed to re-scan {}: {e}", root.display());
                    return ExitCode::from(2);
                }
            };
        }
    }

    // An empty scan means the root is wrong (e.g. a typo'd CI path), not a
    // clean tree — passing silently here would defeat the whole gate.
    if report.files_scanned == 0 {
        eprintln!(
            "ooh-verify: no Rust sources found under {} — wrong workspace root?",
            root.display()
        );
        return ExitCode::from(2);
    }

    match format {
        Format::Text => {
            let mut text = String::new();
            for v in &report.violations {
                text.push_str(&format!("{v}\n"));
            }
            text.push_str(&format!(
                "ooh-verify: {} files scanned, {} violation(s), {} allowlisted\n",
                report.files_scanned,
                report.violations.len(),
                report.allowed
            ));
            if !report.is_clean() {
                text.push_str("rules:\n");
                for rule in ooh_verify::RULES {
                    text.push_str(&format!("  {:<18} {}\n", rule.id, rule.summary));
                }
                text.push_str("suppress with verify.allow or `// ooh-verify: allow(<rule>)` — see crates/verify/src/lib.rs\n");
            }
            if !emit(&text, output.as_deref()) {
                return ExitCode::from(2);
            }
        }
        Format::Json => {
            if !emit(&ooh_verify::sarif::to_json(&report), output.as_deref()) {
                return ExitCode::from(2);
            }
        }
        Format::Sarif => {
            if !emit(&ooh_verify::sarif::to_sarif(&report), output.as_deref()) {
                return ExitCode::from(2);
            }
        }
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes `text` to `path` (or stdout). Returns false on an I/O error.
fn emit(text: &str, path: Option<&std::path::Path>) -> bool {
    match path {
        Some(p) => match std::fs::write(p, text) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("ooh-verify: writing {}: {e}", p.display());
                false
            }
        },
        None => {
            print!("{text}");
            true
        }
    }
}
