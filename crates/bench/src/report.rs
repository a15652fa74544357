//! Output conventions shared by every table/figure binary: a rendered text
//! table on stdout plus one JSON line per row (prefixed `#json `), so
//! results are both human-readable and machine-checkable.

// stdout IS this module's job — it renders the bench binaries' results.
#![allow(clippy::print_stdout)]

use serde::Serialize;

/// Print the experiment header.
pub fn header(id: &str, title: &str) {
    println!("== {id}: {title} ==");
}

/// Print one machine-readable row.
pub fn json_row<T: Serialize>(row: &T) {
    println!(
        "#json {}",
        serde_json::to_string(row).expect("serializable row")
    );
}

/// Print a scaling note once per experiment.
pub fn scaling_note(note: &str) {
    println!("note: {note}");
}

/// ns → milliseconds for display.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Trace mode is on when `OOH_TRACE` is set to anything but empty or `0`:
/// the binary installs a tracer, re-derives its table from the trace, and
/// writes the profile artifacts.
pub fn trace_mode() -> bool {
    std::env::var_os("OOH_TRACE").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Where trace mode writes its artifacts: `OOH_TRACE_OUT`, else
/// `bench_results`.
pub fn trace_out_dir() -> std::path::PathBuf {
    std::env::var_os("OOH_TRACE_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("bench_results"))
}
