//! Self-validation corpus for `ooh-verify`: every rule has a known-bad
//! snippet under `tests/lint_corpus/` that the linter must flag, and a
//! known-good twin that must scan clean. The bad cases are seeded
//! mutations of real workspace patterns (e.g. `shootdown_bad.rs` is the
//! guest munmap path with the `shootdown_page` call deleted), so a rule
//! regression that stops catching its bug class fails tier-1 here rather
//! than silently passing dirty diffs in CI. Each bad snippet's report is
//! pinned exactly — rule, line, column and message of every finding — so
//! a change to an analyzer layer cannot move, reword, add or drop a
//! finding without a visible golden edit.

use std::path::PathBuf;

/// Scans one corpus file as if it lived at `crates/<crate>/src/<file>`,
/// with no allowlist, and returns the findings.
fn scan(crate_name: &str, file: &str) -> Vec<ooh_verify::Violation> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/lint_corpus")
        .join(file);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading corpus file {}: {e}", path.display()));
    let rel = format!("crates/{crate_name}/src/{file}");
    let report = ooh_verify::scan_files(
        &[(crate_name.to_string(), rel, source)],
        &ooh_verify::Allowlist::parse(""),
    );
    report.violations
}

/// One pinned finding: `(rule, line, col, message)`.
type Finding = (&'static str, usize, usize, &'static str);

/// The bad snippet's findings must be exactly `golden`, in report order.
/// Each corpus case isolates one bug class, so a golden holds findings of
/// a single rule.
fn assert_findings(crate_name: &str, file: &str, golden: &[Finding]) -> Vec<ooh_verify::Violation> {
    let vs = scan(crate_name, file);
    let got: Vec<(&str, usize, usize, &str)> = vs
        .iter()
        .map(|v| (v.rule, v.line, v.col, v.message.as_str()))
        .collect();
    assert_eq!(got, golden, "{file}: findings differ from the golden");
    vs
}

/// The good twin must scan completely clean — under every rule, not just
/// the one it twins, so the corpus never normalizes incidental violations.
fn assert_clean(crate_name: &str, file: &str) {
    let vs = scan(crate_name, file);
    assert!(vs.is_empty(), "{file}: expected a clean scan, got {vs:?}");
}

// --- flow rules -----------------------------------------------------------

#[test]
fn cost_coverage_catches_uncharged_success_path() {
    assert_findings(
        "hypervisor",
        "cost_bad.rs",
        &[(
            "cost-coverage",
            9,
            13,
            "success return without a cost-model charge in handler `handle_pml_full`",
        )],
    );
}

#[test]
fn cost_coverage_good_twin_is_clean() {
    assert_clean("hypervisor", "cost_good.rs");
}

#[test]
fn shootdown_complete_catches_deleted_shootdown_call() {
    let vs = assert_findings(
        "guest",
        "shootdown_bad.rs",
        &[(
            "shootdown-complete",
            10,
            36,
            "PTE teardown (`Pte::empty()`) in `munmap_page` never reaches a TLB shootdown — remote cores may keep using the old translation",
        )],
    );
    assert!(
        vs[0]
            .trace
            .iter()
            .any(|s| s.note.contains("'clean' → 'downgraded'")),
        "the trace must show the teardown: {vs:?}"
    );
}

#[test]
fn shootdown_complete_good_twin_is_clean() {
    assert_clean("guest", "shootdown_good.rs");
}

#[test]
fn ordered_iter_catches_hash_iteration_into_output() {
    assert_findings(
        "bench",
        "order_bad.rs",
        &[(
            "ordered-iter",
            7,
            25,
            "iteration over unordered `stats` flows into `println!` — emission order is nondeterministic",
        )],
    );
}

#[test]
fn ordered_iter_good_twin_is_clean() {
    assert_clean("bench", "order_good.rs");
}

// --- typestate protocols --------------------------------------------------

#[test]
fn spml_pairing_catches_sched_out_early_return() {
    let vs = assert_findings(
        "guest",
        "spml_pairing_bad.rs",
        &[(
            "spml-pairing",
            17,
            13,
            "sched-out path leaves dirty logging enabled: `sched_out` can return without reaching DisableLogging",
        )],
    );
    // Protocol findings must carry a step-by-step trace.
    assert!(
        vs.iter().all(|v| !v.trace.is_empty()),
        "spml-pairing findings must have traces: {vs:?}"
    );
}

#[test]
fn spml_pairing_good_twin_is_clean() {
    assert_clean("guest", "spml_pairing_good.rs");
}

#[test]
fn drain_before_clear_catches_index_reset_before_copy() {
    let vs = assert_findings(
        "guest",
        "drain_clear_bad.rs",
        &[(
            "drain-before-clear",
            18,
            12,
            "`drain_guest_buffer` resets GuestPmlIndex before draining: logged entries on this path are lost",
        )],
    );
    assert!(
        vs.iter()
            .any(|v| v.trace.iter().any(|s| s.note.contains("'idle' → 'armed'"))),
        "the trace must walk the protocol states: {vs:?}"
    );
}

#[test]
fn drain_before_clear_good_twin_is_clean() {
    assert_clean("guest", "drain_clear_good.rs");
}

#[test]
fn ring_guard_catches_discarded_push_result() {
    assert_findings(
        "machine",
        "ring_guard_bad.rs",
        &[(
            "ring-guard",
            14,
            23,
            "unguarded ring push in `burst`: the overflow result is discarded and no free-slot probe dominates it",
        )],
    );
}

#[test]
fn ring_guard_good_twin_is_clean() {
    assert_clean("machine", "ring_guard_good.rs");
}

#[test]
fn ipi_on_full_catches_missing_self_ipi() {
    let vs = assert_findings(
        "hypervisor",
        "ipi_full_bad.rs",
        &[(
            "ipi-on-full",
            20,
            17,
            "`dispatch_pml_events` enters the GuestBufferFull arm but can return without posting the EPML self-IPI (post_interrupt)",
        )],
    );
    assert!(
        vs.iter()
            .any(|v| v.trace.iter().any(|s| s.note.contains("GuestBufferFull"))),
        "the trace must show the arm entry: {vs:?}"
    );
}

#[test]
fn ipi_on_full_good_twin_is_clean() {
    assert_clean("hypervisor", "ipi_full_good.rs");
}

#[test]
fn demote_before_log_catches_missing_obligations() {
    let vs = assert_findings(
        "guest",
        "demote_log_bad.rs",
        &[(
            "demote-before-log",
            30,
            12,
            "`demote_huge` demotes a huge mapping but can return without a TLB shootdown or a map-generation bump: other cores keep the stale 2M translation and reverse-map caches go stale",
        )],
    );
    assert!(
        vs.iter().any(|v| v
            .trace
            .iter()
            .any(|s| s.note.contains("'idle' → 'demoted'"))),
        "the trace must walk the demotion transition: {vs:?}"
    );
}

#[test]
fn demote_before_log_good_twin_is_clean() {
    assert_clean("guest", "demote_log_good.rs");
}

// --- token rules ----------------------------------------------------------

#[test]
fn det_time_catches_wall_clock_reads() {
    assert_findings(
        "sim",
        "det_time_bad.rs",
        &[(
            "det-time",
            5,
            34,
            "`Instant` in crate `sim`: wall-clock time via std::time::Instant breaks replayability",
        )],
    );
}

#[test]
fn det_time_good_twin_is_clean() {
    assert_clean("sim", "det_time_good.rs");
}

#[test]
fn det_hash_catches_hash_containers() {
    assert_findings(
        "core",
        "det_hash_bad.rs",
        &[(
            "det-hash",
            4,
            34,
            "`HashMap` in crate `core`: iteration order varies per process; use BTreeMap",
        )],
    );
}

#[test]
fn det_hash_good_twin_is_clean() {
    assert_clean("core", "det_hash_good.rs");
}

#[test]
fn det_par_catches_unordered_parallelism() {
    assert_findings(
        "sim",
        "det_par_bad.rs",
        &[(
            "det-par",
            5,
            10,
            "`par_iter` in crate `sim`: unordered parallel iteration; use rayon::par_map_ordered (deterministic ordered merge)",
        )],
    );
}

#[test]
fn det_par_good_twin_is_clean() {
    assert_clean("sim", "det_par_good.rs");
}

#[test]
fn arch_panic_catches_unwrap() {
    assert_findings(
        "machine",
        "arch_panic_bad.rs",
        &[(
            "arch-panic",
            5,
            19,
            "`.unwrap()` in crate `machine`: propagate the error instead of panicking",
        )],
    );
}

#[test]
fn arch_panic_good_twin_is_clean() {
    assert_clean("machine", "arch_panic_good.rs");
}

#[test]
fn arch_phys_catches_guest_side_host_phys() {
    assert_findings(
        "guest",
        "arch_phys_bad.rs",
        &[(
            "arch-phys",
            5,
            31,
            "`HostPhys` in crate `guest`: guest-side code must go through the hypervisor API, not raw host-physical memory",
        )],
    );
}

#[test]
fn arch_phys_good_twin_is_clean() {
    assert_clean("guest", "arch_phys_good.rs");
}
