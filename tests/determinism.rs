//! Determinism regression tests: the same seeded scenario run twice must
//! produce *byte-identical* results — event counters, virtual timings, round
//! structure, everything. This is the property the whole simulator stands
//! on (it is what lets a bench table in a PR be reviewed as a diff), and it
//! is exactly what the `ooh-verify` determinism lints exist to protect.
//!
//! The runs go through the `compare_techniques` path: `run_tracked` over a
//! workload, serializing the full `TrackedRun` (which embeds the event
//! counter snapshot and the per-round stats) to a canonical JSON string.

use ooh::bench::{run_baseline, run_tracked, TrackedRun};
use ooh::prelude::*;
use ooh::workloads::{micro, phoenix, SizeClass};

/// Canonical byte representation of a run: serde_json over `TrackedRun`
/// serializes every field in declaration order, so equal strings mean equal
/// timings, equal round-by-round dirty counts and equal event counters.
fn canonical(run: &TrackedRun) -> String {
    serde_json::to_string(run).expect("TrackedRun serializes")
}

/// The compare_techniques scenario, one technique, one full tracked run.
fn run_micro_once(technique: Technique) -> String {
    let mut w = micro(4, 2);
    let steps_per_pass = w.num_pages.div_ceil(256) as u32;
    let run = run_tracked(technique, &mut w, steps_per_pass).expect("tracked run");
    canonical(&run)
}

/// Two identical seeded runs of the compare_techniques scenario must be
/// byte-identical for every technique, counters included.
#[test]
fn compare_techniques_scenario_is_byte_identical_across_runs() {
    for technique in Technique::ALL {
        let first = run_micro_once(technique);
        let second = run_micro_once(technique);
        assert_eq!(
            first,
            second,
            "technique {} produced different stats/counters on a re-run of \
             the same scenario — a non-deterministic source leaked in",
            technique.name()
        );
        // Guard against the vacuous pass where counters went missing.
        assert!(
            first.contains("\"counters\""),
            "canonical run output lost its event-counter snapshot"
        );
    }
}

/// An explicitly seeded workload (phoenix histogram, seed 42) must also
/// replay byte-identically — this exercises the deterministic RNG path, not
/// just the fixed-pattern array parser.
#[test]
fn seeded_phoenix_run_is_byte_identical_across_runs() {
    let run = |()| {
        let mut w = phoenix("histogram", SizeClass::Small, 42);
        let r = run_tracked(Technique::Epml, &mut *w, 8).expect("tracked run");
        canonical(&r)
    };
    assert_eq!(
        run(()),
        run(()),
        "seeded phoenix histogram diverged between identical runs"
    );
}

/// A 4-vCPU stack must replay byte-identically too: vCPU placement, the
/// tick → vCPU rotation, cross-vCPU shootdown IPI charging and the
/// per-vCPU PML/EPML drains are all deterministic state machines.
#[test]
fn smp_scenario_is_byte_identical_across_runs() {
    use ooh::bench::{run_tracked_on, Stack};

    let run = |technique: Technique| {
        let mut stack = Stack::boot_with_ctx_vcpus(1024, SimCtx::new(), 4);
        for _ in 1..4 {
            stack.kernel.spawn(&mut stack.hv).expect("background spawn");
        }
        let mut w = micro(1, 2);
        let steps_per_pass = w.num_pages.div_ceil(256) as u32;
        let r = run_tracked_on(&mut stack, technique, &mut w, steps_per_pass)
            .expect("tracked SMP run");
        canonical(&r)
    };
    for technique in Technique::ALL {
        assert_eq!(
            run(technique),
            run(technique),
            "technique {} diverged between identical 4-vCPU runs",
            technique.name()
        );
    }
}

/// The untracked baseline path is deterministic too (its virtual duration
/// feeds every slowdown figure in the paper's tables).
#[test]
fn baseline_virtual_time_is_reproducible() {
    let t1 = run_baseline(&mut micro(4, 2)).expect("baseline");
    let t2 = run_baseline(&mut micro(4, 2)).expect("baseline");
    assert_eq!(t1, t2, "untracked baseline virtual time diverged");
}

/// Tracing is an observer, not a participant: running the same scenario
/// with an `ooh_trace::Tracer` installed must produce a byte-identical
/// `TrackedRun` — identical virtual timings, rounds and counters — to the
/// trace-off run. This is the "disabled ⇒ unchanged output" half of the
/// profiler's contract (the conservation tests cover the other half).
#[test]
fn trace_on_and_trace_off_runs_are_byte_identical() {
    use ooh::bench::{run_tracked_on, Stack};
    use ooh::sim::SimCtx;
    use ooh::trace::Tracer;

    for technique in Technique::ALL {
        let plain = run_micro_once(technique);

        let ctx = SimCtx::new();
        let tracer = Tracer::install(&ctx);
        let mut stack = Stack::boot_with_ctx_vcpus(8 * 1024, ctx, 1);
        let mut w = micro(4, 2);
        let steps_per_pass = w.num_pages.div_ceil(256) as u32;
        let run = run_tracked_on(&mut stack, technique, &mut w, steps_per_pass)
            .expect("traced tracked run");
        let traced = canonical(&run);

        assert_eq!(
            plain,
            traced,
            "technique {}: installing a tracer changed the run's observable \
             stats — tracing must be cost-free in virtual time",
            technique.name()
        );
        assert!(tracer.records() > 0, "tracer observed nothing");
    }
}

/// The fleet control plane inherits the determinism contract wholesale: a
/// whole fleet run — per-VM snapshot chains, convergence decisions, lane
/// attribution, chain fingerprints — must serialize byte-identically
/// across reruns AND across rayon worker-thread counts. This is what lets
/// CI diff two `fleet_snap` runs and treat any divergence as a bug.
#[test]
fn fleet_run_is_byte_identical_across_reruns_and_thread_counts() {
    use ooh::bench::fleet::{run_fleet, FleetConfig};

    let config = FleetConfig {
        n_vms: 6,
        threads: 2,
        pages_per_vm: 256,
        ..FleetConfig::default()
    };
    let first = serde_json::to_string(&run_fleet(&config)).expect("fleet json");
    let rerun = serde_json::to_string(&run_fleet(&config)).expect("fleet json");
    assert_eq!(first, rerun, "fleet rerun diverged at equal thread count");

    for threads in [1usize, 4] {
        let other = FleetConfig { threads, ..config };
        let alt = serde_json::to_string(&run_fleet(&other)).expect("fleet json");
        assert_eq!(
            first, alt,
            "fleet run at {threads} threads diverged from the 2-thread run"
        );
    }
}
