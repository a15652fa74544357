//! Trace conservation tests: with a tracer installed before the first
//! charge, every nanosecond the virtual clock advances must be attributed
//! to exactly one trace record — per lane, exactly.
//!
//! This is the accounting invariant that makes the profiler trustworthy:
//! `ooh_trace::Tracer::check_conservation` compares the per-lane attributed
//! sums against the `SimClock` lane totals, and the total attributed time
//! against `ctx.now_ns()`. It is checked here over the compare_techniques
//! scenario (all four trackers) and a seeded Phoenix run, mirroring the
//! scenarios the determinism suite locks down.

use ooh::bench::{run_tracked_on, Stack};
use ooh::prelude::*;
use ooh::trace::Tracer;
use ooh::workloads::{micro, phoenix, SizeClass};

/// Boot a stack with a tracer installed on a fresh context *before* the
/// first charge, so the journal covers the stack's entire lifetime.
fn traced_stack() -> (Stack, std::sync::Arc<Tracer>) {
    let ctx = SimCtx::new();
    let tracer = Tracer::install(&ctx);
    (Stack::boot_with_ctx_vcpus(2 * 1024, ctx, 1), tracer)
}

/// The compare_techniques scenario under every technique: conservation must
/// hold at the end of a full tracked run (init + rounds + teardown).
#[test]
fn conservation_holds_for_every_technique_on_micro() {
    for technique in Technique::ALL {
        let (mut stack, tracer) = traced_stack();
        let mut w = micro(4, 2);
        let steps_per_pass = w.num_pages.div_ceil(256) as u32;
        run_tracked_on(&mut stack, technique, &mut w, steps_per_pass).expect("tracked run");

        let ctx = stack.ctx();
        tracer
            .check_conservation(ctx.clock())
            .unwrap_or_else(|e| panic!("{}: {e}", technique.name()));
        assert_eq!(
            tracer.total_attributed_ns(),
            ctx.now_ns(),
            "{}: attributed time != virtual clock total",
            technique.name()
        );
        assert!(
            tracer.records() > 0,
            "{}: the run produced no trace records",
            technique.name()
        );
    }
}

/// A seeded Phoenix workload (histogram, Small, seed 42) under EPML with
/// periodic collection — the same scenario the determinism suite replays.
#[test]
fn conservation_holds_for_seeded_phoenix_run() {
    let (mut stack, tracer) = traced_stack();
    let mut w = phoenix("histogram", SizeClass::Small, 42);
    run_tracked_on(&mut stack, Technique::Epml, &mut *w, 8).expect("tracked run");

    let ctx = stack.ctx();
    tracer
        .check_conservation(ctx.clock())
        .expect("phoenix: trace conservation");
    assert_eq!(tracer.total_attributed_ns(), ctx.now_ns());
}

/// A late-installed tracer (first charges already spent during boot) must
/// be *detected* by the conservation check, not silently accepted — this is
/// what makes the passing checks above meaningful.
#[test]
fn late_install_fails_conservation() {
    let mut stack = Stack::boot_with_ctx_vcpus(2 * 1024, SimCtx::new(), 1); // boot charges untraced
    let ctx = stack.ctx();
    let tracer = Tracer::install(&ctx);
    let mut w = micro(1, 1);
    run_tracked_on(&mut stack, Technique::Epml, &mut w, 1).expect("tracked run");
    assert!(
        tracer.check_conservation(ctx.clock()).is_err(),
        "conservation must fail when boot-time charges were never recorded"
    );
}
