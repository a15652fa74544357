//! `hot_loads` and `dirty_sweep`: one library workload run under each
//! technique in turn, step for step the loop of `ooh_bench::run_tracked`,
//! with every call into a layer spanned. The run's virtual-clock digest must
//! equal the one `run_tracked` itself produces for the same input.

use crate::meas::{elapsed_ns, read_counters, tix, Meas, KEYS};
use crate::spans::span;
use crate::{boot, err, pins, Bench, Check, BOOT_MIB};
use ooh_bench::{fleet::fnv1a, run_tracked, Stack, TrackedRun};
use ooh_core::{DirtySet, OohSession, Technique};
use ooh_machine::GvaRange;
use ooh_sim::SimCtx;
use ooh_workloads::{micro, phoenix, SizeClass, Workload};
use std::time::Instant;

pub const START: [&str; 4] = [
    "core.start.proc",
    "core.start.ufd",
    "core.start.spml",
    "core.start.epml",
];
pub const STOP: [&str; 4] = [
    "core.stop.proc",
    "core.stop.ufd",
    "core.stop.spml",
    "core.stop.epml",
];
pub const FETCH: [&str; 4] = [
    "core.fetch_dirty.proc",
    "core.fetch_dirty.ufd",
    "core.fetch_dirty.spml",
    "core.fetch_dirty.epml",
];

pub struct TrackedBench {
    name: &'static str,
    make: fn(u64) -> Box<dyn Workload>,
    seed: u64,
    collect_every: u32,
    /// Whether the input depends on the seed; if not it is pinned once,
    /// under seed `*`.
    seeded: bool,
    /// Write oracle: every round stores to every page the process maps.
    writes_every_page: bool,
    /// (technique, digest or error) of every timed run.
    runs: Vec<(usize, Result<u64, String>)>,
}

/// Phoenix word-count at Table III's small size, collected every quantum:
/// load-bound on TLB hits, 64 dirty pages per run.
pub fn hot_loads(seed: u64) -> TrackedBench {
    TrackedBench {
        name: "hot_loads",
        make: |seed| phoenix("word-count", SizeClass::Small, seed),
        seed,
        collect_every: 1,
        seeded: true,
        writes_every_page: false,
        runs: Vec::new(),
    }
}

/// Region of the Listing-1 sweep: 128 MiB of guest pages (each a real host
/// frame), larger than the 105 MiB last-level cache of the measuring host
/// and 64x the 512-entry PML buffer.
const SWEEP_MIB: u64 = 128;
const SWEEP_PASSES: u32 = 4;
/// Quanta per pass: `ArrayParser` writes 256 pages (1 MiB) per quantum.
const SWEEP_STEPS_PER_PASS: u32 = SWEEP_MIB as u32;

/// The paper's Listing-1 array parser over a prefaulted region, one
/// collection per pass: every store is the first to its page in the round.
pub fn dirty_sweep(seed: u64) -> TrackedBench {
    TrackedBench {
        name: "dirty_sweep",
        make: |_| Box::new(micro(SWEEP_MIB, SWEEP_PASSES)),
        seed,
        collect_every: SWEEP_STEPS_PER_PASS,
        seeded: false,
        writes_every_page: true,
        runs: Vec::new(),
    }
}

/// The digest pinned per run: both virtual completion times, the size of
/// the dirty union and the whole event-counter snapshot.
fn digest(
    tracked_done_ns: u64,
    tracker_done_ns: u64,
    union: u64,
    counters: &[(String, u64)],
) -> u64 {
    let mut s = format!("{tracked_done_ns} {tracker_done_ns} {union}");
    for (name, n) in counters {
        s.push_str(&format!(" {name}={n}"));
    }
    fnv1a(s.as_bytes())
}

fn reference_digest(r: &TrackedRun) -> u64 {
    digest(
        r.tracked_done_ns,
        r.tracker_done_ns,
        r.union_dirty_pages,
        &r.counters,
    )
}

fn collect(
    session: &mut OohSession,
    stack: &mut Stack,
    t: usize,
    union: &mut DirtySet,
    m: &mut Meas,
) -> Result<DirtySet, String> {
    let t0 = Instant::now();
    let dirty = span(FETCH[t], || {
        session.fetch_dirty(&mut stack.hv, &mut stack.kernel)
    })
    .map_err(err)?;
    m.round_ns[t].push(elapsed_ns(t0));
    m.fetch_pages[t] += dirty.len() as u64;
    span("core.dirtyset_merge", || union.merge(&dirty));
    Ok(dirty)
}

/// Does `dirty` hold exactly the pages of `mapped`?
fn is_every_page(dirty: &DirtySet, mapped: &[GvaRange]) -> bool {
    let total: u64 = mapped.iter().map(|r| r.pages).sum();
    dirty.len() as u64 == total && dirty.iter().all(|g| mapped.iter().any(|r| r.contains(g)))
}

/// One tracked run of `workload` under `technique`; returns its digest.
fn run(
    technique: Technique,
    workload: &mut dyn Workload,
    collect_every: u32,
    writes_every_page: bool,
    m: &mut Meas,
) -> Result<u64, String> {
    let t = tix(technique);
    let setup = Instant::now();
    let mut stack = boot(BOOT_MIB, 1, SimCtx::new())?;
    let ctx = stack.ctx();
    span("workloads.setup", || workload.setup(&mut stack.env())).map_err(err)?;
    let mut session = span(START[t], || {
        OohSession::start(&mut stack.hv, &mut stack.kernel, stack.pid, technique)
    })
    .map_err(err)?;
    m.setup_ns.push(elapsed_ns(setup));
    let mapped: Vec<GvaRange> = if writes_every_page {
        stack
            .kernel
            .vmas(stack.pid)
            .map_err(err)?
            .iter()
            .map(|v| v.range)
            .collect()
    } else {
        Vec::new()
    };
    // Oracle checks run inside the loop but outside every timing.
    let mut oracle_misses = 0u32;
    let mut oracle_ns = 0u64;
    let mut check = |dirty: &DirtySet| {
        let c0 = Instant::now();
        if writes_every_page && !is_every_page(dirty, &mapped) {
            oracle_misses += 1;
        }
        oracle_ns += elapsed_ns(c0);
    };

    let t0 = ctx.now_ns();
    let before = read_counters(&ctx);
    let timed = Instant::now();
    let mut union = DirtySet::new();
    let mut since_collect = 0u32;
    let mut done = false;
    // An operation is one collection interval: the quanta the Tracked
    // process runs between two rounds, plus the round.
    let mut op = Instant::now();
    while !done {
        {
            let mut env = stack.env();
            done = span("workloads.step", || workload.step(&mut env)).map_err(err)?;
            span("guest.timer_tick", || env.timer_tick()).map_err(err)?;
        }
        since_collect += 1;
        if collect_every > 0 && since_collect >= collect_every && !done {
            let dirty = collect(&mut session, &mut stack, t, &mut union, m)?;
            m.op_ns.push(elapsed_ns(op));
            check(&dirty);
            op = Instant::now();
            since_collect = 0;
        }
    }
    let tracked_done_ns = ctx.now_ns() - t0;
    let dirty = collect(&mut session, &mut stack, t, &mut union, m)?;
    m.op_ns.push(elapsed_ns(op));
    check(&dirty);
    m.timed_ns += elapsed_ns(timed) - oracle_ns;
    m.add_events(&before, &read_counters(&ctx), Some(t));

    span(STOP[t], || session.stop(&mut stack.hv, &mut stack.kernel)).map_err(err)?;
    if oracle_misses > 0 {
        return Err(format!(
            "{oracle_misses} rounds: dirty set != pages written"
        ));
    }
    let tracker_done_ns = ctx.now_ns() - t0;
    let counters: Vec<(String, u64)> = ctx
        .counters()
        .snapshot()
        .into_iter()
        .map(|(e, n)| (e.name().to_string(), n))
        .collect();
    Ok(digest(
        tracked_done_ns,
        tracker_done_ns,
        union.len() as u64,
        &counters,
    ))
}

impl TrackedBench {
    fn pin_key(&self) -> String {
        if self.seeded {
            self.seed.to_string()
        } else {
            "*".to_string()
        }
    }
}

impl Bench for TrackedBench {
    fn cycle(&mut self, m: &mut Meas) {
        for technique in Technique::ALL {
            m.attempted += 1;
            crate::spans::set_run(m.attempted);
            let mut w = (self.make)(self.seed);
            let every = self.writes_every_page;
            let r = span("bench.op", || {
                run(technique, w.as_mut(), self.collect_every, every, m)
            });
            self.runs.push((tix(technique), r));
        }
    }

    fn check(&mut self) -> Check {
        let mut c = Check::default();
        let mut reference = [None; 4];
        for technique in Technique::ALL {
            let mut w = (self.make)(self.seed);
            match run_tracked(technique, w.as_mut(), self.collect_every) {
                Ok(r) => reference[tix(technique)] = Some(reference_digest(&r)),
                Err(e) => c.note(format!("run_tracked {}: {e}", technique.name())),
            }
        }
        let key = self.pin_key();
        match pins::lookup(self.name, &key) {
            Some(pinned) => {
                for (t, slot) in reference.iter_mut().enumerate() {
                    if slot.is_some() && *slot != pinned.get(t).copied() {
                        c.note(format!(
                            "{} seed {key} {}: run_tracked digest {:?} != pinned {:?}",
                            self.name,
                            KEYS[t],
                            slot,
                            pinned.get(t)
                        ));
                        *slot = None;
                    }
                }
            }
            None => c.unpinned = true,
        }
        for (t, r) in &self.runs {
            match r {
                Ok(d) if Some(*d) == reference[*t] => {}
                Ok(d) => c.fail(format!(
                    "{} {}: hostbench digest {d} != run_tracked {:?}",
                    self.name, KEYS[*t], reference[*t]
                )),
                Err(e) => c.fail(format!("{} {}: {e}", self.name, KEYS[*t])),
            }
        }
        c
    }

    fn pin_line(&mut self) -> Option<String> {
        let mut line = format!("{} {}", self.name, self.pin_key());
        for technique in Technique::ALL {
            let mut w = (self.make)(self.seed);
            let r = run_tracked(technique, w.as_mut(), self.collect_every)
                .expect("run_tracked fails on the pinned input");
            line.push_str(&format!(" {}", reference_digest(&r)));
        }
        Some(line)
    }
}
