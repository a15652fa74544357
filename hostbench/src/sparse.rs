//! `sparse_rounds`: one prefaulted 256 MiB region per technique; each round
//! writes 64 seeded random pages (0.1%, well under the 512-entry PML buffer)
//! and collects. Collection cost per *mapped* page dominates, the access
//! path does almost nothing. Each round's dirty set must equal the pages
//! written, exactly: on a prefaulted region every technique reports
//! precisely the pages stored to.

use crate::meas::{elapsed_ns, read_counters, tix, Meas};
use crate::spans::span;
use crate::tracked::{FETCH, START, STOP};
use crate::{boot, err, Bench, Check, BOOT_MIB};
use ooh_bench::Stack;
use ooh_core::{DirtySet, OohSession, Technique};
use ooh_guest::GuestError;
use ooh_machine::{GvaRange, PAGE_SIZE};
use ooh_sim::{SimCtx, SimRng};
use ooh_workloads::{WorkEnv, Workload};
use std::time::Instant;

const REGION_PAGES: u64 = 65_536;
const WRITES_PER_ROUND: usize = 64;

/// The guest side of a round: distinct random pages, one store each.
struct SparseWriter {
    region: Option<GvaRange>,
    rng: SimRng,
    round: u64,
    /// Pages (region offsets) stored to by the last `step`, sorted.
    written: Vec<u64>,
}

impl Workload for SparseWriter {
    fn name(&self) -> &'static str {
        "sparse-writer"
    }

    fn setup(&mut self, env: &mut WorkEnv<'_>) -> Result<(), GuestError> {
        let region = span("guest.mmap", || env.mmap(REGION_PAGES))?;
        span("guest.write_u64", || env.prefault(region))?;
        self.region = Some(region);
        Ok(())
    }

    fn step(&mut self, env: &mut WorkEnv<'_>) -> Result<bool, GuestError> {
        let region = self.region.expect("setup() first");
        self.round += 1;
        self.written.clear();
        while self.written.len() < WRITES_PER_ROUND {
            let page = self.rng.next_below(REGION_PAGES);
            if !self.written.contains(&page) {
                self.written.push(page);
            }
        }
        let value = self.round;
        let written = &self.written;
        span("guest.write_u64", || {
            written
                .iter()
                .try_for_each(|&p| env.w_u64(region.start.add(p * PAGE_SIZE), value))
        })?;
        self.written.sort_unstable();
        Ok(false)
    }

    fn checksum(&self) -> u64 {
        self.round
    }
}

struct Rig {
    technique: Technique,
    stack: Stack,
    session: Option<OohSession>,
    writer: SparseWriter,
    union: DirtySet,
}

pub struct SparseBench {
    seed: u64,
    rigs: Vec<Rig>,
    check: Check,
}

pub fn sparse_rounds(seed: u64) -> SparseBench {
    SparseBench {
        seed,
        rigs: Vec::new(),
        check: Check::default(),
    }
}

fn build(technique: Technique, seed: u64) -> Result<Rig, String> {
    let mut stack = boot(BOOT_MIB, 1, SimCtx::new())?;
    // Every technique sees the same write positions, round for round.
    let mut writer = SparseWriter {
        region: None,
        rng: SimRng::new(seed),
        round: 0,
        written: Vec::with_capacity(WRITES_PER_ROUND),
    };
    span("workloads.setup", || writer.setup(&mut stack.env())).map_err(err)?;
    let session = span(START[tix(technique)], || {
        OohSession::start(&mut stack.hv, &mut stack.kernel, stack.pid, technique)
    })
    .map_err(err)?;
    Ok(Rig {
        technique,
        stack,
        session: Some(session),
        writer,
        union: DirtySet::new(),
    })
}

/// One round; returns its host time and whether the dirty set matched the
/// pages written.
fn round(rig: &mut Rig, m: &mut Meas) -> Result<(u64, bool), String> {
    let t = tix(rig.technique);
    let session = rig.session.as_mut().ok_or("session stopped")?;
    let ctx = rig.stack.ctx();
    let before = read_counters(&ctx);
    let op = Instant::now();
    span("workloads.step", || rig.writer.step(&mut rig.stack.env())).map_err(err)?;
    let f = Instant::now();
    let dirty = span(FETCH[t], || {
        session.fetch_dirty(&mut rig.stack.hv, &mut rig.stack.kernel)
    })
    .map_err(err)?;
    m.round_ns[t].push(elapsed_ns(f));
    span("core.dirtyset_merge", || rig.union.merge(&dirty));
    let op_ns = elapsed_ns(op);
    m.timed_ns += op_ns;
    m.add_events(&before, &read_counters(&ctx), Some(t));
    m.fetch_pages[t] += dirty.len() as u64;

    let region = rig.writer.region.ok_or("setup() first")?;
    let got: Vec<u64> = dirty
        .iter()
        .map(|g| (g.raw() - region.start.raw()) / PAGE_SIZE)
        .collect();
    Ok((op_ns, got == rig.writer.written))
}

impl Bench for SparseBench {
    fn prepare(&mut self, m: &mut Meas) {
        for technique in Technique::ALL {
            let t0 = Instant::now();
            match build(technique, self.seed) {
                Ok(rig) => {
                    m.setup_ns.push(elapsed_ns(t0));
                    self.rigs.push(rig);
                }
                Err(e) => self.check.fail(format!("set-up {}: {e}", technique.name())),
            }
        }
    }

    /// The operation is the cycle, one round per technique: single rounds
    /// differ 300x between techniques, so their pooled median would sit on
    /// whichever technique's cluster it happens to fall.
    fn cycle(&mut self, m: &mut Meas) {
        let mut cycle_ns = 0;
        for rig in &mut self.rigs {
            m.attempted += 1;
            crate::spans::set_run(m.attempted);
            match span("bench.op", || round(rig, m)) {
                Ok((ns, matched)) => {
                    cycle_ns += ns;
                    if !matched {
                        self.check.fail(format!(
                            "{} round {}: dirty set != pages written",
                            rig.technique.name(),
                            rig.writer.round
                        ));
                    }
                }
                Err(e) => self.check.fail(format!("{}: {e}", rig.technique.name())),
            }
        }
        m.op_ns.push(cycle_ns);
    }

    fn release(&mut self) {
        for mut rig in self.rigs.drain(..) {
            if let Some(session) = rig.session.take() {
                let stop = STOP[tix(rig.technique)];
                if let Err(e) = span(stop, || {
                    session.stop(&mut rig.stack.hv, &mut rig.stack.kernel)
                }) {
                    self.check
                        .fail(format!("stop {}: {e}", rig.technique.name()));
                }
            }
        }
    }

    fn check(&mut self) -> Check {
        std::mem::take(&mut self.check)
    }
}
