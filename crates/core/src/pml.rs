//! The PML tracker: OoH's two designs over one per-process ring.
//!
//! Both designs leave the logged addresses in the OoH module's shared ring,
//! and collection drains it. They differ in what the ring carries:
//!
//! * **SPML** (hypervisor-emulated per-process PML, the software design):
//!   the hypervisor copies logged **GPAs** into the ring on every
//!   schedule-out and buffer-full event, and the tracker reverse-maps
//!   GPA→GVA — the step that dominates SPML's collection time (Figure 3)
//!   and makes it the slowest technique for the Tracker.
//! * **EPML** (the paper's hardware extension): the page-walk circuit logs
//!   **GVAs** straight into the guest-level buffer, and the OoH module
//!   drains them into the ring on self-IPIs and schedule-outs. Collection
//!   is therefore just a ring drain — no reverse mapping, no hypercalls, no
//!   hypervisor on the critical path. The only memory-size-dependent cost
//!   left is the ring copy itself (M18), which is why EPML scales where
//!   everything else does not.

use crate::dirtyset::DirtySet;
use crate::revmap::{reverse_map_batch, reverse_map_batch_cached, RevMapCache};
use crate::tracker::{DirtyPageTracker, Technique, TrackEnv};
use ooh_guest::{GuestError, GuestKernel, OohMode, OohModule};
use ooh_machine::{DirtyBitmap, Gpa, Gva, GvaRange, RingView};

#[derive(Debug)]
pub struct PmlTracker {
    mode: OohMode,
    registered: Vec<GvaRange>,
    /// Ring drop count at the end of the previous round (overflow detector).
    last_dropped: u64,
    /// SPML only: when set, GPA→GVA resolutions are cached across rounds
    /// (Boehm's integration, paper footnote 2: the first cycle pays the
    /// reverse mapping, later cycles reuse it). CRIU does not use this.
    cache: Option<RevMapCache>,
}

impl PmlTracker {
    pub fn new(mode: OohMode) -> Self {
        Self {
            mode,
            registered: Vec::new(),
            last_dropped: 0,
            cache: None,
        }
    }

    /// SPML's translation step: walk the pagemap, then reverse-map the
    /// logged GPAs.
    fn reverse_map(
        &mut self,
        env: &mut TrackEnv<'_>,
        raw: Vec<u64>,
    ) -> Result<DirtySet, GuestError> {
        // Build the library's address index by walking the process pagemap
        // (the paper's M16 "PT walk in userspace", Figure 3's second-largest
        // SPML collection component). Cached-revmap mode (Boehm) only pays
        // it while the cache is cold.
        if self.cache.as_ref().is_none_or(|c| c.is_empty()) {
            for range in &self.registered {
                let _ = env
                    .kernel
                    .read_pagemap(env.hv, env.pid, *range, ooh_sim::Lane::Tracker)?;
            }
        }

        // Dedupe GPAs (a page re-logs once per scheduling quantum) by
        // packing them into a word bitmap — one bit set per logged page,
        // iterated ascending and unique — then reverse-map, the expensive
        // part.
        let gpa_pages: DirtyBitmap = raw.into_iter().map(|r| Gpa(r).page()).collect();
        match self.cache.as_mut() {
            Some(cache) => reverse_map_batch_cached(env.hv, env.kernel, env.pid, &gpa_pages, cache),
            None => reverse_map_batch(env.hv, env.kernel, env.pid, &gpa_pages),
        }
    }
}

/// Ensure the kernel has an OoH module loaded in `mode`; (re)loads if the
/// mode differs. The module lives in `kernel.ooh`.
fn ensure_module(env: &mut TrackEnv<'_>, mode: OohMode) -> Result<(), GuestError> {
    let reload = match env.kernel.ooh.as_ref() {
        Some(m) => m.mode != mode,
        None => true,
    };
    if reload {
        if let Some(old) = env.kernel.ooh.take() {
            old.unload(env.kernel, env.hv)?;
        }
        let module = OohModule::load(env.kernel, env.hv, mode)?;
        env.kernel.ooh = Some(module);
    }
    Ok(())
}

/// Run `f` with the module temporarily taken out of the kernel (borrow
/// dance: the module's methods need `&mut GuestKernel`).
fn with_module<R>(
    env: &mut TrackEnv<'_>,
    f: impl FnOnce(&mut OohModule, &mut TrackEnv<'_>) -> Result<R, GuestError>,
) -> Result<R, GuestError> {
    let mut module = env
        .kernel
        .ooh
        .take()
        .expect("OoH module must be loaded first");
    let r = f(&mut module, env);
    env.kernel.ooh = Some(module);
    r
}

/// The loaded module's shared ring.
fn ring(kernel: &GuestKernel) -> &RingView {
    kernel
        .ooh
        .as_ref()
        .expect("OoH module must be loaded first")
        .ring()
}

/// Overflow fallback: entries were lost, so the only safe answer is "every
/// resident page in the registered region may be dirty". The library pays a
/// full pagemap walk (M16) for it, like any address-space scan.
fn conservative_full_scan(
    env: &mut TrackEnv<'_>,
    registered: &[GvaRange],
) -> Result<DirtySet, GuestError> {
    let mut set = DirtySet::new();
    for range in registered {
        for e in env
            .kernel
            .read_pagemap(env.hv, env.pid, *range, ooh_sim::Lane::Tracker)?
        {
            if e.present {
                set.insert(e.gva);
            }
        }
    }
    Ok(set)
}

impl DirtyPageTracker for PmlTracker {
    fn technique(&self) -> Technique {
        match self.mode {
            OohMode::Spml => Technique::Spml,
            OohMode::Epml => Technique::Epml,
        }
    }

    fn init(&mut self, env: &mut TrackEnv<'_>) -> Result<(), GuestError> {
        ensure_module(env, self.mode)?;
        let pid = env.pid;
        with_module(env, |m, env| m.track(env.kernel, env.hv, pid))?;
        self.registered = env.writable_ranges()?;
        Ok(())
    }

    fn begin_round(&mut self, env: &mut TrackEnv<'_>) -> Result<(), GuestError> {
        // Flush anything logged before this round into the ring, then
        // discard it: the round starts clean.
        with_module(env, |m, env| m.flush(env.kernel, env.hv))?;
        ring(env.kernel).drain(&mut env.hv.machine.phys)?;
        Ok(())
    }

    fn collect(&mut self, env: &mut TrackEnv<'_>) -> Result<DirtySet, GuestError> {
        // Refresh the registered region: VMAs mapped since init (heap
        // growth) are tracked too.
        self.registered = env.writable_ranges()?;
        with_module(env, |m, env| m.flush(env.kernel, env.hv))?;
        let raw = ring(env.kernel).drain(&mut env.hv.machine.phys)?;

        // Ring overflow since last round: entries were lost; fall back to a
        // conservative full scan. The fallback bypasses the reverse map, and
        // the warm cache may hold translations for frames whose logging we
        // just lost track of, so it may not leak into the next round.
        let dropped = ring(env.kernel).dropped(&env.hv.machine.phys)?;
        if dropped != self.last_dropped {
            self.last_dropped = dropped;
            if let Some(cache) = self.cache.as_mut() {
                cache.clear();
            }
            return conservative_full_scan(env, &self.registered);
        }

        let mut set = match self.mode {
            OohMode::Spml => self.reverse_map(env, raw)?,
            OohMode::Epml => raw.into_iter().map(Gva).collect(),
        };
        set.retain_within(&self.registered);
        Ok(set)
    }

    fn finish(&mut self, env: &mut TrackEnv<'_>) -> Result<(), GuestError> {
        with_module(env, |m, env| m.untrack(env.kernel, env.hv))
    }

    fn enable_collection_cache(&mut self) {
        if self.mode == OohMode::Spml {
            self.cache = Some(RevMapCache::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooh_guest::VmaKind;
    use ooh_hypervisor::Hypervisor;
    use ooh_machine::{MachineConfig, PAGE_SIZE};
    use ooh_sim::{Event, Lane, SimCtx};

    /// A 1-data-page ring (512 entries) overflows under a 600-page round in
    /// either mode, forcing the conservative full scan: the overflow is
    /// counted, no written page is lost, and the reverse-map cache SPML
    /// warmed in an earlier round does not survive into the next one.
    #[test]
    fn overflow_falls_back_to_a_full_scan() {
        for mode in [OohMode::Spml, OohMode::Epml] {
            let mut hv = Hypervisor::new(MachineConfig::epml(64 * 1024 * PAGE_SIZE), SimCtx::new());
            let vm = hv.create_vm(16 * 1024 * PAGE_SIZE, 1).unwrap();
            let mut kernel = GuestKernel::new(vm);
            let pid = kernel.spawn(&mut hv).unwrap();
            let range = kernel.mmap(pid, 600, true, VmaKind::Anon).unwrap();

            // Preload the module with a tiny ring so one round overflows it;
            // the tracker's init reuses a module whose mode already matches.
            let module = OohModule::load_with(&mut kernel, &mut hv, mode, 1).unwrap();
            kernel.ooh = Some(module);

            let mut tracker = PmlTracker::new(mode);
            tracker.enable_collection_cache();
            let mut env = TrackEnv::new(&mut hv, &mut kernel, pid);
            tracker.init(&mut env).unwrap();
            tracker.begin_round(&mut env).unwrap();
            let write_round = |env: &mut TrackEnv<'_>, pages: usize| {
                for gva in range.iter_pages().take(pages) {
                    env.kernel
                        .write_u64(env.hv, pid, gva, 7, Lane::Tracked)
                        .unwrap();
                }
            };

            // A round that fits in the ring warms SPML's cache.
            write_round(&mut env, 8);
            assert_eq!(tracker.collect(&mut env).unwrap().len(), 8, "{mode:?}");
            tracker.begin_round(&mut env).unwrap();
            if mode == OohMode::Spml {
                assert!(tracker.cache.as_ref().is_some_and(|c| !c.is_empty()));
            }

            let overflows = env.hv.ctx.counters().get(Event::RingBufferOverflow);
            write_round(&mut env, 600);
            let set = tracker.collect(&mut env).unwrap();

            assert!(
                env.hv.ctx.counters().get(Event::RingBufferOverflow) > overflows,
                "{mode:?}: the tiny ring must overflow"
            );
            for gva in range.iter_pages() {
                assert!(set.contains(gva), "{mode:?}: lost {gva:?}");
            }
            if mode == OohMode::Spml {
                assert!(
                    tracker.cache.as_ref().is_some_and(|c| c.is_empty()),
                    "warm revmap cache must be dropped on fallback"
                );
            }
        }
    }
}
