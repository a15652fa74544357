//! `fleet_chain`: the `fleet_snap` control plane. Each VM boots, prefaults,
//! takes a CRIU base dump, runs policy-driven pre-dump rounds into a
//! `SnapshotChain`, final-dumps, restores the chain and byte-verifies it
//! against a full-dump oracle. The VMs fan out over `par_map_ordered`.
//!
//! [`drive_vm`] is `ooh_bench::fleet::simulate_vm` call for call (the
//! writer is a `Workload` so its set-up and rounds can be spanned); each
//! VM's chain fingerprint, verified page count and total virtual time must
//! equal what `simulate_vm` reports for the same VM.

use crate::meas::{elapsed_ns, median, read_counters, tix, Meas};
use crate::spans::{self, span, Span};
use crate::{boot, err, pins, Bench, Check};
use ooh_bench::fleet::{fnv1a, simulate_vm, FleetConfig, Profile};
use ooh_core::{Decision, PolicyState, Technique};
use ooh_criu::{restore, verify, Criu, CriuConfig, SnapshotChain};
use ooh_guest::GuestError;
use ooh_machine::{GvaRange, PAGE_SIZE};
use ooh_sim::{Lane, SimCtx, SimRng};
use ooh_trace::Tracer;
use ooh_workloads::{WorkEnv, Workload};
use rayon::par_map_ordered;
use std::time::Instant;

const N_VMS: usize = 48;
/// Worker threads: at most two, and never more than the host has.
const MAX_THREADS: usize = 2;
/// Host RAM per VM stack, as `simulate_vm` boots it.
const HOST_MIB: u64 = 64;

/// `simulate_vm`'s vCPU cycle (1/2/4 by VM index).
const VCPU_CYCLE: [u32; 3] = [1, 2, 4];

/// `Profile::writer_params` of `ooh_bench::fleet`: (initial pages written per
/// round, think time per round, does the batch halve each round).
fn writer_params(profile: Profile, pages: u64) -> (u64, u64, bool) {
    match profile {
        Profile::Cold => ((pages / 32).max(4), 1_000_000, true),
        Profile::Warm => ((pages / 16).max(8), 2_000_000, false),
        Profile::Hot => ((pages / 4).max(16), 250_000, false),
    }
}

/// The VM's guest: prefault the region, then one seeded batch of distinct
/// page writes plus think time per step.
struct FleetWriter {
    pages: u64,
    region: Option<GvaRange>,
    rng: SimRng,
    batch: u64,
    think_ns: u64,
}

impl Workload for FleetWriter {
    fn name(&self) -> &'static str {
        "fleet-writer"
    }

    fn setup(&mut self, env: &mut WorkEnv<'_>) -> Result<(), GuestError> {
        let region = span("guest.mmap", || env.mmap(self.pages))?;
        span("guest.write_u64", || {
            region
                .iter_pages()
                .enumerate()
                .try_for_each(|(i, g)| env.w_u64(g, (i as u64) | 1))
        })?;
        self.region = Some(region);
        Ok(())
    }

    fn step(&mut self, env: &mut WorkEnv<'_>) -> Result<bool, GuestError> {
        let region = self.region.expect("setup() first");
        let start = self.rng.next_below(self.pages);
        let (pages, batch, rng) = (self.pages, self.batch, &mut self.rng);
        span("guest.write_u64", || {
            (0..batch).try_for_each(|i| {
                let page = (start + i) % pages;
                env.w_u64(region.start.add(page * PAGE_SIZE), rng.next_u64() | 1)
            })
        })?;
        env.hv.ctx.advance(Lane::Tracked, self.think_ns);
        Ok(false)
    }

    fn checksum(&self) -> u64 {
        0
    }
}

/// What one VM hands back to the fleet loop.
struct VmOut {
    fingerprint: u64,
    total_ns: u64,
    verified_pages: u64,
    resident_pages: u64,
    setup_ns: u64,
    /// Host time of each pre-dump round.
    rounds: Vec<u64>,
    events: Vec<u64>,
    pages_written: u64,
    chain_bytes: u64,
}

fn drive_vm(config: &FleetConfig, vm: usize) -> Result<VmOut, String> {
    let technique = Technique::ALL[vm % Technique::ALL.len()];
    let profile = Profile::of_vm(vm);
    let vcpus = VCPU_CYCLE[(vm / 3) % VCPU_CYCLE.len()];
    let pages = config.pages_per_vm;
    let (mut writes, think_ns, decays) = writer_params(profile, pages);

    let setup = Instant::now();
    let ctx = SimCtx::new();
    let _tracer = Tracer::install(&ctx);
    let mut stack = boot(HOST_MIB, vcpus, ctx.clone())?;
    let mut writer = FleetWriter {
        pages,
        region: None,
        rng: SimRng::new(config.seed ^ (vm as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        batch: 0,
        think_ns,
    };
    span("workloads.setup", || writer.setup(&mut stack.env())).map_err(err)?;
    let mut criu = span("criu.attach", || {
        Criu::attach(
            &mut stack.hv,
            &mut stack.kernel,
            stack.pid,
            CriuConfig::new(technique),
        )
    })
    .map_err(err)?;
    let setup_ns = elapsed_ns(setup);

    let (base, base_stats) = span("criu.full_dump", || {
        criu.full_dump(&mut stack.hv, &mut stack.kernel, stack.pid)
    })
    .map_err(err)?;
    let resident_pages = base_stats.pages_written;
    let mut pages_written = base_stats.pages_written;
    let mut chain = SnapshotChain::new(base);

    let mut state = PolicyState::default();
    let mut rounds = Vec::new();
    let mut last_cut_ns = ctx.now_ns();
    loop {
        writer.batch = (writes >> state.throttle_level.min(16)).max(1).min(pages);
        span("workloads.step", || writer.step(&mut stack.env())).map_err(err)?;

        let interval_ns = ctx.now_ns() - last_cut_ns;
        let r0 = Instant::now();
        let (delta, stats) = span("criu.pre_dump", || {
            criu.pre_dump(&mut stack.hv, &mut stack.kernel, stack.pid)
        })
        .map_err(err)?;
        rounds.push(elapsed_ns(r0));
        last_cut_ns = ctx.now_ns();
        pages_written += stats.pages_written;
        span("criu.push_diff", || chain.push_diff(delta));

        match config
            .policy
            .decide(&mut state, stats.pages_written, interval_ns)
        {
            Decision::Continue | Decision::Throttle { .. } => {
                if decays {
                    writes = (writes / 2).max(1);
                }
            }
            Decision::StopAndCopy { .. } => break,
        }
    }

    let (fin, fin_stats) = span("criu.final_dump", || {
        criu.final_dump(&mut stack.hv, &mut stack.kernel, stack.pid)
    })
    .map_err(err)?;
    pages_written += fin_stats.pages_written;
    span("criu.push_diff", || chain.push_diff(fin));
    span("criu.detach", || {
        criu.detach(&mut stack.hv, &mut stack.kernel)
    })
    .map_err(err)?;
    span("criu.validate", || chain.validate()).map_err(err)?;

    let mut oracle_criu = span("criu.attach", || {
        Criu::attach(
            &mut stack.hv,
            &mut stack.kernel,
            stack.pid,
            CriuConfig::new(technique),
        )
    })
    .map_err(err)?;
    let (oracle, _) = span("criu.full_dump", || {
        oracle_criu.full_dump(&mut stack.hv, &mut stack.kernel, stack.pid)
    })
    .map_err(err)?;
    span("criu.detach", || {
        oracle_criu.detach(&mut stack.hv, &mut stack.kernel)
    })
    .map_err(err)?;

    let flat = span("criu.chain_flatten", || chain.flatten());
    let new_pid = span("criu.restore", || {
        restore(&mut stack.hv, &mut stack.kernel, &flat)
    })
    .map_err(err)?;
    let verified_pages = span("criu.verify", || {
        verify(&mut stack.hv, &mut stack.kernel, new_pid, &oracle)
    })
    .map_err(err)?;
    let wire = span("criu.chain_encode", || chain.encode());

    Ok(VmOut {
        fingerprint: fnv1a(wire.as_ref()),
        total_ns: ctx.now_ns(),
        verified_pages,
        resident_pages,
        setup_ns,
        rounds,
        events: read_counters(&ctx),
        pages_written,
        chain_bytes: wire.len() as u64,
    })
}

/// (chain fingerprint, restore-verified pages, total virtual ns) of one VM.
type VmPin = (u64, u64, u64);

/// One VM's result, with its host time and the spans it recorded.
type VmResult = (usize, Result<VmOut, String>, u64, Vec<Span>);

pub struct FleetBench {
    seed: u64,
    config: FleetConfig,
    threads: usize,
    /// Per VM: the pinned outputs of every timed run, or the error.
    runs: Vec<(usize, Result<VmPin, String>)>,
}

pub fn fleet_chain(seed: u64) -> FleetBench {
    let threads = rayon::default_threads().clamp(1, MAX_THREADS);
    let base = FleetConfig::default();
    FleetBench {
        seed,
        config: FleetConfig {
            n_vms: N_VMS,
            threads,
            seed: base.seed.wrapping_add(seed),
            ..base
        },
        threads,
        runs: Vec::new(),
    }
}

impl FleetBench {
    /// The pinned outputs of every VM, from `simulate_vm`.
    fn reference(&self) -> Vec<VmPin> {
        let ids: Vec<usize> = (0..self.config.n_vms).collect();
        par_map_ordered(&ids, self.threads, |&vm| {
            let r = simulate_vm(&self.config, vm);
            (r.chain_fingerprint, r.restore_verified_pages, r.total_ns)
        })
    }

    fn reference_digest(reference: &[VmPin]) -> u64 {
        let s: Vec<String> = reference
            .iter()
            .map(|(f, v, t)| format!("{f}:{v}:{t}"))
            .collect();
        fnv1a(s.join(" ").as_bytes())
    }
}

impl Bench for FleetBench {
    fn cycle(&mut self, m: &mut Meas) {
        let ids: Vec<usize> = (0..self.config.n_vms).collect();
        let run_base = m.attempted;
        let config = &self.config;
        let wall = Instant::now();
        let outs: Vec<VmResult> = par_map_ordered(&ids, self.threads, |&vm| {
            spans::set_run(run_base + vm as u64 + 1);
            let t0 = Instant::now();
            let out = span("fleet.vm", || drive_vm(config, vm));
            (vm, out, elapsed_ns(t0), spans::take())
        });
        let wall_ns = elapsed_ns(wall);
        m.timed_ns += wall_ns;
        m.fleet_capacity_ns += wall_ns * self.threads as u64;
        for (vm, out, host_ns, vm_spans) in outs {
            m.attempted += 1;
            m.op_ns.push(host_ns);
            m.fleet_busy_ns += host_ns;
            m.vm_max_ns = m.vm_max_ns.max(host_ns);
            spans::append(&mut m.spans, vm_spans);
            let out = out.and_then(|o| {
                if o.verified_pages != o.resident_pages {
                    return Err(format!(
                        "restore verified {} of {} pages",
                        o.verified_pages, o.resident_pages
                    ));
                }
                let t = tix(Technique::ALL[vm % Technique::ALL.len()]);
                m.setup_ns.push(o.setup_ns);
                // One sample per VM, its median round: with thousands of
                // rounds per run the 11th-largest single round is a
                // scheduler or page-fault spike, not a round's cost.
                m.round_ns[t].push(median(&o.rounds) as u64);
                m.add_events(&vec![0; o.events.len()], &o.events, None);
                m.criu_pages += o.pages_written;
                m.chain_bytes += o.chain_bytes;
                Ok((o.fingerprint, o.verified_pages, o.total_ns))
            });
            self.runs.push((vm, out));
        }
    }

    fn check(&mut self) -> Check {
        let mut c = Check::default();
        let reference = self.reference();
        let digest = Self::reference_digest(&reference);
        let key = self.seed.to_string();
        let pinned_ok = match pins::lookup("fleet_chain", &key) {
            Some(p) if p.first() == Some(&digest) => true,
            Some(p) => {
                c.note(format!(
                    "fleet_chain seed {key}: simulate_vm digest {digest} != pinned {p:?}"
                ));
                false
            }
            None => {
                c.unpinned = true;
                true
            }
        };
        for (vm, r) in &self.runs {
            match r {
                Err(e) => c.fail(format!("fleet_chain vm {vm}: {e}")),
                Ok(_) if !pinned_ok => {
                    c.fail(format!("fleet_chain vm {vm}: simulate_vm is off its pin"))
                }
                Ok(got) if *got != reference[*vm] => c.fail(format!(
                    "fleet_chain vm {vm}: hostbench {got:?} != simulate_vm {:?}",
                    reference[*vm]
                )),
                Ok(_) => {}
            }
        }
        c
    }

    fn pin_line(&mut self) -> Option<String> {
        let digest = Self::reference_digest(&self.reference());
        Some(format!("fleet_chain {} {digest}", self.seed))
    }
}
