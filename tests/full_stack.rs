//! End-to-end integration tests spanning every crate: machine → hypervisor
//! → guest → trackers → CRIU/GC → workloads.

use ooh::prelude::*;
use ooh::workloads::{phoenix, tkrzw_config, EngineKind, WorkEnv, Workload};

fn boot() -> (Hypervisor, GuestKernel, Pid) {
    let mut hv = Hypervisor::new(
        MachineConfig::epml(1024 * 1024 * PAGE_SIZE),
        SimCtx::new(),
    );
    let vm = hv.create_vm(256 * 1024 * PAGE_SIZE, 1).expect("vm");
    let mut kernel = GuestKernel::new(vm);
    let pid = kernel.spawn(&mut hv).expect("spawn");
    (hv, kernel, pid)
}

/// The same deterministic workload tracked with each technique must yield
/// the same dirty set — on a *real* application, not a synthetic pattern.
#[test]
fn all_techniques_agree_on_a_real_workload() {
    let mut reference: Option<(usize, u64)> = None;
    for technique in Technique::ALL {
        let (mut hv, mut kernel, pid) = boot();
        let mut w = phoenix("word-count", SizeClass::Small, 77);
        {
            let mut env = WorkEnv::new(&mut hv, &mut kernel, pid);
            w.setup(&mut env).unwrap();
        }
        let mut session = OohSession::start(&mut hv, &mut kernel, pid, technique).unwrap();
        {
            let mut env = WorkEnv::new(&mut hv, &mut kernel, pid);
            while !w.step(&mut env).unwrap() {
                env.timer_tick().unwrap();
            }
        }
        let dirty = session.fetch_dirty(&mut hv, &mut kernel).unwrap();
        session.stop(&mut hv, &mut kernel).unwrap();

        // Hash the exact set (page numbers) for comparison.
        let mut h = 0xcbf29ce484222325u64;
        for p in dirty.pages() {
            h ^= p;
            h = h.wrapping_mul(0x100000001b3);
        }
        match &reference {
            None => reference = Some((dirty.len(), h)),
            Some((len, hash)) => {
                assert_eq!(dirty.len(), *len, "{} set size", technique.name());
                assert_eq!(h, *hash, "{} set contents", technique.name());
            }
        }
    }
}

/// Checkpoint a KV engine mid-life, restore, and query both processes: the
/// restored store must answer every lookup identically.
#[test]
fn checkpointed_kv_store_answers_queries_after_restore() {
    let (mut hv, mut kernel, pid) = boot();
    let mut w = tkrzw_config(EngineKind::StdTree, SizeClass::Small, 3);
    {
        let mut env = WorkEnv::new(&mut hv, &mut kernel, pid);
        w.run(&mut env).unwrap();
    }
    let mut criu =
        Criu::attach(&mut hv, &mut kernel, pid, CriuConfig::new(Technique::Epml)).unwrap();
    let (img, _) = criu.full_dump(&mut hv, &mut kernel, pid).unwrap();
    criu.detach(&mut hv, &mut kernel).unwrap();

    let img = ooh::criu::CheckpointImage::decode(img.encode()).unwrap();
    let new_pid = restore(&mut hv, &mut kernel, &img).unwrap();
    verify(&mut hv, &mut kernel, new_pid, &img).unwrap();

    // The engine handle addresses guest memory by GVA; the restored process
    // has an identical layout, so the same handle can query it.
    let mut probe = ooh::sim::SimRng::new(17);
    let mut hits = 0;
    for _ in 0..200 {
        let key = probe.next_below(w.key_space);
        let orig = {
            let mut env = WorkEnv::new(&mut hv, &mut kernel, pid);
            w.get(&mut env, key).unwrap()
        };
        let restored = {
            let mut env = WorkEnv::new(&mut hv, &mut kernel, new_pid);
            w.get(&mut env, key).unwrap()
        };
        assert_eq!(orig, restored, "key {key}");
        if orig.is_some() {
            hits += 1;
        }
    }
    assert!(hits > 10, "probe must hit stored keys");
}

/// Iterative (pre-copy) checkpointing under continuing load converges and
/// restores the final state, for every technique.
#[test]
fn iterative_checkpoint_under_load_restores_final_state() {
    for technique in Technique::ALL {
        let (mut hv, mut kernel, pid) = boot();
        let mut w = tkrzw_config(EngineKind::Tiny, SizeClass::Small, 5);
        {
            let mut env = WorkEnv::new(&mut hv, &mut kernel, pid);
            w.setup(&mut env).unwrap();
        }
        let mut criu =
            Criu::attach(&mut hv, &mut kernel, pid, CriuConfig::new(technique)).unwrap();
        let (mut image, _) = criu.full_dump(&mut hv, &mut kernel, pid).unwrap();

        let mut done = false;
        while !done {
            for _ in 0..16 {
                let mut env = WorkEnv::new(&mut hv, &mut kernel, pid);
                done = w.step(&mut env).unwrap();
                env.timer_tick().unwrap();
                if done {
                    break;
                }
            }
            let (delta, _) = criu.pre_dump(&mut hv, &mut kernel, pid).unwrap();
            image.apply(&delta);
        }
        let (fin, stats) = criu.final_dump(&mut hv, &mut kernel, pid).unwrap();
        assert_eq!(
            stats.pages_written, 0,
            "{}: app quiesced before final dump",
            technique.name()
        );
        image.apply(&fin);
        criu.detach(&mut hv, &mut kernel).unwrap();

        let new_pid = restore(&mut hv, &mut kernel, &image).unwrap();
        let n = verify(&mut hv, &mut kernel, new_pid, &image).unwrap();
        assert!(n > 0, "{}", technique.name());
    }
}

/// Hypervisor live migration and in-guest SPML tracking coexist: neither
/// breaks the other, and ending the migration leaves the guest's tracking
/// intact (§IV-C(3)).
#[test]
fn migration_and_guest_tracking_coexist() {
    let mut hv = Hypervisor::new(
        MachineConfig::stock(1024 * 1024 * PAGE_SIZE),
        SimCtx::new(),
    );
    let vm = hv.create_vm(128 * 1024 * PAGE_SIZE, 1).unwrap();
    let mut kernel = GuestKernel::new(vm);
    let pid = kernel.spawn(&mut hv).unwrap();
    let region = kernel.mmap(pid, 32, true, VmaKind::Anon).unwrap();
    for g in region.iter_pages().collect::<Vec<_>>() {
        kernel.write_u64(&mut hv, pid, g, 0, Lane::Tracked).unwrap();
    }
    let mut session = OohSession::start(&mut hv, &mut kernel, pid, Technique::Spml).unwrap();

    let mig = PreCopyMigration::start(&mut hv, vm, MigrationConfig::default());
    // Dirty pages while migrating.
    for i in [1u64, 2, 3] {
        kernel
            .write_u64(&mut hv, pid, region.start.add(i * PAGE_SIZE), i, Lane::Tracked)
            .unwrap();
    }
    let report = mig.run_to_completion(&mut hv, |_| Ok(())).unwrap();
    assert!(report.converged);
    assert!(report.total_pages_sent >= 32, "initial copy covers RAM");

    // Guest tracking still sees its process-level dirty pages.
    let dirty = session.fetch_dirty(&mut hv, &mut kernel).unwrap();
    for i in [1u64, 2, 3] {
        assert!(dirty.contains(region.start.add(i * PAGE_SIZE)), "page {i}");
    }
    session.stop(&mut hv, &mut kernel).unwrap();
}

/// Two VMs, each with its own tracked process: their dirty sets are fully
/// isolated (the paper's per-guest ring argument in §V).
#[test]
fn multi_vm_tracking_is_isolated() {
    let mut hv = Hypervisor::new(
        MachineConfig::epml(1024 * 1024 * PAGE_SIZE),
        SimCtx::new(),
    );
    let mut stacks = Vec::new();
    for _ in 0..2 {
        let vm = hv.create_vm(64 * 1024 * PAGE_SIZE, 1).unwrap();
        let mut kernel = GuestKernel::new(vm);
        let pid = kernel.spawn(&mut hv).unwrap();
        let region = kernel.mmap(pid, 16, true, VmaKind::Anon).unwrap();
        for g in region.iter_pages().collect::<Vec<_>>() {
            kernel.write_u64(&mut hv, pid, g, 0, Lane::Tracked).unwrap();
        }
        let session = OohSession::start(&mut hv, &mut kernel, pid, Technique::Epml).unwrap();
        stacks.push((kernel, pid, region, session));
    }
    // VM0 dirties pages {1,2}; VM1 dirties {7}.
    {
        let (kernel, pid, region, _) = &mut stacks[0];
        for i in [1u64, 2] {
            kernel
                .write_u64(&mut hv, *pid, region.start.add(i * PAGE_SIZE), 9, Lane::Tracked)
                .unwrap();
        }
    }
    {
        let (kernel, pid, region, _) = &mut stacks[1];
        kernel
            .write_u64(&mut hv, *pid, region.start.add(7 * PAGE_SIZE), 9, Lane::Tracked)
            .unwrap();
    }
    let mut sets = Vec::new();
    for (kernel, _, _, session) in stacks.iter_mut() {
        sets.push(session.fetch_dirty(&mut hv, kernel).unwrap());
    }
    assert_eq!(sets[0].len(), 2);
    assert_eq!(sets[1].len(), 1);
    // Same GVAs in both VMs (identical layouts) — but each set reflects
    // only its own VM's writes.
    let (_, _, r0, _) = &stacks[0];
    assert!(sets[0].contains(r0.start.add(PAGE_SIZE)));
    assert!(!sets[0].contains(r0.start.add(7 * PAGE_SIZE)));
    assert!(sets[1].contains(r0.start.add(7 * PAGE_SIZE)));
}

/// The GC keeps application semantics identical whichever technique drives
/// its incremental marking — verified on GCBench's checksum.
#[test]
fn gc_results_are_technique_independent() {
    use ooh::workloads::{gcbench_config, gcbench_heap_pages};
    let mut checksums = Vec::new();
    for technique in Technique::ALL {
        let (mut hv, mut kernel, pid) = boot();
        let mut session = OohSession::start(&mut hv, &mut kernel, pid, technique).unwrap();
        session.enable_collection_cache();
        let mut gc = BoehmGc::new(
            &mut hv,
            &mut kernel,
            pid,
            gcbench_heap_pages(SizeClass::Small),
            64,
            GcMode::Incremental {
                session,
                major_every: 8,
            },
        )
        .unwrap();
        let bench = gcbench_config(SizeClass::Small);
        let mut env = WorkEnv::new(&mut hv, &mut kernel, pid);
        let result = bench.run(&mut env, &mut gc).unwrap();
        gc.shutdown(&mut hv, &mut kernel).unwrap();
        checksums.push(result.checksum);
    }
    assert!(checksums.windows(2).all(|w| w[0] == w[1]), "{checksums:?}");
}
