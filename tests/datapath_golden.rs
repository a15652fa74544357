//! Old-vs-new dirty-data-path regression: golden snapshots captured on the
//! `BTreeSet<u64>`-backed `DirtySet` (the pre-bitmap data path) that the
//! word-packed `DirtyBitmap` path must reproduce *byte-identically* —
//! stats, event counters, trace attribution, and the CRIU wire format.
//!
//! The data-path refactor (PML drain → tracker collect → revmap → CRIU
//! MD/diff) is allowed to change only the simulator's own wall-clock speed;
//! every virtual-clock observable is pinned here. Regenerate deliberately
//! with `OOH_BLESS=1 cargo test --test datapath_golden` and review the diff
//! like any other output change.

use ooh::bench::{run_tracked, TrackedRun};
use ooh::prelude::*;
use ooh::workloads::micro;
use std::path::PathBuf;

fn canonical(run: &TrackedRun) -> String {
    serde_json::to_string(run).expect("TrackedRun serializes")
}

/// FNV-1a over a byte string: a stable, dependency-free fingerprint for
/// binary artifacts (the checkpoint images) that would bloat the repo as
/// raw golden bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("OOH_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with OOH_BLESS=1 \
             cargo test --test datapath_golden",
            path.display()
        )
    });
    assert_eq!(
        actual,
        want.as_str(),
        "{name}: the dirty data path changed a virtual-clock observable — \
         stats/counters diverged from the BTreeSet-era golden snapshot"
    );
}

fn technique_token(t: Technique) -> &'static str {
    match t {
        Technique::Proc => "proc",
        Technique::Ufd => "ufd",
        Technique::Spml => "spml",
        Technique::Epml => "epml",
    }
}

/// The seeded four-technique scenario: each technique's full `TrackedRun`
/// (virtual timings, per-round dirty counts, event counters) must match the
/// snapshot taken on the pre-bitmap data path.
#[test]
fn four_technique_stats_match_old_data_path() {
    for technique in Technique::ALL {
        let mut w = micro(4, 2);
        let steps_per_pass = w.num_pages.div_ceil(256) as u32;
        let run = run_tracked(technique, &mut w, steps_per_pass).expect("tracked run");
        check(
            &format!("datapath_{}.json", technique_token(technique)),
            &canonical(&run),
        );
    }
}

/// Trace attribution is part of the contract too: the cost-attribution tree
/// (per-lane totals, scope rows, event units) for a traced EPML run must be
/// byte-identical to the old data path's.
#[test]
fn trace_attribution_matches_old_data_path() {
    use ooh::bench::{run_tracked_on, Stack};
    use ooh::trace::Tracer;

    let ctx = SimCtx::new();
    let tracer = Tracer::install(&ctx);
    let mut stack = Stack::boot_with_ctx_vcpus(8 * 1024, ctx, 1);
    let mut w = micro(4, 2);
    let steps_per_pass = w.num_pages.div_ceil(256) as u32;
    let _ = run_tracked_on(&mut stack, Technique::Epml, &mut w, steps_per_pass)
        .expect("traced run");
    check("datapath_trace_epml.txt", &tracer.text_profile());
}

/// The CRIU dump path (MD + MW phases, zero-page dedup, incremental
/// overlays) pinned end to end: per-round `DumpStats` plus an FNV-1a
/// fingerprint of every encoded image. A changed byte in the wire format or
/// a re-ordered page record shows up here.
#[test]
fn criu_dump_chain_matches_old_data_path() {
    let mut lines = Vec::new();
    for technique in [Technique::Proc, Technique::Spml, Technique::Epml] {
        let mut hv = Hypervisor::new(
            MachineConfig::epml(64 * 1024 * PAGE_SIZE),
            SimCtx::new(),
        );
        let vm = hv.create_vm(16 * 1024 * PAGE_SIZE, 1).expect("vm");
        let mut kernel = GuestKernel::new(vm);
        let pid = kernel.spawn(&mut hv).expect("spawn");
        let region = kernel.mmap(pid, 64, true, VmaKind::Anon).expect("mmap");
        // Fault everything in; leave pages 0..8 all-zero so the zero-page
        // dedup path is on the golden surface.
        for (i, g) in region.iter_pages().collect::<Vec<_>>().iter().enumerate() {
            let v = if i < 8 { 0 } else { i as u64 };
            kernel.write_u64(&mut hv, pid, *g, v, Lane::Tracked).expect("write");
        }

        let mut criu =
            Criu::attach(&mut hv, &mut kernel, pid, CriuConfig::new(technique)).expect("attach");
        let (full, full_stats) = criu.full_dump(&mut hv, &mut kernel, pid).expect("full");
        // Dirty a spread of pages (including one back to zero) and pre-dump.
        for i in [3u64, 9, 17, 33, 63] {
            kernel
                .write_u64(&mut hv, pid, region.start.add(i * PAGE_SIZE), 1000 + i, Lane::Tracked)
                .expect("write");
        }
        kernel
            .write_u64(&mut hv, pid, region.start.add(10 * PAGE_SIZE), 0, Lane::Tracked)
            .expect("write");
        let (pre, pre_stats) = criu.pre_dump(&mut hv, &mut kernel, pid).expect("pre");
        // Final round: a smaller delta.
        for i in [9u64, 40] {
            kernel
                .write_u64(&mut hv, pid, region.start.add(i * PAGE_SIZE), 2000 + i, Lane::Tracked)
                .expect("write");
        }
        let (fin, fin_stats) = criu.final_dump(&mut hv, &mut kernel, pid).expect("final");
        criu.detach(&mut hv, &mut kernel).expect("detach");

        let mut chain = full.clone();
        chain.apply(&pre);
        chain.apply(&fin);
        for (label, img, stats) in [
            ("full", &full, &full_stats),
            ("pre", &pre, &pre_stats),
            ("final", &fin, &fin_stats),
        ] {
            lines.push(format!(
                "{} {} pages={} zero={} img_fnv={:016x} stats={}",
                technique.name(),
                label,
                img.pages.len(),
                img.zero_pages.len(),
                fnv1a(img.encode().as_ref()),
                serde_json::to_string(stats).expect("stats serialize"),
            ));
        }
        lines.push(format!(
            "{} chain pages={} zero={} img_fnv={:016x}",
            technique.name(),
            chain.pages.len(),
            chain.zero_pages.len(),
            fnv1a(chain.encode().as_ref()),
        ));
    }
    let mut text = lines.join("\n");
    text.push('\n');
    check("datapath_criu.txt", &text);
}

/// The snapshot-chain wire format pinned the same way: a fixed per-technique
/// base + 2-diff + final chain, with per-layer structure lines and FNV-1a
/// fingerprints of the full chain encoding, its flattened image, and the
/// fully-compacted chain. Any byte-level change to the chain container
/// (header, layer framing, canonical bitmap wire) or to compaction
/// semantics lands in this golden.
#[test]
fn snapshot_chain_wire_matches_golden() {
    use ooh::criu::SnapshotChain;

    let mut lines = Vec::new();
    for technique in Technique::ALL {
        let mut hv = Hypervisor::new(
            MachineConfig::epml(64 * 1024 * PAGE_SIZE),
            SimCtx::new(),
        );
        let vm = hv.create_vm(16 * 1024 * PAGE_SIZE, 1).expect("vm");
        let mut kernel = GuestKernel::new(vm);
        let pid = kernel.spawn(&mut hv).expect("spawn");
        let region = kernel.mmap(pid, 64, true, VmaKind::Anon).expect("mmap");
        for (i, g) in region.iter_pages().collect::<Vec<_>>().iter().enumerate() {
            let v = if i < 8 { 0 } else { i as u64 };
            kernel.write_u64(&mut hv, pid, *g, v, Lane::Tracked).expect("write");
        }

        let mut criu =
            Criu::attach(&mut hv, &mut kernel, pid, CriuConfig::new(technique)).expect("attach");
        let (base, _) = criu.full_dump(&mut hv, &mut kernel, pid).expect("full");
        let mut chain = SnapshotChain::new(base);
        // Two pre-copy deltas (the second writes one page back to zero),
        // then a final stop-and-copy cut.
        for i in [3u64, 9, 17, 33, 63] {
            kernel
                .write_u64(&mut hv, pid, region.start.add(i * PAGE_SIZE), 1000 + i, Lane::Tracked)
                .expect("write");
        }
        let (d1, _) = criu.pre_dump(&mut hv, &mut kernel, pid).expect("pre");
        chain.push_diff(d1);
        kernel
            .write_u64(&mut hv, pid, region.start.add(10 * PAGE_SIZE), 0, Lane::Tracked)
            .expect("write");
        let (d2, _) = criu.pre_dump(&mut hv, &mut kernel, pid).expect("pre");
        chain.push_diff(d2);
        for i in [9u64, 40] {
            kernel
                .write_u64(&mut hv, pid, region.start.add(i * PAGE_SIZE), 2000 + i, Lane::Tracked)
                .expect("write");
        }
        let (fin, _) = criu.final_dump(&mut hv, &mut kernel, pid).expect("final");
        chain.push_diff(fin);
        criu.detach(&mut hv, &mut kernel).expect("detach");
        chain.validate().expect("valid chain");

        for layer in chain.layers() {
            lines.push(format!(
                "{} layer seq={} kind={:?} content={} zero={} manifest={}",
                technique.name(),
                layer.seq,
                layer.kind,
                layer.content_bitmap().len(),
                layer.image.zero_pages.len(),
                layer.manifest().len(),
            ));
        }
        let wire = chain.encode();
        let mut compacted = chain.clone();
        compacted.compact_all().expect("compact");
        lines.push(format!(
            "{} chain layers={} shipped={} wire_bytes={} wire_fnv={:016x} \
             flat_fnv={:016x} compact_fnv={:016x}",
            technique.name(),
            chain.len(),
            chain.pages_shipped(),
            wire.len(),
            fnv1a(wire.as_ref()),
            fnv1a(chain.flatten().encode().as_ref()),
            fnv1a(compacted.encode().as_ref()),
        ));
    }
    let mut text = lines.join("\n");
    text.push('\n');
    check("datapath_chain.txt", &text);
}
