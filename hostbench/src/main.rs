//! hostbench: host-clock benchmark of the OoH simulator.
//!
//! ```text
//! hostbench --workload <hot_loads|dirty_sweep|sparse_rounds|fleet_chain|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! hostbench pins <first-seed> <last-seed>
//! ```
//!
//! A run repeats closed-loop *cycles* of its workload for `--seconds`
//! seconds, then checks every virtual-clock output against the program's
//! own entry points and the digests pinned in `pins.txt`. It prints one line
//! per metric (name, value, unit), and as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones, measured untraced; with `--trace 1` the
//! run measures half its time untraced and half traced and reports the
//! per-layer metrics, and writes the spans to `out/` beside this crate. Any
//! failed operation makes the exit code 1. `pins` prints the pin-table lines
//! for a seed range. See README.md for the workloads and metrics.

mod fleet;
mod meas;
mod spans;
mod sparse;
mod tracked;

use meas::{median, ratio, tail, Meas, KEYS};
use ooh_bench::Stack;
use ooh_guest::GuestKernel;
use ooh_hypervisor::Hypervisor;
use ooh_machine::MachineConfig;
use ooh_sim::{Event, SimCtx};
use std::process::ExitCode;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 4] = ["hot_loads", "dirty_sweep", "sparse_rounds", "fleet_chain"];

/// One workload's closed loop.
pub trait Bench {
    /// Build state that lives across cycles; set-up samples go to `m`.
    fn prepare(&mut self, _m: &mut Meas) {}
    /// One cycle: one operation unit per technique, or one fleet.
    fn cycle(&mut self, m: &mut Meas);
    /// Tear down what `prepare` built.
    fn release(&mut self) {}
    /// After all timing: compare outputs with the entry points and pins.
    fn check(&mut self) -> Check;
    /// The pin-table line for this workload and seed, if it is pinned.
    fn pin_line(&mut self) -> Option<String> {
        None
    }
}

/// Failed operations, and why.
#[derive(Debug, Default)]
pub struct Check {
    pub failed: u64,
    pub messages: Vec<String>,
    /// The seed has no pinned digest; outputs were checked against the
    /// entry points only.
    pub unpinned: bool,
}

impl Check {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.note(msg);
    }

    pub fn note(&mut self, msg: String) {
        if self.messages.len() < 16 {
            self.messages.push(msg);
        }
    }
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Host RAM of the single-VM stack `ooh_bench::Stack::boot` boots.
pub const BOOT_MIB: u64 = 8 * 1024;

/// Boot one VM stack exactly as `ooh_bench::Stack::boot_with_ctx_vcpus`
/// does, with the hypervisor and guest calls spanned.
pub fn boot(host_mib: u64, vcpus: u32, ctx: SimCtx) -> Result<Stack, String> {
    let (mut hv, vm) = spans::span("hypervisor.boot", || {
        let mut hv = Hypervisor::new(MachineConfig::epml(host_mib * 1024 * 1024), ctx);
        let vm = hv.create_vm(host_mib / 2 * 1024 * 1024, vcpus);
        (hv, vm)
    });
    let mut kernel = GuestKernel::with_vcpus(vm.map_err(err)?, vcpus);
    let pid = spans::span("guest.spawn", || kernel.spawn(&mut hv)).map_err(err)?;
    Ok(Stack { hv, kernel, pid })
}

/// Digests of the virtual-clock outputs, pinned per workload and seed.
pub mod pins {
    const PINS: &str = include_str!("../pins.txt");

    pub fn lookup(workload: &str, seed: &str) -> Option<Vec<u64>> {
        PINS.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
            let mut f = l.split_whitespace();
            (f.next()? == workload && f.next()? == seed)
                .then(|| f.filter_map(|x| x.parse().ok()).collect())
        })
    }
}

fn make(workload: &str, seed: u64) -> Option<Box<dyn Bench>> {
    Some(match workload {
        "hot_loads" => Box::new(tracked::hot_loads(seed)),
        "dirty_sweep" => Box::new(tracked::dirty_sweep(seed)),
        "sparse_rounds" => Box::new(sparse::sparse_rounds(seed)),
        "fleet_chain" => Box::new(fleet::fleet_chain(seed)),
        _ => return None,
    })
}

/// Run whole cycles until `budget` has passed (at least one).
fn phase(bench: &mut dyn Bench, budget: Duration, traced: bool) -> Meas {
    spans::set_enabled(traced);
    let mut m = Meas::default();
    bench.prepare(&mut m);
    let t0 = Instant::now();
    loop {
        bench.cycle(&mut m);
        m.cycles += 1;
        if t0.elapsed() >= budget {
            break;
        }
    }
    m.wall_ns = meas::elapsed_ns(t0);
    bench.release();
    spans::set_enabled(false);
    spans::append(&mut m.spans, spans::take());
    m
}

/// (name, value, unit, note)
type Row = (String, f64, &'static str, String);

fn row(name: impl Into<String>, value: f64, unit: &'static str) -> Row {
    (name.into(), value, unit, String::new())
}

fn tail_row(name: String, xs: &[u64]) -> Row {
    let (v, pct, n) = tail(xs);
    (name, v / 1e6, "ms", format!("p{pct:.2} of n={n}"))
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The end-to-end metrics, and the per-technique round times and medians
/// printed beside them. Those are not in the result object: host-time
/// phases on a shared machine last longer than a run, so a run's median
/// lands in whichever phase dominated it, and a small operation's tail
/// (an EPML round) flips between the phases' levels as well. Their
/// run-to-run spread exceeds any usable bound. Throughputs are means, and
/// the tail of the whole operation sits in the slow phase, so both stay
/// steady.
fn end_to_end(m: &Meas) -> (Vec<Row>, Vec<Row>) {
    let timed_s = m.timed_ns as f64 / 1e9;
    let p50 = |name: String, xs: &[u64]| (name, median(xs) / 1e6, "ms", format!("n={}", xs.len()));
    let rows = vec![
        (
            "setup_s".to_string(),
            median(&m.setup_ns) / 1e9,
            "s",
            format!("median of n={}", m.setup_ns.len()),
        ),
        row("peak_rss_mib", peak_rss_mib(), "MiB"),
        row("accesses_per_s", ratio(m.accesses() as f64, timed_s), "1/s"),
        row("ops_per_s", ratio(m.op_ns.len() as f64, timed_s), "1/s"),
        tail_row("op_ms_tail".into(), &m.op_ns),
    ];
    let mut printed = vec![p50("op_ms_p50".into(), &m.op_ns)];
    for (t, key) in KEYS.iter().enumerate() {
        printed.push(p50(format!("round_ms_p50.{key}"), &m.round_ns[t]));
        printed.push(tail_row(format!("round_ms_tail.{key}"), &m.round_ns[t]));
    }
    (rows, printed)
}

/// Per-layer metrics of the traced phase `t`, per cycle; `u` is the
/// untraced phase of the same run, for the tracing overhead.
fn per_layer(u: &Meas, t: &Meas) -> Vec<Row> {
    let f = spans::fold(&t.spans);
    let c = t.cycles.max(1) as f64;
    let ms = |name: &str| f.by_name.get(name).map_or(0.0, |&(_, ns)| ns as f64 / 1e6) / c;
    let calls = |name: &str| f.by_name.get(name).map_or(0.0, |&(n, _)| n as f64) / c;
    let ev = |e: Event| t.event(e) as f64 / c;
    let busy = |l: &str| f.busy.get(l).map_or(0.0, |&ns| ns as f64 / 1e6) / c;
    let own = |l: &str| f.self_ns.get(l).map_or(0.0, |&ns| ns as f64 / 1e6) / c;
    let step_ns = f.by_name.get("workloads.step").map_or(0, |&(_, ns)| ns);

    let mut rows = vec![
        row("workloads.setup.host_ms", ms("workloads.setup"), "ms/cycle"),
        row("workloads.step.calls", calls("workloads.step"), "1/cycle"),
        row("workloads.step.host_ms", ms("workloads.step"), "ms/cycle"),
        row(
            "workloads.step.host_ns_per_access",
            ratio(step_ns as f64, t.accesses() as f64),
            "ns",
        ),
        row("machine.guest_loads", ev(Event::GuestLoad), "1/cycle"),
        row("machine.guest_stores", ev(Event::GuestStore), "1/cycle"),
        row("machine.page_walks", ev(Event::PageWalk), "1/cycle"),
        row(
            "machine.tlb_hit_ratio",
            ratio(ev(Event::TlbHit), ev(Event::TlbHit) + ev(Event::PageWalk)),
            "ratio",
        ),
        row(
            "machine.pml_log_entries",
            ev(Event::PmlLogGpa) + ev(Event::PmlLogGva),
            "1/cycle",
        ),
        row(
            "machine.ring_copy_entries",
            ev(Event::RingBufferCopyEntry),
            "1/cycle",
        ),
        row(
            "machine.ring_overflows",
            ev(Event::RingBufferOverflow),
            "1/cycle",
        ),
        row(
            "machine.tlb_shootdown_ipis",
            ev(Event::TlbShootdownIpi),
            "1/cycle",
        ),
        row("hypervisor.boot.host_ms", ms("hypervisor.boot"), "ms/cycle"),
        row("hypervisor.vm_exits", ev(Event::VmExit), "1/cycle"),
        row(
            "hypervisor.ept_violations",
            ev(Event::EptViolation),
            "1/cycle",
        ),
        row(
            "hypervisor.pml_full_exits",
            ev(Event::PmlBufferFullExit),
            "1/cycle",
        ),
        row("hypervisor.hypercalls", ev(Event::Hypercall), "1/cycle"),
        row(
            "guest.timer_tick.host_ms",
            ms("guest.timer_tick"),
            "ms/cycle",
        ),
        row("guest.write_u64.host_ms", ms("guest.write_u64"), "ms/cycle"),
        row("guest.mmap.host_ms", ms("guest.mmap"), "ms/cycle"),
        row(
            "guest.page_faults",
            ev(Event::PageFaultKernel) + ev(Event::PageFaultUser),
            "1/cycle",
        ),
        row("guest.ctx_switches", ev(Event::ContextSwitch), "1/cycle"),
        row("guest.clear_refs_ptes", ev(Event::ClearRefsPte), "1/cycle"),
        row(
            "guest.pagemap_entries",
            ev(Event::PagemapReadEntry),
            "1/cycle",
        ),
        row(
            "guest.ufd_wp_pages",
            ev(Event::UfdWriteProtectPage),
            "1/cycle",
        ),
        row("guest.ufd_events", ev(Event::UfdEventDelivered), "1/cycle"),
    ];
    for (i, key) in KEYS.iter().enumerate() {
        rows.push(row(
            format!("core.start.host_ms.{key}"),
            ms(tracked::START[i]),
            "ms/cycle",
        ));
        rows.push(row(
            format!("core.stop.host_ms.{key}"),
            ms(tracked::STOP[i]),
            "ms/cycle",
        ));
        rows.push(row(
            format!("core.fetch_dirty.calls.{key}"),
            calls(tracked::FETCH[i]),
            "1/cycle",
        ));
        rows.push(row(
            format!("core.fetch_dirty.host_ms.{key}"),
            ms(tracked::FETCH[i]),
            "ms/cycle",
        ));
        rows.push(row(
            format!("core.fetch_dirty.pages.{key}"),
            t.fetch_pages[i] as f64 / c,
            "1/cycle",
        ));
        rows.push(row(
            format!("core.collect.useful_ratio.{key}"),
            ratio(t.fetch_pages[i] as f64, t.scan_units[i] as f64),
            "ratio",
        ));
    }
    for (i, key) in KEYS.iter().enumerate() {
        rows.push(row(
            format!("core.round_ms_p50.{key}"),
            median(&t.round_ns[i]) / 1e6,
            "ms",
        ));
        rows.push(row(
            format!("core.round_ms_tail.{key}"),
            tail(&t.round_ns[i]).0 / 1e6,
            "ms",
        ));
    }
    rows.extend([
        row(
            "core.revmap_lookups",
            ev(Event::ReverseMapLookup),
            "1/cycle",
        ),
        row(
            "core.dirtyset_merge.host_ms",
            ms("core.dirtyset_merge"),
            "ms/cycle",
        ),
    ]);
    for op in [
        "attach",
        "full_dump",
        "pre_dump",
        "final_dump",
        "chain_flatten",
        "chain_encode",
        "restore",
        "verify",
    ] {
        rows.push(row(
            format!("criu.{op}.host_ms"),
            ms(&format!("criu.{op}")),
            "ms/cycle",
        ));
    }
    rows.extend([
        row("criu.pre_dump.calls", calls("criu.pre_dump"), "1/cycle"),
        row("criu.pages_written", t.criu_pages as f64 / c, "1/cycle"),
        row("criu.chain_bytes", t.chain_bytes as f64 / c, "B/cycle"),
        row(
            "fleet.worker_busy_frac",
            ratio(t.fleet_busy_ns as f64, t.fleet_capacity_ns as f64),
            "ratio",
        ),
        row("fleet.vm.host_ms_max", t.vm_max_ns as f64 / 1e6, "ms"),
    ]);
    for l in [
        "bench",
        "workloads",
        "guest",
        "hypervisor",
        "core",
        "criu",
        "fleet",
    ] {
        rows.push(row(format!("{l}.busy_ms"), busy(l), "ms/cycle"));
        rows.push(row(format!("{l}.self_ms"), own(l), "ms/cycle"));
    }
    let per_cycle = |m: &Meas| ratio(m.wall_ns as f64, m.cycles as f64);
    rows.extend([
        row(
            "trace.overhead_frac",
            ratio(per_cycle(t), per_cycle(u)) - 1.0,
            "ratio",
        ),
        row("trace.cycles", t.cycles as f64, "count"),
        row("trace.spans", t.spans.len() as f64 / c, "1/cycle"),
    ]);
    rows
}

fn json_line(correct: bool, attempted: u64, failed: u64, rows: &[Row]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, v, unit, _)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn run_one(workload: &str, seed: u64, seconds: u64, trace: bool) -> ExitCode {
    let Some(mut bench) = make(workload, seed) else {
        eprintln!("unknown workload {workload:?}; expected one of {WORKLOADS:?} or all");
        return ExitCode::from(2);
    };
    let budget = Duration::from_secs(seconds.max(1));
    let (u, t) = if trace {
        let u = phase(bench.as_mut(), budget / 2, false);
        let t = phase(bench.as_mut(), budget / 2, true);
        (u, Some(t))
    } else {
        (phase(bench.as_mut(), budget, false), None)
    };
    let check = bench.check();
    let attempted = u.attempted + t.as_ref().map_or(0, |t| t.attempted);

    let (rows, printed) = match &t {
        Some(t) => {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("spans-{workload}-seed{seed}.jsonl"));
            match spans::write_jsonl(&path, &t.spans) {
                Ok(()) => eprintln!("spans: {}", path.display()),
                Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
            }
            (per_layer(&u, t), Vec::new())
        }
        None => end_to_end(&u),
    };

    println!(
        "# {workload} seed={seed} seconds={seconds} trace={}",
        u8::from(trace)
    );
    let error_rate = ratio(check.failed as f64, attempted as f64);
    println!(
        "error_rate {error_rate} (failed {} of {attempted} attempted)",
        check.failed
    );
    for (name, v, unit, note) in &rows {
        println!("{name} {v} {unit} {note}");
    }
    for (name, v, unit, note) in &printed {
        println!("{name} {v} {unit} {note} (printed only)");
    }
    if check.unpinned {
        eprintln!(
            "note: seed {seed} has no pinned digest; outputs checked against the entry points only"
        );
    }
    for msg in &check.messages {
        eprintln!("check: {msg}");
    }
    let correct = check.failed == 0 && check.messages.is_empty();
    println!(
        "{}",
        json_line(correct, attempted.max(1), check.failed, &rows)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each in its own process so peak RSS does not mix.
fn run_all(seed: u64, seconds: u64, trace: bool) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    println!("# all workloads: {}", if ok { "correct" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_pins(first: u64, last: u64) {
    println!("# workload seed digest... (regenerate: hostbench pins <first> <last>)");
    // `dirty_sweep` has no seeded input: one line covers every seed.
    let lines = std::iter::once(("dirty_sweep", 0))
        .chain((first..=last).flat_map(|seed| [("hot_loads", seed), ("fleet_chain", seed)]));
    for (w, seed) in lines {
        if let Some(line) = make(w, seed).and_then(|mut b| b.pin_line()) {
            println!("{line}");
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("pins") {
        let n = |i: usize| args.get(i).and_then(|s| s.parse::<u64>().ok());
        let (Some(first), Some(last)) = (n(1), n(2)) else {
            eprintln!("usage: hostbench pins <first-seed> <last-seed>");
            return ExitCode::from(2);
        };
        print_pins(first, last);
        return ExitCode::SUCCESS;
    }
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next();
        let parsed = value.and_then(|v| v.parse::<u64>().ok());
        match (flag.as_str(), value, parsed) {
            ("--workload", Some(v), _) => workload = Some(v.clone()),
            ("--seed", _, Some(v)) => seed = v,
            ("--seconds", _, Some(v)) => seconds = v,
            ("--trace", _, Some(v @ (0 | 1))) => trace = v == 1,
            _ => {
                eprintln!("bad argument {flag} {value:?}");
                return ExitCode::from(2);
            }
        }
    }
    match workload.as_deref() {
        Some("all") => run_all(seed, seconds, trace),
        Some(w) => run_one(w, seed, seconds, trace),
        None => {
            eprintln!(
                "usage: hostbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            ExitCode::from(2)
        }
    }
}
