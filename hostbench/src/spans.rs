//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark loops make into a layer goes through
//! [`span`]. With tracing off it is a relaxed load and a direct call; with
//! tracing on it records (name, start, end, parent, run id, thread) on a
//! thread-local list. Spans leave memory only when the run ends ([`write_jsonl`]), and
//! [`fold`] turns them into per-name totals and per-layer busy/self time.
//!
//! A span's layer is its name up to the first `.`: `core.fetch_dirty.epml`
//! belongs to `core`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same list, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to (a technique run, a round, a VM).
    pub run: u64,
    pub thread: u32,
}

struct Local {
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
    thread: u32,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        spans: Vec::new(),
        open: Vec::new(),
        run: 0,
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
    });
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Tag the spans this thread records next with operation `id`.
pub fn set_run(id: u64) {
    if ENABLED.load(Ordering::Relaxed) {
        LOCAL.with(|l| l.borrow_mut().run = id);
    }
}

/// Run `f` inside a span called `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let idx = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let span = Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: l.open.last().copied(),
            run: l.run,
            thread: l.thread,
        };
        l.spans.push(span);
        let idx = l.spans.len() - 1;
        l.open.push(idx);
        idx
    });
    let out = f();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.open.pop();
        l.spans[idx].end_ns = now_ns();
    });
    out
}

/// Take this thread's finished spans.
pub fn take() -> Vec<Span> {
    LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans))
}

/// Append `spans` to `into`, re-basing their parent indices.
pub fn append(into: &mut Vec<Span>, spans: Vec<Span>) {
    let base = into.len();
    into.extend(spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Per-name totals and per-layer busy/self time, in nanoseconds.
#[derive(Debug, Default)]
pub struct Fold {
    /// name → (calls, total ns)
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Time covered by a layer's outermost spans (nested spans of the same
    /// layer are not counted twice). Summed over threads.
    pub busy: BTreeMap<&'static str, u64>,
    /// Span time not covered by child spans, summed per layer.
    pub self_ns: BTreeMap<&'static str, u64>,
}

fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

pub fn fold(spans: &[Span]) -> Fold {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut f = Fold::default();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let e = f.by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        let l = layer(s.name);
        *f.self_ns.entry(l).or_default() += dur.saturating_sub(child_ns[i]);
        let mut up = s.parent;
        let mut nested = false;
        while let Some(p) = up {
            if layer(spans[p].name) == l {
                nested = true;
                break;
            }
            up = spans[p].parent;
        }
        if !nested {
            *f.busy.entry(l).or_default() += dur;
        }
    }
    f
}

/// Write one JSON object per span (ids are line numbers, starting at 0).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{},\"thread\":{}}}",
            s.name, s.start_ns, s.end_ns, s.run, s.thread
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            run: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_excludes_children_and_busy_skips_same_layer_nesting() {
        let spans = vec![
            s("bench.op", 0, 100, None),
            s("workloads.setup", 10, 50, Some(0)),
            s("guest.mmap", 20, 30, Some(1)),
            s("workloads.step", 60, 90, Some(0)),
            s("workloads.step", 65, 70, Some(3)),
        ];
        let f = fold(&spans);
        assert_eq!(f.self_ns["bench"], 100 - 40 - 30);
        assert_eq!(f.self_ns["workloads"], (40 - 10) + (30 - 5) + 5);
        assert_eq!(f.busy["workloads"], 40 + 30);
        assert_eq!(f.busy["guest"], 10);
        assert_eq!(f.by_name["workloads.step"], (2, 35));
    }
}
