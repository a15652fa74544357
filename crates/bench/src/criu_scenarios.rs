//! CRIU experiment scenarios (Figures 7–9): checkpoint a running
//! application with each tracking technique and decompose the cost.
//!
//! Protocol per run: start the workload; at the half-way point take an
//! incremental checkpoint (the pre-dump + dump the paper's Figures 7/8
//! time); let the workload finish; final dump. Overhead on Tracked
//! (Figure 9) is the end-to-end slowdown versus the same run without CRIU.

use crate::scenario::{run_baseline, Stack};
use ooh_core::Technique;
use ooh_criu::{Criu, CriuConfig};
use ooh_guest::GuestError;
use ooh_workloads::{phoenix, tkrzw_config, EngineKind, SizeClass, WorkEnv, Workload};
use serde::Serialize;

/// Which application a CRIU scenario checkpoints.
#[derive(Debug, Clone, Copy)]
pub enum App {
    Phoenix(&'static str),
    Tkrzw(EngineKind),
}

impl App {
    pub fn name(&self) -> String {
        match self {
            App::Phoenix(n) => (*n).to_string(),
            App::Tkrzw(k) => k.name().to_string(),
        }
    }

    pub fn build(&self, size: SizeClass, seed: u64) -> Box<dyn Workload> {
        match self {
            App::Phoenix(n) => phoenix(n, size, seed),
            App::Tkrzw(k) => Box::new(tkrzw_config(*k, size, seed)),
        }
    }

    /// The paper's Figure 7–9 application set: Phoenix (Large) + tkrzw.
    pub const ALL: [App; 11] = [
        App::Phoenix("histogram"),
        App::Phoenix("kmeans"),
        App::Phoenix("matrix-multiply"),
        App::Phoenix("pca"),
        App::Phoenix("string-match"),
        App::Phoenix("word-count"),
        App::Tkrzw(EngineKind::Baby),
        App::Tkrzw(EngineKind::Cache),
        App::Tkrzw(EngineKind::StdHash),
        App::Tkrzw(EngineKind::StdTree),
        App::Tkrzw(EngineKind::Tiny),
    ];
}

#[derive(Debug, Clone, Serialize)]
pub struct CriuRun {
    pub app: String,
    pub technique: String,
    /// Memory-dump (collection) phase of the mid-run checkpoint.
    pub md_ns: u64,
    /// Memory-write phase of the mid-run checkpoint.
    pub mw_ns: u64,
    /// Complete mid-run checkpoint time.
    pub checkpoint_ns: u64,
    pub pages_dumped: u64,
    /// End-to-end run time under CRIU (post-init).
    pub total_ns: u64,
}

/// Untracked end-to-end time for `app` (the Figure 9 baseline).
pub fn criu_baseline(app: App, size: SizeClass) -> Result<u64, GuestError> {
    run_baseline(&mut *app.build(size, 99))
}

/// Run `app` under CRIU with `technique`; checkpoint at the half-way point.
pub fn run_criu(app: App, size: SizeClass, technique: Technique) -> Result<CriuRun, GuestError> {
    let mut stack = Stack::boot();
    let ctx = stack.ctx();
    let mut w = app.build(size, 99);
    {
        let mut env = WorkEnv::new(&mut stack.hv, &mut stack.kernel, stack.pid);
        w.setup(&mut env)?;
    }
    let mut criu = Criu::attach(
        &mut stack.hv,
        &mut stack.kernel,
        stack.pid,
        CriuConfig::new(technique),
    )?;
    let t0 = ctx.now_ns();

    // Checkpoint at step 32, or at the end for runs shorter than that.
    let mut steps = 0u32;
    let mut dump: Option<(u64, u64, u64, u64)> = None;
    let mut done = false;
    while !done {
        {
            let mut env = WorkEnv::new(&mut stack.hv, &mut stack.kernel, stack.pid);
            done = w.step(&mut env)?;
            env.timer_tick()?;
        }
        steps += 1;
        if steps == 32 && !done {
            let (_, st) = criu.final_dump(&mut stack.hv, &mut stack.kernel, stack.pid)?;
            dump = Some((st.md_ns, st.mw_ns, st.total_ns, st.pages_written));
        }
    }
    // Workloads shorter than 32 steps: checkpoint at the end instead.
    let (md_ns, mw_ns, checkpoint_ns, pages) = match dump {
        Some(d) => d,
        None => {
            let (_, st) = criu.final_dump(&mut stack.hv, &mut stack.kernel, stack.pid)?;
            (st.md_ns, st.mw_ns, st.total_ns, st.pages_written)
        }
    };
    let total_ns = ctx.now_ns() - t0;
    criu.detach(&mut stack.hv, &mut stack.kernel)?;

    Ok(CriuRun {
        app: app.name(),
        technique: technique.name().to_string(),
        md_ns,
        mw_ns,
        checkpoint_ns,
        pages_dumped: pages,
        total_ns,
    })
}
