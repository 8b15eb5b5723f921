//! The three workloads and their traced variants.
//!
//! A *pass* sets up, runs the timed loop and checks outputs outside
//! the timed region. The traced variant runs the same pass under the
//! span recorder, then the layer probes, which time each layer's
//! public functions from outside on the workload's own inputs where
//! the workload has them and on a small seeded stand-in where it does
//! not (so every layer reports a measured number on every workload).

pub mod service_mix;
pub mod steady_tol;
pub mod sweep_dram;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::probes::Layer;
use crate::trace::Tracer;
use crate::{Pass, Scale, Workload};

/// What every pass needs to know about its run.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Problem sizes.
    pub scale: Scale,
    /// Scratch and output directory (journals live here while a run
    /// is in progress).
    pub out_dir: PathBuf,
}

/// When a timed loop stops taking new work.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// After this much wall time, once at least `min_jobs` jobs ran.
    Time {
        /// Measured seconds.
        seconds: f64,
        /// Jobs every pass completes whatever the time.
        min_jobs: usize,
    },
    /// After exactly this many jobs.
    Jobs(usize),
}

impl Limit {
    /// `true` once a loop started at `t0` with `jobs` jobs begun must
    /// stop beginning new ones.
    #[must_use]
    pub fn reached(self, t0: Instant, jobs: usize) -> bool {
        match self {
            Limit::Time { seconds, min_jobs } => {
                jobs >= min_jobs && t0.elapsed() >= Duration::from_secs_f64(seconds.max(0.0))
            }
            Limit::Jobs(n) => jobs >= n,
        }
    }
}

/// Runs one untraced (or traced, if `tracer` records) pass.
pub fn run_pass(w: Workload, ctx: &Ctx, seconds: f64, tracer: &mut Tracer) -> Pass {
    match w {
        Workload::SweepDram => sweep_dram::run(ctx, seconds, tracer, None),
        Workload::SteadyTol => steady_tol::run(ctx, seconds, tracer, None),
        Workload::ServiceMix => service_mix::run(ctx, seconds, tracer, None),
    }
}

/// Runs a traced pass plus the layer probes.
pub fn run_traced(w: Workload, ctx: &Ctx, seconds: f64, tracer: &mut Tracer) -> (Pass, Layer) {
    let mut layer = Layer::new();
    let pass = match w {
        Workload::SweepDram => sweep_dram::run(ctx, seconds, tracer, Some(&mut layer)),
        Workload::SteadyTol => steady_tol::run(ctx, seconds, tracer, Some(&mut layer)),
        Workload::ServiceMix => service_mix::run(ctx, seconds, tracer, Some(&mut layer)),
    };
    (pass, layer)
}

/// Times `reps` repetitions of `build` and returns the median seconds
/// with the last build's product. Earlier products are dropped before
/// the next build starts, so a repeated set-up never holds two copies.
pub fn timed_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        let built = build();
        times.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    (
        crate::stats::median(&times),
        last.expect("at least one repetition"),
    )
}
