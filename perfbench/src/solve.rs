//! The one adapter every sweep solve in the benchmark goes through.
//!
//! Workloads, correctness checks and layer probes name a [`Path`] and
//! get back an engine; none of them constructs a sweep engine itself.
//! When the program's sweep engines or service rungs are merged, only
//! [`engine`] changes.

use fdm::convergence::StopCondition;
use fdm::engine::{ParallelSweepEngine, Session, SolveEngine, StepOutcome, SweepEngine};
use fdm::grid::Grid2D;
use fdm::pde::StencilProblem;
use fdm::solver::UpdateMethod;
use fdm::tiled::TiledSweepEngine;

/// Which sweep code path solves a problem. Every path runs Jacobi.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// The serial reference sweep.
    Serial,
    /// Strip-parallel sweeps over `threads` row bands.
    Parallel {
        /// Worker bands.
        threads: usize,
    },
    /// Temporal wavefront tiling, `depth` sweeps per cache pass over
    /// `threads` strips.
    Tiled {
        /// Fused sweeps per step.
        depth: usize,
        /// Worker strips.
        threads: usize,
    },
}

/// A sweep engine on one of the [`Path`]s.
#[derive(Debug)]
pub enum Engine<'p> {
    /// [`SweepEngine`].
    Serial(SweepEngine<'p, f32>),
    /// [`ParallelSweepEngine`].
    Parallel(ParallelSweepEngine<'p, f32>),
    /// [`TiledSweepEngine`].
    Tiled(TiledSweepEngine<'p, f32>),
}

/// Builds the engine for `path` on `problem`.
#[must_use]
pub fn engine(problem: &StencilProblem<f32>, path: Path) -> Engine<'_> {
    let m = UpdateMethod::Jacobi;
    match path {
        Path::Serial => Engine::Serial(SweepEngine::new(problem, m)),
        Path::Parallel { threads } => {
            Engine::Parallel(ParallelSweepEngine::new(problem, m, threads))
        }
        Path::Tiled { depth, threads } => {
            Engine::Tiled(TiledSweepEngine::new(problem, m, depth, threads))
        }
    }
}

/// A [`Session`] over [`engine`].
#[must_use]
pub fn session(
    problem: &StencilProblem<f32>,
    path: Path,
    stop: StopCondition,
) -> Session<'static, Engine<'_>> {
    Session::new(engine(problem, path), stop)
}

impl Engine<'_> {
    /// The current field.
    #[must_use]
    pub fn solution(&self) -> &Grid2D<f32> {
        match self {
            Engine::Serial(e) => e.solution(),
            Engine::Parallel(e) => e.solution(),
            Engine::Tiled(e) => e.solution(),
        }
    }

    /// Row-slots a tiled step computes beyond the owned interior (the
    /// redundant halo); zero on the untiled paths.
    #[must_use]
    pub fn redundant_rows_per_step(&self) -> usize {
        match self {
            Engine::Tiled(e) => e.redundant_halo_rows_per_epoch(),
            _ => 0,
        }
    }
}

impl SolveEngine for Engine<'_> {
    fn step(&mut self) -> StepOutcome {
        match self {
            Engine::Serial(e) => e.step(),
            Engine::Parallel(e) => e.step(),
            Engine::Tiled(e) => e.step(),
        }
    }

    fn iterations(&self) -> usize {
        match self {
            Engine::Serial(e) => e.iterations(),
            Engine::Parallel(e) => e.iterations(),
            Engine::Tiled(e) => e.iterations(),
        }
    }

    fn begin(&mut self) {
        match self {
            Engine::Serial(e) => e.begin(),
            Engine::Parallel(e) => e.begin(),
            Engine::Tiled(e) => e.begin(),
        }
    }

    fn finish(&mut self) {
        match self {
            Engine::Serial(e) => e.finish(),
            Engine::Parallel(e) => e.finish(),
            Engine::Tiled(e) => e.finish(),
        }
    }
}
