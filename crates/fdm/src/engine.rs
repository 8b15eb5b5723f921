//! The unified solve-engine layer.
//!
//! Every backend in the FDMAX stack — the software sweeps in
//! [`crate::solver`], multigrid, the hardware-semantics reference, the
//! cycle-accurate simulator, the analytic performance estimator and the
//! baseline platform models — iterates the same outer loop: run one step,
//! record the update norm, evaluate the [`StopCondition`], optionally
//! detect trouble and roll back to a checkpoint. This module factors that
//! loop out once:
//!
//! * [`SolveEngine`] is the backend contract: one [`step`](SolveEngine::step)
//!   advances the solve by one iteration (or one analytic macro-step) and
//!   reports an optional update norm plus any hardware fault;
//! * [`Session`] is the single generic driver owning stop-condition
//!   evaluation, the [`ResidualHistory`], divergence detection, and
//!   checkpoint/rollback per [`ResiliencePolicy`];
//! * [`SweepEngine`] adapts the software relaxation sweeps to the trait.
//!
//! Hardware-side engines (cycle-accurate simulator, reference semantics,
//! analytic estimator) live in the `fdmax` core crate and implement the
//! same trait.

use crate::convergence::{Divergence, ResidualHistory, StopCondition};
use crate::grid::Grid2D;
use crate::kernels::{checkerboard_row, jacobi_row, tri_rows_mut, OffsetRow};
use crate::pde::{OffsetField, StencilProblem};
use crate::precision::Scalar;
use crate::solver::{
    sweep_checkerboard, sweep_gauss_seidel, sweep_hybrid, sweep_jacobi, sweep_sor, UpdateMethod,
};
use crate::stencil::FivePointStencil;
use core::fmt;
use std::cell::OnceCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A hardware fault surfaced by one engine step, for the driver's
/// recovery machinery to act on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepFault {
    /// Parity flagged corrupted buffer data during the step.
    CorruptionDetected,
    /// A DMA block transfer failed permanently during the step.
    DmaFailed,
}

/// What one [`SolveEngine::step`] produced.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepOutcome {
    /// The update norm `||U^{k+1} - U^k||_2` of the completed iteration,
    /// or `None` for analytic engines that advance without computing a
    /// field (nothing is recorded in the history then).
    pub norm: Option<f64>,
    /// A fault the step detected, if any.
    pub fault: Option<StepFault>,
}

impl StepOutcome {
    /// A fault-free step that produced an update norm.
    pub fn clean(norm: f64) -> Self {
        StepOutcome {
            norm: Some(norm),
            fault: None,
        }
    }

    /// A fault-free step with no norm (analytic macro-steps).
    pub fn silent() -> Self {
        StepOutcome {
            norm: None,
            fault: None,
        }
    }
}

/// Why a resilient [`Session`] gave up.
///
/// The `fdmax` core crate converts these into its `FdmaxError` surface.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EngineError {
    /// The update norm became NaN or infinite and no recovery was
    /// possible (or allowed).
    NonFinite {
        /// Iteration (1-based) whose norm went non-finite.
        iteration: usize,
    },
    /// The update norm grew persistently and no recovery was possible.
    Diverged {
        /// Iteration at the end of the growth window.
        iteration: usize,
        /// Growth ratio over the detection window.
        ratio: f64,
    },
    /// Parity flagged corrupted buffer data and no rollback was possible
    /// (or allowed).
    CorruptionDetected {
        /// Iteration (1-based) during which parity fired.
        iteration: usize,
    },
    /// A DMA block transfer failed permanently (retry budget exhausted).
    DmaFailed {
        /// Iteration during which the transfer gave up.
        iteration: usize,
    },
    /// Rollback-and-retry was attempted `attempts` times without a clean
    /// run.
    RetriesExhausted {
        /// Recovery attempts performed.
        attempts: u32,
        /// Iteration of the checkpoint every retry rolled back to — the
        /// last state known to be good.
        checkpoint_iteration: usize,
    },
    /// The job's [`CancelToken`] was triggered between steps.
    Cancelled {
        /// Iterations completed when the cancellation was observed.
        iteration: usize,
    },
    /// The [`Budget`]'s iteration or wall-clock deadline ran out before
    /// the stop condition was satisfied.
    DeadlineExceeded {
        /// Iterations completed when the budget ran out.
        iteration: usize,
    },
    /// The [`Budget`]'s watchdog found the residual series making no
    /// progress over its window.
    Stalled {
        /// Iteration (1-based) ending the stalled window.
        iteration: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NonFinite { iteration } => {
                write!(f, "update norm became non-finite at iteration {iteration}")
            }
            EngineError::Diverged { iteration, ratio } => write!(
                f,
                "solve diverged (norm grew {ratio:.2}x) by iteration {iteration}"
            ),
            EngineError::CorruptionDetected { iteration } => write!(
                f,
                "parity detected buffer corruption at iteration {iteration}"
            ),
            EngineError::DmaFailed { iteration } => {
                write!(
                    f,
                    "DMA transfer failed permanently at iteration {iteration}"
                )
            }
            EngineError::RetriesExhausted {
                attempts,
                checkpoint_iteration,
            } => {
                write!(
                    f,
                    "recovery failed after {attempts} rollback attempts to the \
                     checkpoint at iteration {checkpoint_iteration}"
                )
            }
            EngineError::Cancelled { iteration } => {
                write!(f, "solve cancelled after {iteration} iterations")
            }
            EngineError::DeadlineExceeded { iteration } => {
                write!(f, "budget deadline exceeded after {iteration} iterations")
            }
            EngineError::Stalled { iteration } => {
                write!(f, "watchdog: no residual progress by iteration {iteration}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// How a resilient [`Session`] checkpoints, detects trouble and recovers.
///
/// The two `allow_*` flags are consumed by orchestration layers *above*
/// the session (the accelerator's method/software fallback chain); the
/// session itself acts on the checkpoint/retry/divergence knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResiliencePolicy {
    /// Take a checkpoint every this many iterations (0 disables
    /// checkpointing, so any detected fault is fatal).
    pub checkpoint_interval: usize,
    /// Rollback-and-retry attempts *per checkpoint window* before
    /// escalating to a fallback (or giving up); reaching the next
    /// checkpoint renews the allowance.
    pub max_retries: u32,
    /// Window for residual-growth detection (0 disables growth checks;
    /// NaN/Inf are always checked).
    pub divergence_window: usize,
    /// Growth over the window that counts as divergence.
    pub divergence_factor: f64,
    /// Allow Hybrid to fall back to the Jacobi datapath once retries are
    /// exhausted.
    pub allow_method_fallback: bool,
    /// Allow the final fallback to the `fdm` software solver.
    pub allow_software_fallback: bool,
}

impl ResiliencePolicy {
    /// No checkpoints, no retries, no fallbacks: the first detected
    /// fault is a structured error.
    #[must_use]
    pub fn strict() -> Self {
        ResiliencePolicy {
            checkpoint_interval: 0,
            max_retries: 0,
            divergence_window: 0,
            divergence_factor: 1e3,
            allow_method_fallback: false,
            allow_software_fallback: false,
        }
    }
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            checkpoint_interval: 64,
            max_retries: 8,
            divergence_window: 32,
            divergence_factor: 1e3,
            allow_method_fallback: true,
            allow_software_fallback: true,
        }
    }
}

/// A shared cooperative-cancellation handle.
///
/// Cloning yields another handle to the *same* flag: a supervisor keeps
/// one clone and hands another to the [`Budget`] of a running
/// [`Session`]; triggering [`cancel`](CancelToken::cancel) makes the
/// session return [`EngineError::Cancelled`] before its next step.
/// Cancellation is one-way — there is deliberately no `reset`.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-triggered token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Triggers the cancellation. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// `true` once any clone of this token was cancelled.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Hard bounds on one [`Session`] run, checked by the driver between
/// steps — the hook the `fdmax` service layer threads its per-job
/// deadlines, cancellation and watchdog through.
///
/// Unlike a [`ResiliencePolicy`], budget violations are *terminal*:
/// rolling back to a checkpoint cannot recover time already spent, so
/// the session returns the structured error immediately.
///
/// All checks default to disabled; [`Budget::default`] never fires.
#[derive(Clone, Debug)]
#[must_use]
pub struct Budget {
    /// Maximum engine steps this run may execute (`None` = unlimited).
    /// Counted in *executed* steps, so rollback replays burn budget too;
    /// the check runs before each step, which means the deadline is
    /// never overshot by even one iteration.
    pub deadline_iterations: Option<usize>,
    /// Wall-clock ceiling measured from the start of
    /// [`Session::run`] (`None` = unlimited). Coarse by design — the
    /// clock is polled between steps.
    pub max_wall: Option<Duration>,
    /// Cooperative cancellation flag, polled before each step.
    pub cancel: Option<CancelToken>,
    /// Watchdog window (in iterations) for
    /// [`ResidualHistory::detect_stall`]; 0 disables the watchdog.
    pub stall_window: usize,
    /// Decay the residual must achieve over `stall_window` iterations to
    /// count as progress (see [`ResidualHistory::detect_stall`]).
    pub stall_min_decay: f64,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            deadline_iterations: None,
            max_wall: None,
            cancel: None,
            stall_window: 0,
            stall_min_decay: 1.0,
        }
    }
}

impl Budget {
    /// A budget with every check disabled.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Bounds the run to at most `steps` executed engine steps.
    pub fn deadline(steps: usize) -> Self {
        Budget {
            deadline_iterations: Some(steps),
            ..Self::default()
        }
    }

    /// Adds a wall-clock ceiling.
    pub fn with_wall_clock(mut self, ceiling: Duration) -> Self {
        self.max_wall = Some(ceiling);
        self
    }

    /// Attaches a cooperative-cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Arms the stall watchdog: the run fails with
    /// [`EngineError::Stalled`] when the residual decays by less than
    /// `min_decay` over any `window` consecutive iterations.
    pub fn with_stall_watchdog(mut self, window: usize, min_decay: f64) -> Self {
        self.stall_window = window;
        self.stall_min_decay = min_decay;
        self
    }

    /// `true` when no check is armed (the default).
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.deadline_iterations.is_none()
            && self.max_wall.is_none()
            && self.cancel.is_none()
            && self.stall_window == 0
    }
}

/// A portable, scalar-erased image of a solve engine's resumable state.
///
/// `cur`/`prev` hold raw IEEE 754 bit patterns
/// ([`Scalar::to_bits_u64`]), so an image round-trips bit-exactly
/// through serialization at any precision — NaN payloads included.
/// Produced by [`SolveEngine::export_state`], consumed by
/// [`SolveEngine::restore_state`], and persisted by the service layer's
/// durability journal for crash recovery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineStateImage {
    /// Grid height.
    pub rows: usize,
    /// Grid width.
    pub cols: usize,
    /// Scalar width in bytes ([`Scalar::BYTES`]), a format check on
    /// restore.
    pub scalar_bytes: u8,
    /// Completed iterations at capture time.
    pub iterations: usize,
    /// Bit patterns of the current field `U^k`, row-major.
    pub cur: Vec<u64>,
    /// Bit patterns of the previous field `U^{k-1}` (wave history), when
    /// the engine carries one.
    pub prev: Option<Vec<u64>>,
}

impl EngineStateImage {
    /// Captures an image of `cur` (and optionally `prev`) at `iterations`.
    pub fn capture<T: Scalar>(
        iterations: usize,
        cur: &Grid2D<T>,
        prev: Option<&Grid2D<T>>,
    ) -> Self {
        let to_bits = |g: &Grid2D<T>| g.as_slice().iter().map(|v| v.to_bits_u64()).collect();
        EngineStateImage {
            rows: cur.rows(),
            cols: cur.cols(),
            scalar_bytes: T::BYTES as u8,
            iterations,
            cur: to_bits(cur),
            prev: prev.map(to_bits),
        }
    }

    /// Rebuilds the current field as a typed grid; `None` when the
    /// scalar width or element count disagrees with the header.
    pub fn cur_grid<T: Scalar>(&self) -> Option<Grid2D<T>> {
        self.grid_from(&self.cur)
    }

    /// Rebuilds the previous field, when one was captured.
    pub fn prev_grid<T: Scalar>(&self) -> Option<Grid2D<T>> {
        self.prev.as_ref().and_then(|p| self.grid_from(p))
    }

    fn grid_from<T: Scalar>(&self, bits: &[u64]) -> Option<Grid2D<T>> {
        if self.scalar_bytes as usize != T::BYTES
            || Some(bits.len()) != self.rows.checked_mul(self.cols)
        {
            return None;
        }
        let data = bits.iter().map(|&b| T::from_bits_u64(b)).collect();
        Grid2D::from_vec(self.rows, self.cols, data).ok()
    }
}

/// Shared restore path for the double-buffered sweep engines: validates
/// the image shape, rewrites `cur`/`prev` from the stored bits and
/// mirrors `cur` into `next` (double-buffered sweeps only ever rewrite
/// the interior of `next`, so its boundary ring must match `cur`; the
/// stale interior is fully overwritten before the next read).
pub(crate) fn restore_sweep_state<T: Scalar>(
    image: &EngineStateImage,
    cur: &mut Grid2D<T>,
    next: &mut Grid2D<T>,
    prev: &mut Option<Grid2D<T>>,
    iterations: &mut usize,
) -> bool {
    if image.scalar_bytes as usize != T::BYTES
        || image.rows != cur.rows()
        || image.cols != cur.cols()
        || image.cur.len() != cur.as_slice().len()
        || image.prev.is_some() != prev.is_some()
        || image
            .prev
            .as_ref()
            .zip(prev.as_ref())
            .is_some_and(|(src, dst)| src.len() != dst.as_slice().len())
    {
        return false;
    }
    for (dst, &bits) in cur.as_mut_slice().iter_mut().zip(&image.cur) {
        *dst = T::from_bits_u64(bits);
    }
    next.as_mut_slice().copy_from_slice(cur.as_slice());
    if let (Some(dst), Some(src)) = (prev.as_mut(), image.prev.as_ref()) {
        for (d, &bits) in dst.as_mut_slice().iter_mut().zip(src) {
            *d = T::from_bits_u64(bits);
        }
    }
    *iterations = image.iterations;
    true
}

/// One solve backend: anything that can advance a solve by one step.
///
/// The driver ([`Session`]) calls [`begin`](SolveEngine::begin) once,
/// then [`step`](SolveEngine::step) until the stop condition is
/// satisfied (rolling back via [`rollback`](SolveEngine::rollback) when
/// the policy demands it), then [`finish`](SolveEngine::finish) once on
/// a clean exit. Engines that model I/O charge their boot/drain traffic
/// in `begin`/`finish`.
pub trait SolveEngine {
    /// Advances the solve by one iteration (or one analytic macro-step).
    fn step(&mut self) -> StepOutcome;

    /// Completed iterations so far.
    fn iterations(&self) -> usize;

    /// Whether [`checkpoint`](SolveEngine::checkpoint)/
    /// [`rollback`](SolveEngine::rollback) actually snapshot state.
    fn supports_checkpoint(&self) -> bool {
        false
    }

    /// Snapshots the solve state for a later rollback.
    fn checkpoint(&mut self) {}

    /// Restores the last checkpoint; returns `false` when none exists.
    fn rollback(&mut self) -> bool {
        false
    }

    /// One-time setup before the first step (e.g. boot DMA traffic).
    fn begin(&mut self) {}

    /// One-time teardown after a clean run (e.g. drain DMA traffic).
    fn finish(&mut self) {}

    /// Exports a resumable image of the solve state, or `None` when the
    /// engine cannot resume from an image (e.g. it owns mid-stream RNG
    /// state, like the fault-injected detailed simulator — such engines
    /// recover by deterministic replay from iteration 0 instead).
    fn export_state(&self) -> Option<EngineStateImage> {
        None
    }

    /// Restores state captured by
    /// [`export_state`](SolveEngine::export_state) on the *same
    /// problem*. Returns `false` — leaving the engine untouched — when
    /// the image's shape or scalar width disagrees, or the engine does
    /// not support restoration.
    fn restore_state(&mut self, image: &EngineStateImage) -> bool {
        let _ = image;
        false
    }
}

impl<E: SolveEngine + ?Sized> SolveEngine for &mut E {
    fn step(&mut self) -> StepOutcome {
        (**self).step()
    }
    fn iterations(&self) -> usize {
        (**self).iterations()
    }
    fn supports_checkpoint(&self) -> bool {
        (**self).supports_checkpoint()
    }
    fn checkpoint(&mut self) {
        (**self).checkpoint();
    }
    fn rollback(&mut self) -> bool {
        (**self).rollback()
    }
    fn begin(&mut self) {
        (**self).begin();
    }
    fn finish(&mut self) {
        (**self).finish();
    }
    fn export_state(&self) -> Option<EngineStateImage> {
        (**self).export_state()
    }
    fn restore_state(&mut self, image: &EngineStateImage) -> bool {
        (**self).restore_state(image)
    }
}

/// The single generic solve driver.
///
/// A session owns the outer iteration loop every backend used to
/// hand-roll: stop-condition evaluation, residual-history bookkeeping,
/// and — when a [`ResiliencePolicy`] is attached — divergence detection
/// plus checkpoint/rollback/retry.
///
/// # Example
///
/// ```
/// use fdm::prelude::*;
/// use fdm::engine::{Session, SweepEngine};
///
/// let problem = LaplaceProblem::builder(32, 32)
///     .boundary(DirichletBoundary::hot_top(1.0))
///     .build()
///     .expect("valid problem")
///     .discretize::<f64>();
/// let engine = SweepEngine::new(&problem, UpdateMethod::Jacobi);
/// let mut session = Session::new(engine, StopCondition::tolerance(1e-6, 100_000));
/// let met = session.run().expect("healthy problem, finite norms");
/// assert!(met);
/// assert!(!session.history().is_empty());
/// ```
pub struct Session<'cb, E: SolveEngine> {
    engine: E,
    stop: StopCondition,
    policy: Option<ResiliencePolicy>,
    budget: Budget,
    history: ResidualHistory,
    executed: usize,
    /// Absolute-iteration period of the state sink (0 = never).
    sink_interval: usize,
    /// Observer handed a fresh [`EngineStateImage`] every
    /// `sink_interval` iterations — the durability layer's checkpoint
    /// hook. Runs on the *absolute* iteration count, so a resumed
    /// session keeps the same snapshot schedule as an uninterrupted one.
    sink: Option<StateSink<'cb>>,
    /// In-flight loop state carried across [`Session::run_for`] slices;
    /// `None` when no run is in progress.
    in_flight: Option<LoopState>,
}

/// Loop bookkeeping that survives a cooperative yield: the retry budget,
/// the rollback checkpoint coordinates and the wall-clock anchor all
/// belong to one *run*, not to one slice of it.
#[derive(Clone, Copy, Debug)]
struct LoopState {
    retries: u32,
    has_checkpoint: bool,
    ckpt_history_len: usize,
    ckpt_iteration: usize,
    wall_start: Option<Instant>,
}

/// What one [`Session::run_for`] slice produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionPoll {
    /// The run terminated; the payload is whether the stop condition's
    /// goal was met (the value [`Session::run`] would have returned).
    Done(bool),
    /// The slice's step allowance ran out before the run terminated.
    /// Call [`Session::run_for`] again to continue — the loop state
    /// (retry budget, checkpoints, budget clocks) carries over exactly.
    Yielded,
}

/// Boxed observer for [`Session::with_state_sink`].
type StateSink<'cb> = Box<dyn FnMut(&EngineStateImage) + 'cb>;

impl<E: SolveEngine + fmt::Debug> fmt::Debug for Session<'_, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("engine", &self.engine)
            .field("stop", &self.stop)
            .field("policy", &self.policy)
            .field("budget", &self.budget)
            .field("history", &self.history)
            .field("executed", &self.executed)
            .field("sink_interval", &self.sink_interval)
            .field("sink", &self.sink.as_ref().map(|_| "FnMut(..)"))
            .finish()
    }
}

impl<'cb, E: SolveEngine> Session<'cb, E> {
    /// A plain session: no checkpoints, no divergence checks, no budget.
    pub fn new(engine: E, stop: StopCondition) -> Self {
        Session {
            engine,
            stop,
            policy: None,
            budget: Budget::unlimited(),
            history: ResidualHistory::new(),
            executed: 0,
            sink_interval: 0,
            sink: None,
            in_flight: None,
        }
    }

    /// Attaches a periodic state observer: every `interval` completed
    /// iterations (absolute count, so resumed runs keep the schedule)
    /// the engine's [`SolveEngine::export_state`] image is handed to
    /// `sink`. Engines that export `None` never fire the sink. An
    /// `interval` of 0 disables the sink.
    #[must_use]
    pub fn with_state_sink(
        mut self,
        interval: usize,
        sink: impl FnMut(&EngineStateImage) + 'cb,
    ) -> Self {
        self.sink_interval = interval;
        self.sink = Some(Box::new(sink));
        self
    }

    /// Attaches a resilience policy: the driver will checkpoint, watch
    /// for divergence/faults and roll back per the policy.
    #[must_use]
    pub fn with_policy(mut self, policy: ResiliencePolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Attaches a [`Budget`]: deadlines, cancellation and the stall
    /// watchdog are checked between steps, and a violation terminates
    /// the run with the matching structured error.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The engine being driven.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Mutable access to the engine being driven.
    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// Per-iteration update norms recorded so far.
    pub fn history(&self) -> &ResidualHistory {
        &self.history
    }

    /// Steps actually executed by the last [`Session::run`] — the budget
    /// currency. Unlike [`SolveEngine::iterations`], rollback replays
    /// count here: work discarded by a rollback was still performed.
    pub fn steps_executed(&self) -> usize {
        self.executed
    }

    /// Consumes the session, returning the engine and the recorded
    /// history.
    pub fn into_parts(self) -> (E, ResidualHistory) {
        (self.engine, self.history)
    }

    /// Drives the engine until the stop condition is satisfied.
    ///
    /// Returns `Ok(met)` — whether the stop condition's goal was met
    /// (tolerance reached, or all fixed steps completed).
    ///
    /// # Errors
    ///
    /// Always, policy or not: [`EngineError::NonFinite`] when an update
    /// norm comes back NaN/Inf and no policy is attached to recover from
    /// it (NaN never satisfies an ordered tolerance comparison, so
    /// without this check a poisoned solve would silently spin to
    /// `max_iterations`).
    ///
    /// With a policy attached, the first unrecoverable trouble: a fault
    /// or divergence with no checkpoint to roll back to
    /// ([`EngineError::NonFinite`], [`EngineError::Diverged`],
    /// [`EngineError::CorruptionDetected`], [`EngineError::DmaFailed`]),
    /// or [`EngineError::RetriesExhausted`] once the retry budget runs
    /// out.
    ///
    /// With a budget attached, [`EngineError::Cancelled`],
    /// [`EngineError::DeadlineExceeded`] or [`EngineError::Stalled`];
    /// budget violations are terminal and never roll back (a checkpoint
    /// cannot refund spent time).
    ///
    /// On `Err` the engine's `finish` hook is *not* invoked (a failed
    /// solve does not drain its solution).
    pub fn run(&mut self) -> Result<bool, EngineError> {
        self.in_flight = None; // a fresh run, even after a partial run_for
        loop {
            match self.run_for(usize::MAX)? {
                SessionPoll::Done(met) => return Ok(met),
                SessionPoll::Yielded => {}
            }
        }
    }

    /// Cooperative-yield variant of [`Session::run`]: drives the engine
    /// for at most `max_steps` further steps, then yields control back
    /// to the caller with [`SessionPoll::Yielded`] if the run has not
    /// terminated yet.
    ///
    /// The first call begins the run (engine `begin` hook, initial
    /// policy checkpoint); subsequent calls continue it with the loop
    /// state — retry budget, rollback checkpoint, deadline and
    /// wall-clock anchors — carried over exactly, so a run executed in
    /// slices is bit-identical to one executed by a single
    /// [`Session::run`]. A caller that must stay responsive between
    /// steps (polling a cancellation source, interleaving other work,
    /// timing slices) drives a run this way.
    ///
    /// [`Session::steps_executed`] accumulates across slices of one run
    /// and resets when a new run begins.
    ///
    /// # Errors
    ///
    /// Exactly the error surface of [`Session::run`]; an error ends the
    /// in-flight run (the next call starts a fresh one).
    pub fn run_for(&mut self, max_steps: usize) -> Result<SessionPoll, EngineError> {
        if self.in_flight.is_none() {
            self.engine.begin();
            let wall_start = self.budget.max_wall.map(|_| Instant::now());
            let mut state = LoopState {
                retries: 0,
                has_checkpoint: false,
                ckpt_history_len: self.history.len(),
                ckpt_iteration: self.engine.iterations(),
                wall_start,
            };
            if let Some(p) = &self.policy {
                if p.checkpoint_interval > 0 && self.engine.supports_checkpoint() {
                    self.engine.checkpoint();
                    state.has_checkpoint = true;
                    state.ckpt_history_len = self.history.len();
                    state.ckpt_iteration = self.engine.iterations();
                }
            }
            self.executed = 0;
            self.in_flight = Some(state);
        }
        match self.run_slice(max_steps) {
            Ok(SessionPoll::Yielded) => Ok(SessionPoll::Yielded),
            Ok(SessionPoll::Done(met)) => {
                self.in_flight = None;
                Ok(SessionPoll::Done(met))
            }
            Err(e) => {
                self.in_flight = None;
                Err(e)
            }
        }
    }

    /// One slice of the driver loop; `self.in_flight` must be `Some`.
    fn run_slice(&mut self, max_steps: usize) -> Result<SessionPoll, EngineError> {
        let mut state = self.in_flight.take().unwrap_or(LoopState {
            retries: 0,
            has_checkpoint: false,
            ckpt_history_len: 0,
            ckpt_iteration: 0,
            wall_start: None,
        });
        let result = self.slice_loop(max_steps, &mut state);
        self.in_flight = Some(state);
        result
    }

    /// The driver loop body shared by every slice of a run.
    #[allow(clippy::too_many_lines)]
    fn slice_loop(
        &mut self,
        max_steps: usize,
        state: &mut LoopState,
    ) -> Result<SessionPoll, EngineError> {
        let max = self.stop.max_iterations();
        let mut slice_steps = 0usize;
        let mut met = false;
        while self.engine.iterations() < max {
            if slice_steps >= max_steps {
                return Ok(SessionPoll::Yielded);
            }
            // Budget gate, *before* the step: a job never exceeds its
            // deadline, and a cancelled job does no further work.
            {
                let iteration = self.engine.iterations();
                let b = &self.budget;
                if b.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                    return Err(EngineError::Cancelled { iteration });
                }
                if b.deadline_iterations.is_some_and(|d| self.executed >= d) {
                    return Err(EngineError::DeadlineExceeded { iteration });
                }
                if let (Some(ceiling), Some(start)) = (b.max_wall, state.wall_start) {
                    if start.elapsed() >= ceiling {
                        return Err(EngineError::DeadlineExceeded { iteration });
                    }
                }
            }

            let iter_before = self.engine.iterations();
            let out = self.engine.step();
            self.executed += 1;
            slice_steps += 1;
            if let Some(norm) = out.norm {
                self.history.push(norm);
            }
            let iteration = self.engine.iterations();

            if let Some(p) = &self.policy {
                let trouble = match out.fault {
                    Some(StepFault::DmaFailed) => Some(EngineError::DmaFailed { iteration }),
                    Some(StepFault::CorruptionDetected) => {
                        Some(EngineError::CorruptionDetected { iteration })
                    }
                    None => match self
                        .history
                        .detect_divergence(p.divergence_window, p.divergence_factor)
                    {
                        Some(Divergence::NonFinite { iteration }) => {
                            Some(EngineError::NonFinite { iteration })
                        }
                        Some(Divergence::Growing { iteration, ratio }) => {
                            Some(EngineError::Diverged { iteration, ratio })
                        }
                        None => None,
                    },
                };
                if let Some(err) = trouble {
                    if !state.has_checkpoint {
                        return Err(err);
                    }
                    if state.retries >= p.max_retries {
                        return Err(EngineError::RetriesExhausted {
                            attempts: state.retries,
                            checkpoint_iteration: state.ckpt_iteration,
                        });
                    }
                    state.retries += 1;
                    self.engine.rollback();
                    self.history.truncate(state.ckpt_history_len);
                    continue;
                }
            } else if out.norm.is_some_and(|n| !n.is_finite()) {
                // No policy to recover through: a non-finite norm would
                // slip past every ordered comparison below, so surface it
                // as a structured error instead of spinning to the cap.
                return Err(EngineError::NonFinite { iteration });
            }

            if self.budget.stall_window > 0 {
                if let Some(at) = self
                    .history
                    .detect_stall(self.budget.stall_window, self.budget.stall_min_decay)
                {
                    return Err(EngineError::Stalled { iteration: at });
                }
            }

            let norm = out.norm.unwrap_or(f64::INFINITY);
            if self.stop.should_stop(iteration, norm) {
                met = self.stop.is_met(iteration, norm);
                break;
            }

            // Interval firings use *crossing* semantics so multi-sweep
            // steps (the tiled engine advances `iterations` by a whole
            // epoch) still fire when a step jumps over an interval
            // multiple. Stride-1 engines behave exactly as before.
            let crossed = |interval: usize| iteration / interval > iter_before / interval;

            if let Some(p) = &self.policy {
                if p.checkpoint_interval > 0
                    && self.engine.supports_checkpoint()
                    && crossed(p.checkpoint_interval)
                {
                    self.engine.checkpoint();
                    state.has_checkpoint = true;
                    state.ckpt_history_len = self.history.len();
                    state.ckpt_iteration = iteration;
                    // The budget bounds retries per checkpoint window:
                    // making it this far means real progress, so the
                    // allowance renews.
                    state.retries = 0;
                }
            }

            if self.sink_interval > 0 && crossed(self.sink_interval) {
                if let Some(sink) = &mut self.sink {
                    if let Some(image) = self.engine.export_state() {
                        sink(&image);
                    }
                }
            }
        }
        if self.engine.iterations() == max {
            met = self
                .stop
                .is_met(max, self.history.last().unwrap_or(f64::INFINITY));
        }

        self.engine.finish();
        Ok(SessionPoll::Done(met))
    }
}

/// Copies `cur`'s Dirichlet boundary ring (top/bottom rows, left/right
/// columns) into `next`; both are row-major and `cols` wide.
///
/// The sweeps only write interior points, so a double-buffered write
/// target must already carry the right ring. For two-buffer rotations
/// that holds by construction, but the wave equation's *three*-buffer
/// rotation cycles `prev_initial`'s buffer back in as the write target
/// every other sweep — without this refresh its ring would leak into
/// the solution whenever `prev_initial` disagrees with `initial` on the
/// boundary (the numerics never read those cells; only the rotation
/// exposes them). A bitwise no-op when the rings agree.
fn refresh_boundary_ring<T: Copy>(next: &mut [T], cur: &[T], cols: usize) {
    let rows = cur.len() / cols.max(1);
    if rows == 0 || cols == 0 {
        return;
    }
    next[..cols].copy_from_slice(&cur[..cols]);
    next[(rows - 1) * cols..].copy_from_slice(&cur[(rows - 1) * cols..]);
    for i in 1..rows.saturating_sub(1) {
        next[i * cols] = cur[i * cols];
        next[i * cols + cols - 1] = cur[i * cols + cols - 1];
    }
}

/// Whether `problem`'s offset reads the wave history `U^{k-1}`.
///
/// # Panics
///
/// Panics when it does but the problem carries no `prev_initial`.
fn uses_prev<T: Scalar>(problem: &StencilProblem<T>) -> bool {
    let uses = matches!(problem.offset, OffsetField::ScaledPrevField { .. });
    assert!(
        !uses || problem.prev_initial.is_some(),
        "a ScaledPrevField offset requires prev_initial"
    );
    uses
}

/// A snapshot of a [`SweepEngine`]'s rotating buffers.
#[derive(Clone, Debug)]
struct SweepCheckpoint<T> {
    cur: Grid2D<T>,
    next: Grid2D<T>,
    prev: Option<Grid2D<T>>,
    iterations: usize,
}

/// The software relaxation sweeps as a [`SolveEngine`].
///
/// One step is one sweep of the chosen [`UpdateMethod`] with the
/// canonical stencil evaluation order (bit-exact with the hardware
/// model's f32 arithmetic). Buffers rotate by pointer swap; the only
/// per-iteration copy is the `prev` snapshot the wave equation's
/// in-place methods need, kept in a reused scratch buffer.
#[derive(Debug)]
pub struct SweepEngine<'p, T: Scalar> {
    problem: &'p StencilProblem<T>,
    method: UpdateMethod,
    cur: Grid2D<T>,
    next: Grid2D<T>,
    prev: Option<Grid2D<T>>,
    scratch: Option<Grid2D<T>>,
    uses_prev: bool,
    iterations: usize,
    saved: Option<SweepCheckpoint<T>>,
}

impl<'p, T: Scalar> SweepEngine<'p, T> {
    /// Prepares a sweep engine on `problem`.
    ///
    /// # Panics
    ///
    /// Panics when an SOR factor lies outside `(0, 2)`, or when a
    /// `ScaledPrevField` offset (wave equation) comes without
    /// `prev_initial`.
    pub fn new(problem: &'p StencilProblem<T>, method: UpdateMethod) -> Self {
        if let UpdateMethod::Sor { omega } = method {
            assert!(
                omega > 0.0 && omega < 2.0,
                "SOR requires omega in (0, 2), got {omega}"
            );
        }
        let uses_prev = uses_prev(problem);
        let cur = problem.initial.clone();
        let next = cur.clone();
        let prev = problem.prev_initial.clone();
        SweepEngine {
            problem,
            method,
            cur,
            next,
            prev,
            scratch: None,
            uses_prev,
            iterations: 0,
            saved: None,
        }
    }

    /// The current field `U^k`.
    pub fn solution(&self) -> &Grid2D<T> {
        &self.cur
    }

    /// Consumes the engine, returning the final field.
    pub fn into_solution(self) -> Grid2D<T> {
        self.cur
    }

    /// The update method being swept.
    pub fn method(&self) -> UpdateMethod {
        self.method
    }
}

impl<T: Scalar> SolveEngine for SweepEngine<'_, T> {
    fn step(&mut self) -> StepOutcome {
        let problem = self.problem;
        // The wave rotation cycles `prev_initial`'s buffer in as the
        // write target: re-pin its boundary ring to the solution's.
        if self.uses_prev && matches!(self.method, UpdateMethod::Jacobi | UpdateMethod::Hybrid) {
            let cols = self.cur.cols();
            refresh_boundary_ring(self.next.as_mut_slice(), self.cur.as_slice(), cols);
        }
        let diff2 = match self.method {
            UpdateMethod::Jacobi => sweep_jacobi(
                &problem.stencil,
                &problem.offset,
                &self.cur,
                self.prev.as_ref(),
                &mut self.next,
            ),
            UpdateMethod::Hybrid => sweep_hybrid(
                &problem.stencil,
                &problem.offset,
                &self.cur,
                self.prev.as_ref(),
                &mut self.next,
            ),
            UpdateMethod::GaussSeidel | UpdateMethod::Checkerboard | UpdateMethod::Sor { .. } => {
                // In-place sweeps: when the wave history is live, keep the
                // pre-sweep field in a reused scratch buffer (no
                // per-iteration allocation) and rotate it into `prev`.
                if self.uses_prev {
                    match &mut self.scratch {
                        Some(s) => s.as_mut_slice().copy_from_slice(self.cur.as_slice()),
                        None => self.scratch = Some(self.cur.clone()),
                    }
                }
                let d = match self.method {
                    UpdateMethod::GaussSeidel => sweep_gauss_seidel(
                        &problem.stencil,
                        &problem.offset,
                        &mut self.cur,
                        self.prev.as_ref(),
                    ),
                    UpdateMethod::Checkerboard => sweep_checkerboard(
                        &problem.stencil,
                        &problem.offset,
                        &mut self.cur,
                        self.prev.as_ref(),
                    ),
                    UpdateMethod::Sor { omega } => sweep_sor(
                        &problem.stencil,
                        &problem.offset,
                        &mut self.cur,
                        self.prev.as_ref(),
                        omega,
                    ),
                    _ => unreachable!("outer match restricts to in-place methods"),
                };
                if self.uses_prev {
                    core::mem::swap(
                        self.prev.as_mut().expect("checked in new"),
                        self.scratch.as_mut().expect("filled above"),
                    );
                }
                d
            }
        };

        // Double-buffered methods rotate cur/next (and prev for the wave
        // equation); in-place methods already updated `cur` above.
        if matches!(self.method, UpdateMethod::Jacobi | UpdateMethod::Hybrid) {
            if self.uses_prev {
                core::mem::swap(&mut self.cur, self.prev.as_mut().expect("checked in new"));
            }
            core::mem::swap(&mut self.cur, &mut self.next);
        }

        self.iterations += 1;
        StepOutcome::clean(diff2.sqrt())
    }

    fn iterations(&self) -> usize {
        self.iterations
    }

    fn supports_checkpoint(&self) -> bool {
        true
    }

    fn checkpoint(&mut self) {
        self.saved = Some(SweepCheckpoint {
            cur: self.cur.clone(),
            next: self.next.clone(),
            prev: self.prev.clone(),
            iterations: self.iterations,
        });
    }

    fn rollback(&mut self) -> bool {
        match &self.saved {
            Some(ckpt) => {
                self.cur.as_mut_slice().copy_from_slice(ckpt.cur.as_slice());
                self.next
                    .as_mut_slice()
                    .copy_from_slice(ckpt.next.as_slice());
                match (&mut self.prev, &ckpt.prev) {
                    (Some(dst), Some(src)) => dst.as_mut_slice().copy_from_slice(src.as_slice()),
                    (dst, src) => *dst = src.clone(),
                }
                self.iterations = ckpt.iterations;
                true
            }
            None => false,
        }
    }

    fn export_state(&self) -> Option<EngineStateImage> {
        Some(EngineStateImage::capture(
            self.iterations,
            &self.cur,
            self.prev.as_ref(),
        ))
    }

    fn restore_state(&mut self, image: &EngineStateImage) -> bool {
        let ok = restore_sweep_state(
            image,
            &mut self.cur,
            &mut self.next,
            &mut self.prev,
            &mut self.iterations,
        );
        if ok {
            self.saved = None;
        }
        ok
    }
}

/// Strip-parallel software sweeps: the software analogue of FDMAX's
/// elastic `1×(C·k)` subarray chains.
///
/// The grid interior is decomposed into contiguous row bands
/// ([`crate::kernels::row_bands`]), one per worker, exactly as the elastic
/// reconfiguration assigns row strips to chained subarrays. Like the
/// hardware, which configures its chains once per solve, the engine sets
/// its bands up once: each band owns a *strip* — its rows of the current,
/// next, wave-history and static-offset fields plus one halo row on each
/// side — and a persistent worker thread sweeps it. Workers start on the
/// first banded step and live until the engine is dropped, which joins
/// them. One step hands every strip but the first to its worker through a
/// channel (the buffers move, nothing is copied), sweeps band 0 on the
/// calling thread, takes the strips back, copies the two halo rows at each
/// band edge (the `HaloAdders`' one-row exchange) and folds the per-row
/// diff² partials *in ascending row order*. Because every row partial is
/// produced by the same [`crate::kernels`] row kernel the serial
/// [`SweepEngine`] drives, and the fold order equals the serial
/// accumulation order, Jacobi and checkerboard results — grids *and*
/// residual histories — are bit-identical to the serial engine at any
/// thread count.
///
/// * **Jacobi** parallelises trivially: every output row depends only on
///   the previous iterate.
/// * **Checkerboard** parallelises exactly: a phase-`p` update at
///   `(i, j)` reads only opposite-parity neighbours, which the running
///   phase never writes, so halo rows exchanged before a phase stay valid
///   for the whole phase and band-local reads match what a serial
///   ascending sweep would have seen. Each phase is one round trip.
/// * **Hybrid, Gauss-Seidel and SOR** carry a loop dependency across
///   rows; they run on an inner [`SweepEngine`] (one band), as does any
///   plan with fewer than two bands, so the engine stays a drop-in
///   replacement for every [`UpdateMethod`].
///
/// A panic on a worker thread resurfaces as a panic of
/// [`SolveEngine::step`] on the calling thread; the engine's state is lost
/// with the worker's strip, so every later step panics too.
#[derive(Debug)]
pub struct ParallelSweepEngine<'p, T: Scalar> {
    method: UpdateMethod,
    threads: usize,
    /// Interior row bands, computed once at construction.
    bands: Vec<core::ops::Range<usize>>,
    sweeps: Sweeps<'p, T>,
}

/// What actually sweeps a [`ParallelSweepEngine`].
#[derive(Debug)]
enum Sweeps<'p, T: Scalar> {
    /// A single band, or a method with a loop dependency across rows.
    Serial(SweepEngine<'p, T>),
    /// Two or more bands on persistent workers.
    Banded(BandedSweeps<T>),
}

impl<'p, T: Scalar> ParallelSweepEngine<'p, T> {
    /// Prepares a strip-parallel sweep engine on `problem` with at most
    /// `threads` worker bands (clamped to at least 1 and at most the
    /// interior height). No thread starts until the first step.
    ///
    /// # Panics
    ///
    /// Same conditions as [`SweepEngine::new`].
    pub fn new(problem: &'p StencilProblem<T>, method: UpdateMethod, threads: usize) -> Self {
        let threads = threads.max(1);
        let rows = problem.initial.rows();
        let bands = if matches!(method, UpdateMethod::Jacobi | UpdateMethod::Checkerboard) {
            crate::kernels::row_bands(rows, threads)
        } else {
            // Methods with a loop dependency across rows keep one band.
            crate::kernels::row_bands(rows, 1)
        };
        let sweeps = if bands.len() < 2 {
            Sweeps::Serial(SweepEngine::new(problem, method))
        } else {
            Sweeps::Banded(BandedSweeps::new(problem, method, &bands))
        };
        ParallelSweepEngine {
            method,
            threads,
            bands,
            sweeps,
        }
    }

    /// The current field `U^k`.
    pub fn solution(&self) -> &Grid2D<T> {
        match &self.sweeps {
            Sweeps::Serial(e) => e.solution(),
            Sweeps::Banded(b) => b.solution(),
        }
    }

    /// Consumes the engine, returning the final field.
    pub fn into_solution(self) -> Grid2D<T> {
        match self.sweeps {
            Sweeps::Serial(e) => e.into_solution(),
            Sweeps::Banded(mut b) => b.gathered.take().unwrap_or_else(|| b.gather(|s| &s.cur)),
        }
    }

    /// The update method being swept.
    pub fn method(&self) -> UpdateMethod {
        self.method
    }

    /// The requested worker count (bands actually used may be fewer on
    /// short grids).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The band plan actually swept: ascending, disjoint, contiguous
    /// interior row ranges. The static race certifier
    /// (`fdmax::analysis`) re-derives and certifies exactly this
    /// geometry.
    pub fn bands(&self) -> &[core::ops::Range<usize>] {
        &self.bands
    }

    fn engine(&self) -> &dyn SolveEngine {
        match &self.sweeps {
            Sweeps::Serial(e) => e,
            Sweeps::Banded(b) => b,
        }
    }

    fn engine_mut(&mut self) -> &mut dyn SolveEngine {
        match &mut self.sweeps {
            Sweeps::Serial(e) => e,
            Sweeps::Banded(b) => b,
        }
    }
}

impl<T: Scalar> SolveEngine for ParallelSweepEngine<'_, T> {
    fn step(&mut self) -> StepOutcome {
        self.engine_mut().step()
    }

    fn iterations(&self) -> usize {
        self.engine().iterations()
    }

    fn supports_checkpoint(&self) -> bool {
        true
    }

    fn checkpoint(&mut self) {
        self.engine_mut().checkpoint();
    }

    fn rollback(&mut self) -> bool {
        self.engine_mut().rollback()
    }

    fn export_state(&self) -> Option<EngineStateImage> {
        self.engine().export_state()
    }

    fn restore_state(&mut self, image: &EngineStateImage) -> bool {
        self.engine_mut().restore_state(image)
    }
}

/// Row `r` of a row-major buffer `cols` wide.
fn row_of<T>(buf: &[T], cols: usize, r: usize) -> &[T] {
    &buf[r * cols..(r + 1) * cols]
}

/// One sweep phase, as a band worker runs it.
#[derive(Clone, Copy, Debug)]
enum Phase {
    Jacobi,
    /// One checkerboard colour: the points with `(i + j) % 2 == parity`.
    Checkerboard(usize),
}

/// A band's view of the problem's offset term.
#[derive(Debug)]
enum StripOffset<T> {
    None,
    /// The strip's rows of a static offset field.
    Static(Vec<T>),
    /// `scale * U^{k-1}`, read from the strip's wave history.
    ScaledPrev(T),
}

/// One band's share of the solve state: rows `band.start - 1 ..
/// band.end + 1` (the band plus one halo row on each side) of every field
/// its sweep touches, row-major. Strip row `r` is grid row
/// `band.start - 1 + r`.
#[derive(Debug)]
struct Strip<T> {
    band: core::ops::Range<usize>,
    cur: Vec<T>,
    /// The Jacobi write target.
    next: Vec<T>,
    /// The wave history `U^{k-1}`, when the problem carries one.
    prev: Option<Vec<T>>,
    /// The pre-sweep copy of `cur` that becomes `prev` after an in-place
    /// (checkerboard) wave sweep.
    scratch: Option<Vec<T>>,
    offset: StripOffset<T>,
    /// The last phase's diff² partial of each band row.
    diff2: Vec<f64>,
    /// Makes the worker that receives this strip panic.
    #[cfg(test)]
    poison: bool,
}

/// Row `r` of a strip's offset term.
fn strip_offset_row<'a, T: Scalar>(
    offset: &'a StripOffset<T>,
    prev: Option<&'a [T]>,
    cols: usize,
    r: usize,
) -> OffsetRow<'a, T> {
    match offset {
        StripOffset::None => OffsetRow::None,
        StripOffset::Static(c) => OffsetRow::Static(row_of(c, cols, r)),
        StripOffset::ScaledPrev(scale) => OffsetRow::Scaled {
            scale: *scale,
            prev: row_of(prev.expect("wave strips carry prev"), cols, r),
        },
    }
}

/// The kernel parameters every band shares, read-only on all threads.
#[derive(Debug)]
struct StripKernel<T> {
    stencil: FivePointStencil<T>,
    cols: usize,
}

impl<T: Scalar> StripKernel<T> {
    /// Runs one phase over `strip`'s band rows, leaving each row's diff²
    /// in `strip.diff2`. Halo rows are only read; after a Jacobi phase
    /// (which rotates the buffers) they are stale until the engine
    /// exchanges them.
    fn sweep(&self, strip: &mut Strip<T>, phase: Phase) {
        let cols = self.cols;
        let Strip {
            band,
            cur,
            next,
            prev,
            scratch,
            offset,
            diff2,
            ..
        } = strip;
        let wave = matches!(offset, StripOffset::ScaledPrev(_));
        let offset_row = |prev, r| strip_offset_row(offset, prev, cols, r);
        match phase {
            Phase::Jacobi => {
                // Same ring re-pin as the serial engine: the wave rotation
                // cycles the history buffer in as the write target.
                if wave {
                    refresh_boundary_ring(next, cur, cols);
                }
                for (r, d) in (1..=band.len()).zip(diff2.iter_mut()) {
                    *d = jacobi_row(
                        &self.stencil,
                        row_of(cur, cols, r - 1),
                        row_of(cur, cols, r),
                        row_of(cur, cols, r + 1),
                        offset_row(prev.as_deref(), r),
                        &mut next[r * cols..(r + 1) * cols],
                    );
                }
                if wave {
                    core::mem::swap(cur, prev.as_mut().expect("wave strips carry prev"));
                }
                core::mem::swap(cur, next);
            }
            Phase::Checkerboard(parity) => {
                if let (0, Some(s)) = (parity, scratch.as_mut()) {
                    s.copy_from_slice(cur);
                }
                for (r, d) in (1..=band.len()).zip(diff2.iter_mut()) {
                    let i = band.start + r - 1;
                    // First interior column of grid row `i` in this colour.
                    let start = if (i + parity) % 2 == 1 { 1 } else { 2 };
                    let b = offset_row(prev.as_deref(), r);
                    let (up, mid, down) = tri_rows_mut(cur, cols, r);
                    *d = checkerboard_row(&self.stencil, up, mid, down, b, start);
                }
                if let (1, Some(p), Some(s)) = (parity, prev.as_mut(), scratch.as_mut()) {
                    core::mem::swap(p, s);
                }
            }
        }
    }
}

/// Jacobi or checkerboard over two or more strips, bands `1..` on
/// [`BandWorkers`].
#[derive(Debug)]
struct BandedSweeps<T: Scalar> {
    kernel: Arc<StripKernel<T>>,
    phases: &'static [Phase],
    rows: usize,
    /// One strip per band, in band order. Between steps the engine holds
    /// them all, so every state operation is a scatter or a gather.
    strips: Vec<Strip<T>>,
    /// Spawned on the first step.
    workers: Option<BandWorkers<T>>,
    iterations: usize,
    saved: Option<EngineStateImage>,
    /// The current field, gathered on demand; every step clears it.
    gathered: OnceCell<Grid2D<T>>,
}

impl<T: Scalar> BandedSweeps<T> {
    fn new(
        problem: &StencilProblem<T>,
        method: UpdateMethod,
        bands: &[core::ops::Range<usize>],
    ) -> Self {
        let wave = uses_prev(problem);
        let checkerboard = matches!(method, UpdateMethod::Checkerboard);
        let cols = problem.initial.cols();
        let strips = bands
            .iter()
            .map(|band| {
                let window = |g: &Grid2D<T>| {
                    g.as_slice()[(band.start - 1) * cols..(band.end + 1) * cols].to_vec()
                };
                Strip {
                    band: band.clone(),
                    cur: window(&problem.initial),
                    next: window(&problem.initial),
                    prev: problem.prev_initial.as_ref().map(window),
                    scratch: (wave && checkerboard).then(|| window(&problem.initial)),
                    offset: match &problem.offset {
                        OffsetField::None => StripOffset::None,
                        OffsetField::Static(c) => StripOffset::Static(window(c)),
                        OffsetField::ScaledPrevField { scale } => StripOffset::ScaledPrev(*scale),
                    },
                    diff2: vec![0.0; band.len()],
                    #[cfg(test)]
                    poison: false,
                }
            })
            .collect();
        BandedSweeps {
            kernel: Arc::new(StripKernel {
                stencil: problem.stencil,
                cols,
            }),
            phases: if checkerboard {
                &[Phase::Checkerboard(0), Phase::Checkerboard(1)]
            } else {
                &[Phase::Jacobi]
            },
            rows: problem.initial.rows(),
            strips,
            workers: None,
            iterations: 0,
            saved: None,
            gathered: OnceCell::new(),
        }
    }

    fn solution(&self) -> &Grid2D<T> {
        self.gathered.get_or_init(|| self.gather(|s| &s.cur))
    }

    /// One phase over every band, continuing the diff² fold from `acc`.
    fn run_phase(&mut self, phase: Phase, acc: f64) -> f64 {
        let kernel = &self.kernel;
        let workers = self
            .workers
            .get_or_insert_with(|| BandWorkers::spawn(kernel, self.strips.len() - 1));
        assert_eq!(
            self.strips.len(),
            workers.links.len() + 1,
            "a band worker panicked in an earlier step; the engine's state is lost"
        );
        for (k, strip) in self.strips.drain(1..).enumerate() {
            workers.send(k, strip, phase);
        }
        kernel.sweep(&mut self.strips[0], phase);
        for k in 0..workers.links.len() {
            self.strips.push(workers.receive(k));
        }
        self.exchange_halos();
        self.strips
            .iter()
            .fold(acc, |acc, s| crate::ops::fold_partials_from(acc, &s.diff2))
    }

    /// Refreshes both halo rows at every band edge of `cur` from the
    /// neighbouring band's edge row.
    fn exchange_halos(&mut self) {
        let cols = self.kernel.cols;
        for k in 1..self.strips.len() {
            let (above, below) = self.strips.split_at_mut(k);
            let (above, below) = (&mut above[k - 1], &mut below[0]);
            let h = above.band.len();
            above.cur[(h + 1) * cols..].copy_from_slice(row_of(&below.cur, cols, 1));
            below.cur[..cols].copy_from_slice(row_of(&above.cur, cols, h));
        }
    }

    /// Assembles one field of every strip into a grid: each band's rows,
    /// plus the first strip's top halo and the last strip's bottom halo,
    /// which are the grid's boundary rows.
    fn gather(&self, field: impl Fn(&Strip<T>) -> &[T]) -> Grid2D<T> {
        let cols = self.kernel.cols;
        let last = self.strips.len() - 1;
        let mut data = Vec::with_capacity(self.rows * cols);
        for (k, strip) in self.strips.iter().enumerate() {
            let lo = usize::from(k != 0);
            let hi = strip.band.len() + 1 + usize::from(k == last);
            data.extend_from_slice(&field(strip)[lo * cols..hi * cols]);
        }
        Grid2D::from_vec(self.rows, cols, data)
            .expect("the strips tile the grid unless a band worker panicked")
    }

    /// Scatters an image's current field and wave history into the
    /// strips. `next` keeps its contents: a sweep rewrites its band rows
    /// before they are read, and its boundary ring is the problem's.
    /// Returns `false`, touching nothing, when the image does not fit.
    fn load(&mut self, image: &EngineStateImage) -> bool {
        let cols = self.kernel.cols;
        let prev = image.prev_grid::<T>();
        let fits = |g: &Grid2D<T>| g.rows() == self.rows && g.cols() == cols;
        let Some(cur) = image.cur_grid::<T>().filter(fits) else {
            return false;
        };
        if prev.is_some() != image.prev.is_some()
            || prev.is_some() != self.strips[0].prev.is_some()
            || !prev.as_ref().is_none_or(fits)
        {
            return false;
        }
        for strip in &mut self.strips {
            let window = (strip.band.start - 1) * cols..(strip.band.end + 1) * cols;
            strip.cur.copy_from_slice(&cur.as_slice()[window.clone()]);
            if let (Some(dst), Some(src)) = (strip.prev.as_mut(), prev.as_ref()) {
                dst.copy_from_slice(&src.as_slice()[window]);
            }
        }
        self.iterations = image.iterations;
        self.gathered.take();
        true
    }
}

impl<T: Scalar> SolveEngine for BandedSweeps<T> {
    fn step(&mut self) -> StepOutcome {
        self.gathered.take();
        let phases = self.phases;
        let diff2 = phases
            .iter()
            .fold(0.0, |acc, &phase| self.run_phase(phase, acc));
        self.iterations += 1;
        StepOutcome::clean(diff2.sqrt())
    }

    fn iterations(&self) -> usize {
        self.iterations
    }

    fn supports_checkpoint(&self) -> bool {
        true
    }

    fn checkpoint(&mut self) {
        self.saved = self.export_state();
    }

    fn rollback(&mut self) -> bool {
        match self.saved.take() {
            Some(image) => {
                let ok = self.load(&image);
                self.saved = Some(image);
                ok
            }
            None => false,
        }
    }

    fn export_state(&self) -> Option<EngineStateImage> {
        let prev = self.strips[0]
            .prev
            .is_some()
            .then(|| self.gather(|s| s.prev.as_deref().expect("all strips carry prev")));
        Some(EngineStateImage::capture(
            self.iterations,
            self.solution(),
            prev.as_ref(),
        ))
    }

    fn restore_state(&mut self, image: &EngineStateImage) -> bool {
        let ok = self.load(image);
        if ok {
            self.saved = None;
        }
        ok
    }
}

/// How long a waiting side polls its channel, yielding between polls,
/// before it blocks. During a solve each side only waits for the other's
/// band, so a short poll catches the strip without a sleep and wake-up
/// (about 15 µs per round trip on a 2-vCPU Xeon VM, against 2 µs
/// polling). Yielding rather than spinning leaves the core to the other
/// side when both share one; an idle engine's workers poll once and
/// then sleep.
const POLL_BEFORE_BLOCKING: Duration = Duration::from_micros(50);

/// Receives from `rx`, polling for [`POLL_BEFORE_BLOCKING`] first.
fn recv_polling<M>(rx: &Receiver<M>) -> Result<M, mpsc::RecvError> {
    let start = Instant::now();
    loop {
        match rx.try_recv() {
            Ok(message) => return Ok(message),
            Err(mpsc::TryRecvError::Disconnected) => return Err(mpsc::RecvError),
            Err(mpsc::TryRecvError::Empty) if start.elapsed() < POLL_BEFORE_BLOCKING => {
                std::thread::yield_now();
            }
            Err(mpsc::TryRecvError::Empty) => return rx.recv(),
        }
    }
}

/// One persistent worker: its job and reply channels and its thread.
#[derive(Debug)]
struct WorkerLink<T> {
    jobs: SyncSender<(Strip<T>, Phase)>,
    done: Receiver<Strip<T>>,
    handle: Option<JoinHandle<()>>,
}

/// The persistent threads of a [`BandedSweeps`]: worker `k` receives
/// strip `k + 1` with the phase to run and sends it back swept.
#[derive(Debug)]
struct BandWorkers<T> {
    links: Vec<WorkerLink<T>>,
}

impl<T: Scalar> BandWorkers<T> {
    fn spawn(kernel: &Arc<StripKernel<T>>, count: usize) -> Self {
        let links = (1..=count)
            .map(|band| {
                // At most one strip is in flight each way, so a one-slot
                // channel never blocks a send and allocates only here.
                let (jobs, job_rx) = mpsc::sync_channel::<(Strip<T>, Phase)>(1);
                let (done_tx, done) = mpsc::sync_channel(1);
                let kernel = Arc::clone(kernel);
                let handle = std::thread::Builder::new()
                    .name(format!("fdm-band-{band}"))
                    .spawn(move || {
                        while let Ok((mut strip, phase)) = recv_polling(&job_rx) {
                            #[cfg(test)]
                            assert!(!strip.poison, "injected band-worker panic");
                            kernel.sweep(&mut strip, phase);
                            if done_tx.send(strip).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("the OS refused to start a band worker thread");
                WorkerLink {
                    jobs,
                    done,
                    handle: Some(handle),
                }
            })
            .collect();
        BandWorkers { links }
    }

    fn send(&mut self, k: usize, strip: Strip<T>, phase: Phase) {
        if self.links[k].jobs.send((strip, phase)).is_err() {
            self.reraise(k);
        }
    }

    fn receive(&mut self, k: usize) -> Strip<T> {
        match recv_polling(&self.links[k].done) {
            Ok(strip) => strip,
            Err(_) => self.reraise(k),
        }
    }

    /// Re-raises worker `k`'s panic on the calling thread. Only an
    /// unwinding worker drops its channel ends while the engine lives, so
    /// a disconnected channel means the thread is finished and the join
    /// returns at once.
    fn reraise(&mut self, k: usize) -> ! {
        match self.links[k].handle.take().map(JoinHandle::join) {
            Some(Err(payload)) => std::panic::resume_unwind(payload),
            _ => panic!("band worker {k} stopped without returning its strip"),
        }
    }
}

impl<T> Drop for BandWorkers<T> {
    fn drop(&mut self) {
        // Closing the job channels is the stop signal; close them all
        // before the first join.
        let handles: Vec<_> = self.links.drain(..).filter_map(|l| l.handle).collect();
        for handle in handles {
            // A worker's panic was already re-raised by `step`, and a
            // second panic here would abort.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::DirichletBoundary;
    use crate::pde::LaplaceProblem;
    use crate::solver::solve;

    fn laplace(n: usize) -> StencilProblem<f64> {
        LaplaceProblem::builder(n, n)
            .boundary(DirichletBoundary::hot_top(1.0))
            .build()
            .unwrap()
            .discretize::<f64>()
    }

    #[test]
    fn session_matches_the_solve_entry_point() {
        let sp = laplace(16);
        let stop = StopCondition::tolerance(1e-8, 50_000);
        let mut session = Session::new(SweepEngine::new(&sp, UpdateMethod::Jacobi), stop);
        let met = session.run().unwrap();
        let sw = solve(&sp, UpdateMethod::Jacobi, &stop);
        assert_eq!(met, sw.converged());
        let (engine, history) = session.into_parts();
        assert_eq!(engine.iterations(), sw.iterations());
        assert_eq!(engine.solution(), sw.solution());
        assert_eq!(history.as_slice(), sw.history().as_slice());
    }

    #[test]
    fn zero_steps_is_trivially_met_for_fixed_mode_only() {
        let sp = laplace(8);
        let mut fixed = Session::new(
            SweepEngine::new(&sp, UpdateMethod::Jacobi),
            StopCondition::fixed_steps(0),
        );
        assert!(fixed.run().unwrap());
        let mut tol = Session::new(
            SweepEngine::new(&sp, UpdateMethod::Jacobi),
            StopCondition::tolerance(1e-8, 0),
        );
        assert!(!tol.run().unwrap());
    }

    #[test]
    fn borrowed_engines_drive_too() {
        let sp = laplace(8);
        let mut engine = SweepEngine::new(&sp, UpdateMethod::Jacobi);
        let mut session = Session::new(&mut engine, StopCondition::fixed_steps(3));
        assert!(session.run().unwrap());
        drop(session);
        assert_eq!(engine.iterations(), 3);
    }

    #[test]
    fn policy_detects_divergence_without_checkpoints() {
        // An engine that fabricates a growing norm series.
        struct Exploding {
            iterations: usize,
        }
        impl SolveEngine for Exploding {
            fn step(&mut self) -> StepOutcome {
                self.iterations += 1;
                StepOutcome::clean(10f64.powi(self.iterations as i32))
            }
            fn iterations(&self) -> usize {
                self.iterations
            }
        }
        let mut session = Session::new(Exploding { iterations: 0 }, StopCondition::fixed_steps(50))
            .with_policy(ResiliencePolicy {
                checkpoint_interval: 0,
                divergence_window: 2,
                divergence_factor: 10.0,
                ..ResiliencePolicy::default()
            });
        let err = session.run().unwrap_err();
        assert!(matches!(err, EngineError::Diverged { .. }));
    }

    #[test]
    fn retries_exhaust_into_a_structured_error() {
        // Every step reports corruption; rollback never helps.
        struct AlwaysCorrupt {
            iterations: usize,
        }
        impl SolveEngine for AlwaysCorrupt {
            fn step(&mut self) -> StepOutcome {
                self.iterations += 1;
                StepOutcome {
                    norm: Some(1.0),
                    fault: Some(StepFault::CorruptionDetected),
                }
            }
            fn iterations(&self) -> usize {
                self.iterations
            }
            fn supports_checkpoint(&self) -> bool {
                true
            }
            fn rollback(&mut self) -> bool {
                self.iterations -= 1;
                true
            }
        }
        let mut session = Session::new(
            AlwaysCorrupt { iterations: 0 },
            StopCondition::fixed_steps(10),
        )
        .with_policy(ResiliencePolicy {
            max_retries: 3,
            ..ResiliencePolicy::default()
        });
        assert_eq!(
            session.run().unwrap_err(),
            EngineError::RetriesExhausted {
                attempts: 3,
                checkpoint_iteration: 0
            }
        );
    }

    #[test]
    fn sweep_engine_checkpoint_round_trips() {
        let sp = laplace(12);
        let mut engine = SweepEngine::new(&sp, UpdateMethod::Jacobi);
        for _ in 0..3 {
            engine.step();
        }
        engine.checkpoint();
        let at_ckpt = engine.solution().clone();
        for _ in 0..4 {
            engine.step();
        }
        assert_ne!(engine.solution(), &at_ckpt);
        assert!(engine.rollback());
        assert_eq!(engine.solution(), &at_ckpt);
        assert_eq!(engine.iterations(), 3);
    }

    #[test]
    fn parallel_sweep_engine_is_bit_identical_to_serial() {
        let sp = laplace(17);
        for method in [UpdateMethod::Jacobi, UpdateMethod::Checkerboard] {
            for threads in [1usize, 2, 4, 7] {
                let mut serial = SweepEngine::new(&sp, method);
                let mut par = ParallelSweepEngine::new(&sp, method, threads);
                assert_eq!(par.threads(), threads.max(1));
                for step in 0..12 {
                    let a = serial.step().norm.unwrap();
                    let b = par.step().norm.unwrap();
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "norm diverged at step {step} ({method:?}, {threads} threads)"
                    );
                }
                let (s, p) = (serial.solution(), par.solution());
                for i in 0..s.rows() {
                    for j in 0..s.cols() {
                        assert_eq!(s[(i, j)].to_bits(), p[(i, j)].to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_sweep_engine_checkpoint_round_trips() {
        let sp = laplace(12);
        let mut engine = ParallelSweepEngine::new(&sp, UpdateMethod::Checkerboard, 3);
        for _ in 0..3 {
            engine.step();
        }
        engine.checkpoint();
        let at_ckpt = engine.solution().clone();
        for _ in 0..4 {
            engine.step();
        }
        assert_ne!(engine.solution(), &at_ckpt);
        assert!(engine.rollback());
        assert_eq!(engine.solution(), &at_ckpt);
        assert_eq!(engine.iterations(), 3);
    }

    fn banded<'e>(engine: &'e mut ParallelSweepEngine<'_, f64>) -> &'e mut BandedSweeps<f64> {
        match &mut engine.sweeps {
            Sweeps::Banded(b) => b,
            Sweeps::Serial(_) => panic!("expected a banded plan"),
        }
    }

    fn worker_ids(engine: &mut ParallelSweepEngine<'_, f64>) -> Vec<std::thread::ThreadId> {
        banded(engine).workers.as_ref().map_or(Vec::new(), |w| {
            w.links
                .iter()
                .filter_map(|l| l.handle.as_ref())
                .map(|h| h.thread().id())
                .collect()
        })
    }

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn band_workers_start_on_the_first_step_and_persist() {
        let sp = laplace(12);
        let mut engine = ParallelSweepEngine::new(&sp, UpdateMethod::Jacobi, 3);
        assert!(
            worker_ids(&mut engine).is_empty(),
            "construction spawns nothing"
        );
        drop(engine);

        let mut engine = ParallelSweepEngine::new(&sp, UpdateMethod::Checkerboard, 3);
        engine.step();
        let first = worker_ids(&mut engine);
        assert_eq!(first.len(), 2, "one worker per band beyond the first");
        for _ in 0..4 {
            engine.step();
        }
        assert_eq!(
            worker_ids(&mut engine),
            first,
            "steps reuse the same threads"
        );
    }

    #[test]
    fn band_workers_are_joined_on_drop() {
        let sp = laplace(10);
        let cycles = if cfg!(miri) { 8 } else { 200 };
        for _ in 0..cycles {
            let mut engine = ParallelSweepEngine::new(&sp, UpdateMethod::Jacobi, 3);
            engine.step();
            let kernel = Arc::clone(&banded(&mut engine).kernel);
            assert_eq!(
                Arc::strong_count(&kernel),
                4,
                "engine, two workers, this test"
            );
            drop(engine);
            // Each worker holds its kernel clone until its thread ends, so
            // only a join in `Drop` leaves this the last one.
            assert_eq!(Arc::strong_count(&kernel), 1);
        }
    }

    #[test]
    fn band_workers_reraise_a_panic_on_the_caller() {
        let sp = laplace(12);
        for method in [UpdateMethod::Jacobi, UpdateMethod::Checkerboard] {
            let mut engine = ParallelSweepEngine::new(&sp, method, 3);
            engine.step();
            banded(&mut engine).strips[2].poison = true;
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.step()))
                .expect_err("the worker's panic must reach the caller");
            assert_eq!(panic_message(&*payload), "injected band-worker panic");

            // The lost strip makes every later step refuse, not wait.
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.step()))
                .expect_err("a broken engine must not step");
            assert!(panic_message(&*payload).contains("panicked in an earlier step"));
            // Dropping joins the surviving worker without a second panic.
            drop(engine);
        }
    }

    #[test]
    fn engine_errors_display() {
        assert!(EngineError::NonFinite { iteration: 7 }
            .to_string()
            .contains("iteration 7"));
        assert!(EngineError::Diverged {
            iteration: 9,
            ratio: 12.5
        }
        .to_string()
        .contains("12.5"));
        assert!(EngineError::DmaFailed { iteration: 3 }
            .to_string()
            .contains("DMA"));
        assert!(EngineError::CorruptionDetected { iteration: 2 }
            .to_string()
            .contains("parity"));
        let e = EngineError::RetriesExhausted {
            attempts: 4,
            checkpoint_iteration: 64,
        };
        assert!(e.to_string().contains("4 rollback"));
        assert!(e.to_string().contains("iteration 64"));
        assert!(EngineError::Cancelled { iteration: 5 }
            .to_string()
            .contains("cancelled"));
        assert!(EngineError::DeadlineExceeded { iteration: 6 }
            .to_string()
            .contains("deadline"));
        assert!(EngineError::Stalled { iteration: 8 }
            .to_string()
            .contains("iteration 8"));
    }

    /// An engine whose norm turns NaN at a chosen iteration.
    struct Poisoned {
        iterations: usize,
        nan_at: usize,
    }
    impl SolveEngine for Poisoned {
        fn step(&mut self) -> StepOutcome {
            self.iterations += 1;
            if self.iterations >= self.nan_at {
                StepOutcome::clean(f64::NAN)
            } else {
                StepOutcome::clean(1.0 / self.iterations as f64)
            }
        }
        fn iterations(&self) -> usize {
            self.iterations
        }
    }

    #[test]
    fn nan_without_policy_is_a_structured_error_not_a_spin() {
        // Regression: NaN never satisfies `norm <= tol`, so before the
        // unconditional check a policy-less session looped to the cap.
        let mut session = Session::new(
            Poisoned {
                iterations: 0,
                nan_at: 4,
            },
            StopCondition::tolerance(1e-12, 1_000_000),
        );
        assert_eq!(
            session.run().unwrap_err(),
            EngineError::NonFinite { iteration: 4 }
        );
        assert_eq!(session.engine().iterations(), 4, "failed fast, no spin");
    }

    #[test]
    fn infinity_without_policy_also_errors() {
        struct Inf {
            iterations: usize,
        }
        impl SolveEngine for Inf {
            fn step(&mut self) -> StepOutcome {
                self.iterations += 1;
                StepOutcome::clean(f64::INFINITY)
            }
            fn iterations(&self) -> usize {
                self.iterations
            }
        }
        let mut session = Session::new(Inf { iterations: 0 }, StopCondition::fixed_steps(100));
        assert_eq!(
            session.run().unwrap_err(),
            EngineError::NonFinite { iteration: 1 }
        );
    }

    #[test]
    fn deadline_is_never_overshot() {
        let sp = laplace(16);
        let mut session = Session::new(
            SweepEngine::new(&sp, UpdateMethod::Jacobi),
            StopCondition::tolerance(1e-30, 100_000),
        )
        .with_budget(Budget::deadline(7));
        assert_eq!(
            session.run().unwrap_err(),
            EngineError::DeadlineExceeded { iteration: 7 }
        );
        assert_eq!(session.engine().iterations(), 7, "checked before the step");
    }

    #[test]
    fn deadline_beyond_the_stop_never_fires() {
        let sp = laplace(8);
        let mut session = Session::new(
            SweepEngine::new(&sp, UpdateMethod::Jacobi),
            StopCondition::fixed_steps(5),
        )
        .with_budget(Budget::deadline(1_000));
        assert!(session.run().unwrap());
    }

    #[test]
    fn cancellation_stops_the_run_cooperatively() {
        // The token is triggered before the run even starts: zero steps.
        let sp = laplace(8);
        let token = CancelToken::new();
        token.cancel();
        let mut session = Session::new(
            SweepEngine::new(&sp, UpdateMethod::Jacobi),
            StopCondition::fixed_steps(50),
        )
        .with_budget(Budget::unlimited().with_cancel(token.clone()));
        assert_eq!(
            session.run().unwrap_err(),
            EngineError::Cancelled { iteration: 0 }
        );
        assert!(token.is_cancelled());
        assert_eq!(session.engine().iterations(), 0, "no further work");
    }

    #[test]
    fn mid_run_cancellation_observed_between_steps() {
        // An engine that trips its own token after 3 steps, standing in
        // for an external supervisor.
        struct SelfCancelling {
            iterations: usize,
            token: CancelToken,
        }
        impl SolveEngine for SelfCancelling {
            fn step(&mut self) -> StepOutcome {
                self.iterations += 1;
                if self.iterations == 3 {
                    self.token.cancel();
                }
                StepOutcome::clean(1.0)
            }
            fn iterations(&self) -> usize {
                self.iterations
            }
        }
        let token = CancelToken::new();
        let mut session = Session::new(
            SelfCancelling {
                iterations: 0,
                token: token.clone(),
            },
            StopCondition::fixed_steps(100),
        )
        .with_budget(Budget::unlimited().with_cancel(token));
        assert_eq!(
            session.run().unwrap_err(),
            EngineError::Cancelled { iteration: 3 }
        );
    }

    #[test]
    fn stall_watchdog_flags_a_wedged_engine() {
        struct Wedged {
            iterations: usize,
        }
        impl SolveEngine for Wedged {
            fn step(&mut self) -> StepOutcome {
                self.iterations += 1;
                StepOutcome::clean(0.5) // never changes: no progress
            }
            fn iterations(&self) -> usize {
                self.iterations
            }
        }
        let mut session = Session::new(
            Wedged { iterations: 0 },
            StopCondition::tolerance(1e-9, 10_000),
        )
        .with_budget(Budget::unlimited().with_stall_watchdog(8, 1.0));
        assert_eq!(
            session.run().unwrap_err(),
            EngineError::Stalled { iteration: 9 }
        );
    }

    #[test]
    fn stall_watchdog_passes_a_converging_solve() {
        let sp = laplace(12);
        let mut session = Session::new(
            SweepEngine::new(&sp, UpdateMethod::Jacobi),
            StopCondition::tolerance(1e-8, 50_000),
        )
        .with_budget(Budget::unlimited().with_stall_watchdog(16, 1.0));
        assert!(session.run().unwrap(), "strictly decreasing norms pass");
    }

    #[test]
    fn wall_clock_ceiling_of_zero_fires_immediately() {
        let sp = laplace(8);
        let mut session = Session::new(
            SweepEngine::new(&sp, UpdateMethod::Jacobi),
            StopCondition::fixed_steps(50),
        )
        .with_budget(Budget::unlimited().with_wall_clock(std::time::Duration::ZERO));
        assert!(matches!(
            session.run().unwrap_err(),
            EngineError::DeadlineExceeded { iteration: 0 }
        ));
    }

    #[test]
    fn budget_constructors_compose() {
        assert!(Budget::unlimited().is_unlimited());
        assert!(Budget::default().is_unlimited());
        let b = Budget::deadline(10)
            .with_cancel(CancelToken::new())
            .with_stall_watchdog(4, 0.99);
        assert!(!b.is_unlimited());
        assert_eq!(b.deadline_iterations, Some(10));
        assert_eq!(b.stall_window, 4);
    }

    fn grids_bit_equal<T: Scalar>(a: &Grid2D<T>, b: &Grid2D<T>) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits_u64() == y.to_bits_u64())
    }

    #[test]
    fn export_restore_resumes_bit_identically() {
        // Every method, including the wave equation's prev-carrying
        // update: stop at k, export, restore into a *fresh* engine,
        // finish — the final field must match an uninterrupted run bit
        // for bit.
        let wave = crate::workload::benchmark_problem::<f64>(crate::pde::PdeKind::Wave, 12, 20)
            .expect("benchmark problem");
        let laplace = laplace(12);
        for sp in [&laplace, &wave] {
            for method in [
                UpdateMethod::Jacobi,
                UpdateMethod::Hybrid,
                UpdateMethod::GaussSeidel,
                UpdateMethod::Checkerboard,
                UpdateMethod::Sor { omega: 1.5 },
            ] {
                let mut full = SweepEngine::new(sp, method);
                for _ in 0..20 {
                    full.step();
                }

                let mut head = SweepEngine::new(sp, method);
                for _ in 0..7 {
                    head.step();
                }
                let image = head.export_state().expect("sweep engines export");
                assert_eq!(image.iterations, 7);
                let mut tail = SweepEngine::new(sp, method);
                assert!(tail.restore_state(&image), "restore on the same problem");
                assert_eq!(tail.iterations(), 7);
                for _ in 0..13 {
                    tail.step();
                }
                assert!(
                    grids_bit_equal(full.solution(), tail.solution()),
                    "{method:?} resumed run diverged"
                );
            }
        }
    }

    #[test]
    fn parallel_engine_export_restore_matches_serial() {
        let sp = laplace(14);
        for method in [UpdateMethod::Jacobi, UpdateMethod::Checkerboard] {
            let mut serial = SweepEngine::new(&sp, method);
            for _ in 0..16 {
                serial.step();
            }
            let mut head = ParallelSweepEngine::new(&sp, method, 3);
            for _ in 0..5 {
                head.step();
            }
            let image = head.export_state().expect("parallel engines export");
            let mut tail = ParallelSweepEngine::new(&sp, method, 3);
            assert!(tail.restore_state(&image));
            for _ in 0..11 {
                tail.step();
            }
            assert!(
                grids_bit_equal(serial.solution(), tail.solution()),
                "{method:?} parallel resume diverged from serial"
            );
        }
    }

    #[test]
    fn restore_rejects_mismatched_images() {
        let sp = laplace(8);
        let other = laplace(10);
        let image = SweepEngine::new(&other, UpdateMethod::Jacobi)
            .export_state()
            .unwrap();
        let mut engine = SweepEngine::new(&sp, UpdateMethod::Jacobi);
        assert!(!engine.restore_state(&image), "wrong shape must refuse");
        assert_eq!(engine.iterations(), 0);

        let mut f32_image = SweepEngine::new(&sp, UpdateMethod::Jacobi)
            .export_state()
            .unwrap();
        f32_image.scalar_bytes = 4;
        assert!(!engine.restore_state(&f32_image), "wrong width must refuse");

        // The banded engine scatters only images that fit its strips.
        let mut banded = ParallelSweepEngine::new(&sp, UpdateMethod::Jacobi, 3);
        assert!(!banded.restore_state(&image), "wrong shape must refuse");
        assert!(!banded.restore_state(&f32_image), "wrong width must refuse");
        assert_eq!(banded.iterations(), 0);

        // The image helpers mirror the same checks.
        assert!(image.cur_grid::<f64>().is_some());
        assert!(image.cur_grid::<f32>().is_none());
        assert!(image.prev_grid::<f64>().is_none(), "laplace has no prev");
    }

    #[test]
    fn state_sink_fires_on_schedule_and_images_resume() {
        let sp = laplace(10);
        let mut images: Vec<EngineStateImage> = Vec::new();
        let mut session = Session::new(
            SweepEngine::new(&sp, UpdateMethod::Jacobi),
            StopCondition::fixed_steps(10),
        )
        .with_state_sink(4, |img| images.push(img.clone()));
        session.run().unwrap();
        let full = session.into_parts().0.into_solution();
        assert_eq!(
            images.iter().map(|i| i.iterations).collect::<Vec<_>>(),
            vec![4, 8],
            "sink fires on absolute multiples of the interval"
        );

        // Resuming from the last sink image reproduces the full run.
        let mut tail = SweepEngine::new(&sp, UpdateMethod::Jacobi);
        assert!(tail.restore_state(&images[1]));
        let mut resumed = Session::new(&mut tail, StopCondition::fixed_steps(10));
        resumed.run().unwrap();
        assert_eq!(resumed.steps_executed(), 2, "only the remaining steps run");
        drop(resumed);
        assert!(grids_bit_equal(&full, tail.solution()));
    }
}
