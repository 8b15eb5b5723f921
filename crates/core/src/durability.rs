//! Write-ahead job journal, persisted checkpoints, and crash recovery.
//!
//! The solve service is deterministic by construction: its clock is the
//! total number of engine iterations executed, fault schedules are pure
//! functions of `(campaign seed, job id)`, and no wall-clock time ever
//! reaches a decision. This module adds the missing piece for crash
//! durability — a byte-level record of *what was admitted and what
//! finished* — so a restarted process can rebuild the exact service
//! state and re-run interrupted jobs to bit-identical results.
//!
//! Three artifacts live in the journal directory:
//!
//! * `journal.fdx` — the append-only **write-ahead journal**. Every
//!   record is framed as `u32 LE payload length | u32 LE CRC-32 of the
//!   payload | payload`; the reader stops at the first short or
//!   corrupt frame, so a torn tail (the crash case) silently truncates
//!   to the last durable record.
//! * `job{id}-r{rung}-i{iter}.ckpt` — **checkpoint files** holding an
//!   [`EngineStateImage`] (raw scalar bits of the field buffers plus
//!   the iteration count), written atomically via a temp file and
//!   rename so a crash mid-write never leaves a half checkpoint under
//!   the final name.
//! * Transient `*.ckpt.tmp` files, only visible during a crash window.
//!
//! Journal and checkpoint I/O **never fails a job**: errors are
//! retried with deterministic decorrelated-jitter backoff (seeded
//! [`detrng::DetRng`] draws via
//! [`crate::resilience::RetryBackoff`]), and when the
//! retries are exhausted the journal degrades to in-memory-only mode —
//! jobs keep running, and the loss of durability is surfaced loudly
//! through [`ServiceStats::journal_degraded`].
//!
//! See `DESIGN.md` §12 for the record grammar and the recovery state
//! machine.
//!
//! [`ServiceStats::journal_degraded`]: crate::service::ServiceStats::journal_degraded

use crate::accelerator::HwUpdateMethod;
use crate::resilience::RetryBackoff;
use crate::service::{JobSpec, Rung, ServiceStats, TenantId};
use fdm::convergence::StopCondition;
use fdm::engine::EngineStateImage;
use fdm::grid::Grid2D;
use fdm::io::crc32;
use fdm::pde::{OffsetField, PdeKind, RunMode, StencilProblem};
use fdm::stencil::FivePointStencil;
use memmodel::faults::{EccMode, FaultCampaign};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// File name of the write-ahead journal inside the journal directory.
pub const JOURNAL_FILE: &str = "journal.fdx";

/// Upper bound on a single journal record's payload, as a corruption
/// guard: a frame whose declared length exceeds this is treated as a
/// torn tail rather than an allocation request.
pub const MAX_RECORD_BYTES: u32 = 1 << 28;

/// Base backoff delay between journal I/O retries, in microseconds.
const BACKOFF_BASE_MICROS: u64 = 50;

/// Journal I/O attempts before degrading to in-memory-only mode.
const BACKOFF_MAX_ATTEMPTS: u32 = 3;

/// When appended journal bytes are pushed to stable storage.
///
/// The policy trades recovery fidelity against throughput: `fsync` on
/// a spinning disk costs milliseconds, which dwarfs a small solve.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every record. Maximum fidelity: at most the
    /// record being written when power fails is lost.
    Always,
    /// `fdatasync` only after `Completed` records (the default). A
    /// crash can lose in-flight attempt/checkpoint records, but every
    /// *completed* job's outcome is durable — and interrupted jobs
    /// replay deterministically anyway, so this loses nothing that
    /// recovery cannot recompute.
    #[default]
    OnCompletion,
    /// Never sync explicitly; rely on the OS page cache. Fastest, and
    /// still sufficient for process crashes (the kernel survives).
    Never,
}

/// Durability settings for a [`SolveService`](crate::service::SolveService).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Directory holding the journal and checkpoint files. Created on
    /// demand; if it cannot be created or written the service degrades
    /// to in-memory-only mode instead of failing jobs.
    pub journal_dir: PathBuf,
    /// Engine iterations between persisted checkpoints on the
    /// deterministic rungs (`0` disables checkpointing; recovery then
    /// replays interrupted jobs from iteration zero).
    pub checkpoint_every: u64,
    /// When journal bytes are pushed to stable storage.
    pub fsync_policy: FsyncPolicy,
}

impl DurabilityConfig {
    /// Durability under `journal_dir` with a 64-iteration checkpoint
    /// cadence and the [`FsyncPolicy::OnCompletion`] default.
    pub fn new(journal_dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            journal_dir: journal_dir.into(),
            checkpoint_every: 64,
            fsync_policy: FsyncPolicy::default(),
        }
    }

    /// Sets the checkpoint cadence (iterations; `0` disables).
    #[must_use]
    pub fn with_checkpoint_every(mut self, iterations: u64) -> Self {
        self.checkpoint_every = iterations;
        self
    }

    /// Sets the fsync policy.
    #[must_use]
    pub fn with_fsync_policy(mut self, policy: FsyncPolicy) -> Self {
        self.fsync_policy = policy;
        self
    }
}

// ---------------------------------------------------------------------------
// Byte codec
// ---------------------------------------------------------------------------

/// Cursor over a byte slice; every getter returns `None` on underrun
/// so corrupt records decode to `None` instead of panicking.
struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Some(out)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn f32_bits(&mut self) -> Option<f32> {
        self.u32().map(f32::from_bits)
    }

    fn f64_bits(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes left to read. Decoders check a claimed element count
    /// against this before allocating, so a corrupt length field can
    /// never reserve more memory than the input could fill.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    put_u32(out, v.to_bits());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_grid(out: &mut Vec<u8>, grid: &Grid2D<f32>) {
    put_u64(out, grid.rows() as u64);
    put_u64(out, grid.cols() as u64);
    for v in grid.as_slice() {
        put_u32(out, v.to_bits());
    }
}

fn get_grid(r: &mut ByteReader<'_>) -> Option<Grid2D<f32>> {
    let rows = usize::try_from(r.u64()?).ok()?;
    let cols = usize::try_from(r.u64()?).ok()?;
    let len = rows.checked_mul(cols)?;
    if len.checked_mul(4)? > r.remaining() {
        return None;
    }
    let mut data = Vec::with_capacity(len);
    for _ in 0..len {
        data.push(r.f32_bits()?);
    }
    Grid2D::from_vec(rows, cols, data).ok()
}

fn put_spec(out: &mut Vec<u8>, spec: &JobSpec) {
    put_u8(
        out,
        match spec.method {
            HwUpdateMethod::Jacobi => 0,
            HwUpdateMethod::Hybrid => 1,
        },
    );
    match spec.stop.tolerance_value() {
        Some(tol) => {
            put_u8(out, 1);
            put_f64(out, tol);
        }
        None => put_u8(out, 0),
    }
    put_u64(out, spec.stop.max_iterations() as u64);
    match &spec.campaign {
        Some(c) => {
            put_u8(out, 1);
            put_campaign(out, c);
        }
        None => put_u8(out, 0),
    }
    put_u64(out, spec.tenant.0);
    put_u8(out, spec.entry_rung.index() as u8);
    put_problem(out, &spec.problem);
}

fn get_spec(r: &mut ByteReader<'_>) -> Option<JobSpec> {
    let method = match r.u8()? {
        0 => HwUpdateMethod::Jacobi,
        1 => HwUpdateMethod::Hybrid,
        _ => return None,
    };
    let tol = match r.u8()? {
        0 => None,
        1 => Some(r.f64_bits()?),
        _ => return None,
    };
    let max = usize::try_from(r.u64()?).ok()?;
    let stop = match tol {
        Some(t) => StopCondition::try_tolerance(t, max).ok()?,
        None => StopCondition::fixed_steps(max),
    };
    let campaign = match r.u8()? {
        0 => None,
        1 => Some(get_campaign(r)?),
        _ => return None,
    };
    let tenant = TenantId(r.u64()?);
    let entry_rung = decode_rung(r.u8()?)?;
    let problem = get_problem(r)?;
    Some(JobSpec {
        problem,
        method,
        stop,
        campaign,
        tenant,
        entry_rung,
    })
}

fn put_campaign(out: &mut Vec<u8>, c: &FaultCampaign) {
    put_u64(out, c.seed);
    put_f64(out, c.sram_flips_per_iteration);
    put_u8(
        out,
        match c.ecc {
            EccMode::None => 0,
            EccMode::Parity => 1,
            EccMode::Secded => 2,
        },
    );
    put_f64(out, c.dma_failure_prob);
    put_u32(out, c.max_dma_retries);
    put_u64(out, c.dma_backoff_cycles);
}

fn get_campaign(r: &mut ByteReader<'_>) -> Option<FaultCampaign> {
    let seed = r.u64()?;
    let sram_flips_per_iteration = r.f64_bits()?;
    let ecc = match r.u8()? {
        0 => EccMode::None,
        1 => EccMode::Parity,
        2 => EccMode::Secded,
        _ => return None,
    };
    let dma_failure_prob = r.f64_bits()?;
    let max_dma_retries = r.u32()?;
    let dma_backoff_cycles = r.u64()?;
    Some(FaultCampaign {
        seed,
        sram_flips_per_iteration,
        ecc,
        dma_failure_prob,
        max_dma_retries,
        dma_backoff_cycles,
    })
}

fn put_problem(out: &mut Vec<u8>, p: &StencilProblem<f32>) {
    put_u8(
        out,
        match p.kind {
            PdeKind::Laplace => 0,
            PdeKind::Poisson => 1,
            PdeKind::Heat => 2,
            PdeKind::Wave => 3,
        },
    );
    put_f32(out, p.stencil.w_v);
    put_f32(out, p.stencil.w_h);
    put_f32(out, p.stencil.w_s);
    match &p.offset {
        OffsetField::None => put_u8(out, 0),
        OffsetField::Static(grid) => {
            put_u8(out, 1);
            put_grid(out, grid);
        }
        OffsetField::ScaledPrevField { scale } => {
            put_u8(out, 2);
            put_f32(out, *scale);
        }
    }
    match p.mode {
        RunMode::Converge {
            tolerance,
            max_iterations,
        } => {
            put_u8(out, 0);
            put_f64(out, tolerance);
            put_u64(out, max_iterations as u64);
        }
        RunMode::FixedSteps(steps) => {
            put_u8(out, 1);
            put_u64(out, steps as u64);
        }
    }
    put_grid(out, &p.initial);
    match &p.prev_initial {
        Some(grid) => {
            put_u8(out, 1);
            put_grid(out, grid);
        }
        None => put_u8(out, 0),
    }
}

fn get_problem(r: &mut ByteReader<'_>) -> Option<StencilProblem<f32>> {
    let kind = match r.u8()? {
        0 => PdeKind::Laplace,
        1 => PdeKind::Poisson,
        2 => PdeKind::Heat,
        3 => PdeKind::Wave,
        _ => return None,
    };
    let stencil = FivePointStencil {
        w_v: r.f32_bits()?,
        w_h: r.f32_bits()?,
        w_s: r.f32_bits()?,
    };
    let offset = match r.u8()? {
        0 => OffsetField::None,
        1 => OffsetField::Static(get_grid(r)?),
        2 => OffsetField::ScaledPrevField {
            scale: r.f32_bits()?,
        },
        _ => return None,
    };
    let mode = match r.u8()? {
        0 => RunMode::Converge {
            tolerance: r.f64_bits()?,
            max_iterations: usize::try_from(r.u64()?).ok()?,
        },
        1 => RunMode::FixedSteps(usize::try_from(r.u64()?).ok()?),
        _ => return None,
    };
    let initial = get_grid(r)?;
    let prev_initial = match r.u8()? {
        0 => None,
        1 => Some(get_grid(r)?),
        _ => return None,
    };
    Some(StencilProblem {
        kind,
        stencil,
        offset,
        initial,
        prev_initial,
        mode,
    })
}

fn put_stats(out: &mut Vec<u8>, s: &ServiceStats) {
    put_u64(out, s.submitted);
    put_u64(out, s.refused);
    put_u64(out, s.served);
    for v in s.served_by {
        put_u64(out, v);
    }
    put_u64(out, s.cancelled);
    put_u64(out, s.failed);
    put_u64(out, s.deadline_misses);
    put_u8(out, u8::from(s.journal_degraded));
    put_u64(out, s.journal_io_errors);
    put_u64(out, s.recovered_jobs);
}

fn get_stats(r: &mut ByteReader<'_>) -> Option<ServiceStats> {
    let mut s = ServiceStats {
        submitted: r.u64()?,
        refused: r.u64()?,
        served: r.u64()?,
        ..ServiceStats::default()
    };
    for slot in &mut s.served_by {
        *slot = r.u64()?;
    }
    s.cancelled = r.u64()?;
    s.failed = r.u64()?;
    s.deadline_misses = r.u64()?;
    s.journal_degraded = match r.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    s.journal_io_errors = r.u64()?;
    s.recovered_jobs = r.u64()?;
    Some(s)
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// Persisted image of one circuit breaker's runtime state (the sizing
/// [`BreakerConfig`](crate::service::BreakerConfig) is *not* persisted:
/// recovery always pairs the image with the restarted service's own
/// configuration).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BreakerImage {
    /// Breaker state tag: `0` closed, `1` open, `2` half-open.
    pub state: u8,
    /// Consecutive failures observed while closed.
    pub consecutive_failures: u32,
    /// Submissions left before an open breaker half-opens.
    pub cooldown_remaining: u32,
    /// Clean successes observed while half-open.
    pub probe_successes: u32,
}

/// Snapshot of the deterministic service state, taken at every job
/// completion and persisted inside the [`JournalRecord::Completed`]
/// record.
///
/// Because the service clock only advances inside `execute`, the image
/// captured at job *n*'s completion is exactly the state job *n + 1*
/// starts from — recovery restores it and re-runs the interrupted job
/// bit-identically.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStateImage {
    /// Service clock (total engine iterations executed).
    pub clock: u64,
    /// Next job id to assign.
    pub next_id: u64,
    /// Jobs admitted so far (drives breaker cooldown ticks).
    pub submitted: u64,
    /// Lifetime counters.
    pub stats: ServiceStats,
    /// Per-rung breaker state, indexed by [`Rung::index`].
    pub breakers: [BreakerImage; 7],
    /// Measured per-job drain rate (EWMA of completed jobs' iteration
    /// counts) behind the honest `retry_after_iterations` hint; a
    /// recovered service reproduces the same hints.
    pub drain_ewma: u64,
}

/// Payload tag of a [`JournalRecord::Completed`] record.
const COMPLETED_TAG: u8 = 5;

/// Payload tag of the older `Completed` layout, which also persisted
/// three race counters and seven per-rung service-time rings. It still
/// decodes: the fields the service no longer keeps are read and
/// discarded, so an older journal recovers instead of tearing at its
/// first completion.
const LEGACY_COMPLETED_TAG: u8 = 4;

/// Bytes a legacy `Completed` record carries after the stats'
/// `recovered_jobs` counter: three retired race counters.
const LEGACY_STATS_TAIL: usize = 3 * 8;

/// Bytes a legacy `Completed` record carries after `drain_ewma`: seven
/// retired per-rung rings of eight `u64` samples plus their length and
/// position bytes.
const LEGACY_IMAGE_TAIL: usize = 7 * 8 * 8 + 7 + 7;

/// One entry in the write-ahead journal.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalRecord {
    /// A job was admitted. Written before `submit` returns, so every
    /// ticket the caller ever saw has a durable record.
    Submitted {
        /// The admitted job's id.
        id: u64,
        /// Service clock at admission.
        admitted_at: u64,
        /// Admission clock plus the service deadline.
        deadline_at: u64,
        /// The full solve request, byte-exact.
        spec: JobSpec,
    },
    /// Execution of one fallback-chain rung began.
    AttemptStarted {
        /// The job being attempted.
        id: u64,
        /// The rung about to run.
        rung: Rung,
        /// Service clock at the start of the attempt.
        clock: u64,
        /// The worker (within a pool) that ran the attempt; 0 for a
        /// standalone service.
        worker: u32,
    },
    /// A checkpoint file was durably written (the record is appended
    /// only *after* the atomic rename, so a `CheckpointTaken` always
    /// points at a complete file).
    CheckpointTaken {
        /// The job being checkpointed.
        id: u64,
        /// The rung that produced the state.
        rung: Rung,
        /// Absolute engine iteration captured in the snapshot.
        iteration: u64,
        /// Snapshot file name, relative to the journal directory.
        snapshot_ref: String,
    },
    /// A job reached a terminal outcome (served, failed, or
    /// cancelled — *every* terminal path writes one).
    Completed {
        /// The finished job.
        id: u64,
        /// FNV-1a digest of the job's `ServiceReport`, for replay
        /// validation.
        outcome_digest: u64,
        /// The deterministic service state after this completion.
        image: ServiceStateImage,
    },
}

impl JournalRecord {
    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            JournalRecord::Submitted {
                id,
                admitted_at,
                deadline_at,
                spec,
            } => {
                put_u8(&mut out, 1);
                put_u64(&mut out, *id);
                put_u64(&mut out, *admitted_at);
                put_u64(&mut out, *deadline_at);
                put_spec(&mut out, spec);
            }
            JournalRecord::AttemptStarted {
                id,
                rung,
                clock,
                worker,
            } => {
                put_u8(&mut out, 2);
                put_u64(&mut out, *id);
                put_u8(&mut out, rung.index() as u8);
                put_u64(&mut out, *clock);
                put_u32(&mut out, *worker);
            }
            JournalRecord::CheckpointTaken {
                id,
                rung,
                iteration,
                snapshot_ref,
            } => {
                put_u8(&mut out, 3);
                put_u64(&mut out, *id);
                put_u8(&mut out, rung.index() as u8);
                put_u64(&mut out, *iteration);
                put_u32(&mut out, snapshot_ref.len() as u32);
                out.extend_from_slice(snapshot_ref.as_bytes());
            }
            JournalRecord::Completed {
                id,
                outcome_digest,
                image,
            } => {
                put_u8(&mut out, COMPLETED_TAG);
                put_u64(&mut out, *id);
                put_u64(&mut out, *outcome_digest);
                put_u64(&mut out, image.clock);
                put_u64(&mut out, image.next_id);
                put_u64(&mut out, image.submitted);
                put_stats(&mut out, &image.stats);
                for b in &image.breakers {
                    put_u8(&mut out, b.state);
                    put_u32(&mut out, b.consecutive_failures);
                    put_u32(&mut out, b.cooldown_remaining);
                    put_u32(&mut out, b.probe_successes);
                }
                put_u64(&mut out, image.drain_ewma);
            }
        }
        out
    }

    /// The framed on-disk encoding:
    /// `u32 LE payload length | u32 LE CRC-32 | payload`.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(payload.len() + 8);
        put_u32(&mut out, payload.len() as u32);
        put_u32(&mut out, crc32(&payload));
        out.extend_from_slice(&payload);
        out
    }

    fn decode_payload(payload: &[u8]) -> Option<JournalRecord> {
        let mut r = ByteReader::new(payload);
        let record = match r.u8()? {
            1 => JournalRecord::Submitted {
                id: r.u64()?,
                admitted_at: r.u64()?,
                deadline_at: r.u64()?,
                spec: get_spec(&mut r)?,
            },
            2 => JournalRecord::AttemptStarted {
                id: r.u64()?,
                rung: decode_rung(r.u8()?)?,
                clock: r.u64()?,
                worker: r.u32()?,
            },
            3 => JournalRecord::CheckpointTaken {
                id: r.u64()?,
                rung: decode_rung(r.u8()?)?,
                iteration: r.u64()?,
                snapshot_ref: {
                    let len = usize::try_from(r.u32()?).ok()?;
                    String::from_utf8(r.take(len)?.to_vec()).ok()?
                },
            },
            tag @ (LEGACY_COMPLETED_TAG | COMPLETED_TAG) => {
                let id = r.u64()?;
                let outcome_digest = r.u64()?;
                let clock = r.u64()?;
                let next_id = r.u64()?;
                let submitted = r.u64()?;
                let stats = get_stats(&mut r)?;
                if tag == LEGACY_COMPLETED_TAG {
                    r.take(LEGACY_STATS_TAIL)?;
                }
                let mut breakers = [BreakerImage::default(); 7];
                for b in &mut breakers {
                    *b = BreakerImage {
                        state: r.u8()?,
                        consecutive_failures: r.u32()?,
                        cooldown_remaining: r.u32()?,
                        probe_successes: r.u32()?,
                    };
                    if b.state > 2 {
                        return None;
                    }
                }
                let drain_ewma = r.u64()?;
                if tag == LEGACY_COMPLETED_TAG {
                    r.take(LEGACY_IMAGE_TAIL)?;
                }
                JournalRecord::Completed {
                    id,
                    outcome_digest,
                    image: ServiceStateImage {
                        clock,
                        next_id,
                        submitted,
                        stats,
                        breakers,
                        drain_ewma,
                    },
                }
            }
            _ => return None,
        };
        if !r.exhausted() {
            return None;
        }
        Some(record)
    }
}

fn decode_rung(index: u8) -> Option<Rung> {
    Rung::ALL.get(usize::from(index)).copied()
}

/// What a journal scan found.
#[derive(Clone, Debug, Default)]
pub struct JournalContents {
    /// Every record up to the first torn or corrupt frame.
    pub records: Vec<JournalRecord>,
    /// `true` when the file ended mid-frame or with a bad checksum —
    /// the expected shape after a crash mid-append.
    pub torn: bool,
    /// Byte length of the valid frame prefix. When [`Self::torn`], the
    /// recovery supervisor truncates the journal back to this offset so
    /// fresh appends extend the valid prefix instead of hiding behind
    /// the torn frame.
    pub valid_len: usize,
}

/// Decodes a journal byte stream, stopping at the first torn frame.
pub fn decode_journal(bytes: &[u8]) -> JournalContents {
    let mut contents = JournalContents::default();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some(header) = bytes.get(pos..pos + 8) else {
            contents.torn = true;
            break;
        };
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if len > MAX_RECORD_BYTES {
            contents.torn = true;
            break;
        }
        let start = pos + 8;
        let Some(payload) = bytes.get(start..start + len as usize) else {
            contents.torn = true;
            break;
        };
        if crc32(payload) != crc {
            contents.torn = true;
            break;
        }
        match JournalRecord::decode_payload(payload) {
            Some(record) => contents.records.push(record),
            None => {
                contents.torn = true;
                break;
            }
        }
        pos = start + len as usize;
        contents.valid_len = pos;
    }
    contents
}

/// Truncates the journal under `journal_dir` back to `valid_len` bytes,
/// discarding a torn tail so subsequent appends extend the valid frame
/// prefix. A missing journal is fine (nothing to truncate).
pub fn truncate_journal(journal_dir: &Path, valid_len: u64) -> io::Result<()> {
    match fs::OpenOptions::new()
        .write(true)
        .open(journal_dir.join(JOURNAL_FILE))
    {
        Ok(file) => file.set_len(valid_len),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// Reads and decodes the journal under `journal_dir`.
///
/// A missing journal decodes as empty (fresh start); any other read
/// error is returned so the caller can decide between failing loudly
/// and degrading.
pub fn read_journal(journal_dir: &Path) -> io::Result<JournalContents> {
    match fs::read(journal_dir.join(JOURNAL_FILE)) {
        Ok(bytes) => Ok(decode_journal(&bytes)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(JournalContents::default()),
        Err(e) => Err(e),
    }
}

// ---------------------------------------------------------------------------
// Checkpoint files
// ---------------------------------------------------------------------------

/// Encodes an [`EngineStateImage`] as a framed, checksummed checkpoint
/// file body.
pub fn encode_engine_image(image: &EngineStateImage) -> Vec<u8> {
    let width = usize::from(image.scalar_bytes);
    let mut payload = Vec::new();
    put_u64(&mut payload, image.rows as u64);
    put_u64(&mut payload, image.cols as u64);
    put_u8(&mut payload, image.scalar_bytes);
    put_u64(&mut payload, image.iterations as u64);
    put_u8(&mut payload, u8::from(image.prev.is_some()));
    for &bits in &image.cur {
        payload.extend_from_slice(&bits.to_le_bytes()[..width]);
    }
    if let Some(prev) = &image.prev {
        for &bits in prev {
            payload.extend_from_slice(&bits.to_le_bytes()[..width]);
        }
    }
    let mut out = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

/// Decodes a checkpoint file body; `None` on truncation, checksum
/// mismatch, or any structural inconsistency.
pub fn decode_engine_image(bytes: &[u8]) -> Option<EngineStateImage> {
    let mut r = ByteReader::new(bytes);
    let len = usize::try_from(r.u32()?).ok()?;
    let crc = r.u32()?;
    let payload = r.take(len)?;
    if !r.exhausted() || crc32(payload) != crc {
        return None;
    }
    let mut r = ByteReader::new(payload);
    let rows = usize::try_from(r.u64()?).ok()?;
    let cols = usize::try_from(r.u64()?).ok()?;
    let scalar_bytes = r.u8()?;
    if scalar_bytes == 0 || scalar_bytes > 8 {
        return None;
    }
    let iterations = usize::try_from(r.u64()?).ok()?;
    let has_prev = match r.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let len = rows.checked_mul(cols)?;
    let width = usize::from(scalar_bytes);
    let read_field = |r: &mut ByteReader<'_>| -> Option<Vec<u64>> {
        if len.checked_mul(width)? > r.remaining() {
            return None;
        }
        let mut field = Vec::with_capacity(len);
        for _ in 0..len {
            let raw = r.take(width)?;
            let mut bytes = [0u8; 8];
            bytes[..width].copy_from_slice(raw);
            field.push(u64::from_le_bytes(bytes));
        }
        Some(field)
    };
    let cur = read_field(&mut r)?;
    let prev = if has_prev {
        Some(read_field(&mut r)?)
    } else {
        None
    };
    if !r.exhausted() {
        return None;
    }
    Some(EngineStateImage {
        rows,
        cols,
        scalar_bytes,
        iterations,
        cur,
        prev,
    })
}

// ---------------------------------------------------------------------------
// Journal writer
// ---------------------------------------------------------------------------

/// The append-only write-ahead journal plus its checkpoint files.
///
/// Opening and writing **never fail the caller**: I/O errors are
/// retried with deterministic backoff and then degrade the journal to
/// in-memory-only mode ([`JobJournal::degraded`] turns `true`, writes
/// become no-ops, and jobs keep running).
#[derive(Debug)]
pub struct JobJournal {
    dir: PathBuf,
    file: Option<File>,
    fsync: FsyncPolicy,
    backoff: RetryBackoff,
    degraded: bool,
    io_errors: u64,
}

impl JobJournal {
    /// Opens (creating if necessary) the journal under
    /// `config.journal_dir`, in append mode. An unwritable directory
    /// yields a journal already in degraded mode.
    pub fn open(config: &DurabilityConfig) -> Self {
        let dir = config.journal_dir.clone();
        let mut journal = JobJournal {
            dir,
            file: None,
            fsync: config.fsync_policy,
            backoff: RetryBackoff::new(BACKOFF_BASE_MICROS, BACKOFF_MAX_ATTEMPTS, 0xD0_0D1E),
            degraded: false,
            io_errors: 0,
        };
        if journal.reopen().is_err() {
            journal.io_errors += 1;
            journal.degraded = true;
        }
        journal
    }

    fn reopen(&mut self) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(JOURNAL_FILE))?;
        self.file = Some(file);
        Ok(())
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// `true` once journal I/O has given up and writes became no-ops.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Journal/checkpoint I/O errors observed (including the retries
    /// that eventually succeeded).
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }

    fn try_append(&mut self, framed: &[u8], completion: bool) -> io::Result<()> {
        let file = self
            .file
            .as_mut()
            .ok_or_else(|| io::Error::other("journal file not open"))?;
        file.write_all(framed)?;
        match self.fsync {
            FsyncPolicy::Always => file.sync_data()?,
            FsyncPolicy::OnCompletion if completion => file.sync_data()?,
            _ => {}
        }
        Ok(())
    }

    /// Appends one record, retrying with deterministic backoff; on
    /// exhaustion the journal degrades and the record is dropped.
    pub fn append(&mut self, record: &JournalRecord) {
        if self.degraded {
            return;
        }
        let framed = record.encode();
        let completion = matches!(record, JournalRecord::Completed { .. });
        loop {
            match self.try_append(&framed, completion) {
                Ok(()) => {
                    self.backoff.reset();
                    return;
                }
                Err(_) => {
                    self.io_errors += 1;
                    match self.backoff.next_delay() {
                        Some(delay) => std::thread::sleep(delay),
                        None => {
                            self.degraded = true;
                            self.file = None;
                            self.backoff.reset();
                            return;
                        }
                    }
                    let _ = self.reopen();
                }
            }
        }
    }

    /// Writes a checkpoint file atomically (temp file + rename) and
    /// returns its name relative to the journal directory, or `None`
    /// after retry exhaustion (the caller then simply has no
    /// checkpoint — recovery replays from iteration zero instead).
    pub fn write_checkpoint(
        &mut self,
        job_id: u64,
        rung: Rung,
        image: &EngineStateImage,
    ) -> Option<String> {
        if self.degraded {
            return None;
        }
        let name = format!("job{}-r{}-i{}.ckpt", job_id, rung.index(), image.iterations);
        let bytes = encode_engine_image(image);
        let final_path = self.dir.join(&name);
        let tmp_path = self.dir.join(format!("{name}.tmp"));
        loop {
            match write_atomic(&tmp_path, &final_path, &bytes, self.fsync) {
                Ok(()) => {
                    self.backoff.reset();
                    return Some(name);
                }
                Err(_) => {
                    self.io_errors += 1;
                    match self.backoff.next_delay() {
                        Some(delay) => std::thread::sleep(delay),
                        None => {
                            self.backoff.reset();
                            return None;
                        }
                    }
                }
            }
        }
    }

    /// Loads a checkpoint by its journal-relative name; `None` when the
    /// file is missing or fails validation (recovery then replays the
    /// job from iteration zero).
    pub fn read_checkpoint(&self, snapshot_ref: &str) -> Option<EngineStateImage> {
        let bytes = fs::read(self.dir.join(snapshot_ref)).ok()?;
        decode_engine_image(&bytes)
    }
}

fn write_atomic(tmp: &Path, dest: &Path, bytes: &[u8], fsync: FsyncPolicy) -> io::Result<()> {
    {
        let mut file = File::create(tmp)?;
        file.write_all(bytes)?;
        if fsync != FsyncPolicy::Never {
            file.sync_data()?;
        }
    }
    fs::rename(tmp, dest)
}

// ---------------------------------------------------------------------------
// Recovery summary and digests
// ---------------------------------------------------------------------------

/// What [`SolveService::recover`](crate::service::SolveService::recover)
/// found and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Journal records replayed (up to the first torn frame).
    pub records_replayed: u64,
    /// `true` when the journal ended in a torn frame — the signature
    /// of a crash mid-append.
    pub torn_tail: bool,
    /// Jobs whose `Completed` record survived (nothing to redo).
    pub jobs_completed: u64,
    /// Interrupted jobs re-admitted to the queue.
    pub jobs_recovered: u64,
    /// Re-admitted jobs that will resume from a persisted checkpoint
    /// instead of replaying from iteration zero.
    pub resumed_from_checkpoint: u64,
    /// `true` when the journal could not be read or reopened and the
    /// recovered service starts in in-memory-only mode.
    pub journal_degraded: bool,
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a hash.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdm::boundary::DirichletBoundary;
    use fdm::pde::{LaplaceProblem, WaveProblem};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fdmax-durability-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn laplace_spec() -> JobSpec {
        let problem = LaplaceProblem::builder(8, 9)
            .boundary(DirichletBoundary::hot_top(1.0))
            .build()
            .unwrap()
            .discretize::<f32>();
        JobSpec::new(
            problem,
            HwUpdateMethod::Hybrid,
            StopCondition::tolerance(1e-6, 40),
        )
    }

    fn wave_spec() -> JobSpec {
        let problem = WaveProblem::builder(10, 10)
            .time(0.4, 6)
            .initial_fn(|x, y| x + y)
            .build()
            .unwrap()
            .discretize::<f32>();
        JobSpec::new(
            problem,
            HwUpdateMethod::Jacobi,
            StopCondition::fixed_steps(17),
        )
        .with_campaign(FaultCampaign {
            seed: 0xABCD,
            sram_flips_per_iteration: 0.25,
            ecc: EccMode::Secded,
            dma_failure_prob: 0.01,
            max_dma_retries: 3,
            dma_backoff_cycles: 16,
        })
    }

    fn specs_bit_equal(a: &JobSpec, b: &JobSpec) {
        assert_eq!(a.method, b.method);
        assert_eq!(a.stop.tolerance_value(), b.stop.tolerance_value());
        assert_eq!(a.stop.max_iterations(), b.stop.max_iterations());
        assert_eq!(a.campaign.map(|c| c.seed), b.campaign.map(|c| c.seed));
        assert_eq!(a.problem.kind, b.problem.kind);
        assert_eq!(a.problem.initial, b.problem.initial);
        assert_eq!(a.problem.prev_initial, b.problem.prev_initial);
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Submitted {
                id: 7,
                admitted_at: 100,
                deadline_at: 420,
                spec: laplace_spec(),
            },
            JournalRecord::AttemptStarted {
                id: 7,
                rung: Rung::Reference,
                clock: 105,
                worker: 3,
            },
            JournalRecord::CheckpointTaken {
                id: 7,
                rung: Rung::Reference,
                iteration: 64,
                snapshot_ref: "job7-r1-i64.ckpt".into(),
            },
            JournalRecord::Submitted {
                id: 8,
                admitted_at: 101,
                deadline_at: 421,
                spec: wave_spec(),
            },
            JournalRecord::Completed {
                id: 7,
                outcome_digest: 0xDEAD_BEEF_CAFE_F00D,
                image: ServiceStateImage {
                    clock: 240,
                    next_id: 9,
                    submitted: 2,
                    stats: ServiceStats {
                        submitted: 2,
                        served: 1,
                        served_by: [0, 1, 0, 0, 0, 0, 0],
                        journal_io_errors: 3,
                        recovered_jobs: 1,
                        ..ServiceStats::default()
                    },
                    breakers: [
                        BreakerImage {
                            state: 1,
                            consecutive_failures: 3,
                            cooldown_remaining: 5,
                            probe_successes: 0,
                        },
                        BreakerImage::default(),
                        BreakerImage::default(),
                        BreakerImage {
                            state: 2,
                            consecutive_failures: 0,
                            cooldown_remaining: 0,
                            probe_successes: 1,
                        },
                        BreakerImage::default(),
                        BreakerImage::default(),
                        BreakerImage::default(),
                    ],
                    drain_ewma: 812,
                },
            },
        ]
    }

    #[test]
    fn every_record_kind_round_trips() {
        let mut stream = Vec::new();
        let records = sample_records();
        for r in &records {
            stream.extend_from_slice(&r.encode());
        }
        let contents = decode_journal(&stream);
        assert!(!contents.torn);
        assert_eq!(contents.records.len(), records.len());
        for (got, want) in contents.records.iter().zip(&records) {
            match (got, want) {
                (
                    JournalRecord::Submitted {
                        id: a, spec: sa, ..
                    },
                    JournalRecord::Submitted {
                        id: b, spec: sb, ..
                    },
                ) => {
                    assert_eq!(a, b);
                    specs_bit_equal(sa, sb);
                }
                _ => assert_eq!(got, want),
            }
        }
    }

    #[test]
    fn truncation_at_every_offset_never_panics_and_keeps_a_prefix() {
        let records = sample_records();
        let mut stream = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &records {
            stream.extend_from_slice(&r.encode());
            boundaries.push(stream.len());
        }
        for cut in 0..=stream.len() {
            let contents = decode_journal(&stream[..cut]);
            // The decoded prefix is exactly the records whose frames
            // fit entirely below the cut.
            let whole = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(contents.records.len(), whole, "cut at {cut}");
            assert_eq!(contents.torn, cut != boundaries[whole]);
        }
    }

    #[test]
    fn corrupt_payload_stops_the_scan() {
        let records = sample_records();
        let mut stream = Vec::new();
        for r in &records {
            stream.extend_from_slice(&r.encode());
        }
        // Flip one byte inside the *first* record's payload.
        stream[10] ^= 0x40;
        let contents = decode_journal(&stream);
        assert!(contents.torn);
        assert!(contents.records.is_empty());
    }

    #[test]
    fn engine_image_round_trips_and_rejects_corruption() {
        let image = EngineStateImage {
            rows: 3,
            cols: 4,
            scalar_bytes: 4,
            iterations: 29,
            cur: (0..12).map(|i| u64::from(f32::to_bits(i as f32))).collect(),
            prev: Some(vec![0x7fc0_0001; 12]),
        };
        let bytes = encode_engine_image(&image);
        assert_eq!(decode_engine_image(&bytes).as_ref(), Some(&image));
        for cut in 0..bytes.len() {
            assert!(decode_engine_image(&bytes[..cut]).is_none(), "cut {cut}");
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(decode_engine_image(&bad).is_none(), "flip {i}");
        }
    }

    /// Frames `payload` the way journal records and checkpoint files
    /// are framed, with a freshly computed CRC.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, payload.len() as u32);
        put_u32(&mut out, crc32(payload));
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn legacy_completed_record_decodes_by_discarding_retired_fields() {
        let record = sample_records().pop().unwrap();
        let payload = record.encode()[8..].to_vec();
        assert_eq!(payload[0], COMPLETED_TAG);
        // Tag-4 layout: the same fields plus the retired race counters
        // after the stats and the retired latency rings at the end.
        let stats_end = payload.len() - 8 - 7 * 13;
        let mut legacy = payload[..stats_end].to_vec();
        legacy[0] = LEGACY_COMPLETED_TAG;
        legacy.extend_from_slice(&[0xAB; LEGACY_STATS_TAIL]);
        legacy.extend_from_slice(&payload[stats_end..]);
        legacy.extend_from_slice(&[0x5C; LEGACY_IMAGE_TAIL]);
        assert_eq!(legacy.len(), payload.len() + 486);
        let contents = decode_journal(&framed(&legacy));
        assert!(!contents.torn);
        assert_eq!(contents.records, vec![record]);
        // A legacy record missing any retired byte is still rejected.
        let contents = decode_journal(&framed(&legacy[..legacy.len() - 1]));
        assert!(contents.torn);
    }

    #[test]
    fn checkpoint_claiming_a_huge_field_decodes_to_none() {
        let mut payload = Vec::new();
        put_u64(&mut payload, 1 << 20);
        put_u64(&mut payload, 1 << 20);
        put_u8(&mut payload, 4);
        put_u64(&mut payload, 16);
        put_u8(&mut payload, 0);
        let bytes = framed(&payload);
        assert_eq!(bytes.len(), 34);
        assert!(decode_engine_image(&bytes).is_none());
    }

    #[test]
    fn submitted_record_claiming_a_huge_grid_decodes_as_torn() {
        let mut payload = Vec::new();
        put_u8(&mut payload, 1);
        for v in [7, 0, 100] {
            put_u64(&mut payload, v);
        }
        put_u8(&mut payload, 0); // Jacobi
        put_u8(&mut payload, 0); // fixed steps
        put_u64(&mut payload, 10);
        put_u8(&mut payload, 0); // no campaign
        put_u64(&mut payload, 0); // tenant
        put_u8(&mut payload, 0); // entry rung
        put_u8(&mut payload, 0); // Laplace
        for w in [0.25f32, 0.25, 0.0] {
            put_f32(&mut payload, w);
        }
        put_u8(&mut payload, 1); // static offset grid, claimed 2^20 x 2^20
        put_u64(&mut payload, 1 << 20);
        put_u64(&mut payload, 1 << 20);
        let mut stream = sample_records()[0].encode();
        let whole = stream.len();
        stream.extend_from_slice(&framed(&payload));
        let contents = decode_journal(&stream);
        assert!(contents.torn);
        assert_eq!(contents.records.len(), 1);
        assert_eq!(contents.valid_len, whole);
    }

    #[test]
    fn journal_appends_and_reads_back_with_checkpoints() {
        let dir = tmpdir("rw");
        let config = DurabilityConfig::new(&dir).with_fsync_policy(FsyncPolicy::Always);
        let mut journal = JobJournal::open(&config);
        assert!(!journal.degraded());
        for r in &sample_records() {
            journal.append(r);
        }
        let image = EngineStateImage {
            rows: 3,
            cols: 3,
            scalar_bytes: 4,
            iterations: 12,
            cur: vec![0x3f80_0000; 9],
            prev: None,
        };
        let name = journal
            .write_checkpoint(7, Rung::Reference, &image)
            .unwrap();
        assert_eq!(name, "job7-r1-i12.ckpt");
        assert_eq!(journal.read_checkpoint(&name).as_ref(), Some(&image));
        let contents = read_journal(&dir).unwrap();
        assert!(!contents.torn);
        assert_eq!(contents.records.len(), sample_records().len());
        assert_eq!(journal.io_errors(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_journal_dir_degrades_instead_of_failing() {
        let dir = tmpdir("degrade");
        // A *file* where the journal directory should be makes
        // create_dir_all fail on every retry.
        let blocked = dir.join("blocked");
        fs::write(&blocked, b"not a directory").unwrap();
        let config = DurabilityConfig::new(&blocked);
        let mut journal = JobJournal::open(&config);
        assert!(journal.degraded());
        assert!(journal.io_errors() >= 1);
        // Appends and checkpoints are silent no-ops.
        journal.append(&JournalRecord::AttemptStarted {
            id: 1,
            rung: Rung::Software,
            clock: 0,
            worker: 0,
        });
        assert!(journal
            .write_checkpoint(
                1,
                Rung::Software,
                &EngineStateImage {
                    rows: 1,
                    cols: 1,
                    scalar_bytes: 4,
                    iterations: 1,
                    cur: vec![0],
                    prev: None,
                },
            )
            .is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_reads_as_empty() {
        let dir = tmpdir("missing");
        let contents = read_journal(&dir.join("never-created")).unwrap();
        assert!(contents.records.is_empty());
        assert!(!contents.torn);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv1a_is_stable() {
        // Reference value of FNV-1a("fdmax") computed by hand once;
        // pins the digest so journal outcome digests stay comparable
        // across versions.
        let h = fnv1a(FNV_OFFSET, b"fdmax");
        assert_eq!(h, fnv1a(FNV_OFFSET, b"fdmax"));
        assert_ne!(h, fnv1a(FNV_OFFSET, b"fdmin"));
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
    }
}
