//! Elaboration-time static verification of accelerator configurations.
//!
//! The paper states structural invariants — FIFO depths sized to the
//! subarray chain, `HaloAdders` covering every column-batch seam, bank
//! counts matching PE-array port demand, legal `R×C -> 1×(C·k)` elastic
//! decompositions — that the simulator otherwise only discovers
//! dynamically, deep inside [`crate::sim::DetailedSim`], as panics or as
//! backpressure/overflow "faults". This module proves (or refutes) those
//! invariants in `O(config)` time without simulating a single cycle,
//! RTL-lint style.
//!
//! Every finding is a [`Diagnostic`] with a stable code (`FDX0xx`), a
//! [`Severity`], the offending configuration field and a suggested fix;
//! a run of the analyzer returns a [`LintReport`].
//!
//! Three layers consume the analyzer:
//!
//! * [`crate::accelerator::Accelerator`] and [`crate::sim::DetailedSim`]
//!   constructors refuse Error-level configurations with
//!   [`crate::resilience::FdmaxError::Lint`];
//! * the `fdmax-lint` CLI (workspace crate `crates/lint`) lints config
//!   files and prints a rustc-style report;
//! * the differential-validation harness (`tests/lint_differential.rs`)
//!   proves the analyzer against the cycle-accurate simulator: every
//!   lint-clean random configuration simulates with zero
//!   backpressure/overflow events, and every diagnostic code has a
//!   witness configuration that demonstrably misbehaves when the lint
//!   gate is bypassed.
//!
//! # Soundness argument (lint-clean ⇒ stall-free steady state)
//!
//! The steady-state schedule of one `(row block, column batch)` tile is
//! fully determined by [`crate::mapping`]: a block of height `h` pushes
//! exactly `h` entries to nFIFO and `h` to pFIFO per batch (one per valid
//! centre row), and the *next* batch pops exactly `h` from each. The
//! sub-FIFO backing queues hold `depth + 1` entries. Therefore:
//!
//! 1. occupancy during a batch is bounded by `h` (+1 transient), so
//!    `h <= depth` (checked by [`DiagCode::FifoDepthExceeded`]) implies no
//!    backpressure push ever blocks;
//! 2. a batch at columns `[c0, c1)` with `c0 > 0` pops entries its
//!    predecessor pushed; contiguity of the batch sequence (checked by
//!    [`DiagCode::HaloSeamUncovered`]) and a first batch at `c0 == 0`
//!    (checked by [`DiagCode::ScheduleUnderflow`]) imply every pop finds
//!    its entry — no underflow, no deadlock;
//! 3. batch width `<= chain width` (also [`DiagCode::HaloSeamUncovered`])
//!    implies every column has a PE and the last PE's pFIFO push pairs
//!    with exactly one `HaloAdder` completion in the following batch.
//!
//! Bank conflicts ([`DiagCode::BankOversubscribed`]) and off-chip
//! streaming ([`DiagCode::OffChipResident`]) cost cycles but never
//! correctness, so they are Warn/Info, not Error — the paper's own
//! default (64 PEs on 32 banks) oversubscribes by design.

use crate::accelerator::HwUpdateMethod;
use crate::config::FdmaxConfig;
use crate::elastic::ElasticConfig;
use crate::mapping::{col_batches, row_blocks, row_strips, ColBatch, RowRange};
use crate::perf_model::iteration_estimate;
use core::fmt;

/// How bad a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth knowing, nothing to fix.
    Info,
    /// The configuration works but wastes cycles or hardware.
    Warn,
    /// The configuration violates a structural invariant; constructors
    /// refuse it.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warning",
            Severity::Error => "error",
        })
    }
}

/// Defines [`DiagCode`] from one table: for every code its rustdoc
/// comment, stable `FDX0xx` string, fixed [`Severity`] and one-line
/// title. The rustdoc comment doubles as the long-form explanation
/// returned by [`DiagCode::explanation`] (and printed by
/// `fdmax-lint --explain`), so the CLI documentation can never drift
/// from the API documentation.
macro_rules! diag_codes {
    (@count) => { 0usize };
    (@count $head:ident $($tail:ident)*) => { 1usize + diag_codes!(@count $($tail)*) };
    ($($(#[doc = $doc:literal])+ $variant:ident = ($code:literal, $sev:ident, $title:literal),)+) => {
        /// Stable diagnostic codes. The numeric part never changes
        /// meaning; new checks get new numbers.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum DiagCode {
            $($(#[doc = $doc])+ $variant,)+
        }

        /// All codes, in numeric order (used by the CLI's `--explain`
        /// listing and the witness coverage test).
        pub const ALL_CODES: [DiagCode; diag_codes!(@count $($variant)+)] =
            [$(DiagCode::$variant,)+];

        impl DiagCode {
            /// The stable `FDX0xx` code string.
            pub fn as_str(&self) -> &'static str {
                match self { $(DiagCode::$variant => $code,)+ }
            }

            /// The fixed severity of this code. Individual findings can
            /// override it via [`Diagnostic::severity`] (e.g. FDX013's
            /// journal collision errors where its cadence check warns).
            pub fn severity(&self) -> Severity {
                match self { $(DiagCode::$variant => Severity::$sev,)+ }
            }

            /// One-line description of what the code means.
            pub fn title(&self) -> &'static str {
                match self { $(DiagCode::$variant => $title,)+ }
            }

            /// The long-form documentation of this code — the exact text
            /// of the variant's rustdoc comment, which `fdmax-lint
            /// --explain FDX0xx` prints.
            pub fn explanation(&self) -> &'static str {
                match self { $(DiagCode::$variant => concat!($($doc, "\n"),+),)+ }
            }
        }
    };
}

diag_codes! {
    /// FDX001: a structural count (PEs, FIFO depth, banks, depth) is zero.
    ZeroParameter = ("FDX001", Error, "structural parameter is zero"),
    /// FDX002: the elastic decomposition does not fit the physical array.
    ElasticMismatch = ("FDX002", Error, "elastic decomposition does not fit the array"),
    /// FDX003: a row block is taller than the sub-FIFO depth, so nFIFO/
    /// pFIFO pushes outrun pops and the producer backpressure-stalls (or
    /// overflows in hardware without interlocks).
    FifoDepthExceeded = ("FDX003", Error, "row block exceeds sub-FIFO depth"),
    /// FDX004: the column-batch sequence leaves a seam no `HaloAdder`
    /// covers — a gap/overlap between consecutive batches, a batch wider
    /// than the chain, or columns never processed.
    HaloSeamUncovered = ("FDX004", Error, "column-batch seam not covered by a HaloAdder"),
    /// FDX005: concurrent per-cycle SRAM port demand exceeds the bank
    /// count; every tile stalls by the oversubscription factor.
    BankOversubscribed =
        ("FDX005", Warn, "SRAM banks oversubscribed by concurrent PE accesses"),
    /// FDX006: part of the array can never do useful work on this grid
    /// (more subarrays than interior rows, or a chain wider than the
    /// grid's columns).
    DeadSubarrays = ("FDX006", Warn, "part of the array is idle on this grid"),
    /// FDX007: the grid has no interior to iterate on.
    GridTooSmall = ("FDX007", Error, "grid has no interior"),
    /// FDX008: the Hybrid update method degrades to Jacobi operands at
    /// row-block and column-batch seams of this decomposition.
    HybridSeamFallback = ("FDX008", Info, "Hybrid update falls back to Jacobi at seams"),
    /// FDX009: the grid does not fit on chip; every iteration streams
    /// DRAM and may be bandwidth-bound.
    OffChipResident = ("FDX009", Info, "grid streams from DRAM every iteration"),
    /// FDX010: the steady-state schedule pops a FIFO entry no earlier
    /// batch pushed — underflow, which the hardware expresses as
    /// deadlock.
    ScheduleUnderflow = ("FDX010", Error, "steady-state schedule pops an entry never pushed"),
    /// FDX011: the solve service admits more work than its deadline
    /// budget covers — `queue_capacity x max_job_iterations` exceeds
    /// `deadline_iterations`, so a tail job can burn its whole deadline
    /// waiting in the queue and be served only by the degraded analytic
    /// rung.
    ServiceOvercommitted =
        ("FDX011", Warn, "service queue admits more iterations than the deadline budget"),
    /// FDX012: the strip decomposition yields row strips shorter than 3
    /// output rows. Every strip streams `height + 2` input rows for
    /// `height` output rows, so thin strips spend most of their SRAM
    /// traffic on halo rows — a guaranteed slowdown versus a coarser
    /// decomposition of the same grid.
    HaloDominatedStrips = ("FDX012", Warn, "strip decomposition is halo-dominated"),
    /// FDX013: the durability layer is configured so it cannot do its
    /// job — a checkpoint cadence no job can ever reach before its
    /// deadline (recovery then always replays from iteration zero), or,
    /// at Error severity, two services sharing one journal directory
    /// (their append-only journals interleave and corrupt each other's
    /// recovery).
    DurabilityMisconfigured =
        ("FDX013", Warn, "durability settings cannot protect the jobs they cover"),
    /// FDX014: the assembled CSR system for this grid (values + column
    /// indices + row pointers) exceeds the modeled DRAM capacity, so any
    /// Krylov rung that assembles the matrix cannot hold it off chip.
    /// The matrix-free operator path needs none of that storage.
    KrylovFootprintExceedsDram =
        ("FDX014", Warn, "assembled Krylov matrix exceeds the modeled DRAM capacity"),
    /// FDX015: no rung of the fallback chain can converge inside the
    /// job's iteration budget. The spectral radius of the requested
    /// sweep method on this grid gives a sound lower bound on the
    /// iterations any sweep rung needs to reach the requested tolerance;
    /// when that bound (and, for steady-state jobs, the Krylov rung's
    /// information-propagation bound too) already exceeds
    /// `min(deadline_iterations, max_job_iterations)`, the job is
    /// statically known to burn its whole budget and degrade to the
    /// analytic rung. At Warn severity the same code reports the partial
    /// cases: convergence unproven inside the budget, only the Krylov
    /// rung feasible, or a fixed-step run longer than the deadline
    /// (deliberate degradation, legal but worth seeing).
    ConvergenceBudgetInfeasible =
        ("FDX015", Error, "no fallback rung can converge inside the iteration budget"),
    /// FDX016: the requested tolerance sits below the attainable
    /// update-norm floor of the chosen precision. Each sweep updates
    /// interior points with relative rounding error around the machine
    /// epsilon, so the update norm plateaus near
    /// `eps * scale * sqrt(interior)` (divided by a safety margin)
    /// instead of decaying to zero; a tolerance below that floor can
    /// never be crossed and the job only ends by stall watchdog or
    /// budget exhaustion. Caught statically, the job is rejected at
    /// admission instead.
    PrecisionFloorViolated =
        ("FDX016", Error, "tolerance below the attainable precision floor"),
    /// FDX017: the durability checkpoint cadence is slower than the
    /// expected failure-free completion window of the jobs it covers —
    /// legal (unlike FDX013 the cadence is reachable before the
    /// deadline), but the convergence-budget analysis proves the job is
    /// expected to finish before its first checkpoint ever fires, so a
    /// crash still replays from iteration zero and the durability
    /// configuration buys nothing.
    CheckpointCadenceMismatch =
        ("FDX017", Warn, "checkpoint cadence slower than the expected completion window"),
    /// FDX018: the strip-parallel band plan is not race-free. A sound
    /// plan partitions the interior rows into non-empty, ascending,
    /// contiguous bands: overlapping or unordered bands alias halo rows
    /// (concurrent writers to the same row, and double-folded residual
    /// partials), gaps leave rows no worker sweeps, and out-of-interior
    /// rows write the Dirichlet boundary. Any of those breaks the
    /// fixed-order fold determinism that makes parallel residuals
    /// bit-identical to the serial engine at every thread count.
    BandPlanRace = ("FDX018", Error, "strip-parallel band plan is not race-free"),
    /// FDX019: rungs of the fallback chain that are statically dead for
    /// this job class — the Krylov rung skips every transient
    /// (time-stepping) job as not applicable, and the strip-parallel
    /// rung degenerates to the serial software rung when the service
    /// runs single-threaded — so the operationally real chain is shorter
    /// than the configured one.
    DeadFallbackRungs = ("FDX019", Warn, "fallback chain contains statically dead rungs"),
    /// FDX020: the per-tenant in-flight quotas of the multi-tenant
    /// front end overcommit the worker pool — the sum of registered
    /// tenants' `max_in_flight` quotas exceeds the number of workers.
    /// Every individual tenant's quota is honored, but the quotas
    /// cannot all be honored *simultaneously*: under concurrent load
    /// the deficit-round-robin scheduler arbitrates the shortfall, so a
    /// tenant sized against its quota sees less concurrency than it was
    /// promised. Legal (statistical multiplexing is often intended),
    /// but worth seeing.
    TenantQuotaOvercommit =
        ("FDX020", Warn, "per-tenant in-flight quotas overcommit the worker pool"),
    // FDX021 (vacuous hedge) is retired with the hedged-attempt feature; never reuse the code.
    /// FDX022: the configured tile depth is incompatible with the job's
    /// grid or strip geometry. The temporally tiled rung fuses
    /// `tile_depth` sweeps per cache pass, and each worker strip
    /// recomputes a `tile_depth`-deep halo trapezoid per side. A depth
    /// at or beyond the interior height makes the halo consume the
    /// whole interior (error: the rung degenerates to redundant serial
    /// recomputation); a depth that forces the halo-aware band split
    /// below the requested thread count silently sheds parallelism
    /// (warning); and a depth above the service's per-job iteration cap
    /// means every epoch truncates, so the configured cache reuse is
    /// never achieved (warning).
    TileDepthGeometry =
        ("FDX022", Warn, "tile depth incompatible with grid/strip geometry"),
}

impl DiagCode {
    /// Parses an `FDX0xx` string back into a code.
    pub fn parse(s: &str) -> Option<DiagCode> {
        ALL_CODES.iter().copied().find(|c| c.as_str() == s)
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding of the analyzer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: DiagCode,
    /// The configuration field (or mapping element) at fault.
    pub field: &'static str,
    /// What is wrong, with the concrete numbers.
    pub message: String,
    /// How to fix it, when a concrete fix exists.
    pub suggestion: Option<String>,
    /// Overrides the code's default severity for findings where the
    /// same code spans severities (e.g. FDX013: a wasteful cadence
    /// warns, a corrupting journal collision errors).
    severity_override: Option<Severity>,
}

impl Diagnostic {
    pub(crate) fn new(code: DiagCode, field: &'static str, message: String) -> Self {
        Diagnostic {
            code,
            field,
            message,
            suggestion: None,
            severity_override: None,
        }
    }

    pub(crate) fn suggest(mut self, s: String) -> Self {
        self.suggestion = Some(s);
        self
    }

    pub(crate) fn with_severity(mut self, severity: Severity) -> Self {
        self.severity_override = Some(severity);
        self
    }

    /// The severity: the code's fixed default unless this particular
    /// finding overrides it.
    pub fn severity(&self) -> Severity {
        self.severity_override
            .unwrap_or_else(|| self.code.severity())
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {} ({})",
            self.severity(),
            self.code,
            self.message,
            self.field
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, "; help: {s}")?;
        }
        Ok(())
    }
}

/// The findings of one analyzer run.
#[must_use = "a lint report changes nothing by itself; check has_errors()/diagnostics()"]
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    pub(crate) fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// All findings, in the order the checks ran.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Findings at Error severity.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
    }

    /// `true` when at least one Error-level finding exists — constructors
    /// refuse such configurations.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// `true` when nothing at all was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The worst severity present, `None` for a clean report.
    pub fn worst(&self) -> Option<Severity> {
        self.diagnostics.iter().map(Diagnostic::severity).max()
    }

    /// `true` when some finding carries `code`.
    pub fn has(&self, code: DiagCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// `true` when no findings (alias of [`is_clean`](Self::is_clean),
    /// for the usual container idiom).
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return f.write_str("lint clean");
        }
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// What the analyzer verifies: a configuration deployed on a grid.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LintTarget {
    /// The accelerator configuration.
    pub config: FdmaxConfig,
    /// An explicit elastic decomposition, or `None` for the planner's
    /// cycle-minimizing choice.
    pub elastic: Option<ElasticConfig>,
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// The hardware update method.
    pub method: HwUpdateMethod,
}

impl LintTarget {
    /// A target on the planner-chosen decomposition.
    pub fn planned(config: FdmaxConfig, rows: usize, cols: usize, method: HwUpdateMethod) -> Self {
        LintTarget {
            config,
            elastic: None,
            rows,
            cols,
            method,
        }
    }
}

/// The symbolic steady-state schedule of one subarray: its row blocks,
/// the column-batch sequence they run over, and the FIFO geometry. The
/// deployment lint derives one per strip from [`crate::mapping`]; tests
/// (and the differential harness's witnesses) also build them by hand to
/// model a bypassed or degraded controller.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanSpec {
    /// PEs in the chain.
    pub width: usize,
    /// Entries per sub-FIFO (nFIFO and pFIFO).
    pub fifo_depth: usize,
    /// Grid columns the batches must tile.
    pub cols: usize,
    /// Row blocks executed by this chain.
    pub blocks: Vec<RowRange>,
    /// The column batches each block runs over, in schedule order.
    pub batches: Vec<ColBatch>,
}

impl PlanSpec {
    /// The schedule [`crate::mapping`] derives for one strip.
    pub fn derive(
        config: &FdmaxConfig,
        elastic: &ElasticConfig,
        strip: RowRange,
        cols: usize,
    ) -> Self {
        let depth = elastic.sub_fifo_depth(config);
        PlanSpec {
            width: elastic.width,
            fifo_depth: depth,
            cols,
            blocks: row_blocks(strip, depth),
            batches: col_batches(cols, elastic.width),
        }
    }
}

/// The supervisory-layer sizing the service lint verifies: a
/// [`crate::service::SolveService`]'s admission bound, per-job
/// iteration cap, deadline budget and (optional) durability settings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceSpec {
    /// Bounded admission-queue depth.
    pub queue_capacity: usize,
    /// Hard cap on any single job's iterations.
    pub max_job_iterations: usize,
    /// Per-job deadline in service-clock iterations, counted from
    /// admission (queue wait included).
    pub deadline_iterations: u64,
    /// Checkpoint cadence of the durability layer, in iterations
    /// (`None` when durability is off; `Some(0)` disables
    /// checkpointing explicitly).
    pub checkpoint_every: Option<u64>,
    /// Journal directory of the durability layer (`None` when
    /// durability is off). Compared verbatim across a fleet by
    /// [`lint_service_fleet`].
    pub journal_dir: Option<String>,
}

/// Lints a service sizing: FDX011.
///
/// The service deadline clock ticks on every executed iteration, and a
/// job admitted behind a full queue waits for up to
/// `queue_capacity x max_job_iterations` ticks before it even starts.
/// When that worst-case wait exceeds `deadline_iterations`, a tail job
/// can arrive at the executor with zero budget left and be served only
/// by the degraded analytic rung — legal, but almost certainly not what
/// the operator sized the service for.
pub fn lint_service(spec: &ServiceSpec) -> LintReport {
    let mut report = LintReport::new();
    let worst_wait = (spec.queue_capacity as u64).saturating_mul(spec.max_job_iterations as u64);
    if worst_wait > spec.deadline_iterations {
        report.push(
            Diagnostic::new(
                DiagCode::ServiceOvercommitted,
                "deadline_iterations",
                format!(
                    "a full queue of {} jobs at up to {} iterations each is {} \
                     iterations of worst-case wait, but the per-job deadline budget \
                     is only {}: tail jobs can exhaust their deadline before \
                     starting and degrade to the analytic rung",
                    spec.queue_capacity,
                    spec.max_job_iterations,
                    worst_wait,
                    spec.deadline_iterations
                ),
            )
            .suggest(format!(
                "raise deadline_iterations to at least {worst_wait}, shrink the \
                 queue to {} jobs, or cap jobs at {} iterations",
                (spec.deadline_iterations / (spec.max_job_iterations as u64).max(1)).max(1),
                (spec.deadline_iterations / (spec.queue_capacity as u64).max(1)).max(1),
            )),
        );
    }
    // FDX013 — a checkpoint cadence at or beyond the deadline budget can
    // never fire before the job must already be done: the durability
    // layer journals admissions and completions but persists no mid-run
    // state, so every crash recovery replays from iteration zero.
    if let Some(every) = spec.checkpoint_every {
        if every > 0 && every >= spec.deadline_iterations {
            report.push(
                Diagnostic::new(
                    DiagCode::DurabilityMisconfigured,
                    "checkpoint_every",
                    format!(
                        "checkpoint cadence of {} iterations meets or exceeds the \
                         per-job deadline budget of {}: no job can reach its first \
                         checkpoint, so crash recovery always replays from \
                         iteration zero",
                        every, spec.deadline_iterations
                    ),
                )
                .suggest(format!(
                    "lower checkpoint_every below {} (or set it to 0 to disable \
                     checkpointing deliberately)",
                    spec.deadline_iterations
                )),
            );
        }
    }
    report
}

/// Lints a fleet of service sizings together: per-service checks for
/// each spec, plus the cross-service FDX013 journal-collision check.
///
/// The write-ahead journal is an append-only file owned by exactly one
/// service; two services sharing a `journal_dir` interleave their
/// records and each poisons the other's recovery (job ids collide, and
/// the torn-tail scan stops at the first frame the other service wrote
/// mid-append). That is an Error, not a Warn: recovery correctness is
/// gone, not just degraded.
pub fn lint_service_fleet(specs: &[ServiceSpec]) -> LintReport {
    let mut report = LintReport::new();
    for spec in specs {
        report.merge(lint_service(spec));
    }
    report.merge(lint_journal_collisions(specs));
    report
}

/// The cross-service half of [`lint_service_fleet`]: only the FDX013
/// journal-directory collision check, with no per-spec diagnostics.
/// The `fdmax-lint` CLI calls this across config files it has already
/// linted individually, so collisions are reported exactly once.
pub fn lint_journal_collisions(specs: &[ServiceSpec]) -> LintReport {
    let mut report = LintReport::new();
    for (i, a) in specs.iter().enumerate() {
        let Some(dir) = &a.journal_dir else { continue };
        for b in specs.iter().skip(i + 1) {
            if b.journal_dir.as_ref() == Some(dir) {
                report.push(
                    Diagnostic::new(
                        DiagCode::DurabilityMisconfigured,
                        "journal_dir",
                        format!(
                            "two services share the journal directory {dir:?}: their \
                             append-only journals interleave, job ids collide, and \
                             each service corrupts the other's crash recovery"
                        ),
                    )
                    .with_severity(Severity::Error)
                    .suggest("give every service its own journal_dir".to_string()),
                );
            }
        }
    }
    report
}

/// The multi-tenant front-end sizing the FDX020 lint verifies: a
/// [`crate::service::frontend::Frontend`]'s worker-pool size and the
/// registered tenants' in-flight quotas.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrontendSpec {
    /// Worker-pool size.
    pub workers: usize,
    /// Registered tenants' `max_in_flight` quotas.
    pub tenant_in_flight_quotas: Vec<usize>,
}

/// Lints a multi-tenant front-end sizing: FDX020 (quota overcommit).
pub fn lint_frontend(spec: &FrontendSpec) -> LintReport {
    let mut report = LintReport::new();
    let promised: usize = spec.tenant_in_flight_quotas.iter().sum();
    if promised > spec.workers {
        report.push(
            Diagnostic::new(
                DiagCode::TenantQuotaOvercommit,
                "max_in_flight",
                format!(
                    "registered tenants are promised {} concurrent jobs in total but \
                     the pool has only {} worker(s): the quotas cannot all be honored \
                     simultaneously and the fair scheduler arbitrates the shortfall",
                    promised, spec.workers
                ),
            )
            .suggest(format!(
                "grow the pool to {promised} workers or shrink the per-tenant \
                 max_in_flight quotas to sum to at most {}",
                spec.workers
            )),
        );
    }
    report
}

/// Lints a deployment end to end: the accelerator target plus, when one
/// is sized, the solve service admitting jobs in front of it, plus,
/// when a multi-tenant front end fronts the pool, its quota check
/// (FDX020), plus, when a concrete job is described, the
/// solve-plan analysis (FDX015–FDX019).
pub fn lint_full(
    target: &LintTarget,
    service: Option<&ServiceSpec>,
    frontend: Option<&FrontendSpec>,
    plan: Option<&crate::analysis::SolvePlan>,
) -> LintReport {
    let mut report = lint(target);
    if let Some(spec) = service {
        report.merge(lint_service(spec));
    }
    if let Some(spec) = frontend {
        report.merge(lint_frontend(spec));
    }
    if let Some(plan) = plan {
        report.merge(crate::analysis::analyze_plan(plan, &target.config, service).into_lint());
    }
    report
}

/// Lints a configuration alone: FDX001.
pub fn lint_config(config: &FdmaxConfig) -> LintReport {
    let mut report = LintReport::new();
    let checks: [(&'static str, usize); 5] = [
        ("pe_rows", config.pe_rows),
        ("pe_cols", config.pe_cols),
        ("fifo_depth", config.fifo_depth),
        ("buffer_banks", config.buffer_banks),
        ("buffer_depth", config.buffer_depth),
    ];
    for (field, v) in checks {
        if v == 0 {
            report.push(
                Diagnostic::new(
                    DiagCode::ZeroParameter,
                    field,
                    format!("configuration parameter {field} is zero"),
                )
                .suggest(format!("set {field} to a positive count")),
            );
        }
    }
    report
}

/// Lints one symbolic schedule: FDX003 (FIFO depth), FDX004 (halo seam
/// coverage) and FDX010 (steady-state underflow/deadlock).
pub fn lint_plan(plan: &PlanSpec) -> LintReport {
    let mut report = LintReport::new();

    for block in &plan.blocks {
        if block.height() > plan.fifo_depth {
            report.push(
                Diagnostic::new(
                    DiagCode::FifoDepthExceeded,
                    "fifo_depth",
                    format!(
                        "row block of {} output rows exceeds the {}-entry sub-FIFO: \
                         each batch pushes one nFIFO and one pFIFO entry per output \
                         row, so pushes outrun the next batch's pops by {}",
                        block.height(),
                        plan.fifo_depth,
                        block.height() - plan.fifo_depth
                    ),
                )
                .suggest(format!(
                    "split the strip into blocks of at most {} rows, or deepen the \
                     FIFOs to {} entries",
                    plan.fifo_depth,
                    block.height()
                )),
            );
            break; // one witness per plan is enough
        }
    }

    // Halo seam coverage: batches must tile the columns contiguously and
    // fit the chain, so each pFIFO push pairs with exactly one HaloAdder
    // completion in the following batch.
    for batch in &plan.batches {
        if batch.active() > plan.width {
            report.push(
                Diagnostic::new(
                    DiagCode::HaloSeamUncovered,
                    "width",
                    format!(
                        "column batch [{}, {}) is {} columns wide but the chain has \
                         only {} PEs: columns beyond the chain have no PE and no \
                         HaloAdder input",
                        batch.c0,
                        batch.c1,
                        batch.active(),
                        plan.width
                    ),
                )
                .suggest(format!("cap batch width at {} columns", plan.width)),
            );
            break;
        }
    }
    for w in plan.batches.windows(2) {
        if w[0].c1 != w[1].c0 {
            let kind = if w[0].c1 < w[1].c0 { "gap" } else { "overlap" };
            report.push(
                Diagnostic::new(
                    DiagCode::HaloSeamUncovered,
                    "batches",
                    format!(
                        "{kind} between column batches [{}, {}) and [{}, {}): the \
                         HaloAdder completes column {} with the next batch's first \
                         partial, which this schedule never provides",
                        w[0].c0,
                        w[0].c1,
                        w[1].c0,
                        w[1].c1,
                        w[0].c1 - 1
                    ),
                )
                .suggest("make consecutive batches contiguous (next.c0 == prev.c1)".to_string()),
            );
            break;
        }
    }
    if let Some(last) = plan.batches.last() {
        if last.c1 < plan.cols {
            report.push(
                Diagnostic::new(
                    DiagCode::HaloSeamUncovered,
                    "batches",
                    format!(
                        "batches end at column {} but the grid has {} columns: the \
                         final pFIFO entries are never completed and columns \
                         [{}, {}) are never computed",
                        last.c1, plan.cols, last.c1, plan.cols
                    ),
                )
                .suggest(format!("extend the batch sequence to column {}", plan.cols)),
            );
        }
    }

    // Steady-state schedule: the first batch must start at column 0 —
    // any batch with c0 > 0 pops `h` nFIFO and `h` pFIFO entries that
    // only a predecessor batch can have pushed. With no predecessor the
    // pop underflows, which interlocked hardware expresses as deadlock.
    match plan.batches.first() {
        Some(first) if first.c0 > 0 => {
            report.push(
                Diagnostic::new(
                    DiagCode::ScheduleUnderflow,
                    "batches",
                    format!(
                        "first batch starts at column {}: its first PE pops nFIFO \
                         and its HaloAdder pops pFIFO, but no earlier batch pushed \
                         — the steady-state schedule deadlocks on an empty FIFO",
                        first.c0
                    ),
                )
                .suggest("start the batch sequence at column 0".to_string()),
            );
        }
        Some(_) => {}
        None => {
            report.push(
                Diagnostic::new(
                    DiagCode::ScheduleUnderflow,
                    "batches",
                    "the schedule has no column batches: the chain never runs and \
                     the solve never terminates"
                        .to_string(),
                )
                .suggest("derive batches with mapping::col_batches".to_string()),
            );
        }
    }

    report
}

/// The full elaboration-time analysis of a deployment. Runs every check
/// that applies; later (plan-level) checks are skipped once an earlier
/// Error makes their inputs meaningless.
pub fn lint(target: &LintTarget) -> LintReport {
    let config = &target.config;
    let mut report = lint_config(config);

    // FDX007 — without an interior there is nothing to derive.
    if target.rows < 3 || target.cols < 3 {
        report.push(
            Diagnostic::new(
                DiagCode::GridTooSmall,
                "grid",
                format!(
                    "{}x{} grid has no interior to iterate on",
                    target.rows, target.cols
                ),
            )
            .suggest("use a grid of at least 3x3 points".to_string()),
        );
    }

    // FDX002 — an explicit decomposition must fit the physical array.
    if let Some(elastic) = target.elastic {
        let legal = elastic.subarrays > 0
            && elastic.pe_count() == config.pe_count()
            && config.pe_rows > 0
            && config.pe_rows.is_multiple_of(elastic.subarrays);
        if !legal {
            report.push(
                Diagnostic::new(
                    DiagCode::ElasticMismatch,
                    "elastic",
                    format!(
                        "decomposition {elastic} does not fit the {}x{} array: legal \
                         options are s chains of (pe_rows/s)*pe_cols PEs for each \
                         divisor s of pe_rows",
                        config.pe_rows, config.pe_cols
                    ),
                )
                .suggest(format!(
                    "pick a divisor s of {} and width {}*pe_cols/s",
                    config.pe_rows, config.pe_rows
                )),
            );
        }
    }

    // Everything below needs a structurally sound config + grid.
    if report.has_errors() {
        return report;
    }

    let elastic = target
        .elastic
        .unwrap_or_else(|| ElasticConfig::plan(config, target.rows, target.cols));

    let strips = row_strips(target.rows, elastic.subarrays);
    let interior_rows = target.rows - 2;

    // FDX006 — dead subarrays / idle columns.
    if strips.len() < elastic.subarrays {
        report.push(
            Diagnostic::new(
                DiagCode::DeadSubarrays,
                "elastic",
                format!(
                    "{} of {} subarrays have no row strip ({} interior rows): they \
                     idle for the whole solve",
                    elastic.subarrays - strips.len(),
                    elastic.subarrays,
                    interior_rows
                ),
            )
            .suggest(format!(
                "use at most {interior_rows} subarrays for this grid"
            )),
        );
    }
    if elastic.width > target.cols {
        report.push(
            Diagnostic::new(
                DiagCode::DeadSubarrays,
                "elastic",
                format!(
                    "chain width {} exceeds the grid's {} columns: {} PEs per chain \
                     never receive a column",
                    elastic.width,
                    target.cols,
                    elastic.width - target.cols
                ),
            )
            .suggest("prefer a decomposition with more, narrower chains".to_string()),
        );
    }

    // FDX012 — halo-dominated strips. Each strip streams height + 2 input
    // rows for height output rows; under 3 output rows the halo share of
    // the traffic reaches 50% and beyond.
    if strips.len() > 1 && strips.iter().any(|s| s.height() < 3) {
        let thin = strips.iter().filter(|s| s.height() < 3).count();
        let min_height = strips.iter().map(RowRange::height).min().unwrap_or(0);
        report.push(
            Diagnostic::new(
                DiagCode::HaloDominatedStrips,
                "elastic",
                format!(
                    "{thin} of {} row strips have fewer than 3 output rows (min {min_height}):                      each streams height + 2 rows, so halo rows dominate their SRAM traffic",
                    strips.len()
                ),
            )
            .suggest(format!(
                "use at most {} subarrays so every strip keeps at least 3 rows",
                (interior_rows / 3).max(1)
            )),
        );
    }

    // FDX005 — per-cycle port demand vs bank count. All strips run in
    // lock-step, so a full batch issues width * active-subarrays
    // concurrent accesses.
    let concurrent = elastic.width.min(target.cols) * strips.len();
    if concurrent > config.buffer_banks {
        let factor = concurrent as f64 / config.buffer_banks as f64;
        report.push(
            Diagnostic::new(
                DiagCode::BankOversubscribed,
                "buffer_banks",
                format!(
                    "full batches issue {} concurrent accesses against {} \
                     single-ported banks: every tile stalls by {:.2}x",
                    concurrent, config.buffer_banks, factor
                ),
            )
            .suggest(format!(
                "provision {concurrent} banks, or accept the {factor:.2}x stall"
            )),
        );
    }

    // Plan-level checks per strip (FDX003/FDX004/FDX010). Mapping-derived
    // plans are constructed to pass; this is the shared path with
    // hand-built plans, and it keeps the soundness argument honest.
    let mut plan_report = LintReport::new();
    for strip in &strips {
        let plan = PlanSpec::derive(config, &elastic, *strip, target.cols);
        plan_report = lint_plan(&plan);
        if !plan_report.is_clean() {
            break;
        }
    }
    report.merge(plan_report);

    // FDX008 — Hybrid forwarding is unavailable at seams.
    if matches!(target.method, HwUpdateMethod::Hybrid) {
        let depth = elastic.sub_fifo_depth(config);
        let multiple_blocks = strips.iter().any(|s| s.height() > depth);
        let multiple_batches = target.cols > elastic.width;
        let multiple_strips = strips.len() > 1;
        if multiple_blocks || multiple_batches || multiple_strips {
            let mut seams: Vec<&str> = Vec::new();
            if multiple_strips {
                seams.push("row-strip boundaries");
            }
            if multiple_blocks {
                seams.push("row-block boundaries");
            }
            if multiple_batches {
                seams.push("column-batch seams");
            }
            report.push(
                Diagnostic::new(
                    DiagCode::HybridSeamFallback,
                    "method",
                    format!(
                        "Hybrid forwarding is unavailable at {}: those points use \
                         Jacobi operands, slightly slowing convergence",
                        seams.join(", ")
                    ),
                )
                .suggest(
                    "a monolithic chain with FIFO depth >= the interior height has \
                     no seams"
                        .to_string(),
                ),
            );
        }
    }

    // FDX009 — off-chip residency / bandwidth bound.
    if !config.grid_fits_on_chip(target.rows, target.cols) {
        let est = iteration_estimate(config, &elastic, target.rows, target.cols, false);
        let bound = if est.is_bandwidth_bound() {
            format!(
                "DRAM streaming dominates ({} DRAM vs {} compute cycles/iteration)",
                est.dram_cycles, est.compute_cycles
            )
        } else {
            format!(
                "compute still dominates ({} compute vs {} DRAM cycles/iteration)",
                est.compute_cycles, est.dram_cycles
            )
        };
        report.push(
            Diagnostic::new(
                DiagCode::OffChipResident,
                "buffer_depth",
                format!(
                    "{}x{} grid ({} elements) exceeds the {}-element buffers: every \
                     iteration streams DRAM; {bound}",
                    target.rows,
                    target.cols,
                    target.rows * target.cols,
                    config.buffer_capacity_elements()
                ),
            )
            .suggest(
                "larger buffers keep the grid resident; otherwise provision DRAM \
                 bandwidth to match"
                    .to_string(),
            ),
        );
    }

    // FDX014 — the assembled Krylov system outgrows off-chip storage.
    // Any rung that assembles CSR (the differential oracle, the baseline
    // Krylov solvers) pays values + column indices + row pointers for
    // every interior unknown; the matrix-free operator path pays nothing.
    let footprint = fdm::sparse::csr_footprint_bytes(target.rows, target.cols);
    let capacity = config.dram().capacity_bytes();
    if footprint > capacity {
        let gib = |b: u64| b as f64 / (1u64 << 30) as f64;
        report.push(
            Diagnostic::new(
                DiagCode::KrylovFootprintExceedsDram,
                "grid",
                format!(
                    "assembling the {}x{} grid's CSR system needs {:.2} GiB against \
                     {:.2} GiB of modeled DRAM: an assembled Krylov solve cannot be \
                     resident off chip",
                    target.rows,
                    target.cols,
                    gib(footprint),
                    gib(capacity)
                ),
            )
            .suggest(
                "use the matrix-free operator path (StencilOp / KrylovEngine), which \
                 assembles no matrix"
                    .to_string(),
            ),
        );
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_target() -> LintTarget {
        LintTarget::planned(FdmaxConfig::paper_default(), 24, 24, HwUpdateMethod::Jacobi)
    }

    #[test]
    fn paper_default_on_small_grid_has_no_errors() {
        let report = lint(&default_target());
        assert!(!report.has_errors(), "unexpected errors: {report}");
        // 64 PEs on 32 banks: the paper's own design warns by design.
        assert!(report.has(DiagCode::BankOversubscribed));
    }

    #[test]
    fn zero_parameter_is_fdx001() {
        let mut t = default_target();
        t.config.fifo_depth = 0;
        let report = lint(&t);
        assert!(report.has_errors());
        assert!(report.has(DiagCode::ZeroParameter));
        let d = report.errors().next().unwrap();
        assert_eq!(d.field, "fifo_depth");
        assert!(d.suggestion.is_some());
    }

    #[test]
    fn tiny_grid_is_fdx007() {
        let mut t = default_target();
        t.rows = 2;
        let report = lint(&t);
        assert!(report.has(DiagCode::GridTooSmall));
        assert!(report.has_errors());
    }

    #[test]
    fn bad_elastic_is_fdx002() {
        let mut t = default_target();
        t.elastic = Some(ElasticConfig {
            subarrays: 3,
            width: 24,
        });
        let report = lint(&t);
        assert!(report.has(DiagCode::ElasticMismatch));
    }

    #[test]
    fn dead_subarrays_is_fdx006_warn() {
        let mut t = default_target();
        t.rows = 5; // 3 interior rows, 8 subarrays
        t.elastic = Some(ElasticConfig {
            subarrays: 8,
            width: 8,
        });
        let report = lint(&t);
        assert!(report.has(DiagCode::DeadSubarrays));
        assert!(!report.has_errors(), "dead subarrays are a warning");
    }

    #[test]
    fn thin_strips_are_fdx012_warn() {
        let mut t = default_target();
        t.rows = 10; // 8 interior rows over 8 subarrays: 1-row strips
        t.elastic = Some(ElasticConfig {
            subarrays: 8,
            width: 8,
        });
        let report = lint(&t);
        assert!(report.has(DiagCode::HaloDominatedStrips));
        assert!(!report.has_errors(), "halo-dominated strips are a warning");
        let d = report
            .diagnostics()
            .iter()
            .find(|d| d.code == DiagCode::HaloDominatedStrips)
            .unwrap();
        assert!(d.suggestion.is_some());
    }

    #[test]
    fn coarse_strips_do_not_trip_fdx012() {
        // One strip (no halo exchange at all) and strips of >= 3 rows
        // both stay silent.
        let mut t = default_target();
        t.rows = 50;
        t.elastic = Some(ElasticConfig {
            subarrays: 1,
            width: 64,
        });
        assert!(!lint(&t).has(DiagCode::HaloDominatedStrips));
        t.elastic = Some(ElasticConfig {
            subarrays: 8,
            width: 8,
        });
        // 48 interior rows / 8 strips = 6 rows each.
        assert!(!lint(&t).has(DiagCode::HaloDominatedStrips));
    }

    #[test]
    fn oversized_block_is_fdx003() {
        let plan = PlanSpec {
            width: 4,
            fifo_depth: 4,
            cols: 8,
            blocks: vec![RowRange {
                out_lo: 1,
                out_hi: 11,
            }],
            batches: col_batches(8, 4),
        };
        let report = lint_plan(&plan);
        assert!(report.has(DiagCode::FifoDepthExceeded));
        assert!(report.has_errors());
    }

    #[test]
    fn seam_gap_is_fdx004() {
        let plan = PlanSpec {
            width: 4,
            fifo_depth: 64,
            cols: 12,
            blocks: vec![RowRange {
                out_lo: 1,
                out_hi: 5,
            }],
            batches: vec![ColBatch { c0: 0, c1: 4 }, ColBatch { c0: 6, c1: 12 }],
        };
        let report = lint_plan(&plan);
        assert!(report.has(DiagCode::HaloSeamUncovered));
    }

    #[test]
    fn missing_head_batch_is_fdx010() {
        let plan = PlanSpec {
            width: 4,
            fifo_depth: 64,
            cols: 12,
            blocks: vec![RowRange {
                out_lo: 1,
                out_hi: 5,
            }],
            batches: vec![ColBatch { c0: 4, c1: 8 }, ColBatch { c0: 8, c1: 12 }],
        };
        let report = lint_plan(&plan);
        assert!(report.has(DiagCode::ScheduleUnderflow));
    }

    #[test]
    fn hybrid_seams_are_fdx008_info() {
        let t = LintTarget::planned(
            FdmaxConfig::paper_default(),
            200,
            200,
            HwUpdateMethod::Hybrid,
        );
        let report = lint(&t);
        assert!(report.has(DiagCode::HybridSeamFallback));
        assert!(!report.has_errors());
    }

    #[test]
    fn off_chip_grid_is_fdx009_info() {
        let t = LintTarget::planned(
            FdmaxConfig::paper_default(),
            200,
            200,
            HwUpdateMethod::Jacobi,
        );
        let report = lint(&t);
        assert!(report.has(DiagCode::OffChipResident));
        assert_eq!(
            report
                .diagnostics()
                .iter()
                .find(|d| d.code == DiagCode::OffChipResident)
                .unwrap()
                .severity(),
            Severity::Info
        );
    }

    #[test]
    fn oversized_krylov_assembly_is_fdx014_warn() {
        let cfg = FdmaxConfig::paper_default();
        let big = LintTarget::planned(cfg, 8192, 8192, HwUpdateMethod::Jacobi);
        let report = lint(&big);
        let diag = report
            .diagnostics()
            .iter()
            .find(|d| d.code == DiagCode::KrylovFootprintExceedsDram)
            .expect("an 8192^2 CSR system cannot fit 4 GiB of DRAM");
        assert_eq!(diag.severity(), Severity::Warn, "avoidable, not fatal");
        assert!(diag.message.contains("GiB"));
        assert!(diag.suggestion.as_deref().unwrap().contains("matrix-free"));

        // Below the capacity threshold (~7000^2 at 4 GiB) nothing fires.
        let small = LintTarget::planned(cfg, 6000, 6000, HwUpdateMethod::Jacobi);
        assert!(!lint(&small).has(DiagCode::KrylovFootprintExceedsDram));
    }

    #[test]
    fn overcommitted_service_is_fdx011_warn() {
        let report = lint_service(&ServiceSpec {
            queue_capacity: 16,
            max_job_iterations: 1_000,
            deadline_iterations: 4_000,
            checkpoint_every: None,
            journal_dir: None,
        });
        assert!(report.has(DiagCode::ServiceOvercommitted));
        assert!(!report.has_errors(), "an overcommit is a warning");
        let d = &report.diagnostics()[0];
        assert!(d.message.contains("16000"));
        assert!(d.suggestion.as_deref().unwrap().contains("16000"));

        // A sizing that honours the invariant is clean.
        let clean = lint_service(&ServiceSpec {
            queue_capacity: 16,
            max_job_iterations: 1_000,
            deadline_iterations: 16_000,
            checkpoint_every: None,
            journal_dir: None,
        });
        assert!(clean.is_clean());
    }

    #[test]
    fn unreachable_checkpoint_cadence_is_fdx013_warn() {
        let spec = ServiceSpec {
            queue_capacity: 4,
            max_job_iterations: 1_000,
            deadline_iterations: 4_000,
            checkpoint_every: Some(4_000),
            journal_dir: Some("/tmp/journal-a".to_string()),
        };
        let report = lint_service(&spec);
        assert!(report.has(DiagCode::DurabilityMisconfigured));
        assert!(!report.has_errors(), "an unreachable cadence is a warning");

        // A reachable cadence — or an explicit 0 (disabled) — is clean.
        for every in [Some(64), Some(0), None] {
            let clean = lint_service(&ServiceSpec {
                checkpoint_every: every,
                ..spec.clone()
            });
            assert!(!clean.has(DiagCode::DurabilityMisconfigured), "{every:?}");
        }
    }

    #[test]
    fn shared_journal_dir_is_fdx013_error() {
        let spec = |dir: &str| ServiceSpec {
            queue_capacity: 4,
            max_job_iterations: 1_000,
            deadline_iterations: 4_000,
            checkpoint_every: Some(64),
            journal_dir: Some(dir.to_string()),
        };
        let fleet = [
            spec("/var/fdmax/a"),
            spec("/var/fdmax/b"),
            spec("/var/fdmax/a"),
        ];
        let report = lint_service_fleet(&fleet);
        assert!(report.has(DiagCode::DurabilityMisconfigured));
        assert!(report.has_errors(), "a journal collision corrupts recovery");
        assert_eq!(report.errors().count(), 1, "one collision, one error");

        // Distinct directories (or no durability at all) are clean.
        let distinct = [spec("/var/fdmax/a"), spec("/var/fdmax/b")];
        assert!(lint_service_fleet(&distinct).is_clean());
    }

    #[test]
    fn codes_are_stable_and_parse_back() {
        for code in ALL_CODES {
            assert_eq!(DiagCode::parse(code.as_str()), Some(code));
            assert!(code.as_str().starts_with("FDX0"));
            assert!(!code.title().is_empty());
        }
        assert_eq!(DiagCode::parse("FDX999"), None);
    }

    #[test]
    fn every_code_has_a_real_explanation() {
        // `fdmax-lint --explain` and the SARIF rule table print the same
        // per-code documentation the rustdoc comments carry; a code with
        // an empty or placeholder doc would ship an unexplained refusal.
        for code in ALL_CODES {
            let text = code.explanation();
            assert!(!text.trim().is_empty(), "{code} has no explanation");
            assert!(
                text.trim_start().starts_with(code.as_str()),
                "{code}'s explanation must lead with its own code for --explain"
            );
            assert!(
                text.split_whitespace().count() >= 8,
                "{code}'s explanation is a stub: {text:?}"
            );
        }
    }

    #[test]
    fn report_display_and_queries() {
        let clean = LintReport::new();
        assert!(clean.is_clean());
        assert!(clean.is_empty());
        assert_eq!(clean.worst(), None);
        assert_eq!(clean.to_string(), "lint clean");

        let mut t = default_target();
        t.config.pe_rows = 0;
        let report = lint(&t);
        assert_eq!(report.worst(), Some(Severity::Error));
        assert!(!report.is_empty());
        assert!(report.to_string().contains("FDX001"));
        assert!(Severity::Error > Severity::Warn && Severity::Warn > Severity::Info);
    }
}
