//! Chaos/soak benchmark of the resilient solve service.
//!
//! Replays the fixed seed matrix of `tests/service_chaos.rs` at soak
//! scale — hundreds of mixed-PDE jobs per seed under parity-detected
//! SRAM upsets and a flaky DMA bus — then runs one deterministic
//! kill/recover cycle per seed against the durable service (half the
//! jobs complete, the journal loses its tail mid-frame, recovery
//! resumes and finishes), then drives the multi-tenant front end
//! through a sustained overload (three tenants offering jobs at more
//! than twice the pool's service rate, one of them an adversarial
//! flooder), and emits `BENCH_service.json` with throughput, latency
//! percentiles, the fallback rate, the recovery counts and the
//! `overload` block (shed rate, per-tenant queueing-delay percentiles).
//!
//! Every reported metric lives in the *simulated* domain (cycles at the
//! configured clock), so the artifact is bit-reproducible: CI regenerates
//! it and fails if the checked-in copy drifts.
//!
//! Run with: `cargo run --release --example chaos_soak`

use fdm::convergence::StopCondition;
use fdm::pde::PdeKind;
use fdm::workload::benchmark_problem;
use fdmax::accelerator::HwUpdateMethod;
use fdmax::config::FdmaxConfig;
use fdmax::durability::{decode_journal, DurabilityConfig, JournalRecord, JOURNAL_FILE};
use fdmax::resilience::ResiliencePolicy;
use fdmax::service::frontend::{Frontend, FrontendConfig, TenantConfig, TenantPriority};
use fdmax::service::{
    JobOutcome, JobSpec, Rung, ServiceConfig, ServiceReport, SolveService, SubmitError, TenantId,
};
use memmodel::faults::{EccMode, FaultCampaign};
use std::path::Path;

/// The same seed matrix the chaos tests pin.
const SEEDS: [u64; 3] = [0xA5A5, 0x00C1_05ED, 0xFD11_2233];
const JOBS_PER_SEED: u64 = 150;

const KINDS: [PdeKind; 4] = [
    PdeKind::Laplace,
    PdeKind::Poisson,
    PdeKind::Heat,
    PdeKind::Wave,
];

fn chaos_config(seed: u64) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(FdmaxConfig::paper_default());
    cfg.queue_capacity = 8;
    cfg.max_job_iterations = 40;
    cfg.deadline_iterations = 8 * 40;
    cfg.campaign = FaultCampaign {
        seed,
        sram_flips_per_iteration: 0.05,
        ecc: EccMode::Parity,
        dma_failure_prob: 0.005,
        max_dma_retries: 4,
        dma_backoff_cycles: 16,
    };
    cfg
}

fn mixed_spec(i: u64) -> JobSpec {
    let kind = KINDS[(i % 4) as usize];
    let n = 10 + (i as usize * 3) % 12;
    let steps = 8 + (i as usize * 7) % 32;
    let sp = benchmark_problem::<f32>(kind, n, steps).expect("benchmark problem");
    let method = if i.is_multiple_of(3) {
        HwUpdateMethod::Hybrid
    } else {
        HwUpdateMethod::Jacobi
    };
    JobSpec::new(sp, method, StopCondition::fixed_steps(steps))
}

/// Interleaved submit/drain soak, identical to the test harness: every
/// 17th job is cancelled right after admission, saturation drains one.
fn soak(seed: u64) -> (Vec<ServiceReport>, SolveService) {
    let mut svc = SolveService::new(chaos_config(seed));
    let mut reports = Vec::new();
    let mut admitted = 0u64;
    while admitted < JOBS_PER_SEED {
        match svc.submit(mixed_spec(admitted)) {
            Ok(ticket) => {
                if admitted.is_multiple_of(17) {
                    ticket.cancel.cancel();
                }
                admitted += 1;
            }
            Err(SubmitError::Saturated { .. }) => {
                reports.push(svc.run_next().expect("saturated queue is non-empty"));
            }
            Err(SubmitError::Rejected(e)) => panic!("valid job rejected: {e}"),
        }
    }
    reports.extend(svc.drain());
    (reports, svc)
}

const RECOVERY_JOBS: u64 = 8;

/// Durable variant for the kill/recover cycles: dense parity-detected
/// flips with a zero retry budget make the detailed rung fail every
/// job, so the checkpoint-taking reference rung serves — the
/// interesting case for recovery.
fn recovery_config(dir: &Path, seed: u64) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(FdmaxConfig::paper_default());
    cfg.campaign = FaultCampaign {
        sram_flips_per_iteration: 5.0,
        dma_failure_prob: 0.0,
        ..FaultCampaign::harsh(seed)
    };
    cfg.policy = ResiliencePolicy {
        max_retries: 0,
        ..ResiliencePolicy::default()
    };
    cfg.with_durability(DurabilityConfig::new(dir).with_checkpoint_every(7))
}

struct RecoveryRow {
    jobs_recovered: u64,
    resumed_from_checkpoint: u64,
    torn_tail: bool,
    digest_matches: u64,
    digest_mismatches: u64,
}

/// One deterministic kill/recover cycle: half the jobs complete, the
/// process "dies", the journal loses its tail mid-frame (a torn
/// append), and recovery resumes the interrupted job from its last
/// checkpoint and replays the rest — every digest compared against the
/// run that never crashed.
fn kill_recover_cycle(seed: u64) -> RecoveryRow {
    let tmp = |tag: &str| {
        let d = std::env::temp_dir().join(format!(
            "fdmax-soak-recov-{tag}-{seed:x}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    };

    // Ground truth: the same workload, never interrupted.
    let base = tmp("base");
    let mut svc = SolveService::new(recovery_config(&base, seed));
    for i in 0..RECOVERY_JOBS {
        let _ = svc.submit(mixed_spec(i)).expect("admitted");
    }
    let truth: std::collections::BTreeMap<u64, u64> =
        svc.drain().iter().map(|r| (r.job.0, r.digest())).collect();
    std::fs::remove_dir_all(&base).expect("cleanup");

    // The doomed run: half the jobs complete, then the crash.
    let dir = tmp("crash");
    let mut doomed = SolveService::new(recovery_config(&dir, seed));
    for i in 0..RECOVERY_JOBS {
        let _ = doomed.submit(mixed_spec(i)).expect("admitted");
    }
    for _ in 0..RECOVERY_JOBS / 2 {
        let _ = doomed.run_next().expect("queued");
    }
    drop(doomed);

    // Cut the journal five bytes past the last persisted checkpoint:
    // the final Completed record is torn open, so its job was mid-solve
    // as far as any future scan can tell.
    let journal_path = dir.join(JOURNAL_FILE);
    let bytes = std::fs::read(&journal_path).expect("journal exists");
    let mut cut = 0usize;
    let mut end = 0usize;
    for record in &decode_journal(&bytes).records {
        end += record.encode().len();
        if matches!(record, JournalRecord::CheckpointTaken { .. }) {
            cut = end;
        }
    }
    let torn_cut = (cut + 5).min(bytes.len());
    std::fs::write(&journal_path, &bytes[..torn_cut]).expect("truncate journal");

    let (mut revived, summary) = SolveService::recover(recovery_config(&dir, seed));
    let mut digest_matches = 0u64;
    let mut digest_mismatches = 0u64;
    for report in revived.drain() {
        if truth[&report.job.0] == report.digest() {
            digest_matches += 1;
        } else {
            digest_mismatches += 1;
        }
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
    RecoveryRow {
        jobs_recovered: summary.jobs_recovered,
        resumed_from_checkpoint: summary.resumed_from_checkpoint,
        torn_tail: summary.torn_tail,
        digest_matches,
        digest_mismatches,
    }
}

/// Jobs offered to the front end across the overload scenario.
const OVERLOAD_JOBS: u64 = 12_000;
/// Worker pool size for the overload scenario; the arrival pattern
/// offers five jobs per scheduler round against it.
const OVERLOAD_WORKERS: usize = 2;

const CRITICAL: TenantId = TenantId(1);
const STANDARD: TenantId = TenantId(2);
const FLOOD: TenantId = TenantId(3);

/// Mixed-PDE job stream for the overload scenario: small grids and
/// varied step counts, entered at the reference rung to keep 12k jobs
/// tractable.
fn overload_spec(i: u64) -> JobSpec {
    let kind = KINDS[(i % 4) as usize];
    let n = 8 + (i as usize * 5) % 9;
    let steps = 4 + (i as usize * 11) % 37;
    let sp = benchmark_problem::<f32>(kind, n, steps).expect("benchmark problem");
    JobSpec::new(
        sp,
        HwUpdateMethod::Jacobi,
        StopCondition::fixed_steps(steps),
    )
    .with_entry_rung(Rung::Reference)
}

fn overload_frontend() -> Frontend {
    let mut service = ServiceConfig::new(FdmaxConfig::paper_default());
    service.max_job_iterations = 64;
    service.deadline_iterations = 4_000;
    let config = FrontendConfig::new(service, OVERLOAD_WORKERS)
        .with_tenant(
            CRITICAL,
            TenantConfig {
                weight: 2,
                max_queued: 8,
                max_in_flight: 2,
                priority: TenantPriority::Critical,
            },
        )
        .with_tenant(
            STANDARD,
            TenantConfig {
                weight: 2,
                max_queued: 8,
                max_in_flight: 2,
                priority: TenantPriority::Standard,
            },
        )
        .with_tenant(
            FLOOD,
            TenantConfig {
                weight: 1,
                max_queued: 8,
                max_in_flight: 2,
                priority: TenantPriority::Standard,
            },
        )
        .with_queue_delay_budget(60);
    Frontend::new(config)
}

struct OverloadTenantRow {
    tenant: TenantId,
    role: &'static str,
    admitted: u64,
    completed: u64,
    shed: u64,
    rejected_quota: u64,
    brownout_dispatches: u64,
    p50_delay: u64,
    p99_delay: u64,
}

struct OverloadRow {
    offered: u64,
    admitted: u64,
    completed: u64,
    shed: u64,
    rejected_quota: u64,
    deadline_misses: u64,
    brownout_dispatches: u64,
    rounds: u64,
    tenants: Vec<OverloadTenantRow>,
}

impl OverloadRow {
    fn shed_rate(&self) -> f64 {
        self.shed as f64 / self.offered.max(1) as f64
    }
}

/// Sustained overload: every scheduler round offers one critical, one
/// standard and three adversarial-flood jobs against a pool that
/// serves at most [`OVERLOAD_WORKERS`] — quotas bound the queues, the
/// shedder and the brownout ladder bound the delay, and every metric
/// is a pure function of the (virtual-time) schedule.
fn overload_scenario() -> OverloadRow {
    let mut fe = overload_frontend();
    let mut offered = 0u64;
    while offered < OVERLOAD_JOBS {
        for tenant in [CRITICAL, STANDARD, FLOOD, FLOOD, FLOOD] {
            if offered >= OVERLOAD_JOBS {
                break;
            }
            // Refusals (quota, shed) are tallied by the front end.
            let _ = fe.submit(overload_spec(offered).with_tenant(tenant));
            offered += 1;
        }
        let _ = fe.run_round();
    }
    let _ = fe.drain();

    let stats = fe.stats();
    let tenants = [
        (CRITICAL, "critical"),
        (STANDARD, "standard"),
        (FLOOD, "adversarial"),
    ]
    .into_iter()
    .map(|(id, role)| {
        let t = fe.tenant_stats(id).expect("registered tenant");
        OverloadTenantRow {
            tenant: id,
            role,
            admitted: t.admitted,
            completed: t.completed,
            shed: t.shed,
            rejected_quota: t.rejected_quota,
            brownout_dispatches: t.brownout_dispatches,
            p50_delay: t.delay_percentile(50).unwrap_or(0),
            p99_delay: t.delay_percentile(99).unwrap_or(0),
        }
    })
    .collect();
    OverloadRow {
        offered,
        admitted: stats.admitted,
        completed: stats.completed,
        shed: stats.shed,
        rejected_quota: stats.rejected_quota,
        deadline_misses: stats.deadline_misses,
        brownout_dispatches: stats.brownout_dispatches,
        rounds: stats.rounds,
        tenants,
    }
}

/// The `overload` block of `BENCH_service.json`, rendered exactly once
/// so the replay assertion and the artifact share bytes.
fn overload_json(o: &OverloadRow) -> String {
    let per_tenant = o
        .tenants
        .iter()
        .map(|t| {
            format!(
                "      {{\n        \"tenant\": {},\n        \"role\": \"{}\",\n        \
                 \"admitted\": {},\n        \"completed\": {},\n        \
                 \"shed\": {},\n        \"rejected_quota\": {},\n        \
                 \"brownout_dispatches\": {},\n        \
                 \"p50_queue_delay_iterations\": {},\n        \
                 \"p99_queue_delay_iterations\": {}\n      }}",
                t.tenant.0,
                t.role,
                t.admitted,
                t.completed,
                t.shed,
                t.rejected_quota,
                t.brownout_dispatches,
                t.p50_delay,
                t.p99_delay
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n    \"workers\": {},\n    \"offered\": {},\n    \"admitted\": {},\n    \
         \"completed\": {},\n    \"shed\": {},\n    \"rejected_quota\": {},\n    \
         \"shed_rate\": {:.6},\n    \"deadline_misses\": {},\n    \
         \"brownout_dispatches\": {},\n    \"scheduler_rounds\": {},\n    \
         \"per_tenant\": [\n{per_tenant}\n    ]\n  }}",
        OVERLOAD_WORKERS,
        o.offered,
        o.admitted,
        o.completed,
        o.shed,
        o.rejected_quota,
        o.shed_rate(),
        o.deadline_misses,
        o.brownout_dispatches,
        o.rounds,
    )
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

struct SeedRow {
    seed: u64,
    served: u64,
    fallback_rate: f64,
    p50: u64,
    p99: u64,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let wall = std::time::Instant::now();
    let clock_hz = FdmaxConfig::paper_default().clock_hz;

    let mut all_latencies: Vec<u64> = Vec::new();
    let mut rows: Vec<SeedRow> = Vec::new();
    let mut served = 0u64;
    let mut cancelled = 0u64;
    let mut failed = 0u64;
    let mut deadline_misses = 0u64;
    let mut transitions = 0u64;
    let mut total_cycles = 0u64;

    for seed in SEEDS {
        let (reports, svc) = soak(seed);
        let stats = svc.stats();
        let mut latencies: Vec<u64> = reports
            .iter()
            .filter(|r| matches!(r.outcome, JobOutcome::Served { .. }))
            .map(|r| r.latency_cycles)
            .collect();
        latencies.sort_unstable();
        total_cycles += latencies.iter().sum::<u64>();
        served += stats.served;
        cancelled += stats.cancelled;
        failed += stats.failed;
        deadline_misses += stats.deadline_misses;
        transitions += svc.transitions().len() as u64;
        rows.push(SeedRow {
            seed,
            served: stats.served,
            fallback_rate: stats.fallback_rate(),
            p50: percentile(&latencies, 0.50),
            p99: percentile(&latencies, 0.99),
        });
        all_latencies.extend(latencies);
        println!(
            "seed {seed:#010x}: {} served, {} cancelled, {} failed, \
             fallback rate {:.3}, {} breaker transition(s)",
            stats.served,
            stats.cancelled,
            stats.failed,
            stats.fallback_rate(),
            svc.transitions().len()
        );
    }

    let mut recovery_rows: Vec<RecoveryRow> = Vec::new();
    for seed in SEEDS {
        let row = kill_recover_cycle(seed);
        println!(
            "recovery seed {seed:#010x}: {} re-admitted, {} resumed from a \
             checkpoint, torn tail {}, {}/{} digests match the uncrashed run",
            row.jobs_recovered,
            row.resumed_from_checkpoint,
            row.torn_tail,
            row.digest_matches,
            row.digest_matches + row.digest_mismatches
        );
        assert_eq!(
            row.digest_mismatches, 0,
            "seed {seed:#x}: recovery diverged from the uninterrupted run"
        );
        recovery_rows.push(row);
    }
    let jobs_recovered: u64 = recovery_rows.iter().map(|r| r.jobs_recovered).sum();
    let resumed: u64 = recovery_rows
        .iter()
        .map(|r| r.resumed_from_checkpoint)
        .sum();
    let torn_tails: u64 = recovery_rows.iter().map(|r| u64::from(r.torn_tail)).sum();
    let digest_matches: u64 = recovery_rows.iter().map(|r| r.digest_matches).sum();

    // Overload: run the whole scenario twice — the schedule lives
    // entirely in virtual time, so the two runs must agree bit for bit
    // (the deterministic-replay contract, enforced before the artifact
    // is written).
    let overload = overload_scenario();
    let overload_block = overload_json(&overload);
    assert_eq!(
        overload_block,
        overload_json(&overload_scenario()),
        "overload scenario diverged between two identical runs"
    );
    assert_eq!(
        overload.deadline_misses, 0,
        "an admitted job missed its deadline under overload"
    );
    assert_eq!(
        overload.offered,
        overload.admitted + overload.shed + overload.rejected_quota,
        "every offered job is admitted, shed or quota-refused"
    );
    println!(
        "overload: {}/{} admitted ({} shed, {} quota-refused), {} completed \
         across {} round(s), {} brownout dispatch(es), shed rate {:.3}",
        overload.admitted,
        overload.offered,
        overload.shed,
        overload.rejected_quota,
        overload.completed,
        overload.rounds,
        overload.brownout_dispatches,
        overload.shed_rate()
    );
    for t in &overload.tenants {
        println!(
            "  {} ({}): {} admitted, {} completed, {} shed, {} quota-refused, \
             queue delay p50 {} / p99 {} iterations",
            t.tenant,
            t.role,
            t.admitted,
            t.completed,
            t.shed,
            t.rejected_quota,
            t.p50_delay,
            t.p99_delay
        );
    }

    all_latencies.sort_unstable();
    let submitted = SEEDS.len() as u64 * JOBS_PER_SEED;
    let fallback_rate = rows
        .iter()
        .map(|r| r.fallback_rate * r.served as f64)
        .sum::<f64>()
        / served.max(1) as f64;
    let simulated_seconds = total_cycles as f64 / clock_hz;
    let jobs_per_sim_sec = served as f64 / simulated_seconds.max(f64::MIN_POSITIVE);
    let p50 = percentile(&all_latencies, 0.50);
    let p99 = percentile(&all_latencies, 0.99);

    let per_seed = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"seed\": \"{:#010x}\",\n      \"served\": {},\n      \
                 \"fallback_rate\": {:.6},\n      \"p50_latency_cycles\": {},\n      \
                 \"p99_latency_cycles\": {}\n    }}",
                r.seed, r.served, r.fallback_rate, r.p50, r.p99
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"benchmark\": \"service_chaos_soak\",\n  \
         \"clock_mhz\": {:.1},\n  \
         \"jobs_submitted\": {submitted},\n  \
         \"jobs_served\": {served},\n  \
         \"jobs_cancelled\": {cancelled},\n  \
         \"jobs_failed\": {failed},\n  \
         \"deadline_misses\": {deadline_misses},\n  \
         \"breaker_transitions\": {transitions},\n  \
         \"fallback_rate\": {fallback_rate:.6},\n  \
         \"jobs_per_simulated_sec\": {jobs_per_sim_sec:.3},\n  \
         \"p50_latency_cycles\": {p50},\n  \
         \"p99_latency_cycles\": {p99},\n  \
         \"recovery\": {{\n    \
         \"kill_recover_cycles\": {},\n    \
         \"jobs_recovered\": {jobs_recovered},\n    \
         \"resumed_from_checkpoint\": {resumed},\n    \
         \"torn_tails\": {torn_tails},\n    \
         \"digest_matches\": {digest_matches},\n    \
         \"digest_mismatches\": 0\n  }},\n  \
         \"overload\": {overload_block},\n  \
         \"per_seed\": [\n{per_seed}\n  ]\n}}\n",
        clock_hz / 1e6,
        recovery_rows.len(),
    );
    std::fs::write("BENCH_service.json", &json)?;

    println!();
    println!(
        "total: {served}/{submitted} served ({cancelled} cancelled, {failed} failed), \
         {deadline_misses} deadline miss(es)"
    );
    println!(
        "latency p50 {p50} / p99 {p99} simulated cycles; \
         {jobs_per_sim_sec:.1} jobs per simulated second; \
         fallback rate {fallback_rate:.3}"
    );
    println!(
        "recovery: {jobs_recovered} jobs re-admitted across {} kill/recover \
         cycle(s), {resumed} resumed from a checkpoint, {torn_tails} torn \
         tail(s), every digest bit-identical",
        recovery_rows.len()
    );
    println!(
        "wrote BENCH_service.json in {:.2}s of wall time",
        wall.elapsed().as_secs_f64()
    );
    Ok(())
}
