//! Property suite for the multi-tenant front end
//! ([`fdmax::service::frontend`]): no starvation under scarce workers,
//! quotas as hard bounds, deterministic shed/brownout decisions
//! under replay, a 10k-job mixed-tenant soak with bounded queue
//! memory and zero deadline misses for admitted jobs, and a
//! mid-overload kill/recover cycle whose replayed digests match the
//! run that never crashed.
//!
//! Every scenario is driven by a seeded [`DetRng`], and every clock in
//! the system is virtual (engine iterations), so each property is a
//! pure function of its seed.

use detrng::DetRng;
use fdm::convergence::StopCondition;
use fdm::pde::PdeKind;
use fdm::workload::benchmark_problem;
use fdmax::accelerator::HwUpdateMethod;
use fdmax::config::FdmaxConfig;
use fdmax::durability::DurabilityConfig;
use fdmax::resilience::ResiliencePolicy;
use fdmax::service::frontend::{
    Frontend, FrontendConfig, FrontendReport, TenantConfig, TenantPriority,
};
use fdmax::service::{JobSpec, Rung, ServiceConfig, TenantId};
use memmodel::faults::FaultCampaign;
use std::collections::BTreeMap;

const KINDS: [PdeKind; 4] = [
    PdeKind::Laplace,
    PdeKind::Poisson,
    PdeKind::Heat,
    PdeKind::Wave,
];

/// A cheap job: tiny grid, a few software-rung sweeps, varied enough
/// that latency rings and queue delays see real spread.
fn cheap_job(rng: &mut DetRng, tenant: TenantId) -> JobSpec {
    let kind = KINDS[rng.gen_range(0, KINDS.len())];
    let steps = 2 + rng.gen_range(0, 10);
    let sp = benchmark_problem::<f32>(kind, 8, steps).expect("benchmark problem");
    JobSpec::new(
        sp,
        HwUpdateMethod::Jacobi,
        StopCondition::fixed_steps(steps),
    )
    .with_entry_rung(Rung::Software)
    .with_tenant(tenant)
}

fn base_service() -> ServiceConfig {
    let mut cfg = ServiceConfig::new(FdmaxConfig::paper_default());
    cfg.max_job_iterations = 16;
    cfg.deadline_iterations = 5_000;
    cfg
}

/// One worker, three equally weighted tenants with standing backlogs:
/// with the rotating deficit-round-robin cursor, every tenant's
/// completed count strictly increases over any window of
/// `2 * tenants` consecutive rounds — nobody waits unboundedly behind
/// a lower `TenantId`.
#[test]
fn no_tenant_starves_under_a_scarce_pool() {
    let tenants = [TenantId(1), TenantId(2), TenantId(3)];
    let mut config = FrontendConfig::new(base_service(), 1);
    for t in tenants {
        config = config.with_tenant(
            t,
            TenantConfig {
                max_queued: 12,
                ..TenantConfig::default()
            },
        );
    }
    let mut fe = Frontend::new(config);
    let mut rng = DetRng::seed_from_u64(0xFA1);
    for round in 0..10u64 {
        for t in tenants {
            let _ = fe.submit(cheap_job(&mut rng, t)).expect("within quota");
        }
        let _ = round;
    }
    let mut last: BTreeMap<TenantId, u64> = tenants.iter().map(|&t| (t, 0)).collect();
    let window = 2 * tenants.len();
    let mut rounds_in_window = 0usize;
    while fe.backlog() > 0 {
        let _ = fe.run_round();
        rounds_in_window += 1;
        if rounds_in_window == window {
            for t in tenants {
                let done = fe.tenant_stats(t).expect("registered").completed;
                let backlogged = fe.tenant_backlog(t) > 0;
                assert!(
                    done > last[&t] || !backlogged,
                    "{t} starved: stuck at {done} completed with a backlog \
                     after {window} rounds"
                );
                last.insert(t, done);
            }
            rounds_in_window = 0;
        }
    }
    for t in tenants {
        assert_eq!(fe.tenant_stats(t).expect("registered").completed, 10);
    }
}

/// Quotas are hard bounds at every instant: a tenant's frontend
/// backlog never exceeds `max_queued`, and no scheduler round
/// dispatches more than `max_in_flight` of its jobs. Driven by a
/// random mixed-tenant arrival pattern aggressive enough that both
/// bounds are actually hit.
#[test]
fn quotas_are_never_exceeded() {
    let quota = |max_queued, max_in_flight| TenantConfig {
        max_queued,
        max_in_flight,
        ..TenantConfig::default()
    };
    let tenants = [
        (TenantId(1), quota(2, 1)),
        (TenantId(2), quota(5, 2)),
        (TenantId(3), quota(3, 1)),
    ];
    let mut config = FrontendConfig::new(base_service(), 3);
    for (t, q) in tenants {
        config = config.with_tenant(t, q);
    }
    let mut fe = Frontend::new(config);
    let mut rng = DetRng::seed_from_u64(0x0_0AD);
    let mut offered = 0u64;
    while offered < 1_000 {
        // Burst 0..6 arrivals at a random tenant, then one round.
        for _ in 0..rng.gen_range(0, 6) {
            let (t, q) = tenants[rng.gen_range(0, tenants.len())];
            let _ = fe.submit(cheap_job(&mut rng, t));
            offered += 1;
            assert!(
                fe.tenant_backlog(t) <= q.max_queued,
                "{t} backlog exceeded max_queued={}",
                q.max_queued
            );
        }
        let reports = fe.run_round();
        for (t, q) in tenants {
            let dispatched = reports.iter().filter(|r| r.tenant == t).count();
            assert!(
                dispatched <= q.max_in_flight,
                "{t} had {dispatched} jobs in one round (quota {})",
                q.max_in_flight
            );
        }
    }
    let _ = fe.drain();
    let stats = fe.stats();
    assert!(stats.rejected_quota > 0, "the pattern never hit a quota");
    assert_eq!(stats.admitted, stats.completed + stats.cancelled_queued);
}

/// An overloaded front end with shedding and brownout both armed
/// makes bit-identical decisions on replay: two runs from the same
/// seed produce the same report sequence (tenant, worker, delay, entry
/// rung, solution digest) and the same stats; a different seed
/// produces a different schedule.
#[test]
fn shed_and_brownout_decisions_replay_bit_identically() {
    /// `(tenant, worker, queue delay, entry rung index, solution digest)`.
    type TraceRow = (u64, u32, u64, usize, u64);
    fn scenario(seed: u64) -> (Vec<TraceRow>, String) {
        let config = FrontendConfig::new(base_service(), 2)
            .with_tenant(
                TenantId(1),
                TenantConfig {
                    priority: TenantPriority::Critical,
                    ..TenantConfig::default()
                },
            )
            .with_tenant(TenantId(2), TenantConfig::default())
            .with_tenant(TenantId(3), TenantConfig::default())
            .with_queue_delay_budget(10);
        let mut fe = Frontend::new(config);
        let mut rng = DetRng::seed_from_u64(seed);
        let mut reports: Vec<FrontendReport> = Vec::new();
        for _ in 0..200 {
            for _ in 0..4 {
                let t = TenantId(1 + rng.gen_range(0, 3) as u64);
                let _ = fe.submit(cheap_job(&mut rng, t));
            }
            reports.extend(fe.run_round());
        }
        reports.extend(fe.drain());
        let trace = reports
            .iter()
            .map(|r| {
                (
                    r.tenant.0,
                    r.worker,
                    r.queue_delay,
                    r.entry_rung.index(),
                    r.report.digest(),
                )
            })
            .collect();
        (trace, format!("{:?}", fe.stats()))
    }

    let (trace_a, stats_a) = scenario(0x5EED);
    let (trace_b, stats_b) = scenario(0x5EED);
    assert_eq!(trace_a, trace_b, "same seed, different schedule");
    assert_eq!(stats_a, stats_b);
    let (trace_c, _) = scenario(0x5EEE);
    assert_ne!(trace_a, trace_c, "the seed drives the schedule");
}

/// 10k mixed-tenant jobs through a 2-worker pool under sustained
/// overload: frontend queue memory stays bounded by the sum of
/// `max_queued` quotas the whole way, every admitted job completes,
/// and no admitted job misses its deadline (refusals absorb the
/// overload instead).
#[test]
fn soak_10k_jobs_bounded_memory_no_deadline_misses() {
    let tenants = [TenantId(1), TenantId(2), TenantId(3), TenantId(4)];
    let mut config = FrontendConfig::new(base_service(), 2);
    for t in tenants {
        config = config.with_tenant(t, TenantConfig::default());
    }
    let queue_bound: usize = tenants.len() * TenantConfig::default().max_queued;
    let mut fe = Frontend::new(config);
    let mut rng = DetRng::seed_from_u64(0x50AC);
    let mut offered = 0u64;
    while offered < 10_000 {
        for _ in 0..5 {
            if offered >= 10_000 {
                break;
            }
            let t = tenants[rng.gen_range(0, tenants.len())];
            let _ = fe.submit(cheap_job(&mut rng, t));
            offered += 1;
        }
        let _ = fe.run_round();
        assert!(
            fe.backlog() <= queue_bound,
            "frontend queue memory exceeded the quota bound {queue_bound}"
        );
    }
    let _ = fe.drain();
    let stats = fe.stats();
    assert_eq!(stats.admitted, offered - stats.rejected_quota - stats.shed);
    assert_eq!(
        stats.completed, stats.admitted,
        "every admitted job finished"
    );
    assert_eq!(
        stats.deadline_misses, 0,
        "an admitted job missed its deadline"
    );
    assert!(
        stats.rejected_quota > 0,
        "arrival rate never exceeded the service rate — not a soak"
    );
}

/// Mid-overload kill/recover: a durable pool dies with full frontend
/// queues and a torn journal tail on one worker; recovery re-runs the
/// interrupted job and every digest — replayed or not — matches the
/// run that never crashed.
#[test]
fn mid_overload_kill_recovers_every_worker_digest() {
    let tmp = |tag: &str| {
        let d =
            std::env::temp_dir().join(format!("fdmax-frontend-recov-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    };
    // Dense parity-detected flips with a zero retry budget push every
    // job off the detailed rung onto the checkpoint-taking reference
    // rung — the interesting case for torn-tail recovery.
    let config = |dir: &std::path::Path| {
        let mut service = ServiceConfig::new(FdmaxConfig::paper_default());
        service.campaign = FaultCampaign {
            sram_flips_per_iteration: 5.0,
            dma_failure_prob: 0.0,
            ..FaultCampaign::harsh(0xFEED)
        };
        service.policy = ResiliencePolicy {
            max_retries: 0,
            ..ResiliencePolicy::default()
        };
        let service = service.with_durability(DurabilityConfig::new(dir).with_checkpoint_every(5));
        FrontendConfig::new(service, 2)
            .with_tenant(TenantId(1), TenantConfig::default())
            .with_tenant(TenantId(2), TenantConfig::default())
    };
    let submit_all = |fe: &mut Frontend, rng: &mut DetRng| {
        for i in 0..12u64 {
            let t = TenantId(1 + i % 2);
            let _ = fe.submit(cheap_job(rng, t));
            let _ = t;
        }
    };

    // Ground truth: the same workload, never interrupted.
    let truth_dir = tmp("truth");
    let mut truth_rng = DetRng::seed_from_u64(0x1C1);
    let mut truth_fe = Frontend::new(config(&truth_dir));
    submit_all(&mut truth_fe, &mut truth_rng);
    let truth: BTreeMap<(u32, u64), u64> = truth_fe
        .drain()
        .iter()
        .map(|r| ((r.worker, r.report.job.0), r.report.digest()))
        .collect();
    std::fs::remove_dir_all(&truth_dir).expect("cleanup");

    // The doomed run dies after three rounds with jobs still queued.
    let dir = tmp("crash");
    let mut rng = DetRng::seed_from_u64(0x1C1);
    let mut doomed = Frontend::new(config(&dir));
    submit_all(&mut doomed, &mut rng);
    let mut seen: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    for _ in 0..3 {
        for r in doomed.run_round() {
            seen.insert((r.worker, r.report.job.0), r.report.digest());
        }
    }
    assert!(doomed.backlog() > 0, "the kill must land mid-overload");
    drop(doomed);

    // Tear worker 0's journal tail mid-record: its last completed job
    // now looks interrupted to any future scan.
    let journal = dir.join("worker0").join(fdmax::durability::JOURNAL_FILE);
    let bytes = std::fs::read(&journal).expect("worker journal exists");
    assert!(bytes.len() > 5);
    std::fs::write(&journal, &bytes[..bytes.len() - 5]).expect("tear the tail");

    let (mut revived, summaries) = Frontend::recover(config(&dir));
    assert_eq!(summaries.len(), 2, "one summary per worker");
    assert!(
        summaries[0].torn_tail,
        "the torn frame is detected, not silently replayed"
    );
    let replayed: Vec<FrontendReport> = revived.drain();
    assert!(
        !replayed.is_empty(),
        "the interrupted job is re-admitted and finished"
    );
    for r in &replayed {
        seen.insert((r.worker, r.report.job.0), r.report.digest());
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");

    // Every worker-admitted job — completed before the kill or
    // replayed after it — reproduces the uninterrupted run's digest.
    for (key, digest) in &seen {
        assert_eq!(
            truth.get(key),
            Some(digest),
            "worker {} job {} diverged from the uncrashed run",
            key.0,
            key.1
        );
    }
}
