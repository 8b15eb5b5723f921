//! `service_mix`: a closed loop of mixed jobs through the durable
//! multi-tenant front end.
//!
//! Four virtual clients, driven from one thread, each send their next
//! job only after the previous one's report came back. Jobs go to a
//! [`Frontend`] with two workers and two weighted tenants, admission
//! analysis and durability on, under a light seeded fault campaign.
//! Here simulator host time, admission analysis, journal writes and the
//! fallback chain dominate; there is no large-grid memory traffic.
//!
//! A job's wall time runs from its `submit` call until the round that
//! returned its report ends. Outputs are checked after the timed loop:
//! every `detailed-sim` solution must be bit-exact with
//! `fdmax::engine::solve_reference`, a clean simulator attempt's cycles
//! must equal `Accelerator::estimate`, and `Frontend::recover` over the
//! run's journals must restore every worker with each completed job's
//! `ServiceReport::digest()` intact.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

use fdm::engine::EngineStateImage;
use fdmax::accelerator::Accelerator;
use fdmax::config::FdmaxConfig;
use fdmax::durability::{
    decode_journal, read_journal, DurabilityConfig, FsyncPolicy, JobJournal, JournalRecord,
    JOURNAL_FILE,
};
use fdmax::elastic::ElasticConfig;
use fdmax::engine::solve_reference;
use fdmax::service::frontend::{Frontend, FrontendConfig, TenantConfig, TenantPriority};
use fdmax::service::{AttemptDisposition, JobSpec, Rung, ServiceConfig};
use memmodel::faults::{EccMode, FaultCampaign};

use super::{timed_setup, Ctx, Limit};
use crate::inputs::{JobStream, MixShape, TENANTS};
use crate::json::Json;
use crate::probes::{self, Layer};
use crate::trace::Tracer;
use crate::{Pass, Scale, THREADS};

/// Virtual clients in the closed loop.
pub const CLIENTS: usize = 4;
/// Workers in the front end's pool.
pub const WORKERS: usize = 2;

fn shape(scale: Scale) -> MixShape {
    match scale {
        Scale::Full => MixShape {
            min_n: 32,
            max_n: 128,
            max_tol_n: 64,
            min_steps: 50,
            max_steps: 300,
            tolerance: 1e-2,
        },
        Scale::Toy => MixShape {
            min_n: 16,
            max_n: 24,
            max_tol_n: 20,
            min_steps: 4,
            max_steps: 12,
            tolerance: 1e-2,
        },
    }
}

fn setup_reps(scale: Scale) -> usize {
    match scale {
        Scale::Full => 101,
        Scale::Toy => 2,
    }
}

/// The front end every pass builds: two workers, two weighted tenants,
/// admission analysis on (the service default), hedging off (the
/// service default), a light fault campaign the simulator rides out,
/// and a write-ahead journal under `journal_dir`.
///
/// The journal is never explicitly synced: the pass measures the
/// program's journal path, not the shared disk it happens to sit on,
/// and a process crash loses nothing the page cache holds.
#[must_use]
pub fn frontend_config(seed: u64, journal_dir: &Path) -> FrontendConfig {
    let mut service = ServiceConfig::new(FdmaxConfig::paper_default());
    service.parallel_threads = THREADS;
    service.campaign = FaultCampaign {
        seed: seed ^ 0xFA17,
        sram_flips_per_iteration: 0.002,
        ecc: EccMode::Secded,
        dma_failure_prob: 0.000_5,
        max_dma_retries: 4,
        dma_backoff_cycles: 16,
    };
    let service = service
        .with_durability(DurabilityConfig::new(journal_dir).with_fsync_policy(FsyncPolicy::Never));
    let tenant = |weight| TenantConfig {
        weight,
        max_queued: 8,
        max_in_flight: 2,
        priority: TenantPriority::Standard,
    };
    FrontendConfig::new(service, WORKERS)
        .with_tenant(TENANTS[0], tenant(2))
        .with_tenant(TENANTS[1], tenant(1))
}

/// What the pass keeps of one finished job: enough to check it after
/// the timed loop without holding its solution grid.
#[derive(Clone, Debug)]
struct Done {
    offer: usize,
    worker: u32,
    worker_job: u64,
    served_by: Option<Rung>,
    deadline_met: bool,
    iterations: u64,
    latency_cycles: u64,
    clean_sim: bool,
    checkpoints: u64,
    solution_hash: Option<u64>,
    digest: u64,
    attempts: usize,
    wasted_iterations: u64,
    total_iterations: u64,
}

fn grid_hash(values: &[f32]) -> u64 {
    values.iter().fold(fdmax::durability::FNV_OFFSET, |h, v| {
        fdmax::durability::fnv1a(h, &v.to_bits().to_le_bytes())
    })
}

/// A finished closed-loop run, for the checks and the layer probes.
#[derive(Debug)]
pub struct ServiceRun {
    /// The timed pass.
    pub pass: Pass,
    /// The configuration the front end ran with.
    pub config: FrontendConfig,
    /// The directory holding every journal the run wrote.
    pub journal_root: PathBuf,
    /// The measured front end's journal directory (one `workerK`
    /// directory per worker).
    pub journal_dir: PathBuf,
    /// Offered jobs, in offer order, with the client that sent each.
    pub offers: Vec<usize>,
    /// Live pool statistics at the end of the loop.
    live: fdmax::service::ServiceStats,
    done: Vec<Done>,
    submit_us: Vec<f64>,
    round_ms: Vec<f64>,
    refused: u64,
    brownout_rounds: u64,
}

/// Runs the closed loop until `limit`, then drains the outstanding
/// jobs. Submissions and rounds are spanned as `frontend.*`.
pub fn closed_loop(ctx: &Ctx, limit: Limit, tracer: &mut Tracer) -> ServiceRun {
    let journal_root = ctx
        .out_dir
        .join(format!("journal-{}-{}", std::process::id(), ctx.seed));
    let _ = std::fs::remove_dir_all(&journal_root);
    let journal_dir = journal_root.join("service");
    let config = frontend_config(ctx.seed, &journal_dir);
    // Creating the journal directories and files is filesystem metadata
    // latency on whatever disk holds the checkout, not program work: it
    // happens once, untimed, and every timed set-up builds the front end
    // over the empty journals.
    drop(Frontend::new(config.clone()));
    let (setup_s, mut fe) = tracer.span("bench.setup", |_| {
        timed_setup(setup_reps(ctx.scale), || Frontend::new(config.clone()))
    });
    let mut stream = JobStream::new(ctx.seed, shape(ctx.scale));
    let mut offers = Vec::new();
    let mut idle: Vec<usize> = (0..CLIENTS).collect();
    let mut outstanding: HashMap<u64, (usize, usize, Instant, bool)> = HashMap::new();
    let mut pass = Pass {
        setup_s,
        ..Pass::default()
    };
    let mut run = Vec::new();
    let (mut submit_us, mut round_ms) = (Vec::new(), Vec::new());
    let (mut refused, mut brownout_rounds) = (0u64, 0u64);
    let t0 = Instant::now();
    tracer.span("bench.timed_loop", |tracer| loop {
        if !limit.reached(t0, offers.len()) {
            for client in std::mem::take(&mut idle) {
                let spec = stream.next_job(client);
                let tol = spec.stop.tolerance_value().is_some();
                let offer = offers.len();
                offers.push(client);
                let t = Instant::now();
                let submitted = tracer.span("frontend.submit", |_| fe.submit(spec));
                submit_us.push(t.elapsed().as_secs_f64() * 1e6);
                match submitted {
                    Ok(ticket) => {
                        outstanding.insert(ticket.id.0, (client, offer, t, tol));
                    }
                    Err(_) => {
                        // Refused: counted as not served; the client
                        // sends its next job next round.
                        refused += 1;
                        idle.push(client);
                    }
                }
            }
        }
        if outstanding.is_empty() {
            if limit.reached(t0, offers.len()) {
                break;
            }
            continue;
        }
        let t = Instant::now();
        let reports = tracer.span("frontend.run_round", |_| fe.run_round());
        let now = Instant::now();
        round_ms.push((now - t).as_secs_f64() * 1e3);
        brownout_rounds += u64::from(fe.brownout_level() > 0);
        for r in reports {
            let Some((client, offer, submitted_at, tol)) = outstanding.remove(&r.frontend_job.0)
            else {
                continue;
            };
            let wall = (now - submitted_at).as_secs_f64();
            pass.job_s.push(wall);
            if tol {
                pass.solve_s.push(wall);
            }
            idle.push(client);
            let rep = &r.report;
            let clean_sim = rep.attempts.len() == 1
                && rep
                    .recovery
                    .as_ref()
                    .is_none_or(|x| !x.recovered() && x.faults_injected == 0);
            let checkpoints = rep.recovery.as_ref().map_or(0, |x| x.checkpoints);
            let total_iterations: u64 = rep.attempts.iter().map(|a| a.iterations).sum();
            let wasted_iterations: u64 = rep
                .attempts
                .iter()
                .filter(|a| a.disposition != AttemptDisposition::Served)
                .map(|a| a.iterations)
                .sum();
            run.push(Done {
                offer,
                worker: r.worker,
                worker_job: rep.job.0,
                served_by: rep.served_by(),
                deadline_met: rep.deadline_met(),
                iterations: rep.iterations,
                latency_cycles: rep.latency_cycles,
                clean_sim,
                checkpoints,
                solution_hash: rep.solution.as_ref().map(|g| grid_hash(g.as_slice())),
                digest: rep.digest(),
                attempts: rep.attempts.len(),
                wasted_iterations,
                total_iterations,
            });
        }
    });
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass.peak_rss_mib = crate::host::peak_rss_mib();
    pass.attempted = offers.len() as u64;
    let live = fe.pool_stats();
    drop(fe); // closes the journals, as a process exit would
    ServiceRun {
        pass,
        config,
        journal_root,
        journal_dir,
        offers,
        live,
        done: run,
        submit_us,
        round_ms,
        refused,
        brownout_rounds,
    }
}

impl ServiceRun {
    /// Regenerates the offered job specs from the seed (the stream is a
    /// pure function of the seed and the client sequence).
    #[must_use]
    pub fn offered_specs(&self, seed: u64, scale: Scale) -> Vec<JobSpec> {
        let mut stream = JobStream::new(seed, shape(scale));
        self.offers.iter().map(|&c| stream.next_job(c)).collect()
    }

    /// Checks every finished job and fills in the pass's verdicts and
    /// report details.
    pub fn check(&mut self, seed: u64, scale: Scale) {
        let specs = self.offered_specs(seed, scale);
        let service = &self.config.service;
        let accel = Accelerator::new(service.accel).expect("the paper configuration is valid");
        let mut bit_exact_fail = 0u64;
        let mut estimate_fail = 0u64;
        let mut sim_checked = 0u64;
        let mut estimate_checked = 0u64;
        let mut served = 0u64;
        let mut updates = 0.0;
        for d in &self.done {
            let spec = &specs[d.offer];
            let mut ok = d.deadline_met && matches!(d.served_by, Some(r) if r != Rung::Estimate);
            if d.served_by == Some(Rung::Detailed) {
                sim_checked += 1;
                let (rows, cols) = (spec.problem.rows(), spec.problem.cols());
                let exact = ElasticConfig::try_plan(&service.accel, rows, cols).is_ok_and(|el| {
                    let stop = spec.stop.clamped(service.max_job_iterations);
                    let reference =
                        solve_reference(&service.accel, &spec.problem, spec.method, el, &stop);
                    Some(grid_hash(reference.solution().as_slice())) == d.solution_hash
                });
                if !exact {
                    bit_exact_fail += 1;
                    ok = false;
                }
                if d.clean_sim {
                    // The estimate prices the solve; each resilience
                    // checkpoint adds one grid-sized DRAM write on top.
                    estimate_checked += 1;
                    let est = accel.try_estimate(
                        rows,
                        cols,
                        spec.problem.offset.requires_buffer(),
                        spec.problem.stencil.has_self_term(),
                        d.iterations,
                    );
                    let checkpoint_cycles = d.checkpoints
                        * service
                            .accel
                            .dram()
                            .cycles_for_elements((rows * cols) as u64);
                    if est.map(|r| r.cycles() + checkpoint_cycles).ok() != Some(d.latency_cycles) {
                        estimate_fail += 1;
                        ok = false;
                    }
                }
            }
            if ok {
                served += 1;
                updates += probes::interior(spec.problem.rows(), spec.problem.cols())
                    * d.iterations as f64;
            }
        }
        let (recover_fail, recover) = self.check_recovery();
        if recover_fail > 0 {
            // A journal that cannot reproduce the run fails every job.
            served = 0;
        }
        self.pass.served = served;
        self.pass.mlups = updates / self.pass.wall_s.max(1e-12) / 1e6;
        self.pass.check_failures = bit_exact_fail + estimate_fail + recover_fail;
        let served_by: Vec<Json> = Rung::ALL
            .iter()
            .map(|r| {
                Json::obj()
                    .with("rung", r.to_string())
                    .with("jobs", self.live.served_by[r.index()])
            })
            .collect();
        self.pass.details = Json::obj()
            .with("clients", CLIENTS)
            .with("workers", WORKERS)
            .with("offered", self.offers.len())
            .with("completed", self.done.len())
            .with("refused", self.refused)
            .with("tolerance_jobs", self.pass.solve_s.len())
            .with("served_by", served_by)
            .with(
                "checks",
                Json::obj()
                    .with("sim_solutions_checked", sim_checked)
                    .with("sim_bit_exact_failures", bit_exact_fail)
                    .with("clean_sim_cycles_checked", estimate_checked)
                    .with("clean_sim_cycle_mismatches", estimate_fail)
                    .with("recovery", recover),
            );
    }

    /// `Frontend::recover` over the run's journals must restore each
    /// worker's statistics and find every completed job's digest in the
    /// journal. Returns the failure count and a summary.
    fn check_recovery(&self) -> (u64, Json) {
        let (fe, summaries) = Frontend::recover(self.config.clone());
        let mut failures = u64::from(fe.pool_stats() != self.live);
        let completed: u64 = summaries.iter().map(|s| s.jobs_completed).sum();
        let resumed: u64 = summaries.iter().map(|s| s.jobs_recovered).sum();
        failures += u64::from(completed != self.done.len() as u64 || resumed != 0);
        failures += u64::from(summaries.iter().any(|s| s.torn_tail));
        drop(fe);
        let journaled = journal_digests(&self.journal_dir, WORKERS);
        let mismatched = self
            .done
            .iter()
            .filter(|d| journaled.get(&(d.worker, d.worker_job)) != Some(&d.digest))
            .count() as u64;
        failures += mismatched;
        (
            failures,
            Json::obj()
                .with("jobs_completed", completed)
                .with("jobs_resumed", resumed)
                .with("digest_mismatches", mismatched)
                .with("failures", failures),
        )
    }

    /// The service and front-end layer metrics of this run.
    pub fn layer_metrics(&self, layer: &mut Layer) {
        let done = self.done.len().max(1) as f64;
        let attempts: usize = self.done.iter().map(|d| d.attempts).sum();
        let wasted: u64 = self.done.iter().map(|d| d.wasted_iterations).sum();
        let total: u64 = self.done.iter().map(|d| d.total_iterations).sum();
        layer.set("service.attempts_per_job", attempts as f64 / done);
        layer.set("service.fallback_rate", self.live.fallback_rate());
        for rung in Rung::ALL {
            layer.set(
                &format!("service.served_by.{rung}"),
                self.live.served_by[rung.index()] as f64,
            );
        }
        layer.set(
            "service.wasted_iter_frac",
            wasted as f64 / total.max(1) as f64,
        );
        layer.set("service.deadline_misses", self.live.deadline_misses as f64);
        layer.set("frontend.submit_us", crate::stats::median(&self.submit_us));
        layer.set("frontend.round_ms", crate::stats::median(&self.round_ms));
        layer.set("frontend.refused", self.refused as f64);
        layer.set("frontend.brownout_rounds", self.brownout_rounds as f64);
    }

    /// `durability.*`: appends the run's decoded journal records to a
    /// fresh journal, writes engine checkpoints of a sample job, and
    /// times `Frontend::recover` over the run's journals.
    pub fn durability_probe(&self, specs: &[JobSpec], tracer: &mut Tracer, layer: &mut Layer) {
        let mut records = Vec::new();
        let mut journal_bytes = 0usize;
        for k in 0..WORKERS {
            let path = self
                .journal_dir
                .join(format!("worker{k}"))
                .join(JOURNAL_FILE);
            let bytes = std::fs::read(path).unwrap_or_default();
            journal_bytes += bytes.len();
            records.extend(decode_journal(&bytes).records);
        }
        let scratch = self.journal_root.join("append-probe");
        let _ = std::fs::remove_dir_all(&scratch);
        let dur = DurabilityConfig::new(&scratch).with_fsync_policy(FsyncPolicy::Never);
        let mut journal = JobJournal::open(&dur);
        let t = Instant::now();
        tracer.span("durability.append", |_| {
            for record in &records {
                journal.append(record);
            }
        });
        let append_s = t.elapsed().as_secs_f64();
        layer.set(
            "durability.append_us",
            append_s * 1e6 / records.len().max(1) as f64,
        );
        layer.set(
            "durability.bytes_per_job",
            journal_bytes as f64 / self.done.len().max(1) as f64,
        );

        let largest = specs
            .iter()
            .max_by_key(|s| s.problem.rows() * s.problem.cols());
        if let Some(spec) = largest {
            let image = EngineStateImage::capture(
                7,
                &spec.problem.initial,
                spec.problem.prev_initial.as_ref(),
            );
            let mut times = Vec::new();
            for _ in 0..9 {
                let t = Instant::now();
                let name = tracer.span("durability.write_checkpoint", |_| {
                    journal.write_checkpoint(0, Rung::Reference, &image)
                });
                times.push(t.elapsed().as_secs_f64() * 1e3);
                if name.is_none() {
                    layer.check_failures += 1;
                }
            }
            layer.set("durability.checkpoint_ms", crate::stats::median(&times));
            layer.note("checkpoint_grid", spec.problem.rows());
        }
        drop(journal);
        let _ = std::fs::remove_dir_all(&scratch);

        let t = Instant::now();
        let (fe, _) = tracer.span("durability.recover", |_| {
            Frontend::recover(self.config.clone())
        });
        layer.set("durability.recover_s", t.elapsed().as_secs_f64());
        drop(fe);
        layer.note("journal_records", records.len());
    }

    /// Removes the run's journals.
    pub fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(&self.journal_root);
    }
}

/// Each completed job's digest as the journals recorded it, keyed by
/// `(worker, worker-local job id)`.
fn journal_digests(root: &Path, workers: usize) -> BTreeMap<(u32, u64), u64> {
    let mut out = BTreeMap::new();
    for k in 0..workers {
        let Ok(contents) = read_journal(&root.join(format!("worker{k}"))) else {
            continue;
        };
        for record in contents.records {
            if let JournalRecord::Completed {
                id, outcome_digest, ..
            } = record
            {
                out.insert((k as u32, id), outcome_digest);
            }
        }
    }
    out
}

/// Jobs the layer probes replay on the simulator and the analyzer: the
/// first offers of the run's own job stream.
pub const PROBE_JOBS: usize = 24;

/// The layer probes that need a service run, on `run`'s jobs.
pub fn service_probes(run: &ServiceRun, ctx: &Ctx, tracer: &mut Tracer, layer: &mut Layer) {
    let specs = run.offered_specs(ctx.seed, ctx.scale);
    let sample = &specs[..specs.len().min(PROBE_JOBS)];
    run.layer_metrics(layer);
    probes::analysis(sample, &run.config.service, tracer, layer);
    probes::sim_replay(sample, &run.config.service, tracer, layer);
    probes::service_jobs(sample, &run.config.service, tracer, layer);
    run.durability_probe(&specs, tracer, layer);
}

/// One `service_mix` pass; with `layer`, also the layer probes.
pub fn run(ctx: &Ctx, seconds: f64, tracer: &mut Tracer, layer: Option<&mut Layer>) -> Pass {
    let limit = Limit::Time {
        seconds,
        min_jobs: 2 * CLIENTS,
    };
    let mut run = tracer.span("bench.service_mix", |t| closed_loop(ctx, limit, t));
    run.check(ctx.seed, ctx.scale);
    if let Some(layer) = layer {
        service_probes(&run, ctx, tracer, layer);
        // An exact count: the first offers' jobs, which every run completes.
        let iterations: u64 = run
            .done
            .iter()
            .filter(|d| d.offer < PROBE_JOBS)
            .map(|d| d.iterations)
            .sum();
        layer.set("session.iterations", iterations as f64);
        let stand_in = crate::inputs::heat_field(ctx.seed, 256, 8);
        probes::kernel_rows(&stand_in, 50, tracer, layer);
        probes::kernel_incore(tracer, layer);
        probes::engine_steps(&stand_in, THREADS, 200, tracer, layer);
        probes::tiled_epochs(
            &stand_in,
            super::sweep_dram::depth(),
            THREADS,
            50,
            tracer,
            layer,
        );
        probes::kernel_stream_fresh(ctx.scale.stream_bytes(), tracer, layer);
        probes::roofline(1, THREADS, run.pass.mlups, layer);
    }
    run.cleanup();
    run.pass
}

/// A short closed-loop run that gives the sweep workloads their
/// service, simulator, analysis and durability layer numbers.
pub fn stand_in_probes(ctx: &Ctx, tracer: &mut Tracer, layer: &mut Layer) {
    let mut run = closed_loop(ctx, Limit::Jobs(PROBE_JOBS), tracer);
    run.check(ctx.seed, ctx.scale);
    layer.check_failures += run.pass.check_failures;
    service_probes(&run, ctx, tracer, layer);
    run.cleanup();
}
