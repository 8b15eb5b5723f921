//! End-to-end and per-layer benchmark of the FDMAX reproduction.
//!
//! One command runs one seeded workload for a fixed number of seconds,
//! checks the program's outputs, and prints every metric by name with
//! its unit. Untraced runs (`--trace 0`) give the end-to-end metrics;
//! traced runs (`--trace 1`) record spans around every layer call and
//! give the per-layer metrics. See `README.md` for the workloads, the
//! metric definitions and the layer each metric should move.

pub mod host;
pub mod inputs;
pub mod json;
pub mod probes;
pub mod solve;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;
use std::time::Instant;

use json::Json;
use trace::Tracer;

/// The seed kept back from every tuning run, for the final check that
/// the workloads' correctness holds on inputs nobody tuned against.
pub const HELD_OUT_SEED: u64 = 0x5EED_0FF5;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Transient heat on a field four times the last-level cache,
    /// through the tiled sweep engine.
    SweepDram,
    /// Steady Poisson to tolerance on a cache-resident grid, through
    /// the strip-parallel engine.
    SteadyTol,
    /// A closed loop of mixed jobs through the durable multi-tenant
    /// front end.
    ServiceMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SweepDram,
        Workload::SteadyTol,
        Workload::ServiceMix,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepDram => "sweep_dram",
            Workload::SteadyTol => "steady_tol",
            Workload::ServiceMix => "service_mix",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problem sizes: the real benchmark, or toy sizes that run every code
/// path in well under a second (the benchmark's own tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// Toy sizes for tests.
    Toy,
}

impl Scale {
    /// Array size of the bandwidth probes that have no workload field
    /// to stream (the `host` block's, and the memory roof of the
    /// workloads other than `sweep_dram`). At full scale it is larger
    /// than the last-level cache yet below `sweep_dram`'s footprint;
    /// the probes run after peak memory is read.
    #[must_use]
    pub fn stream_bytes(self) -> usize {
        match self {
            Scale::Full => 256 << 20,
            Scale::Toy => 1 << 20,
        }
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Options {
    /// What to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Problem sizes.
    pub scale: Scale,
    /// Where the report, the trace and scratch journals go.
    pub out_dir: PathBuf,
}

/// Threads any one run may use: the benchmark host has two cores.
pub const THREADS: usize = 2;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Accumulates metrics in emission order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The value recorded under `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        for m in &self.0 {
            obj.push(
                &m.name,
                Json::obj().with("value", m.value).with("unit", m.unit),
            );
        }
        obj
    }
}

/// Names and units of the end-to-end metrics, in `BENCHMARK.json`
/// order. Every untraced run reports all of them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("served_frac", "frac"),
    ("sweep_mlups", "MLUP/s"),
    ("tol_solve_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
];

/// What one pass of a workload measured: the timed solves ("jobs") and
/// their verdicts, before they are folded into metrics.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Median set-up time over the pass's repeated set-ups.
    pub setup_s: f64,
    /// Jobs attempted (offered or started).
    pub attempted: u64,
    /// Jobs that finished, passed their checks and met their deadline.
    pub served: u64,
    /// Failed correctness checks (a subset of the unserved jobs, plus
    /// run-level checks).
    pub check_failures: u64,
    /// Wall time of each completed job, as its caller saw it.
    pub job_s: Vec<f64>,
    /// Wall time of each job whose stop condition is a tolerance, or of
    /// each fixed-step solve when the workload has no tolerance jobs.
    pub solve_s: Vec<f64>,
    /// Useful interior lattice updates per second, in millions, as the
    /// workload defines its update rate.
    pub mlups: f64,
    /// Wall seconds the timed region took.
    pub wall_s: f64,
    /// The process's peak resident memory when the timed region ended
    /// (before the output checks allocate their references).
    pub peak_rss_mib: f64,
    /// Notes for the report: sizes, counts and check details.
    pub details: Json,
}

impl Pass {
    /// The end-to-end metrics of this pass.
    #[must_use]
    pub fn end_to_end(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("setup_s", self.setup_s, "s");
        m.put("peak_rss_mib", self.peak_rss_mib, "MiB");
        m.put(
            "served_frac",
            self.served as f64 / self.attempted.max(1) as f64,
            "frac",
        );
        m.put("sweep_mlups", self.mlups, "MLUP/s");
        m.put("tol_solve_s", stats::median(&self.solve_s), "s");
        m.put(
            "jobs_per_s",
            self.job_s.len() as f64 / self.wall_s.max(1e-12),
            "jobs/s",
        );
        m.put("job_p50_s", stats::median(&self.job_s), "s");
        m.put("job_tail_s", stats::tail(&self.job_s, 10).1, "s");
        m
    }

    /// The tail percentile `job_tail_s` reports, with its sample count.
    #[must_use]
    pub fn tail_json(&self) -> Json {
        let (pct, value) = stats::tail(&self.job_s, 10);
        Json::obj()
            .with("percentile", pct)
            .with("value_s", value)
            .with("samples", self.job_s.len())
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct RunResult {
    /// No correctness check failed.
    pub correct: bool,
    /// Jobs attempted in the measured pass.
    pub attempted: u64,
    /// Attempted jobs not served.
    pub failed: u64,
    /// The metrics the run reports.
    pub metrics: Metrics,
    /// Full report: host, seed, sizes, checks, trace summary.
    pub report: Json,
    /// The span recorder (empty unless traced).
    pub tracer: Tracer,
}

impl RunResult {
    /// The final stdout line the benchmark contract asks for.
    #[must_use]
    pub fn contract_line(&self) -> String {
        Json::obj()
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", self.metrics.to_json())
            .render()
    }
}

/// Runs one workload as `opts` describes.
///
/// Untraced: one measured pass, reporting the end-to-end metrics.
/// Traced: an untraced pass and a traced pass of half the length each
/// (their difference is the tracing overhead), then the layer probes;
/// the run reports the per-layer metrics.
///
/// # Errors
///
/// I/O errors creating the output directory or writing the trace.
pub fn run(opts: &Options) -> std::io::Result<RunResult> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let started = Instant::now();
    let mut tracer = Tracer::new(opts.trace);
    let ctx = workloads::Ctx {
        seed: opts.seed,
        scale: opts.scale,
        out_dir: opts.out_dir.clone(),
    };
    let (pass, traced) = if opts.trace {
        let half = opts.seconds / 2.0;
        let plain = workloads::run_pass(opts.workload, &ctx, half, &mut Tracer::new(false));
        let traced = workloads::run_traced(opts.workload, &ctx, half, &mut tracer);
        (plain, Some(traced))
    } else {
        let pass = workloads::run_pass(opts.workload, &ctx, opts.seconds, &mut tracer);
        (pass, None)
    };
    let e2e = pass.end_to_end();
    let mut correct = pass.check_failures == 0;
    let mut attempted = pass.attempted;
    let mut failed = pass.attempted - pass.served;
    let mut report = Json::obj()
        .with("workload", opts.workload.name())
        .with("seed", opts.seed)
        .with("held_out_seed", HELD_OUT_SEED)
        .with("seconds", opts.seconds)
        .with("trace", opts.trace)
        .with("threads", THREADS)
        .with("job_tail", pass.tail_json())
        .with("details", pass.details.clone());

    let metrics = match traced {
        Some((traced, mut layer)) => {
            correct &= traced.check_failures == 0 && layer.check_failures == 0;
            attempted += traced.attempted;
            failed += traced.attempted - traced.served;
            let traced_e2e = traced.end_to_end();
            for (name, _) in END_TO_END {
                if name == "peak_rss_mib" {
                    // A high-water mark never falls between the passes,
                    // so a difference would not be the tracer's.
                    continue;
                }
                let t = traced_e2e.get(name).unwrap_or(0.0);
                let u = e2e.get(name).unwrap_or(0.0);
                layer.set(&format!("trace_overhead.{name}"), t - u);
            }
            let balance = tracer.self_times_balance();
            correct &= balance;
            for (layer_name, ns) in tracer.self_time_by_layer() {
                layer.set(&format!("self_s.{layer_name}"), ns as f64 / 1e9);
            }
            report.push("untraced_end_to_end", e2e.to_json());
            report.push("traced_end_to_end", traced_e2e.to_json());
            report.push("trace_summary", tracer.summary());
            report.push("layer_details", layer.details);
            let trace_path = opts.out_dir.join(format!(
                "{}-seed{}.trace.json",
                opts.workload.name(),
                opts.seed
            ));
            std::fs::write(&trace_path, tracer.chrome_trace().render())?;
            report.push("trace_file", trace_path.display().to_string());
            layer.metrics
        }
        None => {
            report.push("end_to_end", e2e.to_json());
            e2e
        }
    };
    report.push("host", host::host_block(opts.scale.stream_bytes()));
    report.push("run_wall_s", started.elapsed().as_secs_f64());
    Ok(RunResult {
        correct,
        attempted,
        failed,
        metrics,
        report,
        tracer,
    })
}
