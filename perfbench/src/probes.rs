//! Layer probes: each times one layer's public functions from outside,
//! under a span named after the layer, and writes that layer's metrics.

use std::time::Instant;

use fdm::convergence::StopCondition;
use fdm::engine::SolveEngine;
use fdm::grid::Grid2D;
use fdm::kernels::{jacobi_row, OffsetRow};
use fdm::pde::{OffsetField, StencilProblem};
use fdm::stencil::FivePointStencil;
use fdmax::analysis::{analyze_plan, PrecisionClass, SolvePlan};
use fdmax::service::{JobSpec, ServiceConfig, SolveService};
use fdmax::sim::DetailedSim;

use crate::json::Json;
use crate::solve::{self, Path};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Metrics;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
/// Every traced run reports all of them.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("kernels.row_mlups", "MLUP/s"),
    ("kernels.incore_mlups", "MLUP/s"),
    ("kernels.stream_gbs", "GB/s"),
    ("kernels.bytes_per_lup", "B/LUP"),
    ("kernels.roof_frac", "frac"),
    ("engine.step_us", "us"),
    ("engine.step_serial_us", "us"),
    ("engine.overhead_frac", "frac"),
    ("engine.thread_speedup", "x"),
    ("session.iterations", "count"),
    ("tiled.epoch_ms", "ms"),
    ("tiled.useful_frac", "frac"),
    ("sim.host_ns_per_lup", "ns/LUP"),
    ("sim.cycles_per_host_s", "cycles/s"),
    ("sim.cycles", "count"),
    ("analysis.plan_us", "us"),
    ("analysis.rejected", "count"),
    ("durability.append_us", "us"),
    ("durability.bytes_per_job", "B/job"),
    ("durability.checkpoint_ms", "ms"),
    ("durability.recover_s", "s"),
    ("service.attempts_per_job", "attempts/job"),
    ("service.fallback_rate", "frac"),
    ("service.served_by.detailed-sim", "count"),
    ("service.served_by.hw-reference", "count"),
    ("service.served_by.software-parallel", "count"),
    ("service.served_by.software-tiled", "count"),
    ("service.served_by.software", "count"),
    ("service.served_by.krylov", "count"),
    ("service.served_by.estimate", "count"),
    ("service.wasted_iter_frac", "frac"),
    ("service.deadline_misses", "count"),
    ("frontend.submit_us", "us"),
    ("frontend.round_ms", "ms"),
    ("frontend.refused", "count"),
    ("frontend.brownout_rounds", "count"),
    ("self_s.bench", "s"),
    ("self_s.kernels", "s"),
    ("self_s.engine", "s"),
    ("self_s.session", "s"),
    ("self_s.tiled", "s"),
    ("self_s.sim", "s"),
    ("self_s.analysis", "s"),
    ("self_s.durability", "s"),
    ("self_s.service", "s"),
    ("self_s.frontend", "s"),
    ("trace_overhead.setup_s", "s"),
    ("trace_overhead.served_frac", "frac"),
    ("trace_overhead.sweep_mlups", "MLUP/s"),
    ("trace_overhead.tol_solve_s", "s"),
    ("trace_overhead.jobs_per_s", "jobs/s"),
    ("trace_overhead.job_p50_s", "s"),
    ("trace_overhead.job_tail_s", "s"),
];

/// The per-layer metrics of one traced run, being filled in.
#[derive(Debug)]
pub struct Layer {
    /// Every [`PER_LAYER`] metric, zero until a probe sets it.
    pub metrics: Metrics,
    /// Failed checks made while probing (e.g. the recovered journal
    /// disagreeing with the live run).
    pub check_failures: u64,
    /// Probe inputs and sizes, for the report.
    pub details: Json,
}

impl Layer {
    /// All metrics at zero.
    #[must_use]
    pub fn new() -> Self {
        let mut metrics = Metrics::default();
        for (name, unit) in PER_LAYER {
            metrics.put(name, 0.0, unit);
        }
        Layer {
            metrics,
            check_failures: 0,
            details: Json::obj(),
        }
    }

    /// Sets a [`PER_LAYER`] metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`]: a probe writing a
    /// metric nobody declared is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .metrics
            .0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"));
        slot.value = value;
    }

    /// Adds a note to the report's `layer_details`.
    pub fn note(&mut self, key: &str, value: impl Into<Json>) {
        self.details.push(key, value);
    }
}

impl Default for Layer {
    fn default() -> Self {
        Self::new()
    }
}

/// Computed DRAM traffic of an `f32` Jacobi update that streams the
/// grid: read `cur`, write-allocate and write back `next`. A `k`-deep
/// temporal tile streams the grid once per `k` sweeps.
pub const BYTES_PER_LUP_STREAMED: f64 = 12.0;

/// One serial whole-grid Jacobi sweep through `fdm::kernels::jacobi_row`
/// from `cur` into `out`; returns the summed squared update.
fn row_sweep(
    stencil: &FivePointStencil<f32>,
    offset: &OffsetField<f32>,
    cur: &Grid2D<f32>,
    out: &mut Grid2D<f32>,
) -> f64 {
    let cols = cur.cols();
    let src = cur.as_slice();
    let dst = out.as_mut_slice();
    let mut diff2 = 0.0;
    for i in 1..cur.rows().saturating_sub(1) {
        diff2 += jacobi_row(
            stencil,
            &src[(i - 1) * cols..i * cols],
            &src[i * cols..(i + 1) * cols],
            &src[(i + 1) * cols..(i + 2) * cols],
            OffsetRow::for_row(offset, None, i),
            &mut dst[i * cols..(i + 1) * cols],
        );
    }
    diff2
}

/// Interior points of a grid.
#[must_use]
pub fn interior(rows: usize, cols: usize) -> f64 {
    (rows.saturating_sub(2) * cols.saturating_sub(2)) as f64
}

/// `kernels.row_mlups`: serial whole-grid sweeps of `problem`'s initial
/// field via `jacobi_row`, median of `reps` after a warm-up. Returns the
/// rate and the output buffer (callers reuse it as scratch).
pub fn kernel_rows(
    problem: &StencilProblem<f32>,
    reps: usize,
    tracer: &mut Tracer,
    layer: &mut Layer,
) -> Grid2D<f32> {
    let cur = &problem.initial;
    let mut out = cur.clone();
    let mut sink = row_sweep(&problem.stencil, &problem.offset, cur, &mut out);
    let mut rates = Vec::new();
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        sink += tracer.span("kernels.row_sweep", |_| {
            row_sweep(&problem.stencil, &problem.offset, cur, &mut out)
        });
        rates.push(interior(cur.rows(), cur.cols()) / t.elapsed().as_secs_f64() / 1e6);
    }
    std::hint::black_box(sink);
    layer.set("kernels.row_mlups", median(&rates));
    out
}

/// `kernels.incore_mlups`: the row kernel over three L1-resident rows,
/// swept repeatedly — the in-core roof, with no memory traffic.
pub fn kernel_incore(tracer: &mut Tracer, layer: &mut Layer) {
    const WIDTH: usize = 1024; // 3 input rows + 1 output row = 16 KiB
    const SWEEPS: usize = 4000;
    let stencil = FivePointStencil::new(0.2f32, 0.2, 0.2);
    let up: Vec<f32> = (0..WIDTH).map(|j| 0.5 + (j % 7) as f32 * 0.01).collect();
    let center: Vec<f32> = (0..WIDTH).map(|j| 0.5 + (j % 5) as f32 * 0.01).collect();
    let down: Vec<f32> = (0..WIDTH).map(|j| 0.5 + (j % 3) as f32 * 0.01).collect();
    let mut out = vec![0.0f32; WIDTH];
    let mut rates = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let sink = tracer.span("kernels.incore", |_| {
            let mut s = 0.0;
            for _ in 0..SWEEPS {
                s += jacobi_row(
                    &stencil,
                    std::hint::black_box(&up),
                    &center,
                    &down,
                    OffsetRow::None,
                    &mut out,
                );
            }
            s
        });
        std::hint::black_box(sink);
        rates.push(((WIDTH - 2) * SWEEPS) as f64 / t.elapsed().as_secs_f64() / 1e6);
    }
    layer.set("kernels.incore_mlups", median(&rates));
}

/// `kernels.stream_gbs`: streamed copy of `src` into `dst` (the memory
/// roof), median of five copies, priced at
/// [`crate::host::COPY_TRAFFIC_FACTOR`] bytes per copied byte.
pub fn kernel_stream(src: &[f32], dst: &mut [f32], tracer: &mut Tracer, layer: &mut Layer) {
    let gbs = tracer.span("kernels.stream_copy", |_| {
        crate::host::copy_gbs(src, dst, 5)
    });
    layer.set("kernels.stream_gbs", gbs);
    layer.note("stream_array_bytes", src.len().min(dst.len()) * 4);
}

/// [`kernel_stream`] over two fresh arrays of `bytes` each, for
/// workloads without a field of their own to stream.
pub fn kernel_stream_fresh(bytes: usize, tracer: &mut Tracer, layer: &mut Layer) {
    let gbs = tracer.span("kernels.stream_copy", |_| {
        crate::host::stream_copy_gbs(bytes, 5)
    });
    layer.set("kernels.stream_gbs", gbs);
    layer.note("stream_array_bytes", bytes);
}

/// `kernels.bytes_per_lup` (computed, for a `depth`-deep tile; 1 for
/// untiled sweeps) and `kernels.roof_frac`: `achieved_mlups` over the
/// lower of the memory roof and the in-core roof times `threads`.
/// Needs `kernel_incore` and `kernel_stream` to have run.
pub fn roofline(depth: usize, threads: usize, achieved_mlups: f64, layer: &mut Layer) {
    let bytes_per_lup = BYTES_PER_LUP_STREAMED / depth.max(1) as f64;
    let gbs = layer.metrics.get("kernels.stream_gbs").unwrap_or(0.0);
    let incore = layer.metrics.get("kernels.incore_mlups").unwrap_or(0.0);
    let memory_roof = gbs * 1e9 / bytes_per_lup / 1e6;
    let roof = memory_roof.min(incore * threads as f64);
    layer.set("kernels.bytes_per_lup", bytes_per_lup);
    layer.set(
        "kernels.roof_frac",
        if roof > 0.0 {
            achieved_mlups / roof
        } else {
            0.0
        },
    );
    layer.note(
        "roofline",
        Json::obj()
            .with("bytes_per_lup_computed", bytes_per_lup)
            .with("memory_roof_mlups", memory_roof)
            .with("incore_roof_mlups", incore * threads as f64)
            .with("achieved_mlups", achieved_mlups)
            .with(
                "binding",
                if memory_roof < incore * threads as f64 {
                    "memory"
                } else {
                    "in-core"
                },
            ),
    );
}

/// `engine.*`: per-step wall time of the strip-parallel engine at
/// `threads` and of the serial engine on `problem`, timed around
/// `SolveEngine::step` in batches; the overhead is the step time the
/// row kernel does not account for. Needs `kernel_rows` on the same
/// problem to have run.
pub fn engine_steps(
    problem: &StencilProblem<f32>,
    threads: usize,
    steps: usize,
    tracer: &mut Tracer,
    layer: &mut Layer,
) {
    let _ = tracer.span("session.run", |_| {
        let mut s = solve::session(
            problem,
            Path::Parallel { threads },
            StopCondition::fixed_steps(steps),
        );
        std::hint::black_box(s.run())
    });
    let batch = (steps / 10).max(1);
    let per_step = |path: Path, name: &'static str, tracer: &mut Tracer| {
        let mut engine = solve::engine(problem, path);
        engine.begin();
        let mut times = Vec::new();
        for _ in 0..10 {
            let t = Instant::now();
            tracer.span(name, |_| {
                for _ in 0..batch {
                    std::hint::black_box(engine.step());
                }
            });
            times.push(t.elapsed().as_secs_f64() * 1e6 / batch as f64);
        }
        median(&times)
    };
    let parallel = per_step(Path::Parallel { threads }, "engine.parallel_step", tracer);
    let serial = per_step(Path::Serial, "engine.serial_step", tracer);
    let kernel_us = interior(problem.rows(), problem.cols())
        / layer
            .metrics
            .get("kernels.row_mlups")
            .unwrap_or(f64::INFINITY);
    layer.set("engine.step_us", parallel);
    layer.set("engine.step_serial_us", serial);
    layer.set("engine.overhead_frac", (parallel - kernel_us) / parallel);
    layer.set("engine.thread_speedup", serial / parallel);
    layer.note(
        "engine_probe",
        Json::obj()
            .with("rows", problem.rows())
            .with("threads", threads)
            .with("kernel_sweep_us", kernel_us),
    );
}

/// `tiled.*` on `problem`: median epoch time of `epochs` tiled steps
/// and the useful share of computed row updates.
pub fn tiled_epochs(
    problem: &StencilProblem<f32>,
    depth: usize,
    threads: usize,
    epochs: usize,
    tracer: &mut Tracer,
    layer: &mut Layer,
) {
    let mut engine = solve::engine(problem, Path::Tiled { depth, threads });
    engine.begin();
    let mut times = Vec::new();
    for _ in 0..epochs.max(1) {
        let t = Instant::now();
        tracer.span("tiled.epoch", |_| std::hint::black_box(engine.step()));
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    set_tiled(
        median(&times),
        useful_frac(problem.rows(), depth, engine.redundant_rows_per_step()),
        layer,
    );
}

/// Useful share of the row updates a tiled epoch computes: owned
/// interior rows times sweeps, over that plus the redundant halo rows.
#[must_use]
pub fn useful_frac(rows: usize, depth: usize, redundant_rows: usize) -> f64 {
    let useful = (rows.saturating_sub(2) * depth) as f64;
    useful / (useful + redundant_rows as f64)
}

/// Writes the `tiled.*` metrics.
pub fn set_tiled(epoch_ms: f64, useful: f64, layer: &mut Layer) {
    layer.set("tiled.epoch_ms", epoch_ms);
    layer.set("tiled.useful_frac", useful);
}

/// The solve plan the service's admission analysis builds for a job
/// (the same fields `SolveService` fills in).
#[must_use]
pub fn solve_plan(spec: &JobSpec, config: &ServiceConfig) -> SolvePlan {
    let scale = spec
        .problem
        .initial
        .as_slice()
        .iter()
        .map(|v| f64::from(v.abs()))
        .filter(|v| v.is_finite())
        .fold(0.0_f64, f64::max);
    SolvePlan {
        rows: spec.problem.rows(),
        cols: spec.problem.cols(),
        method: spec.method,
        tolerance: spec.stop.tolerance_value(),
        requested_iterations: spec.stop.max_iterations(),
        precision: PrecisionClass::F32,
        steady_state: spec.problem.is_steady_state(),
        scale,
        parallel_threads: config.parallel_threads,
        tile_depth: config.tile_depth,
    }
}

/// `analysis.*`: `analyze_plan` over each job's plan.
pub fn analysis(jobs: &[JobSpec], config: &ServiceConfig, tracer: &mut Tracer, layer: &mut Layer) {
    let mut times = Vec::new();
    let mut rejected = 0u64;
    for spec in jobs {
        let plan = solve_plan(spec, config);
        let t = Instant::now();
        let report = tracer.span("analysis.analyze_plan", |_| {
            analyze_plan(&plan, &config.accel, Some(&config.lint_spec()))
        });
        times.push(t.elapsed().as_secs_f64() * 1e6);
        rejected += u64::from(report.lint().has_errors());
    }
    layer.set("analysis.plan_us", median(&times));
    layer.set("analysis.rejected", rejected as f64);
}

/// Self time of the service layer: `jobs` through a standalone
/// in-memory `SolveService`, one `submit` + `run_next` each, spanned as
/// `service.job`.
pub fn service_jobs(
    jobs: &[JobSpec],
    config: &ServiceConfig,
    tracer: &mut Tracer,
    layer: &mut Layer,
) {
    let mut config = config.clone();
    config.durability = None;
    let mut svc = SolveService::new(config);
    for spec in jobs {
        let served = tracer.span("service.job", |_| {
            svc.submit(spec.clone()).ok().and_then(|_| svc.run_next())
        });
        if served.is_none() {
            layer.check_failures += 1;
        }
    }
}

/// `sim.*`: replays `jobs` on `DetailedSim` without faults, timing
/// `DetailedSim::step`. `sim.cycles` is the replay's simulated cycle
/// total — an exact count that a change to simulator speed alone must
/// leave untouched.
pub fn sim_replay(
    jobs: &[JobSpec],
    config: &ServiceConfig,
    tracer: &mut Tracer,
    layer: &mut Layer,
) {
    let mut step_s = 0.0;
    let mut lups = 0.0;
    let mut cycles = 0u64;
    for spec in jobs {
        let stop = spec.stop.clamped(config.max_job_iterations);
        let Ok(mut sim) = DetailedSim::new(config.accel, &spec.problem, spec.method) else {
            layer.check_failures += 1;
            continue;
        };
        SolveEngine::begin(&mut sim);
        let t = Instant::now();
        let steps = tracer.span("sim.steps", |_| {
            let mut k = 0;
            loop {
                let norm = sim.step();
                k += 1;
                if stop.should_stop(k, norm) || !norm.is_finite() {
                    break k;
                }
            }
        });
        step_s += t.elapsed().as_secs_f64();
        SolveEngine::finish(&mut sim);
        lups += interior(spec.problem.rows(), spec.problem.cols()) * steps as f64;
        cycles += sim.counters().cycles;
    }
    layer.set("sim.host_ns_per_lup", step_s * 1e9 / lups.max(1.0));
    layer.set("sim.cycles_per_host_s", cycles as f64 / step_s.max(1e-12));
    layer.set("sim.cycles", cycles as f64);
    layer.note("sim_replay_jobs", jobs.len());
}
