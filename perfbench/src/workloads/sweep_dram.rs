//! `sweep_dram`: transient heat, fixed time steps, `f32` Jacobi,
//! through a `Session` over the tiled sweep engine at the service's
//! default tile depth and two threads, on a field at least four times
//! the last-level cache.
//!
//! Memory traffic dominates here (the row kernel's bytes per update
//! and the tile's reuse), while per-step overhead and iteration counts
//! barely matter. One *job* is one tiled step: `depth` fused time steps
//! over the whole field, continuing from the previous job's state.

use std::time::Instant;

use fdm::convergence::StopCondition;
use fdm::engine::SessionPoll;
use fdmax::config::FdmaxConfig;
use fdmax::service::ServiceConfig;

use super::{timed_setup, Ctx, Limit};
use crate::inputs::heat_field;
use crate::json::Json;
use crate::probes::{self, Layer};
use crate::solve::{self, Path};
use crate::trace::Tracer;
use crate::{Pass, Scale, THREADS};

/// Edge of the measured field: 18000² `f32` values are 1236 MiB, more
/// than four times the 300 MiB last-level cache of the reference host.
pub const FULL_N: usize = 18_000;

struct Sizes {
    n: usize,
    setup_reps: usize,
    check_n: usize,
    row_reps: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            n: FULL_N,
            setup_reps: 3,
            check_n: 1024,
            row_reps: 3,
        },
        Scale::Toy => Sizes {
            n: 96,
            setup_reps: 2,
            check_n: 40,
            row_reps: 2,
        },
    }
}

/// Fused sweeps per tiled step: the service's default tile depth.
#[must_use]
pub fn depth() -> usize {
    ServiceConfig::new(FdmaxConfig::paper_default()).tile_depth
}

/// Steps the correctness check runs on both paths.
const CHECK_STEPS: usize = 8;

/// The tiled contract: the field after `CHECK_STEPS` tiled steps must
/// match the serial engine's within 1e-12, relative.
pub const TILED_TOLERANCE: f64 = 1e-12;

/// Runs the tiled and the serial engine `CHECK_STEPS` steps on the same
/// seeded field and returns the largest relative difference.
fn reference_check(seed: u64, n: usize, depth: usize) -> f64 {
    let problem = heat_field(seed, n, CHECK_STEPS);
    let run = |path| {
        let mut s = solve::session(&problem, path, StopCondition::fixed_steps(CHECK_STEPS));
        match s.run() {
            Ok(true) => Some(s.into_parts().0.solution().clone()),
            _ => None,
        }
    };
    let tiled = run(Path::Tiled {
        depth,
        threads: THREADS,
    });
    let serial = run(Path::Serial);
    match (tiled, serial) {
        (Some(t), Some(s)) => t
            .as_slice()
            .iter()
            .zip(s.as_slice())
            .map(|(a, b)| (f64::from(*a) - f64::from(*b)).abs() / f64::from(b.abs()).max(1e-30))
            .fold(0.0, f64::max),
        _ => f64::INFINITY,
    }
}

/// One `sweep_dram` pass; with `layer`, also the layer probes.
pub fn run(ctx: &Ctx, seconds: f64, tracer: &mut Tracer, layer: Option<&mut Layer>) -> Pass {
    let sz = sizes(ctx.scale);
    let depth = depth();
    let path = Path::Tiled {
        depth,
        threads: THREADS,
    };
    let field_bytes = sz.n * sz.n * 4;
    let llc = crate::host::llc_bytes();

    // Set-up: seeded field (allocated and first touched), then the
    // engine's own buffers. The problem outlives the engine, so each
    // repetition builds both and drops both.
    let (setup_s, problem) = tracer.span("bench.setup", |_| {
        timed_setup(sz.setup_reps, || {
            let p = heat_field(ctx.seed, sz.n, usize::MAX);
            drop(std::hint::black_box(solve::engine(&p, path)));
            p
        })
    });
    let mut session = solve::session(&problem, path, StopCondition::fixed_steps(usize::MAX));
    let mut pass = Pass {
        setup_s,
        ..Pass::default()
    };
    let interior = probes::interior(sz.n, sz.n);
    let mut non_finite = 0u64;
    let t0 = Instant::now();
    tracer.span("bench.timed_loop", |tracer| {
        let limit = Limit::Time {
            seconds,
            min_jobs: 3,
        };
        while !limit.reached(t0, pass.job_s.len()) {
            let t = Instant::now();
            let polled = tracer.span("session.run_for", |_| session.run_for(1));
            let secs = t.elapsed().as_secs_f64();
            let norm = session.history().last().unwrap_or(f64::NAN);
            if !matches!(polled, Ok(SessionPoll::Yielded)) || !norm.is_finite() {
                non_finite += 1;
            }
            pass.job_s.push(secs);
            pass.solve_s.push(secs);
        }
    });
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass.peak_rss_mib = crate::host::peak_rss_mib();
    let jobs = pass.job_s.len() as u64;
    let (engine, _) = session.into_parts();
    let redundant = engine.redundant_rows_per_step();
    drop(engine);

    let max_rel = tracer.span("bench.check", |_| {
        reference_check(ctx.seed, sz.check_n, depth)
    });
    let reference_ok = max_rel <= TILED_TOLERANCE;
    pass.attempted = jobs;
    pass.served = if reference_ok { jobs - non_finite } else { 0 };
    pass.mlups = interior * depth as f64 / crate::stats::median(&pass.job_s) / 1e6;
    pass.check_failures = non_finite + u64::from(!reference_ok);
    pass.details = Json::obj()
        .with("grid", sz.n)
        .with("field_bytes", field_bytes)
        .with("llc_bytes", llc)
        .with(
            "field_over_llc",
            if llc > 0 {
                field_bytes as f64 / llc as f64
            } else {
                0.0
            },
        )
        .with("tile_depth", depth)
        .with("threads", THREADS)
        .with("jobs", jobs)
        .with(
            "check",
            Json::obj()
                .with("grid", sz.check_n)
                .with("steps", CHECK_STEPS)
                .with("max_rel_diff", max_rel)
                .with("tolerance", TILED_TOLERANCE)
                .with("non_finite_steps", non_finite),
        );

    if let Some(layer) = layer {
        // The timed epochs ran inside `Session::run_for`; a few epochs
        // on a stand-in grid give the tiled layer a span of its own,
        // while its metrics come from the measured field.
        let stand_in = heat_field(ctx.seed, 256, 8);
        probes::tiled_epochs(&stand_in, depth, THREADS, 20, tracer, layer);
        probes::set_tiled(
            crate::stats::median(&pass.job_s) * 1e3,
            probes::useful_frac(sz.n, depth, redundant),
            layer,
        );
        // The kernel probes reuse the field: the serial row sweep
        // writes into a field-sized buffer, which then serves as the
        // memory-roof copy's destination.
        let mut out = probes::kernel_rows(&problem, sz.row_reps, tracer, layer);
        probes::kernel_stream(
            problem.initial.as_slice(),
            out.as_mut_slice(),
            tracer,
            layer,
        );
        drop(out);
        drop(problem);
        probes::kernel_incore(tracer, layer);
        probes::roofline(depth, THREADS, pass.mlups, layer);
        layer.set("session.iterations", CHECK_STEPS as f64);
        probes::engine_steps(&stand_in, THREADS, 200, tracer, layer);
        super::service_mix::stand_in_probes(ctx, tracer, layer);
    }
    pass
}
