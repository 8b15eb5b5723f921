//! `steady_tol`: steady Poisson to the repository's 1e-4 tolerance on a
//! cache-resident 128² grid, Jacobi, through a `Session` over the
//! strip-parallel engine at two threads.
//!
//! Time per step (thread spawn, band sync, residual fold, stop check)
//! times the number of iterations dominates; DRAM traffic is near zero.
//! One *job* is one solve from the initial field to the tolerance.
//!
//! The grid is 128², not 256²: a 256² solve takes 4–18 s on a shared
//! two-core host, so a run held two to four of them and one burst of
//! host contention moved the run's median. A 128² solve still spends
//! most of its time in per-step overhead (two threads take about twice
//! as long as one) and a run holds a dozen or more of them.
//!
//! Checks, outside the timed region: every timed solve must take
//! exactly the serial engine's iteration count and end on its field bit
//! for bit (the thread-count identity contract), and that field must
//! agree with a conjugate-gradient solve within the error the stop
//! tolerance allows.

use std::time::Instant;

use fdm::convergence::StopCondition;
use fdm::grid::Grid2D;
use fdm::solver::krylov::matrix_free_cg;
use fdm::workload::DEFAULT_TOLERANCE;

use super::{timed_setup, Ctx, Limit};
use crate::inputs::steady_poisson;
use crate::json::Json;
use crate::probes::{self, Layer};
use crate::solve::{self, Path};
use crate::trace::Tracer;
use crate::{Pass, Scale, THREADS};

struct Sizes {
    n: usize,
    setup_reps: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            n: 128,
            setup_reps: 31,
        },
        Scale::Toy => Sizes {
            n: 24,
            setup_reps: 3,
        },
    }
}

/// Iteration cap: far above the ~16,400 iterations the 128² grid needs.
const MAX_ITERATIONS: usize = 1_000_000;

fn stop() -> StopCondition {
    StopCondition::tolerance(DEFAULT_TOLERANCE, MAX_ITERATIONS)
}

/// Bound on `||u - u*||_2` for an `f32` Jacobi iterate whose last
/// update had norm at most `tol`.
///
/// The Jacobi iteration matrix `G` of the five-point Laplacian on an
/// `n x n` grid with equal spacing is symmetric with spectral radius
/// `rho = cos(pi / (n - 1))`. Write one `f32` step as
/// `e' = G e + r`, with `r` the step's rounding. Then the last update is
/// `d = (G - I) e + r`, so `e' = G (G - I)^-1 (d - r) + r` and
/// `||e'|| <= (rho ||d|| + ||r||) / (1 - rho)`. Each point's stencil
/// rounds at most four times, each time by at most an `f32` epsilon of
/// `max|u|`, so `||r|| <= (n - 2) * 4 * eps32 * max|u|` over the
/// `(n - 2)²` interior points.
#[must_use]
pub fn cg_bound(n: usize, tol: f64, max_abs: f64) -> f64 {
    let rho = (std::f64::consts::PI / (n - 1) as f64).cos();
    let rounding = (n - 2) as f64 * 4.0 * f64::from(f32::EPSILON) * max_abs.max(1.0);
    (tol * rho + rounding) / (1.0 - rho)
}

/// The CG check: `(||u - u_cg||_2, bound)`.
fn cg_check(problem: &fdm::pde::StencilProblem<f32>, u: &Grid2D<f32>) -> (f64, f64) {
    let (x, result) = matrix_free_cg(&problem.convert::<f64>(), 1e-12, 100_000);
    if !result.converged {
        return (f64::INFINITY, 0.0);
    }
    let err = u
        .as_slice()
        .iter()
        .zip(x.as_slice())
        .map(|(a, b)| (f64::from(*a) - b).powi(2))
        .sum::<f64>()
        .sqrt();
    let max_abs = x.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
    (err, cg_bound(problem.rows(), DEFAULT_TOLERANCE, max_abs))
}

/// One `steady_tol` pass; with `layer`, also the layer probes.
pub fn run(ctx: &Ctx, seconds: f64, tracer: &mut Tracer, layer: Option<&mut Layer>) -> Pass {
    let sz = sizes(ctx.scale);
    let path = Path::Parallel { threads: THREADS };
    let (setup_s, problem) = tracer.span("bench.setup", |_| {
        timed_setup(sz.setup_reps, || {
            let p = steady_poisson(ctx.seed, sz.n);
            drop(std::hint::black_box(solve::session(&p, path, stop())));
            p
        })
    });
    let mut pass = Pass {
        setup_s,
        ..Pass::default()
    };

    // The serial reference, outside the timed region.
    let reference = tracer.span("bench.reference", |_| {
        let mut s = solve::session(&problem, Path::Serial, stop());
        let met = s.run().unwrap_or(false);
        let iterations = s.steps_executed();
        (met, iterations, s.into_parts().0.solution().clone())
    });
    let (ref_met, ref_iterations, ref_field) = reference;

    let mut identical = 0u64;
    let t0 = Instant::now();
    tracer.span("bench.timed_loop", |tracer| {
        let limit = Limit::Time {
            seconds,
            min_jobs: 3,
        };
        while !limit.reached(t0, pass.job_s.len()) {
            let mut session = solve::session(&problem, path, stop());
            let t = Instant::now();
            let met = tracer.span("session.run", |_| session.run());
            let secs = t.elapsed().as_secs_f64();
            pass.job_s.push(secs);
            pass.solve_s.push(secs);
            let iterations = session.steps_executed();
            let (engine, _) = session.into_parts();
            let same = matches!(met, Ok(true))
                && iterations == ref_iterations
                && engine
                    .solution()
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(ref_field.as_slice().iter().map(|v| v.to_bits()));
            identical += u64::from(same);
        }
    });
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass.peak_rss_mib = crate::host::peak_rss_mib();
    let jobs = pass.job_s.len() as u64;

    let (cg_err, cg_bound) = tracer.span("bench.check", |_| cg_check(&problem, &ref_field));
    let cg_ok = ref_met && cg_err <= cg_bound;
    pass.attempted = jobs;
    pass.served = if cg_ok { identical } else { 0 };
    pass.check_failures = (jobs - identical) + u64::from(!cg_ok);
    let interior = probes::interior(sz.n, sz.n);
    pass.mlups = interior * ref_iterations as f64 / crate::stats::median(&pass.job_s) / 1e6;
    pass.details = Json::obj()
        .with("grid", sz.n)
        .with("threads", THREADS)
        .with("tolerance", DEFAULT_TOLERANCE)
        .with("iterations", ref_iterations)
        .with("jobs", jobs)
        .with(
            "check",
            Json::obj()
                .with("serial_iterations", ref_iterations)
                .with("bitwise_identical_solves", identical)
                .with("cg_l2_error", cg_err)
                .with("cg_bound", cg_bound),
        );

    if let Some(layer) = layer {
        layer.set("session.iterations", ref_iterations as f64);
        probes::kernel_rows(&problem, 50, tracer, layer);
        probes::kernel_incore(tracer, layer);
        probes::engine_steps(&problem, THREADS, 2000, tracer, layer);
        probes::tiled_epochs(
            &problem,
            super::sweep_dram::depth(),
            THREADS,
            200,
            tracer,
            layer,
        );
        probes::kernel_stream_fresh(ctx.scale.stream_bytes(), tracer, layer);
        probes::roofline(1, THREADS, pass.mlups, layer);
        super::service_mix::stand_in_probes(ctx, tracer, layer);
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cg_check_accepts_a_converged_field_and_rejects_an_early_stop() {
        let problem = steady_poisson(3, 32);
        let solve = |tol| {
            let stop = StopCondition::tolerance(tol, MAX_ITERATIONS);
            let mut s = solve::session(&problem, Path::Serial, stop);
            assert_eq!(s.run(), Ok(true));
            s.into_parts().0.solution().clone()
        };
        let (err, bound) = cg_check(&problem, &solve(DEFAULT_TOLERANCE));
        assert!(err <= bound, "{err} > {bound}");
        let (err, bound) = cg_check(&problem, &solve(1e-2));
        assert!(err > bound, "an early stop passed: {err} <= {bound}");
    }
}
