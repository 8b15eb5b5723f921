//! Solver-throughput benchmark for the software kernel layer.
//!
//! Measures sustained MLUP/s (million interior-point **l**attice
//! **up**dates per second) of the f32 Jacobi solve at paper-scale grids
//! for the whole ladder of implementations of the same arithmetic:
//!
//! * `scalar_baseline` — the pre-kernel indexed `(i, j)` loop, kept
//!   verbatim in [`fdm::kernels::baseline`];
//! * `kernelized_serial` — a manual double-buffer loop over the
//!   serial-accumulator row kernels of [`fdm::kernels::scalar`] (the
//!   pre-SIMD bodies, kept as the differential oracle);
//! * `simd_serial` — [`SweepEngine`] over the lane-folded flat-row
//!   kernels of [`fdm::kernels`];
//! * `threaded_2` / `threaded_4` — [`ParallelSweepEngine`] with the
//!   interior strip-decomposed over persistent band workers (lane-folded
//!   rows, like `simd_serial`; the warm-up step starts the workers);
//! * `tiled_k2` / `tiled_k4` / `tiled_k8` — [`TiledSweepEngine`] at 4
//!   threads, fusing k sweeps per cache pass over a skewed row
//!   wavefront. MLUP/s counts *useful* updates (`interior x k` per
//!   epoch); the halo trapezoid's redundant rows are charged to the
//!   variant, not hidden.
//!
//! A `roofline` block pins the memory-wall story: a streamed-copy probe
//! measures attainable bandwidth, the analytic traffic model prices the
//! untiled sweep at 12 bytes/LUP (f32 read + write-allocate + write)
//! and the k-deep tile at 12/k, and each variant's achieved MLUP/s is
//! reported against its attainable ceiling.
//!
//! A `host` block records what the timings were measured on: the
//! available parallelism and the CPU model.
//!
//! A timing-free *identity* section records residual-norm or
//! field-checksum **bit patterns** per variant, each row tagged with its
//! contract: `bitwise` rows must agree exactly (Jacobi/Checkerboard
//! across thread counts 1/2/4/7; the final *field* across
//! baseline/scalar-rows/SIMD/threaded paths — lane-folding regroups only
//! the diff² reduction, never the field), `tolerance` rows within 1e-9
//! relative (the tiled engine's documented contract, and the CSR CG
//! oracle whose summation order CG amplifies). All rows are asserted
//! in-process and re-validated by CI (`--validate`), keeping
//! host-dependent timings out of the gate.
//!
//! Usage:
//!
//! ```text
//! solver_throughput [--smoke] [--out PATH]   # measure + write JSON
//! solver_throughput --validate PATH          # schema + identity check
//! ```

use std::time::Instant;

use fdm::convergence::StopCondition;
use fdm::engine::{ParallelSweepEngine, Session, SolveEngine, SweepEngine};
use fdm::grid::Grid2D;
use fdm::kernels::baseline::sweep_jacobi_indexed;
use fdm::kernels::OffsetRow;
use fdm::pde::{PdeKind, StencilProblem};
use fdm::solver::krylov::{conjugate_gradient, matrix_free_cg, KrylovEngine};
use fdm::solver::UpdateMethod;
use fdm::sparse::StencilSystem;
use fdm::tiled::TiledSweepEngine;
use fdm::workload::benchmark_problem;

/// Paper-scale measurement grids (full mode).
const FULL_SIZES: [usize; 5] = [256, 512, 1024, 2048, 4096];
/// CI smoke grids: the same code paths in a fraction of the time.
const SMOKE_SIZES: [usize; 2] = [64, 128];
/// Thread counts exercised by the identity section.
const ID_THREADS: [usize; 4] = [1, 2, 4, 7];
/// Grid and step count for the identity section (odd size: uneven
/// bands; 24 steps divide evenly into every tile depth).
const ID_GRID: usize = 65;
const ID_STEPS: usize = 24;
/// Tile depths measured per grid (threads from [`tile_threads`]).
const TILE_DEPTHS: [usize; 3] = [2, 4, 8];

/// Threads driving the tiled wavefront: the host's real parallelism,
/// capped at 4 so the column stays comparable to `threaded_4`. On a
/// single-core host this degrades to the serial wavefront — pure cache
/// blocking — instead of charging thread-churn to the tiling story.
fn tile_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(4)
}
/// Analytic traffic of one untiled f32 Jacobi update once the grid
/// spills the cache: read `cur` (4 B, the three-row window is streamed
/// once) + write-allocate `next` (4 B) + write back (4 B).
const BYTES_PER_LUP_UNTILED: f64 = 12.0;

/// Sweeps measured per grid: enough for a stable rate on small grids
/// without making 4096^2 take minutes on one core.
fn steps_for(n: usize) -> usize {
    (200_000_000 / (n * n)).clamp(3, 400)
}

fn problem(n: usize) -> StencilProblem<f32> {
    benchmark_problem::<f32>(PdeKind::Laplace, n, 0).expect("benchmark problem")
}

/// MLUP/s over `steps` sweeps of an `n x n` grid taking `secs` seconds.
fn mlups(n: usize, steps: usize, secs: f64) -> f64 {
    let interior = ((n - 2) * (n - 2)) as f64;
    interior * steps as f64 / secs.max(f64::MIN_POSITIVE) / 1e6
}

/// Times the seed scalar loop (manual double-buffer, like the old solver).
fn time_baseline(sp: &StencilProblem<f32>, steps: usize) -> f64 {
    let mut cur = sp.initial.clone();
    let mut next = cur.clone();
    let mut sink = 0.0f64;
    sink += sweep_jacobi_indexed(&sp.stencil, &sp.offset, &cur, None, &mut next); // warm-up
    core::mem::swap(&mut cur, &mut next);
    let t = Instant::now();
    for _ in 0..steps {
        sink += sweep_jacobi_indexed(&sp.stencil, &sp.offset, &cur, None, &mut next);
        core::mem::swap(&mut cur, &mut next);
    }
    let secs = t.elapsed().as_secs_f64();
    assert!(sink.is_finite());
    secs
}

/// One whole-grid Jacobi sweep through the serial-accumulator row
/// kernels of [`fdm::kernels::scalar`] — the pre-SIMD bodies.
fn sweep_scalar_rows(sp: &StencilProblem<f32>, cur: &Grid2D<f32>, next: &mut Grid2D<f32>) -> f64 {
    let (rows, cols) = (cur.rows(), cur.cols());
    let mut diff2 = 0.0f64;
    let src = cur.as_slice();
    let dst = next.as_mut_slice();
    for i in 1..rows.saturating_sub(1) {
        let offset = OffsetRow::for_row(&sp.offset, None, i);
        diff2 += fdm::kernels::scalar::jacobi_row(
            &sp.stencil,
            &src[(i - 1) * cols..i * cols],
            &src[i * cols..(i + 1) * cols],
            &src[(i + 1) * cols..(i + 2) * cols],
            offset,
            &mut dst[i * cols..(i + 1) * cols],
        );
    }
    diff2
}

/// Times the scalar-oracle row kernels (manual double-buffer).
fn time_scalar_rows(sp: &StencilProblem<f32>, steps: usize) -> f64 {
    let mut cur = sp.initial.clone();
    let mut next = cur.clone();
    let mut sink = sweep_scalar_rows(sp, &cur, &mut next); // warm-up
    core::mem::swap(&mut cur, &mut next);
    let t = Instant::now();
    for _ in 0..steps {
        sink += sweep_scalar_rows(sp, &cur, &mut next);
        core::mem::swap(&mut cur, &mut next);
    }
    let secs = t.elapsed().as_secs_f64();
    assert!(sink.is_finite());
    secs
}

/// Times any engine through its `step` path (one warm-up step first).
/// For the tiled engine a step is a whole epoch of `k` sweeps — the
/// caller scales the LUP count accordingly.
fn time_engine<E: SolveEngine>(mut engine: E, steps: usize) -> f64 {
    engine.step();
    let t = Instant::now();
    for _ in 0..steps {
        engine.step();
    }
    t.elapsed().as_secs_f64()
}

struct ThroughputRow {
    grid: usize,
    steps: usize,
    baseline: f64,
    scalar_rows: f64,
    simd: f64,
    threaded_2: f64,
    threaded_4: f64,
    /// MLUP/s per entry of [`TILE_DEPTHS`].
    tiled: [f64; TILE_DEPTHS.len()],
}

fn measure(sizes: &[usize]) -> Vec<ThroughputRow> {
    sizes
        .iter()
        .map(|&n| {
            let sp = problem(n);
            let steps = steps_for(n);
            let baseline = mlups(n, steps, time_baseline(&sp, steps));
            let scalar_rows = mlups(n, steps, time_scalar_rows(&sp, steps));
            let simd = mlups(
                n,
                steps,
                time_engine(SweepEngine::new(&sp, UpdateMethod::Jacobi), steps),
            );
            let threaded_2 = mlups(
                n,
                steps,
                time_engine(
                    ParallelSweepEngine::new(&sp, UpdateMethod::Jacobi, 2),
                    steps,
                ),
            );
            let threaded_4 = mlups(
                n,
                steps,
                time_engine(
                    ParallelSweepEngine::new(&sp, UpdateMethod::Jacobi, 4),
                    steps,
                ),
            );
            let mut tiled = [0.0; TILE_DEPTHS.len()];
            for (slot, k) in TILE_DEPTHS.into_iter().enumerate() {
                let epochs = (steps / k).max(1);
                tiled[slot] = mlups(
                    n,
                    epochs * k,
                    time_engine(
                        TiledSweepEngine::new(&sp, UpdateMethod::Jacobi, k, tile_threads()),
                        epochs,
                    ),
                );
            }
            println!(
                "{n:>5}^2 ({steps:>3} sweeps): baseline {baseline:8.1} | rows {scalar_rows:8.1} | \
                 simd {simd:8.1} ({:4.2}x) | 4 threads {threaded_4:8.1} | tiled k4 {:8.1} \
                 ({:4.2}x)  MLUP/s",
                simd / baseline,
                tiled[1],
                tiled[1] / baseline,
            );
            ThroughputRow {
                grid: n,
                steps,
                baseline,
                scalar_rows,
                simd,
                threaded_2,
                threaded_4,
                tiled,
            }
        })
        .collect()
}

/// Attainable-bandwidth probe: streams a grid-sized copy and prices it
/// with the same 12 B/element convention as [`BYTES_PER_LUP_UNTILED`]
/// (read + write-allocate + write), so "attainable MLUP/s" and
/// "achieved MLUP/s" sit on the same roofline.
fn stream_bandwidth_gbps(bytes: usize) -> f64 {
    let len = (bytes / 4).max(1);
    let src = vec![1.0f32; len];
    let mut dst = vec![0.0f32; len];
    dst.copy_from_slice(&src); // warm-up: page the buffers in
    let passes = 8;
    let t = Instant::now();
    for _ in 0..passes {
        dst.copy_from_slice(&src);
        std::hint::black_box(&mut dst);
    }
    let secs = t.elapsed().as_secs_f64();
    passes as f64 * len as f64 * 12.0 / secs.max(f64::MIN_POSITIVE) / 1e9
}

struct RooflineRow {
    variant: String,
    bytes_per_lup: f64,
    attainable_mlups: f64,
    achieved_mlups: f64,
}

struct Roofline {
    grid: usize,
    stream_gbps: f64,
    rows: Vec<RooflineRow>,
}

/// Builds the roofline block from the largest measured grid: the tiled
/// variants divide the per-LUP traffic by k, lifting the bandwidth
/// ceiling in proportion.
fn roofline(rows: &[ThroughputRow]) -> Roofline {
    let top = rows.last().expect("at least one grid measured");
    let bytes = top.grid * top.grid * 4 * 2;
    let stream_gbps = stream_bandwidth_gbps(bytes);
    let attainable = |bytes_per_lup: f64| stream_gbps * 1e9 / bytes_per_lup / 1e6;
    let mut out = vec![
        RooflineRow {
            variant: "simd_serial".into(),
            bytes_per_lup: BYTES_PER_LUP_UNTILED,
            attainable_mlups: attainable(BYTES_PER_LUP_UNTILED),
            achieved_mlups: top.simd,
        },
        RooflineRow {
            variant: "threaded_4".into(),
            bytes_per_lup: BYTES_PER_LUP_UNTILED,
            attainable_mlups: attainable(BYTES_PER_LUP_UNTILED),
            achieved_mlups: top.threaded_4,
        },
    ];
    for (slot, k) in TILE_DEPTHS.into_iter().enumerate() {
        let bpl = BYTES_PER_LUP_UNTILED / k as f64;
        out.push(RooflineRow {
            variant: format!("tiled_k{k}"),
            bytes_per_lup: bpl,
            attainable_mlups: attainable(bpl),
            achieved_mlups: top.tiled[slot],
        });
    }
    for row in &out {
        println!(
            "roofline {:>14}: {:5.2} B/LUP, attainable {:9.1} MLUP/s, achieved {:9.1} \
             ({:5.1}% of ceiling)",
            row.variant,
            row.bytes_per_lup,
            row.attainable_mlups,
            row.achieved_mlups,
            100.0 * row.achieved_mlups / row.attainable_mlups.max(f64::MIN_POSITIVE),
        );
    }
    Roofline {
        grid: top.grid,
        stream_gbps,
        rows: out,
    }
}

/// Per-row agreement contract of the identity section.
#[derive(Clone, Copy, PartialEq)]
enum Contract {
    /// Every variant's bits must be exactly equal.
    Bitwise,
    /// Entries are f64 bit patterns agreeing within 1e-9 relative.
    Tolerance,
}

impl Contract {
    fn name(self) -> &'static str {
        match self {
            Contract::Bitwise => "bitwise",
            Contract::Tolerance => "tolerance",
        }
    }
}

struct IdentityRow {
    method: &'static str,
    contract: Contract,
    /// What produced each entry (thread count or solver path).
    variants: Vec<String>,
    /// Final residual-norm (or field-checksum) bits, one per variant.
    residual_bits: Vec<u64>,
    iterations: Vec<usize>,
}

/// Order-sensitive FNV-1a over the field's f32 bit patterns in row-major
/// order: two fields checksum equal iff they are bitwise identical.
fn field_checksum(grid: &Grid2D<f32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in grid.as_slice() {
        h ^= u64::from(x.to_bits());
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs the identity matrix and asserts bit-identical results in-process
/// (the artifact lets CI re-assert it without re-running the engines).
fn identity_matrix() -> Vec<IdentityRow> {
    let sp = problem(ID_GRID);
    [
        (UpdateMethod::Jacobi, "jacobi"),
        (UpdateMethod::Checkerboard, "checkerboard"),
    ]
    .into_iter()
    .map(|(method, name)| {
        let mut residual_bits = Vec::new();
        let mut iterations = Vec::new();
        for threads in ID_THREADS {
            let mut engine = ParallelSweepEngine::new(&sp, method, threads);
            let mut last = 0.0f64;
            for _ in 0..ID_STEPS {
                last = engine.step().norm.expect("sweeps always produce a norm");
            }
            residual_bits.push(last.to_bits());
            iterations.push(engine.iterations());
        }
        assert!(
            residual_bits.iter().all(|&b| b == residual_bits[0]),
            "{name}: residual bits differ across thread counts: {residual_bits:#018x?}"
        );
        assert!(
            iterations.iter().all(|&it| it == ID_STEPS),
            "{name}: iteration counts drifted: {iterations:?}"
        );
        println!(
            "identity {name:>12}: residual bits {:#018x} at every thread count {ID_THREADS:?}",
            residual_bits[0]
        );
        IdentityRow {
            method: name,
            contract: Contract::Bitwise,
            variants: ID_THREADS.iter().map(|t| format!("threads_{t}")).collect(),
            residual_bits,
            iterations,
        }
    })
    .collect()
}

/// The SIMD field identity: after [`ID_STEPS`] Jacobi sweeps the final
/// *field* is bitwise identical across the baseline indexed loop, the
/// scalar-oracle row kernels, the lane-folded serial engine and the
/// strip-parallel engine — lane-folding regroups only the diff²
/// reduction, never the per-element stencil arithmetic. Recorded as an
/// order-sensitive FNV-1a checksum of the field bits.
fn simd_field_identity() -> IdentityRow {
    let sp = problem(ID_GRID);

    let mut cur = sp.initial.clone();
    let mut next = cur.clone();
    for _ in 0..ID_STEPS {
        let _ = sweep_jacobi_indexed(&sp.stencil, &sp.offset, &cur, None, &mut next);
        core::mem::swap(&mut cur, &mut next);
    }
    let baseline_sum = field_checksum(&cur);

    let mut cur = sp.initial.clone();
    let mut next = cur.clone();
    for _ in 0..ID_STEPS {
        let _ = sweep_scalar_rows(&sp, &cur, &mut next);
        core::mem::swap(&mut cur, &mut next);
    }
    let scalar_sum = field_checksum(&cur);

    let mut serial = SweepEngine::new(&sp, UpdateMethod::Jacobi);
    let mut threaded = ParallelSweepEngine::new(&sp, UpdateMethod::Jacobi, 4);
    for _ in 0..ID_STEPS {
        serial.step();
        threaded.step();
    }

    let residual_bits = vec![
        baseline_sum,
        scalar_sum,
        field_checksum(serial.solution()),
        field_checksum(threaded.solution()),
    ];
    let iterations = vec![ID_STEPS, ID_STEPS, serial.iterations(), threaded.iterations()];
    assert!(
        residual_bits.iter().all(|&b| b == residual_bits[0]),
        "simd_field: field checksums differ across kernel paths: {residual_bits:#018x?}"
    );
    println!(
        "identity   simd_field: field checksum {:#018x} across baseline/scalar/simd/threaded",
        residual_bits[0]
    );
    IdentityRow {
        method: "simd_field",
        contract: Contract::Bitwise,
        variants: ["baseline_indexed", "scalar_rows", "simd_serial", "simd_threads_4"]
            .iter()
            .map(ToString::to_string)
            .collect(),
        residual_bits,
        iterations,
    }
}

/// The tiled tolerance identity: [`ID_STEPS`] sweeps through the serial
/// engine versus whole tiled epochs at every [`TILE_DEPTHS`] entry land
/// on the same final residual norm within the engine's documented 1e-12
/// relative contract (asserted here; the artifact carries the bits under
/// the looser 1e-9 `tolerance` tag CI re-checks).
fn tiled_identity() -> IdentityRow {
    let sp = problem(ID_GRID);
    let mut serial = SweepEngine::new(&sp, UpdateMethod::Jacobi);
    let mut last = 0.0f64;
    for _ in 0..ID_STEPS {
        last = serial.step().norm.expect("sweeps always produce a norm");
    }
    let mut variants = vec!["serial".to_string()];
    let mut residual_bits = vec![last.to_bits()];
    let mut iterations = vec![serial.iterations()];
    for k in TILE_DEPTHS {
        let mut tiled = TiledSweepEngine::new(&sp, UpdateMethod::Jacobi, k, tile_threads());
        let mut norm = 0.0f64;
        for _ in 0..ID_STEPS / k {
            norm = tiled.step().norm.expect("epochs always produce a norm");
        }
        let rel = (norm - last).abs() / last.abs().max(f64::MIN_POSITIVE);
        assert!(
            rel <= 1e-12,
            "tiled_jacobi k={k}: norm {norm} vs serial {last} (rel {rel:.3e})"
        );
        variants.push(format!("tiled_k{k}_threads_{}", tile_threads()));
        residual_bits.push(norm.to_bits());
        iterations.push(tiled.iterations());
    }
    assert!(
        iterations.iter().all(|&it| it == ID_STEPS),
        "tiled_jacobi: iteration counts drifted: {iterations:?}"
    );
    println!(
        "identity tiled_jacobi: serial norm bits {:#018x}, tiled within 1e-12 at k {TILE_DEPTHS:?}",
        residual_bits[0]
    );
    IdentityRow {
        method: "tiled_jacobi",
        contract: Contract::Tolerance,
        variants,
        residual_bits,
        iterations,
    }
}

/// The matrix-free CG identity: `KrylovEngine`, a re-run of it, the
/// one-shot `matrix_free_cg` function and a `Session`-driven engine all
/// report the same residual-norm bits and iteration count after
/// [`ID_STEPS`] CG iterations. The assembled-CSR oracle evaluates its
/// rows in a different floating-point order (which CG amplifies), so it
/// agrees to 1e-9 relative rather than bitwise; that bound is asserted
/// in-process.
fn matrix_free_cg_identity() -> IdentityRow {
    let sp = problem(ID_GRID);
    let engine_run = || {
        let mut e = KrylovEngine::new(&sp);
        let mut last = 0.0f64;
        for _ in 0..ID_STEPS {
            last = e.step().norm.expect("CG always yields a norm");
        }
        (last.to_bits(), e.iterations())
    };
    let (bits_a, it_a) = engine_run();
    let (bits_b, it_b) = engine_run();
    let (_, free) = matrix_free_cg(&sp, 0.0, ID_STEPS);

    let mut session = Session::new(KrylovEngine::new(&sp), StopCondition::fixed_steps(ID_STEPS));
    session.run().expect("no policy, no failure");
    let (engine, history) = session.into_parts();
    let session_bits = history.get(ID_STEPS - 1).expect("ran > 0 iters").to_bits();
    let session_iters = engine.iterations();

    let residual_bits = vec![
        bits_a,
        bits_b,
        free.residual_history
            .last()
            .expect("ran > 0 iters")
            .to_bits(),
        session_bits,
    ];
    let iterations = vec![it_a, it_b, free.iterations, session_iters];
    assert!(
        residual_bits.iter().all(|&b| b == residual_bits[0]),
        "matrix_free_cg: residual bits differ across paths: {residual_bits:#018x?}"
    );
    assert!(
        iterations.iter().all(|&it| it == ID_STEPS),
        "matrix_free_cg: iteration counts drifted: {iterations:?}"
    );

    // The CSR oracle: the same trajectory up to summation order, whose
    // last-bit differences CG amplifies over the iterations.
    let sys = StencilSystem::assemble(&sp).expect("steady Laplace assembles");
    let oracle = conjugate_gradient(&sys.matrix, &sys.rhs, 0.0, ID_STEPS);
    let free_norm = f64::from_bits(residual_bits[0]);
    let oracle_norm = *oracle.residual_history.last().expect("ran > 0 iters");
    assert!(
        (free_norm - oracle_norm).abs() <= 1e-9 * oracle_norm.max(f64::MIN_POSITIVE),
        "matrix_free_cg: drifted from the CSR oracle: {free_norm} vs {oracle_norm}"
    );

    println!(
        "identity matrix_free_cg: residual bits {:#018x} across engine/re-run/function/session \
         (CSR oracle within 1e-9: {oracle_norm})",
        residual_bits[0]
    );
    IdentityRow {
        method: "matrix_free_cg",
        contract: Contract::Bitwise,
        variants: [
            "krylov_engine",
            "krylov_engine_rerun",
            "matrix_free_fn",
            "session_driver",
        ]
        .iter()
        .map(ToString::to_string)
        .collect(),
        residual_bits,
        iterations,
    }
}

/// The `host` block: available parallelism and the CPU model named by
/// `/proc/cpuinfo` (`"unknown"` where that file is absent).
fn host_json() -> String {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim())
        .replace(['"', '\\'], "");
    format!(
        "  \"host\": {{\n    \"available_parallelism\": {threads},\n    \
         \"cpu_model\": \"{model}\"\n  }}"
    )
}

fn render_json(
    mode: &str,
    rows: &[ThroughputRow],
    roof: &Roofline,
    identity: &[IdentityRow],
) -> String {
    let throughput = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"grid\": {},\n      \"sweeps\": {},\n      \
                 \"scalar_baseline_mlups\": {:.3},\n      \
                 \"kernelized_serial_mlups\": {:.3},\n      \
                 \"simd_serial_mlups\": {:.3},\n      \
                 \"threaded_2_mlups\": {:.3},\n      \
                 \"threaded_4_mlups\": {:.3},\n      \
                 \"tiled_k2_mlups\": {:.3},\n      \
                 \"tiled_k4_mlups\": {:.3},\n      \
                 \"tiled_k8_mlups\": {:.3},\n      \
                 \"speedup_kernelized\": {:.3},\n      \
                 \"speedup_simd\": {:.3},\n      \
                 \"speedup_threaded_4\": {:.3},\n      \
                 \"speedup_tiled_k4\": {:.3}\n    }}",
                r.grid,
                r.steps,
                r.baseline,
                r.scalar_rows,
                r.simd,
                r.threaded_2,
                r.threaded_4,
                r.tiled[0],
                r.tiled[1],
                r.tiled[2],
                r.scalar_rows / r.baseline,
                r.simd / r.baseline,
                r.threaded_4 / r.baseline,
                r.tiled[1] / r.baseline,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let roof_rows = roof
        .rows
        .iter()
        .map(|r| {
            format!(
                "      {{\n        \"variant\": \"{}\",\n        \
                 \"bytes_per_lup\": {:.3},\n        \
                 \"attainable_mlups\": {:.3},\n        \
                 \"achieved_mlups\": {:.3},\n        \
                 \"ceiling_fraction\": {:.4}\n      }}",
                r.variant,
                r.bytes_per_lup,
                r.attainable_mlups,
                r.achieved_mlups,
                r.achieved_mlups / r.attainable_mlups.max(f64::MIN_POSITIVE),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let roofline = format!(
        "  \"roofline\": {{\n    \"grid\": {},\n    \
         \"stream_bandwidth_gbps\": {:.3},\n    \"rows\": [\n{roof_rows}\n    ]\n  }}",
        roof.grid, roof.stream_gbps,
    );
    let identity = identity
        .iter()
        .map(|row| {
            let bits = row
                .residual_bits
                .iter()
                .map(|b| format!("\"{b:#018x}\""))
                .collect::<Vec<_>>()
                .join(", ");
            let iters = row
                .iterations
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(", ");
            let variants = row
                .variants
                .iter()
                .map(|v| format!("\"{v}\""))
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "    {{\n      \"method\": \"{}\",\n      \"contract\": \"{}\",\n      \
                 \"grid\": {ID_GRID},\n      \
                 \"steps\": {ID_STEPS},\n      \"variants\": [{variants}],\n      \
                 \"residual_bits\": [{bits}],\n      \"iterations\": [{iters}]\n    }}",
                row.method,
                row.contract.name(),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let host = host_json();
    format!(
        "{{\n  \"benchmark\": \"solver_throughput\",\n  \"mode\": \"{mode}\",\n  \
         \"element_type\": \"f32\",\n{host},\n  \"throughput\": [\n{throughput}\n  ],\n\
         {roofline},\n  \
         \"identity\": [\n{identity}\n  ]\n}}\n"
    )
}

/// Extracts every `"key": [ ... ]` array's comma-separated items.
fn json_arrays<'a>(text: &'a str, key: &str) -> Vec<Vec<&'a str>> {
    let needle = format!("\"{key}\": [");
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find(&needle) {
        rest = &rest[pos + needle.len()..];
        let end = rest.find(']').expect("unterminated array");
        out.push(
            rest[..end]
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect(),
        );
        rest = &rest[end..];
    }
    out
}

/// Extracts every `"key": "value"` string in order of appearance.
fn json_strings<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let needle = format!("\"{key}\": \"");
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find(&needle) {
        rest = &rest[pos + needle.len()..];
        let end = rest.find('"').expect("unterminated string");
        out.push(&rest[..end]);
        rest = &rest[end..];
    }
    out
}

/// Validates a previously written artifact: required schema keys present
/// and every identity row honouring its tagged contract — `bitwise`
/// rows exactly variant-invariant, `tolerance` rows (tiled epochs, the
/// CSR oracle) within 1e-9 relative across their f64 norm bits. Timings
/// are deliberately **not** checked — they are host properties.
fn validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    for key in [
        "\"benchmark\": \"solver_throughput\"",
        "\"host\":",
        "\"throughput\":",
        "\"roofline\":",
        "\"identity\":",
        "\"scalar_baseline_mlups\":",
        "\"kernelized_serial_mlups\":",
        "\"simd_serial_mlups\":",
        "\"threaded_4_mlups\":",
        "\"tiled_k2_mlups\":",
        "\"tiled_k4_mlups\":",
        "\"tiled_k8_mlups\":",
        "\"stream_bandwidth_gbps\":",
        "\"bytes_per_lup\":",
        "\"method\": \"simd_field\"",
        "\"method\": \"tiled_jacobi\"",
        "\"method\": \"matrix_free_cg\"",
    ] {
        if !text.contains(key) {
            return Err(format!("{path}: missing {key}"));
        }
    }
    let residuals = json_arrays(&text, "residual_bits");
    let iterations = json_arrays(&text, "iterations");
    let contracts = json_strings(&text, "contract");
    if residuals.len() < 5
        || iterations.len() != residuals.len()
        || contracts.len() != residuals.len()
    {
        return Err(format!(
            "{path}: expected one residual_bits + iterations + contract per method, \
             got {}, {} and {}",
            residuals.len(),
            iterations.len(),
            contracts.len()
        ));
    }
    for (row, (bits, contract)) in residuals.iter().zip(&contracts).enumerate() {
        if bits.len() < 2 {
            return Err(format!(
                "{path}: identity row {row} has {} residual entries, wanted >= 2",
                bits.len()
            ));
        }
        match *contract {
            "bitwise" => {
                if bits.iter().any(|&b| b != bits[0]) {
                    return Err(format!(
                        "{path}: bitwise identity row {row} is not variant-invariant: {bits:?}"
                    ));
                }
            }
            "tolerance" => {
                let norms: Vec<f64> = bits
                    .iter()
                    .map(|b| {
                        let hex = b.trim_matches('"').trim_start_matches("0x");
                        u64::from_str_radix(hex, 16)
                            .map(f64::from_bits)
                            .map_err(|e| format!("{path}: row {row}: bad bit pattern {b}: {e}"))
                    })
                    .collect::<Result<_, _>>()?;
                for (v, &n) in norms.iter().enumerate() {
                    let rel = (n - norms[0]).abs() / norms[0].abs().max(f64::MIN_POSITIVE);
                    if rel > 1e-9 {
                        return Err(format!(
                            "{path}: tolerance identity row {row} variant {v} drifted: \
                             {n} vs {} (rel {rel:.3e})",
                            norms[0]
                        ));
                    }
                }
            }
            other => {
                return Err(format!(
                    "{path}: identity row {row} has unknown contract {other:?}"
                ));
            }
        }
    }
    for (row, iters) in iterations.iter().enumerate() {
        if iters.iter().any(|&it| it != iters[0]) {
            return Err(format!(
                "{path}: identity row {row} iteration counts drifted: {iters:?}"
            ));
        }
    }
    println!(
        "{path}: schema ok, {} identity rows honour their contracts ({} bitwise, {} tolerance)",
        residuals.len(),
        contracts.iter().filter(|c| **c == "bitwise").count(),
        contracts.iter().filter(|c| **c == "tolerance").count(),
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out = String::from("BENCH_solver.json");
    let mut validate_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = it.next().expect("--out needs a path").clone(),
            "--validate" => {
                validate_path = Some(it.next().expect("--validate needs a path").clone());
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = validate_path {
        if let Err(e) = validate(&path) {
            eprintln!("validation failed: {e}");
            std::process::exit(1);
        }
        return;
    }

    let wall = Instant::now();
    let (mode, sizes): (&str, &[usize]) = if smoke {
        ("smoke", &SMOKE_SIZES)
    } else {
        ("full", &FULL_SIZES)
    };
    let rows = measure(sizes);
    let roof = roofline(&rows);
    let mut identity = identity_matrix();
    identity.push(simd_field_identity());
    identity.push(tiled_identity());
    identity.push(matrix_free_cg_identity());
    let json = render_json(mode, &rows, &roof, &identity);
    std::fs::write(&out, &json).expect("write artifact");
    println!(
        "wrote {out} ({mode} mode) in {:.2}s of wall time",
        wall.elapsed().as_secs_f64()
    );
}
