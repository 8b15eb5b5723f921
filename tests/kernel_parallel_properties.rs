//! Property test pinning the strip-parallel engine to the serial sweeps.
//!
//! [`ParallelSweepEngine`] promises *bit-identical* fields **and**
//! residual norms to the serial [`SweepEngine`] for the parity-free
//! methods (Jacobi and Checkerboard) at any thread count. This suite
//! hammers that promise with deterministic randomness ([`DetRng`]):
//! every benchmark PDE family, both working precisions, random grid
//! shapes including the degenerate single-interior-row/column cases,
//! and thread counts that divide the interior evenly, unevenly, and
//! not at all. A second pass interleaves the engines' state operations
//! (checkpoint/rollback, export/restore into a fresh engine, `solution()`
//! reads) with the steps, since the parallel engine keeps its state in
//! per-band strips that those operations scatter and gather.

use detrng::DetRng;
use fdm::engine::{ParallelSweepEngine, SolveEngine, StepOutcome, SweepEngine};
use fdm::grid::Grid2D;
use fdm::pde::{OffsetField, PdeKind, RunMode, StencilProblem};
use fdm::precision::Scalar;
use fdm::solver::UpdateMethod;
use fdm::stencil::FivePointStencil;

const THREADS: [usize; 6] = [1, 2, 3, 4, 5, 7];
const METHODS: [UpdateMethod; 2] = [UpdateMethod::Jacobi, UpdateMethod::Checkerboard];
const KINDS: [PdeKind; 4] = [
    PdeKind::Laplace,
    PdeKind::Poisson,
    PdeKind::Heat,
    PdeKind::Wave,
];

fn random_grid<T: Scalar>(rng: &mut DetRng, rows: usize, cols: usize) -> Grid2D<T> {
    Grid2D::from_fn(rows, cols, |_, _| T::from_f64(rng.gen_f64(-1.0, 1.0)))
}

/// Builds a random problem of the given family directly from parts, so
/// the test controls the exact shape (the builders clamp small grids).
fn random_problem<T: Scalar>(
    rng: &mut DetRng,
    kind: PdeKind,
    rows: usize,
    cols: usize,
) -> StencilProblem<T> {
    let (stencil, offset, prev_initial) = match kind {
        PdeKind::Laplace => (
            FivePointStencil::new(0.25, 0.25, 0.0),
            OffsetField::None,
            None,
        ),
        PdeKind::Poisson => (
            FivePointStencil::new(0.25, 0.25, 0.0),
            OffsetField::Static(random_grid(rng, rows, cols)),
            None,
        ),
        PdeKind::Heat => (
            FivePointStencil::new(0.2, 0.2, 0.15),
            OffsetField::None,
            None,
        ),
        PdeKind::Wave => (
            FivePointStencil::new(0.4, 0.4, 1.2),
            OffsetField::ScaledPrevField {
                scale: T::from_f64(-1.0),
            },
            Some(random_grid(rng, rows, cols)),
        ),
    };
    StencilProblem {
        kind,
        stencil: FivePointStencil::new(
            T::from_f64(stencil.w_v),
            T::from_f64(stencil.w_h),
            T::from_f64(stencil.w_s),
        ),
        offset,
        initial: random_grid(rng, rows, cols),
        prev_initial,
        mode: RunMode::FixedSteps(8),
    }
}

fn assert_grids_bit_identical<T: Scalar>(a: &Grid2D<T>, b: &Grid2D<T>, what: &str) {
    assert_eq!(a.rows(), b.rows(), "{what}: row count");
    assert_eq!(a.cols(), b.cols(), "{what}: col count");
    for (idx, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        // `to_f64` widens exactly, so f64 bit equality is bit equality
        // in the source precision.
        assert_eq!(
            x.to_f64().to_bits(),
            y.to_f64().to_bits(),
            "{what}: element {idx}: {} vs {}",
            x.to_f64(),
            y.to_f64()
        );
    }
}

/// Steps both engines in lockstep, asserting bit-identical norms after
/// every step and a bit-identical field at the end.
fn check_lockstep<T: Scalar>(sp: &StencilProblem<T>, method: UpdateMethod, threads: usize) {
    let steps = 6;
    let mut serial = SweepEngine::new(sp, method);
    let mut parallel = ParallelSweepEngine::new(sp, method, threads);
    for step in 0..steps {
        let s = serial.step();
        let p = parallel.step();
        let what = format!(
            "{:?} {method:?} {}x{} threads={threads} step={step}",
            sp.kind,
            sp.initial.rows(),
            sp.initial.cols()
        );
        assert_norms_bit_identical(s, p, &what);
        assert_grids_bit_identical(serial.solution(), parallel.solution(), &what);
    }
    assert_eq!(serial.iterations(), steps);
    assert_eq!(parallel.iterations(), steps);
}

fn assert_norms_bit_identical(s: StepOutcome, p: StepOutcome, what: &str) {
    match (s.norm, p.norm) {
        (Some(sn), Some(pn)) => assert_eq!(sn.to_bits(), pn.to_bits(), "{what}: norm {sn} vs {pn}"),
        (s, p) => panic!("{what}: norm presence mismatch: {s:?} vs {p:?}"),
    }
}

/// Drives both engines through one DetRng-chosen sequence of steps and
/// state operations, asserting bit-identical norms after every step,
/// identical fields wherever `solution()` is read and identical exported
/// images (current field *and* wave history) at the end.
fn check_interleaved<T: Scalar>(
    rng: &mut DetRng,
    sp: &StencilProblem<T>,
    method: UpdateMethod,
    threads: usize,
) {
    let mut serial = SweepEngine::new(sp, method);
    let mut parallel = ParallelSweepEngine::new(sp, method, threads);
    let mut ops = Vec::new();
    for op in 0..24 {
        let what = format!(
            "{:?} {method:?} {}x{} threads={threads} op={op}",
            sp.kind,
            sp.initial.rows(),
            sp.initial.cols()
        );
        match rng.gen_range(0, 10) {
            0 => {
                ops.push("checkpoint");
                serial.checkpoint();
                parallel.checkpoint();
            }
            1 => {
                ops.push("rollback");
                assert_eq!(serial.rollback(), parallel.rollback(), "{what}: rollback");
            }
            2 => {
                ops.push("export/restore");
                let image = serial.export_state().expect("serial engines export");
                let par_image = parallel.export_state().expect("parallel engines export");
                assert_eq!(image, par_image, "{what}: exported images");
                serial = SweepEngine::new(sp, method);
                parallel = ParallelSweepEngine::new(sp, method, threads);
                assert!(serial.restore_state(&image), "{what}: serial restore");
                assert!(
                    parallel.restore_state(&par_image),
                    "{what}: parallel restore"
                );
            }
            3 => {
                ops.push("solution");
                assert_grids_bit_identical(serial.solution(), parallel.solution(), &what);
            }
            _ => {
                ops.push("step");
                assert_norms_bit_identical(serial.step(), parallel.step(), &what);
            }
        }
        assert_eq!(
            serial.iterations(),
            parallel.iterations(),
            "{what}: {ops:?}"
        );
    }
    let what = format!("{:?} {method:?} threads={threads} after {ops:?}", sp.kind);
    assert_grids_bit_identical(serial.solution(), parallel.solution(), &what);
    assert_eq!(serial.export_state(), parallel.export_state(), "{what}");
}

fn run_shape_sweep<T: Scalar>(rng: &mut DetRng) {
    for kind in KINDS {
        // Random interior shapes plus the degenerate strips: a 3-row grid
        // has a single interior row (every band is "thin"), and a 3-column
        // grid a single interior column.
        let n = rng.gen_range(3, 40);
        let m = rng.gen_range(3, 40);
        let shapes = [(rng.gen_range(3, 40), rng.gen_range(3, 40)), (3, n), (m, 3)];
        for (rows, cols) in shapes {
            let sp: StencilProblem<T> = random_problem(rng, kind, rows, cols);
            for method in METHODS {
                for threads in THREADS {
                    check_lockstep(&sp, method, threads);
                }
            }
        }
    }
}

#[test]
fn parallel_sweeps_are_bit_identical_to_serial_f64() {
    let mut rng = DetRng::seed_from_u64(0xFD_AC_5E_01);
    for _ in 0..3 {
        run_shape_sweep::<f64>(&mut rng);
    }
}

#[test]
fn parallel_sweeps_are_bit_identical_to_serial_f32() {
    let mut rng = DetRng::seed_from_u64(0xFD_AC_5E_02);
    for _ in 0..3 {
        run_shape_sweep::<f32>(&mut rng);
    }
}

/// Interleaved state operations keep the parallel engine in bitwise
/// lockstep with the serial one: every PDE family (the wave equation's
/// history included), both parity-free methods, uneven bands at 1..=5
/// threads, both precisions.
#[test]
fn interleaved_state_operations_stay_bit_identical() {
    let mut rng = DetRng::seed_from_u64(0xFD_AC_5E_04);
    for kind in KINDS {
        let (rows, cols) = (rng.gen_range(8, 30), rng.gen_range(3, 30));
        let sp64: StencilProblem<f64> = random_problem(&mut rng, kind, rows, cols);
        let sp32: StencilProblem<f32> = random_problem(&mut rng, kind, rows, cols);
        for method in METHODS {
            for threads in 1..=5 {
                check_interleaved(&mut rng, &sp64, method, threads);
                check_interleaved(&mut rng, &sp32, method, threads);
            }
        }
    }
}

/// `row_bands_with_min` never emits a band narrower than the requested
/// tile halo: across a random space of grid heights, band counts and
/// tile depths the split (a) covers the interior exactly once in order,
/// (b) keeps every band at least `min(min_height, interior)` rows tall,
/// and (c) degrades gracefully — never more bands than requested, and
/// identical to `row_bands` when the floor is trivial.
#[test]
fn banding_respects_the_tile_halo_floor() {
    use fdm::kernels::{row_bands, row_bands_with_min};

    let mut rng = DetRng::seed_from_u64(0xFD_AC_5E_03);
    for _ in 0..2_000 {
        let rows = rng.gen_range(0, 70);
        let max_bands = rng.gen_range(1, 12);
        let min_height = rng.gen_range(1, 12);
        let interior = rows.saturating_sub(2);
        let bands = row_bands_with_min(rows, max_bands, min_height);
        let what = format!("rows={rows} max_bands={max_bands} min_height={min_height}");

        if interior == 0 {
            assert!(bands.is_empty(), "{what}: no interior, no bands");
            continue;
        }
        // Exact ordered cover of the interior 1..rows-1.
        let mut next = 1usize;
        for band in &bands {
            assert_eq!(band.start, next, "{what}: bands are contiguous");
            assert!(band.end > band.start, "{what}: bands are non-empty");
            next = band.end;
        }
        assert_eq!(next, rows - 1, "{what}: the cover is exact");
        // The halo floor: every band holds a full k-trapezoid (or the
        // whole interior, when the interior itself is shorter).
        let floor = min_height.min(interior);
        assert!(
            bands.iter().all(|b| b.len() >= floor),
            "{what}: a band fell below the halo floor: {bands:?}"
        );
        assert!(bands.len() <= max_bands, "{what}: over-split");
        if min_height <= 1 {
            assert_eq!(bands, row_bands(rows, max_bands), "{what}: trivial floor");
        }
    }
}
