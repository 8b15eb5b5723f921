//! Seeded input generation.
//!
//! Every input the program sees is made here from the run's seed and
//! nothing else; the same seed gives the same inputs, bit for bit.

use detrng::DetRng;
use fdm::boundary::DirichletBoundary;
use fdm::convergence::StopCondition;
use fdm::grid::Grid2D;
use fdm::pde::{PdeKind, PoissonProblem, StencilProblem};
use fdm::workload::{benchmark_problem, DEFAULT_TOLERANCE};
use fdmax::accelerator::HwUpdateMethod;
use fdmax::service::{JobSpec, TenantId};

/// `SplitMix64` finaliser: a cheap, well-mixed hash of one word.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A transient heat problem on an `n x n` `f32` field whose every value
/// (boundary ring included) is drawn from `[0.25, 1.25)` by hashing the
/// seed with the cell index. Values stay well inside the normal `f32`
/// range under diffusion, so no step ever meets a subnormal.
///
/// The field is written straight into `f32` storage: an `f64`
/// intermediate would double the peak footprint of a field sized
/// against the last-level cache.
#[must_use]
pub fn heat_field(seed: u64, n: usize, steps: usize) -> StencilProblem<f32> {
    let template =
        benchmark_problem::<f32>(PdeKind::Heat, 8, steps).expect("an 8x8 heat problem is valid");
    let salt = mix(seed ^ 0x4EA7);
    let mut data = Vec::with_capacity(n * n);
    data.extend((0..(n * n) as u64).map(|k| {
        let bits = mix(salt ^ k) >> 40; // 24 random bits
        0.25 + bits as f32 * (1.0 / (1u32 << 24) as f32)
    }));
    StencilProblem {
        initial: Grid2D::from_vec(n, n, data).expect("n*n values"),
        ..template
    }
}

/// The steady Poisson problem of the `steady_tol` workload: the
/// repository's benchmark configuration (sine-heated top edge, centred
/// Gaussian sink) with the sink's strength and centre perturbed by the
/// seed — by at most 2% and 0.01 — so every seed needs nearly the same
/// number of iterations to the tolerance.
#[must_use]
pub fn steady_poisson(seed: u64, n: usize) -> StencilProblem<f32> {
    let mut rng = DetRng::seed_from_u64(mix(seed ^ 0x5EAD));
    let amp = -40.0 * rng.gen_f64(0.98, 1.02);
    let (cx, cy) = (rng.gen_f64(0.49, 0.51), rng.gen_f64(0.49, 0.51));
    let h = 1.0 / (n - 1) as f64;
    PoissonProblem::builder(n, n)
        .spacing(h, h)
        .boundary(DirichletBoundary::sine_top(1.0))
        .source_fn(move |x, y| {
            let (dx, dy) = (x - cx, y - cy);
            amp * (-((dx * dx + dy * dy) / 0.02)).exp()
        })
        .stop(DEFAULT_TOLERANCE, 10_000_000)
        .build()
        .expect("an n x n Poisson problem with n >= 3 is valid")
        .discretize()
}

/// Grid sizes and step counts of the `service_mix` jobs.
#[derive(Clone, Copy, Debug)]
pub struct MixShape {
    /// Smallest grid edge.
    pub min_n: usize,
    /// Largest grid edge of a fixed-step job.
    pub max_n: usize,
    /// Largest grid edge of a tolerance job.
    pub max_tol_n: usize,
    /// Fixed-step jobs run this many steps at least...
    pub min_steps: usize,
    /// ...and at most this many.
    pub max_steps: usize,
    /// Stop tolerance of the tolerance jobs: loose enough that a
    /// Jacobi solve on `max_tol_n` converges inside the service's
    /// per-job iteration cap.
    pub tolerance: f64,
}

/// The two tenants of `service_mix`.
pub const TENANTS: [TenantId; 2] = [TenantId(1), TenantId(2)];

/// The `service_mix` job stream: an endless, seeded sequence of jobs.
///
/// Jobs come in blocks of eight, one per (PDE, method) pair, in a
/// seeded order. The steady equations run Jacobi to a tolerance and
/// Hybrid for a fixed step count; the transient ones run a fixed step
/// count under both methods. Within a block, grid sizes and step counts
/// are stratified: each of a block's jobs draws from its own equal
/// slice of the range. Blocking and stratifying keep the work a block
/// holds nearly the same across seeds, so a seed changes which jobs
/// run, not how much work a run holds.
#[derive(Debug)]
pub struct JobStream {
    rng: DetRng,
    shape: MixShape,
    block: Vec<(PdeKind, HwUpdateMethod, usize, usize)>,
}

/// `k` values from `[lo, hi]`, one from each of `k` equal slices of the
/// range, in a seeded order.
fn stratified(rng: &mut DetRng, lo: usize, hi: usize, k: usize) -> Vec<usize> {
    let width = (hi - lo + 1) as f64 / k as f64;
    let mut out: Vec<usize> = (0..k)
        .map(|i| {
            let v = lo as f64 + width * (i as f64 + rng.gen_unit_f64());
            (v as usize).min(hi)
        })
        .collect();
    shuffle(rng, &mut out);
    out
}

/// Fisher-Yates with the stream's own generator.
fn shuffle<T>(rng: &mut DetRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0, i + 1);
        items.swap(i, j);
    }
}

impl JobStream {
    /// A stream for `seed`.
    #[must_use]
    pub fn new(seed: u64, shape: MixShape) -> Self {
        JobStream {
            rng: DetRng::seed_from_u64(mix(seed ^ 0x5E41)),
            shape,
            block: Vec::new(),
        }
    }

    /// The next job, tagged with `client`'s tenant (clients alternate
    /// between the two tenants).
    pub fn next_job(&mut self, client: usize) -> JobSpec {
        if self.block.is_empty() {
            self.refill();
        }
        let (kind, method, n, steps) = self.block.pop().expect("block refilled above");
        let stop = if steps == 0 {
            StopCondition::tolerance(self.shape.tolerance, 1_000_000)
        } else {
            StopCondition::fixed_steps(steps)
        };
        let problem = benchmark_problem::<f32>(kind, n, steps).expect("n >= 3 by construction");
        JobSpec::new(problem, method, stop).with_tenant(TENANTS[client % TENANTS.len()])
    }

    /// Builds the next block of eight jobs as `(kind, method, n, steps)`,
    /// `steps == 0` marking a tolerance job.
    fn refill(&mut self) {
        let s = self.shape;
        let classes: Vec<(PdeKind, HwUpdateMethod)> = PdeKind::ALL
            .into_iter()
            .flat_map(|k| [HwUpdateMethod::Jacobi, HwUpdateMethod::Hybrid].map(|m| (k, m)))
            .collect();
        let is_tol = |(k, m): &(PdeKind, HwUpdateMethod)| {
            k.is_steady_state() && *m == HwUpdateMethod::Jacobi
        };
        let fixed = classes.iter().filter(|c| !is_tol(c)).count();
        let mut tol_n = stratified(&mut self.rng, s.min_n, s.max_tol_n, classes.len() - fixed);
        let mut fixed_n = stratified(&mut self.rng, s.min_n, s.max_n, fixed);
        let mut fixed_steps = stratified(&mut self.rng, s.min_steps, s.max_steps, fixed);
        self.block = classes
            .into_iter()
            .map(|c| {
                if is_tol(&c) {
                    (
                        c.0,
                        c.1,
                        tol_n.pop().expect("one size per tolerance job"),
                        0,
                    )
                } else {
                    let n = fixed_n.pop().expect("one size per fixed-step job");
                    (c.0, c.1, n, fixed_steps.pop().expect("one count per job"))
                }
            })
            .collect();
        shuffle(&mut self.rng, &mut self.block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: MixShape = MixShape {
        min_n: 16,
        max_n: 24,
        max_tol_n: 20,
        min_steps: 4,
        max_steps: 8,
        tolerance: 1e-2,
    };

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(heat_field(3, 16, 4), heat_field(3, 16, 4));
        assert_ne!(heat_field(3, 16, 4).initial, heat_field(4, 16, 4).initial);
        assert_eq!(steady_poisson(9, 16), steady_poisson(9, 16));
        let (mut a, mut b) = (JobStream::new(5, SHAPE), JobStream::new(5, SHAPE));
        for c in 0..20 {
            let (ja, jb) = (a.next_job(c), b.next_job(c));
            assert_eq!(ja.problem, jb.problem);
            assert_eq!(ja.stop, jb.stop);
            assert_eq!(ja.method, jb.method);
        }
    }

    #[test]
    fn blocks_hold_every_class_once() {
        let mut s = JobStream::new(11, SHAPE);
        let mut tol = 0;
        let mut kinds = std::collections::BTreeMap::new();
        for c in 0..8 {
            let job = s.next_job(c);
            tol += usize::from(job.stop.tolerance_value().is_some());
            *kinds.entry(format!("{:?}", job.problem.kind)).or_insert(0) += 1;
        }
        assert_eq!(tol, 2);
        assert!(kinds.values().all(|&k| k == 2));
    }

    #[test]
    fn heat_field_values_stay_normal() {
        let p = heat_field(1, 32, 4);
        assert!(p
            .initial
            .as_slice()
            .iter()
            .all(|v| (0.25..1.25).contains(v)));
    }
}
