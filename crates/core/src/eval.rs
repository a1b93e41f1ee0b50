//! The shared evaluation engine for crash probability `F_p(Q)`.
//!
//! Every figure, table and sweep in the workspace ultimately asks the same
//! question — *how likely is it that no quorum survives?* — and before this
//! module each caller hand-rolled its own loop: single-threaded, allocating a
//! fresh [`ServerSet`] per crash configuration (`2^n` heap allocations per
//! exact evaluation). [`Evaluator`] replaces those loops with one engine:
//!
//! * **Closed forms first.** Constructions whose structure admits an exact
//!   closed-form `F_p` ([`QuorumSystem::crash_probability_closed_form`]) skip
//!   enumeration entirely — Threshold, Grid, M-Grid and RT all answer in
//!   microseconds at any `n`.
//! * **Allocation-free exact enumeration.** Crash configurations are iterated
//!   as raw `u64` masks (the exact limit is far below 64 servers) and checked
//!   through [`QuorumSystem::is_available_u64`] against one reusable scratch
//!   set per worker — zero heap allocation per configuration.
//! * **An integer unavailability profile.** Enumeration does not sum
//!   probabilities: it counts, for every `k`, the unavailable configurations
//!   with `k` live servers (`U_k`), and [`profile_mass`] evaluates
//!   `F_p = Σ_k U_k (1−p)^k p^(n−k)` once at the end. Integer counts add up
//!   the same in any order, so exact answers are bit-identical at every
//!   thread count.
//! * **Parallel by default.** Mask ranges are chunked across a scoped thread
//!   pool; Monte-Carlo trials run on independent per-thread RNG streams
//!   (deterministic for a fixed seed, regardless of thread count).
//! * **Batched sweeps.** [`Evaluator::sweep`] / [`Evaluator::sweep_systems`]
//!   evaluate whole `(system, p)` grids on one persistent worker pool,
//!   amortising thread-spawn cost across points and overlapping expensive
//!   points (Monte-Carlo, the M-Path transfer-matrix DP) in wall-clock time.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::availability::CrashEstimate;
use crate::bitset::ServerSet;
use crate::error::QuorumError;
use crate::quorum::{LaneScratch, QuorumSystem, AVAILABILITY_LANES};

/// Largest universe size accepted by the exact enumerator (`2^25`
/// configurations by default; raise with [`Evaluator::with_exact_limit`], the
/// hard ceiling being 63 bits of mask space).
pub const DEFAULT_EXACT_LIMIT: usize = 25;

/// Mask-count threshold below which exact enumeration stays on the calling
/// thread. `2^17` configurations evaluate in well under a millisecond, so
/// threads would only add overhead there.
pub const PARALLEL_MASK_THRESHOLD: u64 = 1 << 17;

/// How the engine arrived at a crash-probability value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpMethod {
    /// A structure-aware closed form (exact, any `n`).
    ClosedForm,
    /// A structure-aware transfer-matrix dynamic program (exact; feasibility
    /// depends on the instance, e.g. the M-Path boundary-interface sweep).
    Dp,
    /// An ε-pruned transfer-matrix dynamic program: the value is the midpoint
    /// of a **certified** `[lower, upper]` enclosure (carried in
    /// [`FpEstimate::interval`]) whose width accounts for all pruned mass.
    DpPruned,
    /// Exhaustive enumeration of all `2^n` crash configurations (exact).
    Exact,
    /// Monte-Carlo estimation (unbiased, with sampling error).
    MonteCarlo,
}

impl FpMethod {
    /// The snake_case label used in benchmark JSON and dispatch tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FpMethod::ClosedForm => "closed_form",
            FpMethod::Dp => "dp",
            FpMethod::DpPruned => "dp_pruned",
            FpMethod::Exact => "exact",
            FpMethod::MonteCarlo => "monte_carlo",
        }
    }
}

/// A crash-probability answer, tagged with how it was obtained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpEstimate {
    /// The crash probability `F_p(Q)` (point estimate for Monte-Carlo).
    pub value: f64,
    /// Standard error of the estimate (`None` for exact methods).
    pub std_error: Option<f64>,
    /// Number of Monte-Carlo trials behind the estimate, when applicable.
    pub trials: Option<usize>,
    /// The method that produced the value.
    pub method: FpMethod,
    /// Certified `[lower, upper]` enclosure of the true value, when the
    /// method provides one ([`FpMethod::DpPruned`]); `value` is its midpoint.
    /// Unlike a Monte-Carlo confidence interval this is a *rigorous* bound.
    pub interval: Option<(f64, f64)>,
}

impl FpEstimate {
    /// Half-width of the 95% confidence interval (zero for exact methods).
    ///
    /// For Monte-Carlo estimates with zero observed failures this degenerates
    /// to zero; [`FpEstimate::ci95_bounds`] stays informative there.
    #[must_use]
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_error.unwrap_or(0.0)
    }

    /// The 95% confidence bounds `(lower, upper)` on the crash probability:
    /// the value itself for exact methods, the Wilson score interval for
    /// Monte-Carlo. In particular a sampled estimate that observed **no**
    /// failure in `n` trials reports the rule-of-three-style upper bound
    /// `≈ 3.84/n` instead of a degenerate `0 ± 0`.
    #[must_use]
    pub fn ci95_bounds(&self) -> (f64, f64) {
        match (self.method, self.trials) {
            (FpMethod::MonteCarlo, Some(trials)) => {
                crate::availability::wilson_score_interval(self.value, trials)
            }
            (FpMethod::DpPruned, _) => self.interval.unwrap_or((self.value, self.value)),
            _ => (self.value, self.value),
        }
    }

    /// The 95% upper confidence bound (the value itself for exact methods).
    #[must_use]
    pub fn ci95_upper_bound(&self) -> f64 {
        self.ci95_bounds().1
    }

    /// Whether the estimate is exact (closed form, DP or full enumeration).
    /// Pruned-DP answers are *not* exact — they are certified enclosures; see
    /// [`FpEstimate::is_certified`].
    #[must_use]
    pub fn is_exact(&self) -> bool {
        matches!(
            self.method,
            FpMethod::ClosedForm | FpMethod::Dp | FpMethod::Exact
        )
    }

    /// Whether the true value is covered by a rigorous (non-statistical)
    /// guarantee: exact methods, or a pruned-DP certified enclosure.
    #[must_use]
    pub fn is_certified(&self) -> bool {
        self.is_exact() || (self.method == FpMethod::DpPruned && self.interval.is_some())
    }

    /// Whether `value` lies within the 95% confidence interval — the Wilson
    /// interval for Monte-Carlo (so a zero-failure estimate remains
    /// consistent with small positive truths), a small absolute tolerance for
    /// exact methods.
    #[must_use]
    pub fn is_consistent_with(&self, value: f64) -> bool {
        let (lower, upper) = self.ci95_bounds();
        value >= lower - 1e-12 && value <= upper + 1e-12
    }
}

/// The shared entry point for crash-probability evaluation.
///
/// An `Evaluator` carries the execution policy — worker count, exact-vs-
/// sampling cutoff, Monte-Carlo effort and base seed — so that sweeps and
/// bench binaries describe *what* to measure and the engine decides *how*.
///
/// # Example
///
/// ```
/// use bqs_core::eval::{Evaluator, FpMethod};
/// use bqs_core::prelude::*;
///
/// let system = ExplicitQuorumSystem::from_indices(
///     3,
///     [vec![0, 1], vec![1, 2], vec![0, 2]],
/// )?;
/// let eval = Evaluator::new().with_seed(7);
/// let fp = eval.crash_probability(&system, 0.1);
/// assert_eq!(fp.method, FpMethod::Exact);
/// // Majority-of-3 fails when >= 2 of 3 crash: 3 p^2 (1-p) + p^3.
/// assert!((fp.value - (3.0 * 0.01 * 0.9 + 0.001)).abs() < 1e-12);
/// # Ok::<(), QuorumError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Evaluator {
    threads: usize,
    exact_limit: usize,
    mc_trials: usize,
    seed: u64,
}

impl Default for Evaluator {
    fn default() -> Self {
        Evaluator {
            threads: default_threads(),
            exact_limit: DEFAULT_EXACT_LIMIT,
            mc_trials: 10_000,
            seed: 0x004d_5257_3937,
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl Evaluator {
    /// An evaluator with the default policy: all available cores, the
    /// standard exact limit, 10 000 Monte-Carlo trials, a fixed seed.
    #[must_use]
    pub fn new() -> Self {
        Evaluator::default()
    }

    /// Sets the number of worker threads (clamped to at least 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the largest universe evaluated by exact enumeration (clamped to
    /// 63, the mask-width ceiling).
    #[must_use]
    pub fn with_exact_limit(mut self, limit: usize) -> Self {
        self.exact_limit = limit.min(63);
        self
    }

    /// Sets the Monte-Carlo effort used when enumeration is infeasible.
    #[must_use]
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.mc_trials = trials.max(1);
        self
    }

    /// Sets the base seed of the deterministic per-thread RNG streams.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The configured worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured Monte-Carlo trial count.
    #[must_use]
    pub fn trials(&self) -> usize {
        self.mc_trials
    }

    /// Evaluates `F_p(Q)`, choosing the cheapest method that answers exactly:
    /// a closed form when the construction has one, exhaustive enumeration
    /// when `2^n` is tractable, Monte-Carlo estimation otherwise.
    pub fn crash_probability<Q: QuorumSystem + ?Sized>(&self, system: &Q, p: f64) -> FpEstimate {
        let p = p.clamp(0.0, 1.0);
        if let Some(value) = system.crash_probability_closed_form(p) {
            return point_estimate(value, system.closed_form_method());
        }
        if let Ok(profile) = self.unavailability_profile(system) {
            return point_estimate(profile_mass(&profile, p), FpMethod::Exact);
        }
        // Past the enumeration limit, a certified enclosure (the ε-pruned
        // DP) still beats sampling: rigorous bounds at any width the
        // construction can certify.
        if let Some(interval) = system.crash_probability_interval(p) {
            return certified_estimate(interval);
        }
        let est = self.monte_carlo(system, p);
        FpEstimate {
            value: est.mean,
            std_error: Some(est.std_error),
            trials: Some(est.trials),
            method: FpMethod::MonteCarlo,
            interval: None,
        }
    }

    /// Exact `F_p(Q)` by (parallel, allocation-free) enumeration of every
    /// crash configuration: [`profile_mass`] of
    /// [`Evaluator::unavailability_profile`]. Never consults closed forms,
    /// which makes it the reference the closed forms are validated against.
    ///
    /// The result is a pure function of `(system, p)`: the enumeration only
    /// counts configurations, so the thread count cannot change a single
    /// bit of it.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::UniverseTooLarge`] when `n` exceeds the
    /// configured exact limit.
    pub fn exact<Q: QuorumSystem + ?Sized>(&self, system: &Q, p: f64) -> Result<f64, QuorumError> {
        Ok(profile_mass(&self.unavailability_profile(system)?, p))
    }

    /// The unavailability profile of `system`: entry `k` (for `k` in
    /// `0..=n`) is the number of crash configurations with exactly `k` live
    /// servers that leave no quorum alive. A system with a kernel
    /// ([`QuorumSystem::unavailability_profile`]) counts it in one call;
    /// otherwise every configuration is enumerated, in
    /// `threads × 8` chunks above [`PARALLEL_MASK_THRESHOLD`], and the chunk
    /// profiles are added element-wise — the same integers in any order and
    /// at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::UniverseTooLarge`] when `n` exceeds the
    /// configured exact limit.
    pub fn unavailability_profile<Q: QuorumSystem + ?Sized>(
        &self,
        system: &Q,
    ) -> Result<Vec<u64>, QuorumError> {
        let n = system.universe_size();
        if n > self.exact_limit {
            return Err(QuorumError::UniverseTooLarge {
                universe_size: n,
                limit: self.exact_limit,
            });
        }
        // A kernel counts classes of masks rather than masks, so it is
        // called once, not per chunk.
        if let Some(counts) = system.unavailability_profile() {
            return Ok(counts);
        }
        let total: u64 = 1u64 << n;
        if self.threads <= 1 || total <= PARALLEL_MASK_THRESHOLD {
            return Ok(enumerate_masks(system, 0, total));
        }
        // Oversplit relative to the worker count so an unlucky chunk (for
        // example one whose masks are mostly available and exit the quorum
        // scan late) cannot straggle the whole evaluation.
        let chunks =
            (self.threads * 8).min(usize::try_from(total / 1024).unwrap_or(usize::MAX).max(1));
        let chunk_len = total.div_ceil(chunks as u64);
        let mut counts = vec![0u64; n + 1];
        Ok(std::thread::scope(|scope| {
            let handles: Vec<_> = (0..chunks as u64)
                .map(|c| {
                    let start = c * chunk_len;
                    let end = total.min(start + chunk_len);
                    scope.spawn(move || enumerate_masks(system, start, end))
                })
                .collect();
            for handle in handles {
                let chunk = handle.join().expect("worker panicked");
                for (total, c) in counts.iter_mut().zip(chunk) {
                    *total += c;
                }
            }
            counts
        }))
    }

    /// Evaluates `F_p(Q)` at every point of `ps` on a persistent scoped
    /// worker pool: the pool is spawned **once** for the whole sweep and the
    /// jobs are pulled off a shared atomic counter, so the per-call
    /// thread-spawn cost of [`Evaluator::crash_probability`] is paid once
    /// instead of once per point, and expensive points (Monte-Carlo,
    /// M-Path's transfer-matrix DP) run concurrently across sweep points
    /// rather than sequentially.
    ///
    /// Threads are split between the two levels: with `j` jobs and `t`
    /// configured threads, `min(j, t)` pool workers each evaluate jobs with
    /// a `⌊t / workers⌋`-thread per-job policy — so a one-system sweep keeps
    /// the full intra-point parallelism of [`Evaluator::crash_probability`],
    /// and a wide grid runs one job per core. Closed-form, DP, exact and
    /// Monte-Carlo answers match `self.crash_probability(system, p)`
    /// bit-for-bit at any thread count; a certified-interval batch may
    /// certify tighter enclosures than single points do.
    pub fn sweep(&self, system: &dyn QuorumSystem, ps: &[f64]) -> Vec<FpEstimate> {
        self.sweep_systems(&[system], ps).pop().unwrap_or_default()
    }

    /// The many-systems variant of [`Evaluator::sweep`]: evaluates the full
    /// `systems × ps` grid on one persistent worker pool and returns the
    /// estimates as `out[system_index][p_index]`.
    ///
    /// Closed-form-capable systems are evaluated through
    /// [`QuorumSystem::crash_probability_closed_form_batch`], one batch job
    /// per system, so constructions with `p`-independent scaffolding (the
    /// M-Path transfer-matrix DP) build it once per sweep instead of once
    /// per point. Systems the batch declines fall through to
    /// per-`(system, p)` jobs (enumeration / certified intervals /
    /// Monte-Carlo), keeping their points parallel.
    pub fn sweep_systems(&self, systems: &[&dyn QuorumSystem], ps: &[f64]) -> Vec<Vec<FpEstimate>> {
        // Phase A: one closed-form batch attempt per system, on the pool.
        let batch_results: Vec<Option<Vec<FpEstimate>>> = self.run_pool(systems.len(), |i| {
            let sys = systems[i];
            sys.crash_probability_closed_form_batch(ps)
                .map(|values| {
                    values
                        .into_iter()
                        .map(|value| point_estimate(value, sys.closed_form_method()))
                        .collect()
                })
                .or_else(|| {
                    // No exact batch: a certified-interval batch (the
                    // ε-pruned DP sharing one state enumeration across
                    // the whole p-grid) still beats per-point sampling.
                    sys.crash_probability_interval_batch(ps)
                        .map(|intervals| intervals.into_iter().map(certified_estimate).collect())
                })
        });

        // Phase B: per-(system, p) jobs for the systems the batch declined.
        let jobs: Vec<(usize, f64)> = systems
            .iter()
            .enumerate()
            .filter(|&(i, _)| batch_results[i].is_none())
            .flat_map(|(i, _)| ps.iter().map(move |&p| (i, p)))
            .collect();
        // Leftover cores go to the points themselves (see [`Evaluator::sweep`]).
        let per_point = self
            .clone()
            .with_threads(self.threads / self.threads.min(jobs.len()).max(1));
        let answers = self.run_pool(jobs.len(), |j| {
            let (i, p) = jobs[j];
            per_point.crash_probability(systems[i], p)
        });

        let mut out: Vec<Vec<FpEstimate>> = batch_results
            .into_iter()
            .map(|b| b.unwrap_or_else(|| Vec::with_capacity(ps.len())))
            .collect();
        for (answer, &(i, _)) in answers.into_iter().zip(&jobs) {
            out[i].push(answer);
        }
        out
    }

    /// Runs `job(0..count)` on a pool of `min(count, threads)` scoped
    /// workers pulling indices off a shared counter, and returns the answers
    /// in index order.
    fn run_pool<T: Send + Sync>(&self, count: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let workers = self.threads.min(count).max(1);
        if workers <= 1 {
            return (0..count).map(job).collect();
        }
        let slots: Vec<std::sync::OnceLock<T>> =
            (0..count).map(|_| std::sync::OnceLock::new()).collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let _ = slots[i].set(job(i));
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("pool completed every job"))
            .collect()
    }

    /// Monte-Carlo `F_p(Q)` with `self.trials()` trials fanned out over
    /// per-thread RNG streams. Deterministic for a fixed seed — the stream
    /// split is by trial block, not by scheduling order.
    pub fn monte_carlo<Q: QuorumSystem + ?Sized>(&self, system: &Q, p: f64) -> CrashEstimate {
        self.monte_carlo_with(system, p, self.mc_trials)
    }

    /// [`Evaluator::monte_carlo`] with an explicit trial count.
    ///
    /// Trials are partitioned into fixed-size blocks of [`MC_BLOCK_TRIALS`],
    /// each with its own RNG stream seeded from the block *index* — never
    /// from the worker count — and the failure counts are summed. The result
    /// is therefore a pure function of `(seed, trials, p, system)`, identical
    /// on a laptop, a CI runner, or any `with_threads` setting.
    pub fn monte_carlo_with<Q: QuorumSystem + ?Sized>(
        &self,
        system: &Q,
        p: f64,
        trials: usize,
    ) -> CrashEstimate {
        let trials = trials.max(1);
        let p = p.clamp(0.0, 1.0);
        let blocks = trials.div_ceil(MC_BLOCK_TRIALS);
        let block_trials = |b: usize| {
            if b + 1 == blocks {
                trials - b * MC_BLOCK_TRIALS
            } else {
                MC_BLOCK_TRIALS
            }
        };
        let workers = self.threads.min(blocks);
        let failures: usize = if workers <= 1 {
            (0..blocks)
                .map(|b| mc_failures(system, p, block_trials(b), stream_seed(self.seed, b as u64)))
                .sum()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        scope.spawn(move || {
                            // Strided block assignment; the sum over blocks is
                            // independent of which worker ran which block.
                            (w..blocks)
                                .step_by(workers)
                                .map(|b| {
                                    mc_failures(
                                        system,
                                        p,
                                        block_trials(b),
                                        stream_seed(self.seed, b as u64),
                                    )
                                })
                                .sum::<usize>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .sum()
            })
        };
        let mean = failures as f64 / trials as f64;
        CrashEstimate {
            mean,
            std_error: (mean * (1.0 - mean) / trials as f64).sqrt(),
            trials,
        }
    }
}

/// Trials per Monte-Carlo RNG-stream block. The block partition (not the
/// worker partition) defines the random streams, making estimates
/// reproducible across machines with different core counts.
pub const MC_BLOCK_TRIALS: usize = 1024;

/// An answer without sampling error or enclosure (closed form, DP or
/// enumeration).
fn point_estimate(value: f64, method: FpMethod) -> FpEstimate {
    FpEstimate {
        value,
        std_error: None,
        trials: None,
        method,
        interval: None,
    }
}

/// A certified-enclosure answer; the value is the midpoint.
fn certified_estimate((lower, upper): (f64, f64)) -> FpEstimate {
    FpEstimate {
        value: 0.5 * (lower + upper),
        std_error: None,
        trials: None,
        method: FpMethod::DpPruned,
        interval: Some((lower, upper)),
    }
}

/// Crash probability from an unavailability profile: with `counts[k]` the
/// number of unavailable configurations with `k` of `n = counts.len() - 1`
/// servers alive,
///
/// `F_p = Σ_k counts[k] · (1−p)^k p^(n−k)`,
///
/// summed in ascending `k`, clamped to `[0, 1]`. Every exact path
/// ([`Evaluator::exact`], [`Evaluator::sweep`] and the scalar reference
/// [`crate::availability::exact_crash_probability_naive`]) ends here, so
/// equal profiles give bit-identical probabilities.
#[must_use]
pub fn profile_mass(counts: &[u64], p: f64) -> f64 {
    let p = p.clamp(0.0, 1.0);
    let q = 1.0 - p;
    let n = counts.len() as i32 - 1;
    let mass: f64 = counts
        .iter()
        .zip(0..)
        .map(|(&count, k)| count as f64 * (q.powi(k) * p.powi(n - k)))
        .sum();
    mass.clamp(0.0, 1.0)
}

/// Counts the *unavailable* alive-masks in `start..end` by popcount
/// (`n + 1` entries), allocation-free per mask: one scratch pool for the
/// whole range — the generic loop for systems without a kernel
/// ([`QuorumSystem::unavailability_profile`]).
///
/// Masks are checked [`AVAILABILITY_LANES`] at a time through
/// [`QuorumSystem::is_available_u64x4`] — the availability test is where the
/// cycles go, and the batched form lets structure-aware systems answer four
/// masks per pass (SIMD-shaped for the autovectorizer).
fn enumerate_masks<Q: QuorumSystem + ?Sized>(system: &Q, start: u64, end: u64) -> Vec<u64> {
    let n = system.universe_size();
    let mut counts = vec![0u64; n + 1];
    let mut scratch = LaneScratch::new(n);
    let lanes = AVAILABILITY_LANES as u64;
    let mut mask = start;
    while mask + lanes <= end {
        let batch: [u64; AVAILABILITY_LANES] = std::array::from_fn(|i| mask + i as u64);
        let available = system.is_available_u64x4(batch, &mut scratch);
        for (&m, &ok) in batch.iter().zip(&available) {
            counts[m.count_ones() as usize] += u64::from(!ok);
        }
        mask += lanes;
    }
    while mask < end {
        if !system.is_available_u64(mask, scratch.lane_mut(0)) {
            counts[mask.count_ones() as usize] += 1;
        }
        mask += 1;
    }
    counts
}

/// Runs `trials` independent crash experiments on one RNG stream, reusing a
/// single scratch set, and counts how many left the system unavailable.
fn mc_failures<Q: QuorumSystem + ?Sized>(system: &Q, p: f64, trials: usize, seed: u64) -> usize {
    let n = system.universe_size();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut alive = ServerSet::new(n);
    let mut failures = 0usize;
    for _ in 0..trials {
        alive.clear();
        for i in 0..n {
            if rng.gen::<f64>() >= p {
                alive.insert(i);
            }
        }
        if !system.is_available(&alive) {
            failures += 1;
        }
    }
    failures
}

/// Derives statistically independent per-worker seeds (SplitMix64 finalizer).
fn stream_seed(base: u64, worker: u64) -> u64 {
    let mut z = base ^ worker.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::availability::{exact_crash_probability_naive, threshold_crash_probability};
    use crate::quorum::ExplicitQuorumSystem;
    use bqs_combinatorics::subsets::KSubsets;

    fn k_of_n_system(n: usize, k: usize) -> ExplicitQuorumSystem {
        let quorums: Vec<ServerSet> = KSubsets::new(n, k)
            .map(|s| ServerSet::from_indices(n, s))
            .collect();
        ExplicitQuorumSystem::new(n, quorums).unwrap()
    }

    #[test]
    fn exact_matches_naive_reference_bit_for_bit_on_small_universes() {
        // Both count the same unavailability profile and evaluate it through
        // `profile_mass`, so the answers are identical to the last ulp.
        let eval = Evaluator::new();
        for (n, k) in [(4usize, 3usize), (6, 4), (9, 6), (11, 7)] {
            let sys = k_of_n_system(n, k);
            for &p in &[0.05, 0.125, 0.3, 0.5, 0.77] {
                let engine = eval.exact(&sys, p).unwrap();
                let naive = exact_crash_probability_naive(&sys, p).unwrap();
                assert_eq!(
                    engine.to_bits(),
                    naive.to_bits(),
                    "n={n} k={k} p={p}: {engine} vs {naive}"
                );
            }
        }
    }

    /// A majority-of-n system answering availability by popcount alone, so the
    /// test can afford universes above the parallel threshold (2^17 masks).
    struct CheapMajority {
        n: usize,
    }

    impl QuorumSystem for CheapMajority {
        fn universe_size(&self) -> usize {
            self.n
        }
        fn name(&self) -> String {
            format!("cheap-majority({})", self.n)
        }
        fn sample_quorum(&self, _rng: &mut dyn rand::RngCore) -> ServerSet {
            ServerSet::from_indices(self.n, 0..self.n / 2 + 1)
        }
        fn find_live_quorum(&self, alive: &ServerSet) -> Option<ServerSet> {
            if alive.len() > self.n / 2 {
                Some(ServerSet::from_indices(
                    self.n,
                    alive.iter().take(self.n / 2 + 1),
                ))
            } else {
                None
            }
        }
        fn is_available(&self, alive: &ServerSet) -> bool {
            alive.len() > self.n / 2
        }
        fn min_quorum_size(&self) -> usize {
            self.n / 2 + 1
        }
    }

    #[test]
    fn parallel_enumeration_matches_serial() {
        // n = 19 exceeds the 2^17-mask threshold, forcing the chunked path.
        let sys = CheapMajority { n: 19 };
        let serial = Evaluator::new().with_threads(1);
        for &p in &[0.1, 0.5] {
            let a = serial.exact(&sys, p).unwrap();
            for threads in 2..=4 {
                let b = Evaluator::new()
                    .with_threads(threads)
                    .exact(&sys, p)
                    .unwrap();
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "p={p} threads={threads}: {a} vs {b}"
                );
            }
            let closed = threshold_crash_probability(19, 10, p);
            assert!((a - closed).abs() < 1e-9, "p={p}: {a} vs closed {closed}");
        }
    }

    #[test]
    fn crash_probability_dispatches_to_exact_and_reports_method() {
        let sys = k_of_n_system(5, 3);
        let fp = Evaluator::new().crash_probability(&sys, 0.25);
        assert_eq!(fp.method, FpMethod::Exact);
        assert!(fp.is_exact());
        assert_eq!(fp.ci95_half_width(), 0.0);
        let closed = threshold_crash_probability(5, 3, 0.25);
        assert!((fp.value - closed).abs() < 1e-12);
    }

    #[test]
    fn crash_probability_falls_back_to_monte_carlo() {
        // 30 servers is beyond the exact limit and the explicit system has no
        // closed form, so the engine must sample.
        let quorums: Vec<ServerSet> = (0..4)
            .map(|i| ServerSet::from_indices(30, (0..16).map(|j| (i + j) % 30)))
            .collect();
        let sys = ExplicitQuorumSystem::new(30, quorums).unwrap();
        let eval = Evaluator::new().with_trials(2000).with_seed(11);
        let fp = eval.crash_probability(&sys, 0.3);
        assert_eq!(fp.method, FpMethod::MonteCarlo);
        assert!(!fp.is_exact());
        assert_eq!(fp.trials, Some(2000));
        assert!(fp.std_error.unwrap() > 0.0);
        assert!((0.0..=1.0).contains(&fp.value));
    }

    #[test]
    fn monte_carlo_is_deterministic_across_thread_counts() {
        let sys = k_of_n_system(9, 6);
        let a = Evaluator::new()
            .with_seed(5)
            .with_threads(1)
            .monte_carlo_with(&sys, 0.2, 4096);
        let b = Evaluator::new()
            .with_seed(5)
            .with_threads(4)
            .monte_carlo_with(&sys, 0.2, 4096);
        // The RNG streams are defined by the fixed block partition, not the
        // worker partition: the estimate is a pure function of the seed and
        // trial count, identical for every thread count.
        assert_eq!(a.mean, b.mean);
        let c = Evaluator::new()
            .with_seed(5)
            .with_threads(3)
            .monte_carlo_with(&sys, 0.2, 4096);
        assert_eq!(a.mean, c.mean);
        // And the deterministic value is statistically consistent with exact.
        let exact = Evaluator::new().exact(&sys, 0.2).unwrap();
        for est in [a, b] {
            assert!(
                (est.mean - exact).abs() <= est.ci95_half_width() + 0.03,
                "mc {} vs exact {exact}",
                est.mean
            );
        }
    }

    #[test]
    fn sweep_matches_single_point_evaluation_bit_for_bit() {
        let sys = k_of_n_system(9, 6);
        let mc_sys = {
            // A 30-server explicit system forces the Monte-Carlo path.
            let quorums: Vec<ServerSet> = (0..4)
                .map(|i| ServerSet::from_indices(30, (0..16).map(|j| (i + j) % 30)))
                .collect();
            ExplicitQuorumSystem::new(30, quorums).unwrap()
        };
        let ps = [0.05, 0.125, 0.25, 0.4];
        let eval = Evaluator::new()
            .with_trials(2000)
            .with_seed(23)
            .with_threads(4);
        let serial = eval.clone().with_threads(1);
        let grid = eval.sweep_systems(&[&sys, &mc_sys], &ps);
        assert_eq!(grid.len(), 2);
        for (s, sys) in [(&grid[0], &sys as &dyn QuorumSystem), (&grid[1], &mc_sys)] {
            assert_eq!(s.len(), ps.len());
            for (est, &p) in s.iter().zip(&ps) {
                let direct = serial.crash_probability(sys, p);
                assert_eq!(est.method, direct.method);
                assert_eq!(est.value.to_bits(), direct.value.to_bits(), "p={p}");
            }
        }
        // The single-system convenience wrapper agrees with the grid form.
        let single = eval.sweep(&sys, &ps);
        for (a, b) in single.iter().zip(&grid[0]) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    }

    #[test]
    fn sweep_batches_closed_forms_and_tags_methods() {
        struct ClosedFormCounting;
        impl QuorumSystem for ClosedFormCounting {
            fn universe_size(&self) -> usize {
                100
            }
            fn name(&self) -> String {
                "closed-form-batch".into()
            }
            fn sample_quorum(&self, _rng: &mut dyn rand::RngCore) -> ServerSet {
                ServerSet::full(100)
            }
            fn find_live_quorum(&self, _alive: &ServerSet) -> Option<ServerSet> {
                unreachable!("the engine must not probe availability")
            }
            fn crash_probability_closed_form(&self, p: f64) -> Option<f64> {
                Some(p * p)
            }
            fn min_quorum_size(&self) -> usize {
                100
            }
        }
        let ps = [0.1, 0.3, 0.5];
        let eval = Evaluator::new();
        let grid = eval.sweep(&ClosedFormCounting, &ps);
        assert_eq!(grid.len(), 3);
        for (est, &p) in grid.iter().zip(&ps) {
            assert_eq!(est.method, FpMethod::ClosedForm);
            let direct = eval.crash_probability(&ClosedFormCounting, p);
            assert_eq!(est.value.to_bits(), direct.value.to_bits());
        }
        // A mixed grid: closed-form system batches, explicit system falls
        // through to per-point jobs — row order must be preserved.
        let explicit = k_of_n_system(5, 3);
        let rows = eval.sweep_systems(&[&ClosedFormCounting, &explicit], &ps);
        assert_eq!(rows[0][0].method, FpMethod::ClosedForm);
        assert_eq!(rows[1][0].method, FpMethod::Exact);
        for (est, &p) in rows[1].iter().zip(&ps) {
            let direct = eval.clone().with_threads(1).crash_probability(&explicit, p);
            assert_eq!(est.value.to_bits(), direct.value.to_bits());
        }
    }

    #[test]
    fn sweep_handles_empty_and_single_point_inputs() {
        let sys = k_of_n_system(5, 3);
        assert!(Evaluator::new().sweep(&sys, &[]).is_empty());
        let one = Evaluator::new().sweep(&sys, &[0.2]);
        assert_eq!(one.len(), 1);
        assert!(one[0].is_exact());
        let none: Vec<Vec<FpEstimate>> = Evaluator::new().sweep_systems(&[], &[0.1, 0.2]);
        assert!(none.is_empty());
    }

    #[test]
    fn monte_carlo_zero_hits_reports_wilson_upper_bound() {
        // A majority-of-30 system at p = 0.05 essentially never fails in 2000
        // trials (F_p ~ 1e-12): the estimate must still carry a usable upper
        // bound.
        let sys = CheapMajority { n: 30 };
        let fp = Evaluator::new()
            .with_trials(2000)
            .with_seed(3)
            .crash_probability(&sys, 0.05);
        assert_eq!(fp.method, FpMethod::MonteCarlo);
        assert_eq!(fp.value, 0.0);
        let (lower, upper) = fp.ci95_bounds();
        assert_eq!(lower, 0.0);
        assert!(upper > 0.0 && upper < 0.003, "upper={upper}");
        assert_eq!(fp.ci95_upper_bound(), upper);
        // Consistent with tiny positive truths, not with large ones.
        assert!(fp.is_consistent_with(1e-6));
        assert!(!fp.is_consistent_with(0.05));
    }

    #[test]
    fn closed_form_short_circuits_enumeration() {
        struct ClosedFormOnly;
        impl QuorumSystem for ClosedFormOnly {
            fn universe_size(&self) -> usize {
                100 // far beyond any exact limit
            }
            fn name(&self) -> String {
                "closed-form-only".into()
            }
            fn sample_quorum(&self, _rng: &mut dyn rand::RngCore) -> ServerSet {
                ServerSet::full(100)
            }
            fn find_live_quorum(&self, _alive: &ServerSet) -> Option<ServerSet> {
                unreachable!("the engine must not probe availability")
            }
            fn crash_probability_closed_form(&self, p: f64) -> Option<f64> {
                Some(p * p)
            }
            fn min_quorum_size(&self) -> usize {
                100
            }
        }
        let fp = Evaluator::new().crash_probability(&ClosedFormOnly, 0.25);
        assert_eq!(fp.method, FpMethod::ClosedForm);
        assert!((fp.value - 0.0625).abs() < 1e-15);
    }

    #[test]
    fn exact_limit_is_enforced_and_configurable() {
        let sys = k_of_n_system(10, 6);
        let strict = Evaluator::new().with_exact_limit(8);
        assert!(matches!(
            strict.exact(&sys, 0.1),
            Err(QuorumError::UniverseTooLarge { limit: 8, .. })
        ));
        assert!(strict.crash_probability(&sys, 0.1).method == FpMethod::MonteCarlo);
        let relaxed = Evaluator::new().with_exact_limit(12);
        assert!(relaxed.exact(&sys, 0.1).is_ok());
    }
}
