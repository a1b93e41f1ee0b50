//! The `design-query` workload: the question a deployer asks before serving
//! anything — which construction, at what load, with what availability —
//! answered through the public calls of `bqs-lp` (via `bqs-core::load`) and
//! `bqs-core::eval`. None of the service path runs here.

use std::time::{Duration, Instant};

use bqs_analysis::load_analysis::{certified_constructions, CertifiableConstruction};
use bqs_constructions::prelude::*;
use bqs_core::bitset::ServerSet;
use bqs_core::eval::{Evaluator, FpEstimate, FpMethod};
use bqs_core::load::{optimal_load_oracle, optimal_load_oracle_for_survivors};
use bqs_core::quorum::QuorumSystem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{least_stolen, median, quantile, spaced_setups, CpuTime};
use crate::trace::{Span, Tracer};
use crate::{Outcome, RunArgs};

/// Side and masking level of the Section 8 roster (`n ≈ 1024`, `b = 15`).
pub const ROSTER_SIDE: usize = 32;
/// Masking level of the Section 8 roster.
pub const ROSTER_B: usize = 15;
/// Points of the seed-drawn `p`-grid, spread over `(0, P_MAX)`.
pub const P_POINTS: usize = 12;
/// Upper end of the `p`-grid.
pub const P_MAX: f64 = 0.3;
/// Indices into the `p`-grid where exact enumeration cross-checks the
/// closed forms of Grid(5,1) and M-Grid(5,2). (M-Path has no word-level
/// availability kernel: enumerating its 2^25 configurations takes minutes,
/// so its DP is checked for method only.)
pub const EXACT_P_INDICES: [usize; 5] = [1, 3, 5, 7, 9];
/// Largest gap between exact enumeration and the closed form or DP it
/// cross-checks (the engine's documented agreement, as `bench_fp` asserts).
pub const EXACT_TOLERANCE: f64 = 1e-9;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 21;
/// Time the set-ups are spread over (see [`spaced_setups`]).
pub const SETUP_SPREAD: Duration = Duration::from_secs(3);

/// The systems a design query examines, built once per run.
pub struct DesignSystems {
    roster: Vec<Box<dyn CertifiableConstruction>>,
    grid: GridSystem,
    mgrid: MGridSystem,
    mpath: MPathSystem,
    mgrid_pool: Vec<ServerSet>,
    survivors: ServerSet,
    ps: Vec<f64>,
}

impl DesignSystems {
    /// Builds the roster, the three `n = 25` systems, the M-Grid quorum
    /// pool, the survivors of the seed's crash, and the seed's `p`-grid.
    ///
    /// # Panics
    ///
    /// Panics if a fixed construction parameter is invalid (a bug here).
    #[must_use]
    pub fn build(seed: u64) -> Self {
        let mgrid = MGridSystem::new(5, 2).expect("M-Grid(5,2) is valid");
        let mgrid_pool = mgrid
            .to_explicit(1_000)
            .expect("M-Grid(5,2) has 100 quorums")
            .quorums()
            .to_vec();
        let (_, crashed) = crate::register::faulty_servers(25, seed);
        let mut survivors = ServerSet::full(25);
        survivors.remove(crashed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x00de_519e);
        let ps = (0..P_POINTS)
            .map(|i| (i as f64 + rng.gen::<f64>()) / P_POINTS as f64 * P_MAX)
            .collect();
        DesignSystems {
            roster: certified_constructions(ROSTER_SIDE, ROSTER_B),
            grid: GridSystem::new(5, 1).expect("Grid(5,1) is valid"),
            mgrid,
            mpath: MPathSystem::new(5, 2).expect("M-Path(5,2) is valid"),
            mgrid_pool,
            survivors,
            ps,
        }
    }

    /// Every system whose load is certified per query.
    fn certified(&self) -> Vec<&dyn CertifiableConstruction> {
        let mut all: Vec<&dyn CertifiableConstruction> =
            self.roster.iter().map(AsRef::as_ref).collect();
        all.push(&self.grid);
        all.push(&self.mgrid);
        all
    }

    /// The systems with a closed-form `F_p`, swept as one grid.
    fn closed_form(&self) -> Vec<&dyn QuorumSystem> {
        let mut all: Vec<&dyn QuorumSystem> = self
            .roster
            .iter()
            .filter(|s| s.crash_probability_closed_form(0.1).is_some())
            .map(|s| s.as_ref() as &dyn QuorumSystem)
            .collect();
        all.push(&self.grid);
        all.push(&self.mgrid);
        all
    }
}

/// Per-query totals of the certifications' `CertifiedLoad` counters. Every
/// construction certified by [`optimal_load_oracle`] here has a symmetric
/// strategy hint, which the engine certifies without a master solve (0
/// rounds, the hint's columns); the survivor pool has no hint, so its
/// certification is the query's column-generation loop.
#[derive(Debug, Default, Clone, Copy)]
struct QueryCounts {
    cg_rounds: usize,
    cg_columns: usize,
}

/// Records spans around each step of one query when tracing.
struct Steps {
    base: Instant,
    trace: bool,
    spans: Vec<Span>,
    query: u64,
}

impl Steps {
    fn step<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.trace {
            return f();
        }
        let start = self.base.elapsed().as_nanos() as u64;
        let out = f();
        self.spans.push(Span {
            op: self.query,
            name,
            parent: Some(0),
            start,
            end: self.base.elapsed().as_nanos() as u64,
        });
        out
    }
}

/// One design query. Failed checks are appended to `out`.
fn query(
    sys: &DesignSystems,
    evaluator: &Evaluator,
    steps: &mut Steps,
    out: &mut Outcome,
) -> QueryCounts {
    let mut counts = QueryCounts::default();
    let mut mgrid_load = 0.0;
    for s in sys.certified() {
        match steps.step("lp.certify", || optimal_load_oracle(s)) {
            Ok(c) => {
                counts.cg_rounds += c.rounds;
                counts.cg_columns += c.columns;
                if c.gap > 1e-9 {
                    out.fail(format!(
                        "{}: certified gap {:e} above 1e-9",
                        s.name(),
                        c.gap
                    ));
                }
                if (c.load - s.analytic_load()).abs() > 1e-9 {
                    out.fail(format!(
                        "{}: certified load {} differs from analytic {}",
                        s.name(),
                        c.load,
                        s.analytic_load()
                    ));
                }
                if s.name() == sys.mgrid.name() {
                    mgrid_load = c.load;
                }
            }
            Err(e) => out.fail(format!("{}: certification failed: {e}", s.name())),
        }
    }

    match steps.step("lp.survivor_certify", || {
        optimal_load_oracle_for_survivors(25, &sys.mgrid_pool, &sys.survivors)
    }) {
        Ok(c) => {
            counts.cg_rounds += c.rounds;
            counts.cg_columns += c.columns;
            if c.gap > 1e-9 {
                out.fail(format!("survivor certification gap {:e}", c.gap));
            }
            if c.load < mgrid_load - 1e-9 {
                out.fail(format!(
                    "survivor load {} below the full system's {mgrid_load}",
                    c.load
                ));
            }
        }
        Err(e) => out.fail(format!("survivor certification failed: {e}")),
    }

    let closed = sys.closed_form();
    let swept = steps.step("eval.closed_form", || {
        evaluator.sweep_systems(&closed, &sys.ps)
    });
    for (s, row) in closed.iter().zip(&swept) {
        if row.len() != sys.ps.len() || !row.iter().all(|e| e.is_exact()) {
            out.fail(format!("{}: closed-form sweep was not exact", s.name()));
        }
    }
    let dp = steps.step("eval.dp", || evaluator.sweep(&sys.mpath, &sys.ps));
    if !dp.iter().all(|e| e.method == FpMethod::Dp) {
        out.fail("M-Path(5,2) sweep did not run the transfer-matrix DP".to_string());
    }

    let references: [(&dyn QuorumSystem, &[FpEstimate]); 2] = [
        (&sys.grid, &swept[swept.len() - 2]),
        (&sys.mgrid, &swept[swept.len() - 1]),
    ];
    for (s, reference) in &references {
        for &i in &EXACT_P_INDICES {
            match steps.step("eval.exact", || evaluator.exact(*s, sys.ps[i])) {
                Ok(v) => {
                    if (v - reference[i].value).abs() > EXACT_TOLERANCE {
                        out.fail(format!(
                            "{} at p={}: exact {v} vs reference {}",
                            s.name(),
                            sys.ps[i],
                            reference[i].value
                        ));
                    }
                }
                Err(e) => out.fail(format!("{}: exact enumeration failed: {e}", s.name())),
            }
        }
    }
    counts
}

/// Queries issued back to back for `seconds` (at least one).
struct Phase {
    wall_s: Vec<f64>,
    late_ns: Vec<u64>,
    cpu: CpuTime,
    counts: QueryCounts,
    tracer: Tracer,
}

fn phase(
    sys: &DesignSystems,
    evaluator: &Evaluator,
    seconds: f64,
    trace: bool,
    out: &mut Outcome,
) -> Phase {
    let base = Instant::now();
    let cpu_before = CpuTime::now();
    let mut p = Phase {
        wall_s: Vec::new(),
        late_ns: Vec::new(),
        cpu: CpuTime::default(),
        counts: QueryCounts::default(),
        tracer: Tracer::default(),
    };
    // Each query falls due when the previous one completes.
    let mut due = base;
    while p.wall_s.is_empty() || base.elapsed().as_secs_f64() < seconds {
        let started = Instant::now();
        let mut steps = Steps {
            base,
            trace,
            spans: Vec::new(),
            query: p.wall_s.len() as u64,
        };
        p.counts = query(sys, evaluator, &mut steps, out);
        let done = Instant::now();
        p.wall_s.push((done - due).as_secs_f64());
        p.late_ns.push((started - due).as_nanos() as u64);
        if trace {
            let ns = |t: Instant| (t - base).as_nanos() as u64;
            steps.spans.insert(
                0,
                Span {
                    op: steps.query,
                    name: "op",
                    parent: None,
                    start: ns(due),
                    end: ns(done),
                },
            );
            p.tracer.record(&steps.spans);
        }
        due = done;
    }
    p.cpu = CpuTime::now().since(cpu_before);
    p
}

/// Runs the design-query workload.
pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let Ok((setup_s, sys)) = spaced_setups(SETUPS, SETUP_SPREAD, |_| {
        Ok::<_, std::convert::Infallible>(DesignSystems::build(args.seed))
    });
    let evaluator = Evaluator::new();

    // One untimed query first, so lazily built tables and page faults are
    // not charged to the first timed one. Its checks still count.
    let warm = phase(&sys, &evaluator, 0.0, false, &mut out);

    let half = if args.trace { 0.5 } else { 1.0 };
    let (attempts, best) = least_stolen(
        || phase(&sys, &evaluator, args.seconds * half, false, &mut out),
        |p| p.cpu,
    );
    let plain = &attempts[best];
    let queries = plain.wall_s.len() as f64;
    out.attempted =
        (warm.wall_s.len() + attempts.iter().map(|p| p.wall_s.len()).sum::<usize>()) as u64;
    out.info(
        "roster",
        sys.roster
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join("; "),
    );
    out.info("p_grid", format!("{:?}", sys.ps));
    out.info("exact_p_indices", format!("{EXACT_P_INDICES:?}"));
    out.info("evaluator_threads", evaluator.threads());
    out.info("setups", SETUPS);
    out.info("setup_spread_s", SETUP_SPREAD.as_secs_f64());
    out.info("queries", plain.wall_s.len());
    out.info("design_s", format!("{} s", median(&plain.wall_s)));
    out.info(
        "design_cpu_s",
        format!("{} s", plain.cpu.total_s() / queries),
    );
    out.info("steal_share", plain.cpu.steal_share());
    out.info(
        "attempt_steal_shares",
        format!(
            "{:?}",
            attempts
                .iter()
                .map(|p| p.cpu.steal_share())
                .collect::<Vec<_>>()
        ),
    );

    if !args.trace {
        out.metric("setup_s", median(&setup_s));
        out.metric("op_p50_us", median(&plain.wall_s) * 1e6);
        out.metric("cpu_us_per_op", plain.cpu.total_s() * 1e6 / queries);
        return out;
    }

    let t = phase(&sys, &evaluator, args.seconds * half, true, &mut out);
    out.attempted += t.wall_s.len() as u64;
    let traced_queries = t.wall_s.len() as f64;
    let tr = &t.tracer;
    let per_query = |name: &str| tr.self_ns(name) as f64 / 1e9 / traced_queries;
    let traced_wall: f64 = t.wall_s.iter().sum();
    if per_query("op") * traced_queries > crate::trace::MAX_UNATTRIBUTED_SHARE * traced_wall {
        out.fail(format!(
            "spans leave {:.4} s of {traced_wall:.4} s of query time uncovered",
            per_query("op") * traced_queries
        ));
    }
    let mut late = plain.late_ns.clone();
    late.sort_unstable();
    out.metric("lp.certify_s", per_query("lp.certify"));
    out.metric("lp.cg_rounds", t.counts.cg_rounds as f64);
    out.metric("lp.cg_columns", t.counts.cg_columns as f64);
    out.metric("lp.survivor_certify_s", per_query("lp.survivor_certify"));
    out.metric("eval.closed_form_s", per_query("eval.closed_form"));
    out.metric("eval.dp_s", per_query("eval.dp"));
    out.metric("eval.exact_s", per_query("eval.exact"));
    out.metric("proc.user_us_per_op", plain.cpu.user_s * 1e6 / queries);
    out.metric("proc.sys_us_per_op", plain.cpu.sys_s * 1e6 / queries);
    out.metric("host.steal_share", plain.cpu.steal_share());
    let mut wall_us: Vec<u64> = plain.wall_s.iter().map(|s| (s * 1e6) as u64).collect();
    wall_us.sort_unstable();
    out.metric("op_p99_us", quantile(&wall_us, 0.99) as f64);
    out.metric("driver.late_p50_us", quantile(&late, 0.5) as f64 / 1e3);
    out.metric("driver.late_p99_us", quantile(&late, 0.99) as f64 / 1e3);
    out.metric("driver.unattributed_ns", per_query("op") * 1e9);
    out.metric("driver.failed_ratio", 0.0);
    out.metric(
        "trace.overhead_cpu_us_per_op",
        (t.cpu.total_s() / traced_queries - plain.cpu.total_s() / queries) * 1e6,
    );
    if let Err(e) = crate::write_trace(args, tr) {
        out.fail(e);
    }
    out
}
