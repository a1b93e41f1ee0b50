//! The two register workloads: the masking read/write register served by
//! two shards, driven open loop by [`crate::driver`].

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use bqs_analysis::empirical_load_check;
use bqs_core::bitset::ServerSet;
use bqs_core::load::{optimal_load_oracle, CertifiedLoad};
use bqs_core::oracle::MinWeightQuorumOracle;
use bqs_core::quorum::QuorumSystem;
use bqs_core::strategic::StrategicQuorumSystem;
use bqs_net::{encode_reply_batch, encode_request_batch, FrameReader, WireRequest};
use bqs_net::{NetConfig, SocketServer, SocketTransport};
use bqs_service::{LoopbackService, ServiceMetrics, TimestampOracle, Transport};
use bqs_sim::fault::FaultPlan;
use bqs_sim::server::ByzantineStrategy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::driver::{self, CapturedOp, DriverConfig, DriverReport, STEAL_SAMPLE};
use crate::stats::{least_stolen, median, quantile, spaced_setups, STEAL_LIMIT};
use crate::trace;
use crate::{Outcome, RunArgs};

/// Replica shards of the service (one per core of the 2-vCPU reference
/// runner).
pub const SHARDS: usize = 2;
/// Driver threads. With the shards they fill the two cores; more would only
/// time-share them.
pub const WORKERS: usize = 2;
/// Socket connections of the UDS client.
pub const POOL: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 51;
/// Time the set-ups are spread over (see [`spaced_setups`]).
pub const SETUP_SPREAD: Duration = Duration::from_secs(2);
/// Operations per driver worker whose fan-outs and replies feed the codec
/// measurement.
const CAPTURE_OPS: usize = 2_048;
/// Bytes fed to the decoder per push: the socket readers' chunk size.
const READ_CHUNK: usize = 16 * 1024;

/// Which transport serves the register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `bqs-net`'s socket server and client over a Unix-domain socket.
    Uds,
    /// The in-process sharded `LoopbackService`.
    Loopback,
}

/// One register workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct RegisterSpec {
    /// Transport under test.
    pub backend: Backend,
    /// Offered arrivals per second.
    pub rate: f64,
    /// Share of arrivals that write.
    pub write_fraction: f64,
    /// Masking level.
    pub b: usize,
    /// Whether the seed picks one fabricating and one crashed server. Without
    /// faults the strategy is followed exactly (no crash forces the
    /// live-quorum fallback), so the busiest server's load must sit inside
    /// the 3σ band of the certified load.
    pub faults: bool,
    /// Seconds of untimed load before the measurement. The socket client
    /// keeps every request's deadline in a heap until the deadline passes
    /// (lazy deletion), so the heap grows for one `request_deadline` and its
    /// sweeper only then reaches its steady state; measuring earlier would
    /// straddle that change.
    pub warmup_s: f64,
}

/// `read-uds`: Grid(5,1), 90 % reads, no faults, over a Unix-domain socket.
/// The reference host's 2 vCPUs are shared with other tenants, whose load
/// comes and goes. At 20k ops/s this path kept 1.4 vCPUs busy and its median
/// latency moved by a third between runs; at 10k (1.1 vCPUs) a busy
/// neighbour still pushed one run in ten into saturation (median 15× the
/// others'). 5k keeps it near 0.65 vCPUs.
pub const READ_UDS: RegisterSpec = RegisterSpec {
    backend: Backend::Uds,
    rate: 5_000.0,
    write_fraction: 0.1,
    b: 1,
    faults: false,
    warmup_s: 6.0,
};

/// `write-byz-loopback`: M-Grid(5,2), 80 % writes, one fabricator and one
/// crash, over the in-process loopback. At 40k ops/s (1.1 vCPUs) one run in
/// ten met a busy neighbour and saturated (median latency 15× the others');
/// 20k keeps it near 0.6 vCPUs.
pub const WRITE_BYZ_LOOPBACK: RegisterSpec = RegisterSpec {
    backend: Backend::Loopback,
    rate: 20_000.0,
    write_fraction: 0.8,
    b: 2,
    faults: true,
    warmup_s: 1.0,
};

/// The fault plan the seed selects: with `faults`, one server fabricates a
/// high-timestamp entry and another has crashed.
#[must_use]
pub fn fault_plan(n: usize, seed: u64, faults: bool) -> FaultPlan {
    if !faults {
        return FaultPlan::none(n);
    }
    let (fabricator, crashed) = faulty_servers(n, seed);
    FaultPlan::none(n)
        .with_byzantine(
            fabricator,
            ByzantineStrategy::FabricateHighTimestamp { value: 0xbad },
        )
        .with_crashed(crashed)
}

/// The `(fabricator, crashed)` pair the seed selects, distinct servers.
#[must_use]
pub fn faulty_servers(n: usize, seed: u64) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfa17_9a1e);
    let fabricator = rng.gen_range_u64(0, n as u64) as usize;
    let crashed = (fabricator + 1 + rng.gen_range_u64(0, n as u64 - 1) as usize) % n;
    (fabricator, crashed)
}

enum Service {
    // Field order is drop order: the client closes before its server.
    Uds {
        transport: SocketTransport,
        server: SocketServer,
    },
    Loopback(LoopbackService),
}

impl Service {
    fn transport(&self) -> &dyn Transport {
        match self {
            Service::Uds { transport, .. } => transport,
            Service::Loopback(service) => service,
        }
    }

    fn responsive(&self) -> &ServerSet {
        match self {
            Service::Uds { server, .. } => server.responsive_set(),
            Service::Loopback(service) => service.responsive_set(),
        }
    }

    fn metrics(&self) -> &ServiceMetrics {
        match self {
            Service::Uds { server, .. } => server.metrics(),
            Service::Loopback(service) => service.metrics(),
        }
    }
}

/// A primed service with its certified strategy.
struct Deployment<S> {
    system: StrategicQuorumSystem<S>,
    certified: CertifiedLoad,
    certify_s: f64,
    clock: TimestampOracle,
    service: Service,
}

impl<S: MinWeightQuorumOracle + Clone> Deployment<S> {
    fn new(spec: &RegisterSpec, system: &S, seed: u64, socket: &Path) -> Result<Self, String> {
        let started = Instant::now();
        let certified = optimal_load_oracle(system).map_err(|e| format!("certify: {e}"))?;
        let certify_s = started.elapsed().as_secs_f64();
        let strategic = StrategicQuorumSystem::from_certified(system.clone(), &certified)
            .map_err(|e| format!("strategy: {e}"))?;
        let n = system.universe_size();
        let plan = fault_plan(n, seed, spec.faults);
        let service = match spec.backend {
            Backend::Uds => {
                let server = SocketServer::bind_uds(socket, &plan, SHARDS, seed)
                    .map_err(|e| format!("bind {}: {e}", socket.display()))?;
                let config = NetConfig {
                    pool: POOL,
                    ..NetConfig::default()
                };
                let transport = SocketTransport::connect(server.endpoint().clone(), n, config)
                    .map_err(|e| format!("connect: {e}"))?;
                Service::Uds { transport, server }
            }
            Backend::Loopback => Service::Loopback(LoopbackService::spawn(&plan, SHARDS, seed)),
        };
        let clock = TimestampOracle::new();
        driver::prime_register(
            &strategic,
            service.transport(),
            service.responsive(),
            &clock,
            seed,
            driver::OP_DEADLINE,
        )?;
        Ok(Deployment {
            system: strategic,
            certified,
            certify_s,
            clock,
            service,
        })
    }
}

/// Runs one register workload and gathers its metrics and checks.
pub fn run<S: MinWeightQuorumOracle + Clone>(
    spec: &RegisterSpec,
    system: &S,
    args: &RunArgs,
) -> Outcome {
    let mut out = Outcome::default();
    let socket_dir = PathBuf::from(crate::OUT_DIR);
    if spec.backend == Backend::Uds {
        if let Err(e) = std::fs::create_dir_all(&socket_dir) {
            out.fail(format!("creating {}: {e}", socket_dir.display()));
            return out;
        }
    }
    let mut certify_s = Vec::with_capacity(SETUPS);
    let (setup_s, d) = match spaced_setups(SETUPS, SETUP_SPREAD, |i| {
        let socket = socket_dir.join(format!("uds-{}-{i}.sock", std::process::id()));
        let d = Deployment::new(spec, system, args.seed, &socket)?;
        certify_s.push(d.certify_s);
        Ok::<_, String>(d)
    }) {
        Ok(done) => done,
        Err(e) => {
            out.fail(format!("set-up: {e}"));
            return out;
        }
    };
    let certified = &d.certified;
    if certified.gap > 1e-9 {
        out.fail(format!("certified gap {:e} above 1e-9", certified.gap));
    }

    let config = DriverConfig {
        b: spec.b,
        trace: false,
        capture_ops: 0,
        seed: args.seed,
    };
    let counts_now = || d.service.metrics().access_counts();
    let warmup = measure(spec, &d, args.seed ^ 0x3a53, spec.warmup_s, &config);
    // A traced run measures an untraced half and a traced half against the
    // same service, so the tracing overhead is their difference.
    let half = if args.trace { 0.5 } else { 1.0 };
    // Every attempt replays the same quorum draws, so only the first one is
    // an independent sample of the strategy (see the load check below).
    let mut after_first = None;
    let (attempts, best) = least_stolen(
        || {
            let report = measure(spec, &d, args.seed, args.seconds * half, &config);
            after_first.get_or_insert_with(counts_now);
            report
        },
        |r| r.cpu,
    );
    let plain = &attempts[best];
    let before_traced = counts_now();
    let traced = args.trace.then(|| {
        let config = DriverConfig {
            trace: true,
            capture_ops: CAPTURE_OPS,
            ..config
        };
        measure(spec, &d, args.seed ^ 0x7ace, args.seconds * half, &config)
    });

    // The load band assumes independent quorum draws. The priming write, the
    // warm-up, the first attempt and the traced half each draw from their own
    // seed; repeated attempts replay the first one's draws and would count
    // its deviation from the strategy several times over, so they are left
    // out. Server-side counts are cumulative: the first snapshot covers
    // everything up to the first attempt, the traced half is a difference.
    let counts: Vec<u64> = after_first
        .expect("at least one attempt")
        .iter()
        .zip(counts_now().iter().zip(&before_traced))
        .map(|(first, (now, before))| first + (now - before))
        .collect();
    let operations =
        1 + warmup.fanouts + attempts[0].fanouts + traced.as_ref().map_or(0, |t| t.fanouts);
    let reports: Vec<&DriverReport> = std::iter::once(&warmup)
        .chain(&attempts)
        .chain(traced.as_ref())
        .collect();
    let load = empirical_load_check(
        d.system.name(),
        &counts,
        operations,
        certified.load.min(1.0),
    );
    if !spec.faults && !load.within_tolerance {
        out.fail(format!(
            "busiest-server load {:.4} outside the 3-sigma band {:.4} ± {:.4} ({} operations)",
            load.empirical_max_load, certified.load, load.tolerance, operations
        ));
    }

    // Warm-up operations and disturbed attempts are not reported, but they
    // count: every scheduled arrival of the run either completes or fails.
    for report in &reports {
        check_report(&mut out, report);
        out.attempted += report.scheduled;
        out.failed += report.failed();
    }

    let setup_median = median(&setup_s);
    let latencies = sorted(plain.ops.iter().map(|o| o.latency_ns));
    let cpu_per_op = |r: &DriverReport| r.cpu.total_s() * 1e6 / r.completed().max(1) as f64;

    out.info("system", d.system.name());
    out.info("backend", format!("{:?}", spec.backend));
    out.info("offered_ops_per_s", spec.rate);
    out.info("write_fraction", spec.write_fraction);
    out.info("b", spec.b);
    out.info("shards", SHARDS);
    out.info("driver_threads", WORKERS);
    if spec.backend == Backend::Uds {
        out.info("connections", POOL);
    }
    out.info("warmup_s", spec.warmup_s);
    out.info("setups", SETUPS);
    out.info("setup_spread_s", SETUP_SPREAD.as_secs_f64());
    if spec.faults {
        let (fabricator, crashed) = faulty_servers(system.universe_size(), args.seed);
        out.info("fabricator", fabricator);
        out.info("crashed", crashed);
    }
    out.info("certified_load", format!("{:.6}", certified.load));
    out.info("scheduled", plain.scheduled);
    out.info("samples", latencies.len());
    out.info(
        "failed_ratio",
        format!(
            "{} ratio",
            plain.failed() as f64 / plain.scheduled.max(1) as f64
        ),
    );
    out.info(
        "op_p99_us",
        format!("{} us", quantile(&latencies, 0.99) as f64 / 1e3),
    );
    out.info(
        "empirical_max_load",
        format!("{:.6}", load.empirical_max_load),
    );
    out.info("load_check_operations", operations);
    out.info("load_check_z", format!("{:.2}", load.z));
    out.info("steal_share", plain.cpu.steal_share());
    out.info(
        "attempt_steal_shares",
        format!(
            "{:?}",
            attempts
                .iter()
                .map(|r| r.cpu.steal_share())
                .collect::<Vec<_>>()
        ),
    );
    out.info(
        "achieved_ops_per_s",
        format!(
            "{:.1}",
            plain.completed() as f64 / plain.elapsed_s.max(1e-9)
        ),
    );

    let (p50, used_windows, windows) = windowed_median(plain);
    out.info(
        "op_p50_windows_used",
        format!("{used_windows} of {windows}"),
    );
    if !args.trace {
        out.metric("setup_s", setup_median);
        out.metric("op_p50_us", p50 / 1e3);
        out.metric("cpu_us_per_op", cpu_per_op(plain));
        return out;
    }

    let t = traced.expect("traced half ran");
    let late = sorted(plain.ops.iter().map(|o| o.late_ns));
    let ops = plain.completed().max(1) as f64;
    let tr = &t.tracer;
    let traced_latency: u64 = t.ops.iter().map(|o| o.latency_ns).sum();
    let unattributed = tr.self_ns("op");
    if unattributed as f64 > trace::MAX_UNATTRIBUTED_SHARE * traced_latency as f64 {
        out.fail(format!(
            "spans leave {unattributed} of {traced_latency} ns of operation latency uncovered \
             (limit {:.0} %)",
            trace::MAX_UNATTRIBUTED_SHARE * 100.0
        ));
    }
    let (bytes_per_op, encode_ns, decode_ns) = codec_cost(&t.captured);
    let (expiries, reconnects) = match &d.service {
        Service::Uds { transport, .. } => (
            transport.stats().deadline_expiries.load(Ordering::Relaxed),
            transport.stats().reconnects.load(Ordering::Relaxed),
        ),
        Service::Loopback(_) => (0, 0),
    };
    out.metric("sim.choose_quorum_ns", tr.mean_ns("sim.choose_quorum"));
    out.metric("sim.resolve_read_ns", tr.mean_ns("sim.resolve_read"));
    out.metric(
        "sim.quorum_size",
        t.fanout_members as f64 / t.fanouts.max(1) as f64,
    );
    out.metric("service.ts_allocate_ns", tr.mean_ns("service.ts_allocate"));
    out.metric("service.send_batch_ns", tr.mean_ns("service.send_batch"));
    out.metric("service.reply_wait_ns", tr.mean_ns("service.reply_wait"));
    out.metric(
        "service.replies_per_drain",
        t.drained_replies as f64 / t.drains.max(1) as f64,
    );
    out.metric("core.load_excess", load.empirical_max_load / certified.load);
    out.metric("net.req_bytes_per_op", bytes_per_op);
    out.metric("net.encode_ns_per_msg", encode_ns);
    out.metric("net.decode_ns_per_msg", decode_ns);
    out.metric("net.deadline_expiries", expiries as f64);
    out.metric("net.reconnects", reconnects as f64);
    out.metric("proc.user_us_per_op", plain.cpu.user_s * 1e6 / ops);
    out.metric("proc.sys_us_per_op", plain.cpu.sys_s * 1e6 / ops);
    out.metric("host.steal_share", plain.cpu.steal_share());
    out.metric("op_p99_us", quantile(&latencies, 0.99) as f64 / 1e3);
    out.metric("driver.late_p50_us", quantile(&late, 0.5) as f64 / 1e3);
    out.metric("driver.late_p99_us", quantile(&late, 0.99) as f64 / 1e3);
    out.metric("driver.unattributed_ns", tr.mean_ns("op"));
    out.metric(
        "driver.failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.metric("lp.certify_s", median(&certify_s));
    out.metric("lp.cg_rounds", certified.rounds as f64);
    out.metric("lp.cg_columns", certified.columns as f64);
    out.metric(
        "trace.overhead_cpu_us_per_op",
        cpu_per_op(&t) - cpu_per_op(plain),
    );
    if let Err(e) = crate::write_trace(args, tr) {
        out.fail(e);
    }
    out
}

/// One driver run against the deployment, its arrival schedule and its
/// quorum draws both made from `seed` (which replaces `config.seed`).
fn measure<S: MinWeightQuorumOracle>(
    spec: &RegisterSpec,
    d: &Deployment<S>,
    seed: u64,
    seconds: f64,
    config: &DriverConfig,
) -> DriverReport {
    let schedule = driver::poisson_schedule(seed, spec.rate, seconds, spec.write_fraction, WORKERS);
    driver::run(
        &d.system,
        d.service.transport(),
        d.service.responsive(),
        &d.clock,
        &schedule,
        &DriverConfig { seed, ..*config },
    )
}

fn check_report(out: &mut Outcome, r: &DriverReport) {
    if r.violations > 0 {
        out.fail(format!("{} reads returned an unsafe value", r.violations));
    }
    if r.completed() + r.failed() != r.scheduled {
        out.fail(format!(
            "accounting: {} completed + {} failed != {} scheduled",
            r.completed(),
            r.failed(),
            r.scheduled
        ));
    }
}

fn sorted(values: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = values.collect();
    v.sort_unstable();
    v
}

/// `op_p50_us` of a register run, ns: the median over the run's
/// undisturbed windows of each window's median latency. Windows are the
/// [`STEAL_SAMPLE`] stretches of the driver's machine samples, and an
/// operation falls in the window of its due time. A window is undisturbed
/// when its steal share is at most [`STEAL_LIMIT`] (no steal tick at all on
/// two CPUs); when fewer than a quarter of the windows are, the least-stolen
/// quarter is used. Returns the figure with the windows used and the windows
/// that held operations.
fn windowed_median(report: &DriverReport) -> (f64, usize, usize) {
    let width = STEAL_SAMPLE.as_nanos() as u64;
    let mut per_window: Vec<Vec<u64>> = Vec::new();
    for o in &report.ops {
        let w = (o.due_ns / width) as usize;
        if per_window.len() <= w {
            per_window.resize_with(w + 1, Vec::new);
        }
        per_window[w].push(o.latency_ns);
    }
    let steal = |w: usize| match (report.machine.get(w), report.machine.get(w + 1)) {
        (Some(&from), Some(&to)) => to.since(from).steal_share(),
        // A window without samples around it counts as disturbed.
        _ => f64::INFINITY,
    };
    let mut windows: Vec<(f64, f64)> = per_window
        .into_iter()
        .enumerate()
        .filter(|(_, ops)| !ops.is_empty())
        .map(|(w, mut ops)| {
            ops.sort_unstable();
            (steal(w), quantile(&ops, 0.5) as f64)
        })
        .collect();
    if windows.is_empty() {
        return (0.0, 0, 0);
    }
    windows.sort_by(|a, b| a.0.total_cmp(&b.0));
    let quiet = windows.iter().filter(|w| w.0 <= STEAL_LIMIT).count();
    let used = quiet.max(windows.len().div_ceil(4));
    let medians: Vec<f64> = windows[..used].iter().map(|w| w.1).collect();
    (median(&medians), used, windows.len())
}

/// Puts the captured fan-outs and replies through the wire codec, each
/// operation's requests as one batch and its replies as another, and feeds
/// the encoded stream back to a `FrameReader` in [`READ_CHUNK`] pieces:
/// request bytes per operation, and encode and decode nanoseconds per
/// message.
fn codec_cost(captured: &[CapturedOp]) -> (f64, f64, f64) {
    if captured.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let requests: Vec<Vec<WireRequest>> = captured
        .iter()
        .map(|c| {
            c.requests
                .iter()
                .map(|&(server, op, request_id)| WireRequest {
                    request_id,
                    server,
                    epoch: 0,
                    op,
                })
                .collect()
        })
        .collect();
    let messages: usize = captured
        .iter()
        .map(|c| c.requests.len() + c.replies.len())
        .sum();
    let mut request_bytes = 0usize;
    let mut buf = Vec::new();
    for r in &requests {
        let before = buf.len();
        encode_request_batch(r, &mut buf);
        request_bytes += buf.len() - before;
    }
    const MIN_TIMED: Duration = Duration::from_millis(50);
    let started = Instant::now();
    let mut rounds = 0u64;
    while rounds == 0 || started.elapsed() < MIN_TIMED {
        buf.clear();
        for (r, c) in requests.iter().zip(captured) {
            encode_request_batch(std::hint::black_box(r), &mut buf);
            encode_reply_batch(std::hint::black_box(&c.replies), &mut buf);
        }
        rounds += 1;
    }
    let encode_ns = started.elapsed().as_nanos() as f64 / (rounds as f64 * messages as f64);

    let started = Instant::now();
    let mut rounds = 0u64;
    while rounds == 0 || started.elapsed() < MIN_TIMED {
        let mut reader = FrameReader::new();
        let mut decoded = 0usize;
        for chunk in buf.chunks(READ_CHUNK) {
            reader.push(std::hint::black_box(chunk));
            while let Some(m) = reader.next_message() {
                std::hint::black_box(m);
                decoded += 1;
            }
        }
        assert_eq!(decoded, messages, "the codec round-trips every message");
        rounds += 1;
    }
    let decode_ns = started.elapsed().as_nanos() as f64 / (rounds as f64 * messages as f64);
    (
        request_bytes as f64 / captured.len() as f64,
        encode_ns,
        decode_ns,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CpuTime;
    use bqs_constructions::prelude::GridSystem;

    #[test]
    fn faulty_servers_are_distinct_and_seeded() {
        for seed in 0..200 {
            let (f, c) = faulty_servers(25, seed);
            assert!(f < 25 && c < 25 && f != c);
            assert_eq!((f, c), faulty_servers(25, seed));
        }
        let plan = fault_plan(25, 3, true);
        assert_eq!(plan.byzantine_count(), 1);
        assert_eq!(plan.crash_count(), 1);
        assert_eq!(fault_plan(25, 3, false).crash_count(), 0);
    }

    #[test]
    fn each_measurement_draws_its_own_quorums() {
        // The load band assumes independent draws: a measurement must not
        // replay another's quorums unless it replays its seed.
        let spec = RegisterSpec {
            backend: Backend::Loopback,
            rate: 2_000.0,
            write_fraction: 0.5,
            b: 1,
            faults: false,
            warmup_s: 0.0,
        };
        let grid = GridSystem::new(5, 1).expect("Grid(5,1) is valid");
        let d = Deployment::new(&spec, &grid, 1, Path::new("unused")).expect("loopback deploys");
        let config = DriverConfig {
            b: spec.b,
            trace: false,
            capture_ops: 64,
            seed: 0,
        };
        let quorums = |seed| -> Vec<Vec<usize>> {
            measure(&spec, &d, seed, 0.1, &config)
                .captured
                .iter()
                .map(|c| c.requests.iter().map(|r| r.0).collect())
                .collect()
        };
        let first = quorums(7);
        assert!(first.len() > 20);
        assert_eq!(first, quorums(7));
        assert_ne!(first, quorums(8));
    }

    /// A report whose window `w` has latency `latency[w]` µs for each of its
    /// three operations and `stolen[w]` steal ticks out of 20.
    fn windowed_report(latency: &[u64], stolen: &[u64]) -> DriverReport {
        let width = STEAL_SAMPLE.as_nanos() as u64;
        let ops = latency
            .iter()
            .enumerate()
            .flat_map(|(w, &l)| {
                (0..3).map(move |i| driver::OpTiming {
                    due_ns: w as u64 * width + i * width / 3,
                    latency_ns: l * 1_000 + i,
                    late_ns: 0,
                })
            })
            .collect();
        let mut machine = vec![CpuTime::default()];
        for &ticks in stolen {
            let last = *machine.last().unwrap();
            machine.push(CpuTime {
                steal_s: last.steal_s + ticks as f64,
                machine_s: last.machine_s + 20.0,
                ..CpuTime::default()
            });
        }
        DriverReport {
            ops,
            machine,
            ..DriverReport::default()
        }
    }

    #[test]
    fn op_p50_skips_stolen_windows() {
        // Two of six windows lost ticks to other guests and ran slow.
        let r = windowed_report(&[100, 900, 110, 120, 800, 105], &[0, 3, 0, 0, 1, 0]);
        let (p50, used, windows) = windowed_median(&r);
        assert_eq!((used, windows), (4, 6));
        assert_eq!(p50, 107_501.0);
    }

    #[test]
    fn op_p50_falls_back_to_the_least_stolen_quarter() {
        let r = windowed_report(
            &[400, 300, 900, 800, 700, 600, 500, 200],
            &[2, 1, 9, 8, 7, 6, 5, 1],
        );
        let (p50, used, windows) = windowed_median(&r);
        assert_eq!((used, windows), (2, 8));
        assert_eq!(p50, 250_001.0);
    }
}
