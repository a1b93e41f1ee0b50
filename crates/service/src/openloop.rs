//! Open-loop load generation: Poisson arrivals at a configured *offered*
//! rate, independent of service completions.
//!
//! The closed-loop generator ([`crate::runner::run_service`]) structurally
//! caps throughput at `clients / RTT`: when the service slows down, the
//! clients slow down with it, so offered load always equals completed load
//! and the latency-vs-load curve degenerates to a single operating point per
//! client count. An **open-loop** generator decouples the two — operations
//! arrive by a Poisson process at rate λ whether or not earlier operations
//! have completed — which is what exposes the *saturation knee*: below
//! capacity, achieved throughput tracks offered load and latency is flat;
//! past capacity, queues grow, latency explodes, and achieved throughput
//! pins at the service's capacity. That knee is the measurement connecting
//! the paper's load theory (`L(Q)` bounds how much capacity a strategy can
//! extract per server) to real service capacity.
//!
//! # Mechanics
//!
//! * Arrivals are multiplexed onto `workers` OS threads. Each worker runs its
//!   own Poisson arrival process at `offered_rate / workers` (the
//!   superposition of independent Poisson streams is Poisson at the summed
//!   rate).
//! * Operations **pipeline**: a worker fires a new arrival's quorum fan-out
//!   without waiting for earlier operations, keeping up to
//!   `max_in_flight_per_worker` operations outstanding. Each fan-out goes
//!   through **one** [`Transport::send_batch`] call (one shard wake or one
//!   coalesced wire frame per destination), and replies come back through
//!   one swap-buffer reply mailbox per worker, drained in whole batches and
//!   matched by [`Reply::request_id`] (the ids encode the owning operation)
//!   — so thousands of in-flight operations share one completion path with
//!   no per-op channel allocation. Each operation is a [`QuorumAccess`], the
//!   protocol core shared with the closed-loop client; the worker owns only
//!   the clock (arrivals, latency, deadlines).
//! * When the in-flight cap is hit, further arrivals are **shed** (counted,
//!   never silently dropped) — the open-loop semantics stay honest while
//!   memory stays bounded far past the knee.
//! * Per-operation deadlines bound every wait ([`crate::transport`]'s "no
//!   answer" contract: an accepted request is not a promise of a reply), so
//!   the generator cannot hang on a half-dead transport.
//!
//! The generator is transport-generic: the loopback measures the in-process
//! ceiling, `bqs-net`'s socket transports measure a real network stack, and
//! `bench_net` sweeps offered rate across both to locate each backend's knee
//! (`BENCH_net.json`).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bqs_core::quorum::QuorumSystem;
use bqs_sim::client::{AccessKind, ProtocolError, QuorumAccess, ReplyVerdict};
use bqs_sim::server::Entry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client::ServiceClient;
use crate::mailbox::{DrainStatus, ReplyHandle, ReplyMailbox};
use crate::metrics::{LatencyHistogram, ServiceMetrics};
use crate::shard::{authentic_value, TimestampOracle};
use crate::transport::{Operation, Reply, Request, Transport};

/// Configuration of one open-loop measurement point.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopConfig {
    /// Total offered arrival rate, operations per second, across all workers.
    pub offered_rate: f64,
    /// Total operations scheduled (the measurement length in arrivals, which
    /// keeps runs deterministic in size; wall-clock follows as
    /// `total_arrivals / offered_rate` plus drain).
    pub total_arrivals: usize,
    /// OS threads the arrivals are multiplexed onto.
    pub workers: usize,
    /// Fraction of arrivals that are writes.
    pub write_fraction: f64,
    /// In-flight operation cap per worker; arrivals beyond it are shed.
    pub max_in_flight_per_worker: usize,
    /// Per-operation deadline: an operation whose quorum replies have not all
    /// arrived within this window is abandoned and counted as timed out.
    pub op_deadline: Duration,
    /// How long after its last arrival a worker keeps draining in-flight
    /// operations before abandoning the rest.
    pub tail_deadline: Duration,
    /// Base seed deriving every per-worker RNG.
    pub seed: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            offered_rate: 1_000.0,
            total_arrivals: 2_000,
            workers: 2,
            write_fraction: 0.2,
            max_in_flight_per_worker: 2_048,
            op_deadline: Duration::from_secs(10),
            tail_deadline: Duration::from_secs(10),
            seed: 0x09e4_100b,
        }
    }
}

/// The result of one open-loop measurement point.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// The configured offered rate (ops/sec).
    pub offered_rate: f64,
    /// Arrivals actually scheduled (= `total_arrivals`).
    pub scheduled: u64,
    /// Writes that completed their full quorum rendezvous.
    pub completed_writes: u64,
    /// Reads that completed with a safe value.
    pub completed_reads: u64,
    /// Reads that completed their rendezvous with an empty safe set.
    pub inconclusive_reads: u64,
    /// Arrivals shed at the in-flight cap (offered-but-never-sent load).
    pub shed: u64,
    /// Operations abandoned at their deadline with replies still missing.
    pub timed_out: u64,
    /// Arrivals that found no live quorum to contact.
    pub no_live_quorum: u64,
    /// Requests the transport refused outright (service shutting down).
    pub rejected_sends: u64,
    /// Operations fenced by the servers' epoch gate (the generator's epoch
    /// stamp fell outside the acceptance window). Nonzero only when a
    /// reconfiguration finalises past the epoch this run was started with.
    pub fenced: u64,
    /// Reads that returned a fabricated (timestamp, value) pair.
    pub safety_violations: u64,
    /// Wall-clock seconds from first arrival to last completion.
    pub elapsed_seconds: f64,
    /// The arrival rate actually realised by the Poisson schedule
    /// (`scheduled` over the span up to the last arrival). For small runs
    /// this fluctuates around `offered_rate` by `~1/sqrt(scheduled)`;
    /// saturation judgements should compare achieved throughput against
    /// *this*, not the configured rate, or schedule noise reads as capacity.
    pub realized_offered_ops_per_sec: f64,
    /// The arrival rate the Poisson schedule itself planned: `scheduled` over
    /// the latest planned arrival offset of any worker. It carries the same
    /// sampling noise as the realised rate but none of the injection lag, so
    /// `realized / planned` well below one means the injector could not keep
    /// up with its own schedule.
    pub planned_offered_ops_per_sec: f64,
    /// Completed round trips (writes + safe reads + inconclusive reads) per
    /// wall-clock second — the *achieved* rate to compare against offered.
    pub achieved_ops_per_sec: f64,
    /// Operations that contacted a full quorum — the load-accounting
    /// denominator matching `ServiceReport::load_operations`.
    pub load_operations: u64,
    /// Peak operations simultaneously in flight across all workers (summed
    /// per-worker peaks; an upper bound on the true global peak).
    pub peak_in_flight: u64,
    /// Mean end-to-end operation latency, nanoseconds.
    pub latency_mean_ns: u64,
    /// Exact latency percentiles over every completed operation, ns.
    pub latency_p50_ns: u64,
    /// 90th percentile latency, ns.
    pub latency_p90_ns: u64,
    /// 99th percentile latency, ns.
    pub latency_p99_ns: u64,
    /// Maximum observed latency, ns.
    pub latency_max_ns: u64,
    /// p50 estimate from the shared lock-free 64-bucket histogram
    /// ([`LatencyHistogram::quantile`]: bucket midpoint, within −25 %/+50 %
    /// of the exact quantile). Zero when nothing completed. Reported
    /// alongside the exact percentiles so sweep harnesses can use the
    /// allocation-free path.
    pub latency_hist_p50_ns: u64,
    /// p99 histogram estimate, ns (same error bound as the p50).
    pub latency_hist_p99_ns: u64,
    /// p99.9 histogram estimate, ns (same error bound as the p50).
    pub latency_hist_p999_ns: u64,
}

impl OpenLoopReport {
    /// Completed round trips: full-rendezvous writes and reads (safe or
    /// inconclusive).
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed_writes + self.completed_reads + self.inconclusive_reads
    }

    /// True when no read returned a fabricated pair.
    #[must_use]
    pub fn is_safe(&self) -> bool {
        self.safety_violations == 0
    }

    /// Fraction of the offered arrivals that completed a round trip.
    #[must_use]
    pub fn completion_ratio(&self) -> f64 {
        if self.scheduled == 0 {
            return 1.0;
        }
        self.completed() as f64 / self.scheduled as f64
    }
}

/// One in-flight operation awaiting its quorum replies.
struct PendingOp {
    started: Instant,
    deadline: Instant,
    access: QuorumAccess,
}

/// Per-worker tallies folded into the final report.
#[derive(Debug, Default)]
struct WorkerTally {
    writes: u64,
    reads: u64,
    inconclusive: u64,
    shed: u64,
    timed_out: u64,
    no_live_quorum: u64,
    rejected: u64,
    fenced: u64,
    violations: u64,
    peak_in_flight: u64,
    latencies_ns: Vec<u64>,
    last_completion: Option<Instant>,
    last_arrival: Option<Instant>,
    /// Offset of the latest planned arrival from the worker's start.
    planned_span: Duration,
}

/// Ambient state an open-loop run shares with the longer-lived session it is
/// part of. Reconfiguration harnesses run several measurement phases against
/// one persistent service; each phase is one open-loop run, but the phases
/// must share a single [`TimestampOracle`] — the freshness half of the safety
/// check compares read timestamps against the *writer's* clock, and a clock
/// restarted per phase would misread every earlier phase's (perfectly
/// authentic) entries as fabrications. `OpenLoopSession::default()` is a
/// single-phase run at epoch 0 with a fresh clock and no client metrics.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpenLoopSession<'a> {
    /// The epoch stamped on every request of this run (a service that has
    /// never reconfigured runs at epoch 0).
    pub epoch: u64,
    /// Client-side metrics: completed operations record per-server access
    /// counts (feeding [`ServiceMetrics::empirical_loads`]) and every reply
    /// feeds the per-server failure-detector evidence the `bqs-epoch`
    /// suspicion engine reads. `None` skips the accounting.
    pub metrics: Option<&'a ServiceMetrics>,
    /// The writer clock; `None` makes the run its own single-phase session
    /// with a fresh clock.
    pub clock: Option<&'a TimestampOracle>,
}

/// Drives `transport` with Poisson arrivals at `config.offered_rate` and
/// returns the achieved-rate / latency measurement. `responsive` is the
/// failure detector's view used for quorum selection (pass the server side's
/// view for in-process measurements, or a full set when no faults are
/// injected); `b` is the masking level applied to reads; `session` supplies
/// the epoch stamp, the evidence metrics and the writer clock.
///
/// The register is primed with one best-effort write before measurement
/// starts, so steady-state reads do not pay the cold-register inconclusive
/// penalty.
///
/// # Panics
///
/// Panics if the transport's or the metrics' universe differs from the
/// system's, or the configuration is degenerate (zero rate/arrivals/workers/
/// cap, or a write fraction outside `[0, 1]`).
#[must_use]
pub fn run_open_loop<Q, T>(
    system: &Q,
    b: usize,
    transport: &T,
    responsive: &bqs_core::bitset::ServerSet,
    config: &OpenLoopConfig,
    session: &OpenLoopSession<'_>,
) -> OpenLoopReport
where
    Q: QuorumSystem + ?Sized,
    T: Transport + ?Sized,
{
    if let Some(metrics) = session.metrics {
        assert_eq!(
            metrics.universe_size(),
            system.universe_size(),
            "metrics and quorum system must cover the same universe"
        );
    }
    assert_eq!(
        transport.universe_size(),
        system.universe_size(),
        "transport and quorum system must cover the same universe"
    );
    assert!(
        config.offered_rate > 0.0 && config.offered_rate.is_finite(),
        "offered rate must be positive"
    );
    assert!(config.total_arrivals > 0, "need at least one arrival");
    assert!(config.workers > 0, "need at least one worker");
    assert!(
        config.max_in_flight_per_worker > 0,
        "need a positive in-flight cap"
    );
    assert!(
        (0.0..=1.0).contains(&config.write_fraction),
        "write fraction is a probability"
    );

    let owned_clock;
    let clock: &TimestampOracle = match session.clock {
        Some(shared) => shared,
        None => {
            owned_clock = TimestampOracle::new();
            &owned_clock
        }
    };
    // Prime the register with one best-effort write. A lossy transport can
    // swallow a priming reply, so it waits no longer than a real operation.
    let ts = clock.allocate();
    let _ = ServiceClient::new(system, transport, responsive.clone(), b)
        .with_epoch(session.epoch)
        .with_reply_deadline(config.op_deadline)
        .write(
            Entry {
                timestamp: ts,
                value: authentic_value(ts),
            },
            &mut StdRng::seed_from_u64(config.seed ^ 0x9e37_79b9_7f4a_7c15),
        );

    let run = &Run {
        system,
        b,
        transport,
        responsive,
        config,
        session,
        clock,
        hist: LatencyHistogram::new(),
    };
    let workers = config.workers.min(config.total_arrivals);
    let per_worker_rate = config.offered_rate / workers as f64;
    let started = Instant::now();
    let tallies: Vec<WorkerTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker_id| {
                // Spread the remainder so exactly `total_arrivals` are scheduled.
                let quota = config.total_arrivals / workers
                    + usize::from(worker_id < config.total_arrivals % workers);
                scope.spawn(move || run.worker_loop(worker_id, quota, per_worker_rate))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop workers do not panic"))
            .collect()
    });

    let mut folded = WorkerTally::default();
    for t in tallies {
        folded.writes += t.writes;
        folded.reads += t.reads;
        folded.inconclusive += t.inconclusive;
        folded.shed += t.shed;
        folded.timed_out += t.timed_out;
        folded.no_live_quorum += t.no_live_quorum;
        folded.rejected += t.rejected;
        folded.fenced += t.fenced;
        folded.violations += t.violations;
        folded.peak_in_flight += t.peak_in_flight;
        folded.latencies_ns.extend(t.latencies_ns);
        folded.last_completion = folded.last_completion.max(t.last_completion);
        folded.last_arrival = folded.last_arrival.max(t.last_arrival);
        folded.planned_span = folded.planned_span.max(t.planned_span);
    }
    folded.latencies_ns.sort_unstable();
    let elapsed = (folded.last_completion.unwrap_or(started) - started).as_secs_f64();
    let arrival_span = (folded.last_arrival.unwrap_or(started) - started).as_secs_f64();
    let completed = folded.writes + folded.reads + folded.inconclusive;
    let quantile = |q: f64| -> u64 {
        if folded.latencies_ns.is_empty() {
            return 0;
        }
        let rank = ((q * folded.latencies_ns.len() as f64).ceil() as usize)
            .clamp(1, folded.latencies_ns.len());
        folded.latencies_ns[rank - 1]
    };
    let mean = if folded.latencies_ns.is_empty() {
        0
    } else {
        (folded
            .latencies_ns
            .iter()
            .map(|&l| u128::from(l))
            .sum::<u128>()
            / folded.latencies_ns.len() as u128) as u64
    };
    OpenLoopReport {
        offered_rate: config.offered_rate,
        scheduled: config.total_arrivals as u64,
        completed_writes: folded.writes,
        completed_reads: folded.reads,
        inconclusive_reads: folded.inconclusive,
        shed: folded.shed,
        timed_out: folded.timed_out,
        no_live_quorum: folded.no_live_quorum,
        rejected_sends: folded.rejected,
        fenced: folded.fenced,
        safety_violations: folded.violations,
        elapsed_seconds: elapsed,
        realized_offered_ops_per_sec: if arrival_span > 0.0 {
            config.total_arrivals as f64 / arrival_span
        } else {
            config.offered_rate
        },
        planned_offered_ops_per_sec: if folded.planned_span > Duration::ZERO {
            config.total_arrivals as f64 / folded.planned_span.as_secs_f64()
        } else {
            config.offered_rate
        },
        achieved_ops_per_sec: if elapsed > 0.0 {
            completed as f64 / elapsed
        } else {
            0.0
        },
        load_operations: completed,
        peak_in_flight: folded.peak_in_flight,
        latency_mean_ns: mean,
        latency_p50_ns: quantile(0.50),
        latency_p90_ns: quantile(0.90),
        latency_p99_ns: quantile(0.99),
        latency_max_ns: folded.latencies_ns.last().copied().unwrap_or(0),
        latency_hist_p50_ns: run.hist.quantile(0.50).unwrap_or(0),
        latency_hist_p99_ns: run.hist.quantile(0.99).unwrap_or(0),
        latency_hist_p999_ns: run.hist.quantile(0.999).unwrap_or(0),
    }
}

/// What every worker of one open-loop run shares.
struct Run<'a, Q: ?Sized, T: ?Sized> {
    system: &'a Q,
    b: usize,
    transport: &'a T,
    responsive: &'a bqs_core::bitset::ServerSet,
    config: &'a OpenLoopConfig,
    session: &'a OpenLoopSession<'a>,
    clock: &'a TimestampOracle,
    hist: LatencyHistogram,
}

impl<Q: QuorumSystem + ?Sized, T: Transport + ?Sized> Run<'_, Q, T> {
    /// One worker's event loop: schedule Poisson arrivals, pipeline quorum
    /// fan-outs (one batched transport call each), drain whole batches of
    /// replies from the worker's mailbox, match them by request id, expire
    /// deadlines.
    fn worker_loop(&self, worker_id: usize, quota: usize, rate: f64) -> WorkerTally {
        let config = self.config;
        let mut rng =
            StdRng::seed_from_u64(config.seed ^ 0x0be4_100bu64.wrapping_mul(worker_id as u64 + 1));
        let reply_mailbox = Arc::new(ReplyMailbox::new());
        let mut fanout: Vec<Request> = Vec::new();
        let mut drained: Vec<Reply> = Vec::new();
        let mut pending: HashMap<u64, PendingOp> = HashMap::new();
        let mut tally = WorkerTally::default();
        // Request ids encode (worker, operation): the low 8 bits distinguish
        // the members of one fan-out (transports need per-request uniqueness),
        // the rest is the operation key the reply is matched back to.
        let worker_tag = (worker_id as u64 + 1) << 48;
        let mut op_seq: u64 = 0;

        let started = Instant::now();
        let mut launched = 0usize;
        let mut next_arrival = started + exp_gap(rate, &mut rng);
        let mut tail_end: Option<Instant> = None;

        loop {
            let now = Instant::now();

            // Arrival phase: fire every arrival whose time has come.
            while launched < quota && now >= next_arrival {
                launched += 1;
                tally.planned_span = next_arrival - started;
                next_arrival += exp_gap(rate, &mut rng);
                tally.last_arrival = Some(now);
                if pending.len() >= config.max_in_flight_per_worker {
                    tally.shed += 1;
                    continue;
                }
                let is_write = rng.gen_bool(config.write_fraction);
                let kind = if is_write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let access = match QuorumAccess::start(
                    self.system,
                    self.responsive,
                    &mut rng,
                    kind,
                    self.session.epoch,
                ) {
                    Ok(access) => access,
                    Err(ProtocolError::NoLiveQuorum) => {
                        tally.no_live_quorum += 1;
                        continue;
                    }
                    Err(ProtocolError::NoSafeValue) => unreachable!("selection cannot lack values"),
                };
                let op = if is_write {
                    let ts = self.clock.allocate();
                    Operation::Write(Entry {
                        timestamp: ts,
                        value: authentic_value(ts),
                    })
                } else {
                    Operation::Read
                };
                op_seq += 1;
                let op_key = worker_tag | (op_seq << 8);
                let op_started = Instant::now();
                debug_assert!(fanout.is_empty());
                for (member, server) in access.quorum().iter().enumerate() {
                    fanout.push(Request {
                        server,
                        op,
                        request_id: op_key | member as u64,
                        origin: worker_id as u64 + 1,
                        epoch: self.session.epoch,
                        reply: Arc::clone(&reply_mailbox) as ReplyHandle,
                    });
                }
                if !self.transport.send_batch(&mut fanout) {
                    // The op is unaccounted on the wire; stragglers from a
                    // partially delivered fan-out are dropped by the id match
                    // below (no pending entry exists for them).
                    fanout.clear();
                    tally.rejected += 1;
                    continue;
                }
                pending.insert(
                    op_key,
                    PendingOp {
                        started: op_started,
                        deadline: op_started + config.op_deadline,
                        access,
                    },
                );
                tally.peak_in_flight = tally.peak_in_flight.max(pending.len() as u64);
            }

            // Completion criteria: all arrivals fired and nothing left in
            // flight (or the tail window has closed on what remains).
            if launched >= quota {
                if pending.is_empty() {
                    break;
                }
                let tail = *tail_end.get_or_insert_with(|| Instant::now() + config.tail_deadline);
                if Instant::now() >= tail {
                    tally.timed_out += pending.len() as u64;
                    pending.clear();
                    break;
                }
            }

            // Reply phase: wait until the next arrival is due (bounded so
            // deadline expiry stays responsive), then drain everything ready.
            let wait = if launched < quota {
                next_arrival
                    .saturating_duration_since(Instant::now())
                    .min(Duration::from_millis(20))
            } else {
                Duration::from_millis(20)
            };
            match reply_mailbox.drain_timeout(wait, &mut drained) {
                DrainStatus::Drained(_) => {
                    for reply in drained.drain(..) {
                        self.handle_reply(reply, &mut pending, &mut tally);
                    }
                }
                DrainStatus::TimedOut => {}
                DrainStatus::Closed => {
                    // The reply path died under us: every in-flight operation
                    // is answerless forever. Account them as timed out and
                    // stop instead of spinning on a dead mailbox.
                    tally.timed_out += pending.len() as u64;
                    pending.clear();
                    break;
                }
            }

            // Expiry phase: abandon operations past their deadline, accusing
            // every quorum member that never answered (per-server no-answer
            // evidence for the failure detector).
            let now = Instant::now();
            if pending.values().any(|op| now >= op.deadline) {
                let before = pending.len();
                pending.retain(|_, op| {
                    if now < op.deadline {
                        return true;
                    }
                    if let Some(metrics) = self.session.metrics {
                        for server in op.access.missing() {
                            metrics.record_server_no_answer(server);
                        }
                    }
                    false
                });
                tally.timed_out += (before - pending.len()) as u64;
            }
        }
        tally
    }

    /// Matches one reply to its pending operation and resolves the operation
    /// when the last quorum member has answered.
    fn handle_reply(
        &self,
        reply: Reply,
        pending: &mut HashMap<u64, PendingOp>,
        tally: &mut WorkerTally,
    ) {
        let metrics = self.session.metrics;
        let op_key = reply.request_id & !0xff;
        let Some(op) = pending.get_mut(&op_key) else {
            return; // straggler from an expired/rejected operation
        };
        match op
            .access
            .on_reply(reply.server, reply.entry, reply.epoch, reply.stale)
        {
            ReplyVerdict::Ignored => return,
            ReplyVerdict::Fenced => {
                // The whole fan-out is unusable (a fenced operation must never
                // complete with strategies mixed in), so the op is abandoned.
                // Fencing is a configuration signal, not misbehaviour: no
                // accusal.
                pending.remove(&op_key);
                tally.fenced += 1;
                return;
            }
            ReplyVerdict::Answer => {
                if let Some(metrics) = metrics {
                    let elapsed = op.started.elapsed().as_nanos() as u64;
                    metrics.record_server_answer(reply.server, elapsed);
                }
            }
            ReplyVerdict::NoAnswer => {
                if let Some(metrics) = metrics {
                    metrics.record_server_no_answer(reply.server);
                }
            }
        }
        if !op.access.is_complete() {
            return;
        }
        let op = pending.remove(&op_key).expect("just observed");
        let latency = op.started.elapsed().as_nanos() as u64;
        if op.access.kind() == AccessKind::Write {
            tally.writes += 1;
        } else {
            match op.access.finish(self.b) {
                Ok((best, _)) => {
                    tally.reads += 1;
                    if self.clock.check_read(&best, 0).violated() {
                        tally.violations += 1;
                    }
                }
                Err(ProtocolError::NoSafeValue) => tally.inconclusive += 1,
                Err(ProtocolError::NoLiveQuorum) => unreachable!("resolution cannot lack quorums"),
            }
        }
        if let Some(metrics) = metrics {
            // Client-side load accounting: the completed operation touched
            // every member of its quorum once (matches the server-side
            // definition, but works across any transport backend).
            for server in op.access.quorum().iter() {
                metrics.record_access(server);
            }
            metrics.record_operation(latency);
        }
        tally.latencies_ns.push(latency);
        self.hist.record(latency);
        tally.last_completion = Some(Instant::now());
    }
}

/// One exponential inter-arrival gap at `rate` arrivals per second.
fn exp_gap<R: Rng>(rate: f64, rng: &mut R) -> Duration {
    let u: f64 = rng.gen();
    // 1 - u is in (0, 1]: the log is finite and non-positive.
    Duration::from_secs_f64(-(1.0 - u).ln() / rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::LoopbackService;
    use bqs_constructions::prelude::*;
    use bqs_sim::fault::FaultPlan;
    use bqs_sim::server::ByzantineStrategy;

    fn quick(rate: f64, arrivals: usize) -> OpenLoopConfig {
        OpenLoopConfig {
            offered_rate: rate,
            total_arrivals: arrivals,
            workers: 2,
            write_fraction: 0.3,
            max_in_flight_per_worker: 256,
            op_deadline: Duration::from_secs(10),
            tail_deadline: Duration::from_secs(10),
            seed: 7,
        }
    }

    #[test]
    fn accounting_identity_and_safety_on_loopback() {
        let system = GridSystem::new(5, 1).unwrap();
        let plan = FaultPlan::none(25);
        let service = LoopbackService::spawn(&plan, 2, 42);
        let report = run_open_loop(
            &system,
            1,
            &service,
            service.responsive_set(),
            &quick(2_000.0, 400),
            &OpenLoopSession::default(),
        );
        assert_eq!(
            report.scheduled,
            report.completed()
                + report.shed
                + report.timed_out
                + report.no_live_quorum
                + report.rejected_sends
                + report.fenced,
            "every arrival must be accounted for exactly once: {report:?}"
        );
        assert_eq!(report.fenced, 0, "nothing reconfigures in this run");
        assert!(report.is_safe());
        // Far below the loopback's capacity: everything completes.
        assert_eq!(report.completed(), 400);
        assert!(report.completed_writes > 0 && report.completed_reads > 0);
        assert!(report.achieved_ops_per_sec > 0.0);
        assert!(report.latency_p50_ns > 0);
        assert!(report.latency_p50_ns <= report.latency_p99_ns);
        assert!(report.latency_p99_ns <= report.latency_max_ns);
        // Histogram estimates track the exact percentiles within the
        // documented bucket-resolution bound (−25 %/+50 %).
        assert!(report.latency_hist_p50_ns > 0);
        assert!(report.latency_hist_p50_ns <= report.latency_hist_p99_ns);
        assert!(report.latency_hist_p99_ns <= report.latency_hist_p999_ns);
        let ratio = report.latency_hist_p50_ns as f64 / report.latency_p50_ns as f64;
        assert!(ratio > 0.75 && ratio <= 1.5, "hist p50 off: {ratio}");
        assert!(report.peak_in_flight >= 1);
        // Access counts accumulated on the server side for the load check
        // (every completed operation contacted a quorum, which in Grid(5, 1)
        // is at least 9 servers wide).
        let accesses: u64 = service.metrics().access_counts().iter().sum();
        assert!(accesses >= report.load_operations * 9);
    }

    #[test]
    fn injection_keeps_to_the_planned_schedule_below_capacity() {
        // Far below loopback capacity every arrival fires on its planned
        // time, so realised and planned rates agree whatever the Poisson
        // draw did to both; only a backpressured injector drifts behind.
        let system = GridSystem::new(5, 1).unwrap();
        let service = LoopbackService::spawn(&FaultPlan::none(25), 2, 44);
        let report = run_open_loop(
            &system,
            1,
            &service,
            service.responsive_set(),
            &quick(400.0, 200),
            &OpenLoopSession::default(),
        );
        let lag = report.realized_offered_ops_per_sec / report.planned_offered_ops_per_sec;
        assert!(
            (0.95..=1.0 + 1e-9).contains(&lag),
            "realised/planned = {lag}: {report:?}"
        );
    }

    #[test]
    fn byzantine_fabrication_is_masked_under_open_loop() {
        let system = MGridSystem::new(5, 2).unwrap();
        let plan = FaultPlan::none(25)
            .with_byzantine(
                3,
                ByzantineStrategy::FabricateHighTimestamp { value: 0xbad },
            )
            .with_byzantine(
                17,
                ByzantineStrategy::FabricateHighTimestamp { value: 0xbad },
            );
        let service = LoopbackService::spawn(&plan, 2, 43);
        let report = run_open_loop(
            &system,
            2,
            &service,
            service.responsive_set(),
            &quick(2_000.0, 300),
            &OpenLoopSession::default(),
        );
        assert!(report.is_safe(), "b = 2 masks two fabricators: {report:?}");
        assert!(report.completed_reads > 0);
    }

    #[test]
    fn in_flight_cap_sheds_instead_of_queueing_unboundedly() {
        let system = GridSystem::new(5, 1).unwrap();
        let plan = FaultPlan::none(25);
        let service = LoopbackService::spawn(&plan, 1, 44);
        let config = OpenLoopConfig {
            max_in_flight_per_worker: 1,
            workers: 1,
            // Offered far past what one pipelined slot can serve.
            offered_rate: 200_000.0,
            total_arrivals: 2_000,
            ..quick(0.0, 0)
        };
        let report = run_open_loop(
            &system,
            1,
            &service,
            service.responsive_set(),
            &config,
            &OpenLoopSession::default(),
        );
        assert!(
            report.shed > 0,
            "cap of 1 must shed at this rate: {report:?}"
        );
        assert_eq!(
            report.scheduled,
            report.completed()
                + report.shed
                + report.timed_out
                + report.no_live_quorum
                + report.rejected_sends
                + report.fenced
        );
        assert!(report.is_safe());
    }

    #[test]
    fn crashes_beyond_resilience_surface_as_no_live_quorum() {
        let system = ThresholdSystem::minimal_masking(1).unwrap();
        // 4 crashes out of 5 leave no live quorum (quorums need 4 of 5).
        let plan = FaultPlan::none(5)
            .with_crashed(0)
            .with_crashed(1)
            .with_crashed(2)
            .with_crashed(3);
        let service = LoopbackService::spawn(&plan, 1, 45);
        let report = run_open_loop(
            &system,
            1,
            &service,
            service.responsive_set(),
            &quick(1_000.0, 100),
            &OpenLoopSession::default(),
        );
        assert_eq!(report.no_live_quorum, 100, "{report:?}");
        assert_eq!(report.completed(), 0);
    }

    #[test]
    fn client_side_metrics_accumulate_accesses_and_evidence() {
        let system = GridSystem::new(5, 1).unwrap();
        let plan = FaultPlan::none(25);
        let service = LoopbackService::spawn(&plan, 2, 48);
        let metrics = ServiceMetrics::new(25);
        let report = run_open_loop(
            &system,
            1,
            &service,
            service.responsive_set(),
            &quick(2_000.0, 200),
            &OpenLoopSession {
                epoch: 0,
                metrics: Some(&metrics),
                clock: None,
            },
        );
        assert_eq!(report.completed(), 200);
        // Every completed op recorded one access per quorum member on the
        // *client-side* metrics (Grid(5, 1) quorums are at least 9 wide).
        let accesses: u64 = metrics.access_counts().iter().sum();
        assert!(accesses >= report.load_operations * 9);
        assert_eq!(metrics.operations(), report.completed());
        // Healthy servers produce overwhelmingly answer evidence. A few
        // accusals are expected early on: a read reaching a server before any
        // write has landed there is served an in-band `None`, which counts
        // against the server until its register fills.
        let answers: u64 = metrics.server_answer_counts().iter().sum();
        let accusals: u64 = metrics.server_no_answer_counts().iter().sum();
        assert!(answers > 0);
        assert!(
            accusals * 10 < answers,
            "healthy run: answers ({answers}) must dwarf accusals ({accusals})"
        );
    }

    #[test]
    fn fenced_epochs_fail_fast_and_account_as_fenced() {
        let system = GridSystem::new(5, 1).unwrap();
        let plan = FaultPlan::none(25);
        let service = LoopbackService::spawn(&plan, 2, 49);
        // The service has reconfigured past this generator's epoch: every
        // fan-out meets the gate and comes back stale.
        service.epoch_gate().finalize(3);
        let metrics = ServiceMetrics::new(25);
        let report = run_open_loop(
            &system,
            1,
            &service,
            service.responsive_set(),
            &quick(2_000.0, 200),
            &OpenLoopSession {
                epoch: 0,
                metrics: Some(&metrics),
                clock: None,
            },
        );
        assert_eq!(report.completed(), 0);
        assert!(report.fenced > 0, "{report:?}");
        assert_eq!(
            report.scheduled,
            report.completed()
                + report.shed
                + report.timed_out
                + report.no_live_quorum
                + report.rejected_sends
                + report.fenced,
            "fenced arrivals stay inside the accounting identity: {report:?}"
        );
        // Fenced operations never count as load and never accuse servers.
        assert_eq!(metrics.access_counts().iter().sum::<u64>(), 0);
        assert_eq!(metrics.server_answer_counts().iter().sum::<u64>(), 0);
    }

    #[test]
    #[should_panic(expected = "offered rate")]
    fn zero_rate_is_rejected() {
        let system = ThresholdSystem::minimal_masking(1).unwrap();
        let plan = FaultPlan::none(5);
        let service = LoopbackService::spawn(&plan, 1, 46);
        let _ = run_open_loop(
            &system,
            1,
            &service,
            service.responsive_set(),
            &quick(0.0, 10),
            &OpenLoopSession::default(),
        );
    }
}
