//! Closed-loop concurrent load generation with online safety checking.
//!
//! [`run_service`] drives a sharded [`LoopbackService`] with many concurrent
//! closed-loop clients (each a thread running a [`ServiceClient`]), then
//! folds per-client tallies and the service's lock-free metrics into a
//! [`ServiceReport`] — the concurrent analogue of the simulator's
//! `run_workload`.
//!
//! # Safety checking under concurrency
//!
//! The single-threaded simulator can compare every read against "the last
//! completed write" because it is the only actor. Under concurrent clients
//! that predicate is ill-defined (reads may race in-flight writes, which the
//! masking register legitimately serves old-or-new), so the runner checks the
//! two predicates that remain sound:
//!
//! * **authenticity** — writers derive each value deterministically from its
//!   globally unique timestamp ([`authentic_value`]); any read whose value
//!   does not match its timestamp, or whose timestamp was never allocated,
//!   returned a *fabricated* pair — precisely what `b + 1`-support masking
//!   must prevent while at most `b` servers are Byzantine;
//! * **read-your-writes** (single-writer configurations only) — when the
//!   designated writer reads, no write is in flight anywhere, so at least
//!   `b + 1` correct servers of any read quorum hold its last completed
//!   write's exact entry and the freshest safe timestamp cannot be older.
//!
//! Both checks ([`TimestampOracle::check_read`]) flag real protocol
//! violations with certainty (no false positives), and the fabrication check
//! is exactly the one a `> b` Byzantine coalition defeats — the negative
//! tests rely on it.

use std::time::Instant;

use bqs_core::quorum::QuorumSystem;
use bqs_sim::client::ProtocolError;
use bqs_sim::server::{Entry, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client::{ServiceClient, ServiceError};
pub use crate::shard::authentic_value;
use crate::shard::{LoopbackService, TimestampOracle};
use crate::transport::Transport;

/// Configuration of a concurrent service workload.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Number of concurrent client threads.
    pub clients: usize,
    /// Closed-loop operations each client performs.
    pub ops_per_client: usize,
    /// Fraction of a *writer* client's operations that are writes (its first
    /// operation is always a write so the register is initialised; reader
    /// clients only read).
    pub write_fraction: f64,
    /// How many clients are writers (client ids `0..writers`). With exactly
    /// one writer the runner additionally checks read-your-writes on the
    /// writer's own reads.
    pub writers: usize,
    /// Base seed deriving every per-client and per-shard RNG.
    pub seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            clients: 8,
            ops_per_client: 500,
            write_fraction: 0.2,
            writers: 1,
            seed: 0xb9_51ce,
        }
    }
}

/// The result of a concurrent service workload.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Total operations attempted across all clients.
    pub operations: u64,
    /// Writes that completed (full-quorum acknowledgement).
    pub writes_completed: u64,
    /// Reads that completed with a safe value.
    pub reads_completed: u64,
    /// Operations that found no live quorum (availability loss).
    pub unavailable_operations: u64,
    /// Reads whose safe set was empty. Before the first write lands this is
    /// the only possible cause; in multi-writer runs concurrent in-flight
    /// writes can also split a quorum's support below `b + 1` for every
    /// entry — legitimate masking-register behaviour, not a protocol bug.
    pub inconclusive_reads: u64,
    /// Reads that returned a fabricated pair or (single-writer runs) violated
    /// read-your-writes — must be zero whenever the fault plan respects `b`.
    pub safety_violations: u64,
    /// Operations lost to transport failure (service shutdown mid-run).
    pub transport_failures: u64,
    /// Wall-clock duration of the client phase.
    pub elapsed_seconds: f64,
    /// Full protocol round trips (completed writes and reads plus
    /// inconclusive reads) per wall-clock second.
    pub throughput_ops_per_sec: f64,
    /// Per-server delivered-message counts.
    pub access_counts: Vec<u64>,
    /// Operations that actually contacted a quorum (completed writes, safe
    /// reads, and inconclusive reads) — the denominator of
    /// [`ServiceReport::empirical_loads`]. Operations that found no live
    /// quorum send no messages, so counting them would bias the per-server
    /// frequency low under faulty plans.
    pub load_operations: u64,
    /// Per-server empirical load (accesses / quorum-contacting operations),
    /// the concurrent measurement compared against the certified `L(Q)`.
    pub empirical_loads: Vec<f64>,
    /// Upper bound on the median operation latency, nanoseconds.
    pub latency_p50_upper_ns: Option<u64>,
    /// Upper bound on the 99th-percentile operation latency, nanoseconds.
    pub latency_p99_upper_ns: Option<u64>,
}

impl ServiceReport {
    /// The busiest server's empirical access frequency.
    #[must_use]
    pub fn max_empirical_load(&self) -> f64 {
        self.empirical_loads.iter().copied().fold(0.0, f64::max)
    }

    /// True when no read violated authenticity or read-your-writes.
    #[must_use]
    pub fn is_safe(&self) -> bool {
        self.safety_violations == 0
    }
}

/// Per-client tallies folded into the final report.
#[derive(Debug, Default, Clone, Copy)]
struct ClientTally {
    writes: u64,
    reads: u64,
    unavailable: u64,
    inconclusive: u64,
    violations: u64,
    transport: u64,
}

/// Runs a concurrent closed-loop workload of `config.clients` clients over
/// `system` (masking level `b`) against `service`, leaving the service alive
/// afterwards so repeated trials can alternate [`LoopbackService::reset_plan`]
/// and `run_service` on one shard pool (per-trial thread spin-up no longer
/// dominates, which is what lets the availability validation in
/// `bench_service` run at `n ≥ 100`). `config.seed` derives every per-client
/// RNG; the service's metrics are zeroed at entry so the report covers
/// exactly this run.
///
/// Pass a [`bqs_core::strategic::StrategicQuorumSystem`] built from a
/// [`bqs_core::load::CertifiedLoad`] to drive the service with the
/// certified-optimal access strategy — the empirical per-server load then
/// converges to the certified `L(Q)`.
///
/// # Panics
///
/// Panics if the service's universe differs from the system's, or the
/// configuration is degenerate (zero clients/operations, or more writers
/// than clients).
#[must_use]
pub fn run_service<Q>(
    service: &LoopbackService,
    system: &Q,
    b: usize,
    config: &ServiceConfig,
) -> ServiceReport
where
    Q: QuorumSystem + ?Sized,
{
    assert_eq!(
        service.universe_size(),
        system.universe_size(),
        "service and quorum system must cover the same universe"
    );
    assert!(config.clients > 0, "need at least one client");
    assert!(config.ops_per_client > 0, "need at least one operation");
    assert!(
        config.writers >= 1 && config.writers <= config.clients,
        "writers must be within 1..=clients"
    );

    service.metrics().reset();
    let clock = TimestampOracle::new();
    let single_writer = config.writers == 1;

    let started = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(config.clients);
        for client_id in 0..config.clients {
            let clock = &clock;
            handles.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(
                    config.seed ^ 0x00c1_1e47_u64.wrapping_mul(client_id as u64 + 1),
                );
                let mut client =
                    ServiceClient::new(system, service, service.responsive_set().clone(), b);
                let is_writer = client_id < config.writers;
                // Read-your-writes floor: the last completed write, tracked
                // only by the single writer (0 disables the check).
                let mut ryw_floor: Timestamp = 0;
                let mut tally = ClientTally::default();
                for op in 0..config.ops_per_client {
                    let do_write =
                        is_writer && (op == 0 || rng.gen::<f64>() < config.write_fraction);
                    let op_started = Instant::now();
                    let outcome = if do_write {
                        let ts = clock.allocate();
                        let entry = Entry {
                            timestamp: ts,
                            value: authentic_value(ts),
                        };
                        client.write(entry, &mut rng).map(|_| {
                            tally.writes += 1;
                            if single_writer {
                                ryw_floor = ts;
                            }
                        })
                    } else {
                        client.read(&mut rng).map(|read| {
                            tally.reads += 1;
                            if clock.check_read(&read.entry, ryw_floor).violated() {
                                tally.violations += 1;
                            }
                        })
                    };
                    match outcome {
                        Ok(()) => {}
                        // A full quorum rendezvous happened; only the safe
                        // set was empty. It is a completed round trip for
                        // throughput/latency purposes.
                        Err(ServiceError::Protocol(ProtocolError::NoSafeValue)) => {
                            tally.inconclusive += 1;
                        }
                        Err(ServiceError::Protocol(ProtocolError::NoLiveQuorum)) => {
                            tally.unavailable += 1;
                            continue;
                        }
                        Err(ServiceError::TransportFailure) => {
                            tally.transport += 1;
                            continue;
                        }
                        Err(ServiceError::EpochFenced { .. }) => {
                            unreachable!("the closed-loop harness never reconfigures")
                        }
                    }
                    service
                        .metrics()
                        .record_operation(op_started.elapsed().as_nanos() as u64);
                }
                tally
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();

    let mut folded = ClientTally::default();
    for t in &tallies {
        folded.writes += t.writes;
        folded.reads += t.reads;
        folded.unavailable += t.unavailable;
        folded.inconclusive += t.inconclusive;
        folded.violations += t.violations;
        folded.transport += t.transport;
    }
    let operations = (config.clients * config.ops_per_client) as u64;
    let completed = folded.writes + folded.reads;
    // Inconclusive reads contacted a full quorum (the rendezvous succeeded,
    // only the safe set was empty), so they carry load; unavailable and
    // transport-failed operations did not.
    let load_operations = completed + folded.inconclusive;
    let metrics = service.metrics();
    ServiceReport {
        operations,
        writes_completed: folded.writes,
        reads_completed: folded.reads,
        unavailable_operations: folded.unavailable,
        inconclusive_reads: folded.inconclusive,
        safety_violations: folded.violations,
        transport_failures: folded.transport,
        elapsed_seconds: elapsed,
        // Throughput counts full protocol round trips, inconclusive reads
        // included — the same population the latency histogram records and
        // the load denominator normalises by.
        throughput_ops_per_sec: if elapsed > 0.0 {
            load_operations as f64 / elapsed
        } else {
            0.0
        },
        access_counts: metrics.access_counts(),
        load_operations,
        empirical_loads: metrics.empirical_loads(load_operations),
        latency_p50_upper_ns: metrics.latency().quantile_upper_ns(0.50),
        latency_p99_upper_ns: metrics.latency().quantile_upper_ns(0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqs_constructions::prelude::*;
    use bqs_core::load::optimal_load_oracle;
    use bqs_core::strategic::StrategicQuorumSystem;
    use bqs_sim::fault::FaultPlan;
    use bqs_sim::server::ByzantineStrategy;

    #[test]
    fn failure_free_concurrent_run_is_safe_and_available() {
        let sys = MGridSystem::new(5, 2).unwrap();
        let report = run_service(
            &LoopbackService::spawn(&FaultPlan::none(25), 3, 42),
            &sys,
            2,
            &ServiceConfig {
                clients: 6,
                ops_per_client: 150,
                write_fraction: 0.3,
                writers: 1,
                seed: 42,
            },
        );
        assert!(report.is_safe(), "{report:?}");
        assert_eq!(report.unavailable_operations, 0);
        assert_eq!(report.transport_failures, 0);
        assert_eq!(report.operations, 900);
        assert_eq!(
            report.writes_completed + report.reads_completed + report.inconclusive_reads,
            900
        );
        assert!(report.writes_completed > 0 && report.reads_completed > 0);
        assert!(report.throughput_ops_per_sec > 0.0);
        assert!(report.latency_p50_upper_ns.is_some());
    }

    #[test]
    fn certified_strategy_load_converges_concurrently() {
        // The headline loop in miniature: 32 concurrent clients sampling the
        // certified-optimal strategy; the busiest server's frequency must sit
        // in the binomial band around the certified L(Q).
        let sys = MGridSystem::new(5, 2).unwrap();
        let n = sys.universe_size();
        let certified = optimal_load_oracle(&sys).unwrap();
        let strategic = StrategicQuorumSystem::from_certified(sys, &certified).unwrap();
        let config = ServiceConfig {
            clients: 32,
            ops_per_client: 150,
            write_fraction: 0.3,
            writers: 1,
            seed: 7,
        };
        let service = LoopbackService::spawn(&FaultPlan::none(n), 4, config.seed);
        let report = run_service(&service, &strategic, 2, &config);
        assert!(report.is_safe(), "{report:?}");
        assert_eq!(report.unavailable_operations, 0);
        let l = certified.load;
        let ops = report.load_operations as f64;
        let sigma = (l * (1.0 - l) / ops).sqrt();
        let tolerance = sigma * (5.0 + (2.0 * (n as f64).ln()).sqrt());
        let empirical = report.max_empirical_load();
        assert!(
            (empirical - l).abs() <= tolerance,
            "empirical {empirical} vs certified {l} (tolerance {tolerance})"
        );
    }

    #[test]
    fn within_b_byzantine_plan_stays_safe() {
        let sys = ThresholdSystem::minimal_masking(2).unwrap(); // n = 9, b = 2
        let plan = FaultPlan::none(9)
            .with_byzantine(
                0,
                ByzantineStrategy::FabricateHighTimestamp { value: 999_999 },
            )
            .with_byzantine(5, ByzantineStrategy::Equivocate);
        let report = run_service(
            &LoopbackService::spawn(&plan, 3, 11),
            &sys,
            2,
            &ServiceConfig {
                clients: 8,
                ops_per_client: 120,
                write_fraction: 0.25,
                writers: 1,
                seed: 11,
            },
        );
        assert!(report.is_safe(), "{report:?}");
        assert_eq!(report.unavailable_operations, 0);
    }

    #[test]
    fn exceeding_b_byzantine_coalition_is_detected_concurrently() {
        // Negative control (satellite): 2b+1 colluding fabricators defeat the
        // b+1 support threshold, and the concurrent runner's authenticity
        // check must catch the leaked pair — exercising the safety checker
        // itself.
        let sys = ThresholdSystem::minimal_masking(1).unwrap(); // n = 5, b = 1
        let plan = FaultPlan::none(5)
            .with_byzantine(0, ByzantineStrategy::FabricateHighTimestamp { value: 666 })
            .with_byzantine(1, ByzantineStrategy::FabricateHighTimestamp { value: 666 })
            .with_byzantine(2, ByzantineStrategy::FabricateHighTimestamp { value: 666 });
        let report = run_service(
            &LoopbackService::spawn(&plan, 2, 13),
            &sys,
            1,
            &ServiceConfig {
                clients: 6,
                ops_per_client: 80,
                write_fraction: 0.2,
                writers: 1,
                seed: 13,
            },
        );
        assert!(
            report.safety_violations > 0,
            "3 fabricators against b = 1 must break the authenticity check: {report:?}"
        );
    }

    #[test]
    fn crashes_beyond_resilience_cause_unavailability_not_unsafety() {
        let sys = ThresholdSystem::minimal_masking(1).unwrap(); // 4-of-5, tolerates 1 crash
        let plan = FaultPlan::none(5).with_crashed(0).with_crashed(1);
        let report = run_service(
            &LoopbackService::spawn(&plan, 2, 17),
            &sys,
            1,
            &ServiceConfig {
                clients: 4,
                ops_per_client: 25,
                write_fraction: 0.5,
                writers: 1,
                seed: 17,
            },
        );
        assert_eq!(report.unavailable_operations, report.operations);
        assert!(report.is_safe());
        // No operation contacted a quorum, so the load denominator is zero
        // and every empirical load is zero — not biased by the failed ops.
        assert_eq!(report.load_operations, 0);
        assert!(report.empirical_loads.iter().all(|&l| l == 0.0));
    }

    #[test]
    fn multi_writer_runs_disable_ryw_but_keep_authenticity() {
        let sys = ThresholdSystem::minimal_masking(2).unwrap();
        let report = run_service(
            &LoopbackService::spawn(&FaultPlan::none(9), 2, 23),
            &sys,
            2,
            &ServiceConfig {
                clients: 6,
                ops_per_client: 100,
                write_fraction: 0.5,
                writers: 3,
                seed: 23,
            },
        );
        assert!(report.is_safe(), "{report:?}");
        assert!(report.writes_completed >= 3);
    }

    #[test]
    fn pool_reuse_across_trials_matches_fresh_spawns() {
        // The amortised path (satellite): one pool, many plans. Each trial
        // must see exactly its own plan's availability and its own metrics.
        let sys = ThresholdSystem::minimal_masking(1).unwrap(); // 4-of-5
        let config = ServiceConfig {
            clients: 3,
            ops_per_client: 30,
            write_fraction: 0.5,
            writers: 1,
            seed: 29,
        };
        let mut service = LoopbackService::spawn(&FaultPlan::none(5), 2, 29);
        // Trial 1: healthy — fully available.
        let r1 = run_service(&service, &sys, 1, &config);
        assert_eq!(r1.unavailable_operations, 0);
        assert!(r1.is_safe());
        // Trial 2: two crashes exceed the resilience — fully unavailable,
        // and the metrics reset means no load leaks over from trial 1.
        service.reset_plan(&FaultPlan::none(5).with_crashed(0).with_crashed(1), 31);
        let r2 = run_service(&service, &sys, 1, &config);
        assert_eq!(r2.unavailable_operations, r2.operations);
        assert_eq!(r2.load_operations, 0);
        assert!(r2.access_counts.iter().all(|&c| c == 0));
        // Trial 3: healthy again — the crash plan does not stick.
        service.reset_plan(&FaultPlan::none(5), 37);
        let r3 = run_service(&service, &sys, 1, &config);
        assert_eq!(r3.unavailable_operations, 0);
        assert!(r3.is_safe());
    }

    #[test]
    fn authentic_value_is_timestamp_determined() {
        assert_eq!(authentic_value(7), authentic_value(7));
        assert_ne!(authentic_value(7), authentic_value(8));
    }
}
