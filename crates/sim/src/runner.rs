//! Whole-workload simulation and consistency checking.
//!
//! [`run_workload`] drives a single-writer/multi-reader workload over a cluster with
//! injected faults and checks, operation by operation, that every read returns the
//! value of the most recent completed write — the register semantics that a
//! b-masking quorum system is supposed to preserve under `b` Byzantine servers.
//! It also records per-server access frequencies so the empirical load of the
//! system's access strategy can be compared with the analytic `L(Q)`.

use rand::Rng;

use bqs_core::quorum::QuorumSystem;

use crate::client::{Client, ProtocolError};
use crate::cluster::Cluster;
use crate::fault::FaultPlan;

/// Configuration of a simulated workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Total number of operations to attempt.
    pub operations: usize,
    /// Fraction of operations that are writes (the rest are reads).
    pub write_fraction: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            operations: 1000,
            write_fraction: 0.2,
        }
    }
}

/// The result of a simulated workload.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Number of write operations that completed.
    pub writes_completed: usize,
    /// Number of read operations that completed.
    pub reads_completed: usize,
    /// Number of operations that could not find a live quorum (availability loss).
    pub unavailable_operations: usize,
    /// Number of reads that returned a value other than the last completed write —
    /// must be zero whenever the fault plan respects the system's masking level.
    pub safety_violations: usize,
    /// Number of reads whose safe set was empty (can only happen before any write).
    pub inconclusive_reads: usize,
    /// Per-server empirical access frequency (accesses / operations attempted).
    pub empirical_loads: Vec<f64>,
}

impl SimReport {
    /// The empirical system load: the busiest server's access frequency.
    #[must_use]
    pub fn max_empirical_load(&self) -> f64 {
        self.empirical_loads.iter().copied().fold(0.0, f64::max)
    }

    /// True when every completed read returned the freshest written value.
    #[must_use]
    pub fn is_safe(&self) -> bool {
        self.safety_violations == 0
    }
}

/// Runs a single-writer workload over `system` (masking level `b`) with the failures
/// described by `plan`.
pub fn run_workload<Q, R>(
    system: Q,
    b: usize,
    plan: FaultPlan,
    config: WorkloadConfig,
    rng: &mut R,
) -> SimReport
where
    Q: QuorumSystem,
    R: Rng,
{
    let mut cluster = Cluster::new(plan);
    let mut client = Client::new(system, b);
    let mut report = SimReport::default();
    let mut last_written: Option<u64> = None;
    let mut next_value: u64 = 1;

    for _ in 0..config.operations {
        let do_write = last_written.is_none() || rng.gen::<f64>() < config.write_fraction;
        if do_write {
            match client.write(&mut cluster, next_value, rng) {
                Ok(_) => {
                    last_written = Some(next_value);
                    next_value += 1;
                    report.writes_completed += 1;
                }
                Err(ProtocolError::NoLiveQuorum) => report.unavailable_operations += 1,
                Err(ProtocolError::NoSafeValue) => unreachable!("writes cannot lack safe values"),
            }
        } else {
            match client.read(&mut cluster, rng) {
                Ok(outcome) => {
                    report.reads_completed += 1;
                    if Some(outcome.value) != last_written {
                        report.safety_violations += 1;
                    }
                }
                Err(ProtocolError::NoLiveQuorum) => report.unavailable_operations += 1,
                Err(ProtocolError::NoSafeValue) => report.inconclusive_reads += 1,
            }
        }
    }

    report.empirical_loads = cluster.empirical_loads(config.operations as u64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ByzantineStrategy;
    use bqs_constructions::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn failure_free_workload_is_safe_and_available() {
        let mut rng = StdRng::seed_from_u64(1);
        let sys = MGridSystem::new(5, 2).unwrap();
        let report = run_workload(
            sys,
            2,
            FaultPlan::none(25),
            WorkloadConfig {
                operations: 400,
                write_fraction: 0.3,
            },
            &mut rng,
        );
        assert!(report.is_safe());
        assert_eq!(report.unavailable_operations, 0);
        assert_eq!(report.inconclusive_reads, 0);
        assert!(report.writes_completed > 0 && report.reads_completed > 0);
    }

    #[test]
    fn empirical_load_matches_analytic_load_without_failures() {
        // With no failures every access uses the sampled (optimal-strategy) quorum,
        // so the busiest server's frequency converges to L(Q).
        let mut rng = StdRng::seed_from_u64(2);
        let sys = MGridSystem::new(7, 3).unwrap();
        let analytic = sys.analytic_load();
        let report = run_workload(
            sys,
            3,
            FaultPlan::none(49),
            WorkloadConfig {
                operations: 3000,
                write_fraction: 0.5,
            },
            &mut rng,
        );
        let empirical = report.max_empirical_load();
        assert!(
            (empirical - analytic).abs() < 0.08,
            "empirical {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn byzantine_servers_up_to_b_never_violate_safety() {
        let mut rng = StdRng::seed_from_u64(3);
        let sys = ThresholdSystem::minimal_masking(2).unwrap();
        let plan = FaultPlan::none(9)
            .with_byzantine(
                0,
                ByzantineStrategy::FabricateHighTimestamp { value: 999_999 },
            )
            .with_byzantine(5, ByzantineStrategy::Equivocate);
        let report = run_workload(
            sys,
            2,
            plan,
            WorkloadConfig {
                operations: 500,
                write_fraction: 0.2,
            },
            &mut rng,
        );
        assert!(report.is_safe(), "{report:?}");
        assert_eq!(report.unavailable_operations, 0);
    }

    #[test]
    fn exceeding_b_byzantine_servers_can_violate_safety() {
        // Negative control: with 2b+1 colluding fabricators the masking threshold is
        // defeated and the simulator must detect safety violations. This is exactly
        // the attack the 2b+1 intersection bound defends against.
        let mut rng = StdRng::seed_from_u64(4);
        let sys = ThresholdSystem::minimal_masking(1).unwrap(); // b = 1, n = 5
        let plan = FaultPlan::none(5)
            .with_byzantine(0, ByzantineStrategy::FabricateHighTimestamp { value: 666 })
            .with_byzantine(1, ByzantineStrategy::FabricateHighTimestamp { value: 666 })
            .with_byzantine(2, ByzantineStrategy::FabricateHighTimestamp { value: 666 });
        let report = run_workload(
            sys,
            1,
            plan,
            WorkloadConfig {
                operations: 300,
                write_fraction: 0.2,
            },
            &mut rng,
        );
        assert!(
            report.safety_violations > 0,
            "3 fabricators against b=1 should break safety: {report:?}"
        );
    }

    #[test]
    fn crashes_beyond_resilience_cause_unavailability_not_unsafety() {
        let mut rng = StdRng::seed_from_u64(5);
        let sys = ThresholdSystem::minimal_masking(1).unwrap(); // 4-of-5, tolerates 1 crash
        let plan = FaultPlan::none(5).with_crashed(0).with_crashed(1);
        let report = run_workload(
            sys,
            1,
            plan,
            WorkloadConfig {
                operations: 100,
                write_fraction: 0.5,
            },
            &mut rng,
        );
        assert_eq!(report.unavailable_operations, 100);
        assert!(report.is_safe());
    }

    #[test]
    fn hybrid_faults_byzantine_plus_crashes() {
        // boostFPP(2, 1): b = 1 Byzantine plus several crashes (f = (b+1)(q+1)-1 = 5).
        let mut rng = StdRng::seed_from_u64(6);
        let sys = BoostFppSystem::new(2, 1).unwrap();
        let n = sys.universe_size();
        let plan = FaultPlan::none(n)
            .with_byzantine(
                3,
                ByzantineStrategy::FabricateHighTimestamp { value: 424_242 },
            )
            .with_crashed(10)
            .with_crashed(16)
            .with_crashed(22);
        let report = run_workload(
            sys,
            1,
            plan,
            WorkloadConfig {
                operations: 300,
                write_fraction: 0.3,
            },
            &mut rng,
        );
        assert!(report.is_safe(), "{report:?}");
        assert!(report.reads_completed > 0);
    }

    #[test]
    fn mpath_workload_with_faults_is_safe() {
        let mut rng = StdRng::seed_from_u64(7);
        let sys = MPathSystem::new(6, 2).unwrap();
        let plan = FaultPlan::none(36)
            .with_byzantine(14, ByzantineStrategy::Equivocate)
            .with_byzantine(21, ByzantineStrategy::StaleReplay)
            .with_crashed(0);
        let report = run_workload(
            sys,
            2,
            plan,
            WorkloadConfig {
                operations: 200,
                write_fraction: 0.3,
            },
            &mut rng,
        );
        assert!(report.is_safe(), "{report:?}");
        assert!(report.reads_completed > 0);
    }
}
