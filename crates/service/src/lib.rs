//! A concurrent, strategy-driven quorum service runtime.
//!
//! The rest of the workspace *certifies* the paper's two headline measures —
//! exact/bounded `F_p` and the column-generation-certified load `L(Q)` — and
//! the `bqs-sim` crate *demonstrates* the masking register one operation at a
//! time. This crate closes the remaining gap: it serves the same register
//! under **many concurrent clients** against **sharded replica state**, so the
//! certified numbers can be observed empirically under actual contention —
//! per-server access frequency converging to the certified `L(Q)`, and
//! unavailability under crash plans converging to `F_p`.
//!
//! * [`transport`] — the [`transport::Transport`] trait: protocol messages
//!   addressed to server indices with in-band replies, so the in-process
//!   loopback can later be swapped for a network backend;
//! * [`mailbox`] — [`mailbox::Mailbox`]: the swap-buffer queue
//!   (`Mutex<Vec>` + `Condvar`, drain the whole batch per wakeup) that
//!   carries every hot-path message, and [`mailbox::ReplySink`], the
//!   allocation-free completion handle replies are delivered through;
//! * [`shard`] — [`shard::LoopbackService`]: replicas partitioned across
//!   worker threads that own them outright (per-shard mailboxes, no locks),
//!   reusing the simulator's `Replica`/`FaultPlan` fault machinery, plus the
//!   [`shard::TimestampOracle`] ordering concurrent writers;
//! * [`metrics`] — lock-free relaxed-atomic per-server access counters, a
//!   fixed-bucket latency histogram, and throughput counters;
//! * [`client`] — [`client::ServiceClient`]: the masking read/write protocol
//!   over any [`bqs_core::quorum::QuorumSystem`], driving the simulator's
//!   sans-IO [`bqs_sim::client::QuorumAccess`] core (quorum selection, the
//!   duplicate/epoch/fence reply rules, `b + 1`-support read resolution) over
//!   message passing;
//! * [`runner`] — [`runner::run_service`]: a closed-loop load generator
//!   (configurable client count, read/write mix) against an existing
//!   [`shard::LoopbackService`], so repeated trials can reuse one shard pool,
//!   with online safety checking sound under concurrency
//!   ([`shard::TimestampOracle::check_read`]: value authenticity plus
//!   single-writer read-your-writes);
//! * [`openloop`] — [`openloop::run_open_loop`]: an open-loop generator
//!   (Poisson arrivals at a configured *offered* rate multiplexed on a few
//!   worker threads, operation pipelining) that works over any
//!   [`transport::Transport`] and exposes the saturation knee that
//!   closed-loop generation structurally cannot; an
//!   [`openloop::OpenLoopSession`] carries the epoch, client metrics and
//!   writer clock a multi-phase harness shares across runs.
//!
//! Drive it with a [`bqs_core::strategic::StrategicQuorumSystem`] built from
//! [`bqs_core::load::optimal_load_oracle`]'s certified strategy and the
//! empirical load report validates the certified `L(Q)` end to end; the
//! `bench_service` binary in `bqs-bench` does exactly that for Grid, M-Grid,
//! FPP and boostFPP at paper sizes and emits `BENCH_service.json`.
//!
//! # Example
//!
//! ```
//! use bqs_constructions::prelude::*;
//! use bqs_service::prelude::*;
//! use bqs_sim::prelude::*;
//!
//! // A b = 1 masking threshold over 5 servers with one fabricating server,
//! // served by 2 shards and hammered by 4 concurrent clients.
//! let system = ThresholdSystem::minimal_masking(1).unwrap();
//! let plan = FaultPlan::none(5)
//!     .with_byzantine(2, ByzantineStrategy::FabricateHighTimestamp { value: 666 });
//! let service = LoopbackService::spawn(&plan, 2, 7);
//! let report = run_service(
//!     &service,
//!     &system,
//!     1,
//!     &ServiceConfig {
//!         clients: 4,
//!         ops_per_client: 50,
//!         ..ServiceConfig::default()
//!     },
//! );
//! assert!(report.is_safe());
//! assert_eq!(report.unavailable_operations, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod mailbox;
pub mod metrics;
pub mod openloop;
pub mod runner;
pub mod shard;
pub mod transport;

pub use client::{ServiceClient, ServiceError, ServiceReadOutcome};
pub use mailbox::{DrainStatus, Mailbox, ReplyHandle, ReplyMailbox, ReplySink};
pub use metrics::{LatencyHistogram, ServiceMetrics};
pub use openloop::{run_open_loop, OpenLoopConfig, OpenLoopReport, OpenLoopSession};
pub use runner::{run_service, ServiceConfig, ServiceReport};
pub use shard::{authentic_value, LoopbackService, ReadCheck, TimestampOracle};
pub use transport::{Operation, Reply, Request, Transport};

/// Convenient glob import for examples and benches.
pub mod prelude {
    pub use crate::client::{ServiceClient, ServiceError, ServiceReadOutcome};
    pub use crate::mailbox::{DrainStatus, Mailbox, ReplyHandle, ReplyMailbox, ReplySink};
    pub use crate::metrics::{LatencyHistogram, ServiceMetrics};
    pub use crate::openloop::{run_open_loop, OpenLoopConfig, OpenLoopReport, OpenLoopSession};
    pub use crate::runner::{run_service, ServiceConfig, ServiceReport};
    pub use crate::shard::{authentic_value, LoopbackService, ReadCheck, TimestampOracle};
    pub use crate::transport::{Operation, Reply, Request, Transport};
}
