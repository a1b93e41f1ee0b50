//! Sharded in-process replica ownership — the loopback [`Transport`].
//!
//! The universe of `n` replicas is partitioned round-robin across `shards`
//! worker threads. Each worker *owns* its replicas outright (no locks, no
//! sharing) and drains a private swap-buffer mailbox of [`Request`]s, so
//! replica state is only ever touched by one thread — the same single-writer
//! discipline a networked replica server would have, which is what lets a
//! network backend replace [`LoopbackService`] behind the [`Transport`] trait
//! without touching client code (`bqs-net`'s `SocketServer` in fact *wraps* a
//! `LoopbackService`, keeping one replica-ownership implementation).
//!
//! The mailbox is the batching stage of the request path ([`crate::mailbox`]):
//! a worker drains its **whole** backlog per wakeup and applies the drained
//! operations back-to-back while the replica state is cache-hot, so under
//! load a shard pays one lock acquisition and at most one futex wake per
//! batch instead of per operation. [`LoopbackService::send_batch`] completes
//! the picture on the producer side — a quorum fan-out is bucketed by owning
//! shard and each bucket lands in its mailbox under a single lock.
//!
//! Fault injection reuses the simulator's [`FaultPlan`]/[`Replica`] machinery
//! wholesale: a crashed replica ignores writes and reads as `None`, Byzantine
//! replicas answer through their attack strategy, and the service exposes the
//! failure-detector view ([`LoopbackService::responsive_set`]) that clients
//! use for probe-and-fallback quorum selection.
//!
//! Besides protocol requests, shard mailboxes accept two control messages:
//! [`LoopbackService::reset_plan`] swaps every shard's replicas for a fresh
//! set built from a new [`FaultPlan`] without respawning the worker threads
//! (repeated-trial harnesses — the availability validation in
//! `bench_service` — rely on this: per-trial thread spin-up used to dominate
//! at n ≥ 100), and [`LoopbackService::crash_servers`] kills a chosen set of
//! replicas *at runtime* through `&self`, which is what reconfiguration
//! harnesses use to fail servers under load.
//!
//! Every request passes the service's shared [`EpochGate`] before touching a
//! replica: requests stamped with an epoch outside the acceptance window are
//! fenced — answered in-band with [`Reply::stale`] — so a reconfiguration
//! (`bqs-epoch`) can cut off a retired access strategy at the replica
//! boundary (see `bqs_sim::epoch` for the safety argument).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use bqs_core::bitset::ServerSet;
use bqs_sim::epoch::EpochGate;
use bqs_sim::fault::FaultPlan;
use bqs_sim::server::{Behavior, Entry, Replica, Timestamp, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::mailbox::Mailbox;
use crate::metrics::ServiceMetrics;
use crate::transport::{Operation, Reply, Request, Transport};

/// A shard mailbox message: a protocol request, the control message that
/// re-arms the shard with fresh replicas between trials, or the control
/// message that crashes a set of replicas at runtime.
#[derive(Debug)]
enum ShardMsg {
    Op(Request),
    Reset {
        replicas: Vec<(usize, Replica)>,
        rng: StdRng,
        ack: mpsc::Sender<()>,
    },
    Crash {
        servers: Vec<usize>,
        ack: mpsc::Sender<()>,
    },
}

/// An in-process sharded quorum service: replicas owned by worker threads,
/// per-shard swap-buffer mailboxes drained in whole batches, lock-free
/// metrics.
///
/// Dropping the service closes every mailbox and joins the workers.
#[derive(Debug)]
pub struct LoopbackService {
    mailboxes: Vec<Arc<Mailbox<ShardMsg>>>,
    workers: Vec<JoinHandle<()>>,
    n: usize,
    responsive: ServerSet,
    metrics: Arc<ServiceMetrics>,
    gate: Arc<EpochGate>,
}

/// Round-robin partition of a plan's replicas into per-shard ownership lists.
fn partition_replicas(plan: &FaultPlan, shards: usize) -> Vec<Vec<(usize, Replica)>> {
    let mut shard_replicas: Vec<Vec<(usize, Replica)>> = (0..shards).map(|_| Vec::new()).collect();
    for (i, replica) in plan.build_replicas().into_iter().enumerate() {
        shard_replicas[i % shards].push((i, replica));
    }
    shard_replicas
}

/// The failure detector's view of a plan: servers that answer protocol
/// messages (everything except crashed and silent-Byzantine replicas).
fn responsive_view(plan: &FaultPlan) -> ServerSet {
    let n = plan.universe_size();
    ServerSet::from_indices(
        n,
        plan.build_replicas()
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_responsive())
            .map(|(i, _)| i),
    )
}

/// A shard's private RNG, derived from the service seed and the shard id
/// (used by equivocating Byzantine replicas).
fn shard_rng(seed: u64, shard_id: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (0x5a5a_0001u64.wrapping_mul(shard_id as u64 + 1)))
}

impl LoopbackService {
    /// Spawns `shards` worker threads owning the replicas described by
    /// `plan` (server `i` lives on shard `i % shards`). `seed` derives each
    /// shard's private RNG (used by equivocating Byzantine replicas).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or the plan covers an empty universe.
    #[must_use]
    pub fn spawn(plan: &FaultPlan, shards: usize, seed: u64) -> Self {
        let n = plan.universe_size();
        assert!(shards > 0, "a service needs at least one shard");
        assert!(n > 0, "a service needs at least one server");
        let shards = shards.min(n);
        let responsive = responsive_view(plan);
        let metrics = Arc::new(ServiceMetrics::new(n));
        let gate = Arc::new(EpochGate::new());

        let mut mailboxes = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for (shard_id, owned) in partition_replicas(plan, shards).into_iter().enumerate() {
            let mailbox = Arc::new(Mailbox::new());
            let worker_mailbox = Arc::clone(&mailbox);
            let metrics = Arc::clone(&metrics);
            let gate = Arc::clone(&gate);
            let rng = shard_rng(seed, shard_id);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("bqs-shard-{shard_id}"))
                    .spawn(move || shard_worker(owned, &worker_mailbox, &metrics, &gate, rng))
                    .expect("spawning a shard worker"),
            );
            mailboxes.push(mailbox);
        }
        LoopbackService {
            mailboxes,
            workers,
            n,
            responsive,
            metrics,
            gate,
        }
    }

    /// Re-arms the service with fresh replicas built from `plan`, without
    /// respawning the shard worker threads: every shard swaps its ownership
    /// list (and reseeds its RNG from `seed`), the failure-detector view is
    /// recomputed, and the metrics are zeroed. Taking `&mut self` guarantees
    /// no client holds the service across the swap, so no request can observe
    /// half-old half-new replicas.
    ///
    /// This is what lets repeated-trial harnesses amortise thread spin-up:
    /// one pool serves hundreds of independently drawn fault plans.
    ///
    /// # Panics
    ///
    /// Panics if `plan` covers a different universe than the one the service
    /// was spawned with, or if a shard worker has died.
    pub fn reset_plan(&mut self, plan: &FaultPlan, seed: u64) {
        assert_eq!(
            plan.universe_size(),
            self.n,
            "reset_plan must keep the universe size"
        );
        let shards = self.mailboxes.len();
        let (ack_tx, ack_rx) = mpsc::channel();
        for (shard_id, replicas) in partition_replicas(plan, shards).into_iter().enumerate() {
            assert!(
                self.mailboxes[shard_id].push(ShardMsg::Reset {
                    replicas,
                    rng: shard_rng(seed, shard_id),
                    ack: ack_tx.clone(),
                }),
                "shard mailboxes outlive the service"
            );
        }
        drop(ack_tx);
        for _ in 0..shards {
            ack_rx.recv().expect("every shard acknowledges the reset");
        }
        self.responsive = responsive_view(plan);
        self.metrics.reset();
        self.gate.reset();
    }

    /// Crashes the listed servers at runtime: each owning shard swaps the
    /// replica for a crashed one (writes ignored, reads answered `None`),
    /// synchronously — when this returns, no later request observes the old
    /// behaviour. Unlike [`LoopbackService::reset_plan`] this takes `&self`
    /// (the control message rides the shard mailboxes), so a harness can
    /// fail servers while clients are actively driving load — which is
    /// exactly what the reconfiguration benches do. The failure-detector
    /// view is deliberately *not* updated: discovering the crash from access
    /// evidence is the suspicion engine's job.
    ///
    /// # Panics
    ///
    /// Panics if a server index is out of universe or a shard worker died.
    pub fn crash_servers(&self, servers: &[usize]) {
        let shards = self.mailboxes.len();
        let mut per_shard: Vec<Vec<usize>> = (0..shards).map(|_| Vec::new()).collect();
        for &server in servers {
            assert!(server < self.n, "crash target outside the universe");
            per_shard[server % shards].push(server);
        }
        let (ack_tx, ack_rx) = mpsc::channel();
        let mut expected = 0usize;
        for (shard, targets) in per_shard.into_iter().enumerate() {
            if targets.is_empty() {
                continue;
            }
            expected += 1;
            assert!(
                self.mailboxes[shard].push(ShardMsg::Crash {
                    servers: targets,
                    ack: ack_tx.clone(),
                }),
                "shard mailboxes outlive the service"
            );
        }
        drop(ack_tx);
        for _ in 0..expected {
            ack_rx.recv().expect("every shard acknowledges the crash");
        }
    }

    /// The epoch gate shared by every shard worker. Reconfiguration managers
    /// hold a clone to run the open-window/finalise handoff; everything else
    /// can ignore it (a fresh service accepts exactly epoch 0).
    #[must_use]
    pub fn epoch_gate(&self) -> &Arc<EpochGate> {
        &self.gate
    }

    /// The failure detector's view: servers that answer protocol messages
    /// (everything except crashed and silent-Byzantine replicas). Static
    /// between [`LoopbackService::reset_plan`] calls, exactly as in the
    /// simulator's model.
    #[must_use]
    pub fn responsive_set(&self) -> &ServerSet {
        &self.responsive
    }

    /// The service's shared lock-free metrics.
    #[must_use]
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        &self.metrics
    }

    /// Number of worker shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.mailboxes.len()
    }
}

impl Transport for LoopbackService {
    fn universe_size(&self) -> usize {
        self.n
    }

    fn send(&self, request: Request) -> bool {
        // An out-of-universe address is refused rather than wrapped: routed
        // modulo-shards it would panic the owning worker's lookup and take
        // every replica on that shard down with it.
        if request.server >= self.n {
            return false;
        }
        let shard = request.server % self.mailboxes.len();
        self.mailboxes[shard].push(ShardMsg::Op(request))
    }

    /// Buckets the fan-out by owning shard and lands each bucket in its
    /// mailbox under one lock acquisition — one wake per destination shard
    /// per batch, however many requests the batch carries.
    fn send_batch(&self, requests: &mut Vec<Request>) -> bool {
        let shards = self.mailboxes.len();
        let mut ok = true;
        let mut buckets: Vec<Vec<ShardMsg>> = (0..shards).map(|_| Vec::new()).collect();
        for request in requests.drain(..) {
            if request.server >= self.n {
                ok = false;
                continue;
            }
            buckets[request.server % shards].push(ShardMsg::Op(request));
        }
        for (shard, mut bucket) in buckets.into_iter().enumerate() {
            if !bucket.is_empty() {
                ok &= self.mailboxes[shard].push_batch(&mut bucket);
            }
        }
        ok
    }
}

impl Drop for LoopbackService {
    fn drop(&mut self) {
        // Closing the mailboxes ends each worker's drain loop.
        for mailbox in &self.mailboxes {
            mailbox.close();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// One shard's event loop: drain the **whole** mailbox per wakeup, apply the
/// drained operations back-to-back to the owned replicas (cache-hot, no
/// per-op lock or wake), always produce a reply frame with the request's id
/// echoed (in-band `None` for silent servers — see [`Reply`]); swap the
/// ownership list on a reset.
fn shard_worker(
    mut owned: Vec<(usize, Replica)>,
    mailbox: &Mailbox<ShardMsg>,
    metrics: &ServiceMetrics,
    gate: &EpochGate,
    mut rng: StdRng,
) {
    owned.sort_by_key(|(i, _)| *i);
    let mut batch = Vec::new();
    while mailbox.drain_blocking(&mut batch) {
        for msg in batch.drain(..) {
            let request = match msg {
                ShardMsg::Op(request) => request,
                ShardMsg::Reset {
                    mut replicas,
                    rng: fresh_rng,
                    ack,
                } => {
                    replicas.sort_by_key(|(i, _)| *i);
                    owned = replicas;
                    rng = fresh_rng;
                    let _ = ack.send(());
                    continue;
                }
                ShardMsg::Crash { servers, ack } => {
                    for server in servers {
                        let slot = owned
                            .binary_search_by_key(&server, |(i, _)| *i)
                            .expect("crash routed to the shard owning the server");
                        owned[slot].1 = Replica::new(Behavior::Crashed);
                    }
                    let _ = ack.send(());
                    continue;
                }
            };
            if !gate.accepts(request.epoch) {
                // Fenced: the access strategy this request was sampled under
                // is retired. Answer in-band so the client both fails fast
                // and learns the current epoch; the replica is never touched.
                request.reply.complete(Reply {
                    server: request.server,
                    request_id: request.request_id,
                    entry: None,
                    epoch: gate.current(),
                    stale: true,
                });
                continue;
            }
            let slot = owned
                .binary_search_by_key(&request.server, |(i, _)| *i)
                .expect("request routed to the shard owning the server");
            let replica = &mut owned[slot].1;
            metrics.record_access(request.server);
            let entry = match request.op {
                Operation::Write(entry) => {
                    replica.deliver_write(entry);
                    None
                }
                Operation::Read => replica.deliver_read(request.origin, &mut rng),
            };
            // A dead client (reply sink closed) is not the shard's problem.
            request.reply.complete(Reply {
                server: request.server,
                request_id: request.request_id,
                entry,
                epoch: request.epoch,
                stale: false,
            });
        }
    }
}

/// The deterministic value writers store for timestamp `ts`.
///
/// Reads verify `value == authentic_value(timestamp)`; a Byzantine server
/// fabricating a pair (or equivocating randomly) cannot satisfy the relation
/// except by collision, so any mismatching read that clears the `b + 1`
/// support threshold is a genuine masking failure.
#[must_use]
pub fn authentic_value(ts: Timestamp) -> Value {
    ts.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23) ^ 0xD1B5_4A32_D192_ED03
}

/// A monotone timestamp oracle shared by every writer of a service run, so
/// concurrent writes are totally ordered without coordination beyond one
/// atomic increment.
#[derive(Debug, Default)]
pub struct TimestampOracle {
    next: AtomicU64,
}

impl TimestampOracle {
    /// A fresh oracle starting at timestamp 1.
    #[must_use]
    pub fn new() -> Self {
        TimestampOracle::default()
    }

    /// Allocates the next timestamp (relaxed: the allocation itself is the
    /// only synchronisation needed; the value travels to readers through the
    /// mailbox handoffs' release/acquire edges).
    pub fn allocate(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The highest timestamp allocated so far.
    #[must_use]
    pub fn latest(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Checks a completed read against this writers' clock. Writers store
    /// [`authentic_value`] of each allocated timestamp, so a pair that fails
    /// that relation, or carries a timestamp never allocated, was fabricated.
    /// `own_last_write` is the reader's own last completed write; pass 0 where
    /// read-your-writes does not apply (multi-writer runs, pure readers).
    #[must_use]
    pub fn check_read(&self, entry: &Entry, own_last_write: Timestamp) -> ReadCheck {
        ReadCheck {
            fabricated: entry.value != authentic_value(entry.timestamp)
                || entry.timestamp > self.latest(),
            stale_own_write: entry.timestamp < own_last_write,
        }
    }
}

/// The verdict of [`TimestampOracle::check_read`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadCheck {
    /// The read returned a pair no writer produced.
    pub fabricated: bool,
    /// The read returned an entry older than the reader's own last write.
    pub stale_own_write: bool,
}

impl ReadCheck {
    /// True when the read broke either invariant.
    #[must_use]
    pub fn violated(self) -> bool {
        self.fabricated || self.stale_own_write
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::{ReplyHandle, ReplyMailbox};
    use bqs_sim::server::{ByzantineStrategy, Entry};

    fn roundtrip(service: &LoopbackService, server: usize, op: Operation) -> Reply {
        roundtrip_at(service, server, op, 0)
    }

    fn roundtrip_at(service: &LoopbackService, server: usize, op: Operation, epoch: u64) -> Reply {
        let mb = Arc::new(ReplyMailbox::new());
        assert!(service.send(Request {
            server,
            op,
            request_id: 7,
            origin: 0,
            epoch,
            reply: Arc::clone(&mb) as ReplyHandle,
        }));
        let mut batch = Vec::new();
        assert!(mb.drain_blocking(&mut batch), "shard replies");
        assert_eq!(batch.len(), 1);
        batch.remove(0)
    }

    #[test]
    fn write_then_read_roundtrip_across_shards() {
        let service = LoopbackService::spawn(&FaultPlan::none(5), 3, 7);
        assert_eq!(service.universe_size(), 5);
        assert_eq!(service.shards(), 3);
        let entry = Entry {
            timestamp: 1,
            value: 42,
        };
        for s in 0..5 {
            assert_eq!(roundtrip(&service, s, Operation::Write(entry)).entry, None);
        }
        for s in 0..5 {
            let reply = roundtrip(&service, s, Operation::Read);
            assert_eq!(reply.server, s);
            assert_eq!(reply.request_id, 7, "shards must echo the request id");
            assert_eq!(reply.entry, Some(entry));
        }
        assert_eq!(service.metrics().access_counts(), vec![2; 5]);
    }

    #[test]
    fn send_batch_fans_out_across_shards_in_one_call() {
        let service = LoopbackService::spawn(&FaultPlan::none(5), 2, 11);
        let mb = Arc::new(ReplyMailbox::new());
        let mut fanout: Vec<Request> = (0..5)
            .map(|s| Request {
                server: s,
                op: Operation::Read,
                request_id: 100 + s as u64,
                origin: 0,
                epoch: 0,
                reply: Arc::clone(&mb) as ReplyHandle,
            })
            .collect();
        assert!(service.send_batch(&mut fanout));
        assert!(fanout.is_empty(), "the batch is drained");
        let mut replies = Vec::new();
        while replies.len() < 5 {
            let mut batch = Vec::new();
            assert!(mb.drain_blocking(&mut batch), "shards reply");
            replies.append(&mut batch);
        }
        replies.sort_by_key(|r| r.request_id);
        for (s, reply) in replies.iter().enumerate() {
            assert_eq!(reply.server, s);
            assert_eq!(reply.request_id, 100 + s as u64);
            assert_eq!(reply.entry, None);
        }
    }

    #[test]
    fn send_batch_refuses_out_of_universe_but_delivers_the_rest() {
        let service = LoopbackService::spawn(&FaultPlan::none(3), 2, 1);
        let mb = Arc::new(ReplyMailbox::new());
        let mut fanout: Vec<Request> = [0usize, 7, 2]
            .iter()
            .map(|&s| Request {
                server: s,
                op: Operation::Read,
                request_id: s as u64,
                origin: 0,
                epoch: 0,
                reply: Arc::clone(&mb) as ReplyHandle,
            })
            .collect();
        assert!(
            !service.send_batch(&mut fanout),
            "an out-of-universe member poisons the batch's return"
        );
        let mut replies = Vec::new();
        while replies.len() < 2 {
            let mut batch = Vec::new();
            assert!(mb.drain_blocking(&mut batch));
            replies.append(&mut batch);
        }
        replies.sort_by_key(|r| r.request_id);
        assert_eq!(replies[0].server, 0);
        assert_eq!(replies[1].server, 2);
    }

    #[test]
    fn crashed_and_silent_servers_are_unresponsive_but_replied_in_band() {
        let plan = FaultPlan::none(4)
            .with_crashed(1)
            .with_byzantine(2, ByzantineStrategy::Silent);
        let service = LoopbackService::spawn(&plan, 2, 0);
        assert_eq!(service.responsive_set().to_vec(), vec![0, 3]);
        // A read addressed to the crashed server still gets a frame, with no
        // protocol content.
        assert_eq!(roundtrip(&service, 1, Operation::Read).entry, None);
    }

    #[test]
    fn out_of_universe_requests_are_refused_not_routed() {
        let service = LoopbackService::spawn(&FaultPlan::none(3), 2, 1);
        let mb = Arc::new(ReplyMailbox::new());
        assert!(!service.send(Request {
            server: 3,
            op: Operation::Read,
            request_id: 0,
            origin: 0,
            epoch: 0,
            reply: mb as ReplyHandle,
        }));
        // The shards stay healthy afterwards.
        assert_eq!(roundtrip(&service, 2, Operation::Read).entry, None);
    }

    #[test]
    fn more_shards_than_servers_is_clamped() {
        let service = LoopbackService::spawn(&FaultPlan::none(2), 8, 1);
        assert_eq!(service.shards(), 2);
        assert_eq!(roundtrip(&service, 1, Operation::Read).entry, None);
    }

    #[test]
    fn reset_plan_swaps_replica_state_view_and_metrics() {
        let mut service = LoopbackService::spawn(&FaultPlan::none(5), 2, 3);
        let entry = Entry {
            timestamp: 9,
            value: 90,
        };
        for s in 0..5 {
            roundtrip(&service, s, Operation::Write(entry));
        }
        assert_eq!(roundtrip(&service, 0, Operation::Read).entry, Some(entry));

        // Re-arm with a plan that crashes server 1: replica state must be
        // fresh (the old write gone), the view updated, the metrics zeroed.
        service.reset_plan(&FaultPlan::none(5).with_crashed(1), 4);
        assert_eq!(service.responsive_set().to_vec(), vec![0, 2, 3, 4]);
        assert_eq!(roundtrip(&service, 0, Operation::Read).entry, None);
        assert_eq!(roundtrip(&service, 1, Operation::Read).entry, None);
        // Two reads since the reset, nothing from before.
        assert_eq!(service.metrics().access_counts(), vec![1, 1, 0, 0, 0]);

        // And back to a healthy plan: the crash does not stick.
        service.reset_plan(&FaultPlan::none(5), 5);
        assert_eq!(service.responsive_set().len(), 5);
    }

    #[test]
    #[should_panic(expected = "universe size")]
    fn reset_plan_rejects_universe_changes() {
        let mut service = LoopbackService::spawn(&FaultPlan::none(5), 2, 3);
        service.reset_plan(&FaultPlan::none(6), 0);
    }

    #[test]
    fn epoch_gate_fences_requests_outside_the_window() {
        let service = LoopbackService::spawn(&FaultPlan::none(4), 2, 5);
        let entry = Entry {
            timestamp: 3,
            value: 30,
        };
        roundtrip(&service, 0, Operation::Write(entry));

        // Epoch 1 is not yet accepted: fenced without touching the replica.
        let fenced = roundtrip_at(&service, 0, Operation::Read, 1);
        assert!(fenced.stale);
        assert_eq!(fenced.entry, None);
        assert_eq!(fenced.epoch, 0, "fenced replies report the current epoch");

        // Open the handoff window: both epochs are served; served replies
        // echo the request's own stamp.
        service.epoch_gate().open_window(1);
        let old = roundtrip_at(&service, 0, Operation::Read, 0);
        let new = roundtrip_at(&service, 0, Operation::Read, 1);
        assert!(!old.stale && !new.stale);
        assert_eq!((old.epoch, new.epoch), (0, 1));
        assert_eq!(old.entry, Some(entry));
        assert_eq!(new.entry, Some(entry));

        // Finalise: epoch-0 stragglers are fenced and told where to go.
        service.epoch_gate().finalize(1);
        let stale = roundtrip_at(&service, 0, Operation::Read, 0);
        assert!(stale.stale);
        assert_eq!(stale.epoch, 1);
        // Fenced requests never count as served accesses.
        let write_and_reads = 3;
        assert_eq!(
            service.metrics().access_counts()[0],
            write_and_reads,
            "gate rejections must not count toward load"
        );
    }

    #[test]
    fn crash_servers_kills_replicas_under_a_shared_reference() {
        let service = LoopbackService::spawn(&FaultPlan::none(5), 2, 6);
        let entry = Entry {
            timestamp: 5,
            value: 50,
        };
        for s in 0..5 {
            roundtrip(&service, s, Operation::Write(entry));
        }
        service.crash_servers(&[1, 4]);
        // Crashed replicas lose their protocol voice but still answer
        // in-band; the survivors keep their state.
        assert_eq!(roundtrip(&service, 1, Operation::Read).entry, None);
        assert_eq!(roundtrip(&service, 4, Operation::Read).entry, None);
        assert_eq!(roundtrip(&service, 0, Operation::Read).entry, Some(entry));
        // The failure-detector view is deliberately left untouched: the
        // suspicion engine discovers the crash from evidence.
        assert_eq!(service.responsive_set().len(), 5);
    }

    #[test]
    fn reset_plan_rearms_the_epoch_gate() {
        let mut service = LoopbackService::spawn(&FaultPlan::none(4), 2, 7);
        service.epoch_gate().finalize(3);
        assert!(roundtrip_at(&service, 0, Operation::Read, 0).stale);
        service.reset_plan(&FaultPlan::none(4), 8);
        let reply = roundtrip_at(&service, 0, Operation::Read, 0);
        assert!(!reply.stale, "a fresh trial starts back at epoch 0");
    }

    #[test]
    fn timestamp_oracle_is_monotone() {
        let oracle = TimestampOracle::new();
        assert_eq!(oracle.latest(), 0);
        assert_eq!(oracle.allocate(), 1);
        assert_eq!(oracle.allocate(), 2);
        assert_eq!(oracle.latest(), 2);
    }

    #[test]
    fn read_check_flags_fabrication_and_missed_own_writes() {
        let oracle = TimestampOracle::new();
        let (t1, t2) = (oracle.allocate(), oracle.allocate());
        let written = |timestamp| Entry {
            timestamp,
            value: authentic_value(timestamp),
        };
        assert!(!oracle.check_read(&written(t2), t2).violated());
        // Older than the reader's own last write; fine for anyone else.
        let behind = oracle.check_read(&written(t1), t2);
        assert!(behind.stale_own_write && !behind.fabricated);
        assert!(!oracle.check_read(&written(t1), 0).violated());
        // A wrong value, or a timestamp never allocated, is a fabrication.
        let forged = Entry {
            timestamp: t2,
            value: authentic_value(t2) ^ 1,
        };
        assert!(oracle.check_read(&forged, 0).fabricated);
        assert!(oracle.check_read(&written(t2 + 1), 0).fabricated);
    }
}
