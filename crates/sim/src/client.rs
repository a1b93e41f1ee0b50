//! The masking-quorum read/write protocol ([MR98a]).
//!
//! The client implements the replicated read/write register that motivates b-masking
//! quorum systems:
//!
//! * **Write(v)** — pick a quorum, send `(ts, v)` with a fresh timestamp to every
//!   server in it.
//! * **Read()** — pick a quorum, collect each server's `(ts, v)` reply, keep only the
//!   pairs reported by at least `b + 1` servers (the *safe* set), and return the
//!   value with the highest timestamp among them.
//!
//! Because any read quorum intersects any write quorum in at least `2b + 1` servers
//! (Definition 3.5), at least `b + 1` *correct* servers in the intersection hold the
//! latest completed write, so its pair is always safe; and any pair fabricated by the
//! at most `b` Byzantine servers appears at most `b` times, so it never is. Under
//! failures the client selects its quorum among the servers its failure detector
//! considers responsive, using [`QuorumSystem::find_live_quorum`].

use rand::Rng;

use bqs_core::bitset::ServerSet;
use bqs_core::quorum::QuorumSystem;

use crate::cluster::Cluster;
use crate::server::{Entry, Timestamp, Value};

/// Errors surfaced by the protocol client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// No quorum consists entirely of responsive servers; the operation cannot make
    /// progress (availability loss, not a safety violation).
    NoLiveQuorum,
    /// A read gathered no safe value: fewer than `b + 1` servers agreed on any pair.
    /// With a correct quorum system and at most `b` Byzantine servers this can only
    /// happen before the first write completes.
    NoSafeValue,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::NoLiveQuorum => write!(f, "no quorum of responsive servers exists"),
            ProtocolError::NoSafeValue => {
                write!(f, "no value was reported by at least b+1 servers")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// The outcome of a successful read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOutcome {
    /// The value returned to the application.
    pub value: Value,
    /// Its timestamp.
    pub timestamp: Timestamp,
    /// The quorum that was contacted.
    pub quorum: ServerSet,
    /// All safe (≥ b+1 supported) entries that were observed, for diagnostics.
    pub safe_entries: Vec<Entry>,
}

/// The outcome of a successful write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOutcome {
    /// The timestamp assigned to the write.
    pub timestamp: Timestamp,
    /// The quorum that was contacted.
    pub quorum: ServerSet,
}

/// Chooses an access quorum against a failure detector's `responsive` view: a
/// sampled quorum when every member is responsive (the fast path that realises
/// the access strategy's load profile), retrying the sample a few times under
/// sporadic failures, and falling back to deterministic live-quorum discovery
/// only when sampling repeatedly fails.
///
/// This is the quorum-selection policy every [`QuorumAccess`] starts with.
///
/// # Errors
///
/// Returns [`ProtocolError::NoLiveQuorum`] when no quorum consists entirely of
/// responsive servers.
pub fn choose_access_quorum<Q, R>(
    system: &Q,
    responsive: &ServerSet,
    rng: &mut R,
) -> Result<ServerSet, ProtocolError>
where
    Q: QuorumSystem + ?Sized,
    R: Rng,
{
    const SAMPLE_ATTEMPTS: usize = 8;
    for _ in 0..SAMPLE_ATTEMPTS {
        let sampled = system.sample_quorum(rng);
        if sampled.is_subset_of(responsive) {
            return Ok(sampled);
        }
    }
    system
        .find_live_quorum(responsive)
        .ok_or(ProtocolError::NoLiveQuorum)
}

/// Resolves a read from per-server replies by the masking rule: keep only the
/// entries reported by at least `b + 1` servers (the *safe* set) and return
/// the one with the highest timestamp, together with the full safe set sorted
/// for diagnostics.
///
/// Every read resolves through here via [`QuorumAccess::finish`] — the
/// safety argument (any pair fabricated by at most `b` Byzantine servers has
/// at most `b` supporters) lives here once.
///
/// # Errors
///
/// Returns [`ProtocolError::NoSafeValue`] when no pair had `b + 1` supporters.
pub fn resolve_read(
    replies: &[(usize, Option<Entry>)],
    b: usize,
) -> Result<(Entry, Vec<Entry>), ProtocolError> {
    // Count support per distinct entry.
    let mut support: Vec<(Entry, usize)> = Vec::new();
    for (_, reply) in replies {
        if let Some(entry) = reply {
            match support.iter_mut().find(|(e, _)| e == entry) {
                Some((_, count)) => *count += 1,
                None => support.push((*entry, 1)),
            }
        }
    }
    let mut safe_entries: Vec<Entry> = support
        .into_iter()
        .filter(|&(_, count)| count > b)
        .map(|(e, _)| e)
        .collect();
    safe_entries.sort_unstable();
    let best = safe_entries
        .iter()
        .max_by_key(|e| e.timestamp)
        .copied()
        .ok_or(ProtocolError::NoSafeValue)?;
    Ok((best, safe_entries))
}

/// Whether a [`QuorumAccess`] reads the register or writes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A read: only a reply carrying an entry answers it.
    Read,
    /// A write: every acknowledgement answers it, an in-band `None` included.
    Write,
}

/// What one reply meant to a [`QuorumAccess`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyVerdict {
    /// The reply adds nothing: its server already replied, is outside the
    /// quorum, or served it under another epoch.
    Ignored,
    /// The server answered the access.
    Answer,
    /// The server replied without a protocol answer (an in-band `None` to a
    /// read): failure-detector evidence against it.
    NoAnswer,
    /// The server fenced the access: its epoch is retired.
    /// [`QuorumAccess::fenced`] holds the newest epoch any fencing reply
    /// reported.
    Fenced,
}

/// One quorum access of the masking protocol, as a state machine with no I/O,
/// threads or clocks. The driver sends the operation to [`QuorumAccess::quorum`],
/// feeds every reply to [`QuorumAccess::on_reply`], and acts on the verdict;
/// timing, metrics and retries stay with the driver.
///
/// The rules the masking argument rests on live here once: a server is heard
/// at most once (a duplicating network cannot lend one Byzantine server
/// `b + 1` support by echo), a served reply counts only under the access's own
/// epoch (no quorum mixes replies gathered under two strategies), and a stale
/// reply fences the access in-band.
#[derive(Debug, Clone)]
pub struct QuorumAccess {
    kind: AccessKind,
    epoch: u64,
    quorum: ServerSet,
    replies: Vec<(usize, Option<Entry>)>,
    fenced_at: Option<u64>,
}

impl QuorumAccess {
    /// Starts an access stamped with `epoch`, choosing its quorum through
    /// [`choose_access_quorum`].
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::NoLiveQuorum`] when no quorum consists
    /// entirely of responsive servers.
    pub fn start<Q, R>(
        system: &Q,
        responsive: &ServerSet,
        rng: &mut R,
        kind: AccessKind,
        epoch: u64,
    ) -> Result<Self, ProtocolError>
    where
        Q: QuorumSystem + ?Sized,
        R: Rng,
    {
        let quorum = choose_access_quorum(system, responsive, rng)?;
        Ok(QuorumAccess {
            kind,
            epoch,
            replies: Vec::with_capacity(quorum.len()),
            quorum,
            fenced_at: None,
        })
    }

    /// Whether this access reads or writes.
    #[must_use]
    pub fn kind(&self) -> AccessKind {
        self.kind
    }

    /// The quorum the operation goes to.
    #[must_use]
    pub fn quorum(&self) -> &ServerSet {
        &self.quorum
    }

    /// Consumes the access, returning its quorum.
    #[must_use]
    pub fn into_quorum(self) -> ServerSet {
        self.quorum
    }

    /// Applies one reply from `server`, served under `epoch` (`stale` when
    /// the server's epoch gate refused it), and says what it meant.
    pub fn on_reply(
        &mut self,
        server: usize,
        entry: Option<Entry>,
        epoch: u64,
        stale: bool,
    ) -> ReplyVerdict {
        if stale {
            self.fenced_at = Some(self.fenced_at.map_or(epoch, |e| e.max(epoch)));
            return ReplyVerdict::Fenced;
        }
        if epoch != self.epoch
            || !self.quorum.contains(server)
            || self.replies.iter().any(|&(s, _)| s == server)
        {
            return ReplyVerdict::Ignored;
        }
        self.replies.push((server, entry));
        if self.kind == AccessKind::Write || entry.is_some() {
            ReplyVerdict::Answer
        } else {
            ReplyVerdict::NoAnswer
        }
    }

    /// The newest epoch a fencing reply reported, if any server fenced.
    #[must_use]
    pub fn fenced(&self) -> Option<u64> {
        self.fenced_at
    }

    /// True once every quorum member has replied.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.replies.len() == self.quorum.len()
    }

    /// The quorum members not yet heard from: the servers to accuse when the
    /// driver's deadline passes.
    pub fn missing(&self) -> impl Iterator<Item = usize> + '_ {
        self.quorum
            .iter()
            .filter(|&server| !self.replies.iter().any(|&(s, _)| s == server))
    }

    /// Resolves a read from the replies so far through [`resolve_read`].
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::NoSafeValue`] when no pair had `b + 1`
    /// supporters.
    pub fn finish(&self, b: usize) -> Result<(Entry, Vec<Entry>), ProtocolError> {
        resolve_read(&self.replies, b)
    }
}

/// Writes `entry` to a quorum of `cluster` chosen against its failure
/// detector, returning the quorum.
pub(crate) fn write_to_cluster<Q, R>(
    system: &Q,
    cluster: &mut Cluster,
    entry: Entry,
    rng: &mut R,
) -> Result<ServerSet, ProtocolError>
where
    Q: QuorumSystem + ?Sized,
    R: Rng,
{
    let access = QuorumAccess::start(system, &cluster.responsive_set(), rng, AccessKind::Write, 0)?;
    cluster.deliver_write(access.quorum(), entry);
    Ok(access.into_quorum())
}

/// Reads a quorum of `cluster` and resolves the reply set by the masking rule.
pub(crate) fn read_from_cluster<Q, R>(
    system: &Q,
    b: usize,
    cluster: &mut Cluster,
    rng: &mut R,
) -> Result<ReadOutcome, ProtocolError>
where
    Q: QuorumSystem + ?Sized,
    R: Rng,
{
    let mut access =
        QuorumAccess::start(system, &cluster.responsive_set(), rng, AccessKind::Read, 0)?;
    for (server, entry) in cluster.deliver_read(access.quorum(), rng) {
        access.on_reply(server, entry, 0, false);
    }
    let (best, safe_entries) = access.finish(b)?;
    Ok(ReadOutcome {
        value: best.value,
        timestamp: best.timestamp,
        quorum: access.into_quorum(),
        safe_entries,
    })
}

/// A protocol client bound to a quorum system and a masking level `b`.
#[derive(Debug, Clone)]
pub struct Client<Q> {
    system: Q,
    b: usize,
    next_timestamp: Timestamp,
}

impl<Q: QuorumSystem> Client<Q> {
    /// Creates a client over the given b-masking quorum system.
    #[must_use]
    pub fn new(system: Q, b: usize) -> Self {
        Client {
            system,
            b,
            next_timestamp: 1,
        }
    }

    /// Writes `value` to the register.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::NoLiveQuorum`] when no quorum of responsive servers
    /// exists.
    pub fn write<R: Rng>(
        &mut self,
        cluster: &mut Cluster,
        value: Value,
        rng: &mut R,
    ) -> Result<WriteOutcome, ProtocolError> {
        let timestamp = self.next_timestamp;
        let quorum = write_to_cluster(&self.system, cluster, Entry { timestamp, value }, rng)?;
        self.next_timestamp += 1;
        Ok(WriteOutcome { timestamp, quorum })
    }

    /// Reads the register, masking up to `b` Byzantine replies.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::NoLiveQuorum`] when no quorum of responsive servers
    /// exists, or [`ProtocolError::NoSafeValue`] when no pair had `b + 1` supporters
    /// (only possible before the first write completes).
    pub fn read<R: Rng>(
        &self,
        cluster: &mut Cluster,
        rng: &mut R,
    ) -> Result<ReadOutcome, ProtocolError> {
        read_from_cluster(&self.system, self.b, cluster, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::server::ByzantineStrategy;
    use bqs_constructions::threshold::ThresholdSystem;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(b: usize, plan: FaultPlan) -> (Client<ThresholdSystem>, Cluster, StdRng) {
        let system = ThresholdSystem::minimal_masking(b).unwrap();
        let cluster = Cluster::new(plan);
        (Client::new(system, b), cluster, StdRng::seed_from_u64(42))
    }

    #[test]
    fn read_your_write_without_failures() {
        let (mut client, mut cluster, mut rng) = setup(1, FaultPlan::none(5));
        client.write(&mut cluster, 77, &mut rng).unwrap();
        let read = client.read(&mut cluster, &mut rng).unwrap();
        assert_eq!(read.value, 77);
        assert_eq!(read.timestamp, 1);
    }

    #[test]
    fn read_before_any_write_has_no_safe_value() {
        let (client, mut cluster, mut rng) = setup(1, FaultPlan::none(5));
        assert_eq!(
            client.read(&mut cluster, &mut rng).unwrap_err(),
            ProtocolError::NoSafeValue
        );
    }

    #[test]
    fn fabricated_high_timestamp_is_masked() {
        // b = 1 over 5 servers; one Byzantine server fabricates value 666 with
        // timestamp MAX. The read must still return the honestly written value.
        let plan = FaultPlan::none(5)
            .with_byzantine(2, ByzantineStrategy::FabricateHighTimestamp { value: 666 });
        let (mut client, mut cluster, mut rng) = setup(1, plan);
        client.write(&mut cluster, 10, &mut rng).unwrap();
        for _ in 0..20 {
            let r = client.read(&mut cluster, &mut rng).unwrap();
            assert_eq!(r.value, 10, "fabricated value leaked through masking");
            assert!(r.safe_entries.iter().all(|e| e.value != 666));
        }
    }

    #[test]
    fn stale_replay_is_outvoted_by_fresh_writes() {
        let plan = FaultPlan::none(5).with_byzantine(0, ByzantineStrategy::StaleReplay);
        let (mut client, mut cluster, mut rng) = setup(1, plan);
        client.write(&mut cluster, 1, &mut rng).unwrap();
        client.write(&mut cluster, 2, &mut rng).unwrap();
        client.write(&mut cluster, 3, &mut rng).unwrap();
        let r = client.read(&mut cluster, &mut rng).unwrap();
        assert_eq!(r.value, 3);
    }

    #[test]
    fn crashes_up_to_resilience_do_not_block_progress() {
        // Thresh(4-of-5) has MT = 2, so it tolerates one crash.
        let plan = FaultPlan::none(5).with_crashed(4);
        let (mut client, mut cluster, mut rng) = setup(1, plan);
        client.write(&mut cluster, 5, &mut rng).unwrap();
        let r = client.read(&mut cluster, &mut rng).unwrap();
        assert_eq!(r.value, 5);
    }

    #[test]
    fn too_many_crashes_block_progress_but_not_safety() {
        let plan = FaultPlan::none(5).with_crashed(0).with_crashed(1);
        let (mut client, mut cluster, mut rng) = setup(1, plan);
        assert_eq!(
            client.write(&mut cluster, 5, &mut rng).unwrap_err(),
            ProtocolError::NoLiveQuorum
        );
    }

    fn entry(timestamp: Timestamp) -> Entry {
        Entry {
            timestamp,
            value: timestamp * 10,
        }
    }

    /// An access over Thresh(4-of-5) at epoch 3, and its quorum members.
    fn access_of(kind: AccessKind) -> (QuorumAccess, Vec<usize>) {
        let system = ThresholdSystem::minimal_masking(1).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let access = QuorumAccess::start(&system, &ServerSet::full(5), &mut rng, kind, 3).unwrap();
        let members = access.quorum().to_vec();
        (access, members)
    }

    #[test]
    fn access_counts_a_duplicated_reply_once() {
        let (mut access, q) = access_of(AccessKind::Read);
        assert_eq!(
            access.on_reply(q[0], Some(entry(1)), 3, false),
            ReplyVerdict::Answer
        );
        assert_eq!(
            access.on_reply(q[0], Some(entry(1)), 3, false),
            ReplyVerdict::Ignored
        );
        // With b = 1 a single server, however often echoed, is never safe.
        assert_eq!(access.finish(1).unwrap_err(), ProtocolError::NoSafeValue);
        assert_eq!(
            access.on_reply(q[1], Some(entry(1)), 3, false),
            ReplyVerdict::Answer
        );
        assert_eq!(access.finish(1).unwrap().0, entry(1));
    }

    #[test]
    fn access_ignores_served_replies_from_another_epoch() {
        let (mut access, q) = access_of(AccessKind::Read);
        assert_eq!(
            access.on_reply(q[0], Some(entry(1)), 2, false),
            ReplyVerdict::Ignored
        );
        assert_eq!(
            access.on_reply(q[1], Some(entry(1)), 4, false),
            ReplyVerdict::Ignored
        );
        assert_eq!(
            access.missing().count(),
            q.len(),
            "no epoch-foreign support"
        );
        assert_eq!(access.fenced(), None);
    }

    #[test]
    fn access_ignores_servers_outside_its_quorum() {
        let (mut access, q) = access_of(AccessKind::Read);
        let outsider = (0..5).find(|s| !q.contains(s)).unwrap();
        assert_eq!(
            access.on_reply(outsider, Some(entry(1)), 3, false),
            ReplyVerdict::Ignored
        );
        assert!(!access.is_complete());
    }

    #[test]
    fn stale_replies_fence_and_report_the_newest_epoch() {
        let (mut access, q) = access_of(AccessKind::Read);
        assert_eq!(access.on_reply(q[0], None, 5, true), ReplyVerdict::Fenced);
        assert_eq!(access.fenced(), Some(5));
        assert_eq!(access.on_reply(q[1], None, 7, true), ReplyVerdict::Fenced);
        assert_eq!(access.fenced(), Some(7));
        assert_eq!(access.on_reply(q[2], None, 6, true), ReplyVerdict::Fenced);
        assert_eq!(access.fenced(), Some(7));
        assert_eq!(access.missing().count(), q.len(), "fencing adds no support");
    }

    #[test]
    fn none_is_a_no_answer_to_a_read_and_an_answer_to_a_write() {
        let (mut read, q) = access_of(AccessKind::Read);
        assert_eq!(read.on_reply(q[0], None, 3, false), ReplyVerdict::NoAnswer);
        assert_eq!(
            read.on_reply(q[1], Some(entry(1)), 3, false),
            ReplyVerdict::Answer
        );
        let (mut write, q) = access_of(AccessKind::Write);
        assert_eq!(write.kind(), AccessKind::Write);
        assert_eq!(write.on_reply(q[0], None, 3, false), ReplyVerdict::Answer);
    }

    #[test]
    fn missing_lists_exactly_the_silent_members() {
        let (mut access, q) = access_of(AccessKind::Read);
        assert_eq!(q.len(), 4);
        access.on_reply(q[0], Some(entry(1)), 3, false);
        access.on_reply(q[2], None, 3, false);
        assert_eq!(access.missing().collect::<Vec<_>>(), vec![q[1], q[3]]);
        access.on_reply(q[1], Some(entry(1)), 3, false);
        access.on_reply(q[3], Some(entry(1)), 3, false);
        assert!(access.is_complete());
        assert_eq!(access.missing().count(), 0);
        assert_eq!(access.into_quorum().to_vec(), q);
    }

    #[test]
    fn equivocating_servers_cannot_reach_safety_threshold() {
        let plan = FaultPlan::none(9)
            .with_byzantine(0, ByzantineStrategy::Equivocate)
            .with_byzantine(1, ByzantineStrategy::Equivocate);
        let system = ThresholdSystem::minimal_masking(2).unwrap();
        let mut client = Client::new(system, 2);
        let mut cluster = Cluster::new(plan);
        let mut rng = StdRng::seed_from_u64(9);
        client.write(&mut cluster, 123, &mut rng).unwrap();
        for _ in 0..10 {
            let r = client.read(&mut cluster, &mut rng).unwrap();
            assert_eq!(r.value, 123);
        }
    }
}
