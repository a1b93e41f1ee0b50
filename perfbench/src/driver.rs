//! The benchmark's open-loop register driver.
//!
//! Independent virtual clients arrive by a Poisson process whose schedule is
//! generated from the seed before the run starts. Each operation is timed
//! from when it was **due**, not from when the driver got round to sending
//! it, so a stall anywhere in the process — the driver, the transport, the
//! service — shows up in the latency of every operation due during it.
//! How late the driver ran is reported on its own (`driver.late_*`).
//!
//! The driver uses only public calls of the program:
//! [`choose_access_quorum`] and [`resolve_read`] for the masking protocol,
//! [`TimestampOracle::allocate`] and [`authentic_value`] for writes,
//! [`Transport::send_batch`] for the fan-out and
//! [`ReplyMailbox::drain_timeout`] for the replies. With tracing on, each of
//! those calls is wrapped in a span (see [`crate::trace`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bqs_core::bitset::ServerSet;
use bqs_core::quorum::QuorumSystem;
use bqs_service::{
    authentic_value, DrainStatus, Operation, Reply, ReplyHandle, ReplyMailbox, Request,
    TimestampOracle, Transport,
};
use bqs_sim::client::{choose_access_quorum, resolve_read, ProtocolError};
use bqs_sim::server::Entry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::CpuTime;
use crate::trace::{Span, Tracer};

/// One scheduled operation: when it is due (ns after the run starts) and
/// whether it writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, nanoseconds after the run's start.
    pub due_ns: u64,
    /// True for a write, false for a read.
    pub write: bool,
}

/// Per-worker Poisson schedules with `rate` arrivals per second in total
/// over `seconds`, each arrival a write with probability `write_fraction`.
/// The superposition of the workers' independent streams is Poisson at
/// `rate`. The same seed gives the same schedule.
#[must_use]
pub fn poisson_schedule(
    seed: u64,
    rate: f64,
    seconds: f64,
    write_fraction: f64,
    workers: usize,
) -> Vec<Vec<Arrival>> {
    let per_worker = rate / workers as f64;
    let horizon = (seconds * 1e9) as u64;
    (0..workers)
        .map(|w| {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xa11_0ca7e_u64.wrapping_mul(w as u64 + 1));
            let mut due = 0.0f64;
            let mut out = Vec::with_capacity((per_worker * seconds * 1.1) as usize + 16);
            loop {
                let u: f64 = rng.gen();
                due += -(1.0 - u).ln() / per_worker * 1e9;
                if due as u64 >= horizon {
                    break out;
                }
                out.push(Arrival {
                    due_ns: due as u64,
                    write: rng.gen_bool(write_fraction),
                });
            }
        })
        .collect()
}

/// An operation still missing replies this long after its send is
/// abandoned and counted as timed out.
pub const OP_DEADLINE: Duration = Duration::from_secs(5);
/// Operations a worker keeps in flight before it sheds new arrivals.
pub const MAX_IN_FLIGHT: usize = 4_096;
/// Interval of [`DriverReport::machine`]'s samples.
pub const STEAL_SAMPLE: Duration = Duration::from_millis(100);

/// Fixed settings of one driver run.
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// Masking level applied to reads.
    pub b: usize,
    /// Record spans around every layer call.
    pub trace: bool,
    /// Operations per worker whose requests and replies are kept for the
    /// codec measurement.
    pub capture_ops: usize,
    /// Seeds the workers' quorum-sampling streams.
    pub seed: u64,
}

/// One completed operation's timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpTiming {
    /// When it was due, ns after the run's start.
    pub due_ns: u64,
    /// Due to completion, ns.
    pub latency_ns: u64,
    /// Due to the driver picking it up for sending, ns.
    pub late_ns: u64,
}

/// One operation's fan-out and replies, kept for the codec measurement.
#[derive(Debug, Clone, Default)]
pub struct CapturedOp {
    /// `(server, operation, request id)` of each request in the fan-out.
    pub requests: Vec<(usize, Operation, u64)>,
    /// The replies, in arrival order.
    pub replies: Vec<Reply>,
}

/// The outcome of one driver run.
#[derive(Debug, Default)]
pub struct DriverReport {
    /// Arrivals in the schedule.
    pub scheduled: u64,
    /// Writes whose whole quorum acknowledged.
    pub writes: u64,
    /// Reads that resolved to a safe value.
    pub reads: u64,
    /// Reads whose replies held no value with `b + 1` support.
    pub inconclusive: u64,
    /// Arrivals shed at the in-flight cap.
    pub shed: u64,
    /// Operations abandoned at their deadline.
    pub timed_out: u64,
    /// Fan-outs the transport refused.
    pub refused: u64,
    /// Arrivals that found no live quorum.
    pub no_live_quorum: u64,
    /// Operations fenced by the servers' epoch gate.
    pub fenced: u64,
    /// Reads that returned a value that is not authentic for its timestamp,
    /// or a timestamp the writer clock never issued.
    pub violations: u64,
    /// Timing of every successful operation.
    pub ops: Vec<OpTiming>,
    /// Servers contacted, summed over the fan-outs sent.
    pub fanout_members: u64,
    /// Fan-outs sent.
    pub fanouts: u64,
    /// Mailbox drains that returned replies.
    pub drains: u64,
    /// Replies those drains returned.
    pub drained_replies: u64,
    /// Span totals and sample (empty unless tracing).
    pub tracer: Tracer,
    /// Captured fan-outs for the codec measurement.
    pub captured: Vec<CapturedOp>,
    /// The machine's CPU accounting sampled every [`STEAL_SAMPLE`] from the
    /// run's start (the first sample at the start) until the workers finish,
    /// so the steal share of any stretch of the run can be read off.
    pub machine: Vec<CpuTime>,
    /// Wall seconds from the start to the last completion.
    pub elapsed_s: f64,
    /// Process CPU over the same window.
    pub cpu: CpuTime,
}

impl DriverReport {
    /// Successful operations.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.writes + self.reads
    }

    /// Operations that did not succeed: shed, timed out, refused, without a
    /// live quorum, fenced, or reads without a safe value.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.inconclusive
            + self.shed
            + self.timed_out
            + self.refused
            + self.no_live_quorum
            + self.fenced
    }

    fn merge(&mut self, w: DriverReport) {
        self.writes += w.writes;
        self.reads += w.reads;
        self.inconclusive += w.inconclusive;
        self.shed += w.shed;
        self.timed_out += w.timed_out;
        self.refused += w.refused;
        self.no_live_quorum += w.no_live_quorum;
        self.fenced += w.fenced;
        self.violations += w.violations;
        self.ops.extend(w.ops);
        self.fanout_members += w.fanout_members;
        self.fanouts += w.fanouts;
        self.drains += w.drains;
        self.drained_replies += w.drained_replies;
        self.tracer.merge(w.tracer);
        self.captured.extend(w.captured);
    }
}

/// Writes one authentic entry through a quorum and waits for every
/// acknowledgement, so reads that follow find a safe value.
///
/// # Errors
///
/// Returns a description when no live quorum exists, the transport refuses
/// the fan-out, or the acknowledgements do not all arrive within `deadline`.
pub fn prime_register<Q, T>(
    system: &Q,
    transport: &T,
    responsive: &ServerSet,
    clock: &TimestampOracle,
    seed: u64,
    deadline: Duration,
) -> Result<(), String>
where
    Q: QuorumSystem + ?Sized,
    T: Transport + ?Sized,
{
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0091_217e);
    let quorum =
        choose_access_quorum(system, responsive, &mut rng).map_err(|e| format!("priming: {e}"))?;
    let ts = clock.allocate();
    let entry = Entry {
        timestamp: ts,
        value: authentic_value(ts),
    };
    let mailbox = Arc::new(ReplyMailbox::new());
    let mut fanout: Vec<Request> = quorum
        .iter()
        .map(|server| Request {
            server,
            op: Operation::Write(entry),
            request_id: server as u64,
            origin: 0,
            epoch: 0,
            reply: Arc::clone(&mailbox) as ReplyHandle,
        })
        .collect();
    let expected = fanout.len();
    if !transport.send_batch(&mut fanout) {
        return Err("priming: transport refused the fan-out".into());
    }
    let end = Instant::now() + deadline;
    let mut got = 0;
    let mut drained = Vec::new();
    while got < expected {
        let left = end.saturating_duration_since(Instant::now());
        let n = mailbox.drain_timeout(left, &mut drained).count();
        if n == 0 {
            return Err(format!("priming: {got} of {expected} acknowledgements"));
        }
        got += n;
        drained.clear();
    }
    Ok(())
}

/// Runs `schedule` (one arrival list per worker thread) against `transport`
/// and returns the accounting, timings, and (with tracing) span totals. Due
/// times count from the moment of the call.
///
/// # Panics
///
/// Panics if the transport's universe differs from the system's, or a worker
/// thread panics.
pub fn run<Q, T>(
    system: &Q,
    transport: &T,
    responsive: &ServerSet,
    clock: &TimestampOracle,
    schedule: &[Vec<Arrival>],
    config: &DriverConfig,
) -> DriverReport
where
    Q: QuorumSystem + ?Sized,
    T: Transport + ?Sized,
{
    assert_eq!(
        transport.universe_size(),
        system.universe_size(),
        "transport and system must cover one universe"
    );
    let start = Instant::now();
    let cpu_before = CpuTime::now();
    let finished = AtomicBool::new(false);
    let (workers, machine): (Vec<DriverReport>, Vec<CpuTime>) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| sample_machine(start, &finished));
        let handles: Vec<_> = schedule
            .iter()
            .enumerate()
            .map(|(w, arrivals)| {
                scope.spawn(move || {
                    Worker::new(system, transport, responsive, clock, config, w, start)
                        .run(arrivals)
                })
            })
            .collect();
        let workers = handles
            .into_iter()
            .map(|h| h.join().expect("driver worker panicked"))
            .collect();
        finished.store(true, Ordering::Relaxed);
        (workers, sampler.join().expect("steal sampler panicked"))
    });
    let mut report = DriverReport {
        scheduled: schedule.iter().map(|a| a.len() as u64).sum(),
        machine,
        ..DriverReport::default()
    };
    let mut last_done = 0u64;
    for w in workers {
        last_done = last_done.max(
            w.ops
                .iter()
                .map(|o| o.due_ns + o.latency_ns)
                .max()
                .unwrap_or(0),
        );
        report.merge(w);
    }
    report.cpu = CpuTime::now().since(cpu_before);
    report.elapsed_s = last_done as f64 / 1e9;
    report
}

/// Samples the machine's CPU accounting at `start` and every
/// [`STEAL_SAMPLE`] after it until `finished` is set.
fn sample_machine(start: Instant, finished: &AtomicBool) -> Vec<CpuTime> {
    let mut samples = vec![CpuTime::now()];
    while !finished.load(Ordering::Relaxed) {
        let due = start + STEAL_SAMPLE * samples.len() as u32;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        samples.push(CpuTime::now());
    }
    samples
}

/// Asks the kernel to wake the calling thread's timed waits on time rather
/// than up to 50 µs late (the default timer slack), so the driver sends each
/// operation when it falls due. Best effort: on failure the driver merely
/// runs later, which `driver.late_*` shows.
fn precise_timers() {
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and changes only
    // the calling thread's timer slack; no memory is passed or retained.
    unsafe {
        prctl(PR_SET_TIMERSLACK, std::ffi::c_ulong::from(1u8));
    }
}

/// Stamps of one in-flight operation, ns after the run's start.
#[derive(Debug, Clone, Copy, Default)]
struct Stamps {
    picked: u64,
    chosen: u64,
    allocated: u64,
    send_start: u64,
    send_end: u64,
}

struct Pending {
    due_ns: u64,
    write: bool,
    quorum_len: usize,
    replies: Vec<(usize, Option<Entry>)>,
    deadline: Instant,
    stamps: Stamps,
    capture: Option<usize>,
}

struct Worker<'a, Q: ?Sized, T: ?Sized> {
    system: &'a Q,
    transport: &'a T,
    responsive: &'a ServerSet,
    clock: &'a TimestampOracle,
    config: &'a DriverConfig,
    start: Instant,
    tag: u64,
    rng: StdRng,
    mailbox: Arc<ReplyMailbox>,
    pending: HashMap<u64, Pending>,
    report: DriverReport,
}

impl<'a, Q, T> Worker<'a, Q, T>
where
    Q: QuorumSystem + ?Sized,
    T: Transport + ?Sized,
{
    fn new(
        system: &'a Q,
        transport: &'a T,
        responsive: &'a ServerSet,
        clock: &'a TimestampOracle,
        config: &'a DriverConfig,
        worker: usize,
        start: Instant,
    ) -> Self {
        Worker {
            system,
            transport,
            responsive,
            clock,
            config,
            start,
            tag: (worker as u64 + 1) << 48,
            rng: StdRng::seed_from_u64(
                config.seed ^ 0x00d7_17e4_u64.wrapping_mul(worker as u64 + 1),
            ),
            mailbox: Arc::new(ReplyMailbox::new()),
            pending: HashMap::new(),
            report: DriverReport::default(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.start).as_nanos() as u64
    }

    fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    fn run(mut self, arrivals: &[Arrival]) -> DriverReport {
        const TICK: Duration = Duration::from_millis(20);
        precise_timers();
        let mut next = 0usize;
        let mut seq = 0u64;
        let mut fanout: Vec<Request> = Vec::new();
        let mut drained: Vec<Reply> = Vec::new();
        let mut tail_end: Option<Instant> = None;
        let mut next_expiry = Instant::now() + TICK;
        loop {
            let now_ns = self.now_ns();
            while next < arrivals.len() && arrivals[next].due_ns <= now_ns {
                seq += 1;
                self.launch(arrivals[next], seq, &mut fanout);
                next += 1;
            }
            if next == arrivals.len() {
                if self.pending.is_empty() {
                    break;
                }
                let tail = *tail_end.get_or_insert_with(|| Instant::now() + OP_DEADLINE);
                if Instant::now() >= tail {
                    self.report.timed_out += self.pending.len() as u64;
                    self.pending.clear();
                    break;
                }
            }
            let wait = match arrivals.get(next) {
                Some(a) => Duration::from_nanos(a.due_ns.saturating_sub(self.now_ns())).min(TICK),
                None => TICK,
            };
            match self.mailbox.drain_timeout(wait, &mut drained) {
                DrainStatus::Drained(n) => {
                    self.report.drains += 1;
                    self.report.drained_replies += n as u64;
                    for reply in drained.drain(..) {
                        self.handle(reply);
                    }
                }
                DrainStatus::TimedOut => {}
                DrainStatus::Closed => {
                    self.report.timed_out += self.pending.len() as u64;
                    self.pending.clear();
                    break;
                }
            }
            let now = Instant::now();
            if now >= next_expiry {
                next_expiry = now + TICK;
                let before = self.pending.len();
                self.pending.retain(|_, op| now < op.deadline);
                self.report.timed_out += (before - self.pending.len()) as u64;
            }
        }
        self.report
    }

    /// Sends one arrival's fan-out.
    fn launch(&mut self, arrival: Arrival, seq: u64, fanout: &mut Vec<Request>) {
        let trace = self.config.trace;
        let mut stamps = Stamps {
            picked: self.now_ns(),
            ..Stamps::default()
        };
        if self.pending.len() >= MAX_IN_FLIGHT {
            self.report.shed += 1;
            return;
        }
        let quorum = match choose_access_quorum(self.system, self.responsive, &mut self.rng) {
            Ok(q) => q,
            Err(_) => {
                self.report.no_live_quorum += 1;
                return;
            }
        };
        if trace {
            stamps.chosen = self.now_ns();
        }
        let op = if arrival.write {
            let ts = self.clock.allocate();
            if trace {
                stamps.allocated = self.now_ns();
            }
            Operation::Write(Entry {
                timestamp: ts,
                value: authentic_value(ts),
            })
        } else {
            stamps.allocated = stamps.chosen;
            Operation::Read
        };
        let key = self.tag | (seq << 8);
        for (member, server) in quorum.iter().enumerate() {
            fanout.push(Request {
                server,
                op,
                request_id: key | member as u64,
                origin: self.tag >> 48,
                epoch: 0,
                reply: Arc::clone(&self.mailbox) as ReplyHandle,
            });
        }
        let capture = (self.report.captured.len() < self.config.capture_ops).then(|| {
            self.report.captured.push(CapturedOp {
                requests: fanout
                    .iter()
                    .map(|r| (r.server, r.op, r.request_id))
                    .collect(),
                replies: Vec::new(),
            });
            self.report.captured.len() - 1
        });
        let quorum_len = fanout.len();
        if trace {
            stamps.send_start = self.now_ns();
        }
        let sent = self.transport.send_batch(fanout);
        let send_end = Instant::now();
        stamps.send_end = self.ns(send_end);
        fanout.clear();
        if !sent {
            self.report.refused += 1;
            return;
        }
        self.report.fanouts += 1;
        self.report.fanout_members += quorum_len as u64;
        self.pending.insert(
            key,
            Pending {
                due_ns: arrival.due_ns,
                write: arrival.write,
                quorum_len,
                replies: Vec::with_capacity(quorum_len),
                deadline: send_end + OP_DEADLINE,
                stamps,
                capture,
            },
        );
    }

    /// Matches one reply to its operation and completes the operation when
    /// its whole quorum has answered.
    fn handle(&mut self, reply: Reply) {
        let key = reply.request_id & !0xff;
        if reply.stale {
            if self.pending.remove(&key).is_some() {
                self.report.fenced += 1;
            }
            return;
        }
        let Some(op) = self.pending.get_mut(&key) else {
            return; // a straggler of an expired operation
        };
        if op.replies.iter().any(|&(server, _)| server == reply.server) {
            return; // a duplicate adds no support
        }
        if let Some(c) = op.capture {
            self.report.captured[c].replies.push(reply);
        }
        op.replies.push((reply.server, reply.entry));
        if op.replies.len() < op.quorum_len {
            return;
        }
        let op = self.pending.remove(&key).expect("just matched");
        let last_reply = if self.config.trace { self.now_ns() } else { 0 };
        let ok = if op.write {
            self.report.writes += 1;
            true
        } else {
            match resolve_read(&op.replies, self.config.b) {
                Ok((best, _)) => {
                    self.report.reads += 1;
                    if best.value != authentic_value(best.timestamp)
                        || best.timestamp > self.clock.latest()
                    {
                        self.report.violations += 1;
                    }
                    true
                }
                Err(ProtocolError::NoSafeValue) => {
                    self.report.inconclusive += 1;
                    false
                }
                Err(ProtocolError::NoLiveQuorum) => unreachable!("resolution never picks quorums"),
            }
        };
        let done = self.now_ns();
        if ok {
            self.report.ops.push(OpTiming {
                due_ns: op.due_ns,
                latency_ns: done - op.due_ns,
                late_ns: op.stamps.picked - op.due_ns,
            });
        }
        if self.config.trace {
            self.trace_op(key, &op, last_reply, done);
        }
    }

    fn trace_op(&mut self, key: u64, op: &Pending, last_reply: u64, done: u64) {
        let s = op.stamps;
        let mut spans = Vec::with_capacity(7);
        let mut child = |name, start, end| {
            spans.push(Span {
                op: key >> 8,
                name,
                parent: Some(0),
                start,
                end,
            });
        };
        child("driver.late", op.due_ns, s.picked);
        child("sim.choose_quorum", s.picked, s.chosen);
        if op.write {
            child("service.ts_allocate", s.chosen, s.allocated);
        }
        child("service.send_batch", s.send_start, s.send_end);
        child("service.reply_wait", s.send_end, last_reply);
        if !op.write {
            child("sim.resolve_read", last_reply, done);
        }
        spans.insert(
            0,
            Span {
                op: key >> 8,
                name: "op",
                parent: None,
                start: op.due_ns,
                end: done,
            },
        );
        self.report.tracer.record(&spans);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::quantile;
    use std::sync::Mutex;

    /// A one-register transport that answers every request at once, except
    /// that the first fan-out handed over inside the stall window blocks its
    /// caller until the window closes — a stall in the program, as a full
    /// socket buffer or a descheduled thread would cause.
    struct StallingTransport {
        n: usize,
        start: Instant,
        stall: (Duration, Duration),
        stalled: Mutex<bool>,
        stored: Mutex<Vec<Option<Entry>>>,
    }

    impl Transport for StallingTransport {
        fn universe_size(&self) -> usize {
            self.n
        }

        fn send(&self, request: Request) -> bool {
            let entry = {
                let mut stored = self.stored.lock().expect("register lock");
                match request.op {
                    Operation::Write(e) => {
                        let slot = &mut stored[request.server];
                        if slot.is_none_or(|c| e.timestamp > c.timestamp) {
                            *slot = Some(e);
                        }
                        None
                    }
                    Operation::Read => stored[request.server],
                }
            };
            request.reply.complete(Reply {
                server: request.server,
                request_id: request.request_id,
                entry,
                epoch: request.epoch,
                stale: false,
            });
            true
        }

        fn send_batch(&self, requests: &mut Vec<Request>) -> bool {
            let since = self.start.elapsed();
            if since >= self.stall.0 && since < self.stall.1 {
                let mut stalled = self.stalled.lock().expect("stall lock");
                if !*stalled {
                    *stalled = true;
                    std::thread::sleep(self.stall.1 - since);
                }
            }
            requests.drain(..).all(|r| self.send(r))
        }
    }

    #[test]
    fn schedule_is_poisson_and_repeats_per_seed() {
        let a = poisson_schedule(5, 10_000.0, 2.0, 0.3, 2);
        assert_eq!(a, poisson_schedule(5, 10_000.0, 2.0, 0.3, 2));
        assert_ne!(a, poisson_schedule(6, 10_000.0, 2.0, 0.3, 2));
        let total: usize = a.iter().map(Vec::len).sum();
        assert!((19_400..20_600).contains(&total), "{total} arrivals");
        let writes = a.iter().flatten().filter(|x| x.write).count();
        assert!((writes as f64 / total as f64 - 0.3).abs() < 0.02);
        for worker in &a {
            assert!(worker.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
            assert!(worker.last().unwrap().due_ns < 2_000_000_000);
        }
    }

    #[test]
    fn a_stall_is_charged_to_operations_due_during_it() {
        let system = bqs_core::quorum::ExplicitQuorumSystem::from_indices(
            3,
            [vec![0, 1], vec![1, 2], vec![0, 2]],
        )
        .unwrap();
        let clock = TimestampOracle::new();
        let transport = StallingTransport {
            n: 3,
            start: Instant::now(),
            stall: (Duration::from_millis(300), Duration::from_millis(500)),
            stalled: Mutex::new(false),
            stored: Mutex::new(vec![None; 3]),
        };
        let full = ServerSet::full(3);
        prime_register(
            &system,
            &transport,
            &full,
            &clock,
            1,
            Duration::from_secs(1),
        )
        .unwrap();
        // The transport's clock starts a moment before the driver's, so the
        // stall falls inside the driver's first second.
        let schedule = poisson_schedule(9, 2_000.0, 1.0, 0.2, 1);
        let config = DriverConfig {
            b: 0,
            trace: true,
            capture_ops: 0,
            seed: 3,
        };
        let report = run(&system, &transport, &full, &clock, &schedule, &config);
        assert_eq!(report.failed(), 0);
        assert_eq!(report.violations, 0);
        assert_eq!(report.completed(), report.scheduled);

        let mut due: Vec<u64> = report.ops.iter().map(|o| o.latency_ns).collect();
        let mut late: Vec<u64> = report.ops.iter().map(|o| o.late_ns).collect();
        let mut from_send: Vec<u64> = report
            .ops
            .iter()
            .map(|o| o.latency_ns - o.late_ns)
            .collect();
        for v in [&mut due, &mut late, &mut from_send] {
            v.sort_unstable();
        }
        // About a fifth of the operations fall due during the 200 ms stall
        // and wait up to its full length.
        let ms = 1_000_000;
        assert!(
            quantile(&due, 0.99) > 150 * ms,
            "p99 {}",
            quantile(&due, 0.99)
        );
        assert!(quantile(&late, 0.99) > 150 * ms);
        // Timing from the send would hide the stall entirely.
        assert!(quantile(&from_send, 0.99) < 20 * ms);
        assert!(quantile(&due, 0.5) < 20 * ms);
    }

    #[test]
    fn spans_cover_each_operation() {
        let system = bqs_core::quorum::ExplicitQuorumSystem::from_indices(
            3,
            [vec![0, 1], vec![1, 2], vec![0, 2]],
        )
        .unwrap();
        let clock = TimestampOracle::new();
        let transport = StallingTransport {
            n: 3,
            start: Instant::now(),
            stall: (Duration::ZERO, Duration::ZERO),
            stalled: Mutex::new(false),
            stored: Mutex::new(vec![None; 3]),
        };
        let full = ServerSet::full(3);
        prime_register(
            &system,
            &transport,
            &full,
            &clock,
            1,
            Duration::from_secs(1),
        )
        .unwrap();
        let schedule = poisson_schedule(4, 5_000.0, 0.2, 0.5, 2);
        let config = DriverConfig {
            b: 0,
            trace: true,
            capture_ops: 8,
            seed: 3,
        };
        let report = run(&system, &transport, &full, &clock, &schedule, &config);
        let t = &report.tracer;
        assert_eq!(t.count("op"), report.scheduled);
        assert_eq!(t.count("service.send_batch"), report.scheduled);
        assert_eq!(t.count("service.ts_allocate"), report.writes);
        assert_eq!(t.count("sim.resolve_read"), report.reads);
        // The root's self time is what no layer span covers: building the
        // fan-out and bookkeeping, a small share of the latency.
        let latency: u64 = report.ops.iter().map(|o| o.latency_ns).sum();
        assert!(t.self_ns("op") * 5 < latency, "{t:?}");
        assert_eq!(report.captured.len(), 16);
        assert!(report.captured.iter().all(|c| c.replies.len() == 2));
    }
}
