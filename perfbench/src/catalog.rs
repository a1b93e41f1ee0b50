//! The benchmark's metadata: why each workload exists, what each metric
//! means, and — for each per-layer metric — which end-to-end metric it
//! should move and on which workload. `BENCHMARK.json` lists the same names,
//! units and bounds (a test below keeps the two in step), and every run
//! prints its workload's entry.

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// What runs.
    pub what: &'static str,
    /// Why it is in the benchmark.
    pub why: &'static str,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "read-uds",
        what: "Grid(5,1), n=25, b=1, certified strategy (L=0.68); 90% reads, no faults; \
               2 shards behind SocketServer over a Unix-domain socket, 2 pooled connections; \
               open loop at 5k ops/s from 2 driver threads after a 6 s warm-up",
        why: "every operation crosses the socket path (codec, syscalls, server threads, slot \
              table, shard mailboxes), so net does most of the work; reads exercise resolve_read",
    },
    Workload {
        name: "write-byz-loopback",
        what: "M-Grid(5,2), n=25, b=2, certified strategy (L=0.64); 80% writes; one \
               FabricateHighTimestamp server and one crashed server drawn from the seed; \
               2 shards of the in-process LoopbackService; open loop at 20k ops/s from 2 driver \
               threads after a 1 s warm-up",
        why: "bypasses net (a net-only change must not move it); puts writes and the timestamp \
              oracle beside reads, masking of a fabricator, and the live-quorum fallback a crash \
              forces",
    },
    Workload {
        name: "design-query",
        what: "repeated query: certify L(Q) through the pricing oracle for the Section 8 roster \
               at n~1024 (b=15) and for Grid(5,1) and M-Grid(5,2) (each has a symmetric strategy \
               hint, certified without a master solve); re-certify the M-Grid pool over the \
               survivors of the seed's crash by column generation; sweep a 12-point seed-drawn \
               p-grid through Evaluator::sweep_systems; M-Path(5,2) transfer-matrix DP; 10 exact \
               enumerations at n=25 cross-checking the Grid and M-Grid closed forms; \
               Evaluator::new() on all cores",
        why: "exercises lp, core::load, core::eval, constructions and graph and none of the \
              service path, so service changes must not move it",
    },
];

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit in the result line.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen (end-to-end only).
    pub bound: Option<f64>,
    /// How it is measured.
    pub source: &'static str,
    /// Which end-to-end metric it should move, and where (per-layer only).
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, source: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound: Some(bound),
        source,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        source,
        moves,
    }
}

/// End-to-end metrics, reported by untraced runs of every workload. On the
/// register workloads an operation is one read or write; on `design-query`
/// it is one whole design query.
///
/// The reference host is a 2-vCPU guest whose CPUs other guests take for
/// minutes at a time (20-30 % steal), which triples latency while it lasts.
/// A run therefore measures the same inputs up to four times and reports the
/// least-stolen attempt, stopping at the first whose steal share is at most
/// 3 % (`stats::least_stolen`; every attempt still counts in `attempted`,
/// `failed` and the checks, and the meta line lists each attempt's share).
/// Within the reported attempt, `op_p50_us` leaves out the 100 ms windows
/// that lost CPU ticks to steal.
///
/// There is no tail-latency metric here: on that host the register
/// workloads' p90 and p99 varied by 15 % to 100 % (quartile spread over
/// median) between runs of one build, wider than any bound a regression gate
/// can use. `op_p99_us` is reported per layer instead.
pub const END_TO_END: [Metric; 3] = [
    e2e(
        "setup_s",
        "s",
        0.25,
        "median of the run's set-ups (51 per register run started evenly over 2 s, 21 per \
         design-query run over 3 s): service spawn/bind/connect, strategy certification and \
         register priming; for design-query, \
         building the systems",
    ),
    e2e(
        "op_p50_us",
        "us",
        0.25,
        "register workloads: median over 100 ms windows (by due time) of each window's median \
         time from when an operation was due to its completion, taken over the windows in \
         which other guests stole no CPU tick (at least the least-stolen quarter of them); \
         design-query: median wall time per query",
    ),
    e2e(
        "cpu_us_per_op",
        "us",
        0.25,
        "process user+sys CPU (/proc/self/stat) over the measured window per completed \
         operation (design-query: per query)",
    ),
];

/// Per-layer metrics, reported by traced runs. A layer a workload does not
/// run reports 0.
pub const PER_LAYER: [Metric; 29] = [
    layer(
        "op_p99_us",
        "us",
        "lower",
        "99th percentile of due-to-done latency over the untraced half (design-query: \
         nearest-rank p99 of its query times)",
        "the tail users see; moved by service.reply_wait_ns, driver.late_p99_us and \
         core.load_excess",
    ),
    layer(
        "sim.choose_quorum_ns",
        "ns",
        "lower",
        "choose_access_quorum span self time per operation",
        "cpu_us_per_op, op_p50_us; heavy on write-byz-loopback (crash forces the fallback \
         scan), light on read-uds",
    ),
    layer(
        "sim.resolve_read_ns",
        "ns",
        "lower",
        "resolve_read span self time per read",
        "op_p50_us on read-uds (90% reads); small on write-byz-loopback",
    ),
    layer(
        "sim.quorum_size",
        "count",
        "lower",
        "servers per fan-out",
        "cpu_us_per_op on both register workloads",
    ),
    layer(
        "service.ts_allocate_ns",
        "ns",
        "lower",
        "TimestampOracle::allocate span self time per write",
        "op_p50_us, cpu_us_per_op on write-byz-loopback; near-absent on read-uds",
    ),
    layer(
        "service.send_batch_ns",
        "ns",
        "lower",
        "Transport::send_batch span per operation (encode + syscall on sockets, shard push on \
         loopback)",
        "cpu_us_per_op, op_p50_us; dominant on read-uds",
    ),
    layer(
        "service.reply_wait_ns",
        "ns",
        "lower",
        "from send_batch return until the last needed reply is taken from the drained batch",
        "op_p50_us and the op_p99_us tail on both register workloads",
    ),
    layer(
        "service.replies_per_drain",
        "count",
        "higher",
        "replies per ReplyMailbox::drain_timeout wake",
        "cpu_us_per_op on both register workloads",
    ),
    layer(
        "core.load_excess",
        "ratio",
        "lower",
        "busiest server's share of operations (server-side ServiceMetrics::access_counts) over \
         the certified L(Q)",
        "op_p50_us and the op_p99_us tail; about 1.39 on write-byz-loopback, 1.0 on read-uds",
    ),
    layer(
        "net.req_bytes_per_op",
        "bytes",
        "lower",
        "captured fan-outs encoded with encode_request_batch, one batch per operation",
        "cpu_us_per_op on read-uds; unchanged on write-byz-loopback and design-query",
    ),
    layer(
        "net.encode_ns_per_msg",
        "ns",
        "lower",
        "captured requests and replies through encode_request_batch/encode_reply_batch",
        "cpu_us_per_op on read-uds; unchanged on write-byz-loopback and design-query",
    ),
    layer(
        "net.decode_ns_per_msg",
        "ns",
        "lower",
        "the encoded capture decoded by FrameReader",
        "cpu_us_per_op on read-uds; unchanged on write-byz-loopback and design-query",
    ),
    layer(
        "net.deadline_expiries",
        "count",
        "lower",
        "SocketTransport::stats().deadline_expiries",
        "failed ratio (result's failed/attempted) on read-uds",
    ),
    layer(
        "net.reconnects",
        "count",
        "lower",
        "SocketTransport::stats().reconnects",
        "failed ratio (result's failed/attempted) on read-uds",
    ),
    layer(
        "proc.user_us_per_op",
        "us",
        "lower",
        "/proc/self/stat user time per operation, untraced half",
        "cpu_us_per_op on every workload",
    ),
    layer(
        "proc.sys_us_per_op",
        "us",
        "lower",
        "/proc/self/stat system time per operation, untraced half",
        "cpu_us_per_op; high share on read-uds, low on loopback",
    ),
    layer(
        "host.steal_share",
        "ratio",
        "lower",
        "share of the machine's CPU time (/proc/stat) the hypervisor gave to other guests \
         during the untraced half",
        "none: a run with a high share measured a slower machine, which explains outliers of \
         op_p50_us and cpu_us_per_op on every workload",
    ),
    layer(
        "driver.late_p50_us",
        "us",
        "lower",
        "send time minus due time, median, untraced half (the driver's timed waits run with \
         1 ns timer slack)",
        "op_p50_us on both register workloads",
    ),
    layer(
        "driver.late_p99_us",
        "us",
        "lower",
        "send time minus due time, 99th percentile, untraced half",
        "the op_p99_us tail on both register workloads",
    ),
    layer(
        "driver.unattributed_ns",
        "ns",
        "lower",
        "due-to-done time no span covers (root self time), per operation; the run fails if it \
         exceeds 5% of the traced latency",
        "coverage check on every workload",
    ),
    layer(
        "driver.failed_ratio",
        "ratio",
        "lower",
        "(shed + timed out + refused + no live quorum + fenced + inconclusive reads) / scheduled",
        "the result's failed/attempted on both register workloads",
    ),
    layer(
        "lp.certify_s",
        "s",
        "lower",
        "optimal_load_oracle span self time (design-query: per query over all systems; register \
         workloads: median over set-ups)",
        "op_p50_us on design-query, setup_s on register workloads",
    ),
    layer(
        "lp.cg_rounds",
        "count",
        "lower",
        "CertifiedLoad::rounds: master solves of column generation, summed over a design \
         query's certifications (only the survivor pool runs the loop; the hinted \
         constructions certify in 0 rounds); register workloads: the set-up's certification",
        "op_p50_us on design-query, setup_s on register workloads",
    ),
    layer(
        "lp.cg_columns",
        "count",
        "lower",
        "CertifiedLoad::columns, summed over a design query's certifications (the hinted \
         constructions contribute their hint's quorums); register workloads: the set-up's \
         certification",
        "op_p50_us on design-query, setup_s on register workloads",
    ),
    layer(
        "lp.survivor_certify_s",
        "s",
        "lower",
        "optimal_load_oracle_for_survivors span self time per query",
        "op_p50_us on design-query",
    ),
    layer(
        "eval.closed_form_s",
        "s",
        "lower",
        "Evaluator::sweep_systems span self time per query",
        "op_p50_us on design-query",
    ),
    layer(
        "eval.dp_s",
        "s",
        "lower",
        "Evaluator::sweep of M-Path(5,2) (transfer-matrix DP) span self time per query",
        "op_p50_us on design-query",
    ),
    layer(
        "eval.exact_s",
        "s",
        "lower",
        "Evaluator::exact span self time per query",
        "op_p50_us, cpu_us_per_op on design-query",
    ),
    layer(
        "trace.overhead_cpu_us_per_op",
        "us",
        "lower",
        "traced half's CPU per operation minus the untraced half's",
        "none: the cost of tracing itself, on every workload",
    ),
];

/// The workload named `name`.
#[must_use]
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root, as text.
    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark")
    }

    #[test]
    fn benchmark_json_lists_the_catalog() {
        let json = benchmark_json();
        for w in &WORKLOADS {
            let entry = format!(r#"{{"name": "{}", "why": "{}"}}"#, w.name, w.why);
            assert!(json.contains(&entry), "missing workload entry {entry}");
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        for m in &END_TO_END {
            let entry = format!(
                r#"{{"name": "{}", "unit": "{}", "better": "{}", "bound": {}}}"#,
                m.name,
                m.unit,
                m.better,
                m.bound.expect("end-to-end metrics have bounds")
            );
            assert!(json.contains(&entry), "missing end-to-end entry {entry}");
        }
        for m in &PER_LAYER {
            let entry = format!(
                r#"{{"name": "{}", "unit": "{}", "better": "{}"}}"#,
                m.name, m.unit, m.better
            );
            assert!(json.contains(&entry), "missing per-layer entry {entry}");
        }
        let entries = json.matches(r#""name": "#).count();
        assert_eq!(
            entries,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate name");
        for n in names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.bound == Some(0.25)));
        assert!(END_TO_END.iter().all(|m| m.bound.unwrap() <= 0.25));
    }
}
