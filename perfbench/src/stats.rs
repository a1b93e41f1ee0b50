//! Order statistics, process CPU time, and how measurements are repeated.

use std::time::{Duration, Instant};

/// Nearest-rank `q`-quantile of an ascending slice (0 for an empty one).
#[must_use]
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values` (the mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Runs `setup` `count` times, starting one every `spread / count`, and
/// returns each set-up's wall seconds with the last one's result. The
/// reference host switches between speed states about 1.5x apart every few
/// seconds (other guests on the same cores), so set-ups timed back to back
/// all land in one state; spread over seconds, their median follows the
/// state the host spends most of that time in.
///
/// # Errors
///
/// The first error `setup` returns.
pub fn spaced_setups<T, E>(
    count: usize,
    spread: Duration,
    mut setup: impl FnMut(usize) -> Result<T, E>,
) -> Result<(Vec<f64>, T), E> {
    assert!(count > 0, "at least one set-up");
    let interval = spread / count as u32;
    let first = Instant::now();
    let mut times = Vec::with_capacity(count);
    let mut last = None;
    for i in 0..count {
        let due = first + interval * i as u32;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let started = Instant::now();
        let built = setup(i)?;
        times.push(started.elapsed().as_secs_f64());
        // The previous result is dropped here, outside the timed span.
        last = Some(built);
    }
    Ok((times, last.expect("count > 0")))
}

/// Clock ticks per second of `/proc/<pid>/stat` CPU fields (Linux exports
/// them in `USER_HZ`, which is 100 on every architecture it supports).
const USER_HZ: f64 = 100.0;

/// CPU time the whole process (every thread, live or exited) has used, and
/// the machine's CPU accounting beside it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTime {
    /// User-mode seconds.
    pub user_s: f64,
    /// Kernel-mode seconds.
    pub sys_s: f64,
    /// Seconds the hypervisor ran other guests while this machine's CPUs
    /// wanted to run, summed over the CPUs (`steal` in `/proc/stat`).
    pub steal_s: f64,
    /// All seconds the machine's CPUs accounted, summed over the CPUs.
    pub machine_s: f64,
}

impl CpuTime {
    /// Reads the process's CPU time from `/proc/self/stat` and the machine's
    /// from `/proc/stat`.
    ///
    /// # Panics
    ///
    /// Panics when either file is missing or malformed (the benchmark runs
    /// on Linux only).
    #[must_use]
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
        // The command name may contain spaces; fields resume after its ')'.
        let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
        let ticks = |field: usize| -> f64 {
            fields[field - 3].parse::<u64>().expect("numeric CPU field") as f64
        };
        let machine = std::fs::read_to_string("/proc/stat").expect("reading /proc/stat");
        // "cpu  user nice system idle iowait irq softirq steal guest guest_nice";
        // guest time is already inside user.
        let all: Vec<f64> = machine
            .lines()
            .next()
            .expect("/proc/stat has a cpu line")
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|t| t.parse::<u64>().expect("numeric CPU field") as f64 / USER_HZ)
            .collect();
        CpuTime {
            user_s: ticks(14) / USER_HZ,
            sys_s: ticks(15) / USER_HZ,
            steal_s: all.get(7).copied().unwrap_or(0.0),
            machine_s: all.iter().sum(),
        }
    }

    /// CPU used since `earlier`.
    #[must_use]
    pub fn since(self, earlier: CpuTime) -> CpuTime {
        CpuTime {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            steal_s: self.steal_s - earlier.steal_s,
            machine_s: self.machine_s - earlier.machine_s,
        }
    }

    /// Share of the machine's CPU time stolen by other guests (0 when no
    /// time passed).
    #[must_use]
    pub fn steal_share(self) -> f64 {
        if self.machine_s > 0.0 {
            self.steal_s / self.machine_s
        } else {
            0.0
        }
    }

    /// User plus kernel seconds.
    #[must_use]
    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Most measurements one run makes while other guests keep taking the
/// machine's CPUs.
pub const MAX_ATTEMPTS: usize = 4;
/// Steal share up to which a measurement counts as undisturbed. On the 2-vCPU
/// reference host, runs below it kept the register workloads' median latency
/// within about 10 % of each other; episodes of 20-30 % steal lasting a minute
/// or more tripled it and pushed the register workloads into backlog.
pub const STEAL_LIMIT: f64 = 0.03;

/// Repeats `measure` (the same inputs each time) until an attempt's steal
/// share is at most [`STEAL_LIMIT`] or [`MAX_ATTEMPTS`] attempts were made.
/// Returns every attempt, for the accounting and checks, and the index of the
/// least-stolen one, whose figures the run reports.
pub fn least_stolen<T>(
    mut measure: impl FnMut() -> T,
    cpu: impl Fn(&T) -> CpuTime,
) -> (Vec<T>, usize) {
    let mut attempts = Vec::with_capacity(MAX_ATTEMPTS);
    loop {
        attempts.push(measure());
        let steal = |i: usize| cpu(&attempts[i]).steal_share();
        let best = (0..attempts.len())
            .min_by(|&a, &b| steal(a).total_cmp(&steal(b)))
            .expect("at least one attempt");
        if steal(best) <= STEAL_LIMIT || attempts.len() == MAX_ATTEMPTS {
            return (attempts, best);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stolen(share: f64) -> CpuTime {
        CpuTime {
            steal_s: share,
            machine_s: 1.0,
            ..CpuTime::default()
        }
    }

    #[test]
    fn least_stolen_stops_at_the_first_quiet_attempt() {
        let shares = [0.2, 0.01, 0.0];
        let mut next = shares.iter();
        let (attempts, best) = least_stolen(|| *next.next().unwrap(), |&s| stolen(s));
        assert_eq!(attempts, vec![0.2, 0.01]);
        assert_eq!(best, 1);
    }

    #[test]
    fn least_stolen_gives_up_after_max_attempts() {
        let shares = [0.3, 0.1, 0.2, 0.15, 0.0];
        let mut next = shares.iter();
        let (attempts, best) = least_stolen(|| *next.next().unwrap(), |&s| stolen(s));
        assert_eq!(attempts.len(), MAX_ATTEMPTS);
        assert_eq!(best, 1);
    }

    #[test]
    fn spaced_setups_spread_over_the_interval() {
        let started = Instant::now();
        let (times, last) = spaced_setups(5, Duration::from_millis(100), Ok::<_, ()>).unwrap();
        assert_eq!(times.len(), 5);
        assert_eq!(last, 4);
        // The last set-up starts four fifths of the way through.
        assert!(started.elapsed() >= Duration::from_millis(80));
        let failed = spaced_setups(3, Duration::ZERO, |i| if i == 1 { Err(i) } else { Ok(i) });
        assert_eq!(failed.unwrap_err(), 1);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn cpu_time_counts_a_busy_loop() {
        let before = CpuTime::now();
        let started = std::time::Instant::now();
        let mut x = 0u64;
        while started.elapsed() < std::time::Duration::from_millis(100) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
        }
        // Process-wide time: tests running in parallel only add to it.
        assert!(CpuTime::now().since(before).total_s() >= 0.05);
    }
}
