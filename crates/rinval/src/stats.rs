//! Critical-path phase accounting.
//!
//! Figures 2 and 3 of the paper break transaction execution time into
//! *validation* (inside reads), *commit* (lock acquisition + invalidation +
//! write-back, or waiting for the commit-server) and *other* (everything
//! else, dominated by non-transactional work). [`PhaseStats`] accumulates
//! exactly those buckets per thread; the figure harness sums them across
//! threads and normalizes, reproducing the paper's stacked bars.
//!
//! Profiling is opt-in ([`crate::StmBuilder::profile`]) because two
//! `Instant::now()` calls per read would distort throughput benchmarks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Per-thread accumulated phase times and event counts.
#[derive(Clone, Debug, Default)]
pub struct PhaseStats {
    /// Time spent validating reads (seqlock retries, NOrec read-set
    /// revalidation, invalidation-flag checks).
    pub validation: Duration,
    /// Time spent in the write path (write-set buffering, or TML/coarse
    /// lock upgrade + undo logging + in-place store). Part of the paper's
    /// "other" bucket in Fig. 2/3; broken out here so eager engines'
    /// write-side work is observable per phase like the read side.
    pub write: Duration,
    /// Time spent in the commit routine (including spinning on the global
    /// lock or on the request slot).
    pub commit: Duration,
    /// Time spent rolling back and backing off after aborts.
    pub abort: Duration,
    /// Wall time spent inside `run` (transactional + retries).
    pub total_tx: Duration,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts (a committed transaction that retried twice counts 2).
    pub aborts: u64,
    /// Transactional reads performed (including re-executions).
    pub reads: u64,
    /// Transactional writes performed (including re-executions).
    pub writes: u64,
}

impl PhaseStats {
    /// Merges another thread's stats into this one.
    pub fn merge(&mut self, other: &PhaseStats) {
        self.validation += other.validation;
        self.write += other.write;
        self.commit += other.commit;
        self.abort += other.abort;
        self.total_tx += other.total_tx;
        self.commits += other.commits;
        self.aborts += other.aborts;
        self.reads += other.reads;
        self.writes += other.writes;
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        *self = PhaseStats::default();
    }

    /// `(validation, commit, other)` fractions of a given wall-clock budget,
    /// matching the paper's Fig. 2/3 stacking. `other` absorbs write-path,
    /// abort and non-transactional time.
    pub fn breakdown(&self, wall: Duration) -> (f64, f64, f64) {
        let w = wall.as_secs_f64().max(f64::MIN_POSITIVE);
        let v = (self.validation.as_secs_f64() / w).min(1.0);
        let c = (self.commit.as_secs_f64() / w).min(1.0 - v);
        (v, c, (1.0 - v - c).max(0.0))
    }

    /// Abort-to-attempt ratio in `[0, 1)`.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.commits + self.aborts;
        if attempts == 0 {
            0.0
        } else {
            self.aborts as f64 / attempts as f64
        }
    }
}

/// A log₂ latency histogram: bucket `i` counts observations in
/// `[2^i, 2^(i+1))` nanoseconds (0 ns lands in bucket 0, everything at or
/// past 2^31 ns in bucket 31). Exactly 32 buckets (≈ 4 s cap), which is
/// also the widest array the std `Default`/`Eq` impls cover. Every record
/// is one relaxed `fetch_add`. This is the one histogram in the workspace:
/// the engine's commit latency and `svc`'s per-endpoint windows both use
/// it, and [`quantile_ns`] reads its snapshots.
#[derive(Debug, Default)]
pub struct Log2Hist([AtomicU64; 32]);

impl Log2Hist {
    /// Adds one observation of `ns` nanoseconds.
    #[inline]
    pub fn record(&self, ns: u64) {
        let bucket = (ns.max(1).ilog2() as usize).min(31);
        self.0[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// The current bucket counts.
    pub fn snapshot(&self) -> [u64; 32] {
        std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed))
    }

    /// The current bucket counts, resetting every bucket to zero.
    pub fn drain(&self) -> [u64; 32] {
        std::array::from_fn(|i| self.0[i].swap(0, Ordering::Relaxed))
    }
}

/// Bucket-wise difference of two [`Log2Hist`] snapshots (`later -
/// earlier`), for before/after windows around a measured region.
pub fn buckets_since(later: &[u64; 32], earlier: &[u64; 32]) -> [u64; 32] {
    std::array::from_fn(|i| later[i] - earlier[i])
}

/// The `q`-quantile (`0.0 ..= 1.0`) of a [`Log2Hist`] snapshot in
/// nanoseconds, as the upper edge of the bucket holding rank
/// `ceil(q·total)`; `None` when the snapshot is empty. Bucket resolution
/// makes this exact to within a factor of 2, which is what a log₂
/// histogram promises.
pub fn quantile_ns(buckets: &[u64; 32], q: f64) -> Option<u64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return Some(1u64 << (i as u32 + 1).min(63));
        }
    }
    Some(u64::MAX)
}

/// Declares a counter table once and generates everything derived from
/// it: the atomic struct, the plain snapshot struct (same field names and
/// order), `snapshot()`, `since()` and the relaxed `add` helper.
///
/// Each entry is its doc comment, its kind and its name:
/// - `sum`: an [`AtomicU64`] bumped by `add`; `since` subtracts.
/// - `max`: an [`AtomicU64`] high-water mark raised by `fetch_max`;
///   `since` keeps the later mark, since a mark has no meaningful
///   difference.
/// - `hist`: a [`Log2Hist`] snapshotting to `[u64; 32]`; `since` diffs
///   bucket by bucket.
///
/// Adding a counter is one entry. Every counter is a statistic, never
/// synchronization, so every access is relaxed.
#[macro_export]
macro_rules! counter_table {
    (@atomic hist) => { $crate::stats::Log2Hist };
    (@atomic $kind:ident) => { ::std::sync::atomic::AtomicU64 };
    (@value hist) => { [u64; 32] };
    (@value $kind:ident) => { u64 };
    (@load hist $c:expr) => { $c.snapshot() };
    (@load $kind:ident $c:expr) => { $c.load(::std::sync::atomic::Ordering::Relaxed) };
    (@since sum $later:expr, $earlier:expr) => { $later - $earlier };
    (@since max $later:expr, $earlier:expr) => { $later };
    (@since hist $later:expr, $earlier:expr) => {
        $crate::stats::buckets_since(&$later, &$earlier)
    };
    (@bump sum $c:expr, $n:expr) => { Self::add(&$c, $n) };
    (@bump max $c:expr, $n:expr) => {{
        $c.fetch_max($n, ::std::sync::atomic::Ordering::Relaxed);
    }};
    (@bump hist $c:expr, $n:expr) => { (0..$n).for_each(|_| $c.record($n)) };
    (@count hist $v:expr) => { $v.iter().sum::<u64>() };
    (@count $kind:ident $v:expr) => { $v };
    (
        $(#[$atomic_meta:meta])*
        $atomic_vis:vis struct $atomic:ident;
        $(#[$snap_meta:meta])*
        $snap_vis:vis struct $snap:ident;
        $( $(#[$meta:meta])* $kind:ident $name:ident; )*
    ) => {
        $(#[$atomic_meta])*
        #[derive(Debug, Default)]
        $atomic_vis struct $atomic {
            $( $(#[$meta])* pub $name: $crate::counter_table!(@atomic $kind), )*
        }

        $(#[$snap_meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $snap_vis struct $snap {
            $( $(#[$meta])* pub $name: $crate::counter_table!(@value $kind), )*
        }

        impl $atomic {
            /// Adds `n` to a `sum` counter (relaxed `fetch_add`).
            #[inline]
            $atomic_vis fn add(counter: &::std::sync::atomic::AtomicU64, n: u64) {
                counter.fetch_add(n, ::std::sync::atomic::Ordering::Relaxed);
            }

            /// A plain-value snapshot of the current counters.
            $atomic_vis fn snapshot(&self) -> $snap {
                $snap { $( $name: $crate::counter_table!(@load $kind self.$name), )* }
            }
        }

        impl $snap {
            /// Counter-wise difference (`self - earlier`), for before/after
            /// windows around a measured region. High-water marks report
            /// the later window's mark as-is.
            $snap_vis fn since(&self, earlier: &$snap) -> $snap {
                $snap {
                    $( $name: $crate::counter_table!(@since $kind self.$name, earlier.$name), )*
                }
            }
        }

        // Test-only access by name, so one table-driven test per table
        // covers every entry.
        #[cfg(test)]
        impl $atomic {
            /// `(name, kind)` of every entry, in table order.
            const ENTRIES: &'static [(&'static str, &'static str)] =
                &[$((stringify!($name), stringify!($kind))),*];

            /// Bumps entry `name` by `n` the way its kind is bumped:
            /// `add`, `fetch_max`, or `n` histogram records of `n` ns.
            fn bump_entry(&self, name: &str, n: u64) {
                $( if name == stringify!($name) {
                    return $crate::counter_table!(@bump $kind self.$name, n);
                } )*
                panic!("no counter named {name}");
            }
        }

        #[cfg(test)]
        impl $snap {
            /// Entry `name`'s value (a histogram's observation count).
            fn entry(&self, name: &str) -> u64 {
                $( if name == stringify!($name) {
                    return $crate::counter_table!(@count $kind self.$name);
                } )*
                panic!("no counter named {name}");
            }
        }
    };
}

counter_table! {
    /// Shared scan/batch counters for one [`crate::Stm`], one table entry
    /// each. Every entry is a plain relaxed `fetch_add`/`fetch_max` —
    /// cheap enough to stay on unconditionally.
    ///
    /// These make the summary-bitmap optimization *observable*: a full
    /// registry walk would examine `registry.len()` slots per pass, while
    /// the bitmap scans examine only the set bits.
    ///
    /// Writers: these are *not* server-owned cache lines. The struct is one
    /// unpadded block that servers and clients both write. The server
    /// threads bump most entries. Client threads bump these on their own
    /// paths:
    /// - `backpressure_delays` and `streak_high_water` (begin and abort);
    /// - `timed_out_requests`, `timeout_withdrawals` and
    ///   `withdrawn_requests` (deadline and withdrawal);
    /// - `ro_snapshot_commits`, `ring_misses` and `ro_promotions` (the
    ///   multi-version snapshot path);
    /// - `commit_latency` (when enabled) and, under the seqlock engines,
    ///   `irrevocable_grants`.
    ///
    /// InvalSTM committers run the invalidation scan inline, so under
    /// InvalSTM the scan, doom, domain and refusal entries are
    /// client-written too.
    pub struct ServerCounters;

    /// Point-in-time snapshot of [`ServerCounters`]; see
    /// [`crate::Stm::server_stats`].
    pub struct ServerStats;

    /// Commit-server passes over the `pending` summary map.
    sum scan_passes;
    /// Commit-server passes that found no request to process.
    sum empty_passes;
    /// Slots actually examined by commit-server passes (set `pending` bits).
    sum slots_visited;
    /// Invalidation scans over the `live` summary map.
    sum inval_scans;
    /// Slots actually examined by invalidation and census scans (set
    /// `live` bits).
    sum inval_slots_visited;
    /// Commit-admission census walks over the `live` summary map
    /// (DESIGN.md §13). Counted apart from `inval_scans` so
    /// `inval_words_scanned / inval_scans` stays an exact per-scan word
    /// footprint — a census walk dooms nothing, its word traffic lands in
    /// `census_words_scanned`, and how often aging arms it depends on
    /// contention timing.
    sum census_scans;
    /// Summary-bitmap words examined by census walks — the census-side
    /// twin of `inval_words_scanned`, recorded by the shared scan kernel
    /// (`scan.rs`) so all scan sites account word traffic identically.
    sum census_words_scanned;
    /// Commit batches processed by the commit-server (each batch = one
    /// timestamp bump; always one request under V2/V3/MV).
    sum batches;
    /// Commit requests answered through batches (`batched_requests /
    /// batches` = mean batch size).
    sum batched_requests;
    /// Watchdog intervals in which a server with outstanding work made no
    /// heartbeat progress.
    sum heartbeat_misses;
    /// Dead server threads respawned by the watchdog.
    sum respawns;
    /// Times the instance degraded from a remote engine to InvalSTM.
    sum degradations;
    /// Client commit requests that hit a [`crate::TxError::Timeout`]
    /// deadline while waiting for a server verdict.
    sum timed_out_requests;
    /// Bounded runs cut short by their deadline: up-front fast-fails of
    /// [`crate::ThreadHandle::try_run_for`] with an already-expired
    /// deadline (no attempt runs, no backpressure gate entered) plus
    /// posted commit requests a client retracted when its deadline
    /// expired mid-wait.
    sum timeout_withdrawals;
    /// Posted requests withdrawn by clients (deadline, degradation or
    /// handle teardown) before a server claimed them.
    sum withdrawn_requests;
    /// Outstanding requests answered with an abort verdict by shutdown or
    /// crash-recovery drains rather than by normal server processing.
    sum drained_requests;
    /// Live transactions doomed by admitted commits (every invalidation
    /// path). `txs_doomed / commits` is the doom rate the backpressure
    /// gate watches.
    sum txs_doomed;
    /// Commits refused because a conflicting live transaction preceded
    /// the committer in the starvation order (DESIGN.md §13); each refusal
    /// raised the committer's inherited priority.
    sum priority_refusals;
    /// Irrevocable-token grants (server- or seqlock-side).
    sum irrevocable_grants;
    /// Begins delayed by the overload admission gate.
    sum backpressure_delays;
    /// Highest abort streak any transaction reached (`fetch_max`, so the
    /// mark survives the streak's own reset on commit).
    max streak_high_water;
    /// Read-only transactions committed straight off their begin snapshot
    /// (multi-version engines; no validation, no server round-trip).
    sum ro_snapshot_commits;
    /// Snapshot reads that found the version ring overwritten past the
    /// snapshot and fell back to revalidation.
    sum ring_misses;
    /// Snapshot transactions promoted to the full write protocol on their
    /// first write.
    sum ro_promotions;
    /// Write commits whose write/free set stayed inside the committer's
    /// home topology domain (always every commit with a single domain).
    sum local_commits;
    /// Write commits that touched words outside the committer's home
    /// domain (0 with a single domain).
    sum cross_domain_commits;
    /// Live transactions doomed by a committer homed in a *different*
    /// domain — the interconnect traffic domain sharding exists to shrink.
    sum cross_domain_invalidations;
    /// Summary-bitmap words examined by invalidation scans. Under domain
    /// sharding each server walks only its served domains' words, so
    /// `inval_words_scanned / inval_scans` drops with the domain count
    /// (the `bench/benches/topology.rs` gate).
    sum inval_words_scanned;
    /// log₂ commit-latency histogram: bucket `i` counts commits whose
    /// attempt latency fell in `[2^i, 2^(i+1))` nanoseconds. Recording is
    /// opt-in ([`crate::StmBuilder::latency_histogram`]) — it costs two
    /// `Instant::now()` calls per commit. Exactly 32 buckets (≈ 4 s cap),
    /// which is also the widest array the std `Default`/`Eq` impls cover.
    hist commit_latency;
}

impl ServerCounters {
    /// Raises a `max` counter to at least `n` (relaxed `fetch_max`).
    #[inline]
    pub(crate) fn raise(counter: &AtomicU64, n: u64) {
        counter.fetch_max(n, Ordering::Relaxed);
    }
}

impl ServerStats {
    /// Slots a full-registry commit-server walk would have examined for
    /// the same number of passes.
    pub fn full_scan_equivalent(&self, registry_len: usize) -> u64 {
        self.scan_passes * registry_len as u64
    }

    /// Slots a full-registry invalidation walk would have examined.
    pub fn full_inval_equivalent(&self, registry_len: usize) -> u64 {
        self.inval_scans * registry_len as u64
    }

    /// Mean slots examined per commit-server pass.
    pub fn visited_per_pass(&self) -> f64 {
        if self.scan_passes == 0 {
            0.0
        } else {
            self.slots_visited as f64 / self.scan_passes as f64
        }
    }

    /// Mean summary-bitmap words examined per invalidation scan — the
    /// per-pass scan footprint the domain-sharded registry shrinks.
    pub fn words_per_inval_scan(&self) -> f64 {
        if self.inval_scans == 0 {
            0.0
        } else {
            self.inval_words_scanned as f64 / self.inval_scans as f64
        }
    }

    /// Mean summary-bitmap words examined per census walk — same footprint
    /// metric as [`ServerStats::words_per_inval_scan`], for the census
    /// flavour of the kernel scan.
    pub fn words_per_census_scan(&self) -> f64 {
        if self.census_scans == 0 {
            0.0
        } else {
            self.census_words_scanned as f64 / self.census_scans as f64
        }
    }

    /// Mean commit batch size (1.0 when every bump served a single
    /// request, as always under V2/V3/MV).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }

    /// True once the instance has degraded off its nominal algorithm — the
    /// soak job's health assertion.
    pub fn degraded(&self) -> bool {
        self.degradations != 0
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of the commit-latency histogram in
    /// nanoseconds, as the upper edge of the bucket containing it; `None`
    /// when no latencies were recorded (see [`quantile_ns`]).
    pub fn latency_quantile_ns(&self, q: f64) -> Option<u64> {
        quantile_ns(&self.commit_latency, q)
    }

    /// True when any recovery-path counter is nonzero — a quick flag for
    /// run reports ("did this run exercise the fault machinery at all?").
    /// `heartbeat_misses` is deliberately excluded: sub-threshold silent
    /// polls of a busy seat are ordinary scheduling noise (ubiquitous on
    /// oversubscribed hosts) and repaired nothing.
    pub fn any_recovery_activity(&self) -> bool {
        self.respawns != 0
            || self.degradations != 0
            || self.timed_out_requests != 0
            || self.timeout_withdrawals != 0
            || self.withdrawn_requests != 0
            || self.drained_requests != 0
    }
}

/// A started phase timer; see [`Probe::start`].
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    at: Option<Instant>,
}

impl Probe {
    /// Starts timing if `enabled`, otherwise is free.
    #[inline]
    pub fn start(enabled: bool) -> Probe {
        Probe {
            at: if enabled { Some(Instant::now()) } else { None },
        }
    }

    /// Stops the timer, adding the elapsed time to `bucket`.
    #[inline]
    pub fn stop(self, bucket: &mut Duration) {
        if let Some(at) = self.at {
            *bucket += at.elapsed();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero() {
        let s = PhaseStats::default();
        assert_eq!(s.commits, 0);
        assert_eq!(s.validation, Duration::ZERO);
        assert_eq!(s.abort_rate(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = PhaseStats {
            commits: 3,
            aborts: 1,
            validation: Duration::from_millis(5),
            ..Default::default()
        };
        let b = PhaseStats {
            commits: 2,
            aborts: 2,
            validation: Duration::from_millis(7),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.commits, 5);
        assert_eq!(a.aborts, 3);
        assert_eq!(a.validation, Duration::from_millis(12));
    }

    #[test]
    fn merge_accumulates_write_bucket() {
        let mut a = PhaseStats {
            write: Duration::from_millis(3),
            ..Default::default()
        };
        a.merge(&PhaseStats {
            write: Duration::from_millis(4),
            ..Default::default()
        });
        assert_eq!(a.write, Duration::from_millis(7));
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let s = PhaseStats {
            validation: Duration::from_millis(250),
            commit: Duration::from_millis(250),
            ..Default::default()
        };
        let (v, c, o) = s.breakdown(Duration::from_secs(1));
        assert!((v - 0.25).abs() < 1e-9);
        assert!((c - 0.25).abs() < 1e-9);
        assert!((v + c + o - 1.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_clamps_overreported_time() {
        // Phase timers can overlap wall time slightly under oversubscription;
        // fractions must stay in range regardless.
        let s = PhaseStats {
            validation: Duration::from_secs(2),
            commit: Duration::from_secs(2),
            ..Default::default()
        };
        let (v, c, o) = s.breakdown(Duration::from_secs(1));
        assert!(v <= 1.0 && c <= 1.0 && o >= 0.0);
        assert!((v + c + o - 1.0).abs() < 1e-9);
    }

    #[test]
    fn abort_rate_computed() {
        let s = PhaseStats {
            commits: 3,
            aborts: 1,
            ..Default::default()
        };
        assert!((s.abort_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn disabled_probe_is_free_and_adds_nothing() {
        let mut bucket = Duration::ZERO;
        Probe::start(false).stop(&mut bucket);
        assert_eq!(bucket, Duration::ZERO);
    }

    #[test]
    fn enabled_probe_accumulates_time() {
        let mut bucket = Duration::ZERO;
        let p = Probe::start(true);
        std::thread::sleep(Duration::from_millis(2));
        p.stop(&mut bucket);
        assert!(bucket >= Duration::from_millis(1));
    }

    #[test]
    fn counter_table_snapshots_and_diffs_every_entry() {
        let c = ServerCounters::default();
        // A distinct amount per entry, so two crossed entries would show.
        // The second bump lowers nothing: a `max` entry is raised by less
        // than its mark, so the mark must carry over into `since`.
        let first = |i: usize| 10 + i as u64;
        let second = |i: usize, kind: &str| if kind == "max" { 1 } else { 100 + i as u64 };
        for (i, &(name, _)) in ServerCounters::ENTRIES.iter().enumerate() {
            c.bump_entry(name, first(i));
        }
        let s = c.snapshot();
        for (i, &(name, kind)) in ServerCounters::ENTRIES.iter().enumerate() {
            assert_eq!(s.entry(name), first(i), "{name}: snapshot");
            c.bump_entry(name, second(i, kind));
        }
        let d = c.snapshot().since(&s);
        for (i, &(name, kind)) in ServerCounters::ENTRIES.iter().enumerate() {
            let want = if kind == "max" {
                first(i)
            } else {
                second(i, kind)
            };
            assert_eq!(d.entry(name), want, "{name}: since");
        }
        assert_eq!(ServerCounters::ENTRIES.len(), 29);
    }

    #[test]
    fn derived_metrics() {
        let c = ServerCounters::default();
        ServerCounters::add(&c.scan_passes, 10);
        ServerCounters::add(&c.slots_visited, 25);
        ServerCounters::add(&c.batches, 2);
        ServerCounters::add(&c.batched_requests, 6);
        ServerCounters::add(&c.inval_scans, 4);
        ServerCounters::add(&c.inval_words_scanned, 8);
        ServerCounters::add(&c.census_scans, 4);
        ServerCounters::add(&c.census_words_scanned, 10);
        let s = c.snapshot();
        assert_eq!(s.full_scan_equivalent(128), 1280);
        assert_eq!(s.full_inval_equivalent(128), 512);
        assert!((s.visited_per_pass() - 2.5).abs() < 1e-12);
        assert!((s.mean_batch_size() - 3.0).abs() < 1e-12);
        assert!((s.words_per_inval_scan() - 2.0).abs() < 1e-12);
        assert!((s.words_per_census_scan() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn server_stats_zero_divisions_are_safe() {
        let s = ServerStats::default();
        assert_eq!(s.visited_per_pass(), 0.0);
        assert_eq!(s.mean_batch_size(), 0.0);
        assert_eq!(s.words_per_inval_scan(), 0.0);
        assert_eq!(s.words_per_census_scan(), 0.0);
    }

    #[test]
    fn latency_histogram_buckets_and_quantiles() {
        let c = ServerCounters::default();
        assert_eq!(c.snapshot().latency_quantile_ns(0.5), None);
        // 0/1 ns land in bucket 0; 1000 ns in bucket 9; huge values clamp
        // into the last bucket.
        c.commit_latency.record(0);
        c.commit_latency.record(1);
        c.commit_latency.record(1000);
        c.commit_latency.record(u64::MAX);
        let s = c.snapshot();
        assert_eq!(s.commit_latency[0], 2);
        assert_eq!(s.commit_latency[9], 1);
        assert_eq!(s.commit_latency[31], 1);
        assert_eq!(s.commit_latency.iter().sum::<u64>(), 4);
        // p50 of {~1, ~1, ~1024, ~big} is the second observation's bucket.
        assert_eq!(s.latency_quantile_ns(0.5), Some(2));
        assert_eq!(s.latency_quantile_ns(0.99), Some(1u64 << 32));
        assert_eq!(s.latency_quantile_ns(0.0), Some(2));
        // `since` diffs bucket by bucket.
        c.commit_latency.record(1000);
        let d = c.snapshot().since(&s);
        assert_eq!(d.commit_latency[9], 1);
        assert_eq!(d.commit_latency.iter().sum::<u64>(), 1);
        assert_eq!(d.latency_quantile_ns(0.5), Some(1024));
        // Draining hands over the counts and leaves the buckets empty.
        let held = c.commit_latency.snapshot();
        assert_eq!(c.commit_latency.drain(), held);
        assert_eq!(quantile_ns(&c.commit_latency.snapshot(), 0.5), None);
    }

    #[test]
    fn health_flags() {
        let c = ServerCounters::default();
        assert!(!c.snapshot().degraded());
        assert!(!c.snapshot().any_recovery_activity());
        // Sub-threshold heartbeat misses alone are scheduling noise, not
        // recovery activity.
        ServerCounters::add(&c.heartbeat_misses, 7);
        assert!(!c.snapshot().any_recovery_activity());
        ServerCounters::add(&c.degradations, 1);
        assert!(c.snapshot().degraded());
        assert!(c.snapshot().any_recovery_activity());
        // Each other recovery counter alone is recovery activity; a
        // deadline fast-fail counts (a bounded-wait escape fired).
        for name in [
            "respawns",
            "timed_out_requests",
            "timeout_withdrawals",
            "withdrawn_requests",
            "drained_requests",
        ] {
            let t = ServerCounters::default();
            t.bump_entry(name, 1);
            assert!(t.snapshot().any_recovery_activity());
            assert!(!t.snapshot().degraded());
        }
    }
}
