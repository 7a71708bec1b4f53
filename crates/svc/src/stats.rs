//! Service-layer telemetry: lifecycle counters and per-endpoint windowed
//! log₂ latency histograms.
//!
//! Both come from the engine's telemetry: the counters are one
//! [`rinval::counter_table!`] table, and the histogram *is*
//! [`rinval::stats::Log2Hist`] (bucket `i` counts observations in
//! `[2^i, 2^(i+1))` ns; [`rinval::stats::quantile_ns`] reports a bucket's
//! upper edge). [`WindowHist`] adds only a *rotating window*: every
//! `window` observations the current buckets are drained and their
//! p50/p99 cached, so the admission gate reads a recent signal with one
//! relaxed load instead of walking 32 buckets per request. A cached breach
//! goes *stale* after a TTL — once shedding stops the flow of fresh write
//! latencies, the stale signal must not shed forever, so probe writes are
//! re-admitted to re-measure (DESIGN.md §17).

use rinval::stats::{quantile_ns, Log2Hist};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

rinval::counter_table! {
    /// Lifecycle counters for one service instance. Field order follows a
    /// request's path: admission, execution, reply.
    pub(crate) struct Counters;

    /// Point-in-time snapshot of the service lifecycle counters
    /// ([`crate::Frontend::stats`]).
    pub struct SvcStats;

    /// Requests admitted into a mailbox.
    sum accepted;
    /// Requests rejected at the door because the target mailbox was full.
    sum rejected_full;
    /// Requests rejected by an armed `svc.enqueue` `fail` failpoint.
    sum enqueue_faults;
    /// Requests accepted-then-lost by an armed `svc.enqueue` `exit`
    /// failpoint (the client observes a timeout).
    sum enqueue_drops;
    /// Write requests shed by the admission gate (SLO breach or
    /// backpressure) — answered `RetryAfter` without entering the STM.
    sum shed_writes;
    /// Requests whose deadline had already passed at dequeue — answered
    /// `Timeout` without entering the STM.
    sum expired_on_dequeue;
    /// Write requests that ran a transaction (fresh applies + dedup hits).
    sum executed_writes;
    /// Read requests served (always via `run_ro`).
    sum executed_reads;
    /// Retried idempotency keys answered from the dedup window instead of
    /// re-applying — the exactly-once mechanism firing.
    sum dedup_hits;
    /// Duplicates older than the whole dedup window (answered with
    /// [`crate::STALE_DUPLICATE`]).
    sum stale_duplicates;
    /// Write transactions that hit their deadline inside
    /// `try_run_for` (answered `Timeout`).
    sum exec_timeouts;
    /// Client-side waits that hit the deadline before any reply.
    sum client_timeouts;
    /// Worker replies delivered after the client abandoned the slot
    /// (value dropped; the committed effect is recoverable via retry).
    sum late_replies;
    /// Replies deliberately dropped by an armed `svc.reply.pre` `exit`
    /// failpoint.
    sum dropped_replies;
    /// Worker threads that died (panic or injected exit).
    sum worker_deaths;
    /// Workers respawned by the supervisor.
    sum worker_respawns;
    /// Envelopes answered `Shutdown` while draining at service stop.
    sum shutdown_replies;
}

/// Two [`Log2Hist`]s — the current window and the lifetime — plus the
/// window's cached quantiles.
pub(crate) struct WindowHist {
    window: u64,
    cur: Log2Hist,
    cur_count: AtomicU64,
    life: Log2Hist,
    life_count: AtomicU64,
    cached_p50_ns: AtomicU64,
    cached_p99_ns: AtomicU64,
    /// Nanoseconds since service start at the last rotation.
    rotated_at_ns: AtomicU64,
    rotating: Mutex<()>,
}

impl WindowHist {
    pub(crate) fn new(window: u64) -> WindowHist {
        WindowHist {
            window: window.max(1),
            cur: Log2Hist::default(),
            cur_count: AtomicU64::new(0),
            life: Log2Hist::default(),
            life_count: AtomicU64::new(0),
            cached_p50_ns: AtomicU64::new(0),
            cached_p99_ns: AtomicU64::new(0),
            rotated_at_ns: AtomicU64::new(0),
            rotating: Mutex::new(()),
        }
    }

    /// Records one latency observation; `now_ns` is nanoseconds since
    /// service start (used to timestamp a rotation).
    pub(crate) fn record(&self, lat: Duration, now_ns: u64) {
        let ns = lat.as_nanos() as u64;
        self.cur.record(ns);
        self.life.record(ns);
        self.life_count.fetch_add(1, Ordering::Relaxed);
        if self.cur_count.fetch_add(1, Ordering::Relaxed) + 1 >= self.window {
            self.rotate(now_ns);
        }
    }

    /// Drains the current window and refreshes the cached quantiles. The
    /// try-lock makes rotation single-writer without ever blocking the
    /// recording fast path.
    fn rotate(&self, now_ns: u64) {
        let Ok(_g) = self.rotating.try_lock() else {
            return;
        };
        let drained = self.cur.drain();
        self.cur_count.store(0, Ordering::Relaxed);
        if let Some(p50) = quantile_ns(&drained, 0.50) {
            self.cached_p50_ns.store(p50, Ordering::Relaxed);
        }
        if let Some(p99) = quantile_ns(&drained, 0.99) {
            self.cached_p99_ns.store(p99, Ordering::Relaxed);
        }
        self.rotated_at_ns.store(now_ns, Ordering::Relaxed);
    }

    /// True while the *recent* window's p99 breaches `slo_ns`. A cached
    /// breach older than `ttl_ns` reads as healthy so probe traffic can
    /// refresh the signal (see module docs).
    pub(crate) fn breached(&self, slo_ns: u64, now_ns: u64, ttl_ns: u64) -> bool {
        let p99 = self.cached_p99_ns.load(Ordering::Relaxed);
        if p99 == 0 || p99 <= slo_ns {
            return false;
        }
        now_ns.saturating_sub(self.rotated_at_ns.load(Ordering::Relaxed)) <= ttl_ns
    }

    /// Lifetime bucket snapshot (for reports and recovery monitoring).
    pub(crate) fn lifetime(&self) -> [u64; 32] {
        self.life.snapshot()
    }

    /// Total observations ever recorded.
    pub(crate) fn count(&self) -> u64 {
        self.life_count.load(Ordering::Relaxed)
    }

    pub(crate) fn cached_p50_ns(&self) -> u64 {
        self.cached_p50_ns.load(Ordering::Relaxed)
    }

    pub(crate) fn cached_p99_ns(&self) -> u64 {
        self.cached_p99_ns.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_table_snapshots_and_diffs_every_entry() {
        let c = Counters::default();
        // A distinct amount per entry, so two crossed entries would show.
        for (i, &(name, kind)) in Counters::ENTRIES.iter().enumerate() {
            assert_eq!(kind, "sum", "{name}");
            c.bump_entry(name, 10 + i as u64);
        }
        let s = c.snapshot();
        for (i, &(name, _)) in Counters::ENTRIES.iter().enumerate() {
            assert_eq!(s.entry(name), 10 + i as u64, "{name}: snapshot");
            c.bump_entry(name, 100 + i as u64);
        }
        let d = c.snapshot().since(&s);
        for (i, &(name, _)) in Counters::ENTRIES.iter().enumerate() {
            assert_eq!(d.entry(name), 100 + i as u64, "{name}: since");
        }
        assert_eq!(Counters::ENTRIES.len(), 17);
    }

    #[test]
    fn window_rotation_caches_quantiles() {
        let h = WindowHist::new(4);
        for _ in 0..3 {
            h.record(Duration::from_nanos(100), 10);
        }
        assert_eq!(h.cached_p99_ns(), 0, "rotated before the window filled");
        h.record(Duration::from_micros(100), 10);
        // 100ns → bucket 6 (upper edge 128); 100µs → bucket 16 (131072).
        assert_eq!(h.cached_p50_ns(), 128);
        assert_eq!(h.cached_p99_ns(), 131_072);
        assert_eq!(h.count(), 4);
        assert_eq!(h.lifetime().iter().sum::<u64>(), 4);
    }

    #[test]
    fn breach_signal_goes_stale_after_ttl() {
        let h = WindowHist::new(1);
        h.record(Duration::from_millis(40), 1_000);
        let slo = Duration::from_millis(5).as_nanos() as u64;
        assert!(h.breached(slo, 1_000, 500));
        // Same breach, sampled past the TTL: stale, reads healthy.
        assert!(!h.breached(slo, 2_000, 500));
        // A generous SLO is never breached.
        assert!(!h.breached(u64::MAX, 1_000, 500));
    }
}
