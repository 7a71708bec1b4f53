//! Spans recorded by the benchmark around its calls into the library.
//!
//! Each client owns one [`Tracer`]. An `op` span wraps one `run`,
//! `run_ro` or `Frontend::call`. The benchmark sees where each closure
//! body (or workload-wrapper call) starts and ends, and those boundaries
//! split the op into child spans that do not overlap:
//!
//! ```text
//! rbtree:  op = begin | attempt | retry | attempt | ... | commit
//! svc:     op = queue | body    | retry | body    | ... | reply
//! ```
//!
//! `begin` runs from the call to the first body (transaction begin and
//! the admission gate), `retry` from an aborted body to the next one
//! (abort, back-off and the next begin), `commit` from the last body's
//! return to the return of `run`. On the service, `queue` is the call
//! start to the first body (enqueue, mailbox wait, dedup lookup), `reply`
//! the last body's end to the call's return (dedup record, commit, reply
//! wake). An op's self time is what its children leave uncovered: only
//! the clock reads themselves, or a whole op without a body (a dedup hit).
//!
//! Aggregates are kept for every op. Raw spans are kept for the first
//! [`MAX_OPS_KEPT`] ops of each client and written out at the end as
//! Chrome trace-event JSON.

use crate::hist::Hist;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Op,
    Begin,
    Attempt,
    Retry,
    Commit,
    Queue,
    Body,
    Reply,
}

pub const KINDS: [Kind; 8] = [
    Kind::Op,
    Kind::Begin,
    Kind::Attempt,
    Kind::Retry,
    Kind::Commit,
    Kind::Queue,
    Kind::Body,
    Kind::Reply,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Op => "op",
            Kind::Begin => "begin",
            Kind::Attempt => "attempt",
            Kind::Retry => "retry",
            Kind::Commit => "commit",
            Kind::Queue => "queue",
            Kind::Body => "body",
            Kind::Reply => "reply",
        }
    }
}

/// How an op's boundaries are named: the span before the first body, the
/// bodies, and the span after the last body.
#[derive(Clone, Copy)]
pub struct Shape {
    pub head: Kind,
    pub body: Kind,
    pub tail: Kind,
}

pub const TXN: Shape = Shape {
    head: Kind::Begin,
    body: Kind::Attempt,
    tail: Kind::Commit,
};

pub const SVC: Shape = Shape {
    head: Kind::Queue,
    body: Kind::Body,
    tail: Kind::Reply,
};

/// Ops per client whose raw spans are kept for the trace file.
pub const MAX_OPS_KEPT: u64 = 4096;

const N: usize = KINDS.len();

#[derive(Clone, Copy)]
struct Span {
    kind: Kind,
    op: u64,
    start: u64,
    end: u64,
}

pub struct Tracer {
    client: usize,
    epoch: Instant,
    seq: u64,
    read: bool,
    start: u64,
    bodies: Vec<(u64, u64)>,
    /// Indexed by `Kind as usize`: summed duration and span count. A
    /// child span has no children, so its duration is its self time.
    pub dur_ns: [u128; N],
    pub spans: [u64; N],
    /// Summed op time no child span covers.
    pub op_self_ns: u128,
    /// Attempt durations of read and of write ops.
    pub attempt_read: Hist,
    pub attempt_write: Hist,
    /// Commit span of each write op.
    pub commit: Hist,
    /// Per-op totals of the queue, body and reply spans.
    pub queue: Hist,
    pub body: Hist,
    pub reply: Hist,
    kept: Vec<Span>,
}

impl Tracer {
    pub fn new(client: usize, epoch: Instant) -> Tracer {
        Tracer {
            client,
            epoch,
            seq: 0,
            read: false,
            start: 0,
            bodies: Vec::with_capacity(8),
            dur_ns: [0; N],
            spans: [0; N],
            op_self_ns: 0,
            attempt_read: Hist::default(),
            attempt_write: Hist::default(),
            commit: Hist::default(),
            queue: Hist::default(),
            body: Hist::default(),
            reply: Hist::default(),
            kept: Vec::new(),
        }
    }

    /// Nanoseconds since the shared epoch.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn now(&self) -> u64 {
        self.ns(Instant::now())
    }

    /// The sequence number of the op about to start; with the client it
    /// identifies the op.
    pub fn next_op(&self) -> u64 {
        self.seq
    }

    pub fn begin_op(&mut self, read: bool, start: u64) {
        self.read = read;
        self.start = start;
        self.bodies.clear();
    }

    /// One closure body or wrapper call of the current op.
    pub fn body(&mut self, start: u64, end: u64) {
        self.bodies.push((start, end.max(start)));
    }

    /// Closes the current op at `end`, splits it into child spans named
    /// by `shape`, and folds them into the aggregates.
    pub fn finish_op(&mut self, end: u64, shape: Shape) {
        let (start, op) = (self.start, self.seq);
        let end = end.max(start);
        let clamp = |t: u64| t.clamp(start, end);
        let mut children: Vec<Span> = Vec::with_capacity(2 * self.bodies.len() + 1);
        let mut push = |kind, s: u64, e: u64| {
            let (s, e) = (clamp(s), clamp(e));
            children.push(Span {
                kind,
                op,
                start: s,
                end: e.max(s),
            })
        };
        let mut prev = None;
        for &(s, e) in &self.bodies {
            match prev {
                None => push(shape.head, start, s),
                Some(p) => push(Kind::Retry, p, s),
            }
            push(shape.body, s, e);
            prev = Some(e);
        }
        if let Some(p) = prev {
            push(shape.tail, p, end);
        }
        let mut per_op = [0u64; N];
        for c in &children {
            let (k, d) = (c.kind as usize, c.end - c.start);
            per_op[k] += d;
            self.dur_ns[k] += d as u128;
            self.spans[k] += 1;
            if c.kind == Kind::Attempt {
                if self.read {
                    self.attempt_read.record(d);
                } else {
                    self.attempt_write.record(d);
                }
            }
        }
        let dur = end - start;
        let covered: u64 = per_op.iter().sum();
        self.op_self_ns += dur.saturating_sub(covered) as u128;
        self.dur_ns[Kind::Op as usize] += dur as u128;
        self.spans[Kind::Op as usize] += 1;
        if !children.is_empty() {
            // Commit latency is a write-path figure: a read-only commit
            // returns at once, and mixing the two would put the median on
            // the boundary between them.
            if !self.read && shape.tail == Kind::Commit {
                self.commit.record(per_op[Kind::Commit as usize]);
            }
            for (k, h) in [
                (Kind::Queue, &mut self.queue),
                (Kind::Body, &mut self.body),
                (Kind::Reply, &mut self.reply),
            ] {
                if k == shape.head || k == shape.body || k == shape.tail {
                    h.record(per_op[k as usize]);
                }
            }
        }
        if self.seq < MAX_OPS_KEPT {
            self.kept.push(Span {
                kind: Kind::Op,
                op,
                start,
                end,
            });
            self.kept.extend_from_slice(&children);
        }
        self.seq += 1;
    }
}

/// Chrome trace-event JSON (`ph: "X"` complete events, microseconds) for
/// the kept spans of every client. Span ids are `client:op`; children
/// name their parent op.
pub fn chrome_json(workload: &str, tracers: &[&Tracer]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    for t in tracers {
        for s in &t.kept {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let id = format!("{}:{}", t.client, s.op);
            let parent = if s.kind == Kind::Op {
                String::new()
            } else {
                id.clone()
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":\"{}\",\"parent\":\"{}\"}}}}",
                s.kind.name(),
                workload,
                t.client,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                id,
                parent,
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_split_the_op_into_named_gaps() {
        let mut t = Tracer::new(0, Instant::now());
        t.begin_op(false, 100);
        t.body(110, 150);
        t.body(160, 190);
        t.finish_op(200, TXN);
        let d = |k: Kind| t.dur_ns[k as usize];
        assert_eq!(d(Kind::Op), 100);
        assert_eq!(d(Kind::Begin), 10);
        assert_eq!(d(Kind::Attempt), 70);
        assert_eq!(d(Kind::Retry), 10);
        assert_eq!(d(Kind::Commit), 10);
        assert_eq!(t.op_self_ns, 0);
        assert_eq!(t.spans[Kind::Attempt as usize], 2);
        assert_eq!(t.attempt_write.count(), 2);
        assert_eq!(t.commit.count(), 1);
        assert_eq!(t.queue.count(), 0);
        let json = chrome_json("w", &[&t]);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 6);
    }

    #[test]
    fn an_op_without_a_body_stays_unexplained() {
        let mut t = Tracer::new(1, Instant::now());
        t.begin_op(true, 100);
        t.finish_op(200, SVC);
        assert_eq!(t.op_self_ns, 100);
        assert_eq!(t.queue.count(), 0);
    }

    #[test]
    fn late_clock_reads_are_clamped_to_the_op() {
        let mut t = Tracer::new(1, Instant::now());
        t.begin_op(true, 100);
        t.body(90, 130);
        t.finish_op(120, SVC);
        assert_eq!(t.dur_ns[Kind::Body as usize], 20);
        assert_eq!(t.dur_ns[Kind::Queue as usize], 0);
        assert_eq!(t.dur_ns[Kind::Reply as usize], 0);
    }
}
