//! Closed-loop phase runner: `clients` threads, named `bench-client-<i>`
//! so their CPU time is attributed to the generator, each keep one
//! operation outstanding until the phase's time is up.

use crate::hist::Hist;
use crate::trace::Tracer;
use std::sync::Barrier;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub name: &'static str,
    pub secs: f64,
    pub traced: bool,
}

/// What one client recorded in one phase.
pub struct Rec {
    pub read: Hist,
    pub write: Hist,
    /// Completed operations.
    pub ops: u64,
    /// Failed attempts (each one retried as a new attempt).
    pub failed: u64,
    /// Completed operations that committed without writing.
    pub read_only: u64,
    pub tracer: Option<Tracer>,
}

impl Rec {
    fn new(client: usize, traced: bool, epoch: Instant) -> Rec {
        Rec {
            read: Hist::default(),
            write: Hist::default(),
            ops: 0,
            failed: 0,
            read_only: 0,
            tracer: traced.then(|| Tracer::new(client, epoch)),
        }
    }

    /// Records one completed operation and its latency.
    pub fn done(&mut self, read: bool, t0: Instant, t1: Instant) {
        let ns = t1.saturating_duration_since(t0).as_nanos() as u64;
        if read {
            self.read.record(ns);
        } else {
            self.write.record(ns);
        }
        self.ops += 1;
    }
}

pub struct PhaseOut<S> {
    pub phase: Phase,
    pub wall: Duration,
    pub before: S,
    pub after: S,
    pub recs: Vec<Rec>,
}

/// Runs `phases` back to back on `clients` fresh threads. `init(c)`
/// builds client `c`'s state on its own thread; `step` performs one
/// operation and returns when it ended. The calling thread only
/// coordinates: it takes `snap` while every client waits at the phase
/// boundary, so each snapshot covers exactly the ops of the phases around
/// it. Returns the phase results and each client's final state.
pub fn run<C, S>(
    clients: usize,
    phases: &[Phase],
    epoch: Instant,
    init: impl Fn(usize) -> C + Sync,
    step: impl Fn(&mut C, &mut Rec) -> Instant + Sync,
    snap: impl Fn() -> S,
) -> (Vec<PhaseOut<S>>, Vec<C>)
where
    C: Send,
    S: Clone,
{
    // Two barriers per boundary: at `ready` every client has stopped, then
    // the coordinator snapshots, then `go` releases the next phase. After
    // the last phase the same pair keeps the clients alive until the final
    // snapshot has read their CPU time.
    let ready = Barrier::new(clients + 1);
    let go = Barrier::new(clients + 1);
    let client = |c: usize| {
        let mut st = init(c);
        let mut recs = Vec::new();
        for ph in phases {
            ready.wait();
            go.wait();
            let deadline = Instant::now() + Duration::from_secs_f64(ph.secs);
            let mut rec = Rec::new(c, ph.traced, epoch);
            while step(&mut st, &mut rec) < deadline {}
            recs.push(rec);
        }
        ready.wait();
        go.wait();
        (st, recs)
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                std::thread::Builder::new()
                    .name(format!("bench-client-{c}"))
                    .spawn_scoped(s, move || client(c))
                    .expect("spawn client thread")
            })
            .collect();
        let mut snaps = Vec::with_capacity(phases.len() + 1);
        let mut walls = Vec::with_capacity(phases.len());
        let mut start: Option<Instant> = None;
        for _ in 0..=phases.len() {
            ready.wait();
            if let Some(t) = start.take() {
                walls.push(t.elapsed());
            }
            snaps.push(snap());
            go.wait();
            start = Some(Instant::now());
        }
        let mut per_phase: Vec<Vec<Rec>> = phases.iter().map(|_| Vec::new()).collect();
        let mut states = Vec::with_capacity(clients);
        for h in handles {
            let (st, recs) = h.join().expect("client thread panicked");
            states.push(st);
            for (i, r) in recs.into_iter().enumerate() {
                per_phase[i].push(r);
            }
        }
        let outs = phases
            .iter()
            .zip(walls)
            .zip(per_phase)
            .enumerate()
            .map(|(i, ((phase, wall), recs))| PhaseOut {
                phase: *phase,
                wall,
                before: snaps[i].clone(),
                after: snaps[i + 1].clone(),
                recs,
            })
            .collect();
        (outs, states)
    })
}
