//! Summary-bitmap coherence under stress, on every invalidation-family
//! engine.
//!
//! The registry's `pending`/`live` bitmaps are *summaries* of per-slot
//! state; the servers trust them to find every request and every live
//! transaction. This test stresses the two invariants the protocol rests
//! on (DESIGN.md §8 and the `rinval::registry` module docs give the
//! argument):
//!
//! * **live**: at every point of the `SeqCst` total order,
//!   `tx_status != TX_IDLE` implies the slot's live bit is set
//!   (set-before-alive / clear-after-idle).
//! * **pending**: a set pending bit implies a request in flight —
//!   `request_state` is `REQ_PENDING`, `REQ_IRREVOCABLE` or `REQ_CLAIMED`.
//!   The client sets the bit after every post; only the party that moves
//!   the request out of `PENDING`/`IRREVOCABLE` clears it, before
//!   answering; a commit-server reverting an unbatchable claim stores
//!   `PENDING` with the bit still set. A set bit next to `REQ_IDLE`,
//!   `REQ_COMMITTED` or `REQ_ABORTED` is a bit that outlived its request.
//!   (A client withdrawing its own request briefly shows `REQ_IDLE` with
//!   the bit set; this workload never withdraws — no deadlines, no
//!   teardown with a request posted — so that window cannot occur here.)
//!
//! A checker thread cannot sample a remote slot atomically, so each probe
//! brackets its reads with the slot's `epoch` counter (bumped on every
//! `begin`): if the epoch is unchanged across the probe, the sampled
//! values belong to one transaction attempt and the implication must hold.

use rinval::registry::{REQ_CLAIMED, REQ_IRREVOCABLE, REQ_PENDING, TX_IDLE};
use rinval::{AlgorithmKind, Stm, TxResult};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// N clients hammer begin/commit/abort while a checker cross-validates the
/// summary maps against per-slot `request_state`/`tx_status`.
#[test]
fn summary_maps_agree_with_slot_state_under_stress() {
    const CLIENTS: usize = 4;
    let invalidation_family = AlgorithmKind::all()
        .into_iter()
        .filter(|k| *k == AlgorithmKind::InvalStm || k.is_remote());
    for algo in invalidation_family {
        let stm = Stm::builder(algo)
            .heap_words(1 << 12)
            .max_threads(16)
            .build();
        // A contended word (forces conflicts/aborts) plus per-client
        // private words (commits that batch under V1).
        let shared = stm.alloc_init(&[0]);
        let private = stm.alloc(CLIENTS);
        let stop = AtomicBool::new(false);
        let stm_ref = &stm;
        let stop_ref = &stop;

        std::thread::scope(|s| {
            for c in 0..CLIENTS {
                s.spawn(move || {
                    let mut th = stm_ref.register_thread();
                    let mine = private.field(c as u32);
                    while !stop_ref.load(Ordering::Relaxed) {
                        th.run(|tx| {
                            let v = tx.read(shared)?;
                            tx.write(shared, v + 1)
                        });
                        th.run(|tx| {
                            let v = tx.read(mine)?;
                            tx.write(mine, v + 1)
                        });
                        // Aborted attempts must also keep the maps honest.
                        let _: TxResult<()> = th.try_run(1, |tx| {
                            let v = tx.read(shared)?;
                            tx.write(shared, v)?;
                            tx.user_abort()
                        });
                    }
                });
            }

            s.spawn(move || {
                let reg = stm_ref.registry();
                let mut probes = 0u64;
                while !stop_ref.load(Ordering::Relaxed) {
                    for i in 0..reg.len() {
                        let slot = reg.slot(i);

                        // live: epoch-bracketed "alive implies bit set".
                        let e1 = slot.epoch.load(Ordering::SeqCst);
                        let s1 = slot.tx_status.load(Ordering::SeqCst);
                        let bit = reg.live().get(i);
                        let s2 = slot.tx_status.load(Ordering::SeqCst);
                        let e2 = slot.epoch.load(Ordering::SeqCst);
                        if e1 == e2 && s1 != TX_IDLE && s2 != TX_IDLE {
                            assert!(
                                bit,
                                "slot {i} live (status {s1}/{s2}, epoch {e1}) \
                                 but its live bit is clear under {algo:?}"
                            );
                        }

                        // pending: epoch-bracketed "bit set implies a
                        // request in flight".
                        let e1 = slot.epoch.load(Ordering::SeqCst);
                        let b1 = reg.pending().get(i);
                        let st = slot.request_state.load(Ordering::SeqCst);
                        let b2 = reg.pending().get(i);
                        let e2 = slot.epoch.load(Ordering::SeqCst);
                        if e1 == e2 && b1 && b2 {
                            assert!(
                                matches!(st, REQ_PENDING | REQ_IRREVOCABLE | REQ_CLAIMED),
                                "slot {i} has its pending bit set but \
                                 request_state {st} under {algo:?}"
                            );
                        }
                        probes += 1;
                    }
                }
                assert!(probes > 0);
            });

            let deadline = Instant::now() + Duration::from_millis(250);
            while Instant::now() < deadline {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Relaxed);
        });

        // Quiescent: every handle dropped, so release() must have wiped
        // both maps clean.
        let reg = stm.registry();
        for i in 0..reg.len() {
            assert!(!reg.live().get(i), "stale live bit {i} under {algo:?}");
            assert!(
                !reg.pending().get(i),
                "stale pending bit {i} under {algo:?}"
            );
        }
        assert!(stm.peek(shared) > 0);
    }
}
