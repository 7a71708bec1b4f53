//! Server threads for the RInval family, plus the fault-containment layer
//! that supervises them.
//!
//! * [`commit_server`] — the `COMMIT-SERVER LOOP` of every remote engine:
//!   one thread owns the global timestamp (plain stores, never CAS) and
//!   writes back every request. The engines differ only in where
//!   invalidation runs (below).
//! * [`invalidation_server`] — Algorithm 3's `INVALIDATION-SERVER LOOP`
//!   (V2/V3/MV): chases the global timestamp in steps of 2, scanning its
//!   partition of the registry against the published signature.
//! * [`watchdog`] — supervises all of the above through per-seat
//!   [`crate::sync::Heartbeat`] beacons: dead servers are respawned (after
//!   re-deriving a consistent protocol state with [`recover_inflight`]);
//!   servers that are alive but silent with work outstanding, or that keep
//!   dying, degrade the instance to the serverless InvalSTM engine (see
//!   "Fault containment" below).
//!
//! Servers spin with [`Backoff`] (bounded spin, then yield) instead of the
//! paper's pinned-core busy loop so the protocol stays live on
//! oversubscribed hosts; the logic is otherwise a transcription of
//! Algorithms 2–4 with the deviations documented here. The spin phase is
//! 31 `PAUSE`s (≈ 0.6 µs, about the cost of one idle `yield_now`), so
//! when a client, a server and an invalidation-server share a core, each
//! hand-off reaches the scheduler within a microsecond; a longer spin
//! only delays the thread it waits for (see [`Backoff`]).
//!
//! ## One loop, two invalidation placements
//!
//! The paper presents V2/V3 as V1 with invalidation moved onto
//! invalidation-servers, and [`commit_server`] reads the same way. Each
//! pass beats and polls its failpoints, grants a posted irrevocable-token
//! request once every invalidation-server has caught up, then scans the
//! pending map: it skips a request whose own invalidation-server lags
//! (Algorithm 4, line 2), waits until none lags more than `steps_ahead`
//! commits (Algorithm 3 line 7 / Algorithm 4 line 5; `steps_ahead = 0` is
//! V2), claims the request, answers it `ABORTED` if it was invalidated or
//! refused by the census, and otherwise admits it into the batch.
//! [`commit_batch`] then bumps the timestamp odd, invalidates, writes
//! back, bumps even and answers. With no invalidation-servers (V1) it
//! invalidates **inline** inside the odd phase (Algorithm 2, lines 19–21)
//! and the lag checks and grant wait are trivially satisfied; with some
//! (V2/V3/MV) it **publishes the ring entry** for commit `t/2`, and the
//! invalidation-servers scan in parallel with the write-back (Algorithm 3,
//! lines 12–14).
//!
//! ## Summary-bitmap scans
//!
//! The paper's loops walk the whole `max_threads` registry three times per
//! commit (request discovery, reader-bias census, invalidation). Here
//! every walk iterates only the set bits of the registry's `pending` /
//! `live` summary maps ([`crate::registry::Registry::pending`] /
//! [`crate::registry::Registry::live`]), so per-pass work is proportional
//! to the number of *active* slots. The publication orders guarantee that
//! a bitmap scan observes every request and transaction the full walk
//! would have; the `registry` module docs give the `SeqCst` total-order
//! argument. Every walk goes through the shared scan kernel
//! ([`crate::scan::scan`]), which prefetches slots and records scan work
//! uniformly in [`crate::stats::ServerCounters`].
//!
//! ## Batched commits
//!
//! Algorithm 2 pays one timestamp bump, one `SeqCst` fence and one
//! invalidation scan per request. With inline invalidation the loop
//! instead drains the pending map per pass into a batch, admitting a
//! request iff it is *fully independent* of every member: its writes miss
//! the batch's merged writes and reads, and its reads miss the merged
//! writes. Disjoint write-sets alone are not enough — crossing read/write
//! dependencies have no equivalent serial order. The batch commits under
//! one bump with one merged invalidation scan; a dependent request is
//! reverted to `PENDING` and serializes on a later pass, where that scan
//! aborts it if it read what the batch wrote (DESIGN.md §8).
//!
//! With invalidation-servers the batch holds **one** request: a ring entry
//! names exactly one requester for the invalidators to skip (its reads
//! always intersect its own writes), so a larger batch would need a skip
//! set per entry. Each such commit still counts as a batch of one, so
//! `batches` / `batched_requests` describe every remote engine.
//!
//! ## Fault containment
//!
//! A commit request now moves `IDLE → PENDING → CLAIMED → {COMMITTED,
//! ABORTED} → IDLE`. The CAS from `PENDING` to [`REQ_CLAIMED`] at server
//! pickup is the pivot of the whole recovery design: it makes *exactly
//! one* of {a server, a withdrawing client, the post-mortem recovery walk}
//! the owner of each request, so a request can always be accounted for no
//! matter where its server died.
//!
//! Recovery leans on two protocol invariants (DESIGN.md §11):
//!
//! 1. **Odd timestamp ⇒ claimed requests are an admitted commit.** The
//!    commit-server answers doomed requests (invalidated / over budget)
//!    *before* bumping the timestamp, so any slot still `CLAIMED` while
//!    the timestamp is odd passed its status checks and its commit must be
//!    *completed*: readers spin while the timestamp is odd, so no partial
//!    write-back was observed, and re-running invalidation + write-back is
//!    idempotent ([`recover_inflight`] does exactly this).
//! 2. **Even timestamp ⇒ claimed requests published nothing.** Answering
//!    `ABORTED` is sound; the client simply retries.
//!
//! Degradation (`StmInner::degraded`) is one-way: every server loop
//! re-checks the flag and exits, outstanding requests are answered
//! `ABORTED` by [`drain_requests_abort`], and clients re-resolve their
//! engine to InvalSTM (`StmInner::effective_algo`), which needs no servers
//! — throughput drops, correctness doesn't.

use crate::bloom::Bloom;
use crate::faults::{self, FaultAction};
use crate::logs::WriteEntry;
use crate::registry::{
    precedes, NO_IRREVOCABLE_HOLDER, REQ_ABORTED, REQ_CLAIMED, REQ_COMMITTED, REQ_IDLE,
    REQ_IRREVOCABLE, REQ_PENDING, TX_ALIVE, TX_INVALIDATED,
};
use crate::scan::{scan, ScanKind};
use crate::stats::ServerCounters;
use crate::sync::Backoff;
use crate::StmInner;
use std::ops::ControlFlow;
use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Applies a published write-set to the heap.
///
/// # Safety contract (checked dynamically where possible)
/// `ptr/len` were published by a client that is spinning on its
/// `request_state` and will not free or mutate the buffer until we respond;
/// the `Acquire`-ordered observation of `REQ_PENDING` made the buffer's
/// contents visible. Addresses are bounds-checked so a corrupt request
/// cannot fault the server.
unsafe fn write_back(
    stm: &StmInner,
    ptr: *const crate::logs::WriteEntry,
    len: usize,
    release_ts: u64,
) {
    if ptr.is_null() {
        return;
    }
    for i in 0..len {
        let e = unsafe { *ptr.add(i) };
        // Versioned store: under RInvalMV each write-back also stamps the
        // word's version ring with `release_ts` — the even timestamp this
        // commit releases at — so snapshot readers at earlier timestamps
        // keep resolving against the retired pre-image (no-op when the
        // ring is disabled).
        stm.heap.store_versioned_checked(e.addr, e.val, release_ts);
    }
}

#[inline]
fn mask_set(mask: &mut [u64], i: usize) {
    mask[i / 64] |= 1u64 << (i % 64);
}

#[inline]
fn mask_get(mask: &[u64], i: usize) -> bool {
    mask[i / 64] & (1u64 << (i % 64)) != 0
}

/// Invalidates every live transaction (except those in `skip_mask`) whose
/// read signature intersects `wbf`, walking only the `live` summary map.
/// Shared by the commit loop's inline path (V1), the invalidation-servers
/// and the recovery walk.
///
/// `server`: `Some(k)` restricts the walk to invalidation-server `k`'s
/// partition — under domain sharding that means only `k`'s served domains'
/// bitmap *words* are touched at all ([`StmInner::served_domains`] /
/// [`crate::registry::Registry::domain_word_range`]); with one domain it
/// is the seed's full-word walk with the `i % nk == k` predicate.
/// `committer`: the committing slot, when known, so victims doomed across
/// a domain boundary are counted as cross-domain invalidations.
fn invalidate_conflicting(
    stm: &StmInner,
    wbf: &Bloom,
    skip_mask: &[u64],
    server: Option<usize>,
    committer: Option<usize>,
) {
    let st = &stm.server_stats;
    let home = committer
        .filter(|_| stm.registry.num_domains() > 1)
        .map(|c| stm.registry.domain_of(c));
    let mut doomed = 0u64;
    let mut cross = 0u64;
    // Index the committer's write signature once for the whole scan; each
    // live reader is then tested with the sparse intersection, loading
    // only `wbf`'s non-zero words instead of sweeping all 256.
    let nz = wbf.nonzero_words();
    let _ = scan(
        &stm.registry,
        st,
        stm.registry.live(),
        ScanKind::Inval,
        stm.served_word_ranges(server),
        // Skip-mask and partition skips are index-level and uncounted;
        // everything delivered below is an examined slot.
        |i| !mask_get(skip_mask, i) && server.is_none_or(|k| stm.inval_server_of(i) == k),
        |i, slot| {
            if slot.is_live() && slot.read_bf.intersects_plain_sparse(wbf, &nz) {
                // CAS (not store) so an already-idle slot is never marked:
                // the server must not leak an INVALIDATED flag into a slot
                // that has since been recycled to a different thread.
                if slot
                    .tx_status
                    .compare_exchange(
                        TX_ALIVE,
                        TX_INVALIDATED,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_ok()
                {
                    doomed += 1;
                    if home.is_some_and(|h| stm.registry.domain_of(i) != h) {
                        cross += 1;
                    }
                }
            }
            ControlFlow::Continue(())
        },
    );
    if doomed != 0 {
        ServerCounters::add(&st.txs_doomed, doomed);
    }
    if cross != 0 {
        ServerCounters::add(&st.cross_domain_invalidations, cross);
    }
}

/// Counts an answered commit as local or cross-domain: cross iff any
/// written word lies outside the requester's home domain.
///
/// # Safety
/// Same contract as [`write_back`]: `ptr/len` are a claimed request's
/// published write-set, immutable until the request is answered.
unsafe fn tally_commit_domains(
    stm: &StmInner,
    requester: usize,
    ptr: *const WriteEntry,
    len: usize,
) {
    let st = &stm.server_stats;
    if stm.registry.num_domains() > 1 && !ptr.is_null() {
        let home = stm.registry.domain_of(requester);
        for i in 0..len {
            let e = unsafe { *ptr.add(i) };
            if stm.heap.domain_of_word(e.addr as usize) != home {
                ServerCounters::add(&st.cross_domain_commits, 1);
                return;
            }
        }
    }
    ServerCounters::add(&st.local_commits, 1);
}

/// Commit admission census (DESIGN.md §13): walks the `live` summary map
/// counting the transactions the commit of slot `c_idx` (priority `pc`)
/// would doom, and applies the priority/budget rule. Returns
/// `Some(inherited_priority)` when the commit must be **refused**:
///
/// * some conflicting victim *precedes* the committer in the total order
///   (priority descending, then slot index ascending), **and**
/// * either a victim's priority strictly exceeds `pc` (hard refusal —
///   applies even under CommitterWins) or the total doom count exceeds
///   the [`crate::CmPolicy`] budget.
///
/// The caller must raise the committer's published priority to the
/// returned value: the refused side inherits `max(victim priority) + 1 >
/// pc`, so the order keeps a unique maximum that is never refused —
/// repeated mutual refusals cannot cycle forever at one priority level.
/// When no victim precedes the committer (it already is the local
/// maximum), the budget does not apply: an aged committer may doom any
/// number of younger readers, which is exactly the ReaderBias-livelock
/// escape. Refusal happens only here, at admission; post-admission
/// invalidation scans doom *every* conflicting reader regardless of
/// priority (skipping one after write-back is admitted would leave it on
/// an inconsistent snapshot).
///
/// Under CommitterWins with a zero [`crate::StmInner::priority_ceiling`]
/// (nothing has aged) the rule cannot fire and the scan is skipped
/// entirely.
fn census_refusal(stm: &StmInner, wbf: &Bloom, c_idx: usize, pc: u32) -> Option<u32> {
    let budget = stm.cm_policy.max_doomed();
    if budget == u32::MAX && stm.priority_ceiling.load(Ordering::SeqCst) == 0 {
        return None;
    }
    let mut total = 0u32;
    let mut max_pv = 0u32;
    let mut preceding = false;
    let _ = scan(
        &stm.registry,
        &stm.server_stats,
        stm.registry.live(),
        ScanKind::Census,
        stm.served_word_ranges(None),
        |i| i != c_idx,
        |i, slot| {
            if slot.is_live() && slot.read_bf.intersects_plain(wbf) {
                total += 1;
                let pv = slot.priority.load(Ordering::SeqCst);
                max_pv = max_pv.max(pv);
                preceding |= precedes(pv, i, pc, c_idx);
            }
            ControlFlow::Continue(())
        },
    );
    if preceding && (max_pv > pc || total > budget) {
        Some(max_pv + 1)
    } else {
        None
    }
}

/// Refuses a claimed commit request on census grounds: raises the
/// requester's published priority to `inherit`, clears its pending bit,
/// answers `ABORTED` and counts the refusal.
fn refuse_request(stm: &StmInner, i: usize, inherit: u32) {
    let slot = stm.registry.slot(i);
    stm.registry.pending().clear(i);
    slot.priority.fetch_max(inherit, Ordering::SeqCst);
    stm.note_priority(inherit);
    slot.request_state.store(REQ_ABORTED, Ordering::SeqCst);
    ServerCounters::add(&stm.server_stats.priority_refusals, 1);
}

/// Best posted irrevocable-token request — the pending slot in
/// [`REQ_IRREVOCABLE`] state that precedes every other requester — if any.
fn token_request(stm: &StmInner) -> Option<usize> {
    let mut best: Option<(u32, usize)> = None;
    let _ = scan(
        &stm.registry,
        &stm.server_stats,
        stm.registry.pending(),
        ScanKind::Quiet,
        stm.served_word_ranges(None),
        |_| true,
        |i, slot| {
            if slot.request_state.load(Ordering::SeqCst) == REQ_IRREVOCABLE {
                let pv = slot.priority.load(Ordering::SeqCst);
                best = match best {
                    Some((bp, bi)) if !precedes(pv, i, bp, bi) => Some((bp, bi)),
                    _ => Some((pv, i)),
                };
            }
            ControlFlow::Continue(())
        },
    );
    best.map(|(_, i)| i)
}

/// Grants the global irrevocable token to slot `i`'s posted request over
/// the ordinary slot protocol: store the token word, then answer the
/// request with the `IRREVOCABLE → COMMITTED` CAS. A CAS failure means
/// the client withdrew at its deadline — the tentative grant is rolled
/// back (CAS, because after a client-side release another slot may
/// legitimately have taken the token in between). If the token already
/// names `i` (a server died between its token store and its answer), the
/// grant is simply re-answered — idempotent across respawns.
///
/// The caller must ensure no commit is in flight and (V2/V3) every
/// invalidation-server has caught up, so that nothing admitted before the
/// grant can still doom the holder's next attempt.
fn try_grant_token(stm: &StmInner, i: usize) -> bool {
    match stm.irrevocable.load(Ordering::SeqCst) {
        NO_IRREVOCABLE_HOLDER => stm.irrevocable.store(i, Ordering::SeqCst),
        h if h == i => {}
        _ => return false,
    }
    stm.registry.pending().clear(i);
    if stm.registry.slot(i)
        .request_state
        .compare_exchange(
            REQ_IRREVOCABLE,
            REQ_COMMITTED,
            Ordering::SeqCst,
            Ordering::SeqCst,
        )
        .is_ok()
    {
        ServerCounters::add(&stm.server_stats.irrevocable_grants, 1);
        true
    } else {
        let _ = stm.irrevocable.compare_exchange(
            i,
            NO_IRREVOCABLE_HOLDER,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        false
    }
}

/// Polls a server's failpoints at the top of a pass. Returns `false` when
/// the server should exit its loop (an injected death via
/// [`FaultAction::Exit`]); a [`FaultAction::Panic`] unwinds right here
/// (the seat's [`crate::sync::AliveGuard`] turns either into a dead
/// beacon). [`FaultAction::Stall`] blocks — without beating — until the
/// site is disarmed, the STM shuts down or the instance degrades, which is
/// exactly the "alive but silent" signature the watchdog's stall detector
/// looks for. With the `failpoints` feature off both `hit` calls are
/// constant `None` and the whole function folds to `true`.
#[inline]
fn pass_failpoints(stm: &StmInner, death_site: usize, stall_site: usize) -> bool {
    match stm.faults.hit(death_site) {
        Some(FaultAction::Exit) => return false,
        Some(FaultAction::Panic) => panic!("failpoint {}", faults::SITE_NAMES[death_site]),
        _ => {}
    }
    match stm.faults.hit(stall_site) {
        Some(FaultAction::Stall) => {
            while stm.faults.armed(stall_site) && !stm.servers_stopped() {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        Some(FaultAction::Delay(d)) => std::thread::sleep(d),
        _ => {}
    }
    true
}

/// The requests one timestamp bump commits (module docs, "Batched
/// commits").
struct Batch {
    /// `(slot, write-set ptr, len)` of every admitted member.
    members: Vec<(usize, *const WriteEntry, usize)>,
    /// Merged write and read signatures. Meaningful only while `members`
    /// is non-empty: the first member overwrites them, so no pass clears
    /// them.
    wbf: Bloom,
    rbf: Bloom,
    /// The members as a registry bitmask, skipped by inline invalidation.
    mask: Vec<u64>,
    /// Members per bump: unbounded with inline invalidation, one with
    /// invalidation-servers.
    cap: usize,
}

/// Commits `batch` under one timestamp bump (Algorithm 2, lines 18–24;
/// Algorithm 3, lines 12–15) and empties it. Invalidation runs inline in
/// the odd phase when the instance has no invalidation-servers; otherwise
/// the ring entry for commit `t/2` is published first, and the odd bump is
/// the signal that starts the invalidation-servers on it.
fn commit_batch(stm: &StmInner, batch: &mut Batch) {
    let t = stm.timestamp.load(Ordering::Relaxed);
    let inline = stm.inval_ts.is_empty();
    if !inline {
        let ring_idx = ((t / 2) % stm.commit_ring.len() as u64) as usize;
        stm.commit_ring[ring_idx].store_from(&batch.wbf);
        stm.commit_req[ring_idx].store(batch.members[0].0, Ordering::Relaxed);
    }
    // Plain stores: this thread is the timestamp's only writer.
    stm.timestamp.store(t + 1, Ordering::SeqCst);
    fence(Ordering::SeqCst);
    if inline {
        invalidate_conflicting(stm, &batch.wbf, &batch.mask, None, None);
    }
    for &(i, ptr, len) in &batch.members {
        // SAFETY: every member is CLAIMED and its client spins until the
        // answer below, so its published write-set stays valid and
        // unchanged (the `write_back` contract).
        unsafe {
            write_back(stm, ptr, len, t + 2);
            tally_commit_domains(stm, i, ptr, len);
        }
    }
    stm.timestamp.store(t + 2, Ordering::SeqCst);
    for &(i, _, _) in &batch.members {
        let slot = stm.registry.slot(i);
        slot.request_state.store(REQ_COMMITTED, Ordering::SeqCst);
        batch.mask[i / 64] &= !(1u64 << (i % 64));
    }
    ServerCounters::add(&stm.server_stats.batches, 1);
    ServerCounters::add(
        &stm.server_stats.batched_requests,
        batch.members.len() as u64,
    );
    batch.members.clear();
}

/// The commit-server of every remote engine (module docs, "One loop, two
/// invalidation placements").
pub(crate) fn commit_server(stm: &StmInner) {
    let hb = &stm.health[0];
    let _alive = hb.alive_guard();
    let st = &stm.server_stats;
    let mut wbf = Bloom::new();
    let mut batch = Batch {
        members: Vec::new(),
        wbf: Bloom::new(),
        rbf: Bloom::new(),
        mask: vec![0; stm.registry.len().div_ceil(64)],
        cap: if stm.inval_ts.is_empty() {
            usize::MAX
        } else {
            1
        },
    };
    let mut idle = Backoff::new();
    while !stm.servers_stopped() {
        hb.beat();
        if !pass_failpoints(
            stm,
            faults::site::SERVER_COMMIT_DEATH,
            faults::site::SERVER_COMMIT_STALL,
        ) {
            return;
        }
        ServerCounters::add(&st.scan_passes, 1);
        let mut answered = false;
        // Irrevocable-token grant point (DESIGN.md §13). No commit is in
        // flight between passes, but a lagging ring scan could still doom
        // the holder's fresh snapshot, so the grant also waits for every
        // invalidation-server; meanwhile the pass admits nothing, so the
        // precondition converges. While a holder exists only its own
        // requests are served.
        let mut holder = stm.irrevocable_holder();
        match holder {
            None => {
                if let Some(r) = token_request(stm) {
                    let t = stm.timestamp.load(Ordering::SeqCst);
                    if !stm.inval_ts.iter().all(|k| k.load(Ordering::SeqCst) >= t) {
                        idle.snooze();
                        continue;
                    }
                    if try_grant_token(stm, r) {
                        holder = Some(r);
                        answered = true;
                    }
                }
            }
            // Re-answer a grant a dead server stored but never answered
            // (idempotent across respawns).
            Some(h) => {
                if stm.registry.slot(h).request_state.load(Ordering::SeqCst) == REQ_IRREVOCABLE
                    && try_grant_token(stm, h)
                {
                    answered = true;
                }
            }
        }
        let flow = scan(
            &stm.registry,
            st,
            stm.registry.pending(),
            ScanKind::Admission,
            stm.served_word_ranges(None),
            // Token-holder exclusivity, uncounted like every index-level
            // skip.
            |i| holder.is_none_or(|h| h == i),
            |i, slot| {
                if slot.request_state.load(Ordering::SeqCst) != REQ_PENDING {
                    return ControlFlow::Continue(());
                }
                let t = stm.timestamp.load(Ordering::Relaxed);
                // Algorithm 4, line 2: the request's own invalidation-server
                // (per domain, under sharding) must have processed every
                // prior commit, or the tx_status check below would not be
                // authoritative. A lagging partition defers only its own
                // requests and does not count as progress.
                if !stm.inval_ts.is_empty()
                    && stm.inval_ts[stm.inval_server_of(i)].load(Ordering::SeqCst) < t
                {
                    return ControlFlow::Continue(());
                }
                // Algorithm 3 line 7 / Algorithm 4 line 5: no
                // invalidation-server may lag more than `steps_ahead`
                // commits, so the ring entry about to be reused has been
                // consumed. The request is still withdrawable; beating
                // keeps the *invalidator* the one the watchdog sees stall.
                let mut bk = Backoff::new();
                for k in stm.inval_ts.iter() {
                    while t.saturating_sub(k.load(Ordering::SeqCst)) > stm.steps_ahead_ts {
                        if stm.servers_stopped() {
                            return ControlFlow::Break(());
                        }
                        hb.beat();
                        bk.snooze();
                    }
                }
                // Pickup (module docs, "Fault containment"): the CAS makes
                // us the sole owner and acquires the payload; a failure
                // means the client withdrew.
                if slot
                    .request_state
                    .compare_exchange(REQ_PENDING, REQ_CLAIMED, Ordering::SeqCst, Ordering::SeqCst)
                    .is_err()
                {
                    return ControlFlow::Continue(());
                }
                // Algorithm 2 line 15 / Algorithm 3 lines 9–10, before the
                // bump (invariant 1 of the module docs).
                if slot.tx_status.load(Ordering::SeqCst) == TX_INVALIDATED {
                    stm.registry.pending().clear(i);
                    slot.request_state.store(REQ_ABORTED, Ordering::SeqCst);
                    answered = true;
                    return ControlFlow::Continue(());
                }
                // The first member's signature loads straight into the
                // batch; a later candidate's snapshot sweep also answers
                // the write-write and write-read independence tests.
                let (sig, dependent) = if batch.members.is_empty() {
                    slot.req_write_bf.load_into(&mut batch.wbf);
                    (&batch.wbf, false)
                } else {
                    let (ww, wr) = slot
                        .req_write_bf
                        .snapshot_intersect2(&mut wbf, &batch.wbf, &batch.rbf);
                    (&wbf, ww || wr || slot.read_bf.intersects_plain(&batch.wbf))
                };
                // Admission census (§13), per request so batching keeps the
                // per-commit budget; the token holder is never refused.
                if holder != Some(i) {
                    let pc = slot.priority.load(Ordering::SeqCst);
                    if let Some(inherit) = census_refusal(stm, sig, i, pc) {
                        refuse_request(stm, i, inherit);
                        answered = true;
                        return ControlFlow::Continue(());
                    }
                }
                // A dependent request serializes behind this batch on a
                // later pass: revert the claim, bit still set.
                if dependent {
                    slot.request_state.store(REQ_PENDING, Ordering::SeqCst);
                    return ControlFlow::Continue(());
                }
                stm.registry.pending().clear(i);
                if !batch.members.is_empty() {
                    batch.wbf.union_with(&wbf);
                    slot.read_bf.or_into(&mut batch.rbf);
                } else if batch.cap > 1 {
                    slot.read_bf.load_into(&mut batch.rbf);
                }
                mask_set(&mut batch.mask, i);
                batch.members.push((
                    i,
                    slot.req_ws_ptr.load(Ordering::Relaxed),
                    slot.req_ws_len.load(Ordering::Relaxed),
                ));
                if batch.members.len() == batch.cap {
                    commit_batch(stm, &mut batch);
                    answered = true;
                }
                ControlFlow::Continue(())
            },
        );
        // Claimed members must be answered even if the pass was cut short.
        if !batch.members.is_empty() {
            commit_batch(stm, &mut batch);
            answered = true;
        }
        if flow.is_break() {
            break;
        }
        if answered {
            idle.reset();
        } else {
            ServerCounters::add(&st.empty_passes, 1);
            idle.snooze();
        }
    }
}

/// Invalidation-server `k` of `stm.inval_ts.len()` (paper Algorithm 3,
/// lines 18–25). Owns the registry slots `i` with
/// `stm.inval_server_of(i) == k` — the seed's `i % num_servers == k`
/// round-robin with one domain, a domain-aligned partition otherwise, so
/// the scan below only ever touches its served domains' bitmap words.
pub(crate) fn invalidation_server(stm: &StmInner, k: usize) {
    let hb = &stm.health[1 + k];
    let _alive = hb.alive_guard();
    let mut wbf = Bloom::new();
    let mut idle = Backoff::new();
    let me = &stm.inval_ts[k];
    let ring = stm.commit_ring.len() as u64;
    let mut skip_mask: Vec<u64> = vec![0; stm.registry.len().div_ceil(64)];
    while !stm.servers_stopped() {
        hb.beat();
        if !pass_failpoints(
            stm,
            faults::site::SERVER_INVAL_DEATH,
            faults::site::SERVER_INVAL_LAG,
        ) {
            return;
        }
        let my = me.load(Ordering::Relaxed);
        // Line 20: a commit with number `my/2` is (or has been) in flight.
        if stm.timestamp.load(Ordering::SeqCst) > my {
            let ring_idx = ((my / 2) % ring) as usize;
            stm.commit_ring[ring_idx].load_into(&mut wbf);
            let requester = stm.commit_req[ring_idx].load(Ordering::Relaxed);
            fence(Ordering::SeqCst);
            // Lines 21–23: scan my partition of the live map.
            skip_mask.iter_mut().for_each(|w| *w = 0);
            let committer = if requester < stm.registry.len() {
                mask_set(&mut skip_mask, requester);
                Some(requester)
            } else {
                None
            };
            invalidate_conflicting(stm, &wbf, &skip_mask, Some(k), committer);
            // Line 24: catch up by one commit.
            me.store(my + 2, Ordering::SeqCst);
            idle.reset();
        } else {
            idle.snooze();
        }
    }
}

/// Retracts (or resolves) the calling client's posted commit request.
///
/// Returns `Some(committed)` when a server had already produced a verdict
/// — the caller must honor it, the commit may have happened. Returns
/// `None` when the request was retracted before any server claimed it (or
/// none was posted): nothing observable happened and the caller may
/// abort, retry or surface a timeout.
///
/// The `PENDING → IDLE` CAS races the servers' `PENDING → CLAIMED` pickup
/// CAS; exactly one side wins. If the server won, the claim window is
/// bounded (no unbounded waits between claim and answer; a server that
/// dies mid-claim is resolved by [`recover_inflight`]), so the `CLAIMED`
/// arm just waits the verdict out.
pub(crate) fn withdraw_request(stm: &StmInner, idx: usize) -> Option<bool> {
    let slot = stm.registry.slot(idx);
    let mut bk = Backoff::new();
    loop {
        match slot.request_state.load(Ordering::SeqCst) {
            REQ_IDLE => return None,
            // An irrevocable-token request withdraws exactly like a commit
            // request: the `→ IDLE` CAS races the server's grant answer
            // (`IRREVOCABLE → COMMITTED`), and exactly one side wins. If
            // the server won, the verdict arm below surfaces the grant and
            // the caller is responsible for releasing the token it may now
            // hold (`StmInner::release_irrevocable` is a no-op for
            // non-holders).
            state @ (REQ_PENDING | REQ_IRREVOCABLE) => {
                if slot
                    .request_state
                    .compare_exchange(state, REQ_IDLE, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    // Won the race: no server ever owned this request.
                    // Clearing the summary bit is normally the server's
                    // job at pickup; here the withdrawal is the pickup.
                    stm.registry.pending().clear(idx);
                    slot.req_ws_ptr
                        .store(std::ptr::null_mut(), Ordering::Relaxed);
                    slot.req_ws_len.store(0, Ordering::Relaxed);
                    ServerCounters::add(&stm.server_stats.withdrawn_requests, 1);
                    return None;
                }
                // Lost to a concurrent claim; loop to read the new state.
            }
            REQ_CLAIMED => bk.snooze(),
            verdict => {
                debug_assert!(verdict == REQ_COMMITTED || verdict == REQ_ABORTED);
                slot.req_ws_ptr
                    .store(std::ptr::null_mut(), Ordering::Relaxed);
                slot.req_ws_len.store(0, Ordering::Relaxed);
                slot.request_state.store(REQ_IDLE, Ordering::SeqCst);
                return Some(verdict == REQ_COMMITTED);
            }
        }
    }
}

/// Answers every still-`PENDING` request with `ABORTED`. Runs when no
/// server will ever pick the requests up: at degradation, and as the final
/// sweep of `Stm::drop` after the servers joined. Claims each request with
/// the same CAS the servers use, so a concurrent client withdrawal stays
/// race-free (exactly one side owns the request).
pub(crate) fn drain_requests_abort(stm: &StmInner) {
    let _ = scan(
        &stm.registry,
        &stm.server_stats,
        stm.registry.pending(),
        ScanKind::Quiet,
        stm.served_word_ranges(None),
        |_| true,
        |i, slot| {
            // Token requests are drained too (direct `IRREVOCABLE →
            // ABORTED`; no server claims them, so no CLAIMED intermediate
            // is needed) — a client spinning for a grant no server will
            // ever issue must be woken just like one spinning for a commit
            // verdict.
            if slot
                .request_state
                .compare_exchange(REQ_PENDING, REQ_CLAIMED, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
                || slot
                    .request_state
                    .compare_exchange(
                        REQ_IRREVOCABLE,
                        REQ_CLAIMED,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_ok()
            {
                stm.registry.pending().clear(i);
                slot.request_state.store(REQ_ABORTED, Ordering::SeqCst);
                ServerCounters::add(&stm.server_stats.drained_requests, 1);
            }
            ControlFlow::Continue(())
        },
    );
}

/// Re-derives a consistent protocol state after a commit-server died with
/// requests claimed (module docs, "Fault containment").
///
/// * Timestamp **odd**: the claimed slots are an admitted commit whose
///   write-back may be partial. Partial write-back cannot be undone — but
///   it also was not observed (readers spin while the timestamp is odd) —
///   so the commit is *completed*: merged invalidation scan (idempotent:
///   `ALIVE → INVALIDATED` CAS only), full write-back (idempotent: same
///   values), release the timestamp, answer `COMMITTED`. Under V2/V3 the
///   dead server had already published the ring slot before bumping, so
///   the inline invalidation here merely duplicates what the
///   invalidation-servers will (idempotently) do as they catch up.
/// * Timestamp **even**: nothing of any claimed request was published;
///   answer `ABORTED` and let the clients retry.
///
/// Must only run while no commit-server is running (between a detected
/// death and the respawn, or after `Stm::drop` joined the servers) — it
/// takes over the dead server's role as the timestamp's sole writer.
pub(crate) fn recover_inflight(stm: &StmInner) {
    let t = stm.timestamp.load(Ordering::SeqCst);
    let claimed: Vec<usize> = stm
        .registry
        .iter()
        .filter(|(_, s)| s.request_state.load(Ordering::SeqCst) == REQ_CLAIMED)
        .map(|(i, _)| i)
        .collect();
    if t & 1 == 1 {
        let mut merged = Bloom::new();
        let mut mask: Vec<u64> = vec![0; stm.registry.len().div_ceil(64)];
        for &i in &claimed {
            stm.registry.slot(i).req_write_bf.or_into(&mut merged);
            mask_set(&mut mask, i);
        }
        fence(Ordering::SeqCst);
        invalidate_conflicting(stm, &merged, &mask, None, None);
        for &i in &claimed {
            let slot = stm.registry.slot(i);
            let ptr = slot.req_ws_ptr.load(Ordering::Relaxed);
            let len = slot.req_ws_len.load(Ordering::Relaxed);
            // Release below is `t + 1` (t is odd here); a re-run after a
            // partial write-back appends duplicate `(t + 1, value)` ring
            // entries, which the snapshot scan resolves identically.
            unsafe { write_back(stm, ptr, len, t + 1) };
        }
        // Release the seqlock even if the claimed set was empty (a server
        // that died after bumping but before claiming anything — not
        // reachable through the built-in failpoints, but cheap to cover).
        stm.timestamp.store(t + 1, Ordering::SeqCst);
        for &i in &claimed {
            stm.registry.pending().clear(i);
            stm.registry
                .slot(i)
                .request_state
                .store(REQ_COMMITTED, Ordering::SeqCst);
        }
    } else {
        for &i in &claimed {
            stm.registry.pending().clear(i);
            stm.registry
                .slot(i)
                .request_state
                .store(REQ_ABORTED, Ordering::SeqCst);
            ServerCounters::add(&stm.server_stats.drained_requests, 1);
        }
    }
}

/// Switches the instance to serverless operation (one-way). Remote engines
/// resolve to InvalSTM from the next attempt on
/// (`StmInner::effective_algo`); surviving servers observe the flag and
/// exit; requests no server will ever answer are aborted so their waiting
/// clients resume.
pub(crate) fn degrade(stm: &StmInner) {
    if stm.degraded.swap(true, Ordering::SeqCst) {
        return;
    }
    ServerCounters::add(&stm.server_stats.degradations, 1);
    drain_requests_abort(stm);
}

/// Whether `seat` has work outstanding — the gate that distinguishes a
/// *stalled* server (silent with work to do) from an *idle* one (silent
/// because there is nothing to do). An idle server spins for about
/// 0.6 µs and then yields once per pass, beating each time, so on a free
/// core it beats constantly; on a busy host a yield can hand the core
/// away for a whole scheduler slice, so silence alone does not mean
/// stalled.
fn seat_busy(stm: &StmInner, seat: usize) -> bool {
    if seat == 0 {
        stm.registry.pending().any_set() || stm.timestamp.load(Ordering::SeqCst) & 1 == 1
    } else {
        stm.timestamp.load(Ordering::SeqCst) > stm.inval_ts[seat - 1].load(Ordering::SeqCst)
    }
}

/// A server seat, for (re)spawning: seat 0 is the commit-server, seat
/// `1 + k` is invalidation-server `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ServerRole {
    /// The commit-server ([`commit_server`], for every remote engine).
    Commit,
    /// Invalidation-server `k` (V2/V3 only).
    Inval(usize),
}

/// Best-effort pin of the calling thread to `cpus`. Only does anything on
/// Linux with the `affinity` feature enabled; elsewhere (and for an empty
/// CPU list — e.g. [`crate::Topology::logical`] domains, which carry no
/// CPU ids) it is a no-op. Failure is ignored: affinity is advisory, the
/// protocol never depends on placement.
#[cfg(all(feature = "affinity", target_os = "linux"))]
fn pin_to_cpus(cpus: &[usize]) {
    if cpus.is_empty() {
        return;
    }
    // glibc's cpu_set_t is 1024 bits; build the mask directly and call the
    // already-linked libc symbol rather than pulling in a binding crate.
    let mut set = [0u64; 16];
    for &c in cpus {
        if c < 1024 {
            set[c / 64] |= 1 << (c % 64);
        }
    }
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // pid 0 targets the calling thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr());
    }
}

#[cfg(not(all(feature = "affinity", target_os = "linux")))]
fn pin_to_cpus(_cpus: &[usize]) {}

/// Spawns the server thread for `role`, returning its join handle (or the
/// spawn error, which the watchdog treats as grounds for degradation).
///
/// Seats are placed near the domain they serve: the commit-server on
/// domain 0, invalidation-server `k` on domain `k % num_domains` — the
/// first domain `served_domains(k)` yields. Watchdog respawns come back
/// through here, so a respawned seat lands in the same domain.
pub(crate) fn spawn_server(
    stm: &Arc<StmInner>,
    role: ServerRole,
) -> std::io::Result<JoinHandle<()>> {
    let i = Arc::clone(stm);
    match role {
        ServerRole::Commit => std::thread::Builder::new()
            .name("rinval-commit".into())
            .spawn(move || {
                pin_to_cpus(i.topology.cpus(0));
                commit_server(&i)
            }),
        ServerRole::Inval(k) => std::thread::Builder::new()
            .name(format!("rinval-inval-{k}"))
            .spawn(move || {
                pin_to_cpus(i.topology.cpus(k % i.topology.num_domains()));
                invalidation_server(&i, k)
            }),
    }
}

/// The supervisor loop (thread `rinval-watchdog`): polls every server
/// seat's [`crate::sync::Heartbeat`] each `interval`.
///
/// * **Dead** (alive flag down — the thread returned or unwound): run
///   [`recover_inflight`] if it was the commit-server, then respawn the
///   seat — up to `max_respawns` times across the instance's lifetime,
///   after which (or if a respawn fails, or the respawned thread never
///   checks in) the instance degrades.
/// * **Stalled** (alive but not beating while [`seat_busy`]): after
///   `stall_checks` consecutive silent polls, degrade. A stalled server
///   cannot be respawned — running two commit-servers would mean two
///   writers of the global timestamp — so degradation is the only safe
///   repair; the stuck thread exits on its own if it ever wakes (every
///   loop re-checks the `degraded` flag before touching protocol state).
///
/// Respawned threads are owned (joined) by the watchdog; the original
/// seats stay owned by `Stm::drop`.
pub(crate) fn watchdog(stm: Arc<StmInner>) {
    let cfg = stm.watchdog;
    let seats = stm.health.len();
    let mut last = vec![0u64; seats];
    let mut misses = vec![0u32; seats];
    let mut respawns_left = cfg.max_respawns;
    let mut children: Vec<JoinHandle<()>> = Vec::new();
    // Wait for the initial threads to check in before supervising, so a
    // slow spawn is not mistaken for a death (which would fork a second
    // commit-server). A seat counts as checked in if it is alive *or* has
    // beaten at least once: every server beats before its pass-top
    // failpoints, so a seat that came up and promptly died to an injected
    // fault is handed to the supervise loop below as a death rather than
    // stranding this phase until its timeout. A seat that never comes up
    // at all degrades the instance.
    let t0 = Instant::now();
    for (s, hb) in stm.health.iter().enumerate() {
        while !hb.is_alive() && hb.beats() == 0 {
            if stm.servers_stopped() {
                return;
            }
            if t0.elapsed() > Duration::from_secs(5) {
                degrade(&stm);
                return;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        last[s] = hb.beats();
    }
    'supervise: while !stm.servers_stopped() {
        std::thread::sleep(cfg.interval);
        // `server.watchdog.skip`: Fail skips this supervision round (a
        // blind watchdog — deaths in the window go unnoticed until the
        // next round), Delay models a descheduled watchdog, Panic kills
        // supervision outright.
        match stm.faults.hit(faults::site::SERVER_WATCHDOG_SKIP) {
            Some(FaultAction::Fail) => continue 'supervise,
            Some(FaultAction::Delay(d)) => std::thread::sleep(d),
            Some(FaultAction::Panic) => {
                panic!("failpoint {}", faults::SITE_NAMES[faults::site::SERVER_WATCHDOG_SKIP])
            }
            _ => {}
        }
        for seat in 0..seats {
            if stm.servers_stopped() {
                break 'supervise;
            }
            let hb = &stm.health[seat];
            if !hb.is_alive() {
                if respawns_left == 0 {
                    if seat == 0 {
                        recover_inflight(&stm);
                    }
                    degrade(&stm);
                    break 'supervise;
                }
                respawns_left -= 1;
                ServerCounters::add(&stm.server_stats.respawns, 1);
                if seat == 0 {
                    // No commit-server is running: resolve whatever the
                    // dead one left claimed so the replacement starts from
                    // a consistent state and never re-invalidates a
                    // committed write-back.
                    recover_inflight(&stm);
                }
                let role = if seat == 0 {
                    ServerRole::Commit
                } else {
                    ServerRole::Inval(seat - 1)
                };
                let before = hb.beats();
                let up = match spawn_server(&stm, role) {
                    Ok(h) => {
                        children.push(h);
                        let t0 = Instant::now();
                        // Same check-in rule as the startup phase: beats
                        // progress counts even if the replacement has
                        // already died again (the next poll re-detects the
                        // death and the respawn budget drains normally).
                        while !hb.is_alive()
                            && hb.beats() == before
                            && !stm.servers_stopped()
                            && t0.elapsed() < Duration::from_millis(500)
                        {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        hb.is_alive() || hb.beats() != before
                    }
                    Err(_) => false,
                };
                if !up && !stm.servers_stopped() {
                    degrade(&stm);
                    break 'supervise;
                }
                last[seat] = hb.beats();
                misses[seat] = 0;
            } else {
                let now = hb.beats();
                if now != last[seat] || !seat_busy(&stm, seat) {
                    last[seat] = now;
                    misses[seat] = 0;
                } else {
                    misses[seat] += 1;
                    ServerCounters::add(&stm.server_stats.heartbeat_misses, 1);
                    if misses[seat] >= cfg.stall_checks {
                        degrade(&stm);
                        break 'supervise;
                    }
                }
            }
        }
    }
    for c in children {
        let _ = c.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlgorithmKind, Stm};

    /// Server-less inner state of a remote kind: the protocol words and
    /// registry exist, but no threads run — the tests below drive the
    /// recovery paths by hand.
    fn inner_v1() -> Arc<StmInner> {
        Stm::builder(AlgorithmKind::RInvalV1).build_inner()
    }

    #[test]
    fn drain_aborts_pending_requests() {
        let inner = inner_v1();
        let idx = inner.registry.claim().unwrap();
        let slot = inner.registry.slot(idx);
        slot.request_state.store(REQ_PENDING, Ordering::SeqCst);
        inner.registry.pending().set(idx);

        drain_requests_abort(&inner);

        assert_eq!(slot.request_state.load(Ordering::SeqCst), REQ_ABORTED);
        assert!(!inner.registry.pending().get(idx));
        assert_eq!(inner.server_stats.snapshot().drained_requests, 1);
        inner.registry.release(idx);
    }

    #[test]
    fn withdraw_retracts_pending_and_honors_verdicts() {
        let inner = inner_v1();
        let idx = inner.registry.claim().unwrap();
        let slot = inner.registry.slot(idx);

        // Nothing posted.
        assert_eq!(withdraw_request(&inner, idx), None);

        // Posted, unclaimed: retracted.
        slot.request_state.store(REQ_PENDING, Ordering::SeqCst);
        inner.registry.pending().set(idx);
        assert_eq!(withdraw_request(&inner, idx), None);
        assert_eq!(slot.request_state.load(Ordering::SeqCst), REQ_IDLE);
        assert!(!inner.registry.pending().get(idx));
        assert_eq!(inner.server_stats.snapshot().withdrawn_requests, 1);

        // Verdict already produced: taken, not discarded.
        slot.request_state.store(REQ_COMMITTED, Ordering::SeqCst);
        assert_eq!(withdraw_request(&inner, idx), Some(true));
        assert_eq!(slot.request_state.load(Ordering::SeqCst), REQ_IDLE);
        slot.request_state.store(REQ_ABORTED, Ordering::SeqCst);
        assert_eq!(withdraw_request(&inner, idx), Some(false));
        inner.registry.release(idx);
    }

    #[test]
    fn recover_even_timestamp_aborts_claimed() {
        let inner = inner_v1();
        let idx = inner.registry.claim().unwrap();
        let slot = inner.registry.slot(idx);
        slot.request_state.store(REQ_CLAIMED, Ordering::SeqCst);

        recover_inflight(&inner);

        assert_eq!(slot.request_state.load(Ordering::SeqCst), REQ_ABORTED);
        assert_eq!(inner.timestamp.load(Ordering::SeqCst), 0);
        inner.registry.release(idx);
    }

    #[test]
    fn recover_odd_timestamp_completes_commit() {
        let inner = inner_v1();
        let h = inner.heap.alloc(1).unwrap();

        // A claimed committer mid-write-back…
        let idx = inner.registry.claim().unwrap();
        let slot = inner.registry.slot(idx);
        let entries = [WriteEntry {
            addr: h.addr(),
            val: 42,
        }];
        let mut wbf = Bloom::new();
        wbf.insert(h.addr());
        slot.req_write_bf.store_from(&wbf);
        slot.req_ws_ptr
            .store(entries.as_ptr() as *mut _, Ordering::Relaxed);
        slot.req_ws_len.store(entries.len(), Ordering::Relaxed);
        slot.request_state.store(REQ_CLAIMED, Ordering::SeqCst);

        // …a live reader of the written word…
        let rd = inner.registry.claim().unwrap();
        inner.registry.begin(rd, 0);
        inner.registry.slot(rd).read_bf.owner_insert(h.addr());

        // …and a server that died inside the odd phase.
        inner.timestamp.store(1, Ordering::SeqCst);
        recover_inflight(&inner);

        assert_eq!(inner.timestamp.load(Ordering::SeqCst), 2);
        assert_eq!(slot.request_state.load(Ordering::SeqCst), REQ_COMMITTED);
        assert_eq!(inner.heap.load(h), 42);
        assert_eq!(
            inner.registry.slot(rd).tx_status.load(Ordering::SeqCst),
            TX_INVALIDATED
        );

        slot.request_state.store(REQ_IDLE, Ordering::SeqCst);
        slot.req_ws_ptr
            .store(std::ptr::null_mut(), Ordering::Relaxed);
        inner.registry.end(rd);
        inner.registry.release(rd);
        inner.registry.release(idx);
    }

    #[test]
    fn degrade_is_one_way_and_drains() {
        let inner = inner_v1();
        let idx = inner.registry.claim().unwrap();
        let slot = inner.registry.slot(idx);
        slot.request_state.store(REQ_PENDING, Ordering::SeqCst);
        inner.registry.pending().set(idx);

        degrade(&inner);
        degrade(&inner); // second call is a no-op

        assert!(inner.degraded.load(Ordering::SeqCst));
        assert_eq!(slot.request_state.load(Ordering::SeqCst), REQ_ABORTED);
        let s = inner.server_stats.snapshot();
        assert_eq!(s.degradations, 1);
        assert_eq!(s.drained_requests, 1);
        inner.registry.release(idx);
    }

    #[test]
    fn grant_token_over_slot_protocol() {
        let inner = inner_v1();
        let idx = inner.registry.claim().unwrap();
        let slot = inner.registry.slot(idx);
        slot.request_state.store(REQ_IRREVOCABLE, Ordering::SeqCst);
        inner.registry.pending().set(idx);

        assert_eq!(token_request(&inner), Some(idx));
        assert!(try_grant_token(&inner, idx));
        assert_eq!(inner.irrevocable_holder(), Some(idx));
        assert_eq!(slot.request_state.load(Ordering::SeqCst), REQ_COMMITTED);
        assert!(!inner.registry.pending().get(idx));
        assert_eq!(inner.server_stats.snapshot().irrevocable_grants, 1);

        // The grant is the verdict the client takes over the usual path.
        assert_eq!(withdraw_request(&inner, idx), Some(true));
        inner.release_irrevocable(idx);
        assert_eq!(inner.irrevocable_holder(), None);
        inner.registry.release(idx);
    }

    #[test]
    fn grant_rolls_back_when_client_withdrew() {
        let inner = inner_v1();
        let idx = inner.registry.claim().unwrap();
        let slot = inner.registry.slot(idx);
        slot.request_state.store(REQ_IRREVOCABLE, Ordering::SeqCst);
        inner.registry.pending().set(idx);

        // Client hit its deadline and retracted before the server's
        // answer landed.
        assert_eq!(withdraw_request(&inner, idx), None);
        assert!(!try_grant_token(&inner, idx));
        assert_eq!(inner.irrevocable_holder(), None);
        assert_eq!(inner.server_stats.snapshot().irrevocable_grants, 0);
        inner.registry.release(idx);
    }

    #[test]
    fn token_request_prefers_priority_then_index() {
        let inner = inner_v1();
        let a = inner.registry.claim().unwrap();
        let b = inner.registry.claim().unwrap();
        for &i in &[a, b] {
            inner
                .registry
                .slot(i)
                .request_state
                .store(REQ_IRREVOCABLE, Ordering::SeqCst);
            inner.registry.pending().set(i);
        }
        // Equal priority: the lower index precedes.
        assert_eq!(token_request(&inner), Some(a.min(b)));
        // A strictly higher priority beats the index tiebreak.
        let hi = a.max(b);
        inner.registry.slot(hi).priority.store(7, Ordering::SeqCst);
        assert_eq!(token_request(&inner), Some(hi));

        for &i in &[a, b] {
            inner
                .registry
                .slot(i)
                .request_state
                .store(REQ_IDLE, Ordering::SeqCst);
            inner.registry.pending().clear(i);
            inner.registry.release(i);
        }
    }

    #[test]
    fn drain_aborts_token_requests() {
        let inner = inner_v1();
        let idx = inner.registry.claim().unwrap();
        let slot = inner.registry.slot(idx);
        slot.request_state.store(REQ_IRREVOCABLE, Ordering::SeqCst);
        inner.registry.pending().set(idx);

        drain_requests_abort(&inner);

        assert_eq!(slot.request_state.load(Ordering::SeqCst), REQ_ABORTED);
        assert!(!inner.registry.pending().get(idx));
        assert_eq!(inner.irrevocable_holder(), None);
        inner.registry.release(idx);
    }

    #[test]
    fn census_gate_skips_scan_without_aged_priorities() {
        // CommitterWins + zero ceiling: no refusal, regardless of victims.
        let inner = inner_v1();
        let rd = inner.registry.claim().unwrap();
        let h = inner.heap.alloc(1).unwrap();
        inner.registry.begin(rd, 0);
        inner.registry.slot(rd).read_bf.owner_insert(h.addr());
        let mut wbf = Bloom::new();
        wbf.insert(h.addr());

        let c = inner.registry.claim().unwrap();
        assert_eq!(census_refusal(&inner, &wbf, c, 0), None);

        // Once a victim has aged past the committer, the same commit is
        // refused and the refusal hands back a strictly greater priority.
        inner.registry.slot(rd).priority.store(5, Ordering::SeqCst);
        inner.note_priority(5);
        assert_eq!(census_refusal(&inner, &wbf, c, 0), Some(6));
        // …but the aged side itself (as committer) is never refused by a
        // lower-priority reader: it is the order's local maximum.
        assert_eq!(census_refusal(&inner, &wbf, c, 6), None);

        inner.registry.end(rd);
        inner.registry.release(rd);
        inner.registry.release(c);
    }
}
