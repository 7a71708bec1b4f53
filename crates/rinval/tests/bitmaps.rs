//! V1 commit-batching tests.
//!
//! With inline invalidation the commit-server admits every pending request
//! that is fully independent of the batch so far and commits the batch
//! under one timestamp bump; these tests pin down what that may and may
//! not merge. The summary-bitmap coherence stress test lives in the root
//! package (`tests/pending_bits.rs`) so the tier-1 suite runs it.

use rinval::{AlgorithmKind, Stm, TxResult};

/// Disjoint write-sets from many V1 clients must all land, and every
/// committed request must have been answered through a batch.
#[test]
fn v1_batched_disjoint_commits_all_land() {
    const CLIENTS: usize = 8;
    const OPS: u64 = 200;
    let stm = Stm::builder(AlgorithmKind::RInvalV1)
        .heap_words(1 << 12)
        .max_threads(16)
        .build();
    let arr = stm.alloc(CLIENTS);
    let stm_ref = &stm;

    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            s.spawn(move || {
                let mut th = stm_ref.register_thread();
                let mine = arr.field(c as u32);
                for _ in 0..OPS {
                    th.run(|tx| {
                        let v = tx.read(mine)?;
                        tx.write(mine, v + 1)
                    });
                }
            });
        }
    });

    for c in 0..CLIENTS {
        assert_eq!(stm.peek(arr.field(c as u32)), OPS, "client {c} lost writes");
    }
    let stats = stm.server_stats();
    // Every write commit is answered through a batch (of size >= 1).
    assert_eq!(stats.batched_requests, (CLIENTS as u64) * OPS);
    assert!(stats.batches >= 1 && stats.batches <= stats.batched_requests);
    assert!(stats.mean_batch_size() >= 1.0);
    // The batch phase costs one timestamp bump pair per *batch*, not per
    // request.
    assert_eq!(stm.timestamp(), 2 * stats.batches);
}

/// Conflicting write-sets must serialize: concurrent read-modify-write
/// transactions on one counter may never lose an increment (a batch that
/// wrongly admitted two dependent requests would).
#[test]
fn v1_conflicting_commits_serialize() {
    const CLIENTS: usize = 4;
    const OPS: u64 = 300;
    let stm = Stm::builder(AlgorithmKind::RInvalV1)
        .heap_words(256)
        .max_threads(8)
        .build();
    let counter = stm.alloc_init(&[0]);
    let stm_ref = &stm;

    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(move || {
                let mut th = stm_ref.register_thread();
                for _ in 0..OPS {
                    th.run(|tx| {
                        let v = tx.read(counter)?;
                        tx.write(counter, v + 1)
                    });
                }
            });
        }
    });

    assert_eq!(stm.peek(counter), (CLIENTS as u64) * OPS);
}

/// Deterministic read-write dependency: a transaction that read what a
/// batch wrote must be aborted by that batch, not committed alongside it.
#[test]
fn v1_read_write_dependent_requests_do_not_merge() {
    let stm = Stm::builder(AlgorithmKind::RInvalV1)
        .heap_words(256)
        .build();
    let x = stm.alloc_init(&[1]);
    let y = stm.alloc_init(&[0]);
    let mut th1 = stm.register_thread();
    let mut th2 = stm.register_thread();

    // th1 reads x, then th2 commits a write to x (a complete batch), then
    // th1 tries to commit a write to y derived from the stale x.
    let r: TxResult<()> = th1.try_run(1, |tx| {
        let v = tx.read(x)?;
        th2.run(|tx2| {
            let cur = tx2.read(x)?;
            tx2.write(x, cur + 10)
        });
        tx.write(y, v * 100)
    });
    assert!(r.is_err(), "stale read-write dependency committed");
    assert_eq!(stm.peek(x), 11);
    assert_eq!(stm.peek(y), 0);
}

/// The scan counters actually expose the bitmap win: with at most a
/// handful of live transactions in a large registry, visited slots per
/// pass must be far below the registry capacity.
#[test]
fn scan_counters_show_sparse_visits() {
    let stm = Stm::builder(AlgorithmKind::RInvalV1)
        .heap_words(256)
        .max_threads(128)
        .build();
    let x = stm.alloc_init(&[0]);
    let mut th = stm.register_thread();
    for _ in 0..100 {
        th.run(|tx| {
            let v = tx.read(x)?;
            tx.write(x, v + 1)
        });
    }
    drop(th);
    let stats = stm.server_stats();
    assert!(stats.scan_passes > 0);
    // One client: each pass visits at most one pending slot, against a
    // 128-slot full walk.
    assert!(
        stats.visited_per_pass() <= 2.0,
        "visited/pass {} is not sparse",
        stats.visited_per_pass()
    );
    assert!(stats.full_scan_equivalent(stm.registry_len()) >= 128 * stats.scan_passes);
    // Invalidation scans visited only live slots (here: nobody but the
    // committer, which is skipped), never the whole registry.
    assert!(stats.inval_slots_visited <= stats.inval_scans + stats.census_scans);
}
