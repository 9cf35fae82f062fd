//! Bounded model-checking battery over parlo's hot lock-free primitives.
//!
//! Exhaustively enumerates thread interleavings (up to the preemption bound)
//! of small closed programs built from the *real* shipped primitives — the
//! Chase–Lev chunk deque (and the lazy-splitting piece hand-off over it), the
//! centralized release/join half-barrier pair, the park hub, the trace event
//! ring and the serve completion hand-off — and
//! checks every interleaving for data races (vector-clock happens-before over
//! the declared orderings), deadlocks and lost wakeups.
//!
//! Build and run with the model cfg (plain `cargo test` skips this file):
//!
//! ```sh
//! RUSTFLAGS="--cfg parlo_model" cargo test -p parlo --no-default-features --test model_battery
//! ```
//!
//! The mutation self-test at the bottom weakens one `Release` store to
//! `Relaxed` in a distilled copy of the deque's publication protocol and
//! asserts the checker reports the race — evidence that a green battery means
//! the orderings are load-bearing, not that the checker is blind.

#![cfg(parlo_model)]

use parlo_barrier::{wake_parked, CentralizedJoin, CentralizedRelease, WaitMode, WaitPolicy};
use parlo_serve::completion_pair;
use parlo_steal::{ChunkDeque, ChunkRange, Steal};
use parlo_sync::model;
use parlo_sync::thread;
use parlo_sync::{fence, AtomicBool, AtomicIsize, Ordering, UnsafeCell};
use parlo_trace::{EventKind, EventRing, Phase};
use std::sync::Arc;

/// Exactly-once chunk delivery: two pre-filled chunks, the owner pops once
/// while a thief drains from the top.  In every interleaving each chunk is
/// obtained by exactly one side, and the deque's internal slot cells stay
/// race-free (push's `Release` on `bottom` is the only publisher).
#[test]
fn chunk_handoff_owner_vs_thief_exactly_once() {
    let report = model::Builder::new().check(|| {
        let d = Arc::new(ChunkDeque::new(4));
        let c0 = ChunkRange { start: 0, end: 10 };
        let c1 = ChunkRange { start: 10, end: 20 };
        // SAFETY: this thread is the deque's owner; the thief only steals.
        unsafe {
            d.push(c0).unwrap();
            d.push(c1).unwrap();
        }
        let d2 = Arc::clone(&d);
        let thief = thread::spawn(move || {
            let mut got = Vec::new();
            loop {
                match d2.steal() {
                    Steal::Success(c) => got.push(c),
                    // A failed CAS means the other side took that chunk;
                    // the next round observes the new top.
                    Steal::Retry => {}
                    Steal::Empty => break,
                }
            }
            got
        });
        // SAFETY: this thread is the deque's owner.
        let popped = unsafe { d.pop() };
        let mut all = thief.join().unwrap();
        all.extend(popped);
        all.sort_by_key(|c| c.start);
        assert_eq!(all, vec![c0, c1], "every chunk delivered exactly once");
    });
    assert!(report.complete, "exploration must be exhaustive");
}

/// The classic Chase–Lev razor edge: owner pop races a thief's steal for the
/// single last chunk.  The `top` CAS must arbitrate to exactly one winner in
/// every interleaving — zero winners loses a chunk, two duplicate it.
#[test]
fn last_chunk_steal_vs_pop_has_one_winner() {
    let report = model::Builder::new().check(|| {
        let d = Arc::new(ChunkDeque::new(2));
        let c = ChunkRange { start: 7, end: 9 };
        // SAFETY: this thread is the deque's owner.
        unsafe { d.push(c).unwrap() };
        let d2 = Arc::clone(&d);
        let thief = thread::spawn(move || match d2.steal() {
            Steal::Success(got) => {
                assert_eq!(got, c);
                true
            }
            // Retry = lost the CAS to the owner; Empty = owner already won.
            Steal::Retry | Steal::Empty => false,
        });
        // SAFETY: this thread is the deque's owner.
        let mine = unsafe { d.pop() };
        if let Some(got) = mine {
            assert_eq!(got, c);
        }
        let stolen = thief.join().unwrap();
        assert_eq!(
            usize::from(mine.is_some()) + usize::from(stolen),
            1,
            "exactly one side obtains the last chunk"
        );
    });
    assert!(report.complete, "exploration must be exhaustive");
}

/// Publication *through* the deque: the owner writes a payload cell and then
/// pushes concurrently with the thief's bounded steal attempts.  When a steal
/// succeeds, the only happens-before edge covering the payload read is the
/// push's `Release` store of `bottom` paired with steal's `Acquire` load —
/// exactly the edge the mutation self-test below knocks out.
#[test]
fn deque_publication_chain_is_race_free() {
    let report = model::Builder::new().check(|| {
        let d = Arc::new(ChunkDeque::new(2));
        let payload = Arc::new(UnsafeCell::new(0u64));
        let (d2, p2) = (Arc::clone(&d), Arc::clone(&payload));
        let thief = thread::spawn(move || {
            // Bounded attempts: some interleavings never observe the push,
            // which is fine — the racy ones are what we are exploring.
            for _ in 0..4 {
                if let Steal::Success(c) = d2.steal() {
                    // SAFETY: reading the payload the owner published before
                    // pushing this chunk; the model verifies the edge.
                    let v = p2.with(|p| unsafe { *p });
                    assert_eq!((c.start, v), (3, 41), "payload published with its chunk");
                    return true;
                }
            }
            false
        });
        // SAFETY: the thief only reads this cell after stealing the chunk
        // pushed below, which happens-after this write.
        payload.with_mut(|p| unsafe { *p = 41 });
        // SAFETY: this thread is the deque's owner.
        unsafe { d.push(ChunkRange { start: 3, end: 4 }).unwrap() };
        let _ = thief.join().unwrap();
    });
    assert!(report.complete, "exploration must be exhaustive");
}

/// Lazy binary splitting's hand-off.  The owner runs a stolen range `[0, 4)` with
/// an empty deque, so before its first iteration it pushes the back half `[2, 4)`
/// as a piece and keeps `[0, 2)`; after its half it pops, and splits a piece it
/// gets back the same way.  A thief makes two steal attempts meanwhile.  In every
/// interleaving each iteration is claimed by exactly one side, exactly once.
#[test]
fn split_piece_handoff_claims_every_iteration_once() {
    let report = model::Builder::new().check(|| {
        let d = Arc::new(ChunkDeque::new(4));
        let d2 = Arc::clone(&d);
        let thief = thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..2 {
                if let Steal::Success(c) = d2.steal() {
                    got.extend(c.start..c.end);
                }
            }
            got
        });
        let mut mine = Vec::new();
        let mut range = ChunkRange { start: 0, end: 4 };
        loop {
            while range.start < range.end {
                if range.len() >= 2 && d.is_empty() {
                    let mid = range.start + range.len() / 2;
                    let piece = ChunkRange {
                        start: mid,
                        end: range.end,
                    };
                    // SAFETY: this thread is the deque's owner.
                    unsafe { d.push(piece).unwrap() };
                    range.end = mid;
                }
                mine.push(range.start);
                range.start += 1;
            }
            // SAFETY: this thread is the deque's owner.
            match unsafe { d.pop() } {
                Some(piece) => range = piece,
                None => break,
            }
        }
        let mut all = thief.join().unwrap();
        all.extend(mine);
        all.sort_unstable();
        assert_eq!(
            all,
            vec![0, 1, 2, 3],
            "every iteration claimed exactly once"
        );
    });
    assert!(report.complete, "exploration must be exhaustive");
}

/// Two full release→work→join epochs of the centralized half-barrier pair
/// with real payload traffic: the master broadcasts an input cell, workers
/// write per-worker result cells and arrive.  Verifies `signal`/`wait` and
/// `arrive`/`wait_all` publish everything — including the `AcqRel → Release`
/// downgrade on [`CentralizedJoin::arrive`] — and that counter reuse across
/// epochs never lets a stale read through.
#[test]
fn barrier_release_join_two_epoch_cycle() {
    let report = model::Builder::new().preemption_bound(Some(2)).check(|| {
        let release = Arc::new(CentralizedRelease::new());
        let join = Arc::new(CentralizedJoin::new(2));
        let input = Arc::new(UnsafeCell::new(0u64));
        let results = Arc::new([UnsafeCell::new(0u64), UnsafeCell::new(0u64)]);
        let spin = WaitPolicy::dedicated();
        let workers: Vec<_> = (0..2u64)
            .map(|w| {
                let (release, join) = (Arc::clone(&release), Arc::clone(&join));
                let (input, results) = (Arc::clone(&input), Arc::clone(&results));
                thread::spawn(move || {
                    for epoch in 1..=2u64 {
                        release.wait(epoch, &spin);
                        // SAFETY: the master wrote `input` before signalling
                        // this epoch; `wait`'s Acquire load publishes it.
                        let x = input.with(|p| unsafe { *p });
                        // SAFETY: this worker is the cell's only writer, and
                        // the master reads it only after `wait_all`.
                        results[w as usize].with_mut(|p| unsafe { *p = x + w + 1 });
                        join.arrive();
                    }
                })
            })
            .collect();
        for epoch in 1..=2u64 {
            // SAFETY: workers of the previous epoch have all arrived
            // (wait_all below), and this epoch's workers read only after
            // the signal that follows this write.
            input.with_mut(|p| unsafe { *p = epoch * 10 });
            release.signal(epoch);
            join.wait_all(epoch, &spin);
            for w in 0..2u64 {
                // SAFETY: every worker arrived for this epoch; arrive's
                // Release publishes the result writes to wait_all's Acquire.
                let r = results[w as usize].with(|p| unsafe { *p });
                assert_eq!(r, epoch * 10 + w + 1, "epoch {epoch} worker {w}");
            }
        }
        for h in workers {
            h.join().unwrap();
        }
    });
    assert!(report.complete, "exploration must be exhaustive");
}

/// The park hub's sleep/notify handshake: a waiter with zero spin and yield
/// budgets goes straight to the condvar park while the signaller stores the
/// flag and calls [`wake_parked`].  Under the model a condvar wait never
/// times out, so the timed backstop cannot mask a lost wakeup — any
/// interleaving in which the waiter sleeps through the wake is reported as a
/// deadlock.
#[test]
fn park_wait_never_loses_the_wake() {
    let report = model::Builder::new().check(|| {
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        let waiter = thread::spawn(move || {
            WaitPolicy {
                mode: WaitMode::Park,
                spins_before_yield: 0,
                yields_before_park: 0,
            }
            .wait_until(|| f2.load(Ordering::Acquire));
        });
        flag.store(true, Ordering::Release);
        wake_parked();
        waiter.join().unwrap();
    });
    assert!(report.complete, "exploration must be exhaustive");
}

/// The trace ring at the overwrite boundary: capacity 2, three records, one
/// concurrent reader.  A racing snapshot must stay bounded and decodable
/// (stale is fine, garbage is not); the quiescent snapshot afterwards must
/// report exactly one overwritten event and keep the newest two in order.
#[test]
fn event_ring_overwrite_at_wrap_counts_drops() {
    let report = model::Builder::new().check(|| {
        let ring = Arc::new(EventRing::new(2));
        let r2 = Arc::clone(&ring);
        let reader = thread::spawn(move || {
            let (events, dropped) = r2.snapshot_events();
            assert!(events.len() <= 2, "never more than capacity");
            assert!(dropped <= 1, "cursor bounds the drop count");
            for e in &events {
                assert!(e.a < 3, "decoded events hold written payloads only");
            }
        });
        for i in 0..3u64 {
            ring.record(i, Phase::Probe, EventKind::Instant, i, 0);
        }
        reader.join().unwrap();
        let (events, dropped) = ring.snapshot_events();
        assert_eq!(dropped, 1, "oldest event overwritten at wrap");
        assert_eq!(
            events.iter().map(|e| e.a).collect::<Vec<_>>(),
            vec![1, 2],
            "newest two events survive, oldest first"
        );
        assert_eq!(ring.recorded(), 3);
    });
    assert!(report.complete, "exploration must be exhaustive");
}

/// The serve completion hand-off: `complete` publishes the result slot under
/// the lock, then flips the `done` flag (`Release`) and notifies if a waiter is
/// parked; `wait` checks the flag and parks on the slot (under the model its
/// spin and yield budgets are zero).  No interleaving may lose the result or
/// the wake.
#[test]
fn serve_completion_handoff_is_clean() {
    let report = model::Builder::new().check(|| {
        let (handle, completer) = completion_pair();
        let waiter = thread::spawn(move || handle.wait());
        completer.complete(7.5);
        assert_eq!(waiter.join().unwrap(), 7.5);
    });
    assert!(report.complete, "exploration must be exhaustive");
}

/// The serve completion hand-off with the waiter already parked: `complete`
/// skips its condvar wake when it counts no parked waiter, so here it must see
/// the count and wake.  The model's condvar wait never times out, so a skipped
/// wake shows up as a deadlock.
#[test]
fn serve_completion_wakes_a_parked_waiter() {
    let report = model::Builder::new().check(|| {
        let (handle, completer) = completion_pair();
        let waiter = thread::spawn(move || handle.wait());
        while completer.parked_waiters() == 0 {
            thread::yield_now();
        }
        completer.complete(7.5);
        assert_eq!(waiter.join().unwrap(), 7.5);
    });
    assert!(report.complete, "exploration must be exhaustive");
}

// ---------------------------------------------------------------------------
// Mutation self-test: prove the checker catches a seeded ordering bug.
// ---------------------------------------------------------------------------

/// A distilled copy of the deque's publication protocol (write the slot cell,
/// publish by storing `bottom`; steal loads `bottom` and reads the cell) with
/// the store's ordering injectable, so the battery can knock the `Release`
/// out and watch the checker object.
struct MiniDeque {
    bottom: AtomicIsize,
    slot: UnsafeCell<u64>,
}

impl MiniDeque {
    fn new() -> Self {
        MiniDeque {
            bottom: AtomicIsize::new(0),
            slot: UnsafeCell::new(0),
        }
    }

    /// Owner push with an injectable publication ordering (`Release` in the
    /// shipped deque; the mutation passes `Relaxed`).
    fn push(&self, value: u64, publish: Ordering) {
        // SAFETY: mirrors the deque's owner-only push; the steal side reads
        // the slot only after observing the bottom bump.
        self.slot.with_mut(|p| unsafe { *p = value });
        self.bottom.store(1, publish);
    }

    /// Thief-side steal: Acquire the cursor, then read the slot it covers.
    fn steal(&self) -> Option<u64> {
        // ordering: mirrors the shipped steal's SeqCst fence between the top
        // and bottom loads; kept so the distilled copy has the same shape.
        fence(Ordering::SeqCst);
        if self.bottom.load(Ordering::Acquire) > 0 {
            // SAFETY: a non-zero bottom means the owner pushed; with a
            // Release push the slot write happens-before this read.
            return Some(self.slot.with(|p| unsafe { *p }));
        }
        None
    }
}

fn mini_deque_round(publish: Ordering) -> Result<model::Report, model::Violation> {
    model::Builder::new().try_check(move || {
        let d = Arc::new(MiniDeque::new());
        let d2 = Arc::clone(&d);
        let thief = thread::spawn(move || d2.steal());
        d.push(41, publish);
        if let Some(v) = thief.join().unwrap() {
            assert_eq!(v, 41);
        }
    })
}

/// Baseline: the shipped ordering is clean across every interleaving.
#[test]
fn mini_deque_release_publication_is_clean() {
    let report = mini_deque_round(Ordering::Release).expect("release publication is race-free");
    assert!(report.complete, "exploration must be exhaustive");
}

/// The seeded mutation: weakening the push's `Release` to `Relaxed` must be
/// reported as a data race, and the reported schedule must replay to the
/// same violation — the checker is demonstrably not blind to the orderings
/// this battery certifies.
#[test]
fn mutation_weakened_release_is_caught_and_replays() {
    let v = mini_deque_round(Ordering::Relaxed).expect_err("checker must catch the mutation");
    assert_eq!(v.kind, model::ViolationKind::DataRace);
    assert!(
        !v.schedule.is_empty(),
        "violation carries a replayable schedule"
    );
    let replayed = model::Builder::new()
        .replay(&v.schedule)
        .try_check(move || {
            // Re-run the mutated program on the pinned schedule.
            let d = Arc::new(MiniDeque::new());
            let d2 = Arc::clone(&d);
            let thief = thread::spawn(move || d2.steal());
            d.push(41, Ordering::Relaxed);
            let _ = thief.join().unwrap();
        })
        .expect_err("pinned schedule reproduces the race");
    assert_eq!(replayed.kind, model::ViolationKind::DataRace);
}
