//! The stealing-focused test battery (property tests).
//!
//! Work stealing is nondeterministic machinery, so these tests pin its invariants
//! under *many* schedules rather than one:
//!
//! * the chunk deque itself is checked against a reference model (`VecDeque`) for
//!   owner-LIFO / thief-FIFO ordering over arbitrary seeded operation sequences, and
//!   against a multi-threaded race for exactly-once delivery;
//! * the pool is driven through seeded steal schedules via the injectable
//!   [`SchedulePerturbation`] hook (delays + victim rotations derived from a
//!   proptest-sampled seed, which itself derives from the vendored proptest's
//!   `PROPTEST_RNG_SEED` plumbing) and must execute every chunk exactly once — no
//!   lost ranges, no duplicated ranges — with exact [`StealStats`] accounting;
//! * reductions must produce the sequential result under every perturbed schedule;
//! * lazy splitting of stolen ranges keeps all of the above on skewed and
//!   triangular kernels, on derived and explicit chunk sizes alike, and never fires
//!   for site-keyed loops.

use parlo::prelude::*;
use parlo::steal::{total_chunks, ChunkDeque, ChunkRange, Steal};
use parlo::workloads::irregular::{skewed_weight, triangular_row};
use parlo::workloads::microbench::work_unit;
use parlo_sync::{AtomicUsize, Ordering};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;

/// Splitmix64, used to derive deterministic operation sequences from a sampled seed.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A named loop kernel: `term(i, n)` for iteration `i` of a loop of `n`.
type Kernel = (&'static str, fn(usize, usize) -> u64);

/// The pool size the CI matrix pins via `PARLO_THREADS` (4 when unset/invalid, so a
/// local run still exercises a multi-worker pool).  Parsing goes through the single
/// shared helper in `parlo-bench`, so the battery can never diverge from the bench
/// bins on trimming or zero rejection.
fn env_threads() -> usize {
    parlo_bench::env_threads().unwrap_or(4)
}

/// The exactly-once and exact-accounting invariants at the *matrix-pinned* pool size:
/// the proptests below sample their own thread counts, so this is the test that makes
/// each `PARLO_THREADS` CI job exercise a distinct fixed pool size.
#[test]
fn battery_holds_at_the_env_pinned_pool_size() {
    let threads = env_threads();
    for seed in [3u64, 0x5EED, 0xFEED_FACE] {
        let config = StealConfig::with_threads(threads)
            .with_perturbation(Arc::new(SeededPerturbation::new(seed)))
            .with_chunk(5);
        let mut pool = StealPool::new(config);
        let hits: Vec<AtomicUsize> = (0..997).map(|_| AtomicUsize::new(0)).collect();
        pool.steal_for(0..997, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "exactly once at {threads} threads (seed {seed})"
        );
        let sum = pool.steal_reduce(0..997, || 0u64, |a, i| a + i as u64, |a, b| a + b);
        assert_eq!(sum, (0..997u64).sum(), "{threads} threads (seed {seed})");
        let stats = pool.stats();
        assert_eq!(stats.chunks_per_worker.len(), threads);
        assert_eq!(
            stats.chunks_executed(),
            2 * total_chunks(&(0..997), threads, 5),
            "exact chunk coverage at {threads} threads"
        );
        // The engine's combine counter reads zero in a `stats-off` build.
        #[cfg(not(feature = "stats-off"))]
        assert_eq!(stats.combine_ops, threads as u64 - 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Single-threaded model check of the chunk deque: for an arbitrary seeded
    /// sequence of pushes, owner pops and (quiescent) steals, the deque behaves
    /// exactly like a double-ended queue where the owner takes from the back (LIFO,
    /// most recently pushed first) and the thief from the front (FIFO, oldest first).
    #[test]
    fn chunk_deque_matches_the_lifo_fifo_reference_model(
        seed in 0u64..u64::MAX,
        ops in 16usize..200,
    ) {
        let deque = ChunkDeque::new(64);
        let mut model: VecDeque<ChunkRange> = VecDeque::new();
        let mut rng = seed;
        let mut next_chunk = 0usize;
        for _ in 0..ops {
            match splitmix64(&mut rng) % 3 {
                0 => {
                    let c = ChunkRange { start: next_chunk, end: next_chunk + 1 };
                    next_chunk += 1;
                    // SAFETY: this thread is the deque's owner.
                    if unsafe { deque.push(c) }.is_ok() {
                        model.push_back(c);
                    } else {
                        prop_assert_eq!(model.len(), deque.capacity(), "Full only at capacity");
                    }
                }
                1 => {
                    // Owner pop: must yield the most recently pushed remaining chunk.
                    // SAFETY: this thread is the deque's owner.
                    let got = unsafe { deque.pop() };
                    prop_assert_eq!(got, model.pop_back(), "owner is LIFO");
                }
                _ => {
                    // Quiescent steal: must yield the oldest remaining chunk.
                    let got = match deque.steal() {
                        Steal::Success(c) => Some(c),
                        Steal::Empty => None,
                        Steal::Retry => {
                            prop_assert!(false, "no contention, Retry impossible");
                            unreachable!()
                        }
                    };
                    prop_assert_eq!(got, model.pop_front(), "thief is FIFO");
                }
            }
            prop_assert_eq!(deque.len(), model.len());
        }
    }

    /// Multi-threaded exactly-once check of the deque: an owner pushes chunks and
    /// interleaves pops while thieves steal concurrently; the union of everything
    /// obtained is exactly the pushed set, with no duplicates and no losses.
    #[test]
    fn concurrent_deque_delivery_is_exactly_once(
        chunks in 32usize..600,
        thieves in 1usize..4,
        pop_stride in 2usize..5,
    ) {
        let deque = Arc::new(ChunkDeque::new(chunks.next_power_of_two()));
        let done = Arc::new(parlo_sync::AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..thieves {
            let deque = deque.clone();
            let done = done.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                loop {
                    match deque.steal() {
                        Steal::Success(c) => got.push(c),
                        Steal::Retry => {}
                        Steal::Empty => {
                            if done.load(Ordering::Acquire) && deque.is_empty() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
                got
            }));
        }
        let mut obtained: Vec<ChunkRange> = Vec::new();
        for k in 0..chunks {
            let c = ChunkRange { start: 8 * k, end: 8 * k + 8 };
            // SAFETY: this thread is the deque's owner.
            unsafe {
                if deque.push(c).is_err() {
                    obtained.push(c); // full: the pool would run it inline
                } else if k % pop_stride == 0 {
                    if let Some(p) = deque.pop() {
                        obtained.push(p);
                    }
                }
            }
        }
        // SAFETY: owner drain.
        while let Some(p) = unsafe { deque.pop() } {
            obtained.push(p);
        }
        done.store(true, Ordering::Release);
        for h in handles {
            obtained.extend(h.join().unwrap());
        }
        prop_assert_eq!(obtained.len(), chunks, "every chunk obtained");
        let starts: std::collections::HashSet<usize> =
            obtained.iter().map(|c| c.start).collect();
        prop_assert_eq!(starts.len(), chunks, "no chunk duplicated");
    }

    /// The pool invariant under perturbed schedules: for arbitrary ranges, chunk
    /// sizes, thread counts and perturbation seeds, every index executes exactly once
    /// and the StealStats account for every pre-split chunk exactly.
    #[test]
    fn every_chunk_executes_exactly_once_under_perturbed_schedules(
        len in 0usize..700,
        start in 0usize..64,
        chunk in 1usize..40,
        threads in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let config = StealConfig::with_threads(threads)
            .with_perturbation(Arc::new(SeededPerturbation::new(seed)))
            .with_chunk(chunk);
        let mut pool = StealPool::new(config);
        let before = pool.stats();
        let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        pool.steal_for(start..start + len, |i| {
            hits[i - start].fetch_add(1, Ordering::Relaxed);
        });
        prop_assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "lost or duplicated iterations (seed {})", seed
        );
        let d = pool.stats().since(&before);
        let expected = total_chunks(&(start..start + len), threads, chunk);
        prop_assert_eq!(d.chunks_executed(), expected, "exact chunk coverage");
        prop_assert!(d.steals_hit <= d.steals_attempted);
        prop_assert!(d.steals_hit <= d.chunks_executed());
        // The engine's loop and phase counters read zero in a `stats-off` build.
        #[cfg(not(feature = "stats-off"))]
        if len > 0 {
            prop_assert_eq!(d.loops, 1);
            prop_assert_eq!(d.barrier_phases, 2, "one half-barrier per loop");
        }
    }

    /// Lazy binary splitting under perturbed schedules.  On the derived chunk size
    /// (no explicit chunk anywhere), the skewed and triangular kernels visit every
    /// index exactly once, their integer sums are exact, every pre-split chunk is
    /// accounted exactly once, and thieves take no more pieces than were split.
    /// An explicit chunk size gives the same exact sums; a site key also does, and
    /// never splits.  (Whether a case splits depends on its schedule; the
    /// `parlo-steal` unit test `stolen_chunks_split_whatever_the_chunk_size_source`
    /// forces a steal, and with it a split, on every schedule.)
    #[test]
    fn stolen_ranges_split_and_run_every_iteration_once(
        n in 1usize..600,
        threads in 1usize..9,
        seed in 0u64..u64::MAX,
    ) {
        let config = StealConfig::with_threads(threads)
            .with_perturbation(Arc::new(SeededPerturbation::new(seed)));
        let mut pool = StealPool::new(config);
        let chunk = pool.effective_chunk(n);
        // Each term does work proportional to its kernel's cost and returns an
        // integer, so thieves have a skew to balance and every sum is exact.
        let loops: [Kernel; 2] = [
            ("skewed", |i, n| {
                std::hint::black_box(work_unit(i, 4 * skewed_weight(i, n)));
                skewed_weight(i, n) as u64
            }),
            ("triangular", |i, _| triangular_row(i) as u64),
        ];
        let site = StealSite::new(seed);
        for (kernel, cost) in loops {
            let expected: u64 = (0..n).map(|i| cost(i, n)).sum();
            let before = pool.stats();
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.steal_for(0..n, |i| {
                std::hint::black_box(cost(i, n));
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            prop_assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{} at {} threads: lost or duplicated iterations (seed {})", kernel, threads, seed
            );
            let sum = pool.steal_reduce(0..n, || 0u64, |a, i| a + cost(i, n), |a, b| a + b);
            prop_assert_eq!(sum, expected, "{} at {} threads", kernel, threads);
            let explicit = pool.steal_reduce_with_chunk(
                0..n, chunk, || 0u64, |a, i| a + cost(i, n), |a, b| a + b,
            );
            prop_assert_eq!(explicit, expected, "{} with an explicit chunk", kernel);
            let d = pool.stats().since(&before);
            prop_assert_eq!(d.chunks_executed(), 3 * total_chunks(&(0..n), threads, chunk));
            prop_assert!(d.split_steals <= d.splits, "{} stole unsplit pieces", kernel);

            let before = pool.stats();
            let keyed = pool.steal_reduce_at(site, 0..n, || 0u64, |a, i| a + cost(i, n), |a, b| a + b);
            prop_assert_eq!(keyed, expected, "{} keyed by a site", kernel);
            let d = pool.stats().since(&before);
            prop_assert_eq!((d.splits, d.split_steals), (0, 0), "{} keyed loop split", kernel);
        }
    }

    /// Reductions remain schedule-independent under perturbation: the stealing
    /// reduction of integer values equals the sequential fold exactly, with P-1
    /// combines, for every seed.
    #[test]
    fn perturbed_reductions_match_the_sequential_fold(
        values in prop::collection::vec(-1000i64..1000, 0..400),
        threads in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let expected: i64 = values.iter().sum();
        let config = StealConfig::with_threads(threads)
            .with_perturbation(Arc::new(SeededPerturbation::new(seed)))
            .with_chunk(7);
        let mut pool = StealPool::new(config);
        let got = pool.steal_reduce(0..values.len(), || 0i64, |a, i| a + values[i], |a, b| a + b);
        prop_assert_eq!(got, expected);
        // The engine's combine counter reads zero in a `stats-off` build.
        #[cfg(not(feature = "stats-off"))]
        if !values.is_empty() {
            prop_assert_eq!(pool.stats().combine_ops, (threads - 1) as u64);
        }
    }
}
