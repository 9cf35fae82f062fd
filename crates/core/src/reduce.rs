//! Parallel reductions merged into the join half-barrier.
//!
//! This is the second half of the paper's contribution: for loops with reduction
//! variables, the Intel OpenMP runtime executes an *extra* tree barrier (three full
//! barriers per loop), and baseline Cilk creates reducer views lazily on steals and may
//! perform many more than `P − 1` reduce operations.  The fine-grain scheduler instead
//!
//! * allocates the per-thread views **statically at the start of the loop** (one
//!   cache-line-padded slot per participant),
//! * lets every participant fold its block into its own view, and
//! * merges the views **pairwise inside the join phase of the half-barrier**: when a
//!   join-tree child arrives, its parent immediately folds the child's view into its
//!   own.  Exactly `P − 1` combine operations are performed per reduction, and the loop
//!   still costs only the one half-barrier.
//!
//! [`FineGrainPool::parallel_reduce`] requires the combine operator to be commutative
//! (and associative) because the join tree does not preserve the index order of the
//! blocks; [`FineGrainPool::parallel_reduce_ordered`] keeps non-commutative operators
//! correct by folding the views in thread order at the master after the join phase
//! (still `P − 1` combines, but all executed by the master).

use crate::engine::sealed;
use crate::pool::FineGrainPool;
use crate::range::static_block;
use crossbeam::utils::CachePadded;
use parlo_barrier::Epoch;
use std::cell::UnsafeCell;
use std::ops::Range;

/// Per-participant reduction views, allocated statically at the start of a loop: one
/// cache-line-padded slot per participant, so the view array does not false-share.
///
/// Outside a loop the views are plain owned values ([`Views::take`] needs `&mut`).
/// During a loop only a [`Merged`] harness reaches them, and the engine's protocol
/// makes every access exclusive: a participant touches only its own view until it
/// arrives at the join, and only its join parent touches it afterwards — so access
/// needs no synchronization of its own.
pub struct Views<T> {
    slots: Box<[CachePadded<UnsafeCell<Option<T>>>]>,
}

impl<T> Views<T> {
    /// `n` empty views.
    pub fn new(n: usize) -> Self {
        Self::from_values((0..n).map(|_| None))
    }

    /// `n` views, each seeded with a fresh `init()` (called on the calling thread).
    pub fn seeded(n: usize, mut init: impl FnMut() -> T) -> Self {
        Self::from_values((0..n).map(|_| Some(init())))
    }

    fn from_values(values: impl Iterator<Item = Option<T>>) -> Self {
        Views {
            slots: values
                .map(|v| CachePadded::new(UnsafeCell::new(v)))
                .collect(),
        }
    }

    /// Takes view `id` out, leaving it empty.
    pub fn take(&mut self, id: usize) -> Option<T> {
        self.slots[id].get_mut().take()
    }

    /// Raw access to view `id`; dereferencing it requires exclusive access.
    fn slot(&self, id: usize) -> *mut Option<T> {
        self.slots[id].get()
    }
}

/// A loop with a merged reduction: every participant runs `share`, which leaves its
/// partial result in its own view, and the join phase folds the views pairwise with
/// `combine` as the children arrive — exactly `P − 1` combines and no barrier beyond
/// the loop's own.  After [`crate::LoopEngine::run`] returns, view 0 holds the whole
/// reduction.
pub struct Merged<'a, T, S, C> {
    share: S,
    views: &'a mut Views<T>,
    /// `None` leaves the views unmerged (the master folds them in order afterwards).
    combine: Option<&'a C>,
}

impl<'a, T, S, C> Merged<'a, T, S, C>
where
    T: Send,
    S: Fn(usize, Epoch, &mut Option<T>) + Sync,
    C: Fn(T, T) -> T + Sync,
{
    /// A merged reduction over `views`: `share(id, epoch, view)` runs participant
    /// `id`'s share of the loop with exclusive access to its own view, and `combine`
    /// (associative and commutative: the join tree does not preserve participant
    /// order) folds two views inside the join phase.
    pub fn new(views: &'a mut Views<T>, share: S, combine: &'a C) -> Self {
        Merged {
            share,
            views,
            combine: Some(combine),
        }
    }
}

// SAFETY: `share` and `combine` are `Sync` and only called through `&self`.  The
// views are reached only through the engine-facing methods below, whose contract
// (see `engine::sealed::Harness`) makes each view's accesses exclusive and ordered by
// the barrier's release/acquire edges; `T: Send` lets a view move between threads.
unsafe impl<T: Send, S: Sync, C: Sync> Sync for Merged<'_, T, S, C> {}

impl<T, S, C> sealed::Harness for Merged<'_, T, S, C>
where
    T: Send,
    S: Fn(usize, Epoch, &mut Option<T>) + Sync,
    C: Fn(T, T) -> T + Sync,
{
    #[inline]
    unsafe fn execute(&self, id: usize, epoch: Epoch) {
        // SAFETY: by the execute contract this thread is the only one running
        // participant `id`, and no combine names `id` meanwhile.
        (self.share)(id, epoch, unsafe { &mut *self.views.slot(id) })
    }

    fn combines(&self) -> bool {
        self.combine.is_some()
    }

    #[inline]
    unsafe fn combine(&self, into: usize, from: usize) {
        if let Some(combine) = self.combine {
            // SAFETY: by the combine contract `from` has finished and arrived, and this
            // thread, its join parent, is the only one that touches it now.
            let b = unsafe { &mut *self.views.slot(from) }.take();
            // SAFETY: by the combine contract this thread executed `into`, so nobody
            // else touches its view.
            let into = unsafe { &mut *self.views.slot(into) };
            let a = into.take().expect("reduction view is empty");
            *into = Some(combine(a, b.expect("reduction view is empty")));
        }
    }
}

impl FineGrainPool {
    /// Parallel reduction with the combine step merged into the join half-barrier.
    ///
    /// * `identity()` produces the neutral element of the reduction;
    /// * `fold(acc, i)` folds iteration `i` into a thread-local accumulator;
    /// * `combine(a, b)` merges two accumulators and must be **associative and
    ///   commutative** (use [`FineGrainPool::parallel_reduce_ordered`] otherwise).
    ///
    /// Exactly `num_threads − 1` combine operations are performed per call.  An empty
    /// range returns `identity()` without running a barrier cycle or moving any
    /// counter.
    pub fn parallel_reduce<T, Id, Fold, Comb>(
        &mut self,
        range: Range<usize>,
        identity: Id,
        fold: Fold,
        combine: Comb,
    ) -> T
    where
        T: Send,
        Id: Fn() -> T + Sync,
        Fold: Fn(T, usize) -> T + Sync,
        Comb: Fn(T, T) -> T + Sync,
    {
        if range.is_empty() {
            return identity();
        }
        let n = self.num_threads();
        let mut views = Views::new(n);
        self.engine.run(Merged::new(
            &mut views,
            |id, _, view| *view = Some(static_block(&range, n, id).fold(identity(), &fold)),
            &combine,
        ));
        views
            .take(0)
            .expect("the master's view holds the reduction")
    }

    /// Parallel reduction that preserves the left-to-right (iteration-order) combination
    /// of the per-thread partial results, so non-commutative (but associative) operators
    /// are reduced exactly as the sequential loop would.
    ///
    /// The loop itself still uses the half-barrier; the `P − 1` combines are performed
    /// by the master after the join phase, in thread order.
    pub fn parallel_reduce_ordered<T, Id, Fold, Comb>(
        &mut self,
        range: Range<usize>,
        identity: Id,
        fold: Fold,
        combine: Comb,
    ) -> T
    where
        T: Send,
        Id: Fn() -> T + Sync,
        Fold: Fn(T, usize) -> T + Sync,
        Comb: Fn(T, T) -> T + Sync,
    {
        if range.is_empty() {
            return identity();
        }
        let n = self.num_threads();
        let mut views = Views::new(n);
        let stats = self.engine.counters();
        stats.record_reduction();
        self.engine.run(Merged {
            share: |id, _, view: &mut Option<T>| {
                *view = Some(static_block(&range, n, id).fold(identity(), &fold))
            },
            views: &mut views,
            combine: None::<&Comb>,
        });
        // Fold the per-thread views in thread order: thread t's block precedes thread
        // t+1's block in iteration order, so this reproduces the sequential fold.
        let mut partials = (0..n).map(|t| views.take(t).expect("every participant folded"));
        let first = partials
            .next()
            .expect("a pool has at least one participant");
        partials.fold(first, |acc, view| {
            stats.record_combine();
            combine(acc, view)
        })
    }

    /// Convenience wrapper: parallel sum of `f(i)` over `range`.
    pub fn parallel_sum<F>(&mut self, range: Range<usize>, f: F) -> f64
    where
        F: Fn(usize) -> f64 + Sync,
    {
        self.parallel_reduce(range, || 0.0, |acc, i| acc + f(i), |a, b| a + b)
    }

    /// Convenience wrapper: parallel maximum of `f(i)` over `range` (returns
    /// `f64::NEG_INFINITY` for an empty range).
    pub fn parallel_max<F>(&mut self, range: Range<usize>, f: F) -> f64
    where
        F: Fn(usize) -> f64 + Sync,
    {
        self.parallel_reduce(
            range,
            || f64::NEG_INFINITY,
            |acc: f64, i| acc.max(f(i)),
            |a: f64, b: f64| a.max(b),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BarrierKind, Config};

    fn pool(kind: BarrierKind, threads: usize) -> FineGrainPool {
        FineGrainPool::new(Config::builder(threads).barrier(kind).build())
    }

    #[test]
    fn sum_matches_sequential_for_all_barrier_kinds() {
        let n = 10_001usize;
        let expected: u64 = (0..n as u64).sum();
        for kind in BarrierKind::ALL {
            let mut p = pool(kind, 4);
            let got = p.parallel_reduce(0..n, || 0u64, |acc, i| acc + i as u64, |a, b| a + b);
            assert_eq!(got, expected, "kind {kind:?}");
        }
    }

    #[cfg(not(feature = "stats-off"))]
    #[test]
    fn reduction_performs_exactly_p_minus_one_combines() {
        for kind in BarrierKind::ALL {
            for threads in [1usize, 2, 3, 4, 6] {
                let mut p = pool(kind, threads);
                let before = p.stats();
                let _ = p.parallel_reduce(0..1000, || 0u64, |acc, i| acc + i as u64, |a, b| a + b);
                let delta = p.stats().since(&before);
                assert_eq!(
                    delta.combine_ops,
                    (threads - 1) as u64,
                    "kind {kind:?} threads {threads}"
                );
                assert_eq!(delta.reductions, 1);
            }
        }
    }

    #[test]
    fn ordered_reduction_preserves_non_commutative_order() {
        // String concatenation is associative but not commutative.
        let input: Vec<String> = (0..40).map(|i| format!("[{i}]")).collect();
        let expected: String = input.concat();
        for threads in [1usize, 2, 3, 5] {
            let mut p = FineGrainPool::with_threads(threads);
            let got = p.parallel_reduce_ordered(
                0..input.len(),
                String::new,
                |mut acc: String, i| {
                    acc.push_str(&input[i]);
                    acc
                },
                |mut a: String, b: String| {
                    a.push_str(&b);
                    a
                },
            );
            assert_eq!(got, expected, "threads {threads}");
        }
    }

    #[cfg(not(feature = "stats-off"))]
    #[test]
    fn ordered_reduction_also_counts_p_minus_one_combines() {
        let mut p = FineGrainPool::with_threads(4);
        let before = p.stats();
        let _ = p.parallel_reduce_ordered(0..100, || 0u64, |a, i| a + i as u64, |a, b| a + b);
        assert_eq!(p.stats().since(&before).combine_ops, 3);
    }

    #[test]
    fn empty_range_returns_identity() {
        let mut p = FineGrainPool::with_threads(3);
        let got = p.parallel_reduce(5..5, || 42u32, |acc, _| acc + 1, |a, b| a.min(b));
        assert_eq!(got, 42);
    }

    #[test]
    fn sum_and_max_helpers() {
        let mut p = FineGrainPool::with_threads(4);
        let s = p.parallel_sum(0..1000, |i| i as f64);
        assert!((s - 499_500.0).abs() < 1e-9);
        let m = p.parallel_max(0..1000, |i| (i as f64 - 500.0).abs());
        assert!((m - 500.0).abs() < 1e-9);
        let empty = p.parallel_max(0..0, |_| 0.0);
        assert_eq!(empty, f64::NEG_INFINITY);
    }

    #[test]
    fn reduction_with_nontrivial_type() {
        // Component-wise vector sum, the shape of the linear-regression workload.
        #[derive(Clone, Copy, PartialEq, Debug)]
        struct Sums {
            x: f64,
            y: f64,
            xy: f64,
        }
        let n = 4096usize;
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let ys: Vec<f64> = (0..n).map(|i| 3.0 * i as f64 + 1.0).collect();
        let mut p = pool(BarrierKind::TreeHalf, 4);
        let got = p.parallel_reduce(
            0..n,
            || Sums {
                x: 0.0,
                y: 0.0,
                xy: 0.0,
            },
            |acc, i| Sums {
                x: acc.x + xs[i],
                y: acc.y + ys[i],
                xy: acc.xy + xs[i] * ys[i],
            },
            |a, b| Sums {
                x: a.x + b.x,
                y: a.y + b.y,
                xy: a.xy + b.xy,
            },
        );
        let expected_x: f64 = xs.iter().sum();
        let expected_y: f64 = ys.iter().sum();
        let expected_xy: f64 = xs.iter().zip(&ys).map(|(a, b)| a * b).sum();
        assert!((got.x - expected_x).abs() < 1e-6);
        assert!((got.y - expected_y).abs() < 1e-6);
        assert!((got.xy - expected_xy).abs() < 1e-6);
    }

    #[test]
    fn merged_views_fold_through_a_bare_engine() {
        // The engine-level API the stealing pool builds on: seeded views, a share
        // that updates its own view in place, P - 1 combines in the join.
        for kind in BarrierKind::ALL {
            let p = pool(kind, 3);
            let mut views = Views::seeded(3, || 10u64);
            p.engine.run(Merged::new(
                &mut views,
                |id, epoch, view| *view.as_mut().unwrap() += 100 * id as u64 + epoch,
                &|a: u64, b: u64| a + b,
            ));
            assert_eq!(views.take(0), Some(30 + 300 + 3), "kind {kind:?}");
            assert_eq!(views.take(1), None, "merged views are consumed");
            #[cfg(not(feature = "stats-off"))]
            assert_eq!(p.stats().combine_ops, 2);
        }
    }

    #[test]
    fn repeated_reductions_reuse_the_pool() {
        let mut p = pool(BarrierKind::CentralizedHalf, 4);
        for round in 1..=50u64 {
            let got = p.parallel_reduce(0..100, || 0u64, |a, i| a + i as u64, |a, b| a + b);
            assert_eq!(got, 4950);
            #[cfg(not(feature = "stats-off"))]
            assert_eq!(p.stats().reductions, round);
        }
    }
}
