//! Parallel loop entry points of the fine-grain scheduler.
//!
//! All loops are *statically scheduled by default* (one contiguous block per thread,
//! computed independently by each participant from the published range — step 1 of the
//! paper's scheduling recipe happens implicitly and without communication).  A
//! block-cyclic and a dynamically scheduled variant are provided for load-imbalanced
//! bodies; the dynamic variant still uses the half-barrier, so its extra cost relative
//! to the static loop is exactly the per-chunk atomic traffic, mirroring the
//! OpenMP-static vs OpenMP-dynamic comparison of Table 1.

use crate::pool::{FineGrainPool, WorkerInfo};
use crate::range::{static_block, static_chunks, DynamicChunks};
use std::ops::Range;

impl FineGrainPool {
    /// Runs `body` once on every participant of the pool (an SPMD region).  This is the
    /// lowest-level entry point; the loop methods are built on the same machinery.
    pub fn broadcast<F>(&mut self, body: F)
    where
        F: Fn(WorkerInfo) + Sync,
    {
        let num_threads = self.num_threads();
        self.engine
            .run(|id, _| body(WorkerInfo { id, num_threads }));
    }

    /// Statically scheduled parallel loop over `range`: each participant executes one
    /// contiguous block of iterations.  `body` is called exactly once per index.
    ///
    /// An empty range is a fast-path no-op — no barrier cycle runs and no
    /// instrumentation counter moves, a guarantee every runtime in the workspace
    /// shares so empty loops have identical (zero) `SyncStats` everywhere.
    pub fn parallel_for<F>(&mut self, range: Range<usize>, body: F)
    where
        F: Fn(usize) + Sync,
    {
        self.static_for(range, body);
    }

    /// Statically scheduled parallel loop that hands each participant its whole
    /// contiguous block at once.  Useful when the body can exploit the block structure
    /// (e.g. vectorised kernels over slices, as in the MPDATA workload).
    pub fn parallel_for_blocks<F>(&mut self, range: Range<usize>, body: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        if range.is_empty() {
            return;
        }
        let n = self.num_threads();
        self.engine.run(|id, _| {
            let block = static_block(&range, n, id);
            if !block.is_empty() {
                body(block);
            }
        });
    }

    /// [`FineGrainPool::parallel_for`] through `&self`, bypassing the `&mut`
    /// single-driver exclusivity — the regression hook for the concurrent-drivers
    /// battery, not an API (a second simultaneous caller panics on the pool's
    /// in-flight `swap` guard, which is exactly what the battery asserts).
    ///
    /// # Safety
    /// As for `parallel_for`; additionally the caller asserts that no other thread
    /// drives this pool concurrently, or accepts the deterministic panic when one
    /// does.
    #[doc(hidden)]
    pub unsafe fn parallel_for_unsynchronized<F>(&self, range: Range<usize>, body: F)
    where
        F: Fn(usize) + Sync,
    {
        self.static_for(range, body);
    }

    /// The static-block loop behind [`FineGrainPool::parallel_for`].
    fn static_for<F>(&self, range: Range<usize>, body: F)
    where
        F: Fn(usize) + Sync,
    {
        if range.is_empty() {
            return;
        }
        let n = self.num_threads();
        self.engine
            .run(|id, _| static_block(&range, n, id).for_each(&body));
    }

    /// Block-cyclic statically scheduled loop: chunks of `chunk` iterations are dealt to
    /// the participants round-robin before the loop starts.
    pub fn parallel_for_chunked<F>(&mut self, range: Range<usize>, chunk: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        if range.is_empty() {
            return;
        }
        let (n, chunk) = (self.num_threads(), chunk.max(1));
        self.engine.run(|id, _| {
            for c in static_chunks(&range, n, id, chunk) {
                c.for_each(&body);
            }
        });
    }

    /// Dynamically scheduled loop: participants repeatedly grab chunks of `chunk`
    /// iterations from a shared dispenser.  The fork/join synchronization is still the
    /// half-barrier; only the work distribution differs from [`FineGrainPool::parallel_for`].
    pub fn parallel_for_dynamic<F>(&mut self, range: Range<usize>, chunk: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        if range.is_empty() {
            return;
        }
        let chunks = DynamicChunks::new(range, chunk);
        let stats = self.engine.counters();
        self.engine.run(|_, _| {
            while let Some(chunk) = chunks.next_chunk() {
                stats.record_dynamic_chunk();
                chunk.for_each(&body);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BarrierKind, Config};
    use parlo_sync::{AtomicUsize, Ordering};

    fn pools() -> Vec<FineGrainPool> {
        BarrierKind::ALL
            .iter()
            .map(|&k| FineGrainPool::new(Config::builder(3).barrier(k).build()))
            .collect()
    }

    #[test]
    fn parallel_for_visits_each_index_once() {
        for mut p in pools() {
            let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
            p.parallel_for(0..257, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn parallel_for_blocks_covers_range() {
        let mut p = FineGrainPool::with_threads(4);
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        p.parallel_for_blocks(0..100, |block| {
            for i in block {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_chunked_covers_range() {
        let mut p = FineGrainPool::with_threads(3);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        p.parallel_for_chunked(0..1000, 7, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_dynamic_covers_range_and_counts_chunks() {
        let mut p = FineGrainPool::with_threads(4);
        let hits: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        p.parallel_for_dynamic(0..500, 16, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        #[cfg(not(feature = "stats-off"))]
        assert_eq!(p.stats().dynamic_chunks, 500_u64.div_ceil(16));
    }

    #[test]
    fn empty_ranges_are_noops() {
        let mut p = FineGrainPool::with_threads(2);
        p.parallel_for(10..10, |_| panic!("must not run"));
        p.parallel_for_blocks(10..10, |_| panic!("must not run"));
        p.parallel_for_chunked(10..10, 4, |_| panic!("must not run"));
        p.parallel_for_dynamic(10..10, 4, |_| panic!("must not run"));
    }

    #[test]
    fn loops_can_borrow_outside_state_mutably_via_interior_mutability() {
        let mut p = FineGrainPool::with_threads(3);
        let data: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        for round in 1..=5usize {
            p.parallel_for(0..64, |i| {
                data[i].fetch_add(round, Ordering::Relaxed);
            });
        }
        let expected: usize = (1..=5).sum();
        assert!(data.iter().all(|d| d.load(Ordering::Relaxed) == expected));
    }

    #[test]
    fn many_consecutive_fine_grain_loops() {
        // The fine-grain regime: lots of tiny loops back to back.
        let mut p = FineGrainPool::with_threads(4);
        let counter = AtomicUsize::new(0);
        for _ in 0..200 {
            p.parallel_for(0..8, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1600);
        #[cfg(not(feature = "stats-off"))]
        assert_eq!(p.stats().loops, 200);
    }
}
