//! The persistent fine-grain worker pool.
//!
//! A [`FineGrainPool`] is a [`LoopEngine`] plus the fine-grain harnesses: static
//! blocks, block-cyclic chunks, a shared dynamic dispenser and merged reductions (see
//! the `loops` and `reduce` modules).  Per parallel loop it executes exactly the
//! synchronization the paper's half-barrier pattern prescribes — one release phase
//! at the fork, one join phase at the end, reductions folded into the join — or, with
//! [`BarrierKind::TreeFull`](crate::BarrierKind::TreeFull) /
//! [`BarrierKind::CentralizedFull`](crate::BarrierKind::CentralizedFull), two full
//! barriers per loop (the "with full-barrier" row of Table 1).

use crate::config::Config;
use crate::engine::LoopEngine;
use crate::stats::StatsSnapshot;
use parlo_exec::Executor;
use std::sync::Arc;

/// Identity of a participant inside a parallel region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerInfo {
    /// Participant id: 0 is the master, `1..num_threads` are the workers.
    pub id: usize,
    /// Total number of participants.
    pub num_threads: usize,
}

/// The fine-grain parallel loop scheduler of the paper: a persistent worker pool whose
/// loops are synchronized with a single half-barrier.
///
/// Loop methods take `&mut self`: a pool serves exactly one master thread and loops may
/// not nest, which is precisely the structural property that makes the half-barrier's
/// dropped phases redundant.
#[derive(Debug)]
pub struct FineGrainPool {
    pub(crate) engine: LoopEngine,
}

impl FineGrainPool {
    /// Creates a pool with the default configuration (one thread per detected core,
    /// topology-aware tree half-barrier).
    pub fn with_default_config() -> Self {
        Self::new(Config::default())
    }

    /// Creates a pool with `num_threads` threads and defaults for everything else.
    pub fn with_threads(num_threads: usize) -> Self {
        Self::new(Config::builder(num_threads).build())
    }

    /// Creates a pool with `num_threads` threads placed (topology, pinning,
    /// hierarchical synchronization) according to a shared
    /// [`PlacementConfig`](parlo_affinity::PlacementConfig).
    pub fn with_placement(num_threads: usize, placement: &parlo_affinity::PlacementConfig) -> Self {
        Self::new(Config::builder(num_threads).placement(placement).build())
    }

    /// [`FineGrainPool::with_placement`] with the workers leased from a shared
    /// [`Executor`] instead of a private one, so several runtimes can coexist without
    /// oversubscribing the machine.
    pub fn with_placement_on(
        num_threads: usize,
        placement: &parlo_affinity::PlacementConfig,
        executor: &Arc<Executor>,
    ) -> Self {
        Self::new_on(
            Config::builder(num_threads).placement(placement).build(),
            executor,
        )
    }

    /// Creates a pool from an explicit configuration, with a private worker substrate.
    pub fn new(config: Config) -> Self {
        let executor = Executor::new(&config.topology, config.pin);
        Self::new_on(config, &executor)
    }

    /// Creates a pool from an explicit configuration, leasing its workers from the
    /// given substrate.  The pool spawns no threads of its own; the substrate grows to
    /// at most `num_threads − 1` workers on the pool's first loop.
    pub fn new_on(config: Config, executor: &Arc<Executor>) -> Self {
        Self::build(config, executor, None)
    }

    /// Creates a gang-sized pool over an explicit partition of substrate worker ids
    /// (see [`Executor::register_partition`] for the partition contract).  The
    /// configuration's `num_threads` must equal `workers.len() + 1`: the driving
    /// master plus one participant per leased worker.  Unlike the exclusive
    /// constructors this never re-pins the calling thread — a gang pool is typically
    /// constructed on a control thread and *driven* by a substrate worker that is
    /// already pinned.
    pub fn new_on_partition(config: Config, executor: &Arc<Executor>, workers: &[usize]) -> Self {
        Self::build(config, executor, Some(workers))
    }

    fn build(config: Config, executor: &Arc<Executor>, partition: Option<&[usize]>) -> Self {
        let name = format!("fine-grain ({})", config.barrier.label());
        FineGrainPool {
            engine: LoopEngine::new(name, config, executor, partition),
        }
    }

    /// The substrate this pool leases its workers from.
    pub fn executor(&self) -> &Arc<Executor> {
        self.engine.executor()
    }

    /// Number of threads in the pool (master included).
    pub fn num_threads(&self) -> usize {
        self.engine.num_threads()
    }

    /// The configuration the pool was built with.
    pub fn config(&self) -> &Config {
        self.engine.config()
    }

    /// A snapshot of the pool's instrumentation counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.engine.stats()
    }

    /// Barrier phases the pool executes per loop (2 for half-barrier configurations,
    /// 4 for full-barrier configurations).
    pub fn phases_per_loop(&self) -> u64 {
        self.engine.phases_per_loop()
    }

    /// Instrumentation counters of the hierarchical half-barrier (per-socket arrival
    /// counts, cross-socket rendezvous per cycle), or `None` when the pool uses a flat
    /// synchronization structure.
    pub fn hierarchy_stats(&self) -> Option<parlo_barrier::HierarchyStats> {
        self.engine.hierarchy_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BarrierKind;
    use parlo_sync::{AtomicUsize, Ordering};

    fn pool(kind: BarrierKind, threads: usize) -> FineGrainPool {
        FineGrainPool::new(Config::builder(threads).barrier(kind).build())
    }

    #[test]
    fn pool_creation_and_teardown_all_kinds() {
        for kind in BarrierKind::ALL {
            for threads in [1, 2, 4] {
                let p = pool(kind, threads);
                assert_eq!(p.num_threads(), threads);
                drop(p);
            }
        }
    }

    #[test]
    fn broadcast_runs_every_participant_each_loop() {
        for kind in BarrierKind::ALL {
            let mut p = pool(kind, 4);
            let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            for _ in 0..25 {
                p.broadcast(|info| {
                    hits[info.id].fetch_add(1, Ordering::Relaxed);
                    assert_eq!(info.num_threads, 4);
                });
            }
            for h in &hits {
                assert_eq!(h.load(Ordering::Relaxed), 25, "kind {kind:?}");
            }
        }
    }

    #[test]
    fn phases_per_loop_reflects_half_vs_full() {
        assert_eq!(pool(BarrierKind::TreeHalf, 2).phases_per_loop(), 2);
        assert_eq!(pool(BarrierKind::CentralizedHalf, 2).phases_per_loop(), 2);
        assert_eq!(pool(BarrierKind::TreeFull, 2).phases_per_loop(), 4);
        assert_eq!(pool(BarrierKind::CentralizedFull, 2).phases_per_loop(), 4);
    }

    #[test]
    fn single_thread_pool_runs_loops() {
        let mut p = FineGrainPool::with_threads(1);
        let counter = AtomicUsize::new(0);
        p.parallel_for(0..100, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[cfg(not(feature = "stats-off"))]
    #[test]
    fn stats_count_loops_and_phases() {
        let mut p = pool(BarrierKind::TreeHalf, 2);
        p.parallel_for(0..10, |_| {});
        p.parallel_for(0..10, |_| {});
        let s = p.stats();
        assert_eq!(s.loops, 2);
        assert_eq!(s.barrier_phases, 4);

        let mut pf = pool(BarrierKind::TreeFull, 2);
        pf.parallel_for(0..10, |_| {});
        assert_eq!(pf.stats().barrier_phases, 4);
    }

    #[test]
    fn placement_pool_uses_hierarchical_half_barrier() {
        use parlo_affinity::{PinPolicy, PlacementConfig};
        let placement = PlacementConfig::synthetic(2, 2).with_pin(PinPolicy::None);
        let mut p = FineGrainPool::with_placement(4, &placement);
        let counter = AtomicUsize::new(0);
        for _ in 0..10 {
            p.parallel_for(0..100, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        let h = p.hierarchy_stats().expect("hierarchical sync enabled");
        assert_eq!(h.cycles, 10);
        assert_eq!(h.cross_socket_rendezvous, 10, "one rendezvous per loop");

        // Disabling the hierarchy falls back to the flat topology-aware tree.
        let flat = FineGrainPool::new(
            Config::builder(4)
                .placement(&placement.with_hierarchical(false))
                .build(),
        );
        assert!(flat.hierarchy_stats().is_none());
    }

    #[test]
    fn with_default_config_works() {
        let mut p = FineGrainPool::with_default_config();
        let n = p.num_threads();
        assert!(n >= 1);
        let sum = parlo_sync::AtomicUsize::new(0);
        p.parallel_for(0..1000, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 499_500);
    }
}
