//! The half-barrier loop engine shared by every pool built on it.
//!
//! A [`LoopEngine`] owns `P − 1` leased workers bound to one master (the thread that
//! drives it).  Per loop it executes exactly the synchronization the paper's
//! half-barrier pattern prescribes:
//!
//! 1. the master publishes the loop's [`Harness`] and performs the **release phase**
//!    of the fork barrier — it never waits at the fork point;
//! 2. every participant (master included) runs its share of the harness;
//! 3. every worker performs the **join phase** of the completion barrier, folding
//!    reduction views pairwise on the way up the tree (for a [`crate::Merged`]
//!    harness); the master waits for its join children and returns — no release
//!    phase follows.
//!
//! Configured with [`BarrierKind::TreeFull`] / [`BarrierKind::CentralizedFull`], the
//! same engine runs both phases at both ends (two full barriers per loop), the
//! baseline structure of conventional runtimes and the "with full-barrier" row of
//! Table 1.
//!
//! The pools differ only in *who runs which iterations*: the fine-grain pool's
//! harnesses compute static blocks or pull from a shared dispenser, the stealing
//! pool's harness drains per-participant chunk deques.  Everything else — job slot,
//! epochs, detach cycle, lease registration, master pinning, trace spans and the
//! loop/reduction/phase/combine counters — lives here, once.

use crate::config::{BarrierKind, Config};
use crate::job::{Job, JobSlot};
use crate::stats::{PoolStats, StatsSnapshot};
use crossbeam::utils::CachePadded;
use parlo_barrier::{Epoch, FullBarrier, HalfBarrier, TreeShape, WaitPolicy};
use parlo_exec::{ClientHooks, Executor, Lease};
use parlo_sync::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One loop as the engine runs it: what each participant executes and, for a loop
/// with a merged reduction, how the join phase folds two participants' views.
///
/// The trait is sealed: it is implemented for every `Fn(usize, Epoch) + Sync` closure
/// (participant id, barrier epoch — a loop without a reduction) and for
/// [`crate::Merged`] (a reduction folded pairwise inside the join phase).  Its methods
/// can only be called by the engine, which is what lets [`crate::Merged`] hand each
/// participant its own reduction view without any synchronization of its own.
pub trait Harness: sealed::Harness {}

impl<H: sealed::Harness> Harness for H {}

pub(crate) mod sealed {
    use parlo_barrier::Epoch;

    /// The engine-facing half of [`super::Harness`]; only the engine calls it.
    pub trait Harness: Sync {
        /// Runs participant `id`'s share of the loop whose barrier epoch is `epoch`.
        ///
        /// # Safety
        /// Within one loop, each participant id is executed exactly once, on one
        /// thread, and never concurrently with a `combine` that names the same id.
        unsafe fn execute(&self, id: usize, epoch: Epoch);

        /// Whether the join phase calls [`Harness::combine`] for every arriving child.
        fn combines(&self) -> bool {
            false
        }

        /// Folds participant `from`'s reduction view into participant `into`'s.
        ///
        /// # Safety
        /// Called on the thread that executed `into`, after `into`'s share returned,
        /// and after `from`'s share returned and `from` arrived at the join; no other
        /// call names `from` afterwards within the loop.
        unsafe fn combine(&self, _into: usize, _from: usize) {}
    }

    impl<F: Fn(usize, Epoch) + Sync> Harness for F {
        #[inline]
        unsafe fn execute(&self, id: usize, epoch: Epoch) {
            self(id, epoch)
        }
    }
}

/// The synchronization structure: either the paper's half-barrier or a conventional
/// pair of full barriers, in tree or centralized flavor.
#[derive(Debug)]
enum SyncImpl {
    Half(HalfBarrier),
    Full(FullBarrier),
}

impl SyncImpl {
    fn build(config: &Config) -> Self {
        let n = config.num_threads;
        let shape = || TreeShape::topology_aware(&config.topology, n, config.effective_fanin());
        match config.barrier {
            // The tree half-barrier composes per socket when the placement asks for it:
            // socket-local arrival trees, one cross-socket rendezvous, socket-local
            // release fan-out.
            BarrierKind::TreeHalf if config.hierarchical => SyncImpl::Half(
                HalfBarrier::new_hierarchical(&config.topology, n, config.effective_fanin()),
            ),
            BarrierKind::TreeHalf => SyncImpl::Half(HalfBarrier::new_tree(shape())),
            BarrierKind::CentralizedHalf => SyncImpl::Half(HalfBarrier::new_centralized(n)),
            BarrierKind::TreeFull => SyncImpl::Full(FullBarrier::new_tree(shape())),
            BarrierKind::CentralizedFull => SyncImpl::Full(FullBarrier::new_centralized(n)),
        }
    }

    /// Barrier phases executed per loop (a release or a join phase each count as one).
    fn phases_per_loop(&self) -> u64 {
        match self {
            SyncImpl::Half(_) => 2,
            SyncImpl::Full(_) => 4,
        }
    }

    /// Master side of the fork point for loop `epoch`.
    #[inline]
    fn master_fork(&self, epoch: Epoch, policy: &WaitPolicy) {
        match self {
            // Release phase only: the master never waits at the fork.
            SyncImpl::Half(hb) => hb.release(epoch),
            // Conventional fork barrier: wait for every worker to have checked in, then
            // release them all.
            SyncImpl::Full(fb) => fb.master_wait(2 * epoch - 1, policy),
        }
    }

    /// Worker side of the fork point for loop `epoch`.
    #[inline]
    fn worker_fork(&self, id: usize, epoch: Epoch, policy: &WaitPolicy) {
        match self {
            SyncImpl::Half(hb) => hb.wait_release(id, epoch, policy),
            SyncImpl::Full(fb) => fb.worker_wait(id, 2 * epoch - 1, policy),
        }
    }

    /// Master side of the completion point for loop `epoch`.
    #[inline]
    fn master_join<F: FnMut(usize)>(&self, epoch: Epoch, policy: &WaitPolicy, on_child: F) {
        match self {
            // Join phase only: collect arrivals (and reductions); no acknowledgement.
            SyncImpl::Half(hb) => hb.join(epoch, policy, on_child),
            // Conventional join barrier: collect arrivals, then release everybody again.
            SyncImpl::Full(fb) => fb.master_wait_combine(2 * epoch, policy, on_child),
        }
    }

    /// Worker side of the completion point for loop `epoch`.
    #[inline]
    fn worker_join<F: FnMut(usize)>(
        &self,
        id: usize,
        epoch: Epoch,
        policy: &WaitPolicy,
        on_child: F,
    ) {
        match self {
            SyncImpl::Half(hb) => hb.arrive(id, epoch, policy, on_child),
            SyncImpl::Full(fb) => fb.worker_wait_combine(id, 2 * epoch, policy, on_child),
        }
    }
}

/// State shared between the master and the (leased) workers.
#[derive(Debug)]
struct EngineShared {
    /// The client label, also used to name the pool in contract panics.
    name: String,
    nthreads: usize,
    sync: SyncImpl,
    slot: JobSlot,
    /// Asks the leased workers to exit [`worker_body`] and park back in the substrate
    /// (reset by the master before re-activating its lease).
    detach: AtomicBool,
    /// The master's loop epoch (mutated only by the driving thread; an atomic so the
    /// detach hook — a closure held by the substrate — can advance it too).
    epoch: AtomicU64,
    /// Where each worker's scheduling loop resumes after a detach/re-attach cycle.
    worker_epochs: Vec<CachePadded<AtomicU64>>,
    /// Set while a loop (or the detach cycle) is in flight.  Loop entry and the
    /// detach hook both claim it with a `swap`, so a racing second driver — or a
    /// lease revocation overlapping a loop — panics deterministically on whichever
    /// side comes second, instead of corrupting the hand-off.
    in_loop: AtomicBool,
    policy: WaitPolicy,
    stats: PoolStats,
}

impl EngineShared {
    /// Advances and returns the master-side epoch.
    fn next_epoch(&self) -> Epoch {
        let epoch = self.epoch.load(Ordering::Relaxed) + 1;
        self.epoch.store(epoch, Ordering::Relaxed);
        epoch
    }

    /// Accounts one join-phase combine of participant `from`'s view.
    #[inline]
    fn record_combine(&self, from: usize) {
        self.stats.record_combine();
        parlo_trace::instant(parlo_trace::Phase::Combine, from as u64, 0);
    }
}

/// Drives one no-op loop cycle that every attached worker answers by exiting
/// [`worker_body`]: the detach hook the engine registers with the substrate.  The
/// cycle is symmetric (the workers arrive at the join before parking) so
/// cumulative-arrival synchronization stays aligned across detach/re-attach.
fn detach_workers(shared: &EngineShared) {
    assert!(
        !shared.in_loop.swap(true, Ordering::Relaxed),
        "{} pool lease revoked while a loop is in flight; concurrent drivers of one pool \
         must coordinate (see the parlo-exec multi-driver contract)",
        shared.name
    );
    shared.detach.store(true, Ordering::Release);
    let epoch = shared.next_epoch();
    parlo_trace::span_begin(parlo_trace::Phase::DetachCycle, epoch, 0);
    // SAFETY: no loop is in flight (the swap above claimed the engine), so no worker
    // reads the slot concurrently.
    unsafe { shared.slot.publish(Job::noop()) };
    shared.sync.master_fork(epoch, &shared.policy);
    shared.sync.master_join(epoch, &shared.policy, |_| {});
    parlo_trace::span_end(parlo_trace::Phase::DetachCycle);
    shared.in_loop.store(false, Ordering::Relaxed);
}

/// Completes the join of a loop whose master share is unwinding: waits for every
/// worker to arrive (they still read the harness on the unwinding frame), skips the
/// master's combines, and releases the engine for the next loop.  Armed around the
/// master's share only; the normal path forgets it.
struct JoinOnUnwind<'a> {
    shared: &'a EngineShared,
    epoch: Epoch,
}

impl Drop for JoinOnUnwind<'_> {
    fn drop(&mut self) {
        finish_unwound_loop(self.shared, self.epoch);
    }
}

/// The body of [`JoinOnUnwind`], kept out of line so that the unwind path of
/// [`LoopEngine::run`] is a single call.
#[cold]
#[inline(never)]
fn finish_unwound_loop(shared: &EngineShared, epoch: Epoch) {
    shared.sync.master_join(epoch, &shared.policy, |_| {});
    parlo_trace::span_end(parlo_trace::Phase::Loop);
    shared.in_loop.store(false, Ordering::Relaxed);
}

/// One leased worker's scheduling loop: resumes at the epoch stored on its last
/// detach, serves loop after loop, and parks back in the substrate when the engine's
/// detach hook fires (completing the detach cycle's join phase first so the epoch
/// accounting stays aligned across re-attachment).
fn worker_body(shared: &EngineShared, id: usize) {
    let mut epoch: Epoch = shared.worker_epochs[id].load(Ordering::Relaxed);
    loop {
        epoch += 1;
        shared.sync.worker_fork(id, epoch, &shared.policy);
        if shared.detach.load(Ordering::Acquire) {
            shared.sync.worker_join(id, epoch, &shared.policy, |_| {});
            shared.worker_epochs[id].store(epoch, Ordering::Relaxed);
            return;
        }
        // SAFETY: the fork release established a happens-before edge with the master's
        // publish of the job for this epoch.
        let job = unsafe { shared.slot.read() };
        // SAFETY: the master keeps the harness alive until its join phase completes,
        // which cannot happen before this worker arrives below; this thread is the
        // only one running participant `id`.
        unsafe { job.execute(id, epoch) };
        shared.sync.worker_join(id, epoch, &shared.policy, |from| {
            if job.has_combine() {
                shared.record_combine(from);
                // SAFETY: `from` has arrived, so its view is final and no longer
                // accessed by its owner; this thread executed `id` and is `from`'s
                // join parent, the only one that touches it from here on.
                unsafe { job.combine(id, from) };
            }
        });
    }
}

/// The half-barrier loop engine: a persistent set of leased workers that runs one
/// [`Harness`] per loop under a single half-barrier (or, in the full-barrier
/// ablation, two full barriers).
///
/// [`LoopEngine::run`] takes `&self` but serves exactly one master at a time: a
/// second simultaneous driver panics deterministically instead of interleaving.
#[derive(Debug)]
pub struct LoopEngine {
    shared: Arc<EngineShared>,
    config: Config,
    /// The engine's claim on the shared worker substrate; dropping it detaches the
    /// workers (which the substrate owns — the engine spawns no threads itself).
    lease: Lease,
}

impl LoopEngine {
    /// Builds an engine for `config` and registers it with `executor` under the
    /// client label `name`.  With `partition = None` the lease is exclusive and the
    /// calling thread is pinned as participant 0; with a partition of substrate worker
    /// ids (see [`Executor::register_partition`]) `config.num_threads` must equal
    /// `workers.len() + 1` and the calling thread is never re-pinned — a gang engine is
    /// typically built on a control thread and *driven* by an already-pinned worker.
    pub fn new(
        name: String,
        config: Config,
        executor: &Arc<Executor>,
        partition: Option<&[usize]>,
    ) -> Self {
        let nthreads = config.num_threads.max(1);
        if let Some(workers) = partition {
            assert_eq!(
                nthreads,
                workers.len() + 1,
                "a partition pool has one thread per leased worker plus its master"
            );
        } else if let Some(core) = config.topology.core_for_worker(0, config.pin) {
            let _ = parlo_affinity::pin_to_core(core);
        }
        let shared = Arc::new(EngineShared {
            name: name.clone(),
            nthreads,
            sync: SyncImpl::build(&config),
            slot: JobSlot::new(),
            detach: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            worker_epochs: (0..nthreads)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            in_loop: AtomicBool::new(false),
            policy: config.wait,
            stats: PoolStats::new(),
        });
        let body = {
            let shared = shared.clone();
            Arc::new(move |id: usize| worker_body(&shared, id))
        };
        let detach = {
            let shared = shared.clone();
            Arc::new(move || detach_workers(&shared))
        };
        let hooks = ClientHooks {
            name,
            participants: nthreads,
            body,
            detach,
        };
        let lease = match partition {
            None => executor.register(hooks),
            Some(workers) => executor.register_partition(hooks, workers.to_vec()),
        };
        LoopEngine {
            shared,
            config,
            lease,
        }
    }

    /// Runs one loop: publishes `harness`, releases the workers, executes the
    /// master's share and joins, folding reduction views on the way when the harness
    /// is a [`crate::Merged`] reduction.  Counts one loop (and one reduction for a
    /// merged reduction) plus the loop's barrier phases.
    ///
    /// # Panics
    /// When another thread is driving this engine at the same time.  A panic in the
    /// master's own share propagates to the caller after the workers have arrived at
    /// the join (the master combines no views), and the engine stays usable.
    pub fn run<H: Harness>(&self, harness: H) {
        let shared = &*self.shared;
        // Claim the engine before touching any loop state: a second driver racing this
        // entry sees `true` from its own swap and panics deterministically, before
        // either side can corrupt the epoch counter or the job slot.
        assert!(
            !shared.in_loop.swap(true, Ordering::Relaxed),
            "{} pool driven by two threads at once: a pool serves exactly one master \
             thread (see the parlo-exec multi-driver contract)",
            shared.name
        );
        if shared.nthreads > 1 {
            // One atomic load when the lease is already held — the common case.
            self.lease
                .ensure_active(|| shared.detach.store(false, Ordering::Relaxed));
        }
        let combines = harness.combines();
        shared.stats.record_loop(shared.sync.phases_per_loop());
        if combines {
            shared.stats.record_reduction();
        }
        let epoch = shared.next_epoch();
        parlo_trace::span_begin(parlo_trace::Phase::Loop, epoch, shared.nthreads as u64);
        // Publish the work description, then perform the fork-side synchronization.
        // SAFETY: the previous loop's join phase has completed (the swap above claimed
        // the engine), so no worker reads the slot; `harness` outlives this call, which
        // returns only after every participant has arrived at the join.
        unsafe { shared.slot.publish(Job::of(&harness)) };
        shared.sync.master_fork(epoch, &shared.policy);
        // Declared after `harness`, so on unwind it drops first: the workers still
        // read the harness until their join arrives.
        let unwind = JoinOnUnwind { shared, epoch };
        // SAFETY: the master is participant 0 and runs its share once; the workers
        // run only their own ids.
        unsafe { harness.execute(0, epoch) };
        std::mem::forget(unwind);
        shared.sync.master_join(epoch, &shared.policy, |from| {
            if combines {
                shared.record_combine(from);
                // SAFETY: `from` has arrived (its share returned) and the master, which
                // executed participant 0, is its join parent.
                unsafe { harness.combine(0, from) };
            }
        });
        parlo_trace::span_end(parlo_trace::Phase::Loop);
        shared.in_loop.store(false, Ordering::Relaxed);
    }

    /// The substrate this engine leases its workers from.
    pub fn executor(&self) -> &Arc<Executor> {
        self.lease.executor()
    }

    /// Number of participants (master included).
    pub fn num_threads(&self) -> usize {
        self.shared.nthreads
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// A snapshot of the engine's loop/reduction/phase/combine counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// The live counters, for pool-specific accounting inside this crate.
    pub(crate) fn counters(&self) -> &PoolStats {
        &self.shared.stats
    }

    /// Barrier phases the engine executes per loop (2 for half-barrier
    /// configurations, 4 for full-barrier configurations).
    pub fn phases_per_loop(&self) -> u64 {
        self.shared.sync.phases_per_loop()
    }

    /// Instrumentation counters of the hierarchical half-barrier (per-socket arrival
    /// counts, cross-socket rendezvous per cycle), or `None` when the engine uses a
    /// flat synchronization structure.
    pub fn hierarchy_stats(&self) -> Option<parlo_barrier::HierarchyStats> {
        match &self.shared.sync {
            SyncImpl::Half(hb) => hb.hierarchy_stats(),
            SyncImpl::Full(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlo_affinity::PinPolicy;

    fn engine(threads: usize) -> LoopEngine {
        let config = Config::builder(threads).pin(PinPolicy::None).build();
        let executor = Executor::new(&config.topology, config.pin);
        LoopEngine::new("test".to_string(), config, &executor, None)
    }

    #[test]
    fn every_participant_sees_the_loop_epoch() {
        let e = engine(3);
        for expected in 1..=5u64 {
            let seen: Vec<AtomicU64> = (0..3).map(|_| AtomicU64::new(0)).collect();
            e.run(|id: usize, epoch: Epoch| seen[id].store(epoch, Ordering::Relaxed));
            assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == expected));
        }
        #[cfg(not(feature = "stats-off"))]
        assert_eq!(e.stats().loops, 5);
    }
}
