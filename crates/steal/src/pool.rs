//! The persistent work-stealing chunk pool.
//!
//! A [`StealPool`] is `parlo-core`'s [`LoopEngine`] plus a chunk-deque dispenser: the
//! engine owns the workers, the half-barrier, the job slot, the detach cycle and the
//! loop/reduction/phase/combine counters, and this module decides only *who runs
//! which iterations*.  Per loop:
//!
//! 1. the master publishes the loop and performs the **release phase** of the
//!    half-barrier — it never waits at the fork point;
//! 2. every participant seeds its own deque with its pre-split chunk run
//!    (its static block subdivided into chunks, pushed back-to-front) and executes it
//!    with owner-LIFO pops, so the run proceeds front to back; a chunk popped from the
//!    own run always executes whole;
//! 3. a participant whose own deque is empty performs randomized-victim steal sweeps,
//!    taking items thief-FIFO from the *back* of other workers' deques, until a full
//!    sweep observes only empty deques.  A stolen range runs under **lazy binary
//!    splitting** (Tzannes et al., PPoPP 2010): one iteration at a time, and before
//!    each one, if the thief's own deque is empty, the back half is pushed onto that
//!    deque as a *piece* any participant can steal (and split again).  Splitting
//!    stops once half of what is left, estimated at the range's first iteration's
//!    cost, is too little work to repay a steal.  A heavy stolen tail is thus shared
//!    instead of run whole, while a loop with no steals never splits.  Site-keyed (sticky) loops are the
//!    exception: their stolen chunks run whole, so every chunk keeps one executor
//!    for the affinity record;
//! 4. every participant then performs the **join phase** of the same half-barrier,
//!    folding reduction views pairwise on the way up — completion detection costs
//!    exactly the 2 barrier phases of the fine-grain pool, so the burden comparison
//!    with the other runtimes stays apples-to-apples.
//!
//! Completion needs no outstanding-iteration counter.  Chunks enter the deques only
//! at seeding; pieces are pushed by a participant only onto its *own* deque and only
//! before it arrives, and a participant drains its own deque (pop before every
//! sweep) before it arrives.  Whoever claims a chunk or a piece executes it before
//! arriving — so when the master's join completes, every iteration has run once.

use crate::chunk::{assigned_run_rev, default_chunk, grid_chunks, worker_run_rev, ChunkRange};
use crate::deque::WorkStealingDeque;
use crate::perturb::{SchedulePerturbation, SweepPlan, MAX_PERTURB_SPINS};
use crate::sticky::{balanced_owners, StealSite, StickyEntry, StickyLoop, StickyTable};
use crossbeam::utils::CachePadded;
use parlo_affinity::{PinPolicy, Topology};
use parlo_barrier::{Epoch, WaitPolicy};
use parlo_cilk::Steal;
use parlo_core::{BarrierKind, Config, LoopEngine, Merged, StatsSnapshot, Views};
use parlo_exec::Executor;
use parlo_sync::{AtomicU32, AtomicU64, Ordering};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// How many chunks a successful **cross-socket** steal takes from its victim in one
/// bite (when the pool is locality-aware): the thief pays the interconnect transfer
/// once and amortizes it over a larger span of iterations, which is the NUMA-tier
/// chunk sizing of the locality design — local steals keep taking single chunks, so
/// rebalancing granularity inside a socket stays fine.
pub const REMOTE_STEAL_BATCH: usize = 2;

/// The least work, in nanoseconds, a piece must be estimated to hold for lazy
/// splitting to push it: a few times what handing one piece to a thief costs (the
/// push, the thief's sweep and its CAS on the owner's deque, each a cache-line
/// transfer).  Smaller pieces would pass between idle participants for longer than
/// running them in place takes.
const MIN_PIECE_NANOS: u64 = 2_000;

/// Configuration of a [`StealPool`].
#[derive(Clone)]
pub struct StealConfig {
    /// Number of participants (the master counts as worker 0).
    pub num_threads: usize,
    /// Machine topology (pinning and half-barrier layout).
    pub topology: Topology,
    /// Thread pinning policy.
    pub pin: PinPolicy,
    /// Waiting policy of the half-barrier phases.
    pub wait: WaitPolicy,
    /// Compose the half-barrier per socket (socket-local arrival trees, one
    /// cross-socket rendezvous) instead of one flat topology-aware tree.
    pub hierarchical: bool,
    /// Explicit chunk size for every loop; `None` derives one per loop from
    /// [`default_chunk`].
    ///
    /// Derived or explicit, the chunk size is the seeding granularity and the unit
    /// of a first steal; a thief splits what it stole lazily (see the module docs),
    /// except in site-keyed sticky loops, whose stolen chunks run whole.
    pub chunk: Option<usize>,
    /// Order steal sweeps socket-local-first over the topology's victim tiers
    /// (randomized within each tier, falling outward only when the current tier is
    /// dry) and take [`REMOTE_STEAL_BATCH`] chunks per cross-socket steal.  When
    /// `false` the pool keeps the flat randomized ring sweep — the random-victim
    /// baseline the locality ablation compares against.
    pub locality: bool,
    /// Schedule-perturbation hook consulted before every steal sweep (`None` uses a
    /// per-worker xorshift victim rotation with no injected delays).
    pub perturb: Option<Arc<dyn SchedulePerturbation>>,
}

impl std::fmt::Debug for StealConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StealConfig")
            .field("num_threads", &self.num_threads)
            .field("pin", &self.pin)
            .field("hierarchical", &self.hierarchical)
            .field("chunk", &self.chunk)
            .field("locality", &self.locality)
            .field("perturbed", &self.perturb.is_some())
            .finish()
    }
}

impl Default for StealConfig {
    fn default() -> Self {
        let topology = Topology::detect();
        let num_threads = topology.num_cores().max(1);
        StealConfig {
            num_threads,
            pin: PinPolicy::Compact,
            wait: WaitPolicy::auto_for(num_threads),
            hierarchical: true,
            chunk: None,
            locality: true,
            perturb: None,
            topology,
        }
    }
}

impl StealConfig {
    /// A configuration with `num_threads` participants and defaults for the rest.
    pub fn with_threads(num_threads: usize) -> Self {
        let num_threads = num_threads.max(1);
        StealConfig {
            num_threads,
            wait: WaitPolicy::auto_for(num_threads),
            ..StealConfig::default()
        }
    }

    /// A configuration with `num_threads` participants placed according to a shared
    /// [`parlo_affinity::PlacementConfig`] (topology source, pin policy, hierarchical
    /// half-barrier on/off).
    pub fn from_placement(num_threads: usize, placement: &parlo_affinity::PlacementConfig) -> Self {
        StealConfig {
            topology: placement.topology(),
            pin: placement.pin,
            hierarchical: placement.hierarchical,
            ..Self::with_threads(num_threads)
        }
    }

    /// Replaces the schedule-perturbation hook.
    pub fn with_perturbation(mut self, perturb: Arc<dyn SchedulePerturbation>) -> Self {
        self.perturb = Some(perturb);
        self
    }

    /// Replaces the fixed chunk size.
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = Some(chunk.max(1));
        self
    }

    /// Enables or disables the locality-aware (tiered, socket-local-first) steal
    /// sweep; disabling it restores the flat random-victim ring.
    pub fn with_locality(mut self, locality: bool) -> Self {
        self.locality = locality;
        self
    }

    /// The engine configuration the pool runs on — the one place the stealing
    /// configuration maps onto `parlo-core`'s: the tree half-barrier (socket-composed
    /// when `hierarchical`) with the topology's arrival fan-in, over the same
    /// topology, pin and wait policy.
    fn engine_config(&self) -> Config {
        Config {
            num_threads: self.num_threads.max(1),
            barrier: BarrierKind::TreeHalf,
            topology: self.topology.clone(),
            pin: self.pin,
            wait: self.wait,
            fanin: None,
            hierarchical: self.hierarchical,
        }
    }
}

parlo_core::stats_family! {
    /// A point-in-time copy of a [`StealPool`]'s instrumentation counters.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct StealStats: "steal" {
        /// Parallel loops executed (reductions included).
        pub loops: u64,
        /// Parallel reductions executed.
        pub reductions: u64,
        /// Barrier phases executed (always 2 per loop: one release, one join).
        pub barrier_phases: u64,
        /// Reduction-view combine operations (exactly `P − 1` per reduction).
        pub combine_ops: u64,
        /// Steal attempts (successful or not).
        pub steals_attempted: u64,
        /// Successful chunk steals; every hit transfers exactly one pre-split chunk,
        /// so this is also the number of chunks executed away from their pre-split
        /// owner.  Piece steals are counted in `split_steals` instead.
        pub steals_hit: u64,
        /// Successful steals whose victim shares the thief's socket
        /// (`local_steals + remote_steals == steals_hit`).
        pub local_steals: u64,
        /// Successful steals that crossed a socket boundary — the traffic the
        /// locality-aware sweep exists to minimize.
        pub remote_steals: u64,
        /// Loops executed through a site-keyed entry point
        /// ([`StealPool::steal_for_at`] and friends).
        pub sticky_loops: u64,
        /// Site-keyed loops whose deque seeding replayed a remembered
        /// chunk→worker assignment (as opposed to a cold or invalidated site).
        pub sticky_hits: u64,
        /// Remembered assignments dropped because the site's range or chunk size
        /// changed (see the `sticky` module's invalidation contract).
        pub sticky_invalidations: u64,
        /// Of the grid chunks executed in sticky-hit loops, how many ran on the same
        /// participant as the previous invocation — the affinity-reuse numerator.
        pub sticky_chunks_reused: u64,
        /// Grid chunks executed in sticky-hit loops — the affinity-reuse denominator.
        pub sticky_chunks_total: u64,
        /// Pieces pushed by lazy binary splitting of stolen ranges (zero for
        /// site-keyed loops).
        pub splits: u64,
        /// Pieces taken by a thief (`split_steals <= splits`); a piece steal takes one
        /// piece, never a remote batch.
        pub split_steals: u64,
        /// Pre-split chunks claimed by each participant (index 0 is the master);
        /// pieces are not counted.  The sum equals the pre-split chunk count of
        /// every loop executed — the exact-coverage account.
        pub chunks_per_worker: Vec<u64>,
    }
}

impl StealStats {
    /// Total chunks executed across all participants.
    pub fn chunks_executed(&self) -> u64 {
        self.chunks_per_worker.iter().sum()
    }

    /// Fraction of sticky-hit grid chunks that re-ran on the participant of the
    /// previous invocation (`NaN`-free: `1.0` when no sticky loop ran yet).
    pub fn sticky_reuse_fraction(&self) -> f64 {
        if self.sticky_chunks_total == 0 {
            1.0
        } else {
            self.sticky_chunks_reused as f64 / self.sticky_chunks_total as f64
        }
    }
}

/// One participant's private hot-path line, padded to a cache line so the steal tail
/// (one attempt bump per victim probe) never bounces a line between workers.  The
/// local/remote tier split of the hits and the victim-rotation state live on the same
/// line for the same reason: everything a sweep writes stays core-local.
#[derive(Debug, Default)]
struct ParticipantLine {
    /// xorshift state of the unperturbed victim rotation; carried across loops.
    rng: AtomicU64,
    chunks: AtomicU64,
    steals_attempted: AtomicU64,
    steals_hit: AtomicU64,
    local_steals: AtomicU64,
    remote_steals: AtomicU64,
    splits: AtomicU64,
    split_steals: AtomicU64,
}

/// The stealing-specific counters (relaxed atomics); the loop, reduction, phase and
/// combine counts are the engine's.  Everything a participant touches while executing
/// a loop lives in its own padded [`ParticipantLine`]; the sticky counters are bumped
/// by the master only.
#[derive(Debug)]
struct StealCounters {
    sticky_loops: AtomicU64,
    sticky_hits: AtomicU64,
    sticky_invalidations: AtomicU64,
    sticky_chunks_reused: AtomicU64,
    sticky_chunks_total: AtomicU64,
    lines: Vec<CachePadded<ParticipantLine>>,
}

impl StealCounters {
    fn new(nthreads: usize) -> Self {
        let line = |id: usize| {
            let seed = if id == 0 {
                0xD1B5_4A32_D192_ED03
            } else {
                victim_seed(id)
            };
            CachePadded::new(ParticipantLine {
                rng: AtomicU64::new(seed),
                ..ParticipantLine::default()
            })
        };
        StealCounters {
            sticky_loops: AtomicU64::new(0),
            sticky_hits: AtomicU64::new(0),
            sticky_invalidations: AtomicU64::new(0),
            sticky_chunks_reused: AtomicU64::new(0),
            sticky_chunks_total: AtomicU64::new(0),
            lines: (0..nthreads).map(line).collect(),
        }
    }

    fn snapshot(&self, engine: StatsSnapshot) -> StealStats {
        let sum = |field: fn(&ParticipantLine) -> &AtomicU64| -> u64 {
            self.lines
                .iter()
                .map(|w| field(w).load(Ordering::Relaxed))
                .sum()
        };
        StealStats {
            loops: engine.loops,
            reductions: engine.reductions,
            barrier_phases: engine.barrier_phases,
            combine_ops: engine.combine_ops,
            sticky_loops: self.sticky_loops.load(Ordering::Relaxed),
            sticky_hits: self.sticky_hits.load(Ordering::Relaxed),
            sticky_invalidations: self.sticky_invalidations.load(Ordering::Relaxed),
            sticky_chunks_reused: self.sticky_chunks_reused.load(Ordering::Relaxed),
            sticky_chunks_total: self.sticky_chunks_total.load(Ordering::Relaxed),
            steals_attempted: sum(|w| &w.steals_attempted),
            steals_hit: sum(|w| &w.steals_hit),
            local_steals: sum(|w| &w.local_steals),
            remote_steals: sum(|w| &w.remote_steals),
            splits: sum(|w| &w.splits),
            split_steals: sum(|w| &w.split_steals),
            chunks_per_worker: self
                .lines
                .iter()
                .map(|w| w.chunks.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// One deque item: a pre-split chunk, or a piece split off a stolen range.
#[derive(Clone, Copy)]
struct Work {
    range: ChunkRange,
    piece: bool,
}

/// What only stealing needs, shared with every participant through the loop
/// harness: the deques, the victim tiers and the per-participant lines.
struct Dispenser {
    deques: Vec<WorkStealingDeque<Work>>,
    counters: StealCounters,
    /// `socket_of[w]` = socket of participant `w` under the compact layout; used to
    /// classify every steal hit as local or remote (in both sweep modes).
    socket_of: Vec<usize>,
    /// Per-participant victim tiers (`tiers[w][0]` = same-socket peers, then remote
    /// sockets outward), precomputed at build so the tiered sweep is array walks.
    /// Consulted only when `config.locality` is set.
    tiers: Vec<Vec<Vec<usize>>>,
    config: StealConfig,
}

/// One stealing loop: the range every participant pre-splits independently, the
/// chunk size of the split, and the sticky-affinity state of a site-keyed loop (the
/// chunk→worker assignment driving the deque seeding and the per-chunk execution
/// record).
struct ChunkLoop<'a> {
    range: Range<usize>,
    chunk: usize,
    sticky: Option<&'a StickyLoop>,
}

impl ChunkLoop<'_> {
    /// A loop without a site key, or `None` for an empty range.
    fn plain(range: Range<usize>, chunk: usize) -> Option<Self> {
        (range.start < range.end).then(|| ChunkLoop {
            range,
            chunk: chunk.max(1),
            sticky: None,
        })
    }
}

/// The work-stealing chunk scheduler.
///
/// Loop methods take `&mut self`: a pool serves exactly one master thread and loops do
/// not nest — the same structural property the half-barrier completion detection relies
/// on in the fine-grain pool.
pub struct StealPool {
    engine: LoopEngine,
    dispenser: Dispenser,
    /// Remembered per-site chunk→worker assignments (see the `sticky` module for the
    /// invalidation contract).  Master-only: loop entry points take `&mut self`.
    sticky: StickyTable,
}

impl std::fmt::Debug for StealPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StealPool")
            .field("num_threads", &self.num_threads())
            .finish()
    }
}

/// xorshift64* step for the unperturbed victim rotation.
///
/// Zero is the fixed point of every xorshift map: a state of 0 stays 0 forever,
/// which would pin the victim rotation to deque 0 for the rest of the process.
/// The guard reseeds a dead state with the golden-ratio constant, so the rotation
/// recovers in one step no matter what the caller fed in.
#[inline]
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    if x == 0 {
        x = 0x9E37_79B9_7F4A_7C15;
    }
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A guaranteed-nonzero xorshift seed for participant `id`.  The id mix alone can
/// produce 0 for exactly one (pathological) id, which would strand that worker on
/// the xorshift fixed point; route every seed through here instead.
#[inline]
fn victim_seed(id: usize) -> u64 {
    let seed = 0x9E37_79B9_7F4A_7C15u64 ^ (id as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    if seed == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        seed
    }
}

impl StealPool {
    /// Creates a pool with `num_threads` participants and defaults for the rest.
    pub fn with_threads(num_threads: usize) -> Self {
        Self::new(StealConfig::with_threads(num_threads))
    }

    /// Creates a pool with `num_threads` participants placed according to a shared
    /// [`parlo_affinity::PlacementConfig`].
    pub fn with_placement(num_threads: usize, placement: &parlo_affinity::PlacementConfig) -> Self {
        Self::new(StealConfig::from_placement(num_threads, placement))
    }

    /// [`StealPool::with_placement`] with the workers leased from a shared
    /// [`Executor`] instead of a private one.
    pub fn with_placement_on(
        num_threads: usize,
        placement: &parlo_affinity::PlacementConfig,
        executor: &Arc<Executor>,
    ) -> Self {
        Self::new_on(
            StealConfig::from_placement(num_threads, placement),
            executor,
        )
    }

    /// Creates a pool from an explicit configuration, with a private worker substrate.
    pub fn new(config: StealConfig) -> Self {
        let executor = Executor::new(&config.topology, config.pin);
        Self::new_on(config, &executor)
    }

    /// Creates a pool from an explicit configuration, leasing its workers from the
    /// given substrate.
    pub fn new_on(config: StealConfig, executor: &Arc<Executor>) -> Self {
        Self::build(config, executor, None)
    }

    /// Creates a gang-sized pool over an explicit partition of substrate worker ids
    /// (see `Executor::register_partition` for the partition contract).  The
    /// configuration's `num_threads` must equal `workers.len() + 1`; the calling
    /// thread is never re-pinned.
    pub fn new_on_partition(
        config: StealConfig,
        executor: &Arc<Executor>,
        workers: &[usize],
    ) -> Self {
        Self::build(config, executor, Some(workers))
    }

    fn build(config: StealConfig, executor: &Arc<Executor>, partition: Option<&[usize]>) -> Self {
        let engine = LoopEngine::new(
            "steal".to_string(),
            config.engine_config(),
            executor,
            partition,
        );
        let nthreads = engine.num_threads();
        let dispenser = Dispenser {
            deques: (0..nthreads)
                .map(|_| WorkStealingDeque::new(1024))
                .collect(),
            counters: StealCounters::new(nthreads),
            socket_of: (0..nthreads)
                .map(|w| config.topology.socket_of_worker(w))
                .collect(),
            tiers: (0..nthreads)
                .map(|w| config.topology.victim_tiers(w, nthreads))
                .collect(),
            config,
        };
        StealPool {
            engine,
            dispenser,
            sticky: StickyTable::default(),
        }
    }

    /// The substrate this pool leases its workers from.
    pub fn executor(&self) -> &Arc<Executor> {
        self.engine.executor()
    }

    /// Number of participants (master included).
    pub fn num_threads(&self) -> usize {
        self.engine.num_threads()
    }

    /// The configuration the pool was built with.
    pub fn config(&self) -> &StealConfig {
        &self.dispenser.config
    }

    /// A snapshot of the pool's instrumentation counters.
    pub fn stats(&self) -> StealStats {
        self.dispenser.counters.snapshot(self.engine.stats())
    }

    /// Instrumentation counters of the hierarchical half-barrier, or `None` when the
    /// pool was configured with a flat tree.
    pub fn hierarchy_stats(&self) -> Option<parlo_barrier::HierarchyStats> {
        self.engine.hierarchy_stats()
    }

    /// The chunk size a loop of `n` iterations uses on this pool.
    pub fn effective_chunk(&self, n: usize) -> usize {
        self.dispenser
            .config
            .chunk
            .unwrap_or_else(|| default_chunk(n, self.num_threads()))
            .max(1)
    }

    /// Runs one stealing loop whose chunks execute `body` per index.
    fn run_for<F: Fn(usize) + Sync>(&self, job: &ChunkLoop<'_>, body: &F) {
        let dispenser = &self.dispenser;
        self.engine.run(|id, epoch| {
            dispenser.participate(id, epoch, job, |c| (c.start..c.end).for_each(body))
        });
    }

    /// Runs one stealing reduction: every participant folds the chunks it executes
    /// (own and stolen) into its own view, seeded with `init()`, and the engine merges
    /// the views in the join phase.
    fn run_reduce<T, Init, Fold, Comb>(
        &self,
        job: &ChunkLoop<'_>,
        init: Init,
        fold: Fold,
        comb: Comb,
    ) -> T
    where
        T: Send,
        Init: Fn() -> T,
        Fold: Fn(T, usize) -> T + Sync,
        Comb: Fn(T, T) -> T + Sync,
    {
        let dispenser = &self.dispenser;
        let mut views = Views::seeded(self.num_threads(), init);
        self.engine.run(Merged::new(
            &mut views,
            |id, epoch, view| {
                dispenser.participate(id, epoch, job, |c| {
                    let acc = view.take().expect("view seeded with the neutral element");
                    *view = Some((c.start..c.end).fold(acc, &fold));
                })
            },
            &comb,
        ));
        views
            .take(0)
            .expect("master view present after the join phase")
    }
}

impl Dispenser {
    /// One participant's share of one loop: seed the own deque with the pre-split run
    /// (or the sticky assignment of a site-keyed loop), drain it LIFO, then steal FIFO
    /// from victims — socket-local tiers first when the pool is locality-aware — until
    /// a full sweep finds every deque empty.  `run` executes a range of iterations.
    fn participate(
        &self,
        id: usize,
        epoch: Epoch,
        job: &ChunkLoop<'_>,
        mut run: impl FnMut(ChunkRange),
    ) {
        let n = self.deques.len();
        let deque = &self.deques[id];
        let line = &*self.counters.lines[id];
        // Runs one claimed item.  A pre-split chunk is accounted to its claimer; a
        // stolen item, or a piece (only ever split off a stolen range), runs under
        // lazy binary splitting unless the loop is site-keyed.
        let mut execute = |w: Work, stolen: bool| {
            if !w.piece {
                line.chunks.fetch_add(1, Ordering::Relaxed);
                if let Some(s) = job.sticky {
                    let k = (w.range.start - job.range.start) / job.chunk;
                    if let Some(slot) = s.exec.get(k) {
                        slot.store(id as u32, Ordering::Relaxed);
                    }
                }
            }
            if job.sticky.is_none() && (stolen || w.piece) {
                split_lazily(deque, line, w.range, &mut run);
            } else {
                run(w.range);
            }
        };
        // A panic in `run` must not leave items behind for the next loop to inherit.
        let drain = DrainOnUnwind(deque);
        // Seed the own run, back to front, so owner-LIFO pops execute it front to back
        // and thieves take from the back.  A full deque (pathologically small explicit
        // chunk size) degrades gracefully: the overflowing chunk runs inline right away.
        let seed = |range: ChunkRange| {
            let w = Work {
                range,
                piece: false,
            };
            // SAFETY: deque `id` is owned by this participant.
            if unsafe { deque.push(w) }.is_err() {
                execute(w, false);
            }
        };
        match job.sticky {
            Some(s) => assigned_run_rev(&job.range, job.chunk, &s.owners, id).for_each(seed),
            None => worker_run_rev(&job.range, n, id, job.chunk).for_each(seed),
        }
        let mut rng = line.rng.load(Ordering::Relaxed);
        let mut attempt: u64 = 0;
        loop {
            // Own deque first (LIFO pop = front-to-back execution order).
            // SAFETY: deque `id` is owned by this participant.
            if let Some(w) = unsafe { deque.pop() } {
                execute(w, false);
                continue;
            }
            if n == 1 {
                break;
            }
            // One perturbed steal sweep.
            attempt += 1;
            let plan = match &self.config.perturb {
                Some(p) => {
                    let plan = p.steal_sweep(id, epoch, attempt);
                    SweepPlan {
                        delay_spins: plan.delay_spins.min(MAX_PERTURB_SPINS),
                        ..plan
                    }
                }
                None => SweepPlan {
                    victim_seed: xorshift(&mut rng),
                    delay_spins: 0,
                },
            };
            for _ in 0..plan.delay_spins {
                std::hint::spin_loop();
            }
            parlo_trace::instant(parlo_trace::Phase::StealSweep, id as u64, attempt);
            let mut saw_retry = false;
            let stolen = self.sweep(id, epoch, attempt, plan.victim_seed, line, &mut saw_retry);
            match stolen {
                Some((first, victim)) => {
                    let mut batch = [first; REMOTE_STEAL_BATCH];
                    let mut taken = 1;
                    // NUMA-tier chunk sizing: a cross-socket chunk hit takes up to
                    // `REMOTE_STEAL_BATCH` items from the same victim in one bite,
                    // amortizing the interconnect transfer; local hits and piece
                    // steals stay single-item.
                    if self.record_hit(line, id, victim, first.piece) && self.config.locality {
                        while taken < REMOTE_STEAL_BATCH {
                            let Some(w) = self.probe(line, victim, &mut saw_retry) else {
                                break;
                            };
                            self.record_hit(line, id, victim, w.piece);
                            batch[taken] = w;
                            taken += 1;
                            if w.piece {
                                // The victim has drained its chunks: this is its piece.
                                break;
                            }
                        }
                    }
                    batch[..taken].iter().for_each(|&w| execute(w, true));
                }
                // A Retry means another participant claimed an item concurrently (top
                // moved under our CAS), so the loop is still live: sweep again.  Chunks
                // are finite and pieces strictly shrink, so this terminates.
                None if saw_retry => continue,
                // Every deque observed empty: every item is claimed, and each claimer
                // executes (and drains the pieces of) its items before arriving —
                // safe to arrive.
                None => break,
            }
        }
        std::mem::forget(drain);
        line.rng.store(rng, Ordering::Relaxed);
    }

    /// One steal sweep of participant `id`: the scripted victim order when the
    /// perturbation hook supplies one, else the tiered or the flat ring order rotated
    /// by `seed`.  Returns the first item stolen and its victim.
    fn sweep(
        &self,
        id: usize,
        epoch: Epoch,
        attempt: u64,
        seed: u64,
        line: &ParticipantLine,
        saw_retry: &mut bool,
    ) -> Option<(Work, usize)> {
        let n = self.deques.len();
        let mut probe = |victim: usize| Some((self.probe(line, victim, saw_retry)?, victim));
        let scripted = self.config.perturb.as_ref();
        if let Some(order) = scripted.and_then(|p| p.victim_order(id, epoch, attempt, n)) {
            // Scripted sweep: probe exactly the scripted victims, in order.
            return order
                .into_iter()
                .filter(|&victim| victim != id && victim < n)
                .find_map(probe);
        }
        if self.config.locality {
            // Tiered sweep: same-socket victims first (rotated within the tier), falling
            // one socket outward only when every deque in the nearer tier came up dry.
            return self.tiers[id].iter().enumerate().find_map(|(t, tier)| {
                let rot = seed.rotate_right(t as u32 * 7) as usize % tier.len();
                (0..tier.len()).find_map(|k| probe(tier[(rot + k) % tier.len()]))
            });
        }
        // Flat randomized ring: the random-victim baseline the ablation runs.
        let start = (seed % n as u64) as usize;
        (0..n)
            .map(|k| (start + k) % n)
            .filter(|&victim| victim != id)
            .find_map(probe)
    }

    /// Probes `victim`'s deque once.  The attempt is counted on the thief's own
    /// padded line, so the per-probe bumps stay core-local even while every idle
    /// worker sweeps; a lost race sets `saw_retry`.
    #[inline]
    fn probe(&self, line: &ParticipantLine, victim: usize, saw_retry: &mut bool) -> Option<Work> {
        line.steals_attempted.fetch_add(1, Ordering::Relaxed);
        match self.deques[victim].steal() {
            Steal::Success(c) => Some(c),
            Steal::Retry => {
                *saw_retry = true;
                None
            }
            Steal::Empty => None,
        }
    }

    /// Records one successful steal on the thief's padded line and emits its hit
    /// instant.  A piece steal counts in `split_steals` only; a chunk steal is also
    /// classified by tier distance, with its tier instant.  Returns `true` for a
    /// cross-socket chunk steal.
    #[inline]
    fn record_hit(&self, line: &ParticipantLine, id: usize, victim: usize, piece: bool) -> bool {
        parlo_trace::instant(parlo_trace::Phase::StealHit, id as u64, victim as u64);
        if piece {
            line.split_steals.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        line.steals_hit.fetch_add(1, Ordering::Relaxed);
        let remote = self.socket_of[id] != self.socket_of[victim];
        if remote {
            line.remote_steals.fetch_add(1, Ordering::Relaxed);
        } else {
            line.local_steals.fetch_add(1, Ordering::Relaxed);
        }
        parlo_trace::instant(parlo_trace::Phase::StealTier, id as u64, remote as u64);
        remote
    }
}

/// Runs a stolen range (or a piece of one) under lazy binary splitting.  The first
/// iteration is timed; after it the range runs one iteration at a time, and before
/// each one, when the owner's deque is empty (two relaxed loads), the back half
/// `[mid, end)` is pushed onto that deque as a piece for thieves while the front
/// half stays here.  Once half of what is left is estimated (at the first
/// iteration's cost) below [`MIN_PIECE_NANOS`], no piece is worth a steal and the
/// rest runs in one call.  The owner pops an unstolen piece back and splits it the
/// same way.
fn split_lazily(
    deque: &WorkStealingDeque<Work>,
    line: &ParticipantLine,
    mut range: ChunkRange,
    run: &mut impl FnMut(ChunkRange),
) {
    let mut next = |range: &mut ChunkRange| {
        run(ChunkRange {
            start: range.start,
            end: range.start + 1,
        });
        range.start += 1;
    };
    let started = Instant::now();
    next(&mut range);
    let per_iteration = started.elapsed().as_nanos() as u64;
    while per_iteration.saturating_mul(range.len() as u64 / 2) >= MIN_PIECE_NANOS {
        if deque.is_empty() {
            let mid = range.start + range.len() / 2;
            let piece = Work {
                range: ChunkRange {
                    start: mid,
                    end: range.end,
                },
                piece: true,
            };
            // SAFETY: only the participant that owns `deque` runs its items.
            if unsafe { deque.push(piece) }.is_ok() {
                line.splits.fetch_add(1, Ordering::Relaxed);
                range.end = mid;
            }
        }
        next(&mut range);
    }
    if range.start < range.end {
        run(range);
    }
}

/// Empties its owner's deque if the owner's share unwinds, so a panicking loop
/// leaves no chunk or piece to be seeded into the next one.  The normal path, which
/// leaves the deque empty anyway, forgets it.
struct DrainOnUnwind<'a>(&'a WorkStealingDeque<Work>);

impl Drop for DrainOnUnwind<'_> {
    fn drop(&mut self) {
        // SAFETY: the guard is armed only by the deque's owner, on its own thread.
        while unsafe { self.0.pop() }.is_some() {}
    }
}

impl StealPool {
    /// Work-stealing parallel loop: pre-split chunk runs, owner-LIFO execution,
    /// thief-FIFO stealing.  `body` is called exactly once per index.
    pub fn steal_for<F>(&mut self, range: Range<usize>, body: F)
    where
        F: Fn(usize) + Sync,
    {
        let chunk = self.effective_chunk(range.end.saturating_sub(range.start));
        self.steal_for_with_chunk(range, chunk, body);
    }

    /// [`StealPool::steal_for`] with an explicit chunk size.
    pub fn steal_for_with_chunk<F>(&mut self, range: Range<usize>, chunk: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        if let Some(job) = ChunkLoop::plain(range, chunk) {
            self.run_for(&job, &body);
        }
    }

    /// Work-stealing parallel reduction.  Every participant folds the chunks it
    /// executes (own and stolen) into a private view seeded with `init()`, and the
    /// views are merged pairwise inside the join phase — exactly `P − 1` combines,
    /// like the fine-grain pool's merged reduction.  `init` must produce the neutral
    /// element of `comb`, and `comb` must be associative and commutative.
    pub fn steal_reduce<T, Init, Fold, Comb>(
        &mut self,
        range: Range<usize>,
        init: Init,
        fold: Fold,
        comb: Comb,
    ) -> T
    where
        T: Send,
        Init: Fn() -> T,
        Fold: Fn(T, usize) -> T + Sync,
        Comb: Fn(T, T) -> T + Sync,
    {
        let chunk = self.effective_chunk(range.end.saturating_sub(range.start));
        self.steal_reduce_with_chunk(range, chunk, init, fold, comb)
    }

    /// [`StealPool::steal_reduce`] with an explicit chunk size.
    pub fn steal_reduce_with_chunk<T, Init, Fold, Comb>(
        &mut self,
        range: Range<usize>,
        chunk: usize,
        init: Init,
        fold: Fold,
        comb: Comb,
    ) -> T
    where
        T: Send,
        Init: Fn() -> T,
        Fold: Fn(T, usize) -> T + Sync,
        Comb: Fn(T, T) -> T + Sync,
    {
        match ChunkLoop::plain(range, chunk) {
            Some(job) => self.run_reduce(&job, init, fold, comb),
            None => init(),
        }
    }

    /// [`StealPool::steal_for`] keyed by a loop [`StealSite`], with **sticky
    /// chunk→worker affinity**: the deques are seeded from the site's remembered
    /// assignment — whichever participant *executed* each grid chunk on the previous
    /// invocation of this site, steals included — so a repeated loop re-runs each
    /// chunk where its data is already cached.  A cold site (or one whose remembered
    /// range/chunk no longer matches — see the invalidation contract on the `sticky`
    /// module) falls back to the balanced contiguous grid assignment.
    pub fn steal_for_at<F>(&mut self, site: StealSite, range: Range<usize>, body: F)
    where
        F: Fn(usize) + Sync,
    {
        let chunk = self.effective_chunk(range.end.saturating_sub(range.start));
        self.steal_for_at_with_chunk(site, range, chunk, body);
    }

    /// [`StealPool::steal_for_at`] with an explicit chunk size.
    pub fn steal_for_at_with_chunk<F>(
        &mut self,
        site: StealSite,
        range: Range<usize>,
        chunk: usize,
        body: F,
    ) where
        F: Fn(usize) + Sync,
    {
        if range.end <= range.start {
            return;
        }
        let chunk = chunk.max(1);
        let (sticky, hit) = self.prepare_sticky(site, &range, chunk);
        let job = ChunkLoop {
            range: range.clone(),
            chunk,
            sticky: Some(&sticky),
        };
        self.run_for(&job, &body);
        self.finish_sticky(site, &range, chunk, sticky, hit);
    }

    /// [`StealPool::steal_reduce`] keyed by a loop [`StealSite`] — sticky affinity
    /// exactly as in [`StealPool::steal_for_at`].
    pub fn steal_reduce_at<T, Init, Fold, Comb>(
        &mut self,
        site: StealSite,
        range: Range<usize>,
        init: Init,
        fold: Fold,
        comb: Comb,
    ) -> T
    where
        T: Send,
        Init: Fn() -> T,
        Fold: Fn(T, usize) -> T + Sync,
        Comb: Fn(T, T) -> T + Sync,
    {
        let chunk = self.effective_chunk(range.end.saturating_sub(range.start));
        self.steal_reduce_at_with_chunk(site, range, chunk, init, fold, comb)
    }

    /// [`StealPool::steal_reduce_at`] with an explicit chunk size.
    pub fn steal_reduce_at_with_chunk<T, Init, Fold, Comb>(
        &mut self,
        site: StealSite,
        range: Range<usize>,
        chunk: usize,
        init: Init,
        fold: Fold,
        comb: Comb,
    ) -> T
    where
        T: Send,
        Init: Fn() -> T,
        Fold: Fn(T, usize) -> T + Sync,
        Comb: Fn(T, T) -> T + Sync,
    {
        if range.end <= range.start {
            return init();
        }
        let chunk = chunk.max(1);
        let (sticky, hit) = self.prepare_sticky(site, &range, chunk);
        let job = ChunkLoop {
            range: range.clone(),
            chunk,
            sticky: Some(&sticky),
        };
        let result = self.run_reduce(&job, init, fold, comb);
        self.finish_sticky(site, &range, chunk, sticky, hit);
        result
    }

    /// Installs an explicit chunk→worker assignment for `site`, as if a previous
    /// invocation of the given loop shape had ended with grid chunk `k` executed by
    /// participant `owners[k]`.  `owners` must hold exactly one valid participant id
    /// per grid chunk.  Primarily a test and tuning hook: it scripts exactly which
    /// deques the next site-keyed loop of this shape seeds.
    pub fn seed_affinity(
        &mut self,
        site: StealSite,
        range: Range<usize>,
        chunk: usize,
        owners: &[usize],
    ) {
        let chunk = chunk.max(1);
        assert_eq!(
            owners.len(),
            grid_chunks(&range, chunk),
            "one owner per grid chunk"
        );
        assert!(
            owners.iter().all(|&w| w < self.num_threads()),
            "owner out of range"
        );
        self.sticky.remember(
            site,
            StickyEntry {
                start: range.start,
                end: range.end,
                chunk,
                owners: owners.iter().map(|&w| w as u32).collect(),
            },
        );
    }

    /// Number of sites with a remembered sticky assignment.
    pub fn remembered_sites(&self) -> usize {
        self.sticky.len()
    }

    /// Resolves the assignment driving a site-keyed loop (remembered on a valid hit,
    /// balanced otherwise) and builds the per-loop sticky state.
    fn prepare_sticky(
        &mut self,
        site: StealSite,
        range: &Range<usize>,
        chunk: usize,
    ) -> (StickyLoop, bool) {
        let nchunks = grid_chunks(range, chunk);
        let nthreads = self.num_threads();
        let stats = &self.dispenser.counters;
        stats.sticky_loops.fetch_add(1, Ordering::Relaxed);
        let (owners, hit) = match self.sticky.lookup(site, range.start, range.end, chunk) {
            Some(Ok(owners)) => {
                stats.sticky_hits.fetch_add(1, Ordering::Relaxed);
                (owners, true)
            }
            Some(Err(())) => {
                stats.sticky_invalidations.fetch_add(1, Ordering::Relaxed);
                (balanced_owners(nchunks, nthreads), false)
            }
            None => (balanced_owners(nchunks, nthreads), false),
        };
        let exec = (0..nchunks).map(|_| AtomicU32::new(u32::MAX)).collect();
        (StickyLoop { owners, exec }, hit)
    }

    /// Reads back who executed each grid chunk, accounts affinity reuse against the
    /// seeding assignment (hit loops only), and remembers the execution as the
    /// site's next assignment.
    fn finish_sticky(
        &mut self,
        site: StealSite,
        range: &Range<usize>,
        chunk: usize,
        sticky: StickyLoop,
        hit: bool,
    ) {
        let exec: Vec<u32> = sticky
            .exec
            .iter()
            .zip(&sticky.owners)
            .map(|(slot, &owner)| {
                let w = slot.load(Ordering::Relaxed);
                // Unreachable in practice (every chunk executes before the join),
                // but stay total: an unrecorded chunk keeps its seeded owner.
                if w == u32::MAX {
                    owner
                } else {
                    w
                }
            })
            .collect();
        if hit {
            let stats = &self.dispenser.counters;
            let reused = exec
                .iter()
                .zip(&sticky.owners)
                .filter(|(a, b)| a == b)
                .count();
            stats
                .sticky_chunks_reused
                .fetch_add(reused as u64, Ordering::Relaxed);
            stats
                .sticky_chunks_total
                .fetch_add(exec.len() as u64, Ordering::Relaxed);
        }
        self.sticky.remember(
            site,
            StickyEntry {
                start: range.start,
                end: range.end,
                chunk,
                owners: exec,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::total_chunks;
    use crate::perturb::SeededPerturbation;
    use parlo_sync::AtomicUsize;

    #[test]
    fn xorshift_escapes_the_zero_fixed_point() {
        // Regression: xorshift64 maps 0 to 0 forever; a zero state must recover
        // (and keep producing distinct values) instead of pinning the victim
        // rotation to deque 0.
        let mut state = 0u64;
        let first = xorshift(&mut state);
        assert_ne!(first, 0);
        assert_ne!(state, 0);
        let second = xorshift(&mut state);
        assert_ne!(second, 0);
        assert_ne!(second, first);
    }

    #[test]
    fn victim_seed_is_nonzero_for_every_id() {
        // The one id whose mix would cancel the golden constant must still get a
        // nonzero seed; spot-check it along with ordinary ids.
        let inv = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(inverse_of_mix());
        assert_eq!(victim_seed(inv as usize), 0x9E37_79B9_7F4A_7C15);
        for id in 0..64 {
            assert_ne!(
                victim_seed(id),
                0,
                "id {id} seeded the xorshift fixed point"
            );
        }
    }

    /// Multiplicative inverse of the seed-mix constant mod 2^64 (it is odd, so one
    /// exists); used to construct the pathological id in the seed test.
    fn inverse_of_mix() -> u64 {
        let m = 0xA076_1D64_78BD_642Fu64;
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inv)));
        }
        assert_eq!(m.wrapping_mul(inv), 1);
        inv
    }

    #[test]
    fn pool_creation_and_teardown() {
        for threads in [1, 2, 4] {
            let p = StealPool::with_threads(threads);
            assert_eq!(p.num_threads(), threads);
            drop(p);
        }
    }

    #[test]
    fn steal_for_visits_each_index_once() {
        for threads in [1usize, 2, 4] {
            let mut p = StealPool::with_threads(threads);
            for round in 0..5 {
                let hits: Vec<AtomicUsize> = (0..1013).map(|_| AtomicUsize::new(0)).collect();
                p.steal_for_with_chunk(0..1013, 16, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "threads {threads} round {round}"
                );
            }
        }
    }

    #[test]
    fn offset_ranges_and_empty_ranges() {
        let mut p = StealPool::with_threads(3);
        let hits: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
        p.steal_for_with_chunk(50..150, 8, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            let expected = usize::from((50..150).contains(&i));
            assert_eq!(h.load(Ordering::Relaxed), expected, "index {i}");
        }
        p.steal_for(5..5, |_| panic!("must not run"));
        let got = p.steal_reduce(7..7, || 1.5f64, |_, _| panic!(), |a, _| a);
        assert!((got - 1.5).abs() < 1e-12);
    }

    #[test]
    fn reduction_matches_sequential_fold_with_p_minus_1_combines() {
        for threads in 1..=5usize {
            let mut p = StealPool::with_threads(threads);
            let before = p.stats();
            let sum = p.steal_reduce(0..1000, || 0u64, |a, i| a + i as u64, |a, b| a + b);
            assert_eq!(sum, (0..1000u64).sum());
            let d = p.stats().since(&before);
            assert_eq!(d.reductions, 1);
            assert_eq!(d.combine_ops, threads as u64 - 1, "{threads} threads");
            assert_eq!(d.barrier_phases, 2, "one half-barrier per loop");
        }
    }

    #[test]
    fn chunk_accounting_is_exact() {
        let mut p = StealPool::with_threads(4);
        let before = p.stats();
        const LOOPS: usize = 7;
        for _ in 0..LOOPS {
            p.steal_for_with_chunk(0..997, 13, |_| {});
        }
        let d = p.stats().since(&before);
        assert_eq!(d.loops, LOOPS as u64);
        assert_eq!(d.barrier_phases, 2 * LOOPS as u64);
        let expected = LOOPS as u64 * total_chunks(&(0..997), 4, 13);
        assert_eq!(d.chunks_executed(), expected, "no chunk lost or duplicated");
        assert!(d.steals_hit <= d.steals_attempted);
        assert!(d.steals_hit <= d.chunks_executed());
    }

    #[test]
    fn perturbed_schedules_preserve_results() {
        for seed in [1u64, 7, 0xDEAD_BEEF] {
            let config = StealConfig::with_threads(4)
                .with_perturbation(Arc::new(SeededPerturbation::new(seed)))
                .with_chunk(5);
            let mut p = StealPool::new(config);
            let hits: Vec<AtomicUsize> = (0..503).map(|_| AtomicUsize::new(0)).collect();
            p.steal_for(0..503, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "seed {seed}"
            );
            assert_eq!(p.stats().chunks_executed(), total_chunks(&(0..503), 4, 5));
        }
    }

    #[test]
    fn tiny_chunks_overflowing_the_deque_still_cover_the_range() {
        // 4096 one-iteration chunks on one worker exceed the 1024-entry deque; the
        // overflow must execute inline, not disappear.
        let mut p = StealPool::with_threads(1);
        let counter = AtomicUsize::new(0);
        p.steal_for_with_chunk(0..4096, 1, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4096);
        assert_eq!(p.stats().chunks_executed(), 4096);
    }

    #[test]
    fn placement_pool_uses_hierarchical_half_barrier() {
        use parlo_affinity::PlacementConfig;
        let placement = PlacementConfig::synthetic(2, 2).with_pin(PinPolicy::None);
        let mut p = StealPool::with_placement(4, &placement);
        let counter = AtomicUsize::new(0);
        for _ in 0..10 {
            p.steal_for(0..100, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        let h = p.hierarchy_stats().expect("hierarchical sync enabled");
        assert_eq!(h.cycles, 10);
        assert_eq!(h.cross_socket_rendezvous, 10, "one rendezvous per loop");

        let flat = StealPool::new(StealConfig {
            hierarchical: false,
            ..StealConfig::from_placement(4, &placement)
        });
        assert!(flat.hierarchy_stats().is_none());
    }

    #[test]
    fn skewed_bodies_actually_get_stolen() {
        // One worker's static block carries almost all the work; with many small
        // chunks the idle workers must lift some of them.  Run enough rounds that at
        // least one steal is overwhelmingly likely, but assert only consistency plus
        // coverage so a single-core machine cannot make this flaky.
        let mut p = StealPool::with_threads(4);
        let total = AtomicUsize::new(0);
        for _ in 0..10 {
            p.steal_for_with_chunk(0..512, 4, |i| {
                if i >= 384 {
                    // The last block is heavy.
                    let mut x = i as f64;
                    for _ in 0..2000 {
                        x = x.mul_add(1.000_000_1, 1e-9);
                    }
                    std::hint::black_box(x);
                }
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 5120);
        let s = p.stats();
        assert!(s.steals_attempted >= s.steals_hit);
        assert_eq!(s.chunks_executed(), 10 * total_chunks(&(0..512), 4, 4));
    }

    /// A body with a heavy tail block, so idle workers have something to steal.
    fn heavy_tail(i: usize) {
        if i >= 384 {
            let mut x = i as f64;
            for _ in 0..1000 {
                x = x.mul_add(1.000_000_1, 1e-9);
            }
            std::hint::black_box(x);
        }
    }

    #[test]
    fn saturated_local_tier_never_steals_remotely() {
        use parlo_affinity::PlacementConfig;
        // All four participants land on socket 0 of the synthetic 2×4 box, so the
        // local tier covers every victim and the tiered sweep never falls outward.
        let placement = PlacementConfig::synthetic(2, 4).with_pin(PinPolicy::None);
        let mut p = StealPool::with_placement(4, &placement);
        assert!(p.config().locality);
        let total = AtomicUsize::new(0);
        for _ in 0..10 {
            p.steal_for_with_chunk(0..512, 4, |i| {
                heavy_tail(i);
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 5120);
        let s = p.stats();
        assert_eq!(
            s.remote_steals, 0,
            "no remote victim while the local tier lives"
        );
        assert_eq!(s.local_steals, s.steals_hit);
    }

    #[test]
    fn flat_ring_ablation_still_classifies_hits() {
        let mut p = StealPool::new(
            StealConfig::with_threads(4)
                .with_chunk(4)
                .with_locality(false),
        );
        let total = AtomicUsize::new(0);
        for _ in 0..5 {
            p.steal_for_with_chunk(0..512, 4, |i| {
                heavy_tail(i);
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 2560);
        let s = p.stats();
        assert_eq!(s.local_steals + s.remote_steals, s.steals_hit);
        assert_eq!(s.chunks_executed(), 5 * total_chunks(&(0..512), 4, 4));
    }

    #[test]
    fn scripted_victim_order_preserves_results() {
        use crate::perturb::ScriptedOrder;
        let config = StealConfig::with_threads(3)
            .with_chunk(4)
            .with_perturbation(Arc::new(ScriptedOrder::new(
                vec![vec![], vec![0, 2], vec![0]],
                11,
            )));
        let mut p = StealPool::new(config);
        let hits: Vec<AtomicUsize> = (0..301).map(|_| AtomicUsize::new(0)).collect();
        p.steal_for(0..301, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(p.stats().chunks_executed(), total_chunks(&(0..301), 3, 4));
    }

    #[test]
    fn sticky_sites_replay_and_invalidate() {
        let mut p = StealPool::new(StealConfig::with_threads(4).with_chunk(8));
        let site = StealSite::new(1);
        let hits: Vec<AtomicUsize> = (0..256).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..3 {
            p.steal_for_at(site, 0..256, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        }
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 3));
        let s = p.stats();
        assert_eq!(s.sticky_loops, 3);
        assert_eq!(s.sticky_hits, 2, "loops 2 and 3 replay the remembered site");
        assert_eq!(s.sticky_invalidations, 0);
        assert_eq!(p.remembered_sites(), 1);
        // 256 / 8 = 32 grid chunks; reuse is accounted on the two hit loops only.
        assert_eq!(s.sticky_chunks_total, 64);
        assert!(s.sticky_chunks_reused <= s.sticky_chunks_total);
        // A different range at the same site drops the entry and is not a hit.
        p.steal_for_at(site, 0..128, |_| {});
        let s = p.stats();
        assert_eq!(s.sticky_invalidations, 1);
        assert_eq!(s.sticky_hits, 2, "a shape change is never a hit");
    }

    #[test]
    fn single_thread_sticky_reuse_is_total() {
        let mut p = StealPool::new(StealConfig::with_threads(1).with_chunk(4));
        let site = StealSite::new(9);
        let mut got = 0u64;
        for _ in 0..2 {
            got = p.steal_reduce_at(site, 0..64, || 0u64, |a, i| a + i as u64, |a, b| a + b);
        }
        assert_eq!(got, (0..64u64).sum());
        let s = p.stats();
        assert_eq!(s.sticky_hits, 1);
        assert_eq!(s.sticky_chunks_total, 16);
        assert_eq!(
            s.sticky_chunks_reused, 16,
            "one participant: reuse is total"
        );
        assert!((s.sticky_reuse_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(s.reductions, 2);
    }

    #[test]
    fn seeded_affinity_scripts_the_next_seeding() {
        let mut p = StealPool::new(StealConfig::with_threads(2).with_chunk(4));
        let site = StealSite::new(3);
        // All eight grid chunks assigned to the master: the next site-keyed loop is
        // a hit that seeds only deque 0.
        p.seed_affinity(site, 0..32, 4, &[0; 8]);
        assert_eq!(p.remembered_sites(), 1);
        let count = AtomicUsize::new(0);
        p.steal_for_at_with_chunk(site, 0..32, 4, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 32);
        let s = p.stats();
        assert_eq!(s.sticky_hits, 1);
        assert_eq!(s.sticky_chunks_total, 8);
    }

    /// Runs a 2-thread loop over `0..64` in chunks of 4 that steals on every
    /// schedule.  The worker's first iteration (32) waits until the master has
    /// seeded its run `[0, 32)` and started it (iteration 0), and the master then
    /// waits at iteration 0 until iteration 28 has run.  Only the worker can run 28:
    /// it drains its own run and steals the master's back chunk `[28, 32)`, whose
    /// first iteration is slow enough for lazy splitting to push a piece.
    fn stolen_tail_loop(run: impl FnOnce(&(dyn Fn(usize) + Sync))) {
        let started = parlo_sync::AtomicBool::new(false);
        let seen = parlo_sync::AtomicBool::new(false);
        let wait = |flag: &parlo_sync::AtomicBool| {
            while !flag.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        };
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        run(&|i| {
            match i {
                0 => {
                    started.store(true, Ordering::Release);
                    wait(&seen);
                }
                28 => {
                    // Slow enough that the rest of the stolen chunk is worth a piece.
                    std::thread::sleep(std::time::Duration::from_nanos(2 * MIN_PIECE_NANOS));
                    seen.store(true, Ordering::Release);
                }
                32 => wait(&started),
                _ => {}
            }
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn stolen_chunks_split_whatever_the_chunk_size_source() {
        let mut p = StealPool::with_threads(2);
        assert_eq!(p.effective_chunk(64), 4);
        let mut q = StealPool::new(StealConfig::with_threads(2).with_chunk(4));
        stolen_tail_loop(|body| p.steal_for(0..64, body));
        stolen_tail_loop(|body| p.steal_for_with_chunk(0..64, 4, body));
        stolen_tail_loop(|body| q.steal_for(0..64, body));
        for (s, loops) in [(p.stats(), 2), (q.stats(), 1)] {
            assert!(s.steals_hit >= loops, "the worker stole the master's tail");
            assert!(
                s.splits >= loops,
                "a stolen chunk is split before its first iteration"
            );
            assert!(s.split_steals <= s.splits);
            assert_eq!(s.chunks_executed(), loops * total_chunks(&(0..64), 2, 4));
        }
    }

    #[test]
    fn site_keyed_loops_never_split() {
        let mut p = StealPool::with_threads(2);
        stolen_tail_loop(|body| p.steal_for_at(StealSite::new(5), 0..64, body));
        let s = p.stats();
        assert!(s.steals_hit >= 1);
        assert_eq!((s.splits, s.split_steals), (0, 0));
    }

    #[test]
    fn effective_chunk_uses_config_override() {
        let p = StealPool::new(StealConfig::with_threads(2).with_chunk(32));
        assert_eq!(p.effective_chunk(1_000_000), 32);
        let q = StealPool::with_threads(2);
        assert_eq!(q.effective_chunk(1000), default_chunk(1000, 2));
    }
}
