//! The server: gang allocation over the substrate, the per-gang driver loop, and the
//! tenant-facing submission API.

use crate::queue::{Completion, JobHandle, QueuedJob, Rejected, ServeQueue};
use parlo_adaptive::{gang_size_hint, LoopSite};
use parlo_core::{Config, FineGrainPool, StatsRegistry};
use parlo_exec::{ClientHooks, Executor, Lease};
use parlo_sync::{AtomicBool, AtomicU64, Ordering};
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// How the server picks the gang size (workers per concurrently served loop).
#[derive(Clone, Copy, Debug)]
pub enum GangSizing {
    /// A fixed gang size, clamped to the worker budget.
    Fixed(usize),
    /// Size gangs from the paper's burden model: `g* = ceil(sqrt(T/d))` for loops of
    /// sequential time `t_secs` and per-loop scheduling burden `burden_secs` (see
    /// [`parlo_adaptive::gang_size_hint`]).  Calibrate `t_secs` and `burden_secs`
    /// with [`parlo_adaptive::AdaptivePool`] (e.g. via
    /// [`AdaptivePool::gang_hint`](parlo_adaptive::AdaptivePool::gang_hint)) or take
    /// them from a bench sweep.
    Model {
        /// Expected sequential time of a served loop, in seconds.
        t_secs: f64,
        /// Fitted per-loop scheduling burden, in seconds.
        burden_secs: f64,
    },
}

impl GangSizing {
    fn size(&self, max: usize) -> usize {
        match *self {
            GangSizing::Fixed(g) => g.clamp(1, max.max(1)),
            GangSizing::Model {
                t_secs,
                burden_secs,
            } => gang_size_hint(t_secs, burden_secs, max),
        }
    }
}

/// Configuration of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Substrate workers the server may lease, `None` for the executor's full
    /// capacity.  Always clamped to the capacity; workers left over after cutting
    /// whole gangs stay parked in the substrate.
    pub workers: Option<usize>,
    /// Gang sizing policy.
    pub gang: GangSizing,
    /// Admission-queue capacity: at most this many requests may be queued before
    /// [`Server::try_submit`] rejects and [`Server::submit`] applies backpressure.
    pub queue_capacity: usize,
    /// Most queued `for` loops fused into one half-barrier cycle per batch.
    pub batch_max: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: None,
            gang: GangSizing::Fixed(2),
            queue_capacity: 1024,
            batch_max: 8,
        }
    }
}

impl ServeConfig {
    /// Replaces the worker budget.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Replaces the gang sizing policy.
    pub fn with_gang(mut self, gang: GangSizing) -> Self {
        self.gang = gang;
        self
    }

    /// Replaces the admission-queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Replaces the batching limit.
    pub fn with_batch_max(mut self, batch_max: usize) -> Self {
        self.batch_max = batch_max;
        self
    }
}

/// The loop behind one request (the fusable `for` kind, or a reduction).
pub(crate) enum LoopKind {
    /// A `parallel_for`: `body(i)` once per index.
    For {
        /// Iteration space.
        range: Range<usize>,
        /// Loop body.
        body: Arc<dyn Fn(usize) + Send + Sync>,
    },
    /// A `parallel_sum`: `f(i)` summed over the range.
    Sum {
        /// Iteration space.
        range: Range<usize>,
        /// Summand.
        f: Arc<dyn Fn(usize) -> f64 + Send + Sync>,
    },
}

/// One loop a tenant wants served.
pub struct LoopRequest {
    pub(crate) site: LoopSite,
    pub(crate) kind: LoopKind,
}

impl LoopRequest {
    /// A `parallel_for` request: `body(i)` is called exactly once per index of
    /// `range`.  Requests sharing a [`LoopSite`] are dispatched FIFO relative to
    /// each other; distinct sites share the server round-robin.  FIFO covers the
    /// dispatch order only: two gangs, or a gang and a helping waiter (see
    /// [`JobHandle::wait`]), may run same-site requests at the same time, and a
    /// later one may finish first.
    pub fn for_each<F>(site: LoopSite, range: Range<usize>, body: F) -> LoopRequest
    where
        F: Fn(usize) + Send + Sync + 'static,
    {
        LoopRequest {
            site,
            kind: LoopKind::For {
                range,
                body: Arc::new(body),
            },
        }
    }

    /// A `parallel_sum` request: the handle resolves to the sum of `f(i)` over
    /// `range`.
    pub fn sum<F>(site: LoopSite, range: Range<usize>, f: F) -> LoopRequest
    where
        F: Fn(usize) -> f64 + Send + Sync + 'static,
    {
        LoopRequest {
            site,
            kind: LoopKind::Sum {
                range,
                f: Arc::new(f),
            },
        }
    }

    /// The request's loop site.
    pub fn site(&self) -> LoopSite {
        self.site
    }

    /// Iterations in the request.
    pub fn len(&self) -> usize {
        match &self.kind {
            LoopKind::For { range, .. } | LoopKind::Sum { range, .. } => range.len(),
        }
    }

    /// Whether the request's range is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Runs a request sequentially on the current thread (gangless fallback and the
/// shutdown drain) and returns its result.
fn run_seq(kind: &LoopKind) -> f64 {
    match kind {
        LoopKind::For { range, body } => {
            for i in range.clone() {
                body(i);
            }
            0.0
        }
        LoopKind::Sum { range, f } => range.clone().map(|i| f(i)).sum(),
    }
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    batches: AtomicU64,
    fused: AtomicU64,
    helped: AtomicU64,
}

parlo_core::stats_family! {
    /// A snapshot of a server's accounting.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct ServeStats: "serve" {
        /// Gangs serving concurrently (0 in the degenerate inline mode).
        pub gangs: usize,
        /// Workers per gang (driver included).
        pub gang_size: usize,
        /// Requests currently queued.
        pub queued: usize,
        /// Requests accepted so far.
        pub submitted: u64,
        /// Requests completed so far.
        pub completed: u64,
        /// Requests turned away by admission control.
        pub rejected: u64,
        /// Half-barrier batches the drivers ran.
        pub batches: u64,
        /// Extra loops that rode along in a fused batch (each saved one full
        /// half-barrier cycle relative to serving it alone).
        pub fused: u64,
        /// Requests served by a tenant thread helping in [`JobHandle::wait`]
        /// (counted in `completed` and, by batch, in `batches` too).  Always 0
        /// unless `gang_size` is 1.
        pub helped: u64,
    }
}

/// What a server's gang drivers and its helping waiters share: the admission queue,
/// the counters and the fusion limit.
pub(crate) struct Shared {
    queue: ServeQueue,
    counters: Counters,
    batch_max: usize,
}

impl Shared {
    /// The helping half of [`JobHandle::wait`]: serves queued `for` batches on the
    /// calling thread until `done` completes or no `for` loop is queued.
    pub(crate) fn help_until_done(&self, done: &Completion) {
        while !done.is_done() {
            match self.queue.try_pop_for_batch(self.batch_max) {
                Some(batch) => serve_batch(None, batch, &self.counters, true),
                None => return,
            }
        }
    }
}

/// One gang's state: its detach flag, its (lazily activated) pool over the gang's
/// non-driver workers, and the server state it serves from.
struct GangState {
    /// Raised by the driver lease's detach hook; the driver exits its serving loop.
    detach: AtomicBool,
    /// `None` for a 1-worker gang (the driver runs requests inline).
    pool: Mutex<Option<FineGrainPool>>,
    shared: Arc<Shared>,
}

/// The serving loop run by a gang's driver worker (the body of its driver lease):
/// pop a batch, serve it, repeat until detached.  Resumable — a re-activation after
/// a detach enters the loop again with the flag reset.
fn driver_loop(gang: &GangState) {
    let shared = &gang.shared;
    while !gang.detach.load(Ordering::Acquire) {
        // `pop_batch` returns `None` only when the detach flag is up; the loop
        // condition exits.
        if let Some(batch) = shared.queue.pop_batch(shared.batch_max, &gang.detach) {
            let mut pool = gang.pool.lock().unwrap_or_else(|p| p.into_inner());
            serve_batch(pool.as_mut(), batch, &shared.counters, false);
        }
    }
}

/// Serves one popped batch and completes its handles — the one function through
/// which gang drivers and helping waiters run requests.  With a `pool` the batch
/// runs on the gang's workers; without one (a 1-worker gang, or a waiter helping)
/// it runs sequentially on the calling thread.  A multi-job batch contains only
/// `for` loops (the queue guarantees it): on a pool their index spaces are
/// concatenated with a prefix sum and served as a single `parallel_for`, so the
/// whole batch costs one half-barrier cycle.  `helped` marks a batch run by a
/// waiting tenant.
fn serve_batch(
    pool: Option<&mut FineGrainPool>,
    batch: Vec<QueuedJob>,
    counters: &Counters,
    helped: bool,
) {
    parlo_trace::span_begin(parlo_trace::Phase::Batch, batch.len() as u64, 0);
    let abort_guard = AbortOnUnwind;
    let values: Vec<f64> = match pool {
        None => batch.iter().map(|job| run_seq(&job.kind)).collect(),
        Some(pool) if batch.len() == 1 => vec![match &batch[0].kind {
            LoopKind::For { range, body } => {
                pool.parallel_for(range.clone(), |i| body(i));
                0.0
            }
            LoopKind::Sum { range, f } => pool.parallel_sum(range.clone(), |i| f(i)),
        }],
        Some(pool) => {
            let mut offsets = Vec::with_capacity(batch.len() + 1);
            offsets.push(0usize);
            for job in &batch {
                let LoopKind::For { range, .. } = &job.kind else {
                    unreachable!("multi-job batches are for-only");
                };
                offsets.push(offsets.last().unwrap() + range.len());
            }
            let total = *offsets.last().unwrap();
            pool.parallel_for(0..total, |i| {
                let k = offsets.partition_point(|&o| o <= i) - 1;
                let LoopKind::For { range, body } = &batch[k].kind else {
                    unreachable!("multi-job batches are for-only");
                };
                body(range.start + (i - offsets[k]));
            });
            vec![0.0; batch.len()]
        }
    };
    std::mem::forget(abort_guard);
    // Count the batch before completing its handles: a tenant woken by
    // `handle.wait()` must already see its job in `stats().completed`.
    counters.batches.fetch_add(1, Ordering::Relaxed);
    if batch.len() > 1 {
        counters
            .fused
            .fetch_add(batch.len() as u64 - 1, Ordering::Relaxed);
    }
    if helped {
        counters
            .helped
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
    }
    counters
        .completed
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    for (job, value) in batch.iter().zip(values) {
        job.done.complete(value);
    }
    parlo_trace::instant(parlo_trace::Phase::Complete, batch.len() as u64, 0);
    parlo_trace::span_end(parlo_trace::Phase::Batch);
}

/// Aborts the process if dropped during an unwind (see [`serve_batch`]); forgotten
/// on the normal path.  A panic in a served body would otherwise leave the other
/// handles of its batch pending forever, on a driver worker and on a helping tenant
/// alike.
struct AbortOnUnwind;

impl Drop for AbortOnUnwind {
    fn drop(&mut self) {
        eprintln!(
            "parlo-serve: a served request body panicked on thread {:?}; the other \
             requests of its batch cannot complete — aborting",
            std::thread::current().name().unwrap_or("<unnamed>")
        );
        std::process::abort();
    }
}

/// The multi-tenant loop server (see the crate docs for the architecture).  Methods
/// take `&self`: wrap the server in an `Arc` and submit from any number of threads.
pub struct Server {
    executor: Arc<Executor>,
    shared: Arc<Shared>,
    gangs: Vec<Arc<GangState>>,
    drivers: Vec<Lease>,
    gang_size: usize,
}

impl Server {
    /// Creates a server with a private substrate on the detected machine.
    pub fn new(config: ServeConfig) -> Server {
        let topology = parlo_affinity::Topology::detect();
        let executor = Executor::new(&topology, parlo_affinity::PinPolicy::Compact);
        Self::on_executor(config, &executor)
    }

    /// Creates a server on a shared substrate.  The server assumes it is the only
    /// allocator of partition leases on the executor while it lives; activating an
    /// *exclusive* lease on the same executor evicts the server's gangs mid-flight
    /// and panics deterministically on the in-flight guard of whichever pool was
    /// serving a loop.
    pub fn on_executor(config: ServeConfig, executor: &Arc<Executor>) -> Server {
        let budget = config
            .workers
            .unwrap_or_else(|| executor.capacity())
            .min(executor.capacity());
        let shared = Arc::new(Shared {
            queue: ServeQueue::new(config.queue_capacity),
            counters: Counters::default(),
            batch_max: config.batch_max.max(1),
        });
        let mut gangs = Vec::new();
        let mut drivers = Vec::new();
        let gang_size = if budget == 0 {
            0
        } else {
            config.gang.size(budget)
        };
        if let Some(n_gangs) = budget.checked_div(gang_size) {
            for k in 0..n_gangs {
                let ids: Vec<usize> = (k * gang_size + 1..=(k + 1) * gang_size).collect();
                let pool_ids = &ids[1..];
                let pool = if pool_ids.is_empty() {
                    None
                } else {
                    let cfg = Config::builder(pool_ids.len() + 1)
                        .topology(executor.topology().clone())
                        .pin(executor.pin())
                        .build();
                    Some(FineGrainPool::new_on_partition(cfg, executor, pool_ids))
                };
                let gang = Arc::new(GangState {
                    detach: AtomicBool::new(false),
                    pool: Mutex::new(pool),
                    shared: Arc::clone(&shared),
                });
                let body = {
                    let gang = Arc::clone(&gang);
                    Arc::new(move |_local: usize| driver_loop(&gang))
                };
                let detach = {
                    let gang = Arc::clone(&gang);
                    Arc::new(move || {
                        gang.detach.store(true, Ordering::Release);
                        gang.shared.queue.wake_drivers();
                    })
                };
                let lease = executor.register_partition(
                    ClientHooks {
                        name: format!("serve-driver-{k}"),
                        participants: 2,
                        body,
                        detach,
                    },
                    vec![ids[0]],
                );
                lease.ensure_active(|| gang.detach.store(false, Ordering::Release));
                gangs.push(gang);
                drivers.push(lease);
            }
        }
        Server {
            executor: Arc::clone(executor),
            shared,
            gangs,
            drivers,
            gang_size,
        }
    }

    /// The substrate the server leases its gangs from.
    pub fn executor(&self) -> &Arc<Executor> {
        &self.executor
    }

    /// Submits a loop with backpressure: a full queue makes the call wait for room
    /// (bounded spin, then yields, then parks) rather than fail.  Errs only when the
    /// server is shutting down.
    pub fn submit(&self, request: LoopRequest) -> Result<JobHandle, Rejected> {
        self.admit(request, true)
    }

    /// Submits a loop with fail-fast admission: a full queue returns
    /// [`Rejected::QueueFull`] immediately.
    pub fn try_submit(&self, request: LoopRequest) -> Result<JobHandle, Rejected> {
        self.admit(request, false)
    }

    fn admit(&self, request: LoopRequest, block: bool) -> Result<JobHandle, Rejected> {
        if self.gangs.is_empty() {
            // Degenerate mode (no workers to lease): serve inline, still through the
            // handle so tenants are oblivious.
            let done = Completion::new();
            done.complete(run_seq(&request.kind));
            let counters = &self.shared.counters;
            counters.submitted.fetch_add(1, Ordering::Relaxed);
            counters.completed.fetch_add(1, Ordering::Relaxed);
            return Ok(JobHandle::new(done, None));
        }
        // Re-ensure the driver leases before taking any queue lock (the executor
        // state lock and the queue lock are only ever taken in exec → queue order;
        // see `ServeQueue::wake_drivers`).  One atomic load per gang when all are
        // attached — the common case.
        for (lease, gang) in self.drivers.iter().zip(&self.gangs) {
            lease.ensure_active(|| gang.detach.store(false, Ordering::Release));
        }
        let done = Completion::new();
        let job = QueuedJob {
            kind: request.kind,
            done: Arc::clone(&done),
        };
        let shared = &self.shared;
        let pushed = if block {
            shared.queue.push_wait(request.site, job)
        } else {
            shared.queue.try_push(request.site, job)
        };
        match pushed {
            Ok(()) => {
                shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
                // Waiters help only where a gang has no pool: there a driver runs a
                // batch sequentially too, so the waiter does exactly the driver's
                // work.  A pooled gang would run the loop in parallel; a waiter
                // popping it first would serve it sequentially instead.
                let help = (self.gang_size == 1).then(|| Arc::clone(shared));
                Ok(JobHandle::new(done, help))
            }
            Err(e) => {
                shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// A snapshot of the server's accounting.
    pub fn stats(&self) -> ServeStats {
        snapshot_serve_stats(&self.shared, self.gangs.len(), self.gang_size)
    }

    /// A [`StatsRegistry`] over everything the server can observe: its own serving
    /// counters (`serve.*`) and the substrate's executor accounting (`exec.*`).
    /// The registry holds live handles — render it any time for current numbers.
    pub fn stats_registry(&self) -> StatsRegistry {
        let mut registry = StatsRegistry::new();
        let shared = Arc::clone(&self.shared);
        let (gangs, gang_size) = (self.gangs.len(), self.gang_size);
        registry.register("serve", move || {
            snapshot_serve_stats(&shared, gangs, gang_size)
        });
        let executor = Arc::clone(&self.executor);
        registry.register("exec", move || executor.stats());
        registry
    }

    /// The registry rendered as a text metrics page, one `family.name value` line
    /// per counter.
    pub fn metrics_text(&self) -> String {
        self.stats_registry().render_text()
    }
}

fn snapshot_serve_stats(shared: &Shared, gangs: usize, gang_size: usize) -> ServeStats {
    let counters = &shared.counters;
    ServeStats {
        gangs,
        gang_size,
        queued: shared.queue.len(),
        submitted: counters.submitted.load(Ordering::Relaxed),
        completed: counters.completed.load(Ordering::Relaxed),
        rejected: counters.rejected.load(Ordering::Relaxed),
        batches: counters.batches.load(Ordering::Relaxed),
        fused: counters.fused.load(Ordering::Relaxed),
        helped: counters.helped.load(Ordering::Relaxed),
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // 1. Close admission: new submissions fail, parked submitters wake and err.
        self.shared.queue.close();
        // 2. Detach the drivers (each finishes its in-flight batch first).
        self.drivers.clear();
        // 3. Serve whatever is still queued inline — a handle obtained before the
        //    drop must always resolve.
        for job in self.shared.queue.drain() {
            job.done.complete(run_seq(&job.kind));
            self.shared
                .counters
                .completed
                .fetch_add(1, Ordering::Relaxed);
        }
        // 4. The gang pools drop with `self.gangs`, detaching their partitions.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlo_affinity::{PinPolicy, Topology};
    use parlo_sync::AtomicUsize;

    fn executor(cores: usize) -> Arc<Executor> {
        Executor::new(&Topology::flat(cores).unwrap(), PinPolicy::None)
    }

    #[test]
    fn serves_for_loops_and_sums_on_one_gang() {
        let exec = executor(4);
        let server = Server::on_executor(
            ServeConfig::default()
                .with_workers(3)
                .with_gang(GangSizing::Fixed(3)),
            &exec,
        );
        assert_eq!(server.stats().gangs, 1);
        let hits: Arc<Vec<AtomicUsize>> = Arc::new((0..257).map(|_| AtomicUsize::new(0)).collect());
        let h = {
            let hits = Arc::clone(&hits);
            server
                .submit(LoopRequest::for_each(LoopSite::new(1), 0..257, move |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }))
                .unwrap()
        };
        let s = server
            .submit(LoopRequest::sum(LoopSite::new(2), 0..1000, |i| i as f64))
            .unwrap();
        h.wait();
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(s.wait(), 499_500.0);
        assert!(server.stats().completed >= 2);
    }

    #[test]
    fn metrics_text_exposes_serve_and_exec_families() {
        let exec = executor(4);
        let server = Server::on_executor(
            ServeConfig::default()
                .with_workers(3)
                .with_gang(GangSizing::Fixed(3)),
            &exec,
        );
        let h = server
            .submit(LoopRequest::for_each(LoopSite::new(7), 0..64, |_| {}))
            .unwrap();
        h.wait();
        let registry = server.stats_registry();
        assert_eq!(registry.len(), 2);
        let text = server.metrics_text();
        assert!(text.contains("serve.gangs 1"), "got:\n{text}");
        assert!(text.contains("serve.submitted 1"), "got:\n{text}");
        assert!(text.contains("exec.workers"), "got:\n{text}");
        assert!(text.contains("exec.leases"), "got:\n{text}");
        // The registry holds live handles: a later render sees newer counters.
        server
            .submit(LoopRequest::for_each(LoopSite::new(7), 0..64, |_| {}))
            .unwrap()
            .wait();
        assert!(registry.render_text().contains("serve.submitted 2"));
    }

    #[test]
    fn gang_allocation_cuts_disjoint_partitions() {
        let exec = executor(9);
        let server = Server::on_executor(
            ServeConfig::default().with_gang(GangSizing::Fixed(4)),
            &exec,
        );
        let stats = server.stats();
        assert_eq!(stats.gangs, 2, "8 workers cut into two gangs of 4");
        assert_eq!(stats.gang_size, 4);
        assert!(exec.stats().workers <= exec.capacity());
        // Both drivers are active partitions.
        assert_eq!(exec.stats().active.len(), 2);
    }

    #[test]
    fn model_sizing_uses_the_burden_model() {
        let exec = executor(9);
        // T = 100us, d = 1us -> g* = 10, clamped to the 8-worker budget.
        let server = Server::on_executor(
            ServeConfig::default().with_gang(GangSizing::Model {
                t_secs: 100e-6,
                burden_secs: 1e-6,
            }),
            &exec,
        );
        assert_eq!(server.stats().gang_size, 8);
        assert_eq!(server.stats().gangs, 1);
    }

    #[test]
    fn degenerate_single_core_serves_inline() {
        let exec = executor(1);
        let server = Server::on_executor(ServeConfig::default(), &exec);
        assert_eq!(server.stats().gangs, 0);
        let h = server
            .submit(LoopRequest::sum(LoopSite::new(7), 0..100, |i| i as f64))
            .unwrap();
        assert!(h.is_done(), "inline mode completes before submit returns");
        assert_eq!(h.wait(), 4950.0);
        assert_eq!(exec.stats().workers, 0, "no substrate threads were spawned");
    }

    #[test]
    fn single_worker_gangs_serve_without_a_pool() {
        let exec = executor(3);
        let server = Server::on_executor(
            ServeConfig::default().with_gang(GangSizing::Fixed(1)),
            &exec,
        );
        assert_eq!(server.stats().gangs, 2, "two 1-worker gangs");
        let a = server
            .submit(LoopRequest::sum(LoopSite::new(1), 0..100, |i| i as f64))
            .unwrap();
        let b = server
            .submit(LoopRequest::sum(LoopSite::new(2), 0..10, |i| i as f64))
            .unwrap();
        assert_eq!(a.wait(), 4950.0);
        assert_eq!(b.wait(), 45.0);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let exec = executor(2);
        let server = Server::on_executor(
            ServeConfig::default().with_gang(GangSizing::Fixed(1)),
            &exec,
        );
        let handles: Vec<JobHandle> = (0..64)
            .map(|k| {
                server
                    .submit(LoopRequest::sum(LoopSite::new(k), 0..10, |i| i as f64))
                    .unwrap()
            })
            .collect();
        drop(server);
        for h in handles {
            assert_eq!(h.wait(), 45.0, "every accepted handle resolves");
        }
    }

    #[test]
    fn rejected_is_a_real_error_type() {
        assert!(Rejected::QueueFull.to_string().contains("full"));
        assert!(Rejected::ShuttingDown.to_string().contains("shutting down"));
    }
}
