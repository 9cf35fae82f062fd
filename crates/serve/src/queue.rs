//! The bounded admission queue and the completion handle.
//!
//! One queue is shared by every gang driver of a [`crate::Server`].  It holds one
//! FIFO per [`LoopSite`] and pops round-robin across the sites, so per-site dispatch
//! order is preserved while no site can starve another.  Only the dispatch order:
//! two gangs, or a gang and a helping waiter, may run same-site jobs at once, and a
//! later one may finish first.  Both waiting directions — a tenant
//! waiting for queue room and a tenant waiting on a completion — end in the same
//! bounded-spin → yield → park discipline: short waits stay cheap, long waits cost
//! no CPU.  On a server whose gangs have no pool (one worker each), a tenant waiting
//! on a served completion first helps: it serves queued `for` batches itself until
//! its own job is done or none is queued.  Every condvar
//! keeps a count of its parked waiters under its mutex, and a wake nobody waits for
//! is skipped.

use crate::server::{LoopKind, Shared};
use parlo_adaptive::LoopSite;
use parlo_sync::{AtomicBool, AtomicUsize, Condvar, Mutex, MutexGuard, Ordering};
use std::collections::VecDeque;
use std::sync::Arc;

/// Spin iterations before a waiter starts yielding.  Zero under the model checker:
/// its stall rule blocks a spinner until the flag it reads is written, so there
/// only a waiter that parks at once reaches the park protocol.
const SPIN_LIMIT: u32 = if cfg!(parlo_model) { 0 } else { 128 };
/// Yield iterations before a waiter parks on the condvar.
const YIELD_LIMIT: u32 = if cfg!(parlo_model) { 0 } else { 160 };

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The admission queue is at capacity (only from [`crate::Server::try_submit`];
    /// the blocking path waits for room instead).
    QueueFull,
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull => write!(f, "serve admission queue is full"),
            Rejected::ShuttingDown => write!(f, "serve server is shutting down"),
        }
    }
}

impl std::error::Error for Rejected {}

/// Shared completion state of one submitted loop.
pub(crate) struct Completion {
    /// Fast-path flag; set (release) strictly after the result slot is written.
    done: AtomicBool,
    result: Mutex<Option<f64>>,
    cv: Condvar,
    /// Waiters parked on `cv`.  Changed only under `result`'s lock, which orders it
    /// against `complete`; atomic so the model battery's hook can read it without
    /// the lock.
    parked: AtomicUsize,
}

impl Completion {
    pub(crate) fn new() -> Arc<Completion> {
        Arc::new(Completion {
            done: AtomicBool::new(false),
            result: Mutex::new(None),
            cv: Condvar::new(),
            parked: AtomicUsize::new(0),
        })
    }

    pub(crate) fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Publishes the loop's result and wakes the parked waiters, if any.
    pub(crate) fn complete(&self, value: f64) {
        let mut slot = self.result.lock().unwrap_or_else(|p| p.into_inner());
        *slot = Some(value);
        // ordering: `parked` is only changed under the `result` lock held here.
        let parked = self.parked.load(Ordering::Relaxed) > 0;
        drop(slot);
        self.done.store(true, Ordering::Release);
        if parked {
            self.cv.notify_all();
        }
    }

    /// Bounded spin, then yields, then parks until `complete` has run.
    fn wait_done(&self) {
        let mut attempts: u32 = 0;
        while !self.is_done() {
            if attempts < SPIN_LIMIT {
                std::hint::spin_loop();
            } else if attempts < YIELD_LIMIT {
                std::thread::yield_now();
            } else {
                let mut slot = self.result.lock().unwrap_or_else(|p| p.into_inner());
                while slot.is_none() {
                    // ordering: changed under the `result` lock (see the field).
                    self.parked.fetch_add(1, Ordering::Relaxed);
                    slot = self.cv.wait(slot).unwrap_or_else(|p| p.into_inner());
                    self.parked.fetch_sub(1, Ordering::Relaxed);
                }
                return;
            }
            attempts += 1;
        }
    }
}

/// A tenant's handle on one submitted loop.  Cloneable; any number of threads may
/// wait on the same handle.
#[derive(Clone)]
pub struct JobHandle {
    inner: Arc<Completion>,
    /// The server the job was queued on, which a waiter helps; `None` for a handle
    /// that was complete on return from submit, one whose server's gangs have a
    /// pool, or one from [`completion_pair`].
    server: Option<Arc<Shared>>,
}

impl JobHandle {
    pub(crate) fn new(inner: Arc<Completion>, server: Option<Arc<Shared>>) -> JobHandle {
        JobHandle { inner, server }
    }

    /// Whether the loop has completed (one atomic load).
    pub fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    /// Blocks until the loop completes and returns its result (`0.0` for a plain
    /// `for` loop, the reduction value for a sum).
    ///
    /// On a server whose gangs have one worker each (no pool: `gang_size` 1, as
    /// on a 2-CPU host), the waiting thread helps first: while its own job is not
    /// done, it pops the next fused batch of queued `for` requests (round-robin
    /// across sites, exactly as a gang driver pops) and serves it itself,
    /// sequentially — the same work the gang's driver would do.  Where gangs have a
    /// pool, a waiter never helps: a pooled gang runs the loop in parallel, which a
    /// sequential helper would bypass.  Sum requests are never helped: they stay on
    /// the gangs, so a sum's bits do not depend on which thread ran it.  When it
    /// does not help, or no `for` request is queued, the waiter spins, then yields,
    /// then parks, so a waiter behind a queue of sums costs no CPU.
    ///
    /// Because of this, a request body must not block on something the waiting
    /// thread does only after its `wait` returns: the waiter may be the thread that
    /// runs that body.  A helper may also run a site's later request while a gang
    /// still runs an earlier one, so same-site requests can overlap and finish out
    /// of order.  A panic in a served body aborts the process, whichever thread
    /// runs it, so no other tenant's handle in the same batch is left pending.
    pub fn wait(&self) -> f64 {
        if let Some(server) = &self.server {
            server.help_until_done(&self.inner);
        }
        self.inner.wait_done();
        self.inner
            .result
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .expect("done implies a published result")
    }
}

/// The producing side of a detached completion, created by [`completion_pair`].
///
/// This is the model-checking hook for the serve hand-off: the model battery
/// drives a raw `complete` against a concurrent [`JobHandle::wait`] without
/// standing up a whole [`crate::Server`].  The server's gang drivers use the
/// same underlying completion state internally.
pub struct Completer {
    inner: Arc<Completion>,
}

impl Completer {
    /// Publishes the result and wakes every waiter on the paired handle.
    pub fn complete(&self, value: f64) {
        self.inner.complete(value);
    }

    /// Waiters currently parked on the paired handle.  The model battery polls it
    /// to complete only after a waiter has parked; it exists only in model builds.
    #[cfg(parlo_model)]
    pub fn parked_waiters(&self) -> usize {
        // ordering: a count read without the lock; it publishes no data.
        self.inner.parked.load(Ordering::Relaxed)
    }
}

/// Creates a connected ([`JobHandle`], [`Completer`]) pair over a fresh
/// completion slot — the exact primitive a submitted job rides on.  The handle has
/// no server to help, so its `wait` only spins, yields and parks.
pub fn completion_pair() -> (JobHandle, Completer) {
    let inner = Completion::new();
    (
        JobHandle::new(Arc::clone(&inner), None),
        Completer { inner },
    )
}

/// One queued request: the loop to run and where to publish its result.
pub(crate) struct QueuedJob {
    pub(crate) kind: LoopKind,
    pub(crate) done: Arc<Completion>,
}

struct SiteQueue {
    site: LoopSite,
    jobs: VecDeque<QueuedJob>,
}

struct QueueState {
    sites: Vec<SiteQueue>,
    /// Round-robin cursor into `sites` (next site to pop from).
    rr: usize,
    /// Total queued jobs across all sites.
    len: usize,
    closed: bool,
    /// Drivers parked on `jobs_cv` (a push wakes them only when non-zero).
    parked_drivers: usize,
    /// Submitters parked on `space_cv` (a pop wakes them only when non-zero).
    parked_submitters: usize,
}

impl QueueState {
    /// Pops the head job of the next non-empty site after the cursor, advancing it.
    fn pop_rr(&mut self) -> Option<QueuedJob> {
        if self.len == 0 {
            return None;
        }
        let n = self.sites.len();
        for k in 0..n {
            let idx = (self.rr + k) % n;
            if let Some(job) = self.sites[idx].jobs.pop_front() {
                self.rr = (idx + 1) % n;
                self.len -= 1;
                return Some(job);
            }
        }
        None
    }

    /// Pops the next round-robin job only if it is a fusable `for` loop.
    fn pop_rr_for(&mut self) -> Option<QueuedJob> {
        if self.len == 0 {
            return None;
        }
        let n = self.sites.len();
        for k in 0..n {
            let idx = (self.rr + k) % n;
            let head_is_for = self.sites[idx]
                .jobs
                .front()
                .map(|j| matches!(j.kind, LoopKind::For { .. }))
                .unwrap_or(false);
            if head_is_for {
                let job = self.sites[idx].jobs.pop_front().expect("head checked");
                self.rr = (idx + 1) % n;
                self.len -= 1;
                return Some(job);
            }
        }
        None
    }
}

/// The bounded multi-site admission queue (see the module docs for the discipline).
pub(crate) struct ServeQueue {
    state: Mutex<QueueState>,
    /// Drivers park here for work.
    jobs_cv: Condvar,
    /// Submitters park here for queue room.
    space_cv: Condvar,
    capacity: usize,
}

impl ServeQueue {
    pub(crate) fn new(capacity: usize) -> ServeQueue {
        ServeQueue {
            state: Mutex::new(QueueState {
                sites: Vec::new(),
                rr: 0,
                len: 0,
                closed: false,
                parked_drivers: 0,
                parked_submitters: 0,
            }),
            jobs_cv: Condvar::new(),
            space_cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn push_locked(&self, st: &mut QueueState, site: LoopSite, job: QueuedJob) {
        match st.sites.iter_mut().find(|s| s.site == site) {
            Some(s) => s.jobs.push_back(job),
            None => st.sites.push(SiteQueue {
                site,
                jobs: VecDeque::from([job]),
            }),
        }
        st.len += 1;
        parlo_trace::instant(parlo_trace::Phase::Enqueue, st.len as u64, 0);
        parlo_trace::counter(parlo_trace::Phase::QueueDepth, st.len as u64);
        if st.parked_drivers > 0 {
            self.jobs_cv.notify_all();
        }
    }

    /// Fail-fast admission: rejects when closed or at capacity.
    pub(crate) fn try_push(&self, site: LoopSite, job: QueuedJob) -> Result<(), Rejected> {
        let mut st = self.lock();
        if st.closed {
            return Err(Rejected::ShuttingDown);
        }
        if st.len >= self.capacity {
            return Err(Rejected::QueueFull);
        }
        self.push_locked(&mut st, site, job);
        Ok(())
    }

    /// Backpressure admission: waits for room (bounded spin → yield → park); fails
    /// only when the server closes while waiting.
    pub(crate) fn push_wait(&self, site: LoopSite, job: QueuedJob) -> Result<(), Rejected> {
        let mut attempts: u32 = 0;
        let mut st = self.lock();
        loop {
            if st.closed {
                return Err(Rejected::ShuttingDown);
            }
            if st.len < self.capacity {
                self.push_locked(&mut st, site, job);
                return Ok(());
            }
            if attempts < SPIN_LIMIT {
                drop(st);
                std::hint::spin_loop();
            } else if attempts < YIELD_LIMIT {
                drop(st);
                std::thread::yield_now();
            } else {
                st.parked_submitters += 1;
                st = self.space_cv.wait(st).unwrap_or_else(|p| p.into_inner());
                st.parked_submitters -= 1;
                continue;
            }
            attempts += 1;
            st = self.lock();
        }
    }

    /// A driver's pop: blocks until work is available, then takes up to `batch_max`
    /// jobs in round-robin site order.  A batch of more than one job contains only
    /// `for` loops (those are the fusable kind); a reduction always rides alone.
    /// Returns `None` when `stop` is raised (the caller's detach flag).
    pub(crate) fn pop_batch(&self, batch_max: usize, stop: &AtomicBool) -> Option<Vec<QueuedJob>> {
        let mut st = self.lock();
        let first = loop {
            if stop.load(Ordering::Acquire) {
                return None;
            }
            if let Some(job) = st.pop_rr() {
                break job;
            }
            st.parked_drivers += 1;
            st = self.jobs_cv.wait(st).unwrap_or_else(|p| p.into_inner());
            st.parked_drivers -= 1;
        };
        Some(self.fuse(st, first, batch_max))
    }

    /// A helping waiter's pop: [`Self::pop_batch`] restricted to `for` loops, and
    /// `None` at once when no `for` loop heads a site queue.
    pub(crate) fn try_pop_for_batch(&self, batch_max: usize) -> Option<Vec<QueuedJob>> {
        let mut st = self.lock();
        let first = st.pop_rr_for()?;
        Some(self.fuse(st, first, batch_max))
    }

    /// Completes a batch behind its popped `first` job: a `for` loop takes up to
    /// `batch_max − 1` more queued `for` loops along.
    fn fuse(
        &self,
        mut st: MutexGuard<'_, QueueState>,
        first: QueuedJob,
        batch_max: usize,
    ) -> Vec<QueuedJob> {
        let mut batch = vec![first];
        if matches!(batch[0].kind, LoopKind::For { .. }) {
            while batch.len() < batch_max.max(1) {
                match st.pop_rr_for() {
                    Some(job) => batch.push(job),
                    None => break,
                }
            }
        }
        parlo_trace::counter(parlo_trace::Phase::QueueDepth, st.len as u64);
        if batch.len() > 1 {
            parlo_trace::instant(parlo_trace::Phase::Fuse, batch.len() as u64, 0);
        }
        let wake = st.parked_submitters > 0;
        drop(st);
        if wake {
            self.space_cv.notify_all();
        }
        batch
    }

    /// Closes admission and wakes every parked submitter and driver.
    pub(crate) fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        drop(st);
        self.jobs_cv.notify_all();
        self.space_cv.notify_all();
    }

    /// Wakes parked drivers so they re-check their detach flags (called from a
    /// gang's detach hook; may run with the executor's state lock held, so it takes
    /// only the queue lock — the one place the exec → queue lock order appears).
    pub(crate) fn wake_drivers(&self) {
        let st = self.lock();
        drop(st);
        self.jobs_cv.notify_all();
    }

    /// Empties the queue (shutdown path: the server completes the leftovers inline).
    pub(crate) fn drain(&self) -> Vec<QueuedJob> {
        let mut st = self.lock();
        let mut out = Vec::with_capacity(st.len);
        while let Some(job) = st.pop_rr() {
            out.push(job);
        }
        drop(st);
        self.space_cv.notify_all();
        out
    }

    /// Jobs currently queued (admission snapshot).
    pub(crate) fn len(&self) -> usize {
        self.lock().len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::LoopKind;
    use std::ops::Range;

    fn for_job(range: Range<usize>) -> QueuedJob {
        QueuedJob {
            kind: LoopKind::For {
                range,
                body: Arc::new(|_| {}),
            },
            done: Completion::new(),
        }
    }

    fn sum_job(range: Range<usize>) -> QueuedJob {
        QueuedJob {
            kind: LoopKind::Sum {
                range,
                f: Arc::new(|i| i as f64),
            },
            done: Completion::new(),
        }
    }

    fn job_len(j: &QueuedJob) -> usize {
        match &j.kind {
            LoopKind::For { range, .. } | LoopKind::Sum { range, .. } => range.len(),
        }
    }

    #[test]
    fn pops_round_robin_across_sites() {
        let q = ServeQueue::new(16);
        let (a, b) = (LoopSite::new(1), LoopSite::new(2));
        // Two jobs per site, distinguishable by length: a=10,11  b=20,21.
        q.try_push(a, for_job(0..10)).unwrap();
        q.try_push(a, for_job(0..11)).unwrap();
        q.try_push(b, for_job(0..20)).unwrap();
        q.try_push(b, for_job(0..21)).unwrap();
        let stop = AtomicBool::new(false);
        let order: Vec<usize> = (0..4)
            .map(|_| job_len(&q.pop_batch(1, &stop).unwrap()[0]))
            .collect();
        assert_eq!(
            order,
            vec![10, 20, 11, 21],
            "sites alternate, FIFO within a site"
        );
    }

    #[test]
    fn batches_fuse_consecutive_for_loops_only() {
        let q = ServeQueue::new(16);
        let site = LoopSite::new(1);
        q.try_push(site, for_job(0..5)).unwrap();
        q.try_push(site, for_job(0..6)).unwrap();
        q.try_push(site, for_job(0..7)).unwrap();
        q.try_push(site, sum_job(0..8)).unwrap();
        q.try_push(site, for_job(0..9)).unwrap();
        let stop = AtomicBool::new(false);
        let b1 = q.pop_batch(8, &stop).unwrap();
        assert_eq!(
            b1.iter().map(job_len).collect::<Vec<_>>(),
            vec![5, 6, 7],
            "fusion stops at the reduction"
        );
        let b2 = q.pop_batch(8, &stop).unwrap();
        assert_eq!(b2.len(), 1, "a reduction rides alone");
        assert_eq!(job_len(&b2[0]), 8);
        let b3 = q.pop_batch(8, &stop).unwrap();
        assert_eq!(job_len(&b3[0]), 9);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn batch_max_caps_fusion() {
        let q = ServeQueue::new(16);
        let site = LoopSite::new(1);
        for _ in 0..5 {
            q.try_push(site, for_job(0..4)).unwrap();
        }
        let stop = AtomicBool::new(false);
        assert_eq!(q.pop_batch(3, &stop).unwrap().len(), 3);
        assert_eq!(q.pop_batch(3, &stop).unwrap().len(), 2);
    }

    #[test]
    fn admission_control_rejects_at_capacity_and_after_close() {
        let q = ServeQueue::new(2);
        let site = LoopSite::new(1);
        q.try_push(site, for_job(0..1)).unwrap();
        q.try_push(site, for_job(0..1)).unwrap();
        assert_eq!(
            q.try_push(site, for_job(0..1)).unwrap_err(),
            Rejected::QueueFull
        );
        q.close();
        assert_eq!(
            q.try_push(site, for_job(0..1)).unwrap_err(),
            Rejected::ShuttingDown
        );
        assert_eq!(
            q.push_wait(site, for_job(0..1)).unwrap_err(),
            Rejected::ShuttingDown
        );
    }

    #[test]
    fn pop_batch_returns_none_on_stop() {
        let q = ServeQueue::new(4);
        let stop = AtomicBool::new(true);
        assert!(q.pop_batch(4, &stop).is_none());
    }

    #[test]
    fn parked_submitter_wakes_when_room_appears() {
        let q = Arc::new(ServeQueue::new(1));
        let site = LoopSite::new(1);
        q.try_push(site, for_job(0..1)).unwrap();
        let q2 = Arc::clone(&q);
        let submitter = std::thread::spawn(move || q2.push_wait(site, for_job(0..2)));
        // Give the submitter time to reach the parked phase, then free a slot.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let stop = AtomicBool::new(false);
        let popped = q.pop_batch(1, &stop).unwrap();
        assert_eq!(job_len(&popped[0]), 1);
        submitter.join().unwrap().unwrap();
        assert_eq!(q.len(), 1);
    }
}
