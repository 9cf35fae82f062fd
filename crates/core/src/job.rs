//! Type-erased work descriptors.
//!
//! The master sends one *work description* to the workers per parallel loop (step 2 of
//! the scheduling recipe in §2 of the paper).  In this runtime the description is a
//! single [`Job`]: a raw pointer to the loop's [`Harness`] (on the master's stack) plus
//! the monomorphised functions that execute a participant's share and (optionally)
//! combine two reduction views.  The pointer is published before the release phase of
//! the fork half-barrier and the master does not return until the join phase has
//! completed, so the pointee outlives every access — the same lifetime-erasure argument
//! scoped thread pools rely on.  Only [`crate::LoopEngine`] builds and runs jobs, so
//! none of this crosses the crate boundary.

use crate::engine::sealed::Harness;
use parlo_barrier::Epoch;
use std::cell::UnsafeCell;

/// A type-erased work descriptor.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Job {
    /// Pointer to the typed harness (lives on the master's stack for the duration of
    /// the loop).
    data: *const (),
    /// Executes participant `id`'s share of the loop with the given epoch.
    execute: unsafe fn(*const (), usize, Epoch),
    /// Folds participant `from`'s reduction view into participant `into`'s view.
    /// `None` for loops without a merged reduction.
    combine: Option<unsafe fn(*const (), usize, usize)>,
}

/// Runs `H::execute` behind an erased pointer.
///
/// # Safety
/// `data` must point to a live `H`, and the contract of `Harness::execute` holds.
unsafe fn execute_erased<H: Harness>(data: *const (), id: usize, epoch: Epoch) {
    // SAFETY: `Job::of::<H>` made `data` from an `&H` the caller keeps alive; the
    // caller upholds the execute contract.
    unsafe { (*(data as *const H)).execute(id, epoch) }
}

/// Runs `H::combine` behind an erased pointer.
///
/// # Safety
/// `data` must point to a live `H`, and the contract of `Harness::combine` holds.
unsafe fn combine_erased<H: Harness>(data: *const (), into: usize, from: usize) {
    // SAFETY: `Job::of::<H>` made `data` from an `&H` the caller keeps alive; the
    // caller upholds the combine contract.
    unsafe { (*(data as *const H)).combine(into, from) }
}

impl Job {
    /// A job that does nothing; used as the initial slot value and for detach cycles.
    pub(crate) fn noop() -> Self {
        unsafe fn nop(_data: *const (), _id: usize, _epoch: Epoch) {}
        Job {
            data: std::ptr::null(),
            execute: nop,
            combine: None,
        }
    }

    /// Erases a typed harness.  Building the job is safe; running it is not, because
    /// the job does not borrow `harness` (see [`Job::execute`]).
    pub(crate) fn of<H: Harness>(harness: &H) -> Self {
        let combine: unsafe fn(*const (), usize, usize) = combine_erased::<H>;
        Job {
            data: harness as *const H as *const (),
            execute: execute_erased::<H>,
            combine: harness.combines().then_some(combine),
        }
    }

    /// Executes participant `id`'s share.
    ///
    /// # Safety
    /// The harness the job was built from must still be alive, and the contract of
    /// `Harness::execute` holds.
    #[inline]
    pub(crate) unsafe fn execute(&self, id: usize, epoch: Epoch) {
        // SAFETY: forwarded from the caller.
        unsafe { (self.execute)(self.data, id, epoch) }
    }

    /// Folds view `from` into view `into`, if this job carries a combine function.
    ///
    /// # Safety
    /// The harness the job was built from must still be alive, and the contract of
    /// `Harness::combine` holds.
    #[inline]
    pub(crate) unsafe fn combine(&self, into: usize, from: usize) {
        if let Some(f) = self.combine {
            // SAFETY: forwarded from the caller.
            unsafe { f(self.data, into, from) }
        }
    }

    /// Whether the job carries a merged reduction.
    pub(crate) fn has_combine(&self) -> bool {
        self.combine.is_some()
    }
}

/// The single shared job slot of an engine.  It is written by the master strictly
/// before the release phase of the fork half-barrier and read by workers strictly
/// after they observe that release, so the release/acquire pair on the barrier flag
/// orders all accesses; no additional synchronization is needed on the slot itself.
#[derive(Debug)]
pub(crate) struct JobSlot {
    cell: UnsafeCell<Job>,
}

// SAFETY: see the ordering argument above — the slot is only accessed under the
// happens-before edges established by the engine's fork/join barrier phases.
unsafe impl Sync for JobSlot {}
// SAFETY: same barrier-ordering argument as Sync above.
unsafe impl Send for JobSlot {}

impl JobSlot {
    pub(crate) fn new() -> Self {
        JobSlot {
            cell: UnsafeCell::new(Job::noop()),
        }
    }

    /// Master side: publish a job. Must happen before the fork release.
    ///
    /// # Safety
    /// Only the master may call this, and only while no worker is executing a previous
    /// job (i.e. between a completed join phase and the next fork release).
    #[inline]
    pub(crate) unsafe fn publish(&self, job: Job) {
        // SAFETY: the caller guarantees no concurrent reader (see above).
        unsafe { *self.cell.get() = job };
    }

    /// Worker side: read the current job. Must happen after observing the fork release.
    ///
    /// # Safety
    /// Only valid between a fork release and the corresponding join completion.
    #[inline]
    pub(crate) unsafe fn read(&self) -> Job {
        // SAFETY: the caller guarantees the publish happened-before this read.
        unsafe { *self.cell.get() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parlo_sync::{AtomicUsize, Ordering};

    #[test]
    fn noop_job_is_harmless() {
        let j = Job::noop();
        assert!(!j.has_combine());
        // SAFETY: a noop job dereferences nothing.
        unsafe {
            j.execute(0, 1);
            j.execute(7, 1);
            j.combine(0, 1);
        }
    }

    #[test]
    fn job_dispatches_to_harness() {
        struct Counting {
            hits: AtomicUsize,
            combines: AtomicUsize,
        }
        impl Harness for Counting {
            fn combines(&self) -> bool {
                true
            }
            unsafe fn execute(&self, id: usize, epoch: Epoch) {
                self.hits.fetch_add(id + epoch as usize, Ordering::Relaxed);
            }
            unsafe fn combine(&self, _into: usize, _from: usize) {
                self.combines.fetch_add(1, Ordering::Relaxed);
            }
        }
        let h = Counting {
            hits: AtomicUsize::new(0),
            combines: AtomicUsize::new(0),
        };
        let job = Job::of(&h);
        assert!(job.has_combine());
        assert!(!Job::of(&|_: usize, _: Epoch| {}).has_combine());
        // SAFETY: `h` is still alive; this test is single-threaded.
        unsafe {
            job.execute(0, 10);
            job.execute(1, 10);
            job.combine(0, 1);
        }
        assert_eq!(h.hits.load(Ordering::Relaxed), 21);
        assert_eq!(h.combines.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn slot_roundtrip() {
        let hits = AtomicUsize::new(0);
        let harness = |id: usize, _: Epoch| {
            hits.fetch_add(id + 1, Ordering::Relaxed);
        };
        let slot = JobSlot::new();
        // SAFETY: single-threaded publish/read — no concurrent worker; `harness`
        // outlives the job.
        unsafe {
            slot.publish(Job::of(&harness));
            slot.read().execute(4, 1);
        }
        assert_eq!(hits.load(Ordering::Relaxed), 5);
    }
}
