//! The chunk deque: the Chase–Lev work-stealing deque of `parlo-cilk`, generalized
//! from task descriptors to loop-chunk ranges.
//!
//! `crates/cilk/src/deque.rs` implements the deque over any `Copy` item; the stealing
//! runtime instantiates it with a contiguous run of iterations, so a whole run travels
//! in one steal ([`ChunkDeque`] over [`ChunkRange`]; the pool's own deques carry the
//! same range plus a private flag marking the pieces split off stolen ranges).  The owner pushes its pre-split run back-to-front and pops
//! **LIFO** (executing the run front to back, cache-friendly); thieves steal **FIFO**
//! from the top, i.e. the *back* of the run — the two ends never contend except on the
//! last remaining chunk, where the Chase–Lev CAS arbitrates.

use crate::chunk::ChunkRange;
pub use parlo_cilk::{Full, Steal, WorkStealingDeque};

/// A bounded work-stealing deque of loop chunks (owner LIFO pop, thief FIFO steal).
pub type ChunkDeque = WorkStealingDeque<ChunkRange>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_lifo_thief_fifo_over_chunks() {
        let d = ChunkDeque::new(8);
        let chunks: Vec<ChunkRange> = (0..4)
            .map(|k| ChunkRange {
                start: 10 * k,
                end: 10 * k + 10,
            })
            .collect();
        // SAFETY: this thread is the owner.
        unsafe {
            for &c in &chunks {
                d.push(c).unwrap();
            }
            // Thief takes the oldest (FIFO) ...
            assert_eq!(d.steal().success(), Some(chunks[0]));
            // ... the owner the newest (LIFO).
            assert_eq!(d.pop(), Some(chunks[3]));
            assert_eq!(d.steal().success(), Some(chunks[1]));
            assert_eq!(d.pop(), Some(chunks[2]));
            assert_eq!(d.pop(), None);
        }
        assert_eq!(d.steal(), Steal::Empty);
    }

    #[test]
    fn bounded_capacity_reports_full() {
        let d = ChunkDeque::new(2);
        let c = ChunkRange { start: 0, end: 1 };
        // SAFETY: this thread is the owner.
        unsafe {
            d.push(c).unwrap();
            d.push(c).unwrap();
            assert_eq!(d.push(c), Err(Full));
        }
    }
}
