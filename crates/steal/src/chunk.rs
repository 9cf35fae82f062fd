//! Loop-chunk ranges and the pre-split partition.
//!
//! A stealing loop is *pre-split*: before any work executes, the iteration range is
//! divided into one contiguous run of chunks per worker (the worker's static block,
//! subdivided into chunks of a fixed size).  Each worker seeds its own deque with its
//! run, executes it LIFO from the front, and steals FIFO from the back of random
//! victims' runs once its own is exhausted.  The pre-split keeps the distribution
//! arithmetic communication-free (exactly like the fine-grain pool's static blocks)
//! while the chunking leaves thieves something to take when iteration costs are skewed.

use parlo_core::static_block;
use std::ops::Range;

/// The number of chunks the default chunk size aims to give every worker (the same
/// 8-per-worker target as the Cilkplus grain heuristic).  It is only the *seeding*
/// granularity: a stolen chunk is split lazily, so rebalancing a skewed run does not
/// depend on the chunks being small, and few chunks keep the deque traffic of an
/// unstolen run a small fraction of the loop.
pub const CHUNKS_PER_WORKER: usize = 8;

/// Upper bound on the default chunk size (mirrors the Cilkplus grain cap).
pub const MAX_DEFAULT_CHUNK: usize = 2048;

/// A contiguous run of loop iterations — the unit of stealing.  `Copy` so the deque
/// can hand it through failed-CAS paths without ownership concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkRange {
    /// First iteration of the chunk (inclusive).
    pub start: usize,
    /// One past the last iteration of the chunk.
    pub end: usize,
}

impl ChunkRange {
    /// Number of iterations in the chunk.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// Returns `true` if the chunk contains no iterations.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// The default chunk size for a loop of `n` iterations on `nthreads` workers:
/// `clamp(n / (CHUNKS_PER_WORKER · P), 1, MAX_DEFAULT_CHUNK)`.
pub fn default_chunk(n: usize, nthreads: usize) -> usize {
    (n / (CHUNKS_PER_WORKER * nthreads.max(1))).clamp(1, MAX_DEFAULT_CHUNK)
}

/// The chunks of worker `tid`'s pre-split run, in **descending** iteration order —
/// exactly the order the worker pushes them, so that owner-LIFO pops execute the run
/// front to back while thief-FIFO steals take chunks from the back.
pub fn worker_run_rev(
    range: &Range<usize>,
    nthreads: usize,
    tid: usize,
    chunk: usize,
) -> impl Iterator<Item = ChunkRange> {
    let block = static_block(range, nthreads, tid);
    let chunk = chunk.max(1);
    let start = block.start;
    let mut hi = block.end;
    std::iter::from_fn(move || {
        if hi <= start {
            return None;
        }
        let lo = start.max(hi.saturating_sub(chunk));
        let out = ChunkRange { start: lo, end: hi };
        hi = lo;
        Some(out)
    })
}

/// The number of chunks the **global grid** pre-split of `range` produces:
/// `ceil(len / chunk)`.  Sticky-affinity loops use this grid instead of the per-block
/// split of [`worker_run_rev`] so a chunk's index (and therefore its remembered
/// owner) is stable across invocations regardless of which worker seeds it.
pub fn grid_chunks(range: &Range<usize>, chunk: usize) -> usize {
    range.len().div_ceil(chunk.max(1))
}

/// Chunk `k` of the global grid over `range`: iterations
/// `[start + k·chunk, min(start + (k+1)·chunk, end))`.
pub fn grid_chunk(range: &Range<usize>, chunk: usize, k: usize) -> ChunkRange {
    let chunk = chunk.max(1);
    let lo = range.start + k * chunk;
    ChunkRange {
        start: lo.min(range.end),
        end: (lo + chunk).min(range.end),
    }
}

/// The grid chunks assigned to worker `tid` by the `owners` table (one owner per grid
/// chunk), in **descending** iteration order — the same push order as
/// [`worker_run_rev`], so owner-LIFO pops still execute the assigned set front to
/// back and thieves take from its tail.
pub fn assigned_run_rev<'a>(
    range: &Range<usize>,
    chunk: usize,
    owners: &'a [u32],
    tid: usize,
) -> impl Iterator<Item = ChunkRange> + 'a {
    let range = range.clone();
    let chunk = chunk.max(1);
    (0..owners.len().min(grid_chunks(&range, chunk)))
        .rev()
        .filter(move |&k| owners[k] as usize == tid)
        .map(move |k| grid_chunk(&range, chunk, k))
}

/// The total number of chunks a pre-split of `range` into per-worker runs produces
/// (the exact chunk-coverage count the tests account against).
pub fn total_chunks(range: &Range<usize>, nthreads: usize, chunk: usize) -> u64 {
    let nthreads = nthreads.max(1);
    let chunk = chunk.max(1);
    (0..nthreads)
        .map(|tid| {
            let block = static_block(range, nthreads, tid);
            block.len().div_ceil(chunk) as u64
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_chunk_matches_the_cilkplus_shape() {
        assert_eq!(default_chunk(0, 4), 1);
        assert_eq!(default_chunk(1000, 4), 31);
        assert_eq!(default_chunk(10_000_000, 4), 2048);
        assert_eq!(default_chunk(100, 1), 12);
        assert_eq!(default_chunk(64, 0), 8, "zero threads clamps to one");
    }

    #[test]
    fn worker_runs_tile_the_range_exactly() {
        for (len, start, threads, chunk) in [
            (0usize, 5usize, 3usize, 4usize),
            (97, 11, 4, 7),
            (64, 0, 1, 64),
            (13, 2, 5, 1),
        ] {
            let range = start..start + len;
            let mut covered = vec![0usize; len];
            let mut chunks = 0u64;
            for tid in 0..threads {
                let mut prev_start = usize::MAX;
                for c in worker_run_rev(&range, threads, tid, chunk) {
                    assert!(!c.is_empty());
                    assert!(c.len() <= chunk);
                    // Descending order within the run.
                    assert!(c.start < prev_start);
                    prev_start = c.start;
                    for i in c.start..c.end {
                        covered[i - start] += 1;
                    }
                    chunks += 1;
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "{len}/{threads}/{chunk}");
            assert_eq!(chunks, total_chunks(&range, threads, chunk));
        }
    }

    #[test]
    fn grid_chunks_tile_the_range_exactly() {
        for (start, len, chunk) in [
            (0usize, 97usize, 7usize),
            (11, 64, 64),
            (5, 13, 1),
            (3, 0, 4),
        ] {
            let range = start..start + len;
            let n = grid_chunks(&range, chunk);
            assert_eq!(n, len.div_ceil(chunk));
            let mut covered = vec![0usize; len];
            for k in 0..n {
                let c = grid_chunk(&range, chunk, k);
                assert!(!c.is_empty());
                assert!(c.len() <= chunk);
                for i in c.start..c.end {
                    covered[i - start] += 1;
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "{start}/{len}/{chunk}");
        }
    }

    #[test]
    fn assigned_runs_partition_the_grid_by_owner() {
        let range = 10..107; // 97 iterations, chunk 8 -> 13 grid chunks
        let chunk = 8;
        let owners: Vec<u32> = (0..13).map(|k| (k % 3) as u32).collect();
        let mut covered = vec![0usize; 97];
        for tid in 0..3 {
            let mut prev_start = usize::MAX;
            for c in assigned_run_rev(&range, chunk, &owners, tid) {
                assert!(c.start < prev_start, "descending within a run");
                prev_start = c.start;
                for i in c.start..c.end {
                    covered[i - 10] += 1;
                }
            }
        }
        assert!(covered.iter().all(|&c| c == 1));
        // A worker with no assigned chunks gets an empty run.
        assert_eq!(assigned_run_rev(&range, chunk, &owners, 7).count(), 0);
    }

    #[test]
    fn chunk_range_len_and_empty() {
        let c = ChunkRange { start: 3, end: 7 };
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        assert!(ChunkRange { start: 7, end: 7 }.is_empty());
        assert_eq!(ChunkRange { start: 9, end: 7 }.len(), 0);
    }
}
