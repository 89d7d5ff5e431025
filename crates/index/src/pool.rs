//! A silo-local scoped worker pool.
//!
//! Index construction (`RTree::bulk_load_with`, `LsrForest::build_with`,
//! `GridIndex::build_with`) needs one primitive: fan a known amount of
//! independent work across a few threads and reassemble the results in
//! input order. [`WorkerPool`] provides it hand-rolled over
//! [`std::thread::scope`] — no runtime, no queues that outlive a call, no
//! new dependencies. The pool stores only its size; threads are scoped to
//! each operation, so borrowing the caller's data is safe and a pool is
//! trivially `Copy`. Every call spawns and joins its threads, which only a
//! build's milliseconds of work repay: a silo serving a frame and the
//! scheduler's tick never go through the pool.
//!
//! # Determinism
//!
//! Every operation returns results indexed by input position, and every
//! chunked helper derives its chunk boundaries from the *input size only*,
//! never from the thread count. Callers that reduce `Aggregate`s over
//! chunk results in fixed chunk order therefore produce bit-identical
//! floats whether the pool has 1 thread or N — the property the
//! `parallel_equivalence` suite pins. [`WorkerPool::sort_by`] goes
//! further: its output is the canonical stable sort (equal to
//! `slice::sort_by`) regardless of chunking, because the pairwise merges
//! take the left run on ties.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable that overrides the automatic pool size.
pub const POOL_SIZE_ENV: &str = "FEDRA_SILO_THREADS";

/// Cap on the automatic pool size: silo work parallelizes well up to a
/// handful of cores, and a federation runs `m` silos side by side — an
/// uncapped per-silo pool would oversubscribe the host `m`-fold.
pub const MAX_AUTO_THREADS: usize = 8;

/// Minimum slice length before [`WorkerPool::sort_by`] bothers splitting.
const MIN_PARALLEL_SORT: usize = 8 * 1024;

/// A fixed-size scoped worker pool (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::auto()
    }
}

impl WorkerPool {
    /// A pool of `threads` workers; `0` means [`WorkerPool::auto`].
    pub fn new(threads: usize) -> Self {
        if threads == 0 {
            Self::auto()
        } else {
            Self { threads }
        }
    }

    /// A single-threaded pool: every operation runs inline on the caller.
    pub fn sequential() -> Self {
        Self { threads: 1 }
    }

    /// Sizes the pool from the host: available cores clamped to
    /// [`MAX_AUTO_THREADS`], overridable via the [`POOL_SIZE_ENV`]
    /// environment variable (useful for A/B runs and CI equivalence
    /// sweeps).
    pub fn auto() -> Self {
        let from_env = std::env::var(POOL_SIZE_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0);
        let threads = from_env.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(MAX_AUTO_THREADS)
        });
        Self { threads }
    }

    /// Number of worker threads operations may use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, returning results in input order.
    ///
    /// Work-stealing over an atomic cursor; each worker accumulates
    /// `(index, result)` pairs locally and the calling thread scatters
    /// them — no shared lock on the hot path, no `unsafe`.
    ///
    /// # Panics
    /// Re-raises the first worker panic on the calling thread (after all
    /// workers have been joined), like the inline loop it replaces.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let (slots, panic) = self.run_borrowed(items, &f);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        // No worker panicked, so the cursor visited every index: the
        // flatten drops nothing.
        slots.into_iter().flatten().collect()
    }

    /// Like [`WorkerPool::map`], but degrades panics instead of
    /// propagating them: items claimed by a worker that died come back as
    /// `None` while items claimed by surviving workers still complete
    /// (sequentially, a panic poisons the remaining items, mirroring a
    /// one-worker pool).
    pub fn try_map<T, R, F>(&self, items: &[T], f: F) -> Vec<Option<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.run_borrowed(items, &f).0
    }

    /// Runs `f` once per mutable chunk, distributing chunks round-robin
    /// across workers. The chunk list is the unit of distribution, so
    /// callers control granularity (e.g. one STR slab per chunk).
    ///
    /// # Panics
    /// Re-raises the first worker panic on the calling thread.
    pub fn for_each_mut<T, F>(&self, chunks: Vec<&mut [T]>, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if self.threads == 1 || chunks.len() <= 1 {
            for (i, chunk) in chunks.into_iter().enumerate() {
                f(i, chunk);
            }
            return;
        }
        let workers = self.threads.min(chunks.len());
        let mut buckets: Vec<Vec<(usize, &mut [T])>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, chunk) in chunks.into_iter().enumerate() {
            buckets[i % workers].push((i, chunk));
        }
        let f = &f;
        let panic = std::thread::scope(|scope| {
            let handles: Vec<_> = buckets
                .into_iter()
                .map(|bucket| {
                    scope.spawn(move || {
                        for (i, chunk) in bucket {
                            f(i, chunk);
                        }
                    })
                })
                .collect();
            let mut first_panic = None;
            for handle in handles {
                if let Err(payload) = handle.join() {
                    first_panic.get_or_insert(payload);
                }
            }
            first_panic
        });
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }

    /// Stable parallel sort: chunk-sorts on the workers, then merges runs
    /// pairwise (left run wins ties). The output is exactly what
    /// `items.sort_by(cmp)` produces — chunking never shows through — so
    /// STR bulk-loads stay bit-reproducible across pool sizes.
    pub fn sort_by<T, F>(&self, items: &mut [T], cmp: F)
    where
        T: Copy + Send + Sync,
        F: Fn(&T, &T) -> std::cmp::Ordering + Sync,
    {
        let n = items.len();
        if self.threads == 1 || n < MIN_PARALLEL_SORT {
            items.sort_by(|a, b| cmp(a, b));
            return;
        }
        let chunk_len = n.div_ceil(self.threads);
        {
            let chunks: Vec<&mut [T]> = items.chunks_mut(chunk_len).collect();
            self.for_each_mut(chunks, |_, chunk| chunk.sort_by(|a, b| cmp(a, b)));
        }
        // Iterative pairwise merge of the sorted runs. O(n log threads)
        // sequential work — the O(n log n) chunk sorts above are what the
        // pool buys down.
        let mut scratch: Vec<T> = Vec::with_capacity(n);
        let mut width = chunk_len;
        while width < n {
            let mut start = 0;
            while start + width < n {
                let end = (start + 2 * width).min(n);
                merge_runs(&mut items[start..end], width, &mut scratch, &cmp);
                start = end;
            }
            width *= 2;
        }
    }

    /// Shared implementation of [`WorkerPool::map`] / [`WorkerPool::try_map`].
    ///
    /// Returns the per-index result slots plus the first worker panic
    /// payload (if any). The sequential path mirrors a dying one-worker
    /// pool: the first panic abandons the remaining items.
    fn run_borrowed<T, R, F>(
        &self,
        items: &[T],
        f: &F,
    ) -> (Vec<Option<R>>, Option<Box<dyn std::any::Any + Send>>)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(n, || None);
        if self.threads == 1 || n <= 1 {
            for (i, item) in items.iter().enumerate() {
                match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                    Ok(r) => slots[i] = Some(r),
                    Err(payload) => return (slots, Some(payload)),
                }
            }
            return (slots, None);
        }
        let next = AtomicUsize::new(0);
        let panic = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads.min(n))
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, f(i, &items[i])));
                        }
                        local
                    })
                })
                .collect();
            let mut first_panic = None;
            for handle in handles {
                match handle.join() {
                    Ok(local) => {
                        for (i, r) in local {
                            slots[i] = Some(r);
                        }
                    }
                    Err(payload) => {
                        first_panic.get_or_insert(payload);
                    }
                }
            }
            first_panic
        });
        (slots, panic)
    }
}

/// Stable two-run merge: `slice[..mid]` and `slice[mid..]` are each
/// sorted; afterwards the whole slice is, with left-run elements first on
/// ties (the invariant that makes chunked sorting equal `sort_by`).
fn merge_runs<T, F>(slice: &mut [T], mid: usize, scratch: &mut Vec<T>, cmp: &F)
where
    T: Copy,
    F: Fn(&T, &T) -> std::cmp::Ordering,
{
    scratch.clear();
    {
        let (a, b) = slice.split_at(mid);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            // Strictly-less from the right run, else take left: stability.
            if cmp(&b[j], &a[i]) == std::cmp::Ordering::Less {
                scratch.push(b[j]);
                j += 1;
            } else {
                scratch.push(a[i]);
                i += 1;
            }
        }
        scratch.extend_from_slice(&a[i..]);
        scratch.extend_from_slice(&b[j..]);
    }
    slice.copy_from_slice(scratch);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            let items: Vec<u64> = (0..257).collect();
            let out = pool.map(&items, |i, &x| x * 2 + i as u64);
            let expect: Vec<u64> = (0..257).map(|x| x * 3).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn map_propagates_panics() {
        let pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map(&items, |_, &x| {
                assert!(x != 17, "boom");
                x
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn try_map_degrades_panics_to_none() {
        for threads in [1, 4] {
            let pool = WorkerPool::new(threads);
            let items: Vec<usize> = (0..32).collect();
            let out = pool.try_map(&items, |_, &x| {
                assert!(x != 5, "boom");
                x
            });
            assert_eq!(out.len(), 32);
            // The panicking item never answers; items it dragged down with
            // it (the dying worker's locals) are None too, but the call
            // itself returns instead of propagating.
            assert_eq!(out[5], None);
            for (i, slot) in out.iter().enumerate() {
                if let Some(v) = slot {
                    assert_eq!(*v, i, "threads={threads}: slot {i}");
                }
            }
        }
    }

    #[test]
    fn for_each_mut_touches_every_chunk() {
        for threads in [1, 4] {
            let pool = WorkerPool::new(threads);
            let mut data: Vec<u32> = vec![0; 40];
            let chunks: Vec<&mut [u32]> = data.chunks_mut(7).collect();
            pool.for_each_mut(chunks, |i, chunk| {
                for v in chunk.iter_mut() {
                    *v = i as u32 + 1;
                }
            });
            assert!(data.iter().all(|&v| v > 0));
            assert_eq!(data[0], 1);
            assert_eq!(data[39], 6); // 40 / 7 → 6 chunks, last is chunk 5
        }
    }

    #[test]
    fn sort_matches_std_stable_sort_bitwise() {
        // Pseudo-random keys with deliberate duplicates; the payload makes
        // stability observable.
        let mut state = 0x1234_5678_9abc_def0u64;
        let items: Vec<(u64, u64)> = (0..50_000)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 50) % 512, i)
            })
            .collect();
        let mut expect = items.clone();
        expect.sort_by(|a, b| a.0.cmp(&b.0));
        for threads in [2, 3, 8] {
            let pool = WorkerPool::new(threads);
            let mut got = items.clone();
            pool.sort_by(&mut got, |a, b| a.0.cmp(&b.0));
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn small_sorts_run_inline() {
        let pool = WorkerPool::new(4);
        let mut v = vec![3u32, 1, 2];
        pool.sort_by(&mut v, |a, b| a.cmp(b));
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn zero_threads_means_auto() {
        let pool = WorkerPool::new(0);
        assert!(pool.threads() >= 1);
        assert!(pool.threads() <= MAX_AUTO_THREADS.max(1));
        assert_eq!(WorkerPool::sequential().threads(), 1);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let pool = WorkerPool::new(4);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.map(&empty, |_, &x| x).is_empty());
        pool.for_each_mut(Vec::<&mut [u32]>::new(), |_, _| {});
        let mut nothing: [u32; 0] = [];
        pool.sort_by(&mut nothing, |a, b| a.cmp(b));
    }
}
