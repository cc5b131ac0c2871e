//! OpenMP-style loop and slice parallelism built on [`crate::ThreadPool::scope`].
//!
//! All helpers fall back to plain sequential execution when the problem is
//! small or when the global pool has a single thread, so they are safe to
//! call unconditionally from inner layers of the library.

use parking_lot::Mutex;

use crate::partition::{chunk_bands, chunk_ranges, even_ranges, Range};
use crate::pool::global_pool;

/// Problems smaller than this run sequentially: the work per element in the
/// BCPNN kernels is tiny, so parallelising very small loops only adds
/// scheduling overhead.
const SEQUENTIAL_CUTOFF: usize = 512;

/// Parallel `for i in 0..len { f(i) }` with automatic chunking.
///
/// `f` must be safe to call concurrently from several threads.
pub fn parallel_for<F>(start: usize, end: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let len = end.saturating_sub(start);
    if len == 0 {
        return;
    }
    let pool = global_pool();
    if len < SEQUENTIAL_CUTOFF || pool.num_threads() == 1 {
        for i in start..end {
            f(i);
        }
        return;
    }
    let ranges = even_ranges(len, pool.num_threads() * 4);
    let f = &f;
    pool.scope(|s| {
        for r in ranges {
            s.spawn(move || {
                for i in r.start..r.end {
                    f(start + i);
                }
            });
        }
    });
}

/// Parallel iteration over explicit index ranges: `f` receives each
/// half-open range `[range.start + offset, range.end + offset)` exactly once.
///
/// Unlike [`parallel_for`] the caller controls the chunk size, which is the
/// right interface when each chunk amortises some per-chunk setup (e.g. a
/// GEMM panel).
pub fn parallel_for_chunks<F>(len: usize, chunk: usize, f: F)
where
    F: Fn(Range) + Sync,
{
    if len == 0 {
        return;
    }
    let pool = global_pool();
    let ranges = chunk_ranges(len, chunk.max(1));
    if ranges.len() == 1 || pool.num_threads() == 1 {
        for r in ranges {
            f(r);
        }
        return;
    }
    let f = &f;
    pool.scope(|s| {
        for r in ranges {
            s.spawn(move || f(r));
        }
    });
}

/// Apply `f(start_index, chunk)` to disjoint mutable chunks of `data` in
/// parallel. `start_index` is the index of the first element of the chunk in
/// the original slice.
///
/// Consecutive chunks are grouped into at most `num_threads × 4` contiguous
/// bands and one task runs per band, calling `f` for each of its chunks in
/// order — a caller may pass one matrix row as the chunk without paying one
/// task per row.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = data.len();
    if len == 0 {
        return;
    }
    let chunk = chunk.max(1);
    let pool = global_pool();
    if len <= chunk || pool.num_threads() == 1 {
        for (ci, c) in data.chunks_mut(chunk).enumerate() {
            f(ci * chunk, c);
        }
        return;
    }
    let f = &f;
    pool.scope(|s| {
        let mut rest = data;
        for band in chunk_bands(len, chunk, pool.num_threads() * 4) {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(band.len());
            rest = tail;
            s.spawn(move || {
                for (ci, c) in head.chunks_mut(chunk).enumerate() {
                    f(band.start + ci * chunk, c);
                }
            });
        }
    });
}

/// Apply `f(start_index, a_chunk, b_chunk)` to aligned chunks of a mutable
/// slice `a` and a shared slice `b` in parallel, banded like
/// [`par_chunks_mut`].
///
/// # Panics
/// Panics if the two slices have different lengths.
pub fn par_zip_chunks_mut<T, U, F>(a: &mut [T], b: &[U], chunk: usize, f: F)
where
    T: Send,
    U: Sync,
    F: Fn(usize, &mut [T], &[U]) + Sync,
{
    assert_eq!(
        a.len(),
        b.len(),
        "par_zip_chunks_mut requires equally sized slices"
    );
    par_chunks_mut(a, chunk, |start, ac| {
        f(start, ac, &b[start..start + ac.len()])
    });
}

/// Compute `f(i)` for every `i in 0..len` in parallel and collect the
/// results in index order.
pub fn par_map_collect<T, F>(len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = (0..len).map(|_| None).collect();
    par_chunks_mut(
        &mut out,
        SEQUENTIAL_CUTOFF.min(len.max(1)),
        |start, chunk| {
            for (offset, slot) in chunk.iter_mut().enumerate() {
                *slot = Some(f(start + offset));
            }
        },
    );
    out.into_iter()
        .map(|x| x.expect("par_map_collect slot not filled"))
        .collect()
}

/// Run `f(state, item)` for every item of `items`, on `states.len()`
/// threads at once, each with a state of its own: the caller takes
/// `states[0]` and one pool task per further state takes the rest, all in
/// one scope. A thread takes the next item as soon as it is done with the
/// last, so an item that costs more does not hold the others up. With one
/// state the items run in order on the caller, with no pool hand-off.
///
/// # Panics
/// Panics if `states` is empty.
pub fn par_for_each_with<S, I, F>(states: &mut [S], items: I, f: F)
where
    S: Send,
    I: Iterator + Send,
    F: Fn(&mut S, I::Item) + Sync,
{
    let Some((first, rest)) = states.split_first_mut() else {
        panic!("par_for_each_with needs at least one state");
    };
    if rest.is_empty() {
        items.for_each(|item| f(first, item));
        return;
    }
    let queue = Mutex::new(items);
    let drain = |state: &mut S| loop {
        // The guard is dropped at the end of this statement, before `f`.
        let Some(item) = queue.lock().next() else {
            return;
        };
        f(state, item);
    };
    let drain = &drain;
    global_pool().scope(|s| {
        for state in rest {
            s.spawn(move || drain(state));
        }
        drain(first);
    });
}

/// Chunked parallel map-reduce over the index range `[0, len)`.
///
/// Each chunk `[r.start, r.end)` is mapped to a partial result with `map`,
/// and the partials are folded *sequentially in chunk order* with `reduce`,
/// starting from `identity`. Using a deterministic fold order keeps
/// floating-point reductions reproducible run-to-run for a fixed thread
/// count and chunk size.
pub fn parallel_map_reduce<A, M, R>(len: usize, chunk: usize, identity: A, map: M, reduce: R) -> A
where
    A: Send,
    M: Fn(Range) -> A + Sync,
    R: Fn(A, A) -> A,
{
    if len == 0 {
        return identity;
    }
    let ranges = chunk_ranges(len, chunk.max(1));
    let pool = global_pool();
    if ranges.len() == 1 || pool.num_threads() == 1 {
        let mut acc = identity;
        for r in ranges {
            acc = reduce(acc, map(r));
        }
        return acc;
    }
    let map = &map;
    let mut partials: Vec<Option<A>> = (0..ranges.len()).map(|_| None).collect();
    pool.scope(|s| {
        for (slot, r) in partials.iter_mut().zip(ranges.iter().copied()) {
            s.spawn(move || {
                *slot = Some(map(r));
            });
        }
    });
    let mut acc = identity;
    for p in partials {
        acc = reduce(acc, p.expect("parallel_map_reduce partial not filled"));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn parallel_for_touches_every_index_once() {
        let n = 10_000;
        let flags: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for(0, n, |i| {
            flags[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(flags.iter().all(|f| f.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_respects_start_offset() {
        let hits = AtomicU64::new(0);
        parallel_for(100, 200, |i| {
            assert!((100..200).contains(&i));
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn parallel_for_empty_range_is_noop() {
        parallel_for(5, 5, |_| panic!("must not be called"));
        parallel_for(7, 3, |_| panic!("must not be called"));
    }

    #[test]
    fn parallel_for_chunks_covers_range() {
        let n = 5000;
        let flags: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for_chunks(n, 97, |r| {
            for i in r.start..r.end {
                flags[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(flags.iter().all(|f| f.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_each_with_takes_every_item_once_per_state() {
        for n_states in [1usize, 2, 3] {
            let mut states = vec![Vec::new(); n_states];
            let mut out = vec![0usize; 101];
            par_for_each_with(&mut states, out.iter_mut().enumerate(), |seen, (i, v)| {
                *v = i + 1;
                seen.push(i);
            });
            assert!(out.iter().enumerate().all(|(i, &v)| v == i + 1));
            let mut seen: Vec<usize> = states.concat();
            seen.sort_unstable();
            assert_eq!(seen, (0..101).collect::<Vec<_>>(), "{n_states} states");
        }
        // One state: in order, on the caller.
        let caller = std::thread::current().id();
        let mut order = [Vec::new()];
        par_for_each_with(&mut order, 0..10, |seen, i| {
            assert_eq!(std::thread::current().id(), caller);
            seen.push(i);
        });
        assert_eq!(order[0], (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_mut_writes_every_element() {
        let mut data = vec![0usize; 4096];
        par_chunks_mut(&mut data, 100, |start, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = start + k;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn par_zip_chunks_mut_adds_slices() {
        let mut a = vec![1.0f32; 3000];
        let b: Vec<f32> = (0..3000).map(|i| i as f32).collect();
        par_zip_chunks_mut(&mut a, &b, 128, |_, ac, bc| {
            for (x, y) in ac.iter_mut().zip(bc) {
                *x += *y;
            }
        });
        for (i, v) in a.iter().enumerate() {
            assert_eq!(*v, 1.0 + i as f32);
        }
    }

    #[test]
    #[should_panic(expected = "equally sized")]
    fn par_zip_chunks_mut_rejects_mismatched_lengths() {
        let mut a = vec![0.0f32; 4];
        let b = vec![0.0f32; 5];
        par_zip_chunks_mut(&mut a, &b, 2, |_, _, _| {});
    }

    #[test]
    fn par_map_collect_preserves_order() {
        let out = par_map_collect(2000, |i| i * 3);
        assert_eq!(out.len(), 2000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn par_map_collect_empty() {
        let out: Vec<u32> = par_map_collect(0, |_| 1u32);
        assert!(out.is_empty());
    }

    #[test]
    fn map_reduce_sums_match_sequential() {
        for n in [0usize, 1, 10, 513, 10_000] {
            let expected: u64 = (0..n as u64).sum();
            let got = parallel_map_reduce(
                n,
                64,
                0u64,
                |r| (r.start as u64..r.end as u64).sum::<u64>(),
                |a, b| a + b,
            );
            assert_eq!(got, expected, "n={n}");
        }
    }

    #[test]
    fn map_reduce_fold_order_is_deterministic() {
        // Build a reduction that is order-sensitive (string concatenation of
        // chunk starts) and check it is stable across runs.
        let run = || {
            parallel_map_reduce(
                1000,
                130,
                String::new(),
                |r| format!("[{}]", r.start),
                |a, b| a + &b,
            )
        };
        let first = run();
        for _ in 0..5 {
            assert_eq!(run(), first);
        }
    }
}
