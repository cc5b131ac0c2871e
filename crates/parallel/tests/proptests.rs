//! Property-based tests for the data-parallel substrate: the parallel
//! helpers must always agree with their sequential counterparts.

use std::sync::atomic::{AtomicUsize, Ordering};

use bcpnn_parallel::{
    chunk_ranges, even_ranges, par_chunks_mut, par_map_collect, par_zip_chunks_mut,
    parallel_map_reduce, Range,
};
use proptest::prelude::*;

fn covers(ranges: &[Range], len: usize) -> bool {
    let mut next = 0usize;
    for r in ranges {
        if r.start != next || r.end <= r.start {
            return false;
        }
        next = r.end;
    }
    next == len
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn even_ranges_partition_the_domain(len in 0usize..5000, parts in 1usize..64) {
        let rs = even_ranges(len, parts);
        prop_assert!(covers(&rs, len));
        if len > 0 {
            let max = rs.iter().map(Range::len).max().unwrap();
            let min = rs.iter().map(Range::len).min().unwrap();
            prop_assert!(max - min <= 1);
        }
    }

    #[test]
    fn chunk_ranges_partition_the_domain(len in 0usize..5000, chunk in 1usize..512) {
        let rs = chunk_ranges(len, chunk);
        prop_assert!(covers(&rs, len));
        prop_assert!(rs.iter().all(|r| r.len() <= chunk));
    }

    // Ragged on both ends: chunk counts the bands do not divide, a short
    // last chunk, fewer chunks than bands, one chunk longer than the data.
    #[test]
    fn par_chunks_mut_visits_every_chunk_once(len in 0usize..6000, chunk in 1usize..700) {
        let mut data = vec![0usize; len];
        let calls = AtomicUsize::new(0);
        par_chunks_mut(&mut data, chunk, |start, c| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(start % chunk, 0, "start must be a chunk boundary");
            assert_eq!(c.len(), chunk.min(len - start), "only the last chunk is short");
            for (k, v) in c.iter_mut().enumerate() {
                *v += start + k + 1;
            }
        });
        prop_assert_eq!(calls.into_inner(), len.div_ceil(chunk));
        // A second visit would double the value, a missed one leaves 0.
        prop_assert!(data.iter().enumerate().all(|(i, &v)| v == i + 1));
    }

    #[test]
    fn par_zip_chunks_mut_keeps_pairs_aligned(len in 0usize..6000, chunk in 1usize..700) {
        let mut a = vec![0usize; len];
        let b: Vec<usize> = (0..len).map(|i| i * 3).collect();
        par_zip_chunks_mut(&mut a, &b, chunk, |start, ac, bc| {
            assert_eq!(start % chunk, 0, "start must be a chunk boundary");
            assert_eq!(ac.len(), bc.len());
            for (k, (x, &y)) in ac.iter_mut().zip(bc).enumerate() {
                assert_eq!(y, (start + k) * 3, "b chunk must start where the a chunk does");
                *x += y + 1;
            }
        });
        prop_assert!(a.iter().enumerate().all(|(i, &v)| v == i * 3 + 1));
    }

    #[test]
    fn par_map_collect_matches_sequential_map(len in 0usize..3000, mult in 1u64..50) {
        let par: Vec<u64> = par_map_collect(len, |i| i as u64 * mult);
        let seq: Vec<u64> = (0..len).map(|i| i as u64 * mult).collect();
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn map_reduce_sum_matches_sequential(data in prop::collection::vec(0u32..1000, 0..4000), chunk in 1usize..300) {
        let expected: u64 = data.iter().map(|&v| v as u64).sum();
        let got = parallel_map_reduce(
            data.len(),
            chunk,
            0u64,
            |r| data[r.start..r.end].iter().map(|&v| v as u64).sum::<u64>(),
            |a, b| a + b,
        );
        prop_assert_eq!(expected, got);
    }

    #[test]
    fn map_reduce_concat_preserves_order(len in 0usize..500, chunk in 1usize..64) {
        let expected: Vec<usize> = (0..len).collect();
        let got = parallel_map_reduce(
            len,
            chunk,
            Vec::new(),
            |r| (r.start..r.end).collect::<Vec<_>>(),
            |mut a, b| { a.extend(b); a },
        );
        prop_assert_eq!(expected, got);
    }
}
