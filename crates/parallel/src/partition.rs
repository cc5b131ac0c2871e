//! Index-range partitioning helpers used to share loop iterations between
//! workers, mirroring OpenMP's static loop scheduling.

/// A half-open index range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range {
    /// Inclusive start index.
    pub start: usize,
    /// Exclusive end index.
    pub end: usize,
}

impl Range {
    /// Number of indices covered by the range.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// Whether the range covers no indices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Split `[0, len)` into `parts` contiguous ranges whose sizes differ by at
/// most one (OpenMP "static" schedule). Empty trailing ranges are omitted.
pub fn even_ranges(len: usize, parts: usize) -> Vec<Range> {
    let parts = parts.max(1);
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.min(len);
    let base = len / parts;
    let rem = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let size = base + usize::from(p < rem);
        if size == 0 {
            continue;
        }
        out.push(Range {
            start,
            end: start + size,
        });
        start += size;
    }
    out
}

/// Split `[0, len)` into contiguous ranges of at most `chunk` indices
/// (OpenMP "static, chunk" schedule).
pub fn chunk_ranges(len: usize, chunk: usize) -> Vec<Range> {
    let chunk = chunk.max(1);
    if len == 0 {
        return Vec::new();
    }
    let n = len.div_ceil(chunk);
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    while start < len {
        let end = (start + chunk).min(len);
        out.push(Range { start, end });
        start = end;
    }
    out
}

/// Group the `chunk`-sized pieces of `[0, len)` into at most `parts`
/// contiguous bands of whole chunks, returned as element ranges: every band
/// starts on a multiple of `chunk`, and only the last can end on a short
/// chunk. The chunk counts of two bands differ by at most one.
pub(crate) fn chunk_bands(len: usize, chunk: usize, parts: usize) -> Vec<Range> {
    let chunk = chunk.max(1);
    // Ranges over the chunk count, scaled back to elements in place.
    let mut bands = even_ranges(len.div_ceil(chunk), parts);
    for band in &mut bands {
        band.start *= chunk;
        band.end = (band.end * chunk).min(len);
    }
    bands
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covers_exactly(ranges: &[Range], len: usize) {
        let mut next = 0usize;
        for r in ranges {
            assert_eq!(r.start, next, "ranges must be contiguous");
            assert!(r.end > r.start, "ranges must be non-empty");
            next = r.end;
        }
        assert_eq!(next, len, "ranges must cover the whole span");
    }

    #[test]
    fn even_ranges_cover_everything() {
        for len in [0usize, 1, 2, 7, 16, 100, 1001] {
            for parts in [1usize, 2, 3, 8, 200] {
                let rs = even_ranges(len, parts);
                covers_exactly(&rs, len);
                if len > 0 {
                    assert!(rs.len() <= parts.min(len));
                    let max = rs.iter().map(Range::len).max().unwrap();
                    let min = rs.iter().map(Range::len).min().unwrap();
                    assert!(max - min <= 1, "even split must be balanced");
                }
            }
        }
    }

    #[test]
    fn chunk_ranges_respect_chunk_size() {
        for len in [0usize, 1, 5, 64, 65, 1000] {
            for chunk in [1usize, 2, 16, 64, 4096] {
                let rs = chunk_ranges(len, chunk);
                covers_exactly(&rs, len);
                for r in &rs {
                    assert!(r.len() <= chunk);
                }
            }
        }
    }

    #[test]
    fn chunk_bands_hold_whole_chunks() {
        // Includes a short last chunk (1001 / 7), a chunk count the bands do
        // not divide (143 chunks over 8), fewer chunks than bands, and one
        // chunk longer than the data.
        for len in [0usize, 1, 6, 7, 8, 64, 1000, 1001, 2000] {
            for chunk in [1usize, 2, 7, 64, 1000, 4096] {
                for parts in [1usize, 3, 8, 12, 200] {
                    let bands = chunk_bands(len, chunk, parts);
                    covers_exactly(&bands, len);
                    assert!(
                        bands.len() <= parts,
                        "len={len} chunk={chunk} parts={parts}"
                    );
                    for b in &bands {
                        assert_eq!(b.start % chunk, 0, "band must start on a chunk");
                        assert!(b.end % chunk == 0 || b.end == len);
                    }
                    if let (Some(max), Some(min)) = (
                        bands.iter().map(|b| b.len().div_ceil(chunk)).max(),
                        bands.iter().map(|b| b.len().div_ceil(chunk)).min(),
                    ) {
                        assert!(max - min <= 1, "bands must be balanced in chunks");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_parts_and_zero_chunk_are_clamped() {
        covers_exactly(&even_ranges(10, 0), 10);
        covers_exactly(&chunk_ranges(10, 0), 10);
        covers_exactly(&chunk_bands(10, 0, 0), 10);
    }

    #[test]
    fn range_len_and_empty() {
        let r = Range { start: 3, end: 7 };
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        let e = Range { start: 5, end: 5 };
        assert_eq!(e.len(), 0);
        assert!(e.is_empty());
    }
}
