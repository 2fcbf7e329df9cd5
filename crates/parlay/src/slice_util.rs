//! Chunking and slicing helpers shared across the suite.

/// Computes the block size that divides `n` elements into approximately
/// `pieces` equally sized blocks (at least 1 element each).
#[inline]
pub fn block_size_for(n: usize, pieces: usize) -> usize {
    n.div_ceil(pieces.max(1)).max(1)
}

/// The half-open index range of block `b` when a length-`n` slice is split
/// into blocks of `block_size`.
#[inline]
pub fn block_range(n: usize, block_size: usize, b: usize) -> std::ops::Range<usize> {
    let start = b * block_size;
    let end = (start + block_size).min(n);
    start..end
}

/// Carves the front of `rest` into consecutive windows of the given
/// lengths, in order: the `RngInd` chunks of a scan, made disjoint by
/// `split_at_mut` instead of a run-time check.
///
/// # Panics
/// If the lengths sum past `rest.len()`.
pub(crate) fn carve<T>(
    mut rest: &mut [T],
    lens: impl ExactSizeIterator<Item = usize>,
) -> Vec<&mut [T]> {
    let mut windows = Vec::with_capacity(lens.len());
    for len in lens {
        let (head, tail) = rest.split_at_mut(len);
        windows.push(head);
        rest = tail;
    }
    windows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_size_divides() {
        assert_eq!(block_size_for(10, 3), 4);
        assert_eq!(block_size_for(0, 3), 1);
        assert_eq!(block_size_for(9, 3), 3);
    }

    #[test]
    fn block_ranges_cover() {
        let n = 10;
        let bs = block_size_for(n, 3);
        let covered: Vec<usize> = (0..super::super::num_blocks(n, bs))
            .flat_map(|b| block_range(n, bs, b))
            .collect();
        assert_eq!(covered, (0..n).collect::<Vec<_>>());
    }
}
