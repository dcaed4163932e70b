//! The deblocking edge kernels (H.264-style p0/q0 update), dispatched
//! like every other hot kernel. Horizontal edges vectorise naturally:
//! neighbouring samples are a stride apart. Vertical edges vectorise
//! without a transpose because edges 4 apart touch disjoint columns: the
//! edge at column x reads x−2 … x+1 and writes x−1 and x, so each 4-byte
//! group `[p1 p0 q0 q1]` of a row is one whole edge and one 16-byte load
//! holds four of them.

use crate::Dsp;

/// The filter for one sample pair across an edge: the new `(p0, q0)`,
/// or `None` where the edge is left alone (a real edge or a flat one).
#[inline(always)]
fn filter_pair(
    p1: i32,
    p0: i32,
    q0: i32,
    q1: i32,
    alpha: i32,
    beta: i32,
    tc: i32,
) -> Option<(u8, u8)> {
    if (p0 - q0).abs() < alpha && (p1 - p0).abs() < beta && (q1 - q0).abs() < beta {
        let delta = (((q0 - p0) * 4 + (p1 - q1) + 4) >> 3).clamp(-tc, tc);
        Some((
            (p0 + delta).clamp(0, 255) as u8,
            (q0 - delta).clamp(0, 255) as u8,
        ))
    } else {
        None
    }
}

/// Scalar reference for one horizontal edge of `width` samples:
/// `data[q0_off + x]` is q0, rows p1/p0 sit one and two strides above,
/// q1 one below.
pub(crate) fn deblock_horiz_edge_scalar(
    data: &mut [u8],
    stride: usize,
    q0_off: usize,
    width: usize,
    alpha: i32,
    beta: i32,
    tc: i32,
) {
    for x in 0..width {
        let i = q0_off + x;
        let p1 = i32::from(data[i - 2 * stride]);
        let p0 = i32::from(data[i - stride]);
        let q0 = i32::from(data[i]);
        let q1 = i32::from(data[i + stride]);
        if let Some((p, q)) = filter_pair(p1, p0, q0, q1, alpha, beta, tc) {
            data[i - stride] = p;
            data[i] = q;
        }
    }
}

/// Scalar reference for the vertical edges of a `width`×`height` plane:
/// every edge at x = 4, 8, … < `width`, filtered column by column. An
/// edge in the last column has no q1 and uses q0 in its place.
pub(crate) fn deblock_vert_edges_scalar(
    data: &mut [u8],
    stride: usize,
    width: usize,
    height: usize,
    alpha: i32,
    beta: i32,
    tc: i32,
) {
    let mut x = 4;
    while x < width {
        for y in 0..height {
            let i = y * stride + x;
            let p1 = i32::from(data[i - 2]);
            let p0 = i32::from(data[i - 1]);
            let q0 = i32::from(data[i]);
            let q1 = i32::from(data[i + (x + 1 < width) as usize]);
            if let Some((p, q)) = filter_pair(p1, p0, q0, q1, alpha, beta, tc) {
                data[i - 1] = p;
                data[i] = q;
            }
        }
        x += 4;
    }
}

/// Whether a `width`×`height` plane with row pitch `stride` lies in a
/// slice of `len` bytes without its rows overlapping — the extent the
/// vertical-edge kernels read (columns 2 … `width` − 1 of each row) and
/// the precondition that makes their column groups independent.
pub(crate) fn vert_edges_fit(len: usize, stride: usize, width: usize, height: usize) -> bool {
    height == 0 || width <= 4 || (width <= stride && len >= (height - 1) * stride + width)
}

/// How many vertical edges, counted from the left (edge `k` at
/// x = 4k), a vector kernel loading `per_load` edges at a time filters:
/// every edge with a q1 column (4k + 1 < `width`), or none when they do
/// not fill one load.
pub(crate) fn vector_edges(width: usize, height: usize, per_load: usize) -> usize {
    let with_q1 = width.saturating_sub(2) / 4;
    if height == 0 || with_q1 < per_load {
        0
    } else {
        with_q1
    }
}

/// The scalar kernel on the vertical edges after the first `done`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn deblock_vert_edges_after(
    done: usize,
    data: &mut [u8],
    stride: usize,
    width: usize,
    height: usize,
    alpha: i32,
    beta: i32,
    tc: i32,
) {
    // Edge 1 of the slice from column 4 * done is edge done + 1.
    let skip = 4 * done;
    if skip + 4 < width {
        deblock_vert_edges_scalar(
            &mut data[skip..],
            stride,
            width - skip,
            height,
            alpha,
            beta,
            tc,
        );
    }
}

impl Dsp {
    /// Filters one horizontal block edge in place: `data[q0_off + x]`
    /// is the q0 row, p1/p0 sit one and two strides above, q1 one
    /// below. Every tier produces identical output.
    ///
    /// # Panics
    ///
    /// Panics if the slice is too short for the row geometry.
    #[allow(clippy::too_many_arguments)]
    pub fn deblock_horiz_edge(
        &self,
        data: &mut [u8],
        stride: usize,
        q0_off: usize,
        width: usize,
        alpha: i32,
        beta: i32,
        tc: i32,
    ) {
        (self.kernels().deblock_horiz_edge)(data, stride, q0_off, width, alpha, beta, tc)
    }

    /// Filters every vertical block edge of a `width`×`height` plane in
    /// place: the edges at x = 4, 8, … < `width`, each across the
    /// samples `x − 2 … x + 1` of every row (`data[y * stride + x]` is
    /// q0). Every tier produces identical output.
    ///
    /// # Panics
    ///
    /// Panics if the rows overlap (`width > stride`) or do not fit in
    /// `data`.
    #[allow(clippy::too_many_arguments)]
    pub fn deblock_vert_edges(
        &self,
        data: &mut [u8],
        stride: usize,
        width: usize,
        height: usize,
        alpha: i32,
        beta: i32,
        tc: i32,
    ) {
        assert!(
            vert_edges_fit(data.len(), stride, width, height),
            "vertical-edge deblock of {width}x{height} (stride {stride}) reads outside {} bytes",
            data.len()
        );
        (self.kernels().deblock_vert_edges)(data, stride, width, height, alpha, beta, tc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimdLevel;

    fn test_buffer(seed: u32) -> Vec<u8> {
        let mut state = seed;
        (0..24 * 8)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn scalar_and_simd_agree() {
        for seed in 0..20 {
            let base = test_buffer(seed);
            let mut a = base.clone();
            let mut b = base.clone();
            let scalar = Dsp::new(SimdLevel::Scalar);
            let simd = Dsp::new(SimdLevel::Sse2);
            scalar.deblock_horiz_edge(&mut a, 24, 4 * 24, 24, 15, 6, 1);
            simd.deblock_horiz_edge(&mut b, 24, 4 * 24, 24, 15, 6, 1);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn small_step_is_smoothed_large_step_kept() {
        let mut data = vec![0u8; 24 * 8];
        for y in 0..8 {
            for x in 0..24 {
                // Columns 0..12: small step of 4 across row 4; columns
                // 12..: step of 100.
                let step = if x < 12 { 4 } else { 100 };
                data[y * 24 + x] = if y < 4 { 100 } else { 100 + step };
            }
        }
        let dsp = Dsp::default();
        dsp.deblock_horiz_edge(&mut data, 24, 4 * 24, 24, 15, 6, 2);
        // Small step shrank.
        assert!(data[4 * 24 + 3] < 104 || data[3 * 24 + 3] > 100);
        // Large (real) edge untouched.
        assert_eq!(data[4 * 24 + 20], 200);
        assert_eq!(data[3 * 24 + 20], 100);
    }

    #[test]
    fn flat_region_unchanged() {
        let mut data = vec![77u8; 24 * 8];
        let before = data.clone();
        Dsp::default().deblock_horiz_edge(&mut data, 24, 4 * 24, 24, 40, 10, 4);
        assert_eq!(data, before);
    }

    #[test]
    fn vertical_edges_smooth_small_steps_and_keep_real_ones() {
        // 4-column blocks alternate between 100 and 100 + step: a step
        // of 4 left of x = 12, of 100 from there (40 columns = 9 edges:
        // whole and masked loads at every vector tier).
        let (w, h) = (40, 6);
        for level in SimdLevel::supported_tiers() {
            let mut data: Vec<u8> = (0..w * h)
                .map(|i| {
                    let x = i % w;
                    let step = if x < 12 { 4 } else { 100 };
                    (100 + step * (x / 4 % 2)) as u8
                })
                .collect();
            Dsp::new(level).deblock_vert_edges(&mut data, w, w, h, 15, 6, 2);
            let name = level.tier_name();
            for y in 0..h {
                let row = &data[y * w..][..w];
                assert_eq!((row[3], row[4]), (102, 102), "{name}: small step at x=4");
                assert_eq!((row[11], row[12]), (100, 200), "{name}: real edge at x=12");
                assert_eq!((row[35], row[36]), (100, 200), "{name}: real edge at x=36");
            }
        }
    }

    #[test]
    #[should_panic(expected = "reads outside")]
    fn vertical_edges_past_the_slice_are_refused() {
        let mut data = vec![0u8; 64 * 4 - 1];
        Dsp::default().deblock_vert_edges(&mut data, 64, 64, 4, 15, 6, 1);
    }
}
