use std::fmt;

/// A single rectangular plane of 8-bit samples (one colour component).
///
/// Rows are stored contiguously with `stride == width`; the plane owns its
/// pixel buffer. Samples are full-range `u8` as used throughout the
/// benchmark's codecs.
///
/// # Example
///
/// ```
/// use hdvb_frame::Plane;
///
/// let mut p = Plane::new(16, 8);
/// p.set(3, 2, 200);
/// assert_eq!(p.get(3, 2), 200);
/// assert_eq!(p.row(2)[3], 200);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Plane {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl Plane {
    /// Creates a plane of the given dimensions, filled with mid-grey (128).
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "plane dimensions must be nonzero");
        Plane {
            width,
            height,
            data: vec![128; width * height],
        }
    }

    /// Creates a plane from an existing row-major sample buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height` or a dimension is zero.
    pub fn from_vec(width: usize, height: usize, data: Vec<u8>) -> Self {
        assert!(width > 0 && height > 0, "plane dimensions must be nonzero");
        assert_eq!(data.len(), width * height, "buffer size mismatch");
        Plane {
            width,
            height,
            data,
        }
    }

    /// Width in samples.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in samples.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Distance in samples between vertically adjacent samples.
    ///
    /// Currently always equal to [`width`](Self::width); exposed separately
    /// so kernels can be written stride-correct.
    #[inline]
    pub fn stride(&self) -> usize {
        self.width
    }

    /// Borrows the whole sample buffer, row-major.
    #[inline]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutably borrows the whole sample buffer, row-major.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Returns the sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        self.data[y * self.width + x]
    }

    /// Sets the sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: u8) {
        self.data[y * self.width + x] = v;
    }

    /// Borrows row `y`.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[inline]
    pub fn row(&self, y: usize) -> &[u8] {
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Fills the entire plane with `v`.
    pub fn fill(&mut self, v: u8) {
        self.data.fill(v);
    }

    /// Overwrites this plane with the contents of `src` (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn copy_from(&mut self, src: &Plane) {
        assert_eq!(
            (self.width, self.height),
            (src.width, src.height),
            "plane size mismatch"
        );
        self.data.copy_from_slice(&src.data);
    }

    /// Overwrites this plane with the top-left window of a same-size-or-
    /// larger `src` (a crop; equal dimensions degenerate to a full
    /// copy). Every sample of `self` is written.
    ///
    /// # Panics
    ///
    /// Panics if `src` is smaller than `self` in either dimension.
    pub fn crop_from(&mut self, src: &Plane) {
        assert!(
            self.width <= src.width && self.height <= src.height,
            "crop source smaller than destination"
        );
        if self.width == src.width && self.height == src.height {
            self.data.copy_from_slice(&src.data);
            return;
        }
        for y in 0..self.height {
            let dst = &mut self.data[y * self.width..(y + 1) * self.width];
            dst.copy_from_slice(&src.data[y * src.width..y * src.width + self.width]);
        }
    }

    /// Overwrites this plane with `src` extended to `self`'s (equal or
    /// larger) dimensions by replicating the right column and bottom row
    /// — the alignment step every codec applies before coding. Every
    /// sample of `self` is written.
    ///
    /// # Panics
    ///
    /// Panics if `src` is larger than `self` in either dimension.
    pub fn replicate_from(&mut self, src: &Plane) {
        assert!(
            src.width <= self.width && src.height <= self.height,
            "replicate source larger than destination"
        );
        for y in 0..src.height {
            let dst = &mut self.data[y * self.width..(y + 1) * self.width];
            dst[..src.width].copy_from_slice(src.row(y));
            let last = dst[src.width - 1];
            dst[src.width..].fill(last);
        }
        for y in src.height..self.height {
            let from = (src.height - 1) * self.width;
            self.data
                .copy_within(from..from + self.width, y * self.width);
        }
    }

    /// Sum of absolute differences against another plane of identical size.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn sad(&self, other: &Plane) -> u64 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "plane size mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (i32::from(a) - i32::from(b)).unsigned_abs() as u64)
            .sum()
    }

    /// Sum of squared differences against another plane of identical size.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn ssd(&self, other: &Plane) -> u64 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "plane size mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| {
                let d = i64::from(a) - i64::from(b);
                (d * d) as u64
            })
            .sum()
    }
}

impl fmt::Debug for Plane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Plane")
            .field("width", &self.width)
            .field("height", &self.height)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_fills_mid_grey() {
        let p = Plane::new(4, 3);
        assert!(p.data().iter().all(|&v| v == 128));
        assert_eq!(p.data().len(), 12);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimension_panics() {
        let _ = Plane::new(0, 4);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut p = Plane::new(5, 5);
        p.set(4, 4, 7);
        p.set(0, 0, 9);
        assert_eq!(p.get(4, 4), 7);
        assert_eq!(p.get(0, 0), 9);
    }

    #[test]
    fn sad_and_ssd_of_identical_planes_is_zero() {
        let p = Plane::new(16, 16);
        assert_eq!(p.sad(&p.clone()), 0);
        assert_eq!(p.ssd(&p.clone()), 0);
    }

    #[test]
    fn sad_counts_differences() {
        let a = Plane::from_vec(2, 1, vec![10, 20]);
        let b = Plane::from_vec(2, 1, vec![13, 15]);
        assert_eq!(a.sad(&b), 8);
        assert_eq!(a.ssd(&b), 9 + 25);
    }
}
