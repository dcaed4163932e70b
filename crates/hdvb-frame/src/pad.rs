use crate::Plane;

/// An edge-extended copy of a [`Plane`] for unchecked motion-compensated
/// access.
///
/// Motion vectors routinely point outside the picture; every real codec
/// extends the reference picture by replicating its border pixels so that
/// interpolation kernels can read out-of-frame positions without branching.
/// `PaddedPlane` materialises that extension once per reference frame.
///
/// # Example
///
/// ```
/// use hdvb_frame::{PaddedPlane, Plane};
///
/// let mut p = Plane::new(16, 16);
/// p.set(0, 0, 42);
/// let padded = PaddedPlane::from_plane(&p, 8);
/// assert_eq!(padded.pixel(-5, -3), 42); // border replication
/// assert_eq!(padded.pixel(0, 0), 42);
/// ```
#[derive(Clone, Debug)]
pub struct PaddedPlane {
    width: usize,
    height: usize,
    pad: usize,
    stride: usize,
    data: Vec<u8>,
}

impl PaddedPlane {
    /// Builds a padded copy of `plane` with `pad` pixels of border
    /// replication on every side.
    pub fn from_plane(plane: &Plane, pad: usize) -> Self {
        let width = plane.width();
        let height = plane.height();
        let stride = width + 2 * pad;
        let padded_h = height + 2 * pad;
        let mut pp = PaddedPlane {
            width,
            height,
            pad,
            stride,
            data: vec![0u8; stride * padded_h],
        };
        pp.fill_from(plane);
        pp
    }

    /// Re-extends this padded plane from a new source picture without
    /// reallocating — the pool-recycling path for reference pictures.
    ///
    /// # Panics
    ///
    /// Panics if `plane`'s dimensions differ from the geometry this
    /// padded plane was built with.
    pub fn refill(&mut self, plane: &Plane) {
        assert_eq!(
            (self.width, self.height),
            (plane.width(), plane.height()),
            "padded plane geometry mismatch"
        );
        self.fill_from(plane);
    }

    /// Writes every byte of `self.data` from `plane` (interior rows with
    /// horizontal extension, then vertical replication). Allocation-free.
    fn fill_from(&mut self, plane: &Plane) {
        let (width, height, pad, stride) = (self.width, self.height, self.pad, self.stride);
        let padded_h = height + 2 * pad;
        let data = &mut self.data;
        // Interior rows with horizontal extension.
        for y in 0..height {
            let src = plane.row(y);
            let dst = &mut data[(y + pad) * stride..(y + pad + 1) * stride];
            dst[..pad].fill(src[0]);
            dst[pad..pad + width].copy_from_slice(src);
            dst[pad + width..].fill(src[width - 1]);
        }
        // Vertical extension: replicate first/last interior rows.
        let first_interior = pad * stride;
        for y in 0..pad {
            data.copy_within(first_interior..first_interior + stride, y * stride);
        }
        let last_interior = (pad + height - 1) * stride;
        for y in pad + height..padded_h {
            data.copy_within(last_interior..last_interior + stride, y * stride);
        }
    }

    /// Width of the unpadded picture.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height of the unpadded picture.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Border size in pixels.
    #[inline]
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// Row stride of the padded buffer.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Reads pixel `(x, y)` in picture coordinates; positions up to
    /// `pad` pixels outside the picture are valid and return the
    /// replicated border.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds, via slice indexing) if the coordinate lies
    /// beyond the padded area.
    #[inline]
    pub fn pixel(&self, x: isize, y: isize) -> u8 {
        let xi = (x + self.pad as isize) as usize;
        let yi = (y + self.pad as isize) as usize;
        self.data[yi * self.stride + xi]
    }

    /// Returns a slice starting at picture coordinate `(x, y)` and running
    /// to the end of the padded buffer; the caller may read `len` bytes of
    /// one row plus use [`stride`](Self::stride) to walk rows.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` lies beyond the padded area.
    #[inline]
    pub fn row_from(&self, x: isize, y: isize) -> &[u8] {
        let xi = (x + self.pad as isize) as usize;
        let yi = (y + self.pad as isize) as usize;
        &self.data[yi * self.stride + xi..]
    }

    /// Returns `true` when a `w`×`h` read window whose top-left corner is
    /// at picture coordinate `(x, y)` lies entirely inside the padded
    /// buffer, i.e. [`row_from`](Self::row_from) followed by `h` strided
    /// row reads of `w` bytes is in bounds.
    ///
    /// Decoders use this to validate motion vectors parsed from untrusted
    /// bitstreams before handing them to the unchecked interpolation
    /// kernels.
    #[inline]
    pub fn window_in_bounds(&self, x: isize, y: isize, w: usize, h: usize) -> bool {
        let pad = self.pad as isize;
        x >= -pad
            && y >= -pad
            && x + w as isize <= self.width as isize + pad
            && y + h as isize <= self.height as isize + pad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_plane(w: usize, h: usize) -> Plane {
        let mut p = Plane::new(w, h);
        for y in 0..h {
            for x in 0..w {
                p.set(x, y, (x * 3 + y * 7) as u8);
            }
        }
        p
    }

    #[test]
    fn interior_matches_source() {
        let p = gradient_plane(12, 10);
        let pp = PaddedPlane::from_plane(&p, 4);
        for y in 0..10 {
            for x in 0..12 {
                assert_eq!(pp.pixel(x as isize, y as isize), p.get(x, y));
            }
        }
    }

    #[test]
    fn corners_replicate() {
        let p = gradient_plane(8, 8);
        let pp = PaddedPlane::from_plane(&p, 3);
        assert_eq!(pp.pixel(-3, -3), p.get(0, 0));
        assert_eq!(pp.pixel(10, -1), p.get(7, 0));
        assert_eq!(pp.pixel(-1, 10), p.get(0, 7));
        assert_eq!(pp.pixel(10, 10), p.get(7, 7));
    }

    #[test]
    fn window_bounds_match_padded_extent() {
        let p = gradient_plane(16, 8);
        let pp = PaddedPlane::from_plane(&p, 4);
        // Fully interior and fully padded-corner windows are fine.
        assert!(pp.window_in_bounds(0, 0, 16, 8));
        assert!(pp.window_in_bounds(-4, -4, 24, 16));
        // One pixel beyond the padding in any direction is rejected.
        assert!(!pp.window_in_bounds(-5, 0, 8, 8));
        assert!(!pp.window_in_bounds(0, -5, 8, 8));
        assert!(!pp.window_in_bounds(13, 0, 8, 8));
        assert!(!pp.window_in_bounds(0, 5, 8, 8));
        // Wildly out-of-range vectors (the fuzzer's bread and butter).
        assert!(!pp.window_in_bounds(-10_000, 0, 8, 8));
        assert!(!pp.window_in_bounds(0, 10_000, 8, 8));
    }

    #[test]
    fn refill_is_bit_identical_to_from_plane() {
        let a = gradient_plane(12, 10);
        let mut b = Plane::new(12, 10);
        for y in 0..10 {
            for x in 0..12 {
                b.set(x, y, (x * 5 + y * 11 + 3) as u8);
            }
        }
        let fresh = PaddedPlane::from_plane(&b, 4);
        let mut recycled = PaddedPlane::from_plane(&a, 4);
        recycled.refill(&b);
        assert_eq!(recycled.data, fresh.data);
    }
}
