use crate::{FrameError, Plane};

/// A progressive YUV 4:2:0 video frame.
///
/// The luma plane has the frame's full resolution; the two chroma planes
/// (Cb, Cr) are subsampled by two in each dimension, so frame dimensions
/// must be even. All HD-VideoBench content is 4:2:0 progressive, matching
/// the paper's input sequences.
///
/// # Example
///
/// ```
/// use hdvb_frame::Frame;
///
/// let f = Frame::new(176, 144);
/// assert_eq!((f.y().width(), f.y().height()), (176, 144));
/// assert_eq!((f.cb().width(), f.cr().height()), (88, 72));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    y: Plane,
    cb: Plane,
    cr: Plane,
}

impl Frame {
    /// Creates a mid-grey frame of the given luma dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or odd (4:2:0 requires even
    /// dimensions).
    pub fn new(width: usize, height: usize) -> Self {
        Self::try_new(width, height).expect("invalid frame dimensions")
    }

    /// Fallible variant of [`Frame::new`].
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::BadDimensions`] if either dimension is zero or
    /// odd.
    pub fn try_new(width: usize, height: usize) -> Result<Self, FrameError> {
        if width == 0 || height == 0 || !width.is_multiple_of(2) || !height.is_multiple_of(2) {
            return Err(FrameError::BadDimensions {
                width,
                height,
                constraint: "4:2:0 frames need even, nonzero dimensions",
            });
        }
        Ok(Frame {
            y: Plane::new(width, height),
            cb: Plane::new(width / 2, height / 2),
            cr: Plane::new(width / 2, height / 2),
        })
    }

    /// Builds a frame from three existing planes.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::BadDimensions`] if the chroma planes are not
    /// exactly half the luma dimensions.
    pub fn from_planes(y: Plane, cb: Plane, cr: Plane) -> Result<Self, FrameError> {
        let ok = cb.width() == y.width() / 2
            && cb.height() == y.height() / 2
            && cr.width() == cb.width()
            && cr.height() == cb.height()
            && y.width().is_multiple_of(2)
            && y.height().is_multiple_of(2);
        if !ok {
            return Err(FrameError::BadDimensions {
                width: y.width(),
                height: y.height(),
                constraint: "chroma planes must be half the luma dimensions",
            });
        }
        Ok(Frame { y, cb, cr })
    }

    /// Luma width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.y.width()
    }

    /// Luma height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.y.height()
    }

    /// The luma plane.
    #[inline]
    pub fn y(&self) -> &Plane {
        &self.y
    }

    /// The blue-difference chroma plane.
    #[inline]
    pub fn cb(&self) -> &Plane {
        &self.cb
    }

    /// The red-difference chroma plane.
    #[inline]
    pub fn cr(&self) -> &Plane {
        &self.cr
    }

    /// Mutable luma plane.
    #[inline]
    pub fn y_mut(&mut self) -> &mut Plane {
        &mut self.y
    }

    /// Mutable blue-difference chroma plane.
    #[inline]
    pub fn cb_mut(&mut self) -> &mut Plane {
        &mut self.cb
    }

    /// Mutable red-difference chroma plane.
    #[inline]
    pub fn cr_mut(&mut self) -> &mut Plane {
        &mut self.cr
    }

    /// Returns `(y, cb, cr)` planes as mutable references simultaneously.
    pub fn planes_mut(&mut self) -> (&mut Plane, &mut Plane, &mut Plane) {
        (&mut self.y, &mut self.cb, &mut self.cr)
    }

    /// Overwrites this frame with the contents of `src` (no allocation —
    /// the pooled replacement for `src.clone()`).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn copy_from(&mut self, src: &Frame) {
        self.y.copy_from(&src.y);
        self.cb.copy_from(&src.cb);
        self.cr.copy_from(&src.cr);
    }

    /// Overwrites this frame with the top-left window of a same-size-or-
    /// larger `src` (crop to display size). Every sample is written, so
    /// a recycled pool frame is fully refreshed.
    ///
    /// # Panics
    ///
    /// Panics if `src` is smaller in either dimension.
    pub fn crop_from(&mut self, src: &Frame) {
        self.y.crop_from(&src.y);
        self.cb.crop_from(&src.cb);
        self.cr.crop_from(&src.cr);
    }

    /// Overwrites this frame with `src` extended to `self`'s (equal or
    /// larger) dimensions by edge replication (macroblock alignment).
    /// Every sample is written, so a recycled pool frame is fully
    /// refreshed.
    ///
    /// # Panics
    ///
    /// Panics if `src` is larger in either dimension.
    pub fn replicate_from(&mut self, src: &Frame) {
        self.y.replicate_from(&src.y);
        self.cb.replicate_from(&src.cb);
        self.cr.replicate_from(&src.cr);
    }

    /// Total number of samples across all three planes (the figure used to
    /// convert throughput to "pixels per second").
    pub fn sample_count(&self) -> usize {
        self.y.data().len() + self.cb.data().len() + self.cr.data().len()
    }

    /// Number of luma pixels (`width * height`).
    pub fn pixel_count(&self) -> usize {
        self.width() * self.height()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chroma_is_half_resolution() {
        let f = Frame::new(64, 48);
        assert_eq!(f.cb().width(), 32);
        assert_eq!(f.cb().height(), 24);
        assert_eq!(f.cr().width(), 32);
    }

    #[test]
    fn odd_dimensions_rejected() {
        assert!(Frame::try_new(63, 48).is_err());
        assert!(Frame::try_new(64, 47).is_err());
        assert!(Frame::try_new(0, 48).is_err());
    }

    #[test]
    fn sample_count_is_1_5x_pixels() {
        let f = Frame::new(32, 32);
        assert_eq!(f.sample_count(), 32 * 32 * 3 / 2);
        assert_eq!(f.pixel_count(), 1024);
    }

    #[test]
    fn from_planes_validates_chroma() {
        let y = Plane::new(16, 16);
        let cb = Plane::new(8, 8);
        let cr = Plane::new(8, 8);
        assert!(Frame::from_planes(y.clone(), cb.clone(), cr.clone()).is_ok());
        let bad_cr = Plane::new(4, 8);
        assert!(Frame::from_planes(y, cb, bad_cr).is_err());
    }

    #[test]
    fn replicate_and_crop_are_inverse() {
        let mut f = Frame::new(60, 44);
        for (i, v) in f.y_mut().data_mut().iter_mut().enumerate() {
            *v = (i * 7 % 251) as u8;
        }
        for (i, v) in f.cb_mut().data_mut().iter_mut().enumerate() {
            *v = (i * 5 % 241) as u8;
        }
        for (i, v) in f.cr_mut().data_mut().iter_mut().enumerate() {
            *v = (i * 3 % 239) as u8;
        }
        // Macroblock alignment into a dirty (recycled) frame: every
        // sample is overwritten, the new edge repeats the old one.
        let mut aligned = Frame::new(64, 48);
        aligned.y_mut().fill(1);
        aligned.replicate_from(&f);
        assert_eq!((aligned.width(), aligned.height()), (64, 48));
        assert_eq!(aligned.y().get(63, 10), f.y().get(59, 10));
        assert_eq!(aligned.y().get(20, 47), f.y().get(20, 43));
        assert_eq!(aligned.cr().get(31, 23), f.cr().get(29, 21));
        let mut back = Frame::new(60, 44);
        back.crop_from(&aligned);
        assert_eq!(back, f);
    }
}
