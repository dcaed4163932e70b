/// Rounds `v` up to the next multiple of `align`.
///
/// # Panics
///
/// Panics if `align` is zero.
///
/// # Example
///
/// ```
/// use hdvb_frame::align_up;
///
/// assert_eq!(align_up(1080, 16), 1088); // why HD-1088 is 1088 tall
/// assert_eq!(align_up(64, 16), 64);
/// ```
pub fn align_up(v: usize, align: usize) -> usize {
    assert!(align > 0, "alignment must be nonzero");
    v.div_ceil(align) * align
}

/// Number of whole-or-partial macroblocks covering a `width`×`height`
/// frame, as `(mbs_x, mbs_y)`.
pub fn mb_count(width: usize, height: usize, mb_size: usize) -> (usize, usize) {
    (width.div_ceil(mb_size), height.div_ceil(mb_size))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_up_cases() {
        assert_eq!(align_up(0, 16), 0);
        assert_eq!(align_up(1, 16), 16);
        assert_eq!(align_up(16, 16), 16);
        assert_eq!(align_up(17, 16), 32);
    }

    #[test]
    fn mb_counts_for_paper_resolutions() {
        assert_eq!(mb_count(720, 576, 16), (45, 36));
        assert_eq!(mb_count(1280, 720, 16), (80, 45));
        assert_eq!(mb_count(1920, 1088, 16), (120, 68));
    }
}
