use hdvb_bits::picture::{check_picture_dims, CodecError};
use hdvb_dsp::SimdLevel;

/// Encoder configuration.
///
/// Defaults follow the paper's coding options (Section IV): constant
/// quantiser, two B frames between anchors, only the first picture intra,
/// EPZS motion search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EncoderConfig {
    /// Picture width in pixels (even, ≥ 16).
    pub width: usize,
    /// Picture height in pixels (even, ≥ 16).
    pub height: usize,
    /// Constant quantiser scale, 1..=62 (the paper uses `vqscale=5`).
    pub qscale: u16,
    /// Number of B pictures between anchors (paper: 2, fixed placement).
    pub b_frames: u8,
    /// Insert an I picture every `n` anchors; `None` = only the first
    /// picture is intra (the paper's setting).
    pub intra_period: Option<u32>,
    /// Motion search range in full pels.
    pub search_range: u16,
    /// Kernel dispatch level (the Figure-1 scalar/SIMD axis).
    pub simd: SimdLevel,
}

impl EncoderConfig {
    /// Creates a configuration with the paper's default coding options.
    pub fn new(width: usize, height: usize) -> Self {
        EncoderConfig {
            width,
            height,
            qscale: 5,
            b_frames: 2,
            intra_period: None,
            search_range: 24,
            simd: SimdLevel::detect(),
        }
    }

    /// Sets the quantiser scale.
    pub fn with_qscale(mut self, qscale: u16) -> Self {
        self.qscale = qscale;
        self
    }

    /// Sets the number of B frames between anchors.
    pub fn with_b_frames(mut self, b: u8) -> Self {
        self.b_frames = b;
        self
    }

    /// Sets the SIMD dispatch level.
    pub fn with_simd(mut self, simd: SimdLevel) -> Self {
        self.simd = simd;
        self
    }

    /// Sets the motion search range.
    pub fn with_search_range(mut self, range: u16) -> Self {
        self.search_range = range;
        self
    }

    /// Sets the periodic intra interval.
    pub fn with_intra_period(mut self, period: Option<u32>) -> Self {
        self.intra_period = period;
        self
    }

    pub(crate) fn validate(&self) -> Result<(), CodecError> {
        check_picture_dims(self.width, self.height).map_err(CodecError::BadConfig)?;
        if self.qscale == 0 || self.qscale > 62 {
            return Err(CodecError::BadConfig("qscale must be in 1..=62"));
        }
        if self.b_frames > 4 {
            return Err(CodecError::BadConfig("at most 4 b-frames supported"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(EncoderConfig::new(64, 48).validate().is_ok());
        assert!(EncoderConfig::new(15, 48).validate().is_err());
        assert!(EncoderConfig::new(64, 47).validate().is_err());
        assert!(EncoderConfig::new(64, 48)
            .with_qscale(0)
            .validate()
            .is_err());
        assert!(EncoderConfig::new(64, 48)
            .with_qscale(63)
            .validate()
            .is_err());
        assert!(EncoderConfig::new(64, 48)
            .with_b_frames(5)
            .validate()
            .is_err());
    }
}
