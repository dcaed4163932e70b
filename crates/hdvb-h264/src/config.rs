use hdvb_bits::picture::{check_picture_dims, CodecError};
use hdvb_dsp::SimdLevel;

/// Encoder configuration. Defaults mirror the paper's x264 command:
/// constant QP 26, two B frames, hexagon search with range 24, only the
/// first picture intra. The in-loop deblocking filter always runs; the
/// picture header still carries its on/off bit (always 1 from this
/// encoder), which the decoder obeys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EncoderConfig {
    /// Picture width (even, ≥ 16).
    pub width: usize,
    /// Picture height (even, ≥ 16).
    pub height: usize,
    /// Quantisation parameter, 0..=51 (paper: 26 via Eq. 1).
    pub qp: u8,
    /// Number of B pictures between anchors.
    pub b_frames: u8,
    /// `None` = only the first picture intra (paper setting).
    pub intra_period: Option<u32>,
    /// Motion search range in full pels (paper: `--merange 24`).
    pub search_range: u16,
    /// Number of reference pictures for P motion search (1..=4; the
    /// paper's `--ref 16` is capped — see DESIGN.md).
    pub num_refs: u8,
    /// Kernel dispatch level.
    pub simd: SimdLevel,
}

impl EncoderConfig {
    /// Creates a configuration with the paper's coding options.
    pub fn new(width: usize, height: usize) -> Self {
        EncoderConfig {
            width,
            height,
            qp: 26,
            b_frames: 2,
            intra_period: None,
            search_range: 24,
            num_refs: 3,
            simd: SimdLevel::detect(),
        }
    }

    /// Sets the quantisation parameter.
    pub fn with_qp(mut self, qp: u8) -> Self {
        self.qp = qp;
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

    /// Sets the number of reference pictures.
    pub fn with_num_refs(mut self, n: u8) -> Self {
        self.num_refs = n;
        self
    }

    /// Sets the periodic intra interval.
    pub fn with_intra_period(mut self, period: Option<u32>) -> Self {
        self.intra_period = period;
        self
    }

    pub(crate) fn validate(&self) -> Result<(), CodecError> {
        check_picture_dims(self.width, self.height).map_err(CodecError::BadConfig)?;
        if self.qp > 51 {
            return Err(CodecError::BadConfig("qp must be in 0..=51"));
        }
        if self.b_frames > 4 {
            return Err(CodecError::BadConfig("at most 4 b-frames supported"));
        }
        if self.num_refs == 0 || self.num_refs > 4 {
            return Err(CodecError::BadConfig("num_refs must be in 1..=4"));
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
        assert!(EncoderConfig::new(64, 48).with_qp(52).validate().is_err());
        assert!(EncoderConfig::new(64, 48)
            .with_num_refs(0)
            .validate()
            .is_err());
        assert!(EncoderConfig::new(64, 48)
            .with_num_refs(5)
            .validate()
            .is_err());
        assert!(EncoderConfig::new(14, 48).validate().is_err());
    }

    #[test]
    fn defaults_follow_paper_command() {
        let c = EncoderConfig::new(1280, 720);
        assert_eq!(c.qp, 26);
        assert_eq!(c.b_frames, 2);
        assert_eq!(c.search_range, 24);
        assert!(c.intra_period.is_none());
    }
}
