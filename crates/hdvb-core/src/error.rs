use crate::CodecId;
use hdvb_bits::picture::CodecError;
use hdvb_bits::CorruptKind;
use std::fmt;

/// Errors surfaced by the benchmark harness.
#[derive(Debug)]
#[non_exhaustive]
pub enum BenchError {
    /// A codec rejected its configuration or input.
    Codec(String),
    /// The bitstream under measurement is invalid.
    Bitstream(String),
    /// A decoder detected bitstream corruption, with typed attribution.
    ///
    /// The differential fuzzing harness compares `(codec, offset, kind)`
    /// across SIMD tiers and thread counts: the parse path is
    /// tier-independent, so a malformed packet must fail identically
    /// everywhere.
    Corrupt {
        /// Which codec's decoder rejected the packet.
        codec: CodecId,
        /// Bit offset in the packet where the parse stopped.
        offset: u64,
        /// Classification of the corruption.
        kind: CorruptKind,
        /// Human-readable detail for diagnostics.
        detail: String,
    },
    /// The requested measurement is impossible (e.g. zero frames).
    BadRequest(&'static str),
    /// Reading or writing a sweep journal failed (I/O, not content:
    /// torn or garbled *records* are skipped and counted, not errors).
    Journal(String),
    /// The operation was cancelled cooperatively (cell deadline or
    /// shutdown) at a frame/GOP boundary. Work up to the checkpoint is
    /// intact; the fault-tolerant sweep runner maps this to
    /// `CellOutcome::TimedOut` rather than a failure.
    Cancelled,
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Codec(msg) => write!(f, "codec error: {msg}"),
            BenchError::Bitstream(msg) => write!(f, "bitstream error: {msg}"),
            BenchError::Corrupt {
                codec,
                offset,
                kind,
                detail,
            } => write!(
                f,
                "{codec}: corrupt bitstream at bit {offset} ({kind}): {detail}"
            ),
            BenchError::BadRequest(msg) => write!(f, "bad benchmark request: {msg}"),
            BenchError::Journal(msg) => write!(f, "sweep journal error: {msg}"),
            BenchError::Cancelled => f.write_str("cancelled at a frame/GOP boundary"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<CodecError> for BenchError {
    /// The encode-side lift: the encoders have no corrupt input to
    /// attribute, so everything but a cancellation is a codec error.
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Cancelled => BenchError::Cancelled,
            other => BenchError::Codec(other.to_string()),
        }
    }
}

impl BenchError {
    /// The decode-side lift: stamps the codec on a typed corruption.
    pub(crate) fn from_decode(codec: CodecId, e: CodecError) -> Self {
        match e {
            CodecError::Corrupt {
                offset,
                kind,
                detail,
            } => BenchError::Corrupt {
                codec,
                offset,
                kind,
                detail,
            },
            CodecError::Cancelled => BenchError::Cancelled,
            other => BenchError::Bitstream(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn check<T: std::error::Error + Send + Sync>() {}
        check::<BenchError>();
    }

    #[test]
    fn display_messages() {
        assert!(BenchError::BadRequest("zero frames")
            .to_string()
            .contains("zero frames"));
    }
}
