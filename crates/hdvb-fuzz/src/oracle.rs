//! The differential conformance oracle.
//!
//! A corpus entry is decoded under every supported SIMD tier — and,
//! optionally, again on a thread pool — and the *outcomes* are compared.
//! The codecs' parse paths are tier-independent by construction (SIMD only
//! accelerates pixel math), so a malformed packet must fail with the same
//! [`CorruptKind`] at the same bit offset everywhere, and a well-formed one
//! must reconstruct bit-identical frames. Any disagreement is a bug in the
//! dispatch layer, not in the input.

use hdvb_bits::hash::{fnv1a64_update, FNV1A64_INIT};
use hdvb_core::{create_decoder, read_stream, BenchError, CodecId, CorruptKind};
use hdvb_dsp::SimdLevel;
use hdvb_frame::Frame;
use hdvb_par::ThreadPool;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What decoding one packet of an entry produced.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum PacketOutcome {
    /// The packet decoded; it emitted this many display frames.
    Frames(u32),
    /// The decoder rejected the packet with a typed corruption error.
    Corrupt {
        /// Bit offset the parse stopped at.
        offset: u64,
        /// Classification of the corruption.
        kind: CorruptKind,
    },
    /// A non-corruption error (should not happen on the decode path).
    OtherError(String),
    /// The decoder panicked — always a bug, never acceptable.
    Panic(String),
}

/// The complete observable behaviour of one corpus entry under one
/// execution configuration.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct EntryOutcome {
    /// Set when the container itself was rejected (no packets reached a
    /// codec).
    pub container_error: Option<String>,
    /// Codec named by the container header, when it parsed.
    pub codec: Option<CodecId>,
    /// Per-packet outcomes in stream order. Decoding stops after a panic
    /// (the decoder's state is no longer trustworthy).
    pub packets: Vec<PacketOutcome>,
    /// Total display frames recovered.
    pub frame_count: u32,
    /// FNV-1a hash over every recovered frame's planes, in order.
    pub frame_hash: u64,
}

impl EntryOutcome {
    /// True when any packet made the decoder panic.
    pub fn has_panic(&self) -> bool {
        self.packets
            .iter()
            .any(|p| matches!(p, PacketOutcome::Panic(_)))
    }

    /// Coverage-proxy signature for the corpus scheduler: the codec, each
    /// packet's outcome class and — for corruption — the decoder-reported
    /// parse position bucketed to 64-bit granularity. Two entries that
    /// fail the same way at the same place count as the same coverage.
    pub fn signature(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.container_error.is_some() as u64);
        h.write_u64(self.codec.map_or(0, |c| c as u64 + 1));
        for p in &self.packets {
            match p {
                PacketOutcome::Frames(n) => {
                    h.write_u64(1);
                    h.write_u64(u64::from(*n));
                }
                PacketOutcome::Corrupt { offset, kind } => {
                    h.write_u64(2);
                    h.write_u64(*kind as u64);
                    h.write_u64(offset / 64);
                }
                PacketOutcome::OtherError(_) => h.write_u64(3),
                PacketOutcome::Panic(_) => h.write_u64(4),
            }
        }
        h.finish()
    }
}

/// Streaming FNV-1a 64, so outcomes hash identically across runs and
/// processes (unlike `DefaultHasher`, which is randomly keyed).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV1A64_INIT)
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a64_update(self.0, bytes);
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn hash_frames(hasher: &mut Fnv, frames: &[Frame]) {
    for f in frames {
        hasher.write(f.y().data());
        hasher.write(f.cb().data());
        hasher.write(f.cr().data());
    }
}

/// Decodes one corpus entry under `simd`, capturing every packet's
/// outcome; panics are caught and recorded rather than propagated.
pub fn decode_entry(data: &[u8], simd: SimdLevel) -> EntryOutcome {
    let (header, packets) = match read_stream(data) {
        Ok(x) => x,
        Err(e) => {
            return EntryOutcome {
                container_error: Some(e.to_string()),
                codec: None,
                packets: Vec::new(),
                frame_count: 0,
                frame_hash: Fnv::new().finish(),
            }
        }
    };
    let mut dec = create_decoder(header.codec, simd);
    let mut outcomes = Vec::with_capacity(packets.len());
    let mut hasher = Fnv::new();
    let mut frame_count = 0u32;
    for p in &packets {
        let result = catch_unwind(AssertUnwindSafe(|| dec.decode_packet(&p.data)));
        match result {
            Ok(Ok(frames)) => {
                frame_count += frames.len() as u32;
                hash_frames(&mut hasher, &frames);
                outcomes.push(PacketOutcome::Frames(frames.len() as u32));
            }
            Ok(Err(BenchError::Corrupt { offset, kind, .. })) => {
                outcomes.push(PacketOutcome::Corrupt { offset, kind });
            }
            Ok(Err(e)) => outcomes.push(PacketOutcome::OtherError(e.to_string())),
            Err(payload) => {
                outcomes.push(PacketOutcome::Panic(crate::panic_text(payload)));
                // A panicking decoder has broken its own invariants; the
                // remaining packets would measure undefined state.
                break;
            }
        }
    }
    if !outcomes
        .iter()
        .any(|o| matches!(o, PacketOutcome::Panic(_)))
    {
        if let Ok(tail) = catch_unwind(AssertUnwindSafe(|| dec.finish())) {
            frame_count += tail.len() as u32;
            hash_frames(&mut hasher, &tail);
        } else {
            outcomes.push(PacketOutcome::Panic("panic in decoder flush".into()));
        }
    }
    EntryOutcome {
        container_error: None,
        codec: Some(header.codec),
        packets: outcomes,
        frame_count,
        frame_hash: hasher.finish(),
    }
}

/// Two execution configurations disagreed about the same input.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Reference configuration (always the serial scalar decode).
    pub baseline: String,
    /// The configuration that disagreed.
    pub against: String,
    /// `Debug` rendering of the baseline outcome.
    pub baseline_outcome: String,
    /// `Debug` rendering of the diverging outcome.
    pub against_outcome: String,
}

/// Decodes `data` under every supported SIMD tier serially and — when a
/// pool is supplied — again with the tiers fanned out across worker
/// threads, asserting all outcomes identical.
///
/// # Errors
///
/// Returns the first [`Divergence`] found. A panic inside a decoder is
/// *not* a divergence (it reproduces on every tier); it is reported
/// through the returned outcome's [`EntryOutcome::has_panic`].
pub fn differential_check(
    data: &[u8],
    pool: Option<&ThreadPool>,
) -> Result<EntryOutcome, Box<Divergence>> {
    let tiers = SimdLevel::supported_tiers();
    let baseline = decode_entry(data, tiers[0]);
    for &tier in &tiers[1..] {
        let outcome = decode_entry(data, tier);
        if outcome != baseline {
            return Err(Box::new(Divergence {
                baseline: format!("serial/{:?}", tiers[0]),
                against: format!("serial/{tier:?}"),
                baseline_outcome: format!("{baseline:?}"),
                against_outcome: format!("{outcome:?}"),
            }));
        }
    }
    if let Some(pool) = pool {
        let data_owned = data.to_vec();
        let pooled = pool
            .par_map(tiers.clone(), move |tier| decode_entry(&data_owned, tier))
            .map_err(|p| {
                Box::new(Divergence {
                    baseline: format!("serial/{:?}", tiers[0]),
                    against: format!("pool/task-{}", p.index),
                    baseline_outcome: format!("{baseline:?}"),
                    against_outcome: format!("worker panicked: {}", p.message),
                })
            })?;
        for (tier, outcome) in tiers.iter().zip(pooled) {
            if outcome != baseline {
                return Err(Box::new(Divergence {
                    baseline: format!("serial/{:?}", tiers[0]),
                    against: format!("pool/{tier:?}"),
                    baseline_outcome: format!("{baseline:?}"),
                    against_outcome: format!("{outcome:?}"),
                }));
            }
        }
    }
    Ok(baseline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn garbage_is_a_container_error_not_a_panic() {
        let out = decode_entry(&[0u8; 64], SimdLevel::Scalar);
        assert!(out.container_error.is_some());
        assert!(!out.has_panic());
    }

    #[test]
    fn signatures_are_stable_and_distinguish_outcomes() {
        let a = decode_entry(&[0u8; 64], SimdLevel::Scalar);
        let b = decode_entry(&[0u8; 64], SimdLevel::Scalar);
        assert_eq!(a.signature(), b.signature());
        let c = decode_entry(b"HVB1 not really a stream....", SimdLevel::Scalar);
        // Same class (container error) collapses to the same signature.
        assert_eq!(a.signature(), c.signature());
    }
}
