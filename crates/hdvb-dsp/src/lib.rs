//! Signal-processing kernels shared by the HD-VideoBench codecs, each in
//! a portable scalar variant and an SSE2 variant.
//!
//! The original benchmark's headline experiment (Figure 1 of the paper)
//! compares *scalar* builds of each codec against *SIMD-optimised* builds.
//! This crate reproduces that axis: every hot kernel — SAD/SATD block
//! matching, the 8×8 DCT/IDCT used by the MPEG-class codecs, the H.264
//! 4×4 integer transform, quantisation and sub-pel interpolation — is
//! implemented twice and selected at runtime through [`SimdLevel`].
//!
//! # Example
//!
//! ```
//! use hdvb_dsp::{Dsp, SimdLevel};
//!
//! let scalar = Dsp::new(SimdLevel::Scalar);
//! let simd = Dsp::new(SimdLevel::detect());
//! let a = [10u8; 256];
//! let b = [14u8; 256];
//! // Both paths compute the same value.
//! assert_eq!(
//!     scalar.sad(&a, 16, &b, 16, 16, 16),
//!     simd.sad(&a, 16, &b, 16, 16, 16),
//! );
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod block8;
mod dct4;
mod dct8;
mod deblock;
mod dispatch;
mod interp;
mod pixel;
mod qpel;
mod quant;
mod satd;
mod scale;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod sse2;

pub use block8::{load_block, store_block_clamped};
pub use dct4::{chroma_dc_hadamard_2x2, chroma_dc_ihadamard_2x2};
pub use dispatch::{CompareFn, CostFn, Dsp, ScaleHFn, ScaleVFn, SimdLevel, SsdFn};
pub use qpel::SubpelWindow;
pub use quant::{QuantMatrix, MPEG_DEFAULT_INTRA, MPEG_DEFAULT_NONINTRA, QUANT_FLAT_16};
pub use scale::{ScaleFilter, Scaler, SCALE_FILTER_BITS, SCALE_TAPS};

/// An 8×8 block of transform coefficients or residuals, row-major.
pub type Block8 = [i16; 64];

/// A 4×4 block of transform coefficients or residuals, row-major.
pub type Block4 = [i16; 16];
