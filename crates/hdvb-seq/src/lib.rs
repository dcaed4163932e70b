//! Synthetic input sequences for HD-VideoBench.
//!
//! The original benchmark uses four copyrighted camera sequences from TU
//! München (paper Table III): *blue sky*, *pedestrian area*, *riverbed*
//! and *rush hour*, each 100 frames at 25 fps in three resolutions. This
//! crate substitutes deterministic procedural generators that reproduce
//! the axes the paper selected those sequences for — their motion
//! character and spatial detail:
//!
//! | sequence | paper's description | generator model |
//! |---|---|---|
//! | blue sky | trees against sky, high contrast, camera **rotation** | rotating view of a procedural sky + tree-silhouette world |
//! | pedestrian area | large **close-up movers**, static camera | static textured plaza + large elliptical walkers |
//! | riverbed | water, "**very hard to code**" | temporally decorrelated shimmering noise field |
//! | rush hour | **many slow small movers**, fixed camera, haze | street scene with lanes of slow cars under haze |
//!
//! Every frame is a pure function of `(sequence, resolution, index)`, so
//! any frame can be regenerated at any time without buffering the clip.
//!
//! # Example
//!
//! ```
//! use hdvb_frame::Resolution;
//! use hdvb_seq::{Sequence, SequenceId};
//!
//! let seq = Sequence::new(SequenceId::BlueSky, Resolution::new(96, 64));
//! let f0 = seq.frame(0);
//! let f1 = seq.frame(1);
//! assert_ne!(f0, f1);            // the camera rotates
//! assert_eq!(seq.frame(0), f0);  // but generation is deterministic
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod blue_sky;
mod catalog;
mod noise;
mod paint;
mod pedestrian;
mod prng;
mod riverbed;
mod rush_hour;
mod screen;

pub use catalog::{Sequence, SequenceId, FRAME_COUNT};
pub use noise::ValueNoise;
pub use prng::{splitmix64, SplitMix};
pub use screen::ScreenContent;
