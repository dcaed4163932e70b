//! Block motion estimation for the HD-VideoBench codecs.
//!
//! The paper (Section IV) fixes the motion-search algorithms of the
//! benchmark: **EPZS** (Enhanced Predictive Zonal Search, Tourapis 2002)
//! for the MPEG-2 and MPEG-4 encoders, and **hexagon search**
//! (Zhu/Lin/Chau 2002, x264's `--me hex`) for the H.264 encoder. This
//! crate implements both, plus exhaustive full search and diamond search
//! as baselines for the motion-search ablation bench, and the one
//! sub-pel refinement (half-pel, then quarter-pel) all three encoders
//! run over a half-pel window filled once per full-pel winner. The other
//! end of motion compensation that the MPEG-class codecs share sits here
//! too: the median vector predictor ([`MvField::median_pred`]) and the
//! inter-macroblock reconstruction ([`reconstruct_inter`]).
//!
//! # Example
//!
//! ```
//! use hdvb_frame::{PaddedPlane, Plane};
//! use hdvb_dsp::Dsp;
//! use hdvb_me::{full_search, BlockRef, Mv, SearchParams};
//!
//! let cur = Plane::new(64, 64);
//! let reference = PaddedPlane::from_plane(&Plane::new(64, 64), 32);
//! let block = BlockRef { plane: &cur, x: 16, y: 16, w: 16, h: 16 };
//! let result = full_search(
//!     &Dsp::default(), block, &reference, Mv::ZERO, &SearchParams::new(8, 4),
//! );
//! assert_eq!(result.mv, Mv::ZERO); // identical planes: zero motion wins
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod epzs;
mod mv;
mod recon;
mod search;
mod subpel;

pub use epzs::{epzs_search, EpzsThresholds, MvField, Predictors};
pub use mv::{median3, mv_bits, Mv};
pub use recon::reconstruct_inter;
pub use search::{
    diamond_search, full_search, hexagon_search, BlockRef, SearchParams, SearchResult,
};
pub use subpel::{bipred_luma, mb_prefers_intra, refine_hpel, refine_qpel, SubpelTarget};
