//! HD-VideoBench — a benchmark for evaluating high definition digital
//! video applications.
//!
//! This facade crate re-exports every workspace crate under one roof so
//! downstream users can depend on a single package:
//!
//! ```
//! use hd_videobench::frame::{Frame, Resolution};
//!
//! let f = Frame::new(Resolution::DVD_576.width(), Resolution::DVD_576.height());
//! assert_eq!(f.width(), 720);
//! ```
//!
//! See the README for the benchmark methodology and `DESIGN.md` for the
//! system inventory.

#![warn(missing_docs)]

pub use hdvb_bits as bits;
pub use hdvb_core as bench;
pub use hdvb_dsp as dsp;
pub use hdvb_frame as frame;
pub use hdvb_fuzz as fuzz;
pub use hdvb_h264 as h264;
pub use hdvb_me as me;
pub use hdvb_mpeg2 as mpeg2;
pub use hdvb_mpeg4 as mpeg4;
pub use hdvb_net as net;
pub use hdvb_par as par;
pub use hdvb_seq as seq;
pub use hdvb_serve as serve;
pub use hdvb_trace as trace;
