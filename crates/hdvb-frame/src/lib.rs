//! YUV 4:2:0 frame representation, pixel planes, quality metrics and raw
//! video I/O for HD-VideoBench.
//!
//! This crate is the lowest layer of the benchmark: every codec, the
//! sequence generators and the harness all exchange [`Frame`]s. A frame
//! holds three [`Plane`]s (luma plus two chroma planes subsampled 2×2,
//! i.e. 4:2:0 — the chroma format used by all HD-VideoBench inputs).
//!
//! # Example
//!
//! ```
//! use hdvb_frame::{Frame, Resolution};
//!
//! let res = Resolution::DVD_576; // 720x576, the paper's "576p25"
//! let mut frame = Frame::new(res.width(), res.height());
//! frame.y_mut().fill(128);
//! assert_eq!(frame.width(), 720);
//! assert_eq!(frame.cb().width(), 360);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
mod frame;
mod io;
mod metrics;
mod pad;
mod plane;
mod pool;
mod region;
mod video;

pub use error::FrameError;
pub use frame::Frame;
pub use io::{read_i420, read_i420_into, write_i420, Y4mReader, Y4mWriter};
pub use metrics::{psnr_from_mse, FramePsnr, PlanePsnr, SequencePsnr, Ssim};
pub use pad::PaddedPlane;
pub use plane::Plane;
pub use pool::{BufferPool, FramePool, PoolStats};
pub use region::{align_up, mb_count};
pub use video::{FrameRate, Resolution, VideoFormat};
