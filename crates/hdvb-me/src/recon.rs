//! Motion-compensated reconstruction of an MPEG-class macroblock, shared
//! by the MPEG-2 and MPEG-4 encoders and decoders so the four can never
//! diverge. It lives here rather than beside the block kernels in
//! `hdvb-dsp` because it opens a trace zone, and this is the lowest crate
//! that has `hdvb-dsp`, `hdvb-frame` and `hdvb-trace`.

use hdvb_dsp::{Block8, Dsp, MPEG_DEFAULT_NONINTRA};
use hdvb_frame::Frame;

/// Adds the dequantised residual blocks onto the prediction and stores
/// the macroblock into `recon`. Blocks whose cbp bit is clear contribute
/// pure prediction.
#[allow(clippy::too_many_arguments)]
pub fn reconstruct_inter(
    dsp: &Dsp,
    recon: &mut Frame,
    mbx: usize,
    mby: usize,
    py: &[u8; 256],
    pcb: &[u8; 64],
    pcr: &[u8; 64],
    blocks: &[Block8; 6],
    cbp: u8,
    qscale: u16,
) {
    let _z = hdvb_trace::zone!(hdvb_trace::Stage::Reconstruct);
    for b in 0..6 {
        let coded = cbp & (1 << (5 - b)) != 0;
        let (pred_slice, pred_stride): (&[u8], usize) = match b {
            0..=3 => (&py[(b / 2) * 8 * 16 + (b % 2) * 8..], 16),
            4 => (&pcb[..], 8),
            _ => (&pcr[..], 8),
        };
        let (plane, bx, by) = match b {
            0..=3 => (
                recon.y_mut(),
                mbx * 16 + (b % 2) * 8,
                mby * 16 + (b / 2) * 8,
            ),
            4 => (recon.cb_mut(), mbx * 8, mby * 8),
            _ => (recon.cr_mut(), mbx * 8, mby * 8),
        };
        let stride = plane.stride();
        let base = by * stride + bx;
        if coded {
            let mut res = blocks[b];
            dsp.dequant8(&mut res, &MPEG_DEFAULT_NONINTRA, qscale, false);
            dsp.idct8(&mut res);
            dsp.add_residual8(
                &mut plane.data_mut()[base..],
                stride,
                pred_slice,
                pred_stride,
                &res,
            );
        } else {
            dsp.copy_block(
                &mut plane.data_mut()[base..],
                stride,
                pred_slice,
                pred_stride,
                8,
                8,
            );
        }
    }
}
