//! "Blue sky": tops of two trees against a blue sky, high contrast,
//! small colour differences in the sky, many details, camera rotation
//! (paper Table III).

use crate::noise::{FbmCursor, ValueNoise};
use crate::paint::{fill_with, Ycc};
use hdvb_frame::{Frame, Resolution};

/// Degrees of camera rotation per frame (~9.6° over the 100-frame clip).
const DEG_PER_FRAME: f64 = 0.096;

/// How far outside or inside a canopy's radius a pixel must be for the
/// rim noise not to matter: the noise moves the rim by at most 0.22
/// (`|fbm| <= 1`), and the 0.01 beyond that covers rounding (DESIGN.md,
/// "Rendering the camera sequences").
const RIM_REACH: f64 = 0.23;

pub(crate) fn render(resolution: Resolution, index: u32) -> Frame {
    let w = resolution.width();
    let h = resolution.height();
    let mut frame = Frame::new(w, h);
    // One cursor per fbm call site: each keeps its own octaves' cells.
    let mut leaf = FbmCursor::<3>::new(ValueNoise::new(0xB1DE));
    let canopy = ValueNoise::new(0x5EED);
    let (mut rim_a, mut rim_b) = (FbmCursor::<3>::new(canopy), FbmCursor::<3>::new(canopy));
    let sky_tint = ValueNoise::new(0x51C7);
    let mut sky_luma = FbmCursor::<2>::new(sky_tint);
    let mut sky_cb = FbmCursor::<2>::new(sky_tint);
    let mut sky_cr = FbmCursor::<2>::new(sky_tint);

    let angle = f64::from(index) * DEG_PER_FRAME * std::f64::consts::PI / 180.0;
    let (sin_a, cos_a) = angle.sin_cos();
    let (cx, cy) = (w as f64 * 0.5, h as f64 * 0.55);
    // World scale keyed to frame height so all three resolutions show the
    // same scene.
    let s = 1.0 / h as f64;

    fill_with(&mut frame, |px, py, chroma| {
        // Rotate the sampling position around the image centre.
        let dx = px as f64 + 0.5 - cx;
        let dy = py as f64 + 0.5 - cy;
        let u = (dx * cos_a - dy * sin_a) * s;
        let v = (dx * sin_a + dy * cos_a) * s;

        // Two tree canopies anchored in world space, entering from the
        // bottom corners; their outline is a noise-modulated boundary.
        // Only the sign of `r + edge - dist` is used, and it is already
        // fixed more than RIM_REACH away from the radius.
        let tree = |rim: &mut FbmCursor<3>, tx: f64, ty: f64, r: f64| -> f64 {
            let ddx = u - tx;
            let ddy = v - ty;
            let dist = (ddx * ddx + ddy * ddy).sqrt();
            if dist - r > RIM_REACH {
                return -1.0;
            }
            if r - dist > RIM_REACH {
                return 1.0;
            }
            let edge = 0.22 * rim.at(u * 9.0 + tx * 31.0, v * 9.0);
            r + edge - dist
        };
        let in_tree =
            tree(&mut rim_a, -0.38, 0.42, 0.33) > 0.0 || tree(&mut rim_b, 0.45, 0.50, 0.38) > 0.0;

        if in_tree {
            // Dark foliage with high-frequency detail ("many details",
            // "high contrast" against the sky).
            let leaf = leaf.at(u * 60.0, v * 60.0);
            let y = (36.0 + 34.0 * leaf).clamp(2.0, 110.0) as u8;
            Ycc::new(y, 122, 132)
        } else {
            // Sky: bright gradient toward the top with *small* colour
            // differences — a slow chroma drift.
            let grad = (0.5 - v).clamp(-0.6, 0.9);
            let y = (150.0 + 70.0 * grad + 6.0 * sky_luma.at(u * 3.0, v * 3.0)).clamp(90.0, 245.0)
                as u8;
            if !chroma {
                return Ycc::new(y, 0, 0); // chroma discarded here
            }
            let cb = (152.0 + 6.0 * sky_cb.at(u * 2.0 + 40.0, v * 2.0)).clamp(140.0, 165.0) as u8;
            let cr = (108.0 + 4.0 * sky_cr.at(u * 2.0 - 40.0, v * 2.0)).clamp(100.0, 118.0) as u8;
            Ycc::new(y, cb, cr)
        }
    });
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sky_is_blue_and_trees_are_dark() {
        let f = render(Resolution::new(96, 64), 0);
        // Mean Cb should be well above neutral (blue sky dominates).
        let mean_cb: f64 =
            f.cb().data().iter().map(|&v| f64::from(v)).sum::<f64>() / f.cb().data().len() as f64;
        assert!(mean_cb > 135.0, "mean cb {mean_cb}");
        // High contrast: luma spread must be wide.
        let min = f.y().data().iter().min().unwrap();
        let max = f.y().data().iter().max().unwrap();
        assert!(max - min > 120, "contrast {min}..{max}");
    }

    #[test]
    fn rotation_moves_the_scene() {
        let a = render(Resolution::new(96, 64), 0);
        let b = render(Resolution::new(96, 64), 20);
        assert!(a.y().sad(b.y()) > 0);
    }

    #[test]
    fn deterministic() {
        let a = render(Resolution::new(64, 64), 7);
        let b = render(Resolution::new(64, 64), 7);
        assert_eq!(a, b);
    }
}
