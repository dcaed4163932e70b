//! "Riverbed": a riverbed seen through moving water — the paper flags it
//! as "very hard to code". The difficulty comes from near-total temporal
//! decorrelation: every frame the water refracts differently, so motion
//! compensation finds almost nothing to predict from.

use crate::noise::{FbmCursor, ValueNoise};
use crate::paint::{fill_with, Ycc};
use crate::SplitMix;
use hdvb_frame::{Frame, Resolution};

pub(crate) fn render(resolution: Resolution, index: u32) -> Frame {
    let w = resolution.width();
    let h = resolution.height();
    let mut frame = Frame::new(w, h);
    let mut bed = FbmCursor::<3>::new(ValueNoise::new(0xBED));
    // A *different* refraction field every frame: temporal decorrelation
    // is the defining property of this sequence.
    let mut refract_x = FbmCursor::<2>::new(ValueNoise::new(0xAA00 + u64::from(index)));
    let mut refract_y = FbmCursor::<2>::new(ValueNoise::new(0xBB00 + u64::from(index)));
    let sparkle_seed = u64::from(index);

    let s = 1.0 / h as f64;
    fill_with(&mut frame, |px, py, chroma| {
        let u = px as f64 * s;
        let v = py as f64 * s;
        // Water refraction warps the sampling position of the static bed
        // by a large, frame-unique displacement.
        let wob = 0.08;
        let du = wob * refract_x.at(u * 14.0, v * 14.0);
        let dv = wob * refract_y.at(u * 14.0 + 7.0, v * 14.0);
        // Static pebble bed, fine-grained.
        let stones = bed.at((u + du) * 45.0, (v + dv) * 45.0);
        let mut luma = 95.0 + 55.0 * stones;
        // Specular sparkle: independent salt noise per frame.
        let hash = SplitMix::hash3(px as u64, py as u64, sparkle_seed);
        if hash.is_multiple_of(97) {
            luma = 235.0;
        } else {
            luma += ((hash >> 32) % 17) as f64 - 8.0; // fine shimmer
        }
        let luma = luma.clamp(8.0, 245.0) as u8;
        if !chroma {
            return Ycc::new(luma, 0, 0); // chroma discarded here
        }
        let cb = (132.0 + 8.0 * stones) as u8; // slightly blue water
        let cr = (118.0 - 6.0 * stones) as u8;
        Ycc::new(luma, cb, cr)
    });
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_abs_temporal_diff(r: Resolution, a: u32, b: u32) -> f64 {
        let fa = render(r, a);
        let fb = render(r, b);
        fa.y().sad(fb.y()) as f64 / fa.y().data().len() as f64
    }

    #[test]
    fn frames_are_strongly_decorrelated() {
        let r = Resolution::new(96, 64);
        let d = mean_abs_temporal_diff(r, 5, 6);
        assert!(d > 8.0, "adjacent riverbed frames too similar: {d}");
    }

    #[test]
    fn harder_than_a_static_scene_by_construction() {
        // Same-frame difference is zero; adjacent frames are far apart —
        // the decoder-side property the paper's "very hard to code" rests
        // on.
        let r = Resolution::new(96, 64);
        assert_eq!(mean_abs_temporal_diff(r, 9, 9), 0.0);
        assert!(mean_abs_temporal_diff(r, 9, 10) > 5.0);
    }

    #[test]
    fn spatial_detail_is_high() {
        let f = render(Resolution::new(96, 64), 0);
        // Horizontal gradient energy: fine texture means large
        // neighbour-to-neighbour differences.
        let mut grad = 0u64;
        for y in 0..64 {
            for x in 0..95 {
                grad += u64::from(f.y().get(x, y).abs_diff(f.y().get(x + 1, y)));
            }
        }
        let mean = grad as f64 / (95.0 * 64.0);
        assert!(mean > 6.0, "mean gradient {mean}");
    }

    #[test]
    fn deterministic() {
        let r = Resolution::new(64, 64);
        assert_eq!(render(r, 70), render(r, 70));
    }
}
