//! "Pedestrian area": shot of a pedestrian area from a low, static
//! camera; people pass very close to the camera; high depth of field
//! (paper Table III).

use crate::noise::{floor, FbmCursor, ValueNoise};
use crate::paint::{fill_ellipse, fill_with, Ycc};
use hdvb_frame::{Frame, Resolution};

struct Walker {
    /// Fraction of clip walked per frame (signed for direction).
    speed: f64,
    /// Phase offset of the crossing, in [0, 1).
    phase: f64,
    /// Vertical position of the body centre, fraction of height.
    cy: f64,
    /// Body half-height as a fraction of frame height (people are LARGE:
    /// they pass close to the camera).
    size: f64,
    /// Clothing luma.
    luma: u8,
    /// Clothing chroma.
    cb: u8,
    cr: u8,
}

fn walkers() -> Vec<Walker> {
    // Hand-tuned deterministic cast; sizes per the "very close to the
    // camera" description (up to ~70% of frame height).
    vec![
        Walker {
            speed: 0.0105,
            phase: 0.05,
            cy: 0.62,
            size: 0.34,
            luma: 70,
            cb: 118,
            cr: 140,
        },
        Walker {
            speed: -0.0085,
            phase: 0.35,
            cy: 0.58,
            size: 0.27,
            luma: 150,
            cb: 135,
            cr: 120,
        },
        Walker {
            speed: 0.0065,
            phase: 0.55,
            cy: 0.66,
            size: 0.22,
            luma: 105,
            cb: 125,
            cr: 125,
        },
        Walker {
            speed: -0.0125,
            phase: 0.75,
            cy: 0.70,
            size: 0.36,
            luma: 55,
            cb: 128,
            cr: 118,
        },
        Walker {
            speed: 0.0045,
            phase: 0.90,
            cy: 0.55,
            size: 0.17,
            luma: 180,
            cb: 122,
            cr: 133,
        },
    ]
}

pub(crate) fn render(resolution: Resolution, index: u32) -> Frame {
    let w = resolution.width();
    let h = resolution.height();
    let mut frame = Frame::new(w, h);
    let mut pavement = FbmCursor::<3>::new(ValueNoise::new(0xCAFE));
    let mut facade = FbmCursor::<3>::new(ValueNoise::new(0xFACA));

    // Static background: building facades above, cobbled pavement below.
    // "High depth of field" = sharp detail everywhere, no blur.
    let horizon = 0.45 * h as f64;
    // `x.fract()` for the x >= 0 below (see `floor`).
    let fract = |x: f64| x - floor(x);
    fill_with(&mut frame, |px, py, _| {
        let u = px as f64 / h as f64;
        let v = py as f64 / h as f64;
        if (py as f64) < horizon {
            // Facade: window grid + texture.
            let wx = fract(u * 9.0);
            let wy = fract(v * 7.0);
            let window = wx > 0.25 && wx < 0.8 && wy > 0.3 && wy < 0.85;
            let base = if window { 62.0 } else { 148.0 };
            let tex = 14.0 * facade.at(u * 40.0, v * 40.0);
            Ycc::new((base + tex).clamp(20.0, 220.0) as u8, 126, 131)
        } else {
            // Pavement: diagonal cobble pattern with fine noise.
            let cobble = ((u * 24.0 + v * 8.0).sin() * (v * 30.0 - u * 6.0).sin()) * 12.0;
            let tex = 10.0 * pavement.at(u * 55.0, v * 55.0);
            let fall = (v - 0.45) * 30.0; // slightly brighter toward camera
            Ycc::new(
                (120.0 + cobble + tex + fall).clamp(40.0, 220.0) as u8,
                127,
                129,
            )
        }
    });

    // Large foreground walkers crossing horizontally.
    let clothes = ValueNoise::new(0xC10);
    let t = f64::from(index) / 100.0;
    for (i, wk) in walkers().iter().enumerate() {
        // Position wraps so walkers re-enter during the clip.
        let pos = (wk.phase + t * wk.speed * 100.0).rem_euclid(1.2) - 0.1;
        let cx = pos * w as f64;
        let cy = wk.cy * h as f64;
        let ry = wk.size * h as f64;
        let rx = ry * 0.38;
        let (luma, cb, cr) = (wk.luma, wk.cb, wk.cr);
        let seed_off = i as f64 * 13.7;
        // Body.
        let mut cloth = FbmCursor::<2>::new(clothes);
        fill_ellipse(&mut frame, cx, cy, rx, ry, |dx, dy| {
            let shade = (1.0 - dx * dx * 0.7) * (1.0 - dy * dy * 0.3);
            let tex = 10.0 * cloth.at(dx * 6.0 + seed_off, dy * 6.0);
            Ycc::new(
                (f64::from(luma) * shade + tex).clamp(10.0, 235.0) as u8,
                cb,
                cr,
            )
        });
        // Head.
        fill_ellipse(
            &mut frame,
            cx,
            cy - ry * 1.18,
            rx * 0.45,
            ry * 0.28,
            |dx, dy| {
                let shade = 1.0 - 0.25 * (dx * dx + dy * dy);
                Ycc::new((168.0 * shade) as u8, 116, 145) // skin tone
            },
        );
    }
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn background_is_static_while_walkers_move() {
        let r = Resolution::new(128, 96);
        let a = render(r, 10);
        let b = render(r, 11);
        // Some pixels change (walkers) but most stay identical (static
        // camera, static background).
        let changed = a
            .y()
            .data()
            .iter()
            .zip(b.y().data())
            .filter(|(x, y)| x != y)
            .count();
        let total = a.y().data().len();
        assert!(changed > 0, "nothing moved");
        assert!(
            changed < total / 2,
            "{changed}/{total} changed — background not static"
        );
    }

    #[test]
    fn walkers_are_large() {
        // At least one mover's silhouette spans a third of frame height:
        // find the tallest run of "clothing-like" change between a frame
        // with and without (approximation: luma differs from background
        // frame rendered far in time).
        let r = Resolution::new(128, 96);
        let a = render(r, 0);
        let b = render(r, 50);
        let mut max_run = 0;
        for x in 0..128 {
            let mut run = 0;
            for y in 0..96 {
                if a.y().get(x, y) != b.y().get(x, y) {
                    run += 1;
                    max_run = max_run.max(run);
                } else {
                    run = 0;
                }
            }
        }
        assert!(max_run >= 96 / 3, "tallest mover run {max_run}");
    }

    #[test]
    fn deterministic() {
        let r = Resolution::new(64, 64);
        assert_eq!(render(r, 33), render(r, 33));
    }
}
