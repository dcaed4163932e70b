//! "Rush hour": rush-hour traffic in Munich — many cars moving slowly,
//! high depth of focus, fixed camera, summer haze (paper Table III).

use crate::noise::{floor, FbmCursor, ValueNoise};
use crate::paint::{fill_rect, fill_with, Ycc};
use crate::SplitMix;
use hdvb_frame::{Frame, Resolution};

struct Car {
    /// Lane index (0..LANES); lower lanes are nearer the camera.
    lane: usize,
    /// Fractional position along the road at frame 0.
    phase: f64,
    /// Pixels (at 576-line scale) moved per frame — slow traffic.
    speed: f64,
    /// Body luma/chroma.
    luma: u8,
    cb: u8,
    cr: u8,
}

const LANES: usize = 4;

fn cars() -> Vec<Car> {
    // A deterministic fleet: 18 cars across 4 lanes, alternating
    // direction by lane, speeds 0.4..2.2 px/frame at 576p scale.
    let mut out = Vec::new();
    let mut rng = SplitMix::new(0x0CA5);
    for i in 0..18 {
        let lane = i % LANES;
        let dir = if lane < LANES / 2 { 1.0 } else { -1.0 };
        out.push(Car {
            lane,
            phase: rng.next_f64(),
            speed: dir * rng.next_range(0.4, 2.2),
            luma: 40 + (rng.next_u64() % 170) as u8,
            cb: 112 + (rng.next_u64() % 32) as u8,
            cr: 112 + (rng.next_u64() % 32) as u8,
        });
    }
    out
}

pub(crate) fn render(resolution: Resolution, index: u32) -> Frame {
    let w = resolution.width();
    let h = resolution.height();
    let mut frame = Frame::new(w, h);
    let tex = ValueNoise::new(0x0AD5);
    let (mut building_tex, mut asphalt_tex) = (FbmCursor::<2>::new(tex), FbmCursor::<2>::new(tex));
    let scale = h as f64 / 576.0;

    // Static scene: buildings at the top, road below, haze lifting
    // contrast toward the top ("summer haze").
    let road_top = 0.40 * h as f64;
    // `x.fract()` for the x >= 0 below (see `floor`).
    let fract = |x: f64| x - floor(x);
    fill_with(&mut frame, |px, py, _| {
        let u = px as f64 / h as f64;
        let v = py as f64 / h as f64;
        let haze = ((road_top / h as f64 - v).max(0.0) * 60.0).min(45.0);
        if (py as f64) < road_top {
            // Building band with window detail, washed out by haze.
            let wx = fract(u * 14.0);
            let wy = fract(v * 10.0);
            let window = wx > 0.2 && wx < 0.75 && wy > 0.25 && wy < 0.8;
            let base = if window { 88.0 } else { 128.0 };
            let t = 8.0 * building_tex.at(u * 30.0, v * 30.0);
            Ycc::new((base + t + haze).clamp(30.0, 235.0) as u8, 127, 128)
        } else {
            // Asphalt with lane markings.
            let lane_h = (h as f64 - road_top) / LANES as f64;
            let in_lane = fract((py as f64 - road_top) / lane_h);
            let dash = (fract(u * 20.0) < 0.5) && in_lane < 0.06;
            let base = if dash { 190.0 } else { 92.0 };
            let t = 7.0 * asphalt_tex.at(u * 50.0, v * 50.0 + 9.0);
            Ycc::new((base + t).clamp(30.0, 220.0) as u8, 127, 129)
        }
    });

    // The fleet: small rectangles (cars) drifting slowly along lanes.
    let lane_h = (h as f64 - road_top) / LANES as f64;
    for car in cars() {
        let car_w = (46.0 * scale * (1.0 + car.lane as f64 * 0.18)).max(6.0);
        let car_h = (16.0 * scale * (1.0 + car.lane as f64 * 0.18)).max(4.0);
        let span = w as f64 + 2.0 * car_w;
        let pos = (car.phase * span
            + f64::from(index) * car.speed * scale * w as f64 / (720.0 * scale))
            .rem_euclid(span)
            - car_w;
        let cy = road_top + (car.lane as f64 + 0.55) * lane_h;
        let (luma, cb, cr) = (car.luma, car.cb, car.cr);
        fill_rect(
            &mut frame,
            pos as i64,
            (cy - car_h / 2.0) as i64,
            car_w as i64,
            car_h as i64,
            |rx, ry| {
                // Windshield band + body shading.
                let fx = rx as f64 / car_w;
                let glass = fx > 0.55 && fx < 0.75 && (ry as f64) < car_h * 0.5;
                if glass {
                    Ycc::new(60, 130, 122)
                } else {
                    Ycc::new(luma, cb, cr)
                }
            },
        );
    }
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn motion_is_slow_and_local() {
        let r = Resolution::new(144, 96);
        let a = render(r, 20);
        let b = render(r, 21);
        let changed = a
            .y()
            .data()
            .iter()
            .zip(b.y().data())
            .filter(|(x, y)| x != y)
            .count();
        let total = a.y().data().len();
        assert!(changed > 0);
        // Slow small movers: only a modest fraction of pixels change per
        // frame.
        assert!(changed < total / 4, "{changed}/{total}");
    }

    #[test]
    fn many_independent_movers() {
        // Compare frames far apart: multiple disjoint regions must have
        // changed (several cars, not one big object).
        let r = Resolution::new(144, 96);
        let a = render(r, 0);
        let b = render(r, 40);
        // Count connected-ish changed columns as a proxy for mover count.
        let mut regions = 0;
        let mut in_region = false;
        for x in 0..144 {
            let col_changed = (0..96).any(|y| a.y().get(x, y) != b.y().get(x, y));
            if col_changed && !in_region {
                regions += 1;
                in_region = true;
            } else if !col_changed {
                in_region = false;
            }
        }
        assert!(regions >= 3, "only {regions} changed column-regions");
    }

    #[test]
    fn haze_brightens_the_top() {
        let f = render(Resolution::new(96, 96), 0);
        let top_mean: f64 = (0..16)
            .flat_map(|y| (0..96).map(move |x| (x, y)))
            .map(|(x, y)| f64::from(f.y().get(x, y)))
            .sum::<f64>()
            / (96.0 * 16.0);
        let road_mean: f64 = (70..86)
            .flat_map(|y| (0..96).map(move |x| (x, y)))
            .map(|(x, y)| f64::from(f.y().get(x, y)))
            .sum::<f64>()
            / (96.0 * 16.0);
        assert!(top_mean > road_mean, "{top_mean} vs {road_mean}");
    }

    #[test]
    fn deterministic() {
        let r = Resolution::new(64, 64);
        assert_eq!(render(r, 88), render(r, 88));
    }
}
