//! Frame-painting helpers shared by the generators.

use hdvb_frame::Frame;

/// A colour in YCbCr (full-range 8-bit).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Ycc {
    pub y: u8,
    pub cb: u8,
    pub cr: u8,
}

impl Ycc {
    pub(crate) const fn new(y: u8, cb: u8, cr: u8) -> Self {
        Ycc { y, cb, cr }
    }

    /// The colour with its luma offset by `d`, saturating.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn with_luma_offset(self, d: i32) -> Ycc {
        Ycc {
            y: (i32::from(self.y) + d).clamp(0, 255) as u8,
            ..self
        }
    }
}

/// Fills the whole frame by evaluating `f(x, y, chroma) -> Ycc` per luma
/// pixel, in raster order; chroma is written from the even-coordinate
/// samples (simple 4:2:0 siting, adequate for synthetic content).
/// `chroma` is true exactly there, so a shader may skip computing
/// `cb`/`cr` where it is false: they are discarded.
pub(crate) fn fill_with<F: FnMut(usize, usize, bool) -> Ycc>(frame: &mut Frame, mut f: F) {
    let (w, h) = (frame.width(), frame.height());
    let (yp, cb, cr) = frame.planes_mut();
    for y in 0..h {
        for x in 0..w {
            let chroma = x % 2 == 0 && y % 2 == 0;
            let c = f(x, y, chroma);
            yp.set(x, y, c.y);
            if chroma {
                cb.set(x / 2, y / 2, c.cb);
                cr.set(x / 2, y / 2, c.cr);
            }
        }
    }
}

/// Paints a filled axis-aligned ellipse; pixels outside the frame are
/// clipped. `shade(dx, dy)` receives normalised offsets in `[-1, 1]` from
/// the centre, letting callers shade the interior.
pub(crate) fn fill_ellipse<F: FnMut(f64, f64) -> Ycc>(
    frame: &mut Frame,
    cx: f64,
    cy: f64,
    rx: f64,
    ry: f64,
    mut shade: F,
) {
    if rx <= 0.0 || ry <= 0.0 {
        return;
    }
    let (w, h) = (frame.width() as i64, frame.height() as i64);
    let x0 = ((cx - rx).floor() as i64).clamp(0, w);
    let x1 = ((cx + rx).ceil() as i64).clamp(0, w);
    let y0 = ((cy - ry).floor() as i64).clamp(0, h);
    let y1 = ((cy + ry).ceil() as i64).clamp(0, h);
    let (yp, cbp, crp) = frame.planes_mut();
    for py in y0..y1 {
        for px in x0..x1 {
            let dx = (px as f64 + 0.5 - cx) / rx;
            let dy = (py as f64 + 0.5 - cy) / ry;
            if dx * dx + dy * dy <= 1.0 {
                let c = shade(dx, dy);
                yp.set(px as usize, py as usize, c.y);
                if px % 2 == 0 && py % 2 == 0 {
                    cbp.set(px as usize / 2, py as usize / 2, c.cb);
                    crp.set(px as usize / 2, py as usize / 2, c.cr);
                }
            }
        }
    }
}

/// Paints a filled rectangle (clipped), shading per pixel.
pub(crate) fn fill_rect<F: FnMut(usize, usize) -> Ycc>(
    frame: &mut Frame,
    x: i64,
    y: i64,
    w: i64,
    h: i64,
    mut shade: F,
) {
    let (fw, fh) = (frame.width() as i64, frame.height() as i64);
    let x0 = x.clamp(0, fw);
    let y0 = y.clamp(0, fh);
    let x1 = (x + w).clamp(0, fw);
    let y1 = (y + h).clamp(0, fh);
    let (yp, cbp, crp) = frame.planes_mut();
    for py in y0..y1 {
        for px in x0..x1 {
            let c = shade((px - x) as usize, (py - y) as usize);
            yp.set(px as usize, py as usize, c.y);
            if px % 2 == 0 && py % 2 == 0 {
                cbp.set(px as usize / 2, py as usize / 2, c.cb);
                crp.set(px as usize / 2, py as usize / 2, c.cr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_with_covers_every_pixel() {
        let mut f = Frame::new(16, 8);
        fill_with(&mut f, |_, _, _| Ycc::new(9, 10, 11));
        assert!(f.y().data().iter().all(|&v| v == 9));
        assert!(f.cb().data().iter().all(|&v| v == 10));
        assert!(f.cr().data().iter().all(|&v| v == 11));
    }

    #[test]
    fn fill_with_asks_for_chroma_exactly_where_it_is_kept() {
        let mut f = Frame::new(8, 6);
        let mut asked = Vec::new();
        fill_with(&mut f, |x, y, chroma| {
            if chroma {
                asked.push((x, y));
                Ycc::new(1, (x / 2) as u8, (y / 2) as u8)
            } else {
                Ycc::new(2, 0, 0) // dropped chroma must not land anywhere
            }
        });
        let even: Vec<(usize, usize)> = (0..6)
            .step_by(2)
            .flat_map(|y| (0..8).step_by(2).map(move |x| (x, y)))
            .collect();
        assert_eq!(asked, even);
        for (x, y) in even {
            assert_eq!(f.cb().get(x / 2, y / 2), (x / 2) as u8);
            assert_eq!(f.cr().get(x / 2, y / 2), (y / 2) as u8);
        }
    }

    #[test]
    fn ellipse_clips_at_borders() {
        let mut f = Frame::new(16, 16);
        f.y_mut().fill(0);
        // Centre outside the frame; must not panic and must paint the
        // visible part.
        fill_ellipse(&mut f, -2.0, 8.0, 6.0, 6.0, |_, _| Ycc::new(200, 128, 128));
        assert!(f.y().get(0, 8) > 0);
        assert_eq!(f.y().get(15, 8), 0);
    }

    #[test]
    fn ellipse_stays_inside_its_bounding_box() {
        let mut f = Frame::new(32, 32);
        f.y_mut().fill(0);
        fill_ellipse(&mut f, 16.0, 16.0, 5.0, 3.0, |_, _| Ycc::new(255, 128, 128));
        assert_eq!(f.y().get(16, 10), 0); // above the ellipse
        assert_eq!(f.y().get(9, 16), 0); // left of the ellipse
        assert_eq!(f.y().get(16, 16), 255); // centre
    }

    #[test]
    fn rect_negative_origin_clips() {
        let mut f = Frame::new(8, 8);
        f.y_mut().fill(0);
        fill_rect(&mut f, -4, -4, 6, 6, |_, _| Ycc::new(50, 128, 128));
        assert_eq!(f.y().get(0, 0), 50);
        assert_eq!(f.y().get(1, 1), 50);
        assert_eq!(f.y().get(2, 2), 0);
    }

    #[test]
    fn luma_offset_saturates() {
        let c = Ycc::new(250, 128, 128);
        assert_eq!(c.with_luma_offset(20).y, 255);
        assert_eq!(c.with_luma_offset(-255).y, 0);
    }
}
