//! "Screen": synthetic remote-desktop content — text glyphs, 1-pixel
//! chrome, large static regions, a scrolling document and a moving
//! window.
//!
//! The four camera sequences (Table III) characterise natural HD video:
//! smooth gradients, film grain, motion blur. Production transcode
//! traffic is increasingly *screen content*, whose statistics are the
//! opposite — razor-sharp edges, flat runs hundreds of pixels long,
//! repeated glyph shapes, and motion that is pure integer translation
//! (scrolling, window drags). Codecs behave very differently on it
//! (intra prediction and motion search both get much easier, residuals
//! get much harder), which is why it ships as a separate workload family
//! rather than a fifth entry in [`SequenceId`](crate::SequenceId) — the
//! Table-V/Figure-1 sweep grids stay exactly the four paper clips.
//!
//! Every frame is a pure function of `(seed, resolution, index)`: all
//! geometry is integer arithmetic and all "randomness" is positional
//! [`SplitMix`] hashing, so golden frame hashes are stable across
//! platforms and SIMD tiers (`tests/corpus/screen/`).

use crate::paint::{fill_rect, fill_with, Ycc};
use crate::prng::SplitMix;
use crate::FRAME_COUNT;
use hdvb_frame::{Frame, Resolution, VideoFormat};

/// Scrolling speed of the document body, in pixels per frame at scale 1.
const SCROLL_PER_FRAME: u32 = 2;

/// A deterministic screen-content generator.
///
/// ```
/// use hdvb_frame::Resolution;
/// use hdvb_seq::ScreenContent;
///
/// let screen = ScreenContent::new(Resolution::new(288, 160), 1);
/// let a = screen.frame(3);
/// let b = screen.frame(3);
/// assert_eq!(a.y().data(), b.y().data()); // pure function of the index
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ScreenContent {
    resolution: Resolution,
    seed: u64,
}

impl ScreenContent {
    /// Creates a generator for one desktop. The `seed` selects the text,
    /// icon shades and window trajectory.
    pub fn new(resolution: Resolution, seed: u64) -> Self {
        ScreenContent { resolution, seed }
    }

    /// The frame geometry.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// The seed this desktop was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The raw video format (25 fps, matching the camera sequences).
    pub fn format(&self) -> VideoFormat {
        VideoFormat::at_25fps(self.resolution)
    }

    /// Iterator over the standard benchmark clip length
    /// ([`FRAME_COUNT`] frames).
    pub fn frames(&self) -> impl Iterator<Item = Frame> + '_ {
        (0..FRAME_COUNT).map(move |i| self.frame(i))
    }

    /// Renders frame `index`.
    pub fn frame(&self, index: u32) -> Frame {
        let w = self.resolution.width();
        let h = self.resolution.height();
        let seed = self.seed;
        // Integer UI scale: 1 at the 288-line tier, 2 at 576, 4 at 1088,
        // so every resolution shows the same desktop.
        let scale = (h / 272).max(1);
        let s = |v: usize| v * scale;

        let mut frame = Frame::new(w, h);

        // Wallpaper: a flat vertical gradient (large static, slowly
        // varying regions) with a faint 1-px diagonal weave.
        fill_with(&mut frame, |px, py, _| {
            let base = 52 + (py * 22 / h) as i32;
            let weave = if (px + py) % s(32) == 0 { 4 } else { 0 };
            Ycc::new((base + weave) as u8, 134, 123)
        });

        // Desktop icons down the left edge: static sharp-edged squares
        // with a dark "label" bar, shades keyed off the seed.
        let icon = s(14);
        let gap = s(8);
        for i in 0..5usize {
            let iy = (gap + i * (icon + s(6) + gap)) as i64;
            if iy + (icon + s(6)) as i64 >= (h - s(16)) as i64 {
                break;
            }
            let shade = 120 + (SplitMix::hash(seed, i as u64) % 96) as u8;
            fill_rect(
                &mut frame,
                gap as i64,
                iy,
                icon as i64,
                icon as i64,
                |ix, iyy| {
                    if ix == 0 || iyy == 0 || ix == icon - 1 || iyy == icon - 1 {
                        Ycc::new(20, 128, 128) // 1-px border
                    } else {
                        Ycc::new(shade, 118, 140)
                    }
                },
            );
            fill_rect(
                &mut frame,
                gap as i64,
                iy + (icon + s(2)) as i64,
                icon as i64,
                s(2).max(1) as i64,
                |_, _| Ycc::new(30, 128, 128),
            );
        }

        // The document window: static chrome, scrolling glyph text.
        let doc_x = (gap * 2 + icon) as i64;
        let doc_y = s(10) as i64;
        let doc_w = (w * 11 / 20) as i64;
        let doc_h = (h - s(16)) as i64 - doc_y - s(6) as i64;
        draw_window(&mut frame, doc_x, doc_y, doc_w, doc_h, scale, true);
        let title_h = s(9) as i64;
        let body_x = doc_x + 1;
        let body_y = doc_y + title_h;
        let body_w = doc_w - 2;
        let body_h = doc_h - title_h - 1;
        let scroll = u64::from(index) * u64::from(SCROLL_PER_FRAME) * scale as u64;
        let cell_w = s(6);
        let cell_h = s(10);
        let margin = s(4) as i64;
        fill_rect(&mut frame, body_x, body_y, body_w, body_h, |bx, by| {
            let paper = Ycc::new(236, 128, 128);
            let tx = bx as i64 - margin;
            if tx < 0 || tx >= body_w - 2 * margin {
                return paper;
            }
            let ty = by as u64 + scroll;
            let line = ty / cell_h as u64;
            let gy = (ty % cell_h as u64) as usize / scale;
            let col = (tx as u64) / cell_w as u64;
            let gx = (tx as usize) % cell_w / scale;
            // Ragged right margin and paragraph breaks.
            let line_len = 24 + SplitMix::hash3(seed, line, 0x11E) % 40;
            if SplitMix::hash(seed ^ 0xAA7A, line / 6).is_multiple_of(5) && line % 6 == 5 {
                return paper; // blank line between paragraphs
            }
            if col >= line_len {
                return paper;
            }
            let ch = SplitMix::hash3(seed, line, col);
            if ch.is_multiple_of(7) {
                return paper; // word space
            }
            if glyph_on(ch, gx, gy) {
                Ycc::new(24, 128, 128)
            } else {
                paper
            }
        });

        // A smaller window dragged across the desktop on a bouncing
        // integer path — pure translation, the canonical screen motion.
        let win_w = (w / 3) as i64;
        let win_h = (h * 3 / 10) as i64;
        let span_x = w as i64 - win_w;
        let span_y = (h - s(16)) as i64 - win_h;
        let vx = 3 + (SplitMix::hash(seed, 0xD7A6) % 3) as i64;
        let vy = 2 + (SplitMix::hash(seed, 0xD7A7) % 2) as i64;
        let phase_x = (SplitMix::hash(seed, 0xF0) % span_x.max(1) as u64) as i64;
        let phase_y = (SplitMix::hash(seed, 0xF1) % span_y.max(1) as u64) as i64;
        let wx = triangle(
            phase_x + i64::from(index) * vx * scale as i64,
            span_x.max(1),
        );
        let wy = triangle(
            phase_y + i64::from(index) * vy * scale as i64,
            span_y.max(1),
        );
        draw_window(&mut frame, wx, wy, win_w, win_h, scale, false);
        // Dialog content: horizontal separator rules and a button row —
        // static relative to the window, so the codec sees clean motion.
        let rule_gap = s(12) as i64;
        fill_rect(
            &mut frame,
            wx + 1,
            wy + s(9) as i64,
            win_w - 2,
            win_h - s(9) as i64 - 1,
            |bx, by| {
                if by as i64 % rule_gap == rule_gap - 1 {
                    Ycc::new(150, 128, 128)
                } else if bx as i64 % rule_gap < s(7) as i64 && (by as i64 / rule_gap) % 2 == 0 {
                    Ycc::new(90, 132, 126) // label stubs
                } else {
                    Ycc::new(214, 128, 128)
                }
            },
        );

        // Taskbar: dark strip with button slots and a "clock" whose
        // digits flip once a second (every 25 frames).
        let bar_h = s(16) as i64;
        let bar_y = h as i64 - bar_h;
        fill_rect(&mut frame, 0, bar_y, w as i64, bar_h, |_, by| {
            if by == 0 {
                Ycc::new(120, 128, 128)
            } else {
                Ycc::new(38, 130, 126)
            }
        });
        for b in 0..3i64 {
            fill_rect(
                &mut frame,
                s(4) as i64 + b * (s(30) + s(4)) as i64,
                bar_y + s(3) as i64,
                s(30) as i64,
                bar_h - s(6) as i64,
                |bx, by| {
                    if bx == 0
                        || by == 0
                        || bx == s(30) - 1
                        || by == (bar_h - s(6) as i64) as usize - 1
                    {
                        Ycc::new(90, 128, 128)
                    } else {
                        Ycc::new(58, 130, 126)
                    }
                },
            );
        }
        let secs = u64::from(index / 25);
        let clock_x = w as i64 - (4 * cell_w) as i64 - s(4) as i64;
        fill_rect(
            &mut frame,
            clock_x,
            bar_y + s(4) as i64,
            (4 * cell_w) as i64,
            s(8) as i64,
            |bx, by| {
                let digit_idx = bx / cell_w;
                let digit = (secs / 10u64.pow(3 - digit_idx.min(3) as u32)) % 10;
                let gx = bx % cell_w / scale;
                let gy = by / scale;
                if glyph_on(SplitMix::hash(0xC10C, digit), gx, gy) {
                    Ycc::new(230, 128, 128)
                } else {
                    Ycc::new(38, 130, 126)
                }
            },
        );

        // Mouse cursor: a small solid block on its own bouncing path,
        // always on top.
        let cx = triangle(i64::from(index) * 5 * scale as i64, w as i64 - s(4) as i64);
        let cy = triangle(
            (SplitMix::hash(seed, 0x0053) % h as u64) as i64 + i64::from(index) * 3 * scale as i64,
            h as i64 - s(6) as i64,
        );
        fill_rect(&mut frame, cx, cy, s(3) as i64, s(4) as i64, |_, _| {
            Ycc::new(250, 128, 128)
        });
        fill_rect(
            &mut frame,
            cx + 1,
            cy + s(4) as i64,
            1,
            s(2) as i64,
            |_, _| Ycc::new(250, 128, 128),
        );

        frame
    }
}

/// Window chrome: 1-px border, title bar (blue when `active`), blank
/// client area. Content is painted by the caller.
fn draw_window(frame: &mut Frame, x: i64, y: i64, w: i64, h: i64, scale: usize, active: bool) {
    let title_h = (9 * scale) as i64;
    let title = if active {
        Ycc::new(96, 160, 112)
    } else {
        Ycc::new(140, 140, 120)
    };
    fill_rect(frame, x, y, w, h, |bx, by| {
        let (bx, by) = (bx as i64, by as i64);
        if bx == 0 || by == 0 || bx == w - 1 || by == h - 1 {
            Ycc::new(16, 128, 128)
        } else if by < title_h {
            // Title bar with close-button square at the right edge.
            if bx > w - title_h && bx < w - 3 && by > 2 && by < title_h - 2 {
                Ycc::new(200, 118, 150)
            } else {
                title
            }
        } else {
            Ycc::new(236, 128, 128)
        }
    });
}

/// A 5×7 pseudo-glyph: positional hash bits with a forced left stem so
/// shapes read as letterforms rather than noise. Coordinates outside the
/// 5×7 cell are blank (inter-glyph and inter-line spacing).
fn glyph_on(ch: u64, gx: usize, gy: usize) -> bool {
    if gx >= 5 || gy >= 7 {
        return false;
    }
    if gx == 0 && (1..6).contains(&gy) {
        return true;
    }
    SplitMix::hash3(ch, gx as u64, gy as u64) % 5 < 2
}

/// Triangle wave: bounces `t` back and forth over `[0, span)`.
fn triangle(t: i64, span: i64) -> i64 {
    debug_assert!(span > 0);
    let period = 2 * span;
    let k = t.rem_euclid(period);
    if k < span {
        k
    } else {
        period - 1 - k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_pure_functions_of_seed_and_index() {
        let screen = ScreenContent::new(Resolution::new(96, 64), 7);
        let a = screen.frame(5);
        let b = screen.frame(5);
        assert_eq!(a.y().data(), b.y().data());
        assert_eq!(a.cb().data(), b.cb().data());
        assert_eq!(a.cr().data(), b.cr().data());
    }

    #[test]
    fn seeds_change_the_content() {
        let r = Resolution::new(96, 64);
        let a = ScreenContent::new(r, 1).frame(0);
        let b = ScreenContent::new(r, 2).frame(0);
        assert_ne!(a.y().data(), b.y().data());
    }

    #[test]
    fn consecutive_frames_differ_but_share_static_regions() {
        let screen = ScreenContent::new(Resolution::new(288, 160), 1);
        let a = screen.frame(0);
        let b = screen.frame(1);
        assert_ne!(a.y().data(), b.y().data(), "scroll/motion must move");
        // Large static share: most luma pixels identical frame-to-frame.
        let same = a
            .y()
            .data()
            .iter()
            .zip(b.y().data())
            .filter(|(x, y)| x == y)
            .count();
        assert!(
            same * 10 >= a.y().data().len() * 6,
            "only {same}/{} static pixels",
            a.y().data().len()
        );
    }

    #[test]
    fn has_sharp_edges_and_flat_runs() {
        let screen = ScreenContent::new(Resolution::new(288, 160), 1);
        let f = screen.frame(10);
        let y = f.y().data();
        let w = f.width();
        let mut max_step = 0i32;
        let mut longest_run = 0usize;
        let mut run = 1usize;
        for i in 1..y.len() {
            if i % w == 0 {
                run = 1;
                continue;
            }
            let d = (i32::from(y[i]) - i32::from(y[i - 1])).abs();
            max_step = max_step.max(d);
            if d == 0 {
                run += 1;
                longest_run = longest_run.max(run);
            } else {
                run = 1;
            }
        }
        assert!(max_step > 150, "no sharp edges (max step {max_step})");
        assert!(longest_run > 64, "no flat runs (longest {longest_run})");
    }

    #[test]
    fn scales_to_all_benchmark_tiers() {
        for r in [
            Resolution::new(288, 160),
            Resolution::DVD_576,
            Resolution::HD_720,
            Resolution::HD_1088,
        ] {
            let f = ScreenContent::new(r, 3).frame(2);
            assert_eq!(f.width(), r.width());
            assert_eq!(f.height(), r.height());
        }
    }

    #[test]
    fn triangle_wave_bounces_within_span() {
        for t in -20..200 {
            let v = triangle(t, 7);
            assert!((0..7).contains(&v), "t={t} -> {v}");
        }
        // Reflects rather than jumping: |Δ| ≤ 1 per step.
        for t in 0..50 {
            assert!((triangle(t + 1, 7) - triangle(t, 7)).abs() <= 1);
        }
    }
}
