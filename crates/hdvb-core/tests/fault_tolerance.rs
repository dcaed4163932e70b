//! End-to-end fault-tolerance tests driving *real* codec cells (the
//! in-module `sweep` tests use synthetic closures; these run the full
//! encode→decode→PSNR measurement per cell).
//!
//! The flow under test is the one a long benchmark run depends on:
//! inject faults into a journaled Table V sweep, watch it complete
//! with the damage reported instead of aborting, then `--resume` the
//! journal without faults and require the merged results to be
//! bit-identical to the cell function called directly for every cell.

use hdvb_core::{
    measure_rd_point, CellTimeout, CodecId, CodingOptions, FaultPlan, Figure1Part, ParallelRunner,
    SweepPolicy, Table5Row,
};
use hdvb_dsp::SimdLevel;
use hdvb_frame::Resolution;
use hdvb_seq::Sequence;
use std::path::PathBuf;
use std::time::Duration;

/// A tiny grid: one scaled-down resolution, 4 sequences x 3 codecs.
fn grid() -> Vec<Resolution> {
    vec![Resolution::DVD_576.scaled_down(8)]
}

fn options() -> CodingOptions {
    // Pin the tier so journal keys (and values) are machine-independent.
    CodingOptions::default().with_simd(SimdLevel::Scalar)
}

fn tmp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hdvb-ft-{tag}-{}.journal", std::process::id()))
}

/// Every measured f64 of every row, as raw bit patterns.
fn row_bits(rows: &[Table5Row]) -> Vec<u64> {
    rows.iter()
        .flat_map(|r| r.points.iter().flat_map(|p| [p.0.to_bits(), p.1.to_bits()]))
        .collect()
}

/// The reference every sweep is held to: the cell function, called
/// directly for the cell each row and column names. No sweep engine is
/// involved.
fn cell_bits(rows: &[Table5Row], frames: u32) -> Vec<u64> {
    rows.iter()
        .flat_map(|r| {
            let seq = Sequence::new(r.sequence, r.resolution);
            CodecId::ALL.map(|codec| {
                let rd = measure_rd_point(codec, seq, frames, &options()).expect("cell");
                [rd.psnr_y.to_bits(), rd.bitrate_kbps.to_bits()]
            })
        })
        .flatten()
        .collect()
}

#[test]
fn chaos_sweep_reports_damage_and_resume_heals_bit_identically() {
    let frames = 2;
    let journal = tmp_journal("chaos");
    let _ = std::fs::remove_file(&journal);

    // Chaos run: cell 1 panics on every attempt (3 > 1+max_retries
    // exhausts it), cell 5 stalls past a tight fixed budget. The sweep
    // must still complete and account for both.
    let chaos = SweepPolicy {
        max_retries: 1,
        cell_timeout: CellTimeout::Fixed(Duration::from_secs(5)),
        faults: FaultPlan::parse("panic@1x3,stall@5:6000x1,seed=9").expect("fault spec"),
        ..SweepPolicy::default()
    };
    let runner = ParallelRunner::new(2);
    let (rows, report) = runner
        .table5_rows(&grid(), frames, &options(), &chaos, Some(&journal), false)
        .expect("chaos sweep must not abort");
    assert_eq!(report.failed(), 1, "{}", report.failure_summary());
    assert_eq!(report.timed_out(), 1, "{}", report.failure_summary());
    assert_eq!(report.completed(), 10, "{}", report.failure_summary());
    // The failed cell is res0 / sequence 0 / codec 1, the timed-out one
    // is res0 / sequence 1 / codec 2; both render as NaN in their row.
    assert!(rows[0].points[1].0.is_nan() && rows[0].points[1].1.is_nan());
    assert!(rows[1].points[2].0.is_nan() && rows[1].points[2].1.is_nan());
    let summary = report.failure_summary();
    assert!(summary.contains("failed (panic)"), "{summary}");
    assert!(summary.contains("timed-out"), "{summary}");

    // Resume without faults: the 10 good cells restore from the
    // journal, the 2 damaged ones re-run, and the merged table is
    // bit-identical to the directly measured cells.
    let clean = SweepPolicy::default();
    let (healed, report) = runner
        .table5_rows(&grid(), frames, &options(), &clean, Some(&journal), true)
        .expect("resume sweep");
    assert!(report.all_ok(), "{}", report.failure_summary());
    assert_eq!(report.restored(), 10);
    assert_eq!(report.completed(), 2);
    assert_eq!(healed.len(), 4);
    assert_eq!(row_bits(&healed), cell_bits(&healed, frames));

    let _ = std::fs::remove_file(&journal);
}

#[test]
fn garbled_journal_records_are_skipped_and_rerun() {
    let frames = 2;
    let journal = tmp_journal("garble");
    let _ = std::fs::remove_file(&journal);

    let runner = ParallelRunner::new(2);
    let policy = SweepPolicy::default();
    let (reference, report) = runner
        .table5_rows(&grid(), frames, &options(), &policy, Some(&journal), false)
        .expect("journaled sweep");
    assert!(report.all_ok(), "{}", report.failure_summary());

    // Flip a byte inside the payload of the third record and chop the
    // final line mid-way: both must fail the checksum, be counted, and
    // only cost a re-run of the affected cells.
    let mut bytes = std::fs::read(&journal).expect("journal exists");
    let third_line_start = bytes
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .nth(1)
        .expect("at least 3 records");
    bytes[third_line_start + 40] ^= 0x20;
    let keep = bytes.len() - 7;
    std::fs::write(&journal, &bytes[..keep]).expect("rewrite journal");

    let (healed, report) = runner
        .table5_rows(&grid(), frames, &options(), &policy, Some(&journal), true)
        .expect("resume over damaged journal");
    assert!(report.all_ok(), "{}", report.failure_summary());
    assert_eq!(report.journal_bad_lines, 2);
    assert_eq!(report.restored(), 10);
    assert_eq!(report.completed(), 2);
    assert!(report
        .failure_summary()
        .contains("2 journal record(s) failed checksum"));
    assert_eq!(row_bits(&healed), row_bits(&reference));

    let _ = std::fs::remove_file(&journal);
}

/// Figure 1 measures every SIMD tier the CPU supports as separate
/// cells, so a resumed sweep must restore each tier's bars from that
/// tier's own journal records. The fps values are wall-clock: two tiers
/// sharing a journal key would show up as one tier's numbers printed in
/// the other's row.
#[test]
fn resumed_figure1_sweep_restores_each_tier_from_its_own_records() {
    let frames = 2;
    let journal = tmp_journal("figure1-tiers");
    let _ = std::fs::remove_file(&journal);

    let runner = ParallelRunner::new(1);
    let policy = SweepPolicy::default();
    let sweep = |resume| {
        runner
            .figure1_rows(
                &grid(),
                frames,
                &options(),
                Figure1Part::All,
                &policy,
                Some(&journal),
                resume,
            )
            .expect("figure 1 sweep")
    };
    let (written, report) = sweep(false);
    assert!(report.all_ok(), "{}", report.failure_summary());
    let (resumed, report) = sweep(true);
    assert_eq!(report.restored(), report.cells.len(), "nothing re-runs");

    // One decode and one encode row per supported tier.
    assert_eq!(written.len(), 2 * SimdLevel::supported_tiers().len());
    assert_eq!(written.len(), resumed.len());
    for (w, r) in written.iter().zip(&resumed) {
        assert_eq!(
            (w.resolution, w.decode, w.tier),
            (r.resolution, r.decode, r.tier)
        );
        let row = format!("{} decode={}", w.tier.tier_name(), w.decode);
        assert_eq!(w.fps.map(f64::to_bits), r.fps.map(f64::to_bits), "{row}");
        assert_eq!(w.stages, r.stages, "{row}");
    }

    let _ = std::fs::remove_file(&journal);
}
