//! Determinism regression: the sweep must be **bit-identical** to its
//! cells measured one at a time.
//!
//! Each grid cell (resolution × sequence × codec) is an independent
//! encode→decode→PSNR pipeline, so fanning cells over the work-stealing
//! pool and merging in grid order may not change a single bit of any
//! packet, PSNR or bitrate relative to calling the cell function
//! directly on the calling thread. `hdvb table5 --threads N` relies on
//! this to stay a faithful reproduction of the paper's Table V at any
//! thread count, and the engine exercised here is the one it runs.

use hd_videobench::bench::{
    encode_sequence, measure_rd_point, CodecId, CodingOptions, ParallelRunner, SweepPolicy,
};
use hd_videobench::frame::Resolution;
use hd_videobench::par::ThreadPool;
use hd_videobench::seq::{Sequence, SequenceId};

const RES: (u32, u32) = (96, 80);
const FRAMES: u32 = 12;

/// Coded packets from a 4-thread pool are byte-identical to the serial
/// encoder's, for every codec and sequence of the small grid.
#[test]
fn parallel_sweep_packets_are_byte_identical_to_serial() {
    let resolution = Resolution::new(RES.0, RES.1);
    let options = CodingOptions::default();
    let mut cells = Vec::new();
    for codec in CodecId::ALL {
        for sid in SequenceId::ALL {
            cells.push((codec, sid));
        }
    }

    let serial: Vec<Vec<Vec<u8>>> = cells
        .iter()
        .map(|&(codec, sid)| {
            let seq = Sequence::new(sid, resolution);
            encode_sequence(codec, seq, FRAMES, &options)
                .expect("serial encode")
                .packets
                .into_iter()
                .map(|p| p.data)
                .collect()
        })
        .collect();

    let pool = ThreadPool::new(4);
    let parallel: Vec<Vec<Vec<u8>>> = pool
        .par_map(cells, |(codec, sid)| {
            let seq = Sequence::new(sid, resolution);
            encode_sequence(codec, seq, FRAMES, &options)
                .expect("parallel encode")
                .packets
                .into_iter()
                .map(|p| p.data)
                .collect()
        })
        .expect("no task panicked");

    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            s, p,
            "cell {i}: packet bytes differ between serial and parallel"
        );
    }
}

/// The assembled Table V rows (PSNR and bitrate) from the sweep engine
/// `hdvb table5` runs are exactly equal — to the last f64 bit — to the
/// cell function [`measure_rd_point`] called directly for the cell each
/// row and column names, at one thread and at four.
#[test]
fn table5_rows_identical_at_any_thread_count() {
    let resolutions = [Resolution::new(RES.0, RES.1)];
    let options = CodingOptions::default();
    let policy = SweepPolicy::default();

    // The reference: every cell measured directly, no engine involved.
    let cells: Vec<[(u64, u64); 3]> = SequenceId::ALL
        .iter()
        .map(|&sid| {
            let seq = Sequence::new(sid, resolutions[0]);
            CodecId::ALL.map(|codec| {
                let rd = measure_rd_point(codec, seq, FRAMES, &options).expect("cell");
                (rd.psnr_y.to_bits(), rd.bitrate_kbps.to_bits())
            })
        })
        .collect();

    for threads in [1, 4] {
        let (rows, report) = ParallelRunner::new(threads)
            .table5_rows(&resolutions, FRAMES, &options, &policy, None, false)
            .expect("sweep");
        assert!(report.all_ok(), "{}", report.failure_summary());
        assert_eq!(report.execution.threads, threads);
        assert_eq!(report.execution.cells, cells.len() * CodecId::ALL.len());
        assert_eq!(rows.len(), cells.len());
        for ((row, &sid), cell_row) in rows.iter().zip(&SequenceId::ALL).zip(&cells) {
            assert_eq!(row.resolution, resolutions[0]);
            assert_eq!(row.sequence, sid);
            for (ci, (point, cell)) in row.points.iter().zip(cell_row).enumerate() {
                assert_eq!(
                    (point.0.to_bits(), point.1.to_bits()),
                    *cell,
                    "{threads} threads, {}/{}: PSNR or bitrate differs",
                    sid.name(),
                    CodecId::ALL[ci]
                );
            }
        }
    }
}

/// Turning the tracing subsystem on must not change a single bit of
/// the coded output: the probes only read clocks and write to
/// thread-local buffers, never touching codec state. A traced parallel
/// sweep is byte-identical to an untraced serial one, for every codec.
#[test]
fn traced_runs_are_bit_identical_to_untraced() {
    use hd_videobench::trace;

    let resolution = Resolution::new(RES.0, RES.1);
    let options = CodingOptions::default();

    let encode_all = || -> Vec<Vec<Vec<u8>>> {
        CodecId::ALL
            .iter()
            .map(|&codec| {
                let seq = Sequence::new(SequenceId::RushHour, resolution);
                encode_sequence(codec, seq, FRAMES, &options)
                    .expect("encode")
                    .packets
                    .into_iter()
                    .map(|p| p.data)
                    .collect()
            })
            .collect()
    };

    let untraced = encode_all();

    trace::reset();
    trace::set_enabled(true);
    let traced = encode_all();
    let pool = ThreadPool::new(4);
    let traced_parallel: Vec<Vec<Vec<u8>>> = pool
        .par_map(CodecId::ALL.to_vec(), |codec| {
            let seq = Sequence::new(SequenceId::RushHour, resolution);
            encode_sequence(codec, seq, FRAMES, &options)
                .expect("traced parallel encode")
                .packets
                .into_iter()
                .map(|p| p.data)
                .collect()
        })
        .expect("no task panicked");
    trace::set_enabled(false);
    let report = trace::collect();

    assert_eq!(untraced, traced, "tracing changed serial encoder output");
    assert_eq!(
        untraced, traced_parallel,
        "tracing changed pooled encoder output"
    );
    // The traced window really recorded codec activity — otherwise this
    // test would pass vacuously with the probes compiled out.
    assert!(
        report.stage_total(trace::Stage::EncodeFrame) > 0,
        "no encode_frame spans recorded while tracing was enabled"
    );
}

/// The rate-distortion measurement itself is a pure function of its
/// inputs: running the same cell on a pool worker and on the main
/// thread gives exactly equal PSNR/SSIM/bitrate.
#[test]
fn rd_point_is_reproducible_across_threads() {
    let resolution = Resolution::new(RES.0, RES.1);
    let options = CodingOptions::default();
    let pool = ThreadPool::new(2);
    for codec in CodecId::ALL {
        let seq = Sequence::new(SequenceId::PedestrianArea, resolution);
        let direct = measure_rd_point(codec, seq, FRAMES, &options).expect("direct");
        let pooled = pool
            .par_map(vec![()], |()| {
                measure_rd_point(codec, seq, FRAMES, &options).expect("pooled")
            })
            .expect("no panic")
            .remove(0);
        assert_eq!(direct.psnr_y.to_bits(), pooled.psnr_y.to_bits(), "{codec}");
        assert_eq!(direct.ssim_y.to_bits(), pooled.ssim_y.to_bits(), "{codec}");
        assert_eq!(
            direct.bitrate_kbps.to_bits(),
            pooled.bitrate_kbps.to_bits(),
            "{codec}"
        );
    }
}
