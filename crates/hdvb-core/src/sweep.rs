//! The sweep engine behind Table V and Figure 1: panic isolation,
//! per-cell deadline budgets, retry with jittered backoff, and
//! checkpoint/resume through the [`crate::journal`].
//!
//! There is one engine. [`ParallelRunner::table5_rows`] and
//! [`ParallelRunner::figure1_rows`] each declare their artifact's grid
//! once — a list of cells carrying descriptor, label and journal key —
//! hand it to the engine, and assemble their rows from that same list.
//! A sweep never aborts on a failing cell (unacceptable for a
//! multi-hour 2160p run); **every** cell resolves to a typed
//! [`CellOutcome`]:
//!
//! * a panicking cell is caught (via `hdvb-par`'s per-slot
//!   [`TaskPanic`] isolation), retried up to the policy's limit with
//!   jittered exponential backoff, and reported as
//!   [`CellOutcome::Failed`] only when every attempt panicked;
//! * a cell that overruns its wall-clock budget is cancelled
//!   *cooperatively* at the next frame/packet boundary (the codecs
//!   check a [`CancelToken`] between pictures) and reported as
//!   [`CellOutcome::TimedOut`] with whatever per-stage attribution
//!   `hdvb-trace` collected before the deadline. Timeouts are not
//!   retried in-run — a cell that blew its budget once will blow it
//!   again — but a `--resume` pass re-runs them;
//! * completed cells are journaled (inputs hash + result as `f64` bit
//!   patterns + attempt count) so an interrupted sweep resumes by
//!   restoring finished cells **bit-identically** and re-running only
//!   the failed/timed-out/missing ones.
//!
//! Failed cells surface as `NaN` entries in the assembled rows (the
//! report renders them as `n/a`) so one bad cell does not take down
//! the other hundreds. Each cell is an independent, deterministic
//! encode→decode→measure pipeline and rows are assembled in grid
//! order, so a fault-free sweep is bit-identical to calling the cell
//! function ([`crate::measure_rd_point`]) cell by cell, at any thread
//! count.

use crate::faults::FaultPlan;
use crate::journal::{
    load_journal, truncate_journal, JournalOutcome, JournalRecord, JournalWriter,
};
use crate::parallel::{ExecutionReport, Figure1Part, ParallelRunner};
use crate::runner::{
    measure_figure1_row_cancellable, measure_rd_point_cancellable, stage_delta, RdPoint, Throughput,
};
use crate::{BenchError, CodecId, CodingOptions, Figure1Row, Table5Row};
use hdvb_bits::hash::fnv1a64;
use hdvb_dsp::SimdLevel;
use hdvb_frame::Resolution;
use hdvb_par::{panic_text, CancelToken, TaskPanic, WorkerStats};
use hdvb_seq::{splitmix64, Sequence, SequenceId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-cell wall-clock budget policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellTimeout {
    /// No deadline: cells run to completion.
    Off,
    /// Budget derived from the cell's size:
    /// `frames × megapixels × 2 s`, clamped to `[120 s, 7200 s]` — a
    /// generous multiple of any sane per-cell cost, so it only fires on
    /// genuinely wedged cells.
    Auto,
    /// A fixed budget for every cell.
    Fixed(Duration),
}

impl CellTimeout {
    /// The budget for one cell of `frames` frames at `resolution`, or
    /// `None` when deadlines are off.
    pub fn budget_for(self, resolution: Resolution, frames: u32) -> Option<Duration> {
        match self {
            CellTimeout::Off => None,
            CellTimeout::Fixed(d) => Some(d),
            CellTimeout::Auto => {
                let megapixels = (resolution.width() * resolution.height()) as f64 / 1e6;
                let secs = (f64::from(frames) * megapixels * 2.0).clamp(120.0, 7200.0);
                Some(Duration::from_secs_f64(secs))
            }
        }
    }
}

/// Retry, deadline, and fault-injection policy for a fault-tolerant
/// sweep.
#[derive(Debug)]
pub struct SweepPolicy {
    /// Extra attempts after the first for a failed or panicked cell
    /// (timeouts are never retried in-run).
    pub max_retries: u32,
    /// Per-cell wall-clock budget.
    pub cell_timeout: CellTimeout,
    /// Base delay of the exponential backoff before a retry; the actual
    /// delay adds deterministic jitter keyed on the cell and attempt.
    pub backoff_base: Duration,
    /// Seed for the backoff jitter.
    pub seed: u64,
    /// Deterministic fault injection (tests and the CI chaos smoke).
    pub faults: FaultPlan,
}

impl Default for SweepPolicy {
    fn default() -> Self {
        SweepPolicy {
            max_retries: 2,
            cell_timeout: CellTimeout::Auto,
            backoff_base: Duration::from_millis(10),
            seed: 0,
            faults: FaultPlan::none(),
        }
    }
}

/// How one grid cell resolved.
#[derive(Clone, Debug, PartialEq)]
pub enum CellOutcome {
    /// The cell produced its value on attempt `attempts`.
    Completed {
        /// 1-based attempt number that succeeded.
        attempts: u32,
    },
    /// The cell's value was restored bit-identically from a resume
    /// journal; it was not re-run.
    Restored,
    /// Every attempt failed; the sweep carries on without this cell.
    Failed {
        /// The final attempt's error (or panic message).
        error: String,
        /// Whether the final attempt panicked (vs. returned an error).
        panicked: bool,
        /// Total attempts made.
        attempts: u32,
    },
    /// The cell overran its wall-clock budget and was cancelled at a
    /// frame/packet boundary.
    TimedOut {
        /// The budget it overran.
        budget: Duration,
        /// Attempts made (always the attempt that timed out).
        attempts: u32,
        /// Per-stage codec nanoseconds attributed before the deadline,
        /// in [`hdvb_trace::CODEC_STAGES`] order (all zero when the
        /// sweep ran untraced).
        stage_ns: [u64; 6],
    },
}

impl CellOutcome {
    /// True for [`Completed`] and [`Restored`] — the cell has a value.
    ///
    /// [`Completed`]: CellOutcome::Completed
    /// [`Restored`]: CellOutcome::Restored
    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Completed { .. } | CellOutcome::Restored)
    }

    /// A short label for tables: `completed`, `restored`, `failed`,
    /// `failed (panic)`, or `timed-out`.
    pub fn label(&self) -> &'static str {
        match self {
            CellOutcome::Completed { .. } => "completed",
            CellOutcome::Restored => "restored",
            CellOutcome::Failed { panicked: true, .. } => "failed (panic)",
            CellOutcome::Failed { .. } => "failed",
            CellOutcome::TimedOut { .. } => "timed-out",
        }
    }
}

/// One cell's identity and outcome in a fault-tolerant sweep.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// Position in grid order (the fault-injection index space).
    pub index: usize,
    /// Human-readable cell description, e.g. `576p25 rush_hour h264`.
    pub label: String,
    /// The journal key (FNV-1a 64 of the canonical inputs).
    pub key: u64,
    /// How the cell resolved.
    pub outcome: CellOutcome,
}

/// The outcome of a fault-tolerant sweep: execution statistics plus a
/// typed per-cell accounting.
#[derive(Debug)]
pub struct FtSweepReport {
    /// Wall/CPU/worker statistics for the whole sweep.
    pub execution: ExecutionReport,
    /// One entry per grid cell, in grid order.
    pub cells: Vec<CellReport>,
    /// Journal lines skipped during resume because their checksum or
    /// parse failed (torn writes, garbled records).
    pub journal_bad_lines: usize,
}

impl FtSweepReport {
    /// Cells restored from the resume journal without re-running.
    pub fn restored(&self) -> usize {
        self.count(|o| matches!(o, CellOutcome::Restored))
    }

    /// Cells that completed in this run.
    pub fn completed(&self) -> usize {
        self.count(|o| matches!(o, CellOutcome::Completed { .. }))
    }

    /// Cells that exhausted their attempts.
    pub fn failed(&self) -> usize {
        self.count(|o| matches!(o, CellOutcome::Failed { .. }))
    }

    /// Cells that overran their deadline budget.
    pub fn timed_out(&self) -> usize {
        self.count(|o| matches!(o, CellOutcome::TimedOut { .. }))
    }

    /// True when every cell has a value.
    pub fn all_ok(&self) -> bool {
        self.cells.iter().all(|c| c.outcome.is_ok())
    }

    fn count(&self, f: impl Fn(&CellOutcome) -> bool) -> usize {
        self.cells.iter().filter(|c| f(&c.outcome)).count()
    }

    /// A human-readable accounting of the sweep: one headline, then a
    /// table of every cell that did *not* produce a value (empty when
    /// the sweep was clean).
    pub fn failure_summary(&self) -> String {
        let mut out = format!(
            "cells: {} completed, {} restored, {} failed, {} timed out",
            self.completed(),
            self.restored(),
            self.failed(),
            self.timed_out(),
        );
        if self.journal_bad_lines > 0 {
            out.push_str(&format!(
                "\nwarning: {} journal record(s) failed checksum and were skipped; affected cells were re-run",
                self.journal_bad_lines
            ));
        }
        let bad: Vec<&CellReport> = self.cells.iter().filter(|c| !c.outcome.is_ok()).collect();
        if bad.is_empty() {
            out.push('\n');
            return out;
        }
        out.push_str("\n\n| # | cell | outcome | attempts | detail |\n");
        out.push_str("|--:|---|---|--:|---|\n");
        for c in bad {
            let (attempts, detail) = match &c.outcome {
                CellOutcome::Failed {
                    error, attempts, ..
                } => (*attempts, error.clone()),
                CellOutcome::TimedOut {
                    budget,
                    attempts,
                    stage_ns,
                } => (
                    *attempts,
                    format!(
                        "budget {:.1}s; {}",
                        budget.as_secs_f64(),
                        hdvb_trace::stage_breakdown(stage_ns)
                    ),
                ),
                _ => unreachable!("only non-ok outcomes reach here"),
            };
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} |\n",
                c.index,
                c.label,
                c.outcome.label(),
                attempts,
                detail.replace('|', "\\|"),
            ));
        }
        out
    }
}

/// A cell result that can round-trip through journal words
/// (`f64::to_bits` / raw `u64`) without losing a bit.
pub trait CellValue: Sized {
    /// Encodes the value as journal words.
    fn to_words(&self) -> Vec<u64>;
    /// Decodes journal words; `None` when the word count is wrong
    /// (a record from an incompatible sweep).
    fn from_words(words: &[u64]) -> Option<Self>;
}

impl CellValue for RdPoint {
    fn to_words(&self) -> Vec<u64> {
        vec![
            self.psnr_y.to_bits(),
            self.psnr_combined.to_bits(),
            self.ssim_y.to_bits(),
            self.bitrate_kbps.to_bits(),
        ]
    }

    fn from_words(words: &[u64]) -> Option<Self> {
        let [a, b, c, d] = *words else { return None };
        Some(RdPoint {
            psnr_y: f64::from_bits(a),
            psnr_combined: f64::from_bits(b),
            ssim_y: f64::from_bits(c),
            bitrate_kbps: f64::from_bits(d),
        })
    }
}

impl CellValue for Throughput {
    fn to_words(&self) -> Vec<u64> {
        let mut words = vec![self.encode_fps.to_bits(), self.decode_fps.to_bits()];
        words.extend_from_slice(&self.encode_stage_ns);
        words.extend_from_slice(&self.decode_stage_ns);
        words
    }

    fn from_words(words: &[u64]) -> Option<Self> {
        if words.len() != 14 {
            return None;
        }
        let mut encode_stage_ns = [0u64; 6];
        let mut decode_stage_ns = [0u64; 6];
        encode_stage_ns.copy_from_slice(&words[2..8]);
        decode_stage_ns.copy_from_slice(&words[8..14]);
        Some(Throughput {
            encode_fps: f64::from_bits(words[0]),
            decode_fps: f64::from_bits(words[1]),
            encode_stage_ns,
            decode_stage_ns,
        })
    }
}

/// The canonical inputs hash identifying a cell across runs: kind,
/// geometry, sequence, codec, and every coding option — the exact SIMD
/// tier included, so an SSE2 cell never restores from an AVX2 record.
/// A journal record only restores a cell whose key matches exactly.
fn cell_key(
    kind: &str,
    resolution: Resolution,
    sequence: SequenceId,
    codec: CodecId,
    frames: u32,
    options: &CodingOptions,
) -> u64 {
    let canon = format!(
        "{kind}|{}x{}|{}|{}|simd={}|frames={frames}|q={}|b={}|sr={}|ip={:?}|refs={}|qpoff={}",
        resolution.width(),
        resolution.height(),
        sequence.name(),
        codec.name(),
        options.simd.tier_name(),
        options.mpeg_qscale,
        options.b_frames,
        options.search_range,
        options.intra_period,
        options.h264_refs,
        options.h264_qp_offset,
    );
    fnv1a64(canon.as_bytes())
}

/// One cell of an artifact's grid: what to measure (`desc`), its
/// display label, journal key, and deadline budget. An artifact builds
/// its list once; the engine dispatches from it and the rows are
/// assembled from it.
struct FtCell<C> {
    desc: C,
    label: String,
    key: u64,
    budget: Option<Duration>,
}

/// Why a dispatched attempt did not produce a value.
enum CellErr {
    Timeout { stage_ns: [u64; 6] },
    Fail(String),
}

/// Deterministic jittered exponential backoff before retry `attempt`
/// (2-based): `base × 2^(attempt-2)` plus up to the same again of
/// jitter keyed on `(seed, cell key, attempt)`, capped at 200 ms.
fn backoff_jitter(seed: u64, base: Duration, key: u64, attempt: u32) -> Duration {
    let base_ms = (base.as_millis() as u64).max(1);
    let exp = base_ms.saturating_mul(1u64 << attempt.saturating_sub(2).min(4));
    let jitter = splitmix64(seed ^ key ^ u64::from(attempt)) % exp;
    Duration::from_millis((exp + jitter).min(200))
}

fn journal_io(path: &Path, e: std::io::Error) -> BenchError {
    BenchError::Journal(format!("{}: {e}", path.display()))
}

/// The sweep engine shared by the Table V and Figure 1 grids: resume
/// restore, round-based dispatch with panic isolation, retry with
/// backoff, deadline tokens, and journaling. Returns one value slot per
/// cell, in `cells` order (`None` where the cell did not complete).
///
/// Finished cells are appended to `journal_path` when given; `resume`
/// loads that same file first and restores every cell it records as
/// completed.
fn run_ft_cells<C, V, F>(
    runner: &ParallelRunner,
    kind: &'static str,
    cells: &[FtCell<C>],
    policy: &SweepPolicy,
    journal_path: Option<&Path>,
    resume: bool,
    f: F,
) -> Result<(Vec<Option<V>>, FtSweepReport), BenchError>
where
    C: Copy + Send + Sync,
    V: CellValue + Send,
    F: Fn(C, &CancelToken) -> Result<V, BenchError> + Sync,
{
    let n = cells.len();
    let t0 = Instant::now();

    let mut values: Vec<Option<V>> = (0..n).map(|_| None).collect();
    let mut outcomes: Vec<Option<CellOutcome>> = vec![None; n];
    let mut journal_bad_lines = 0;
    if resume {
        let path = journal_path.ok_or(BenchError::BadRequest("resume needs a journal path"))?;
        let load = load_journal(path).map_err(|e| journal_io(path, e))?;
        journal_bad_lines = load.bad_lines;
        let restorable = load.restorable(kind);
        for (i, cell) in cells.iter().enumerate() {
            if let Some(rec) = restorable.get(&cell.key) {
                if let Some(v) = V::from_words(&rec.words) {
                    values[i] = Some(v);
                    outcomes[i] = Some(CellOutcome::Restored);
                }
            }
        }
    }

    let writer = match journal_path {
        Some(p) => Some(Mutex::new(
            JournalWriter::append_to(p).map_err(|e| journal_io(p, e))?,
        )),
        None => None,
    };
    // The first journal I/O error inside a worker, surfaced after the
    // sweep (workers cannot return it through the cell result).
    let journal_err: Mutex<Option<std::io::Error>> = Mutex::new(None);
    let journal_append = |key: u64, outcome: JournalOutcome, attempts: u32, words: Vec<u64>| {
        if let Some(w) = &writer {
            let record = JournalRecord {
                key,
                kind: kind.to_string(),
                outcome,
                attempts,
                words,
            };
            let mut w = w.lock().unwrap_or_else(|e| e.into_inner());
            if let Err(e) = w.append(&record) {
                let mut slot = journal_err.lock().unwrap_or_else(|e| e.into_inner());
                slot.get_or_insert(e);
            }
        }
    };

    let mut pending: Vec<usize> = (0..n).filter(|&i| outcomes[i].is_none()).collect();
    if let Some(pool) = runner.pool() {
        pool.reset_stats();
    }

    let max_attempts = policy.max_retries.saturating_add(1);
    let mut attempt = 0u32;
    while !pending.is_empty() && attempt < max_attempts {
        attempt += 1;
        let round = std::mem::take(&mut pending);
        let items: Vec<(usize, u32)> = round.iter().map(|&i| (i, attempt)).collect();

        let run_one = |(idx, attempt): (usize, u32)| -> Result<V, CellErr> {
            let cell = &cells[idx];
            if attempt > 1 {
                std::thread::sleep(backoff_jitter(
                    policy.seed,
                    policy.backoff_base,
                    cell.key,
                    attempt,
                ));
            }
            // The deadline clock starts before fault injection so an
            // injected stall counts against the budget (that is how the
            // chaos smoke produces a timeout).
            let token = match cell.budget {
                None => CancelToken::never(),
                Some(budget) => CancelToken::with_budget(budget),
            };
            policy.faults.before_cell(idx, attempt);
            let _span = hdvb_trace::span!(hdvb_trace::Stage::Cell);
            let s0 = hdvb_trace::codec_stage_totals_local();
            match f(cell.desc, &token) {
                Ok(v) => {
                    journal_append(cell.key, JournalOutcome::Ok, attempt, v.to_words());
                    Ok(v)
                }
                Err(BenchError::Cancelled) => {
                    let stage_ns = stage_delta(hdvb_trace::codec_stage_totals_local(), s0);
                    let words = stage_ns.to_vec();
                    journal_append(cell.key, JournalOutcome::TimedOut, attempt, words);
                    Err(CellErr::Timeout { stage_ns })
                }
                Err(e) => {
                    journal_append(cell.key, JournalOutcome::Failed, attempt, Vec::new());
                    Err(CellErr::Fail(e.to_string()))
                }
            }
        };

        let results: Vec<Result<Result<V, CellErr>, TaskPanic>> = match runner.pool() {
            Some(pool) => pool.par_map_catch(items, run_one),
            None => items
                .into_iter()
                .enumerate()
                .map(|(slot, item)| {
                    catch_unwind(AssertUnwindSafe(|| run_one(item))).map_err(|payload| TaskPanic {
                        index: slot,
                        message: panic_text(payload),
                    })
                })
                .collect(),
        };

        for (&idx, result) in round.iter().zip(results) {
            let cell = &cells[idx];
            match result {
                Ok(Ok(v)) => {
                    values[idx] = Some(v);
                    outcomes[idx] = Some(CellOutcome::Completed { attempts: attempt });
                }
                Ok(Err(CellErr::Timeout { stage_ns })) => {
                    // Not retried in-run: the same budget would be
                    // overrun again. A resume pass re-runs it.
                    outcomes[idx] = Some(CellOutcome::TimedOut {
                        budget: cell.budget.unwrap_or(Duration::ZERO),
                        attempts: attempt,
                        stage_ns,
                    });
                }
                Ok(Err(CellErr::Fail(error))) => {
                    if attempt < max_attempts {
                        pending.push(idx);
                    } else {
                        outcomes[idx] = Some(CellOutcome::Failed {
                            error,
                            panicked: false,
                            attempts: attempt,
                        });
                    }
                }
                Err(panic) => {
                    // The worker could not journal a panicked attempt;
                    // record it here so a resume knows it was tried.
                    journal_append(cell.key, JournalOutcome::Failed, attempt, Vec::new());
                    if attempt < max_attempts {
                        pending.push(idx);
                    } else {
                        outcomes[idx] = Some(CellOutcome::Failed {
                            error: panic.message,
                            panicked: true,
                            attempts: attempt,
                        });
                    }
                }
            }
        }
    }

    let wall = t0.elapsed();
    let (cpu, workers, caller) = match runner.pool() {
        Some(pool) => {
            let stats = pool.stats();
            (stats.total_busy(), stats.workers, stats.caller)
        }
        None => (wall, Vec::new(), WorkerStats::default()),
    };

    drop(writer);
    if let Some(e) = journal_err.into_inner().unwrap_or_else(|e| e.into_inner()) {
        let path = journal_path.expect("journal error implies a journal path");
        return Err(journal_io(path, e));
    }
    // The torn-write fault fires after the journal is closed, so the
    // file looks exactly like a mid-run kill.
    if let (Some(path), Some(bytes)) = (journal_path, policy.faults.journal_truncate_bytes()) {
        truncate_journal(path, bytes).map_err(|e| journal_io(path, e))?;
    }

    let execution = ExecutionReport {
        threads: runner.threads(),
        wall,
        cpu,
        cells: n,
        workers,
        caller,
    };
    let cell_reports = cells
        .iter()
        .zip(outcomes)
        .enumerate()
        .map(|(index, (cell, outcome))| CellReport {
            index,
            label: cell.label.clone(),
            key: cell.key,
            outcome: outcome.expect("every cell resolves to an outcome"),
        })
        .collect();
    let report = FtSweepReport {
        execution,
        cells: cell_reports,
        journal_bad_lines,
    };
    Ok((values, report))
}

impl ParallelRunner {
    /// Measures the full Table V grid (every resolution × sequence ×
    /// codec rate-distortion point) and assembles the rows in grid
    /// order. Each cell resolves to a [`CellOutcome`] instead of
    /// aborting the run; failed cells surface as `NaN` points, rendered
    /// `n/a` by the report. Finished cells are appended to `journal`
    /// when given, and `resume` first restores the cells that file
    /// already records as completed.
    ///
    /// Resumed or not, at any thread count, the assembled values are
    /// bit-identical to [`crate::measure_rd_point`] called cell by
    /// cell: cells are deterministic and the journal stores `f64` bit
    /// patterns.
    ///
    /// # Errors
    ///
    /// Only infrastructure failures (journal I/O, `resume` without a
    /// `journal`); cell failures are reported in the [`FtSweepReport`].
    pub fn table5_rows(
        &self,
        resolutions: &[Resolution],
        frames: u32,
        options: &CodingOptions,
        policy: &SweepPolicy,
        journal: Option<&Path>,
        resume: bool,
    ) -> Result<(Vec<Table5Row>, FtSweepReport), BenchError> {
        // The grid, declared once. Codec is innermost, so every run of
        // `CodecId::ALL.len()` consecutive cells is one table row.
        let mut cells = Vec::new();
        for &resolution in resolutions {
            for sid in SequenceId::ALL {
                for codec in CodecId::ALL {
                    cells.push(FtCell {
                        desc: (resolution, sid, codec),
                        label: format!("{} {} {}", resolution.label(), sid.name(), codec.name()),
                        key: cell_key("table5", resolution, sid, codec, frames, options),
                        budget: policy.cell_timeout.budget_for(resolution, frames),
                    });
                }
            }
        }
        let opts = *options;
        let (points, report) = run_ft_cells(
            self,
            "table5",
            &cells,
            policy,
            journal,
            resume,
            move |(resolution, sid, codec), cancel| {
                let seq = Sequence::new(sid, resolution);
                measure_rd_point_cancellable(codec, seq, frames, &opts, cancel)
            },
        )?;

        let per_row = CodecId::ALL.len();
        let rows = cells
            .chunks(per_row)
            .zip(points.chunks(per_row))
            .map(|(row_cells, row_values)| {
                let (resolution, sequence, _) = row_cells[0].desc;
                let mut points = [(f64::NAN, f64::NAN); 3];
                for (slot, rd) in points.iter_mut().zip(row_values) {
                    if let Some(rd) = rd {
                        *slot = (rd.psnr_y, rd.bitrate_kbps);
                    }
                }
                Table5Row {
                    resolution,
                    sequence,
                    points,
                }
            })
            .collect();
        Ok((rows, report))
    }

    /// Measures the Figure 1 grid for `part` — every resolution × SIMD
    /// tier this CPU supports × codec × sequence — and assembles the
    /// bar rows (fps averaged over the input sequences). Each cell
    /// resolves to a [`CellOutcome`], with optional journaling and
    /// resume as for [`table5_rows`](ParallelRunner::table5_rows). A
    /// missing cell contributes `NaN` to its bar's average, rendered
    /// `n/a` by the report.
    ///
    /// # Errors
    ///
    /// Only infrastructure failures (journal I/O, `resume` without a
    /// `journal`); cell failures are reported in the [`FtSweepReport`].
    // One argument over clippy's limit, but every caller passes all of
    // them and a config struct would just restate `SweepPolicy`.
    #[allow(clippy::too_many_arguments)]
    pub fn figure1_rows(
        &self,
        resolutions: &[Resolution],
        frames: u32,
        options: &CodingOptions,
        part: Figure1Part,
        policy: &SweepPolicy,
        journal: Option<&Path>,
        resume: bool,
    ) -> Result<(Vec<Figure1Row>, FtSweepReport), BenchError> {
        // The grid, declared once. Sequence is innermost, then codec,
        // so every run of `per_tier` consecutive cells is one
        // (resolution, tier) pair: a decode bar row, an encode bar row,
        // or both, as `part` selects.
        let n_seqs = SequenceId::ALL.len();
        let per_tier = CodecId::ALL.len() * n_seqs;
        let mut cells = Vec::new();
        for &resolution in resolutions {
            for simd in SimdLevel::supported_tiers() {
                if part.directions(simd).next().is_none() {
                    continue;
                }
                for codec in CodecId::ALL {
                    for sid in SequenceId::ALL {
                        cells.push(FtCell {
                            desc: (resolution, simd, codec, sid),
                            label: format!(
                                "{} {} {} {}",
                                resolution.label(),
                                simd.tier_name(),
                                codec.name(),
                                sid.name()
                            ),
                            key: cell_key(
                                "figure1",
                                resolution,
                                sid,
                                codec,
                                frames,
                                &options.with_simd(simd),
                            ),
                            budget: policy.cell_timeout.budget_for(resolution, frames),
                        });
                    }
                }
            }
        }
        let opts = *options;
        let (throughputs, report) = run_ft_cells(
            self,
            "figure1",
            &cells,
            policy,
            journal,
            resume,
            move |(resolution, simd, codec, sid), cancel| {
                let seq = Sequence::new(sid, resolution);
                measure_figure1_row_cancellable(codec, seq, frames, &opts.with_simd(simd), cancel)
            },
        )?;

        let missing = Throughput {
            encode_fps: f64::NAN,
            decode_fps: f64::NAN,
            encode_stage_ns: [0; 6],
            decode_stage_ns: [0; 6],
        };
        let mut rows = Vec::new();
        for (tier_cells, tier_values) in cells.chunks(per_tier).zip(throughputs.chunks(per_tier)) {
            let (resolution, tier, ..) = tier_cells[0].desc;
            let mut enc_fps = [0.0; 3];
            let mut dec_fps = [0.0; 3];
            let mut enc_stages = [[0u64; 6]; 3];
            let mut dec_stages = [[0u64; 6]; 3];
            for (ci, codec_values) in tier_values.chunks(n_seqs).enumerate() {
                let mut enc_sum = 0.0;
                let mut dec_sum = 0.0;
                for t in codec_values {
                    let t = t.unwrap_or(missing);
                    enc_sum += t.encode_fps;
                    dec_sum += t.decode_fps;
                    for (k, (e, d)) in t.encode_stage_ns.iter().zip(&t.decode_stage_ns).enumerate()
                    {
                        enc_stages[ci][k] += e;
                        dec_stages[ci][k] += d;
                    }
                }
                enc_fps[ci] = enc_sum / n_seqs as f64;
                dec_fps[ci] = dec_sum / n_seqs as f64;
            }
            for decode in part.directions(tier) {
                rows.push(Figure1Row {
                    resolution,
                    decode,
                    tier,
                    fps: if decode { dec_fps } else { enc_fps },
                    stages: if decode { dec_stages } else { enc_stages },
                });
            }
        }
        Ok((rows, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_cells(n: usize) -> Vec<FtCell<usize>> {
        synthetic_cells_with_budget(n, None)
    }

    fn synthetic_cells_with_budget(n: usize, budget: Option<Duration>) -> Vec<FtCell<usize>> {
        (0..n)
            .map(|i| FtCell {
                desc: i,
                label: format!("cell {i}"),
                key: fnv1a64(format!("synthetic|{i}").as_bytes()),
                budget,
            })
            .collect()
    }

    #[test]
    fn cell_key_is_pinned() {
        // Journals are keyed by this hash; a drifting key silently
        // re-runs every cell of a resumed sweep.
        let options = CodingOptions {
            simd: SimdLevel::Scalar,
            ..CodingOptions::default()
        };
        let key = cell_key(
            "table5",
            Resolution::new(96, 80),
            SequenceId::BlueSky,
            CodecId::Mpeg2,
            4,
            &options,
        );
        assert_eq!(key, 0x320a_dc85_9352_1780);
    }

    fn value(i: usize) -> RdPoint {
        RdPoint {
            psnr_y: i as f64 + 0.25,
            psnr_combined: i as f64 + 0.5,
            ssim_y: 0.9,
            bitrate_kbps: 1000.0 + i as f64,
        }
    }

    fn temp_journal(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hdvb-sweep-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn cell_keys_distinguish_every_input() {
        let opts = CodingOptions::default();
        let res = Resolution::new(64, 48);
        let base = cell_key(
            "table5",
            res,
            SequenceId::RushHour,
            CodecId::Mpeg2,
            4,
            &opts,
        );
        assert_eq!(
            base,
            cell_key(
                "table5",
                res,
                SequenceId::RushHour,
                CodecId::Mpeg2,
                4,
                &opts
            ),
            "key must be stable"
        );
        for other in [
            cell_key(
                "figure1",
                res,
                SequenceId::RushHour,
                CodecId::Mpeg2,
                4,
                &opts,
            ),
            cell_key("table5", res, SequenceId::BlueSky, CodecId::Mpeg2, 4, &opts),
            cell_key("table5", res, SequenceId::RushHour, CodecId::H264, 4, &opts),
            cell_key(
                "table5",
                res,
                SequenceId::RushHour,
                CodecId::Mpeg2,
                5,
                &opts,
            ),
            cell_key(
                "table5",
                res,
                SequenceId::RushHour,
                CodecId::Mpeg2,
                4,
                &opts.with_qscale(6),
            ),
        ] {
            assert_ne!(base, other);
        }
        // The exact tier, not the paper's two-way scalar/simd legend:
        // Figure 1 measures SSE2 and AVX2 as separate cells.
        let tier_key = |simd| {
            cell_key(
                "figure1",
                res,
                SequenceId::RushHour,
                CodecId::Mpeg2,
                4,
                &opts.with_simd(simd),
            )
        };
        assert_ne!(tier_key(SimdLevel::Sse2), tier_key(SimdLevel::Avx2));
        assert_ne!(tier_key(SimdLevel::Scalar), tier_key(SimdLevel::Sse2));
    }

    #[test]
    fn auto_budget_clamps() {
        let small = CellTimeout::Auto
            .budget_for(Resolution::new(64, 48), 4)
            .unwrap();
        assert_eq!(small, Duration::from_secs(120), "floor");
        let huge = CellTimeout::Auto
            .budget_for(Resolution::new(3840, 2160), 100_000)
            .unwrap();
        assert_eq!(huge, Duration::from_secs(7200), "ceiling");
        assert_eq!(
            CellTimeout::Off.budget_for(Resolution::new(64, 48), 4),
            None
        );
    }

    #[test]
    fn panicking_cell_is_retried_and_heals() {
        for threads in [1, 3] {
            let runner = ParallelRunner::new(threads);
            let policy = SweepPolicy {
                faults: FaultPlan::parse("panic@1x1").unwrap(),
                ..SweepPolicy::default()
            };
            let (values, report) = run_ft_cells(
                &runner,
                "table5",
                &synthetic_cells(4),
                &policy,
                None,
                false,
                |i, _cancel: &CancelToken| Ok(value(i)),
            )
            .unwrap();
            assert!(report.all_ok(), "threads {threads}");
            for (i, v) in values.iter().enumerate() {
                assert_eq!(
                    v.as_ref().unwrap().psnr_y.to_bits(),
                    value(i).psnr_y.to_bits()
                );
            }
            assert_eq!(
                report.cells[1].outcome,
                CellOutcome::Completed { attempts: 2 },
                "threads {threads}: the panicked cell needed a retry"
            );
            assert_eq!(
                report.cells[0].outcome,
                CellOutcome::Completed { attempts: 1 }
            );
        }
    }

    #[test]
    fn exhausted_retries_become_failed_with_panic_flag() {
        let runner = ParallelRunner::new(2);
        let policy = SweepPolicy {
            max_retries: 1,
            faults: FaultPlan::parse("panic@0x9").unwrap(),
            ..SweepPolicy::default()
        };
        let (values, report) = run_ft_cells(
            &runner,
            "table5",
            &synthetic_cells(2),
            &policy,
            None,
            false,
            |i, _cancel: &CancelToken| Ok(value(i)),
        )
        .unwrap();
        assert!(values[0].is_none());
        match &report.cells[0].outcome {
            CellOutcome::Failed {
                panicked,
                attempts,
                error,
            } => {
                assert!(*panicked);
                assert_eq!(*attempts, 2);
                assert!(error.contains("injected fault"), "{error}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(report.failed(), 1);
        assert!(report.failure_summary().contains("failed (panic)"));
    }

    #[test]
    fn deadline_overrun_times_out_without_retry() {
        let runner = ParallelRunner::new(1);
        let policy = SweepPolicy {
            faults: FaultPlan::parse("stall@1:80").unwrap(),
            ..SweepPolicy::default()
        };
        let (values, report) = run_ft_cells(
            &runner,
            "table5",
            &synthetic_cells_with_budget(3, Some(Duration::from_millis(20))),
            &policy,
            None,
            false,
            |i, cancel: &CancelToken| {
                // A cooperative cell: checks its token like the codecs
                // do at picture boundaries.
                if cancel.is_cancelled() {
                    return Err(BenchError::Cancelled);
                }
                Ok(value(i))
            },
        )
        .unwrap();
        assert!(values[1].is_none());
        match &report.cells[1].outcome {
            CellOutcome::TimedOut {
                budget, attempts, ..
            } => {
                assert_eq!(*budget, Duration::from_millis(20));
                assert_eq!(*attempts, 1, "timeouts are not retried in-run");
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        assert_eq!(report.timed_out(), 1);
        assert!(report.failure_summary().contains("timed-out"));
        assert!(values[0].is_some() && values[2].is_some());
    }

    #[test]
    fn journal_resume_restores_bit_identical_values() {
        let path = temp_journal("resume.journal");
        let runner = ParallelRunner::new(2);

        // First run: one cell fails every attempt, the rest complete
        // and are journaled.
        let policy = SweepPolicy {
            max_retries: 0,
            faults: FaultPlan::parse("panic@2x9").unwrap(),
            ..SweepPolicy::default()
        };
        let (first_vals, first) = run_ft_cells(
            &runner,
            "table5",
            &synthetic_cells(5),
            &policy,
            Some(&path),
            false,
            |i, _cancel: &CancelToken| Ok(value(i)),
        )
        .unwrap();
        assert_eq!(first.failed(), 1);
        assert_eq!(first.completed(), 4);

        // Resume: completed cells restore without re-running (inject a
        // panic for every completed cell to prove they are skipped);
        // the failed cell re-runs and heals.
        let policy = SweepPolicy {
            faults: FaultPlan::parse("panic@0x9,panic@1x9,panic@3x9,panic@4x9").unwrap(),
            ..SweepPolicy::default()
        };
        let (vals, resumed) = run_ft_cells(
            &runner,
            "table5",
            &synthetic_cells(5),
            &policy,
            Some(&path),
            true,
            |i, _cancel: &CancelToken| Ok(value(i)),
        )
        .unwrap();
        assert!(resumed.all_ok());
        assert_eq!(resumed.restored(), 4);
        assert_eq!(resumed.completed(), 1);
        assert_eq!(
            resumed.cells[2].outcome,
            CellOutcome::Completed { attempts: 1 }
        );
        for i in 0..5 {
            let got = vals[i].as_ref().unwrap();
            let want = value(i);
            assert_eq!(got.psnr_y.to_bits(), want.psnr_y.to_bits());
            assert_eq!(got.psnr_combined.to_bits(), want.psnr_combined.to_bits());
            assert_eq!(got.ssim_y.to_bits(), want.ssim_y.to_bits());
            assert_eq!(got.bitrate_kbps.to_bits(), want.bitrate_kbps.to_bits());
            if i != 2 {
                assert_eq!(
                    first_vals[i].as_ref().unwrap().psnr_y.to_bits(),
                    got.psnr_y.to_bits()
                );
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_journal_records_are_skipped_and_rerun() {
        let path = temp_journal("torn.journal");
        let runner = ParallelRunner::new(1);

        // Clean run journals all 3 cells, then the injected torn write
        // chops the file mid-record.
        let full_len = {
            let policy = SweepPolicy::default();
            run_ft_cells(
                &runner,
                "table5",
                &synthetic_cells(3),
                &policy,
                Some(&path),
                false,
                |i, _c: &CancelToken| Ok(value(i)),
            )
            .unwrap();
            std::fs::metadata(&path).unwrap().len()
        };
        let policy = SweepPolicy {
            faults: FaultPlan::parse(&format!("truncate-journal@{}", full_len - 7)).unwrap(),
            ..SweepPolicy::default()
        };
        // Re-running with the truncation fault leaves a torn tail.
        run_ft_cells(
            &runner,
            "table5",
            &synthetic_cells(3),
            &policy,
            Some(&path),
            true,
            |i, _c: &CancelToken| Ok(value(i)),
        )
        .unwrap();

        // Resume from the torn journal: the garbled record is counted,
        // its cell re-runs, the others restore.
        let (vals, report) = run_ft_cells(
            &runner,
            "table5",
            &synthetic_cells(3),
            &SweepPolicy::default(),
            Some(&path),
            true,
            |i, _c: &CancelToken| Ok(value(i)),
        )
        .unwrap();
        assert!(report.journal_bad_lines >= 1);
        assert!(report.all_ok());
        assert_eq!(report.restored() + report.completed(), 3);
        assert!(report.completed() >= 1, "the torn cell must re-run");
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(
                v.as_ref().unwrap().psnr_y.to_bits(),
                value(i).psnr_y.to_bits()
            );
        }
        assert!(report.failure_summary().contains("journal record"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn table5_rows_match_the_cell_function_at_any_thread_count() {
        let resolutions = [Resolution::new(64, 48)];
        let options = CodingOptions::default();
        for threads in [1, 4] {
            let runner = ParallelRunner::new(threads);
            let (rows, report) = runner
                .table5_rows(
                    &resolutions,
                    4,
                    &options,
                    &SweepPolicy::default(),
                    None,
                    false,
                )
                .unwrap();
            assert!(report.all_ok());
            assert_eq!(report.execution.cells, 12);
            assert!(report.execution.summary().contains("cells"));
            assert_eq!(rows.len(), SequenceId::ALL.len());
            for (row, sid) in rows.iter().zip(SequenceId::ALL) {
                assert_eq!(row.sequence, sid);
                let seq = Sequence::new(sid, row.resolution);
                for (point, codec) in row.points.iter().zip(CodecId::ALL) {
                    let rd = crate::measure_rd_point(codec, seq, 4, &options).unwrap();
                    // Bit-identical cells: f64 equality is intentional.
                    assert_eq!(point.0.to_bits(), rd.psnr_y.to_bits());
                    assert_eq!(point.1.to_bits(), rd.bitrate_kbps.to_bits());
                }
            }
        }
    }
}
