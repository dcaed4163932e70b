//! The append-only sweep journal behind `--resume`.
//!
//! Every cell of a fault-tolerant sweep appends one line per resolved
//! attempt, flushed immediately so a killed run leaves at most one torn
//! line. Each line is independently checksummed (FNV-1a 64 over the
//! payload), so the loader can detect truncated or garbled records,
//! skip them with a count, and let the sweep re-run the affected cells.
//!
//! Line format (one record per line, ASCII):
//!
//! ```text
//! J1 <fnv64-hex> key=<hex16> kind=<table5|figure1> outcome=<ok|failed|timeout> attempts=<n> words=<w0>,<w1>,...
//! ```
//!
//! * `key` is the FNV-1a 64 hash of the cell's canonical input string
//!   (resolution, sequence, codec, SIMD tier, frame count, and every
//!   coding option) — a cell is only restored when its inputs match.
//! * `words` carries the cell's result as `f64::to_bits` words in hex,
//!   so a restored value is **bit-identical** to the computed one.
//! * Duplicate keys resolve last-record-wins: a re-run after a failure
//!   appends a newer record that supersedes the old one.

use hdvb_bits::hash::fnv1a64;
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// How a journaled attempt resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalOutcome {
    /// The cell completed; `words` holds its result.
    Ok,
    /// The cell's final attempt failed (error or panic).
    Failed,
    /// The cell overran its deadline budget.
    TimedOut,
}

impl JournalOutcome {
    fn as_str(self) -> &'static str {
        match self {
            JournalOutcome::Ok => "ok",
            JournalOutcome::Failed => "failed",
            JournalOutcome::TimedOut => "timeout",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "ok" => Some(JournalOutcome::Ok),
            "failed" => Some(JournalOutcome::Failed),
            "timeout" => Some(JournalOutcome::TimedOut),
            _ => None,
        }
    }
}

impl fmt::Display for JournalOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One journal record: a cell's inputs hash, how its attempt resolved,
/// and (for `Ok`) the result encoded as `f64` bit-pattern words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalRecord {
    /// FNV-1a 64 hash of the cell's canonical input description.
    pub key: u64,
    /// Which sweep produced it (`"table5"` or `"figure1"`).
    pub kind: String,
    /// How the attempt resolved.
    pub outcome: JournalOutcome,
    /// Attempt count when the record was written (1-based).
    pub attempts: u32,
    /// The result payload: `f64::to_bits` words for `Ok` records,
    /// per-stage nanoseconds for `TimedOut`, empty for `Failed`.
    pub words: Vec<u64>,
}

impl JournalRecord {
    /// Serialises the record as its payload substring (everything the
    /// checksum covers).
    fn payload(&self) -> String {
        let words: Vec<String> = self.words.iter().map(|w| format!("{w:016x}")).collect();
        format!(
            "key={:016x} kind={} outcome={} attempts={} words={}",
            self.key,
            self.kind,
            self.outcome,
            self.attempts,
            words.join(",")
        )
    }

    /// Serialises the full journal line (with magic and checksum).
    pub fn to_line(&self) -> String {
        let payload = self.payload();
        format!("J1 {:016x} {payload}", fnv1a64(payload.as_bytes()))
    }

    /// Parses a journal line, verifying magic and checksum. Returns
    /// `None` for anything torn, garbled, or from a future format.
    pub fn parse_line(line: &str) -> Option<Self> {
        let rest = line.strip_prefix("J1 ")?;
        let (sum_hex, payload) = rest.split_once(' ')?;
        let sum = u64::from_str_radix(sum_hex, 16).ok()?;
        if sum != fnv1a64(payload.as_bytes()) {
            return None;
        }
        let mut key = None;
        let mut kind = None;
        let mut outcome = None;
        let mut attempts = None;
        let mut words = None;
        for field in payload.split(' ') {
            let (name, value) = field.split_once('=')?;
            match name {
                "key" => key = Some(u64::from_str_radix(value, 16).ok()?),
                "kind" => kind = Some(value.to_string()),
                "outcome" => outcome = Some(JournalOutcome::from_str(value)?),
                "attempts" => attempts = Some(value.parse().ok()?),
                "words" => {
                    let mut ws = Vec::new();
                    if !value.is_empty() {
                        for w in value.split(',') {
                            ws.push(u64::from_str_radix(w, 16).ok()?);
                        }
                    }
                    words = Some(ws);
                }
                _ => return None,
            }
        }
        Some(JournalRecord {
            key: key?,
            kind: kind?,
            outcome: outcome?,
            attempts: attempts?,
            words: words?,
        })
    }
}

/// Appends checksummed records to a journal file, flushing each one so
/// a killed process loses at most the line being written.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
}

impl JournalWriter {
    /// Opens (creating if needed) `path` for appending.
    ///
    /// If the file ends in a torn line (a kill mid-write), a newline is
    /// written first so the torn tail becomes its own bad record
    /// instead of swallowing the next append.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn append_to(path: &Path) -> io::Result<Self> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        let len = file.metadata()?.len();
        if len > 0 {
            file.seek(SeekFrom::End(-1))?;
            let mut last = [0u8; 1];
            file.read_exact(&mut last)?;
            if last[0] != b'\n' {
                file.write_all(b"\n")?;
            }
        }
        Ok(JournalWriter {
            file,
            path: path.to_path_buf(),
        })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn append(&mut self, record: &JournalRecord) -> io::Result<()> {
        let mut line = record.to_line();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.flush()
    }
}

/// The result of loading a journal: the surviving records in file
/// order, plus how many lines failed their checksum or parse.
#[derive(Debug, Default)]
pub struct JournalLoad {
    /// Valid records in file order.
    pub records: Vec<JournalRecord>,
    /// Lines skipped because they were torn, garbled, or unparseable.
    pub bad_lines: usize,
}

impl JournalLoad {
    /// Collapses the records last-record-wins per key, keeping only
    /// `Ok` outcomes of the given kind — the restorable set.
    pub fn restorable(&self, kind: &str) -> HashMap<u64, &JournalRecord> {
        let mut map: HashMap<u64, &JournalRecord> = HashMap::new();
        for rec in &self.records {
            if rec.kind == kind {
                map.insert(rec.key, rec);
            }
        }
        map.retain(|_, rec| rec.outcome == JournalOutcome::Ok);
        map
    }
}

/// Loads a journal file, skipping (and counting) bad records.
///
/// # Errors
///
/// Propagates the underlying I/O error; a missing file is an error (the
/// caller asked to resume from it), but bad *records* are not.
pub fn load_journal(path: &Path) -> io::Result<JournalLoad> {
    let reader = BufReader::new(File::open(path)?);
    let mut load = JournalLoad::default();
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match JournalRecord::parse_line(&line) {
            Some(rec) => load.records.push(rec),
            None => load.bad_lines += 1,
        }
    }
    Ok(load)
}

/// Truncates a journal file to `bytes` bytes — the fault-injection
/// backend for `truncate-journal@<bytes>`, simulating a torn write.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn truncate_journal(path: &Path, bytes: u64) -> io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(key: u64, outcome: JournalOutcome, words: Vec<u64>) -> JournalRecord {
        JournalRecord {
            key,
            kind: "table5".into(),
            outcome,
            attempts: 1,
            words,
        }
    }

    #[test]
    fn j1_line_format_is_pinned() {
        // A journal written by any earlier build must keep loading: the
        // line layout and its FNV-1a 64 checksum are a file format.
        let r = rec(0xdead_beef, JournalOutcome::Ok, vec![1.5f64.to_bits(), 0]);
        assert_eq!(
            r.to_line(),
            "J1 85a71b382ab2ca17 key=00000000deadbeef kind=table5 outcome=ok attempts=1 \
             words=3ff8000000000000,0000000000000000"
        );
    }

    #[test]
    fn record_line_round_trips() {
        let r = rec(0xdead_beef, JournalOutcome::Ok, vec![1.5f64.to_bits(), 0]);
        let line = r.to_line();
        assert_eq!(JournalRecord::parse_line(&line), Some(r));
    }

    #[test]
    fn f64_bits_survive_round_trip() {
        for v in [0.0, -0.0, 1.0 / 3.0, f64::NAN, f64::INFINITY, 42.123] {
            let r = rec(1, JournalOutcome::Ok, vec![v.to_bits()]);
            let back = JournalRecord::parse_line(&r.to_line()).unwrap();
            assert_eq!(back.words[0], v.to_bits());
        }
    }

    #[test]
    fn garbled_lines_fail_checksum() {
        let line = rec(7, JournalOutcome::Ok, vec![3]).to_line();
        // Flip one payload character.
        let garbled = line.replace("attempts=1", "attempts=2");
        assert!(JournalRecord::parse_line(&garbled).is_none());
        // Truncation mid-line.
        assert!(JournalRecord::parse_line(&line[..line.len() - 4]).is_none());
        assert!(JournalRecord::parse_line("not a record").is_none());
    }

    #[test]
    fn last_record_wins_and_only_ok_restores() {
        let mut load = JournalLoad::default();
        load.records.push(rec(1, JournalOutcome::Failed, vec![]));
        load.records.push(rec(1, JournalOutcome::Ok, vec![9]));
        load.records.push(rec(2, JournalOutcome::Ok, vec![5]));
        load.records.push(rec(2, JournalOutcome::TimedOut, vec![]));
        let map = load.restorable("table5");
        assert_eq!(map.get(&1).map(|r| r.words[0]), Some(9));
        // Key 2's newest record is a timeout: not restorable.
        assert!(!map.contains_key(&2));
        assert!(load.restorable("figure1").is_empty());
    }

    #[test]
    fn writer_and_loader_round_trip_with_truncation() {
        let dir = std::env::temp_dir().join(format!("hdvb-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.journal");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JournalWriter::append_to(&path).unwrap();
            for k in 0..4u64 {
                w.append(&rec(k, JournalOutcome::Ok, vec![k * 10])).unwrap();
            }
        }
        let full = load_journal(&path).unwrap();
        assert_eq!(full.records.len(), 4);
        assert_eq!(full.bad_lines, 0);

        // Truncate into the middle of the last record: 3 survive, the
        // torn tail is counted as bad.
        let len = std::fs::metadata(&path).unwrap().len();
        truncate_journal(&path, len - 5).unwrap();
        let cut = load_journal(&path).unwrap();
        assert_eq!(cut.records.len(), 3);
        assert_eq!(cut.bad_lines, 1);

        // Appending after truncation keeps working (resume writes to
        // the same file it loaded).
        let mut w = JournalWriter::append_to(&path).unwrap();
        w.append(&rec(3, JournalOutcome::Ok, vec![30])).unwrap();
        drop(w);
        let healed = load_journal(&path).unwrap();
        assert_eq!(healed.records.len(), 4);
        assert_eq!(healed.restorable("table5").len(), 4);
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_dir(&dir);
    }
}
