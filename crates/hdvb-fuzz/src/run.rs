//! The fuzzing loop: coverage-proxy-scheduled mutation, differential
//! checking, failure minimisation and corpus persistence.

use crate::corpus::{golden_vectors, load_corpus, save_entry, seed_entries};
use crate::mutate::{mutate, Mutator};
use crate::oracle::{differential_check, EntryOutcome};
use crate::rng::FuzzRng;
use hdvb_bits::hash::fnv1a64;
use hdvb_par::ThreadPool;
use std::collections::HashSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fuzzing-run parameters (the `hdvb fuzz` flags).
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Wall-clock budget for the mutation loop (replay is extra).
    pub seconds: u64,
    /// PRNG seed; equal seeds produce equal mutation schedules.
    pub seed: u64,
    /// Directory of `*.hvb` entries to replay first and to persist
    /// failure reproducers into. `None` = in-memory only.
    pub corpus_dir: Option<PathBuf>,
    /// Worker threads for the pooled leg of the differential oracle;
    /// values below 2 skip the pool axis.
    pub threads: usize,
    /// Optional hard cap on mutation executions (useful for exactly
    /// reproducible runs regardless of machine speed).
    pub max_execs: Option<u64>,
    /// Encoder round-trip cases to run before the mutation loop
    /// ([`crate::roundtrip_check`]); `0` disables the encoder oracle.
    pub roundtrips: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seconds: 60,
            seed: 1,
            corpus_dir: None,
            threads: 4,
            max_execs: None,
            roundtrips: 16,
        }
    }
}

/// One reproducer the run found (already minimised).
#[derive(Clone, Debug)]
pub struct Failure {
    /// Stable name derived from the reproducer's content hash.
    pub name: String,
    /// Minimised input bytes.
    pub data: Vec<u8>,
    /// Human-readable description of what went wrong.
    pub reason: String,
    /// Where the reproducer was persisted, when a corpus dir was given.
    pub saved_to: Option<PathBuf>,
}

/// Summary of a fuzzing run.
#[derive(Debug)]
pub struct FuzzReport {
    /// Mutants executed through the differential oracle.
    pub executions: u64,
    /// Encoder round-trip cases executed through the encoder oracle.
    pub roundtrips: u64,
    /// Entries replayed before mutation (seeds + golden + on-disk corpus).
    pub replayed: usize,
    /// Live corpus size at the end of the run.
    pub corpus_entries: usize,
    /// Distinct coverage-proxy signatures observed.
    pub unique_signatures: usize,
    /// Panics and cross-tier divergences found (empty on a healthy tree).
    pub failures: Vec<Failure>,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

struct LiveEntry {
    data: Vec<u8>,
    /// Scheduler energy: 1 + number of new signatures this entry's
    /// mutants have produced. Productive parents are mutated more.
    score: u64,
}

/// Corpus file stem of a minimised failing input: stable across builds
/// so a re-found failure overwrites its own file instead of piling up.
fn failure_name(minimized: &[u8]) -> String {
    format!("failure--{:016x}", fnv1a64(minimized))
}

fn pick_weighted(entries: &[LiveEntry], rng: &mut FuzzRng) -> usize {
    let total: u64 = entries.iter().map(|e| e.score).sum();
    let mut target = rng.next_u64() % total.max(1);
    for (i, e) in entries.iter().enumerate() {
        if target < e.score {
            return i;
        }
        target -= e.score;
    }
    entries.len() - 1
}

/// Greedily shrinks `data` while `still_fails` holds: repeatedly tries
/// removing chunks (halving the chunk size down to one byte). Bounded,
/// deterministic, and purely byte-level — it does not need the input to
/// stay a parseable container, because the predicate re-runs the full
/// oracle each time.
pub fn minimize(data: &[u8], still_fails: impl Fn(&[u8]) -> bool) -> Vec<u8> {
    let mut best = data.to_vec();
    let mut chunk = (best.len() / 2).max(1);
    while chunk >= 1 {
        let mut offset = 0usize;
        let mut removed_any = false;
        while offset < best.len() {
            let end = (offset + chunk).min(best.len());
            let mut candidate = Vec::with_capacity(best.len() - (end - offset));
            candidate.extend_from_slice(&best[..offset]);
            candidate.extend_from_slice(&best[end..]);
            if !candidate.is_empty() && still_fails(&candidate) {
                best = candidate;
                removed_any = true;
                // Re-test the same offset against the shifted tail.
            } else {
                offset = end;
            }
        }
        if chunk == 1 && !removed_any {
            break;
        }
        chunk /= 2;
    }
    best
}

fn classify(data: &[u8], pool: Option<&ThreadPool>) -> Result<EntryOutcome, String> {
    match differential_check(data, pool) {
        Ok(outcome) if outcome.has_panic() => Err(format!(
            "decoder panic: {:?}",
            outcome
                .packets
                .iter()
                .find(|p| matches!(p, crate::oracle::PacketOutcome::Panic(_)))
        )),
        Ok(outcome) => Ok(outcome),
        Err(d) => Err(format!(
            "divergence between {} and {}: {} vs {}",
            d.baseline, d.against, d.baseline_outcome, d.against_outcome
        )),
    }
}

/// Runs the fuzzing loop described by `config`.
///
/// Replays the built-in seeds, the golden vectors and every entry of the
/// on-disk corpus first, then mutates until the time/execution budget is
/// exhausted. Reproducers for any panic or divergence are minimised and —
/// when a corpus directory is configured — persisted as
/// `failure--<hash>.hvb`.
///
/// # Errors
///
/// Only I/O errors from corpus loading/persistence; decoder misbehaviour
/// is reported through [`FuzzReport::failures`].
pub fn run_fuzz(config: &FuzzConfig) -> std::io::Result<FuzzReport> {
    let started = Instant::now();
    let mut rng = FuzzRng::new(config.seed);
    let pool = (config.threads >= 2).then(|| ThreadPool::new(config.threads));
    let pool_ref = pool.as_ref();

    let mut replay: Vec<(String, Vec<u8>)> = seed_entries();
    replay.extend(golden_vectors().into_iter().map(|g| (g.name, g.data)));
    if let Some(dir) = &config.corpus_dir {
        replay.extend(load_corpus(dir)?);
    }

    let mut corpus: Vec<LiveEntry> = Vec::new();
    let mut signatures: HashSet<u64> = HashSet::new();
    let mut failures: Vec<Failure> = Vec::new();
    let replayed = replay.len();

    // Encoder-side oracle: seeded round-trip cases through every codec,
    // SIMD tier and the pool. A failure here has no byte-level
    // reproducer to minimise — the `(seed, index)` pair in the reason
    // regenerates the case exactly.
    for index in 0..config.roundtrips {
        if let Err(reason) = crate::roundtrip::roundtrip_check(config.seed, index, pool_ref) {
            failures.push(Failure {
                name: format!("roundtrip--{}-{}", config.seed, index),
                data: Vec::new(),
                reason,
                saved_to: None,
            });
        }
    }

    let mut record_failure = |data: Vec<u8>, reason: String, origin: &str| {
        let minimized = minimize(&data, |candidate| classify(candidate, pool_ref).is_err());
        let name = failure_name(&minimized);
        let saved_to = match &config.corpus_dir {
            Some(dir) => save_entry(dir, &name, &minimized).ok(),
            None => None,
        };
        failures.push(Failure {
            name,
            data: minimized,
            reason: format!("{reason} (origin: {origin})"),
            saved_to,
        });
    };

    for (name, data) in replay {
        match classify(&data, pool_ref) {
            Ok(outcome) => {
                signatures.insert(outcome.signature());
                corpus.push(LiveEntry { data, score: 1 });
            }
            Err(reason) => record_failure(data, reason, &name),
        }
    }

    let deadline = started + Duration::from_secs(config.seconds);
    let mut executions = 0u64;
    while Instant::now() < deadline {
        if let Some(cap) = config.max_execs {
            if executions >= cap {
                break;
            }
        }
        if corpus.is_empty() {
            break; // every seed failed; nothing sensible to mutate
        }
        let parent = pick_weighted(&corpus, &mut rng);
        let other = rng.below(corpus.len());
        let mutator = Mutator::ALL[rng.below(Mutator::ALL.len())];
        let mutant = {
            let other_data: &[u8] = &corpus[other].data;
            mutate(&corpus[parent].data, mutator, other_data, &mut rng)
        };
        executions += 1;
        match classify(&mutant, pool_ref) {
            Ok(outcome) => {
                if signatures.insert(outcome.signature()) {
                    corpus[parent].score += 1;
                    corpus.push(LiveEntry {
                        data: mutant,
                        score: 1,
                    });
                }
            }
            Err(reason) => record_failure(mutant, reason, mutator.name()),
        }
    }

    Ok(FuzzReport {
        executions,
        roundtrips: config.roundtrips,
        replayed,
        corpus_entries: corpus.len(),
        unique_signatures: signatures.len(),
        failures,
        elapsed: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_file_names_are_pinned() {
        assert_eq!(failure_name(b""), "failure--cbf29ce484222325");
        assert_eq!(
            failure_name(b"HVB1\x02\x00\x7e"),
            "failure--315aebd4b1e998fe"
        );
    }

    #[test]
    fn minimize_shrinks_while_preserving_predicate() {
        // Predicate: contains the byte 0x7E somewhere.
        let mut data = vec![0u8; 200];
        data[137] = 0x7E;
        let out = minimize(&data, |d| d.contains(&0x7E));
        assert_eq!(out, vec![0x7E]);
    }

    #[test]
    fn short_deterministic_run_is_clean_and_repeatable() {
        let config = FuzzConfig {
            seconds: 600, // effectively unlimited; max_execs is the cap
            seed: 7,
            corpus_dir: None,
            threads: 0,
            max_execs: Some(40),
            roundtrips: 3,
        };
        let a = run_fuzz(&config).expect("fuzz run performs no I/O here");
        let b = run_fuzz(&config).expect("fuzz run performs no I/O here");
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert_eq!(a.executions, 40);
        assert_eq!(a.unique_signatures, b.unique_signatures);
        assert_eq!(a.corpus_entries, b.corpus_entries);
        assert!(a.unique_signatures > 3, "mutations found no new behaviour");
    }
}
