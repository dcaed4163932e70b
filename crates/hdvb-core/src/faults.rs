//! Deterministic fault injection: the spec grammar every fault plan in
//! the workspace is written in, and the plan that exercises the sweep
//! engine ([`crate::sweep`]).
//!
//! # The grammar
//!
//! A spec is a comma-separated list of tokens (blanks around a token
//! and empty tokens are ignored), parsed once by [`parse_fault_spec`]:
//!
//! * `<kind>@<index>[:<arg>][x<times>]` — fire at an exact index of the
//!   plan's own clock, with an optional numeric argument and an optional
//!   repeat count;
//! * `<kind>~<permille>` — fire with probability `<permille>/1000` at
//!   every opportunity, decided by a seeded draw;
//! * `seed=<n>` — seed for every derived decision (default 0). The seed
//!   is held apart from the rules, so its position in the spec never
//!   matters.
//!
//! The grammar fixes the shape; each plan accepts its own kinds and
//! forms and rejects the rest by name. [`FaultPlan`] (below) injects
//! into sweep cells; `hdvb_net::NetFaultPlan` injects into wire
//! messages (`drop@`, `truncate@`, `stall@`, `garble@`, neither `x` nor
//! `~`).
//!
//! # Sweep faults
//!
//! A [`FaultPlan`] is parsed from a spec string (the CLI and CI pass it
//! through the `HDVB_FAULTS` environment variable) and injected at the
//! per-cell entry point of the sweep engine. Faults are
//! *deterministic*: indexed rules fire at an exact `(cell, attempt)`
//! count, and the probabilistic rule is driven by a splitmix64 draw
//! keyed on `(seed, cell, attempt)`, so a given spec reproduces the
//! same failures on every run — the same philosophy as `hdvb-fuzz`'s
//! seeded corpus. Its kinds:
//!
//! * `panic@<cell>[x<times>]` — panic when cell `<cell>` starts, for
//!   its first `<times>` attempts (default 1). With `x2` the first
//!   retry panics too and the second retry succeeds.
//! * `stall@<cell>:<ms>[x<times>]` — sleep `<ms>` milliseconds before
//!   cell `<cell>` runs. The stall counts against the cell's deadline
//!   budget, so a stall longer than the budget produces a timeout.
//! * `panic~<permille>` — seeded probabilistic panic: each `(cell,
//!   attempt)` panics with probability `<permille>/1000`.
//! * `truncate-journal@<bytes>` — after the sweep, truncate the journal
//!   file to `<bytes>` bytes (simulates a torn write / mid-run kill).
//!
//! Example: `panic@2,stall@5:2000,seed=7`.

use hdvb_seq::splitmix64;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

/// One rule token of a fault spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultToken<'a> {
    /// The token as written, for error messages.
    pub text: &'a str,
    /// The rule name before `@` or `~`.
    pub kind: &'a str,
    /// Where the rule fires.
    pub target: FaultTarget,
}

/// Where a [`FaultToken`] fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    /// `<kind>~<permille>`.
    Permille(u32),
    /// `<kind>@<index>[:<arg>][x<times>]`: the index on the plan's own
    /// clock (cell, message, byte count), then the `:<arg>` parameter
    /// and the `x<times>` repeat count where written.
    At(u64, Option<u64>, Option<u32>),
}

/// Tokenizes a fault spec (see the module docs for the grammar) into
/// its seed — the last `seed=<n>`, or 0 — and its rule tokens in spec
/// order.
///
/// # Errors
///
/// A description of the first token that does not fit the grammar.
pub fn parse_fault_spec(spec: &str) -> Result<(u64, Vec<FaultToken<'_>>), String> {
    fn number<T: std::str::FromStr>(v: &str, what: &str, token: &str) -> Result<T, String> {
        v.parse()
            .map_err(|_| format!("bad {what} in fault spec: {token:?}"))
    }
    let (mut seed, mut rules) = (0, Vec::new());
    for text in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        if let Some(v) = text.strip_prefix("seed=") {
            seed = number(v, "seed", text)?;
        } else if let Some((kind, v)) = text.split_once('~') {
            let target = FaultTarget::Permille(number(v, "permille", text)?);
            rules.push(FaultToken { text, kind, target });
        } else if let Some((kind, v)) = text.split_once('@') {
            let (v, times) = match v.rsplit_once('x') {
                Some((head, t)) if !head.is_empty() => {
                    (head, Some(number(t, "repeat count", text)?))
                }
                _ => (v, None),
            };
            let (index, arg) = match v.split_once(':') {
                Some((index, arg)) => (index, Some(number(arg, "parameter", text)?)),
                None => (v, None),
            };
            let index = number(index, "index", text)?;
            let target = FaultTarget::At(index, arg, times);
            rules.push(FaultToken { text, kind, target });
        } else {
            return Err(format!("unknown fault spec token: {text:?}"));
        }
    }
    Ok((seed, rules))
}

#[derive(Debug)]
enum RuleKind {
    Panic,
    Stall(Duration),
}

#[derive(Debug)]
struct Rule {
    cell: u64,
    kind: RuleKind,
    /// How many attempts of this cell the rule fires for.
    times: u32,
    /// How many times it has fired so far.
    fired: AtomicU32,
}

/// A parsed, deterministic fault-injection plan.
///
/// The empty plan ([`FaultPlan::none`]) injects nothing and is the
/// default everywhere; tests and the CI chaos smoke build plans from
/// spec strings.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<Rule>,
    /// Permille probability of a seeded panic per (cell, attempt).
    panic_permille: u32,
    truncate_journal: Option<u64>,
    seed: u64,
}

impl FaultPlan {
    /// The empty plan: injects nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan has no rules at all.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.panic_permille == 0 && self.truncate_journal.is_none()
    }

    /// Parses a spec string (see the module docs for the grammar and
    /// this plan's kinds).
    ///
    /// # Errors
    ///
    /// A description of the first malformed or unsupported token.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (seed, rules) = parse_fault_spec(spec)?;
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        for token in rules {
            use FaultTarget::{At, Permille};
            let (cell, kind, times) = match (token.kind, token.target) {
                ("panic", Permille(permille)) => {
                    plan.panic_permille = permille;
                    continue;
                }
                ("truncate-journal", At(bytes, None, None)) => {
                    plan.truncate_journal = Some(bytes);
                    continue;
                }
                ("panic", At(cell, None, times)) => (cell, RuleKind::Panic, times),
                ("stall", At(cell, Some(ms), times)) => {
                    (cell, RuleKind::Stall(Duration::from_millis(ms)), times)
                }
                _ => {
                    return Err(format!(
                        "unknown fault, or known fault in the wrong form: {:?}",
                        token.text
                    ))
                }
            };
            plan.rules.push(Rule {
                cell,
                kind,
                times: times.unwrap_or(1),
                fired: AtomicU32::new(0),
            });
        }
        Ok(plan)
    }

    /// Builds a plan from the `HDVB_FAULTS` environment variable, or
    /// the empty plan when unset.
    ///
    /// # Errors
    ///
    /// A description of the first malformed token.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("HDVB_FAULTS") {
            Ok(spec) => FaultPlan::parse(&spec),
            Err(_) => Ok(FaultPlan::none()),
        }
    }

    /// The seed driving the probabilistic rule.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The journal-truncation fault, if the plan has one.
    pub fn journal_truncate_bytes(&self) -> Option<u64> {
        self.truncate_journal
    }

    /// The injection point: called by the sweep engine as cell `cell`
    /// begins attempt `attempt` (1-based). May sleep (stall rules) and
    /// may panic (panic rules) — the sweep engine is expected to absorb
    /// the panic like any real cell failure.
    ///
    /// # Panics
    ///
    /// When a panic rule matches; this is the injected fault itself.
    pub fn before_cell(&self, cell: usize, attempt: u32) {
        for rule in &self.rules {
            if rule.cell != cell as u64 {
                continue;
            }
            // `fetch_update` keeps the fire-count honest if two
            // attempts of the same cell ever raced (they cannot today:
            // a cell is retried only after its previous attempt
            // resolved, but the plan should not rely on that).
            let fired = rule
                .fired
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    (n < rule.times).then_some(n + 1)
                });
            if fired.is_err() {
                continue; // rule exhausted
            }
            match rule.kind {
                RuleKind::Panic => {
                    panic!("injected fault: panic at cell {cell} attempt {attempt}")
                }
                RuleKind::Stall(d) => std::thread::sleep(d),
            }
        }
        if self.panic_permille > 0 {
            let roll = splitmix64(
                self.seed ^ (cell as u64).wrapping_mul(0x9e37_79b9) ^ u64::from(attempt) << 32,
            ) % 1000;
            if (roll as u32) < self.panic_permille {
                panic!("injected fault: seeded panic at cell {cell} attempt {attempt}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Instant;

    #[test]
    fn tokenizer_covers_every_form_and_holds_the_seed_apart() {
        let (seed, rules) = parse_fault_spec(" a@3 ,,b@4:50x2,seed=9,c~125,d-e@7x3").unwrap();
        assert_eq!(seed, 9);
        let targets: Vec<_> = rules.iter().map(|t| (t.kind, t.target)).collect();
        assert_eq!(
            targets,
            [
                ("a", FaultTarget::At(3, None, None)),
                ("b", FaultTarget::At(4, Some(50), Some(2))),
                ("c", FaultTarget::Permille(125)),
                ("d-e", FaultTarget::At(7, None, Some(3))),
            ]
        );
        assert_eq!(rules[1].text, "b@4:50x2");
        assert_eq!(
            parse_fault_spec("seed=9,a@1").unwrap(),
            parse_fault_spec("a@1,seed=9").unwrap()
        );
        assert_eq!(parse_fault_spec("").unwrap(), (0, Vec::new()));
        for bad in [
            "a", "a@", "a@x", "a@1:", "a@1:z", "a@1xz", "a~", "seed=", "seed=-1",
        ] {
            let err = parse_fault_spec(bad).unwrap_err();
            assert!(err.contains(bad), "{bad}: {err}");
        }
    }

    #[test]
    fn parse_round_trip() {
        let p = FaultPlan::parse("panic@2x3, stall@5:40, truncate-journal@128, seed=9").unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.journal_truncate_bytes(), Some(128));
        assert_eq!(p.seed(), 9);
        assert!(!p.is_empty());
        assert!(FaultPlan::parse("").unwrap().is_empty());
        // Unknown kinds, and known kinds in a form they do not take,
        // are rejected by name.
        for bad in [
            "nonsense@4",
            "stall@4",
            "panic@2:5",
            "stall~5",
            "truncate-journal@9x2",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(err.contains(bad), "{bad}: {err}");
        }
    }

    #[test]
    fn panic_rule_fires_exactly_times() {
        let p = FaultPlan::parse("panic@1x2").unwrap();
        // Other cells untouched.
        p.before_cell(0, 1);
        // First two attempts of cell 1 panic, the third succeeds.
        for attempt in 1..=2 {
            let r = catch_unwind(AssertUnwindSafe(|| p.before_cell(1, attempt)));
            assert!(r.is_err(), "attempt {attempt} should panic");
        }
        p.before_cell(1, 3);
    }

    #[test]
    fn stall_rule_sleeps() {
        let p = FaultPlan::parse("stall@0:30").unwrap();
        let t = Instant::now();
        p.before_cell(0, 1);
        assert!(t.elapsed() >= Duration::from_millis(30));
        // Exhausted after one firing.
        let t = Instant::now();
        p.before_cell(0, 2);
        assert!(t.elapsed() < Duration::from_millis(30));
    }

    #[test]
    fn probabilistic_rule_is_deterministic() {
        let fire_set = |seed: u64| {
            let p = FaultPlan::parse(&format!("panic~200,seed={seed}")).unwrap();
            (0..200)
                .filter(|&c| catch_unwind(AssertUnwindSafe(|| p.before_cell(c, 1))).is_err())
                .collect::<Vec<_>>()
        };
        let a = fire_set(7);
        let b = fire_set(7);
        assert_eq!(a, b, "same seed must fire the same cells");
        assert!(!a.is_empty(), "permille 200 over 200 cells should fire");
        assert!(a.len() < 200, "and should not fire everywhere");
    }
}
