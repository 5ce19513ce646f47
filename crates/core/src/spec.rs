//! A run's text form: `key=value` pairs, read into a [`RunSpec`] by the
//! one parser that the server's `/run` and the `trace` CLI share.

use std::fmt;
use std::str::FromStr;

use syrk_machine::{CostModel, FaultPlan};

use crate::algorithms::RunSpec;
use crate::planner::{plan, Plan};
use crate::recovery::RecoveryPolicy;

/// The most `retries`: under `drop=1` a message is sent `retries + 1` times.
const MAX_RETRIES: u32 = 64;

/// Why `key=value` pairs name no run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// `(key, raw value, what is wrong)`: an unknown key, a value its key
    /// does not take, a key that does not apply, or, without a value, a
    /// key the run needs.
    Invalid(String, Option<String>, &'static str),
    /// `(raw value of p, cap)`: an `alg=auto` budget over the cap the
    /// caller plans within.
    OverBudget(String, usize),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Invalid(key, Some(value), why) => write!(f, "{key} = {value:?}: {why}"),
            Self::Invalid(key, None, why) => write!(f, "{key}: {why}"),
            Self::OverBudget(p, cap) => write!(f, "p = {p:?} exceeds the planning cap of {cap}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// The run `pairs` name on an `n1 × n2` input (`n2 ≥ 1`). Every value
/// must be valid; of a repeated key the last one wins.
///
/// * plan: `alg` = `1d` (needs `p`), `2d` (`c`), `3d` (`c`, `p2`) or
///   `auto`, the default: [`plan`] within a budget `p ≤ max_budget`;
/// * faults: `fault_seed`; the probabilities `drop`, `dup`, `delay` and
///   `corrupt`; a delay's `skew` (default 1); `retries` (at most 64);
///   `crash_rank` at its `crash_op`-th operation (default 1);
/// * recovery: `max_attempts`, [`RecoveryPolicy::default`] for a crash.
///
/// The model is the default one; tracing and dumps are the caller's.
pub fn parse_run_spec(
    n1: usize,
    n2: usize,
    max_budget: usize,
    pairs: &[(String, String)],
) -> Result<RunSpec, SpecError> {
    let alg = get::<String>(pairs, "alg").unwrap_or("auto".into());
    let grid: &[&str] = match alg.as_str() {
        "1d" | "auto" => &["p"],
        "2d" => &["c"],
        "3d" => &["c", "p2"],
        _ => &["p", "c", "p2"],
    };
    let unit = |p: f64| (0.0..=1.0).contains(&p);
    for (key, v) in pairs {
        let (ok, why) = match key.as_str() {
            "alg" => (
                matches!(&**v, "1d" | "2d" | "3d" | "auto"),
                "must be 1d, 2d, 3d or auto",
            ),
            "p" | "c" | "p2" if !grid.contains(&key.as_str()) => (false, "unused by this alg"),
            "p" | "c" | "p2" | "max_attempts" => {
                (is(v, |n: usize| n > 0), "must be an integer ≥ 1")
            }
            "drop" | "dup" | "delay" | "corrupt" => (is(v, unit), "probability must be in [0, 1]"),
            "skew" => (
                is(v, |s: f64| s >= 0.0 && s.is_finite()),
                "must be finite, ≥ 0",
            ),
            "retries" => (is(v, |n: u32| n <= MAX_RETRIES), "must be an integer ≤ 64"),
            "fault_seed" | "crash_op" => (is(v, |_: u64| true), "must be an integer ≥ 0"),
            "crash_rank" => (is(v, |_: usize| true), "must be an integer ≥ 0"),
            _ => (false, "unknown key"),
        };
        if !ok {
            return Err(SpecError::Invalid(key.clone(), Some(v.clone()), why));
        }
    }
    let missing = |key: &str| SpecError::Invalid(key.into(), None, "needed by this alg");
    let count = |key| get(pairs, key).ok_or_else(|| missing(key));
    if alg == "auto" && count("p")? > max_budget {
        let p = get(pairs, "p").unwrap_or_default();
        return Err(SpecError::OverBudget(p, max_budget));
    }
    let plan = match alg.as_str() {
        "1d" => Plan::OneD { p: count("p")? },
        "2d" => Plan::TwoD { c: count("c")? },
        "3d" => Plan::ThreeD {
            c: count("c")?,
            p2: count("p2")?,
        },
        _ => plan(n1, n2, count("p")?).plan,
    };
    let f = |key| get::<f64>(pairs, key);
    let mut faults = FaultPlan::seeded(get(pairs, "fault_seed").unwrap_or(0))
        .drop(f("drop").unwrap_or(0.0))
        .duplicate(f("dup").unwrap_or(0.0))
        .corrupt(f("corrupt").unwrap_or(0.0));
    if let Some(p) = f("delay") {
        faults = faults.delay(p, f("skew").unwrap_or(1.0));
    }
    if let Some(n) = get(pairs, "retries") {
        faults = faults.retries(n);
    }
    let crash_rank = get(pairs, "crash_rank");
    if let Some(r) = crash_rank {
        faults = faults.crash_rank(r, get(pairs, "crash_op").unwrap_or(1));
    }
    let plain = ["alg", "p", "c", "p2", "max_attempts"];
    let faulted = pairs.iter().any(|(k, _)| !plain.contains(&k.as_str()));
    let recovery = get(pairs, "max_attempts").map(|max_attempts| RecoveryPolicy { max_attempts });
    Ok(RunSpec {
        faults: faulted.then_some(faults),
        recovery: recovery.or_else(|| crash_rank.map(|_| RecoveryPolicy::default())),
        ..RunSpec::new(plan, CostModel::default())
    })
}

/// Whether `value` parses to a `T` that `ok` accepts.
fn is<T: FromStr>(value: &str, ok: impl Fn(T) -> bool) -> bool {
    value.parse().is_ok_and(ok)
}

/// The last value of `key`, parsed.
fn get<T: FromStr>(pairs: &[(String, String)], key: &str) -> Option<T> {
    let last = pairs.iter().rev().find(|(k, _)| k == key);
    last.and_then(|(_, v)| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(text: &str) -> Vec<(String, String)> {
        let pair = |kv: &str| kv.split_once('=').map(|(k, v)| (k.into(), v.into()));
        text.split(' ')
            .map(|kv| pair(kv).expect("key=value"))
            .collect()
    }

    #[test]
    fn the_last_value_wins_and_a_crash_recovers() {
        let text = "p=99 p=12 crash_rank=1 delay=0.5 drop=0.1 retries=3";
        let spec = parse_run_spec(36, 8, 12, &pairs(text)).expect("a run");
        assert_eq!(spec.plan, plan(36, 8, 12).plan);
        let faults = FaultPlan::seeded(0).drop(0.1).delay(0.5, 1.0).retries(3);
        assert_eq!(spec.faults, Some(faults.crash_rank(1, 1)));
        assert_eq!(spec.recovery, Some(RecoveryPolicy::default()));
        let over = SpecError::OverBudget("13".into(), 12);
        assert_eq!(parse_run_spec(36, 8, 12, &pairs("p=13")), Err(over));
        let err = parse_run_spec(36, 8, 12, &pairs("alg=2d c=3 drop=1 retries=65"));
        assert_eq!(
            err.unwrap_err().to_string(),
            "retries = \"65\": must be an integer ≤ 64"
        );
    }
}
