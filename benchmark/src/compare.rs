//! `syrkbench compare BASE.json NEW.json`: apply the bounds.
//!
//! Both files come from `syrkbench run`. They must share benchmark
//! version, window length, traced-or-not and host fingerprint; numbers
//! from a shorter smoke run or another machine are refused, not compared.
//!
//! * An end-to-end metric **regressed** when the new median is worse than
//!   the base median by more than the metric's bound, in the metric's own
//!   direction. When either side's run-to-run spread (quartile distance
//!   over median, from `run --sets N`) is wider than the bound the metric
//!   is **unresolved**, not "unchanged" — unless every new value beats
//!   every base value.
//! * An exact (`*`) per-layer metric must be **identical** (`==`).
//! * Any failed operation on either side fails the comparison.

use std::collections::BTreeMap;

use syrk_server::json::{self, Json};

use crate::host::FINGERPRINT_MUST_MATCH;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regressed,
    Unresolved,
    Same,
    Differs,
    /// A timed per-layer metric: shown, never judged.
    Info,
}

impl Verdict {
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regressed | Verdict::Differs)
    }

    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Differs => "DIFFERS",
            Verdict::Info => "",
        }
    }
}

/// Quartile distance over median; 0 for a single value (nothing known).
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// Judge a bounded metric. Returns the verdict, the share by which the
/// new median is worse than the base median (negative = better), and the
/// wider of the two spreads.
pub fn judge_bounded(
    base: &[f64],
    new: &[f64],
    lower_is_better: bool,
    bound: f64,
) -> (Verdict, f64, f64) {
    let (b, n) = (median(base), median(new));
    let worse_by = if lower_is_better {
        (n - b) / b
    } else {
        (b - n) / b
    };
    let spread = spread(base).max(spread(new));
    let verdict = if spread > bound {
        let new_always_better = new.iter().all(|&x| {
            base.iter()
                .all(|&y| if lower_is_better { x < y } else { x > y })
        });
        if new_always_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    (verdict, worse_by, spread)
}

/// Judge an exact metric: every value on both sides is the same number.
pub fn judge_exact(base: &[f64], new: &[f64]) -> Verdict {
    let first = base[0];
    if base.iter().chain(new).all(|&v| v == first) {
        Verdict::Same
    } else {
        Verdict::Differs
    }
}

/// The part of a results file `compare` reads.
struct Results {
    doc: Json,
}

impl Results {
    fn load(path: &str) -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: not strict JSON: {e}"))?;
        if doc.get("benchmark").and_then(Json::as_str) != Some("syrkbench") {
            return Err(format!("{path}: not a syrkbench results file"));
        }
        Ok(Results { doc })
    }

    fn workloads(&self) -> &[(String, Json)] {
        match self.doc.get("workloads") {
            Some(Json::Obj(members)) => members,
            _ => &[],
        }
    }
}

/// `name → values` of one workload entry.
fn metric_values(workload: &Json) -> BTreeMap<String, Vec<f64>> {
    let Some(Json::Obj(metrics)) = workload.get("metrics") else {
        return BTreeMap::new();
    };
    metrics
        .iter()
        .filter_map(|(name, m)| match m.get("values") {
            Some(Json::Arr(vs)) => {
                let values: Vec<f64> = vs.iter().filter_map(Json::as_f64).collect();
                (!values.is_empty()).then(|| (name.clone(), values))
            }
            _ => None,
        })
        .collect()
}

/// Why the two files may not be compared, if they may not.
fn incomparable(base: &Json, new: &Json) -> Option<String> {
    for key in ["version", "seconds", "trace"] {
        if base.get(key) != new.get(key) {
            return Some(format!(
                "{key} differs: {:?} vs {:?}",
                base.get(key),
                new.get(key)
            ));
        }
    }
    for key in FINGERPRINT_MUST_MATCH {
        let (b, n) = (
            base.get("fingerprint").and_then(|f| f.get(key)),
            new.get("fingerprint").and_then(|f| f.get(key)),
        );
        if b.is_none() || b != n {
            return Some(format!("host fingerprint differs in {key}: {b:?} vs {n:?}"));
        }
    }
    None
}

/// Compare two results files; prints a table and returns whether the new
/// file passes.
pub fn compare(base_path: &str, new_path: &str) -> Result<bool, String> {
    let (base, new) = (Results::load(base_path)?, Results::load(new_path)?);
    if let Some(why) = incomparable(&base.doc, &new.doc) {
        return Err(format!(
            "refusing to compare {base_path} with {new_path}: {why}"
        ));
    }
    let mut pass = true;
    println!(
        "{:<12} {:<34} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "base", "new", "worse%", "spread%"
    );
    for (workload, base_entry) in base.workloads() {
        let Some(new_entry) = new.doc.get("workloads").and_then(|w| w.get(workload)) else {
            println!("{workload:<12} missing from {new_path}");
            pass = false;
            continue;
        };
        for (side, entry) in [(base_path, base_entry), (new_path, new_entry)] {
            let failed = entry
                .get("failed")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            if failed != 0.0 {
                println!("{workload:<12} {side}: {failed} operations failed");
                pass = false;
            }
        }
        let (b, n) = (metric_values(base_entry), metric_values(new_entry));
        for (name, bv) in &b {
            let Some(nv) = n.get(name) else {
                println!("{workload:<12} {name:<34} missing from {new_path}");
                pass = false;
                continue;
            };
            let (verdict, worse_by, spread) =
                if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
                    judge_bounded(bv, nv, m.better == "lower", m.bound)
                } else if PER_LAYER.iter().any(|m| m.name == name && m.exact) {
                    (judge_exact(bv, nv), 0.0, 0.0)
                } else {
                    // Direction-free: the change in the median, 0 when the
                    // workload does not touch the layer (median 0).
                    let (b, n) = (median(bv), median(nv));
                    let change = if b != 0.0 { (n - b) / b.abs() } else { 0.0 };
                    (Verdict::Info, change, 0.0)
                };
            pass &= !verdict.fails();
            println!(
                "{workload:<12} {name:<34} {:>14.6} {:>14.6} {:>8.2} {:>7.2}  {}",
                median(bv),
                median(nv),
                worse_by * 100.0,
                spread * 100.0,
                verdict.label()
            );
        }
    }
    println!("{}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_apply_in_the_metrics_own_direction() {
        // Lower is better: +12 % is a regression at a 10 % bound, −12 % a gain.
        assert_eq!(
            judge_bounded(&[100.0], &[112.0], true, 0.10).0,
            Verdict::Regressed
        );
        assert_eq!(judge_bounded(&[100.0], &[109.0], true, 0.10).0, Verdict::Ok);
        assert_eq!(
            judge_bounded(&[100.0], &[88.0], true, 0.10).0,
            Verdict::Improved
        );
        // Higher is better: the same numbers read the other way round.
        assert_eq!(
            judge_bounded(&[100.0], &[112.0], false, 0.10).0,
            Verdict::Improved
        );
        assert_eq!(
            judge_bounded(&[100.0], &[88.0], false, 0.10).0,
            Verdict::Regressed
        );
        assert_eq!(judge_bounded(&[100.0], &[91.0], false, 0.10).0, Verdict::Ok);
        let (_, worse_by, _) = judge_bounded(&[200.0], &[150.0], false, 0.10);
        assert!((worse_by - 0.25).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        let same = [82.0, 91.0, 99.0, 111.0, 119.0];
        let (verdict, _, spread) = judge_bounded(&noisy, &same, true, 0.10);
        assert_eq!(verdict, Verdict::Unresolved);
        assert!(spread > 0.10);
        // … unless every new run beats every base run.
        let faster = [50.0, 55.0, 60.0, 65.0, 70.0];
        assert_eq!(
            judge_bounded(&noisy, &faster, true, 0.10).0,
            Verdict::Improved
        );
        assert_eq!(
            judge_bounded(&faster, &noisy, false, 0.10).0,
            Verdict::Improved
        );
        // A tight spread resolves.
        let tight = [99.0, 100.0, 100.0, 101.0];
        assert_eq!(judge_bounded(&tight, &tight, true, 0.10).0, Verdict::Ok);
    }

    #[test]
    fn exact_metrics_are_compared_with_equality() {
        assert_eq!(judge_exact(&[1081.0, 1081.0], &[1081.0]), Verdict::Same);
        assert_eq!(judge_exact(&[1081.0], &[1081.0000001]), Verdict::Differs);
        assert_eq!(judge_exact(&[1081.0, 1082.0], &[1081.0]), Verdict::Differs);
        assert!(Verdict::Differs.fails() && Verdict::Regressed.fails());
        assert!(!Verdict::Unresolved.fails() && !Verdict::Info.fails());
    }

    fn results(seconds: f64, nproc: f64) -> Json {
        let text = format!(
            "{{\"benchmark\": \"syrkbench\", \"version\": \"1.0.0\", \"seconds\": {seconds}, \
             \"trace\": false, \"fingerprint\": {{\"nproc\": {nproc}, \"kernel_threads\": 2, \
             \"cpu\": \"x\", \"isa_detected\": \"avx2\", \"isa_dispatched\": \"avx2\", \
             \"engine\": \"event\", \"git_commit\": \"abc\"}}}}"
        );
        json::parse(&text).unwrap()
    }

    #[test]
    fn a_smoke_run_or_another_host_is_refused() {
        assert_eq!(incomparable(&results(10.0, 2.0), &results(10.0, 2.0)), None);
        let why = incomparable(&results(10.0, 2.0), &results(0.5, 2.0)).unwrap();
        assert!(why.contains("seconds"), "{why}");
        let why = incomparable(&results(10.0, 2.0), &results(10.0, 8.0)).unwrap();
        assert!(why.contains("nproc"), "{why}");
    }
}
