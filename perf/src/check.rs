//! `perf check a.json b.json`: compares two result sets metric by
//! metric against the bounds `BENCHMARK.json` fixes, by the rule the
//! driver applies — medians against the bound, and a spread wider than
//! the bound means the comparison cannot be resolved.

use crate::stats::{iqr_share, median};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write;

/// The outcome for one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is no worse than `a`'s by more than the bound.
    Ok,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Worse,
    /// A side's run-to-run spread exceeds the bound, and the sides'
    /// runs overlap: no conclusion either way.
    Unresolved,
}

/// Which direction is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// By how much of `a`'s median `b`'s median is worse (negative when it
/// is better).
pub fn worsening(a: &[f64], b: &[f64], better: Better) -> f64 {
    let (ma, mb) = (median(a), median(b));
    let delta = match better {
        Better::Higher => ma - mb,
        Better::Lower => mb - ma,
    };
    if ma == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / ma.abs()
    }
}

/// Applies the rule to one metric's runs on both sides.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let is_better = |x: f64, y: f64| match better {
        Better::Higher => x > y,
        Better::Lower => x < y,
    };
    let wide = iqr_share(a).max(iqr_share(b)) > bound;
    if wide {
        // Too noisy for medians — unless the sides do not even overlap.
        let b_all_better = b.iter().all(|&y| a.iter().all(|&x| is_better(y, x)));
        let b_all_worse = b.iter().all(|&y| a.iter().all(|&x| is_better(x, y)));
        return if b_all_better {
            Verdict::Ok
        } else if b_all_worse && worsening(a, b, better) > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(a, b, better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// `(workload, metric) -> values over the set's untraced runs`.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn samples(set: &Value, traced: bool) -> Samples {
    let mut out = Samples::new();
    for run in set["runs"]
        .as_array()
        .map(Vec::as_slice)
        .unwrap_or_default()
    {
        if run["trace"].as_bool() != Some(traced) {
            continue;
        }
        let workload = run["workload"].as_str().unwrap_or("?");
        for (name, m) in run["metrics"]
            .as_object()
            .into_iter()
            .flat_map(|m| m.iter())
        {
            if let Some(v) = m["value"].as_f64() {
                out.entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    out
}

/// The comparison table and whether any row is `worse` (or any run on
/// either side failed its correctness gate).
pub fn compare(benchmark: &Value, a: &Value, b: &Value) -> Result<(String, bool), String> {
    let mut text = String::new();
    let mut bad = false;
    for (side, set) in [("a", a), ("b", b)] {
        let runs = set["runs"]
            .as_array()
            .ok_or_else(|| format!("result set {side}: no `runs` array"))?;
        let incorrect = runs
            .iter()
            .filter(|r| r["correct"].as_bool() != Some(true))
            .count();
        if incorrect > 0 {
            writeln!(
                text,
                "result set {side}: {incorrect} run(s) failed the correctness gate"
            )
            .expect("string write");
            bad = true;
        }
    }
    let (sa, sb) = (samples(a, false), samples(b, false));
    writeln!(
        text,
        "{:<20} {:<14} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "worse%", "iqr a%", "iqr b%", "bound%"
    )
    .expect("string write");
    for spec in benchmark["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json: no `end_to_end` list")?
    {
        let name = spec["name"]
            .as_str()
            .ok_or("BENCHMARK.json: metric without a name")?;
        let bound = spec["bound"]
            .as_f64()
            .ok_or("BENCHMARK.json: metric without a bound")?;
        let better = match spec["better"].as_str() {
            Some("higher") => Better::Higher,
            Some("lower") => Better::Lower,
            other => return Err(format!("BENCHMARK.json: `better` of {name} is {other:?}")),
        };
        for w in benchmark["workloads"]
            .as_array()
            .ok_or("BENCHMARK.json: no `workloads` list")?
        {
            let workload = w["name"].as_str().unwrap_or("?");
            let key = (workload.to_owned(), name.to_owned());
            let (Some(va), Some(vb)) = (sa.get(&key), sb.get(&key)) else {
                writeln!(text, "{workload:<20} {name:<14} missing from a result set")
                    .expect("string write");
                bad = true;
                continue;
            };
            let verdict = judge(va, vb, better, bound);
            bad |= verdict == Verdict::Worse;
            writeln!(
                text,
                "{workload:<20} {name:<14} {:>12.4} {:>12.4} {:>8.2} {:>8.2} {:>8.2} {:>6.1}  {}",
                median(va),
                median(vb),
                worsening(va, vb, better) * 100.0,
                iqr_share(va) * 100.0,
                iqr_share(vb) * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            )
            .expect("string write");
        }
    }
    // Counts made by the program must repeat exactly between two runs of
    // one commit on one seed.
    let (ta, tb) = (samples(a, true), samples(b, true));
    let mut differing = Vec::new();
    for spec in benchmark["per_layer"].as_array().into_iter().flatten() {
        let name = spec["name"].as_str().unwrap_or("?");
        if spec["unit"].as_str() != Some("count") || !name.starts_with("db.") {
            continue;
        }
        for ((workload, metric), va) in ta.iter().filter(|((_, m), _)| m == name) {
            if tb.get(&(workload.clone(), metric.clone())) != Some(va) {
                differing.push(format!("{workload}/{metric}"));
            }
        }
    }
    if differing.is_empty() {
        writeln!(text, "db.* counts of the traced runs repeat exactly").expect("string write");
    } else {
        writeln!(
            text,
            "db.* counts differ between the sets: {}",
            differing.join(", ")
        )
        .expect("string write");
        bad = true;
    }
    Ok((text, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEADY: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn within_bound_is_ok_beyond_is_worse() {
        let slower: Vec<f64> = STEADY.iter().map(|v| v * 1.04).collect();
        assert_eq!(judge(&STEADY, &slower, Better::Lower, 0.05), Verdict::Ok);
        let much_slower: Vec<f64> = STEADY.iter().map(|v| v * 1.08).collect();
        assert_eq!(
            judge(&STEADY, &much_slower, Better::Lower, 0.05),
            Verdict::Worse
        );
        // The same numbers read as a gain when higher is better.
        assert_eq!(
            judge(&STEADY, &much_slower, Better::Higher, 0.05),
            Verdict::Ok
        );
        let lower: Vec<f64> = STEADY.iter().map(|v| v * 0.9).collect();
        assert_eq!(judge(&STEADY, &lower, Better::Higher, 0.05), Verdict::Worse);
        assert!((worsening(&STEADY, &lower, Better::Higher) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_sides_do_not_overlap() {
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        let noisy_slower = [85.0, 125.0, 105.0, 95.0, 118.0];
        assert_eq!(
            judge(&noisy, &noisy_slower, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&STEADY, &noisy, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        let clearly_faster = [50.0, 70.0, 60.0, 55.0, 65.0];
        assert_eq!(
            judge(&noisy, &clearly_faster, Better::Lower, 0.05),
            Verdict::Ok
        );
        let clearly_slower = [150.0, 190.0, 170.0, 160.0, 180.0];
        assert_eq!(
            judge(&noisy, &clearly_slower, Better::Lower, 0.05),
            Verdict::Worse
        );
    }

    #[test]
    fn exact_metrics_and_single_runs() {
        assert_eq!(judge(&[0.45], &[0.45], Better::Lower, 0.0), Verdict::Ok);
        assert_eq!(judge(&[0.45], &[0.46], Better::Lower, 0.0), Verdict::Worse);
        assert_eq!(judge(&[0.0], &[0.0], Better::Lower, 0.1), Verdict::Ok);
        assert_eq!(judge(&[0.0], &[1.0], Better::Lower, 0.1), Verdict::Worse);
    }

    #[test]
    fn compare_flags_missing_metrics_incorrect_runs_and_count_drift() {
        use serde_json::json;
        let benchmark = json!({
            "workloads": [{"name": "w", "why": ""}],
            "end_to_end": [{"name": "ms", "unit": "ms", "better": "lower", "bound": 0.05}],
            "per_layer": [{"name": "db.rows_read", "unit": "count", "better": "lower"}],
        });
        let run = |ms: f64, rows: u64, correct: bool| {
            json!([
                {"workload": "w", "trace": false, "correct": correct, "metrics": {"ms": {"value": ms}}},
                {"workload": "w", "trace": true, "correct": true, "metrics": {"db.rows_read": {"value": rows}}},
            ])
        };
        let set = |runs: Value| json!({"runs": runs});
        let (text, bad) = compare(
            &benchmark,
            &set(run(10.0, 7, true)),
            &set(run(10.2, 7, true)),
        )
        .unwrap();
        assert!(!bad, "{text}");
        assert!(text.contains("ok") && text.contains("repeat exactly"));
        let (text, bad) = compare(
            &benchmark,
            &set(run(10.0, 7, true)),
            &set(run(11.0, 7, true)),
        )
        .unwrap();
        assert!(bad && text.contains("worse"));
        let (_, bad) = compare(
            &benchmark,
            &set(run(10.0, 7, true)),
            &set(run(10.0, 8, true)),
        )
        .unwrap();
        assert!(bad, "count drift must fail");
        let (_, bad) = compare(
            &benchmark,
            &set(run(10.0, 7, false)),
            &set(run(10.0, 7, true)),
        )
        .unwrap();
        assert!(bad, "an incorrect run must fail");
        let (text, bad) = compare(&benchmark, &set(json!([])), &set(run(10.0, 7, true))).unwrap();
        assert!(bad && text.contains("missing"));
    }
}
