//! `compare A B`: two result sets of the same host, one row per workload and
//! end-to-end metric.
//!
//! A row is *unresolved* when either side's run-to-run spread (distance
//! between the quartiles over the median) is wider than the metric's bound:
//! the runs cannot tell a change of that size from noise. Otherwise the
//! second median is *regressed* if worse than the first by more than the
//! bound, *improved* if better by more than the bound, else *unchanged*.

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{self, Summary};
use crate::workloads;

pub const SET_SCHEMA: &str = "lardb-benchmark-set/1";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Classifies the second sample against the first.
pub fn classify(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    if stats::spread(a) > bound || stats::spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (stats::median(a), stats::median(b));
    if ma == 0.0 {
        return if mb == 0.0 {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    let worse = if lower_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Why two sets may not be compared, if they may not.
pub fn refusal(a: &Json, b: &Json) -> Option<String> {
    for (label, set) in [("first", a), ("second", b)] {
        if set.get("schema").and_then(Json::as_str) != Some(SET_SCHEMA) {
            return Some(format!(
                "the {label} file is not a result set ({SET_SCHEMA})"
            ));
        }
        if set.get("quick").and_then(Json::as_bool) != Some(false) {
            return Some(format!(
                "the {label} set was run with --quick; toy sizes are not results"
            ));
        }
    }
    for key in ["nproc", "cpu_model"] {
        let of = |set: &Json| set.get("host").and_then(|h| h.get(key)).cloned();
        let (ha, hb) = (of(a), of(b));
        if ha.is_none() || ha != hb {
            return Some(format!(
                "host fingerprints differ in {key}: {} against {}",
                ha.map_or("none".into(), |v| v.compact()),
                hb.map_or("none".into(), |v| v.compact())
            ));
        }
    }
    None
}

/// Values of `metric` over the runs of `workload` with the given trace flag.
fn values(set: &Json, workload: &str, traced: bool, metric: &str) -> Vec<f64> {
    set.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_bool) == Some(traced)
        })
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn quartile_text(s: &Summary) -> String {
    format!("{:.5} [{:.5}, {:.5}] n={}", s.median, s.q1, s.q3, s.n)
}

/// The comparison as text, and how many rows regressed or were unresolved.
pub fn compare(a: &Json, b: &Json) -> (String, usize) {
    let mut out = String::new();
    let mut bad = 0;
    out.push_str(&format!(
        "{:<18} {:<12} {:<36} {:<36} {:>8} {:>6}  verdict\n",
        "workload",
        "metric",
        "first: median [q1, q3]",
        "second: median [q1, q3]",
        "change",
        "bound"
    ));
    for workload in workloads::NAMES {
        for m in END_TO_END {
            let (va, vb) = (
                values(a, workload, false, m.name),
                values(b, workload, false, m.name),
            );
            if va.is_empty() || vb.is_empty() {
                out.push_str(&format!(
                    "{workload:<18} {:<12} missing on one side\n",
                    m.name
                ));
                bad += 1;
                continue;
            }
            let verdict = classify(&va, &vb, m.better == "lower", m.bound);
            if matches!(verdict, Verdict::Regressed | Verdict::Unresolved) {
                bad += 1;
            }
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            out.push_str(&format!(
                "{workload:<18} {:<12} {:<36} {:<36} {:>+7.2}% {:>5.0}%  {}\n",
                m.name,
                quartile_text(&sa),
                quartile_text(&sb),
                (sb.median - sa.median) / sa.median * 100.0,
                m.bound * 100.0,
                verdict.name()
            ));
        }
    }
    out.push_str("\nexact counters of the traced runs (per pass):\n");
    for workload in workloads::NAMES {
        for m in PER_LAYER
            .iter()
            .filter(|m| m.source == "count" && m.unit == "count")
        {
            let (va, vb) = (
                values(a, workload, true, m.name),
                values(b, workload, true, m.name),
            );
            let (Some(&xa), Some(&xb)) = (va.first(), vb.first()) else {
                continue;
            };
            if xa == 0.0 && xb == 0.0 {
                continue;
            }
            let note = if xa == xb {
                "same".to_string()
            } else {
                format!(
                    "differs by {:+.3}%",
                    (xb - xa) / xa.abs().max(f64::MIN_POSITIVE) * 100.0
                )
            };
            out.push_str(&format!(
                "{workload:<18} {:<30} {xa:>16.3} {xb:>16.3}  {note}\n",
                m.name
            ));
        }
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        let same = [10.2, 10.1, 10.0, 10.15, 10.1];
        let slow = [12.0, 12.1, 11.9, 12.0, 12.05];
        let fast = [8.0, 8.1, 7.9, 8.0, 8.05];
        assert_eq!(classify(&base, &same, true, 0.10), Verdict::Unchanged);
        assert_eq!(classify(&base, &slow, true, 0.10), Verdict::Regressed);
        assert_eq!(classify(&base, &fast, true, 0.10), Verdict::Improved);
        // For a metric where higher is better the same numbers flip.
        assert_eq!(classify(&base, &slow, false, 0.10), Verdict::Improved);
        assert_eq!(classify(&base, &fast, false, 0.10), Verdict::Regressed);
        // A spread wider than the bound hides any verdict.
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0];
        assert_eq!(classify(&noisy, &same, true, 0.10), Verdict::Unresolved);
        assert_eq!(classify(&base, &noisy, true, 0.10), Verdict::Unresolved);
    }

    fn set(quick: bool, nproc: i64, pass: &[f64]) -> Json {
        let runs = workloads::NAMES
            .iter()
            .flat_map(|w| {
                pass.iter().map(move |&p| {
                    Json::obj([
                        ("workload", Json::str(*w)),
                        ("trace", Json::Bool(false)),
                        (
                            "metrics",
                            Json::Obj(
                                END_TO_END
                                    .iter()
                                    .map(|m| {
                                        (m.name.to_string(), Json::obj([("value", Json::Num(p))]))
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
            })
            .collect();
        Json::obj([
            ("schema", Json::str(SET_SCHEMA)),
            ("quick", Json::Bool(quick)),
            (
                "host",
                Json::obj([("nproc", Json::Int(nproc)), ("cpu_model", Json::str("cpu"))]),
            ),
            ("runs", Json::Arr(runs)),
        ])
    }

    #[test]
    fn quick_sets_and_foreign_hosts_are_refused() {
        let good = set(false, 2, &[1.0, 1.01, 0.99]);
        assert!(refusal(&good, &good).is_none());
        assert!(refusal(&set(true, 2, &[1.0]), &good)
            .unwrap()
            .contains("--quick"));
        assert!(refusal(&good, &set(false, 4, &[1.0]))
            .unwrap()
            .contains("nproc"));
        assert!(refusal(&Json::obj([("schema", Json::str("x"))]), &good).is_some());
    }

    #[test]
    fn an_unchanged_pair_of_sets_has_no_bad_row() {
        let a = set(false, 2, &[1.0, 1.01, 0.99, 1.0, 1.02]);
        let b = set(false, 2, &[1.01, 1.0, 1.0, 0.99, 1.02]);
        let (text, bad) = compare(&a, &b);
        assert_eq!(bad, 0, "{text}");
        assert_eq!(
            text.matches("unchanged").count(),
            workloads::NAMES.len() * END_TO_END.len()
        );
        // Higher qps is an improvement, higher times are regressions.
        let c = set(false, 2, &[2.0, 2.01, 1.99, 2.0, 2.02]);
        let (text, bad) = compare(&a, &c);
        assert_eq!(
            bad,
            workloads::NAMES.len() * (END_TO_END.len() - 1),
            "{text}"
        );
        assert_eq!(text.matches("improved").count(), workloads::NAMES.len());
    }
}
