//! `hsim-benchmark compare A.json B.json`: is B worse than A?
//!
//! One row per workload × end-to-end metric, judged by the metric's
//! direction and bound, the reported values against the min–max range
//! of each side's whole passes:
//!
//! * `better` — every pass of B reads better than every pass of A;
//! * `worse` — B's value is worse than A's by more than the bound and
//!   every pass of B reads worse than every pass of A;
//! * `unresolved` — the values differ by more than the bound, or one
//!   side's own passes are spread wider than the bound, while the two
//!   sides' ranges overlap: the runs cannot tell;
//! * `within_bound` — otherwise.

use crate::json::Json;
use crate::metrics::{Metric, END_TO_END};

/// The verdict on one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A on every pass.
    Better,
    /// No worse than the bound allows.
    WithinBound,
    /// B is worse than A beyond the bound, on every pass.
    Worse,
    /// The passes overlap too much to say.
    Unresolved,
}

impl Verdict {
    /// The word printed in the table.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within_bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric's reported value and the range of the passes behind it.
/// For host timings the value is built from each point's fastest run,
/// so it may lie below `min`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    /// Reported value.
    pub value: f64,
    /// Smallest whole pass.
    pub min: f64,
    /// Largest whole pass.
    pub max: f64,
}

/// Judges reading `b` against baseline `a` for metric `m`.
pub fn judge(m: &Metric, a: Reading, b: Reading) -> Verdict {
    let bound = m.bound.expect("end-to-end metrics are bounded");
    // Fold direction away: `worsening` > 0 means B is worse.
    let worsening = if m.lower_is_better {
        (b.value - a.value) / a.value
    } else {
        (a.value - b.value) / a.value
    };
    let (b_all_better, b_all_worse) = if m.lower_is_better {
        (b.max < a.min, b.min > a.max)
    } else {
        (b.min > a.max, b.max < a.min)
    };
    let spread = |r: Reading| (r.max - r.min) / r.value;
    if b_all_better {
        Verdict::Better
    } else if worsening > bound {
        if b_all_worse {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

fn reading(workload: &Json, metric: &str) -> Option<Reading> {
    let m = workload.get("end_to_end")?.get(metric)?;
    Some(Reading {
        value: m.get("value")?.as_f64()?,
        min: m.get("min")?.as_f64()?,
        max: m.get("max")?.as_f64()?,
    })
}

fn failure_rate(workload: &Json) -> Option<f64> {
    let ops = workload.get("ops")?.as_f64()?;
    let failed = workload.get("ops_failed")?.as_f64()?;
    Some(failed / ops.max(1.0))
}

/// Compares two result documents. Returns the printed table and whether
/// B regressed (any `worse` row, or a higher failure rate).
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let workloads = |doc: &Json| -> Result<Vec<Json>, String> {
        doc.get("workloads")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .ok_or_else(|| "no \"workloads\" array".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut out = format!(
        "{:<16} {:<18} {:>14} {:>14} {:>8}  {}\n",
        "workload", "metric", "A", "B", "B vs A", "verdict"
    );
    let mut regressed = false;
    for x in &wa {
        let name = x
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let Some(y) = wb
            .iter()
            .find(|y| y.get("name").and_then(Json::as_str) == Some(name))
        else {
            out.push_str(&format!("{name:<16} missing from B\n"));
            regressed = true;
            continue;
        };
        for m in &END_TO_END {
            let (Some(ra), Some(rb)) = (reading(x, m.name), reading(y, m.name)) else {
                return Err(format!("{name}: metric {} missing", m.name));
            };
            let v = judge(m, ra, rb);
            regressed |= v == Verdict::Worse;
            out.push_str(&format!(
                "{:<16} {:<18} {:>14.6} {:>14.6} {:>+7.2}%  {}\n",
                name,
                m.name,
                ra.value,
                rb.value,
                100.0 * (rb.value - ra.value) / ra.value,
                v.word()
            ));
        }
        let (fa, fb) = (
            failure_rate(x).ok_or("ops missing in A")?,
            failure_rate(y).ok_or("ops missing in B")?,
        );
        if fb > fa {
            out.push_str(&format!(
                "{name:<16} ops_failed/ops rose from {fa:.4} to {fb:.4}: worse\n"
            ));
            regressed = true;
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(value: f64, min: f64, max: f64) -> Reading {
        Reading { value, min, max }
    }

    fn metric(lower_is_better: bool, bound: f64) -> Metric {
        Metric {
            name: "m",
            unit: "s",
            lower_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn lower_is_better_metric_follows_bound_and_overlap() {
        let wall = &metric(true, 0.10);
        let a = r(10.0, 9.8, 10.2);
        assert_eq!(judge(wall, a, r(10.3, 10.1, 10.5)), Verdict::WithinBound);
        assert_eq!(judge(wall, a, r(9.0, 8.9, 9.1)), Verdict::Better);
        assert_eq!(judge(wall, a, r(11.5, 11.3, 11.7)), Verdict::Worse);
        // 15 % worse, but one pass of B beat one of A.
        assert_eq!(judge(wall, a, r(11.5, 10.1, 12.0)), Verdict::Unresolved);
        // The values agree but B's passes are spread 30 % wide.
        assert_eq!(judge(wall, a, r(10.0, 8.5, 11.5)), Verdict::Unresolved);
    }

    #[test]
    fn higher_is_better_metric_is_mirrored() {
        let ips = &metric(false, 0.10);
        let a = r(5.0, 4.9, 5.1);
        assert_eq!(judge(ips, a, r(6.0, 5.9, 6.1)), Verdict::Better);
        assert_eq!(judge(ips, a, r(4.0, 3.9, 4.1)), Verdict::Worse);
        assert_eq!(judge(ips, a, r(4.8, 4.7, 4.95)), Verdict::WithinBound);
    }

    #[test]
    fn exact_metric_flags_any_real_drift() {
        let cyc = &metric(true, 0.005);
        let a = r(1_000_000.0, 1_000_000.0, 1_000_000.0);
        assert_eq!(judge(cyc, a, a), Verdict::WithinBound);
        assert_eq!(
            judge(cyc, a, r(1_010_000.0, 1_010_000.0, 1_010_000.0)),
            Verdict::Worse
        );
        assert_eq!(
            judge(cyc, a, r(990_000.0, 990_000.0, 990_000.0)),
            Verdict::Better
        );
    }

    fn doc(wall: f64, failed: f64) -> Json {
        let m = |v: f64| {
            Json::obj([
                ("value", Json::Num(v)),
                ("min", Json::Num(v * 0.99)),
                ("max", Json::Num(v * 1.01)),
            ])
        };
        let e2e = Json::obj(
            END_TO_END
                .iter()
                .map(|x| (x.name, if x.name == "wall_s" { m(wall) } else { m(1.0) })),
        );
        Json::obj([(
            "workloads",
            Json::Arr(vec![Json::obj([
                ("name", Json::str("w")),
                ("ops", Json::Num(100.0)),
                ("ops_failed", Json::Num(failed)),
                ("end_to_end", e2e),
            ])]),
        )])
    }

    #[test]
    fn documents_compare_row_by_row_and_failures_regress() {
        let (table, bad) = compare(&doc(1.0, 0.0), &doc(1.02, 0.0)).unwrap();
        assert!(!bad, "{table}");
        assert_eq!(table.lines().count(), 1 + END_TO_END.len());
        let (table, bad) = compare(&doc(1.0, 0.0), &doc(1.5, 0.0)).unwrap();
        assert!(bad && table.contains("worse"), "{table}");
        let (table, bad) = compare(&doc(1.0, 0.0), &doc(1.0, 1.0)).unwrap();
        assert!(bad && table.contains("ops_failed/ops rose"), "{table}");
        assert!(compare(&Json::Null, &doc(1.0, 0.0)).is_err());
    }
}
