//! `compare A.json B.json`: is B worse than A by more than the benchmark
//! allows, on any end-to-end metric of any workload?

use std::path::Path;

use mmdb_types::{from_json, Value};

use crate::spec::Better;
use crate::stats;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Improved,
    Regressed,
    /// The base's own run-to-run spread is wider than the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Row {
    pub base_median: f64,
    pub other_median: f64,
    /// Relative change in the direction of *worse* (positive = worse).
    pub worse_by: f64,
    /// Quartile spread of the base's values (0 with fewer than two).
    pub base_spread: f64,
    pub verdict: Verdict,
}

pub fn judge(base: &[f64], other: &[f64], better: Better, bound: f64) -> Row {
    let base_median = stats::median(&mut base.to_vec());
    let other_median = stats::median(&mut other.to_vec());
    let change = if base_median == 0.0 {
        0.0
    } else {
        (other_median - base_median) / base_median.abs()
    };
    let worse_by = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let base_spread = stats::quartile_spread(base).unwrap_or(0.0);
    let verdict = if base_spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    Row {
        base_median,
        other_median,
        worse_by,
        base_spread,
        verdict,
    }
}

fn numbers(v: &Value) -> Vec<f64> {
    v.as_array()
        .map(|a| a.iter().filter_map(|x| x.as_f64().ok()).collect())
        .unwrap_or_default()
}

fn failed_share(workload: &Value) -> f64 {
    let sum = |field: &str| numbers(workload.get_field(field)).iter().sum::<f64>();
    let attempted = sum("attempted");
    if attempted == 0.0 {
        0.0
    } else {
        sum("failed") / attempted
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Print one row per (workload, end-to-end metric) of the base file and
/// return whether the comparison passes: no `regressed` row, nothing the
/// base reports missing from the other file, and no larger share of failed
/// operations. A base file without a usable `bound` or `values` is an error.
///
/// The verdict is on the values at the reference speed. Where both files
/// carry the values as measured (`values_raw`) they are judged too, and a
/// row on which the two verdicts differ is marked: there the speed
/// correction, not the program, may have decided.
pub fn compare_values(base: &Value, other: &Value) -> Result<bool, String> {
    let workloads = base
        .get_field("workloads")
        .as_object()
        .map_err(|_| "base file has no workloads".to_string())?;
    let mut pass = true;
    println!(
        "{:<12} {:<24} {:>14} {:>14} {:>9} {:>7} {:>8}  {:<10}  as measured",
        "workload",
        "metric",
        "base median",
        "other median",
        "worse by",
        "bound",
        "spread",
        "verdict"
    );
    for (name, w) in workloads.iter() {
        let other_w = other.get_field("workloads").get_field(name);
        if other_w.is_null() {
            println!("{name:<12} absent from the other file");
            pass = false;
            continue;
        }
        let metrics = w
            .get_field("end_to_end")
            .as_object()
            .map_err(|_| format!("{name}: no end_to_end"))?;
        for (metric, m) in metrics.iter() {
            let better = match m.get_field("better").as_str() {
                Ok("higher") => Better::Higher,
                Ok("lower") => Better::Lower,
                _ => return Err(format!("{name} {metric}: no direction in the base file")),
            };
            let bound = m
                .get_field("bound")
                .as_f64()
                .map_err(|_| format!("{name} {metric}: no bound in the base file"))?;
            let base_values = numbers(m.get_field("values"));
            if stats::median(&mut base_values.clone()) == 0.0 {
                return Err(format!("{name} {metric}: no values in the base file"));
            }
            let other_m = other_w.get_field("end_to_end").get_field(metric);
            let other_values = numbers(other_m.get_field("values"));
            if other_values.is_empty() {
                println!("{name:<12} {metric:<24} absent from the other file");
                pass = false;
                continue;
            }
            let row = judge(&base_values, &other_values, better, bound);
            let (base_raw, other_raw) = (
                numbers(m.get_field("values_raw")),
                numbers(other_m.get_field("values_raw")),
            );
            let as_measured = if base_raw.is_empty() || other_raw.is_empty() {
                String::new()
            } else {
                let raw = judge(&base_raw, &other_raw, better, bound);
                format!(
                    "{:>+8.2}% {}{}",
                    raw.worse_by * 100.0,
                    raw.verdict.as_str(),
                    if raw.verdict == row.verdict {
                        ""
                    } else {
                        "  <- differs"
                    }
                )
            };
            println!(
                "{name:<12} {metric:<24} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}% {:>7.2}%  {:<10}  {as_measured}",
                row.base_median,
                row.other_median,
                row.worse_by * 100.0,
                bound * 100.0,
                row.base_spread * 100.0,
                row.verdict.as_str()
            );
            pass &= row.verdict != Verdict::Regressed;
        }
        let (a, b) = (failed_share(w), failed_share(other_w));
        if b > a {
            println!("{name:<12} failed share rose from {a} to {b}");
            pass = false;
        }
    }
    Ok(pass)
}

pub fn compare_files(base: &Path, other: &Path) -> Result<bool, String> {
    compare_values(&load(base)?, &load(other)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let j = |other: &[f64], better| judge(&steady, other, better, 0.10).verdict;
        assert_eq!(j(&[104.0, 105.0], Better::Lower), Verdict::Ok);
        assert_eq!(j(&[120.0, 121.0], Better::Lower), Verdict::Regressed);
        assert_eq!(j(&[80.0, 81.0], Better::Lower), Verdict::Improved);
        // The same numbers read the other way for a throughput.
        assert_eq!(j(&[120.0, 121.0], Better::Higher), Verdict::Improved);
        assert_eq!(j(&[80.0, 81.0], Better::Higher), Verdict::Regressed);
        // A base that moves by a third between its own runs resolves nothing.
        let noisy = [100.0, 140.0, 70.0, 120.0, 90.0];
        assert_eq!(
            judge(&noisy, &[200.0], Better::Lower, 0.10).verdict,
            Verdict::Unresolved
        );
        let row = judge(&steady, &[110.0], Better::Lower, 0.10);
        assert!((row.worse_by - 0.10).abs() < 1e-12 && row.verdict == Verdict::Ok);
    }

    fn file(latency: &[f64], failed: f64) -> Value {
        let values: Vec<String> = latency.iter().map(|v| v.to_string()).collect();
        from_json(&format!(
            r#"{{"workloads": {{"w": {{"attempted": [100, 100], "failed": [{failed}, 0],
                "end_to_end": {{"latency_us": {{"unit": "us", "better": "lower", "bound": 0.1,
                "median": 0, "values": [{}]}}}}}}}}}}"#,
            values.join(",")
        ))
        .unwrap()
    }

    #[test]
    fn synthetic_files_pass_or_fail_as_a_whole() {
        let base = file(&[100.0, 101.0, 99.0], 0.0);
        assert_eq!(
            compare_values(&base, &file(&[102.0, 103.0, 101.0], 0.0)),
            Ok(true)
        );
        assert_eq!(
            compare_values(&base, &file(&[130.0, 131.0, 129.0], 0.0)),
            Ok(false)
        );
        // Faster, but more operations failed: not a pass.
        assert_eq!(
            compare_values(&base, &file(&[90.0, 91.0, 89.0], 2.0)),
            Ok(false)
        );
        assert!(compare_values(&from_json("{}").unwrap(), &base).is_err());
    }

    #[test]
    fn what_the_base_reports_must_be_in_the_other_file() {
        let base = file(&[100.0, 101.0, 99.0], 0.0);
        // The metric stopped being reported.
        assert_eq!(compare_values(&base, &file(&[], 0.0)), Ok(false));
        let renamed = from_json(
            r#"{"workloads": {"w": {"attempted": [1], "failed": [0], "end_to_end": {}}}}"#,
        )
        .unwrap();
        assert_eq!(compare_values(&base, &renamed), Ok(false));
        // The workload is gone.
        let empty = from_json(r#"{"workloads": {}}"#).unwrap();
        assert_eq!(compare_values(&base, &empty), Ok(false));
        // A base that cannot be judged against is an error, not a pass.
        assert!(compare_values(&file(&[], 0.0), &base).is_err());
        let no_bound = from_json(
            r#"{"workloads": {"w": {"end_to_end": {"latency_us":
                {"better": "lower", "values": [100, 101]}}}}}"#,
        )
        .unwrap();
        assert!(compare_values(&no_bound, &base).is_err());
    }
}
