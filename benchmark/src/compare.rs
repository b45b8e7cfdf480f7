//! `compare A.json B.json`: one verdict per workload × end-to-end metric,
//! with the directions and bounds of `BENCHMARK.json`. A result file is a
//! JSON array of the objects single runs write (`--out`); several runs of
//! one workload give the medians and the run-to-run spread.

use crate::stats::{median, spread_share};
use serde::Value;
use std::collections::BTreeMap;

/// Direction and bound of one end-to-end metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// Reads the end-to-end metric table out of `BENCHMARK.json`.
pub fn bounds_from_spec(spec: &Value) -> Result<Vec<Bound>, String> {
    let list = spec
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("the spec has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or_else(|| format!("an end_to_end entry lacks `{k}`"))
            };
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("metric name is not a string")?
                    .to_string(),
                higher_is_better: match field("better")?.as_str() {
                    Some("higher") => true,
                    Some("lower") => false,
                    other => {
                        return Err(format!("`better` must be higher or lower, not {other:?}"))
                    }
                },
                bound: field("bound")?
                    .as_f64()
                    .ok_or("metric bound is not a number")?,
            })
        })
        .collect()
}

/// What a comparison concluded for one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is within the bound of A.
    Same,
    /// B is better than A by more than the bound.
    Better,
    /// B is worse than A by more than the bound.
    Worse,
    /// The runs of one side differ among themselves by more than the
    /// bound, so nothing can be said.
    Unresolved,
}

/// One line of the comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median over A's runs.
    pub a: f64,
    /// Median over B's runs.
    pub b: f64,
    /// By how much B is worse, as a share of A (negative: better).
    pub worse_by: f64,
    /// Larger of the two sides' run-to-run spreads, as a share.
    pub spread: f64,
    /// The bound applied.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Run-to-run spread of one side as a share of its median: the quartile
/// distance for four runs or more, the range for two or three, nothing
/// (zero) for a single run.
fn spread(values: &[f64]) -> f64 {
    match values.len() {
        0 | 1 => 0.0,
        2 | 3 => {
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            (hi - lo) / median(&mut values.to_vec()).abs()
        }
        _ => spread_share(values),
    }
}

/// Applies one bound to the two sides' values.
pub fn judge(workload: &str, bound: &Bound, a: &[f64], b: &[f64]) -> Row {
    let (ma, mb) = (median(&mut a.to_vec()), median(&mut b.to_vec()));
    let worse_by = if bound.higher_is_better {
        ma - mb
    } else {
        mb - ma
    } / ma.abs();
    let spread = spread(a).max(spread(b));
    let verdict = if spread > bound.bound {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else if worse_by < -bound.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Row {
        workload: workload.to_string(),
        metric: bound.name.clone(),
        a: ma,
        b: mb,
        worse_by,
        spread,
        bound: bound.bound,
        verdict,
    }
}

fn runs(file: &Value) -> Result<&[Value], String> {
    match file.as_array() {
        Some(list) if !list.is_empty() => Ok(list),
        _ => Err("a result file must be a non-empty JSON array of run results".into()),
    }
}

/// The fields two results must share to be comparable, with the run's
/// workload where the field is per workload.
fn identity(run: &Value) -> Result<Vec<(String, String)>, String> {
    let workload = run
        .get("workload")
        .and_then(Value::as_str)
        .ok_or("a run lacks `workload`")?;
    let show = |v: Option<&Value>| v.map_or("missing".to_string(), ToString::to_string);
    Ok(vec![
        ("host".into(), show(run.get("host"))),
        ("seed".into(), show(run.get("seed"))),
        ("seconds".into(), show(run.get("seconds"))),
        ("smoke".into(), show(run.get("smoke"))),
        (format!("{workload} instance"), show(run.get("instance"))),
    ])
}

/// Per workload, per metric, the values of every untraced run in `file`.
fn collect(file: &Value) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for run in runs(file)? {
        if run.get("trace").and_then(Value::as_bool) == Some(true) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("a run lacks `workload`")?;
        let Some(Value::Object(metrics)) = run.get("metrics") else {
            return Err(format!("a {workload} run lacks `metrics`"));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{workload}/{name} has no numeric value"))?;
            out.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

/// Compares two result files. Refuses (an `Err`) when host fingerprint,
/// `nproc`, seed, run length or instance sizes differ, within a file or
/// between them: such numbers are not comparable at all.
pub fn compare(a: &Value, b: &Value, bounds: &[Bound]) -> Result<Vec<Row>, String> {
    let mut seen: BTreeMap<String, String> = BTreeMap::new();
    for run in runs(a)?.iter().chain(runs(b)?) {
        for (field, value) in identity(run)? {
            if let Some(first) = seen.get(&field) {
                if *first != value {
                    return Err(format!(
                        "refusing to compare: {field} differs ({first} vs {value})"
                    ));
                }
            } else {
                seen.insert(field, value);
            }
        }
    }
    let (a, b) = (collect(a)?, collect(b)?);
    let mut rows = Vec::new();
    for (workload, metrics_a) in &a {
        let metrics_b = b
            .get(workload)
            .ok_or_else(|| format!("B has no {workload} run"))?;
        for bound in bounds {
            let (Some(va), Some(vb)) = (metrics_a.get(&bound.name), metrics_b.get(&bound.name))
            else {
                return Err(format!("{workload} lacks the metric {}", bound.name));
            };
            rows.push(judge(workload, bound, va, vb));
        }
    }
    if let Some(extra) = b.keys().find(|w| !a.contains_key(*w)) {
        return Err(format!("A has no {extra} run"));
    }
    Ok(rows)
}

/// The comparison as a table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<12} {:<13} {:>12} {:>12} {:>9} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:<13} {:>12.4} {:>12.4} {:>8.1}% {:>7.1}% {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Same => "same",
                Verdict::Better => "better",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "unresolved",
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "p50_ms".into(),
            higher_is_better: false,
            bound,
        }
    }

    fn run(workload: &str, seed: i64, nproc: i64, vertices: i64, p50: f64, rps: f64) -> Value {
        let metric = |v: f64, unit: &str| {
            Value::Object(vec![
                ("value".into(), Value::Float(v)),
                ("unit".into(), Value::String(unit.into())),
            ])
        };
        Value::Object(vec![
            ("workload".into(), Value::String(workload.into())),
            ("seed".into(), Value::Int(seed)),
            ("seconds".into(), Value::Float(10.0)),
            ("smoke".into(), Value::Bool(false)),
            ("trace".into(), Value::Bool(false)),
            (
                "host".into(),
                Value::Object(vec![
                    ("cpu_model".into(), Value::String("cpu".into())),
                    ("nproc".into(), Value::Int(nproc)),
                ]),
            ),
            (
                "instance".into(),
                Value::Object(vec![("vertices".into(), Value::Int(vertices))]),
            ),
            (
                "metrics".into(),
                Value::Object(vec![
                    ("p50_ms".into(), metric(p50, "ms")),
                    ("throughput".into(), metric(rps, "1/s")),
                ]),
            ),
        ])
    }

    fn bounds() -> Vec<Bound> {
        vec![
            lower(0.10),
            Bound {
                name: "throughput".into(),
                higher_is_better: true,
                bound: 0.10,
            },
        ]
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let b = lower(0.10);
        assert_eq!(judge("w", &b, &[10.0], &[10.9]).verdict, Verdict::Same);
        assert_eq!(judge("w", &b, &[10.0], &[11.5]).verdict, Verdict::Worse);
        assert_eq!(judge("w", &b, &[10.0], &[8.0]).verdict, Verdict::Better);
        let up = &bounds()[1];
        assert_eq!(judge("w", up, &[100.0], &[80.0]).verdict, Verdict::Worse);
        assert_eq!(judge("w", up, &[100.0], &[120.0]).verdict, Verdict::Better);
        assert_eq!(judge("w", up, &[100.0], &[95.0]).verdict, Verdict::Same);
        let row = judge("w", &b, &[10.0, 10.2, 9.9], &[11.6, 11.5, 11.4]);
        assert_eq!(row.verdict, Verdict::Worse);
        assert!((row.worse_by - 0.15).abs() < 1e-9);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let b = lower(0.10);
        // A's own runs differ by 30 %: no verdict either way.
        assert_eq!(
            judge("w", &b, &[10.0, 13.0], &[10.0, 10.1]).verdict,
            Verdict::Unresolved
        );
        assert_eq!(
            judge("w", &b, &[10.0, 10.1], &[20.0, 26.0]).verdict,
            Verdict::Unresolved
        );
        // Five runs within 1.5 % of each other are resolved.
        let steady = [10.0, 10.1, 10.05, 9.95, 10.02];
        assert_eq!(judge("w", &b, &steady, &steady).verdict, Verdict::Same);
    }

    #[test]
    fn files_compare_per_workload_and_metric() {
        let a = Value::Array(vec![
            run("serve_tree", 1, 2, 100, 10.0, 140.0),
            run("serve_tree", 1, 2, 100, 10.2, 139.0),
        ]);
        let b = Value::Array(vec![
            run("serve_tree", 1, 2, 100, 12.0, 141.0),
            run("serve_tree", 1, 2, 100, 12.1, 140.0),
        ]);
        let rows = compare(&a, &b, &bounds()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            (rows[0].metric.as_str(), rows[0].verdict),
            ("p50_ms", Verdict::Worse)
        );
        assert_eq!(
            (rows[1].metric.as_str(), rows[1].verdict),
            ("throughput", Verdict::Same)
        );
        assert!(render(&rows).contains("WORSE"));
    }

    #[test]
    fn differing_host_seed_or_instance_is_refused() {
        let base = Value::Array(vec![run("serve_tree", 1, 2, 100, 10.0, 140.0)]);
        for (other, what) in [
            (run("serve_tree", 2, 2, 100, 10.0, 140.0), "seed"),
            (run("serve_tree", 1, 4, 100, 10.0, 140.0), "host"),
            (run("serve_tree", 1, 2, 250, 10.0, 140.0), "instance"),
        ] {
            let err = compare(&base, &Value::Array(vec![other]), &bounds()).unwrap_err();
            assert!(err.contains("refusing") && err.contains(what), "{err}");
        }
        // A workload missing on one side is an error too, not a silent skip.
        let other = Value::Array(vec![run("rebuild", 1, 2, 100, 10.0, 140.0)]);
        assert!(compare(&base, &other, &bounds()).is_err());
        assert!(compare(&Value::Array(vec![]), &base, &bounds()).is_err());
    }

    #[test]
    fn bounds_are_read_from_the_spec() {
        let spec: Value = serde_json::from_str(
            r#"{"end_to_end":[{"name":"p50_ms","unit":"ms","better":"lower","bound":0.1},
                {"name":"throughput","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        assert_eq!(bounds_from_spec(&spec).unwrap(), bounds());
        let bad: Value = serde_json::from_str(
            r#"{"end_to_end":[{"name":"x","better":"sideways","bound":0.1}]}"#,
        )
        .unwrap();
        assert!(bounds_from_spec(&bad).is_err());
    }
}
