//! Named metrics with a stable JSON encoding.
//!
//! A [`Report`] is an ordered list of `(name, value)` metrics under a
//! title. Its JSON schema (via `serde_json::to_string`) is:
//!
//! ```json
//! {
//!   "title": "phast tree query",
//!   "metrics": {
//!     "upward_settled": 412,
//!     "sweep_arcs_relaxed": 1903442,
//!     "upward_time": 184250,
//!     "lane_efficiency": 0.97,
//!     "note": "free-form text"
//!   }
//! }
//! ```
//!
//! Counts serialize as integers, durations as **integer nanoseconds**,
//! ratios as floats, and text as strings.

use std::time::Duration;

/// One metric value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// An event count.
    Count(u64),
    /// A wall-clock duration (serialized as nanoseconds).
    Time(Duration),
    /// A dimensionless ratio (efficiency, speedup, occupancy).
    Ratio(f64),
    /// Free-form text.
    Text(String),
}

impl std::fmt::Display for MetricValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricValue::Count(c) => write!(f, "{c}"),
            MetricValue::Time(d) => write!(f, "{d:?}"),
            MetricValue::Ratio(r) => write!(f, "{r:.3}"),
            MetricValue::Text(s) => f.write_str(s),
        }
    }
}

/// An ordered collection of named metrics with a title.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    title: String,
    entries: Vec<(String, MetricValue)>,
}

impl Report {
    /// An empty report titled `title`.
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            entries: Vec::new(),
        }
    }

    /// The title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The metrics, in insertion order.
    pub fn entries(&self) -> &[(String, MetricValue)] {
        &self.entries
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: MetricValue) -> &mut Self {
        self.entries.push((name.into(), value));
        self
    }

    /// Appends a count.
    pub fn push_count(&mut self, name: impl Into<String>, n: u64) -> &mut Self {
        self.push(name, MetricValue::Count(n))
    }

    /// Appends a duration.
    pub fn push_time(&mut self, name: impl Into<String>, d: Duration) -> &mut Self {
        self.push(name, MetricValue::Time(d))
    }

    /// Appends a ratio.
    pub fn push_ratio(&mut self, name: impl Into<String>, r: f64) -> &mut Self {
        self.push(name, MetricValue::Ratio(r))
    }

    /// Appends text.
    pub fn push_text(
        &mut self,
        name: impl Into<String>,
        text: impl Into<String>,
    ) -> &mut Self {
        self.push(name, MetricValue::Text(text.into()))
    }

    /// Merges every metric of `other` into `self` under `prefix.name`
    /// (insertion order preserved), so per-engine reports can be folded
    /// into one artifact — the JSON side of the bench harness's
    /// `BENCH_*.json` schema — without name collisions.
    pub fn merge_prefixed(&mut self, prefix: &str, other: &Report) -> &mut Self {
        for (name, value) in other.entries() {
            self.push(format!("{prefix}.{name}"), value.clone());
        }
        self
    }
}

fn sat_i64(n: u64) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

impl serde::Serialize for Report {
    fn to_value(&self) -> serde::Value {
        let metrics: Vec<(String, serde::Value)> = self
            .entries
            .iter()
            .map(|(name, v)| {
                let value = match v {
                    MetricValue::Count(c) => serde::Value::Int(sat_i64(*c)),
                    MetricValue::Time(d) => {
                        serde::Value::Int(sat_i64(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)))
                    }
                    MetricValue::Ratio(r) => serde::Value::Float(*r),
                    MetricValue::Text(s) => serde::Value::String(s.clone()),
                };
                (name.clone(), value)
            })
            .collect();
        serde::Value::Object(vec![
            ("title".to_string(), serde::Value::String(self.title.clone())),
            ("metrics".to_string(), serde::Value::Object(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_builds_in_order() {
        let mut r = Report::new("t");
        r.push_count("a", 1).push_ratio("b", 0.5).push_text("c", "x");
        assert_eq!(r.entries().len(), 3);
        assert_eq!(r.entries()[0].0, "a");
        assert_eq!(r.get("b"), Some(&MetricValue::Ratio(0.5)));
        assert_eq!(r.get("missing"), None);
    }

    #[test]
    fn json_schema_is_stable() {
        let mut r = Report::new("demo");
        r.push_count("settled", 42)
            .push_time("sweep_time", Duration::from_nanos(1500))
            .push_ratio("eff", 0.25)
            .push_text("note", "hi");
        let json = serde_json::to_string(&r).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["title"], "demo");
        assert_eq!(v["metrics"]["settled"], 42);
        assert_eq!(v["metrics"]["sweep_time"], 1500);
        assert_eq!(v["metrics"]["eff"], 0.25);
        assert_eq!(v["metrics"]["note"], "hi");
    }

    #[test]
    fn merge_prefixed_namespaces_and_keeps_order() {
        let mut suite = Report::new("suite");
        suite.push_count("benchmarks", 2);
        let mut a = Report::new("sweep");
        a.push_count("settled", 5).push_ratio("eff", 0.5);
        let mut b = Report::new("gphast");
        b.push_count("settled", 9);
        suite.merge_prefixed("sweep", &a).merge_prefixed("gphast", &b);
        let names: Vec<&str> = suite.entries().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec!["benchmarks", "sweep.settled", "sweep.eff", "gphast.settled"]
        );
        assert_eq!(suite.get("sweep.settled"), Some(&MetricValue::Count(5)));
        assert_eq!(suite.get("gphast.settled"), Some(&MetricValue::Count(9)));
        // The merged report serializes with the same stable schema.
        let v: serde_json::Value =
            serde_json::from_str(&serde_json::to_string(&suite).unwrap()).unwrap();
        assert_eq!(v["metrics"]["sweep.settled"], 5);
    }

    #[test]
    fn display_formats_each_kind() {
        assert_eq!(MetricValue::Count(3).to_string(), "3");
        assert_eq!(MetricValue::Ratio(0.5).to_string(), "0.500");
        assert_eq!(MetricValue::Text("x".into()).to_string(), "x");
        assert!(!MetricValue::Time(Duration::from_millis(2)).to_string().is_empty());
    }
}
