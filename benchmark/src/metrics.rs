//! The metric vocabulary, read from the `BENCHMARK.json` the driver reads
//! (embedded at build time): every name the benchmark reports, with its
//! unit, direction and bound, in the order that file lists them.

use swope_obs::json::Json;

/// One metric `BENCHMARK.json` declares.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// end-to-end metrics have one, per-layer metrics do not.
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` declares.
pub struct Manifest {
    pub workloads: Vec<String>,
    /// Reported by `--trace 0`.
    pub end_to_end: Vec<Metric>,
    /// Reported by `--trace 1`.
    pub per_layer: Vec<Metric>,
}

impl Manifest {
    /// The manifest this binary was built next to.
    ///
    /// # Panics
    /// If the embedded file is not what the contract describes: that is
    /// a broken build, not a condition to handle.
    pub fn embedded() -> Self {
        let json =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let array = |key: &str| -> Vec<Json> {
            json.get(key).and_then(Json::as_array).unwrap_or_else(|| panic!("{key} array")).to_vec()
        };
        let text = |entry: &Json, field: &str| -> String {
            let value = entry.get(field).and_then(Json::as_str);
            value.unwrap_or_else(|| panic!("entry without {field}: {entry:?}")).to_owned()
        };
        let metrics = |key: &str| -> Vec<Metric> {
            array(key)
                .iter()
                .map(|m| Metric {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    higher_is_better: text(m, "better") == "higher",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Self {
            workloads: array("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

/// Metric values keyed by name, reported in vocabulary order.
pub struct Values {
    /// `None` until set: the metric does not apply to the workload.
    entries: Vec<(Metric, Option<f64>)>,
}

impl Values {
    /// All metrics of `vocabulary`, none of them set.
    pub fn new(vocabulary: &[Metric]) -> Self {
        Self { entries: vocabulary.iter().map(|m| (m.clone(), None)).collect() }
    }

    /// Sets one metric.
    ///
    /// # Panics
    /// If `name` is not in the vocabulary: reporting a metric
    /// `BENCHMARK.json` does not declare is a bug in this crate.
    pub fn set(&mut self, name: &str, value: f64) {
        let entry = self
            .entries
            .iter_mut()
            .find(|(m, _)| m.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in BENCHMARK.json"));
        // A ratio over an empty denominator is "nothing happened", not
        // NaN; and an empty sum is -0.0, which would print as "-0".
        entry.1 = Some(if value.is_finite() && value != 0.0 { value } else { 0.0 });
    }

    /// The metric's value; 0 if it was never set.
    pub fn get(&self, name: &str) -> f64 {
        self.iter().find(|(m, _)| m.name == name).and_then(|(_, v)| v).unwrap_or(0.0)
    }

    /// Every metric with its value, in vocabulary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Metric, Option<f64>)> + '_ {
        self.entries.iter().map(|(m, v)| (m, *v))
    }

    /// The contract's `"metrics"` object. The contract wants every
    /// declared metric there with a number, so one that does not apply to
    /// the workload reads 0 here (the report above it prints `n/a`).
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .iter()
            .map(|(m, value)| {
                let value = value.unwrap_or(0.0);
                format!("\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_declares_what_the_contract_requires() {
        let manifest = Manifest::embedded();
        assert_eq!(manifest.workloads, crate::workload::NAMES);
        for m in &manifest.end_to_end {
            let bound = m.bound.unwrap_or_else(|| panic!("{}: no bound", m.name));
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        let setup = manifest.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        assert!(!manifest.per_layer.is_empty());
        assert!(manifest.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn values_report_every_metric_in_order() {
        let manifest = Manifest::embedded();
        let mut v = Values::new(&manifest.end_to_end);
        v.set("setup_s", 1.25);
        v.set("qps", f64::NAN);
        let json = Json::parse(&v.to_json()).unwrap();
        let Json::Obj(fields) = &json else { panic!("not an object") };
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let declared: Vec<&str> = manifest.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, declared);
        assert_eq!(json.get("setup_s").unwrap().get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(json.get("setup_s").unwrap().get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(v.get("qps"), 0.0, "NaN is reported as 0");
        // Never set: absent from the report, 0 on the result line.
        assert_eq!(v.iter().find(|(m, _)| m.name == "rss_peak_mb").unwrap().1, None);
        assert_eq!(json.get("rss_peak_mb").unwrap().get("value").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "not in BENCHMARK.json")]
    fn unknown_metric_names_panic() {
        Values::new(&Manifest::embedded().end_to_end).set("latency_p99_ms", 1.0);
    }
}
