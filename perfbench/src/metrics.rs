//! The benchmark's metric vocabulary, summary statistics and the result
//! line the benchmark prints last.

use std::collections::BTreeMap;

/// A metric: name, unit and which direction is an improvement.
/// `BENCHMARK.json` lists the same metrics; a test keeps the two in step.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics a user of the simulator sees, measured with tracing off. An
/// "operation" is a sweep point or an HTTP request.
pub const END_TO_END: &[MetricDef] = &[
    def("wall_s", "s", Lower),
    def("cpu_s", "s", Lower),
    def("peak_rss_mb", "MB", Lower),
    def("setup_s", "s", Lower),
    def("p50_ms", "ms", Lower),
    def("p95_ms", "ms", Lower),
    def("ops_per_s", "1/s", Higher),
];

/// Metrics of single layers, from the traced run. Every time is measured
/// on every workload: "fresh" operations ran a simulation, "hit"
/// operations were answered by a result cache. Only counts and ratios of
/// a layer a workload does not run (`exec.*` on serve_mix, `server.*` on
/// the sweeps) read 0.
pub const PER_LAYER: &[MetricDef] = &[
    def("systolic.demand_s", "s", Lower),
    def("systolic.demand_ns_per_run", "ns", Lower),
    def("systolic.compute_s", "s", Lower),
    def("memory.dram_s", "s", Lower),
    def("memory.dram_ns_per_run", "ns", Lower),
    def("core.unattributed_frac", "ratio", Lower),
    def("replay.traced_wall_s", "s", Lower),
    def("replay.untraced_wall_s", "s", Lower),
    def("demand.elements", "count", Lower),
    def("demand.runs", "count", Lower),
    def("demand.elements_per_run", "elem/run", Higher),
    def("core.layer_sims", "count", Lower),
    def("core.layer_cache_hit_rate", "ratio", Higher),
    def("core.key_us", "us", Lower),
    def("fresh.p50_ms", "ms", Lower),
    def("fresh.p95_ms", "ms", Lower),
    def("fresh.max_ms", "ms", Lower),
    def("fresh.sim_s", "s", Lower),
    def("fresh.wait_s", "s", Lower),
    def("hit.p50_ms", "ms", Lower),
    def("exec.steals", "count", Lower),
    def("exec.busy_min", "ratio", Higher),
    def("server.hit_frac", "ratio", Higher),
    def("server.join_frac", "ratio", Higher),
    def("server.shed", "count", Lower),
    def("server.deadline_expired", "count", Lower),
];

/// Looks a metric up in either table.
pub fn lookup(name: &str) -> Option<MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .copied()
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (0 if empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(attempted: u64, failed: u64, metrics: &BTreeMap<&'static str, f64>) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let unit = lookup(name).map_or("", |m| m.unit);
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                finite(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(",")
    )
}

/// JSON has no NaN or infinity; a non-finite measurement reads as 0.
pub fn finite(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]`, starting
    /// with a letter or digit, at most 64 characters.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name `{}`", m.name);
            assert!(seen.insert(m.name), "duplicate metric name `{}`", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit `{}`",
                m.unit
            );
        }
        assert!(!valid_name("has space"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("p95{ms}"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let json = scalesim_server::Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<String> = json
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric array")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(|v| v.as_str()).expect("metric field");
                    format!("{} {} {}", field("name"), field("unit"), field("better"))
                })
                .collect();
            let ours: Vec<String> = table
                .iter()
                .map(|m| format!("{} {} {}", m.name, m.unit, m.better.as_str()))
                .collect();
            assert_eq!(listed, ours, "{key} in BENCHMARK.json");
        }
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.95), 9.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = BTreeMap::new();
        m.insert("wall_s", 1.25);
        assert_eq!(
            result_line(3, 0, &m),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"wall_s\":{\"value\":1.25,\"unit\":\"s\"}}}"
        );
    }
}
