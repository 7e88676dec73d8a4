//! The metric tables and the result line.
//!
//! `END_TO_END` and `PER_LAYER` list every metric with its unit and the
//! direction that is better; `BENCHMARK.json` at the repository root
//! must name the same metrics in the same order (checked by a test).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metric values by name.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

pub const END_TO_END: &[MetricDef] = &[
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("queries_per_s", "1/s", "higher"),
    ("events_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
];

pub const PER_LAYER: &[MetricDef] = &[
    ("workload.regions_ms", "ms", "lower"),
    ("workload.regions", "count", "higher"),
    ("workload.arrivals_ms", "ms", "lower"),
    ("workload.arrivals", "count", "higher"),
    ("methods.materialize_ms", "ms", "lower"),
    ("methods.allocations", "count", "higher"),
    ("grid.directory_ms", "ms", "lower"),
    ("engine.build_ms", "ms", "lower"),
    ("engine.builds", "count", "higher"),
    ("kernel.build_ms", "ms", "lower"),
    ("kernel.builds", "count", "higher"),
    ("kernel.table_bytes", "bytes", "lower"),
    ("kernel.score_ms", "ms", "lower"),
    ("kernel.score_ms.cache_resident", "ms", "lower"),
    ("kernel.score_ms.cache_exceeding", "ms", "lower"),
    ("kernel.queries", "count", "higher"),
    ("kernel.ns_per_query", "ns", "lower"),
    ("kernel.plan_hits", "count", "higher"),
    ("kernel.plan_misses", "count", "lower"),
    ("kernel.plan_hit_ratio", "ratio", "higher"),
    ("serve.run_ms", "ms", "lower"),
    ("serve.run_ms.below_knee", "ms", "lower"),
    ("serve.run_ms.above_knee", "ms", "lower"),
    ("serve.cells", "count", "higher"),
    ("serve.cell_ms_max", "ms", "lower"),
    ("serve.events", "count", "higher"),
    ("serve.ns_per_event", "ns", "lower"),
    ("serve.pages", "count", "lower"),
    ("serve.peak_in_flight", "count", "lower"),
    ("serve.shape_cache_hits", "count", "higher"),
    ("serve.shape_cache_misses", "count", "lower"),
    ("serve.shape_cache_hit_ratio", "ratio", "higher"),
    ("share.windows", "count", "higher"),
    ("share.merged_queries", "count", "higher"),
    ("share.pages_saved", "count", "higher"),
    ("share.pages_saved_ratio", "ratio", "higher"),
    ("faults.served", "count", "higher"),
    ("faults.lost", "count", "lower"),
    ("faults.shed", "count", "lower"),
    ("faults.retries", "count", "lower"),
    ("faults.failovers", "count", "lower"),
    ("faults.transitions", "count", "higher"),
    ("faults.availability", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_ratio", "ratio", "lower"),
];

/// Formats the last line of standard output: the end-to-end metrics, or
/// with `per_layer` the per-layer ones. End-to-end metrics must all be
/// measured; a per-layer metric a workload does not exercise reads 0.
pub fn result_line(
    values: &LayerValues,
    per_layer: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let wanted = if per_layer { PER_LAYER } else { END_TO_END };
    let mut body = Vec::with_capacity(wanted.len());
    for &(name, unit, _) in wanted {
        let value = match values.get(name) {
            Some(&v) => v,
            None if per_layer => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let mut line = String::new();
    write!(
        line,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    )
    .expect("writing to a String cannot fail");
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names, units and directions `BENCHMARK.json` declares,
    /// in order, for one of its metric lists.
    fn declared(json: &str, key: &str) -> Vec<(String, String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let list = &json[start..];
        let list = &list[..list.find(']').expect("list closes")];
        let field = |obj: &str, f: &str| {
            let at = obj.find(&format!("\"{f}\"")).expect("field present");
            let rest = &obj[at + f.len() + 2..];
            let open = rest.find('"').expect("string value") + 1;
            let close = open + rest[open..].find('"').expect("string closes");
            rest[open..close].to_owned()
        };
        list.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, String, String)> = table
                .iter()
                .map(|&(n, u, b)| (n.to_owned(), u.to_owned(), b.to_owned()))
                .collect();
            assert_eq!(declared(&json, key), want, "{key} differs");
        }
    }

    #[test]
    fn result_line_fills_unused_layers_and_rejects_missing_end_to_end() {
        let mut v = LayerValues::new();
        v.insert("run_s", 1.5);
        assert!(result_line(&v, false, 1, 0).is_err());
        let line = result_line(&v, true, 3, 0).expect("per-layer defaults to 0");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"share.windows\": {\"value\": 0, \"unit\": \"count\"}"));
        for &(name, ..) in END_TO_END {
            v.insert(name, 2.0);
        }
        let line = result_line(&v, false, 3, 1).expect("all measured");
        assert!(line.starts_with("{\"correct\": false"));
        assert!(line.contains("\"run_s\": {\"value\": 2, \"unit\": \"s\"}"));
    }
}
