//! Metric names, units, and the two outputs of a run: one line per metric
//! for a reader, then — last on standard output — the JSON object the
//! driver parses. The name lists here are the ones `BENCHMARK.json`
//! declares; a unit test keeps the two equal.

use crate::stats;
use std::collections::BTreeMap;

pub const WORKLOADS: [&str; 4] = ["oneshot-cold", "warm-scoring", "serve-rw", "cluster-2w"];

/// What a user of the system sees. Every workload reports every one of
/// these through its own surface (README: "End-to-end metrics").
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("big_p50_ms", "ms"),
    ("ibig_p50_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("build_p50_ms", "ms"),
    ("restart_p50_ms", "ms"),
    ("snapshot_bytes_per_row", "B/row"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Single-layer metrics of the traced run; layer = crate. A workload
/// that does not touch a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 65] = [
    ("bitvec.popcount_ns_per_kword", "ns"),
    ("bitvec.and_count_ns_per_kword", "ns"),
    ("bitvec.and_not_count_ns_per_kword", "ns"),
    ("bitvec.count_and_andnot_ns_per_kword", "ns"),
    ("index.bitmap_build_ms", "ms"),
    ("index.binned_build_ms", "ms"),
    ("index.bitmap_bytes_per_row", "B/row"),
    ("index.binned_bytes_per_row", "B/row"),
    ("index.h2_probe_ns", "ns"),
    ("index.bin_probe_ns", "ns"),
    ("core.preprocess_ms", "ms"),
    ("core.big_query_ms", "ms"),
    ("core.ibig_query_ms", "ms"),
    ("core.h1_pruned", "count"),
    ("core.h2_pruned", "count"),
    ("core.h3_pruned", "count"),
    ("core.scored", "count"),
    ("core.scored_per_result", "ratio"),
    ("core.engine_big_p50_ms", "ms"),
    ("core.parallel_t1_over_seq", "ratio"),
    ("core.parallel_t2_big_ms", "ms"),
    ("core.query_many_ms", "ms"),
    ("core.batch_qps", "1/s"),
    ("core.dynamic_build_ms", "ms"),
    ("core.dynamic_apply_us_per_op", "us"),
    ("core.dynamic_refresh_ms", "ms"),
    ("core.dynamic_snapshot_ms", "ms"),
    ("core.standing_patch_ms", "ms"),
    ("core.standing_patched", "count"),
    ("core.standing_fallbacks", "count"),
    ("core.compactions", "count"),
    ("core.tombstones", "count"),
    ("ql.compile_us", "us"),
    ("ql.exec_scoped_ms", "ms"),
    ("ql.over_handbuilt_ms", "ms"),
    ("ql.text_p50_ms", "ms"),
    ("store.encode_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.snapshot_bytes", "B"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.wire_overhead_us", "us"),
    ("serve.big_p99_ms", "ms"),
    ("serve.batch_qps", "1/s"),
    ("serve.notify_after_ack_ms", "ms"),
    ("serve.writer_late_ms", "ms"),
    ("serve.served_queries", "count"),
    ("serve.coalesced_batches", "count"),
    ("serve.overloaded", "count"),
    ("serve.timeouts", "count"),
    ("serve.queue_depth_max", "count"),
    ("cluster.seed_ms", "ms"),
    ("cluster.handoff_ms", "ms"),
    ("cluster.frames_per_query", "count"),
    ("cluster.tau_rounds_per_query", "count"),
    ("cluster.candidates_per_query", "count"),
    ("cluster.frames_per_update", "count"),
    ("cluster.over_inproc_ms", "ms"),
    ("cluster.post_update_query_ms", "ms"),
    ("cluster.repairs", "count"),
    ("host.parallelism_cap", "count"),
    ("host.speed_probe_us", "us"),
    ("trace_spans", "count"),
    ("trace_overhead_pct", "%"),
];

#[derive(Clone, Copy, Debug)]
struct Entry {
    value: f64,
    samples: usize,
    /// The tail percentile a timing's sample supports, for the reader.
    tail: Option<(f64, f64)>,
}

/// The metrics one run measured, by name.
#[derive(Default)]
pub struct Report {
    entries: BTreeMap<&'static str, Entry>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
        .1
}

impl Report {
    /// A plain value backed by `samples` measurements.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        unit_of(name);
        assert!(value.is_finite(), "{name} is not finite");
        self.entries.insert(
            name,
            Entry {
                value,
                samples,
                tail: None,
            },
        );
    }

    /// A timing: the median of `samples`, its tail kept for the reader.
    pub fn timing(&mut self, name: &'static str, samples: &[f64]) {
        self.set(name, stats::median(samples), samples.len());
        if let Some(e) = self.entries.get_mut(name) {
            e.tail = stats::tail(samples);
        }
    }

    /// Take over every metric of `other`.
    pub fn absorb(&mut self, other: Report) {
        self.entries.extend(other.entries);
    }

    /// One line per measured metric: name, value, unit, sample count,
    /// and the tail percentile the sample supports.
    pub fn print_lines(&self) {
        for (name, e) in &self.entries {
            let tail = e
                .tail
                .map_or(String::new(), |(p, v)| format!("  p{p}={v:.4}"));
            println!(
                "{name:<40} {:>16.4} {:<6} n={}{tail}",
                e.value,
                unit_of(name),
                e.samples
            );
        }
    }

    /// The driver's JSON object. End-to-end metrics must all have been
    /// measured and be non-zero; an unmeasured layer metric reads 0.
    pub fn json(&self, traced: bool, correct: bool, attempted: u64, failed: u64) -> String {
        let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let value = match self.entries.get(name) {
                    Some(e) => e.value,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                assert!(traced || value > 0.0, "end-to-end metric {name} is {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn name_ok(name: &str) -> bool {
        let head = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        head && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{unit}");
            assert!(seen.insert(*name), "{name} declared twice");
        }
        for w in WORKLOADS {
            assert!(name_ok(w), "{w}");
            assert!(seen.insert(w), "{w} collides with a metric");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str, field: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s(field))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end", "unit"), own(&END_TO_END));
        assert_eq!(names("per_layer", "unit"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads", "why").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            spec.get("paths")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
        for m in spec.get("end_to_end").and_then(Json::as_array).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        }
    }

    #[test]
    fn printed_json_carries_every_declared_metric_and_nothing_else() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.set(name, 1.5, 3);
        }
        let parsed = Json::parse(&r.json(false, true, 10, 0)).unwrap();
        let keys: Vec<&str> = parsed.keys().collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = parsed.get("metrics").unwrap();
        let got: Vec<&str> = metrics.keys().collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(got, want);
        assert_eq!(
            metrics
                .get("setup_s")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("s")
        );

        let layers = Json::parse(&Report::default().json(true, true, 1, 0)).unwrap();
        let got: Vec<&str> = layers.get("metrics").unwrap().keys().collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_end_to_end_metric_is_a_bug_not_a_zero() {
        Report::default().json(false, true, 1, 0);
    }
}
