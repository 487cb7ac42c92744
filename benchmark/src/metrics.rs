//! Every metric the benchmark reports, defined once: name, unit,
//! direction and — for end-to-end metrics — the regress bound.
//! `BENCHMARK.json` carries the same table (a unit test keeps the two
//! in step); `README.md` says what each one means.

use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true`: a higher value is better.
    pub higher: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher: false,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher: true,
        bound: None,
    }
}

pub const END_TO_END: &[MetricDef] = &[
    e2e("job_s", "s", false, 0.20),
    e2e("jobs_per_s", "1/s", true, 0.20),
    e2e("setup_s", "s", false, 0.25),
    e2e("peak_rss_mib", "MiB", false, 0.15),
];

pub const PER_LAYER: &[MetricDef] = &[
    higher("host.memcpy_gib_s", "GiB/s"),
    higher("host.seqread_mib_s", "MiB/s"),
    higher("host.nproc", "count"),
    higher("host.llc_mib", "MiB"),
    lower("trace.wall_ms", "ms"),
    lower("trace.overhead_pct", "%"),
    lower("trace.unattributed_pct", "%"),
    lower("frontend.parse_ms", "ms"),
    lower("sema.analyze_ms", "ms"),
    lower("core.compile_ms", "ms"),
    lower("core.kernel_instrs", "count"),
    lower("interp.host_ms", "ms"),
    lower("linearize.ms", "ms"),
    higher("linearize.mib_s", "MiB/s"),
    lower("codegen.emit_ms", "ms"),
    lower("codegen.cold_compile_ms", "ms"),
    lower("codegen.load_ms", "ms"),
    lower("freeride.pass_ms", "ms"),
    lower("freeride.busy_ms", "ms"),
    lower("freeride.combine_ms", "ms"),
    lower("freeride.imbalance", "x"),
    higher("freeride.rows_per_s", "1/s"),
    higher("freeride.mib_s", "MiB/s"),
    higher("freeride.bw_frac", "ratio"),
    higher("freeride.speedup_2t", "x"),
    lower("freeride.over_plain_x", "x"),
    lower("paper.gap_x", "x"),
    lower("io.read_ms", "ms"),
    lower("io.stall_ms", "ms"),
    lower("io.backpressure_ms", "ms"),
    higher("io.mib_s", "MiB/s"),
    lower("io.pool_mib", "MiB"),
    lower("io.over_mem_x", "x"),
    lower("io.sync_ms", "ms"),
    lower("sparse.inspect_ms", "ms"),
    lower("sparse.exec_ms", "ms"),
    lower("sparse.scheme", "code"),
    lower("sparse.best_forced_ms", "ms"),
    lower("sparse.best_forced", "code"),
    lower("sparse.chosen_over_best_x", "x"),
    lower("dist.round_ms", "ms"),
    lower("dist.bytes_sent", "B"),
    lower("dist.bytes_recv", "B"),
    higher("dist.scale_eff_2n", "ratio"),
    lower("dist.over_local_x", "x"),
    lower("ft.ckpt_ms", "ms"),
    lower("ft.ckpt_bytes", "B"),
    lower("serve.submit_ms", "ms"),
    lower("serve.over_direct_ms", "ms"),
    lower("serve.job_p90_s", "s"),
    higher("serve.program_cache_hit_ratio", "ratio"),
    higher("serve.dataset_cache_hit_ratio", "ratio"),
    lower("serve.rejected", "count"),
];

/// The values one run measured, by metric name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `"name": {"value": v, "unit": "u"}` for every metric of `defs`,
    /// in table order. A layer that is not on this workload's path did
    /// no work: its metrics read 0.
    pub fn json(&self, defs: &[MetricDef]) -> String {
        assert!(
            self.0.keys().all(|k| defs.iter().any(|d| d.name == *k)),
            "a workload set a metric the table does not define"
        );
        let fields: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self.get(d.name).unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// One `name value unit` line per measured metric, in table order.
    pub fn print(&self, defs: &[MetricDef]) {
        for d in defs {
            if let Some(v) = self.get(d.name) {
                println!("  {:<34} {v:>16.6} {}", d.name, d.unit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{parse_json, JsonValue};

    fn names(doc: &JsonValue, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .expect("array")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(JsonValue::as_num),
                )
            })
            .collect()
    }

    fn table(defs: &[MetricDef]) -> Vec<(String, String, String, Option<f64>)> {
        defs.iter()
            .map(|d| {
                let better = if d.higher { "higher" } else { "lower" };
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    better.to_string(),
                    d.bound,
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_carries_this_table() {
        let doc = parse_json(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(names(&doc, "end_to_end"), table(END_TO_END));
        assert_eq!(names(&doc, "per_layer"), table(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn json_fills_unmeasured_metrics_with_zero() {
        let mut m = Metrics::default();
        m.set("job_s", 1.25);
        let doc = parse_json(&m.json(END_TO_END)).expect("parses");
        let value = |k: &str| {
            doc.get(k)
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_num)
        };
        assert_eq!(value("job_s"), Some(1.25));
        assert_eq!(value("setup_s"), Some(0.0));
    }
}
