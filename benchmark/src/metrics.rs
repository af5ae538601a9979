//! The metric names, units, directions and regression bounds, exactly as
//! `../BENCHMARK.json` lists them (a unit test keeps the two in step).

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees; every workload reports all seven.
pub const END_TO_END: [Metric; 7] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("op_p50_ms", "ms", "lower", 0.25),
    e2e("cpu_ms_per_op", "ms", "lower", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.15),
    e2e("top1_acc", "share", "higher", 0.005),
    e2e("mean_slowdown", "ratio", "lower", 0.005),
];

/// The outside-in ledger: every call the benchmark makes into a layer's
/// public functions, named after the layer.
pub const PER_LAYER: [Metric; 66] = [
    layer("simnet.msg_cost_ns", "ns", "lower"),
    layer("collectives.schedule_gen_us.w64", "us", "lower"),
    layer("collectives.schedule_gen_us.w256", "us", "lower"),
    layer("collectives.sim_exec_us.w64", "us", "lower"),
    layer("collectives.sim_exec_us.w256", "us", "lower"),
    layer("collectives.measure_sweep_ms.w64", "ms", "lower"),
    layer("collectives.schedcost_extract_ms.w64", "ms", "lower"),
    layer("collectives.schedcost_extract_ms.w256", "ms", "lower"),
    layer("collectives.fit_params_ms", "ms", "lower"),
    layer("collectives.rank_static_hot_ns", "ns", "lower"),
    layer("collectives.schedcheck_ms.w64", "ms", "lower"),
    layer("clusters.datagen_ms_per_pass", "ms", "lower"),
    layer("clusters.datagen_cells_per_s", "1/s", "higher"),
    layer("clusters.measure_cell_us.w64", "us", "lower"),
    layer("clusters.oracle_ms", "ms", "lower"),
    layer("mlcore.bin_ms", "ms", "lower"),
    layer("mlcore.fit_ms", "ms", "lower"),
    layer("mlcore.compile_ms", "ms", "lower"),
    layer("mlcore.predict_us.r1", "us", "lower"),
    layer("mlcore.predict_us.r64", "us", "lower"),
    layer("mlcore.predict_us.r630", "us", "lower"),
    layer("mlcore.predict_exact_us.r630", "us", "lower"),
    layer("core.records_to_dataset_ms", "ms", "lower"),
    layer("core.train_ms", "ms", "lower"),
    layer("core.model_to_json_ms", "ms", "lower"),
    layer("core.features_ns_per_row.warm", "ns", "lower"),
    layer("core.features_ms.cold", "ms", "lower"),
    layer("core.model_from_json_ms", "ms", "lower"),
    layer("core.table_gen_ms.cold", "ms", "lower"),
    layer("core.table_gen_ms.warm", "ms", "lower"),
    layer("core.table_json_ms", "ms", "lower"),
    layer("core.tuner_load_ms", "ms", "lower"),
    layer("core.tuner_select_hit_ns", "ns", "lower"),
    layer("core.tuner_select_miss_ns", "ns", "lower"),
    layer("core.tuner_select_fallback_ns", "ns", "lower"),
    layer("core.select_exact_share", "share", "higher"),
    layer("serve.parse_request_ns", "ns", "lower"),
    layer("serve.render_select_ns", "ns", "lower"),
    layer("serve.render_predict_ns", "ns", "lower"),
    layer("serve.batcher_submit_us", "us", "lower"),
    layer("serve.batch_rows_mean", "rows", "higher"),
    layer("serve.boot_ms", "ms", "lower"),
    layer("serve.client_write_us", "us", "lower"),
    layer("serve.client_wait_us", "us", "lower"),
    layer("serve.client_read_us", "us", "lower"),
    layer("serve.server_stage_us.parse", "us", "lower"),
    layer("serve.server_stage_us.select", "us", "lower"),
    layer("serve.server_stage_us.queue_wait", "us", "lower"),
    layer("serve.server_stage_us.batch_assembly", "us", "lower"),
    layer("serve.server_stage_us.predict", "us", "lower"),
    layer("serve.server_stage_us.serialize", "us", "lower"),
    layer("serve.server_stage_us.reply", "us", "lower"),
    layer("serve.attributed_share", "share", "higher"),
    layer("serve.requests_per_s", "1/s", "higher"),
    layer("serve.burst_p99_us", "us", "lower"),
    layer("serve.pingpong_p50_us", "us", "lower"),
    layer("serve.trace_off_ops_per_s", "1/s", "higher"),
    layer("obs.span_ns.enabled", "ns", "lower"),
    layer("obs.span_ns.disabled", "ns", "lower"),
    layer("obs.histogram_observe_ns", "ns", "lower"),
    layer("obs.window_observe_ns", "ns", "lower"),
    layer("obs.export_ms", "ms", "lower"),
    layer("bench.trace_overhead_share", "share", "lower"),
    layer("bench.ledger_closure_share", "share", "higher"),
    layer("bench.setup_peak_rss_mib", "MiB", "lower"),
    layer("bench.cpu_probe_ms", "ms", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use std::collections::BTreeSet;

    fn field<'a>(obj: &'a Value, key: &str) -> &'a Value {
        obj.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("BENCHMARK.json: missing {key:?}"))
    }

    fn declared(doc: &Value, section: &str) -> Vec<(String, String, String, Option<f64>)> {
        field(doc, section)
            .as_array()
            .expect("a list")
            .iter()
            .map(|m| {
                let text = |k| field(m, k).as_str().expect("a string").to_string();
                let bound = m
                    .as_object()
                    .and_then(|o| o.iter().find(|(k, _)| k == "bound"))
                    .and_then(|(_, v)| v.as_f64());
                (text("name"), text("unit"), text("better"), bound)
            })
            .collect()
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// binary prints. They must say the same thing.
    #[test]
    fn tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits beside benchmark/");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (section, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let ours: Vec<_> = table
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.to_string(),
                        m.bound,
                    )
                })
                .collect();
            assert_eq!(declared(&doc, section), ours, "{section} differs");
        }
        let workloads: Vec<String> = field(&doc, "workloads")
            .as_array()
            .expect("a list")
            .iter()
            .map(|w| field(w, "name").as_str().expect("a string").to_string())
            .collect();
        assert_eq!(workloads, crate::workload::WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            (setup.unit, setup.better, setup.bound),
            ("s", "lower", Some(largest))
        );
    }
}
