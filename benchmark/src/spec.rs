//! The metric names and units this program prints. `BENCHMARK.json` at the
//! repository root lists the same names with their directions and bounds;
//! a test keeps the two in step.

/// End-to-end metrics, printed by untraced runs, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("preprocess_s", "s"),
    ("load_ms", "ms"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("throughput", "1/s"),
];

/// Per-layer metrics, printed by traced runs, on every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.generate_ms", "ms"),
    ("dijkstra.tree_ms", "ms"),
    ("ch.contract_s", "s"),
    ("ch.shortcuts", "count"),
    ("ch.levels", "count"),
    ("core.build_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.artifact_mb", "MiB"),
    ("store.load_mmap_ms", "ms"),
    ("store.load_heap_ms", "ms"),
    ("core.upward_us", "us"),
    ("core.sweep_1_ms", "ms"),
    ("core.speedup_vs_dijkstra", "x"),
    ("core.sweep_k16_scalar_ms", "ms"),
    ("core.sweep_k16_sse41_ms", "ms"),
    ("core.sweep_k16_avx2_ms", "ms"),
    ("core.sweep_par_k16_ms", "ms"),
    ("core.down_arcs", "count"),
    ("core.sweep_bytes_per_tree", "bytes"),
    ("host.stream_gbps", "GB/s"),
    ("host.stream_array_mb", "MiB"),
    ("host.stream_leaves_cache_mb", "MiB"),
    ("core.sweep_roofline_share", "share"),
    ("ch.p2p_query_us", "us"),
    ("core.rphast_select_ms", "ms"),
    ("core.rphast_sweep_us", "us"),
    ("core.hetero_batch_ms", "ms"),
    ("serve.parse_request_us", "us"),
    ("serve.encode_small_us", "us"),
    ("serve.encode_tree_ms", "ms"),
    ("serve.decode_tree_ms", "ms"),
    ("serve.decode_epoch_tree_ms", "ms"),
    ("serve.tree_reply_bytes", "bytes"),
    ("serve.call_tree_ms", "ms"),
    ("serve.call_p2p_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.batch_run_k16_ms", "ms"),
    ("serve.submit16_ms", "ms"),
    ("serve.tcp_tree_ms", "ms"),
    ("serve.tcp_hop_tree_ms", "ms"),
    ("serve.tcp_p2p_ms", "ms"),
    ("router.hop_tree_ms", "ms"),
    ("router.hop_p2p_ms", "ms"),
    ("router.failovers", "count"),
    ("router.ejections", "count"),
    ("client.p99_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.slo_share", "share"),
    ("serve.batch_occupancy", "count"),
    ("serve.multi_batch_share", "share"),
    ("serve.shed", "count"),
    ("serve.deadline_misses", "count"),
    ("serve.selection_cache_hit_share", "share"),
    ("metrics.freeze_s", "s"),
    ("metrics.freeze_rss_mb", "MiB"),
    ("metrics.customize_ms", "ms"),
    ("serve.poll_publish_ms", "ms"),
    ("serve.swap_epoch_us", "us"),
    ("serve.first_reply_new_epoch_ms", "ms"),
    ("trace.residual_share", "share"),
    ("trace.overhead_share", "share"),
];

/// The unit of a metric this program prints.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Kind;
    use serde::Value;

    fn names_and_units(spec: &Value, list: &str) -> Vec<(String, String)> {
        spec.get(list)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {list}"))
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .unwrap_or_else(|| panic!("{list}: no {k}"))
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_program_prints() {
        let spec: Value = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_and_units(&spec, "end_to_end"), own(END_TO_END));
        assert_eq!(names_and_units(&spec, "per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = spec
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, Kind::ALL.map(|k| k.name().to_string()));
        // The one metric the contract requires by name.
        assert_eq!(unit_of("setup_s"), Some("s"));
        // Every bound is one `compare` can read.
        assert_eq!(
            crate::compare::bounds_from_spec(&spec).unwrap().len(),
            END_TO_END.len()
        );
    }
}
