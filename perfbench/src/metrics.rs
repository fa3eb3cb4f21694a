//! The metric names the result line must hold, as `BENCHMARK.json` lists
//! them: every end-to-end metric with `--trace 0`, every per-layer metric
//! with `--trace 1`, on every workload.

pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "peak_rss_mb",
    "train_s",
    "test_acc",
    "eval_ms",
    "capacity_ops_s",
];

pub const PER_LAYER: [&str; 61] = [
    "graph.load_ms",
    "sparse.normalize_ms",
    "nn.compile_ms",
    "autograd.begin_epoch_ms",
    "autograd.forward_ms",
    "autograd.loss_ms",
    "autograd.backward_ms",
    "nn.optim_ms",
    "autograd.epoch_ms",
    "autograd.epoch_ms.p90",
    "eval_ms.p90",
    "autograd.phase_coverage",
    "sparse.spmm_ms",
    "tensor.gemm_ms.in",
    "tensor.gemm_ms.hid",
    "tensor.gemm.calls",
    "tensor.gemm.work",
    "tensor.gemm_at_b.calls",
    "tensor.gemm_at_b.work",
    "tensor.gemm_a_bt.calls",
    "tensor.gemm_a_bt.work",
    "sparse.spmm.calls",
    "sparse.spmm.work",
    "sparse.spmm_subset.calls",
    "sparse.spmm_subset.work",
    "sparse.spmm_compact.calls",
    "sparse.spmm_compact.work",
    "tensor.elemwise.calls",
    "tensor.elemwise.work",
    "tensor.adam.calls",
    "tensor.adam.work",
    "core.skip_active_share",
    "sparse.spmm.bytes_computed",
    "bench.trace_overhead.train_s",
    "nn.checkpoint_read_ms",
    "serve.restore_ms",
    "serve.batch_ms.b1",
    "serve.batch_ms.b8",
    "serve.batch_ms.b64",
    "serve.rows_per_query.b1",
    "serve.rows_per_query.b64",
    "serve.full_eval_ms",
    "serve.update_us",
    "serve.update_us.p90",
    "serve.invalidated_per_update",
    "serve.first_hop_hit_rate",
    "serve.server.mean_batch.lo",
    "serve.server.mean_batch.hi",
    "serve.server.mean_batch.cap",
    "serve.server.capped_share.cap",
    "lat_p50_ms.lo",
    "lat_p99_ms.lo",
    "lat_p50_ms.hi",
    "lat_p99_ms.hi",
    "bench.gen_late_ms.lo",
    "bench.gen_late_ms.lo.max",
    "bench.backlog.lo",
    "bench.gen_late_ms.hi",
    "bench.gen_late_ms.hi.max",
    "bench.backlog.hi",
    "bench.trace_overhead.capacity_ops_s",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// The `"name"` values between `from` and `to` (or the end) of `text`.
    fn names<'a>(text: &'a str, from: &str, to: Option<&str>) -> Vec<&'a str> {
        let start = text.find(from).expect("section present");
        let end = to.map_or(text.len(), |t| text.find(t).expect("section present"));
        text[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect()
    }

    #[test]
    fn lists_match_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            names(&manifest, "\"workloads\"", Some("\"end_to_end\"")),
            workloads
        );
        assert_eq!(
            names(&manifest, "\"end_to_end\"", Some("\"per_layer\"")),
            END_TO_END
        );
        assert_eq!(names(&manifest, "\"per_layer\"", None), PER_LAYER);
    }
}
