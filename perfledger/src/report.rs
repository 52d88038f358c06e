//! Assembly of the result line's metrics, shared by every workload, so
//! that each workload prints the same names in the same order.

use crate::layers::{self, LayerLedger};
use crate::out::{Metrics, Obj};
use crate::setup::{self, Phases};
use crate::stats;

/// The end-to-end metrics, in `BENCHMARK.json` order. Timings are
/// min-of-N over the run's operations: on a shared host whose speed
/// drifts by a quarter over seconds, the minimum repeats from run to
/// run where the median does not. Medians and the p90 go to the detail
/// record with their sample counts.
pub fn end_to_end(
    images_per_s: f64,
    latency_min_ms: f64,
    setup_s: f64,
    peak_rss_mb: f64,
    success_rate: f64,
    top1_agreement: f64,
) -> Metrics {
    let mut m = Metrics::default();
    m.add("images_per_s", images_per_s, "1/s");
    m.add("latency_min_ms", latency_min_ms, "ms");
    m.add("setup_s", setup_s, "s");
    m.add("peak_rss_mb", peak_rss_mb, "MB");
    m.add("success_rate", success_rate, "ratio");
    m.add("top1_agreement", top1_agreement, "ratio");
    m
}

/// Router figures of a serving replay; all zero on the inference
/// workloads, which have no router.
#[derive(Debug, Default)]
pub struct ServeFigures {
    pub batches: f64,
    pub shed: f64,
    pub mean_batch: f64,
    pub virtual_p99_us: f64,
    pub router_share: f64,
}

/// Registry counters summed over the timed segments of a run. The
/// registry is reset when a segment begins, so the set-up passes
/// between segments are not counted.
#[derive(Debug, Default)]
pub struct Counters {
    forward_passes: u64,
    dag_parallel_passes: u64,
    workspace_hits: u64,
    workspace_misses: u64,
    gemm_ns: u64,
    im2col_ns: u64,
    /// High-water mark over the segments.
    arena_bytes: u64,
}

impl Counters {
    pub fn begin(&self) {
        cap_obs::metrics().reset();
    }

    pub fn end(&mut self) {
        let r = cap_obs::metrics();
        self.forward_passes += r.forward_passes.get();
        self.dag_parallel_passes += r.dag_parallel_passes.get();
        self.workspace_hits += r.workspace_hits.get();
        self.workspace_misses += r.workspace_misses.get();
        self.gemm_ns += r.gemm_time_ns.get();
        self.im2col_ns += r.im2col_time_ns.get();
        self.arena_bytes = self.arena_bytes.max(r.arena_bytes.get());
    }
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
/// The `dag_workers` and `fused_layers` gauges are read as the last
/// timed call left them.
pub fn per_layer(
    ledger: &LayerLedger,
    c: &Counters,
    phases: &[Phases],
    serve: &ServeFigures,
    trace_overhead_pct: f64,
    triad_gbps: f64,
) -> Metrics {
    let mut out = Metrics::default();
    for (k, class) in layers::CLASSES.iter().enumerate() {
        out.add(
            format!("cnn.{class}.ms"),
            ledger.class_ms(k, stats::median),
            "ms",
        );
        out.add(
            format!("cnn.{class}.min_ms"),
            ledger.class_ms(k, stats::min),
            "ms",
        );
    }
    let r = cap_obs::metrics();
    let conv_total_ms = ledger.class_total_ms(0);
    let passes = c.forward_passes.max(1) as f64;
    let checkouts = (c.workspace_hits + c.workspace_misses).max(1) as f64;
    for (name, value, unit) in [
        ("tensor.conv.gflops", ledger.conv_gflops(), "GFLOP/s"),
        ("tensor.fc.gbps", ledger.fc_gbps(), "GB/s"),
        (
            "tensor.fc.pct_triad",
            100.0 * ledger.fc_gbps() / triad_gbps,
            "%",
        ),
        (
            "tensor.gemm_share",
            c.gemm_ns as f64 / 1e6 / conv_total_ms,
            "ratio",
        ),
        (
            "tensor.im2col_share",
            c.im2col_ns as f64 / 1e6 / conv_total_ms,
            "ratio",
        ),
        (
            "cnn.dag_parallel_passes",
            c.dag_parallel_passes as f64 / passes,
            "per_forward",
        ),
        ("cnn.dag_workers", r.dag_workers.get() as f64, "count"),
        ("cnn.fused_layers", r.fused_layers.get() as f64, "count"),
        (
            "cnn.arena_hit_ratio",
            c.workspace_hits as f64 / checkouts,
            "ratio",
        ),
        (
            "cnn.arena_mb",
            c.arena_bytes as f64 / (1 << 20) as f64,
            "MB",
        ),
    ] {
        out.add(name, value, unit);
    }
    setup::layer_metrics(&mut out, phases);
    out.add("serve.batches", serve.batches, "count");
    out.add("serve.shed", serve.shed, "count");
    out.add("serve.mean_batch", serve.mean_batch, "images");
    out.add("serve.virtual_p99_us", serve.virtual_p99_us, "virtual_us");
    out.add("serve.router_share", serve.router_share, "ratio");
    out.add("obs.trace_overhead_pct", trace_overhead_pct, "%");
    out.add("host.triad_gbps", triad_gbps, "GB/s");
    out
}

/// Operation times in ms, in run order, as a JSON list.
pub fn ms_list(secs: &[f64]) -> String {
    let v: Vec<String> = secs.iter().map(|s| format!("{:.3}", s * 1e3)).collect();
    format!("[{}]", v.join(","))
}

/// The sample count, and the p90 where at least ten samples lie beyond
/// it ("unsupported" otherwise).
pub fn latency_detail(detail: &mut Obj, op_secs: &[f64]) {
    detail.num("latency_samples", op_secs.len() as f64);
    match stats::tail(op_secs, 0.9) {
        Some(p90) => detail.num("latency_p90_ms", p90 * 1e3),
        None => detail.str("latency_p90_ms", "unsupported"),
    };
}
