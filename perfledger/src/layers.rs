//! Per-layer attribution from traced operations.
//!
//! Each traced operation hands its layer spans to a [`LayerLedger`],
//! which sums span self time per `(variant, group)` and per layer class
//! (conv / fc / other) within the operation. One operation yields one
//! sample per row, so a row's min and median are the min-of-N and the
//! median over the run's traced operations. Layer spans do not nest
//! (the enclosing forward span is not a layer span), so a layer span's
//! duration is its self time.

use crate::out::Obj;
use crate::stats;
use cap_cnn::{LayerKind, Network};
use cap_obs::{SpanRecord, SpanScope};
use std::collections::HashMap;

/// Layer classes the uniform per-layer metrics are summed over.
pub const CLASSES: [&str; 3] = ["conv", "fc", "other"];

fn class_of(kind: &str) -> usize {
    if kind.starts_with("conv") {
        0
    } else if kind.starts_with("fc") {
        1
    } else {
        2
    }
}

/// Maps a layer span `(name, kind)` to its reported row group.
pub type GroupFn = fn(&str, &str) -> String;

/// Weighted layers by name, everything else as `other` (Caffenet and
/// the serving fleet's demo network).
pub fn by_weighted_layer(name: &str, kind: &str) -> String {
    if class_of(kind) < 2 {
        name.to_string()
    } else {
        "other".to_string()
    }
}

/// Googlenet by module: `stem` (up to pool2), `inception-<tag>` for
/// every layer of a module, the two inter-module pools as `transition`,
/// and `head` (pool5 → classifier → softmax).
pub fn by_googlenet_module(name: &str, _kind: &str) -> String {
    if let Some(rest) = name.strip_prefix("inception-") {
        let tag = rest.split('-').next().unwrap_or(rest);
        format!("inception-{tag}")
    } else if ["conv1", "conv2", "pool1", "pool2"]
        .iter()
        .any(|p| name.starts_with(p))
    {
        "stem".to_string()
    } else if name.starts_with("pool3") || name.starts_with("pool4") {
        "transition".to_string()
    } else {
        "head".to_string()
    }
}

/// Computed work of one variant's network: conv FLOPs per image and
/// the bytes its fully-connected layers move.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    /// 2 × conv MACs per image (pruned weights still count: the MAC
    /// count is that of the dense shapes).
    pub conv_flops_per_image: f64,
    /// FC weight plus bias bytes, read once per forward call.
    pub fc_weight_bytes: f64,
    /// FC input plus output activation bytes per image (f32).
    pub fc_act_bytes_per_image: f64,
}

impl Work {
    /// Count the work of `net` from `Network::macs_by_layer`, with FC
    /// weights stored at `weight_bytes` bytes each (4 for f32, 1 for
    /// int8).
    pub fn of(net: &Network, weight_bytes: f64) -> Self {
        let mut w = Work::default();
        for (name, kind, macs) in net.macs_by_layer().expect("network shapes are consistent") {
            match kind {
                LayerKind::Convolution => w.conv_flops_per_image += 2.0 * macs as f64,
                LayerKind::InnerProduct => {
                    let rows = net
                        .node_id(&name)
                        .and_then(|id| net.shape_of(id).ok())
                        .map_or(1, |(c, _, _)| c.max(1)) as f64;
                    let cols = macs as f64 / rows;
                    w.fc_weight_bytes += macs as f64 * weight_bytes + rows * 4.0;
                    w.fc_act_bytes_per_image += (rows + cols) * 4.0;
                }
                _ => {}
            }
        }
        w
    }
}

/// Accumulates per-operation layer self times.
pub struct LayerLedger {
    group_of: GroupFn,
    variants: Vec<String>,
    work: Vec<Work>,
    /// Row keys in first-seen order, and their samples.
    rows: Vec<(usize, String)>,
    row_index: HashMap<(usize, String), usize>,
    row_samples: Vec<Vec<f64>>,
    /// `class_samples[v][class]`: per-op class sums in ms.
    class_samples: Vec<[Vec<f64>; 3]>,
    /// Per-op sum of every layer's self time, ms.
    span_sums: Vec<Vec<f64>>,
    /// In-flight operation state.
    cur_rows: HashMap<usize, f64>,
    cur_class: Vec<[f64; 3]>,
    cur_forwards: Vec<u64>,
    cur_images: Vec<u64>,
    /// Operations seen, and how many of them touched each variant.
    ops: u64,
    ops_with: Vec<u64>,
    /// Forward calls and images per operation, per variant (the last
    /// operation that touched the variant).
    forwards: Vec<u64>,
    images: Vec<u64>,
}

impl LayerLedger {
    pub fn new(variants: &[&str], work: Vec<Work>, group_of: GroupFn) -> Self {
        let n = variants.len();
        Self {
            group_of,
            variants: variants.iter().map(|s| s.to_string()).collect(),
            work,
            rows: Vec::new(),
            row_index: HashMap::new(),
            row_samples: Vec::new(),
            class_samples: (0..n).map(|_| Default::default()).collect(),
            span_sums: vec![Vec::new(); n],
            cur_rows: HashMap::new(),
            cur_class: vec![[0.0; 3]; n],
            cur_forwards: vec![0; n],
            cur_images: vec![0; n],
            ops: 0,
            ops_with: vec![0; n],
            forwards: vec![0; n],
            images: vec![0; n],
        }
    }

    /// Add the spans of one forward call of variant `v` over `images`
    /// images to the current operation.
    pub fn add(&mut self, v: usize, images: usize, spans: &[SpanRecord]) {
        self.cur_forwards[v] += 1;
        self.cur_images[v] += images as u64;
        for s in spans.iter().filter(|s| s.scope == SpanScope::Layer) {
            let ms = s.elapsed.as_secs_f64() * 1e3;
            let key = (v, (self.group_of)(&s.name, &s.kind));
            let idx = match self.row_index.get(&key) {
                Some(&i) => i,
                None => {
                    self.rows.push(key.clone());
                    self.row_samples.push(Vec::new());
                    self.row_index.insert(key, self.rows.len() - 1);
                    self.rows.len() - 1
                }
            };
            *self.cur_rows.entry(idx).or_insert(0.0) += ms;
            self.cur_class[v][class_of(&s.kind)] += ms;
        }
    }

    /// Close the current operation: one sample per touched row.
    pub fn end_op(&mut self) {
        self.ops += 1;
        for (idx, ms) in self.cur_rows.drain() {
            self.row_samples[idx].push(ms);
        }
        for v in 0..self.variants.len() {
            if self.cur_forwards[v] == 0 {
                continue;
            }
            self.ops_with[v] += 1;
            self.forwards[v] = self.cur_forwards[v];
            self.images[v] = self.cur_images[v];
            let class = std::mem::take(&mut self.cur_class[v]);
            for (c, ms) in class.iter().enumerate() {
                self.class_samples[v][c].push(*ms);
            }
            self.span_sums[v].push(class.iter().sum());
            self.cur_forwards[v] = 0;
            self.cur_images[v] = 0;
        }
    }

    /// Share of operations that include variant `v`: weights a
    /// per-variant statistic into a per-operation one.
    fn weight(&self, v: usize) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ops_with[v] as f64 / self.ops as f64
        }
    }

    /// Per-operation class time: Σ_v weight_v · stat(class samples of v).
    pub fn class_ms(&self, class: usize, stat: fn(&[f64]) -> f64) -> f64 {
        (0..self.variants.len())
            .filter(|&v| self.ops_with[v] > 0)
            .map(|v| self.weight(v) * stat(&self.class_samples[v][class]))
            .sum()
    }

    /// Total self time of `class` over every operation and variant, ms.
    pub fn class_total_ms(&self, class: usize) -> f64 {
        self.class_samples
            .iter()
            .map(|c| c[class].iter().sum::<f64>())
            .sum()
    }

    fn conv_gflops_of(&self, vs: &[usize]) -> f64 {
        let flops: f64 = vs
            .iter()
            .map(|&v| self.weight(v) * self.work[v].conv_flops_per_image * self.images[v] as f64)
            .sum();
        let secs: f64 = vs
            .iter()
            .map(|&v| self.weight(v) * stats::median(&self.class_samples[v][0]) / 1e3)
            .sum();
        flops / secs / 1e9
    }

    fn fc_gbps_of(&self, vs: &[usize]) -> f64 {
        let bytes: f64 = vs
            .iter()
            .map(|&v| {
                let w = &self.work[v];
                self.weight(v)
                    * (self.forwards[v] as f64 * w.fc_weight_bytes
                        + self.images[v] as f64 * w.fc_act_bytes_per_image)
            })
            .sum();
        let secs: f64 = vs
            .iter()
            .map(|&v| self.weight(v) * stats::median(&self.class_samples[v][1]) / 1e3)
            .sum();
        bytes / secs / 1e9
    }

    fn touched(&self) -> Vec<usize> {
        (0..self.variants.len())
            .filter(|&v| self.ops_with[v] > 0)
            .collect()
    }

    /// Achieved conv GFLOP/s over the operation mix (computed FLOPs).
    pub fn conv_gflops(&self) -> f64 {
        self.conv_gflops_of(&self.touched())
    }

    /// Achieved FC GB/s over the operation mix (computed bytes).
    pub fn fc_gbps(&self) -> f64 {
        self.fc_gbps_of(&self.touched())
    }

    /// Median per-operation sum of layer self times for variant `v`, ms.
    pub fn span_sum_ms(&self, v: usize) -> f64 {
        stats::median(&self.span_sums[v])
    }

    /// Per-row and per-variant records for the detail line: every
    /// `cnn.<variant>.<group>.ms` row with its min-of-N, quartiles and
    /// sample count, then `tensor.<variant>.*` computed rates.
    pub fn rows(&self, triad_gbps: f64) -> Vec<Obj> {
        let mut out = Vec::new();
        for (i, (v, group)) in self.rows.iter().enumerate() {
            let s = &self.row_samples[i];
            let mut o = Obj::new();
            o.str("name", &format!("cnn.{}.{}.ms", self.variants[*v], group))
                .str("variant", &self.variants[*v])
                .str("layer", group)
                .num("n", s.len() as f64)
                .num("min", stats::min(s))
                .num("p25", stats::quantile(s, 0.25))
                .num("median", stats::median(s))
                .num("p75", stats::quantile(s, 0.75));
            out.push(o);
        }
        for v in self.touched() {
            let name = &self.variants[v];
            let gbps = self.fc_gbps_of(&[v]);
            for (metric, value) in [
                ("conv.gflops", self.conv_gflops_of(&[v])),
                ("fc.gbps", gbps),
                ("fc.pct_triad", 100.0 * gbps / triad_gbps),
            ] {
                let mut o = Obj::new();
                o.str("name", &format!("tensor.{name}.{metric}"))
                    .str("variant", name)
                    .str("basis", "computed")
                    .num("value", value);
                out.push(o);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(name: &str, kind: &str, ms: u64) -> SpanRecord {
        SpanRecord {
            scope: SpanScope::Layer,
            name: name.to_string(),
            kind: kind.to_string(),
            shape: [1, 1, 1, 1],
            index: 0,
            elapsed: Duration::from_millis(ms),
            start: Duration::ZERO,
            tid: 0,
        }
    }

    #[test]
    fn one_sample_per_row_per_op_and_weighted_classes() {
        let work = vec![Work::default(); 2];
        let mut l = LayerLedger::new(&["a", "b"], work, by_weighted_layer);
        for ms in [10, 20, 30] {
            l.add(
                0,
                1,
                &[span("conv1", "conv+relu", ms), span("pool", "pool", 1)],
            );
            l.end_op();
            l.add(
                1,
                1,
                &[span("conv1", "conv+relu", 2 * ms), span("fc6", "fc", 5)],
            );
            l.end_op();
        }
        // Each variant is in half the ops: conv ms per op is the mean of
        // the two variant medians.
        assert!((l.class_ms(0, stats::median) - (20.0 + 40.0) / 2.0).abs() < 1e-9);
        assert!((l.class_ms(0, stats::min) - (10.0 + 20.0) / 2.0).abs() < 1e-9);
        assert!((l.span_sum_ms(0) - 21.0).abs() < 1e-9);
        let rows = l.rows(10.0);
        let names: Vec<String> = rows.iter().map(|o| o.render()).collect();
        assert!(names[0].contains("cnn.a.conv1.ms"));
        assert!(names.iter().any(|r| r.contains("cnn.b.fc6.ms")));
        assert!(names.iter().any(|r| r.contains("cnn.a.other.ms")));
    }

    #[test]
    fn googlenet_modules_group() {
        assert_eq!(
            by_googlenet_module("inception-4e-5x5-reduce", "conv"),
            "inception-4e"
        );
        assert_eq!(by_googlenet_module("conv2-3x3", "conv+relu"), "stem");
        assert_eq!(by_googlenet_module("pool4-3x3-s2", "pool"), "transition");
        assert_eq!(by_googlenet_module("loss3-classifier", "fc"), "head");
    }
}
