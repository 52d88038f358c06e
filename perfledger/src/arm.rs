//! The executed arm of a workload — kernel path, precision, fusion and
//! DAG scheduling — read back from the program's own reports, and the
//! guard that fails a workload whose arm differs from its definition.

use crate::out::Obj;
use cap_cnn::{CollectingTracer, ForwardArena, Network, ProfileReport};
use cap_obs::metrics::{kernel_path_name, precision_path_name};
use cap_tensor::{KernelPath, Tensor4};

/// A workload's defined arm.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    /// `"f32"` or `"int8"`; int8 also requires every weighted row to be
    /// `quantized`, f32 requires none.
    pub precision: &'static str,
    /// Whether the DAG-parallel scheduler must engage (branchy network
    /// on a multi-core host) or must stay off (a chain).
    pub dag: bool,
}

/// The kernel path the library selects with no override: AVX2 where
/// the CPU has it, scalar otherwise.
pub fn default_kernel() -> &'static str {
    if KernelPath::Avx2.is_available() {
        KernelPath::Avx2.name()
    } else {
        KernelPath::Scalar.name()
    }
}

/// Whether a branchy network engages the DAG scheduler on this host.
pub fn host_runs_dag() -> bool {
    std::thread::available_parallelism().map_or(1, |p| p.get()) > 1
}

/// One traced forward per network, read back through `ProfileReport`
/// and the registry gauges. Returns the arm record and whether it
/// matches `expect`.
pub fn probe(
    nets: &mut [(&str, &Network, &mut ForwardArena, &Tensor4)],
    expect: Expect,
) -> (Obj, bool) {
    let m = cap_obs::metrics();
    let mut ok = true;
    let mut per_net = Vec::new();
    for (name, net, arena, x) in nets.iter_mut() {
        let dag_before = m.dag_parallel_passes.get();
        let tracer = CollectingTracer::new();
        net.forward_into_traced(x, arena, &tracer)
            .expect("arm probe forward");
        let report = ProfileReport::from_spans(*name, &tracer.take_spans());
        let weighted = report
            .layers()
            .iter()
            .filter(|r| r.kind.starts_with("conv") || r.kind.starts_with("fc"))
            .count();
        let quantized = report.layers().iter().filter(|r| r.quantized).count();
        let fused = report.layers().iter().filter(|r| r.fused).count();
        let dag_engaged = m.dag_parallel_passes.get() > dag_before;
        let dag_workers = m.dag_workers.get();
        let want_quantized = if expect.precision == "int8" {
            weighted
        } else {
            0
        };
        let want_dag = expect.dag && host_runs_dag();
        let net_ok = report.kernel() == default_kernel()
            && report.precision() == expect.precision
            && quantized == want_quantized
            && fused > 0
            && m.fused_layers.get() == fused as u64
            && dag_engaged == want_dag;
        ok &= net_ok;
        let mut o = Obj::new();
        o.str("variant", name)
            .str("kernel", report.kernel())
            .str("precision", report.precision())
            .str("quantized_rows", &format!("{quantized}/{weighted}"))
            .num("fused_rows", fused as f64)
            .bool("dag", dag_engaged)
            .num("dag_workers", dag_workers as f64)
            .bool("ok", net_ok);
        per_net.push(o);
    }
    let mut o = Obj::new();
    o.str("expect_kernel", default_kernel())
        .str("expect_precision", expect.precision)
        .bool("expect_dag", expect.dag && host_runs_dag())
        .list("executed", per_net)
        .bool("ok", ok);
    (o, ok)
}

/// After the timed phase: the process-wide gauges still name the
/// defined kernel path and precision.
pub fn gauges_hold(expect: Expect) -> bool {
    let m = cap_obs::metrics();
    kernel_path_name(m.kernel_path.get()) == default_kernel()
        && precision_path_name(m.precision_path.get()) == expect.precision
}
