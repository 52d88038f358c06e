//! The three inference workloads: Caffenet at batch 1 (f32), Googlenet
//! at batch 8 (f32), and Caffenet at batch 8 (int8). One closed-loop
//! client in this process issues forward calls back to back; the
//! library may use both cores inside each call.

use crate::arm::{self, Expect};
use crate::layers::{self, LayerLedger, Work};
use crate::ledger::{self, OpLedger};
use crate::out::{Obj, RunOutput};
use crate::report::{self, Counters, ServeFigures};
use crate::setup::{self, Clock, Phases};
use crate::{host, inputs, stats, Args};
use cap_cnn::models::{caffenet, googlenet, WeightInit};
use cap_cnn::{CollectingTracer, ForwardArena, LayerKind, Network};
use cap_obs::TimingGuard;
use cap_pruning::{apply_to_network, PruneAlgorithm, PruneSpec};
use cap_tensor::{precision, CalibrationMethod, Precision, Tensor4};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Model {
    Caffenet,
    Googlenet,
}

/// One inference workload's definition.
pub struct Spec {
    pub name: &'static str,
    model: Model,
    /// Images per forward call.
    batch: usize,
    /// Batches in the seeded image pool the calls cycle through.
    batches: usize,
    /// Alternate calls between the dense network and a copy with 60 %
    /// of every conv layer's filters pruned (FilterL1).
    pruned: bool,
    /// Calibrate (max-abs, f32) at set-up and time the int8 path.
    int8: bool,
    /// Set-ups per run; `setup_s` is the fastest.
    setups: usize,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "caffenet-b1",
        model: Model::Caffenet,
        batch: 1,
        batches: 8,
        pruned: true,
        int8: false,
        setups: 3,
    },
    Spec {
        name: "googlenet-b8",
        model: Model::Googlenet,
        batch: 8,
        batches: 2,
        pruned: false,
        int8: false,
        setups: 5,
    },
    Spec {
        name: "caffenet-int8-b8",
        model: Model::Caffenet,
        batch: 8,
        batches: 4,
        pruned: true,
        int8: true,
        setups: 3,
    },
];

/// Weights are part of the program under test, not of its input: they
/// are fixed, and only the images follow `--seed`.
const MODEL_SEED: u64 = 2020;
const PRUNE_RATIO: f64 = 0.6;
const CALIBRATION_IMAGES: usize = 8;

struct Variant {
    name: &'static str,
    net: Network,
    arena: ForwardArena,
}

fn build(model: Model) -> Network {
    let init = WeightInit::Xavier { seed: MODEL_SEED };
    match model {
        Model::Caffenet => caffenet(init),
        Model::Googlenet => googlenet(init),
    }
    .expect("model builds")
}

/// One full set-up: build, prune, calibrate, warm up.
fn set_up(spec: &Spec, pool: &[Tensor4], calibration: &Tensor4) -> (Vec<Variant>, Phases) {
    let mut clock = Clock::start();
    let mut variants = vec![Variant {
        name: "dense",
        net: build(spec.model),
        arena: ForwardArena::new(),
    }];
    if spec.pruned {
        variants.push(Variant {
            name: "pruned60",
            net: build(spec.model),
            arena: ForwardArena::new(),
        });
    }
    clock.phases.build = clock.lap();
    clock.phases.rss_after_build_mb = host::status_mb("VmRSS");
    if spec.pruned {
        let net = &mut variants[1].net;
        let convs = net.layers_of_kind(LayerKind::Convolution);
        apply_to_network(
            net,
            &PruneSpec::uniform(&convs, PRUNE_RATIO),
            PruneAlgorithm::FilterL1,
        )
        .expect("conv layers prune");
        clock.phases.prune = clock.lap();
    }
    if spec.int8 {
        precision::force(Some(Precision::F32));
        for v in &variants {
            v.net
                .calibrate(calibration, CalibrationMethod::MaxAbs)
                .expect("calibration pass");
        }
        precision::force(Some(Precision::Int8));
        clock.phases.calibrate = clock.lap();
    }
    for v in &mut variants {
        v.net
            .forward_into(&pool[0], &mut v.arena)
            .expect("warm-up pass");
    }
    clock.phases.warmup = clock.lap();
    clock.phases.rss_after_warmup_mb = host::status_mb("VmRSS");
    (variants, clock.finish())
}

/// State of the timed phase, carried across its segments.
struct Timed {
    ops: OpLedger,
    /// Untraced and traced call times per variant, seconds.
    plain: Vec<Vec<f64>>,
    traced: Vec<Vec<f64>>,
    /// Latest top-1 verdicts per (variant, batch).
    top1: Vec<Vec<Vec<bool>>>,
    /// What each (variant, batch) must reproduce bit for bit.
    expected: Vec<Vec<Option<Tensor4>>>,
    layers: LayerLedger,
    counters: Counters,
    tracer: CollectingTracer,
    /// Operations issued so far.
    i: usize,
}

impl Timed {
    /// Issue calls until `deadline`, and past it until `min_ops` calls
    /// have been issued in all. Call `i` runs variant `i % nv`; a traced
    /// run alternates untraced and traced rounds over the variants, so
    /// both kinds see the same host conditions.
    fn segment(
        &mut self,
        variants: &mut [Variant],
        pool: &[Tensor4],
        reference: &[Vec<Tensor4>],
        (trace, batch): (bool, usize),
        deadline: Instant,
        min_ops: usize,
    ) {
        let (nv, nb) = (variants.len(), pool.len());
        let kinds = if trace { 2 } else { 1 };
        self.counters.begin();
        while self.i < min_ops || Instant::now() < deadline {
            let i = self.i;
            self.i += 1;
            let v = i % nv;
            let is_traced = trace && (i / nv) % 2 == 1;
            let b = (i / (nv * kinds)) % nb;
            let var = &mut variants[v];
            let (x, want, refr) = (&pool[b], &mut self.expected[v][b], &reference[v][b]);
            let tracer = &self.tracer;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let _timing = is_traced.then(TimingGuard::enable);
                let t0 = Instant::now();
                let y = if is_traced {
                    var.net.forward_into_traced(x, &mut var.arena, tracer)
                } else {
                    var.net.forward_into(x, &mut var.arena)
                };
                let dt = t0.elapsed().as_secs_f64();
                y.map(|y| {
                    let want = want.get_or_insert_with(|| y.clone());
                    (
                        dt,
                        ledger::bitwise_equal(y.as_slice(), want.as_slice()),
                        ledger::top1_matches(y, refr),
                    )
                })
            }));
            let spans = self.tracer.take_spans();
            match outcome {
                Ok(Ok((dt, equal, matches))) => {
                    self.ops.record(1, 0, equal);
                    self.top1[v][b] = matches;
                    if is_traced {
                        self.traced[v].push(dt);
                        self.layers.add(v, batch, &spans);
                        self.layers.end_op();
                    } else {
                        self.plain[v].push(dt);
                    }
                }
                _ => self.ops.record(1, 0, false),
            }
        }
        self.counters.end();
    }
}

pub fn run(spec: &Spec, args: &Args) -> RunOutput {
    let data = inputs::imagenet(args.seed);
    let pool = inputs::batches(&data, 0, spec.batches, spec.batch);
    let calibration = data
        .batch((spec.batches * spec.batch) as u64, CALIBRATION_IMAGES)
        .0;
    let expect = Expect {
        precision: if spec.int8 { "int8" } else { "f32" },
        dag: spec.model == Model::Googlenet,
    };
    let group = if spec.model == Model::Googlenet {
        layers::by_googlenet_module
    } else {
        layers::by_weighted_layer
    };
    let weight_bytes = if spec.int8 { 1.0 } else { 4.0 };
    let min_ops = pool.len() * if spec.pruned { 2 } else { 1 } * if args.trace { 2 } else { 1 };

    // The timed phase is split into one segment after each set-up, so
    // its samples span the whole run rather than its last seconds: the
    // host's speed shifts over tens of seconds, and a min-of-N that
    // sees more of them repeats better from run to run. Every set-up
    // builds identical networks, so one reference serves all segments
    // (and checks that they agree).
    let mut phases = Vec::new();
    let mut variants: Vec<Variant> = Vec::new();
    let mut reference: Vec<Vec<Tensor4>> = Vec::new();
    let mut reference_s = 0.0;
    let mut arm_record = Obj::new();
    let mut arm_ok = false;
    let mut timed: Option<Timed> = None;
    for k in 0..spec.setups {
        drop(std::mem::take(&mut variants));
        let (v, p) = set_up(spec, &pool, &calibration);
        variants = v;
        phases.push(p);
        let t = timed.get_or_insert_with(|| {
            // Outside set-up and timing: the f32 result of the unfused
            // sequential path (`Network::forward`). Timed f32 calls must
            // reproduce it bit for bit. Timed int8 calls are scored top-1
            // against it, and must reproduce the first int8 result of
            // their batch bit for bit (calibrated int8 is deterministic).
            let t_ref = Instant::now();
            if spec.int8 {
                precision::force(Some(Precision::F32));
            }
            reference = variants
                .iter()
                .map(|v| {
                    pool.iter()
                        .map(|x| v.net.forward(x).expect("reference pass"))
                        .collect()
                })
                .collect();
            let expected = if spec.int8 {
                precision::force(Some(Precision::Int8));
                vec![vec![None; pool.len()]; variants.len()]
            } else {
                reference
                    .iter()
                    .map(|r| r.iter().cloned().map(Some).collect())
                    .collect()
            };
            reference_s = t_ref.elapsed().as_secs_f64();
            let mut nets: Vec<_> = variants
                .iter_mut()
                .map(|v| (v.name, &v.net, &mut v.arena, &pool[0]))
                .collect();
            (arm_record, arm_ok) = arm::probe(&mut nets, expect);
            let names: Vec<&str> = variants.iter().map(|v| v.name).collect();
            let work = variants
                .iter()
                .map(|v| Work::of(&v.net, weight_bytes))
                .collect();
            let nv = variants.len();
            Timed {
                ops: OpLedger::default(),
                plain: vec![Vec::new(); nv],
                traced: vec![Vec::new(); nv],
                top1: vec![vec![Vec::new(); pool.len()]; nv],
                expected,
                layers: LayerLedger::new(&names, work, group),
                counters: Counters::default(),
                tracer: CollectingTracer::new(),
                i: 0,
            }
        });
        let last = k + 1 == spec.setups;
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds / spec.setups as f64);
        t.segment(
            &mut variants,
            &pool,
            &reference,
            (args.trace, spec.batch),
            deadline,
            if last { min_ops } else { 0 },
        );
    }
    let Timed {
        ops,
        plain,
        traced,
        top1,
        layers: layer_ledger,
        counters,
        ..
    } = timed.expect("at least one set-up");
    let names: Vec<&str> = variants.iter().map(|v| v.name).collect();
    let nv = variants.len();

    let gauges_ok = arm::gauges_hold(expect);
    let peak_rss_mb = host::status_mb("VmHWM");
    // The networks are done with; free them before the probe allocates
    // its arrays, so the two never share the memory.
    drop(variants);
    let triad = host::triad(5);

    // Agreement over the pool: every (variant, batch) scored once, from
    // its latest checked call, so the figure is a function of the seed.
    let scored: Vec<bool> = top1.iter().flatten().flatten().copied().collect();
    let top1_agreement =
        scored.iter().filter(|&&ok| ok).count() as f64 / scored.len().max(1) as f64;
    let all_plain: Vec<f64> = plain.iter().flatten().copied().collect();
    let plain_p50_ms = mean(plain.iter().map(|s| stats::median(s) * 1e3));
    let traced_p50_ms = mean(traced.iter().map(|s| stats::median(s) * 1e3));

    let metrics = if args.trace {
        report::per_layer(
            &layer_ledger,
            &counters,
            &phases,
            &ServeFigures::default(),
            100.0 * (traced_p50_ms / plain_p50_ms - 1.0),
            triad.gbps,
        )
    } else {
        // Min-of-N per variant (the paper's §3.3 protocol): one call of
        // each variant moves `nv * batch` images in the sum of the minima.
        let min_sum: f64 = plain.iter().map(|s| stats::min(s)).sum();
        report::end_to_end(
            (nv * spec.batch) as f64 / min_sum,
            1e3 * min_sum / nv as f64,
            setup::setup_s(&phases),
            peak_rss_mb,
            1.0 - ops.error_rate(),
            top1_agreement,
        )
    };

    let mut detail = Obj::new();
    detail
        .str("workload", spec.name)
        .num("seed", args.seed as f64)
        .num("seconds", args.seconds)
        .bool("trace", args.trace)
        .str("load", "closed loop, 1 client")
        .num("batch", spec.batch as f64)
        .num("pool_images", (spec.batch * spec.batches) as f64)
        .obj("host", host::record(&triad))
        .obj("arm", arm_record)
        .bool("arm_gauges_hold", gauges_ok)
        .obj("setups", setup::detail(&phases))
        .num("reference_s", reference_s)
        .num("top1_scored_images", scored.len() as f64);
    let mut per_variant = Vec::new();
    for (v, name) in names.iter().enumerate() {
        let mut o = Obj::new();
        o.str("variant", name)
            .num("untraced_n", plain[v].len() as f64)
            .num("untraced_p50_ms", stats::median(&plain[v]) * 1e3)
            .num("untraced_min_ms", stats::min(&plain[v]) * 1e3)
            .raw("untraced_ms", report::ms_list(&plain[v]));
        if args.trace {
            o.num("traced_n", traced[v].len() as f64)
                .num("traced_p50_ms", stats::median(&traced[v]) * 1e3)
                .num("span_sum_p50_ms", layer_ledger.span_sum_ms(v));
        }
        per_variant.push(o);
    }
    detail.list("variants", per_variant);
    detail.num("latency_p50_ms", plain_p50_ms).num(
        "images_per_s_wall",
        (all_plain.len() * spec.batch) as f64 / all_plain.iter().sum::<f64>(),
    );
    report::latency_detail(&mut detail, &all_plain);
    if args.trace {
        detail.list("rows", layer_ledger.rows(triad.gbps));
    }

    RunOutput {
        correct: ops.failed == 0 && arm_ok && gauges_ok,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
        detail,
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.filter(|x| x.is_finite()).collect();
    v.iter().sum::<f64>() / v.len() as f64
}
