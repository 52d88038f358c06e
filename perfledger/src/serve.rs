//! `serve-replay`: the `cap-serve` router with the demo fleet's three
//! tenants (dense, 60 % and 90 % filter-pruned), replaying the seed's
//! open-loop trace — a load ×1 segment then a load ×3 segment — on the
//! router's virtual clock, as fast as the host runs the real forwards.
//!
//! Each replay starts from a fresh router, so every replay of one seed
//! makes the same scheduling decisions: its virtual counts (batches,
//! shed requests, virtual latencies) must repeat exactly, and its
//! served logits must equal offline `run_batched` bit for bit.

use crate::arm::{self, Expect};
use crate::layers::{self, LayerLedger, Work};
use crate::ledger::{self, OpLedger};
use crate::out::{Obj, RunOutput};
use crate::report::{self, Counters, ServeFigures};
use crate::setup::{self, Clock, Phases};
use crate::{host, inputs, stats, Args};
use cap_cnn::{run_batched, CollectingTracer, ForwardArena, Network, ParallelEngine};
use cap_obs::TimingGuard;
use cap_serve::{
    fleet, ArrivalEvent, Router, RouterConfig, ServeReport, ServedOutput, TenantConfig,
};
use cap_tensor::Tensor4;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The demo fleet: (name, weight seed, conv prune ratio).
const TENANTS: [(&str, u64, f64); 3] = [
    ("dense", 1, 0.0),
    ("pruned60", 2, 0.6),
    ("pruned90", 3, 0.9),
];
/// Images in each tenant's request pool (request `seq` carries image
/// `seq % POOL`).
const POOL: usize = 32;
/// The router's simulated worker slots, and the engine the compute
/// replay runs on (the router's default).
const WORKERS: usize = 2;

pub const NAME: &str = "serve-replay";

fn fleet_tenants() -> Vec<(TenantConfig, Network)> {
    TENANTS
        .iter()
        .map(|&(name, seed, ratio)| fleet::pruned_tenant(name, seed, ratio))
        .collect()
}

fn router(tenants: Vec<(TenantConfig, Network)>) -> Router {
    Router::new(
        RouterConfig {
            workers: WORKERS,
            collect_outputs: true,
            ..RouterConfig::default()
        },
        tenants,
    )
}

/// The result of one replay of both segments.
struct Replay {
    reports: [ServeReport; 2],
}

impl Replay {
    /// Cumulative totals after both segments (the router accumulates
    /// its counts across calls).
    fn totals(&self) -> &ServeReport {
        &self.reports[1]
    }

    fn outputs(&self) -> impl Iterator<Item = &ServedOutput> {
        self.reports.iter().flat_map(|r| r.outputs.iter())
    }

    /// The virtual-clock facts that must repeat exactly for a seed.
    fn signature(&self) -> Vec<u64> {
        let t = self.totals();
        let mut sig = vec![
            t.offered,
            t.admitted,
            t.shed,
            t.batches,
            t.completed,
            t.makespan_us,
        ];
        for tr in &t.tenants {
            sig.extend([tr.batches, tr.shed, tr.p50_us, tr.p99_us]);
        }
        sig
    }
}

fn replay(router: &mut Router, segments: &[Vec<ArrivalEvent>; 2], pools: &[Tensor4]) -> Replay {
    let a = router.serve_trace(&segments[0], pools).expect("replay x1");
    let b = router.serve_trace(&segments[1], pools).expect("replay x3");
    Replay { reports: [a, b] }
}

/// One dispatched batch: its tenant, the pool indices it carried, and
/// the assembled input.
struct Batch {
    tenant: usize,
    images: Vec<usize>,
    chunk: Tensor4,
}

/// Rebuild the dispatched batch sequence from served outputs: the
/// router emits each batch's outputs together, all with the batch's
/// tenant and completion time, so a change in either starts a new
/// batch. Two same-sized batches of one tenant dispatched at one
/// virtual instant merge; the caller compares the count with the
/// router's batch count to know whether the split is exact.
fn batch_sequence(replay: &Replay, pools: &[Tensor4]) -> Vec<Batch> {
    let mut seq: Vec<Batch> = Vec::new();
    for report in &replay.reports {
        let mut prev: Option<(usize, u64)> = None;
        for o in &report.outputs {
            if prev != Some((o.tenant, o.completion_us)) {
                seq.push(Batch {
                    tenant: o.tenant,
                    images: Vec::new(),
                    chunk: Tensor4::zeros(0, 0, 0, 0),
                });
                prev = Some((o.tenant, o.completion_us));
            }
            seq.last_mut()
                .expect("pushed above")
                .images
                .push(o.seq as usize % POOL);
        }
    }
    for b in &mut seq {
        let pool = &pools[b.tenant];
        b.chunk = Tensor4::zeros(b.images.len(), pool.c(), pool.h(), pool.w());
        for (j, &img) in b.images.iter().enumerate() {
            b.chunk.image_mut(j).copy_from_slice(pool.image(img));
        }
    }
    seq
}

/// Outputs of a replay check out: every served logit vector equals the
/// offline one bit for bit, every admitted request was served, and the
/// virtual counts equal the first replay's.
fn replay_ok(r: &Replay, offline: &[Vec<Vec<f32>>], want: &[u64]) -> (bool, u64, u64) {
    let (mut served, mut agree) = (0u64, 0u64);
    let mut ok = r.signature() == want;
    for o in r.outputs() {
        let refl = &offline[o.tenant][o.seq as usize % POOL];
        served += 1;
        ok &= ledger::bitwise_equal(&o.logits, refl);
        agree += u64::from(ledger::argmax(&o.logits) == ledger::argmax(refl));
    }
    ok &= served == r.totals().completed && r.totals().completed == r.totals().admitted;
    (ok, served, agree)
}

fn batch_ok(out: &[Vec<f32>], b: &Batch, offline: &[Vec<Vec<f32>>]) -> bool {
    out.len() == b.images.len()
        && out
            .iter()
            .zip(&b.images)
            .all(|(o, &img)| ledger::bitwise_equal(o, &offline[b.tenant][img]))
}

/// One set-up: the demo fleet as `fleet::pruned_tenant` builds it and a
/// router over it. Every replay runs on a set-up of its own, whose
/// networks, plans and arenas start cold, so a set-up has no warm-up
/// phase: it ends where the replay can start. Appends its phases.
fn set_up(phases: &mut Vec<Phases>) -> Router {
    let clock = Clock::start();
    let mut tenant_s = [0.0; TENANTS.len()];
    let tenants = TENANTS
        .iter()
        .zip(&mut tenant_s)
        .map(|(&(name, seed, ratio), s)| {
            let t = Instant::now();
            let tenant = fleet::pruned_tenant(name, seed, ratio);
            *s = t.elapsed().as_secs_f64();
            tenant
        })
        .collect();
    let r = router(tenants);
    let mut p = clock.finish();
    // The prune split, outside the set-up: a pruned tenant's time less
    // that of building its unpruned network once more.
    p.prune = TENANTS
        .iter()
        .zip(tenant_s)
        .filter(|(t, _)| t.2 > 0.0)
        .map(|(&(_, seed, _), s)| {
            let t = Instant::now();
            drop(fleet::demo_network(seed));
            (s - t.elapsed().as_secs_f64()).max(0.0)
        })
        .sum();
    p.build = p.total - p.prune;
    p.rss_after_build_mb = host::status_mb("VmRSS");
    p.rss_after_warmup_mb = p.rss_after_build_mb;
    phases.push(p);
    r
}

/// What the first replay fixes for the rest of the run: its report,
/// the virtual-clock signature every later replay must repeat, and its
/// dispatched batch sequence.
struct First {
    replay: Replay,
    signature: Vec<u64>,
    sequence: Vec<Batch>,
}

pub fn run(args: &Args) -> RunOutput {
    let data = inputs::demo_images(args.seed);
    let pools: Vec<Tensor4> = (0..TENANTS.len())
        .map(|t| data.batch((t * POOL) as u64, POOL).0)
        .collect();
    let segments = inputs::serve_segments(args.seed);
    let offered: u64 = segments.iter().map(|s| s.len() as u64).sum();

    // Offline copies of the fleet: the reference outputs, the compute
    // replay and the traced replay run on these.
    let t_ref = Instant::now();
    let nets: Vec<Network> = fleet_tenants().into_iter().map(|(_, n)| n).collect();
    let offline: Vec<Vec<Vec<f32>>> = nets
        .iter()
        .zip(&pools)
        .map(|(n, p)| run_batched(n, p, 8).expect("offline run_batched").0)
        .collect();
    let reference_s = t_ref.elapsed().as_secs_f64();

    let expect = Expect {
        precision: "f32",
        dag: false,
    };
    let mut arenas: Vec<ForwardArena> = nets.iter().map(|_| ForwardArena::new()).collect();
    let probe_input = pools[0].clone();
    let (arm_record, arm_ok) = {
        let mut probe: Vec<_> = nets
            .iter()
            .zip(arenas.iter_mut())
            .zip(TENANTS)
            .map(|((n, a), (name, _, _))| (name, n, a, &probe_input))
            .collect();
        arm::probe(&mut probe, expect)
    };
    let knobs_unset = std::env::vars().all(|(k, _)| !k.starts_with("CAP_SERVE_"));

    let names: Vec<&str> = TENANTS.iter().map(|t| t.0).collect();
    let work = nets.iter().map(|n| Work::of(n, 4.0)).collect();
    let mut layer_ledger = LayerLedger::new(&names, work, layers::by_weighted_layer);
    let engine = ParallelEngine::new(WORKERS);
    let tracer = CollectingTracer::new();
    let mut ops = OpLedger::default();
    let mut phases = Vec::new();
    let mut first: Option<First> = None;
    let (mut replays, mut computes, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let (mut served, mut agree, mut completed) = (0u64, 0u64, 0u64);
    let mut counters = Counters::default();
    // A traced run rotates three operations: a replay, the compute
    // replay of the first replay's dispatched batches through
    // `run_chunk`, and the same batches through `forward_into_traced`.
    // A compute or traced replay before any replay succeeded fails.
    let kinds = if args.trace { 3 } else { 1 };
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    counters.begin();
    let mut i = 0usize;
    while i < kinds || Instant::now() < deadline {
        let kind = i % kinds;
        i += 1;
        match (kind, &first) {
            (0, _) => {
                let mut r = set_up(&mut phases);
                let t0 = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| replay(&mut r, &segments, &pools)));
                let dt = t0.elapsed().as_secs_f64();
                match outcome {
                    Ok(rep) => {
                        let want = first
                            .as_ref()
                            .map_or_else(|| rep.signature(), |f| f.signature.clone());
                        let (ok, s, a) = replay_ok(&rep, &offline, &want);
                        ops.record(rep.totals().offered, rep.totals().shed, ok);
                        served += s;
                        agree += a;
                        completed += rep.totals().completed;
                        replays.push(dt);
                        if first.is_none() {
                            first = Some(First {
                                sequence: batch_sequence(&rep, &pools),
                                signature: want,
                                replay: rep,
                            });
                        }
                    }
                    Err(_) => ops.record(offered, 0, false),
                }
            }
            (1, Some(f)) => {
                let t0 = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    f.sequence
                        .iter()
                        .map(|b| engine.run_chunk(&nets[b.tenant], &b.chunk))
                        .collect::<Vec<_>>()
                }));
                let dt = t0.elapsed().as_secs_f64();
                let ok = outcome.is_ok_and(|outs| {
                    outs.iter()
                        .zip(&f.sequence)
                        .all(|(o, b)| o.as_ref().is_ok_and(|o| batch_ok(o, b, &offline)))
                });
                ops.record(1, 0, ok);
                computes.push(dt);
            }
            (_, Some(f)) => {
                let _timing = TimingGuard::enable();
                let mut ok = true;
                let mut dt = 0.0;
                for b in &f.sequence {
                    let arena = &mut arenas[b.tenant];
                    let t0 = Instant::now();
                    let y = nets[b.tenant].forward_into_traced(&b.chunk, arena, &tracer);
                    dt += t0.elapsed().as_secs_f64();
                    ok &= y.is_ok_and(|y| {
                        (0..y.n()).all(|j| {
                            ledger::bitwise_equal(y.image(j), &offline[b.tenant][b.images[j]])
                        })
                    });
                    layer_ledger.add(b.tenant, b.images.len(), &tracer.take_spans());
                }
                layer_ledger.end_op();
                ops.record(1, 0, ok);
                traced.push(dt);
            }
            (_, None) => ops.record(1, 0, false),
        }
    }
    counters.end();
    let first = first.expect("no replay of the trace succeeded");

    let gauges_ok = arm::gauges_hold(expect);
    let peak_rss_mb = host::status_mb("VmHWM");
    let triad = host::triad(5);
    let totals = first.replay.totals();
    let sequence = &first.sequence;
    let sequence_exact = sequence.len() as u64 == totals.batches;
    let replay_ms = stats::median(&replays) * 1e3;
    let compute_ms = stats::median(&computes) * 1e3;

    let metrics = if args.trace {
        let serve = ServeFigures {
            batches: totals.batches as f64,
            shed: totals.shed as f64,
            mean_batch: totals.completed as f64 / totals.batches.max(1) as f64,
            virtual_p99_us: totals.tenants.iter().map(|t| t.p99_us).max().unwrap_or(0) as f64,
            router_share: (replay_ms - compute_ms) / replay_ms,
        };
        let traced_ms = stats::median(&traced) * 1e3;
        report::per_layer(
            &layer_ledger,
            &counters,
            &phases,
            &serve,
            100.0 * (traced_ms / compute_ms - 1.0),
            triad.gbps,
        )
    } else {
        let min_ms = stats::min(&replays) * 1e3;
        report::end_to_end(
            totals.completed as f64 / (min_ms / 1e3),
            min_ms,
            setup::setup_s(&phases),
            peak_rss_mb,
            1.0 - ops.error_rate(),
            agree as f64 / served.max(1) as f64,
        )
    };

    let mut detail = Obj::new();
    detail
        .str("workload", NAME)
        .num("seed", args.seed as f64)
        .num("seconds", args.seconds)
        .bool("trace", args.trace)
        .str(
            "load",
            "open-loop trace on the virtual clock: x1 then x3 segment, replayed back to back",
        )
        .num("pool_images", POOL as f64)
        .obj("host", host::record(&triad))
        .obj("arm", arm_record)
        .bool("arm_gauges_hold", gauges_ok)
        .bool("serve_knobs_unset", knobs_unset)
        .obj("setups", setup::detail(&phases))
        .num("reference_s", reference_s)
        .num("offered", totals.offered as f64)
        .num("shed", totals.shed as f64)
        .num("batches", totals.batches as f64)
        .num("completed", totals.completed as f64)
        .num("rebuilt_batches", sequence.len() as f64)
        .bool("batch_sequence_exact", sequence_exact)
        .num("replays", replays.len() as f64)
        .num("replay_p50_ms", replay_ms)
        .num(
            "images_per_s_wall",
            completed as f64 / replays.iter().sum::<f64>(),
        )
        .raw("replay_ms", report::ms_list(&replays));
    if args.trace {
        detail
            .num("serve.replay_ms", replay_ms)
            .num("serve.compute_ms", compute_ms)
            .num("serve.router_ms", replay_ms - compute_ms)
            .num("compute_replays", computes.len() as f64)
            .num("traced_replays", traced.len() as f64);
    }
    report::latency_detail(&mut detail, &replays);
    if args.trace {
        detail.list("rows", layer_ledger.rows(triad.gbps));
    }

    RunOutput {
        correct: ops.failed == 0 && arm_ok && gauges_ok && knobs_unset,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_repeat_and_rebuild_their_batches() {
        let data = inputs::demo_images(5);
        let pools: Vec<Tensor4> = (0..3)
            .map(|t| data.batch((t * POOL) as u64, POOL).0)
            .collect();
        let segments = inputs::serve_segments(5);
        let a = replay(&mut router(fleet_tenants()), &segments, &pools);
        let b = replay(&mut router(fleet_tenants()), &segments, &pools);
        assert_eq!(a.signature(), b.signature());
        assert!(a.totals().shed > 0, "the x3 segment sheds");
        let seq = batch_sequence(&a, &pools);
        let images: usize = seq.iter().map(|b| b.images.len()).sum();
        assert_eq!(images as u64, a.totals().completed);
        // A perturbed served output fails the replay check.
        let nets: Vec<Network> = fleet_tenants().into_iter().map(|(_, n)| n).collect();
        let offline: Vec<Vec<Vec<f32>>> = nets
            .iter()
            .zip(&pools)
            .map(|(n, p)| run_batched(n, p, 8).unwrap().0)
            .collect();
        let want = a.signature();
        assert!(replay_ok(&a, &offline, &want).0);
        let mut bad = b;
        bad.reports[1].outputs[0].logits[0] += 1.0;
        assert!(!replay_ok(&bad, &offline, &want).0);
    }
}
