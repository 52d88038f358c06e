//! Set-up timing: a workload sets up several times per run and reports
//! the fastest set-up (min-of-N, like the timed operations), split into
//! the phases later changes move work between.

use crate::out::{Metrics, Obj};
use crate::stats;
use std::time::Instant;

/// Wall seconds of one set-up, by phase. `total` runs from the start
/// of the set-up to the point the first timed operation could start.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phases {
    /// Building the networks (weights, layer construction).
    pub build: f64,
    /// `apply_to_network` pruning.
    pub prune: f64,
    /// `Network::calibrate` activation-scale calibration.
    pub calibrate: f64,
    /// Warm-up passes: arena growth, plan building, lazy weight caches.
    pub warmup: f64,
    pub total: f64,
    /// Resident set after building, and after warm-up, MiB.
    pub rss_after_build_mb: f64,
    pub rss_after_warmup_mb: f64,
}

/// Times the phases of one set-up as it runs.
pub struct Clock {
    start: Instant,
    mark: Instant,
    pub phases: Phases,
}

impl Clock {
    pub fn start() -> Self {
        let now = Instant::now();
        Self {
            start: now,
            mark: now,
            phases: Phases::default(),
        }
    }

    /// Seconds since the previous lap (or the start).
    pub fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let s = (now - self.mark).as_secs_f64();
        self.mark = now;
        s
    }

    pub fn finish(mut self) -> Phases {
        self.phases.total = self.start.elapsed().as_secs_f64();
        self.phases
    }
}

fn med(all: &[Phases], f: fn(&Phases) -> f64) -> f64 {
    stats::median(&all.iter().map(f).collect::<Vec<_>>())
}

/// `setup_s`: the fastest set-up's total.
pub fn setup_s(all: &[Phases]) -> f64 {
    stats::min(&all.iter().map(|p| p.total).collect::<Vec<_>>())
}

/// Per-layer split of set-up: the median time of each phase (prune and
/// calibrate are 0 where the workload has no such phase), and the
/// resident set at the phase boundaries of the last set-up.
pub fn layer_metrics(m: &mut Metrics, all: &[Phases]) {
    m.add("cnn.build_s", med(all, |p| p.build), "s");
    m.add("pruning.apply_s", med(all, |p| p.prune), "s");
    m.add("cnn.calibrate_s", med(all, |p| p.calibrate), "s");
    m.add("cnn.warmup_s", med(all, |p| p.warmup), "s");
    let last = all.last().copied().unwrap_or_default();
    m.add("mem.after_build_mb", last.rss_after_build_mb, "MB");
    m.add("mem.after_warmup_mb", last.rss_after_warmup_mb, "MB");
}

/// Every set-up's phases, for the detail line.
pub fn detail(all: &[Phases]) -> Obj {
    let col = |f: fn(&Phases) -> f64| -> String {
        let v: Vec<String> = all.iter().map(|p| crate::out::number(f(p))).collect();
        format!("[{}]", v.join(","))
    };
    let mut o = Obj::new();
    o.raw("total_s", col(|p| p.total))
        .raw("build_s", col(|p| p.build))
        .raw("prune_s", col(|p| p.prune))
        .raw("calibrate_s", col(|p| p.calibrate))
        .raw("warmup_s", col(|p| p.warmup));
    o
}
