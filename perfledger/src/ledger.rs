//! Operation accounting and the output checks applied to every timed
//! operation.

use cap_tensor::Tensor4;

/// True when `out` matches `expected` bit for bit — the repo's parity
/// contract for f32 paths (fused, DAG, arena and batched execution all
/// reproduce the unfused sequential result exactly) and for the
/// deterministic, batch-invariant int8 path.
pub fn bitwise_equal(out: &[f32], expected: &[f32]) -> bool {
    out.len() == expected.len()
        && out
            .iter()
            .zip(expected)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Index of the largest logit (first on ties).
pub fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

/// Per-image top-1 agreement of `out` with `reference`.
pub fn top1_matches(out: &Tensor4, reference: &Tensor4) -> Vec<bool> {
    (0..out.n().min(reference.n()))
        .map(|j| argmax(out.image(j)) == argmax(reference.image(j)))
        .collect()
}

/// Counts of attempted and failed operations, and of the units (ops or
/// requests) they carried, from which `error_rate` follows.
#[derive(Debug, Default, Clone)]
pub struct OpLedger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, panicked or failed their output check.
    pub failed: u64,
    /// Units offered across all operations (forward calls, or requests
    /// for a serving replay).
    pub units: u64,
    /// Units lost: every unit of a failed operation, plus shed requests
    /// of the operations that passed.
    pub lost: u64,
}

impl OpLedger {
    /// Account one operation carrying `units`, of which `shed` were
    /// refused by admission control; `ok` is its output-check verdict.
    pub fn record(&mut self, units: u64, shed: u64, ok: bool) {
        self.attempted += 1;
        self.units += units;
        if ok {
            self.lost += shed;
        } else {
            self.failed += 1;
            self.lost += units;
        }
    }

    /// Lost units over offered units.
    pub fn error_rate(&self) -> f64 {
        if self.units == 0 {
            1.0
        } else {
            self.lost as f64 / self.units as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logits() -> Tensor4 {
        Tensor4::from_fn(2, 5, 1, 1, |n, c, _, _| (n * 5 + c) as f32 * 0.1)
    }

    #[test]
    fn perturbed_output_counts_as_error() {
        let expected = logits();
        let mut ledger = OpLedger::default();
        // A faithful output passes.
        let good = expected.clone();
        ledger.record(1, 0, bitwise_equal(good.as_slice(), expected.as_slice()));
        // One ULP on one logit fails the check and is counted.
        let mut bad = expected.clone();
        let v = bad.get(1, 3, 0, 0);
        bad.set(1, 3, 0, 0, f32::from_bits(v.to_bits() + 1));
        ledger.record(1, 0, bitwise_equal(bad.as_slice(), expected.as_slice()));
        assert_eq!((ledger.attempted, ledger.failed), (2, 1));
        assert_eq!(ledger.error_rate(), 0.5);
    }

    #[test]
    fn shed_requests_count_only_on_passing_ops() {
        let mut ledger = OpLedger::default();
        ledger.record(100, 10, true);
        ledger.record(50, 5, false);
        assert_eq!(ledger.failed, 1);
        assert_eq!(ledger.lost, 60);
        assert!((ledger.error_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn top1_follows_the_largest_logit() {
        let r = logits();
        assert_eq!(top1_matches(&r, &r), vec![true, true]);
        let mut flipped = r.clone();
        flipped.set(0, 0, 0, 0, 9.0);
        assert_eq!(top1_matches(&flipped, &r), vec![false, true]);
    }
}
