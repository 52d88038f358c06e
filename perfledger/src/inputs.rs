//! Seeded inputs. Every image pool and arrival trace is a pure function
//! of the run's `--seed`, generated before any timing starts; the
//! programs under test receive only these generated inputs.

use cap_data::SyntheticImageNet;
use cap_serve::{generate_trace, ArrivalEvent, ArrivalPattern};
use cap_tensor::Tensor4;

/// Decorrelate the sub-streams drawn from one run seed.
fn mix(seed: u64, salt: u64) -> u64 {
    (seed ^ salt)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(29)
}

/// The ImageNet-shaped dataset (1000 classes, 3×224×224) of a run.
pub fn imagenet(seed: u64) -> SyntheticImageNet {
    SyntheticImageNet {
        classes: 1000,
        image_shape: (3, 224, 224),
        seed: mix(seed, 0x1A),
        noise: 0.3,
    }
}

/// The dataset the serving fleet's 3×16×16 demo networks read.
pub fn demo_images(seed: u64) -> SyntheticImageNet {
    SyntheticImageNet {
        classes: 10,
        image_shape: (3, 16, 16),
        seed: mix(seed, 0x2B),
        noise: 0.3,
    }
}

/// `count` batches of `batch` images, starting at image `first`.
pub fn batches(data: &SyntheticImageNet, first: u64, count: usize, batch: usize) -> Vec<Tensor4> {
    (0..count)
        .map(|b| data.batch(first + (b * batch) as u64, batch).0)
        .collect()
}

/// The serving fleet's traffic mix at `load` × the base rates: tenant 0
/// Poisson, tenant 1 diurnal, tenant 2 bursty.
pub fn serve_patterns(load: f64) -> Vec<ArrivalPattern> {
    vec![
        ArrivalPattern::Poisson {
            rate_per_s: 800.0 * load,
        },
        ArrivalPattern::Diurnal {
            base_per_s: 200.0 * load,
            peak_per_s: 1_400.0 * load,
            period_s: 0.25,
        },
        ArrivalPattern::Burst {
            base_per_s: 400.0 * load,
            burst_per_s: 4_000.0 * load,
            burst_every_s: 0.25,
            burst_len_s: 0.05,
        },
    ]
}

/// Virtual seconds per trace segment.
pub const SEGMENT_S: f64 = 0.5;

/// The two open-loop segments one replay serves, in order: load ×1
/// (no shedding) then load ×3 (overload, part of it shed).
pub fn serve_segments(seed: u64) -> [Vec<ArrivalEvent>; 2] {
    [
        generate_trace(mix(seed, 0x3C), &serve_patterns(1.0), SEGMENT_S),
        generate_trace(mix(seed, 0x4D), &serve_patterns(3.0), SEGMENT_S),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(seed: u64) -> Vec<f32> {
        // A small-image pool through the same batching path.
        let data = SyntheticImageNet {
            image_shape: (3, 8, 8),
            ..imagenet(seed)
        };
        batches(&data, 0, 2, 2)
            .iter()
            .flat_map(|t| t.as_slice().to_vec())
            .collect()
    }

    #[test]
    fn same_seed_same_image_pool() {
        assert_eq!(pool(7), pool(7));
        assert_ne!(pool(7), pool(8));
        let a = batches(&demo_images(7), 0, 1, 4);
        let b = batches(&demo_images(7), 0, 1, 4);
        let c = batches(&demo_images(8), 0, 1, 4);
        assert_eq!(a[0].as_slice(), b[0].as_slice());
        assert_ne!(a[0].as_slice(), c[0].as_slice());
    }

    #[test]
    fn same_seed_same_trace() {
        let key = |s: &[ArrivalEvent]| -> Vec<(u64, usize, u64)> {
            s.iter().map(|e| (e.t_us, e.tenant, e.seq)).collect()
        };
        let a = serve_segments(11);
        let b = serve_segments(11);
        let c = serve_segments(12);
        for i in 0..2 {
            assert!(!a[i].is_empty());
            assert_eq!(key(&a[i]), key(&b[i]));
            assert_ne!(key(&a[i]), key(&c[i]));
        }
        // The overload segment offers about three times the traffic.
        assert!(a[1].len() > 2 * a[0].len());
    }
}
