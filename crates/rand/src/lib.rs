//! Offline, in-workspace replacement for the slice of the `rand` 0.8 API that the kronpriv
//! workspace actually uses. The build environment has no access to crates.io, so instead of an
//! external dependency the workspace carries this ~300-line shim:
//!
//! * [`rngs::StdRng`] — a seeded xoshiro256++ generator (SplitMix64 seed expansion),
//! * [`SeedableRng::seed_from_u64`] — the only construction path used by the workspace,
//! * [`Rng::gen`], [`Rng::gen_range`], [`Rng::gen_bool`], [`Rng::gen_ratio`],
//! * [`seq::SliceRandom::choose`] and [`seq::SliceRandom::shuffle`].
//!
//! Two inherent methods of [`rngs::StdRng`] are shim-only surface with no `rand` 0.8
//! counterpart: [`rngs::StdRng::split`] (a position-independent child stream per index) and
//! [`rngs::StdRng::advance`] (an exact jump ahead by any number of draws).
//!
//! The generator is deterministic across platforms and releases: every seed maps to the same
//! stream forever, which the reproduction relies on for its seeded tests and experiments.
//!
//! This is **not** a cryptographic RNG and deliberately implements nothing beyond the surface
//! above. If the workspace ever regains network access, deleting this crate and pointing the
//! `rand` dependency back at crates.io is the intended migration path; call sites need no edits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rngs;
pub mod seq;

mod distributions;
mod xoshiro;

pub use distributions::{SampleRange, Standard};

/// The raw 64-bit generator interface. Mirrors `rand_core::RngCore` minus the byte-fill
/// methods, which the workspace never calls.
pub trait RngCore {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly distributed bits (high half of [`next_u64`]).
    ///
    /// [`next_u64`]: RngCore::next_u64
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
}

/// Construction of a generator from a seed. Only the `seed_from_u64` entry point of the real
/// trait is exposed; the workspace never builds RNGs from byte arrays.
pub trait SeedableRng: Sized {
    /// Deterministically builds the generator from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// High-level sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value from the [`Standard`] distribution: `f64`/`f32` uniform in `[0, 1)`,
    /// `bool` as a fair coin, integers uniform over their full range.
    fn gen<T>(&mut self) -> T
    where
        T: SampleUniformStandard,
    {
        T::sample_standard(self)
    }

    /// Samples uniformly from `range` (half-open `a..b` or inclusive `a..=b`).
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} is not in [0, 1]");
        distributions::unit_f64(self.next_u64()) < p
    }

    /// Returns `true` with probability `numerator / denominator`.
    ///
    /// # Panics
    /// Panics if `denominator == 0` or `numerator > denominator`.
    fn gen_ratio(&mut self, numerator: u32, denominator: u32) -> bool {
        assert!(denominator > 0, "gen_ratio: zero denominator");
        assert!(numerator <= denominator, "gen_ratio: {numerator}/{denominator} exceeds 1");
        distributions::uniform_u64(self, denominator as u64) < numerator as u64
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Types samplable from the standard distribution via [`Rng::gen`].
///
/// This plays the role of `Distribution<T> for Standard` in real `rand`, flattened into a
/// single trait because the workspace only ever calls `rng.gen::<T>()`.
pub trait SampleUniformStandard {
    /// Draws one standard-distributed value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let collisions = (0..64).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(collisions, 0);
    }

    #[test]
    fn unit_floats_stay_in_range_and_average_near_half() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x), "sample {x} outside [0, 1)");
            sum += x;
        }
        let mean = sum / n as f64;
        // Standard error of the mean is ~1/sqrt(12 n) ≈ 0.002; allow 5 sigma.
        assert!((mean - 0.5).abs() < 0.011, "mean {mean} too far from 0.5");
    }

    #[test]
    fn gen_range_integers_cover_the_range_uniformly() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 10];
        let n = 50_000;
        for _ in 0..n {
            counts[rng.gen_range(0..10usize)] += 1;
        }
        for (value, &count) in counts.iter().enumerate() {
            let expected = n as f64 / 10.0;
            assert!(
                (count as f64 - expected).abs() < 0.08 * expected,
                "value {value} drawn {count} times, expected ~{expected}"
            );
        }
    }

    #[test]
    fn gen_range_floats_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..10_000 {
            let x = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&x));
        }
        for _ in 0..1_000 {
            let x = rng.gen_range(3.0..=3.5);
            assert!((3.0..=3.5).contains(&x));
        }
    }

    #[test]
    fn gen_range_inclusive_integers_hit_both_endpoints() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..1_000 {
            match rng.gen_range(0..=3u32) {
                0 => saw_lo = true,
                3 => saw_hi = true,
                1 | 2 => {}
                other => panic!("gen_range(0..=3) produced {other}"),
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn gen_bool_edge_cases_and_bias() {
        let mut rng = StdRng::seed_from_u64(19);
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((hits as f64 / 20_000.0 - 0.25).abs() < 0.02);
    }

    #[test]
    fn gen_ratio_matches_its_fraction() {
        let mut rng = StdRng::seed_from_u64(23);
        let hits = (0..20_000).filter(|_| rng.gen_ratio(1, 3)).count();
        assert!((hits as f64 / 20_000.0 - 1.0 / 3.0).abs() < 0.02);
        assert!((0..100).all(|_| rng.gen_ratio(5, 5)));
        assert!((0..100).all(|_| !rng.gen_ratio(0, 5)));
    }

    #[test]
    fn choose_is_uniform_and_none_on_empty() {
        let mut rng = StdRng::seed_from_u64(29);
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
        let items = [10, 20, 30, 40];
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            let &picked = items.choose(&mut rng).unwrap();
            counts[(picked / 10 - 1) as usize] += 1;
        }
        for &count in &counts {
            assert!((count as f64 - 10_000.0).abs() < 700.0);
        }
    }

    #[test]
    fn shuffle_permutes_without_losing_elements() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut values: Vec<u32> = (0..100).collect();
        values.shuffle(&mut rng);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // With 100 elements a fixed-point-free-ish shuffle is overwhelmingly likely; demand
        // that at least half the positions moved so an identity "shuffle" cannot pass.
        let moved = values.iter().enumerate().filter(|&(i, &v)| v != i as u32).count();
        assert!(moved >= 50, "only {moved} elements moved");
    }

    #[test]
    fn choose_works_through_a_generic_rng_parameter() {
        // Mirrors how `kronpriv-graph` calls `choose(rng)` with `rng: &mut R, R: Rng`.
        fn pick<R: Rng>(rng: &mut R) -> u8 {
            *[1u8, 2, 3].choose(rng).unwrap()
        }
        let mut rng = StdRng::seed_from_u64(37);
        let picked = pick(&mut rng);
        assert!((1..=3).contains(&picked));
    }
}
