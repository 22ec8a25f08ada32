//! A small deterministic PRNG — the workspace's stand-in for `rand`.
//!
//! The generator is SplitMix64: a 64-bit state advanced by a Weyl constant
//! and finalized with two xor-shift-multiply rounds. It is fast, passes
//! BigCrush on its output stream, and — crucially for schedule fuzzing and
//! adversary replay — is fully determined by its seed. The method names
//! (`seed_from_u64`, `random_range`, `random_bool`, `shuffle`) mirror the
//! `rand 0.9` API so call sites read the same.

use std::ops::Range;

/// A deterministic 64-bit PRNG (SplitMix64).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `range` (half-open; panics if empty).
    ///
    /// Uses Lemire-style rejection via 128-bit widening so the
    /// distribution is exactly uniform.
    pub fn random_range<T: RangeSample>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }

    /// Uniform `u64` below `bound` (panics if `bound == 0`).
    fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "random_range on empty range");
        // Lemire's nearly-divisionless method with rejection.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn random_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        // Compare 53 uniform mantissa bits against p.
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Fisher–Yates shuffle of `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element of `slice` (`None` if empty).
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.below(slice.len() as u64) as usize])
        }
    }
}

/// Types samplable uniformly from a half-open range by [`Rng::random_range`].
pub trait RangeSample: Sized {
    /// A uniform sample from `range` (panics if the range is empty).
    fn sample(rng: &mut Rng, range: Range<Self>) -> Self;
}

macro_rules! impl_range_sample {
    ($($t:ty),*) => {$(
        impl RangeSample for $t {
            fn sample(rng: &mut Rng, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "random_range on empty range");
                let span = (range.end as u64).wrapping_sub(range.start as u64);
                range.start + rng.below(span) as Self
            }
        }
    )*};
}

impl_range_sample!(usize, u64, u32, u16, u8);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(Rng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn range_stays_in_bounds_and_hits_all_values() {
        let mut rng = Rng::seed_from_u64(7);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let v = rng.random_range(2usize..7);
            assert!((2..7).contains(&v));
            seen[v - 2] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in range should occur");
    }

    #[test]
    fn bool_probability_extremes() {
        let mut rng = Rng::seed_from_u64(1);
        assert!(rng.random_bool(1.0));
        assert!(!rng.random_bool(0.0));
        let hits = (0..1000).filter(|_| rng.random_bool(0.5)).count();
        assert!((350..=650).contains(&hits), "p=0.5 gave {hits}/1000");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::seed_from_u64(99);
        let mut v: Vec<u32> = (0..20).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn choose_none_on_empty() {
        let mut rng = Rng::seed_from_u64(3);
        let empty: &[u8] = &[];
        assert!(rng.choose(empty).is_none());
        assert_eq!(rng.choose(&[5u8]), Some(&5));
    }
}
