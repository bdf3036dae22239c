//! Concrete generators. Only [`StdRng`] exists: the workspace constructs every RNG through
//! `StdRng::seed_from_u64`, derives per-stream children with [`StdRng::split`] and jumps ahead
//! within one stream with [`StdRng::advance`].

use crate::xoshiro::{splitmix64, Xoshiro256PlusPlus};
use crate::{RngCore, SeedableRng};

/// Domain-separation tag mixed into every [`StdRng::split`] derivation. It separates the
/// *derivation arithmetic* — `seed.split(stream)` can never equal `seed'.split(stream')` by
/// the trivial collision `seed + γ·stream == seed' + γ·stream'` alone — not the resulting
/// streams: a split child is seeded through `seed_from_u64(derived)`, so it *is* the stream of
/// that derived seed (as any 64-bit-seeded child must be).
const SPLIT_STREAM_TAG: u64 = 0x5EED_517E_AD5E_ED00;

/// The workspace's standard generator: xoshiro256++ behind the same name real `rand` uses, so
/// `use rand::rngs::StdRng` keeps compiling verbatim.
///
/// Unlike upstream `StdRng` (which documents *no* cross-version reproducibility), this shim
/// guarantees the seed → stream mapping is stable forever; the reproduction's seeded
/// experiments depend on it. The same stability contract covers [`StdRng::split`].
#[derive(Clone, Debug)]
pub struct StdRng {
    inner: Xoshiro256PlusPlus,
    /// The construction seed, retained so [`StdRng::split`] is a pure function of
    /// `(seed, stream)` — independent of how far this generator has already advanced.
    seed: u64,
}

impl StdRng {
    /// Derives the child generator for stream `stream`: a deterministic function of this
    /// generator's **construction seed** and the stream index only.
    ///
    /// Child seeding is SplitMix64-based (the xoshiro authors' recommended expander): the
    /// construction seed is finalised once, the stream index is folded in through an odd-
    /// constant multiply (a bijection, so distinct streams can never collide), and the result
    /// is finalised again before seeding the child. Two properties matter to callers:
    ///
    /// * **position-independent** — `rng.split(i)` returns the same child whether `rng` is
    ///   fresh or has already produced values, so parallel workers can derive their streams
    ///   without coordinating over the parent's state;
    /// * **pairwise decorrelated** — distinct stream indices map to distinct, SplitMix64-
    ///   finalised child seeds, so the child streams are disjoint on any practically
    ///   observable prefix (pinned by `tests/kronfit_parallel_consistency.rs`).
    ///
    /// This is what makes "one chain per stream" algorithms depend only on their *stream
    /// count* (an algorithm parameter), never on the thread count executing them.
    pub fn split(&self, stream: u64) -> StdRng {
        let mut state = self.seed ^ SPLIT_STREAM_TAG;
        let root = splitmix64(&mut state);
        // Odd multiplier ⇒ `stream → root + stream·M` is injective over u64, so every stream
        // index lands on a distinct pre-finalisation state.
        let mut child = root.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        StdRng::seed_from_u64(splitmix64(&mut child))
    }

    /// Moves this generator exactly `draws` values ahead: afterwards it is where `draws` calls
    /// of [`RngCore::next_u64`] would have left it, whatever `draws` is.
    ///
    /// The xoshiro256 state map is linear over GF(2), so the jump costs about `log2(draws)`
    /// polynomial squarings plus 256 generator steps (microseconds) instead of `draws` steps.
    /// This is what lets a chunked parallel loop give every chunk the exact draws a sequential
    /// loop would: chunk `c` clones the entry generator and advances the clone past the draws
    /// of chunks `0..c`. Like [`StdRng::split`], this has no `rand` 0.8 counterpart.
    pub fn advance(&mut self, draws: u64) {
        self.inner.advance(draws);
    }
}

impl SeedableRng for StdRng {
    fn seed_from_u64(state: u64) -> Self {
        Self { inner: Xoshiro256PlusPlus::seed_from_u64(state), seed: state }
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn split_is_independent_of_the_parent_position() {
        let fresh = StdRng::seed_from_u64(7);
        let mut advanced = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            advanced.gen::<u64>();
        }
        let mut a = fresh.split(3);
        let mut b = advanced.split(3);
        for _ in 0..64 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn split_streams_differ_from_each_other_and_from_the_parent() {
        let parent = StdRng::seed_from_u64(11);
        let prefix = |mut rng: StdRng| -> Vec<u64> { (0..64).map(|_| rng.gen()).collect() };
        let parent_prefix = prefix(parent.clone());
        let s0 = prefix(parent.split(0));
        let s1 = prefix(parent.split(1));
        assert_ne!(s0, s1);
        assert_ne!(s0, parent_prefix);
        assert_ne!(s1, parent_prefix);
    }

    #[test]
    fn split_seed_mapping_is_pinned_forever() {
        // Like the SplitMix64 reference-vector test: these constants pin the split derivation
        // so a refactor cannot silently change every multi-chain experiment in the workspace.
        let parent = StdRng::seed_from_u64(42);
        let first = |mut rng: StdRng| rng.gen::<u64>();
        assert_eq!(first(parent.split(0)), 5_993_037_491_886_591_478);
        assert_eq!(first(parent.split(1)), 243_206_769_653_588_092);
        assert_eq!(first(parent.split(2)), 13_838_181_863_229_586_816);
    }
}
