//! Patterns, pattern pairs and pseudo-random generators.

use crate::AtpgError;
use avfs_prng::{Rng, SeedableRng, SmallRng};
use std::fmt;

/// One input vector: a bit per primary input, packed into `u64` words.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Pattern {
    bits: Vec<u64>,
    width: usize,
}

impl Pattern {
    /// The all-zero vector of the given width.
    pub fn zeros(width: usize) -> Pattern {
        Pattern {
            bits: vec![0; width.div_ceil(64)],
            width,
        }
    }

    /// Builds a pattern from bools.
    pub fn from_bits(bits: impl IntoIterator<Item = bool>) -> Pattern {
        let mut p = Pattern::zeros(0);
        for (i, b) in bits.into_iter().enumerate() {
            if i % 64 == 0 {
                p.bits.push(0);
            }
            if b {
                *p.bits.last_mut().expect("just pushed") |= 1 << (i % 64);
            }
            p.width = i + 1;
        }
        p
    }

    /// A uniformly random vector.
    pub fn random(width: usize, rng: &mut impl Rng) -> Pattern {
        let mut p = Pattern::zeros(width);
        for w in &mut p.bits {
            *w = rng.gen();
        }
        p.mask_tail();
        p
    }

    fn mask_tail(&mut self) {
        let rem = self.width % 64;
        if rem != 0 {
            if let Some(last) = self.bits.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// The packed bits: bit `k % 64` of word `k / 64` is bit `k`; bits at
    /// and above the width are zero.
    pub(crate) fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Number of bits (primary inputs).
    pub fn width(&self) -> usize {
        self.width
    }

    /// The bit at position `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.width()`.
    #[inline]
    pub fn bit(&self, k: usize) -> bool {
        assert!(k < self.width, "bit index out of range");
        (self.bits[k / 64] >> (k % 64)) & 1 == 1
    }

    /// Sets the bit at position `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.width()`.
    pub fn set_bit(&mut self, k: usize, value: bool) {
        assert!(k < self.width, "bit index out of range");
        if value {
            self.bits[k / 64] |= 1 << (k % 64);
        } else {
            self.bits[k / 64] &= !(1 << (k % 64));
        }
    }

    /// Iterates the bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.width).map(|k| self.bit(k))
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Hamming distance to another pattern of the same width — the number
    /// of inputs that launch a transition between the two vectors of a
    /// pair.
    ///
    /// # Errors
    ///
    /// Returns [`AtpgError::WidthMismatch`] if widths differ.
    pub fn hamming(&self, other: &Pattern) -> Result<usize, AtpgError> {
        if self.width != other.width {
            return Err(AtpgError::WidthMismatch {
                expected: self.width,
                got: other.width,
            });
        }
        Ok(self
            .bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum())
    }
}

impl fmt::Debug for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pattern[")?;
        for b in self.iter().take(64) {
            write!(f, "{}", u8::from(b))?;
        }
        if self.width > 64 {
            write!(f, "… ({} bits)", self.width)?;
        }
        write!(f, "]")
    }
}

/// A launch/capture pair: the transition-delay test stimulus. Input `k`
/// holds `launch[k]` initially and switches to `capture[k]` at the launch
/// time.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PatternPair {
    /// The first (initialization) vector.
    pub launch: Pattern,
    /// The second (transition-launching) vector.
    pub capture: Pattern,
}

impl PatternPair {
    /// Creates a pair after checking the widths agree.
    ///
    /// # Errors
    ///
    /// Returns [`AtpgError::WidthMismatch`] if widths differ.
    pub fn new(launch: Pattern, capture: Pattern) -> Result<PatternPair, AtpgError> {
        if launch.width() != capture.width() {
            return Err(AtpgError::WidthMismatch {
                expected: launch.width(),
                got: capture.width(),
            });
        }
        Ok(PatternPair { launch, capture })
    }

    /// Number of primary inputs covered.
    pub fn width(&self) -> usize {
        self.launch.width()
    }

    /// How many inputs toggle between the vectors.
    pub fn launched_transitions(&self) -> usize {
        self.launch
            .hamming(&self.capture)
            .expect("widths checked at construction")
    }
}

/// An ordered collection of pattern pairs for one design.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PatternSet {
    pairs: Vec<PatternPair>,
}

impl PatternSet {
    /// An empty set.
    pub fn new() -> PatternSet {
        PatternSet::default()
    }

    /// Generates `count` pseudo-random pairs for `width` inputs from a
    /// seed (deterministic).
    pub fn random(width: usize, count: usize, seed: u64) -> PatternSet {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pairs = (0..count)
            .map(|_| {
                let launch = Pattern::random(width, &mut rng);
                let capture = Pattern::random(width, &mut rng);
                PatternPair { launch, capture }
            })
            .collect();
        PatternSet { pairs }
    }

    /// Generates `count` pairs from a 64-bit LFSR PRPG (x⁶⁴+x⁶³+x⁶¹+x⁶⁰+1),
    /// the classic BIST-style stimulus source. Consecutive LFSR states form
    /// the launch/capture vectors, so each pair launches roughly half the
    /// inputs — high switching activity, as in at-speed scan testing.
    pub fn lfsr(width: usize, count: usize, seed: u64) -> PatternSet {
        let mut state = seed | 1; // LFSR must not start at zero
        let mut next_vector = || {
            let mut p = Pattern::zeros(width);
            for k in 0..width {
                let bit = state & 1 == 1;
                // Galois LFSR step, taps 64, 63, 61, 60.
                let feedback = (state >> 63) ^ (state >> 62) ^ (state >> 60) ^ (state >> 59);
                state = (state << 1) | (feedback & 1);
                p.set_bit(k, bit);
            }
            p
        };
        let pairs = (0..count)
            .map(|_| PatternPair {
                launch: next_vector(),
                capture: next_vector(),
            })
            .collect();
        PatternSet { pairs }
    }

    /// Appends a pair.
    pub fn push(&mut self, pair: PatternPair) {
        self.pairs.push(pair);
    }

    /// The pairs in order.
    pub fn pairs(&self) -> &[PatternPair] {
        &self.pairs
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when the set holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates the pairs.
    pub fn iter(&self) -> std::slice::Iter<'_, PatternPair> {
        self.pairs.iter()
    }
}

impl FromIterator<PatternPair> for PatternSet {
    fn from_iter<I: IntoIterator<Item = PatternPair>>(iter: I) -> Self {
        PatternSet {
            pairs: iter.into_iter().collect(),
        }
    }
}

impl Extend<PatternPair> for PatternSet {
    fn extend<I: IntoIterator<Item = PatternPair>>(&mut self, iter: I) {
        self.pairs.extend(iter);
    }
}

impl<'a> IntoIterator for &'a PatternSet {
    type Item = &'a PatternPair;
    type IntoIter = std::slice::Iter<'a, PatternPair>;

    fn into_iter(self) -> Self::IntoIter {
        self.pairs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pattern_bits_roundtrip() {
        let mut p = Pattern::zeros(70);
        assert_eq!(p.width(), 70);
        assert_eq!(p.count_ones(), 0);
        p.set_bit(0, true);
        p.set_bit(63, true);
        p.set_bit(69, true);
        assert!(p.bit(0) && p.bit(63) && p.bit(69));
        assert!(!p.bit(1) && !p.bit(64));
        assert_eq!(p.count_ones(), 3);
        p.set_bit(63, false);
        assert_eq!(p.count_ones(), 2);
    }

    #[test]
    fn from_bits_matches_iter() {
        let bits = [true, false, true, true, false];
        let p = Pattern::from_bits(bits.iter().copied());
        assert_eq!(p.width(), 5);
        let collected: Vec<bool> = p.iter().collect();
        assert_eq!(collected, bits);
    }

    #[test]
    fn hamming_distance() {
        let a = Pattern::from_bits([true, false, true].iter().copied());
        let b = Pattern::from_bits([false, false, true].iter().copied());
        assert_eq!(a.hamming(&b).unwrap(), 1);
        let c = Pattern::zeros(4);
        assert!(matches!(
            a.hamming(&c),
            Err(AtpgError::WidthMismatch {
                expected: 3,
                got: 4
            })
        ));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let s1 = PatternSet::random(40, 10, 42);
        let s2 = PatternSet::random(40, 10, 42);
        let s3 = PatternSet::random(40, 10, 43);
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
        assert_eq!(s1.len(), 10);
        assert!(s1.pairs().iter().all(|p| p.width() == 40));
    }

    #[test]
    fn lfsr_is_deterministic_and_active() {
        let s1 = PatternSet::lfsr(64, 16, 7);
        let s2 = PatternSet::lfsr(64, 16, 7);
        assert_eq!(s1, s2);
        // LFSR patterns should launch many transitions on average.
        let avg: f64 = s1
            .pairs()
            .iter()
            .map(|p| p.launched_transitions() as f64)
            .sum::<f64>()
            / s1.len() as f64;
        assert!(avg > 16.0, "average launched transitions {avg} too low");
    }

    #[test]
    fn pattern_pair_width_check() {
        let a = Pattern::zeros(4);
        let b = Pattern::zeros(5);
        assert!(PatternPair::new(a.clone(), a.clone()).is_ok());
        assert!(PatternPair::new(a, b).is_err());
    }

    #[test]
    fn set_collects_and_extends() {
        let mut set: PatternSet = (0..3)
            .map(|_| PatternPair {
                launch: Pattern::zeros(2),
                capture: Pattern::zeros(2),
            })
            .collect();
        set.extend(std::iter::once(PatternPair {
            launch: Pattern::zeros(2),
            capture: Pattern::zeros(2),
        }));
        assert_eq!(set.len(), 4);
        assert!(!set.is_empty());
        assert_eq!((&set).into_iter().count(), 4);
    }

    proptest! {
        #[test]
        fn count_ones_matches_iter(width in 1usize..200, seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let p = Pattern::random(width, &mut rng);
            let by_iter = p.iter().filter(|&b| b).count();
            prop_assert_eq!(p.count_ones(), by_iter);
        }

        #[test]
        fn hamming_symmetric(width in 1usize..128, s1 in any::<u64>(), s2 in any::<u64>()) {
            let mut r1 = SmallRng::seed_from_u64(s1);
            let mut r2 = SmallRng::seed_from_u64(s2);
            let a = Pattern::random(width, &mut r1);
            let b = Pattern::random(width, &mut r2);
            prop_assert_eq!(a.hamming(&b).unwrap(), b.hamming(&a).unwrap());
            prop_assert_eq!(a.hamming(&a).unwrap(), 0);
        }
    }
}
