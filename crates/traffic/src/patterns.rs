//! Frequent-pattern payload synthesis and classification (paper Fig. 1).
//!
//! The paper motivates layer shutdown with the frequent-pattern
//! observation of Alameldeen & Wood: a large share of the words moving
//! through a NUCA network are all-zeros or all-ones. [`PatternMix`]
//! describes a word-pattern distribution; it can *synthesise* payloads
//! with that distribution and *classify* observed payloads back into the
//! Fig. 1 categories.

use rand::Rng;
use serde::{Deserialize, Serialize};

use mira_noc::flit::{FlitData, WordPattern, MAX_FLIT_WORDS};

/// A distribution over word patterns.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PatternMix {
    /// Fraction of words that are all zeros.
    pub zero_fraction: f64,
    /// Fraction of words that are all ones.
    pub one_fraction: f64,
}

impl PatternMix {
    /// Creates a mix.
    ///
    /// # Panics
    ///
    /// Panics if a fraction is negative or the two sum to more than 1.
    pub fn new(zero_fraction: f64, one_fraction: f64) -> Self {
        assert!(zero_fraction >= 0.0 && one_fraction >= 0.0, "fractions must be non-negative");
        assert!(zero_fraction + one_fraction <= 1.0 + 1e-12, "fractions must sum to at most 1");
        PatternMix { zero_fraction, one_fraction }
    }

    /// All words carry arbitrary (non-redundant) data.
    pub fn dense() -> Self {
        PatternMix::new(0.0, 0.0)
    }

    /// Fraction of words with any redundant pattern.
    pub fn redundant_fraction(&self) -> f64 {
        self.zero_fraction + self.one_fraction
    }

    /// Draws one word.
    fn sample_word<R: Rng>(&self, rng: &mut R) -> u32 {
        let x: f64 = rng.gen();
        if x < self.zero_fraction {
            0
        } else if x < self.zero_fraction + self.one_fraction {
            u32::MAX
        } else {
            // Arbitrary non-redundant word; avoid accidentally drawing 0
            // or MAX.
            rng.gen_range(1..u32::MAX)
        }
    }

    /// Synthesises a flit payload of `num_words` i.i.d. words.
    pub fn sample_flit<R: Rng>(&self, num_words: usize, rng: &mut R) -> FlitData {
        let mut words = [0u32; MAX_FLIT_WORDS];
        for w in &mut words[..num_words] {
            *w = self.sample_word(rng);
        }
        FlitData::from_words(&words[..num_words])
    }

    /// Synthesises a *short-flit biased* payload: with probability
    /// `short_prob` the upper words are forced redundant (zero), so the
    /// flit activates only the top layer; otherwise words are drawn
    /// i.i.d. from the mix.
    pub fn sample_flit_with_short<R: Rng>(
        &self,
        num_words: usize,
        short_prob: f64,
        rng: &mut R,
    ) -> FlitData {
        if short_prob > 0.0 && rng.gen_bool(short_prob.min(1.0)) {
            let mut words = [0u32; MAX_FLIT_WORDS];
            words[0] = rng.gen_range(1..u32::MAX);
            FlitData::from_words(&words[..num_words])
        } else {
            self.sample_flit(num_words, rng)
        }
    }
}

/// Observed word-pattern frequencies (the Fig. 1 bars).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PatternCounts {
    /// Words that were all zeros.
    pub zeros: u64,
    /// Words that were all ones.
    pub ones: u64,
    /// All other words.
    pub other: u64,
}

impl PatternCounts {
    /// Classifies one payload into the counts.
    pub fn observe(&mut self, data: &FlitData) {
        for p in data.patterns() {
            match p {
                WordPattern::AllZero => self.zeros += 1,
                WordPattern::AllOne => self.ones += 1,
                WordPattern::Other => self.other += 1,
            }
        }
    }

    /// Total words observed.
    pub fn total(&self) -> u64 {
        self.zeros + self.ones + self.other
    }

    /// Fractions `(zero, one, other)`; all zero if nothing observed.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total();
        if t == 0 {
            return (0.0, 0.0, 0.0);
        }
        let t = t as f64;
        (self.zeros as f64 / t, self.ones as f64 / t, self.other as f64 / t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn sampled_mix_matches_spec() {
        let mix = PatternMix::new(0.5, 0.1);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = PatternCounts::default();
        for _ in 0..5_000 {
            counts.observe(&mix.sample_flit(4, &mut rng));
        }
        let (z, o, other) = counts.fractions();
        assert!((z - 0.5).abs() < 0.02, "zeros {z}");
        assert!((o - 0.1).abs() < 0.02, "ones {o}");
        assert!((other - 0.4).abs() < 0.02, "other {other}");
    }

    #[test]
    fn dense_mix_has_no_redundancy() {
        let mix = PatternMix::dense();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = PatternCounts::default();
        for _ in 0..1_000 {
            counts.observe(&mix.sample_flit(4, &mut rng));
        }
        assert_eq!(counts.zeros, 0);
        assert_eq!(counts.ones, 0);
    }

    #[test]
    fn short_bias_produces_short_flits() {
        let mix = PatternMix::new(0.2, 0.05);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut short = 0usize;
        let n = 4_000;
        for _ in 0..n {
            if mix.sample_flit_with_short(4, 0.5, &mut rng).is_short() {
                short += 1;
            }
        }
        // At least the forced 50 % are short; i.i.d. draws add a few more.
        let frac = short as f64 / n as f64;
        assert!((0.48..0.65).contains(&frac), "short fraction {frac}");
    }

    #[test]
    fn empty_counts_fractions_are_zero() {
        assert_eq!(PatternCounts::default().fractions(), (0.0, 0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "at most 1")]
    fn overfull_mix_panics() {
        let _ = PatternMix::new(0.8, 0.4);
    }
}
