//! Cache-line payload synthesis and short-flit calibration.
//!
//! Data packets carry a 64-byte line over four 128-bit payload flits
//! behind a single-word header flit. The payload words follow the
//! application's frequent-pattern mix (paper Fig. 1); on top of the
//! i.i.d. pattern redundancy, a *short-flit bias* forces whole flits
//! short until the application's published short-flit percentage
//! (Fig. 13(a)) is met.
//!
//! **Interpretation note:** the profiles' `short_flit_fraction` is
//! calibrated against the *data payload* flits. Control flits (headers,
//! requests, invalidates, acks) are single-word and therefore always
//! short; counting them would put a floor under the short-flit share
//! that the low-redundancy applications (multimedia ≈10 %) sit below.

use rand::Rng;

use mira_noc::flit::FlitData;
use mira_traffic::patterns::PatternMix;
use mira_traffic::workloads::AppProfile;

/// Words per flit at the paper's 128-bit flit width.
pub const WORDS_PER_FLIT: usize = 4;

/// Payload flits per data packet (64 B line / 128-bit flits).
pub const LINE_FLITS: usize = 4;

/// Synthesises packet payloads for one application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineDataSynth {
    mix: PatternMix,
    /// Forced-short probability per payload flit, solved so the overall
    /// short fraction matches the profile.
    short_prob: f64,
}

impl LineDataSynth {
    /// Builds the synthesiser for an application profile.
    pub fn new(profile: &AppProfile) -> Self {
        LineDataSynth {
            mix: profile.patterns,
            short_prob: solve_short_prob(profile.short_flit_fraction, profile.patterns),
        }
    }

    /// Direct constructor for tests and custom mixes.
    pub fn with_params(mix: PatternMix, short_prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&short_prob), "probability in [0,1]");
        LineDataSynth { mix, short_prob }
    }

    /// The forced-short probability in use.
    pub fn short_prob(&self) -> f64 {
        self.short_prob
    }

    /// Payload of a data packet: short header flit + the line flits.
    pub fn data_packet_payload<R: Rng>(&self, rng: &mut R) -> Vec<FlitData> {
        let mut flits = Vec::with_capacity(1 + LINE_FLITS);
        flits.push(header_flit(rng));
        for _ in 0..LINE_FLITS {
            flits.push(self.mix.sample_flit_with_short(WORDS_PER_FLIT, self.short_prob, rng));
        }
        flits
    }

    /// Payload of a single-flit control packet.
    pub fn control_packet_payload<R: Rng>(&self, rng: &mut R) -> Vec<FlitData> {
        vec![header_flit(rng)]
    }
}

/// A header/address flit: one meaningful word, upper words redundant.
fn header_flit<R: Rng>(rng: &mut R) -> FlitData {
    let mut words = [0u32; WORDS_PER_FLIT];
    words[0] = rng.gen_range(1..u32::MAX);
    FlitData::from_words(&words)
}

/// Solves the forced-short probability `p` such that
/// `p + (1 − p) · q³ = target`, where `q` is the i.i.d. redundant-word
/// probability (a flit is short when all three upper words happen to be
/// redundant). Clamped to `[0, 1]`.
fn solve_short_prob(target: f64, mix: PatternMix) -> f64 {
    assert!((0.0..=1.0).contains(&target), "target in [0,1]");
    let q = mix.redundant_fraction();
    let base = q.powi((WORDS_PER_FLIT - 1) as i32);
    if base >= 1.0 {
        return 0.0;
    }
    ((target - base) / (1.0 - base)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_traffic::workloads::Application;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn header_flits_are_short() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(header_flit(&mut rng).is_short());
        }
    }

    #[test]
    fn payload_shape() {
        let synth = LineDataSynth::new(&Application::Tpcw.profile());
        let mut rng = SmallRng::seed_from_u64(1);
        let p = synth.data_packet_payload(&mut rng);
        assert_eq!(p.len(), 5);
        assert!(p[0].is_short(), "header is short");
        let c = synth.control_packet_payload(&mut rng);
        assert_eq!(c.len(), 1);
        assert!(c[0].is_short());
    }

    /// The solver hits the published short-flit percentages for every
    /// application profile (measured over payload flits, ±3 %).
    #[test]
    fn short_fraction_calibration() {
        for app in Application::ALL {
            let profile = app.profile();
            let synth = LineDataSynth::new(&profile);
            let mut rng = SmallRng::seed_from_u64(7);
            let mut short = 0usize;
            let mut total = 0usize;
            for _ in 0..3_000 {
                for f in &synth.data_packet_payload(&mut rng)[1..] {
                    total += 1;
                    if f.is_short() {
                        short += 1;
                    }
                }
            }
            let measured = short as f64 / total as f64;
            assert!(
                (measured - profile.short_flit_fraction).abs() < 0.03,
                "{app}: measured {measured:.3} vs target {}",
                profile.short_flit_fraction
            );
        }
    }

    #[test]
    fn solver_clamps_at_zero_for_low_targets() {
        // A mix whose i.i.d. redundancy already exceeds the target.
        let mix = PatternMix::new(0.9, 0.05);
        assert_eq!(solve_short_prob(0.1, mix), 0.0);
    }

    #[test]
    fn solver_monotone_in_target() {
        let mix = PatternMix::new(0.3, 0.05);
        let p1 = solve_short_prob(0.2, mix);
        let p2 = solve_short_prob(0.5, mix);
        let p3 = solve_short_prob(0.8, mix);
        assert!(p1 < p2 && p2 < p3);
    }

    #[test]
    fn word_patterns_match_mix_when_not_forced_short() {
        // With short_prob = 0 the payload words follow the mix directly.
        let mix = PatternMix::new(0.4, 0.1);
        let synth = LineDataSynth::with_params(mix, 0.0);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = mira_traffic::patterns::PatternCounts::default();
        for _ in 0..3_000 {
            for f in &synth.data_packet_payload(&mut rng)[1..] {
                counts.observe(f);
            }
        }
        let (z, o, _) = counts.fractions();
        assert!((z - 0.4).abs() < 0.03, "zeros {z}");
        assert!((o - 0.1).abs() < 0.02, "ones {o}");
    }
}
