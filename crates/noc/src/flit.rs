//! Flits: the unit of flow control, and their data-payload patterns.
//!
//! MIRA's power optimisation hinges on the observation (paper Fig. 1) that
//! NUCA traffic payloads are dominated by *frequent patterns* — words that
//! are all zeros or all ones — and by short address/control flits. The
//! multi-layered router splits a `W`-bit flit into `L` word slices, one per
//! silicon layer (LSB word on the top layer), and a zero-detector shuts the
//! lower layers down when they would only carry redundant data.
//!
//! [`FlitData`] models the payload at word granularity and implements the
//! zero-detector ([`FlitData::active_words`]) and the frequent-pattern
//! classifier used to regenerate the paper's Fig. 1.

use serde::{Deserialize, Serialize};

use crate::ids::NodeId;
use crate::packet::{PacketClass, PacketId};

/// Number of bits per payload word (one word per silicon layer).
pub const WORD_BITS: usize = 32;

/// Maximum payload words a flit can carry. Payloads are stored inline
/// (no heap allocation per flit), so the widest supported flit is
/// `MAX_FLIT_WORDS * WORD_BITS` bits — 256 bits, double the paper's
/// 128-bit evaluation point.
pub const MAX_FLIT_WORDS: usize = 8;

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlitKind {
    /// First flit of a multi-flit packet; carries routing information.
    Head,
    /// Interior flit of a multi-flit packet.
    Body,
    /// Last flit of a multi-flit packet; releases the virtual channel.
    Tail,
    /// Only flit of a single-flit packet (head and tail at once).
    HeadTail,
}

impl FlitKind {
    /// The kind of flit `seq` (0 = head) of a `len`-flit packet: the one
    /// place the head/body/tail rule lives.
    #[inline]
    pub(crate) fn at(seq: usize, len: usize) -> Self {
        match (len, seq) {
            (1, _) => FlitKind::HeadTail,
            (_, 0) => FlitKind::Head,
            (_, i) if i == len - 1 => FlitKind::Tail,
            _ => FlitKind::Body,
        }
    }

    /// Returns `true` for flits that carry the packet header (route/VC
    /// decisions happen on these).
    #[inline]
    pub const fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// Returns `true` for flits that terminate the packet (the VC is
    /// released after they traverse the switch).
    #[inline]
    pub const fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// Classification of a payload word, following the frequent-pattern
/// taxonomy of Alameldeen & Wood that the paper cites for Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WordPattern {
    /// All 32 bits are zero.
    AllZero,
    /// All 32 bits are one.
    AllOne,
    /// Any other value.
    Other,
}

impl WordPattern {
    /// Classifies a single payload word.
    #[inline]
    pub const fn of(word: u32) -> Self {
        match word {
            0 => WordPattern::AllZero,
            u32::MAX => WordPattern::AllOne,
            _ => WordPattern::Other,
        }
    }

    /// Returns `true` if the word carries no information beyond its
    /// pattern tag (and can therefore be regenerated on the far side
    /// instead of being transported).
    #[inline]
    pub const fn is_redundant(self) -> bool {
        !matches!(self, WordPattern::Other)
    }
}

/// Payload of one flit, stored at word granularity.
///
/// The flit width is `words.len() * 32` bits; the MIRA evaluation uses
/// 128-bit flits (4 words, 4 layers). Word 0 is the least-significant word
/// and lives on the **top** layer (closest to the heat sink), so layer
/// shutdown always retains word 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlitData {
    /// Inline word storage; only `words[..len]` is meaningful, and every
    /// word past `len` is kept zero so the derived `Eq`/`Hash` agree
    /// with logical payload equality.
    words: [u32; MAX_FLIT_WORDS],
    len: u8,
    /// Cached zero-detector output (`active_words`). A pure function of
    /// `words[..len]`, maintained by every constructor and by
    /// [`FlitData::flip_bits`], so equality stays consistent with the
    /// payload. The switch-traversal path reads it once per hop.
    active: u8,
}

impl Serialize for FlitData {
    fn serialize(&self, e: &mut dyn serde::Emitter) {
        e.begin_object();
        e.field("words", self.words());
        e.end_object();
    }
}

impl Deserialize for FlitData {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let words = Vec::<u32>::from_value(v.field("words"))?;
        if words.is_empty() || words.len() > MAX_FLIT_WORDS {
            return Err(serde::Error::msg(format!(
                "flit payload must have 1..={MAX_FLIT_WORDS} words, got {}",
                words.len()
            )));
        }
        Ok(FlitData::new(words))
    }
}

impl FlitData {
    /// Creates a payload from explicit words.
    ///
    /// # Panics
    ///
    /// Panics if `words` is empty or wider than [`MAX_FLIT_WORDS`].
    pub fn new(words: Vec<u32>) -> Self {
        FlitData::from_words(&words)
    }

    /// Creates a payload from a word slice without consuming a `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `words` is empty or wider than [`MAX_FLIT_WORDS`].
    pub fn from_words(words: &[u32]) -> Self {
        assert_width(words.len());
        let mut w = [0u32; MAX_FLIT_WORDS];
        w[..words.len()].copy_from_slice(words);
        let len = words.len() as u8;
        FlitData { words: w, len, active: active_words_of(&w, len) }
    }

    /// An all-zero payload of `num_words` words — the maximally short flit.
    pub fn zeroed(num_words: usize) -> Self {
        assert_width(num_words);
        FlitData { words: [0; MAX_FLIT_WORDS], len: num_words as u8, active: 1 }
    }

    /// A payload in which every word is distinct and non-redundant — the
    /// maximally long flit (all layers active).
    pub fn dense(num_words: usize) -> Self {
        assert_width(num_words);
        CANONICAL[num_words - 1][0]
    }

    /// Builds a payload with exactly `active` meaningful low words; all
    /// higher words are zero. `active` is clamped to `1..=num_words`.
    pub fn with_active_words(num_words: usize, active: usize) -> Self {
        assert_width(num_words);
        CANONICAL[num_words - 1][active.clamp(1, num_words)]
    }

    /// A `len`-word payload whose first `live` words are
    /// `seed * (i + 1)` and the rest zero: the shape of every canonical
    /// payload.
    const fn patterned(len: usize, live: usize, seed: u32) -> Self {
        let mut words = [0u32; MAX_FLIT_WORDS];
        let mut i = 0;
        while i < live {
            words[i] = seed.wrapping_mul(i as u32 + 1);
            i += 1;
        }
        FlitData { words, len: len as u8, active: active_words_of(&words, len as u8) }
    }

    /// This payload's one-byte source-queue code (DESIGN.md §14). The low
    /// nibble is the word count. The high nibble names the constructor
    /// that rebuilds the payload: `1` for [`FlitData::dense`], `1 + a`
    /// for [`FlitData::with_active_words`]`(n, a)`, and `0` for an
    /// explicit payload, whose words the queue stores beside the code.
    /// A payload is coded as a constructor only when it equals that
    /// constructor's output whole: words, length and cached `active`.
    pub(crate) fn code(&self) -> u8 {
        let row = &CANONICAL[usize::from(self.len) - 1];
        let shape = if *self == row[0] {
            1
        } else if *self == row[usize::from(self.active)] {
            1 + self.active
        } else {
            0
        };
        (shape << 4) | self.len
    }

    /// The payload `code` names, or `None` when the code is explicit.
    pub(crate) fn from_code(code: u8) -> Option<FlitData> {
        let shape = usize::from(code >> 4);
        (shape > 0).then(|| CANONICAL[usize::from(code & 0xF) - 1][shape - 1])
    }

    /// Words stored beside a payload coded `code`: its word count when
    /// the code is explicit, none otherwise.
    pub(crate) fn stored_words(code: u8) -> usize {
        if code >> 4 == 0 {
            usize::from(code & 0xF)
        } else {
            0
        }
    }

    /// Number of payload words (= number of datapath layers it spans).
    #[inline]
    pub fn num_words(&self) -> usize {
        self.len as usize
    }

    /// Borrow the payload words (word 0 = LSB = top layer).
    #[inline]
    pub fn words(&self) -> &[u32] {
        &self.words[..self.len as usize]
    }

    /// The zero-detector: number of low-order words that must stay
    /// powered. All words above the returned index are redundant
    /// (all-zero or all-one) and their layers can be shut down.
    ///
    /// The result is always at least 1: the top layer (word 0) is never
    /// gated, because the header travels with it.
    #[inline]
    pub fn active_words(&self) -> usize {
        self.active as usize
    }

    /// A *short flit* in the paper's sense: every word except the top-layer
    /// word is redundant, so only one layer of the datapath is needed.
    #[inline]
    pub fn is_short(&self) -> bool {
        self.active_words() == 1
    }

    /// Fraction of datapath layers that stay active for this flit
    /// (`active_words / num_words`), the quantity that scales the
    /// separable-module energy under layer shutdown.
    #[inline]
    pub fn active_fraction(&self) -> f64 {
        self.active_words() as f64 / self.len as f64
    }

    /// Per-word pattern classification (drives the Fig. 1 reproduction).
    pub fn patterns(&self) -> impl Iterator<Item = WordPattern> + '_ {
        self.words().iter().map(|&w| WordPattern::of(w))
    }

    /// XORs `mask` into word `word` (fault injection: models bit-flips
    /// on the link slice carrying that word).
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range.
    pub fn flip_bits(&mut self, word: usize, mask: u32) {
        let len = self.len as usize;
        self.words[..len][word] ^= mask;
        self.active = active_words_of(&self.words, self.len);
    }
}

/// Panics unless a payload of `num_words` words is representable.
fn assert_width(num_words: usize) {
    assert!(num_words >= 1, "flit payload must have at least one word");
    assert!(
        num_words <= MAX_FLIT_WORDS,
        "flit payload is limited to {MAX_FLIT_WORDS} words, got {num_words}"
    );
}

/// The zero-detector over `words[..len]`: every constructor and
/// [`FlitData::flip_bits`] cache its output; everything else reads the
/// cache.
const fn active_words_of(words: &[u32; MAX_FLIT_WORDS], len: u8) -> u8 {
    let mut active = len as usize;
    while active > 1 && WordPattern::of(words[active - 1]).is_redundant() {
        active -= 1;
    }
    active as u8
}

/// Every canonical payload, built at compile time: row `n - 1` holds
/// [`FlitData::dense`]`(n)` in column 0 and
/// [`FlitData::with_active_words`]`(n, a)` in column `a` (columns past
/// `n` repeat `a = n`, as the clamp does). The two constructors, the
/// queue code and its decoding all read this one table.
static CANONICAL: [[FlitData; MAX_FLIT_WORDS + 1]; MAX_FLIT_WORDS] = {
    let blank = FlitData { words: [0; MAX_FLIT_WORDS], len: 0, active: 0 };
    let mut table = [[blank; MAX_FLIT_WORDS + 1]; MAX_FLIT_WORDS];
    let mut n = 1;
    while n <= MAX_FLIT_WORDS {
        table[n - 1][0] = FlitData::patterned(n, n, 0xDEAD_0001);
        let mut a = 1;
        while a <= MAX_FLIT_WORDS {
            table[n - 1][a] = FlitData::patterned(n, if a < n { a } else { n }, 0xA5A5_0001);
            a += 1;
        }
        n += 1;
    }
    table
};

/// The unit of flow control: one flit travelling through the network.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Flit {
    /// Packet this flit belongs to.
    pub packet: PacketId,
    /// Sequence number of this flit within its packet (0 = head).
    pub seq: u32,
    /// Position within the packet.
    pub kind: FlitKind,
    /// Source node of the packet.
    pub src: NodeId,
    /// Destination node of the packet.
    pub dst: NodeId,
    /// Traffic class (selects the virtual channel).
    pub class: PacketClass,
    /// Payload words.
    pub data: FlitData,
    /// Cycle at which the owning packet was created at the source.
    pub created_at: u64,
    /// Number of router-to-router hops taken so far.
    pub hops: u32,
}

impl Flit {
    /// Returns `true` if this flit carries the packet header.
    #[inline]
    pub fn is_head(&self) -> bool {
        self.kind.is_head()
    }

    /// Returns `true` if this flit terminates the packet.
    #[inline]
    pub fn is_tail(&self) -> bool {
        self.kind.is_tail()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_pattern_classification() {
        assert_eq!(WordPattern::of(0), WordPattern::AllZero);
        assert_eq!(WordPattern::of(u32::MAX), WordPattern::AllOne);
        assert_eq!(WordPattern::of(42), WordPattern::Other);
        assert!(WordPattern::AllZero.is_redundant());
        assert!(WordPattern::AllOne.is_redundant());
        assert!(!WordPattern::Other.is_redundant());
    }

    #[test]
    fn zero_detector_counts_low_words() {
        let d = FlitData::new(vec![7, 0, 0, 0]);
        assert_eq!(d.active_words(), 1);
        assert!(d.is_short());

        let d = FlitData::new(vec![7, 9, 0, 0]);
        assert_eq!(d.active_words(), 2);
        assert!(!d.is_short());

        let d = FlitData::new(vec![7, 9, 1, 3]);
        assert_eq!(d.active_words(), 4);
    }

    #[test]
    fn all_ones_count_as_redundant() {
        let d = FlitData::new(vec![7, u32::MAX, u32::MAX, u32::MAX]);
        assert_eq!(d.active_words(), 1);
    }

    #[test]
    fn top_layer_never_gated() {
        let d = FlitData::zeroed(4);
        assert_eq!(d.active_words(), 1, "even an all-zero flit keeps one layer");
        assert!((d.active_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn interior_zero_does_not_shorten() {
        // A zero word *between* meaningful words cannot be gated: layers
        // shut down strictly from the bottom (MSB side).
        let d = FlitData::new(vec![7, 0, 5, 0]);
        assert_eq!(d.active_words(), 3);
    }

    #[test]
    fn dense_payload_uses_all_layers() {
        let d = FlitData::dense(4);
        assert_eq!(d.active_words(), 4);
        assert!((d.active_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn with_active_words_clamps() {
        assert_eq!(FlitData::with_active_words(4, 0).active_words(), 1);
        assert_eq!(FlitData::with_active_words(4, 2).active_words(), 2);
        assert_eq!(FlitData::with_active_words(4, 9).active_words(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn empty_payload_panics() {
        let _ = FlitData::new(vec![]);
    }

    #[test]
    fn flit_kind_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(FlitKind::HeadTail.is_head());
        assert!(FlitKind::HeadTail.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(!FlitKind::Body.is_head());
        assert!(!FlitKind::Body.is_tail());
    }
}
