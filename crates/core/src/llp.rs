//! The Line Location Predictor (paper Section V).
//!
//! The Co-Located LLT removes the table-lookup latency for stacked-resident
//! lines, but off-chip accesses still serialize behind the verifying
//! stacked probe. The LLP predicts the *physical slot* of a line — a 4-ary
//! choice in the paper's configuration, unlike the binary hit/miss
//! predictors of DRAM caches — so a predicted-off-chip access can be
//! launched in parallel.
//!
//! The predictor is a per-core table of 2-bit **Line Location Registers**
//! (LLRs) indexed by the missing instruction's address, implementing
//! *last-time prediction*: each LLR remembers the slot the LLT reported the
//! last time that instruction missed. 256 entries × 2 bits = 64 bytes per
//! core; the paper's 8 tables cost 512 bytes total.

use cameo_types::CoreId;

use crate::llt::Slot;

/// Outcome taxonomy of one prediction (paper Section V-D / Table III).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PredictionCase {
    /// Case 1: line is stacked-resident, predicted stacked. Correct.
    StackedPredictedStacked,
    /// Case 2: line is stacked-resident, predicted off-chip. Wastes
    /// off-chip bandwidth (the parallel fetch is discarded).
    StackedPredictedOffChip,
    /// Case 3: line is off-chip, predicted stacked. Pays the full
    /// serialization latency.
    OffChipPredictedStacked,
    /// Case 4: line is off-chip, predicted off-chip at the correct
    /// location. Correct — latency of the LLT lookup is hidden.
    OffChipPredictedCorrect,
    /// Case 5: line is off-chip, predicted off-chip at the wrong location.
    /// Wastes bandwidth *and* pays the serialization latency.
    OffChipPredictedWrong,
}

impl PredictionCase {
    /// Classifies a prediction against the LLT's verdict.
    pub fn classify(predicted: Slot, actual: Slot) -> Self {
        match (actual.is_stacked(), predicted.is_stacked()) {
            (true, true) => PredictionCase::StackedPredictedStacked,
            (true, false) => PredictionCase::StackedPredictedOffChip,
            (false, true) => PredictionCase::OffChipPredictedStacked,
            (false, false) if predicted == actual => PredictionCase::OffChipPredictedCorrect,
            (false, false) => PredictionCase::OffChipPredictedWrong,
        }
    }

    /// Whether the prediction was accurate (cases 1 and 4).
    #[inline]
    pub fn is_accurate(self) -> bool {
        matches!(
            self,
            PredictionCase::StackedPredictedStacked | PredictionCase::OffChipPredictedCorrect
        )
    }

    /// Whether the parallel off-chip fetch was wasted (cases 2 and 5).
    #[inline]
    pub fn wastes_bandwidth(self) -> bool {
        matches!(
            self,
            PredictionCase::StackedPredictedOffChip | PredictionCase::OffChipPredictedWrong
        )
    }

    /// Whether the access pays serialization latency (cases 3 and 5).
    #[inline]
    pub fn pays_latency(self) -> bool {
        matches!(
            self,
            PredictionCase::OffChipPredictedStacked | PredictionCase::OffChipPredictedWrong
        )
    }
}

/// Counters for the five prediction cases — the rows of the paper's
/// Table III.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PredictionCaseCounts {
    counts: [u64; 5],
}

impl PredictionCaseCounts {
    fn index(case: PredictionCase) -> usize {
        match case {
            PredictionCase::StackedPredictedStacked => 0,
            PredictionCase::StackedPredictedOffChip => 1,
            PredictionCase::OffChipPredictedStacked => 2,
            PredictionCase::OffChipPredictedCorrect => 3,
            PredictionCase::OffChipPredictedWrong => 4,
        }
    }

    /// Records one classified prediction.
    pub fn record(&mut self, case: PredictionCase) {
        self.counts[Self::index(case)] += 1;
    }

    /// Count for one case.
    pub fn count(&self, case: PredictionCase) -> u64 {
        self.counts[Self::index(case)]
    }

    /// Total predictions recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of one case among all predictions, or `None` before any.
    pub fn fraction(&self, case: PredictionCase) -> Option<f64> {
        let total = self.total();
        (total > 0).then(|| self.count(case) as f64 / total as f64)
    }

    /// Overall accuracy (cases 1 + 4), or `None` before any prediction.
    pub fn accuracy(&self) -> Option<f64> {
        let total = self.total();
        (total > 0).then(|| (self.counts[0] + self.counts[3]) as f64 / total as f64)
    }

    /// The raw per-case counters, in [`PredictionCase`] declaration order —
    /// for serialization (e.g. sweep checkpoints).
    pub fn to_array(&self) -> [u64; 5] {
        self.counts
    }

    /// Rebuilds counters from [`PredictionCaseCounts::to_array`] output.
    pub fn from_array(counts: [u64; 5]) -> Self {
        Self { counts }
    }

    /// Merges another set of counters into this one.
    pub fn merge(&mut self, other: &PredictionCaseCounts) {
        for (a, b) in self.counts.iter_mut().zip(other.counts) {
            *a += b;
        }
    }
}

/// Per-core, PC-indexed tables of Line Location Registers implementing
/// last-time location prediction.
///
/// # Examples
///
/// ```
/// use cameo::llp::LineLocationPredictor;
/// use cameo::llt::Slot;
/// use cameo_types::CoreId;
///
/// let mut llp = LineLocationPredictor::new(8, 256);
/// let (core, pc) = (CoreId(0), 0x400100);
/// assert_eq!(llp.predict(core, pc), Slot::STACKED); // cold: assume stacked
/// llp.train(core, pc, Slot::new(3));
/// assert_eq!(llp.predict(core, pc), Slot::new(3)); // last-time repeats
/// ```
#[derive(Clone, Debug)]
pub struct LineLocationPredictor {
    entries_per_core: usize,
    /// Total LLRs across all core tables (`cores * entries_per_core`);
    /// kept explicitly because `packed` rounds up to whole bytes.
    llr_count: usize,
    /// Bits per LLR: 2 when every slot the tables can ever observe fits
    /// two bits (the paper's ratio-4 configuration — host storage then
    /// matches the hardware's 2-bit LLRs exactly), 4 for the simulator's
    /// wider ratios.
    bits_per_llr: u8,
    /// `log2` of the LLRs per byte (`8 / bits_per_llr`), so locating an
    /// LLR is a shift and a mask.
    per_byte_shift: u8,
    /// Last-observed slot per (core, pc-hash), bit-packed `8 /
    /// bits_per_llr` LLRs per byte: LLR `i` lives at bit offset
    /// `(i % per_byte) * bits` of byte `i / per_byte`.
    packed: Vec<u8>,
}

impl LineLocationPredictor {
    /// Creates per-core LLR tables with nibble-wide registers (any
    /// supported ratio). Prefer [`LineLocationPredictor::for_ratio`] when
    /// the group ratio is known — at ratio ≤ 4 it halves the tables.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or `entries_per_core` is not a power of
    /// two.
    pub fn new(cores: u16, entries_per_core: usize) -> Self {
        Self::with_bits(cores, entries_per_core, 4)
    }

    /// Creates per-core LLR tables sized for a congruence ratio: slots are
    /// `0..ratio`, so ratio ≤ 4 packs LLRs at the paper's true 2 bits.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or `entries_per_core` is not a power of
    /// two.
    pub fn for_ratio(cores: u16, entries_per_core: usize, ratio: u8) -> Self {
        Self::with_bits(cores, entries_per_core, if ratio <= 4 { 2 } else { 4 })
    }

    fn with_bits(cores: u16, entries_per_core: usize, bits_per_llr: u8) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(
            entries_per_core.is_power_of_two(),
            "table size must be a power of two"
        );
        let llr_count = usize::from(cores) * entries_per_core;
        let per_byte = usize::from(8 / bits_per_llr);
        Self {
            entries_per_core,
            llr_count,
            bits_per_llr,
            per_byte_shift: per_byte.trailing_zeros() as u8,
            // Slot 0 (stacked) is the cold-start prediction: serial access
            // is the safe default.
            packed: vec![0; llr_count.div_ceil(per_byte)],
        }
    }

    fn index(&self, core: CoreId, pc: u64) -> usize {
        let slot = (pc >> 2) as usize & (self.entries_per_core - 1);
        usize::from(core.0) * self.entries_per_core + slot
    }

    /// Predicts the slot for a request from `core` at instruction `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `core` exceeds the configured core count.
    pub fn predict(&self, core: CoreId, pc: u64) -> Slot {
        let (byte, shift) = self.position(self.index(core, pc));
        let mask = (1u8 << self.bits_per_llr) - 1;
        Slot::new((self.packed[byte] >> shift) & mask)
    }

    /// Byte and bit offset of LLR `idx` in `packed`.
    #[inline]
    fn position(&self, idx: usize) -> (usize, u8) {
        let in_byte = idx & ((1 << self.per_byte_shift) - 1);
        (
            idx >> self.per_byte_shift,
            in_byte as u8 * self.bits_per_llr,
        )
    }

    /// Trains the LLR with the slot the LLT actually reported.
    ///
    /// # Panics
    ///
    /// Panics if `core` exceeds the configured core count, or if the slot
    /// does not fit the register encoding (a slot ≥ 4 in a table built by
    /// [`LineLocationPredictor::for_ratio`] for ratio ≤ 4, or ≥ 16 in a
    /// nibble table — beyond any configuration the simulator accepts).
    pub fn train(&mut self, core: CoreId, pc: u64, actual: Slot) {
        let raw = actual.raw();
        let mask = (1u8 << self.bits_per_llr) - 1;
        assert!(
            raw <= mask,
            "slot {raw} does not fit a {}-bit packed LLR",
            self.bits_per_llr
        );
        let (byte, shift) = self.position(self.index(core, pc));
        let byte = &mut self.packed[byte];
        *byte = (*byte & !(mask << shift)) | (raw << shift);
    }

    /// Hardware storage in bytes (2 bits per LLR), the paper's "512 bytes
    /// total" claim for 8 cores × 256 entries.
    pub fn storage_bytes(&self) -> usize {
        self.llr_count * 2 / 8
    }

    /// Bits of host storage per LLR (2 at the paper's ratio, 4 otherwise).
    pub fn llr_bits(&self) -> u8 {
        self.bits_per_llr
    }

    /// Entries per core table.
    pub fn entries_per_core(&self) -> usize {
        self.entries_per_core
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matrix() {
        let s = Slot::STACKED;
        let a = Slot::new(1);
        let b = Slot::new(2);
        use PredictionCase::*;
        assert_eq!(PredictionCase::classify(s, s), StackedPredictedStacked);
        assert_eq!(PredictionCase::classify(a, s), StackedPredictedOffChip);
        assert_eq!(PredictionCase::classify(s, a), OffChipPredictedStacked);
        assert_eq!(PredictionCase::classify(a, a), OffChipPredictedCorrect);
        assert_eq!(PredictionCase::classify(b, a), OffChipPredictedWrong);
    }

    #[test]
    fn case_consequences() {
        use PredictionCase::*;
        assert!(StackedPredictedStacked.is_accurate());
        assert!(OffChipPredictedCorrect.is_accurate());
        assert!(StackedPredictedOffChip.wastes_bandwidth());
        assert!(OffChipPredictedWrong.wastes_bandwidth());
        assert!(OffChipPredictedStacked.pays_latency());
        assert!(OffChipPredictedWrong.pays_latency());
        assert!(!StackedPredictedStacked.pays_latency());
        assert!(!OffChipPredictedCorrect.wastes_bandwidth());
    }

    #[test]
    fn counts_and_accuracy() {
        let mut c = PredictionCaseCounts::default();
        assert_eq!(c.accuracy(), None);
        c.record(PredictionCase::StackedPredictedStacked);
        c.record(PredictionCase::StackedPredictedStacked);
        c.record(PredictionCase::OffChipPredictedCorrect);
        c.record(PredictionCase::OffChipPredictedWrong);
        assert_eq!(c.total(), 4);
        assert_eq!(c.accuracy(), Some(0.75));
        assert_eq!(
            c.fraction(PredictionCase::OffChipPredictedWrong),
            Some(0.25)
        );
        let mut d = PredictionCaseCounts::default();
        d.merge(&c);
        assert_eq!(d.total(), 4);
    }

    #[test]
    fn last_time_prediction() {
        let mut llp = LineLocationPredictor::new(2, 64);
        let core = CoreId(1);
        llp.train(core, 0x100, Slot::new(2));
        assert_eq!(llp.predict(core, 0x100), Slot::new(2));
        llp.train(core, 0x100, Slot::new(0));
        assert_eq!(llp.predict(core, 0x100), Slot::STACKED);
    }

    #[test]
    fn tables_are_per_core() {
        let mut llp = LineLocationPredictor::new(2, 64);
        llp.train(CoreId(0), 0x100, Slot::new(3));
        assert_eq!(llp.predict(CoreId(0), 0x100), Slot::new(3));
        assert_eq!(llp.predict(CoreId(1), 0x100), Slot::STACKED);
    }

    #[test]
    fn pcs_alias_by_table_size() {
        let mut llp = LineLocationPredictor::new(1, 4);
        // pc >> 2 masked by 3: 0x10 and 0x20 share index 0 and 0? 0x10>>2=4
        // &3=0; 0x20>>2=8&3=0 — aliases.
        llp.train(CoreId(0), 0x10, Slot::new(1));
        assert_eq!(llp.predict(CoreId(0), 0x20), Slot::new(1));
    }

    #[test]
    fn paper_storage_claim() {
        let llp = LineLocationPredictor::new(8, 256);
        assert_eq!(llp.storage_bytes(), 512);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_rejected() {
        LineLocationPredictor::new(1, 100);
    }

    #[test]
    fn ratio_sized_tables_pick_register_width() {
        assert_eq!(LineLocationPredictor::for_ratio(8, 256, 2).llr_bits(), 2);
        assert_eq!(LineLocationPredictor::for_ratio(8, 256, 4).llr_bits(), 2);
        assert_eq!(LineLocationPredictor::for_ratio(8, 256, 5).llr_bits(), 4);
        assert_eq!(LineLocationPredictor::new(8, 256).llr_bits(), 4);
        // The paper-model gauge is width-independent: 2 bits per LLR.
        assert_eq!(LineLocationPredictor::for_ratio(8, 256, 4).storage_bytes(), 512);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn two_bit_table_rejects_wide_slots() {
        let mut llp = LineLocationPredictor::for_ratio(1, 64, 4);
        llp.train(CoreId(0), 0x100, Slot::new(4));
    }

    proptest::proptest! {
        /// A 2-bit table trained only with ratio-4 slots is
        /// observation-equivalent to the nibble table over arbitrary
        /// train/predict interleavings.
        #[test]
        fn two_bit_packing_matches_nibbles(
            ops in proptest::collection::vec((0u16..3, 0u64..4096, 0u8..4), 0..300),
        ) {
            let mut narrow = LineLocationPredictor::for_ratio(3, 64, 4);
            let mut wide = LineLocationPredictor::new(3, 64);
            for (core, pc, slot) in ops {
                let core = CoreId(core);
                narrow.train(core, pc, Slot::new(slot));
                wide.train(core, pc, Slot::new(slot));
                proptest::prop_assert_eq!(narrow.predict(core, pc), wide.predict(core, pc));
                proptest::prop_assert_eq!(narrow.predict(core, pc ^ 0x40), wide.predict(core, pc ^ 0x40));
            }
        }
    }
}
