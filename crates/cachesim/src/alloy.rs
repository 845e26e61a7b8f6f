//! The Alloy Cache (Qureshi & Loh, MICRO 2012): the paper's hardware
//! DRAM-cache baseline.
//!
//! Alloy organizes stacked DRAM as a *direct-mapped*, line-granularity cache
//! whose tag is co-located with its data line as a TAD (tag-and-data) unit,
//! streamed out in a single burst. A *memory access predictor* (MAP-I:
//! instruction-address indexed) guesses whether a request will hit; on a
//! predicted miss the off-chip access is launched in parallel with the TAD
//! probe instead of serializing behind it.
//!
//! This module holds the cache *state* — the [`AlloyDirectory`] tag array
//! and the [`HitPredictor`] — while the organization layer in `cameo-sim`
//! charges DRAM timing for TAD reads, fills and writebacks.

use cameo_types::{CoreId, Cycle, Divisor, LineAddr, TraceEvent, TraceSink};

use crate::Eviction;

/// Bytes streamed per TAD access: 64 B data + 8 B tag, padded to the
/// burst-of-five (80 B) transfer the paper uses for co-located metadata.
pub const TAD_BYTES: u32 = 80;

/// Direct-mapped tag directory of an Alloy cache.
///
/// One entry ("set") per stacked-DRAM data line. Mapping is
/// `set = line % sets`, `tag = line / sets`, mirroring the congruence-group
/// mapping CAMEO itself uses, which makes Alloy-vs-CAMEO comparisons
/// apples-to-apples.
///
/// # Examples
///
/// ```
/// use cameo_cachesim::alloy::AlloyDirectory;
/// use cameo_types::LineAddr;
///
/// let mut dir = AlloyDirectory::new(1024);
/// let line = LineAddr::new(5000);
/// assert!(!dir.probe(line)); // cold
/// dir.fill(line, false);
/// assert!(dir.probe(line));
/// ```
#[derive(Clone, Debug)]
pub struct AlloyDirectory {
    /// The set count, prepared for division: every probe and fill splits
    /// a line into (set, tag), a shift and a mask at a power-of-two count.
    sets: Divisor,
    entries: Vec<Option<Tad>>,
}

#[derive(Clone, Copy, Debug)]
struct Tad {
    tag: u64,
    dirty: bool,
}

impl AlloyDirectory {
    /// Creates an empty directory with `sets` entries (one per stacked data
    /// line).
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero.
    pub fn new(sets: u64) -> Self {
        assert!(sets > 0, "alloy cache must have at least one set");
        Self {
            sets: Divisor::new(sets),
            entries: vec![None; sets as usize],
        }
    }

    /// Number of sets (stacked data lines).
    #[inline]
    pub fn sets(&self) -> u64 {
        self.sets.get()
    }

    /// Set index a line maps to — the stacked-DRAM location of its TAD.
    #[inline]
    pub fn set_of(&self, line: LineAddr) -> u64 {
        line.raw() % self.sets
    }

    /// Returns whether `line` is currently resident (does not modify state).
    pub fn probe(&self, line: LineAddr) -> bool {
        let set = self.set_of(line);
        let tag = line.raw() / self.sets;
        self.entries[set as usize].is_some_and(|t| t.tag == tag)
    }

    /// Marks a resident line dirty; returns `false` if the line is absent.
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        let set = self.set_of(line);
        let tag = line.raw() / self.sets;
        match &mut self.entries[set as usize] {
            Some(t) if t.tag == tag => {
                t.dirty = true;
                true
            }
            _ => false,
        }
    }

    /// Installs `line`, returning the displaced victim (direct-mapped, so at
    /// most one) for writeback handling.
    pub fn fill(&mut self, line: LineAddr, dirty: bool) -> Option<Eviction> {
        let set = self.set_of(line);
        let tag = line.raw() / self.sets;
        let victim = self.entries[set as usize].map(|t| Eviction {
            line: LineAddr::new(t.tag * self.sets() + set),
            dirty: t.dirty,
        });
        self.entries[set as usize] = Some(Tad { tag, dirty });
        // Re-filling the same line is not an eviction.
        victim.filter(|v| v.line != line)
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// Drops `line` from the cache if resident (e.g. because its physical
    /// frame was recycled by the OS), returning whether it was dirty. No
    /// writeback is implied — callers decide what the dirtiness means.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let set = self.set_of(line) as usize;
        let tag = line.raw() / self.sets;
        match self.entries[set] {
            Some(t) if t.tag == tag => {
                self.entries[set] = None;
                Some(t.dirty)
            }
            _ => None,
        }
    }
}

/// Route chosen by the hit predictor for an incoming request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PredictedRoute {
    /// Probe the DRAM cache first (serial).
    Cache,
    /// Launch the off-chip access in parallel with the probe.
    Memory,
}

/// MAP-I style hit predictor: per-core tables of 3-bit saturating counters
/// indexed by a hash of the missing instruction's PC.
///
/// Counter value at or above the midpoint predicts a cache *hit* (route
/// [`PredictedRoute::Cache`]); below it predicts a miss and the memory is
/// accessed in parallel.
///
/// # Examples
///
/// ```
/// use cameo_cachesim::alloy::{HitPredictor, PredictedRoute};
/// use cameo_types::CoreId;
///
/// let mut p = HitPredictor::new(4, 256);
/// let core = CoreId(0);
/// for _ in 0..4 {
///     p.train(core, 0x400100, false); // repeated misses
/// }
/// assert_eq!(p.predict(core, 0x400100), PredictedRoute::Memory);
/// ```
#[derive(Clone, Debug)]
pub struct HitPredictor {
    entries_per_core: usize,
    /// 3-bit saturating counters, one table per core, flattened.
    counters: Vec<u8>,
}

const COUNTER_MAX: u8 = 7;
const COUNTER_INIT: u8 = 4; // weakly predict hit: serial probe is the safe default

impl HitPredictor {
    /// Creates per-core predictor tables.
    ///
    /// # Panics
    ///
    /// Panics if `cores` or `entries_per_core` is zero, or if
    /// `entries_per_core` is not a power of two (the index is a mask).
    pub fn new(cores: u16, entries_per_core: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(
            entries_per_core.is_power_of_two(),
            "table size must be a power of two"
        );
        Self {
            entries_per_core,
            counters: vec![COUNTER_INIT; usize::from(cores) * entries_per_core],
        }
    }

    fn index(&self, core: CoreId, pc: u64) -> usize {
        let slot = (pc >> 2) as usize & (self.entries_per_core - 1);
        usize::from(core.0) * self.entries_per_core + slot
    }

    /// Predicts the route for a request from `core` at instruction `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is outside the configured core count.
    pub fn predict(&self, core: CoreId, pc: u64) -> PredictedRoute {
        if self.counters[self.index(core, pc)] >= 4 {
            PredictedRoute::Cache
        } else {
            PredictedRoute::Memory
        }
    }

    /// Trains the predictor with the observed outcome.
    ///
    /// # Panics
    ///
    /// Panics if `core` is outside the configured core count.
    pub fn train(&mut self, core: CoreId, pc: u64, was_hit: bool) {
        let idx = self.index(core, pc);
        let c = &mut self.counters[idx];
        if was_hit {
            *c = (*c + 1).min(COUNTER_MAX);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Storage cost in bits (3 bits per counter), for overhead reporting.
    pub fn storage_bits(&self) -> usize {
        self.counters.len() * 3
    }

    /// Trains the predictor like [`HitPredictor::train`] and, with tracing
    /// armed, emits an [`TraceEvent::LlpPredict`] event recording whether
    /// the pre-training prediction routed this request correctly (a
    /// predicted-hit that hit, or a predicted-miss that missed).
    ///
    /// # Panics
    ///
    /// Panics if `core` is outside the configured core count.
    pub fn train_traced<S: TraceSink>(
        &mut self,
        core: CoreId,
        pc: u64,
        was_hit: bool,
        now: Cycle,
        sink: &mut S,
    ) {
        if S::ENABLED {
            let predicted_hit = self.predict(core, pc) == PredictedRoute::Cache;
            sink.emit(
                now,
                TraceEvent::LlpPredict {
                    correct: predicted_hit == was_hit,
                },
            );
        }
        self.train(core, pc, was_hit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_mapped_conflicts() {
        let mut dir = AlloyDirectory::new(8);
        let a = LineAddr::new(3);
        let b = LineAddr::new(11); // same set 3
        dir.fill(a, true);
        let evicted = dir.fill(b, false).expect("conflict eviction");
        assert_eq!(evicted.line, a);
        assert!(evicted.dirty);
        assert!(dir.probe(b));
        assert!(!dir.probe(a));
    }

    #[test]
    fn refill_same_line_is_not_eviction() {
        let mut dir = AlloyDirectory::new(8);
        let a = LineAddr::new(3);
        dir.fill(a, false);
        assert_eq!(dir.fill(a, true), None);
    }

    #[test]
    fn mark_dirty_only_when_resident() {
        let mut dir = AlloyDirectory::new(8);
        let a = LineAddr::new(5);
        assert!(!dir.mark_dirty(a));
        dir.fill(a, false);
        assert!(dir.mark_dirty(a));
        let evicted = dir.fill(LineAddr::new(13), false).expect("eviction");
        assert!(evicted.dirty);
    }

    #[test]
    fn occupancy() {
        let mut dir = AlloyDirectory::new(4);
        assert_eq!(dir.occupancy(), 0);
        dir.fill(LineAddr::new(0), false);
        dir.fill(LineAddr::new(1), false);
        dir.fill(LineAddr::new(4), false); // evicts line 0
        assert_eq!(dir.occupancy(), 2);
    }

    #[test]
    fn predictor_learns_miss_streams() {
        let mut p = HitPredictor::new(2, 64);
        let core = CoreId(1);
        assert_eq!(p.predict(core, 0x1000), PredictedRoute::Cache); // default
        for _ in 0..8 {
            p.train(core, 0x1000, false);
        }
        assert_eq!(p.predict(core, 0x1000), PredictedRoute::Memory);
        for _ in 0..8 {
            p.train(core, 0x1000, true);
        }
        assert_eq!(p.predict(core, 0x1000), PredictedRoute::Cache);
    }

    #[test]
    fn predictor_tables_are_per_core() {
        let mut p = HitPredictor::new(2, 64);
        for _ in 0..8 {
            p.train(CoreId(0), 0x1000, false);
        }
        assert_eq!(p.predict(CoreId(0), 0x1000), PredictedRoute::Memory);
        assert_eq!(p.predict(CoreId(1), 0x1000), PredictedRoute::Cache);
    }

    #[test]
    fn storage_overhead_is_small() {
        let p = HitPredictor::new(8, 256);
        // 8 cores x 256 entries x 3 bits = 768 bytes.
        assert_eq!(p.storage_bits(), 8 * 256 * 3);
        assert!(p.storage_bits() / 8 < 1024);
    }

    #[test]
    fn traced_training_scores_the_pre_training_route() {
        use cameo_types::{NopSink, VecSink};
        let mut p = HitPredictor::new(1, 64);
        let mut sink = VecSink::default();
        // Default weakly predicts hit: a hit outcome is correct, a miss is not.
        p.train_traced(CoreId(0), 0x2000, true, Cycle::new(5), &mut sink);
        for _ in 0..8 {
            p.train(CoreId(0), 0x2000, false);
        }
        p.train_traced(CoreId(0), 0x2000, false, Cycle::new(9), &mut sink);
        assert_eq!(
            sink.events,
            vec![
                (Cycle::new(5), TraceEvent::LlpPredict { correct: true }),
                (Cycle::new(9), TraceEvent::LlpPredict { correct: true }),
            ]
        );
        // The no-op sink path trains identically.
        let mut q = HitPredictor::new(1, 64);
        q.train_traced(CoreId(0), 0x2000, true, Cycle::new(5), &mut NopSink);
        assert_eq!(q.predict(CoreId(0), 0x2000), PredictedRoute::Cache);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_table_rejected() {
        HitPredictor::new(1, 100);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn empty_directory_rejected() {
        AlloyDirectory::new(0);
    }
}
