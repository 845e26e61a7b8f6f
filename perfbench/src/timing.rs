//! Sampled spans at the two boundaries the runner crosses on every
//! access, recorded from outside the simulator by wrapping its traits:
//! [`TimedStream`] around `MissStream::next_event` and [`TimedOrg`]
//! around `MemoryOrganization::access`.
//!
//! An `Instant` pair around every call made the `cameo-mcf` run phase
//! about 60% longer, so only about one call in [`SAMPLE_PERIOD`] is
//! timed, at pseudo-random gaps so the sample cannot lock onto the
//! runner's round-robin over cores. Every call is counted.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use cameo::PredictionCaseCounts;
use cameo_sim::{BandwidthReport, MemoryOrganization, OrgResult};
use cameo_types::{Access, ByteSize, Cycle, PageAddr, SplitMix64};
use cameo_workloads::{MissEvent, MissStream};

/// Mean number of calls per timed call.
pub const SAMPLE_PERIOD: u64 = 64;

/// Call count and sampled host time of one boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Span {
    /// Every call made.
    pub calls: u64,
    /// Calls that were timed.
    pub sampled: u64,
    /// Host nanoseconds of the timed calls, timer cost included.
    pub sampled_ns: u64,
}

impl Span {
    /// Mean host nanoseconds per call, less `timer_ns` (the cost one
    /// `Instant` pair adds to a timed interval; see [`timer_ns`]).
    pub fn mean_ns(&self, timer_ns: f64) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        (self.sampled_ns as f64 / self.sampled as f64 - timer_ns).max(0.0)
    }

    /// Estimated host nanoseconds spent in all calls.
    pub fn total_ns(&self, timer_ns: f64) -> f64 {
        self.mean_ns(timer_ns) * self.calls as f64
    }

    /// Adds another span's counts into this one.
    pub fn merge(&mut self, other: &Span) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
    }
}

/// Decides which calls to time and accumulates their [`Span`].
#[derive(Clone, Debug)]
struct Sampler {
    span: Span,
    countdown: u64,
    rng: SplitMix64,
}

impl Sampler {
    fn new(seed: u64) -> Self {
        Self {
            span: Span::default(),
            countdown: 1,
            rng: SplitMix64::new(seed),
        }
    }

    /// Counts a call and says whether to time it. Gaps between timed
    /// calls are uniform in `1..2 * SAMPLE_PERIOD`.
    #[inline]
    fn due(&mut self) -> bool {
        self.span.calls += 1;
        self.countdown -= 1;
        if self.countdown > 0 {
            return false;
        }
        self.countdown = 1 + self.rng.below(2 * SAMPLE_PERIOD - 1);
        true
    }

    #[inline]
    fn record(&mut self, start: Instant) {
        self.span.sampled += 1;
        self.span.sampled_ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }

    /// Runs `call`, timing it if this call is sampled.
    #[inline]
    fn time<T>(&mut self, call: impl FnOnce() -> T) -> T {
        if self.due() {
            let start = Instant::now();
            let out = call();
            self.record(start);
            out
        } else {
            call()
        }
    }
}

/// The host nanoseconds one `Instant` pair adds to a timed interval: the
/// median of many back-to-back `Instant::now()` / `elapsed()` pairs.
pub fn timer_ns() -> f64 {
    let mut samples: Vec<u64> = (0..20_001)
        .map(|_| {
            let start = Instant::now();
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

/// A [`MemoryOrganization`] that forwards every trait method to the
/// organization it wraps, timing a sample of `access` calls. Forwarding
/// every method matters: a missed `prefill_batch`, `prediction_cases` or
/// `migrated_pages` would silently fall back to the trait default, and
/// the wrapper would run a different program.
pub struct TimedOrg {
    inner: Box<dyn MemoryOrganization>,
    access: Sampler,
}

impl TimedOrg {
    /// Wraps `inner`; `seed` only places the timing samples.
    pub fn new(inner: Box<dyn MemoryOrganization>, seed: u64) -> Self {
        Self {
            inner,
            access: Sampler::new(seed),
        }
    }

    /// The `access` span so far.
    pub fn access_span(&self) -> Span {
        self.access.span
    }
}

impl MemoryOrganization for TimedOrg {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    #[inline]
    fn access(&mut self, now: Cycle, access: &Access) -> OrgResult {
        let inner = &mut self.inner;
        self.access.time(|| inner.access(now, access))
    }

    fn visible_capacity(&self) -> ByteSize {
        self.inner.visible_capacity()
    }

    fn bandwidth(&self) -> BandwidthReport {
        self.inner.bandwidth()
    }

    fn faults(&self) -> u64 {
        self.inner.faults()
    }

    fn service_counts(&self) -> (u64, u64) {
        self.inner.service_counts()
    }

    fn prediction_cases(&self) -> Option<PredictionCaseCounts> {
        self.inner.prediction_cases()
    }

    fn migrated_pages(&self) -> u64 {
        self.inner.migrated_pages()
    }

    fn prefill(&mut self, page: PageAddr) {
        self.inner.prefill(page);
    }

    fn prefill_batch(&mut self, pages: &[PageAddr]) {
        self.inner.prefill_batch(pages);
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
}

/// A [`MissStream`] that forwards every trait method to the stream it
/// wraps, timing a sample of `next_event` calls. The runner owns its
/// streams and drops them with the session, so each stream adds its span
/// into a shared total when dropped.
pub struct TimedStream<S> {
    inner: S,
    next_event: Sampler,
    total: Arc<Mutex<Span>>,
}

impl<S> TimedStream<S> {
    /// Wraps `inner`, reporting into `total` on drop; `seed` only places
    /// the timing samples.
    pub fn new(inner: S, seed: u64, total: Arc<Mutex<Span>>) -> Self {
        Self {
            inner,
            next_event: Sampler::new(seed),
            total,
        }
    }
}

impl<S> Drop for TimedStream<S> {
    fn drop(&mut self) {
        // A poisoned total means another stream panicked mid-merge; the
        // point is already failing, so its span is not worth a second
        // panic inside drop.
        if let Ok(mut total) = self.total.lock() {
            total.merge(&self.next_event.span);
        }
    }
}

impl<S: MissStream> MissStream for TimedStream<S> {
    #[inline]
    fn next_event(&mut self) -> MissEvent {
        let inner = &mut self.inner;
        self.next_event.time(|| inner.next_event())
    }

    fn footprint_pages(&self) -> u64 {
        self.inner.footprint_pages()
    }

    fn prefill_pages(&self) -> Vec<PageAddr> {
        self.inner.prefill_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cameo_types::{AccessKind, CoreId, LineAddr, ServiceLocation};

    /// Answers every trait method with a value no trait default gives,
    /// and records which mutating methods were called.
    #[derive(Default)]
    struct Probe {
        log: Arc<Mutex<Vec<&'static str>>>,
    }

    impl Probe {
        fn note(&self, method: &'static str) {
            self.log.lock().expect("probe log").push(method);
        }
    }

    impl MemoryOrganization for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn access(&mut self, now: Cycle, _: &Access) -> OrgResult {
            self.note("access");
            OrgResult {
                completion: now + Cycle::new(7),
                serviced_by: ServiceLocation::OffChip,
                faulted: false,
            }
        }
        fn visible_capacity(&self) -> ByteSize {
            ByteSize::from_mib(3)
        }
        fn bandwidth(&self) -> BandwidthReport {
            BandwidthReport {
                stacked_bytes: 1,
                off_chip_bytes: 2,
                storage_bytes: 3,
            }
        }
        fn faults(&self) -> u64 {
            11
        }
        fn service_counts(&self) -> (u64, u64) {
            (5, 6)
        }
        fn prediction_cases(&self) -> Option<PredictionCaseCounts> {
            Some(PredictionCaseCounts::from_array([1, 2, 3, 4, 5]))
        }
        fn migrated_pages(&self) -> u64 {
            13
        }
        fn prefill(&mut self, _: PageAddr) {
            self.note("prefill");
        }
        fn prefill_batch(&mut self, _: &[PageAddr]) {
            self.note("prefill_batch");
        }
        fn reset_stats(&mut self) {
            self.note("reset_stats");
        }
    }

    #[test]
    fn timed_org_forwards_every_method() {
        let probe = Probe::default();
        let log = Arc::clone(&probe.log);
        let mut org = TimedOrg::new(Box::new(probe), 1);
        let access = Access {
            core: CoreId(0),
            line: LineAddr::new(9),
            pc: 4,
            kind: AccessKind::Read,
        };
        assert_eq!(org.name(), "probe");
        assert_eq!(org.access(Cycle::new(1), &access).completion, Cycle::new(8));
        assert_eq!(org.visible_capacity(), ByteSize::from_mib(3));
        assert_eq!(org.bandwidth().storage_bytes, 3);
        assert_eq!(org.faults(), 11);
        assert_eq!(org.service_counts(), (5, 6));
        assert_eq!(
            org.prediction_cases(),
            Some(PredictionCaseCounts::from_array([1, 2, 3, 4, 5]))
        );
        assert_eq!(org.migrated_pages(), 13);
        org.prefill(PageAddr::new(1));
        org.prefill_batch(&[PageAddr::new(2)]);
        org.reset_stats();
        assert_eq!(
            *log.lock().expect("probe log"),
            ["access", "prefill", "prefill_batch", "reset_stats"]
        );
        assert_eq!(org.access_span().calls, 1);
    }

    struct Counter(u64);

    impl MissStream for Counter {
        fn next_event(&mut self) -> MissEvent {
            self.0 += 1;
            MissEvent {
                gap_instructions: self.0,
                line: LineAddr::new(self.0),
                pc: 0,
                is_write: false,
            }
        }
        fn footprint_pages(&self) -> u64 {
            17
        }
        fn prefill_pages(&self) -> Vec<PageAddr> {
            vec![PageAddr::new(99)]
        }
    }

    #[test]
    fn timed_stream_forwards_every_method_and_reports_on_drop() {
        let total = Arc::new(Mutex::new(Span::default()));
        let mut stream = TimedStream::new(Counter(0), 3, Arc::clone(&total));
        assert_eq!(stream.footprint_pages(), 17);
        assert_eq!(stream.prefill_pages(), vec![PageAddr::new(99)]);
        for expected in 1..=1000 {
            assert_eq!(stream.next_event().line, LineAddr::new(expected));
        }
        drop(stream);
        let span = *total.lock().expect("span total");
        assert_eq!(span.calls, 1000);
        // One timed call per SAMPLE_PERIOD calls on average.
        assert!((5..=40).contains(&span.sampled), "{span:?}");
    }
}
