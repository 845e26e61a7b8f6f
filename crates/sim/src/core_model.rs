//! The analytic core timing model: fixed base IPC plus memory stalls under
//! bounded memory-level parallelism.

use std::collections::VecDeque;

use cameo_types::Cycle;

/// Timeline of one core.
///
/// The core retires instructions at `ipc` until it issues a memory request;
/// up to `mlp` read requests may be outstanding concurrently (modeling the
/// out-of-order window), after which the core stalls until the oldest
/// completes. Writes are posted and never stall the core; page faults stall
/// it completely (the OS runs).
///
/// # Examples
///
/// ```
/// use cameo_sim::CoreTimeline;
/// use cameo_types::Cycle;
///
/// let mut core = CoreTimeline::new(1.0, 2);
/// core.advance(100);
/// let t = core.issue();
/// assert_eq!(t, Cycle::new(100));
/// core.complete_read(t + Cycle::new(50));
/// ```
#[derive(Clone, Debug)]
pub struct CoreTimeline {
    time: Cycle,
    ipc: f64,
    mlp: usize,
    outstanding: VecDeque<Cycle>,
    instructions: u64,
    stall_cycles: u64,
}

impl CoreTimeline {
    /// Creates a core at cycle zero.
    ///
    /// # Panics
    ///
    /// Panics if `ipc <= 0` or `mlp == 0`.
    pub fn new(ipc: f64, mlp: usize) -> Self {
        assert!(ipc > 0.0, "IPC must be positive");
        assert!(mlp > 0, "MLP must be positive");
        Self {
            time: Cycle::ZERO,
            ipc,
            mlp,
            outstanding: VecDeque::with_capacity(mlp),
            instructions: 0,
            stall_cycles: 0,
        }
    }

    /// Current core time.
    #[inline]
    pub fn time(&self) -> Cycle {
        self.time
    }

    /// Instructions retired so far.
    #[inline]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Cycles spent stalled waiting on memory.
    #[inline]
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Cycles `instructions` take at the base IPC: `⌈instructions / ipc⌉`.
    ///
    /// Equal to `(instructions as f64 / ipc).ceil() as u64` for every
    /// input, without the libm `ceil` call: the truncation `t` of the
    /// quotient `q` is exact below 2⁵³, where `t < q` exactly when `q`
    /// has a fraction; from 2⁵³ on every `f64` is an integer, so `t == q`
    /// up to 2⁶⁴, and above it both forms saturate at `u64::MAX`.
    #[inline]
    pub fn cycles_for(&self, instructions: u64) -> Cycle {
        let q = instructions as f64 / self.ipc;
        let t = q as u64;
        Cycle::new(t.saturating_add(u64::from((t as f64) < q)))
    }

    /// Retires `instructions` at the base IPC.
    pub fn advance(&mut self, instructions: u64) {
        self.retire(instructions, self.cycles_for(instructions));
    }

    /// Retires `instructions` that take `cycles`, as computed beforehand
    /// by [`CoreTimeline::cycles_for`].
    #[inline]
    pub fn retire(&mut self, instructions: u64, cycles: Cycle) {
        self.instructions += instructions;
        self.time += cycles;
    }

    /// Predicts when a request following `gap` more cycles of execution
    /// (see [`CoreTimeline::cycles_for`]) would issue,
    /// accounting for an MLP-window stall — without changing any state.
    /// The runner uses this as its global event-ordering key so that
    /// device accesses are generated in nondecreasing time order.
    #[inline]
    pub fn projected_issue(&self, gap: Cycle) -> Cycle {
        let t = self.time + gap;
        match self.outstanding.front() {
            Some(&oldest) if self.outstanding.len() >= self.mlp => t.later(oldest),
            _ => t,
        }
    }

    /// Returns the cycle at which the next memory request can issue,
    /// stalling the core first if the MLP window is full.
    pub fn issue(&mut self) -> Cycle {
        if self.outstanding.len() >= self.mlp {
            if let Some(oldest) = self.outstanding.pop_front() {
                if oldest > self.time {
                    self.stall_cycles += (oldest - self.time).raw();
                    self.time = oldest;
                }
            }
        }
        self.time
    }

    /// Records an outstanding demand read completing at `completion`.
    pub fn complete_read(&mut self, completion: Cycle) {
        self.outstanding.push_back(completion);
    }

    /// Stalls the core completely until `until` (page-fault servicing).
    pub fn block_until(&mut self, until: Cycle) {
        if until > self.time {
            self.stall_cycles += (until - self.time).raw();
            self.time = until;
        }
        // The OS ran; all overlapped requests have long completed.
        self.outstanding.clear();
    }

    /// Drains outstanding requests, returning the cycle the core finally
    /// goes idle. Call at end of simulation.
    pub fn drain(&mut self) -> Cycle {
        while let Some(c) = self.outstanding.pop_front() {
            if c > self.time {
                self.time = c;
            }
        }
        self.time
    }

    /// Resets time and counters (used when the measurement region starts
    /// after warmup): the core restarts at cycle zero with an empty window.
    pub fn reset(&mut self) {
        self.time = Cycle::ZERO;
        self.outstanding.clear();
        self.instructions = 0;
        self.stall_cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_by_ipc() {
        let mut c = CoreTimeline::new(2.0, 4);
        c.advance(100);
        assert_eq!(c.time(), Cycle::new(50));
        assert_eq!(c.instructions(), 100);
    }

    #[test]
    fn mlp_window_stalls_when_full() {
        let mut c = CoreTimeline::new(1.0, 2);
        let t0 = c.issue();
        c.complete_read(t0 + Cycle::new(100));
        let t1 = c.issue();
        c.complete_read(t1 + Cycle::new(100));
        // Third issue must wait for the first completion.
        let t2 = c.issue();
        assert_eq!(t2, Cycle::new(100));
        assert_eq!(c.stall_cycles(), 100);
    }

    #[test]
    fn no_stall_when_window_free() {
        let mut c = CoreTimeline::new(1.0, 4);
        c.advance(10);
        let t = c.issue();
        assert_eq!(t, Cycle::new(10));
        assert_eq!(c.stall_cycles(), 0);
    }

    #[test]
    fn block_until_clears_window() {
        let mut c = CoreTimeline::new(1.0, 2);
        c.complete_read(Cycle::new(1_000_000));
        c.block_until(Cycle::new(100_000));
        assert_eq!(c.time(), Cycle::new(100_000));
        // Window cleared: next issue does not wait on the old read.
        assert_eq!(c.issue(), Cycle::new(100_000));
    }

    #[test]
    fn drain_waits_for_laggards() {
        let mut c = CoreTimeline::new(1.0, 4);
        c.complete_read(Cycle::new(500));
        c.complete_read(Cycle::new(300));
        assert_eq!(c.drain(), Cycle::new(500));
    }

    #[test]
    fn projected_issue_matches_actual_issue() {
        let mut c = CoreTimeline::new(2.0, 2);
        // Window empty: projection is time + gap/ipc.
        assert_eq!(c.projected_issue(c.cycles_for(100)), Cycle::new(50));
        // Fill the window with slow completions.
        let t0 = c.issue();
        c.complete_read(t0 + Cycle::new(1000));
        let t1 = c.issue();
        c.complete_read(t1 + Cycle::new(2000));
        // Projection must account for the oldest outstanding read.
        let projected = c.projected_issue(c.cycles_for(10));
        c.advance(10);
        let actual = c.issue();
        assert_eq!(projected, actual);
        assert_eq!(actual, Cycle::new(1000));
    }

    #[test]
    fn projected_issue_is_pure() {
        let mut c = CoreTimeline::new(1.0, 4);
        c.advance(42);
        let before = c.time();
        let _ = c.projected_issue(c.cycles_for(7));
        let _ = c.projected_issue(c.cycles_for(7));
        assert_eq!(c.time(), before);
        assert_eq!(c.instructions(), 42);
    }

    #[test]
    fn cycles_for_matches_libm_ceil() {
        let ns = [
            0,
            1,
            2,
            3,
            7,
            99,
            100,
            1_000_001,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            (1 << 63) - 1,
            1 << 63,
            u64::MAX - 1,
            u64::MAX,
        ];
        for ipc in [0.7, 1.3, 1.5, 2.0, 3.0, 1e-3] {
            let c = CoreTimeline::new(ipc, 1);
            let mut x = 0x2545_F491_4F6C_DD1Du64;
            let randoms = (0..10_000).map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x >> (x % 64)
            });
            for n in ns.into_iter().chain(0..5_000).chain(randoms) {
                assert_eq!(
                    c.cycles_for(n).raw(),
                    (n as f64 / ipc).ceil() as u64,
                    "n = {n}, ipc = {ipc}"
                );
            }
        }
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut c = CoreTimeline::new(1.0, 2);
        c.advance(100);
        c.complete_read(Cycle::new(1000));
        c.reset();
        assert_eq!(c.time(), Cycle::ZERO);
        assert_eq!(c.instructions(), 0);
        assert_eq!(c.issue(), Cycle::ZERO);
    }
}
