//! The DRAM device model: per-bank row-buffer state and per-channel data-bus
//! occupancy.

use cameo_types::Cycle;

use crate::{DramConfig, DramStats, DramTimings, RowPolicy};

/// How an access interacted with its bank's row buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RowBufferOutcome {
    /// The addressed row was already open: pay tCAS only.
    Hit,
    /// The bank was precharged (no open row): pay tRCD + tCAS.
    ClosedMiss,
    /// Another row was open: pay tRP + tRCD + tCAS.
    Conflict,
}

#[derive(Clone, Copy, Debug, Default)]
struct Bank {
    open_row: Option<u64>,
    /// Earliest cycle the bank can start a new column/row command.
    ready_at: Cycle,
    /// Cycle the current row activation completes its tRAS window.
    active_until: Cycle,
}

/// One DRAM device (stacked or off-chip): accepts line-granularity accesses
/// and returns their completion time under bank and channel contention.
///
/// The scheduling model is intentionally simple and fast:
///
/// * each access is mapped to (channel, bank, row) by line-interleaving
///   across channels, with 32 consecutive lines sharing a row;
/// * an access starts when its bank is free, pays the row-buffer-dependent
///   command latency (9-9-9-36 from Table I), then queues for the channel
///   data bus for its burst duration;
/// * the bank stays busy until the data transfer completes, and a row
///   conflict additionally waits out the tRAS window before precharging.
///
/// This captures the two effects the paper depends on — bank-level
/// parallelism and data-bus saturation — without a full command-level DDR
/// scheduler.
///
/// # Examples
///
/// ```
/// use cameo_memsim::{Dram, DramConfig};
/// use cameo_types::{ByteSize, Cycle};
///
/// let mut dram = Dram::new(DramConfig::off_chip(ByteSize::from_mib(192)));
/// let first = dram.read_line(Cycle::ZERO, 0);
/// // Second read of the same row hits the open row buffer: cheaper.
/// let second = dram.read_line(first, 1) - first;
/// assert!(second < first - Cycle::ZERO);
/// ```
#[derive(Clone, Debug)]
pub struct Dram {
    config: DramConfig,
    banks: Vec<Bank>,
    /// Earliest free cycle of each channel's data bus.
    bus_free: Vec<Cycle>,
    /// Next scheduled refresh command (when refresh is enabled).
    next_refresh: Cycle,
    /// End of the current refresh blackout, if one is in progress.
    refresh_until: Cycle,
    stats: DramStats,
    /// [`Dram::map`]'s geometry as shifts and masks, fixed at
    /// construction.
    geometry: Geometry,
    /// Bus occupancy of one 64-byte line transfer.
    line_burst: Cycle,
    /// Bytes one 64-byte line transfer moves, rounded up to whole beats.
    line_bytes_moved: u64,
}

/// The (channel, bank, row) split of a device-local line number, as shifts
/// and masks: channels, banks per channel and lines per row are powers of
/// two on both Table I devices, and [`Geometry::new`] insists on it.
#[derive(Clone, Copy, Debug)]
struct Geometry {
    /// `log2(lines per row)`.
    row_shift: u32,
    /// `log2(channels)`.
    channel_bits: u32,
    /// `log2(banks per channel)`.
    bank_bits: u32,
}

impl Geometry {
    /// # Panics
    ///
    /// Panics, naming the field, if channels, banks per channel or lines
    /// per row is not a power of two.
    fn new(config: &DramConfig) -> Self {
        let log2 = |what: &str, n: u32| -> u32 {
            assert!(
                n.is_power_of_two(),
                "DRAM geometry: {what} must be a power of two, got {n}"
            );
            n.trailing_zeros()
        };
        Self {
            row_shift: log2("lines per row", config.lines_per_row()),
            channel_bits: log2("channels", config.channels),
            bank_bits: log2("banks per channel", config.banks_per_channel),
        }
    }
}

/// Bus occupancy and bytes moved (rounded up to whole beats) by a transfer
/// of `bytes` on `config`'s data bus.
fn transfer(config: &DramConfig, bytes: u32) -> (Cycle, u64) {
    (
        Cycle::new(config.burst_cpu_cycles(bytes)),
        u64::from(config.beats_for(bytes) * config.bytes_per_beat),
    )
}

impl Dram {
    /// Creates a device with all banks precharged and buses idle.
    ///
    /// # Panics
    ///
    /// Panics if channels, banks per channel or lines per row is not a
    /// power of two, or if the refresh parameters are inconsistent.
    pub fn new(config: DramConfig) -> Self {
        if let Some(refresh) = &config.refresh {
            refresh.validate();
        }
        let geometry = Geometry::new(&config);
        let (line_burst, line_bytes_moved) = transfer(&config, cameo_types::LINE_BYTES as u32);
        let banks = vec![Bank::default(); config.total_banks() as usize];
        let bus_free = vec![Cycle::ZERO; config.channels as usize];
        Self {
            next_refresh: Cycle::new(config.refresh.map_or(u64::MAX, |r| r.t_refi_cpu)),
            refresh_until: Cycle::ZERO,
            config,
            banks,
            bus_free,
            stats: DramStats::default(),
            geometry,
            line_burst,
            line_bytes_moved,
        }
    }

    /// Advances the refresh schedule up to `now` and returns the earliest
    /// cycle an access arriving at `now` may start. All-bank refresh: the
    /// whole device is blocked for tRFC every tREFI.
    fn refresh_gate(&mut self, now: Cycle) -> Cycle {
        let Some(refresh) = self.config.refresh else {
            return now;
        };
        while now >= self.next_refresh {
            self.refresh_until = self.next_refresh + Cycle::new(refresh.t_rfc_cpu);
            self.next_refresh += Cycle::new(refresh.t_refi_cpu);
            self.stats.refreshes += 1;
            // A refresh closes every row.
            for bank in &mut self.banks {
                bank.open_row = None;
            }
        }
        now.later(self.refresh_until)
    }

    /// Returns the device configuration.
    #[inline]
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Returns the accumulated activity counters.
    #[inline]
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Resets activity counters (bank/bus state is kept).
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    /// Maps a device-local line number to (channel, bank-index, row).
    ///
    /// A whole 2 KiB row (32 consecutive lines) is contiguous within one
    /// bank — matching the co-located LLT's row layout — and successive rows
    /// interleave across channels, then banks, preserving both row-buffer
    /// locality and bank-level parallelism.
    fn map(&self, line: u64) -> (usize, usize, u64) {
        let g = self.geometry;
        let row_seq = line >> g.row_shift;
        let channel = row_seq & ((1 << g.channel_bits) - 1);
        let bank_in_channel = (row_seq >> g.channel_bits) & ((1 << g.bank_bits) - 1);
        let row = row_seq >> (g.channel_bits + g.bank_bits);
        let bank = (channel << g.bank_bits) | bank_in_channel;
        (channel as usize, bank as usize, row)
    }

    /// Command timings for `row`: the flat device's timings, or the row's
    /// segment under tiered latency. The conflict
    /// path charges the *accessed* row's segment for precharge too — a
    /// deliberate simplification (the victim row's identity does not
    /// change which bitline the new activation drives).
    fn segment_timings(&self, row: u64) -> DramTimings {
        match &self.config.tl_dram {
            None => self.config.timings,
            Some(tl) if row < tl.near_rows_per_bank => tl.near,
            Some(tl) => tl.far,
        }
    }

    /// Performs a demand read of one 64-byte line.
    ///
    /// Returns the cycle the critical word (entire line, in this model) is
    /// available.
    pub fn read_line(&mut self, now: Cycle, line: u64) -> Cycle {
        self.read(now, line, self.line_burst, self.line_bytes_moved)
    }

    /// Performs a write of one 64-byte line (fill, writeback or swap).
    ///
    /// Returns the cycle the write completes on the bus; callers normally
    /// treat writes as posted and ignore the return value except for
    /// occupancy.
    pub fn write_line(&mut self, now: Cycle, line: u64) -> Cycle {
        self.write_buffered(now, line, self.line_burst, self.line_bytes_moved)
    }

    /// Performs an access with an explicit transfer size (e.g. the 80-byte
    /// burst-of-five LEAD read of CAMEO's co-located LLT).
    ///
    /// Returns the completion cycle.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn access(&mut self, now: Cycle, line: u64, is_write: bool, bytes: u32) -> Cycle {
        assert!(bytes > 0, "access must transfer at least one byte");
        let (burst, moved) = transfer(&self.config, bytes);
        if is_write {
            self.write_buffered(now, line, burst, moved)
        } else {
            self.read(now, line, burst, moved)
        }
    }

    /// A demand read occupying the bus for `burst` and moving `moved`
    /// bytes.
    fn read(&mut self, now: Cycle, line: u64, burst: Cycle, moved: u64) -> Cycle {
        let now = self.refresh_gate(now);
        let (channel, bank_idx, row) = self.map(line);
        let t = self.segment_timings(row);
        let bank = &mut self.banks[bank_idx];

        let mut start = now.later(bank.ready_at);
        let outcome = match bank.open_row {
            Some(open) if open == row => RowBufferOutcome::Hit,
            Some(_) => RowBufferOutcome::Conflict,
            None => RowBufferOutcome::ClosedMiss,
        };
        let command_cycles = match outcome {
            RowBufferOutcome::Hit => t.cas_cpu(),
            RowBufferOutcome::ClosedMiss => t.rcd_cpu() + t.cas_cpu(),
            RowBufferOutcome::Conflict => {
                // Cannot precharge until the tRAS window of the currently
                // open row has elapsed.
                start = start.later(bank.active_until);
                t.rp_cpu() + t.rcd_cpu() + t.cas_cpu()
            }
        };
        let cas_done = start + Cycle::new(command_cycles);

        // Queue for the channel data bus.
        let data_start = cas_done.later(self.bus_free[channel]);
        let data_done = data_start + burst;
        self.bus_free[channel] = data_done;
        self.stats.bus_busy_cycles += burst.raw();

        // Bank is busy until its data transfer completes; a fresh activation
        // (re)starts the tRAS window.
        bank.ready_at = data_done;
        if !matches!(outcome, RowBufferOutcome::Hit) {
            bank.active_until = start + Cycle::new(t.ras_cpu());
        }
        bank.open_row = match self.config.row_policy {
            RowPolicy::OpenPage => Some(row),
            // Auto-precharge: the row closes with the access, so the next
            // access sees a closed bank (never a conflict, never a hit).
            RowPolicy::ClosedPage => None,
        };

        match outcome {
            RowBufferOutcome::Hit => self.stats.row_hits += 1,
            RowBufferOutcome::ClosedMiss => self.stats.row_closed += 1,
            RowBufferOutcome::Conflict => self.stats.row_conflicts += 1,
        }
        self.stats.demand_reads += 1;
        self.stats.bytes_read += moved;
        data_done
    }

    /// A speculative demand read that was proven useless by the time it
    /// reached the front of the bank queue (e.g. a mispredicted CAMEO
    /// location fetch verified against the LLT): the controller squashes
    /// the bank access, but the request still consumed scheduling slots and
    /// — pessimistically, matching the paper's Table IV accounting — its
    /// data-bus bandwidth. Returns the cycle its bus slot ends.
    pub fn read_squashed(&mut self, now: Cycle, line: u64) -> Cycle {
        let (channel, _bank, _row) = self.map(line);
        let data_start = now.later(self.bus_free[channel]);
        let data_done = data_start + self.line_burst;
        self.bus_free[channel] = data_done;
        self.stats.bus_busy_cycles += self.line_burst.raw();
        self.stats.demand_reads += 1;
        self.stats.bytes_read += self.line_bytes_moved;
        data_done
    }

    /// Writes are buffered by the controller and drained opportunistically:
    /// they consume data-bus bandwidth (the fundamental limit the paper's
    /// Table IV accounts) and are counted in the byte totals, but do not
    /// hold banks against later demand reads the way a read does. Without
    /// this, posted swap/fill/writeback traffic would serialize demand
    /// reads far beyond what a real write-queue-equipped controller shows.
    fn write_buffered(&mut self, now: Cycle, line: u64, burst: Cycle, moved: u64) -> Cycle {
        let (channel, _bank_idx, _row) = self.map(line);
        let data_start = now.later(self.bus_free[channel]);
        let data_done = data_start + burst;
        self.bus_free[channel] = data_done;
        self.stats.bus_busy_cycles += burst.raw();
        self.stats.writes += 1;
        self.stats.bytes_written += moved;
        data_done
    }

    /// Uncontended latency of an isolated row-buffer-miss read, in CPU
    /// cycles. Useful as the "1 unit" / "2 units" abstraction of the paper's
    /// Figure 8 latency analysis.
    pub fn isolated_read_latency(&self) -> Cycle {
        let t = &self.config.timings;
        Cycle::new(
            t.rcd_cpu()
                + t.cas_cpu()
                + self.config.burst_cpu_cycles(cameo_types::LINE_BYTES as u32),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cameo_types::ByteSize;

    fn stacked() -> Dram {
        Dram::new(DramConfig::stacked(ByteSize::from_mib(64)))
    }

    fn off_chip() -> Dram {
        Dram::new(DramConfig::off_chip(ByteSize::from_mib(192)))
    }

    #[test]
    fn first_access_is_closed_miss() {
        let mut d = stacked();
        let done = d.read_line(Cycle::ZERO, 0);
        // tRCD + tCAS = 18 + 18 = 36 CPU cycles, + 4-cycle burst.
        assert_eq!(done, Cycle::new(40));
        assert_eq!(d.stats().row_closed, 1);
    }

    #[test]
    fn row_hit_is_faster() {
        let mut d = stacked();
        let first = d.read_line(Cycle::ZERO, 0);
        let second = d.read_line(first, 1) - first;
        // tCAS + burst = 18 + 4 = 22.
        assert_eq!(second, Cycle::new(22));
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn conflict_pays_precharge_and_ras() {
        let mut d = stacked();
        let lines_per_row = u64::from(d.config().lines_per_row());
        let channels = u64::from(d.config().channels);
        let banks = u64::from(d.config().banks_per_channel);
        // Two lines on channel 0, same bank, different rows.
        let a = 0;
        let b = channels * lines_per_row * banks; // advances row, same bank 0
        let first = d.read_line(Cycle::ZERO, a);
        let second = d.read_line(first, b);
        assert_eq!(d.stats().row_conflicts, 1);
        // Must wait out tRAS (72 CPU cycles from activation at 0), then
        // tRP + tRCD + tCAS + burst = 18+18+18+4 = 58.
        assert_eq!(second, Cycle::new(72 + 58));
    }

    #[test]
    fn distinct_banks_overlap() {
        let mut d = stacked();
        // Same cycle, different channels (rows interleave across channels):
        // both complete at the isolated latency; no serialization.
        let lines_per_row = u64::from(d.config().lines_per_row());
        let a = d.read_line(Cycle::ZERO, 0);
        let b = d.read_line(Cycle::ZERO, lines_per_row);
        assert_eq!(a, b);
    }

    #[test]
    fn same_bank_serializes() {
        let mut d = stacked();
        let a = d.read_line(Cycle::ZERO, 0);
        let b = d.read_line(Cycle::ZERO, 0); // same line, row hit but bank busy
        assert!(b > a);
    }

    #[test]
    fn off_chip_roughly_double_latency() {
        let s = stacked().isolated_read_latency();
        let o = off_chip().isolated_read_latency();
        let ratio = o.raw() as f64 / s.raw() as f64;
        assert!(
            (1.8..=2.5).contains(&ratio),
            "latency ratio {ratio} outside the paper's ~2x"
        );
    }

    #[test]
    fn channel_bus_saturates() {
        // Many back-to-back row hits on one channel: completion times must
        // space out by at least the burst duration.
        let mut d = off_chip();
        let channels = u64::from(d.config().channels);
        let mut last = Cycle::ZERO;
        let mut dones = Vec::new();
        for i in 0..8 {
            // Different banks, same channel → bus is the bottleneck.
            let lines_per_row = u64::from(d.config().lines_per_row());
            let line = i * channels * lines_per_row;
            dones.push(d.read_line(Cycle::ZERO, line));
        }
        dones.sort();
        for w in dones.windows(2) {
            assert!(w[1] - w[0] >= Cycle::new(16), "bus not serialized: {w:?}");
            last = w[1];
        }
        assert!(last > Cycle::ZERO);
    }

    #[test]
    fn byte_accounting_rounds_to_beats() {
        let mut d = stacked();
        d.access(Cycle::ZERO, 0, false, 66);
        // 66 bytes on a 16-byte bus is a burst of five = 80 bytes moved.
        assert_eq!(d.stats().bytes_read, 80);
        d.access(Cycle::ZERO, 1, true, 64);
        assert_eq!(d.stats().bytes_written, 64);
    }

    #[test]
    fn reset_stats_keeps_state() {
        let mut d = stacked();
        d.read_line(Cycle::ZERO, 0);
        d.reset_stats();
        assert_eq!(d.stats().accesses(), 0);
        // Row is still open: next access to the same row is a hit.
        let t0 = Cycle::new(1000);
        let done = d.read_line(t0, 1);
        assert_eq!(done - t0, Cycle::new(22));
    }

    #[test]
    fn bus_busy_cycles_accumulate() {
        let mut d = stacked();
        d.read_line(Cycle::ZERO, 0); // 64 B = 4 CPU cycles on the bus
        d.write_line(Cycle::ZERO, 1); // same
        assert_eq!(d.stats().bus_busy_cycles, 8);
        let util = d.stats().bus_utilization(100, 16).unwrap();
        assert!((util - 8.0 / 1600.0).abs() < 1e-12);
        assert_eq!(d.stats().bus_utilization(0, 16), None);
    }

    #[test]
    fn closed_page_never_hits_or_conflicts() {
        let mut cfg = DramConfig::stacked(ByteSize::from_mib(64));
        cfg.row_policy = crate::RowPolicy::ClosedPage;
        let mut d = Dram::new(cfg);
        let mut now = Cycle::ZERO;
        for i in 0..100u64 {
            now = d.read_line(now, i % 40); // mix of same-row and cross-row
        }
        assert_eq!(d.stats().row_hits, 0);
        assert_eq!(d.stats().row_conflicts, 0);
        assert_eq!(d.stats().row_closed, 100);
    }

    #[test]
    fn closed_page_cost_is_uniform() {
        let mut cfg = DramConfig::stacked(ByteSize::from_mib(64));
        cfg.row_policy = crate::RowPolicy::ClosedPage;
        let mut d = Dram::new(cfg);
        let a = d.read_line(Cycle::ZERO, 0);
        let b = d.read_line(a, 1) - a; // same row under open-page
                                       // Both pay tRCD + tCAS + burst = 40.
        assert_eq!(a, Cycle::new(40));
        assert_eq!(b, Cycle::new(40));
    }

    #[test]
    fn refresh_blocks_the_window() {
        let mut cfg = DramConfig::off_chip(ByteSize::from_mib(64));
        cfg.refresh = Some(crate::RefreshParams {
            t_refi_cpu: 1000,
            t_rfc_cpu: 100,
        });
        let mut d = Dram::new(cfg);
        // Before the first tREFI: unaffected.
        let early = d.read_line(Cycle::new(10), 0);
        assert_eq!(early, Cycle::new(10 + 88));
        // Landing inside the blackout after tREFI: pushed past it.
        let blocked = d.read_line(Cycle::new(1001), 1);
        assert!(blocked >= Cycle::new(1100), "{blocked:?}");
        assert_eq!(d.stats().refreshes, 1);
        // A long idle gap schedules multiple refreshes.
        d.read_line(Cycle::new(5050), 2);
        assert!(d.stats().refreshes >= 5);
    }

    #[test]
    fn refresh_closes_rows() {
        let mut cfg = DramConfig::stacked(ByteSize::from_mib(64));
        cfg.refresh = Some(crate::RefreshParams {
            t_refi_cpu: 1000,
            t_rfc_cpu: 50,
        });
        let mut d = Dram::new(cfg);
        d.read_line(Cycle::ZERO, 0); // opens row
        let t = Cycle::new(1100); // after one refresh
        let done = d.read_line(t, 1); // same row, but refresh closed it
        assert_eq!(done - t, Cycle::new(40)); // closed-miss cost, not hit
    }

    #[test]
    fn refresh_disabled_by_default() {
        let mut d = stacked();
        d.read_line(Cycle::new(10_000_000), 0);
        assert_eq!(d.stats().refreshes, 0);
    }

    #[test]
    #[should_panic(expected = "tRFC must be smaller")]
    fn bad_refresh_rejected() {
        let mut cfg = DramConfig::stacked(ByteSize::from_mib(1));
        cfg.refresh = Some(crate::RefreshParams {
            t_refi_cpu: 10,
            t_rfc_cpu: 10,
        });
        Dram::new(cfg);
    }

    #[test]
    fn buffered_write_does_not_block_bank() {
        let mut d = stacked();
        // A write to line 0's bank...
        d.write_line(Cycle::ZERO, 0);
        // ...does not delay an immediately following read of the same bank
        // beyond its own command latency (the write drains opportunistically).
        let read_done = d.read_line(Cycle::ZERO, 1);
        // Closed-bank read: tRCD + tCAS + burst = 40, plus at most the
        // write's 4-cycle bus occupancy.
        assert!(read_done <= Cycle::new(44), "read done at {read_done:?}");
    }

    #[test]
    fn buffered_write_still_occupies_bus() {
        let mut d = stacked();
        let first = d.write_line(Cycle::ZERO, 0);
        let second = d.write_line(Cycle::ZERO, 32); // different bank, same...
                                                    // Row 0 and row 1 are on different channels, so both writes complete
                                                    // in one burst; a third write to row 0's channel queues.
        let third = d.write_line(Cycle::ZERO, 1);
        assert_eq!(first, Cycle::new(4));
        assert_eq!(second, Cycle::new(4));
        assert_eq!(third, first + Cycle::new(4));
    }

    #[test]
    fn squashed_read_counts_bytes_but_frees_bank() {
        let mut d = stacked();
        d.read_squashed(Cycle::ZERO, 0);
        assert_eq!(d.stats().bytes_read, 64);
        assert_eq!(d.stats().demand_reads, 1);
        // The bank was never activated: a real read still pays the
        // closed-bank latency but no conflict.
        let done = d.read_line(Cycle::ZERO, 0);
        assert!(done <= Cycle::new(44), "read done at {done:?}");
        assert_eq!(d.stats().row_conflicts, 0);
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn zero_byte_access_rejected() {
        stacked().access(Cycle::ZERO, 0, false, 0);
    }

    fn tiered(near_rows_per_bank: u64) -> Dram {
        let mut cfg = DramConfig::stacked(ByteSize::from_mib(64));
        cfg.tl_dram = Some(crate::TlDramParams::paper(
            cfg.timings.cpu_per_bus,
            near_rows_per_bank,
        ));
        Dram::new(cfg)
    }

    /// First line of the first far row on bank (channel 0, bank 0): with
    /// one near row per bank, advancing by channels × banks rows lands on
    /// the same bank's next row index.
    fn far_line(d: &Dram) -> u64 {
        u64::from(d.config().lines_per_row())
            * u64::from(d.config().channels)
            * u64::from(d.config().banks_per_channel)
    }

    #[test]
    fn near_segment_beats_far_segment() {
        let mut d = tiered(1);
        // Near closed miss: tRCD 5·2 + tCAS 9·2 = 28, + 4-cycle burst.
        assert_eq!(d.read_line(Cycle::ZERO, 0), Cycle::new(32));
        // Far closed miss on a *different, untouched* bank (row_seq
        // channels·banks + 1 → channel 1, row index 1):
        // tRCD 10·2 + tCAS 18 = 38, + 4.
        let far = far_line(&d) + u64::from(d.config().lines_per_row());
        let t0 = Cycle::new(1000);
        assert_eq!(d.read_line(t0, far) - t0, Cycle::new(42));
    }

    #[test]
    fn tiering_leaves_row_hits_at_cas() {
        let mut d = tiered(1);
        let first = d.read_line(Cycle::ZERO, 0);
        // Near and far share tCAS: a hit costs 18 + 4 in either segment.
        assert_eq!(d.read_line(first, 1) - first, Cycle::new(22));
    }

    #[test]
    fn uniform_tiering_matches_flat_timing() {
        let mut cfg = DramConfig::stacked(ByteSize::from_mib(64));
        cfg.tl_dram = Some(crate::TlDramParams::uniform(cfg.timings, 4));
        let mut d = Dram::new(cfg);
        assert_eq!(d.read_line(Cycle::ZERO, 0), Cycle::new(40));
        // Row index 8 (far under near_rows = 4) on an untouched bank.
        let far = far_line(&d) * 8 + u64::from(d.config().lines_per_row());
        let t0 = Cycle::new(1000);
        assert_eq!(d.read_line(t0, far) - t0, Cycle::new(40));
    }

    /// The division form `map` had before it was rewritten as shifts and
    /// masks, kept as the reference.
    fn map_by_division(config: &DramConfig, line: u64) -> (usize, usize, u64) {
        let channels = u64::from(config.channels);
        let banks = u64::from(config.banks_per_channel);
        let row_seq = line / u64::from(config.lines_per_row());
        let channel = row_seq % channels;
        let bank_in_channel = (row_seq / channels) % banks;
        let row = row_seq / (channels * banks);
        let bank = channel * banks + bank_in_channel;
        (channel as usize, bank as usize, row)
    }

    #[test]
    fn shift_mapping_matches_division_on_table1_devices() {
        for d in [stacked(), off_chip()] {
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            let edges = [0, 1, 31, 32, 33, 511, 512, 4096, u64::MAX - 1, u64::MAX];
            let randoms = (0..20_000).map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x >> (x % 64)
            });
            for line in edges.into_iter().chain(0..70_000).chain(randoms) {
                assert_eq!(
                    d.map(line),
                    map_by_division(d.config(), line),
                    "line {line}"
                );
            }
        }
    }

    #[test]
    fn non_power_of_two_geometry_rejected() {
        // (channels, banks per channel, row bytes) and the message.
        let cases = [
            ((12, 16, 2048), "channels must be a power of two, got 12"),
            (
                (16, 6, 2048),
                "banks per channel must be a power of two, got 6",
            ),
            (
                (16, 16, 1536),
                "lines per row must be a power of two, got 24",
            ),
        ];
        for ((channels, banks_per_channel, row_bytes), message) in cases {
            let cfg = DramConfig {
                channels,
                banks_per_channel,
                row_bytes,
                ..DramConfig::stacked(ByteSize::from_mib(64))
            };
            let err = std::panic::catch_unwind(|| Dram::new(cfg)).expect_err(message);
            let text = err
                .downcast_ref::<String>()
                .expect("assert! with format arguments panics with a String");
            assert!(text.contains(message), "{text}");
        }
    }

    #[test]
    fn mapping_keeps_rows_contiguous_and_spreads_channels() {
        let d = stacked();
        let lines_per_row = u64::from(d.config().lines_per_row());
        // All lines of one row share (channel, bank, row).
        let base = d.map(0);
        for i in 1..lines_per_row {
            assert_eq!(d.map(i), base);
        }
        // The next row lands on a different channel.
        let (c0, ..) = d.map(0);
        let (c1, ..) = d.map(lines_per_row);
        assert_ne!(c0, c1);
    }
}
