//! Device timing and geometry configuration (paper Table I).

use cameo_types::ByteSize;

/// DRAM timing parameters expressed in *bus* cycles, plus the CPU-to-bus
/// clock ratio used to convert them into CPU cycles.
///
/// Both devices in the paper use 9-9-9-36 (tCAS-tRCD-tRP-tRAS) bus-cycle
/// timing; they differ in bus frequency, so the same numbers translate to
/// very different CPU-cycle latencies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DramTimings {
    /// Column access strobe latency (bus cycles).
    pub t_cas: u64,
    /// Row-to-column delay (bus cycles).
    pub t_rcd: u64,
    /// Row precharge time (bus cycles).
    pub t_rp: u64,
    /// Row active time (bus cycles).
    pub t_ras: u64,
    /// CPU cycles per bus cycle (3.2 GHz CPU / bus frequency).
    pub cpu_per_bus: u64,
}

impl DramTimings {
    /// The paper's 9-9-9-36 timing at a given CPU:bus clock ratio.
    ///
    /// # Panics
    ///
    /// Panics if `cpu_per_bus` is zero.
    pub fn ddr_9_9_9_36(cpu_per_bus: u64) -> Self {
        assert!(cpu_per_bus > 0, "clock ratio must be non-zero");
        Self {
            t_cas: 9,
            t_rcd: 9,
            t_rp: 9,
            t_ras: 36,
            cpu_per_bus,
        }
    }

    /// CAS latency in CPU cycles.
    #[inline]
    pub fn cas_cpu(&self) -> u64 {
        self.t_cas * self.cpu_per_bus
    }

    /// RCD latency in CPU cycles.
    #[inline]
    pub fn rcd_cpu(&self) -> u64 {
        self.t_rcd * self.cpu_per_bus
    }

    /// Precharge latency in CPU cycles.
    #[inline]
    pub fn rp_cpu(&self) -> u64 {
        self.t_rp * self.cpu_per_bus
    }

    /// Row-active window in CPU cycles.
    #[inline]
    pub fn ras_cpu(&self) -> u64 {
        self.t_ras * self.cpu_per_bus
    }
}

/// Row-buffer management policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RowPolicy {
    /// Leave the accessed row open (the paper's implicit policy, and the
    /// right one for the co-located LLT's row layout): later accesses to
    /// the same row hit, accesses to other rows pay a conflict.
    #[default]
    OpenPage,
    /// Auto-precharge after every access: every access pays tRCD + tCAS
    /// but none pays a conflict. Useful as an ablation of the row-locality
    /// assumption.
    ClosedPage,
}

/// Refresh parameters (all-bank refresh), in CPU cycles.
///
/// The paper does not model refresh; it is available here as a fidelity
/// knob, disabled by default so the calibrated results are unaffected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RefreshParams {
    /// Average interval between refresh commands (tREFI).
    pub t_refi_cpu: u64,
    /// Duration each refresh blocks the device (tRFC).
    pub t_rfc_cpu: u64,
}

impl RefreshParams {
    /// DDR3-class refresh at a 3.2 GHz CPU clock: tREFI 7.8 µs, tRFC 350 ns.
    pub fn ddr3() -> Self {
        Self {
            t_refi_cpu: 24_960,
            t_rfc_cpu: 1_120,
        }
    }

    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics if tRFC is zero or not smaller than tREFI.
    pub fn validate(&self) {
        assert!(self.t_rfc_cpu > 0, "tRFC must be positive");
        assert!(
            self.t_rfc_cpu < self.t_refi_cpu,
            "tRFC must be smaller than tREFI"
        );
    }
}

/// Tiered-latency (TL-DRAM, Lee et al., HPCA 2013) segment parameters.
///
/// Each bank's rows are split into a small *near* segment close to the
/// sense amplifiers (shorter bitlines, faster tRCD/tRP/tRAS) and a large
/// *far* segment behind the isolation transistor. Rows
/// `0..near_rows_per_bank` of every bank sit in the near segment; every
/// other row is a far row.
///
/// Setting `near == far == DramConfig::timings` makes the tiered device
/// bit-identical to the flat one (pinned by the `tl_dram_properties`
/// suite), so the model composes with every organization at zero risk.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TlDramParams {
    /// Rows per bank that sit in the near segment by default.
    pub near_rows_per_bank: u64,
    /// Timings for near-segment rows.
    pub near: DramTimings,
    /// Timings for far-segment rows.
    pub far: DramTimings,
}

impl TlDramParams {
    /// TL-DRAM paper-flavored segment timings at a given CPU:bus clock
    /// ratio: the near segment trims tRCD/tRP/tRAS (short bitlines), the
    /// far segment pays a small penalty for the isolation transistor.
    /// tCAS is unchanged — column access does not cross the bitline.
    pub fn paper(cpu_per_bus: u64, near_rows_per_bank: u64) -> Self {
        assert!(cpu_per_bus > 0, "clock ratio must be non-zero");
        Self {
            near_rows_per_bank,
            near: DramTimings {
                t_cas: 9,
                t_rcd: 5,
                t_rp: 6,
                t_ras: 24,
                cpu_per_bus,
            },
            far: DramTimings {
                t_cas: 9,
                t_rcd: 10,
                t_rp: 10,
                t_ras: 39,
                cpu_per_bus,
            },
        }
    }

    /// Degenerate tiering where both segments use `timings`: structurally
    /// tiered but timing-identical to a flat device. Useful to prove the
    /// tiered path is a refinement, not a fork.
    pub fn uniform(timings: DramTimings, near_rows_per_bank: u64) -> Self {
        Self {
            near_rows_per_bank,
            near: timings,
            far: timings,
        }
    }
}

/// Full geometry + timing description of one DRAM device.
///
/// Constructed via [`DramConfig::stacked`] / [`DramConfig::off_chip`] for the
/// paper's Table I devices, or field-by-field for ablations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DramConfig {
    /// Total device capacity.
    pub capacity: ByteSize,
    /// Number of independent channels (each with its own data bus).
    pub channels: u32,
    /// Banks per channel.
    pub banks_per_channel: u32,
    /// Bytes transferred per data-bus beat (bus width / 8).
    pub bytes_per_beat: u32,
    /// Row-buffer (DRAM page) size per bank.
    pub row_bytes: u32,
    /// Timing parameters.
    pub timings: DramTimings,
    /// Row-buffer management policy.
    pub row_policy: RowPolicy,
    /// Optional all-bank refresh; `None` (the default) matches the paper.
    pub refresh: Option<RefreshParams>,
    /// Optional tiered-latency segmentation; `None` (the default) is the
    /// paper's flat device. When set, `timings` remains the bus clock /
    /// burst reference and per-row command latencies come from the
    /// segment the row sits in.
    pub tl_dram: Option<TlDramParams>,
}

impl DramConfig {
    /// The paper's stacked-DRAM device: 16 channels, 16 banks/channel,
    /// 128-bit bus at 1.6 GHz (2 CPU cycles per bus cycle at 3.2 GHz),
    /// 2 KiB row buffer.
    pub fn stacked(capacity: ByteSize) -> Self {
        Self {
            capacity,
            channels: 16,
            banks_per_channel: 16,
            bytes_per_beat: 16,
            row_bytes: 2048,
            timings: DramTimings::ddr_9_9_9_36(2),
            row_policy: RowPolicy::OpenPage,
            refresh: None,
            tl_dram: None,
        }
    }

    /// The stacked device with TL-DRAM paper-flavored tiering: 1/16 of
    /// each bank's rows form the near segment (the TL-DRAM paper's
    /// 32-of-512 proportion), remaining geometry identical to
    /// [`DramConfig::stacked`].
    pub fn stacked_tiered(capacity: ByteSize) -> Self {
        let mut config = Self::stacked(capacity);
        let rows_per_bank =
            capacity.bytes() / u64::from(config.row_bytes) / u64::from(config.total_banks());
        config.tl_dram = Some(TlDramParams::paper(
            config.timings.cpu_per_bus,
            (rows_per_bank / 16).max(1),
        ));
        config
    }

    /// The paper's off-chip DDR device: 8 channels, 8 banks/channel,
    /// 64-bit bus at 800 MHz (4 CPU cycles per bus cycle), 2 KiB row buffer.
    pub fn off_chip(capacity: ByteSize) -> Self {
        Self {
            capacity,
            channels: 8,
            banks_per_channel: 8,
            bytes_per_beat: 8,
            row_bytes: 2048,
            timings: DramTimings::ddr_9_9_9_36(4),
            row_policy: RowPolicy::OpenPage,
            refresh: None,
            tl_dram: None,
        }
    }

    /// Total banks across all channels.
    #[inline]
    pub fn total_banks(&self) -> u32 {
        self.channels * self.banks_per_channel
    }

    /// Cache lines per row buffer.
    #[inline]
    pub fn lines_per_row(&self) -> u32 {
        self.row_bytes / cameo_types::LINE_BYTES as u32
    }

    /// Data-bus beats needed to move `bytes` (rounded up). The device is
    /// double-data-rate: two beats complete per bus cycle.
    #[inline]
    pub fn beats_for(&self, bytes: u32) -> u32 {
        bytes.div_ceil(self.bytes_per_beat)
    }

    /// CPU cycles the channel data bus is occupied transferring `bytes`.
    #[inline]
    pub fn burst_cpu_cycles(&self, bytes: u32) -> u64 {
        let bus_cycles = u64::from(self.beats_for(bytes).div_ceil(2));
        bus_cycles * self.timings.cpu_per_bus
    }

    /// Peak bandwidth in bytes per CPU cycle, across all channels.
    ///
    /// Useful to sanity-check the ~8× stacked-vs-off-chip bandwidth ratio
    /// from the paper's Figure 3 discussion.
    pub fn peak_bytes_per_cpu_cycle(&self) -> f64 {
        // 2 beats per bus cycle (DDR), one bus cycle = cpu_per_bus CPU cycles.
        let per_channel = 2.0 * f64::from(self.bytes_per_beat) / self.timings.cpu_per_bus as f64;
        per_channel * f64::from(self.channels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_clock_ratios() {
        let s = DramConfig::stacked(ByteSize::from_gib(4));
        let o = DramConfig::off_chip(ByteSize::from_gib(12));
        // 3.2 GHz CPU over 1.6 GHz / 0.8 GHz buses.
        assert_eq!(s.timings.cpu_per_bus, 2);
        assert_eq!(o.timings.cpu_per_bus, 4);
        // CAS in CPU cycles: stacked 18, off-chip 36 (half the latency).
        assert_eq!(s.timings.cas_cpu(), 18);
        assert_eq!(o.timings.cas_cpu(), 36);
    }

    #[test]
    fn stacked_has_8x_bandwidth() {
        let s = DramConfig::stacked(ByteSize::from_gib(4));
        let o = DramConfig::off_chip(ByteSize::from_gib(12));
        let ratio = s.peak_bytes_per_cpu_cycle() / o.peak_bytes_per_cpu_cycle();
        assert!((ratio - 8.0).abs() < 1e-9, "ratio was {ratio}");
    }

    #[test]
    fn burst_lengths_match_paper() {
        let s = DramConfig::stacked(ByteSize::from_gib(4));
        // A 64 B line is 4 beats on the 16 B stacked bus.
        assert_eq!(s.beats_for(64), 4);
        // The 66 B LEAD is fetched as a burst of five (80 bytes), Section IV-D.
        assert_eq!(s.beats_for(66), 5);
        let o = DramConfig::off_chip(ByteSize::from_gib(12));
        assert_eq!(o.beats_for(64), 8);
    }

    #[test]
    fn burst_cycles() {
        let s = DramConfig::stacked(ByteSize::from_gib(4));
        // 4 beats = 2 bus cycles = 4 CPU cycles.
        assert_eq!(s.burst_cpu_cycles(64), 4);
        // 5 beats = 3 bus cycles (rounded up) = 6 CPU cycles.
        assert_eq!(s.burst_cpu_cycles(66), 6);
        let o = DramConfig::off_chip(ByteSize::from_gib(12));
        // 8 beats = 4 bus cycles = 16 CPU cycles.
        assert_eq!(o.burst_cpu_cycles(64), 16);
    }

    #[test]
    fn geometry_helpers() {
        let s = DramConfig::stacked(ByteSize::from_gib(4));
        assert_eq!(s.total_banks(), 256);
        assert_eq!(s.lines_per_row(), 32);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_ratio_rejected() {
        DramTimings::ddr_9_9_9_36(0);
    }
}
