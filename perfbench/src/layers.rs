//! Isolated inner-layer replays: each inner layer's public function is
//! fed the addresses and PCs the workload's own `TraceGenerator`s
//! produce, and the whole loop is timed, so no per-call timer distorts
//! these figures.
//!
//! The chain mirrors a demand access: virtual lines go through
//! `Vmm::translate`; the physical lines it returns feed the CAMEO
//! structures (`LineLocationTable`, `LineLocationPredictor`), the stacked
//! DRAM (`Dram::read_line`) and an Alloy tag store (`AlloyDirectory`)
//! sized as the organizations size them.

use std::hint::black_box;
use std::time::Instant;

use cameo::congruence::CongruenceMap;
use cameo::llp::LineLocationPredictor;
use cameo::llt::LineLocationTable;
use cameo_cachesim::alloy::AlloyDirectory;
use cameo_memsim::{Dram, DramConfig};
use cameo_sim::runner::trace_configs;
use cameo_sim::SystemConfig;
use cameo_types::{CoreId, Cycle, LineAddr, PageAddr};
use cameo_vmem::{Placement, Vmm, VmmConfig};
use cameo_workloads::{BenchSpec, MissEvent, MissStream, TraceGenerator};

/// Events replayed through each layer.
pub const REPLAY_EVENTS: usize = 1 << 20;

/// Host nanoseconds per call of each inner layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCosts {
    /// `Vmm::translate`.
    pub translate_ns: f64,
    /// `LineLocationTable::locate`.
    pub llt_locate_ns: f64,
    /// `LineLocationTable::promote`.
    pub llt_promote_ns: f64,
    /// `LineLocationPredictor::predict`.
    pub llp_predict_ns: f64,
    /// `Dram::read_line`.
    pub read_line_ns: f64,
    /// `AlloyDirectory::probe`.
    pub alloy_probe_ns: f64,
    /// `AlloyDirectory::fill`.
    pub alloy_fill_ns: f64,
}

/// Host nanoseconds per item of `f` over `n` items.
fn per_call(n: usize, f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64 / n as f64
}

/// The workload's streams, one per simulated core, interleaved round
/// robin, plus the prefill order the runner uses.
fn generate(
    bench: &BenchSpec,
    config: &SystemConfig,
    n: usize,
) -> (Vec<(u16, MissEvent)>, Vec<PageAddr>) {
    let mut streams: Vec<TraceGenerator> = trace_configs(bench, config)
        .into_iter()
        .map(|tc| TraceGenerator::new(*bench, tc))
        .collect();
    let lists: Vec<Vec<PageAddr>> = streams.iter().map(MissStream::prefill_pages).collect();
    let longest = lists.iter().map(Vec::len).max().unwrap_or(0);
    let prefill = (0..longest)
        .flat_map(|i| lists.iter().filter_map(move |l| l.get(i).copied()))
        .collect();
    let cores = streams.len();
    let events = (0..n)
        .map(|i| {
            let core = i % cores;
            let id = u16::try_from(core).expect("simulated core ids are u16");
            (id, streams[core].next_event())
        })
        .collect();
    (events, prefill)
}

/// Replays `n` generated events through every inner layer.
pub fn replay(bench: &BenchSpec, config: &SystemConfig, n: usize) -> LayerCosts {
    let (events, prefill) = generate(bench, config, n);
    let mut costs = LayerCosts::default();

    // vmem: the OS view over all visible memory, already populated.
    let mut vmm = Vmm::new(VmmConfig {
        stacked: config.stacked(),
        off_chip: config.off_chip(),
        placement: Placement::Random,
        seed: config.seed,
    });
    vmm.translate_batch(&prefill, false);
    let mut phys = Vec::with_capacity(n);
    costs.translate_ns = per_call(n, || {
        for (_, e) in &events {
            let t = vmm.translate(e.line.page(), e.is_write);
            phys.push(t.phys.line(e.line.offset_in_page()).raw());
        }
    });
    drop(vmm);

    // core: the LLT and LLP of a CAMEO controller over this machine.
    let stacked_lines = config.stacked().lines();
    let ratio = u8::try_from(1 + config.off_chip().lines() / stacked_lines)
        .expect("the simulated machines keep a small stacked:off-chip ratio");
    let map = CongruenceMap::new(stacked_lines, ratio);
    let lines: Vec<LineAddr> = phys
        .iter()
        .map(|&p| LineAddr::new(p % map.total_lines()))
        .collect();
    let mut llt = LineLocationTable::new(map);
    costs.llt_promote_ns = per_call(n, || {
        for &line in &lines {
            black_box(llt.promote(line));
        }
    });
    costs.llt_locate_ns = per_call(n, || {
        for &line in &lines {
            black_box(llt.locate(line));
        }
    });
    let mut llp = LineLocationPredictor::for_ratio(config.cores, config.llp_entries, ratio);
    for ((core, e), &line) in events.iter().zip(&lines) {
        llp.train(CoreId(*core), e.pc, llt.locate(line));
    }
    costs.llp_predict_ns = per_call(n, || {
        for (core, e) in &events {
            black_box(llp.predict(CoreId(*core), e.pc));
        }
    });
    drop((llt, llp));

    // memsim: stacked-DRAM reads at the stream's own issue spacing.
    let mut dram = Dram::new(DramConfig::stacked(config.stacked()));
    let mut now = Cycle::ZERO;
    costs.read_line_ns = per_call(n, || {
        for ((_, e), &p) in events.iter().zip(&phys) {
            now += Cycle::new(1 + (e.gap_instructions as f64 / config.ipc) as u64);
            black_box(dram.read_line(now, p % stacked_lines));
        }
    });
    drop(dram);

    // cachesim: an Alloy tag store with one set per stacked line.
    let mut dir = AlloyDirectory::new(stacked_lines);
    costs.alloy_fill_ns = per_call(n, || {
        for ((_, e), &line) in events.iter().zip(&lines) {
            black_box(dir.fill(line, e.is_write));
        }
    });
    costs.alloy_probe_ns = per_call(n, || {
        for &line in &lines {
            black_box(dir.probe(line));
        }
    });
    costs
}
