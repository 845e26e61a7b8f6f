//! Criterion micro-benchmarks of the hot data structures: LLT
//! lookup/promote, LLP predict/train, DRAM timing step, cache probes,
//! trace generation, the runner's own event loop, and division by a
//! fixed divisor.

use cameo::congruence::CongruenceMap;
use cameo::llp::LineLocationPredictor;
use cameo::llt::{LineLocationTable, Slot};
use cameo_cachesim::alloy::AlloyDirectory;
use cameo_cachesim::{CacheConfig, SetAssocCache};
use cameo_memsim::{Dram, DramConfig};
use cameo_sim::runner::{trace_configs, RunSession};
use cameo_sim::{BandwidthReport, MemoryOrganization, OrgResult, SystemConfig};
use cameo_types::{Access, ByteSize, CoreId, Cycle, Divisor, LineAddr, PageAddr, ServiceLocation};
use cameo_workloads::{by_name, MissEvent, MissStream, TraceConfig, TraceGenerator};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_llt(c: &mut Criterion) {
    let map = CongruenceMap::new(1 << 19, 4);
    let mut llt = LineLocationTable::new(map);
    let total = map.total_lines();
    let mut i = 0u64;
    c.bench_function("llt_locate", |b| {
        b.iter(|| {
            i = i.wrapping_mul(6364136223846793005).wrapping_add(1);
            black_box(llt.locate(LineAddr::new(i % total)))
        });
    });
    c.bench_function("llt_promote", |b| {
        b.iter(|| {
            i = i.wrapping_mul(6364136223846793005).wrapping_add(1);
            black_box(llt.promote(LineAddr::new(i % total)))
        });
    });
}

fn bench_llp(c: &mut Criterion) {
    let mut llp = LineLocationPredictor::new(16, 256);
    let mut pc = 0u64;
    c.bench_function("llp_predict", |b| {
        b.iter(|| {
            pc = pc.wrapping_add(4);
            black_box(llp.predict(CoreId((pc % 16) as u16), pc))
        });
    });
    c.bench_function("llp_train", |b| {
        b.iter(|| {
            pc = pc.wrapping_add(4);
            llp.train(CoreId((pc % 16) as u16), pc, Slot::new((pc % 4) as u8));
        });
    });
}

fn bench_dram(c: &mut Criterion) {
    let mut dram = Dram::new(DramConfig::stacked(ByteSize::from_mib(32)));
    let lines = ByteSize::from_mib(32).lines();
    let mut now = Cycle::ZERO;
    let mut i = 0u64;
    c.bench_function("dram_read_line", |b| {
        b.iter(|| {
            i = i.wrapping_mul(6364136223846793005).wrapping_add(1);
            now += Cycle::new(2);
            black_box(dram.read_line(now, i % lines))
        });
    });
}

fn bench_caches(c: &mut Criterion) {
    let mut l3 = SetAssocCache::new(CacheConfig {
        capacity: ByteSize::from_kib(256),
        ways: 16,
        latency: Cycle::new(24),
    });
    let mut dir = AlloyDirectory::new(1 << 19);
    let mut i = 0u64;
    c.bench_function("l3_access", |b| {
        b.iter(|| {
            i = i.wrapping_mul(6364136223846793005).wrapping_add(1);
            black_box(l3.access(LineAddr::new(i % (1 << 20)), i.is_multiple_of(3)))
        });
    });
    c.bench_function("alloy_probe_fill", |b| {
        b.iter(|| {
            i = i.wrapping_mul(6364136223846793005).wrapping_add(1);
            let line = LineAddr::new(i % (1 << 22));
            if !dir.probe(line) {
                dir.fill(line, false);
            }
            black_box(dir.set_of(line))
        });
    });
}

fn bench_tracegen(c: &mut Criterion) {
    let spec = by_name("gcc").unwrap();
    let mut generator = TraceGenerator::new(
        spec,
        TraceConfig {
            scale: 128,
            seed: 1,
            core_offset_pages: 0,
        },
    );
    c.bench_function("trace_next_event", |b| {
        b.iter(|| black_box(generator.next_event()));
    });
}

/// An organization that does no work: every access completes a fixed
/// time later in stacked DRAM, so a run through it times the runner alone.
struct NoopOrg;

impl MemoryOrganization for NoopOrg {
    fn name(&self) -> &'static str {
        "noop"
    }

    fn access(&mut self, now: Cycle, _access: &Access) -> OrgResult {
        OrgResult {
            completion: now + Cycle::new(100),
            serviced_by: ServiceLocation::Stacked,
            faulted: false,
        }
    }

    fn visible_capacity(&self) -> ByteSize {
        ByteSize::ZERO
    }

    fn bandwidth(&self) -> BandwidthReport {
        BandwidthReport::default()
    }

    fn faults(&self) -> u64 {
        0
    }

    fn service_counts(&self) -> (u64, u64) {
        (0, 0)
    }

    fn prefill(&mut self, _page: PageAddr) {}

    fn reset_stats(&mut self) {}
}

/// Events drawn in advance from a generator, replayed in a loop, so the
/// generator's cost stays out of the runner's figure.
struct Recorded {
    events: Vec<MissEvent>,
    next: usize,
}

impl MissStream for Recorded {
    fn next_event(&mut self) -> MissEvent {
        let event = self.events[self.next];
        self.next = (self.next + 1) % self.events.len();
        event
    }

    fn footprint_pages(&self) -> u64 {
        0
    }
}

/// The runner's event loop alone: mcf's miss streams on 16 simulated
/// cores, drawn beforehand, through [`NoopOrg`]. One iteration steps
/// 1000 events, so ns/iter ÷ 1000 is the loop's ns per event.
fn bench_runner_loop(c: &mut Criterion) {
    let bench = by_name("mcf").unwrap();
    let config = SystemConfig {
        cores: 16,
        instructions_per_core: u64::MAX / 4,
        warmup_fraction: 0.0,
        ..SystemConfig::default()
    };
    let streams: Vec<Recorded> = trace_configs(&bench, &config)
        .into_iter()
        .map(|tc| {
            let mut generator = TraceGenerator::new(bench, tc);
            Recorded {
                events: (0..8192).map(|_| generator.next_event()).collect(),
                next: 0,
            }
        })
        .collect();
    let mut org = NoopOrg;
    let mut session = RunSession::new(&bench, &config, &mut org, streams).unwrap();
    c.bench_function("runner_loop (per 1000 events)", |b| {
        b.iter(|| black_box(session.step(&mut org, None, 1000).unwrap()));
    });
}

/// Quotient and remainder by a divisor known only at run time, as the
/// congruence map and the Alloy directory meet it: the hardware divide
/// against [`Divisor`], for the default machine's stacked line count (a
/// power of two, so a shift and a mask). Each division feeds the next
/// numerator, so the figure is latency, as on the demand path; one
/// iteration is 1000 divisions.
fn bench_divisor_vs_div(c: &mut Criterion) {
    fn chain(mut n: u64, div_rem: impl Fn(u64) -> (u64, u64)) -> u64 {
        for _ in 0..1000 {
            let (q, r) = div_rem(n);
            n = n.wrapping_mul(6364136223846793005).wrapping_add(q ^ r);
        }
        n
    }
    let d = black_box(1u64 << 19);
    let divisor = Divisor::new(d);
    let mut n = 1u64;
    c.bench_function("divisor_vs_div/hardware/2^19 (per 1000)", |b| {
        b.iter(|| {
            n = chain(n, |n| (n / d, n % d));
            black_box(n)
        });
    });
    c.bench_function("divisor_vs_div/divisor/2^19 (per 1000)", |b| {
        b.iter(|| {
            n = chain(n, |n| (n / divisor, n % divisor));
            black_box(n)
        });
    });
}

criterion_group!(
    benches,
    bench_llt,
    bench_llp,
    bench_dram,
    bench_caches,
    bench_tracegen,
    bench_runner_loop,
    bench_divisor_vs_div
);
criterion_main!(benches);
