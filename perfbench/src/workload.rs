//! The benchmark's workloads and the passes it runs over them.
//!
//! Every pass drives the simulator through its public API only:
//! `build_org_on` builds an organization, `Runner::start` (or
//! `RunSession::new` with wrapped streams) runs the prefill, and
//! `RunSession::step` runs the event loop; the design row goes through
//! the sweep harness, `run_sweep_with`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cameo_sim::checkpoint::PointRecord;
use cameo_sim::experiments::{build_org_on, OrgKind};
use cameo_sim::harness::{run_sweep_with, SweepOptions, SweepPoint};
use cameo_sim::runner::{trace_configs, RunSession, Runner, SessionStatus};
use cameo_sim::{MemoryOrganization, RunStats, SystemConfig};
use cameo_types::DeviceKind;
use cameo_workloads::{BenchSpec, TraceGenerator};

use crate::timing::{Span, TimedOrg, TimedStream};
use cameo_bench::perf::current_rss_bytes;

/// One organization on one device model, with the name-safe suffix its
/// per-layer metrics carry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Design {
    /// The organization.
    pub kind: OrgKind,
    /// The stacked-die device model.
    pub device: DeviceKind,
    /// Metric-name suffix, e.g. `memcache-50` for `MemCache@50`.
    pub slug: &'static str,
}

const fn design(kind: OrgKind, device: DeviceKind, slug: &'static str) -> Design {
    Design { kind, device, slug }
}

/// Every design any workload runs, in metric order.
pub const DESIGNS: [Design; 6] = [
    design(CAMEO, DeviceKind::Flat, "cameo"),
    design(CAMEO, DeviceKind::TlDram, "cameo-tldram"),
    design(OrgKind::Baseline, DeviceKind::Flat, "baseline"),
    design(OrgKind::AlloyCache, DeviceKind::Flat, "alloy"),
    design(OrgKind::TlmDynamic, DeviceKind::Flat, "tlm-dynamic"),
    design(
        OrgKind::MemCache { split_percent: 50 },
        DeviceKind::Flat,
        "memcache-50",
    ),
];

/// The paper's headline design: Co-Located LLT with the LLP.
const CAMEO: OrgKind = OrgKind::Cameo {
    llt: cameo::LltDesign::CoLocated,
    predictor: cameo::PredictorKind::Llp,
};

fn by_slug(slug: &str) -> Design {
    *DESIGNS
        .iter()
        .find(|d| d.slug == slug)
        .expect("workloads name only designs listed in DESIGNS")
}

/// Post-L3 accesses a sweep worker runs before parking a point.
const CHUNK_ACCESSES: u64 = 100_000;

/// Post-L3 accesses an untraced serial point runs per timed step: a few
/// milliseconds, short beside the host's bursts of interference.
const STEP_ACCESSES: u64 = 10_000;

/// A benchmark workload: one simulated machine, one benchmark, a set of
/// designs and how they are scheduled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// CAMEO on mcf at the default scaled machine, one point, one thread.
    CameoMcf,
    /// The design-matrix row for lbm through the sweep harness, two
    /// workers, chunked points.
    DesignsLbm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::CameoMcf, Workload::DesignsLbm];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CameoMcf => "cameo-mcf",
            Workload::DesignsLbm => "designs-lbm",
        }
    }

    /// Resolves a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The Table II benchmark the workload runs.
    pub fn bench(self) -> BenchSpec {
        let name = match self {
            Workload::CameoMcf => "mcf",
            Workload::DesignsLbm => "lbm",
        };
        cameo_workloads::require(name).expect("mcf and lbm are in the Table II suite")
    }

    /// The simulated machine, seeded with the benchmark's `--seed`: the
    /// seed reaches the simulator only through the generated streams and
    /// the OS placement it seeds.
    pub fn config(self, seed: u64) -> SystemConfig {
        SystemConfig {
            seed,
            ..SystemConfig::default()
        }
    }

    /// The designs the workload runs, in run order.
    pub fn designs(self) -> Vec<Design> {
        let slugs: &[&str] = match self {
            Workload::CameoMcf => &["cameo"],
            Workload::DesignsLbm => &[
                "baseline",
                "alloy",
                "tlm-dynamic",
                "memcache-50",
                "cameo",
                "cameo-tldram",
            ],
        };
        slugs.iter().map(|s| by_slug(s)).collect()
    }

    /// Sweep workers; `1` runs the points serially without the harness.
    pub fn jobs(self) -> usize {
        match self {
            Workload::DesignsLbm => 2,
            Workload::CameoMcf => 1,
        }
    }
}

/// Host time of one point's phases, when it ran serially.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    /// Building the organization.
    pub build_s: f64,
    /// The prefill transient (`Runner::start` / `RunSession::new`).
    pub prefill_s: f64,
    /// The event loop: warmup plus measured region.
    pub run_s: f64,
    /// Resident-set growth across build and prefill, in bytes.
    pub resident_bytes: i64,
}

impl Phases {
    /// Build plus prefill.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.prefill_s
    }
}

/// Sampled spans of one traced point.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    /// `MissStream::next_event`, over all cores' streams.
    pub next_event: Span,
    /// `MemoryOrganization::access`.
    pub access: Span,
}

/// One point of a pass.
#[derive(Clone, Debug)]
pub struct PointRun {
    /// The design run.
    pub design: Design,
    /// Its statistics (`None` for a set-up-only point), or why it failed.
    pub outcome: Result<Option<RunStats>, String>,
    /// Host seconds the point held a thread, set-up included.
    pub busy_s: f64,
    /// Phase times; `None` for points the harness ran.
    pub phases: Option<Phases>,
    /// Host seconds of each [`STEP_ACCESSES`]-access step of the event
    /// loop, in order; empty except for untraced serial points. With the
    /// same seed the k-th step does the same work in every repetition.
    pub chunks_s: Vec<f64>,
    /// Spans; `Some` for traced points only.
    pub layers: Option<Layers>,
}

impl PointRun {
    /// The point's statistics, if it ran to completion.
    pub fn stats(&self) -> Option<&RunStats> {
        self.outcome.as_ref().ok().and_then(Option::as_ref)
    }
}

/// One pass over a workload's designs.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Host time to result for the whole pass.
    pub wall_s: f64,
    /// Points in design order.
    pub points: Vec<PointRun>,
}

/// How a serial point runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Build and prefill only.
    Setup,
    /// The program as users run it.
    Untraced,
    /// Wrapped in [`TimedOrg`] and [`TimedStream`].
    Traced,
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Runs a started session to completion.
fn finish<S: cameo_workloads::MissStream>(
    session: &mut RunSession<S>,
    org: &mut dyn MemoryOrganization,
) -> Result<RunStats, String> {
    match session.step(org, None, u64::MAX) {
        Ok(SessionStatus::Complete(stats)) => Ok(*stats),
        Ok(SessionStatus::Running) => Err("an unbounded step returned mid-run".to_owned()),
        Err(e) => Err(e.to_string()),
    }
}

/// A set-up point kept alive: its organization and prefilled session.
type SetUp = (Box<dyn MemoryOrganization>, RunSession<TraceGenerator>);

/// Runs one point on this thread. A panic is caught and reported as the
/// point's failure.
pub fn run_serial(
    bench: &BenchSpec,
    design: Design,
    config: &SystemConfig,
    mode: Mode,
) -> PointRun {
    run_point(bench, design, config, mode, &mut Vec::new())
}

/// [`run_serial`], except that a [`Mode::Setup`] point is moved into
/// `kept` rather than dropped.
fn run_point(
    bench: &BenchSpec,
    design: Design,
    config: &SystemConfig,
    mode: Mode,
    kept: &mut Vec<SetUp>,
) -> PointRun {
    let start = Instant::now();
    let mut phases = Phases::default();
    let mut layers = None;
    let mut chunks_s = Vec::new();
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<Option<RunStats>, String> {
        let rss_bytes = || {
            current_rss_bytes()
                .and_then(|b| i64::try_from(b).ok())
                .unwrap_or(0)
        };
        let rss_before = rss_bytes();
        let t0 = Instant::now();
        let org = build_org_on(bench, design.kind, design.device, config);
        phases.build_s = secs(t0);
        let stats = if mode == Mode::Traced {
            let mut org = TimedOrg::new(org, config.seed);
            let total = Arc::new(Mutex::new(Span::default()));
            let streams: Vec<_> = trace_configs(bench, config)
                .into_iter()
                .enumerate()
                .map(|(core, tc)| {
                    let seed = config.seed ^ (core as u64 + 1).wrapping_mul(0x9E37_79B9);
                    TimedStream::new(TraceGenerator::new(*bench, tc), seed, Arc::clone(&total))
                })
                .collect();
            let t1 = Instant::now();
            let mut session =
                RunSession::new(bench, config, &mut org, streams).map_err(|e| e.to_string())?;
            phases.prefill_s = secs(t1);
            phases.resident_bytes = rss_bytes() - rss_before;
            let t2 = Instant::now();
            let stats = finish(&mut session, &mut org)?;
            phases.run_s = secs(t2);
            drop(session);
            layers = Some(Layers {
                next_event: *total.lock().map_err(|_| "span total poisoned")?,
                access: org.access_span(),
            });
            stats
        } else {
            let mut org = org;
            let runner = Runner::new(*bench, config).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            let mut session = runner.start(org.as_mut()).map_err(|e| e.to_string())?;
            phases.prefill_s = secs(t1);
            phases.resident_bytes = rss_bytes() - rss_before;
            if mode == Mode::Setup {
                kept.push((org, session));
                return Ok(None);
            }
            loop {
                let t = Instant::now();
                let status = session
                    .step(org.as_mut(), None, STEP_ACCESSES)
                    .map_err(|e| e.to_string())?;
                chunks_s.push(secs(t));
                if let SessionStatus::Complete(stats) = status {
                    phases.run_s = chunks_s.iter().sum();
                    break *stats;
                }
            }
        };
        Ok(Some(stats))
    }))
    .unwrap_or_else(|payload| Err(panic_message(payload.as_ref())));
    PointRun {
        design,
        outcome,
        busy_s: secs(start),
        phases: Some(phases),
        layers,
        chunks_s,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned());
    format!("panicked: {message}")
}

impl Workload {
    /// Runs every design once, serially, in `mode`, on `config`.
    pub fn serial_pass(self, config: &SystemConfig, mode: Mode) -> Pass {
        let bench = self.bench();
        let start = Instant::now();
        let points = self
            .designs()
            .into_iter()
            .map(|d| run_serial(&bench, d, config, mode))
            .collect();
        Pass {
            wall_s: secs(start),
            points,
        }
    }

    /// Builds and prefills every design, serially, keeping each alive
    /// until the last is set up, so that no design reuses memory another
    /// freed. Run first in a process, its points' `resident_bytes` are
    /// what each organization's build and prefill first touch.
    pub fn resident_pass(self, config: &SystemConfig) -> Pass {
        let bench = self.bench();
        let start = Instant::now();
        let mut kept = Vec::new();
        let points = self
            .designs()
            .into_iter()
            .map(|d| run_point(&bench, d, config, Mode::Setup, &mut kept))
            .collect();
        let wall_s = secs(start);
        drop(kept);
        Pass { wall_s, points }
    }

    /// Runs every design once through the sweep harness on
    /// [`Workload::jobs`] workers with chunked points, on `config`.
    pub fn harness_pass(self, config: &SystemConfig, chunk_accesses: u64) -> Pass {
        let bench = self.bench();
        let designs = self.designs();
        let points: Vec<SweepPoint> = designs
            .iter()
            .map(|d| SweepPoint::new(bench.name, d.kind).with_key(d.slug))
            .collect();
        let opts = SweepOptions {
            config: *config,
            max_attempts: 1,
            jobs: self.jobs(),
            chunk_accesses: Some(chunk_accesses),
            quiet_panics: true,
            ..SweepOptions::default()
        };
        let start = Instant::now();
        let report = run_sweep_with(&points, &opts, None, &|point, config| {
            let d = by_slug(&point.key);
            build_org_on(&bench, d.kind, d.device, config)
        });
        let wall_s = secs(start);
        let points = match report {
            Ok(report) => designs
                .iter()
                .zip(report.outcomes)
                .map(|(&design, o)| PointRun {
                    design,
                    outcome: match o.record {
                        PointRecord::Done { stats, .. } => Ok(Some(*stats)),
                        PointRecord::Failed { error, .. } => Err(error),
                    },
                    busy_s: o.wall_nanos as f64 / 1e9,
                    phases: None,
                    layers: None,
                    chunks_s: Vec::new(),
                })
                .collect(),
            Err(e) => designs
                .iter()
                .map(|&design| PointRun {
                    design,
                    outcome: Err(format!("sweep failed: {e}")),
                    busy_s: 0.0,
                    phases: None,
                    layers: None,
                    chunks_s: Vec::new(),
                })
                .collect(),
        };
        Pass { wall_s, points }
    }

    /// One repetition of the workload as its users run it.
    pub fn rep(self, config: &SystemConfig) -> Pass {
        if self.jobs() > 1 {
            self.harness_pass(config, CHUNK_ACCESSES)
        } else {
            self.serial_pass(config, Mode::Untraced)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro() -> SystemConfig {
        SystemConfig {
            scale: 4096,
            cores: 2,
            instructions_per_core: 50_000,
            warmup_fraction: 0.2,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn wrapped_organizations_run_the_same_program() {
        let config = micro();
        for bench in [Workload::CameoMcf.bench(), Workload::DesignsLbm.bench()] {
            for design in DESIGNS {
                let plain = run_serial(&bench, design, &config, Mode::Untraced);
                let traced = run_serial(&bench, design, &config, Mode::Traced);
                let stats = plain.outcome.expect("micro point runs");
                let audited = stats.as_ref().map(crate::report::audit);
                assert_eq!(audited, Some(Ok(())), "{}", design.slug);
                assert_eq!(
                    traced.outcome.expect("traced micro point runs"),
                    stats,
                    "{}",
                    design.slug
                );
                let layers = traced.layers.expect("traced points carry spans");
                assert!(layers.access.calls > 0 && layers.next_event.calls >= layers.access.calls);
            }
        }
    }

    #[test]
    fn harness_and_serial_passes_agree() {
        // The design row at micro scale: the harness path (2 workers,
        // small chunks) must produce the serial path's statistics.
        let w = Workload::DesignsLbm;
        let harness = w.harness_pass(&micro(), 500);
        let serial = w.serial_pass(&micro(), Mode::Untraced);
        for (h, s) in harness.points.iter().zip(&serial.points) {
            assert!(matches!(s.outcome, Ok(Some(_))), "{}", s.design.slug);
            assert_eq!(h.outcome, s.outcome, "{}", s.design.slug);
        }
    }

    #[test]
    fn setup_mode_stops_after_the_prefill() {
        let p = run_serial(
            &Workload::CameoMcf.bench(),
            DESIGNS[0],
            &micro(),
            Mode::Setup,
        );
        assert_eq!(p.outcome, Ok(None));
        let phases = p.phases.expect("serial points time their phases");
        assert!(phases.prefill_s > 0.0 && phases.run_s == 0.0);
    }

    #[test]
    fn resident_pass_sets_up_every_design() {
        let pass = Workload::DesignsLbm.resident_pass(&micro());
        assert_eq!(pass.points.len(), DESIGNS.len());
        for p in &pass.points {
            assert_eq!(p.outcome, Ok(None), "{}", p.design.slug);
            let phases = p.phases.expect("serial points time their phases");
            assert!(phases.prefill_s > 0.0, "{}", p.design.slug);
        }
    }

    #[test]
    fn workloads_and_designs_are_named_once() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(!w.designs().is_empty());
        }
        assert_eq!(Workload::parse("cameo"), None);
        let mut slugs: Vec<&str> = DESIGNS.iter().map(|d| d.slug).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), DESIGNS.len());
    }
}
