//! Determinism golden tests: the simulator is a pure function of
//! (configuration, seed). The same point run twice must produce
//! bit-identical [`RunStats`] — under the plain build *and* under
//! `--features faults`, where an additional test pins the inert fault
//! layer (rate 0) to the exact timing of the bare devices. Together the
//! two directions guarantee that compiling the fault subsystem in, or
//! arming it with all rates at zero, perturbs no published number.

use cameo_repro::cameo::{LltDesign, PredictorKind};
use cameo_repro::sim::org::CameoOrg;
use cameo_repro::sim::runner::Runner;
use cameo_repro::sim::{RunStats, SystemConfig};
use cameo_repro::types::TraceSink;
use cameo_repro::workloads::require;

fn quick() -> SystemConfig {
    SystemConfig {
        scale: 512,
        cores: 2,
        instructions_per_core: 150_000,
        ..SystemConfig::default()
    }
}

fn cameo_org(cfg: &SystemConfig) -> CameoOrg {
    CameoOrg::new(
        cfg.stacked(),
        cfg.off_chip(),
        LltDesign::CoLocated,
        PredictorKind::Llp,
        cfg.cores,
        cfg.llp_entries,
        cfg.seed ^ 0xBEEF,
    )
}

fn run<S: TraceSink>(cfg: &SystemConfig, mut org: CameoOrg<S>) -> RunStats {
    let bench = require("mcf").expect("mcf is in the Table II suite");
    Runner::new(bench, cfg)
        .expect("quick() is a valid configuration")
        .run(&mut org)
}

#[test]
fn same_seed_same_config_is_bit_identical() {
    let cfg = quick();
    let first = run(&cfg, cameo_org(&cfg));
    let second = run(&cfg, cameo_org(&cfg));
    assert_eq!(first, second);
}

#[test]
fn different_seed_actually_changes_the_run() {
    // Guards the golden test against vacuous equality (e.g. a seed that is
    // silently ignored would make the test above pass for free).
    let cfg = quick();
    let other = SystemConfig { seed: 43, ..cfg };
    let first = run(&cfg, cameo_org(&cfg));
    let second = run(&other, cameo_org(&other));
    assert_ne!(first, second);
}

/// An armed, recording [`TraceSink`] observes every swap, probe and
/// prediction without perturbing any of them: the run must be bit-identical
/// to one built with the no-op sink. This mirrors the rate-zero fault test
/// below — both pin an observability layer to the exact numbers of the
/// plain build — and is the workspace-level face of the tracing-is-free
/// contract (`cameo_sim::harness` asserts the same for whole sweeps).
#[test]
fn armed_trace_sink_is_bit_identical_to_noop() {
    use cameo_repro::memsim::DramConfig;
    use cameo_repro::sim::trace::{SharedSink, TraceOptions};

    let cfg = quick();
    let plain = run(&cfg, cameo_org(&cfg));
    let sink = SharedSink::new(TraceOptions::default());
    let armed = run(
        &cfg,
        CameoOrg::with_sink_on(
            DramConfig::stacked(cfg.stacked()),
            DramConfig::off_chip(cfg.off_chip()),
            LltDesign::CoLocated,
            PredictorKind::Llp,
            cfg.cores,
            cfg.llp_entries,
            cfg.seed ^ 0xBEEF,
            sink.clone(),
        ),
    );
    assert_eq!(plain, armed);
    // Guard against vacuous equality: the armed sink really was recording.
    let recording = sink.take();
    assert!(recording.totals().serviced() > 0, "sink recorded nothing");
    assert!(recording.event_count() > 0);
}

/// A rate-zero armed fault layer draws no randomness and defers nothing:
/// the run must be bit-identical to one without the layer armed at all.
/// Since an unarmed `FaultyDevice` delegates straight to the inner device,
/// this pins the `faults` build to the plain build's numbers.
#[cfg(feature = "faults")]
#[test]
fn inert_fault_layer_is_bit_identical_to_unarmed() {
    use cameo_repro::cameo::recovery::RecoveryConfig;
    use cameo_repro::memsim::faults::FaultConfig;

    let cfg = quick();
    let plain = run(&cfg, cameo_org(&cfg));
    let armed = run(
        &cfg,
        cameo_org(&cfg)
            .with_fault_injection(FaultConfig::default(), 0xFA17)
            .with_recovery(RecoveryConfig::full()),
    );
    assert_eq!(plain, armed);
}
