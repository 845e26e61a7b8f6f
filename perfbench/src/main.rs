//! Host-time benchmark of the CAMEO simulator: end-to-end metrics with
//! tracing off, per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cameo-mcf --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `perfbench/README.md` for the workloads and metrics.

mod layers;
mod probe;
mod report;
mod timing;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cameo::PredictionCaseCounts;
use cameo_bench::perf::peak_rss_bytes;
use cameo_sim::experiments::OrgKind;
use cameo_sim::RunStats;

use probe::HostSpeed;
use report::{median, Checker};
use workload::{Mode, Pass, PointRun, Workload};

const USAGE: &str = "usage: perfbench --workload <cameo-mcf|designs-lbm> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Repetitions a timed run makes however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Host-speed probes a timed run makes however short `--seconds` is.
const MIN_PROBES: usize = 16;

/// Set-up-only passes a timed run makes however long they take.
const MIN_SETUP_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut checker = Checker::default();
    let (values, declared) = if args.trace {
        (traced_run(&args, &mut checker), report::per_layer())
    } else {
        let declared = report::END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), *u))
            .collect();
        (timed_run(&args, &mut checker), declared)
    };
    for problem in &checker.problems {
        println!("FAILED {problem}");
    }
    let designs = args.workload.designs();
    for (name, unit) in &declared {
        if let Some(v) = values.get(name) {
            println!("{name:<36} {v:>16.6} {unit}");
        }
    }
    match report::result_line(&checker, &declared, &values, &designs) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Statistics of every point of `pass` that passed its checks.
fn checked<'a>(checker: &mut Checker, label: &str, pass: &'a Pass) -> Vec<&'a RunStats> {
    pass.points
        .iter()
        .filter_map(|p| checker.point(label, p))
        .collect()
}

/// Host seconds of `pass`'s event loop, in pieces that do the same
/// work in every repetition: each timed step of a serial point, and the
/// busy time of a point the harness ran, less its median set-up time
/// (the harness does not split the two).
fn run_pieces(pass: &Pass, setup_by_slug: &BTreeMap<&str, Vec<f64>>) -> Vec<f64> {
    pass.points
        .iter()
        .flat_map(|p| match p.phases {
            Some(_) => p.chunks_s.clone(),
            None => vec![(p.busy_s - median(&setup_by_slug[p.design.slug])).max(0.0)],
        })
        .collect()
}

/// The smallest of `values`.
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Σ over positions of `pick` of the pieces at that position over passes.
fn sum_by_position(pieces: &[Vec<f64>], pick: fn(&[f64]) -> f64) -> f64 {
    let len = pieces.iter().map(Vec::len).max().unwrap_or(0);
    (0..len)
        .map(|k| {
            let at_k: Vec<f64> = pieces.iter().filter_map(|p| p.get(k).copied()).collect();
            pick(&at_k)
        })
        .sum()
}

/// `--trace 0`: repeat the workload, with host-speed probes and
/// set-up-only passes between repetitions, until `--seconds` have
/// passed. Times are scaled to the reference host's speed by the probes.
fn timed_run(args: &Args, checker: &mut Checker) -> BTreeMap<String, f64> {
    let w = args.workload;
    let config = w.config(args.seed);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut reps: Vec<Pass> = vec![w.rep(&config)];
    // One run of the workload is what its users pay for; later
    // repetitions reuse a heap the first left fragmented, so the
    // high-water mark keeps creeping up with the repetition count.
    let peak_rss_mib = peak_rss_bytes().unwrap_or(0) as f64 / f64::from(1 << 20);
    let mut speed = HostSpeed::default();
    let mut probe_time = Duration::ZERO;

    // Set-up-only passes build and prefill each point, then drop it.
    // They follow each repetition until they have taken a tenth of the
    // time so far, so the samples spread over the whole run as the
    // repetitions do. They also give the harness's points the set-up
    // time taken off their busy time, which the harness does not split.
    let mut setup_passes: Vec<Pass> = Vec::new();
    let mut setup_time = Duration::ZERO;
    loop {
        while setup_passes.len() < MIN_SETUP_PASSES || setup_time < start.elapsed() / 10 {
            let pass_start = Instant::now();
            let pass = w.serial_pass(&config, Mode::Setup);
            setup_time += pass_start.elapsed();
            checked(checker, "set-up", &pass);
            setup_passes.push(pass);
        }
        if reps.len() >= MIN_REPS && start.elapsed() >= budget {
            break;
        }
        // Probes take a fiftieth of the time, spread like the set-up passes.
        while speed.len() < MIN_PROBES || probe_time < start.elapsed() / 50 {
            probe_time += Duration::from_secs_f64(speed.sample());
        }
        reps.push(w.rep(&config));
    }
    // Serial repetitions time their own build and prefill, so they are
    // set-up samples too.
    let mut setups: Vec<f64> = Vec::new();
    let mut setup_by_slug: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for pass in reps.iter().chain(&setup_passes) {
        let Some(phases) = pass
            .points
            .iter()
            .map(|p| p.phases)
            .collect::<Option<Vec<_>>>()
        else {
            continue;
        };
        setups.push(phases.iter().map(workload::Phases::setup_s).sum());
        for (p, ph) in pass.points.iter().zip(&phases) {
            setup_by_slug
                .entry(p.design.slug)
                .or_default()
                .push(ph.setup_s());
        }
    }

    let first = checked(checker, "rep 0", &reps[0]);
    let digest = report::sim_digest(first.iter().copied());
    let accesses: u64 = first.iter().map(|s| s.accesses()).sum();
    for (i, rep) in reps.iter().enumerate().skip(1) {
        // Same seed, so the same statistics as the first repetition.
        check_equal(checker, &format!("rep {i}"), rep, &reps[0]);
    }
    let pieces: Vec<Vec<f64>> = reps
        .iter()
        .map(|rep| run_pieces(rep, &setup_by_slug))
        .collect();
    let walls: Vec<f64> = reps.iter().map(|rep| rep.wall_s).collect();
    let (wall_s, run_s) = if w.jobs() == 1 {
        // A step takes milliseconds, short beside the host's bursts of
        // interference, so its fastest time over the repetitions is the
        // step run undisturbed. Time outside the steps (build, prefill,
        // teardown) is taken the same way.
        let run_s = sum_by_position(&pieces, fastest);
        let outside: Vec<f64> = walls
            .iter()
            .zip(&pieces)
            .map(|(wall, p)| wall - p.iter().sum::<f64>())
            .collect();
        (fastest(&outside) + run_s, run_s)
    } else {
        // Harness points and repetitions take seconds, as long as the
        // bursts: the median is typical, the fastest a rare lull.
        let run_s = sum_by_position(&pieces, median);
        (median(&walls), run_s)
    };
    let setup_s = median(&setups);
    let scale = speed.scale();
    println!(
        "workload {} seed {}: {} repetitions, {} set-up passes",
        w.name(),
        args.seed,
        reps.len(),
        setup_passes.len()
    );
    println!(
        "host seconds: wall {wall_s:.6}, run phase {run_s:.6}, set-up {setup_s:.6}; \
         {} probes, fastest {:.6} ms, median {:.6} ms (reference {:.6} ms)",
        speed.len(),
        speed.fastest_s() * 1e3,
        speed.median_s() * 1e3,
        probe::REFERENCE_PROBE_S * 1e3
    );
    println!("sim_digest {} {digest}", w.name());

    let attempted = checker.attempted as f64;
    BTreeMap::from([
        ("wall_s".to_owned(), wall_s * scale),
        ("setup_s".to_owned(), setup_s * scale),
        (
            "accesses_per_s".to_owned(),
            accesses as f64 / (run_s * scale),
        ),
        ("peak_rss_mib".to_owned(), peak_rss_mib),
        (
            "points_ok_frac".to_owned(),
            (attempted - checker.failed as f64) / attempted,
        ),
    ])
}

/// Checks every point of `pass` and compares it with the same point of
/// `reference`. A point that passed its own checks but differs from a
/// reference point that ran counts as failed. Returns the statistics of
/// the points that passed.
fn check_equal<'a>(
    checker: &mut Checker,
    label: &str,
    pass: &'a Pass,
    reference: &Pass,
) -> Vec<&'a RunStats> {
    let mut passed = Vec::new();
    for (p, r) in pass.points.iter().zip(&reference.points) {
        let Some(stats) = checker.point(label, p) else {
            continue;
        };
        match r.stats() {
            Some(expected) if expected != stats => checker.mismatch(label, &p.design),
            _ => passed.push(stats),
        }
    }
    passed
}

/// Per-layer metrics from the spans of one traced pass.
fn span_metrics(traced: &Pass, timer_ns: f64) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let (mut events, mut accesses, mut self_ns) = (timing::Span::default(), 0u64, 0.0);
    for p in &traced.points {
        let (Some(layers), Some(phases)) = (p.layers, p.phases) else {
            continue;
        };
        events.merge(&layers.next_event);
        accesses += layers.access.calls;
        self_ns += phases.run_s * 1e9
            - layers.next_event.total_ns(timer_ns)
            - layers.access.total_ns(timer_ns);
        m.insert(
            format!("org.access_ns.{}", p.design.slug),
            layers.access.mean_ns(timer_ns),
        );
    }
    m.insert("workloads.next_event_ns".into(), events.mean_ns(timer_ns));
    m.insert("workloads.events".into(), events.calls as f64);
    m.insert("runner.accesses_total".into(), accesses as f64);
    m.insert(
        "runner.self_ns_per_access".into(),
        self_ns / accesses.max(1) as f64,
    );
    m
}

/// Per-layer metrics from the phase times of one serial untraced pass.
fn phase_metrics(serial: &Pass) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let phases: Vec<_> = serial
        .points
        .iter()
        .filter_map(|p| p.phases.map(|ph| (p.design.slug, ph)))
        .collect();
    m.insert(
        "setup.build_s".into(),
        phases.iter().map(|(_, p)| p.build_s).sum(),
    );
    m.insert("run.s".into(), phases.iter().map(|(_, p)| p.run_s).sum());
    for (slug, p) in &phases {
        m.insert(format!("setup.prefill_s.{slug}"), p.prefill_s);
    }
    m
}

/// Median of each metric over several passes' samples.
fn medians(samples: impl IntoIterator<Item = BTreeMap<String, f64>>) -> BTreeMap<String, f64> {
    let mut all: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for sample in samples {
        for (name, value) in sample {
            all.entry(name).or_default().push(value);
        }
    }
    all.into_iter()
        .map(|(name, values)| (name, median(&values)))
        .collect()
}

/// `--trace 1`: the workload once as users run it, then serial
/// untraced and traced passes in turn until `--seconds` have passed, then
/// the isolated inner-layer replays. Phase and span metrics are medians
/// over the passes; for serial workloads the first untraced pass is the
/// users' run itself.
fn traced_run(args: &Args, checker: &mut Checker) -> BTreeMap<String, f64> {
    let w = args.workload;
    let config = w.config(args.seed);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    // First in the process, so that its resident growth is first touch.
    let resident = w.resident_pass(&config);
    checked(checker, "resident", &resident);
    let reference = w.rep(&config);
    let stats = checked(checker, "untraced", &reference);
    let timer_ns = timing::timer_ns();
    let mut serial: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    if w.jobs() == 1 {
        serial.push(reference.clone());
    }
    while traced.is_empty() || start.elapsed() < budget {
        let mode = if serial.len() > traced.len() {
            Mode::Traced
        } else {
            Mode::Untraced
        };
        let pass = w.serial_pass(&config, mode);
        check_equal(checker, &format!("{mode:?}"), &pass, &reference);
        if mode == Mode::Traced {
            traced.push(pass);
        } else {
            serial.push(pass);
        }
    }
    let traced_stats: Vec<&RunStats> = traced[0]
        .points
        .iter()
        .filter_map(PointRun::stats)
        .collect();
    println!(
        "sim_digest {} {}",
        w.name(),
        report::sim_digest(stats.iter().copied())
    );
    println!(
        "sim_digest {} traced {}",
        w.name(),
        report::sim_digest(traced_stats.iter().copied())
    );
    println!(
        "{} untraced and {} traced serial passes",
        serial.len(),
        traced.len()
    );

    let mut m = medians(traced.iter().map(|p| span_metrics(p, timer_ns)));
    m.extend(medians(serial.iter().map(phase_metrics)));
    let wall = |passes: &[Pass]| median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let overhead = wall(&traced) - wall(&serial);
    let mut put = |name: String, value: f64| {
        m.insert(name, value);
    };
    put("trace.overhead_s".into(), overhead);
    put("trace.timer_ns".into(), timer_ns);
    for p in &resident.points {
        if let Some(phases) = p.phases {
            put(
                format!("org.resident_mib.{}", p.design.slug),
                phases.resident_bytes as f64 / f64::from(1 << 20),
            );
        }
    }

    let busy: f64 = reference.points.iter().map(|p| p.busy_s).sum();
    put(
        "harness.parallel_efficiency".into(),
        busy / (w.jobs() as f64 * reference.wall_s),
    );

    // Isolated inner layers, on the workload's own streams.
    let costs = layers::replay(&w.bench(), &config, layers::REPLAY_EVENTS);
    put("vmem.translate_ns".into(), costs.translate_ns);
    put("core.llt_locate_ns".into(), costs.llt_locate_ns);
    put("core.llt_promote_ns".into(), costs.llt_promote_ns);
    put("core.llp_predict_ns".into(), costs.llp_predict_ns);
    put("memsim.read_line_ns".into(), costs.read_line_ns);
    put("cachesim.alloy_probe_ns".into(), costs.alloy_probe_ns);
    put("cachesim.alloy_fill_ns".into(), costs.alloy_fill_ns);

    // Exact counts, from the untraced statistics.
    let sum = |f: &dyn Fn(&RunStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64;
    let measured = sum(&|s| s.accesses()).max(1.0);
    put(
        "vmem.faults_per_kaccess".into(),
        1e3 * sum(&|s| s.faults) / measured,
    );
    put(
        "vmem.migrated_pages_per_kaccess".into(),
        1e3 * sum(&|s| s.migrated_pages) / measured,
    );
    put(
        "memsim.stacked_bytes_per_access".into(),
        sum(&|s| s.bandwidth.stacked_bytes) / measured,
    );
    put(
        "memsim.off_chip_bytes_per_access".into(),
        sum(&|s| s.bandwidth.off_chip_bytes) / measured,
    );
    let mut cases = PredictionCaseCounts::default();
    let (mut stacked, mut reads) = (0u64, 0u64);
    for p in &reference.points {
        let (OrgKind::Cameo { .. }, Ok(Some(s))) = (p.design.kind, &p.outcome) else {
            continue;
        };
        if let Some(c) = &s.cases {
            cases.merge(c);
        }
        stacked += s.serviced_stacked;
        reads += s.demand_reads;
    }
    put("core.llp_accuracy".into(), cases.accuracy().unwrap_or(0.0));
    put(
        "core.stacked_service_rate".into(),
        stacked as f64 / reads.max(1) as f64,
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pieces_are_picked_position_by_position() {
        let pieces = vec![vec![3.0, 1.0, 5.0], vec![2.0, 4.0], vec![6.0, 2.0, 1.0]];
        assert_eq!(sum_by_position(&pieces, fastest), 2.0 + 1.0 + 1.0);
        assert_eq!(sum_by_position(&pieces, median), 3.0 + 2.0 + 3.0);
        assert_eq!(sum_by_position(&[], fastest), 0.0);
    }
}
