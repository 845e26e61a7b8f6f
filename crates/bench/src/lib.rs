//! Shared harness for the figure/table binaries.
//!
//! Every binary accepts the same flags:
//!
//! ```text
//! --scale N          capacity scale factor (default 128)
//! --cores N          rate-mode cores (default 8)
//! --instructions N   measured+warmup instructions per core (default 12M)
//! --seed N           deterministic seed (default 42)
//! --bench NAME       restrict to one benchmark (repeatable)
//! --jobs N           parallel sweep workers (default: all host cores; 0 = auto)
//! --chunk N          split each point into resumable chunks of N accesses so
//!                    idle workers can steal long points (default: off)
//! --bench-json PATH  write the machine-readable BENCH_sweep.json perf artifact
//! --trace-out PATH   arm event tracing; write PATH (JSONL) + PATH.chrome.json
//! --quick            small smoke-test configuration
//! --csv              emit CSV instead of an aligned table
//! ```
//!
//! and prints the regenerated rows/series of one paper table or figure.
//! Results are deterministic at any `--jobs` value: points are
//! independent and the harness reassembles them in canonical order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::path::PathBuf;

use cameo_sim::checkpoint::PointRecord;
use cameo_sim::experiments::{gmean, OrgKind};
use cameo_sim::harness::{
    run_sweep, run_sweep_traced, EpochSpillFactory, SweepOptions, SweepPoint, SweepReport,
};
use cameo_sim::report::Table;
use cameo_sim::trace::TraceOptions;
use cameo_sim::{RunStats, SystemConfig};
use cameo_workloads::{suite, BenchSpec, Category};

pub mod designs;
pub mod fullscale;
pub mod perf;
pub mod trace_export;

/// Parsed command line shared by all figure binaries.
#[derive(Clone, Debug)]
pub struct Cli {
    /// System configuration assembled from the flags.
    pub config: SystemConfig,
    /// Emit CSV instead of aligned text.
    pub csv: bool,
    /// The benchmarks to run.
    pub benches: Vec<BenchSpec>,
    /// Sweep worker threads (`--jobs`; defaults to the host's available
    /// parallelism).
    pub jobs: usize,
    /// Chunked execution: simulated accesses per scheduling chunk
    /// (`--chunk`); `None` drives each point to completion in one go.
    pub chunk: Option<u64>,
    /// Where to write the `BENCH_sweep.json` perf artifact, if anywhere.
    pub bench_json: Option<PathBuf>,
    /// Where to write the JSONL event dump (`--trace-out`); the
    /// Chrome-trace sibling lands next to it. `None` keeps the sweep on
    /// the no-op sink — tracing compiled to nothing.
    pub trace_out: Option<PathBuf>,
}

/// The flags every figure binary accepts, printed with `--help` and after
/// a command-line error.
pub const USAGE: &str = "flags: --scale N --cores N --instructions N --seed N --mlp N --ipc X \
                         --bench NAME (repeatable) --jobs N --chunk N --bench-json PATH \
                         --trace-out PATH --quick --csv";

/// Why a command line was rejected.
#[derive(Clone, PartialEq, Debug)]
pub enum CliError {
    /// A flag that takes a value came last.
    MissingValue {
        /// The flag.
        flag: String,
    },
    /// A flag's value did not parse as the type the flag takes.
    BadValue {
        /// The flag.
        flag: String,
        /// The value given.
        value: String,
    },
    /// A flag no binary accepts.
    UnknownFlag(String),
    /// A `--bench` name outside the Table II suite.
    UnknownBenchmark(String),
    /// The flags parsed but describe an impossible configuration.
    InvalidConfig(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::MissingValue { flag } => write!(f, "{flag} needs a value"),
            CliError::BadValue { flag, value } => write!(f, "invalid value {value:?} for {flag}"),
            CliError::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
            CliError::UnknownBenchmark(e) => f.write_str(e),
            CliError::InvalidConfig(e) => write!(f, "invalid configuration from CLI flags: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl Cli {
    /// Parses `std::env::args`, exiting as [`Cli::from_args`] does on a bad
    /// command line.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit argument list. On a bad command line, prints the
    /// error and [`USAGE`] to stderr and exits with status 2.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        Self::try_from_args(args).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// Parses an explicit argument list (testable).
    ///
    /// # Errors
    ///
    /// Returns the first [`CliError`] the arguments contain.
    pub fn try_from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Self, CliError> {
        let mut config = SystemConfig::default();
        let mut csv = false;
        let mut names: Vec<String> = Vec::new();
        let mut jobs = 0usize; // 0 = auto (available parallelism)
        let mut chunk = None;
        let mut bench_json = None;
        let mut trace_out = None;
        let mut it = args.into_iter();
        fn value<T: std::str::FromStr>(
            it: &mut dyn Iterator<Item = String>,
            flag: &str,
        ) -> Result<T, CliError> {
            let value = it.next().ok_or_else(|| CliError::MissingValue {
                flag: flag.to_owned(),
            })?;
            value.parse().map_err(|_| CliError::BadValue {
                flag: flag.to_owned(),
                value,
            })
        }
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => config.scale = value(&mut it, "--scale")?,
                "--cores" => config.cores = value(&mut it, "--cores")?,
                "--instructions" => {
                    config.instructions_per_core = value(&mut it, "--instructions")?;
                }
                "--seed" => config.seed = value(&mut it, "--seed")?,
                "--mlp" => config.mlp = value(&mut it, "--mlp")?,
                "--ipc" => config.ipc = value(&mut it, "--ipc")?,
                "--bench" => names.push(value(&mut it, "--bench")?),
                "--jobs" => jobs = value(&mut it, "--jobs")?,
                "--chunk" => chunk = Some(value(&mut it, "--chunk")?),
                "--bench-json" => bench_json = Some(value(&mut it, "--bench-json")?),
                "--trace-out" => trace_out = Some(value(&mut it, "--trace-out")?),
                "--quick" => {
                    config.scale = 512;
                    config.cores = 2;
                    config.instructions_per_core = 200_000;
                }
                "--csv" => csv = true,
                "--help" | "-h" => {
                    println!("{USAGE}");
                    std::process::exit(0);
                }
                other => return Err(CliError::UnknownFlag(other.to_owned())),
            }
        }
        config
            .validate()
            .map_err(|e| CliError::InvalidConfig(e.to_string()))?;
        let benches = if names.is_empty() {
            suite()
        } else {
            names
                .iter()
                .map(|n| {
                    cameo_workloads::require(n)
                        .map_err(|e| CliError::UnknownBenchmark(e.to_string()))
                })
                .collect::<Result<_, _>>()?
        };
        if jobs == 0 {
            jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        }
        Ok(Self {
            config,
            csv,
            benches,
            jobs,
            chunk,
            bench_json,
            trace_out,
        })
    }

    /// Writes the `BENCH_sweep.json` perf artifact for a finished sweep
    /// if `--bench-json` was given, and echoes the throughput gauges to
    /// stderr either way.
    pub fn emit_perf(&self, sweep_name: &str, report: &SweepReport) {
        eprintln!(
            "[perf] {sweep_name}: {:.2}s wall, {} points ({} resumed), \
             {:.0} accesses/s, {:.0} cycles/s",
            report.wall_seconds(),
            report.outcomes.len(),
            report.resumed(),
            report.accesses_per_sec().unwrap_or(0.0),
            report.cycles_per_sec().unwrap_or(0.0),
        );
        if let Some(path) = &self.bench_json {
            perf::write_sweep_json(path, sweep_name, self.jobs, &self.config, report)
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            eprintln!("[perf] wrote {}", path.display());
        }
    }

    /// Writes the `--trace-out` JSONL and Chrome-trace artifacts for a
    /// traced sweep, if the flag was given; a no-op otherwise.
    pub fn emit_trace(&self, sweep_name: &str, report: &SweepReport) {
        if let Some(path) = &self.trace_out {
            trace_export::write_trace_artifacts(path, sweep_name, report)
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            eprintln!(
                "[trace] wrote {} and {}",
                path.display(),
                trace_export::chrome_path(path).display()
            );
        }
    }

    /// Prints a table in the selected format.
    pub fn emit(&self, table: &Table) {
        if self.csv {
            print!("{}", table.to_csv());
        } else {
            print!("{table}");
        }
    }
}

/// Per-benchmark baseline stats and per-benchmark rows of column stats,
/// as [`run_grid`] splits them out of a finished sweep.
type GridRuns = (
    BTreeMap<String, RunStats>,
    BTreeMap<String, Vec<RunStats>>,
    SweepReport,
);

/// Runs a grid sweep through the default sweep path across [`Cli::jobs`]
/// workers: `points` holds, per benchmark of `cli` and in that order, one
/// baseline point followed by `columns` column points. `--trace-out` arms
/// per-point recording sinks (spilling epochs through `spill`); results
/// are bit-identical either way (the harness guarantees report equality).
///
/// # Panics
///
/// Panics if any point fails — figure binaries want broken points loud,
/// not silently missing columns.
fn run_grid(
    points: &[SweepPoint],
    columns: usize,
    cli: &Cli,
    trace_opts: TraceOptions,
    spill: &EpochSpillFactory<'_>,
) -> GridRuns {
    let opts = SweepOptions {
        config: cli.config,
        max_attempts: 1,
        jobs: cli.jobs,
        chunk_accesses: cli.chunk,
        ..SweepOptions::default()
    };
    let report = if cli.trace_out.is_some() {
        run_sweep_traced(points, &opts, None, trace_opts, spill)
    } else {
        run_sweep(points, &opts, None)
    }
    .unwrap_or_else(|e| panic!("sweep failed before any checkpointing: {e}"));

    let mut outcomes = report.outcomes.iter();
    let mut take = || {
        let outcome = outcomes
            .next()
            .expect("the report has one outcome per submitted point");
        match &outcome.record {
            PointRecord::Done { stats, .. } => (**stats).clone(),
            PointRecord::Failed { error, .. } => {
                panic!("design point {} failed: {error}", outcome.point.key)
            }
        }
    };
    let mut baselines = BTreeMap::new();
    let mut runs = BTreeMap::new();
    for bench in &cli.benches {
        let base = take();
        let row: Vec<RunStats> = (0..columns).map(|_| take()).collect();
        baselines.insert(bench.name.to_owned(), base);
        runs.insert(bench.name.to_owned(), row);
    }
    (baselines, runs, report)
}

/// All per-benchmark runs of one experiment: `results[bench][kind]`.
pub struct SpeedupGrid {
    /// The organizations compared, in column order.
    pub kinds: Vec<OrgKind>,
    /// Per-benchmark baseline stats.
    pub baselines: BTreeMap<String, RunStats>,
    /// Per-benchmark, per-organization stats.
    pub runs: BTreeMap<String, Vec<RunStats>>,
    /// Benchmark order.
    pub order: Vec<BenchSpec>,
    /// The underlying sweep report, carrying per-point and per-sweep
    /// wall-clock and throughput gauges (see [`Cli::emit_perf`]).
    pub report: SweepReport,
}

impl SpeedupGrid {
    /// Runs the baseline plus every `kind` for every benchmark in `cli`
    /// through the sweep harness, across [`Cli::jobs`] workers.
    ///
    /// # Panics
    ///
    /// Panics if any design point fails — figure binaries want broken
    /// points loud, not silently missing columns.
    pub fn collect(kinds: &[OrgKind], cli: &Cli) -> Self {
        Self::collect_spilling(kinds, cli, TraceOptions::default(), &|_| None)
    }

    /// [`SpeedupGrid::collect`], with explicit trace options and a
    /// per-point epoch-spill factory for the streaming flat-memory path:
    /// when `--trace-out` is armed, epochs evicted from the bounded
    /// retention ring are handed to the hook `spill` returns for the
    /// point instead of accumulating in the sink (see
    /// [`cameo_sim::trace::EpochSeries`]).
    ///
    /// # Panics
    ///
    /// Panics if any design point fails, like [`SpeedupGrid::collect`].
    pub fn collect_spilling(
        kinds: &[OrgKind],
        cli: &Cli,
        trace_opts: TraceOptions,
        spill: &EpochSpillFactory<'_>,
    ) -> Self {
        // Column-indexed keys: stable for checkpoints and immune to two
        // columns sharing an organization label.
        let mut points = Vec::with_capacity(cli.benches.len() * (kinds.len() + 1));
        for bench in &cli.benches {
            points.push(
                SweepPoint::new(bench.name, OrgKind::Baseline)
                    .with_key(format!("{}::#base", bench.name)),
            );
            for (col, kind) in kinds.iter().enumerate() {
                points.push(
                    SweepPoint::new(bench.name, *kind).with_key(format!("{}::#{col}", bench.name)),
                );
            }
        }
        eprintln!(
            "[sweep] {} points ({} benches x {} orgs) across {} worker(s)",
            points.len(),
            cli.benches.len(),
            kinds.len() + 1,
            cli.jobs.max(1),
        );
        let (baselines, runs, report) = run_grid(&points, kinds.len(), cli, trace_opts, spill);
        Self {
            kinds: kinds.to_vec(),
            baselines,
            runs,
            order: cli.benches.clone(),
            report,
        }
    }

    /// Speedup of `kind` (by column index) on `bench`.
    pub fn speedup(&self, bench: &str, col: usize) -> f64 {
        self.runs[bench][col].speedup_over(&self.baselines[bench])
    }

    /// Renders the classic per-benchmark speedup table with per-category
    /// and overall geometric means (the layout of Figures 2, 9, 12, 13,
    /// 15).
    pub fn speedup_table(&self) -> Table {
        let mut headers = vec!["bench".to_owned(), "category".to_owned()];
        headers.extend(self.kinds.iter().map(|k| k.label().to_owned()));
        let mut table = Table::new(headers);
        for bench in &self.order {
            let mut row = vec![bench.name.to_owned(), bench.category.to_string()];
            for col in 0..self.kinds.len() {
                row.push(format!("{:.2}x", self.speedup(bench.name, col)));
            }
            table.row(row);
        }
        for (label, filter) in [
            ("Gmean Capacity", Some(Category::CapacityLimited)),
            ("Gmean Latency", Some(Category::LatencyLimited)),
            ("Gmean ALL", None),
        ] {
            let selected: Vec<&BenchSpec> = self
                .order
                .iter()
                .filter(|b| filter.is_none_or(|c| b.category == c))
                .collect();
            if selected.is_empty() {
                continue;
            }
            let mut row = vec![label.to_owned(), String::new()];
            for col in 0..self.kinds.len() {
                let g = gmean(selected.iter().map(|b| self.speedup(b.name, col)))
                    .expect("non-empty category");
                row.push(format!("{g:.2}x"));
            }
            table.row(row);
        }
        table
    }

    /// Geometric-mean speedup of one column over all benchmarks.
    pub fn gmean_all(&self, col: usize) -> f64 {
        gmean(self.order.iter().map(|b| self.speedup(b.name, col))).expect("benchmarks present")
    }

    /// ASCII bar chart of the overall geometric means — a terminal
    /// rendition of the figure's summary bars.
    pub fn gmean_chart(&self) -> String {
        let rows: Vec<(String, f64)> = self
            .kinds
            .iter()
            .enumerate()
            .map(|(col, kind)| (kind.label().to_owned(), self.gmean_all(col)))
            .collect();
        cameo_sim::report::bar_chart(&rows, 40)
    }
}

/// Prints the standard experiment header (configuration echo) to stderr.
pub fn print_header(what: &str, cli: &Cli) {
    eprintln!(
        "== {what} | scale 1/{} ({} stacked + {} off-chip), {} cores, {} instr/core, seed {} ==",
        cli.config.scale,
        cli.config.stacked(),
        cli.config.off_chip(),
        cli.config.cores,
        cli.config.instructions_per_core,
        cli.config.seed,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Cli {
        Cli::from_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn defaults() {
        let cli = args("");
        assert_eq!(cli.config.scale, 128);
        assert_eq!(cli.benches.len(), 17);
        assert!(!cli.csv);
    }

    #[test]
    fn flags_parse() {
        let cli = args("--scale 128 --cores 4 --instructions 1000000 --seed 7 --csv");
        assert_eq!(cli.config.scale, 128);
        assert_eq!(cli.config.cores, 4);
        assert_eq!(cli.config.instructions_per_core, 1_000_000);
        assert_eq!(cli.config.seed, 7);
        assert!(cli.csv);
    }

    #[test]
    fn bench_filter() {
        let cli = args("--bench mcf --bench milc");
        let names: Vec<&str> = cli.benches.iter().map(|b| b.name).collect();
        assert_eq!(names, vec!["mcf", "milc"]);
    }

    #[test]
    fn quick_mode() {
        let cli = args("--quick");
        assert_eq!(cli.config.scale, 512);
        assert_eq!(cli.config.cores, 2);
    }

    #[test]
    fn chunk_parses_and_defaults_off() {
        assert_eq!(args("--chunk 50000").chunk, Some(50_000));
        assert_eq!(args("").chunk, None);
    }

    #[test]
    fn jobs_and_bench_json_parse() {
        let cli = args("--jobs 3 --bench-json /tmp/b.json");
        assert_eq!(cli.jobs, 3);
        assert_eq!(
            cli.bench_json.as_deref(),
            Some(std::path::Path::new("/tmp/b.json"))
        );
        // `--jobs 0` (and the default) resolve to the host parallelism,
        // which is always at least one worker.
        assert!(args("--jobs 0").jobs >= 1);
        assert!(args("").jobs >= 1);
    }

    #[test]
    fn trace_out_parses_and_defaults_off() {
        let cli = args("--trace-out /tmp/fig.trace");
        assert_eq!(
            cli.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/fig.trace"))
        );
        assert!(args("").trace_out.is_none());
    }

    fn rejected(s: &str) -> CliError {
        Cli::try_from_args(s.split_whitespace().map(str::to_owned))
            .expect_err("the command line is malformed")
    }

    #[test]
    fn unknown_bench_rejected() {
        let err = rejected("--bench nosuch");
        assert!(matches!(err, CliError::UnknownBenchmark(_)));
        assert!(err.to_string().contains("unknown benchmark"), "{err}");
    }

    #[test]
    fn unknown_flag_rejected() {
        assert_eq!(
            rejected("--frobnicate"),
            CliError::UnknownFlag("--frobnicate".to_owned())
        );
    }

    #[test]
    fn bad_values_name_the_flag_and_the_value() {
        for (line, flag, value) in [
            ("--scale abc", "--scale", "abc"),
            ("--quick --ipc x", "--ipc", "x"),
        ] {
            let err = rejected(line);
            assert_eq!(
                err,
                CliError::BadValue {
                    flag: flag.to_owned(),
                    value: value.to_owned()
                }
            );
            assert_eq!(
                err.to_string(),
                format!("invalid value {value:?} for {flag}")
            );
        }
        assert_eq!(
            rejected("--seed"),
            CliError::MissingValue {
                flag: "--seed".to_owned()
            }
        );
        assert!(matches!(rejected("--scale 0"), CliError::InvalidConfig(_)));
    }
}
