//! Metric names, output checks and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cameo_sim::RunStats;

use crate::workload::{Design, PointRun, DESIGNS};

/// End-to-end metrics: name and unit. Printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("accesses_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("points_ok_frac", "ratio"),
];

/// Per-layer metrics, name and unit, in output order. Printed with
/// `--trace 1`. Organization-suffixed names exist for every design in
/// [`DESIGNS`]; a workload reports 0 for designs it does not run.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit| names.push((name.to_owned(), unit));
    add("setup.build_s", "s");
    for d in DESIGNS {
        add(&format!("setup.prefill_s.{}", d.slug), "s");
    }
    for d in DESIGNS {
        add(&format!("org.resident_mib.{}", d.slug), "MiB");
    }
    add("run.s", "s");
    add("workloads.next_event_ns", "ns");
    add("workloads.events", "count");
    add("runner.self_ns_per_access", "ns");
    add("runner.accesses_total", "count");
    for d in DESIGNS {
        add(&format!("org.access_ns.{}", d.slug), "ns");
    }
    add("harness.parallel_efficiency", "ratio");
    add("vmem.translate_ns", "ns");
    add("core.llt_locate_ns", "ns");
    add("core.llt_promote_ns", "ns");
    add("core.llp_predict_ns", "ns");
    add("memsim.read_line_ns", "ns");
    add("cachesim.alloy_probe_ns", "ns");
    add("cachesim.alloy_fill_ns", "ns");
    add("vmem.faults_per_kaccess", "1/kaccess");
    add("vmem.migrated_pages_per_kaccess", "1/kaccess");
    add("core.llp_accuracy", "ratio");
    add("core.stacked_service_rate", "ratio");
    add("memsim.stacked_bytes_per_access", "B");
    add("memsim.off_chip_bytes_per_access", "B");
    add("trace.overhead_s", "s");
    add("trace.timer_ns", "ns");
    names
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn is_name_safe(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The checks `RunStats::audit()` makes (crates/sim/src/stats.rs:121),
/// kept in step with it: served reads never exceed demand reads, and the
/// latency histogram counts every demand read once. `RunStats::audit()`
/// itself is compiled only with the simulator's `deep-audit` feature,
/// which also arms hot-path audits that would change what is timed.
/// A point must also have measured accesses.
pub fn audit(stats: &RunStats) -> Result<(), String> {
    let served = stats.serviced_stacked + stats.serviced_off_chip;
    if served > stats.demand_reads {
        return Err(format!(
            "served reads ({served}) exceed demand reads ({})",
            stats.demand_reads
        ));
    }
    let histogram: u64 = stats.latency_histogram.iter().sum();
    if histogram != stats.demand_reads {
        return Err(format!(
            "latency histogram counts {histogram} reads, {} were demanded",
            stats.demand_reads
        ));
    }
    if stats.accesses() == 0 {
        return Err("no measured accesses".to_owned());
    }
    Ok(())
}

/// FNV-1a digest of every point's `RunStats`, in design order.
pub fn sim_digest<'a>(stats: impl IntoIterator<Item = &'a RunStats>) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for s in stats {
        for byte in format!("{s:?}").bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// Counts attempted and failed points and collects what went wrong.
#[derive(Debug, Default)]
pub struct Checker {
    /// Points attempted.
    pub attempted: u64,
    /// Points that panicked, failed the audit, or disagreed with the
    /// run they must equal.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
}

impl Checker {
    /// Counts one point and returns its statistics if it passed.
    pub fn point<'a>(&mut self, label: &str, p: &'a PointRun) -> Option<&'a RunStats> {
        self.attempted += 1;
        let checked = match &p.outcome {
            Ok(Some(stats)) => audit(stats).map(|()| Some(stats)),
            Ok(None) => Ok(None),
            Err(e) => Err(e.clone()),
        };
        checked.unwrap_or_else(|e| {
            self.fail(format!("{label} {}: {e}", p.design.slug));
            None
        })
    }

    /// Counts a point whose statistics differ from the run they must
    /// equal; the point was already attempted.
    pub fn mismatch(&mut self, label: &str, design: &Design) {
        self.fail(format!("{label} {}: statistics differ", design.slug));
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => f64::midpoint(v[n / 2 - 1], v[n / 2]),
    }
}

/// Assembles the result line: every name of `declared` with its value
/// from `values`. A name missing from `values` is an error, except an
/// organization-suffixed name of a design outside `designs`, which
/// reads 0.
pub fn result_line(
    checker: &Checker,
    declared: &[(String, &str)],
    values: &BTreeMap<String, f64>,
    designs: &[Design],
) -> Result<String, String> {
    if let Some(extra) = values
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("measured metric {extra} is not declared"));
    }
    if let Some((unsafe_name, _)) = declared.iter().find(|(n, _)| !is_name_safe(n)) {
        return Err(format!("metric name {unsafe_name} is not name-safe"));
    }
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checker.failed == 0,
        checker.attempted,
        checker.failed
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let absent_design = DESIGNS
            .iter()
            .any(|d| name.ends_with(&format!(".{}", d.slug)) && !designs.contains(d));
        let value = match values.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {name} is {v}")),
            None if absent_design => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_owned())
            .collect()
    }

    #[test]
    fn every_metric_name_is_safe_and_unique() {
        let mut all: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
        all.extend(per_layer().into_iter().map(|(n, _)| n));
        for name in &all {
            assert!(is_name_safe(name), "{name}");
        }
        let mut unique = all.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), all.len());
    }

    #[test]
    fn raw_org_labels_are_not_names() {
        for label in ["MemCache@50", "Cache(LH)", "CAMEO(SAM)"] {
            assert!(!is_name_safe(label), "{label}");
        }
        assert!(is_name_safe("org.access_ns.memcache-50"));
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
        assert_eq!(names_in("end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names_in("per_layer"), layers);
        let workloads: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names_in("workloads"), workloads);
    }

    #[test]
    fn result_line_zeroes_only_absent_designs() {
        let declared = per_layer();
        let designs = crate::workload::Workload::CameoMcf.designs();
        let mut values: BTreeMap<String, f64> = declared
            .iter()
            .filter(|(n, _)| {
                n.ends_with(".cameo")
                    || !DESIGNS.iter().any(|d| n.ends_with(&format!(".{}", d.slug)))
            })
            .map(|(n, _)| (n.clone(), 1.5))
            .collect();
        let line = result_line(&Checker::default(), &declared, &values, &designs)
            .expect("every measured name present");
        assert!(line.contains("\"org.access_ns.cameo\": {\"value\": 1.5"));
        assert!(line.contains("\"org.access_ns.alloy\": {\"value\": 0,"));
        values.remove("run.s");
        assert!(result_line(&Checker::default(), &declared, &values, &designs).is_err());
        values.insert("bogus".to_owned(), 1.0);
        assert!(result_line(&Checker::default(), &declared, &values, &designs).is_err());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
