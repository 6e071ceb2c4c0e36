//! The metric catalogue and the result line every run ends with.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_s", "jobs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("comparisons_per_job", "count"),
    ("rounds_per_job", "count"),
    ("setup_s", "s"),
];

/// The algorithms of `ecs_core`, in the service protocol's order.
pub const CORE_ALGOS: [&str; 6] = [
    "naive",
    "round-robin",
    "representative-scan",
    "er-merge",
    "er-constant",
    "cr-compound",
];

/// The adversary roster: the three sorting algorithms of the Theorem 5/6
/// tables, then the three smallest-class search variants.
pub const ADVERSARY_ROSTER: [&str; 6] = [
    "representative-scan",
    "round-robin",
    "er-merge",
    "block-16",
    "block-64",
    "block-64-audit",
];

/// The five job distributions, by the name used in metric names.
pub const DIST_NAMES: [&str; 5] = ["uniform", "geometric", "poisson", "zeta", "balanced"];

/// Per-layer metrics, reported by every traced run: `(name, unit)`. A layer
/// a workload does not exercise reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut metrics: Vec<(String, &'static str)> = [
        ("service.accept_ms_p50", "ms"),
        ("service.result_ms_p50", "ms"),
        ("service.overhead_ms_p50", "ms"),
        ("scheduler.queued_mean", "count"),
        ("scheduler.inflight_mean", "count"),
        ("scheduler.daemon_latency_us_p50", "us"),
        ("daemon.peak_rss_mb", "MB"),
        ("daemon.rss_growth_kb_per_kjob", "KB/kjob"),
    ]
    .iter()
    .map(|&(name, unit)| (name.to_string(), unit))
    .collect();
    metrics.extend(
        DIST_NAMES
            .iter()
            .map(|d| (format!("instance.build_us.{d}"), "us")),
    );
    metrics.extend(
        [
            ("calibrate.preview_us", "us"),
            ("round.count", "count"),
            ("round.us_p50", "us"),
            ("round.overhead_share", "share"),
            ("oracle.calls", "count"),
            ("oracle.pairs_per_call", "count"),
            ("oracle.busy_share", "share"),
        ]
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit)),
    );
    for algo in CORE_ALGOS {
        metrics.push((format!("core.sort_ms_p50.{algo}"), "ms"));
        metrics.push((format!("core.comparisons.{algo}"), "count"));
        metrics.push((format!("core.rounds.{algo}"), "count"));
        metrics.push((
            format!("core.comparisons_over_allpairs_max.{algo}"),
            "share",
        ));
    }
    metrics.extend(
        [
            ("pool.busy_share", "share"),
            ("adversary.open_us_mean", "us"),
            ("adversary.serve_us_mean", "us"),
            ("adversary.close_us_mean", "us"),
            ("adversary.plan_hit_ratio", "share"),
            ("adversary.invalidated", "count"),
        ]
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit)),
    );
    metrics.extend(
        ADVERSARY_ROSTER
            .iter()
            .map(|a| (format!("adversary.run_ms_p50.{a}"), "ms")),
    );
    metrics.push(("adversary.forced_over_bound_min".to_string(), "share"));
    metrics.push(("trace.overhead_share".to_string(), "share"));
    metrics
}

/// What one run measured: named values, the job tally, and any correctness
/// failures (each one counts against `error_rate`).
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    /// Jobs (or adversary cells) attempted.
    pub attempted: u64,
    /// Correctness failures: wrong, missing, rejected or failed results and
    /// disagreeing counters.
    failures: Vec<String>,
}

impl Report {
    /// Records one metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Records one correctness failure.
    pub fn fail(&mut self, what: String) {
        eprintln!("perfbench: FAILED: {what}");
        self.failures.push(what);
    }

    fn value(&self, name: &str) -> f64 {
        let value = self.values.get(name).copied().unwrap_or(0.0);
        if value.is_finite() {
            value
        } else {
            0.0
        }
    }

    /// Prints every end-to-end metric, and with `traced` every per-layer
    /// metric, by name with its unit; then the machine-readable result line
    /// (always the last line of stdout), which carries the per-layer
    /// metrics of a traced run and the end-to-end metrics otherwise.
    /// Returns whether the run was correct.
    pub fn finish(&self, traced: bool) -> bool {
        let failed = self.failures.len() as u64;
        let error_rate = failed as f64 / self.attempted.max(1) as f64;
        println!(
            "error_rate = {error_rate} share ({failed} of {} jobs)",
            self.attempted
        );
        let end_to_end: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_string(), unit))
            .collect();
        for (name, unit) in &end_to_end {
            println!("{name} = {} {unit}", self.value(name));
        }
        let catalogue = if traced {
            let layers = per_layer();
            for (name, unit) in &layers {
                println!("{name} = {} {unit}", self.value(name));
            }
            layers
        } else {
            end_to_end
        };
        let fields: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(self.value(name))
                )
            })
            .collect();
        let correct = self.failures.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            fields.join(", ")
        );
        correct
    }
}

/// A JSON number for a finite `f64`, with every digit Rust's shortest
/// round-trip formatting gives it.
fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "metric names must be unique");
        for name in &names {
            assert!(name.len() <= 64, "{name} is too long");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn catalogue_matches_the_benchmark_manifest() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let listed = |name: &str, unit: &str| {
            manifest.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in END_TO_END {
            assert!(
                listed(name, unit),
                "{name} ({unit}) missing from end_to_end"
            );
        }
        for (name, unit) in per_layer() {
            assert!(
                listed(&name, unit),
                "{name} ({unit}) missing from per_layer"
            );
        }
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.1234567891), "0.1234567891");
        assert_eq!(json_number(1e-12), "0.000000000001");
    }
}
