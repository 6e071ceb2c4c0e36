//! A minimal `--flag value` / `--flag=value` / `--switch` command-line
//! parser.
//!
//! The parser has no flag declarations, so a bare `--switch` followed by a
//! positional token is indistinguishable from a valued flag and is parsed as
//! the latter; [`Args::has`] therefore reports a flag as present whether it
//! was captured as a switch *or* as a `--key value` pair, so switch lookups
//! never silently fail on that ambiguity. A token starting with `-` is never
//! consumed as the value of the preceding flag — `--full -5` keeps `--full`
//! a switch instead of silently giving it the value `-5` — so values that
//! themselves start with a dash (negative numbers, `--`-prefixed strings)
//! are passed with the `--flag=value` spelling.
//!
//! Binaries declare their flags only for diagnostics: [`Args::warn_unknown`]
//! compares what was parsed against the binary's known list and warns on
//! typos (`--trails 5`) instead of silently ignoring them.

use ecs_model::backend::available_parallelism;
use ecs_model::{ExecutionBackend, ThroughputPool};
use std::collections::HashMap;

/// Parsed command-line arguments: `--key value` / `--key=value` pairs and
/// bare `--switch`es.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses the process's arguments (skipping the program name).
    pub fn from_env() -> Self {
        Self::from_tokens(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (used by tests).
    pub fn from_tokens<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut args = Args::default();
        let tokens: Vec<String> = iter.into_iter().collect();
        let mut i = 0;
        while i < tokens.len() {
            let token = &tokens[i];
            if let Some(name) = token.strip_prefix("--") {
                if let Some((key, value)) = name.split_once('=') {
                    // `--flag=value`: unambiguous, and the only way to pass a
                    // value that itself starts with `--`.
                    args.values.insert(key.to_string(), value.to_string());
                    i += 1;
                } else if i + 1 < tokens.len() && !tokens[i + 1].starts_with('-') {
                    // A following token that starts with `-` (another flag, a
                    // negative number) is never captured as this flag's value;
                    // dash-values are spelled `--flag=value`.
                    args.values.insert(name.to_string(), tokens[i + 1].clone());
                    i += 2;
                } else {
                    args.switches.push(name.to_string());
                    i += 1;
                }
            } else {
                // Stray positional tokens are ignored.
                i += 1;
            }
        }
        args
    }

    /// A string-valued flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(|s| s.as_str())
    }

    /// A string-valued flag with a default.
    pub fn get_or(&self, name: &str, default: &str) -> String {
        self.get(name).unwrap_or(default).to_string()
    }

    /// A numeric flag with a default.
    pub fn get_usize(&self, name: &str, default: usize) -> usize {
        self.get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// A numeric flag with a default.
    pub fn get_u64(&self, name: &str, default: u64) -> u64 {
        self.get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// A float flag with a default.
    pub fn get_f64(&self, name: &str, default: f64) -> f64 {
        self.get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Whether `--name` was passed at all — as a bare switch *or* as a valued
    /// flag. Checking both is what makes `--verbose out.json` (a switch
    /// followed by a positional, which this declaration-free parser captures
    /// as `verbose = "out.json"`) still count as `--verbose`.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name) || self.values.contains_key(name)
    }

    /// The execution backend selected by `--batch W` or `--threads N`,
    /// falling back to the `ECS_THREADS` environment variable when both
    /// flags are absent.
    ///
    /// * `--batch W` selects [`ExecutionBackend::Batched`]: rounds are
    ///   submitted to the oracle as `same_batch` waves of up to `W` pairs
    ///   (`--batch 0` = the whole round as one wave; a bare `--batch` or an
    ///   unparsable wave selects the default wave size). `--batch` takes
    ///   precedence over `--threads` — a backend evaluates a round either in
    ///   waves or on the pool, and the batched path is the explicit request.
    /// * `--threads N` selects the threaded backend; `1` and unparsable
    ///   values select sequential, and `--threads 0` is not a usable worker
    ///   count — it clamps to the machine's available parallelism with a
    ///   warning instead of silently building a degenerate pool.
    pub fn execution_backend(&self) -> ExecutionBackend {
        if self.has("batch") {
            let wave = self
                .get("batch")
                .and_then(|value| value.parse().ok())
                .unwrap_or(ExecutionBackend::DEFAULT_BATCH_WAVE);
            return ExecutionBackend::batched(wave);
        }
        match self.get("threads") {
            Some(value) => ExecutionBackend::from_threads(worker_count("--threads", value, 1)),
            None => ExecutionBackend::from_env(),
        }
    }

    /// The throughput pool selected by `--jobs N` (`1` runs trials
    /// serially), falling back to the `--threads` / `ECS_THREADS` backend
    /// when the flag is absent — so `--threads N` alone still accelerates
    /// trial-level work as before, while `--jobs` decouples trial throughput
    /// from round-evaluation parallelism. A bare `--jobs` (no value), an
    /// unparsable count, *and* the degenerate `--jobs 0` all select the
    /// machine's available parallelism (the zero case with a warning) rather
    /// than being silently dropped or going serial; results are
    /// bit-identical for every worker count either way.
    ///
    /// With `--batch` and no `--jobs`, the trial loop stays serial (a
    /// batched backend is single-threaded by design) — combine `--jobs N
    /// --batch W` to run `N` concurrent trials whose sessions each submit
    /// waves of `W`.
    pub fn throughput_pool(&self) -> ThroughputPool {
        if !self.has("jobs") {
            // A Batched backend has one thread, so `--batch` alone keeps the
            // trial loop serial; `--threads N` keeps feeding the pool.
            return ThroughputPool::new(self.execution_backend());
        }
        let jobs = match self.get("jobs") {
            Some(value) => worker_count("--jobs", value, available_parallelism()),
            None => available_parallelism(),
        };
        ThroughputPool::from_jobs(jobs)
    }

    /// Warns (once, to stderr) about every parsed `--flag` that is not in
    /// the binary's `known` list, printing the known flags so typos like
    /// `--trails 5` surface instead of silently running the default grid.
    /// Unknown flags are diagnostics only — the run proceeds regardless.
    pub fn warn_unknown(&self, known: &[&str]) {
        let mut unknown: Vec<&str> = self
            .values
            .keys()
            .map(String::as_str)
            .chain(self.switches.iter().map(String::as_str))
            .filter(|name| !known.contains(name))
            .collect();
        unknown.sort_unstable();
        unknown.dedup();
        if unknown.is_empty() {
            return;
        }
        for name in unknown {
            eprintln!("warning: unknown flag --{name} (ignored)");
        }
        let mut listed: Vec<&str> = known.to_vec();
        listed.sort_unstable();
        eprintln!(
            "note: known flags: {}",
            listed
                .iter()
                .map(|name| format!("--{name}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
}

/// Parses one worker-count flag value. `0` is not a usable worker count —
/// before this existed, a zero could flow on toward the pool layer as a
/// degenerate request — so it clamps to the machine's available parallelism
/// with a warning (once per flag: binaries resolve the backend more than
/// once); unparsable values fall back to `unparsable` (each flag documents
/// its own fallback).
fn worker_count(flag: &str, value: &str, unparsable: usize) -> usize {
    match value.trim().parse::<usize>() {
        Ok(0) => {
            let available = available_parallelism();
            warn_once(
                flag,
                &format!(
                    "warning: {flag} 0 is not a usable worker count; \
                     clamping to available parallelism ({available})"
                ),
            );
            available
        }
        Ok(count) => count,
        Err(_) => unparsable,
    }
}

/// Prints `message` to stderr at most once per `key` for the process's
/// lifetime — binaries resolve the backend more than once, and a diagnostic
/// repeated per resolution reads like a new problem each time.
fn warn_once(key: &str, message: &str) {
    static WARNED: std::sync::Mutex<Vec<String>> = std::sync::Mutex::new(Vec::new());
    let mut warned = WARNED
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if !warned.iter().any(|warned_key| warned_key == key) {
        warned.push(key.to_string());
        eprintln!("{message}");
    }
}

/// Whether `ECS_BENCH_SMOKE` is set: reproduction binaries shrink their grids
/// to a seconds-long smoke run (used by CI on every push).
pub fn smoke() -> bool {
    std::env::var("ECS_BENCH_SMOKE").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Args {
        Args::from_tokens(parts.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_values_and_switches() {
        let a = args(&["--dist", "uniform", "--full", "--trials", "5"]);
        assert_eq!(a.get("dist"), Some("uniform"));
        assert!(a.has("full"));
        assert_eq!(a.get_usize("trials", 10), 5);
        assert_eq!(a.get_usize("missing", 7), 7);
        assert!(!a.has("missing"));
    }

    #[test]
    fn numeric_defaults_on_parse_failure() {
        let a = args(&["--trials", "not-a-number"]);
        assert_eq!(a.get_usize("trials", 3), 3);
        assert_eq!(a.get_f64("lambda", 0.4), 0.4);
        assert_eq!(a.get_u64("seed", 1), 1);
    }

    #[test]
    fn trailing_flag_is_a_switch() {
        let a = args(&["--out", "dir", "--verbose"]);
        assert_eq!(a.get_or("out", "x"), "dir");
        assert!(a.has("verbose"));
    }

    #[test]
    fn positional_tokens_are_ignored() {
        let a = args(&["stray", "--k", "9"]);
        assert_eq!(a.get_usize("k", 0), 9);
    }

    #[test]
    fn switch_followed_by_positional_still_registers() {
        // Regression: `--verbose out.json` used to be captured only as a
        // value flag, so `has("verbose")` silently returned false.
        let a = args(&["--verbose", "out.json"]);
        assert!(a.has("verbose"));
        assert_eq!(a.get("verbose"), Some("out.json"));
    }

    #[test]
    fn equals_syntax_parses_values() {
        let a = args(&["--out=results", "--trials=5", "--label="]);
        assert_eq!(a.get("out"), Some("results"));
        assert_eq!(a.get_usize("trials", 0), 5);
        assert_eq!(a.get("label"), Some(""));
        assert!(a.has("out"), "valued flags count as present");
    }

    #[test]
    fn equals_syntax_passes_values_starting_with_dashes() {
        // Regression: `--flag --value` parsed `--value` as a separate switch,
        // so values starting with `--` could never be passed.
        let a = args(&["--prefix=--release", "--next"]);
        assert_eq!(a.get("prefix"), Some("--release"));
        assert!(a.has("next"));
    }

    #[test]
    fn switch_followed_by_negative_token_stays_a_switch() {
        // Regression: `--full -5` captured `-5` as the *value* of `--full`,
        // so the switch stopped being a switch and the stray token vanished
        // instead of being ignored as a positional.
        let a = args(&["--full", "-5", "--trials", "3"]);
        assert!(a.has("full"));
        assert_eq!(a.get("full"), None, "--full must stay a bare switch");
        assert_eq!(a.get_usize("trials", 0), 3);

        // Same shape with a short-dash non-numeric positional.
        let b = args(&["--verbose", "-x", "--out", "dir"]);
        assert!(b.has("verbose"));
        assert_eq!(b.get("verbose"), None);
        assert_eq!(b.get("out"), Some("dir"));

        // Negative values are still passable, with the `=` spelling.
        let c = args(&["--offset=-5"]);
        assert_eq!(c.get("offset"), Some("-5"));
        assert_eq!(c.get_f64("offset", 0.0), -5.0);
    }

    #[test]
    fn unknown_flags_warn_without_aborting() {
        // `warn_unknown` is diagnostics-only: it must not panic or alter the
        // parsed flags, whatever the overlap with the known list.
        let a = args(&["--trails", "5", "--full", "--out=dir"]);
        a.warn_unknown(&["trials", "full", "out"]);
        a.warn_unknown(&[]);
        assert_eq!(a.get_usize("trails", 0), 5);
        assert!(a.has("full"));
    }

    #[test]
    fn adjacent_switches_stay_switches() {
        let a = args(&["--full", "--verbose", "--out", "dir"]);
        assert!(a.has("full"));
        assert!(a.has("verbose"));
        assert_eq!(a.get("out"), Some("dir"));
        assert_eq!(a.get("full"), None, "switches carry no value");
    }

    #[test]
    fn threads_flag_selects_the_backend() {
        use ecs_model::ExecutionBackend;
        assert_eq!(
            args(&["--threads", "4"]).execution_backend(),
            ExecutionBackend::threaded(4)
        );
        assert_eq!(
            args(&["--threads", "1"]).execution_backend(),
            ExecutionBackend::Sequential
        );
        assert_eq!(
            args(&["--threads", "junk"]).execution_backend(),
            ExecutionBackend::Sequential
        );
    }

    #[test]
    fn jobs_flag_selects_the_throughput_pool() {
        assert_eq!(
            args(&["--jobs", "4"]).throughput_pool().label(),
            "pooled(4)"
        );
        assert_eq!(args(&["--jobs", "1"]).throughput_pool().label(), "serial");
        // Without --jobs the pool follows the --threads backend.
        assert_eq!(
            args(&["--threads", "8"]).throughput_pool().label(),
            "pooled(8)"
        );
    }

    #[test]
    fn batch_flag_selects_the_batched_backend() {
        use ecs_model::ExecutionBackend;
        assert_eq!(
            args(&["--batch", "64"]).execution_backend(),
            ExecutionBackend::batched(64)
        );
        assert_eq!(
            args(&["--batch", "0"]).execution_backend(),
            ExecutionBackend::batched(0),
            "--batch 0 means the whole round as one wave"
        );
        // A bare `--batch` or a typo'd wave still selects batching, at the
        // default wave size.
        let default = ExecutionBackend::batched(ExecutionBackend::DEFAULT_BATCH_WAVE);
        assert_eq!(args(&["--batch"]).execution_backend(), default);
        assert_eq!(args(&["--batch", "junk"]).execution_backend(), default);
        // `--batch` beats `--threads`: the batched path is the explicit ask.
        assert_eq!(
            args(&["--threads", "4", "--batch", "32"]).execution_backend(),
            ExecutionBackend::batched(32)
        );
        // `--batch` alone keeps the trial loop serial; with `--jobs` the
        // trials run pooled while each session batches.
        assert_eq!(args(&["--batch", "64"]).throughput_pool().label(), "serial");
        assert_eq!(
            args(&["--batch", "64", "--jobs", "4"])
                .throughput_pool()
                .label(),
            "pooled(4)"
        );
    }

    #[test]
    fn zero_worker_counts_clamp_to_available_parallelism() {
        use ecs_model::ExecutionBackend;
        // Regression: a zero `--threads` / `--jobs` used to flow on as a
        // degenerate zero-worker request; both must clamp to the machine's
        // available parallelism (with a warning) instead.
        let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(
            args(&["--threads", "0"]).execution_backend(),
            ExecutionBackend::from_threads(available)
        );
        assert_eq!(
            args(&["--jobs", "0"]).throughput_pool().label(),
            ThroughputPool::from_jobs(available).label()
        );
        // The clamp never produces a zero-thread backend, whatever the host.
        assert!(args(&["--threads", "0"]).execution_backend().threads() >= 1);
        assert!(args(&["--jobs", "0"]).throughput_pool().workers() >= 1);
    }

    #[test]
    fn bare_or_malformed_jobs_is_not_silently_dropped() {
        // `--jobs` as the last token (or before another `--flag`) parses as a
        // switch, and a typo'd count parses as nothing usable; both must
        // still select a pool (available parallelism) instead of falling
        // back as if the flag were absent or silently going serial.
        let expected = ThroughputPool::from_jobs(
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        )
        .label();
        assert_eq!(args(&["--jobs"]).throughput_pool().label(), expected);
        assert_eq!(
            args(&["--jobs", "junk"]).throughput_pool().label(),
            expected
        );
        assert_eq!(
            args(&["--threads", "8", "--jobs"])
                .throughput_pool()
                .label(),
            expected,
            "bare --jobs must override the --threads fallback"
        );
    }
}
