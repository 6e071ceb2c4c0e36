//! Offline stand-in for the `criterion` crate.
//!
//! The build environment for this workspace has no crates.io access, so this
//! shim provides the subset of Criterion's API the `ecs_bench` harnesses use:
//! [`Criterion::benchmark_group`], group configuration
//! (`sample_size`/`warm_up_time`/`measurement_time`),
//! [`BenchmarkGroup::bench_function`] / [`BenchmarkGroup::bench_with_input`],
//! [`BenchmarkId`], and the [`criterion_group!`] / [`criterion_main!`]
//! macros. Timing is a simple mean over `sample_size` wall-clock samples
//! (after one warm-up call) printed to stdout — no statistics, plots, or
//! saved baselines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// The benchmark driver handed to every `criterion_group!` target.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: 10,
        }
    }
}

/// Identifies one benchmark within a group: a function name plus a parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    rendered: String,
}

impl BenchmarkId {
    /// Creates an id rendered as `function_name/parameter`.
    pub fn new(function_name: impl Display, parameter: impl Display) -> Self {
        Self {
            rendered: format!("{function_name}/{parameter}"),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.rendered)
    }
}

/// A named group of benchmarks sharing configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples each benchmark takes.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Accepted for API compatibility; the shim warms up with one call.
    pub fn warm_up_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Accepted for API compatibility; the shim times exactly `sample_size`
    /// calls.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Benchmarks a closure under the given id.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id);
        run_benchmark(&label, self.sample_size, |b| f(b));
        self
    }

    /// Benchmarks a closure that borrows a per-benchmark input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (a no-op in the shim, kept for API compatibility).
    pub fn finish(self) {}
}

/// Times the routine under measurement.
#[derive(Debug, Default)]
pub struct Bencher {
    samples: Vec<Duration>,
    requested: usize,
}

impl Bencher {
    /// Runs `routine` once to warm up, then `sample_size` timed times.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        std::hint::black_box(routine());
        for _ in 0..self.requested {
            let start = Instant::now();
            std::hint::black_box(routine());
            self.samples.push(start.elapsed());
        }
    }
}

fn run_benchmark<F>(label: &str, sample_size: usize, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let mut bencher = Bencher {
        samples: Vec::with_capacity(sample_size),
        requested: sample_size,
    };
    f(&mut bencher);
    if bencher.samples.is_empty() {
        println!("{label}: no samples recorded");
        return;
    }
    let total: Duration = bencher.samples.iter().sum();
    let mean = total / bencher.samples.len() as u32;
    let min = bencher.samples.iter().min().expect("non-empty");
    let max = bencher.samples.iter().max().expect("non-empty");
    println!(
        "{label}: mean {mean:?} (min {min:?}, max {max:?}, {} samples)",
        bencher.samples.len()
    );
}

/// Bundles benchmark target functions into one group function, as in
/// Criterion.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Generates the `main` function running the listed groups, as in Criterion.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_times_and_finishes() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        group.warm_up_time(Duration::from_millis(1));
        group.measurement_time(Duration::from_millis(1));
        let mut calls = 0u32;
        group.bench_with_input(BenchmarkId::new("count", 5), &5u32, |b, &input| {
            b.iter(|| {
                calls += 1;
                input * 2
            });
        });
        group.finish();
        assert_eq!(calls, 4, "one warm-up plus three samples");
    }

    #[test]
    fn benchmark_id_renders_function_and_parameter() {
        assert_eq!(BenchmarkId::new("tarjan", 100).to_string(), "tarjan/100");
    }
}
