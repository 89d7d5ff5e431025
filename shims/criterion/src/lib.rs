//! Offline stand-in for `criterion` (see `shims/bytes` for why).
//!
//! A small wall-clock benchmarking harness exposing the criterion API
//! surface the workspace uses: `Criterion::benchmark_group`,
//! `BenchmarkGroup::{sample_size, bench_function, bench_with_input,
//! finish}`, `Bencher::iter`, `BenchmarkId` and the
//! `criterion_group!`/`criterion_main!` macros. Each benchmark
//! self-calibrates a batch size so cheap closures are timed over many
//! iterations, then reports the median per-iteration time across samples.
//!
//! Like criterion, the generated `main` takes a name filter: the first
//! argument that is not a flag (`cargo bench --bench micro_index --
//! boundary_cells_16`) is matched as a substring of each benchmark's
//! `group/function/param` id, and every benchmark it does not match is
//! skipped without running.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target wall-clock time per measurement sample.
const TARGET_SAMPLE_TIME: Duration = Duration::from_millis(25);

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// A function name plus a parameter value, rendered `name/param`.
    pub fn new(function_name: &str, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{function_name}/{parameter}"),
        }
    }

    /// A parameter-only id.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(label: &str) -> Self {
        BenchmarkId {
            label: label.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> Self {
        BenchmarkId { label }
    }
}

/// Runs and times one benchmark body.
pub struct Bencher {
    samples: usize,
    /// Median per-iteration time of the last `iter` call.
    measured: Option<Duration>,
}

impl Bencher {
    fn new(samples: usize) -> Self {
        Bencher {
            samples,
            measured: None,
        }
    }

    /// Measures `f`: calibrates a batch size targeting
    /// [`TARGET_SAMPLE_TIME`] per sample, times `samples` batches, and
    /// records the median per-iteration duration.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up + calibration: grow the batch until one batch takes a
        // measurable fraction of the target time.
        let mut batch: u64 = 1;
        let per_iter_estimate = loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= TARGET_SAMPLE_TIME / 4 || batch >= 1 << 20 {
                break elapsed / batch.max(1) as u32;
            }
            batch = (batch * 4).min(1 << 20);
        };
        let per_sample = TARGET_SAMPLE_TIME.as_nanos().max(1) as u64;
        let est = per_iter_estimate.as_nanos().max(1) as u64;
        let batch = (per_sample / est).clamp(1, 1 << 20);

        let mut per_iter: Vec<Duration> = (0..self.samples.max(1))
            .map(|_| {
                let start = Instant::now();
                for _ in 0..batch {
                    black_box(f());
                }
                start.elapsed() / batch as u32
            })
            .collect();
        per_iter.sort_unstable();
        self.measured = Some(per_iter[per_iter.len() / 2]);
    }
}

fn format_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.3} s", nanos as f64 / 1e9)
    }
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of measurement samples per benchmark.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.sample_size = samples;
        self
    }

    fn run<F: FnMut(&mut Bencher)>(&mut self, label: &str, f: F) {
        let id = format!("{}/{}", self.name, label);
        self.criterion.measure(&id, self.sample_size, f);
    }

    /// Benchmarks `f` under `id`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let id: BenchmarkId = id.into();
        self.run(&id.label, f);
        self
    }

    /// Benchmarks `f` with a borrowed input under `id`.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let id: BenchmarkId = id.into();
        self.run(&id.label, |b| f(b, input));
        self
    }

    /// Ends the group (printing happens eagerly; this is API parity).
    pub fn finish(self) {}
}

/// Top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {
    /// Only ids containing this run; `None` runs every benchmark.
    filter: Option<String>,
}

impl Criterion {
    /// Takes the name filter from the process's arguments, as the
    /// generated `main` does: the first argument that is not a flag
    /// (cargo passes `--bench`) filters benchmark ids by substring.
    pub fn configure_from_args(self) -> Self {
        self.with_args(std::env::args().skip(1))
    }

    /// [`Criterion::configure_from_args`] over `args`.
    fn with_args(mut self, args: impl IntoIterator<Item = String>) -> Self {
        self.filter = args.into_iter().find(|arg| !arg.starts_with('-'));
        self
    }

    /// Whether the benchmark `id` (`group/function/param`) runs.
    fn selects(&self, id: &str) -> bool {
        self.filter
            .as_ref()
            .is_none_or(|filter| id.contains(filter))
    }

    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: 10,
            criterion: self,
        }
    }

    /// Benchmarks `f` outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        self.measure(id, 10, f);
        self
    }

    /// Runs `f` over `samples` samples and prints its time under `id`,
    /// unless the filter skips `id`.
    fn measure<F: FnMut(&mut Bencher)>(&self, id: &str, samples: usize, mut f: F) {
        if !self.selects(id) {
            return;
        }
        let mut bencher = Bencher::new(samples);
        f(&mut bencher);
        match bencher.measured {
            Some(t) => println!("{id}: {}/iter", format_duration(t)),
            None => println!("{id}: no measurement (b.iter never called)"),
        }
    }

    /// End-of-run hook (API parity; reporting is eager).
    pub fn final_summary(&mut self) {}
}

/// Declares a benchmark group function running each target in order.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config.configure_from_args();
            $($target(&mut criterion);)+
            criterion.final_summary();
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
            criterion.final_summary();
        }
    };
}

/// Declares `main` running the listed benchmark groups.
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
    fn bencher_measures_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim_selftest");
        group.sample_size(5);
        let mut ran = 0u64;
        group.bench_function(BenchmarkId::new("sum", 100), |b| {
            b.iter(|| {
                ran += 1;
                (0..100u64).sum::<u64>()
            })
        });
        group.finish();
        assert!(ran > 0, "benchmark closure never executed");
    }

    fn args(args: &[&str]) -> Vec<String> {
        args.iter().map(|arg| arg.to_string()).collect()
    }

    #[test]
    fn the_first_argument_that_is_not_a_flag_filters_by_substring() {
        let c = Criterion::default().with_args(args(&["--bench", "boundary_cells_16", "other"]));
        assert!(c.selects("boundary_cells_16/per_cell_grid/t0"));
        assert!(c.selects("micro/boundary_cells_16"));
        assert!(!c.selects("rtree_probe/fanout/16"));
        // No argument, or only flags: everything runs.
        assert!(Criterion::default().with_args(args(&[])).selects("any/id"));
        assert!(Criterion::default()
            .with_args(args(&["--bench"]))
            .selects("any/id"));
    }

    #[test]
    fn a_filtered_out_benchmark_never_runs_its_body() {
        let mut c = Criterion::default().with_args(args(&["--bench", "kept/"]));
        let (mut wanted, mut skipped) = (0u64, 0u64);
        let mut group = c.benchmark_group("kept");
        group.sample_size(2);
        group.bench_function("sum", |b| b.iter(|| wanted += 1));
        group.finish();
        let mut group = c.benchmark_group("other");
        group.bench_with_input(BenchmarkId::new("sum", 3), &3u64, |b, n| {
            b.iter(|| skipped += n)
        });
        group.finish();
        c.bench_function("loose", |b| b.iter(|| skipped += 1));
        assert!(wanted > 0, "the selected benchmark never ran");
        assert_eq!(skipped, 0, "a filtered-out benchmark ran");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(format_duration(Duration::from_micros(2)), "2.00 µs");
        assert_eq!(format_duration(Duration::from_millis(3)), "3.00 ms");
        assert_eq!(format_duration(Duration::from_secs(2)), "2.000 s");
    }
}
