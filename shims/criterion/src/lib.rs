//! Minimal stand-in for the `criterion` bench harness.
//!
//! The build environment is offline, so this workspace ships the slice of
//! criterion's API that the `bench` crate actually uses: groups,
//! `bench_function` / `bench_with_input`, `iter` / `iter_batched`,
//! throughput annotation, and the `criterion_group!` / `criterion_main!`
//! macros. Statistics are deliberately simple — each sample times one
//! invocation and the report carries min/median/mean/max over samples.
//!
//! Unlike upstream criterion, every group writes a machine-readable
//! `BENCH_<group>.json` report (via [`obs::Json`], so the schema matches
//! the observability snapshots) into `$BENCH_OUT_DIR` (default
//! `results/`), and a human-readable line per benchmark to stdout.

use std::fmt::Display;
use std::hint::black_box as std_black_box;
use std::time::Instant;

use obs::{Json, MetricsRegistry};

/// Re-export so `criterion::black_box` keeps working.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Batch sizing hint for [`Bencher::iter_batched`]. The shim times one
/// invocation per sample regardless, so the variants only document intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Throughput annotation of a group, applying to every benchmark run
/// after it is set; reported per benchmark as `elements_per_sec` in the
/// JSON output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

/// Benchmark identifier: `function_id/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new<P: Display>(function_id: &str, parameter: P) -> Self {
        BenchmarkId {
            id: format!("{function_id}/{parameter}"),
        }
    }

    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Times the body of one benchmark; handed to the closure by
/// [`BenchmarkGroup::bench_function`] and friends.
pub struct Bencher {
    sample_size: usize,
    samples_ns: Vec<u64>,
    metrics: MetricsRegistry,
}

impl Bencher {
    /// A per-benchmark metrics registry (a shim extension, not upstream
    /// criterion API): hand `obs::MetricsObserver::new(b.metrics())` to an
    /// `*_observed` entry point and the snapshot is embedded under
    /// `"metrics"` in this benchmark's `BENCH_<group>.json` entry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Time `routine` once per sample.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        self.samples_ns.clear();
        // One untimed warmup pass.
        std_black_box(routine());
        for _ in 0..self.sample_size {
            let start = Instant::now();
            std_black_box(routine());
            self.samples_ns.push(elapsed_ns(start));
        }
    }

    /// Time `routine` on a fresh `setup()` input per sample; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        self.samples_ns.clear();
        std_black_box(routine(setup()));
        for _ in 0..self.sample_size {
            let input = setup();
            let start = Instant::now();
            std_black_box(routine(input));
            self.samples_ns.push(elapsed_ns(start));
        }
    }

    /// Same as [`Bencher::iter_batched`]; the shim never amortizes batches.
    pub fn iter_batched_ref<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(&mut I) -> O,
    {
        self.samples_ns.clear();
        std_black_box(routine(&mut setup()));
        for _ in 0..self.sample_size {
            let mut input = setup();
            let start = Instant::now();
            std_black_box(routine(&mut input));
            self.samples_ns.push(elapsed_ns(start));
        }
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One benchmark's aggregated timings.
#[derive(Debug, Clone)]
struct BenchReport {
    id: String,
    samples: usize,
    mean_ns: f64,
    median_ns: u64,
    min_ns: u64,
    max_ns: u64,
    /// Snapshot of the per-bench [`Bencher::metrics`] registry; omitted
    /// when the benchmark recorded nothing into it.
    metrics: Option<Json>,
    /// The group's throughput annotation when this benchmark ran — a
    /// group may change it between benchmarks.
    throughput: Option<Throughput>,
}

impl BenchReport {
    fn from_samples(
        id: String,
        mut samples_ns: Vec<u64>,
        metrics: Option<Json>,
        throughput: Option<Throughput>,
    ) -> Self {
        samples_ns.sort_unstable();
        let n = samples_ns.len().max(1);
        let sum: u128 = samples_ns.iter().map(|&v| v as u128).sum();
        BenchReport {
            id,
            samples: samples_ns.len(),
            mean_ns: sum as f64 / n as f64,
            median_ns: samples_ns.get(samples_ns.len() / 2).copied().unwrap_or(0),
            min_ns: samples_ns.first().copied().unwrap_or(0),
            max_ns: samples_ns.last().copied().unwrap_or(0),
            metrics,
            throughput,
        }
    }

    fn to_json(&self) -> Json {
        let mut obj = Json::Null;
        obj.set("id", self.id.as_str());
        obj.set("samples", self.samples);
        obj.set("mean_ns", self.mean_ns);
        obj.set("median_ns", self.median_ns);
        obj.set("min_ns", self.min_ns);
        obj.set("max_ns", self.max_ns);
        if let Some(Throughput::Elements(elems)) = self.throughput {
            obj.set("throughput_elements", elems);
        }
        if self.mean_ns > 0.0 {
            match self.throughput {
                Some(Throughput::Elements(elems)) => {
                    obj.set("elements_per_sec", elems as f64 * 1e9 / self.mean_ns);
                }
                Some(Throughput::Bytes(bytes)) => {
                    obj.set("bytes_per_sec", bytes as f64 * 1e9 / self.mean_ns);
                }
                None => {}
            }
        }
        if let Some(metrics) = &self.metrics {
            obj.set("metrics", metrics.clone());
        }
        obj
    }
}

/// A registry snapshot with any recorded data; `None` when every section
/// (counters/gauges/histograms) is empty.
fn non_empty_snapshot(registry: &MetricsRegistry) -> Option<Json> {
    let snapshot = registry.snapshot();
    let has_data = ["counters", "gauges", "histograms"].iter().any(|section| {
        snapshot
            .get(section)
            .and_then(Json::as_obj)
            .is_some_and(|m| !m.is_empty())
    });
    has_data.then_some(snapshot)
}

/// A named collection of benchmarks sharing a throughput annotation;
/// writes `BENCH_<name>.json` on [`BenchmarkGroup::finish`] (or drop).
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
    reports: Vec<BenchReport>,
    finished: bool,
}

impl BenchmarkGroup<'_> {
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(id.to_string(), |b| f(b));
        self
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        self.run(id.id, |b| f(b, input));
        self
    }

    fn run<F: FnMut(&mut Bencher)>(&mut self, id: String, mut f: F) {
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            samples_ns: Vec::with_capacity(self.sample_size),
            metrics: MetricsRegistry::new(),
        };
        f(&mut bencher);
        let metrics = non_empty_snapshot(&bencher.metrics);
        let report = BenchReport::from_samples(id, bencher.samples_ns, metrics, self.throughput);
        println!(
            "{}/{}: mean {} (min {}, max {}, {} samples)",
            self.name,
            report.id,
            fmt_ns(report.mean_ns),
            fmt_ns(report.min_ns as f64),
            fmt_ns(report.max_ns as f64),
            report.samples,
        );
        self.reports.push(report);
    }

    /// Write the group report. Called implicitly on drop if omitted.
    pub fn finish(mut self) {
        self.write_report();
    }

    fn write_report(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let mut root = Json::Null;
        root.set("group", self.name.as_str());
        root.set(
            "benchmarks",
            Json::Arr(self.reports.iter().map(BenchReport::to_json).collect()),
        );
        let dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| default_out_dir());
        let file = sanitize(&self.name);
        let path = std::path::Path::new(&dir).join(format!("BENCH_{file}.json"));
        if std::fs::create_dir_all(&dir).is_ok() {
            match std::fs::write(&path, root.to_string_pretty() + "\n") {
                Ok(()) => println!("{}: wrote {}", self.name, path.display()),
                Err(err) => eprintln!("{}: failed to write {}: {err}", self.name, path.display()),
            }
        }
        let _ = &self.criterion; // group lifetime ties reports to the runner
    }
}

impl Drop for BenchmarkGroup<'_> {
    fn drop(&mut self) {
        self.write_report();
    }
}

/// `results/` under the workspace root, so every bench writes to one place
/// no matter which package it runs from. Cargo runs bench binaries with the
/// package directory as cwd; the workspace root is the nearest ancestor
/// holding a `Cargo.lock`. Falls back to cwd-relative `results/`.
fn default_out_dir() -> String {
    let start = std::env::current_dir().unwrap_or_else(|_| ".".into());
    let mut dir = start.as_path();
    loop {
        if dir.join("Cargo.lock").is_file() {
            return dir.join("results").to_string_lossy().into_owned();
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => return "results".to_string(),
        }
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// The bench runner configuration.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        // Env override mirrors upstream's CLI flag; keeps CI smoke runs fast.
        let sample_size = std::env::var("BENCH_SAMPLE_SIZE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(10);
        Criterion { sample_size }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size;
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            throughput: None,
            sample_size,
            reports: Vec::new(),
            finished: false,
        }
    }

    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut group = self.benchmark_group(id);
        group.bench_function("default", f);
        group.finish();
        self
    }
}

/// `criterion_group! { name = benches; config = ...; targets = a, b }` or
/// `criterion_group!(benches, a, b)` — defines `fn benches()` running each
/// target against the configured [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// `criterion_main!(benches)` — the bench binary entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // Cargo passes `--bench`/`--test` harness flags; nothing to parse.
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_collects_requested_samples() {
        let mut c = Criterion::default().sample_size(5);
        let mut group = c.benchmark_group("shim_test_iter");
        let mut calls = 0u32;
        group.bench_function("count", |b| {
            b.iter(|| {
                calls += 1;
                calls
            })
        });
        // 1 warmup + 5 samples.
        assert_eq!(calls, 6);
        assert_eq!(group.reports.len(), 1);
        assert_eq!(group.reports[0].samples, 5);
        group.finished = true; // skip the report write in unit tests
    }

    #[test]
    fn iter_batched_runs_setup_per_sample() {
        let mut c = Criterion::default().sample_size(3);
        let mut group = c.benchmark_group("shim_test_batched");
        let mut setups = 0u32;
        group.bench_with_input(BenchmarkId::new("b", 7), &7usize, |b, &_n| {
            b.iter_batched(
                || {
                    setups += 1;
                    vec![0u8; 8]
                },
                |v| v.len(),
                BatchSize::LargeInput,
            )
        });
        assert_eq!(setups, 4); // warmup + 3 samples
        assert_eq!(group.reports[0].id, "b/7");
        group.finished = true;
    }

    #[test]
    fn report_statistics_are_ordered() {
        let throughput = Some(Throughput::Elements(1_000));
        let r = BenchReport::from_samples("x".into(), vec![30, 10, 20], None, throughput);
        assert_eq!(r.min_ns, 10);
        assert_eq!(r.median_ns, 20);
        assert_eq!(r.max_ns, 30);
        assert!((r.mean_ns - 20.0).abs() < 1e-9);
        let json = r.to_json();
        assert_eq!(json.get("samples").and_then(|v| v.as_i64()), Some(3));
        assert!(json.get("elements_per_sec").is_some());
    }

    #[test]
    fn bencher_metrics_are_embedded_only_when_recorded() {
        let mut c = Criterion::default().sample_size(2);
        let mut group = c.benchmark_group("shim_test_metrics");
        group.bench_function("silent", |b| b.iter(|| 1 + 1));
        group.bench_function("counting", |b| {
            let counter = b.metrics().counter("bench.work");
            b.iter(|| counter.inc())
        });
        assert!(group.reports[0].metrics.is_none());
        let snap = group.reports[1].metrics.as_ref().expect("snapshot");
        assert!(
            snap.get("counters")
                .and_then(|c| c.get("bench.work"))
                .and_then(|v| v.as_i64())
                .is_some_and(|n| n >= 2),
            "{snap}"
        );
        // And the snapshot rides into the JSON report entry.
        let json = group.reports[1].to_json();
        assert!(json.get("metrics").is_some());
        group.finished = true;
    }

    #[test]
    fn each_report_uses_the_throughput_it_ran_under() {
        let mut c = Criterion::default().sample_size(2);
        let mut group = c.benchmark_group("shim_test_throughput");
        group.throughput(Throughput::Elements(10));
        group.bench_function("small", |b| b.iter(|| 1 + 1));
        group.throughput(Throughput::Elements(1_000));
        group.bench_function("large", |b| b.iter(|| 1 + 1));
        for (report, elems) in group.reports.iter().zip([10u64, 1_000]) {
            let json = report.to_json();
            let per_sec = json.get("elements_per_sec").and_then(Json::as_f64);
            let expected = elems as f64 * 1e9 / report.mean_ns;
            assert_eq!(per_sec, Some(expected), "{}", report.id);
            let annotated = json.get("throughput_elements").and_then(|v| v.as_i64());
            assert_eq!(annotated, Some(elems as i64), "{}", report.id);
        }
        group.finished = true;
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("cRepair", 50).id, "cRepair/50");
        assert_eq!(BenchmarkId::from_parameter("hosp").id, "hosp");
        assert_eq!(sanitize("fig13 repair/x"), "fig13_repair_x");
    }
}
