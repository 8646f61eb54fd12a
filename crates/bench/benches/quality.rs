//! `bench quality` — sketch + window overhead of the repair-quality
//! observatory on the 20k duplicated-tuple stream workload.
//!
//! Configurations, all one-pass `stream_repair_csv` over the same
//! in-memory CSV, with `fixctl`'s stream defaults (1024-record batches,
//! a fresh 4096-plan LRU per iteration):
//!
//! * `unmonitored` — [`obs::NoopObserver`]: the `Interest::ROWS` gate keeps
//!   the grouped core from even copying the pre-repair row, so this is
//!   the true zero-cost baseline;
//! * `monitored/256` / `monitored/1024` — a fresh [`QualityMonitor`]
//!   per iteration feeding per-attribute count–min, distinct, and
//!   reservoir sketches in tumbling windows of 256 / 1024 rows.
//!
//! The acceptance target is monitored ≤ 1.10× unmonitored wall-clock at
//! the default 256-row window. Each monitored benchmark embeds its
//! metrics snapshot, so the pinned `BENCH_quality.json` also records
//! `quality.windows` and per-attribute `quality.drift` gauges next to
//! the wall clock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use fixrules::repair::{stream_repair_csv, CompiledEngine, PlanCache, RuleProgram};
use obs::{NoopObserver, QualityConfig, QualityMonitor};
use relation::{csv_io, Table};

/// Distinct source rows cycled into the benched stream.
const DISTINCT_ROWS: usize = 400;
/// Total rows streamed per iteration (each distinct row appears ~50×).
const TOTAL_ROWS: usize = 20_000;
/// Records per stream batch and plans in the stream's LRU, as in
/// `fixctl repair --engine stream`.
const BATCH_ROWS: usize = 1024;
const CACHE_PLANS: usize = 4096;
/// Consecutive repetitions per distinct row. The real hosp file clusters
/// ~20 rows per provider (one per measure), so duplicates arrive in
/// runs; short runs of 8 keep the stream realistic without being the
/// monitor's best case.
const RUN_LEN: usize = 8;

/// Tile the workload's dirty table up to `TOTAL_ROWS` — duplicates in
/// runs of [`RUN_LEN`] — and render it as the CSV byte stream every
/// configuration repairs.
fn stream_csv(workload: &bench::Workload) -> Vec<u8> {
    let mut tiled = Table::with_capacity(workload.dirty.schema().clone(), TOTAL_ROWS);
    for i in 0..TOTAL_ROWS {
        tiled
            .push_row(workload.dirty.row((i / RUN_LEN) % DISTINCT_ROWS))
            .unwrap();
    }
    let mut out = Vec::new();
    csv_io::write_csv(&mut out, &tiled, &workload.dataset.symbols).unwrap();
    out
}

fn bench_quality(c: &mut Criterion) {
    let workload = bench::hosp_workload(DISTINCT_ROWS, 200);
    let rules = &workload.rules;
    let program = RuleProgram::compile(rules);
    let csv = stream_csv(&workload);
    let attr_names: Vec<String> = workload
        .dirty
        .schema()
        .attr_names()
        .map(str::to_string)
        .collect();

    let mut group = c.benchmark_group("quality");
    group.throughput(Throughput::Elements(TOTAL_ROWS as u64));

    group.bench_with_input(BenchmarkId::new("unmonitored", "stream"), &(), |b, _| {
        b.iter_batched(
            || {
                let cache = PlanCache::bounded_lru(CACHE_PLANS);
                (workload.dataset.symbols.clone(), cache)
            },
            |(mut symbols, cache)| {
                stream_repair_csv(
                    rules,
                    &program,
                    CompiledEngine::Linear,
                    Some(&cache),
                    &mut symbols,
                    &csv[..],
                    std::io::sink(),
                    BATCH_ROWS,
                    &NoopObserver,
                )
                .unwrap()
            },
            criterion::BatchSize::LargeInput,
        )
    });

    for window in [256usize, 1024] {
        group.bench_with_input(
            BenchmarkId::new("monitored", window),
            &window,
            |b, &window| {
                let registry = b.metrics().clone();
                b.iter_batched(
                    || {
                        let cfg = QualityConfig {
                            window_rows: window,
                            ..QualityConfig::default()
                        };
                        let monitor =
                            QualityMonitor::new(cfg, attr_names.clone()).with_registry(&registry);
                        let cache = PlanCache::bounded_lru(CACHE_PLANS);
                        (workload.dataset.symbols.clone(), cache, monitor)
                    },
                    |(mut symbols, cache, monitor)| {
                        let stats = stream_repair_csv(
                            rules,
                            &program,
                            CompiledEngine::Linear,
                            Some(&cache),
                            &mut symbols,
                            &csv[..],
                            std::io::sink(),
                            BATCH_ROWS,
                            &monitor,
                        )
                        .unwrap();
                        monitor.flush();
                        assert!(monitor.windows_sealed() > 0);
                        stats
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_quality);
criterion_main!(benches);
