//! Columnar group-by-plan bench: the paper's `lRepair` vs the grouped
//! columnar path on duplicated-tuple tables at 20k and 200k rows.
//!
//! The columnar driver groups a batch by relevant-attribute signature and
//! runs the engine (or probes the plan cache) once per *group*, scattering
//! the plan to members — so its per-duplicate cost is a memcpy-scatter
//! instead of a full rule evaluation. Configurations over the same table,
//! per size:
//!
//! * `lRepair` — the uncached reference algorithm (every row pays full
//!   rule evaluation);
//! * `columnar_cold` — group-by-plan with a fresh cache per iteration
//!   (each group's first row runs the engine);
//! * `columnar_warm` — group-by-plan with a pre-warmed cache (every group
//!   representative hits; this is the steady state of repeated repair
//!   runs and must beat `lRepair` by ≥2× at 200k rows — gated on
//!   `results/BENCH_columnar_repair.json`);
//! * `lRepair_attributed` / `columnar_warm_attributed` — the same drivers
//!   with an [`obs::AttributionObserver`] teed in (timing off), pinning the
//!   per-rule attribution overhead next to its unattributed baseline.
//!
//! Each benchmark embeds its metrics snapshot, so the report records the
//! `repair.batch.*` group-by shape and cache hit/miss counts alongside
//! wall-clock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use fixrules::repair::{
    columnar_table_observed, lrepair_table_observed, CompiledEngine, LRepairIndex, PlanCache,
    RuleProgram,
};
use fixrules::RuleSet;
use obs::{AttributionObserver, MetricsObserver, RepairObserver, RuleLabel, Tee};
use relation::{ColumnTable, Table};

/// Distinct source rows cycled into each benched table.
const DISTINCT_ROWS: usize = 400;
/// Benched table sizes (each distinct row appears total/400 times).
const SIZES: [(&str, usize); 2] = [("20k", 20_000), ("200k", 200_000)];

/// Tile the first `DISTINCT_ROWS` rows of the workload's dirty table up to
/// `total` rows — real dirty data is dominated by repeated records, which
/// is exactly what signature grouping exploits.
fn duplicated_table(src: &Table, total: usize) -> Table {
    let mut dup = Table::with_capacity(src.schema().clone(), total);
    for i in 0..total {
        dup.push_row(src.row(i % DISTINCT_ROWS)).unwrap();
    }
    dup
}

/// Per-rule series labels for the attribution rows, mirroring `fixctl`:
/// stable rule id plus the attribute the rule fixes.
fn rule_labels(rules: &RuleSet) -> Vec<RuleLabel> {
    rules
        .iter()
        .map(|(id, rule)| RuleLabel {
            rule: format!("r{}", id.0),
            attr: rules.schema().attr_name(rule.b()).to_string(),
        })
        .collect()
}

/// Columnar repair of `columns` under `observer` over a plan cache
/// pre-warmed by one untimed pass.
fn columnar_warm<O: RepairObserver>(
    b: &mut criterion::Bencher,
    rules: &RuleSet,
    program: &RuleProgram,
    columns: &ColumnTable,
    observer: &O,
) {
    let engine = CompiledEngine::Linear;
    let cache = PlanCache::unbounded();
    let mut warmup = columns.clone();
    columnar_table_observed(
        rules,
        program,
        engine,
        Some(&cache),
        &mut warmup,
        &obs::NoopObserver,
    );
    b.iter_batched(
        || columns.clone(),
        |mut t| columnar_table_observed(rules, program, engine, Some(&cache), &mut t, observer),
        criterion::BatchSize::LargeInput,
    )
}

fn bench_columnar_repair(c: &mut Criterion) {
    let workload = bench::hosp_workload(DISTINCT_ROWS, 200);
    let rules = &workload.rules;
    let index = LRepairIndex::build(rules);
    let program = RuleProgram::compile(rules);

    let mut group = c.benchmark_group("columnar_repair");
    for (label, total) in SIZES {
        let table = duplicated_table(&workload.dirty, total);
        let columns = ColumnTable::from(&table);
        group.throughput(Throughput::Elements(total as u64));

        group.bench_with_input(BenchmarkId::new("lRepair", label), &(), |b, _| {
            let observer = MetricsObserver::new(b.metrics());
            b.iter_batched(
                || table.clone(),
                |mut t| lrepair_table_observed(rules, &index, &mut t, &observer),
                criterion::BatchSize::LargeInput,
            )
        });

        group.bench_with_input(
            BenchmarkId::new("lRepair_attributed", label),
            &(),
            |b, _| {
                let observer = MetricsObserver::new(b.metrics());
                let attribution = AttributionObserver::new(b.metrics(), rule_labels(rules));
                let teed = Tee(&observer, &attribution);
                b.iter_batched(
                    || table.clone(),
                    |mut t| lrepair_table_observed(rules, &index, &mut t, &teed),
                    criterion::BatchSize::LargeInput,
                )
            },
        );

        group.bench_with_input(BenchmarkId::new("columnar_cold", label), &(), |b, _| {
            let observer = MetricsObserver::new(b.metrics());
            b.iter_batched(
                || (columns.clone(), PlanCache::unbounded()),
                |(mut t, cache)| {
                    columnar_table_observed(
                        rules,
                        &program,
                        CompiledEngine::Linear,
                        Some(&cache),
                        &mut t,
                        &observer,
                    )
                },
                criterion::BatchSize::LargeInput,
            )
        });

        group.bench_with_input(BenchmarkId::new("columnar_warm", label), &(), |b, _| {
            let observer = MetricsObserver::new(b.metrics());
            columnar_warm(b, rules, &program, &columns, &observer)
        });

        group.bench_with_input(
            BenchmarkId::new("columnar_warm_attributed", label),
            &(),
            |b, _| {
                let observer = MetricsObserver::new(b.metrics());
                let attribution = AttributionObserver::new(b.metrics(), rule_labels(rules));
                columnar_warm(b, rules, &program, &columns, &Tee(&observer, &attribution))
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_columnar_repair
}
criterion_main!(benches);
