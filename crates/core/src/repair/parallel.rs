//! Parallel table repair over the grouped columnar core.
//!
//! Fixing rules read and write a single tuple at a time — unlike FD repair,
//! no cross-tuple state exists — so a table repair is embarrassingly
//! parallel: shard the rows, give each worker its own
//! [`CompiledScratch`] and [`repair_columns_grouped`] batch, and share the
//! immutable [`RuleProgram`] and, optionally, a [`PlanCache`]. This is an
//! extension beyond the paper (its experiments are single-threaded); the
//! `repro` harness uses the sequential oracles so timings stay comparable.

use obs::RepairObserver;
use relation::ColumnTable;

use crate::repair::columnar::{repair_columns_grouped, BatchStats};
use crate::repair::compile::{CompiledEngine, CompiledScratch, PlanCache, RuleProgram};
use crate::repair::{CellUpdate, RepairOutcome};
use crate::ruleset::RuleSet;

/// Parallel columnar repair — sound because fixing rules are strictly
/// per-tuple: columns are split into horizontal chunks (no
/// transposition — each worker takes one disjoint slice per attribute),
/// each worker runs its own [`repair_columns_grouped`], and plans cross
/// chunk boundaries only through the shared [`PlanCache`] (use
/// [`PlanCache::sharded`] to keep shard contention low). The update log
/// is byte-identical to [`crate::repair::columnar_table_observed`]'s after the final
/// stable sort.
///
/// Hooks come from the shared observer (which must be `Sync`), one
/// `batch_grouped` per worker chunk, and one `worker_done(worker, rows,
/// updates, busy_ns)` per worker; per-row hooks of different chunks
/// interleave. The returned [`BatchStats`] sum the per-chunk stats, so
/// `groups` may exceed the sequential driver's count when a signature
/// spans chunks.
#[allow(clippy::too_many_arguments)]
pub fn par_columnar_table_observed<O: RepairObserver>(
    rules: &RuleSet,
    program: &RuleProgram,
    engine: CompiledEngine,
    cache: Option<&PlanCache>,
    table: &mut ColumnTable,
    num_threads: usize,
    observer: &O,
) -> (RepairOutcome, BatchStats) {
    assert!(
        rules.schema().same_as(table.schema()),
        "rule set and table must share a schema"
    );
    let num_threads = num_threads.max(1);
    let rows = table.len();
    if rows == 0 {
        return (RepairOutcome::default(), BatchStats::default());
    }
    let chunk_rows = rows.div_ceil(num_threads);
    let mut all_updates: Vec<CellUpdate> = Vec::new();
    let mut total = BatchStats::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (chunk_idx, mut chunk) in table.columns_mut_chunks(chunk_rows).into_iter().enumerate() {
            let base_row = chunk_idx * chunk_rows;
            handles.push(scope.spawn(move || {
                let start = std::time::Instant::now();
                let mut scratch = CompiledScratch::new(rules.len());
                let (local, stats) = repair_columns_grouped(
                    rules,
                    program,
                    engine,
                    cache,
                    &mut scratch,
                    &mut chunk,
                    base_row,
                    observer,
                );
                let busy_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                observer.worker_done(chunk_idx, stats.rows, local.len(), busy_ns);
                (local, stats)
            }));
        }
        for h in handles {
            let (local, stats) = h.join().expect("repair worker panicked");
            all_updates.extend(local);
            total.merge(stats);
        }
    });
    // Stable sort: chunks append in ascending base_row and each chunk's
    // updates are already in (row, application order), so per-row order
    // survives and the log is byte-identical to the sequential driver's.
    all_updates.sort_by_key(|u| u.row);
    (
        RepairOutcome {
            updates: all_updates,
        },
        total,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::{columnar_table_observed, crepair_table, lrepair_table, LRepairIndex};
    use obs::NoopObserver;
    use relation::{Schema, SymbolTable, Table};

    fn setup(rows: usize) -> (RuleSet, Table, SymbolTable) {
        let schema = Schema::new("Travel", ["name", "country", "capital", "city", "conf"]).unwrap();
        let mut sy = SymbolTable::new();
        let mut rules = RuleSet::new(schema.clone());
        rules
            .push_named(
                &mut sy,
                &[("country", "China")],
                "capital",
                &["Shanghai", "Hongkong"],
                "Beijing",
            )
            .unwrap();
        rules
            .push_named(
                &mut sy,
                &[("country", "Canada")],
                "capital",
                &["Toronto"],
                "Ottawa",
            )
            .unwrap();
        let mut table = Table::with_capacity(schema, rows);
        for i in 0..rows {
            let row = if i % 3 == 0 {
                ["p", "China", "Shanghai", "x", "ICDE"]
            } else {
                ["p", "China", "Beijing", "x", "ICDE"]
            };
            table.push_strs(&mut sy, &row).unwrap();
        }
        (rules, table, sy)
    }

    /// Parallel repair of a copy of `table`, unobserved; returns the
    /// repaired table alongside the outcome.
    fn par(
        rules: &RuleSet,
        engine: CompiledEngine,
        cache: Option<&PlanCache>,
        table: &Table,
        threads: usize,
    ) -> (Table, RepairOutcome, BatchStats) {
        let program = RuleProgram::compile(rules);
        let mut cols = ColumnTable::from_table(table);
        let (out, stats) = par_columnar_table_observed(
            rules,
            &program,
            engine,
            cache,
            &mut cols,
            threads,
            &NoopObserver,
        );
        (cols.to_table(), out, stats)
    }

    #[test]
    fn matches_sequential_result() {
        let (rules, table, _sy) = setup(1000);
        let index = LRepairIndex::build(&rules);
        let mut seq = table.clone();
        let so = lrepair_table(&rules, &index, &mut seq);
        let (par_t, po, _) = par(&rules, CompiledEngine::Linear, None, &table, 4);
        assert_eq!(seq.diff_cells(&par_t).unwrap(), 0);
        assert_eq!(so.total_updates(), po.total_updates());
        assert_eq!(so.updates, po.updates, "full update logs must agree");
    }

    #[test]
    fn single_thread_degenerates_to_sequential() {
        let (rules, table, _sy) = setup(10);
        let program = RuleProgram::compile(&rules);
        let mut seq = ColumnTable::from_table(&table);
        let (so, sstats) = columnar_table_observed(
            &rules,
            &program,
            CompiledEngine::Linear,
            None,
            &mut seq,
            &NoopObserver,
        );
        let (par_t, po, pstats) = par(&rules, CompiledEngine::Linear, None, &table, 1);
        assert_eq!(seq.to_table().diff_cells(&par_t).unwrap(), 0);
        assert_eq!(so.updates, po.updates);
        assert_eq!(sstats, pstats, "one worker is one batch");
    }

    #[test]
    fn more_threads_than_rows_is_fine() {
        let (rules, table, _sy) = setup(3);
        let (_, outcome, stats) = par(&rules, CompiledEngine::Linear, None, &table, 16);
        assert_eq!(outcome.total_updates(), 1);
        assert_eq!(stats.rows, 3);
    }

    #[test]
    fn empty_table_is_noop() {
        let (rules, table, _sy) = setup(0);
        let (_, outcome, stats) = par(&rules, CompiledEngine::Linear, None, &table, 4);
        assert_eq!(outcome.total_updates(), 0);
        assert_eq!(stats, BatchStats::default());
    }

    #[test]
    fn compiled_parallel_matches_sequential_compiled_and_uncached() {
        let (rules, table, _sy) = setup(1000);
        let index = LRepairIndex::build(&rules);
        let cache = PlanCache::sharded(16);
        let mut seq = table.clone();
        let so = lrepair_table(&rules, &index, &mut seq);
        let (par_t, po, stats) = par(&rules, CompiledEngine::Linear, Some(&cache), &table, 4);
        assert_eq!(seq.diff_cells(&par_t).unwrap(), 0);
        assert_eq!(so.updates, po.updates, "full update logs must agree");
        let cs = cache.stats();
        assert_eq!(
            cs.hits + cs.misses,
            stats.groups as u64,
            "one probe per group"
        );
        assert!(cs.misses <= 4 * 2, "two signatures, four workers");
        assert_eq!(cs.entries, 2);

        // Cache off, chase flavor, degenerate single worker.
        let (par1, p1, _) = par(&rules, CompiledEngine::Chase, None, &table, 1);
        let mut seq1 = table.clone();
        let s1 = crepair_table(&rules, &mut seq1);
        assert_eq!(seq1.diff_cells(&par1).unwrap(), 0);
        assert_eq!(p1.updates, s1.updates);
    }

    #[test]
    fn updates_row_indices_are_global() {
        let (rules, table, _sy) = setup(100);
        let (_, outcome, _) = par(&rules, CompiledEngine::Linear, None, &table, 7);
        for u in &outcome.updates {
            assert_eq!(u.row % 3, 0, "only every third row is dirty");
        }
        assert_eq!(outcome.total_updates(), 34);
    }
}
