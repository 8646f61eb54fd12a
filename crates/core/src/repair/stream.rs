//! Streaming CSV repair.
//!
//! Fixing rules are strictly per-tuple — unlike FD repair, no cross-tuple
//! state exists — so a table of any size can be repaired in one pass with
//! O(batch + rules + vocabulary) memory: read a batch of records into
//! columns, repair it with the grouped core, write it out. This is an
//! engineering extension beyond the paper (its experiments materialise
//! tables), enabled by exactly the per-tuple property the paper's
//! complexity analysis relies on.
//!
//! Memory note: the [`SymbolTable`] interns every distinct cell value seen,
//! so memory is bounded by the input's *vocabulary*, not its row count.

use std::io::{Read, Write};

use obs::{RepairEvent, RepairObserver};
use relation::csv_io::{CsvReader, CsvWriter};
use relation::{ColumnTable, RelationError, SymbolTable};

use crate::repair::columnar::{repair_columns_grouped, BatchStats};
use crate::repair::compile::{CompiledEngine, CompiledScratch, PlanCache, RuleProgram};
use crate::repair::{RepairOutcome, RepairStats};
use crate::ruleset::RuleSet;

/// Statistics of one streaming run — the shared
/// [`RepairStats`] reporting type, so streaming
/// and table runs expose identical `rows`/`updates`/`rows_touched` fields
/// and `touched_ratio`/`rows_per_sec` accessors.
pub type StreamStats = RepairStats;

/// Repair CSV records from `reader` to `writer` in batches of up to
/// `batch_rows` records: each batch is read into per-attribute columns
/// and repaired by [`repair_columns_grouped`], so each distinct
/// signature runs the compiled engine (or probes `cache`) once per
/// batch. Memory is bounded by `batch_rows × arity` cells, the cache and
/// the vocabulary — a stream has no end in sight, so pass a
/// [`PlanCache::bounded_lru`] (an evicted signature that recurs simply
/// misses once and is re-planned) or `None`; output is byte-identical
/// either way, and equal to `lRepair`/`cRepair` record by record for
/// the linear/chase `engine`.
///
/// The CSV header must match the rule set's schema attribute names (same
/// names, same order) — the rules' attribute ids index positionally into
/// each record. Events are the grouped core's (`RowObserved` with each
/// record's pre-repair values right before its fixes, `CellRepaired`
/// with `row` = 0-based record index), plus one `StreamRecords` per
/// batch carrying the record count and the interner size.
#[allow(clippy::too_many_arguments)]
pub fn stream_repair_csv<R: Read, W: Write, O: RepairObserver>(
    rules: &RuleSet,
    program: &RuleProgram,
    engine: CompiledEngine,
    cache: Option<&PlanCache>,
    symbols: &mut SymbolTable,
    reader: R,
    writer: W,
    batch_rows: usize,
    observer: &O,
) -> Result<(StreamStats, BatchStats), RelationError> {
    let mut rdr = CsvReader::new(reader)?;
    let schema = rules.schema();
    let headers = rdr.header();
    if !headers.iter().map(String::as_str).eq(schema.attr_names()) {
        return Err(RelationError::UnknownAttribute(format!(
            "CSV header [{}] does not match rule schema {}",
            headers.join(", "),
            schema
        )));
    }
    let mut wtr = CsvWriter::new(writer);
    wtr.write_record(schema.attr_names())?;

    let batch_rows = batch_rows.max(1);
    let mut scratch = CompiledScratch::new(rules.len());
    let mut stats = StreamStats::default();
    let mut batch_stats = BatchStats::default();
    loop {
        let mut batch = ColumnTable::with_capacity(schema.clone(), batch_rows);
        let n = rdr.read_rows(symbols, &mut batch, batch_rows)?;
        if n == 0 {
            break;
        }
        let (updates, bstats) = repair_columns_grouped(
            rules,
            program,
            engine,
            cache,
            &mut scratch,
            &mut batch.columns_mut(),
            stats.rows,
            observer,
        );
        batch_stats.merge(bstats);
        let outcome = RepairOutcome { updates };
        stats.updates += outcome.total_updates();
        stats.rows_touched += outcome.rows_touched();
        stats.rows += n;
        observer.on(RepairEvent::StreamRecords {
            count: n,
            vocab: symbols.len(),
        });
        wtr.write_rows(&batch, symbols)?;
    }
    wtr.finish()?;
    Ok((stats, batch_stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::linear::{lrepair_tuple, LRepairIndex, LRepairScratch};
    use obs::NoopObserver;
    use relation::Schema;

    fn setup() -> (RuleSet, SymbolTable) {
        let schema = Schema::new("Travel", ["name", "country", "capital", "city", "conf"]).unwrap();
        let mut sy = SymbolTable::new();
        let mut rules = RuleSet::new(schema);
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
        (rules, sy)
    }

    const DIRTY: &str = "\
name,country,capital,city,conf
George,China,Beijing,Beijing,SIGMOD
Ian,China,Shanghai,Hongkong,ICDE
Mike,Canada,Toronto,Toronto,VLDB
";

    /// Stream `input` with the linear engine, unobserved.
    fn stream(
        rules: &RuleSet,
        sy: &mut SymbolTable,
        input: &str,
        cache: Option<&PlanCache>,
        batch_rows: usize,
    ) -> Result<(Vec<u8>, StreamStats, BatchStats), RelationError> {
        let program = RuleProgram::compile(rules);
        let mut out = Vec::new();
        let (stats, batch) = stream_repair_csv(
            rules,
            &program,
            CompiledEngine::Linear,
            cache,
            sy,
            input.as_bytes(),
            &mut out,
            batch_rows,
            &NoopObserver,
        )?;
        Ok((out, stats, batch))
    }

    #[test]
    fn streams_and_repairs() {
        let (rules, mut sy) = setup();
        let (out, stats, _) = stream(&rules, &mut sy, DIRTY, None, 64).unwrap();
        assert_eq!(stats.rows, 3);
        assert_eq!(stats.updates, 2);
        assert_eq!(stats.rows_touched, 2);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Ian,China,Beijing,Hongkong,ICDE"), "{text}");
        assert!(text.contains("Mike,Canada,Ottawa,Toronto,VLDB"), "{text}");
        // Clean row untouched.
        assert!(text.contains("George,China,Beijing,Beijing,SIGMOD"));
    }

    /// The stream reproduces `lRepair` record by record — cells, update
    /// counts and touched rows — at every batch size, cached or not, and
    /// its batch accounting ties out.
    #[test]
    fn streaming_matches_table_repair() {
        let (rules, mut sy) = setup();
        let index = LRepairIndex::build(&rules);
        // Duplicate the dirty body so batches cross group boundaries.
        let mut input = String::from("name,country,capital,city,conf\n");
        for _ in 0..4 {
            for line in DIRTY.lines().skip(1) {
                input.push_str(line);
                input.push('\n');
            }
        }
        // Oracle: lRepair tuple by tuple over the materialized table.
        let mut table = relation::csv_io::read_csv(input.as_bytes(), "Travel", &mut sy).unwrap();
        let mut scratch = LRepairScratch::new(rules.len());
        let mut expected = StreamStats {
            rows: table.len(),
            ..StreamStats::default()
        };
        for i in 0..table.len() {
            let updates = lrepair_tuple(&rules, &index, &mut scratch, table.row_mut(i));
            expected.updates += updates.len();
            expected.rows_touched += usize::from(!updates.is_empty());
        }
        let mut reference = Vec::new();
        relation::csv_io::write_csv(&mut reference, &table, &sy).unwrap();
        for batch_rows in [1, 2, 7] {
            for cache in [None, Some(PlanCache::bounded_lru(64))] {
                let (out, stats, batch) =
                    stream(&rules, &mut sy, &input, cache.as_ref(), batch_rows).unwrap();
                assert_eq!(stats, expected, "batch_rows={batch_rows}");
                assert_eq!(
                    String::from_utf8(out).unwrap(),
                    String::from_utf8(reference.clone()).unwrap(),
                    "batch_rows={batch_rows}: CSV output must match lRepair"
                );
                assert_eq!(batch.rows, 12);
                assert_eq!(batch.scattered, 12 - batch.groups);
                if let Some(cache) = &cache {
                    let cs = cache.stats();
                    assert_eq!(cs.hits + cs.misses, batch.groups as u64);
                }
            }
        }
    }

    /// The plan cache is invisible in the output: a cached stream writes
    /// the same bytes and reports the same stats as an uncached one, for
    /// both engine flavors.
    #[test]
    fn compiled_stream_matches_uncached_stream() {
        let (rules, mut sy) = setup();
        let program = RuleProgram::compile(&rules);
        for engine in [CompiledEngine::Chase, CompiledEngine::Linear] {
            let mut plain = Vec::new();
            let (plain_stats, _) = stream_repair_csv(
                &rules,
                &program,
                engine,
                None,
                &mut sy,
                DIRTY.as_bytes(),
                &mut plain,
                64,
                &NoopObserver,
            )
            .unwrap();
            let cache = PlanCache::bounded_lru(64);
            let mut out = Vec::new();
            let (stats, _) = stream_repair_csv(
                &rules,
                &program,
                engine,
                Some(&cache),
                &mut sy,
                DIRTY.as_bytes(),
                &mut out,
                64,
                &NoopObserver,
            )
            .unwrap();
            assert_eq!(stats, plain_stats, "{engine:?}");
            assert_eq!(out, plain, "{engine:?}: CSV output must be byte-identical");
            assert_eq!(cache.stats().misses, 3, "three distinct signatures");
        }
    }

    /// The batched columnar stream writes what the compiled engine run
    /// record by record ([`run_engine`]) produces, at every batch size.
    #[test]
    fn columnar_stream_matches_compiled_stream() {
        use crate::repair::compile::run_engine;
        let (rules, mut sy) = setup();
        let program = RuleProgram::compile(&rules);
        // Duplicate the dirty body so batches cross group boundaries.
        let mut input = String::from("name,country,capital,city,conf\n");
        for _ in 0..4 {
            for line in DIRTY.lines().skip(1) {
                input.push_str(line);
                input.push('\n');
            }
        }
        // Reference: the chase-flavor engine, one record at a time.
        let mut table = relation::csv_io::read_csv(input.as_bytes(), "Travel", &mut sy).unwrap();
        let mut scratch = CompiledScratch::new(rules.len());
        let mut ref_stats = StreamStats {
            rows: table.len(),
            ..StreamStats::default()
        };
        for i in 0..table.len() {
            let (updates, _) = run_engine(
                &rules,
                &program,
                CompiledEngine::Chase,
                &mut scratch,
                table.row_mut(i),
                &NoopObserver,
            );
            ref_stats.updates += updates.len();
            ref_stats.rows_touched += usize::from(!updates.is_empty());
        }
        let mut reference = Vec::new();
        relation::csv_io::write_csv(&mut reference, &table, &sy).unwrap();
        for batch_rows in [1, 2, 5, 64] {
            let mut out = Vec::new();
            let (stats, batch) = stream_repair_csv(
                &rules,
                &program,
                CompiledEngine::Chase,
                None,
                &mut sy,
                input.as_bytes(),
                &mut out,
                batch_rows,
                &NoopObserver,
            )
            .unwrap();
            assert_eq!(stats, ref_stats, "batch_rows={batch_rows}");
            assert_eq!(
                out, reference,
                "batch_rows={batch_rows}: CSV must be byte-identical"
            );
            assert_eq!(batch.rows, 12);
            assert_eq!(batch.scattered, 12 - batch.groups);
        }
    }

    #[test]
    fn lru_eviction_and_re_miss_yield_correct_plans() {
        let (rules, mut sy) = setup();
        // Two dirty signatures alternating, one record per batch: a
        // capacity-1 cache thrashes — every lookup after the first evicts
        // the other signature's plan — yet each re-miss must re-plan
        // correctly.
        let mut input = String::from("name,country,capital,city,conf\n");
        for i in 0..6 {
            if i % 2 == 0 {
                input.push_str("p,China,Shanghai,x,ICDE\n");
            } else {
                input.push_str("q,Canada,Toronto,y,VLDB\n");
            }
        }
        let cache = PlanCache::bounded_lru(1);
        let (out, stats, _) = stream(&rules, &mut sy, &input, Some(&cache), 1).unwrap();
        assert_eq!(stats.rows, 6);
        assert_eq!(stats.updates, 6, "every row repaired despite thrashing");
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.matches("p,China,Beijing,x,ICDE").count(), 3);
        assert_eq!(text.matches("q,Canada,Ottawa,y,VLDB").count(), 3);
        let cs = cache.stats();
        assert_eq!(cs.hits, 0, "capacity 1 with alternating signatures");
        assert_eq!(cs.misses, 6);
        assert_eq!(cs.evictions, 5);
        assert_eq!(cs.entries, 1);
    }

    /// A batch larger than the quality window: every repair must still
    /// land in the window that observed its record.
    #[test]
    fn quality_monitor_watches_the_stream() {
        use obs::{QualityConfig, QualityMonitor};
        let (rules, mut sy) = setup();
        let program = RuleProgram::compile(&rules);
        let names: Vec<String> = rules.schema().attr_names().map(str::to_string).collect();
        let monitor = QualityMonitor::new(QualityConfig::with_window(2), names);
        let mut out = Vec::new();
        stream_repair_csv(
            &rules,
            &program,
            CompiledEngine::Linear,
            None,
            &mut sy,
            DIRTY.as_bytes(),
            &mut out,
            1024,
            &monitor,
        )
        .unwrap();
        monitor.flush();
        let windows = monitor.summaries();
        assert_eq!(windows.len(), 2, "3 records at window 2 → 2 windows");
        assert_eq!(windows[0].rows, 2);
        assert_eq!(windows[1].rows, 1);
        // `capital` is attribute 2; Ian's row repaired in window 0,
        // Mike's in window 1 — and the monitor saw the *pre-repair*
        // values (Shanghai, Toronto), not the fixed ones.
        assert_eq!(windows[0].attrs[2].attr, "capital");
        assert_eq!(windows[0].attrs[2].repaired, 1);
        assert_eq!(windows[1].attrs[2].repaired, 1);
        assert_eq!(windows[0].attrs[2].repair_rate_permille, 500);
        assert_eq!(windows[1].attrs[2].repair_rate_permille, 1000);
    }

    #[test]
    fn header_mismatch_rejected() {
        let (rules, mut sy) = setup();
        let err = stream(&rules, &mut sy, "a,b,c\n1,2,3\n", None, 64).unwrap_err();
        assert!(err.to_string().contains("does not match"));
    }

    #[test]
    fn header_order_matters() {
        let (rules, mut sy) = setup();
        let reordered = "country,name,capital,city,conf\nChina,Ian,Shanghai,x,c\n";
        assert!(stream(&rules, &mut sy, reordered, None, 64).is_err());
    }

    #[test]
    fn empty_body_is_fine() {
        let (rules, mut sy) = setup();
        let empty = "name,country,capital,city,conf\n";
        let (_, stats, batch) = stream(&rules, &mut sy, empty, None, 64).unwrap();
        assert_eq!(stats, StreamStats::default());
        assert_eq!(batch, BatchStats::default());
    }
}
