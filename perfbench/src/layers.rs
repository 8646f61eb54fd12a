//! The traced run's in-process replay: the benchmark calls each layer's
//! public functions itself, in the order `fixctl repair --engine columnar
//! --threads 1` does, and records one span around every call.

use std::collections::BTreeMap;
use std::path::Path;

use fixrules::io::{parse_rules, parse_rules_spanned};
use fixrules::repair::{columnar_table_observed, CompiledEngine, PlanCache, RuleProgram};
use obs::trace::{TracePhase, TraceRecord, TraceSpan};
use obs::{MetricsObserver, MetricsRegistry, TraceJournal};
use relation::{ColumnTable, SymbolTable};

use crate::serve::counter;

/// Span names of the replayed data path, in call order.
pub const PIPELINE_LAYERS: [&str; 9] = [
    "relation.read_csv",
    "core.parse_rules",
    "core.consistency",
    "core.compile",
    "core.plan_cache",
    "relation.to_columns",
    "core.repair",
    "relation.to_table",
    "relation.write_csv",
];

/// Counts measured at the layer boundaries.
pub struct PipelineCounts {
    pub bytes_in: f64,
    pub bytes_out: f64,
    pub symbols: f64,
    pub rows: f64,
    pub groups: f64,
    pub plan_cache_hits: f64,
    pub plan_cache_misses: f64,
    pub updates: f64,
}

/// A span in `journal`, or nothing when the call runs untraced.
fn span<'j>(journal: Option<&'j TraceJournal>, name: &str, parent: u64) -> Option<TraceSpan<'j>> {
    journal.map(|j| j.span(name, parent))
}

/// Repair `input` with `rules_text` into `out`. With a journal, one span
/// per layer call, all under a `pipeline` root span; without one, the
/// same calls with no span guards (the untraced baseline).
pub fn pipeline(
    journal: Option<&TraceJournal>,
    input: &Path,
    rules_text: &str,
    out: &Path,
) -> Result<PipelineCounts, String> {
    let root = span(journal, "pipeline", 0);
    let id = root.as_ref().map_or(0, TraceSpan::id);
    let mut symbols = SymbolTable::new();
    let table = {
        let _s = span(journal, "relation.read_csv", id);
        relation::csv_io::read_csv_file(input, "data", &mut symbols)
            .map_err(|e| format!("reading {input:?}: {e}"))?
    };
    let rules = {
        let _s = span(journal, "core.parse_rules", id);
        parse_rules(rules_text, table.schema(), &mut symbols)
            .map_err(|e| format!("parsing rules: {e}"))?
    };
    {
        let _s = span(journal, "core.consistency", id);
        if !rules.check_consistency().is_consistent() {
            return Err("generated rule set is inconsistent".into());
        }
    }
    let program = {
        let _s = span(journal, "core.compile", id);
        RuleProgram::compile(&rules)
    };
    let cache = {
        let _s = span(journal, "core.plan_cache", id);
        PlanCache::unbounded()
    };
    let mut columns = {
        let _s = span(journal, "relation.to_columns", id);
        ColumnTable::from(&table)
    };
    drop(table);
    let registry = MetricsRegistry::new();
    let observer = MetricsObserver::new(&registry);
    let (outcome, batch) = {
        let _s = span(journal, "core.repair", id);
        columnar_table_observed(
            &rules,
            &program,
            CompiledEngine::Linear,
            Some(&cache),
            &mut columns,
            &observer,
        )
    };
    let repaired = {
        let _s = span(journal, "relation.to_table", id);
        columns.to_table()
    };
    {
        let _s = span(journal, "relation.write_csv", id);
        relation::csv_io::write_csv_file(out, &repaired, &symbols)
            .map_err(|e| format!("writing {out:?}: {e}"))?;
    }
    drop(root);
    let snapshot = registry.snapshot();
    let size = |p: &Path| std::fs::metadata(p).map(|m| m.len() as f64).unwrap_or(0.0);
    Ok(PipelineCounts {
        bytes_in: size(input),
        bytes_out: size(out),
        symbols: symbols.len() as f64,
        rows: batch.rows as f64,
        groups: batch.groups as f64,
        plan_cache_hits: counter(&snapshot, "repair.plan_cache.hits"),
        plan_cache_misses: counter(&snapshot, "repair.plan_cache.misses"),
        updates: outcome.total_updates() as f64,
    })
}

/// `fixlint::lint` and `fixlint::certify` on the rule text, as `fixd` runs
/// them at boot, under a `boot` root span.
pub fn lint_and_certify(
    journal: &TraceJournal,
    rules_text: &str,
    schema_names: &str,
) -> Result<(), String> {
    let root = journal.span("boot", 0);
    let schema = relation::Schema::new("data", schema_names.split(','))
        .map_err(|e| format!("schema: {e}"))?;
    let mut symbols = SymbolTable::new();
    let parsed = {
        let _s = journal.span("core.parse_rules_spanned", root.id());
        parse_rules_spanned(rules_text, &schema, &mut symbols)
            .map_err(|e| format!("parsing rules: {e}"))?
    };
    {
        let _s = journal.span("fixlint.lint", root.id());
        fixlint::lint(
            &parsed.rules,
            &parsed.spans,
            &symbols,
            &fixlint::LintOptions::default(),
        );
    }
    {
        let _s = journal.span("fixlint.certify", root.id());
        fixlint::certify(
            &parsed.rules,
            &parsed.spans,
            &symbols,
            &fixlint::CertOptions::default(),
        );
    }
    Ok(())
}

/// Per-name totals over a journal's spans.
#[derive(Default, Clone, Copy)]
pub struct SpanTotals {
    /// Summed duration, s.
    pub total_s: f64,
    /// Summed duration minus the time child spans cover, s.
    pub self_s: f64,
    /// Summed duration of direct children, s.
    pub children_s: f64,
}

/// Fold begin/end records into per-name totals.
pub fn span_totals(records: &[TraceRecord]) -> BTreeMap<String, SpanTotals> {
    struct Open {
        name: String,
        parent: u64,
        start: u64,
        children_us: u64,
    }
    let mut open: BTreeMap<u64, Open> = BTreeMap::new();
    let mut totals: BTreeMap<String, SpanTotals> = BTreeMap::new();
    for record in records {
        let ts = record.ts_us.unwrap_or(0);
        match record.phase {
            TracePhase::SpanBegin => {
                open.insert(
                    record.span,
                    Open {
                        name: record.name.clone(),
                        parent: record.parent,
                        start: ts,
                        children_us: 0,
                    },
                );
            }
            TracePhase::SpanEnd => {
                let Some(span) = open.remove(&record.span) else {
                    continue;
                };
                let dur = ts.saturating_sub(span.start);
                if let Some(parent) = open.get_mut(&span.parent) {
                    parent.children_us += dur;
                }
                let entry = totals.entry(span.name).or_default();
                entry.total_s += dur as f64 / 1e6;
                entry.children_s += span.children_us as f64 / 1e6;
                entry.self_s += dur.saturating_sub(span.children_us) as f64 / 1e6;
            }
            TracePhase::Event => {}
        }
    }
    totals
}
