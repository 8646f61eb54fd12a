//! `lRepair` — the fast linear repairing algorithm (Fig 7).
//!
//! Two indices make the per-tuple cost `O(size(Σ))`:
//!
//! * **Inverted lists** ([`LRepairIndex`]): built once per rule set, they
//!   map each `(attribute, value)` key to the rules whose evidence pattern
//!   contains that cell (Fig 8(a)).
//! * **Hash counters** ([`LRepairScratch`]): per tuple, `c(φ)` counts how
//!   many evidence cells of `φ` the current tuple matches. A rule becomes a
//!   candidate (enters `Γ`) exactly when `c(φ) = |X_φ|`.
//!
//! Per tuple: seed the counters from the tuple's cells via the inverted
//! lists; then pop candidates from `Γ`, verifying proper applicability
//! before applying (counters are a filter, not a proof — the negative
//! pattern and assured-set checks happen at pop time, Fig 7 line 10). After
//! an update to attribute `B`, only the inverted lists of the old and new
//! `B`-values are consulted, so each rule's counter moves at most `|X_φ|`
//! times in total. A rule enters `Γ` at most once (the appendix's
//! removal-once-and-for-all argument), enforced by the `enqueued` bitmap.
//!
//! Counters are epoch-stamped so repairing the next tuple costs `O(1)` to
//! "clear" them instead of `O(|Σ|)`.

use fxhash::FxHashMap;
use obs::{Interest, NoopObserver, RepairEvent, RepairObserver};
use relation::{AttrId, AttrSet, Symbol, Table};

use crate::repair::{emit_rule_latency, CellUpdate, RepairOutcome};
use crate::ruleset::{RuleId, RuleSet};
use crate::semantics::properly_applicable;

/// Inverted lists from `(attribute, evidence value)` to rule ids.
///
/// Built once per rule set; immutable and shareable across threads.
#[derive(Debug, Clone)]
pub struct LRepairIndex {
    // FxHash instead of std SipHash: the keys are 8 bytes and probed once
    // per cell, so hashing cost dominates the lookup.
    lists: FxHashMap<(AttrId, Symbol), Vec<RuleId>>,
    /// `|X_φ|` per rule — the counter target.
    evidence_len: Vec<u16>,
}

impl LRepairIndex {
    /// Build the inverted lists for `rules` (Fig 8(a)).
    pub fn build(rules: &RuleSet) -> Self {
        let mut lists: FxHashMap<(AttrId, Symbol), Vec<RuleId>> = FxHashMap::default();
        let mut evidence_len = Vec::with_capacity(rules.len());
        for (id, rule) in rules.iter() {
            evidence_len.push(rule.x().len() as u16);
            for (&attr, &val) in rule.x().iter().zip(rule.tp().iter()) {
                lists.entry((attr, val)).or_default().push(id);
            }
        }
        LRepairIndex {
            lists,
            evidence_len,
        }
    }

    /// Rules whose evidence contains the cell `(attr, value)`.
    #[inline]
    pub fn rules_for(&self, attr: AttrId, value: Symbol) -> &[RuleId] {
        self.lists
            .get(&(attr, value))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Number of distinct `(attribute, value)` keys.
    pub fn num_keys(&self) -> usize {
        self.lists.len()
    }
}

/// Reusable per-thread scratch space: epoch-stamped counters and the
/// candidate queue.
#[derive(Debug, Default)]
pub struct LRepairScratch {
    epoch: u32,
    stamp: Vec<u32>,
    count: Vec<u16>,
    enqueued_stamp: Vec<u32>,
    queue: Vec<RuleId>,
}

impl LRepairScratch {
    /// Create scratch space for a rule set of `num_rules` rules.
    pub fn new(num_rules: usize) -> Self {
        LRepairScratch {
            epoch: 0,
            stamp: vec![0; num_rules],
            count: vec![0; num_rules],
            enqueued_stamp: vec![0; num_rules],
            queue: Vec::new(),
        }
    }

    fn begin_tuple(&mut self, num_rules: usize) {
        if self.stamp.len() != num_rules {
            self.stamp = vec![0; num_rules];
            self.count = vec![0; num_rules];
            self.enqueued_stamp = vec![0; num_rules];
            self.epoch = 0;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: hard reset once every 2^32 tuples.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.enqueued_stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.queue.clear();
    }

    #[inline]
    fn count_of(&mut self, rule: RuleId) -> u16 {
        if self.stamp[rule.index()] != self.epoch {
            self.stamp[rule.index()] = self.epoch;
            self.count[rule.index()] = 0;
        }
        self.count[rule.index()]
    }

    #[inline]
    fn set_count(&mut self, rule: RuleId, v: u16) {
        self.stamp[rule.index()] = self.epoch;
        self.count[rule.index()] = v;
    }

    #[inline]
    fn try_enqueue(&mut self, rule: RuleId) {
        if self.enqueued_stamp[rule.index()] != self.epoch {
            self.enqueued_stamp[rule.index()] = self.epoch;
            self.queue.push(rule);
        }
    }
}

/// Repair one tuple in place with `lRepair`. Returns the applied updates
/// (`row` field 0; table drivers re-index).
pub fn lrepair_tuple(
    rules: &RuleSet,
    index: &LRepairIndex,
    scratch: &mut LRepairScratch,
    row: &mut [Symbol],
) -> Vec<CellUpdate> {
    lrepair_tuple_observed(rules, index, scratch, row, &NoopObserver)
}

/// [`lrepair_tuple`] with observer events: `IndexProbe` per inverted-list
/// lookup, `CounterSaturated` per hash counter reaching `|X_φ|`,
/// `RuleApplied` per fired rule, `TuplesDone` (pops, updates) at the end.
/// With [`NoopObserver`] this monomorphizes to the unobserved hot path.
pub fn lrepair_tuple_observed<O: RepairObserver>(
    rules: &RuleSet,
    index: &LRepairIndex,
    scratch: &mut LRepairScratch,
    row: &mut [Symbol],
    observer: &O,
) -> Vec<CellUpdate> {
    scratch.begin_tuple(rules.len());
    // Lines 3–7: seed counters from every cell; enqueue fully-matched
    // rules.
    for (a, &value) in row.iter().enumerate() {
        let attr = AttrId(a as u16);
        let hits = index.rules_for(attr, value);
        observer.on(RepairEvent::IndexProbe { hits: hits.len() });
        for &rid in hits {
            let c = scratch.count_of(rid) + 1;
            scratch.set_count(rid, c);
            if c == index.evidence_len[rid.index()] {
                observer.on(RepairEvent::CounterSaturated);
                scratch.try_enqueue(rid);
            }
        }
    }
    let mut assured = AttrSet::EMPTY;
    let mut updates = Vec::new();
    let mut pops = 0usize;
    // Per-rule latency is opt-in: under NoopObserver (and any observer not
    // asking for timing) the Instant pair folds away.
    let timing = observer.interest().contains(Interest::RULE_TIMING);
    // Lines 8–16: chase over the candidate queue.
    while let Some(rid) = scratch.queue.pop() {
        pops += 1;
        let rule = rules.rule(rid);
        let t0 = timing.then(std::time::Instant::now);
        // Line 10: verify — counters guarantee the evidence matched at
        // enqueue time; the negative pattern and assured set are checked
        // here. Evidence is re-verified too: an update may have overwritten
        // an evidence cell after this rule was enqueued.
        if !properly_applicable(rule, row, assured) {
            observer.on(RepairEvent::RuleRejected { rule: rid.index() });
            emit_rule_latency(observer, rid.index(), t0);
            continue; // line 16: removed once and for all
        }
        let b = rule.b();
        let old = row[b.index()];
        let new = rule.fact();
        row[b.index()] = new;
        assured.union_with(rule.assured_delta());
        observer.on(RepairEvent::RuleApplied {
            rule: rid.index(),
            attr: b.index(),
        });
        emit_rule_latency(observer, rid.index(), t0);
        updates.push(CellUpdate {
            row: 0,
            attr: b,
            old,
            new,
            rule: rid,
            round: pops as u32,
        });
        // Lines 13–15: recalculate counters for the updated cell only.
        let stale = index.rules_for(b, old);
        observer.on(RepairEvent::IndexProbe { hits: stale.len() });
        for &other in stale {
            let c = scratch.count_of(other);
            scratch.set_count(other, c.saturating_sub(1));
        }
        let fresh = index.rules_for(b, new);
        observer.on(RepairEvent::IndexProbe { hits: fresh.len() });
        for &other in fresh {
            let c = scratch.count_of(other) + 1;
            scratch.set_count(other, c);
            if c == index.evidence_len[other.index()] {
                observer.on(RepairEvent::CounterSaturated);
                scratch.try_enqueue(other);
            }
        }
    }
    observer.on(RepairEvent::TuplesDone {
        rounds: pops,
        updates: updates.len(),
        count: 1,
    });
    updates
}

/// Repair every tuple of a table in place with `lRepair`.
pub fn lrepair_table(rules: &RuleSet, index: &LRepairIndex, table: &mut Table) -> RepairOutcome {
    lrepair_table_observed(rules, index, table, &NoopObserver)
}

/// [`lrepair_table`] with observer events; additionally emits one
/// `CellRepaired` per applied update (the table driver knows the row
/// index; the per-tuple algorithm doesn't).
pub fn lrepair_table_observed<O: RepairObserver>(
    rules: &RuleSet,
    index: &LRepairIndex,
    table: &mut Table,
    observer: &O,
) -> RepairOutcome {
    assert!(
        rules.schema().same_as(table.schema()),
        "rule set and table must share a schema"
    );
    let mut scratch = LRepairScratch::new(rules.len());
    let mut outcome = RepairOutcome::default();
    for i in 0..table.len() {
        let mut ups =
            lrepair_tuple_observed(rules, index, &mut scratch, table.row_mut(i), observer);
        for (k, u) in ups.iter_mut().enumerate() {
            u.row = i;
            observer.on(RepairEvent::CellRepaired(u.as_fix(k)));
        }
        outcome.updates.extend(ups);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::chase::crepair_table;
    use relation::{Schema, SymbolTable};

    fn schema() -> Schema {
        Schema::new("Travel", ["name", "country", "capital", "city", "conf"]).unwrap()
    }

    fn fig8_rules(sy: &mut SymbolTable) -> RuleSet {
        let mut rs = RuleSet::new(schema());
        rs.push_named(
            sy,
            &[("country", "China")],
            "capital",
            &["Shanghai", "Hongkong"],
            "Beijing",
        )
        .unwrap();
        rs.push_named(
            sy,
            &[("country", "Canada")],
            "capital",
            &["Toronto"],
            "Ottawa",
        )
        .unwrap();
        rs.push_named(
            sy,
            &[("capital", "Tokyo"), ("city", "Tokyo"), ("conf", "ICDE")],
            "country",
            &["China"],
            "Japan",
        )
        .unwrap();
        rs.push_named(
            sy,
            &[("capital", "Beijing"), ("conf", "ICDE")],
            "city",
            &["Hongkong"],
            "Shanghai",
        )
        .unwrap();
        rs
    }

    fn fig1_table(sy: &mut SymbolTable, schema: &Schema) -> Table {
        let mut t = Table::new(schema.clone());
        for row in [
            ["George", "China", "Beijing", "Beijing", "SIGMOD"],
            ["Ian", "China", "Shanghai", "Hongkong", "ICDE"],
            ["Peter", "China", "Tokyo", "Tokyo", "ICDE"],
            ["Mike", "Canada", "Toronto", "Toronto", "VLDB"],
        ] {
            t.push_strs(sy, &row).unwrap();
        }
        t
    }

    #[test]
    fn inverted_lists_match_fig8a() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let index = LRepairIndex::build(&rules);
        let s = schema();
        // (conf, ICDE) -> {φ3, φ4}
        let conf = rules.schema().attr("conf").unwrap();
        let icde = sy.get("ICDE").unwrap();
        assert_eq!(index.rules_for(conf, icde), &[RuleId(2), RuleId(3)]);
        // (country, China) -> {φ1}
        let country = s.attr("country").unwrap();
        assert_eq!(
            index.rules_for(country, sy.get("China").unwrap()),
            &[RuleId(0)]
        );
        // 6 distinct keys, exactly as in Fig 8(a).
        assert_eq!(index.num_keys(), 6);
    }

    #[test]
    fn replays_fig8_trace() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let index = LRepairIndex::build(&rules);
        let mut table = fig1_table(&mut sy, &rules.schema().clone());
        let outcome = lrepair_table(&rules, &index, &mut table);
        assert_eq!(outcome.total_updates(), 4);
        assert_eq!(
            table.row_strs(&sy, 0),
            vec!["George", "China", "Beijing", "Beijing", "SIGMOD"]
        );
        assert_eq!(
            table.row_strs(&sy, 1),
            vec!["Ian", "China", "Beijing", "Shanghai", "ICDE"]
        );
        assert_eq!(
            table.row_strs(&sy, 2),
            vec!["Peter", "Japan", "Tokyo", "Tokyo", "ICDE"]
        );
        assert_eq!(
            table.row_strs(&sy, 3),
            vec!["Mike", "Canada", "Ottawa", "Toronto", "VLDB"]
        );
    }

    #[test]
    fn agrees_with_crepair_on_fig1() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let index = LRepairIndex::build(&rules);
        let mut a = fig1_table(&mut sy, &rules.schema().clone());
        let mut b = a.clone();
        let oa = crepair_table(&rules, &mut a);
        let ob = lrepair_table(&rules, &index, &mut b);
        assert_eq!(a.diff_cells(&b).unwrap(), 0);
        assert_eq!(oa.total_updates(), ob.total_updates());
    }

    #[test]
    fn overwritten_evidence_never_happens_for_consistent_rules() {
        // For a *consistent* Σ an update can never invalidate another
        // matched evidence cell — that situation is exactly a case 2(a)
        // conflict (B_i ∈ X_j with tp_j[B_i] ∈ Tp_i[B_i]) which
        // `check_consistency` rejects. Verify that the pair is flagged, and
        // that on such an (inconsistent) input lRepair still terminates and
        // lands on one of the legitimate fixes, guarded by pop-time
        // re-verification and the counter decrement.
        let s = schema();
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(s);
        rs.push_named(
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai"],
            "Beijing",
        )
        .unwrap();
        rs.push_named(
            &mut sy,
            &[("capital", "Shanghai")],
            "city",
            &["Paris"],
            "Shanghai",
        )
        .unwrap();
        assert!(!rs.check_consistency().is_consistent());
        let index = LRepairIndex::build(&rs);
        let mut scratch = LRepairScratch::new(rs.len());
        let mut row: Vec<Symbol> = ["Ian", "China", "Shanghai", "Paris", "ICDE"]
            .iter()
            .map(|v| sy.intern(v))
            .collect();
        let valid = crate::semantics::all_fixes(&[rs.rule(RuleId(0)), rs.rule(RuleId(1))], &row);
        assert_eq!(valid.len(), 2, "pair reaches two fixpoints");
        lrepair_tuple(&rs, &index, &mut scratch, &mut row);
        assert!(valid.contains(&row));
    }

    #[test]
    fn scratch_reuse_across_tuples_is_clean() {
        let mut sy = SymbolTable::new();
        let rules = fig8_rules(&mut sy);
        let index = LRepairIndex::build(&rules);
        let mut scratch = LRepairScratch::new(rules.len());
        // Repair the same dirty tuple twice with the same scratch; second
        // run must behave identically (fresh epoch).
        for _ in 0..2 {
            let mut row: Vec<Symbol> = ["Ian", "China", "Shanghai", "Hongkong", "ICDE"]
                .iter()
                .map(|v| sy.intern(v))
                .collect();
            let ups = lrepair_tuple(&rules, &index, &mut scratch, &mut row);
            assert_eq!(ups.len(), 2);
            assert_eq!(sy.resolve(row[2]), "Beijing");
            assert_eq!(sy.resolve(row[3]), "Shanghai");
        }
    }

    #[test]
    fn empty_ruleset_is_a_noop() {
        let mut sy = SymbolTable::new();
        let rules = RuleSet::new(schema());
        let index = LRepairIndex::build(&rules);
        let mut table = fig1_table(&mut sy, &rules.schema().clone());
        let before = table.clone();
        let outcome = lrepair_table(&rules, &index, &mut table);
        assert_eq!(outcome.total_updates(), 0);
        assert_eq!(before.diff_cells(&table).unwrap(), 0);
    }

    #[test]
    fn rule_enqueued_at_most_once() {
        // A tuple matching a rule's evidence through two different cells
        // must still enqueue the rule once: counters target |X| exactly.
        let s = Schema::new("R", ["a", "b", "c"]).unwrap();
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(s);
        rs.push_named(&mut sy, &[("a", "k"), ("b", "k")], "c", &["bad"], "good")
            .unwrap();
        let index = LRepairIndex::build(&rs);
        let mut scratch = LRepairScratch::new(rs.len());
        let mut row: Vec<Symbol> = ["k", "k", "bad"].iter().map(|v| sy.intern(v)).collect();
        let ups = lrepair_tuple(&rs, &index, &mut scratch, &mut row);
        assert_eq!(ups.len(), 1);
        assert_eq!(sy.resolve(row[2]), "good");
    }
}
