//! Property-based tests for the fixing-rule machinery.
//!
//! These exercise the paper's meta-theorems on randomly generated rule sets
//! and tuples over a small vocabulary (dense vocabularies maximise rule
//! interaction):
//!
//! 1. the chase terminates within `|R|` applications (§4.1);
//! 2. `isConsist_t` and `isConsist_r` agree (Theorem 1 / Lemma 4 / Fig 4);
//! 3. for consistent Σ, all application orders agree (Church–Rosser) and
//!    `cRepair` = `lRepair`;
//! 4. repaired tuples are fixpoints;
//! 5. resolution always terminates in a consistent set.

use proptest::prelude::*;

use fixrules::consistency::resolve::{ensure_consistent, Strategy as ResolveStrategy};
use fixrules::consistency::{is_consistent_characterize, is_consistent_parallel};
use fixrules::provenance::{ProvenanceLedger, ProvenanceObserver};
use fixrules::repair::{
    columnar_table_observed, crepair_table_observed, crepair_tuple, lrepair_table_observed,
    lrepair_tuple, par_columnar_table_observed, run_engine, CellUpdate, CompiledEngine,
    CompiledScratch, LRepairIndex, LRepairScratch, PlanCache, RuleProgram,
};
use fixrules::semantics::{all_fixes, is_fixpoint};
use fixrules::{FixingRule, RuleSet};
use obs::{RepairEvent, RepairObserver};
use relation::{AttrId, AttrSet, ColumnTable, Schema, Symbol, Table};

const ARITY: usize = 5;
const VOCAB: u32 = 6;

fn schema() -> Schema {
    Schema::new("R", ["a0", "a1", "a2", "a3", "a4"]).unwrap()
}

/// A raw rule description: evidence (attr, value) pairs, b, negatives, fact.
#[derive(Debug, Clone)]
struct RawRule {
    evidence: Vec<(u16, u32)>,
    b: u16,
    neg: Vec<u32>,
    fact: u32,
}

fn raw_rule() -> impl Strategy<Value = RawRule> {
    (
        proptest::collection::vec((0u16..ARITY as u16, 0u32..VOCAB), 1..3),
        0u16..ARITY as u16,
        proptest::collection::vec(0u32..VOCAB, 1..4),
        0u32..VOCAB,
    )
        .prop_map(|(evidence, b, neg, fact)| RawRule {
            evidence,
            b,
            neg,
            fact,
        })
}

/// Materialise raw rules, silently dropping invalid ones (duplicate
/// evidence attrs, b ∈ X, fact ∈ neg) — the generator is intentionally
/// sloppy so the validator is also exercised.
fn build_ruleset(raws: &[RawRule]) -> RuleSet {
    let mut rs = RuleSet::new(schema());
    for raw in raws {
        let evidence: Vec<(AttrId, Symbol)> = raw
            .evidence
            .iter()
            .map(|&(a, v)| (AttrId(a), Symbol(v)))
            .collect();
        let neg: Vec<Symbol> = raw.neg.iter().map(|&v| Symbol(v)).collect();
        if let Ok(rule) = FixingRule::new(evidence, AttrId(raw.b), neg, Symbol(raw.fact)) {
            rs.push(rule);
        }
    }
    rs
}

fn rulesets() -> impl Strategy<Value = RuleSet> {
    proptest::collection::vec(raw_rule(), 0..8).prop_map(|raws| build_ruleset(&raws))
}

fn tuples() -> impl Strategy<Value = Vec<Symbol>> {
    proptest::collection::vec(0u32..VOCAB, ARITY..=ARITY)
        .prop_map(|vs| vs.into_iter().map(Symbol).collect())
}

proptest! {
    /// §4.1: the all-orders chase terminates and every reached fix is a
    /// fixpoint; no sequence exceeds |R| applications (implied by
    /// termination of the bounded DFS).
    #[test]
    fn chase_terminates_and_reaches_fixpoints(rs in rulesets(), t in tuples()) {
        let refs: Vec<&FixingRule> = rs.rules().iter().collect();
        let fixes = all_fixes(&refs, &t);
        prop_assert!(!fixes.is_empty());
        for f in &fixes {
            // Recompute the assured set along *some* path is unavailable
            // here, but a fix must at least be stable under the empty
            // assured set for rules whose evidence it fails to match...
            // the strong check: chasing a fix yields only itself when Σ is
            // consistent; in general each fix differs from t only on B
            // attributes.
            for (i, (&orig, &now)) in t.iter().zip(f.iter()).enumerate() {
                if orig != now {
                    let attr = AttrId(i as u16);
                    prop_assert!(rs.rules().iter().any(|r| r.b() == attr),
                        "changed attribute {attr} is not any rule's B");
                }
            }
        }
    }

    /// Theorem 1 machinery: `check_both_agree` holds — the two consistency
    /// checkers reach the same verdict on every generated rule set, flag the
    /// same conflicting pairs, and every reported conflict materializes a
    /// genuine two-fix witness.
    #[test]
    fn checkers_agree(rs in rulesets()) {
        let (r, t) = fixrules::consistency::check_both_agree(&rs);
        prop_assert_eq!(r.is_consistent(), t.is_consistent(),
            "characterize={:?} enumerate={:?}", r.conflicts, t.conflicts);
        // They flag the same pairs...
        let pairs = |rep: &fixrules::ConsistencyReport| {
            let mut v: Vec<(u32, u32)> = rep.conflicts.iter()
                .map(|c| (c.first.0, c.second.0)).collect();
            v.sort();
            v
        };
        prop_assert_eq!(pairs(&r), pairs(&t));
        // ...and the same conflicting-rule sets.
        prop_assert_eq!(r.conflicting_rules(), t.conflicting_rules());
        // Every conflict is real: a tuple the pair chases to two different
        // fixpoints (the witness space is tiny under this vocabulary).
        for conflict in r.conflicts.iter().chain(t.conflicts.iter()) {
            let w = fixrules::consistency::conflict_witness(&rs, conflict, 1 << 16)
                .expect("conflict must yield a witness within budget");
            prop_assert_ne!(&w.fixes[0], &w.fixes[1]);
        }
    }

    /// Church–Rosser (§6.1): for consistent Σ every tuple has exactly one
    /// fix, and cRepair/lRepair both compute it.
    #[test]
    fn consistent_sets_give_unique_fixes(rs in rulesets(), t in tuples()) {
        if !is_consistent_characterize(&rs, 1).is_consistent() {
            // Conditioning by rejection would starve the generator; just
            // resolve the set first.
            let mut rs2 = rs.clone();
            ensure_consistent(&mut rs2, ResolveStrategy::ShrinkNegatives);
            let refs: Vec<&FixingRule> = rs2.rules().iter().collect();
            let fixes = all_fixes(&refs, &t);
            prop_assert_eq!(fixes.len(), 1);
            return Ok(());
        }
        let refs: Vec<&FixingRule> = rs.rules().iter().collect();
        let fixes = all_fixes(&refs, &t);
        prop_assert_eq!(fixes.len(), 1, "consistent Σ must give a unique fix");
        let unique = fixes.into_iter().next().unwrap();

        let mut via_chase = t.clone();
        crepair_tuple(&rs, &mut via_chase);
        prop_assert_eq!(&via_chase, &unique);

        let index = LRepairIndex::build(&rs);
        let mut scratch = LRepairScratch::new(rs.len());
        let mut via_linear = t.clone();
        lrepair_tuple(&rs, &index, &mut scratch, &mut via_linear);
        prop_assert_eq!(&via_linear, &unique);

        // The formal fixpoint property is relative to the accumulated
        // assured set (NOT a fresh empty one: a rule's fact may lie in
        // another same-B rule's negative patterns without making the pair
        // inconsistent, so an independent second repair run may legally
        // re-fire). Recompute the assured set from the fired rules and
        // check no rule is properly applicable.
        let mut replay = t.clone();
        let ups = crepair_tuple(&rs, &mut replay);
        let mut assured = AttrSet::EMPTY;
        for u in &ups {
            assured.union_with(rs.rule(u.rule).assured_delta());
        }
        prop_assert!(is_fixpoint(rs.rules().iter(), &replay, assured));
    }

    /// lRepair on a full table equals per-tuple cRepair, and the parallel
    /// driver equals both.
    #[test]
    fn table_drivers_agree(rs in rulesets(),
                           rows in proptest::collection::vec(tuples(), 1..24)) {
        // Work on a consistent set.
        let mut rs = rs;
        ensure_consistent(&mut rs, ResolveStrategy::ShrinkNegatives);
        let mut table = Table::new(rs.schema().clone());
        for r in &rows {
            table.push_row(r).unwrap();
        }
        let index = LRepairIndex::build(&rs);
        let mut by_c = table.clone();
        fixrules::repair::crepair_table(&rs, &mut by_c);
        let mut by_l = table.clone();
        fixrules::repair::lrepair_table(&rs, &index, &mut by_l);
        let mut cols = ColumnTable::from(&table);
        let program = RuleProgram::compile(&rs);
        par_columnar_table_observed(
            &rs, &program, CompiledEngine::Linear, None, &mut cols, 3, &obs::NoopObserver);
        let by_p = cols.to_table();
        prop_assert_eq!(by_c.diff_cells(&by_l).unwrap(), 0);
        prop_assert_eq!(by_c.diff_cells(&by_p).unwrap(), 0);
    }

    /// Fixes are stable: after repair, no rule is properly applicable given
    /// the assured set accumulated from the fired rules.
    #[test]
    fn repaired_tuple_is_fixpoint(rs in rulesets(), t in tuples()) {
        let mut rs = rs;
        ensure_consistent(&mut rs, ResolveStrategy::ShrinkNegatives);
        let mut fixed = t.clone();
        let ups = crepair_tuple(&rs, &mut fixed);
        let mut assured = AttrSet::EMPTY;
        for u in &ups {
            assured.union_with(rs.rule(u.rule).assured_delta());
        }
        prop_assert!(is_fixpoint(rs.rules().iter(), &fixed, assured));
    }

    /// The compiled engines behind every production driver, run one tuple
    /// at a time through the single-tuple entry point [`run_engine`]: on
    /// random consistent rule sets the chase flavor reproduces `cRepair`'s
    /// provenance ledger byte for byte and the linear flavor `lRepair`'s —
    /// including the engine-specific `round` stamps — along with the final
    /// table.
    #[test]
    fn compiled_engines_reproduce_ledgers(rs in rulesets(),
                                          rows in proptest::collection::vec(tuples(), 1..24)) {
        let mut rs = rs;
        ensure_consistent(&mut rs, ResolveStrategy::ShrinkNegatives);
        let program = RuleProgram::compile(&rs);
        let index = LRepairIndex::build(&rs);
        let mut table0 = Table::new(rs.schema().clone());
        for r in &rows {
            table0.push_row(r).unwrap();
        }
        let mut chase_table = table0.clone();
        let chase_ledger = ProvenanceLedger::new();
        crepair_table_observed(
            &rs, &mut chase_table, &ProvenanceObserver::new(&rs, &chase_ledger));
        let mut linear_table = table0.clone();
        let linear_ledger = ProvenanceLedger::new();
        lrepair_table_observed(
            &rs, &index, &mut linear_table, &ProvenanceObserver::new(&rs, &linear_ledger));

        for (engine, ref_table, ref_ledger) in [
            (CompiledEngine::Chase, &chase_table, &chase_ledger),
            (CompiledEngine::Linear, &linear_table, &linear_ledger),
        ] {
            let mut t = table0.clone();
            let ledger = ProvenanceLedger::new();
            let obs = ProvenanceObserver::new(&rs, &ledger);
            let mut scratch = CompiledScratch::new(rs.len());
            for i in 0..t.len() {
                let (updates, _) =
                    run_engine(&rs, &program, engine, &mut scratch, t.row_mut(i), &obs);
                for (ordinal, u) in updates.iter().enumerate() {
                    let u = CellUpdate { row: i, ..*u };
                    obs.on(RepairEvent::CellRepaired(u.as_fix(ordinal)));
                }
            }
            prop_assert_eq!(ref_table.diff_cells(&t).unwrap(), 0,
                "{:?}: tables diverged", engine);
            prop_assert_eq!(ledger.records(), ref_ledger.records(),
                "{:?}: ledgers diverged", engine);
        }
    }

    /// The grouped columnar drivers are drop-in replacements for the
    /// paper's algorithms: on random consistent rule sets the chase flavor
    /// reproduces `cRepair`'s provenance ledger byte for byte and the
    /// linear flavor `lRepair`'s — including the engine-specific `round`
    /// stamps — for every combination of plan cache (off / on) and worker
    /// count (1 / 4), along with the final table. The rows are sent
    /// twice, so every signature has a member that replays its group's
    /// plan. Batch accounting must always tie out: every row is either a
    /// group representative or scattered.
    #[test]
    fn columnar_drivers_reproduce_ledgers(rs in rulesets(),
                                          rows in proptest::collection::vec(tuples(), 1..24)) {
        let mut rs = rs;
        ensure_consistent(&mut rs, ResolveStrategy::ShrinkNegatives);
        let program = RuleProgram::compile(&rs);
        let index = LRepairIndex::build(&rs);
        let mut table0 = Table::new(rs.schema().clone());
        for r in rows.iter().chain(&rows) {
            table0.push_row(r).unwrap();
        }
        // References: the paper's algorithms, uncached and sequential.
        let mut chase_table = table0.clone();
        let chase_ledger = ProvenanceLedger::new();
        crepair_table_observed(
            &rs, &mut chase_table, &ProvenanceObserver::new(&rs, &chase_ledger));
        let chase_records = chase_ledger.records();
        let mut linear_table = table0.clone();
        let linear_ledger = ProvenanceLedger::new();
        lrepair_table_observed(
            &rs, &index, &mut linear_table, &ProvenanceObserver::new(&rs, &linear_ledger));
        let linear_records = linear_ledger.records();

        for (engine, ref_table, ref_records) in [
            (CompiledEngine::Chase, &chase_table, &chase_records),
            (CompiledEngine::Linear, &linear_table, &linear_records),
        ] {
            for threads in [1usize, 4] {
                for cached in [false, true] {
                    let cache = cached.then(|| if threads > 1 {
                        PlanCache::sharded(4)
                    } else {
                        PlanCache::unbounded()
                    });
                    let mut cols = ColumnTable::from(&table0);
                    let ledger = ProvenanceLedger::new();
                    let obs = ProvenanceObserver::new(&rs, &ledger);
                    let (_, batch) = if threads > 1 {
                        par_columnar_table_observed(
                            &rs, &program, engine, cache.as_ref(), &mut cols, threads, &obs)
                    } else {
                        columnar_table_observed(
                            &rs, &program, engine, cache.as_ref(), &mut cols, &obs)
                    };
                    let t = cols.to_table();
                    prop_assert_eq!(ref_table.diff_cells(&t).unwrap(), 0,
                        "{:?} cached={} threads={}: tables diverged", engine, cached, threads);
                    prop_assert_eq!(&ledger.records(), ref_records,
                        "{:?} cached={} threads={}: ledgers diverged", engine, cached, threads);
                    prop_assert_eq!(batch.rows, 2 * rows.len());
                    prop_assert_eq!(batch.rows, batch.groups + batch.scattered,
                        "{:?} cached={} threads={}: batch accounting", engine, cached, threads);
                }
            }
        }
    }

    /// The parallel pairwise consistency checker agrees with the sequential
    /// one on the verdict, and on inconsistent sets reports exactly the
    /// lowest-indexed conflicting pair, at any worker count.
    #[test]
    fn parallel_consistency_agrees(rs in rulesets()) {
        let seq = is_consistent_characterize(&rs, 1);
        for threads in [1usize, 3, 8] {
            let par = is_consistent_parallel(&rs, threads);
            prop_assert_eq!(seq.is_consistent(), par.is_consistent());
            if let (Some(s), Some(p)) = (seq.conflicts.first(), par.conflicts.first()) {
                prop_assert_eq!(s.first, p.first);
                prop_assert_eq!(s.second, p.second);
                prop_assert_eq!(s.case, p.case);
            }
        }
    }

    /// Both resolution strategies terminate in a consistent set, and
    /// shrinking never drops more rules than the conservative strategy.
    #[test]
    fn resolution_terminates_consistent(rs in rulesets()) {
        let mut cons = rs.clone();
        let mut shr = rs.clone();
        ensure_consistent(&mut cons, ResolveStrategy::Conservative);
        ensure_consistent(&mut shr, ResolveStrategy::ShrinkNegatives);
        prop_assert!(is_consistent_characterize(&cons, 1).is_consistent());
        prop_assert!(is_consistent_characterize(&shr, 1).is_consistent());
        prop_assert!(shr.len() >= cons.len(),
            "shrinking should preserve at least as many rules");
    }

    /// Assured attributes grow monotonically along any repair and updates
    /// only ever touch un-assured B attributes.
    #[test]
    fn assured_set_monotone(rs in rulesets(), t in tuples()) {
        let mut rs = rs;
        ensure_consistent(&mut rs, ResolveStrategy::ShrinkNegatives);
        let mut fixed = t.clone();
        let ups = crepair_tuple(&rs, &mut fixed);
        let mut assured = AttrSet::EMPTY;
        for u in &ups {
            prop_assert!(!assured.contains(u.attr),
                "update touched an already-assured attribute");
            let before = assured;
            assured.union_with(rs.rule(u.rule).assured_delta());
            prop_assert!(before.is_subset(assured));
        }
    }
}
