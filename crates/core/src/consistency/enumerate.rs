//! `isConsist_t` — consistency by tuple enumeration (§5.2.1).
//!
//! For a pair of rules, only tuples drawing their values from the pair's
//! evidence constants and negative patterns can match both rules (Lemma 4
//! and the discussion around Example 9), so it suffices to enumerate the
//! product `Π_A V(A)` over the attributes appearing in either rule and check
//! that every enumerated tuple has a unique fix under the pair (computed by
//! the all-orders chase of [`crate::semantics::all_fixes`]).
//!
//! Attributes outside both rules are filled with a sentinel value that
//! matches no constant — the `'_'` of Example 9.

use std::collections::BTreeMap;

use relation::{AttrId, Symbol};

use crate::consistency::{Conflict, ConflictCase, ConsistencyReport};
use crate::rule::FixingRule;
use crate::ruleset::{RuleId, RuleSet};
use crate::semantics::all_fixes;

/// Sentinel standing for "a value outside every active domain" (the paper's
/// `'_'`). [`relation::SymbolTable`] allocates ids densely from zero, so
/// `u32::MAX` never collides with a real symbol in practice.
pub const WILDCARD: Symbol = Symbol(u32::MAX);

/// The candidate value sets `V(A)` for a pair of rules: for each attribute
/// appearing in either rule, every constant mentioned for it in an evidence
/// or negative pattern. Returned sorted for deterministic enumeration.
pub fn candidate_values(a: &FixingRule, b: &FixingRule) -> BTreeMap<AttrId, Vec<Symbol>> {
    let mut v: BTreeMap<AttrId, Vec<Symbol>> = BTreeMap::new();
    for rule in [a, b] {
        for (&attr, &val) in rule.x().iter().zip(rule.tp().iter()) {
            v.entry(attr).or_default().push(val);
        }
        v.entry(rule.b()).or_default().extend_from_slice(rule.neg());
    }
    for vals in v.values_mut() {
        vals.sort();
        vals.dedup();
    }
    v
}

/// Number of tuples `Π |V(A)|` the enumeration will inspect for this pair.
pub fn enumeration_size(a: &FixingRule, b: &FixingRule) -> usize {
    candidate_values(a, b).values().map(|v| v.len()).product()
}

/// Check one pair of rules by tuple enumeration. Returns a witness tuple
/// with two distinct fixes, or `None` when the pair is consistent.
///
/// `arity` is the schema arity (the row width to materialise).
pub fn check_pair_enumerate(a: &FixingRule, b: &FixingRule, arity: usize) -> Option<Vec<Symbol>> {
    // Lemma 4 short-circuit: incompatible evidence patterns mean no tuple
    // matches both rules, so the pair is consistent without enumerating.
    if !super::evidence_compatible(a, b) {
        return None;
    }
    let values = candidate_values(a, b);
    let attrs: Vec<AttrId> = values.keys().copied().collect();
    let domains: Vec<&Vec<Symbol>> = values.values().collect();
    let mut row: Vec<Symbol> = vec![WILDCARD; arity];
    let mut indices = vec![0usize; attrs.len()];
    loop {
        for (k, &attr) in attrs.iter().enumerate() {
            row[attr.index()] = domains[k][indices[k]];
        }
        let fixes = all_fixes(&[a, b], &row);
        if fixes.len() > 1 {
            return Some(row);
        }
        // Odometer increment over the product space.
        let mut k = 0;
        loop {
            if k == indices.len() {
                return None;
            }
            indices[k] += 1;
            if indices[k] < domains[k].len() {
                break;
            }
            indices[k] = 0;
            k += 1;
        }
    }
}

/// Classify a conflict found by enumeration using the Fig 4 analysis so the
/// two checkers report comparable diagnostics.
fn classify(a: &FixingRule, b: &FixingRule) -> ConflictCase {
    super::characterize::check_pair(a, b).unwrap_or(ConflictCase::SameBDifferentFacts)
}

/// Check a whole rule set pairwise by tuple enumeration, stopping after
/// `max_conflicts` conflicts.
pub fn is_consistent_enumerate(rules: &RuleSet, max_conflicts: usize) -> ConsistencyReport {
    is_consistent_enumerate_observed(rules, max_conflicts, &obs::NoopObserver)
}

/// [`is_consistent_enumerate`] with observer events (`PairsChecked`, one
/// `ConflictFound` per conflicting pair).
pub fn is_consistent_enumerate_observed<O: obs::RepairObserver>(
    rules: &RuleSet,
    max_conflicts: usize,
    observer: &O,
) -> ConsistencyReport {
    let arity = rules.schema().arity();
    let mut report = ConsistencyReport::default();
    let n = rules.len();
    'outer: for i in 0..n {
        for j in (i + 1)..n {
            report.pairs_checked += 1;
            let (a, b) = (rules.rule(RuleId(i as u32)), rules.rule(RuleId(j as u32)));
            if let Some(witness) = check_pair_enumerate(a, b, arity) {
                report.conflicts.push(Conflict {
                    first: RuleId(i as u32),
                    second: RuleId(j as u32),
                    case: classify(a, b),
                    witness: Some(witness),
                });
                if report.conflicts.len() >= max_conflicts {
                    break 'outer;
                }
            }
        }
    }
    report.observe(observer);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{Schema, SymbolTable};

    fn schema() -> Schema {
        Schema::new("Travel", ["name", "country", "capital", "city", "conf"]).unwrap()
    }

    fn rule(
        schema: &Schema,
        sy: &mut SymbolTable,
        ev: &[(&str, &str)],
        b: &str,
        neg: &[&str],
        fact: &str,
    ) -> FixingRule {
        FixingRule::from_named(schema, sy, ev, b, neg, fact).unwrap()
    }

    #[test]
    fn example_9_enumerates_six_tuples() {
        // φ1 and φ2 of Example 3: 2 country constants × 3 capital constants.
        let s = schema();
        let mut sy = SymbolTable::new();
        let p1 = rule(
            &s,
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai", "Hongkong"],
            "Beijing",
        );
        let p2 = rule(
            &s,
            &mut sy,
            &[("country", "Canada")],
            "capital",
            &["Toronto"],
            "Ottawa",
        );
        assert_eq!(enumeration_size(&p1, &p2), 6);
        assert_eq!(check_pair_enumerate(&p1, &p2, s.arity()), None);
    }

    #[test]
    fn example_8_finds_witness_r3() {
        let s = schema();
        let mut sy = SymbolTable::new();
        let p1p = rule(
            &s,
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai", "Hongkong", "Tokyo"],
            "Beijing",
        );
        let p3 = rule(
            &s,
            &mut sy,
            &[("capital", "Tokyo"), ("city", "Tokyo"), ("conf", "ICDE")],
            "country",
            &["China"],
            "Japan",
        );
        let witness = check_pair_enumerate(&p1p, &p3, s.arity()).expect("inconsistent");
        // The witness must carry the conflicting core of r3:
        // country=China, capital=Tokyo, city=Tokyo, conf=ICDE.
        assert_eq!(witness[1], sy.get("China").unwrap());
        assert_eq!(witness[2], sy.get("Tokyo").unwrap());
        assert_eq!(witness[3], sy.get("Tokyo").unwrap());
        assert_eq!(witness[4], sy.get("ICDE").unwrap());
        // name is untouched by either rule: wildcard.
        assert_eq!(witness[0], WILDCARD);
    }

    #[test]
    fn candidate_values_union_evidence_and_negatives() {
        let s = schema();
        let mut sy = SymbolTable::new();
        let p1 = rule(
            &s,
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai", "Hongkong"],
            "Beijing",
        );
        let p3 = rule(
            &s,
            &mut sy,
            &[("capital", "Tokyo"), ("city", "Tokyo"), ("conf", "ICDE")],
            "country",
            &["China"],
            "Japan",
        );
        let v = candidate_values(&p1, &p3);
        // capital: negatives of φ1 (Shanghai, Hongkong) ∪ evidence of φ3
        // (Tokyo).
        let capital = s.attr("capital").unwrap();
        assert_eq!(v[&capital].len(), 3);
        // country: evidence of φ1 (China) ∪ negatives of φ3 (China) = 1.
        let country = s.attr("country").unwrap();
        assert_eq!(v[&country].len(), 1);
    }

    #[test]
    fn agrees_with_characterization_on_rule_sets() {
        let s = schema();
        let mut sy = SymbolTable::new();
        let mut consistent = RuleSet::new(s.clone());
        consistent
            .push_named(
                &mut sy,
                &[("country", "China")],
                "capital",
                &["Shanghai", "Hongkong"],
                "Beijing",
            )
            .unwrap();
        consistent
            .push_named(
                &mut sy,
                &[("country", "Canada")],
                "capital",
                &["Toronto"],
                "Ottawa",
            )
            .unwrap();
        consistent
            .push_named(
                &mut sy,
                &[("capital", "Tokyo"), ("city", "Tokyo"), ("conf", "ICDE")],
                "country",
                &["China"],
                "Japan",
            )
            .unwrap();
        let (r, t) = crate::consistency::check_both_agree(&consistent);
        assert!(r.is_consistent() && t.is_consistent());

        let mut inconsistent = consistent.clone();
        inconsistent
            .push_named(
                &mut sy,
                &[("country", "China")],
                "capital",
                &["Shanghai", "Hongkong", "Tokyo"],
                "Beijing",
            )
            .unwrap();
        let (r, t) = crate::consistency::check_both_agree(&inconsistent);
        assert!(!r.is_consistent() && !t.is_consistent());
        // Both identify a conflict involving the over-broad rule (id 3).
        assert!(r.conflicting_rules().contains(&RuleId(3)));
        assert!(t.conflicting_rules().contains(&RuleId(3)));
    }

    #[test]
    fn enumeration_respects_max_conflicts() {
        let s = schema();
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(s);
        // Three rules pairwise conflicting on capital.
        for fact in ["Beijing", "Nanjing", "Xian"] {
            rs.push_named(
                &mut sy,
                &[("country", "China")],
                "capital",
                &["Shanghai"],
                fact,
            )
            .unwrap();
        }
        let early = is_consistent_enumerate(&rs, 1);
        assert_eq!(early.conflicts.len(), 1);
        let full = is_consistent_enumerate(&rs, usize::MAX);
        assert_eq!(full.conflicts.len(), 3);
        assert!(full.conflicts.iter().all(|c| c.witness.is_some()));
    }
}
