//! `isConsist_r` — consistency by rule characterization (Fig 4).
//!
//! For each pair of distinct rules with compatible evidence, apply the case
//! analysis of §5.2.2:
//!
//! * **Case 1** (`Bi = Bj`): conflict iff the negative-pattern sets overlap
//!   and the facts differ — some tuple matches both rules and they pull `B`
//!   to different values.
//! * **Case 2(a)** (`Bi ∈ Xj`, `Bj ∉ Xi`): conflict iff `tp_j[Bi] ∈
//!   Tp_i[Bi]` — applying `φj` first freezes `Bi` as evidence, applying
//!   `φi` first rewrites it.
//! * **Case 2(b)**: symmetric.
//! * **Case 2(c)** (mutual): both 2(a)/2(b) pattern conditions must hold.
//! * **Case 2(d)** (`Bi ∉ Xj`, `Bj ∉ Xi`): never a conflict — the updates
//!   commute.
//!
//! Negative-pattern membership is a binary search over a tiny sorted vec, so
//! deciding one pair is `O(|Tp_i| + |Tp_j| + |Xi ∩ Xj|)` and the whole check
//! is `O(size(Σ)²)` as stated in the paper.

use crate::consistency::{evidence_compatible, Conflict, ConflictCase, ConsistencyReport};
use crate::rule::FixingRule;
use crate::ruleset::{RuleId, RuleSet};

/// Decide one pair of rules. Returns the case that makes them inconsistent,
/// or `None` when they are consistent.
pub fn check_pair(a: &FixingRule, b: &FixingRule) -> Option<ConflictCase> {
    // Line 2 of Fig 4: incompatible evidence ⇒ no tuple matches both
    // (Lemma 4) ⇒ consistent.
    if !evidence_compatible(a, b) {
        return None;
    }
    if a.b() == b.b() {
        // Case 1. Overlapping negatives with different facts.
        let overlap = if a.neg().len() <= b.neg().len() {
            a.neg().iter().any(|&v| b.neg_contains(v))
        } else {
            b.neg().iter().any(|&v| a.neg_contains(v))
        };
        if overlap && a.fact() != b.fact() {
            return Some(ConflictCase::SameBDifferentFacts);
        }
        return None;
    }
    let bi_in_xj = b.x_set().contains(a.b());
    let bj_in_xi = a.x_set().contains(b.b());
    match (bi_in_xj, bj_in_xi) {
        (true, false) => {
            // Case 2(a): tp_j[Bi] ∈ Tp_i[Bi].
            let tpj_bi = b.evidence_value(a.b()).expect("Bi ∈ Xj");
            if a.neg_contains(tpj_bi) {
                return Some(ConflictCase::BiInXj);
            }
            None
        }
        (false, true) => {
            // Case 2(b): tp_i[Bj] ∈ Tp_j[Bj].
            let tpi_bj = a.evidence_value(b.b()).expect("Bj ∈ Xi");
            if b.neg_contains(tpi_bj) {
                return Some(ConflictCase::BjInXi);
            }
            None
        }
        (true, true) => {
            // Case 2(c): both conditions.
            let tpj_bi = b.evidence_value(a.b()).expect("Bi ∈ Xj");
            let tpi_bj = a.evidence_value(b.b()).expect("Bj ∈ Xi");
            if a.neg_contains(tpj_bi) && b.neg_contains(tpi_bj) {
                return Some(ConflictCase::Mutual);
            }
            None
        }
        // Case 2(d): trivially consistent.
        (false, false) => None,
    }
}

/// Check a whole rule set pairwise (Proposition 3), stopping after
/// `max_conflicts` conflicts (pass 1 for the paper's "real case" behaviour
/// of Fig 9, `usize::MAX` for the worst case that inspects all pairs).
pub fn is_consistent_characterize(rules: &RuleSet, max_conflicts: usize) -> ConsistencyReport {
    is_consistent_characterize_observed(rules, max_conflicts, &obs::NoopObserver)
}

/// [`is_consistent_characterize`] with observer events (`PairsChecked`,
/// one `ConflictFound` per conflicting pair).
pub fn is_consistent_characterize_observed<O: obs::RepairObserver>(
    rules: &RuleSet,
    max_conflicts: usize,
    observer: &O,
) -> ConsistencyReport {
    let mut report = ConsistencyReport::default();
    let n = rules.len();
    'outer: for i in 0..n {
        for j in (i + 1)..n {
            report.pairs_checked += 1;
            if let Some(case) =
                check_pair(rules.rule(RuleId(i as u32)), rules.rule(RuleId(j as u32)))
            {
                report.conflicts.push(Conflict {
                    first: RuleId(i as u32),
                    second: RuleId(j as u32),
                    case,
                    witness: None,
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
    fn example_10_phi1_prime_and_phi2_consistent() {
        // φ'1 (China) and φ2 (Canada) key on the same attribute with
        // different constants: no tuple matches both.
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
        let p2 = rule(
            &s,
            &mut sy,
            &[("country", "Canada")],
            "capital",
            &["Toronto"],
            "Ottawa",
        );
        assert_eq!(check_pair(&p1p, &p2), None);
    }

    #[test]
    fn example_10_phi1_prime_and_phi3_mutual_conflict() {
        // The paper's flagship inconsistency: capital ∈ X3, country ∈ X'1 —
        // case 2(c).
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
        assert_eq!(check_pair(&p1p, &p3), Some(ConflictCase::Mutual));
        // Symmetric invocation gives the same verdict.
        assert_eq!(check_pair(&p3, &p1p), Some(ConflictCase::Mutual));
    }

    #[test]
    fn phi1_and_phi3_consistent_after_expert_shrink() {
        // Removing Tokyo from φ'1's negatives (the §5.3 expert fix) makes
        // the pair consistent.
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
        assert_eq!(check_pair(&p1, &p3), None);
    }

    #[test]
    fn case1_same_b_conflict() {
        let s = schema();
        let mut sy = SymbolTable::new();
        // Same evidence, overlapping negatives, different facts.
        let a = rule(
            &s,
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai"],
            "Beijing",
        );
        let b = rule(
            &s,
            &mut sy,
            &[("conf", "ICDE")],
            "capital",
            &["Shanghai"],
            "Nanjing",
        );
        assert_eq!(check_pair(&a, &b), Some(ConflictCase::SameBDifferentFacts));
    }

    #[test]
    fn case1_same_fact_is_consistent() {
        let s = schema();
        let mut sy = SymbolTable::new();
        let a = rule(
            &s,
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai"],
            "Beijing",
        );
        let b = rule(
            &s,
            &mut sy,
            &[("conf", "ICDE")],
            "capital",
            &["Shanghai"],
            "Beijing",
        );
        assert_eq!(check_pair(&a, &b), None);
    }

    #[test]
    fn case1_disjoint_negatives_is_consistent() {
        let s = schema();
        let mut sy = SymbolTable::new();
        let a = rule(
            &s,
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai"],
            "Beijing",
        );
        let b = rule(
            &s,
            &mut sy,
            &[("conf", "ICDE")],
            "capital",
            &["Hongkong"],
            "Nanjing",
        );
        assert_eq!(check_pair(&a, &b), None);
    }

    #[test]
    fn case2a_conflict_and_nonconflict() {
        let s = schema();
        let mut sy = SymbolTable::new();
        // φi repairs capital with Tokyo among negatives; φj uses capital =
        // Tokyo as evidence to repair city. Bi (capital) ∈ Xj; Bj (city) ∉ Xi.
        let phi_i = rule(
            &s,
            &mut sy,
            &[("country", "Japan")],
            "capital",
            &["Tokyo"],
            "Kyoto",
        );
        let phi_j = rule(
            &s,
            &mut sy,
            &[("capital", "Tokyo")],
            "city",
            &["Osaka"],
            "Tokyo",
        );
        assert_eq!(check_pair(&phi_i, &phi_j), Some(ConflictCase::BiInXj));
        assert_eq!(check_pair(&phi_j, &phi_i), Some(ConflictCase::BjInXi));
        // If φj's evidence constant is not a negative of φi, no conflict.
        let phi_j2 = rule(
            &s,
            &mut sy,
            &[("capital", "Kyoto")],
            "city",
            &["Osaka"],
            "Kyoto2",
        );
        assert_eq!(check_pair(&phi_i, &phi_j2), None);
    }

    #[test]
    fn case2d_disjoint_updates_consistent() {
        let s = schema();
        let mut sy = SymbolTable::new();
        let a = rule(
            &s,
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai"],
            "Beijing",
        );
        let b = rule(
            &s,
            &mut sy,
            &[("conf", "ICDE")],
            "city",
            &["Paris"],
            "Tokyo",
        );
        assert_eq!(check_pair(&a, &b), None);
    }

    #[test]
    fn ruleset_driver_reports_pairs_and_stops_early() {
        let s = schema();
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(s.clone());
        rs.push_named(
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai", "Hongkong", "Tokyo"],
            "Beijing",
        )
        .unwrap();
        rs.push_named(
            &mut sy,
            &[("country", "Canada")],
            "capital",
            &["Toronto"],
            "Ottawa",
        )
        .unwrap();
        rs.push_named(
            &mut sy,
            &[("capital", "Tokyo"), ("city", "Tokyo"), ("conf", "ICDE")],
            "country",
            &["China"],
            "Japan",
        )
        .unwrap();
        let full = is_consistent_characterize(&rs, usize::MAX);
        assert!(!full.is_consistent());
        assert_eq!(full.pairs_checked, 3);
        assert_eq!(full.conflicts.len(), 1);
        let early = is_consistent_characterize(&rs, 1);
        assert_eq!(early.conflicts.len(), 1);
        assert!(early.pairs_checked <= full.pairs_checked);
    }

    #[test]
    fn empty_and_singleton_sets_are_consistent() {
        let s = schema();
        let mut sy = SymbolTable::new();
        let mut rs = RuleSet::new(s);
        assert!(is_consistent_characterize(&rs, usize::MAX).is_consistent());
        rs.push_named(
            &mut sy,
            &[("country", "China")],
            "capital",
            &["Shanghai"],
            "Beijing",
        )
        .unwrap();
        let rep = is_consistent_characterize(&rs, usize::MAX);
        assert!(rep.is_consistent());
        assert_eq!(rep.pairs_checked, 0);
    }
}
