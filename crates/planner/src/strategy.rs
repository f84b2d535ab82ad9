//! Strategy levels: cumulative application of the paper's four optimization
//! strategies on top of the naive Palermo-style baseline.

use std::fmt;

/// How much of Section 4's optimization repertoire the planner applies.
///
/// Levels are *cumulative*: `S2OneStep` includes parallel evaluation,
/// `S4CollectionQuantifiers` includes everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StrategyLevel {
    /// Naive baseline (Palermo-style, Section 3.3 taken literally): every
    /// monadic and dyadic join term is evaluated by its own scan of the
    /// relation(s) involved; conjunctions are combined in the combination
    /// phase.
    S0Baseline,
    /// Strategy 1 — parallel evaluation of subexpressions: all join-term work
    /// on a relation happens during a single scan of that relation
    /// (Section 4.1, Example 4.3).
    S1Parallel,
    /// Strategy 2 — one-step evaluation of nested subexpressions: within a
    /// conjunction, monadic terms restrict the indirect joins of dyadic
    /// terms over the same variable (Section 4.2, Example 4.2).
    S2OneStep,
    /// Strategy 3 — extended range expressions (Section 4.3, Examples
    /// 4.4/4.5).
    S3ExtendedRanges,
    /// Strategy 4 — quantifier evaluation in the collection phase via value
    /// lists (generalized semi-joins, Section 4.4, Examples 4.6/4.7).
    S4CollectionQuantifiers,
    /// Cost-based automatic selection: the planner estimates the paper's
    /// observable costs (tuples read, comparisons, intermediate tuples,
    /// dereferences) for each of the five fixed levels using the catalog's
    /// ANALYZE statistics and picks the cheapest.  The produced plan
    /// carries the *chosen* fixed level in [`crate::QueryPlan::strategy`]
    /// together with the per-level cost table and the per-conjunction
    /// cardinality estimates (shown by `explain`).
    Auto,
}

impl StrategyLevel {
    /// The five *fixed* paper levels in increasing order of sophistication
    /// ([`StrategyLevel::Auto`] is deliberately excluded: it is a selection
    /// policy over these, not a sixth repertoire).
    pub const ALL: [StrategyLevel; 5] = [
        StrategyLevel::S0Baseline,
        StrategyLevel::S1Parallel,
        StrategyLevel::S2OneStep,
        StrategyLevel::S3ExtendedRanges,
        StrategyLevel::S4CollectionQuantifiers,
    ];

    /// Whether per-relation (parallel) scanning is enabled (Strategy 1+).
    pub fn parallel_scans(self) -> bool {
        self >= StrategyLevel::S1Parallel
    }

    /// Whether monadic terms restrict indirect joins (Strategy 2+).
    pub fn one_step_nested(self) -> bool {
        self >= StrategyLevel::S2OneStep
    }

    /// Whether range expressions are extended (Strategy 3+).
    pub fn extended_ranges(self) -> bool {
        self >= StrategyLevel::S3ExtendedRanges
    }

    /// Whether quantifiers are evaluated in the collection phase where
    /// possible (Strategy 4).
    pub fn collection_quantifiers(self) -> bool {
        self >= StrategyLevel::S4CollectionQuantifiers
    }

    /// Whether this is the cost-based automatic selection policy.
    pub fn is_auto(self) -> bool {
        self == StrategyLevel::Auto
    }

    /// Short name used in reports (`S0` … `S4`, `Auto`).
    pub fn short_name(self) -> &'static str {
        match self {
            StrategyLevel::S0Baseline => "S0",
            StrategyLevel::S1Parallel => "S1",
            StrategyLevel::S2OneStep => "S2",
            StrategyLevel::S3ExtendedRanges => "S3",
            StrategyLevel::S4CollectionQuantifiers => "S4",
            StrategyLevel::Auto => "Auto",
        }
    }

    /// Descriptive name.
    pub fn description(self) -> &'static str {
        match self {
            StrategyLevel::S0Baseline => "naive baseline (one scan per join term)",
            StrategyLevel::S1Parallel => "parallel evaluation (one scan per relation)",
            StrategyLevel::S2OneStep => "one-step nested subexpressions",
            StrategyLevel::S3ExtendedRanges => "extended range expressions",
            StrategyLevel::S4CollectionQuantifiers => "collection-phase quantifier evaluation",
            StrategyLevel::Auto => "cost-based automatic strategy selection",
        }
    }
}

impl fmt::Display for StrategyLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.short_name(), self.description())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_cumulative() {
        assert!(!StrategyLevel::S0Baseline.parallel_scans());
        assert!(StrategyLevel::S1Parallel.parallel_scans());
        assert!(!StrategyLevel::S1Parallel.one_step_nested());
        assert!(StrategyLevel::S2OneStep.one_step_nested());
        assert!(StrategyLevel::S2OneStep.parallel_scans());
        assert!(!StrategyLevel::S2OneStep.extended_ranges());
        assert!(StrategyLevel::S3ExtendedRanges.extended_ranges());
        assert!(!StrategyLevel::S3ExtendedRanges.collection_quantifiers());
        assert!(StrategyLevel::S4CollectionQuantifiers.collection_quantifiers());
        assert!(StrategyLevel::S4CollectionQuantifiers.extended_ranges());
    }

    #[test]
    fn ordering_and_names() {
        let mut sorted = StrategyLevel::ALL;
        sorted.sort();
        assert_eq!(sorted, StrategyLevel::ALL);
        for (i, s) in StrategyLevel::ALL.iter().enumerate() {
            assert_eq!(s.short_name(), format!("S{i}"));
            assert!(!s.description().is_empty());
            assert!(s.to_string().contains(s.short_name()));
            assert!(!s.is_auto());
        }
    }

    #[test]
    fn auto_is_a_policy_over_the_fixed_levels() {
        assert!(StrategyLevel::Auto.is_auto());
        assert!(!StrategyLevel::ALL.contains(&StrategyLevel::Auto));
        assert_eq!(StrategyLevel::Auto.short_name(), "Auto");
        assert!(StrategyLevel::Auto.to_string().contains("cost-based"));
        // If an Auto marker ever leaks into execution-side feature checks,
        // it must behave like the full repertoire, never like a downgrade.
        assert!(StrategyLevel::Auto.parallel_scans());
        assert!(StrategyLevel::Auto.one_step_nested());
        assert!(StrategyLevel::Auto.extended_ranges());
        assert!(StrategyLevel::Auto.collection_quantifiers());
    }
}
