//! `pascalr-planner`: query plans and the four PASCAL/R optimization
//! strategies (parallel evaluation, one-step nested subexpressions, extended
//! range expressions, collection-phase quantifier evaluation) on top of the
//! naive Palermo-style baseline — plus [`StrategyLevel::Auto`], the
//! cost-based selection policy that picks among them using the catalog's
//! ANALYZE statistics and the `pascalr-optimizer` cost model.  Planning
//! reads statistics and index declarations through whatever `&Catalog` the
//! caller passes — in the full system that is a pinned immutable snapshot,
//! so a plan is always costed against one consistent catalog version.

#![forbid(unsafe_code)]

pub mod auto;
pub mod plan;
pub mod planner;
pub mod strategy;
pub mod verify;

pub use pascalr_optimizer::{ConjunctionEstimate, CostEstimate, CostWeights};
pub use plan::{DyadicLink, PlanEstimates, QueryPlan, SemijoinStep, ValueListMode};
pub use planner::{plan, replan_for_empty, PlanOptions};
pub use strategy::StrategyLevel;
pub use verify::verify_plan;
