//! Empty relations and Lemma 1: reproduces the paper's Example 2.2 caveat.
//!
//! With `papers = []`, the standard form (which assumes non-empty range
//! relations) would return *all* employees; the runtime adaptation must
//! collapse the query to the professor test instead.  The same holds for a
//! *restricted* range that selects nothing although its relation does not
//! (Example 4.7 with `c` narrowed to a course that does not exist).
//!
//! ```text
//! cargo run --example empty_relations
//! ```

use pascalr::{Database, StrategyLevel};
use pascalr_parser::paper::EXAMPLE_2_1_QUERY;
use pascalr_workload::{figure1_sample_database, oracle_eval};

/// Example 4.7 with the inner range narrowed to a course that does not
/// exist: `courses` is not empty, but `c`'s range is.
const NARROWED_EXAMPLE_4_7: &str = "enames := [<e.ename> OF \
    EACH e IN [EACH e IN employees: e.estatus = professor]: \
    ALL p IN [EACH p IN papers: p.pyear = 1977] \
      ((p.penr <> e.enr) OR \
       SOME t IN timetable \
         ((t.tenr = e.enr) AND \
          SOME c IN [EACH c IN courses: (c.clevel = junior) AND (c.cnr = 50)] \
            (c.cnr = t.tcnr)))]";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Full database: the three professors qualify (Abel and Cohen via the
    // sophomore-course branch, Baker via the no-1977-paper branch).
    let db = Database::from_catalog(figure1_sample_database()?);
    let full = db.query(EXAMPLE_2_1_QUERY)?;
    println!("With all relations populated:\n{}", full.result);

    // Now empty the papers relation: `ALL p IN papers (...)` is vacuously
    // true, so exactly the professors must qualify — no more, no fewer.
    db.mutate(|c| c.relation_mut("papers").map(pascalr::Relation::clear))?;
    for level in StrategyLevel::ALL {
        let outcome = db.query_with(EXAMPLE_2_1_QUERY, level)?;
        println!(
            "{}: {} qualifying employees{}",
            level.short_name(),
            outcome.result.cardinality(),
            outcome
                .report
                .fallback
                .as_ref()
                .map(|f| format!("  [{f}]"))
                .unwrap_or_default()
        );
        assert_eq!(outcome.result.cardinality(), 3);
    }

    // Emptying courses instead: the universal branch still applies, so only
    // Baker (who did not publish in 1977) qualifies.
    let db = Database::from_catalog(figure1_sample_database()?);
    db.mutate(|c| c.relation_mut("courses").map(pascalr::Relation::clear))?;
    let outcome = db.query(EXAMPLE_2_1_QUERY)?;
    println!("\nWith courses = []:\n{}", outcome.result);

    // A restricted range that selects nothing is adapted for like an empty
    // relation: only Baker, who published nothing in 1977, qualifies.
    let catalog = figure1_sample_database()?;
    let db = Database::from_catalog(catalog.clone());
    let expected = oracle_eval(&db.parse(NARROWED_EXAMPLE_4_7)?, &catalog)?;
    println!("\nExample 4.7 with c narrowed to a missing course:");
    for level in StrategyLevel::ALL.into_iter().chain([StrategyLevel::Auto]) {
        let outcome = db.query_with(NARROWED_EXAMPLE_4_7, level)?;
        println!(
            "{}: {} qualifying employees{}",
            level.short_name(),
            outcome.result.cardinality(),
            outcome
                .report
                .fallback
                .as_ref()
                .map(|f| format!("  [{f}]"))
                .unwrap_or_default()
        );
        assert!(expected.set_eq(&outcome.result), "{level}");
    }
    assert_eq!(expected.cardinality(), 1);
    Ok(())
}
