//! The paper's cost ledger.
//!
//! Section 4 argues for Strategies 1–4 in exact units: how often each
//! relation is read, how many comparisons are made and how large the
//! intermediate structures grow.  These counts repeat bit for bit, so this
//! test computes them for a fixed grid of instance × query × level × index
//! setting through `Database::query_with` and diffs every row against the
//! checked-in `COST_LEDGER.tsv`.  A change to any count fails here with a
//! per-row diff; accepting it means reviewing the ledger's diff.
//!
//! Every run writes the computed ledger to
//! `$CARGO_TARGET_TMPDIR/COST_LEDGER.actual.tsv` (parts not run keep their
//! checked-in rows); a failure prints the `cp` command that re-blesses it.
//! The grid is split over several tests so that libtest runs them in
//! parallel.  Section 4's qualitative claims are asserted as inequalities
//! over the checked-in rows by `section_4_claims_hold_over_the_ledger`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

use pascalr::{Catalog, Database, QueryOutcome, StrategyLevel};
use pascalr_workload::{all_queries, figure1_sample_database, generate, UniversityConfig};

/// The ledger's header comment, written above the column names.
const HEADER: &str = "\
# The paper's cost ledger: one row per instance x query x level x index setting.
# Computed and diffed by tests/cost_ledger.rs; regenerate by running it and
# copying $CARGO_TARGET_TMPDIR/COST_LEDGER.actual.tsv over this file.
#
# instance  sample = Figure 1; sample-no-papers = Figure 1 with papers = [];
#           scaleN = generate(&UniversityConfig::at_scale(N))
# indexes   none, or the six single-column workload indexes
# counters  report.metrics.total(); `comparisons` includes the combination
#           phase's division, which counts groups x |divisor| membership
#           checks, not comparisons actually performed
# max_scans the most scans any one relation received
# max_struct / total_struct  the largest / summed recorded structure sizes
# value_list the largest Strategy 4 value list (0 without semijoin steps)
# conjunctions  the prepared matrix's conjunction count
# chosen    the fixed level the plan ran at (Auto's choice)
# fallback  yes if a range the plan assumed non-empty was empty and the
#           query was adapted and re-planned at the same level
# ex4.7-narrowed  Example 4.7 with c restricted to a course that does not
#           exist (defined in tests/cost_ledger.rs)";

/// Column names, in file order.  The first four form the row key.
const COLUMNS: [&str; 20] = [
    "instance",
    "query",
    "level",
    "indexes",
    "rows",
    "relation_scans",
    "tuples_read",
    "pages_read",
    "index_builds",
    "index_probes",
    "intermediate_tuples",
    "comparisons",
    "dereferences",
    "max_scans",
    "max_struct",
    "total_struct",
    "value_list",
    "conjunctions",
    "chosen",
    "fallback",
];

const KEY_COLUMNS: usize = 4;

/// The six single-column indexes the workload queries can use (the same
/// set `tests/permanent_indexes.rs` declares).
const WORKLOAD_INDEXES: [(&str, &str, &str); 6] = [
    ("idx_e_enr", "employees", "enr"),
    ("idx_p_penr", "papers", "penr"),
    ("idx_p_pyear", "papers", "pyear"),
    ("idx_c_cnr", "courses", "cnr"),
    ("idx_t_tenr", "timetable", "tenr"),
    ("idx_t_tcnr", "timetable", "tcnr"),
];

use StrategyLevel::{
    Auto, S0Baseline as S0, S1Parallel as S1, S2OneStep as S2, S3ExtendedRanges as S3,
    S4CollectionQuantifiers as S4,
};

const EVERY_LEVEL: &[StrategyLevel] = &[S0, S1, S2, S3, S4, Auto];

/// One slice of the grid, run by one test: an instance, its levels, its
/// index settings and its queries (empty = all 16 workload queries).
struct Part {
    instance: &'static str,
    levels: &'static [StrategyLevel],
    indexed: &'static [bool],
    queries: &'static [&'static str],
}

const SAMPLE: Part = Part {
    instance: "sample",
    levels: EVERY_LEVEL,
    indexed: &[false, true],
    queries: &[],
};
/// E12: Lemma 1's adaptation when a quantifier's range is empty.
const NO_PAPERS: Part = Part {
    instance: "sample-no-papers",
    levels: EVERY_LEVEL,
    indexed: &[false],
    queries: &["ex2.1"],
};
/// Lemma 1's adaptation when a *restricted* range selects nothing, though
/// its relation does not: Example 4.7 with `c` narrowed to a course that
/// does not exist.  Baker, who has no 1977 paper, qualifies at every level.
const NARROWED: Part = Part {
    instance: "sample",
    levels: EVERY_LEVEL,
    indexed: &[false],
    queries: &[NARROWED_EX47.0],
};
const NARROWED_EX47: (&str, &str) = (
    "ex4.7-narrowed",
    "enames := [<e.ename> OF \
       EACH e IN [EACH e IN employees: e.estatus = professor]: \
       ALL p IN [EACH p IN papers: p.pyear = 1977] \
         ((p.penr <> e.enr) OR \
          SOME t IN timetable \
            ((t.tenr = e.enr) AND \
             SOME c IN [EACH c IN courses: (c.clevel = junior) AND (c.cnr = 50)] \
               (c.cnr = t.tcnr)))]",
);

/// The text of a ledger query: a workload query, or the narrowed
/// Example 4.7.
fn query_text(id: &str) -> &'static str {
    if id == NARROWED_EX47.0 {
        NARROWED_EX47.1
    } else {
        pascalr_workload::query_by_id(id).unwrap().text
    }
}

/// S1–S3 cannot run past scale 1 in a debug build: at scale 2 S1/S2 build
/// a 3.1 M-entry structure.  S0 is left to the sample.
const SCALE1_S1: Part = Part {
    instance: "scale1",
    levels: &[S1],
    indexed: &[false],
    queries: &[],
};
const SCALE1_S2: Part = Part {
    instance: "scale1",
    levels: &[S2],
    indexed: &[false],
    queries: &[],
};
const SCALE1_S3_S4: Part = Part {
    instance: "scale1",
    levels: &[S3, S4, Auto],
    indexed: &[false],
    queries: &[],
};
const SCALE24_PLAIN: Part = Part {
    instance: "scale24",
    levels: &[S4, Auto],
    indexed: &[false],
    queries: &[],
};
const SCALE24_INDEXED: Part = Part {
    instance: "scale24",
    levels: &[S4, Auto],
    indexed: &[true],
    queries: &[],
};

/// Every part, in file order.
const PARTS: [&Part; 8] = [
    &SAMPLE,
    &NO_PAPERS,
    &SCALE1_S1,
    &SCALE1_S2,
    &SCALE1_S3_S4,
    &SCALE24_PLAIN,
    &SCALE24_INDEXED,
    &NARROWED,
];

type Row = Vec<String>;

impl Part {
    fn query_ids(&self) -> Vec<&'static str> {
        if self.queries.is_empty() {
            all_queries().iter().map(|q| q.id).collect()
        } else {
            self.queries.to_vec()
        }
    }

    /// Whether a ledger row belongs to this part.
    fn owns(&self, row: &Row) -> bool {
        row[0] == self.instance
            && self.levels.iter().any(|l| row[2] == l.short_name())
            && self.indexed.iter().any(|&i| row[3] == indexes_name(i))
            && self.query_ids().iter().any(|q| row[1] == *q)
    }

    /// Computes this part's rows, in grid order.
    fn compute(&self) -> Vec<Row> {
        let catalog = instance(self.instance);
        let mut rows = Vec::new();
        for &indexed in self.indexed {
            let db = Database::from_catalog(catalog.clone());
            if indexed {
                for (name, relation, attr) in WORKLOAD_INDEXES {
                    db.create_index(name, relation, &[attr]).unwrap();
                }
            }
            for &level in self.levels {
                for id in self.query_ids() {
                    let outcome = db
                        .query_with(query_text(id), level)
                        .unwrap_or_else(|e| panic!("{} {id} {level}: {e}", self.instance));
                    rows.push(ledger_row(self.instance, id, level, indexed, &outcome));
                }
            }
        }
        rows
    }
}

fn indexes_name(indexed: bool) -> &'static str {
    if indexed {
        "workload"
    } else {
        "none"
    }
}

fn instance(name: &str) -> Catalog {
    match name {
        "sample" => figure1_sample_database().unwrap(),
        "sample-no-papers" => {
            let mut catalog = figure1_sample_database().unwrap();
            catalog.relation_mut("papers").unwrap().clear();
            catalog
        }
        "scale1" => generate(&UniversityConfig::at_scale(1)).unwrap(),
        "scale24" => generate(&UniversityConfig::at_scale(24)).unwrap(),
        other => panic!("unknown ledger instance {other}"),
    }
}

fn ledger_row(
    instance: &str,
    query: &str,
    level: StrategyLevel,
    indexed: bool,
    outcome: &QueryOutcome,
) -> Row {
    let metrics = &outcome.report.metrics;
    let t = metrics.total();
    let value_list = outcome
        .plan
        .semijoin_steps
        .iter()
        .map(|step| metrics.structure_size(&step.produces))
        .max()
        .unwrap_or(0);
    let fallback = if outcome.report.fallback.is_some() {
        "yes"
    } else {
        "no"
    };
    [
        instance.to_string(),
        query.to_string(),
        level.short_name().to_string(),
        indexes_name(indexed).to_string(),
        outcome.result.cardinality().to_string(),
        t.relation_scans.to_string(),
        t.tuples_read.to_string(),
        t.pages_read.to_string(),
        t.index_builds.to_string(),
        t.index_probes.to_string(),
        t.intermediate_tuples.to_string(),
        t.comparisons.to_string(),
        t.dereferences.to_string(),
        metrics.max_scans_per_relation().to_string(),
        metrics
            .structure_sizes
            .values()
            .max()
            .copied()
            .unwrap_or(0)
            .to_string(),
        metrics.total_structure_size().to_string(),
        value_list.to_string(),
        outcome.plan.prepared.form.conjunction_count().to_string(),
        outcome.plan.strategy.short_name().to_string(),
        fallback.to_string(),
    ]
    .into()
}

fn ledger_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("COST_LEDGER.tsv")
}

fn actual_path() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("COST_LEDGER.actual.tsv")
}

/// The checked-in rows (comments and the column line skipped).
fn checked_in() -> Vec<Row> {
    let text = std::fs::read_to_string(ledger_path()).unwrap_or_default();
    text.lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .skip(1)
        .map(|line| line.split('\t').map(str::to_string).collect())
        .collect()
}

fn render(rows: &[Row]) -> String {
    let mut out = format!("{HEADER}\n{}\n", COLUMNS.join("\t"));
    for row in rows {
        out.push_str(&row.join("\t"));
        out.push('\n');
    }
    out
}

/// The rows each part computed in this process, by position in `PARTS`.
/// The parts run on parallel threads and share one actual file: under this
/// lock each rewrite holds every part finished so far, so the last one
/// leaves the whole computed ledger whatever the order.
static COMPUTED: Mutex<BTreeMap<usize, Vec<Row>>> = Mutex::new(BTreeMap::new());

/// Records a part's computed rows and rewrites the actual ledger: computed
/// parts replace their checked-in rows, the others keep them.
fn write_actual(part: &Part, rows: &[Row]) {
    let mut computed = COMPUTED
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let index = PARTS
        .iter()
        .position(|p| std::ptr::eq(*p, part))
        .expect("part listed in PARTS");
    computed.insert(index, rows.to_vec());
    let old = checked_in();
    let mut all = Vec::new();
    for (i, p) in PARTS.iter().enumerate() {
        match computed.get(&i) {
            Some(rows) => all.extend(rows.iter().cloned()),
            None => all.extend(old.iter().filter(|r| p.owns(r)).cloned()),
        }
    }
    std::fs::write(actual_path(), render(&all)).unwrap();
}

/// A readable diff of one part: missing, extra and changed rows, the
/// changed ones column by column.
fn diff(expected: &[Row], actual: &[Row]) -> String {
    let key = |r: &Row| r[..KEY_COLUMNS].join(" ");
    let expected: BTreeMap<String, &Row> = expected.iter().map(|r| (key(r), r)).collect();
    let actual_keys: BTreeMap<String, &Row> = actual.iter().map(|r| (key(r), r)).collect();
    let mut out = String::new();
    for row in actual {
        let k = key(row);
        match expected.get(&k) {
            None => {
                let _ = writeln!(out, "+ {k}: new row {}", row[KEY_COLUMNS..].join(" "));
            }
            Some(old) if *old != row => {
                let _ = write!(out, "~ {k}:");
                for (c, name) in COLUMNS.iter().enumerate().skip(KEY_COLUMNS) {
                    let (was, now) = (old.get(c), row.get(c));
                    if was != now {
                        let was = was.map_or("<missing>", String::as_str);
                        let _ = write!(out, " {name} {was} -> {now}", now = now.unwrap());
                    }
                }
                out.push('\n');
            }
            Some(_) => {}
        }
    }
    for k in expected.keys().filter(|k| !actual_keys.contains_key(*k)) {
        let _ = writeln!(out, "- {k}: row no longer computed");
    }
    out
}

fn check(part: &Part) {
    let actual = part.compute();
    write_actual(part, &actual);
    let expected: Vec<Row> = checked_in().into_iter().filter(|r| part.owns(r)).collect();
    let diff = diff(&expected, &actual);
    assert!(
        diff.is_empty(),
        "the cost ledger changed for {} at {:?}:\n{diff}\n\
         if the change is intended, re-bless the ledger with:\n    cp {} {}",
        part.instance,
        part.levels,
        actual_path().display(),
        ledger_path().display(),
    );
}

#[test]
fn ledger_sample() {
    check(&SAMPLE);
}

#[test]
fn ledger_sample_without_papers() {
    check(&NO_PAPERS);
}

#[test]
fn ledger_scale1_s1() {
    check(&SCALE1_S1);
}

#[test]
fn ledger_scale1_s2() {
    check(&SCALE1_S2);
}

#[test]
fn ledger_scale1_s3_s4_auto() {
    check(&SCALE1_S3_S4);
}

#[test]
fn ledger_scale24() {
    check(&SCALE24_PLAIN);
}

#[test]
fn ledger_scale24_indexed() {
    check(&SCALE24_INDEXED);
}

#[test]
fn ledger_narrowed_example_4_7() {
    check(&NARROWED);
}

/// The checked-in ledger, looked up by key.  The `ledger_*` tests prove it
/// is what the engine computes; the claims below are asserted over it.
struct Ledger(Vec<Row>);

impl Ledger {
    fn row(&self, instance: &str, query: &str, level: StrategyLevel, indexes: &str) -> &Row {
        let level = level.short_name();
        self.0
            .iter()
            .find(|r| r[0] == instance && r[1] == query && r[2] == level && r[3] == indexes)
            .unwrap_or_else(|| panic!("no ledger row {instance} {query} {level} {indexes}"))
    }

    /// One numeric column of an unindexed row.
    fn get(&self, instance: &str, query: &str, level: StrategyLevel, column: &str) -> u64 {
        num(self.row(instance, query, level, "none"), column)
    }
}

fn field<'a>(row: &'a Row, column: &str) -> &'a str {
    let c = COLUMNS.iter().position(|&name| name == column).unwrap();
    &row[c]
}

fn num(row: &Row, column: &str) -> u64 {
    field(row, column)
        .parse()
        .unwrap_or_else(|_| panic!("{column} of {row:?}"))
}

/// Section 4's claims (and E9, E10, E12's) as inequalities over ledger rows.
#[test]
fn section_4_claims_hold_over_the_ledger() {
    let ledger = Ledger(checked_in());
    for row in &ledger.0 {
        assert_eq!(row.len(), COLUMNS.len(), "malformed row {row:?}");
        assert!(PARTS.iter().any(|p| p.owns(row)), "row of no part: {row:?}");
    }

    // Strategy 1: every relation is read once; no level above S0 reads one
    // twice.  The baseline rescans (E6).
    for row in &ledger.0 {
        match row[2].as_str() {
            "S1" => assert_eq!(num(row, "max_scans"), 1, "{row:?}"),
            "S0" => {}
            _ => assert!(num(row, "max_scans") <= 1, "{row:?}"),
        }
    }
    for indexes in ["none", "workload"] {
        let scans = |level| {
            num(
                ledger.row("sample", "ex2.1", level, indexes),
                "relation_scans",
            )
        };
        assert!(scans(S0) > scans(S1), "ex2.1 scans, {indexes} indexes");
    }

    // Strategies 2 and 3 shrink ex2.1's intermediates; S4 leaves a fraction
    // of the baseline's (E6-E8).  On Example 3.2, one-step evaluation
    // restricts the indirect join by the monadic term (E5).
    for instance in ["sample", "scale1"] {
        let inter = |query, level| ledger.get(instance, query, level, "intermediate_tuples");
        assert!(inter("ex2.1", S2) <= inter("ex2.1", S1), "{instance}");
        assert!(inter("ex2.1", S3) < inter("ex2.1", S2), "{instance}");
        assert!(inter("ex2.1", S4) < inter("ex2.1", S3), "{instance}");
        assert!(inter("ex3.2", S2) < inter("ex3.2", S1), "{instance}");
    }
    let sample = |level, column| ledger.get("sample", "ex2.1", level, column);
    assert!(sample(S4, "intermediate_tuples") < sample(S0, "intermediate_tuples"));

    // Strategy 3 removes one of Example 2.2's three conjunctions (E7).
    for level in [S0, S1, S2] {
        assert_eq!(sample(level, "conjunctions"), 3, "{level}");
    }
    assert_eq!(sample(S3, "conjunctions"), 2);

    // Strategy 4 evaluates Example 4.7's quantifiers with value lists, so
    // no structure is a product of ranges: none outgrows the tuples read,
    // which S3's combination phase does (E8).
    for row in ledger.0.iter().filter(|r| r[1] == "ex4.7" && r[2] == "S4") {
        assert!(num(row, "max_struct") <= num(row, "tuples_read"), "{row:?}");
    }
    let s3 = ledger.row("sample", "ex4.7", S3, "none");
    assert!(num(s3, "max_struct") > num(s3, "tuples_read"));

    // Section 4.4's special cases: q05-q08 keep at most one value (E9).
    for row in ledger.0.iter().filter(|r| r[2] == "S4") {
        if ["q05", "q06", "q07", "q08"].contains(&row[1].as_str()) {
            assert!(num(row, "value_list") <= 1, "{row:?}");
        }
    }

    // The S1/S4 gap widens with the database (E10).
    let ratio = |instance| {
        let inter = |level| ledger.get(instance, "ex2.1", level, "intermediate_tuples");
        (inter(S1), inter(S4))
    };
    let ((small_s1, small_s4), (large_s1, large_s4)) = (ratio("sample"), ratio("scale1"));
    assert!(large_s1 * small_s4 > small_s1 * large_s4, "E10 ratio");

    // Lemma 1: with papers = [] Example 2.1 returns the professors (q01) at
    // every level, through the fallback (E12).
    let professors = ledger.get("sample", "q01", S0, "rows");
    for level in EVERY_LEVEL {
        let row = ledger.row("sample-no-papers", "ex2.1", *level, "none");
        assert_eq!(num(row, "rows"), professors, "{level}");
        assert_eq!(field(row, "fallback"), "yes", "{level}");
    }

    // A restricted range that selects nothing is adapted for like an empty
    // relation: the narrowed Example 4.7 returns Baker at every level.
    for level in EVERY_LEVEL {
        let row = ledger.row("sample", NARROWED_EX47.0, *level, "none");
        assert_eq!(num(row, "rows"), 1, "{level}");
        assert_eq!(field(row, "fallback"), "yes", "{level}");
    }

    // A fallback re-plans at the same level, so it builds nothing larger
    // than the level's normal plans do on the same instance.
    let mut largest_normal: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    for row in ledger.0.iter().filter(|r| field(r, "fallback") == "no") {
        let largest = largest_normal.entry((&row[0], &row[2])).or_insert(0);
        *largest = (*largest).max(num(row, "max_struct"));
    }
    for row in ledger.0.iter().filter(|r| field(r, "fallback") == "yes") {
        if let Some(&largest) = largest_normal.get(&(row[0].as_str(), row[2].as_str())) {
            assert!(num(row, "max_struct") <= largest, "{row:?}");
        }
    }

    // Every level returns the same number of rows for a query.
    let mut rows: BTreeMap<(&str, &str, &str), u64> = BTreeMap::new();
    for row in &ledger.0 {
        let n = num(row, "rows");
        let first = *rows.entry((&row[0], &row[1], &row[3])).or_insert(n);
        assert_eq!(first, n, "{row:?}");
    }
}
