//! The ad-hoc query generator: the sixteen workload shapes with fresh
//! constants, swapped comparison operators and a target name that never
//! repeats, so that every text is a new statement to the parser, the
//! analyser, the planner and the plan cache.

use pascalr::{Catalog, Value};

use crate::rng::SplitMix64;

/// The shapes, in the order of `pascalr_workload::all_queries()`; a shape's
/// position is its operation class.  Placeholders: `{t}` target; `{so} {S}`
/// and `{so2} {S2}` a comparison with a status; `{lo} {L}` with a level;
/// `{yo} {Y}` with a year; `{co} {C}` with a course number (`{C=}`: a course
/// number that is taught); `{oo}` an ordering comparison between two years.
pub const SHAPES: [(&str, &str); 16] = [
    (
        "ex2.1",
        "{t} := [<e.ename> OF EACH e IN employees: (e.estatus {so} {S}) AND \
         (ALL p IN papers ((p.pyear {yo} {Y}) OR (e.enr <> p.penr)) OR \
          SOME c IN courses ((c.clevel {lo} {L}) AND \
            SOME t IN timetable ((c.cnr = t.tcnr) AND (e.enr = t.tenr))))]",
    ),
    (
        "ex3.2",
        "{t} := [<c.cnr, t.tenr> OF EACH c IN courses, EACH t IN timetable: \
         (c.clevel {lo} {L}) AND (c.cnr = t.tcnr)]",
    ),
    (
        "ex4.5",
        "{t} := [<e.ename> OF EACH e IN [EACH e IN employees: e.estatus {so} {S}]: \
         ALL p IN [EACH p IN papers: p.pyear {yo} {Y}] \
         SOME c IN [EACH c IN courses: c.clevel {lo} {L}] \
         SOME t IN timetable ((p.penr <> e.enr) OR (t.tenr = e.enr) AND (t.tcnr = c.cnr))]",
    ),
    (
        "ex4.7",
        "{t} := [<e.ename> OF EACH e IN [EACH e IN employees: e.estatus {so} {S}]: \
         ALL p IN [EACH p IN papers: p.pyear {yo} {Y}] ((p.penr <> e.enr) OR \
           SOME t IN timetable ((t.tenr = e.enr) AND \
             SOME c IN [EACH c IN courses: c.clevel {lo} {L}] (c.cnr = t.tcnr)))]",
    ),
    (
        "q01",
        "{t} := [<e.enr, e.ename> OF EACH e IN employees: e.estatus {so} {S}]",
    ),
    (
        "q02",
        "{t} := [<e.ename> OF EACH e IN employees: \
         SOME t IN timetable ((t.tenr = e.enr) AND (t.tcnr {co} {C}))]",
    ),
    (
        "q03",
        "{t} := [<e.ename> OF EACH e IN employees: \
         ALL p IN papers ((p.penr <> e.enr) OR (p.pyear {yo} {Y}))]",
    ),
    (
        "q04",
        "{t} := [<e.ename> OF EACH e IN employees: \
         SOME p IN papers ((p.penr = e.enr) AND (p.pyear {yo} {Y}))]",
    ),
    (
        "q05",
        "{t} := [<p.ptitle> OF EACH p IN papers: \
         SOME q IN papers ((p.pyear {oo} q.pyear) AND (q.pyear {yo} {Y}))]",
    ),
    (
        "q06",
        "{t} := [<p.ptitle> OF EACH p IN papers: \
         ALL q IN papers ((p.pyear {oo} q.pyear) OR (q.pyear {yo} {Y}))]",
    ),
    (
        "q07",
        "{t} := [<e.ename> OF EACH e IN employees: \
         ALL t IN timetable ((e.enr = t.tenr) OR (t.tcnr {co} {C}))]",
    ),
    (
        "q08",
        "{t} := [<e.ename> OF EACH e IN employees: \
         SOME t IN timetable ((e.enr <> t.tenr) AND (t.tcnr {co} {C}))]",
    ),
    (
        "q09",
        "{t} := [<e.ename> OF EACH e IN employees: (e.estatus {so} {S}) OR \
         SOME t IN timetable ((t.tenr = e.enr) AND (t.tcnr = {C=}))]",
    ),
    (
        "q10",
        "{t} := [<e.ename> OF EACH e IN employees: \
         NOT ((e.estatus {so2} {S2}) AND NOT SOME t IN timetable (t.tenr = e.enr))]",
    ),
    (
        "q11",
        "{t} := [<e.ename, c.cnr> OF EACH e IN employees, EACH c IN courses: \
         (e.estatus {so} {S}) AND \
         SOME t IN timetable ((t.tenr = e.enr) AND (t.tcnr = c.cnr))]",
    ),
    (
        "q12",
        "{t} := [<e.ename> OF EACH e IN employees: \
         ALL c IN [EACH c IN courses: c.clevel {lo} {L}] \
           SOME t IN timetable ((t.tenr = e.enr) AND (t.tcnr = c.cnr))]",
    ),
];

const STATUSES: [&str; 4] = ["student", "technician", "assistant", "professor"];
const LEVELS: [&str; 4] = ["freshman", "sophomore", "junior", "senior"];
const ANY_OP: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];
const ORDER_OP: [&str; 4] = ["<", "<=", ">", ">="];
const EQ_OP: [&str; 2] = ["=", "<>"];

/// The first statement number of a replay stream: far beyond any number a
/// timed window reaches, so target names never meet.
pub const REPLAY_FIRST: u64 = 1 << 40;

/// Whether `value op constant` holds.
fn holds(value: i64, op: &str, constant: i64) -> bool {
    match op {
        "=" => value == constant,
        "<>" => value != constant,
        "<" => value < constant,
        "<=" => value <= constant,
        ">" => value > constant,
        _ => value >= constant,
    }
}

/// Generates the `n`-th statement of a seeded stream: shape `n mod 16`, so
/// the mix holds every shape in equal share, with drawn constants and
/// operators and the target name `a<n>`.
///
/// Every restriction it writes selects at least one tuple of the instance.
/// A restriction that selects none sends the engine down two paths this
/// workload must not measure: an empty extended range makes the executor
/// fall back to an `S2` plan, which materialises products of a million
/// intermediate tuples at the paper's own 24-employee size (up to 0.7 s for
/// one statement, against 0.1 ms), and a restriction no value of the domain
/// can meet (`c.clevel < freshman`) makes the ex4.7 shape answer wrongly at
/// every strategy level — found by this benchmark's oracle gate.
#[derive(Debug)]
pub struct AdhocGenerator {
    rng: SplitMix64,
    /// Ordinals of the statuses, levels, years and taught course numbers
    /// that occur in the instance.
    statuses: Vec<i64>,
    levels: Vec<i64>,
    years: Vec<i64>,
    taught: Vec<i64>,
}

impl AdhocGenerator {
    /// A generator for statements over `catalog`'s instance.
    pub fn new(seed: u64, catalog: &Catalog) -> Result<Self, String> {
        AdhocGenerator::on_stream(seed, 3, catalog)
    }

    /// A second stream under the same seed, for the traced run's replay:
    /// the timed window before it draws a number of statements that
    /// depends on the machine's speed, and the replay's exact counts must
    /// not.  Number its statements from [`REPLAY_FIRST`].
    pub fn for_replay(seed: u64, catalog: &Catalog) -> Result<Self, String> {
        AdhocGenerator::on_stream(seed, 8, catalog)
    }

    fn on_stream(seed: u64, stream: u64, catalog: &Catalog) -> Result<Self, String> {
        let column = |relation: &str, attr: usize| -> Result<Vec<i64>, String> {
            let rel = catalog.relation(relation).map_err(|e| e.to_string())?;
            let mut values: Vec<i64> = rel
                .tuples()
                .filter_map(|t| match t.get(attr) {
                    Value::Int(i) => Some(*i),
                    Value::Enum(e) => Some(i64::from(e.ordinal)),
                    _ => None,
                })
                .collect();
            values.sort_unstable();
            values.dedup();
            if values.is_empty() {
                return Err(format!("{relation} is empty"));
            }
            Ok(values)
        };
        Ok(AdhocGenerator {
            rng: SplitMix64::new(seed, stream),
            statuses: column("employees", 2)?,
            levels: column("courses", 1)?,
            years: column("papers", 1)?,
            taught: column("timetable", 1)?,
        })
    }

    /// Draws an operator from `ops` and a constant from `lo..=hi` until some
    /// value of `present` satisfies the comparison.
    fn comparison(
        rng: &mut SplitMix64,
        ops: &[&'static str],
        (lo, hi): (i64, i64),
        present: &[i64],
    ) -> (&'static str, i64) {
        loop {
            let op = *rng.pick(ops);
            let constant = lo + rng.below((hi - lo + 1) as u64) as i64;
            if present.iter().any(|&v| holds(v, op, constant)) {
                return (op, constant);
            }
        }
    }

    /// The statement numbered `n` and its shape's class.
    pub fn statement(&mut self, n: u64) -> (u8, String) {
        let class = (n % SHAPES.len() as u64) as usize;
        let r = &mut self.rng;
        let (so, status) = Self::comparison(r, &EQ_OP, (0, 3), &self.statuses);
        let (so2, status2) = Self::comparison(r, &EQ_OP, (0, 3), &self.statuses);
        let (lo, level) = Self::comparison(r, &ANY_OP, (0, 3), &self.levels);
        let (yo, year) = Self::comparison(r, &ANY_OP, (1970, 1977), &self.years);
        let courses = (1, self.taught[self.taught.len() - 1]);
        let (co, course) = Self::comparison(r, &ANY_OP, courses, &self.taught);
        let order = *r.pick(&ORDER_OP);
        let text = SHAPES[class]
            .1
            .replace("{t}", &format!("a{n}"))
            .replace("{so2}", so2)
            .replace("{S2}", STATUSES[status2 as usize])
            .replace("{so}", so)
            .replace("{S}", STATUSES[status as usize])
            .replace("{lo}", lo)
            .replace("{L}", LEVELS[level as usize])
            .replace("{yo}", yo)
            .replace("{Y}", &year.to_string())
            .replace("{co}", co)
            .replace("{C=}", &r.pick(&self.taught).to_string())
            .replace("{C}", &course.to_string())
            .replace("{oo}", order);
        (class as u8, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_follow_the_workload_suite() {
        let ids: Vec<&str> = pascalr_workload::all_queries()
            .iter()
            .map(|q| q.id)
            .collect();
        let shapes: Vec<&str> = SHAPES.iter().map(|s| s.0).collect();
        assert_eq!(ids, shapes);
    }

    #[test]
    fn statements_never_repeat_and_repeat_per_seed() {
        let catalog = crate::workloads::university(1, 5).unwrap();
        let mut a = AdhocGenerator::new(5, &catalog).unwrap();
        let mut b = AdhocGenerator::new(5, &catalog).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for n in 0..2000 {
            let (class, text) = a.statement(n);
            assert_eq!((class, text.clone()), b.statement(n));
            assert_eq!(u64::from(class), n % 16);
            assert!(!text.contains('{'), "unfilled placeholder: {text}");
            assert!(seen.insert(text));
        }
    }

    #[test]
    fn comparisons_select_something() {
        let mut rng = SplitMix64::new(1, 1);
        for _ in 0..1000 {
            // Only sophomores and juniors present: `< sophomore`, `> junior`,
            // `= freshman`… must never come out.
            let (op, c) = AdhocGenerator::comparison(&mut rng, &ANY_OP, (0, 3), &[1, 2]);
            assert!([1, 2].iter().any(|&v| holds(v, op, c)), "{op} {c}");
        }
        assert!(holds(3, ">=", 3) && !holds(3, "<>", 3) && holds(2, "<=", 3));
    }
}
