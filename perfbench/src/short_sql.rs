//! `short_sql`: a seeded stream of small queries from six templates over
//! four 1,000-row in-memory tables, one library client, closed loop.
//! Planning-bound: each query plans through every optimizer phase and
//! launches engine jobs over almost no data. Literals follow a Zipf
//! profile, so some exact texts repeat.

use crate::gen::{self, Zipf};
use crate::harness::{self, canon_i64 as n, err_string, schema, Args, Job, Lib, Report};
use catalyst::{DataType, Row, SchemaRef, Value};
use std::collections::{BTreeMap, HashMap};

const ROWS: usize = 1_000;
/// Queries in one round (the seeded sequence).
const ROUND_LEN: usize = 240;
const ROUNDS_PER_10S: usize = 17;

const CLASSES: [&str; 6] = [
    "point_filter",
    "filter_group_by",
    "join2",
    "join4_chain",
    "order_by_limit",
    "stats_count_min_max",
];

const REGIONS: i64 = 8;
const CATEGORIES: i64 = 10;

/// The four tables as whole-number columns; `c_region` and `p_cat` hold
/// indexes of their string values.
pub struct Tables {
    cust: Vec<Vec<i64>>,
    orders: Vec<Vec<i64>>,
    items: Vec<Vec<i64>>,
    prod: Vec<Vec<i64>>,
}

pub fn tables(seed: u64) -> Tables {
    Tables {
        // c_id, c_region, c_score
        cust: gen::long_table(seed, 10, ROWS, &[0, REGIONS, 1000]),
        // o_id, o_cust, o_amount, o_day
        orders: gen::long_table(seed, 11, ROWS, &[0, ROWS as i64, 10_000, 30]),
        // i_id, i_order, i_prod, i_qty
        items: gen::long_table(seed, 12, ROWS, &[0, ROWS as i64, ROWS as i64, 50]),
        // p_id, p_cat, p_price
        prod: gen::long_table(seed, 13, ROWS, &[0, CATEGORIES, 1000]),
    }
}

/// Rows with column `str_col` rendered as `{prefix}{index}`.
fn rows_with_label(t: &[Vec<i64>], str_col: usize, prefix: &str) -> Vec<Row> {
    t.iter()
        .map(|r| {
            Row::new(
                r.iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        if i == str_col {
                            Value::str(format!("{prefix}{v}"))
                        } else {
                            Value::Long(v)
                        }
                    })
                    .collect(),
            )
        })
        .collect()
}

fn inputs(t: &Tables) -> Vec<(&'static str, SchemaRef, Vec<Row>)> {
    use DataType::{Long, String as Str};
    vec![
        (
            "cust",
            schema(&[("c_id", Long), ("c_region", Str), ("c_score", Long)]),
            rows_with_label(&t.cust, 1, "r"),
        ),
        (
            "orders",
            schema(&[
                ("o_id", Long),
                ("o_cust", Long),
                ("o_amount", Long),
                ("o_day", Long),
            ]),
            gen::long_rows(&t.orders),
        ),
        (
            "items",
            schema(&[
                ("i_id", Long),
                ("i_order", Long),
                ("i_prod", Long),
                ("i_qty", Long),
            ]),
            gen::long_rows(&t.items),
        ),
        (
            "prod",
            schema(&[("p_id", Long), ("p_cat", Str), ("p_price", Long)]),
            rows_with_label(&t.prod, 1, "c"),
        ),
    ]
}

/// Stats-template targets: (table, column index, column name).
const STATS_TARGETS: [(&str, usize, &str); 4] = [
    ("orders", 2, "o_amount"),
    ("cust", 2, "c_score"),
    ("items", 3, "i_qty"),
    ("prod", 2, "p_price"),
];

/// One query of `template` with literal rank `k`: its text and the
/// expected canonical rows (and whether their order matters), computed by
/// plain folds over the generated tables.
pub fn instance(t: &Tables, template: usize, k: usize) -> (String, Vec<String>, bool) {
    let k = k as i64;
    match template {
        0 => (
            format!("SELECT o_id, o_amount FROM orders WHERE o_cust = {k}"),
            t.orders
                .iter()
                .filter(|o| o[1] == k)
                .map(|o| format!("{}|{}", n(o[0]), n(o[2])))
                .collect(),
            false,
        ),
        1 => {
            let x = k * 100;
            let mut g: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
            for o in t.orders.iter().filter(|o| o[2] > x) {
                let e = g.entry(o[3]).or_default();
                e.0 += 1;
                e.1 += o[2];
            }
            (
                format!(
                    "SELECT o_day, COUNT(*), SUM(o_amount) FROM orders \
                     WHERE o_amount > {x} GROUP BY o_day"
                ),
                g.iter()
                    .map(|(d, (c, s))| format!("{}|{}|{}", n(*d), n(*c), n(*s)))
                    .collect(),
                false,
            )
        }
        2 => {
            let region: HashMap<i64, i64> = t.cust.iter().map(|c| (c[0], c[1])).collect();
            (
                format!(
                    "SELECT o_id, c_region FROM orders JOIN cust ON o_cust = c_id \
                     WHERE o_day = {k}"
                ),
                t.orders
                    .iter()
                    .filter(|o| o[3] == k)
                    .filter_map(|o| region.get(&o[1]).map(|r| format!("{}|r{r}", n(o[0]))))
                    .collect(),
                false,
            )
        }
        3 => {
            let in_region: HashMap<i64, bool> = t.cust.iter().map(|c| (c[0], c[1] == k)).collect();
            let order_ok: HashMap<i64, bool> = t
                .orders
                .iter()
                .map(|o| (o[0], in_region.get(&o[1]).copied().unwrap_or(false)))
                .collect();
            let cat: HashMap<i64, i64> = t.prod.iter().map(|p| (p[0], p[1])).collect();
            let mut g: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
            for i in &t.items {
                if order_ok.get(&i[1]).copied().unwrap_or(false) {
                    if let Some(c) = cat.get(&i[2]) {
                        let e = g.entry(*c).or_default();
                        e.0 += 1;
                        e.1 += i[3];
                    }
                }
            }
            (
                format!(
                    "SELECT p_cat, COUNT(*), SUM(i_qty) FROM cust \
                     JOIN orders ON c_id = o_cust JOIN items ON o_id = i_order \
                     JOIN prod ON i_prod = p_id WHERE c_region = 'r{k}' GROUP BY p_cat"
                ),
                g.iter()
                    .map(|(c, (cnt, s))| format!("c{c}|{}|{}", n(*cnt), n(*s)))
                    .collect(),
                false,
            )
        }
        4 => {
            let p = (k + 1) * 10;
            let mut v: Vec<&Vec<i64>> = t.items.iter().filter(|i| i[2] < p).collect();
            v.sort_by_key(|i| (-i[3], i[0]));
            (
                format!(
                    "SELECT i_id, i_qty FROM items WHERE i_prod < {p} \
                     ORDER BY i_qty DESC, i_id LIMIT 5"
                ),
                v.iter()
                    .take(5)
                    .map(|i| format!("{}|{}", n(i[0]), n(i[3])))
                    .collect(),
                true,
            )
        }
        _ => {
            let (table, ci, col) = STATS_TARGETS[k as usize % STATS_TARGETS.len()];
            let rows = match table {
                "orders" => &t.orders,
                "cust" => &t.cust,
                "items" => &t.items,
                _ => &t.prod,
            };
            let vals = rows.iter().map(|r| r[ci]);
            let lo = vals.clone().min().expect("tables are not empty");
            let hi = vals.max().expect("tables are not empty");
            (
                format!("SELECT COUNT(*), MIN({col}), MAX({col}) FROM {table}"),
                vec![format!("{}|{}|{}", n(rows.len() as i64), n(lo), n(hi))],
                true,
            )
        }
    }
}

/// Literal domains per template (ranks follow a Zipf profile over each).
const DOMAINS: [usize; 6] = [ROWS, 100, 30, REGIONS as usize, 100, STATS_TARGETS.len()];

/// The round: `ROUND_LEN` (template, rank) pairs in a seeded order,
/// every template equally often, each template's ranks the Zipf(1.1)
/// profile over its domain (`Zipf::ranks`): seeds differ in data and
/// order, not in how often texts repeat.
pub fn sequence(seed: u64) -> Vec<(usize, usize)> {
    let mut rng = gen::rng(seed, 20);
    let per = ROUND_LEN / CLASSES.len();
    let mut seq: Vec<(usize, usize)> = DOMAINS
        .iter()
        .enumerate()
        .flat_map(|(t, &d)| {
            Zipf::new(d, 1.1)
                .ranks(per)
                .into_iter()
                .map(move |k| (t, k))
        })
        .collect();
    gen::shuffle(&mut seq, &mut rng);
    seq
}

pub fn run(args: &Args) -> Result<Report, String> {
    let work = harness::work_dir("short_sql");
    let t = tables(args.seed);
    let ins = inputs(&t);
    let mut answers: HashMap<(usize, usize), Job> = HashMap::new();
    let jobs: Vec<Job> = sequence(args.seed)
        .into_iter()
        .map(|(tpl, k)| {
            answers
                .entry((tpl, k))
                .or_insert_with(|| {
                    let (text, expected, ordered) = instance(&t, tpl, k);
                    Job {
                        class: tpl,
                        text,
                        check: harness::expect_rows(expected, ordered),
                        sink: None,
                    }
                })
                .clone()
        })
        .collect();
    let conf = harness::pinned_conf(&work, |_| {});
    let setup = |_: Option<(&crate::trace::Tracer, usize)>| -> Result<Lib, String> {
        let copies = ins.clone();
        let started = std::time::Instant::now();
        let ctx = harness::new_context(conf.clone());
        for (name, schema, rows) in copies {
            ctx.register_rows(name, schema, rows).map_err(err_string)?;
        }
        Ok(Lib {
            ctx,
            cached: Vec::new(),
            colfiles: Vec::new(),
            input_bytes: 0,
            started,
        })
    };
    let (mut rep, _lib) = harness::run_library(
        args,
        &CLASSES,
        &jobs,
        harness::rounds(args.seconds, ROUNDS_PER_10S),
        setup,
    )?;
    let distinct = harness::distinct(&jobs).len();
    rep.floor(
        format!(
            "short_sql: exact texts repeat ({distinct} distinct of {})",
            jobs.len()
        ),
        distinct < jobs.len(),
    );
    if args.trace {
        let share = rep
            .layers
            .get("catalyst.plan_share")
            .copied()
            .unwrap_or(0.0);
        rep.floor(
            format!("short_sql: catalyst.plan_share reported ({share:.3})"),
            share > 0.0 && share < 1.0,
        );
    }
    let _ = std::fs::remove_dir_all(&work);
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_and_tables_are_deterministic_per_seed() {
        assert_eq!(sequence(5), sequence(5));
        assert_ne!(sequence(5), sequence(6));
        let (a, b) = (tables(5), tables(5));
        assert_eq!(a.orders, b.orders);
        assert_eq!(a.items, b.items);
        assert_ne!(a.orders, tables(6).orders);
    }

    #[test]
    fn every_template_appears_and_some_texts_repeat() {
        let t = tables(1);
        let seq = sequence(1);
        for c in 0..CLASSES.len() {
            assert!(seq.iter().any(|s| s.0 == c), "template {c} missing");
        }
        let texts: std::collections::HashSet<String> =
            seq.iter().map(|&(tpl, k)| instance(&t, tpl, k).0).collect();
        assert!(texts.len() < seq.len());
    }

    #[test]
    fn folds_answer_small_cases() {
        let t = Tables {
            cust: vec![vec![0, 1, 5], vec![1, 2, 7]],
            orders: vec![vec![0, 0, 150, 3], vec![1, 1, 50, 3], vec![2, 0, 900, 4]],
            items: vec![vec![0, 0, 1, 4], vec![1, 2, 0, 9], vec![2, 1, 1, 2]],
            prod: vec![vec![0, 3, 10], vec![1, 4, 20]],
        };
        assert_eq!(instance(&t, 0, 0).1, vec!["0.000|150.000", "2.000|900.000"]);
        // o_amount > 100, grouped by day.
        assert_eq!(
            instance(&t, 1, 1).1,
            vec!["3.000|1.000|150.000", "4.000|1.000|900.000"]
        );
        assert_eq!(instance(&t, 2, 3).1, vec!["0.000|r1", "1.000|r2"]);
        // Region 1 holds customer 0, whose orders 0 and 2 hold items 0, 1.
        assert_eq!(
            instance(&t, 3, 1).1,
            vec!["c3|1.000|9.000", "c4|1.000|4.000"]
        );
        assert_eq!(
            instance(&t, 4, 0).1,
            vec!["1.000|9.000", "0.000|4.000", "2.000|2.000"]
        );
        assert_eq!(instance(&t, 5, 0).1, vec!["3.000|50.000|900.000"]);
    }
}
