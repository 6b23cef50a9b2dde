//! `etl_spill`: colfile inputs read through `ColFileRelation`s the
//! benchmark registers; an external sort, a grace hash join and a
//! high-cardinality aggregation run under a memory budget well below
//! their working sets, and each result is written back to colfile with
//! `DataFrameWriter`. One library client, closed loop.

use crate::gen;
use crate::harness::{self, canon_i64 as n, err_string, schema, Args, Check, Job, Lib, Report};
use catalyst::{DataType, Row, SchemaRef, Value};
use datasources::ColFileRelation;
use rand::RngExt;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

const FACTS: usize = 20_000;
const DIMS: usize = 6_000;
/// Join/group key domain: a quarter of the facts find no dimension row.
const KEYS: i64 = 8_000;
/// Pool budget per query, a fraction of what each operator buffers.
const MEMORY_BUDGET: u64 = 512 << 10;
/// Rows per input row group (= scan partition).
const INPUT_ROWS_PER_GROUP: usize = 4_096;
const ROUNDS_PER_10S: usize = 40;

const CLASSES: [&str; 3] = ["external_sort", "grace_join", "spill_aggregate"];

/// `facts(f_id, f_k, f_v, f_s)` with `f_s` an index rendered `p{n}`,
/// and `dims(d_k, d_w)` with `d_w` rendered `w{n}`.
struct Tables {
    facts: Vec<Vec<i64>>,
    dims: Vec<Vec<i64>>,
}

fn tables(seed: u64) -> Tables {
    Tables {
        facts: gen::long_table(seed, 50, FACTS, &[0, KEYS, 1_000_000, 100_000]),
        dims: gen::long_table(seed, 51, DIMS, &[0, 1_000_000]),
    }
}

fn schemas() -> (SchemaRef, SchemaRef) {
    use DataType::{Long, String as Str};
    (
        schema(&[("f_id", Long), ("f_k", Long), ("f_v", Long), ("f_s", Str)]),
        schema(&[("d_k", Long), ("d_w", Str)]),
    )
}

fn fact_rows(t: &Tables) -> Vec<Row> {
    t.facts
        .iter()
        .map(|r| {
            Row::new(vec![
                Value::Long(r[0]),
                Value::Long(r[1]),
                Value::Long(r[2]),
                Value::str(format!("p{}", r[3])),
            ])
        })
        .collect()
}

fn dim_rows(t: &Tables) -> Vec<Row> {
    t.dims
        .iter()
        .map(|r| Row::new(vec![Value::Long(r[0]), Value::str(format!("w{}", r[1]))]))
        .collect()
}

/// Row count plus an order-independent checksum of canonical rows.
pub fn fingerprint<'a>(rows: impl Iterator<Item = &'a str>) -> (u64, u64) {
    rows.fold((0, 0), |(n, sum), r| {
        // FNV-1a per row, summed so order does not matter.
        let h = r.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        });
        (n + 1, sum.wrapping_add(h))
    })
}

/// Expected (row count, checksum) of a written result.
fn expect_fingerprint(expected: Vec<String>) -> Check {
    let want = fingerprint(expected.iter().map(String::as_str));
    Arc::new(move |rows: &[Row]| {
        let canon: Vec<String> = rows.iter().map(harness::canon_row).collect();
        let got = fingerprint(canon.iter().map(String::as_str));
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "read back {} rows (checksum {:x}), expected {} ({:x})",
                got.0, got.1, want.0, want.1
            ))
        }
    })
}

/// The three jobs with answers from plain folds over the generated rows.
fn jobs(t: &Tables, work: &Path, seed: u64) -> Vec<Job> {
    let sink = |name: &str| Some(work.join(name).to_string_lossy().into_owned());
    let sorted: Vec<String> = t
        .facts
        .iter()
        .map(|r| format!("p{}|{}|{}", r[3], n(r[2]), n(r[0])))
        .collect();
    let sort_check = expect_fingerprint(sorted);
    // The sort must also come back in order.
    let sort_order: Check = Arc::new(move |rows: &[Row]| {
        let key = |r: &Row| (r.get_str(0).to_string(), r.get_long(1), r.get_long(2));
        if rows.windows(2).all(|w| key(&w[0]) <= key(&w[1])) {
            sort_check(rows)
        } else {
            Err("external sort result is out of order".to_string())
        }
    });
    let dim: BTreeMap<i64, i64> = t.dims.iter().map(|d| (d[0], d[1])).collect();
    let joined: Vec<String> = t
        .facts
        .iter()
        .filter_map(|f| {
            dim.get(&f[1])
                .map(|w| format!("{}|{}|w{w}", n(f[0]), n(f[2])))
        })
        .collect();
    let mut groups: BTreeMap<i64, (i64, i64, String)> = BTreeMap::new();
    for f in &t.facts {
        let s = format!("p{}", f[3]);
        let e = groups.entry(f[1]).or_insert((0, 0, s.clone()));
        e.0 += 1;
        e.1 += f[2];
        if s < e.2 {
            e.2 = s;
        }
    }
    let aggregated: Vec<String> = groups
        .iter()
        .map(|(k, (c, s, m))| format!("{}|{}|{}|{m}", n(*k), n(*c), n(*s)))
        .collect();
    let mut all = vec![
        Job {
            class: 0,
            text: "SELECT f_s, f_v, f_id FROM facts ORDER BY f_s, f_v, f_id".to_string(),
            check: sort_order,
            sink: sink("out_sort.col"),
        },
        Job {
            class: 1,
            text: "SELECT f_id, f_v, d_w FROM facts JOIN dims ON f_k = d_k".to_string(),
            check: expect_fingerprint(joined),
            sink: sink("out_join.col"),
        },
        Job {
            class: 2,
            text: "SELECT f_k, COUNT(*), SUM(f_v), MIN(f_s) FROM facts GROUP BY f_k".to_string(),
            check: expect_fingerprint(aggregated),
            sink: sink("out_agg.col"),
        },
    ];
    // The round order is seeded like every other workload's sequence.
    let mut rng = gen::rng(seed, 52);
    let first = rng.random_range(0..all.len());
    all.rotate_left(first);
    all
}

pub fn run(args: &Args) -> Result<Report, String> {
    let work = harness::work_dir("etl_spill");
    std::fs::create_dir_all(work.join("spill")).map_err(err_string)?;
    let t = tables(args.seed);
    let (fact_schema, dim_schema) = schemas();
    // Input files are generated data: written before any set-up is timed.
    let inputs = [
        ("facts", work.join("facts.col"), fact_schema, fact_rows(&t)),
        ("dims", work.join("dims.col"), dim_schema, dim_rows(&t)),
    ];
    let mut input_bytes = 0;
    for (_, path, schema, rows) in &inputs {
        ColFileRelation::write_path(&path.to_string_lossy(), schema, rows, INPUT_ROWS_PER_GROUP)
            .map_err(err_string)?;
        input_bytes += std::fs::metadata(path).map_err(err_string)?.len();
    }
    let jobs = jobs(&t, &work, args.seed);
    let conf = harness::pinned_conf(&work, |c| {
        c.memory_budget_bytes = MEMORY_BUDGET;
        // Shuffled (memory-governed) joins only: broadcast builds are
        // bounded by the planner, not the pool.
        c.broadcast_threshold = 0;
    });
    let setup = |tr: Option<(&crate::trace::Tracer, usize)>| -> Result<Lib, String> {
        let started = std::time::Instant::now();
        let ctx = harness::new_context(conf.clone());
        let mut colfiles = Vec::new();
        for (name, path, _, _) in &inputs {
            let open = || ColFileRelation::from_path(&path.to_string_lossy()).map_err(err_string);
            let rel = Arc::new(match tr {
                Some((t, parent)) => t.span("colfile.open", Some(parent), 0, 0, open)?,
                None => open()?,
            });
            ctx.register_relation(name, rel.clone());
            colfiles.push(rel);
        }
        Ok(Lib {
            ctx,
            cached: Vec::new(),
            colfiles,
            input_bytes,
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
    rep.floor(
        format!("etl_spill: spill.count > 0 ({} spills)", rep.probe_spills),
        rep.probe_spills > 0,
    );
    let leaked =
        rep.probe_leaked + rep.layers.get("spill.files_leaked").copied().unwrap_or(0.0) as i64;
    rep.floor(
        format!("etl_spill: spill.files_leaked = 0 ({leaked})"),
        leaked == 0,
    );
    let _ = std::fs::remove_dir_all(&work);
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_deterministic_per_seed() {
        assert_eq!(tables(9).facts, tables(9).facts);
        assert_ne!(tables(9).facts, tables(10).facts);
        assert_eq!(tables(9).dims, tables(9).dims);
    }
}
