//! `amplab`: the Figure 8 queries 1a–3c over cached `rankings` /
//! `uservisits`, one library client, closed loop. Execution-bound: scan
//! and filter, hash aggregation on a computed key through a shuffle, and
//! join + aggregate + top-1.

use crate::gen;
use crate::harness::{self, err_string, schema, Args, Check, Job, Lib, Report};
use bench::amplab::{native, AmplabData};
use catalyst::{DataType, Row, Value};
use std::sync::Arc;

/// 1/10 of `AmplabScale::default()`; both tables fit the cache, which
/// has no budget.
const PAGES: usize = 10_000;
const VISITS: usize = 30_000;

const CLASSES: [&str; 9] = ["1a", "1b", "1c", "2a", "2b", "2c", "3a", "3b", "3c"];
const ROUNDS_PER_10S: usize = 20;

fn rankings_rows(d: &AmplabData) -> Vec<Row> {
    d.rankings
        .iter()
        .map(|(u, r, a)| Row::new(vec![Value::str(u), Value::Int(*r), Value::Int(*a)]))
        .collect()
}

fn visits_rows(d: &AmplabData) -> Vec<Row> {
    d.uservisits
        .iter()
        .map(|(ip, url, day, rev)| {
            Row::new(vec![
                Value::str(ip),
                Value::str(url),
                Value::Date(*day),
                Value::Double(*rev),
            ])
        })
        .collect()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

/// Answers from `amplab::native` (the hand-written baseline) plus plain
/// folds for what it does not return.
fn check_for(class: &str, d: &AmplabData) -> Check {
    match class {
        "1a" | "1b" | "1c" => {
            let threshold = match class {
                "1a" => 9000,
                "1b" => 1000,
                _ => 100,
            };
            let count = native::query1(d, threshold, harness::THREADS);
            let rank_sum: i64 = d
                .rankings
                .iter()
                .filter(|r| r.1 > threshold)
                .map(|r| r.1 as i64)
                .sum();
            Arc::new(move |rows: &[Row]| {
                let got: i64 = rows.iter().map(|r| r.get_long(1)).sum();
                if rows.len() == count && got == rank_sum {
                    Ok(())
                } else {
                    Err(format!(
                        "{} rows summing {got}, expected {count} summing {rank_sum}",
                        rows.len()
                    ))
                }
            })
        }
        "2a" | "2b" | "2c" => {
            let prefix = match class {
                "2a" => 6,
                "2b" => 9,
                _ => 12,
            };
            let groups = native::query2(d, prefix, harness::THREADS);
            let total: f64 = d.uservisits.iter().map(|v| v.3).sum();
            Arc::new(move |rows: &[Row]| {
                let got: f64 = rows.iter().map(|r| r.get_double(1)).sum();
                if rows.len() == groups && close(got, total) {
                    Ok(())
                } else {
                    Err(format!(
                        "{} groups, revenue {got}; expected {groups}, {total}",
                        rows.len()
                    ))
                }
            })
        }
        _ => {
            let hi = match class {
                "3a" => "1980-04-01",
                "3b" => "1983-01-01",
                _ => "2010-01-01",
            };
            let (ip, rev) = native::query3(d, hi, harness::THREADS);
            Arc::new(move |rows: &[Row]| match rows {
                [r] if r.get_str(0) == ip && close(r.get_double(1), rev) => Ok(()),
                _ => Err(format!(
                    "top row {:?}, expected ({ip}, {rev})",
                    rows.first().map(harness::canon_row)
                )),
            })
        }
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let work = harness::work_dir("amplab");
    let data = gen::amplab(args.seed, PAGES, VISITS);
    let rankings = rankings_rows(&data);
    let visits = visits_rows(&data);
    // The round: the nine classes in a seeded order.
    let mut order: Vec<usize> = (0..CLASSES.len()).collect();
    gen::shuffle(&mut order, &mut gen::rng(args.seed, 2));
    let jobs: Vec<Job> = order
        .iter()
        .map(|&i| Job {
            class: i,
            text: bench::amplab::query(CLASSES[i]),
            check: check_for(CLASSES[i], &data),
            sink: None,
        })
        .collect();
    let conf = harness::pinned_conf(&work, |_| {});
    use DataType::{Date, Double, Int, String as Str};
    let rankings_schema = schema(&[("pageURL", Str), ("pageRank", Int), ("avgDuration", Int)]);
    let visits_schema = schema(&[
        ("sourceIP", Str),
        ("destURL", Str),
        ("visitDate", Date),
        ("adRevenue", Double),
    ]);

    let setup = |tr: Option<(&crate::trace::Tracer, usize)>| -> Result<Lib, String> {
        // Copies of the generated rows are made before the clock starts.
        let inputs = [
            ("rankings", rankings_schema.clone(), rankings.clone()),
            ("uservisits", visits_schema.clone(), visits.clone()),
        ];
        let started = std::time::Instant::now();
        let ctx = harness::new_context(conf.clone());
        let mut cached = Vec::new();
        for (name, schema, rows) in inputs {
            ctx.register_rows(name, schema, rows).map_err(err_string)?;
            let build = || harness::cache_and_fill(&ctx, name);
            let rel = match tr {
                Some((t, parent)) => t.span("cache.build", Some(parent), 0, 0, build)?,
                None => build()?,
            };
            cached.push(rel);
        }
        Ok(Lib {
            ctx,
            cached,
            colfiles: Vec::new(),
            input_bytes: 0,
            started,
        })
    };

    let (mut rep, lib) = harness::run_library(
        args,
        &CLASSES,
        &jobs,
        harness::rounds(args.seconds, ROUNDS_PER_10S),
        setup,
    )?;
    let resident: (usize, usize) = lib
        .cached
        .iter()
        .map(harness::residency)
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    let recomputes = lib
        .ctx
        .spark_context()
        .metrics()
        .snapshot()
        .cache_recomputes;
    rep.floor(
        format!(
            "amplab: cache.hit_ratio = 1 ({}/{} partitions resident, {recomputes} recomputes)",
            resident.0, resident.1
        ),
        resident.0 == resident.1 && resident.1 > 0 && recomputes == 0,
    );
    let spills = rep.probe_spills;
    rep.floor(format!("amplab: no spill ({spills} spills)"), spills == 0);
    let _ = std::fs::remove_dir_all(&work);
    Ok(rep)
}
