//! Shuffle output of SQL queries lives only as long as the query's RDDs:
//! after every `collect` the engine holds no map output and no
//! per-shuffle stats, except for a cached table's lineage, which keeps
//! its shuffles until `UNCACHE`.

use catalyst::value::Value;
use catalyst::Row;
use spark_sql::prelude::*;
use std::sync::Arc;

fn register(ctx: &SQLContext) {
    let a = Arc::new(Schema::new(vec![
        StructField::new("k", DataType::Long, false),
        StructField::new("v", DataType::Long, false),
    ]));
    let a_rows = (0..2_000i64)
        .map(|i| Row::new(vec![Value::Long(i % 50), Value::Long(i)]))
        .collect();
    ctx.register_rows("a", a, a_rows).unwrap();
    let b = Arc::new(Schema::new(vec![
        StructField::new("k", DataType::Long, false),
        StructField::new("w", DataType::Long, false),
    ]));
    let b_rows = (0..300i64)
        .map(|i| Row::new(vec![Value::Long(i % 40), Value::Long(i * 3)]))
        .collect();
    ctx.register_rows("b", b, b_rows).unwrap();
}

const QUERIES: &[&str] = &[
    "SELECT a.k, SUM(a.v) AS s FROM a JOIN b ON a.k = b.k GROUP BY a.k",
    "SELECT a.k, b.w FROM a JOIN (SELECT k, SUM(w) AS w FROM b GROUP BY k) b ON a.k = b.k",
    "SELECT k, COUNT(*) AS n, MAX(v) AS m FROM a GROUP BY k ORDER BY n DESC, k",
    "SELECT v FROM a WHERE k < 5 ORDER BY v DESC LIMIT 7",
    "SELECT DISTINCT k FROM b",
    "SELECT b.k, COUNT(*) AS n FROM b LEFT JOIN a ON a.k = b.k GROUP BY b.k",
];

/// Broadcast, statically shuffled, and adaptive joins.
fn configure(ctx: &SQLContext, round: usize) {
    ctx.set_conf(|c| match round % 3 {
        0 => {
            c.adaptive_enabled = false;
            c.broadcast_threshold = 1 << 30;
        }
        1 => {
            c.adaptive_enabled = false;
            c.broadcast_threshold = 0;
        }
        _ => {
            c.adaptive_enabled = true;
            c.broadcast_threshold = 4 << 10;
        }
    });
}

fn assert_no_shuffle_state(ctx: &SQLContext, what: &str) {
    let sc = ctx.spark_context();
    assert!(
        sc.shuffle_manager().known_shuffles().is_empty(),
        "{what}: shuffles still stored: {:?}",
        sc.shuffle_manager().known_shuffles()
    );
    for sid in 0..sc.current_shuffle_id() {
        assert_eq!(
            sc.metrics().shuffle_stats(sid),
            Default::default(),
            "{what}: stats of shuffle {sid} kept"
        );
    }
}

#[test]
fn queries_leave_no_shuffle_output_behind() {
    let ctx = SQLContext::new_local(2);
    register(&ctx);
    let sc = ctx.spark_context().clone();
    for i in 0..200 {
        configure(&ctx, i / QUERIES.len());
        let text = QUERIES[i % QUERIES.len()];
        let df = ctx.sql(text).unwrap();
        let rows = if i % 2 == 0 {
            df.collect().unwrap()
        } else {
            df.query_execution().unwrap().collect().unwrap()
        };
        assert!(!rows.is_empty(), "{text}");
        assert_no_shuffle_state(&ctx, text);
    }
    // Every query shuffled: the sweep is not vacuous.
    assert!(
        sc.current_shuffle_id() >= 200,
        "{}",
        sc.current_shuffle_id()
    );
}

#[test]
fn eagerly_consumed_shuffles_are_attributed_before_release() {
    let ctx = SQLContext::new_local(2);
    register(&ctx);
    // The aggregate is the broadcast build side: its shuffle is read in
    // full while the join lowers, long before the run is attributed.
    ctx.set_conf(|c| {
        c.adaptive_enabled = false;
        c.broadcast_threshold = 1 << 30;
    });
    let df = ctx.sql(QUERIES[1]).unwrap();
    let text = df.explain_analyze().unwrap();
    assert!(text.contains("BroadcastHashJoin"), "{text}");
    let entry = ctx.query_log().pop().unwrap();
    let written: u64 = entry
        .operators
        .iter()
        .flat_map(|op| &op.extras)
        .filter(|(k, _)| k == "shuffle_records_written")
        .map(|(_, v)| *v)
        .sum();
    assert!(written > 0, "{text}");
    assert_no_shuffle_state(&ctx, "explain analyze");
}

#[test]
fn cached_query_keeps_its_shuffles_until_uncache() {
    let ctx = SQLContext::new_local(2);
    register(&ctx);
    ctx.sql("SELECT k, SUM(v) AS s FROM a GROUP BY k")
        .unwrap()
        .register_temp_table("sums");
    ctx.sql("CACHE TABLE sums").unwrap();
    let first = ctx
        .sql("SELECT COUNT(*) FROM sums")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(first[0].get(0), &Value::Long(50));
    let held = ctx.spark_context().shuffle_manager().known_shuffles();
    assert!(!held.is_empty(), "the cached lineage shuffles");

    // Queries over the cached table add nothing that outlives them.
    for _ in 0..3 {
        let df = ctx.sql("SELECT s FROM sums ORDER BY s").unwrap();
        assert_eq!(df.collect().unwrap().len(), 50);
        assert_eq!(ctx.spark_context().shuffle_manager().known_shuffles(), held);
    }

    ctx.sql("UNCACHE TABLE sums").unwrap();
    assert_no_shuffle_state(&ctx, "after UNCACHE");
    // The table still answers, from its original plan.
    let again = ctx
        .sql("SELECT COUNT(*) FROM sums")
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(again, first);
    assert_no_shuffle_state(&ctx, "after the uncached query");
}
