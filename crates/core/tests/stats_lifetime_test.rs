//! Planning statistics: how long they live and how often planning reads
//! them.
//!
//! Each cached block carries a per-column summary computed when it is
//! encoded, so the statistics a cached relation reports are exactly those
//! of its resident blocks: an evicted block takes its summary with it,
//! a refill brings a fresh one, and a re-cached table starts from
//! scratch. The constraint rules carry facts up each rewrite walk, so a
//! scan's statistics are read once per rule application, not once per
//! ancestor node.

use catalyst::error::Result;
use catalyst::plan::LogicalPlan;
use catalyst::source::{BaseRelation, ColumnStatistics, Filter, MemoryTable, RowIter};
use catalyst::tree::TreeNode;
use spark_sql::cache::CachedRelation;
use spark_sql::prelude::*;
use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn x_schema() -> SchemaRef {
    Arc::new(Schema::new(vec![
        StructField::new("x", DataType::Long, false),
        StructField::new("tag", DataType::String, true),
    ]))
}

fn x_rows(range: std::ops::Range<i64>) -> Vec<Row> {
    range
        .map(|i| {
            let tag = if i % 7 == 0 {
                Value::Null
            } else {
                Value::str(format!("t{}", i % 5))
            };
            Row::new(vec![Value::Long(i), tag])
        })
        .collect()
}

/// Constraints, CBO and the columnar cache pinned on, whatever the
/// environment's defaults; no injected executor deaths, so block
/// residency is exactly what the test arranges.
fn pinned_ctx() -> SQLContext {
    let ctx = SQLContext::new_local(2);
    ctx.set_conf(|c| {
        c.cbo_enabled = true;
        c.constraints_enabled = true;
        c.columnar_cache_enabled = true;
    });
    ctx.spark_context().set_chaos(None);
    ctx
}

/// The relation behind the catalog entry `name`.
fn relation_of(ctx: &SQLContext, name: &str) -> Arc<dyn BaseRelation> {
    let df = ctx.table(name).expect("table");
    let mut found = None;
    df.logical_plan().for_each(&mut |n| {
        if let LogicalPlan::Scan { relation, .. } = n {
            found = Some(relation.clone());
        }
    });
    found.expect("a scan")
}

fn cached(rel: &Arc<dyn BaseRelation>) -> &CachedRelation {
    rel.as_any()
        .downcast_ref::<CachedRelation>()
        .expect("a cached relation")
}

/// Times `AggregateFromStats` rewrote the plan of one query.
fn stats_answer_fires(qe: &QueryExecution) -> usize {
    qe.rule_health()
        .rules
        .iter()
        .filter(|h| h.rule == "AggregateFromStats")
        .map(|h| h.fires)
        .sum()
}

/// `(values, stats-answered?)` of a global COUNT/MIN/MAX over `t`.
fn count_min_max(ctx: &SQLContext) -> (String, bool) {
    let qe = ctx
        .sql("SELECT count(*) AS n, min(x) AS lo, max(x) AS hi FROM t")
        .expect("sql")
        .query_execution()
        .expect("plan");
    let rows = qe.collect().expect("run");
    (
        format!("{:?}", rows[0].values()),
        stats_answer_fires(&qe) > 0,
    )
}

#[test]
fn cached_statistics_follow_the_resident_blocks() {
    let ctx = pinned_ctx();
    let schema = x_schema();
    let rows = x_rows(0..400);
    ctx.register_relation(
        "t",
        Arc::new(MemoryTable::new("t", schema.clone(), rows.clone(), 4)),
    );
    ctx.cache_table("t").expect("cache");
    let rel = relation_of(&ctx, "t");
    let cache = cached(&rel);
    assert_eq!(cache.cached_rows().expect("fill"), 400);
    assert_eq!(rel.num_partitions(), 4);

    // The summaries of a full cache equal statistics computed over a
    // fresh encoding of the same rows.
    let fresh = columnar::stats::relation_statistics(
        &columnar::batch_rows(schema.clone(), rows, 16),
        schema.len(),
    );
    let full = rel.column_statistics().expect("resident stats");
    assert_eq!(full, fresh);
    assert!(full.iter().all(|s| !s.partial));
    assert_eq!(rel.row_count(), Some(400));
    let (values, answered) = count_min_max(&ctx);
    assert_eq!(values, "[Long(400), Long(0), Long(399)]");
    assert!(answered, "exact stats should answer the aggregate");

    // Evict one block: the statistics turn partial, row count and size
    // become unknown, and no aggregate may be answered from them.
    assert!(ctx
        .spark_context()
        .cache_manager()
        .evict(cache.cache_id(), 3));
    assert_eq!(cache.resident_partitions(), 3);
    let partial = rel.column_statistics().expect("partial stats");
    assert!(partial.iter().all(|s| s.partial), "{partial:?}");
    assert_eq!(partial[0].row_count, Some(300));
    assert_eq!(rel.row_count(), None);
    assert_eq!(rel.size_in_bytes(), None);
    let qe = ctx
        .sql("SELECT count(*) AS n, min(x) AS lo, max(x) AS hi FROM t")
        .expect("sql")
        .query_execution()
        .expect("plan");
    assert_eq!(stats_answer_fires(&qe), 0, "{}", qe.optimized());

    // The scan refills the block; the statistics are exact again.
    let rows = qe.collect().expect("run");
    assert_eq!(
        format!("{:?}", rows[0].values()),
        "[Long(400), Long(0), Long(399)]"
    );
    assert_eq!(cache.resident_partitions(), 4);
    assert_eq!(rel.column_statistics().expect("refilled stats"), fresh);
    assert_eq!(rel.row_count(), Some(400));

    // Re-cache the name over different rows: the answers come from the
    // new table's statistics, never the old blocks'.
    ctx.sql("UNCACHE TABLE t")
        .expect("uncache")
        .collect()
        .expect("uncache run");
    ctx.register_relation(
        "t",
        Arc::new(MemoryTable::new("t", schema, x_rows(1000..1250), 4)),
    );
    ctx.sql("CACHE TABLE t")
        .expect("cache")
        .collect()
        .expect("cache run");
    cached(&relation_of(&ctx, "t")).cached_rows().expect("fill");
    let (values, answered) = count_min_max(&ctx);
    assert_eq!(values, "[Long(250), Long(1000), Long(1249)]");
    assert!(
        answered,
        "the new cache's stats should answer the aggregate"
    );
}

/// A [`MemoryTable`] that counts how often planning asks for its column
/// statistics.
struct CountingTable {
    inner: MemoryTable,
    calls: Arc<AtomicUsize>,
}

impl BaseRelation for CountingTable {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn schema(&self) -> SchemaRef {
        self.inner.schema()
    }

    fn size_in_bytes(&self) -> Option<u64> {
        self.inner.size_in_bytes()
    }

    fn row_count(&self) -> Option<u64> {
        self.inner.row_count()
    }

    fn num_partitions(&self) -> usize {
        self.inner.num_partitions()
    }

    fn scan_partition(
        &self,
        partition: usize,
        projection: Option<&[usize]>,
        filters: &[Filter],
    ) -> Result<RowIter> {
        self.inner.scan_partition(partition, projection, filters)
    }

    fn column_statistics(&self) -> Option<Vec<ColumnStatistics>> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.inner.column_statistics()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[test]
fn planning_reads_statistics_once_per_scan_per_rule_application() {
    let ctx = pinned_ctx();
    let calls = Arc::new(AtomicUsize::new(0));
    let sizes = [("a", 400i64), ("b", 40), ("c", 200), ("d", 20)];
    for (name, n) in sizes {
        let schema: SchemaRef = Arc::new(Schema::new(vec![
            StructField::new(format!("{name}k"), DataType::Long, true),
            StructField::new(format!("{name}v"), DataType::Long, true),
        ]));
        // NULL keys, so the constraint phase guards every join input.
        let rows = (0..n)
            .map(|i| {
                let k = if i % 9 == 0 {
                    Value::Null
                } else {
                    Value::Long(i % 20)
                };
                Row::new(vec![k, Value::Long(i)])
            })
            .collect();
        ctx.register_relation(
            name,
            Arc::new(CountingTable {
                inner: MemoryTable::new(name, schema, rows, 2),
                calls: calls.clone(),
            }),
        );
    }
    let sql = "SELECT ak, count(*) AS n, sum(dv) AS s FROM a \
               JOIN b ON ak = bk \
               JOIN c ON bk = ck \
               JOIN d ON ck = dk \
               WHERE av > 5 AND cv < 150 \
               GROUP BY ak HAVING count(*) > 1 ORDER BY ak LIMIT 10";
    let df = ctx.sql(sql).expect("sql");
    calls.store(0, Ordering::SeqCst);
    let qe = df.query_execution().expect("plan");
    let reads = calls.load(Ordering::SeqCst);

    let mut scans = 0;
    qe.optimized().for_each(&mut |n| {
        if matches!(n, LogicalPlan::Scan { .. }) {
            scans += 1;
        }
    });
    assert_eq!(scans, 4, "{}", qe.optimized());
    let applications: usize = qe
        .rule_health()
        .rules
        .iter()
        .filter(|h| h.batch.starts_with("Constraint") || h.batch.starts_with("CBO"))
        .map(|h| h.applications)
        .sum();
    assert!(applications > 0);
    assert!(
        reads <= scans * applications,
        "{reads} statistics reads exceed {scans} scans x {applications} rule applications"
    );

    // The plan is still correct.
    assert!(!qe.collect().expect("run").is_empty());
}
