//! Physical plan execution: lowers Catalyst physical operators onto the
//! engine's RDDs, so relational queries run on the same substrate —
//! stages, shuffles, broadcasts — as procedural Spark code.
//!
//! Expression evaluation honors `SqlConf::codegen_enabled`: on, operators
//! use compiled fused closures (§4.3.4); off, they fall back to the
//! tree-walking interpreter — which is exactly the Shark-baseline
//! configuration of the Figure 8 experiment.

use crate::conf::SqlConf;
use crate::rdd_table::RddTable;
use crate::spill::{self, SpillCtx};
use catalyst::adaptive::{rules as adaptive_rules, AdaptivePlanChange, AdaptiveRule};
use catalyst::codegen;
use catalyst::error::{CatalystError, Result};
use catalyst::expr::{
    AggFunc, ColumnRef, Expr, FrameBound, FrameUnits, SortOrder, WindowFrame, WindowFunc,
};
use catalyst::interpreter::{self, bind_references};
use catalyst::physical::metrics::{subtree_size, OperatorMetrics, PlanMetrics};
use catalyst::physical::{BuildSide, PhysicalPlan};
use catalyst::plan::JoinType;
use catalyst::row::Row;
use catalyst::source::RowIter;
use catalyst::tree::{Transformed, TreeNode};
use catalyst::types::DataType;
use catalyst::validation::PlanValidator;
use catalyst::value::Value;
use catalyst::vectorized::{self, RowBatch};
use engine::shuffle::{as_base, SizeFn};
use engine::{
    HashPartitioner, MaterializedShuffle, MemoryPool, PairRdd, RangePartitioner, RddBase, RddRef,
    ShuffleReadSpec, SparkContext,
};
use std::cmp::Ordering;
use std::hash::Hash;
use std::time::Instant;

fn engine_err(e: engine::EngineError) -> CatalystError {
    CatalystError::Internal(format!("execution failed: {e}"))
}
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// Shared recorder of adaptive plan changes for one execution. Cloned
/// handles append to the same list; `QueryExecution` keeps one to render
/// initial-vs-final plans in `explain_analyze`.
#[derive(Clone, Default)]
pub struct AdaptiveLog(Arc<Mutex<Vec<AdaptivePlanChange>>>);

impl AdaptiveLog {
    /// Append one adaptive decision.
    pub fn record(&self, change: AdaptivePlanChange) {
        self.0.lock().unwrap().push(change);
    }

    /// All changes recorded so far, in decision order.
    pub fn snapshot(&self) -> Vec<AdaptivePlanChange> {
        self.0.lock().unwrap().clone()
    }

    /// Drop recorded changes (start of a fresh execution).
    pub fn clear(&self) {
        self.0.lock().unwrap().clear();
    }
}

/// Everything execution needs.
pub struct ExecContext {
    /// The engine.
    pub sc: SparkContext,
    /// Session configuration.
    pub conf: SqlConf,
    /// Per-operator metrics registry, indexed by pre-order node id.
    /// `None` runs uninstrumented (no metering wrappers at all).
    pub metrics: Option<Arc<PlanMetrics>>,
    /// Adaptive decisions made while lowering (stage-by-stage execution
    /// records coalescing, demotions, and skew splits here).
    pub adaptive: AdaptiveLog,
    /// Memory pool governing the buffering operators of this execution.
    /// Bounded when `spark.sql.memory.budgetBytes` is set (and spilling
    /// is not disabled); unbounded pools never deny and never spill.
    pub mem: Arc<MemoryPool>,
    /// Cooperative cancellation token. When set, every operator's
    /// partition iterator checks it at the partition boundary and every
    /// 256 rows (per batch on the vectorized path); a fired token unwinds
    /// the task with [`engine::CancelSignal`], releasing reservations and
    /// spill files on the way out.
    pub cancel: Option<engine::CancelToken>,
    /// When instrumented, every operator's lowered RDD. A shuffle's output
    /// and per-shuffle stats live only as long as some RDD reads it, and
    /// an operator that consumes a child eagerly while lowering (a
    /// broadcast build, a top-k, an adaptive demotion probe) drops its
    /// handle at once. Holding the RDDs here keeps those shuffles'
    /// stats readable until the run is attributed; the context is
    /// dropped after that.
    lowered: Mutex<Vec<Arc<dyn RddBase>>>,
}

/// Build the execution's memory pool from session configuration.
fn pool_from_conf(conf: &SqlConf) -> Arc<MemoryPool> {
    match conf.effective_memory_budget() {
        Some(budget) => MemoryPool::bounded(budget, conf.spill_path()),
        None => MemoryPool::unbounded(),
    }
}

impl ExecContext {
    /// An uninstrumented execution context.
    pub fn new(sc: SparkContext, conf: SqlConf) -> Self {
        let mem = pool_from_conf(&conf);
        ExecContext {
            sc,
            conf,
            metrics: None,
            adaptive: AdaptiveLog::default(),
            mem,
            cancel: None,
            lowered: Mutex::new(Vec::new()),
        }
    }

    /// An instrumented context recording into `metrics`.
    pub fn instrumented(sc: SparkContext, conf: SqlConf, metrics: Arc<PlanMetrics>) -> Self {
        let mem = pool_from_conf(&conf);
        ExecContext {
            sc,
            conf,
            metrics: Some(metrics),
            adaptive: AdaptiveLog::default(),
            mem,
            cancel: None,
            lowered: Mutex::new(Vec::new()),
        }
    }

    /// Keep `rdd` (and the shuffles in its lineage) alive for as long as
    /// this context, when the run is instrumented.
    fn keep_for_attribution<T: engine::Data>(&self, rdd: &RddRef<T>) {
        if self.metrics.is_some() {
            self.lowered.lock().unwrap().push(as_base(rdd.as_inner()));
        }
    }

    /// Spill context for the operator with pre-order id `id`.
    fn spill_ctx(&self, id: usize) -> SpillCtx {
        SpillCtx {
            pool: self.mem.clone(),
            node: self.metrics.as_ref().map(|pm| pm.node(id)),
        }
    }
}

/// Partition iterator that counts rows and the wall time spent producing
/// them, flushing into an [`OperatorMetrics`] slot when dropped. Time is
/// accumulated around `next()` only, so pipelined *downstream* work is
/// excluded while upstream operators of the same stage are included —
/// matching how per-operator times read in Spark's SQL UI.
struct MeteredIter {
    inner: engine::BoxIter<Row>,
    node: Arc<OperatorMetrics>,
    rows: u64,
    elapsed_ns: u64,
}

impl Iterator for MeteredIter {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        let t0 = Instant::now();
        let item = self.inner.next();
        self.elapsed_ns += t0.elapsed().as_nanos() as u64;
        if item.is_some() {
            self.rows += 1;
        }
        item
    }
}

impl Drop for MeteredIter {
    fn drop(&mut self) {
        self.node.add_rows(self.rows);
        self.node.add_elapsed_ns(self.elapsed_ns);
    }
}

/// Wrap an operator's output RDD so every partition records rows/time.
fn metered(rdd: &RddRef<Row>, node: Arc<OperatorMetrics>) -> RddRef<Row> {
    rdd.map_partitions(move |it| {
        Box::new(MeteredIter {
            inner: it,
            node: node.clone(),
            rows: 0,
            elapsed_ns: 0,
        })
    })
}

/// Cooperative cancellation point in a row pipeline: checks the token
/// when the partition opens and every 256 rows after.
struct CancelCheckIter {
    inner: engine::BoxIter<Row>,
    token: engine::CancelToken,
    count: u32,
}

impl Iterator for CancelCheckIter {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        self.count = self.count.wrapping_add(1);
        if self.count & 0xFF == 0 {
            engine::cancel::check(&self.token);
        }
        self.inner.next()
    }
}

/// Wrap an operator's output so its partitions observe `token`.
fn cancel_checked(rdd: &RddRef<Row>, token: engine::CancelToken) -> RddRef<Row> {
    rdd.map_partitions(move |it| {
        engine::cancel::check(&token);
        Box::new(CancelCheckIter {
            inner: it,
            token: token.clone(),
            count: 0,
        })
    })
}

/// Batch-path cancellation point: per batch (a batch is the row path's
/// "every few hundred rows" in one step).
fn cancel_checked_batches(rdd: &RddRef<RowBatch>, token: engine::CancelToken) -> RddRef<RowBatch> {
    rdd.map_partitions(move |it| {
        engine::cancel::check(&token);
        let token = token.clone();
        Box::new(it.inspect(move |_| engine::cancel::check(&token)))
    })
}

/// Credit driver-side (eager) work to a node's elapsed time.
fn note_eager_ns(ctx: &ExecContext, id: usize, start: Instant) {
    if let Some(pm) = &ctx.metrics {
        pm.node(id)
            .add_elapsed_ns(start.elapsed().as_nanos() as u64);
    }
}

type RowFn = Arc<dyn Fn(&Row) -> Row + Send + Sync>;
type PredFn = Arc<dyn Fn(&Row) -> bool + Send + Sync>;

fn bind_all(exprs: &[Expr], input: &[ColumnRef]) -> Result<Vec<Expr>> {
    exprs
        .iter()
        .map(|e| bind_references(e.clone(), input))
        .collect()
}

/// Build a row→row projector, compiled or interpreted per config.
fn projector(exprs: &[Expr], input: &[ColumnRef], codegen_on: bool) -> Result<RowFn> {
    let bound = bind_all(exprs, input)?;
    if codegen_on {
        let compiled = codegen::compile_projection(&bound);
        Ok(Arc::new(move |row| {
            compiled(row).expect("projection failed")
        }))
    } else {
        Ok(Arc::new(move |row| {
            Row::new(
                bound
                    .iter()
                    .map(|e| interpreter::eval(e, row).expect("projection failed"))
                    .collect(),
            )
        }))
    }
}

/// Build a row predicate, compiled or interpreted per config.
fn predicate(expr: &Expr, input: &[ColumnRef], codegen_on: bool) -> Result<PredFn> {
    let bound = bind_references(expr.clone(), input)?;
    if codegen_on {
        Ok(codegen::compile_predicate(&bound))
    } else {
        Ok(Arc::new(move |row| {
            interpreter::eval_predicate(&bound, row).expect("predicate failed")
        }))
    }
}

type ValueFn = Arc<dyn Fn(&Row) -> Value + Send + Sync>;

/// Build a single-value evaluator, compiled or interpreted per config.
fn value_fn(bound: Expr, codegen_on: bool) -> ValueFn {
    if codegen_on {
        let dtype = bound.data_type().unwrap_or(DataType::String);
        let compiled = codegen::compile(&bound);
        Arc::new(move |row| compiled.eval_value(row, &dtype).expect("expression failed"))
    } else {
        Arc::new(move |row| interpreter::eval(&bound, row).expect("expression failed"))
    }
}

/// Sort key with per-column directions and a total order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SortKey {
    values: Vec<Value>,
    descending_mask: u64,
}

impl SortKey {
    fn new(values: Vec<Value>, orders: &[SortOrder]) -> Self {
        let mut mask = 0u64;
        for (i, o) in orders.iter().enumerate() {
            if !o.ascending {
                mask |= 1 << i;
            }
        }
        SortKey {
            values,
            descending_mask: mask,
        }
    }

    /// The key column values (for flattening into a spillable row).
    pub(crate) fn into_values(self) -> Vec<Value> {
        self.values
    }
}

impl PartialOrd for SortKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SortKey {
    fn cmp(&self, other: &Self) -> Ordering {
        for (i, (a, b)) in self.values.iter().zip(other.values.iter()).enumerate() {
            let mut o = a.total_cmp(b);
            if self.descending_mask & (1 << i) != 0 {
                o = o.reverse();
            }
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    }
}

// ---- aggregation machinery ----

/// One accumulator instance.
#[derive(Debug, Clone)]
pub enum Acc {
    /// COUNT (of non-null args, or all rows for COUNT(*)).
    Count(i64),
    /// SUM.
    Sum(Option<Value>),
    /// MIN.
    Min(Option<Value>),
    /// MAX.
    Max(Option<Value>),
    /// AVG (sum + count).
    Avg(Option<Value>, i64),
    /// Any DISTINCT aggregate: collect the distinct set, finish by func.
    Distinct(HashSet<Value>, AggFunc),
}

/// A planned aggregate call: evaluator for the argument + accumulator
/// factory.
#[derive(Clone)]
struct AggCall {
    func: AggFunc,
    distinct: bool,
    /// Bound argument evaluator (None = COUNT(*)).
    arg: Option<ValueFn>,
}

impl AggCall {
    fn init(&self) -> Acc {
        if self.distinct {
            return Acc::Distinct(HashSet::new(), self.func);
        }
        match self.func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum(None),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg(None, 0),
        }
    }

    fn arg_value(&self, row: &Row) -> Value {
        match &self.arg {
            None => Value::Long(1), // COUNT(*): every row counts
            Some(f) => f(row),
        }
    }

    fn update(&self, acc: &mut Acc, row: &Row) {
        let v = self.arg_value(row);
        match acc {
            Acc::Count(n) => {
                if self.arg.is_none() || !v.is_null() {
                    *n += 1;
                }
            }
            Acc::Sum(s) => {
                if !v.is_null() {
                    *s = Some(match s.take() {
                        Some(cur) => cur.add(&v).expect("sum failed"),
                        None => v,
                    });
                }
            }
            Acc::Min(m) => {
                if !v.is_null() && m.as_ref().is_none_or(|cur| v < *cur) {
                    *m = Some(v);
                }
            }
            Acc::Max(m) => {
                if !v.is_null() && m.as_ref().is_none_or(|cur| v > *cur) {
                    *m = Some(v);
                }
            }
            Acc::Avg(s, n) => {
                if !v.is_null() {
                    *s = Some(match s.take() {
                        Some(cur) => cur.add(&v).expect("avg failed"),
                        None => v,
                    });
                    *n += 1;
                }
            }
            Acc::Distinct(set, _) => {
                if !v.is_null() {
                    set.insert(v);
                }
            }
        }
    }
}

impl Acc {
    /// Encode for spilling as a self-describing tagged array. Inverse of
    /// [`Acc::from_value`]; round-trips exactly through the spill codec.
    pub(crate) fn to_value(&self) -> Value {
        let items: Vec<Value> = match self {
            Acc::Count(n) => vec![Value::Long(0), Value::Long(*n)],
            Acc::Sum(s) => vec![Value::Long(1), s.clone().unwrap_or(Value::Null)],
            Acc::Min(m) => vec![Value::Long(2), m.clone().unwrap_or(Value::Null)],
            Acc::Max(m) => vec![Value::Long(3), m.clone().unwrap_or(Value::Null)],
            Acc::Avg(s, n) => {
                vec![
                    Value::Long(4),
                    s.clone().unwrap_or(Value::Null),
                    Value::Long(*n),
                ]
            }
            Acc::Distinct(set, f) => {
                let mut items = vec![Value::Long(5), Value::Long(agg_func_tag(*f))];
                items.extend(set.iter().cloned());
                items
            }
        };
        Value::Array(Arc::new(items))
    }

    /// Decode a spilled accumulator. Panics on malformed input — spill
    /// files are written and read by the same process.
    pub(crate) fn from_value(v: &Value) -> Acc {
        let Value::Array(items) = v else {
            panic!("corrupt spilled accumulator")
        };
        let opt = |v: &Value| if v.is_null() { None } else { Some(v.clone()) };
        match (items.first(), items.get(1)) {
            (Some(Value::Long(0)), Some(Value::Long(n))) => Acc::Count(*n),
            (Some(Value::Long(1)), Some(s)) => Acc::Sum(opt(s)),
            (Some(Value::Long(2)), Some(m)) => Acc::Min(opt(m)),
            (Some(Value::Long(3)), Some(m)) => Acc::Max(opt(m)),
            (Some(Value::Long(4)), Some(s)) => match items.get(2) {
                Some(Value::Long(n)) => Acc::Avg(opt(s), *n),
                _ => panic!("corrupt spilled AVG accumulator"),
            },
            (Some(Value::Long(5)), Some(Value::Long(tag))) => Acc::Distinct(
                items[2..].iter().cloned().collect(),
                agg_func_from_tag(*tag),
            ),
            _ => panic!("corrupt spilled accumulator"),
        }
    }

    /// Rough in-memory footprint, for reservation accounting.
    pub(crate) fn approx_bytes(&self) -> u64 {
        match self {
            Acc::Count(_) => 16,
            Acc::Sum(v) | Acc::Min(v) | Acc::Max(v) => {
                16 + v.as_ref().map_or(0, Value::approx_bytes)
            }
            Acc::Avg(v, _) => 24 + v.as_ref().map_or(0, Value::approx_bytes),
            Acc::Distinct(set, _) => 32 + set.iter().map(|v| 16 + v.approx_bytes()).sum::<u64>(),
        }
    }
}

fn agg_func_tag(f: AggFunc) -> i64 {
    match f {
        AggFunc::Count => 0,
        AggFunc::Sum => 1,
        AggFunc::Min => 2,
        AggFunc::Max => 3,
        AggFunc::Avg => 4,
    }
}

fn agg_func_from_tag(t: i64) -> AggFunc {
    match t {
        0 => AggFunc::Count,
        1 => AggFunc::Sum,
        2 => AggFunc::Min,
        3 => AggFunc::Max,
        4 => AggFunc::Avg,
        _ => panic!("corrupt spilled aggregate function tag {t}"),
    }
}

pub(crate) fn merge_acc(a: Acc, b: Acc) -> Acc {
    match (a, b) {
        (Acc::Count(x), Acc::Count(y)) => Acc::Count(x + y),
        (Acc::Sum(x), Acc::Sum(y)) => Acc::Sum(merge_opt_add(x, y)),
        (Acc::Min(x), Acc::Min(y)) => Acc::Min(merge_opt_by(x, y, |a, b| a <= b)),
        (Acc::Max(x), Acc::Max(y)) => Acc::Max(merge_opt_by(x, y, |a, b| a >= b)),
        (Acc::Avg(xs, xn), Acc::Avg(ys, yn)) => Acc::Avg(merge_opt_add(xs, ys), xn + yn),
        (Acc::Distinct(mut xa, f), Acc::Distinct(yb, _)) => {
            xa.extend(yb);
            Acc::Distinct(xa, f)
        }
        _ => unreachable!("mismatched accumulators"),
    }
}

fn merge_opt_add(a: Option<Value>, b: Option<Value>) -> Option<Value> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.add(&y).expect("merge failed")),
        (x, None) => x,
        (None, y) => y,
    }
}

fn merge_opt_by(
    a: Option<Value>,
    b: Option<Value>,
    keep_left: fn(&Value, &Value) -> bool,
) -> Option<Value> {
    match (a, b) {
        (Some(x), Some(y)) => Some(if keep_left(&x, &y) { x } else { y }),
        (x, None) => x,
        (None, y) => y,
    }
}

fn finish_acc(acc: Acc) -> Value {
    match acc {
        Acc::Count(n) => Value::Long(n),
        Acc::Sum(s) => s.unwrap_or(Value::Null),
        Acc::Min(m) | Acc::Max(m) => m.unwrap_or(Value::Null),
        Acc::Avg(s, n) => match (s, n) {
            (Some(sum), n) if n > 0 => match sum.as_f64() {
                Some(f) => Value::Double(f / n as f64),
                None => Value::Null,
            },
            _ => Value::Null,
        },
        Acc::Distinct(set, f) => match f {
            AggFunc::Count => Value::Long(set.len() as i64),
            AggFunc::Sum => set
                .into_iter()
                .try_fold(None::<Value>, |acc, v| -> Result<Option<Value>> {
                    Ok(Some(match acc {
                        Some(cur) => cur.add(&v)?,
                        None => v,
                    }))
                })
                .ok()
                .flatten()
                .unwrap_or(Value::Null),
            AggFunc::Min => set.into_iter().min().unwrap_or(Value::Null),
            AggFunc::Max => set.into_iter().max().unwrap_or(Value::Null),
            AggFunc::Avg => {
                let n = set.len();
                if n == 0 {
                    Value::Null
                } else {
                    let sum: f64 = set.iter().filter_map(Value::as_f64).sum();
                    Value::Double(sum / n as f64)
                }
            }
        },
    }
}

/// Execute a physical plan into an RDD of rows.
pub fn execute(plan: &PhysicalPlan, ctx: &ExecContext) -> Result<RddRef<Row>> {
    execute_node(plan, 0, ctx)
}

/// Lower one node (pre-order id `id`), then — when instrumented — claim
/// the shuffles its lowering allocated and wrap its output with metering.
///
/// Children claim their shuffle ids before the parent inspects the
/// enclosing window, so each shuffle lands on the operator that induced
/// the exchange (sort, aggregate, shuffled join, distinct).
fn execute_node(plan: &PhysicalPlan, id: usize, ctx: &ExecContext) -> Result<RddRef<Row>> {
    let rdd = lower_node(plan, id, ctx)?;
    ctx.keep_for_attribution(&rdd);
    Ok(rdd)
}

fn lower_node(plan: &PhysicalPlan, id: usize, ctx: &ExecContext) -> Result<RddRef<Row>> {
    if ctx.conf.vectorize_enabled {
        if let Some(batched) = try_execute_batched(plan, id, ctx) {
            // Batch→row adapter: compact selected lanes into rows only at
            // the boundary where a row operator (or the driver) consumes
            // them. The batch subtree already metered itself, so the
            // adapter is deliberately unmetered.
            return Ok(batched?.flat_map(RowBatch::into_selected_rows));
        }
    }
    let shuffles_before = ctx.sc.current_shuffle_id();
    let rdd = lower(plan, id, ctx)?;
    let rdd = match &ctx.metrics {
        Some(pm) => {
            let node = pm.node(id);
            for sid in pm.claim_shuffles(shuffles_before..ctx.sc.current_shuffle_id()) {
                node.add_shuffle_id(sid);
            }
            metered(&rdd, node)
        }
        None => rdd,
    };
    Ok(match &ctx.cancel {
        Some(token) => cancel_checked(&rdd, token.clone()),
        None => rdd,
    })
}

// ---- vectorized (batch) execution path ----

/// Partition iterator chunking a row scan into [`RowBatch`]es — the
/// generic row→batch adapter for sources without a native vector scan.
struct IterChunks {
    inner: RowIter,
    dtypes: Arc<Vec<DataType>>,
    batch_size: usize,
}

impl Iterator for IterChunks {
    type Item = RowBatch;

    fn next(&mut self) -> Option<RowBatch> {
        let mut buf = Vec::with_capacity(self.batch_size);
        while buf.len() < self.batch_size {
            match self.inner.next() {
                Some(row) => buf.push(row),
                None => break,
            }
        }
        if buf.is_empty() {
            None
        } else {
            Some(RowBatch::from_rows(&self.dtypes, &buf))
        }
    }
}

/// Batch-path analogue of [`MeteredIter`]: `rows` counts *selected* rows
/// (comparable with the row path), `batches` and `batch_rows_scanned`
/// (physical lanes) expose batch counts and per-operator selectivity in
/// `explain_analyze`.
struct BatchMeteredIter {
    inner: engine::BoxIter<RowBatch>,
    node: Arc<OperatorMetrics>,
    rows: u64,
    lanes: u64,
    batches: u64,
    elapsed_ns: u64,
}

impl Iterator for BatchMeteredIter {
    type Item = RowBatch;

    fn next(&mut self) -> Option<RowBatch> {
        let t0 = Instant::now();
        let item = self.inner.next();
        self.elapsed_ns += t0.elapsed().as_nanos() as u64;
        if let Some(b) = &item {
            self.batches += 1;
            self.rows += b.selected_count() as u64;
            self.lanes += b.num_rows() as u64;
        }
        item
    }
}

impl Drop for BatchMeteredIter {
    fn drop(&mut self) {
        self.node.add_rows(self.rows);
        self.node.add_elapsed_ns(self.elapsed_ns);
        self.node.add_extra("batches", self.batches);
        self.node.add_extra("batch_rows_scanned", self.lanes);
    }
}

fn metered_batches(rdd: &RddRef<RowBatch>, node: Arc<OperatorMetrics>) -> RddRef<RowBatch> {
    rdd.map_partitions(move |it| {
        Box::new(BatchMeteredIter {
            inner: it,
            node: node.clone(),
            rows: 0,
            lanes: 0,
            batches: 0,
            elapsed_ns: 0,
        })
    })
}

/// Lower a plan subtree to batch operators, or `None` when this operator
/// (or, for Filter/Project, its child chain down to a leaf) has no batch
/// form — the caller then takes the row path for the whole subtree.
/// Batch subtrees grow from batchable leaves (Scan, LocalData) upward
/// through Filter and Project only; everything else adapts at the
/// boundary via [`RowBatch::into_selected_rows`].
fn try_execute_batched(
    plan: &PhysicalPlan,
    id: usize,
    ctx: &ExecContext,
) -> Option<Result<RddRef<RowBatch>>> {
    let lowered = try_lower_batched(plan, id, ctx)?;
    Some(lowered.map(|rdd| {
        let rdd = match &ctx.metrics {
            Some(pm) => metered_batches(&rdd, pm.node(id)),
            None => rdd,
        };
        match &ctx.cancel {
            Some(token) => cancel_checked_batches(&rdd, token.clone()),
            None => rdd,
        }
    }))
}

fn try_lower_batched(
    plan: &PhysicalPlan,
    id: usize,
    ctx: &ExecContext,
) -> Option<Result<RddRef<RowBatch>>> {
    match plan {
        PhysicalPlan::Scan {
            relation,
            projection,
            pushed_filters,
            residual,
            output,
        } => {
            let relation = relation.clone();
            let n = relation.num_partitions().max(1);
            let proj = projection.clone();
            let filters = pushed_filters.clone();
            let dtypes: Arc<Vec<DataType>> =
                Arc::new(output.iter().map(|c| c.dtype.clone()).collect());
            let batch_size = ctx.conf.vectorize_batch_size.max(1);
            let rdd = ctx.sc.generate(n, move |p| -> engine::BoxIter<RowBatch> {
                match relation.scan_partition_vectors(p, proj.as_deref(), &filters) {
                    Ok(Some(batches)) => batches,
                    Ok(None) => match relation.scan_partition(p, proj.as_deref(), &filters) {
                        Ok(it) => Box::new(IterChunks {
                            inner: it,
                            dtypes: dtypes.clone(),
                            batch_size,
                        }),
                        Err(e) => panic!("scan failed: {e}"),
                    },
                    Err(e) => panic!("scan failed: {e}"),
                }
            });
            Some(match residual {
                Some(r) => batch_filter(rdd, r, output, ctx),
                None => Ok(rdd),
            })
        }

        PhysicalPlan::LocalData { rows, output } => {
            let rows = rows.clone();
            let dtypes: Arc<Vec<DataType>> =
                Arc::new(output.iter().map(|c| c.dtype.clone()).collect());
            let batch_size = ctx.conf.vectorize_batch_size.max(1);
            Some(Ok(ctx.sc.generate(
                1,
                move |_| -> engine::BoxIter<RowBatch> {
                    let rows = rows.clone();
                    let it: RowIter = Box::new((0..rows.len()).map(move |i| rows[i].clone()));
                    Box::new(IterChunks {
                        inner: it,
                        dtypes: dtypes.clone(),
                        batch_size,
                    })
                },
            )))
        }

        PhysicalPlan::Filter { input, predicate } => {
            let child = try_execute_batched(input, id + 1, ctx)?;
            Some(child.and_then(|rdd| batch_filter(rdd, predicate, &input.output(), ctx)))
        }

        PhysicalPlan::Project { input, exprs } => {
            let child = try_execute_batched(input, id + 1, ctx)?;
            Some(child.and_then(|rdd| {
                let bound = bind_all(exprs, &input.output())?;
                let kernels = ctx.conf.codegen_enabled;
                Ok(rdd.map(move |b| {
                    vectorized::eval_projection_batch(&bound, &b, kernels)
                        .expect("projection failed")
                }))
            }))
        }

        _ => None,
    }
}

/// Partition iterator for the vectorized sort front end: chunks rows
/// into batches, evaluates the ORDER BY keys columnar
/// ([`vectorized::sort_keys_batch`]), and re-emits `(key, row)` pairs in
/// arrival order — the same stream shape the row path produces, so the
/// downstream in-memory or external sort is byte-identical.
struct BatchSortKeys {
    inner: engine::BoxIter<Row>,
    bound: Arc<Vec<Expr>>,
    orders: Arc<Vec<SortOrder>>,
    dtypes: Arc<Vec<DataType>>,
    batch_size: usize,
    kernels: bool,
    out: std::vec::IntoIter<(SortKey, Row)>,
}

impl Iterator for BatchSortKeys {
    type Item = (SortKey, Row);

    fn next(&mut self) -> Option<(SortKey, Row)> {
        loop {
            if let Some(pair) = self.out.next() {
                return Some(pair);
            }
            let mut buf = Vec::with_capacity(self.batch_size);
            while buf.len() < self.batch_size {
                match self.inner.next() {
                    Some(row) => buf.push(row),
                    None => break,
                }
            }
            if buf.is_empty() {
                return None;
            }
            let batch = RowBatch::from_rows(&self.dtypes, &buf);
            let keys = vectorized::sort_keys_batch(&self.bound, &batch, self.kernels)
                .expect("sort key failed");
            let orders = self.orders.clone();
            let pairs: Vec<(SortKey, Row)> = buf
                .into_iter()
                .enumerate()
                .map(|(i, row)| {
                    let values: Vec<Value> = keys.iter().map(|c| c.get(i)).collect();
                    (SortKey::new(values, &orders), row)
                })
                .collect();
            self.out = pairs.into_iter();
        }
    }
}

/// Apply a predicate batch-wise: refine each batch's selection vector.
fn batch_filter(
    rdd: RddRef<RowBatch>,
    predicate: &Expr,
    input: &[ColumnRef],
    ctx: &ExecContext,
) -> Result<RddRef<RowBatch>> {
    let bound = bind_references(predicate.clone(), input)?;
    let kernels = ctx.conf.codegen_enabled;
    Ok(rdd.map(move |b| vectorized::filter_batch(&bound, &b, kernels).expect("predicate failed")))
}

fn lower(plan: &PhysicalPlan, id: usize, ctx: &ExecContext) -> Result<RddRef<Row>> {
    match plan {
        PhysicalPlan::Scan {
            relation,
            projection,
            pushed_filters,
            residual,
            output,
        } => {
            let relation = relation.clone();
            let n = relation.num_partitions().max(1);
            let proj = projection.clone();
            let filters = pushed_filters.clone();
            let rdd = ctx.sc.generate(n, move |p| {
                match relation.scan_partition(p, proj.as_deref(), &filters) {
                    Ok(it) => it,
                    Err(e) => panic!("scan failed: {e}"),
                }
            });
            match residual {
                Some(r) => {
                    let pred = predicate(r, output, ctx.conf.codegen_enabled)?;
                    Ok(rdd.filter(move |row| pred(row)))
                }
                None => Ok(rdd),
            }
        }

        PhysicalPlan::ExternalScan { data, .. } => match data.as_any().downcast_ref::<RddTable>() {
            Some(t) => Ok(t.rdd().clone()),
            None => Err(CatalystError::Internal(format!(
                "unknown external data source '{}'",
                data.name()
            ))),
        },

        PhysicalPlan::LocalData { rows, .. } => Ok(ctx.sc.parallelize(rows.as_ref().clone(), 1)),

        PhysicalPlan::Project { input, exprs } => {
            let child = execute_node(input, id + 1, ctx)?;
            let f = projector(exprs, &input.output(), ctx.conf.codegen_enabled)?;
            Ok(child.map(move |row| f(&row)))
        }

        PhysicalPlan::Filter {
            input,
            predicate: pred_expr,
        } => {
            let child = execute_node(input, id + 1, ctx)?;
            let pred = predicate(pred_expr, &input.output(), ctx.conf.codegen_enabled)?;
            Ok(child.filter(move |row| pred(row)))
        }

        PhysicalPlan::HashAggregate {
            input,
            groupings,
            output_exprs,
        } => execute_aggregate(input, groupings, output_exprs, id, ctx),

        PhysicalPlan::Sort { input, orders } => {
            let child = execute_node(input, id + 1, ctx)?;
            let bound = bind_all(
                &orders.iter().map(|o| o.expr.clone()).collect::<Vec<_>>(),
                &input.output(),
            )?;
            let key_dtypes: Vec<DataType> = bound
                .iter()
                .map(|e| e.data_type().unwrap_or(DataType::String))
                .collect();
            let orders_meta = orders.clone();
            let keyed = if ctx.conf.vectorize_enabled {
                // Vectorized key extraction: chunk the partition into
                // batches and evaluate the ORDER BY expressions columnar.
                // The (key, row) pairs come out in arrival order, so the
                // downstream sort — in-memory or external — consumes a
                // byte-identical stream to the row path's.
                let bound = Arc::new(bound);
                let orders_meta = Arc::new(orders_meta);
                let dtypes: Arc<Vec<DataType>> =
                    Arc::new(input.output().iter().map(|c| c.dtype.clone()).collect());
                let batch_size = ctx.conf.vectorize_batch_size.max(1);
                let kernels = ctx.conf.codegen_enabled;
                child.map_partitions(move |it| {
                    Box::new(BatchSortKeys {
                        inner: it,
                        bound: bound.clone(),
                        orders: orders_meta.clone(),
                        dtypes: dtypes.clone(),
                        batch_size,
                        kernels,
                        out: Vec::new().into_iter(),
                    })
                })
            } else {
                child.map(move |row| {
                    let values: Vec<Value> = bound
                        .iter()
                        .map(|e| interpreter::eval(e, &row).expect("sort key failed"))
                        .collect();
                    (SortKey::new(values, &orders_meta), row)
                })
            };
            if ctx.mem.is_bounded() {
                let row_dtypes = input.output().iter().map(|c| c.dtype.clone()).collect();
                return execute_external_sort(keyed, orders, key_dtypes, row_dtypes, id, ctx);
            }
            use engine::pair::SortedPairRdd;
            Ok(keyed
                .try_sort_by_key(true, ctx.conf.shuffle_partitions)
                .map_err(engine_err)?
                .values())
        }

        PhysicalPlan::Window {
            input,
            window_exprs,
            partition_by,
            order_by,
        } => execute_window(input, window_exprs, partition_by, order_by, id, ctx),

        PhysicalPlan::TakeOrdered { input, orders, n } => {
            let child = execute_node(input, id + 1, ctx)?;
            let eager_start = Instant::now();
            let bound = bind_all(
                &orders.iter().map(|o| o.expr.clone()).collect::<Vec<_>>(),
                &input.output(),
            )?;
            let orders_meta = orders.clone();
            let n = *n;
            // Per-partition top-k, then a driver-side merge.
            let tops = child
                .run_job(move |_, it| {
                    let mut rows: Vec<(SortKey, Row)> = it
                        .map(|row| {
                            let values: Vec<Value> = bound
                                .iter()
                                .map(|e| interpreter::eval(e, &row).expect("sort key failed"))
                                .collect();
                            (SortKey::new(values, &orders_meta), row)
                        })
                        .collect();
                    rows.sort_by(|a, b| a.0.cmp(&b.0));
                    rows.truncate(n);
                    rows
                })
                .map_err(engine_err)?;
            let mut all: Vec<(SortKey, Row)> = tops.into_iter().flatten().collect();
            all.sort_by(|a, b| a.0.cmp(&b.0));
            all.truncate(n);
            note_eager_ns(ctx, id, eager_start);
            Ok(ctx
                .sc
                .parallelize(all.into_iter().map(|(_, r)| r).collect(), 1))
        }

        PhysicalPlan::Limit { input, n } => {
            let child = execute_node(input, id + 1, ctx)?;
            let n = *n;
            let local = child.map_partitions(move |it| Box::new(it.take(n)));
            let single = local.coalesce(1);
            Ok(single.map_partitions(move |it| Box::new(it.take(n))))
        }

        PhysicalPlan::BroadcastHashJoin {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
            build_side,
            residual,
        } => execute_broadcast_join(
            &JoinSite {
                left,
                right,
                left_keys,
                right_keys,
                join_type: *join_type,
                residual,
                join_plan: plan,
                id,
            },
            *build_side,
            ctx,
        ),

        PhysicalPlan::ShuffledHashJoin {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
            build_side,
            residual,
        } => {
            let site = JoinSite {
                left,
                right,
                left_keys,
                right_keys,
                join_type: *join_type,
                residual,
                join_plan: plan,
                id,
            };
            if ctx.conf.adaptive_enabled {
                execute_adaptive_shuffled_join(&site, *build_side, ctx)
            } else {
                execute_shuffled_join(&site, *build_side, ctx)
            }
        }

        PhysicalPlan::NestedLoopJoin {
            left,
            right,
            condition,
            join_type,
        } => execute_nested_loop_join(left, right, condition, *join_type, plan, id, ctx),

        PhysicalPlan::Union { inputs } => {
            let mut it = inputs.iter();
            let first = it
                .next()
                .ok_or_else(|| CatalystError::Internal("empty union".into()))?;
            let mut child_id = id + 1;
            let mut rdd = execute_node(first, child_id, ctx)?;
            child_id += subtree_size(first);
            for i in it {
                rdd = rdd.union(&execute_node(i, child_id, ctx)?);
                child_id += subtree_size(i);
            }
            Ok(rdd)
        }

        PhysicalPlan::Sample {
            input,
            fraction,
            seed,
        } => Ok(execute_node(input, id + 1, ctx)?.sample(*fraction, *seed)),

        PhysicalPlan::Extension { exec, children } => {
            let mut child_data = Vec::with_capacity(children.len());
            let mut child_id = id + 1;
            for c in children {
                let rdd = execute_node(c, child_id, ctx)?;
                child_id += subtree_size(c);
                let partitions: Vec<Vec<Row>> =
                    rdd.run_job(|_, it| it.collect()).map_err(engine_err)?;
                child_data.push(partitions);
            }
            let eager_start = Instant::now();
            let out = exec.execute(child_data)?;
            note_eager_ns(ctx, id, eager_start);
            let out = Arc::new(out);
            let n = out.len().max(1);
            Ok(ctx.sc.generate(n, move |p| match out.get(p) {
                Some(rows) => Box::new(rows.clone().into_iter()),
                None => Box::new(std::iter::empty()),
            }))
        }
    }
}

// ---- compiled ("whole-stage codegen") aggregation fast path ----
//
// When codegen is enabled, single-integer-key aggregations over numeric
// columns run entirely on unboxed i64/f64 accumulators: no Value boxing,
// no per-record pair allocation, no interpreter dispatch. This is the
// Rust analogue of the compiled aggregation that makes the Figure 9
// DataFrame program outperform hand-written RDD code.

#[derive(Clone)]
enum TAcc {
    /// COUNT(*) or COUNT(non-null arg).
    Cnt(i64),
    /// SUM with integral result type.
    SumI(i64, bool),
    /// SUM with floating result type.
    SumF(f64, bool),
    /// AVG.
    Avg(f64, i64),
    /// MIN over numerics.
    MinF(f64, bool),
    /// MAX over numerics.
    MaxF(f64, bool),
}

impl TAcc {
    fn merge(&mut self, other: &TAcc) {
        match (self, other) {
            (TAcc::Cnt(a), TAcc::Cnt(b)) => *a += b,
            (TAcc::SumI(a, sa), TAcc::SumI(b, sb)) => {
                *a += b;
                *sa |= sb;
            }
            (TAcc::SumF(a, sa), TAcc::SumF(b, sb)) => {
                *a += b;
                *sa |= sb;
            }
            (TAcc::Avg(a, na), TAcc::Avg(b, nb)) => {
                *a += b;
                *na += nb;
            }
            (TAcc::MinF(a, sa), TAcc::MinF(b, sb)) => {
                if *sb && (!*sa || *b < *a) {
                    *a = *b;
                    *sa = true;
                }
            }
            (TAcc::MaxF(a, sa), TAcc::MaxF(b, sb)) => {
                if *sb && (!*sa || *b > *a) {
                    *a = *b;
                    *sa = true;
                }
            }
            _ => unreachable!("mismatched typed accumulators"),
        }
    }

    fn finish(&self, dtype: &DataType) -> Value {
        match self {
            TAcc::Cnt(n) => Value::Long(*n),
            TAcc::SumI(v, seen) => {
                if *seen {
                    if *dtype == DataType::Int {
                        Value::Int(*v as i32)
                    } else {
                        Value::Long(*v)
                    }
                } else {
                    Value::Null
                }
            }
            TAcc::SumF(v, seen) => {
                if *seen {
                    Value::Double(*v)
                } else {
                    Value::Null
                }
            }
            TAcc::Avg(s, n) => {
                if *n > 0 {
                    Value::Double(s / *n as f64)
                } else {
                    Value::Null
                }
            }
            TAcc::MinF(v, seen) | TAcc::MaxF(v, seen) => {
                if !*seen {
                    Value::Null
                } else if dtype.is_integral() {
                    if *dtype == DataType::Int {
                        Value::Int(*v as i32)
                    } else {
                        Value::Long(*v as i64)
                    }
                } else {
                    Value::Double(*v)
                }
            }
        }
    }
}

/// One compiled aggregate: argument evaluator + accumulator template.
#[derive(Clone)]
enum TCall {
    CountAll,
    CountOf(codegen::RowFn<f64>),
    SumI(codegen::RowFn<i64>),
    SumF(codegen::RowFn<f64>),
    Avg(codegen::RowFn<f64>),
    Min(codegen::RowFn<f64>),
    Max(codegen::RowFn<f64>),
}

impl TCall {
    fn init(&self) -> TAcc {
        match self {
            TCall::CountAll | TCall::CountOf(_) => TAcc::Cnt(0),
            TCall::SumI(_) => TAcc::SumI(0, false),
            TCall::SumF(_) => TAcc::SumF(0.0, false),
            TCall::Avg(_) => TAcc::Avg(0.0, 0),
            TCall::Min(_) => TAcc::MinF(0.0, false),
            TCall::Max(_) => TAcc::MaxF(0.0, false),
        }
    }

    #[inline]
    fn update(&self, acc: &mut TAcc, row: &Row) {
        match (self, acc) {
            (TCall::CountAll, TAcc::Cnt(n)) => *n += 1,
            (TCall::CountOf(f), TAcc::Cnt(n)) => {
                if f(row).is_some() {
                    *n += 1;
                }
            }
            (TCall::SumI(f), TAcc::SumI(s, seen)) => {
                if let Some(v) = f(row) {
                    *s += v;
                    *seen = true;
                }
            }
            (TCall::SumF(f), TAcc::SumF(s, seen)) => {
                if let Some(v) = f(row) {
                    *s += v;
                    *seen = true;
                }
            }
            (TCall::Avg(f), TAcc::Avg(s, n)) => {
                if let Some(v) = f(row) {
                    *s += v;
                    *n += 1;
                }
            }
            (TCall::Min(f), TAcc::MinF(m, seen)) => {
                if let Some(v) = f(row) {
                    if !*seen || v < *m {
                        *m = v;
                        *seen = true;
                    }
                }
            }
            (TCall::Max(f), TAcc::MaxF(m, seen)) => {
                if let Some(v) = f(row) {
                    if !*seen || v > *m {
                        *m = v;
                        *seen = true;
                    }
                }
            }
            _ => unreachable!(),
        }
    }
}

/// Fast multiply-xor hasher for integer group keys (the engine-internal
/// hashing a compiled aggregation would emit; std's SipHash is
/// DoS-resistant but slow for this).
#[derive(Default, Clone)]
pub struct IntHasher(u64);

impl std::hash::Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E3779B97F4A7C15);
        }
    }
    fn write_u64(&mut self, v: u64) {
        let mut z = self.0 ^ v;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        self.0 = z ^ (z >> 31);
    }
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

type IntHashMap<K, V> = HashMap<K, V, std::hash::BuildHasherDefault<IntHasher>>;

/// Try the compiled aggregation path. Requirements: codegen on, exactly
/// one integral grouping key, and only plain numeric aggregates.
fn try_fast_aggregate(
    child: &RddRef<Row>,
    bound_groupings: &[Expr],
    agg_exprs: &[Expr],
    final_exprs: &[Expr],
    id: usize,
    ctx: &ExecContext,
) -> Option<Result<RddRef<Row>>> {
    if !ctx.conf.codegen_enabled || bound_groupings.len() != 1 {
        return None;
    }
    let key_dtype = bound_groupings[0].data_type().ok()?;

    let mut calls: Vec<(TCall, DataType)> = Vec::with_capacity(agg_exprs.len());
    for e in agg_exprs {
        let Expr::Agg {
            func,
            arg,
            distinct: false,
        } = e
        else {
            return None;
        };
        let out_type = e.data_type().ok()?;
        let call = match (func, arg) {
            (AggFunc::Count, None) => TCall::CountAll,
            (func, Some(a)) => {
                let compiled = codegen::compile(a);
                let as_f = match &compiled {
                    codegen::Compiled::Double(f) => f.clone(),
                    codegen::Compiled::Long(f) => {
                        let f = f.clone();
                        Arc::new(move |row: &Row| f(row).map(|v| v as f64)) as codegen::RowFn<f64>
                    }
                    _ => return None,
                };
                match func {
                    AggFunc::Count => TCall::CountOf(as_f),
                    AggFunc::Sum => match &compiled {
                        codegen::Compiled::Long(f) if out_type.is_integral() => {
                            TCall::SumI(f.clone())
                        }
                        _ if out_type.is_integral() => return None,
                        _ => TCall::SumF(as_f),
                    },
                    AggFunc::Avg => TCall::Avg(as_f),
                    AggFunc::Min => TCall::Min(as_f),
                    AggFunc::Max => TCall::Max(as_f),
                }
            }
            _ => return None,
        };
        calls.push((call, out_type));
    }

    // Dispatch on the compiled key type: unboxed i64 or shared strings.
    match codegen::compile(&bound_groupings[0]) {
        codegen::Compiled::Long(key_fn) => {
            let key_is_int = key_dtype == DataType::Int;
            Some(run_fast_agg(
                child,
                key_fn,
                Arc::new(move |key: Option<i64>| match key {
                    None => Value::Null,
                    Some(k) if key_is_int => Value::Int(k as i32),
                    Some(k) => Value::Long(k),
                }),
                calls,
                final_exprs,
                id,
                ctx,
            ))
        }
        codegen::Compiled::Str(key_fn) => Some(run_fast_agg(
            child,
            key_fn,
            Arc::new(|key: Option<Arc<str>>| key.map_or(Value::Null, Value::Str)),
            calls,
            final_exprs,
            id,
            ctx,
        )),
        _ => None,
    }
}

/// The shared fast-aggregation pipeline: map-side combine into unboxed
/// accumulators keyed by `K`, shuffle the combined groups raw, merge once
/// on the reduce side, then run the final projection.
fn run_fast_agg<K: engine::Data + std::hash::Hash + Eq>(
    child: &RddRef<Row>,
    key_fn: codegen::RowFn<K>,
    key_to_value: Arc<dyn Fn(Option<K>) -> Value + Send + Sync>,
    calls: Vec<(TCall, DataType)>,
    final_exprs: &[Expr],
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    let calls_map = calls.clone();
    let mapped = child.map_partitions(move |it| {
        let mut groups: IntHashMap<Option<K>, Vec<TAcc>> = IntHashMap::default();
        for row in it {
            let key = key_fn(&row);
            let accs = groups
                .entry(key)
                .or_insert_with(|| calls_map.iter().map(|(c, _)| c.init()).collect());
            for ((call, _), acc) in calls_map.iter().zip(accs.iter_mut()) {
                call.update(acc, &row);
            }
        }
        Box::new(groups.into_iter())
    });
    let partitioner = Arc::new(HashPartitioner::new(ctx.conf.shuffle_partitions.max(1)));
    let shuffled = if ctx.conf.adaptive_enabled {
        // The pairs here are already map-side combined groups shuffled
        // raw, so coalescing reducers is safe (the reduce-side merge below
        // handles cross-map duplicates); map-range splitting would not be.
        let size_fn: SizeFn<Option<K>, Vec<TAcc>> =
            Arc::new(|_k: &Option<K>, accs: &Vec<TAcc>| 16 + 24 * accs.len() as u64);
        let mat = MaterializedShuffle::create(&mapped, partitioner, None, false, Some(size_fn))
            .map_err(engine_err)?;
        coalesced_read(&mat, "HashAggregate", id, ctx)
    } else {
        mapped.partition_by(partitioner)
    };
    let combined = shuffled.map_partitions(|it| {
        let mut groups: IntHashMap<Option<K>, Vec<TAcc>> = IntHashMap::default();
        for (key, accs) in it {
            match groups.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    for (x, y) in e.get_mut().iter_mut().zip(&accs) {
                        x.merge(y);
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(accs);
                }
            }
        }
        Box::new(groups.into_iter())
    });

    // Final: typed accumulators → values → final projection.
    let final_exprs = final_exprs.to_vec();
    Ok(combined.map(move |(key, accs)| {
        let mut values = Vec::with_capacity(1 + accs.len());
        values.push(key_to_value(key));
        for ((_, dtype), acc) in calls.iter().zip(accs) {
            values.push(acc.finish(dtype));
        }
        let internal = Row::new(values);
        Row::new(
            final_exprs
                .iter()
                .map(|e| interpreter::eval(e, &internal).expect("final aggregate failed"))
                .collect(),
        )
    }))
}

fn execute_aggregate(
    input: &Arc<PhysicalPlan>,
    groupings: &[Expr],
    output_exprs: &[Expr],
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    let input_attrs = input.output();

    // Unique aggregate calls appearing anywhere in the output list.
    let mut agg_exprs: Vec<Expr> = Vec::new();
    for e in output_exprs {
        e.for_each_node(&mut |n| {
            if matches!(n, Expr::Agg { .. }) && !agg_exprs.contains(n) {
                agg_exprs.push(n.clone());
            }
        });
    }

    // Rewrite output expressions over [group values ++ agg results].
    let ngroups = groupings.len();
    let mut final_exprs: Vec<Expr> = Vec::with_capacity(output_exprs.len());
    for e in output_exprs {
        let rewritten = e.clone().transform_down(&mut |n| {
            if let Some(i) = groupings.iter().position(|g| g == &n) {
                let dtype = n.data_type().unwrap_or(DataType::String);
                return Transformed::yes(Expr::BoundRef {
                    index: i,
                    dtype,
                    nullable: n.nullable(),
                    name: Arc::from(n.auto_name().as_str()),
                });
            }
            if let Some(j) = agg_exprs.iter().position(|a| a == &n) {
                let dtype = n.data_type().unwrap_or(DataType::String);
                return Transformed::yes(Expr::BoundRef {
                    index: ngroups + j,
                    dtype,
                    nullable: true,
                    name: Arc::from(n.auto_name().as_str()),
                });
            }
            Transformed::no(n)
        });
        final_exprs.push(rewritten.data);
    }

    // Bind group keys and aggregate args to the child output.
    let bound_groupings = bind_all(groupings, &input_attrs)?;
    let calls: Vec<AggCall> = agg_exprs
        .iter()
        .map(|e| match e {
            Expr::Agg {
                func,
                arg,
                distinct,
            } => {
                let arg = match arg {
                    Some(a) => {
                        let bound = bind_references((**a).clone(), &input_attrs)?;
                        Some(value_fn(bound, ctx.conf.codegen_enabled))
                    }
                    None => None,
                };
                Ok(AggCall {
                    func: *func,
                    distinct: *distinct,
                    arg,
                })
            }
            _ => unreachable!(),
        })
        .collect::<Result<_>>()?;

    let finish_rows = {
        let final_exprs = final_exprs.clone();
        move |key: Row, accs: Vec<Acc>| -> Row {
            let mut values = key.into_values();
            values.extend(accs.into_iter().map(finish_acc));
            let internal = Row::new(values);
            Row::new(
                final_exprs
                    .iter()
                    .map(|e| interpreter::eval(e, &internal).expect("final aggregate failed"))
                    .collect(),
            )
        }
    };

    // Batch-native hash aggregation: group keys hashed columnar, typed
    // accumulator lanes per aggregate call. Consumes the child's batch
    // subtree directly when one exists (no row round trip), and produces
    // the same spillable `(key, Vec<Acc>)` partials as the row path, so
    // the shuffle and the reduce-side merge (including
    // `merge_agg_partition` under a bounded pool) are shared. Takes
    // precedence over the compiled fast path when vectorization is on;
    // unsupported shapes fall through to the row path below.
    if ctx.conf.vectorize_enabled && !groupings.is_empty() {
        if let Some(rdd) = try_batch_aggregate(
            input,
            &input_attrs,
            groupings,
            &agg_exprs,
            finish_rows.clone(),
            id,
            ctx,
        ) {
            return rdd;
        }
    }

    let child = execute_node(input, id + 1, ctx)?;

    // Compiled fast path (unboxed keys and accumulators). Skipped under a
    // bounded pool: its hash tables grow without reservations.
    if !ctx.mem.is_bounded() {
        let bound_agg_exprs: Result<Vec<Expr>> = agg_exprs
            .iter()
            .map(|e| match e {
                Expr::Agg {
                    func,
                    arg,
                    distinct,
                } => Ok(Expr::Agg {
                    func: *func,
                    arg: match arg {
                        Some(a) => Some(Box::new(bind_references((**a).clone(), &input_attrs)?)),
                        None => None,
                    },
                    distinct: *distinct,
                }),
                _ => unreachable!(),
            })
            .collect();
        if let Ok(bound_agg_exprs) = bound_agg_exprs {
            let bound_groupings_fast = bind_all(groupings, &input_attrs)?;
            if let Some(rdd) = try_fast_aggregate(
                &child,
                &bound_groupings_fast,
                &bound_agg_exprs,
                &final_exprs,
                id,
                ctx,
            ) {
                return rdd;
            }
        }
    }

    if groupings.is_empty() {
        // Global aggregate: partials per partition, merged on the driver —
        // correct even over an empty input (COUNT(*) = 0).
        let eager_start = Instant::now();
        let calls_for_job = calls.clone();
        let partials = child
            .run_job(move |_, it| {
                let mut accs: Vec<Acc> = calls_for_job.iter().map(AggCall::init).collect();
                for row in it {
                    for (call, acc) in calls_for_job.iter().zip(accs.iter_mut()) {
                        call.update(acc, &row);
                    }
                }
                accs
            })
            .map_err(engine_err)?;
        let merged = partials
            .into_iter()
            .reduce(|a, b| a.into_iter().zip(b).map(|(x, y)| merge_acc(x, y)).collect())
            .unwrap_or_else(|| calls.iter().map(AggCall::init).collect());
        let row = finish_rows(Row::empty(), merged);
        note_eager_ns(ctx, id, eager_start);
        return Ok(ctx.sc.parallelize(vec![row], 1));
    }

    // Grouped under a bounded pool: the spillable Partial/Final split.
    if ctx.mem.is_bounded() {
        let key_fns: Vec<ValueFn> = bound_groupings
            .into_iter()
            .map(|e| value_fn(e, ctx.conf.codegen_enabled))
            .collect();
        let key_dtypes: Vec<DataType> = groupings
            .iter()
            .map(|g| g.data_type().unwrap_or(DataType::String))
            .collect();
        return execute_spillable_aggregate(
            child,
            key_fns,
            calls,
            finish_rows,
            key_dtypes,
            id,
            ctx,
        );
    }

    // Grouped: map-side partial aggregation + shuffle + final merge (the
    // engine's combine-by-key is the Partial/Final split).
    let calls_create = calls.clone();
    let calls_update = calls.clone();
    let aggregator = engine::shuffle::Aggregator::new(
        move |row: Row| {
            let mut accs: Vec<Acc> = calls_create.iter().map(AggCall::init).collect();
            for (call, acc) in calls_create.iter().zip(accs.iter_mut()) {
                call.update(acc, &row);
            }
            accs
        },
        move |mut accs: Vec<Acc>, row: Row| {
            for (call, acc) in calls_update.iter().zip(accs.iter_mut()) {
                call.update(acc, &row);
            }
            accs
        },
        |a: Vec<Acc>, b: Vec<Acc>| a.into_iter().zip(b).map(|(x, y)| merge_acc(x, y)).collect(),
    );

    let key_fns: Vec<ValueFn> = bound_groupings
        .into_iter()
        .map(|e| value_fn(e, ctx.conf.codegen_enabled))
        .collect();
    let keyed = child.map(move |row| {
        let key = Row::new(key_fns.iter().map(|f| f(&row)).collect());
        (key, row)
    });
    let partitioner = Arc::new(HashPartitioner::new(ctx.conf.shuffle_partitions.max(1)));
    let combined = if ctx.conf.adaptive_enabled {
        // Adaptive: materialize the (map-side combined) shuffle, then
        // merge small reduce partitions before the final aggregation.
        let size_fn: SizeFn<Row, Vec<Acc>> =
            Arc::new(|k: &Row, accs: &Vec<Acc>| k.approx_bytes() + 16 + 24 * accs.len() as u64);
        let mat =
            MaterializedShuffle::create(&keyed, partitioner, Some(aggregator), true, Some(size_fn))
                .map_err(engine_err)?;
        coalesced_read(&mat, "HashAggregate", id, ctx)
    } else {
        keyed.combine_by_key(aggregator, partitioner, true)
    };
    Ok(combined.map(move |(key, accs)| finish_rows(key, accs)))
}

/// Memory-governed sort lowering: the same sampled range partitioning as
/// the engine's `sort_by_key`, but each output partition sorts through
/// [`spill::external_sort`] — buffered rows spill as sorted runs when the
/// pool denies growth, and runs k-way merge back in key order. The merge
/// breaks ties by run index, so output is row-for-row identical to the
/// in-memory stable sort.
fn execute_external_sort(
    keyed: RddRef<(SortKey, Row)>,
    orders: &[SortOrder],
    key_dtypes: Vec<DataType>,
    row_dtypes: Vec<DataType>,
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    let num_partitions = ctx.conf.shuffle_partitions.max(1);
    // Range boundaries from a key sample — the same fraction and seed as
    // the engine's sort, so partition boundaries match exactly.
    let total = (num_partitions * 20).max(20);
    let keys = keyed.keys();
    // Driver-side jobs: propagate failures (including cancellation)
    // instead of panicking the calling thread.
    let approx: u64 = keys
        .run_job(|_, it| it.count() as u64)
        .map_err(engine_err)?
        .into_iter()
        .sum();
    if approx == 0 {
        return Ok(keyed.values());
    }
    let fraction = (total as f64 / approx as f64).min(1.0);
    let sample: Vec<SortKey> = keys
        .sample(fraction, 0xC0FFEE)
        .try_collect()
        .map_err(engine_err)?;
    let bounds = RangePartitioner::bounds_from_sample(sample, num_partitions);
    let partitioned = keyed.partition_by(Arc::new(RangePartitioner::new(bounds, true)));

    let nk = key_dtypes.len();
    let mut dtypes = key_dtypes;
    dtypes.extend(row_dtypes);
    let codec = columnar::SpillCodec::new(dtypes);
    let mut descending_mask = 0u64;
    for (i, o) in orders.iter().enumerate() {
        if !o.ascending {
            descending_mask |= 1 << i;
        }
    }
    let cmp: spill::RowCmp = Arc::new(move |a: &Row, b: &Row| {
        for i in 0..nk {
            let mut o = a.get(i).total_cmp(b.get(i));
            if descending_mask & (1 << i) != 0 {
                o = o.reverse();
            }
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    });
    let sctx = ctx.spill_ctx(id);
    Ok(partitioned.map_partitions(move |it| {
        let flat = it.map(|(k, row)| {
            let mut values = k.into_values();
            values.extend(row.into_values());
            Row::new(values)
        });
        let sorted = spill::external_sort(Box::new(flat), &codec, cmp.clone(), &sctx);
        Box::new(sorted.map(move |r| {
            let mut values = r.into_values();
            Row::new(values.split_off(nk))
        }))
    }))
}

/// Memory-governed grouped aggregation: map-side partial aggregation with
/// early emission (a denied grow flushes partials into the shuffle), then
/// a reduce-side merge that spills its hash table recursively under
/// pressure ([`spill::merge_agg_partition`]). Replaces the engine
/// combine-by-key path when the pool is bounded.
fn execute_spillable_aggregate(
    child: RddRef<Row>,
    key_fns: Vec<ValueFn>,
    calls: Vec<AggCall>,
    finish_rows: impl Fn(Row, Vec<Acc>) -> Row + Send + Sync + 'static,
    key_dtypes: Vec<DataType>,
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    let sctx = ctx.spill_ctx(id);
    let layout = spill::AggLayout::new(key_dtypes);
    let map_sctx = sctx.clone();
    let partials = child.map_partitions(move |it| {
        Box::new(partial_agg_partition(it, &key_fns, &calls, &map_sctx).into_iter())
    });
    let shuffled = partials.partition_by(Arc::new(HashPartitioner::new(
        ctx.conf.shuffle_partitions.max(1),
    )));
    let merged = shuffled.map_partitions(move |it| {
        Box::new(spill::merge_agg_partition(it, &layout, &sctx, 0).into_iter())
    });
    Ok(merged.map(move |(key, accs)| finish_rows(key, accs)))
}

/// Partially aggregate one input partition under the pool's budget. When
/// the reservation is denied, the partial table flushes downstream — the
/// shuffle is the spill destination — and aggregation restarts with an
/// empty table. Duplicate keys across flushes merge on the reduce side.
fn partial_agg_partition(
    it: engine::BoxIter<Row>,
    key_fns: &[ValueFn],
    calls: &[AggCall],
    sctx: &SpillCtx,
) -> Vec<(Row, Vec<Acc>)> {
    let mut reservation = sctx.pool.register();
    let mut table: HashMap<Row, Vec<Acc>> = HashMap::new();
    let mut out: Vec<(Row, Vec<Acc>)> = Vec::new();
    for row in it {
        let key = Row::new(key_fns.iter().map(|f| f(&row)).collect());
        if let Some(accs) = table.get_mut(&key) {
            for (call, acc) in calls.iter().zip(accs.iter_mut()) {
                call.update(acc, &row);
            }
            continue;
        }
        let mut accs: Vec<Acc> = calls.iter().map(AggCall::init).collect();
        for (call, acc) in calls.iter().zip(accs.iter_mut()) {
            call.update(acc, &row);
        }
        let bytes = key.approx_bytes() + 16 + 24 * accs.len() as u64;
        if !reservation.try_grow(bytes) && !table.is_empty() {
            out.extend(table.drain());
            reservation.free();
            reservation.try_grow(bytes);
        }
        table.insert(key, accs);
    }
    out.extend(table.drain());
    out
}

// ---- batch-native hash aggregation ----

/// One aggregate call planned onto a typed accumulator lane: the lane
/// kind plus the bound argument expression and its type (`None` for
/// `COUNT(*)`).
type LaneSpec = (vectorized::LaneAgg, Option<(Expr, DataType)>);

/// Fresh lane for a spec (support was proven at plan time).
fn new_lane(spec: &LaneSpec) -> vectorized::AccLane {
    let dtype = spec
        .1
        .as_ref()
        .map(|(_, d)| d.clone())
        .unwrap_or(DataType::Long);
    vectorized::AccLane::for_input(spec.0, &dtype).expect("lane support checked at plan time")
}

/// Convert a finished lane partial into the executor's spillable
/// accumulator shape.
fn acc_from_partial(p: vectorized::AccPartial) -> Acc {
    match p {
        vectorized::AccPartial::Count(n) => Acc::Count(n),
        vectorized::AccPartial::Sum(v) => Acc::Sum(v),
        vectorized::AccPartial::Avg(s, n) => Acc::Avg(s, n),
        vectorized::AccPartial::Min(v) => Acc::Min(v),
        vectorized::AccPartial::Max(v) => Acc::Max(v),
    }
}

/// Flush every interned group as `(key, Vec<Acc>)` partials and reset
/// the table and lanes for continued accumulation.
fn drain_batch_groups(
    groups: &mut vectorized::BatchGroups,
    lanes: &mut [vectorized::AccLane],
    specs: &[LaneSpec],
    out: &mut Vec<(Row, Vec<Acc>)>,
) {
    if groups.is_empty() {
        return;
    }
    let taken = std::mem::take(groups);
    for (g, key) in taken.into_keys().into_iter().enumerate() {
        let accs: Vec<Acc> = lanes
            .iter()
            .map(|l| acc_from_partial(l.partial(g)))
            .collect();
        out.push((key, accs));
    }
    for (lane, spec) in lanes.iter_mut().zip(specs) {
        *lane = new_lane(spec);
    }
}

/// Batch-native partial aggregation of one input partition: group keys
/// are evaluated and interned columnar ([`vectorized::BatchGroups`]),
/// and each aggregate updates a typed accumulator lane over the batch's
/// `(lane, group)` assignments. Under a bounded pool, a denied
/// reservation flushes all partials downstream — the shuffle is the
/// spill destination, exactly as in [`partial_agg_partition`] — and
/// accumulation restarts empty.
fn batch_partial_agg(
    it: engine::BoxIter<RowBatch>,
    kernels: bool,
    groupings: &[Expr],
    specs: &[LaneSpec],
    sctx: &SpillCtx,
    node: Option<&Arc<OperatorMetrics>>,
) -> Vec<(Row, Vec<Acc>)> {
    let mut reservation = sctx.pool.register();
    let mut groups = vectorized::BatchGroups::new();
    let mut lanes: Vec<vectorized::AccLane> = specs.iter().map(new_lane).collect();
    let mut out: Vec<(Row, Vec<Acc>)> = Vec::new();
    let mut asg: Vec<(u32, u32)> = Vec::new();
    let (mut batches, mut interned) = (0u64, 0u64);
    for batch in it {
        batches += 1;
        let key_batch = vectorized::eval_projection_batch(groupings, &batch, kernels)
            .expect("group key evaluation failed");
        let prev = groups.len();
        groups.assign(&key_batch, &mut asg);
        let num = groups.len();
        interned += (num - prev) as u64;
        for (spec, lane) in specs.iter().zip(lanes.iter_mut()) {
            match &spec.1 {
                Some((arg, _)) => {
                    let col = vectorized::eval_batch(arg, &batch, kernels)
                        .expect("aggregate argument evaluation failed");
                    lane.update(Some(&col), &asg, num);
                }
                None => lane.update(None, &asg, num),
            }
        }
        let new_bytes: u64 = (prev..num)
            .map(|g| groups.key(g).approx_bytes() + 16 + 24 * lanes.len() as u64)
            .sum();
        if new_bytes > 0 && !reservation.try_grow(new_bytes) && prev > 0 {
            drain_batch_groups(&mut groups, &mut lanes, specs, &mut out);
            reservation.free();
            reservation.try_grow(new_bytes);
        }
    }
    drain_batch_groups(&mut groups, &mut lanes, specs, &mut out);
    if let Some(n) = node {
        n.add_extra("batches", batches);
        n.add_extra("groups", interned);
    }
    out
}

/// Try to run a grouped aggregate batch-natively. Returns `None` (row
/// path takes over) when any aggregate is DISTINCT or has no typed lane
/// for its argument type. The child is consumed as a batch stream —
/// directly when its subtree lowers batched ([`try_execute_batched`]),
/// else through the generic row→batch adapter. On success the map side
/// produces the same `(key, Vec<Acc>)` partials as the row path, so the
/// shuffle and the spill-safe reduce-side merge
/// ([`spill::merge_agg_partition`]) are shared — batch and row paths
/// stay byte-identical.
fn try_batch_aggregate(
    input: &Arc<PhysicalPlan>,
    input_attrs: &[ColumnRef],
    groupings: &[Expr],
    agg_exprs: &[Expr],
    finish_rows: impl Fn(Row, Vec<Acc>) -> Row + Send + Sync + 'static,
    id: usize,
    ctx: &ExecContext,
) -> Option<Result<RddRef<Row>>> {
    let mut specs: Vec<LaneSpec> = Vec::with_capacity(agg_exprs.len());
    for e in agg_exprs {
        let Expr::Agg {
            func,
            arg,
            distinct: false,
        } = e
        else {
            return None;
        };
        let spec = match (func, arg) {
            (AggFunc::Count, None) => (vectorized::LaneAgg::CountStar, None),
            (func, Some(a)) => {
                let bound = bind_references((**a).clone(), input_attrs).ok()?;
                let dtype = bound.data_type().ok()?;
                let lane = match func {
                    AggFunc::Count => vectorized::LaneAgg::Count,
                    AggFunc::Sum => vectorized::LaneAgg::Sum,
                    AggFunc::Avg => vectorized::LaneAgg::Avg,
                    AggFunc::Min => vectorized::LaneAgg::Min,
                    AggFunc::Max => vectorized::LaneAgg::Max,
                };
                vectorized::AccLane::for_input(lane, &dtype)?;
                (lane, Some((bound, dtype)))
            }
            _ => return None,
        };
        specs.push(spec);
    }
    let bound_groupings = match bind_all(groupings, input_attrs) {
        Ok(b) => b,
        Err(e) => return Some(Err(e)),
    };

    // Source the child as batches: natively when its subtree has a batch
    // form, else chunked through the generic row→batch adapter.
    let batched: RddRef<RowBatch> = match try_execute_batched(input, id + 1, ctx) {
        Some(Ok(rdd)) => rdd,
        Some(Err(e)) => return Some(Err(e)),
        None => {
            let child = match execute_node(input, id + 1, ctx) {
                Ok(c) => c,
                Err(e) => return Some(Err(e)),
            };
            let dtypes: Arc<Vec<DataType>> =
                Arc::new(input_attrs.iter().map(|c| c.dtype.clone()).collect());
            let batch_size = ctx.conf.vectorize_batch_size.max(1);
            child.map_partitions(move |it| {
                Box::new(IterChunks {
                    inner: it,
                    dtypes: dtypes.clone(),
                    batch_size,
                })
            })
        }
    };

    let specs = Arc::new(specs);
    let bound_groupings = Arc::new(bound_groupings);
    let kernels = ctx.conf.codegen_enabled;
    let sctx = ctx.spill_ctx(id);
    let map_sctx = sctx.clone();
    let node = ctx.metrics.as_ref().map(|pm| pm.node(id));
    let partials = batched.map_partitions(move |it| {
        Box::new(
            batch_partial_agg(
                it,
                kernels,
                &bound_groupings,
                &specs,
                &map_sctx,
                node.as_ref(),
            )
            .into_iter(),
        )
    });
    let shuffled = partials.partition_by(Arc::new(HashPartitioner::new(
        ctx.conf.shuffle_partitions.max(1),
    )));
    let key_dtypes: Vec<DataType> = groupings
        .iter()
        .map(|g| g.data_type().unwrap_or(DataType::String))
        .collect();
    let layout = spill::AggLayout::new(key_dtypes);
    let merged = shuffled.map_partitions(move |it| {
        Box::new(spill::merge_agg_partition(it, &layout, &sctx, 0).into_iter())
    });
    Some(Ok(merged.map(move |(key, accs)| finish_rows(key, accs))))
}

// ---- window-function execution ----

/// One executable window call, planned from an aliased
/// [`Expr::WindowFunction`].
enum WindowCall {
    /// `row_number()`.
    RowNumber,
    /// `rank()`.
    Rank,
    /// `dense_rank()`.
    DenseRank,
    /// `lag`/`lead`: the argument evaluated at a fixed row offset within
    /// the partition, the default value outside it.
    Shift {
        /// Bound argument evaluator.
        arg: ValueFn,
        /// Constant offset (rows).
        offset: i64,
        /// Value when the shifted position falls outside the partition.
        default: Value,
        /// `lead` looks ahead; `lag` looks back.
        lead: bool,
    },
    /// An aggregate evaluated per row over its window frame.
    Agg {
        /// The aggregate call.
        call: AggCall,
        /// Frame bounds.
        frame: WindowFrame,
    },
}

/// Fold a constant (column-free) expression to its value.
fn fold_const(e: &Expr) -> Option<Value> {
    if !e.foldable() {
        return None;
    }
    interpreter::eval(e, &Row::empty()).ok()
}

/// Plan one window output expression into an executable [`WindowCall`].
fn plan_window_call(expr: &Expr, input: &[ColumnRef], codegen_on: bool) -> Result<WindowCall> {
    let mut e = expr;
    while let Expr::Alias { child, .. } = e {
        e = child;
    }
    let Expr::WindowFunction {
        func, args, frame, ..
    } = e
    else {
        return Err(CatalystError::Internal(format!(
            "window expression '{expr}' is not a window-function call"
        )));
    };
    if frame.units == FrameUnits::Range {
        let supported = matches!(
            frame.start,
            FrameBound::UnboundedPreceding | FrameBound::CurrentRow
        ) && matches!(
            frame.end,
            FrameBound::UnboundedFollowing | FrameBound::CurrentRow
        );
        if !supported {
            return Err(CatalystError::Internal(
                "RANGE frames support only UNBOUNDED and CURRENT ROW bounds".into(),
            ));
        }
    }
    match func {
        WindowFunc::RowNumber => Ok(WindowCall::RowNumber),
        WindowFunc::Rank => Ok(WindowCall::Rank),
        WindowFunc::DenseRank => Ok(WindowCall::DenseRank),
        WindowFunc::Lag | WindowFunc::Lead => {
            let arg0 = args.first().ok_or_else(|| {
                CatalystError::Internal(format!("{}() requires an argument", func.name()))
            })?;
            let bound = bind_references(arg0.clone(), input)?;
            let offset = match args.get(1) {
                None => 1,
                Some(o) => fold_const(o).and_then(|v| v.as_i64()).ok_or_else(|| {
                    CatalystError::Internal(format!(
                        "{}() offset must be a constant integer",
                        func.name()
                    ))
                })?,
            };
            let default = match args.get(2) {
                None => Value::Null,
                Some(d) => fold_const(d).ok_or_else(|| {
                    CatalystError::Internal(format!("{}() default must be a constant", func.name()))
                })?,
            };
            Ok(WindowCall::Shift {
                arg: value_fn(bound, codegen_on),
                offset,
                default,
                lead: *func == WindowFunc::Lead,
            })
        }
        WindowFunc::Agg(f) => {
            let arg = match args.first() {
                None | Some(Expr::Wildcard { .. }) => None,
                Some(a) => Some(value_fn(bind_references(a.clone(), input)?, codegen_on)),
            };
            if arg.is_none() && *f != AggFunc::Count {
                return Err(CatalystError::Internal(format!(
                    "{}() requires an argument",
                    f.name()
                )));
            }
            Ok(WindowCall::Agg {
                call: AggCall {
                    func: *f,
                    distinct: false,
                    arg,
                },
                frame: *frame,
            })
        }
    }
}

/// Inclusive frame start for row `i`, or `None` when the frame is empty.
fn frame_lo(frame: &WindowFrame, i: usize, n: usize, peer_start: &[usize]) -> Option<usize> {
    let lo = match (frame.units, frame.start) {
        (_, FrameBound::UnboundedPreceding) => 0,
        (FrameUnits::Rows, FrameBound::Preceding(p)) => i.saturating_sub(p as usize),
        (FrameUnits::Rows, FrameBound::CurrentRow) => i,
        (FrameUnits::Rows, FrameBound::Following(f)) => i + f as usize,
        (FrameUnits::Rows, FrameBound::UnboundedFollowing) => n,
        (FrameUnits::Range, _) => peer_start[i],
    };
    (lo < n).then_some(lo)
}

/// Inclusive frame end for row `i`, or `None` when the frame is empty.
fn frame_hi(frame: &WindowFrame, i: usize, n: usize, peer_end: &[usize]) -> Option<usize> {
    let hi = match (frame.units, frame.end) {
        (_, FrameBound::UnboundedFollowing) => n - 1,
        (FrameUnits::Rows, FrameBound::Following(f)) => (i + f as usize).min(n - 1),
        (FrameUnits::Rows, FrameBound::CurrentRow) => i,
        (FrameUnits::Rows, FrameBound::Preceding(p)) => i.checked_sub(p as usize)?,
        (FrameUnits::Rows, FrameBound::UnboundedPreceding) => return None,
        (FrameUnits::Range, _) => peer_end[i],
    };
    Some(hi)
}

/// Evaluate one window call over a full partition, producing one value
/// per row. `frames` counts evaluated aggregate frames (the `frames=`
/// metric).
fn eval_window_call(
    call: &WindowCall,
    inputs: &[Row],
    peer_start: &[usize],
    peer_end: &[usize],
    frames: &mut u64,
) -> Vec<Value> {
    let n = inputs.len();
    match call {
        WindowCall::RowNumber => (1..=n as i64).map(Value::Long).collect(),
        WindowCall::Rank => (0..n)
            .map(|i| Value::Long(peer_start[i] as i64 + 1))
            .collect(),
        WindowCall::DenseRank => {
            let mut dense = 0i64;
            (0..n)
                .map(|i| {
                    if i == peer_start[i] {
                        dense += 1;
                    }
                    Value::Long(dense)
                })
                .collect()
        }
        WindowCall::Shift {
            arg,
            offset,
            default,
            lead,
        } => (0..n)
            .map(|i| {
                let j = if *lead {
                    i as i64 + offset
                } else {
                    i as i64 - offset
                };
                if (0..n as i64).contains(&j) {
                    arg(&inputs[j as usize])
                } else {
                    default.clone()
                }
            })
            .collect(),
        WindowCall::Agg { call, frame } => {
            if frame.is_whole_partition() {
                let mut acc = call.init();
                for row in inputs {
                    call.update(&mut acc, row);
                }
                *frames += 1;
                let v = finish_acc(acc);
                vec![v; n]
            } else if frame.start == FrameBound::UnboundedPreceding {
                // Growing frame: the end bound is nondecreasing in `i`,
                // so one running accumulator serves every row.
                let mut acc = call.init();
                let mut consumed = 0usize;
                (0..n)
                    .map(|i| {
                        let target = frame_hi(frame, i, n, peer_end).map_or(0, |h| h + 1);
                        while consumed < target {
                            call.update(&mut acc, &inputs[consumed]);
                            consumed += 1;
                        }
                        *frames += 1;
                        if target == 0 {
                            finish_acc(call.init())
                        } else {
                            finish_acc(acc.clone())
                        }
                    })
                    .collect()
            } else {
                // Sliding frame: recompute over the bounded window.
                (0..n)
                    .map(|i| {
                        let mut acc = call.init();
                        if let (Some(lo), Some(hi)) = (
                            frame_lo(frame, i, n, peer_start),
                            frame_hi(frame, i, n, peer_end),
                        ) {
                            if lo <= hi {
                                for row in &inputs[lo..=hi] {
                                    call.update(&mut acc, row);
                                }
                            }
                        }
                        *frames += 1;
                        finish_acc(acc)
                    })
                    .collect()
            }
        }
    }
}

/// Evaluate all window calls for one window partition of combined
/// `(pkeys ++ okeys ++ input)` rows, already frame-ordered. Emits the
/// input rows extended with one column per call.
fn eval_window_partition(
    group: Vec<Row>,
    np: usize,
    no: usize,
    calls: &[WindowCall],
    frames: &mut u64,
) -> Vec<Row> {
    let n = group.len();
    let mut oks: Vec<Vec<Value>> = Vec::with_capacity(n);
    let mut inputs: Vec<Row> = Vec::with_capacity(n);
    for r in group {
        let mut values = r.into_values();
        let mut rest = values.split_off(np);
        let row_values = rest.split_off(no);
        oks.push(rest);
        inputs.push(Row::new(row_values));
    }
    // Peer groups: maximal runs of equal ORDER BY keys.
    let mut peer_start = vec![0usize; n];
    let mut peer_end = vec![0usize; n];
    for i in 1..n {
        peer_start[i] = if oks[i] == oks[i - 1] {
            peer_start[i - 1]
        } else {
            i
        };
    }
    if n > 0 {
        peer_end[n - 1] = n - 1;
        for i in (0..n - 1).rev() {
            peer_end[i] = if oks[i] == oks[i + 1] {
                peer_end[i + 1]
            } else {
                i
            };
        }
    }
    let cols: Vec<Vec<Value>> = calls
        .iter()
        .map(|c| eval_window_call(c, &inputs, &peer_start, &peer_end, frames))
        .collect();
    inputs
        .into_iter()
        .enumerate()
        .map(|(i, row)| {
            let mut values = row.into_values();
            for col in &cols {
                values.push(col[i].clone());
            }
            Row::new(values)
        })
        .collect()
}

/// Streams one sorted engine partition, buffering one window partition
/// (rows sharing the partition key) at a time and emitting its rows
/// extended with the window columns.
struct WindowPartitionIter {
    /// Rows sorted by (partition keys, order keys).
    sorted: engine::BoxIter<Row>,
    /// First row of the next window partition, read past the boundary.
    pending: Option<Row>,
    /// Partition-key column count (combined-row prefix).
    np: usize,
    /// Order-key column count (after the partition keys).
    no: usize,
    /// Planned window calls.
    calls: Arc<Vec<WindowCall>>,
    /// Output rows of the current window partition.
    out: std::vec::IntoIter<Row>,
    /// Aggregate frames evaluated so far (`frames=` metric).
    frames: u64,
    /// Metric slot to flush `frames` into on drop.
    node: Option<Arc<OperatorMetrics>>,
}

impl Iterator for WindowPartitionIter {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        loop {
            if let Some(row) = self.out.next() {
                return Some(row);
            }
            let first = self.pending.take().or_else(|| self.sorted.next())?;
            let mut group = vec![first];
            for row in self.sorted.by_ref() {
                if row.values()[..self.np] == group[0].values()[..self.np] {
                    group.push(row);
                } else {
                    self.pending = Some(row);
                    break;
                }
            }
            self.out =
                eval_window_partition(group, self.np, self.no, &self.calls, &mut self.frames)
                    .into_iter();
        }
    }
}

impl Drop for WindowPartitionIter {
    fn drop(&mut self) {
        if let Some(node) = &self.node {
            node.add_extra("frames", self.frames);
        }
    }
}

/// Lower a `Window` operator: shuffle rows so each window partition is
/// co-located, sort every engine partition by (partition keys, order
/// keys) — vectorized index-sort in memory, [`spill::external_sort`]
/// under a bounded pool — then walk each window partition evaluating
/// ranking, offset, and framed-aggregate calls.
fn execute_window(
    input: &Arc<PhysicalPlan>,
    window_exprs: &[Expr],
    partition_by: &[Expr],
    order_by: &[SortOrder],
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    let input_attrs = input.output();
    let child = execute_node(input, id + 1, ctx)?;
    let calls: Arc<Vec<WindowCall>> = Arc::new(
        window_exprs
            .iter()
            .map(|e| plan_window_call(e, &input_attrs, ctx.conf.codegen_enabled))
            .collect::<Result<Vec<_>>>()?,
    );

    let np = partition_by.len();
    let no = order_by.len();
    let nk = np + no;
    let okey_exprs: Vec<Expr> = order_by.iter().map(|o| o.expr.clone()).collect();
    let key_fns: Vec<ValueFn> = bind_all(partition_by, &input_attrs)?
        .into_iter()
        .chain(bind_all(&okey_exprs, &input_attrs)?)
        .map(|e| value_fn(e, ctx.conf.codegen_enabled))
        .collect();

    // Combined rows: (pkeys ++ okeys ++ input); keys evaluated once.
    let combined = child.map(move |row| {
        let mut values: Vec<Value> = Vec::with_capacity(nk + row.len());
        for f in &key_fns {
            values.push(f(&row));
        }
        values.extend(row.into_values());
        Row::new(values)
    });

    // Co-locate each window partition: hash shuffle on the partition
    // key, or a single engine partition when there is none.
    let partitioned: RddRef<Row> = if np == 0 {
        combined.coalesce(1)
    } else {
        combined
            .map(move |c| {
                let key = Row::new(c.values()[..np].to_vec());
                (key, c)
            })
            .partition_by(Arc::new(HashPartitioner::new(
                ctx.conf.shuffle_partitions.max(1),
            )))
            .values()
    };

    let mut descending_mask = 0u64;
    for (i, o) in order_by.iter().enumerate() {
        if !o.ascending {
            descending_mask |= 1 << (np + i);
        }
    }
    let cmp: spill::RowCmp = Arc::new(move |a: &Row, b: &Row| {
        for i in 0..nk {
            let mut o = a.get(i).total_cmp(b.get(i));
            if descending_mask & (1 << i) != 0 {
                o = o.reverse();
            }
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    });
    let mut dtypes: Vec<DataType> = partition_by
        .iter()
        .chain(okey_exprs.iter())
        .map(|e| e.data_type().unwrap_or(DataType::String))
        .collect();
    dtypes.extend(input_attrs.iter().map(|c| c.dtype.clone()));
    let codec = columnar::SpillCodec::new(dtypes.clone());
    let dtypes = Arc::new(dtypes);
    let bounded = ctx.mem.is_bounded();
    let vectorize = ctx.conf.vectorize_enabled;
    let sctx = ctx.spill_ctx(id);
    let node = ctx.metrics.as_ref().map(|pm| pm.node(id));

    Ok(partitioned.map_partitions(move |it| {
        let sorted: engine::BoxIter<Row> = if bounded {
            spill::external_sort(it, &codec, cmp.clone(), &sctx)
        } else if vectorize {
            // In-memory path: vectorized index sort + gather. Stable
            // under the same comparator as the external sort, so both
            // produce the identical permutation.
            let rows: Vec<Row> = it.collect();
            let batch = RowBatch::from_rows(&dtypes, &rows);
            let keys: Vec<(Arc<vectorized::ColumnVector>, bool)> = (0..nk)
                .map(|i| (batch.column(i).clone(), descending_mask & (1 << i) != 0))
                .collect();
            let idx = vectorized::sorted_indices(&batch, &keys);
            Box::new(idx.into_iter().map(move |i| rows[i as usize].clone()))
        } else {
            // Row path: plain stable sort with the same comparator.
            let mut rows: Vec<Row> = it.collect();
            let cmp = cmp.clone();
            rows.sort_by(move |a, b| cmp(a, b));
            Box::new(rows.into_iter())
        };
        Box::new(WindowPartitionIter {
            sorted,
            pending: None,
            np,
            no,
            calls: calls.clone(),
            out: Vec::new().into_iter(),
            frames: 0,
            node: node.clone(),
        })
    }))
}

/// Null-safe key evaluation: returns None when any key is NULL (SQL
/// equi-join semantics: NULL joins nothing).
fn join_key(fns: &[ValueFn], row: &Row) -> Option<Row> {
    let mut values = Vec::with_capacity(fns.len());
    for f in fns {
        let v = f(row);
        if v.is_null() {
            return None;
        }
        values.push(v);
    }
    Some(Row::new(values))
}

/// Compile join-key expressions to value evaluators.
fn key_value_fns(exprs: &[Expr], input: &[ColumnRef], codegen_on: bool) -> Result<Vec<ValueFn>> {
    bind_all(exprs, input).map(|bound| bound.into_iter().map(|e| value_fn(e, codegen_on)).collect())
}

fn null_row(width: usize) -> Row {
    Row::new(vec![Value::Null; width])
}

/// One equi-join node's lowering site: child subtrees, key expressions,
/// join shape, and the node's plan position, bundled so each join
/// strategy's lowering function takes the site as a unit.
#[derive(Clone, Copy)]
struct JoinSite<'a> {
    left: &'a Arc<PhysicalPlan>,
    right: &'a Arc<PhysicalPlan>,
    left_keys: &'a [Expr],
    right_keys: &'a [Expr],
    join_type: JoinType,
    residual: &'a Option<Expr>,
    /// The join node itself — residual predicates bind against its output.
    join_plan: &'a PhysicalPlan,
    /// Pre-order id of the join node, for metric attribution.
    id: usize,
}

fn execute_broadcast_join(
    site: &JoinSite,
    build_side: BuildSide,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    let JoinSite {
        left,
        right,
        left_keys,
        right_keys,
        join_type,
        residual,
        join_plan,
        id,
    } = *site;
    let left_attrs = left.output();
    let right_attrs = right.output();
    let bound_left_keys = key_value_fns(left_keys, &left_attrs, ctx.conf.codegen_enabled)?;
    let bound_right_keys = key_value_fns(right_keys, &right_attrs, ctx.conf.codegen_enabled)?;
    let residual_pred: Option<PredFn> = match residual {
        Some(r) => Some(predicate(r, &join_plan.output(), ctx.conf.codegen_enabled)?),
        None => None,
    };

    let left_id = id + 1;
    let right_id = left_id + subtree_size(left);
    let (build_plan, build_keys, build_id, stream_plan, stream_keys, stream_id, build_is_left) =
        match build_side {
            BuildSide::Right => (
                right,
                bound_right_keys,
                right_id,
                left,
                bound_left_keys,
                left_id,
                false,
            ),
            BuildSide::Left => (
                left,
                bound_left_keys,
                left_id,
                right,
                bound_right_keys,
                right_id,
                true,
            ),
        };
    let build_width = build_plan.output().len();

    // Build and broadcast the hash table (a separate job, like Spark's
    // broadcast exchange).
    let build_rdd = execute_node(build_plan, build_id, ctx)?;
    let eager_start = Instant::now();
    let build_rows = build_rdd.try_collect().map_err(engine_err)?;
    let pairs = build_rows
        .into_iter()
        .map(|row| (join_key(&build_keys, &row), row))
        .collect();
    let table = broadcast_build_table(pairs, id, ctx);
    note_eager_ns(ctx, id, eager_start);

    // Stream-side probe. The stream side is the outer-preserved side (the
    // planner guarantees this).
    let stream = execute_node(stream_plan, stream_id, ctx)?;
    Ok(broadcast_probe(
        stream,
        table,
        stream_keys,
        residual_pred,
        join_type,
        build_is_left,
        build_width,
    ))
}

/// Build, broadcast, and meter a join hash table from keyed build rows
/// (NULL keys join nothing and are dropped).
fn broadcast_build_table(
    pairs: Vec<(Option<Row>, Row)>,
    id: usize,
    ctx: &ExecContext,
) -> Arc<HashMap<Row, Vec<Row>>> {
    let mut table: HashMap<Row, Vec<Row>> = HashMap::new();
    let mut bytes = 0u64;
    let mut build_count = 0u64;
    for (k, row) in pairs {
        if let Some(k) = k {
            bytes += row.approx_bytes();
            build_count += 1;
            table.entry(k).or_default().push(row);
        }
    }
    let broadcast = ctx.sc.broadcast(table, bytes as usize);
    let table = broadcast.value_arc();
    if let Some(pm) = &ctx.metrics {
        let node = pm.node(id);
        node.add_extra("build_rows", build_count);
        node.add_extra("build_bytes", bytes);
    }
    table
}

/// Probe a broadcast hash table with the stream side.
fn broadcast_probe(
    stream: RddRef<Row>,
    table: Arc<HashMap<Row, Vec<Row>>>,
    stream_keys: Vec<ValueFn>,
    residual_pred: Option<PredFn>,
    join_type: JoinType,
    build_is_left: bool,
    build_width: usize,
) -> RddRef<Row> {
    let preserve_unmatched = matches!(
        (join_type, build_is_left),
        (JoinType::Left, false) | (JoinType::Right, true)
    );
    stream.flat_map(move |srow| {
        let mut out = Vec::new();
        let key = join_key(&stream_keys, &srow);
        if let Some(key) = key {
            if let Some(matches) = table.get(&key) {
                for brow in matches {
                    let joined = if build_is_left {
                        brow.concat(&srow)
                    } else {
                        srow.concat(brow)
                    };
                    if residual_pred.as_ref().is_none_or(|p| p(&joined)) {
                        out.push(joined);
                    }
                }
            }
        }
        if out.is_empty() && preserve_unmatched {
            let nulls = null_row(build_width);
            out.push(if build_is_left {
                nulls.concat(&srow)
            } else {
                srow.concat(&nulls)
            });
        }
        out
    })
}

fn execute_shuffled_join(
    site: &JoinSite,
    build_side: BuildSide,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    let JoinSite {
        left,
        right,
        left_keys,
        right_keys,
        join_type,
        residual,
        join_plan,
        id,
    } = *site;
    let left_attrs = left.output();
    let right_attrs = right.output();
    let bound_left_keys = key_value_fns(left_keys, &left_attrs, ctx.conf.codegen_enabled)?;
    let bound_right_keys = key_value_fns(right_keys, &right_attrs, ctx.conf.codegen_enabled)?;
    let residual_pred: Option<PredFn> = match residual {
        Some(r) => Some(predicate(r, &join_plan.output(), ctx.conf.codegen_enabled)?),
        None => None,
    };
    let left_width = left_attrs.len();
    let right_width = right_attrs.len();

    let left_id = id + 1;
    let right_id = left_id + subtree_size(left);
    let partitions = ctx.conf.shuffle_partitions;
    // Key both sides; NULL keys keep a sentinel so outer rows survive the
    // shuffle (they can never match — Option<Row> keys, None = NULL).
    let lkeyed = execute_node(left, left_id, ctx)?
        .map(move |row| (join_key(&bound_left_keys, &row), row))
        .partition_by(Arc::new(HashPartitioner::new(partitions)));
    let rkeyed = execute_node(right, right_id, ctx)?
        .map(move |row| (join_key(&bound_right_keys, &row), row))
        .partition_by(Arc::new(HashPartitioner::new(partitions)));

    if ctx.mem.is_bounded() {
        let (llayout, rlayout) =
            join_spill_layouts(left_keys, right_keys, &left_attrs, &right_attrs);
        let sctx = ctx.spill_ctx(id);
        let spec = spill::GraceJoinSpec {
            join_type,
            residual_pred,
            left_layout: llayout,
            right_layout: rlayout,
            left_width,
            right_width,
        };
        return Ok(lkeyed.zip_partitions(&rkeyed, move |lit, rit| {
            Box::new(spill::grace_hash_join_partition(lit, rit, &spec, &sctx, 0).into_iter())
        }));
    }

    Ok(lkeyed.zip_partitions(&rkeyed, move |lit, rit| {
        Box::new(
            hash_join_partition(
                lit,
                rit,
                join_type,
                build_side,
                &residual_pred,
                left_width,
                right_width,
            )
            .into_iter(),
        )
    }))
}

/// Spill layouts (key + output column types) for both sides of an
/// equi-join, used by the grace hash join's disk re-partitioning.
fn join_spill_layouts(
    left_keys: &[Expr],
    right_keys: &[Expr],
    left_attrs: &[ColumnRef],
    right_attrs: &[ColumnRef],
) -> (spill::SideLayout, spill::SideLayout) {
    let dtypes_of = |keys: &[Expr], attrs: &[ColumnRef]| {
        (
            keys.iter()
                .map(|e| e.data_type().unwrap_or(DataType::String))
                .collect::<Vec<_>>(),
            attrs.iter().map(|c| c.dtype.clone()).collect::<Vec<_>>(),
        )
    };
    let (lk, lr) = dtypes_of(left_keys, left_attrs);
    let (rk, rr) = dtypes_of(right_keys, right_attrs);
    (
        spill::SideLayout::new(lk, lr),
        spill::SideLayout::new(rk, rr),
    )
}

/// Hash-join one co-partitioned pair of keyed row streams: build a table
/// from `build_side`, probe with the other, emit unmatched rows per
/// `join_type`. Both streams hold the same key range, so either side is a
/// legal build side for every join type — unmatched-row emission depends
/// only on `join_type`, never on which side was built. The cost model
/// picks the smaller side; joined rows are always `left ++ right`.
fn hash_join_partition(
    lit: engine::BoxIter<(Option<Row>, Row)>,
    rit: engine::BoxIter<(Option<Row>, Row)>,
    join_type: JoinType,
    build_side: BuildSide,
    residual_pred: &Option<PredFn>,
    left_width: usize,
    right_width: usize,
) -> Vec<Row> {
    let build_left = build_side == BuildSide::Left;
    let (bit, pit) = if build_left { (lit, rit) } else { (rit, lit) };
    // Build rows with NULL keys can never match; they only matter when the
    // build side is outer-preserved.
    let mut table: HashMap<Row, Vec<(Row, bool)>> = HashMap::new();
    let mut null_key_build: Vec<Row> = Vec::new();
    for (k, row) in bit {
        match k {
            Some(k) => table.entry(k).or_default().push((row, false)),
            None => null_key_build.push(row),
        }
    }
    let probe_preserved = matches!(
        (join_type, build_left),
        (JoinType::Left | JoinType::Full, false) | (JoinType::Right | JoinType::Full, true)
    );
    let build_preserved = matches!(
        (join_type, build_left),
        (JoinType::Left | JoinType::Full, true) | (JoinType::Right | JoinType::Full, false)
    );
    let mut out: Vec<Row> = Vec::new();
    for (k, prow) in pit {
        let mut matched = false;
        if let Some(k) = &k {
            if let Some(entries) = table.get_mut(k) {
                for (brow, bmatched) in entries.iter_mut() {
                    let joined = if build_left {
                        brow.concat(&prow)
                    } else {
                        prow.concat(brow)
                    };
                    if residual_pred.as_ref().is_none_or(|p| p(&joined)) {
                        *bmatched = true;
                        matched = true;
                        out.push(joined);
                    }
                }
            }
        }
        if !matched && probe_preserved {
            out.push(if build_left {
                null_row(left_width).concat(&prow)
            } else {
                prow.concat(&null_row(right_width))
            });
        }
    }
    if build_preserved {
        let pad = |brow: &Row| {
            if build_left {
                brow.concat(&null_row(right_width))
            } else {
                null_row(left_width).concat(brow)
            }
        };
        for entries in table.values() {
            for (brow, matched) in entries {
                if !matched {
                    out.push(pad(brow));
                }
            }
        }
        for brow in &null_key_build {
            out.push(pad(brow));
        }
    }
    out
}

// ---- adaptive (stage-by-stage) execution ----

/// Byte estimator for a shuffled `(key, row)` pair.
fn pair_size_fn() -> SizeFn<Option<Row>, Row> {
    Arc::new(|k: &Option<Row>, v: &Row| {
        v.approx_bytes() + k.as_ref().map_or(8, |r| r.approx_bytes())
    })
}

/// Materialize one join side's shuffle map stage: key the lowered child,
/// hash-partition it, run the map tasks, measure the output.
fn materialize_join_side(
    child: &RddRef<Row>,
    keys: &[ValueFn],
    partitions: usize,
) -> Result<MaterializedShuffle<Option<Row>, Row, Row>> {
    let keys = keys.to_vec();
    let keyed = child.map(move |row| (join_key(&keys, &row), row));
    MaterializedShuffle::create(
        &keyed,
        Arc::new(HashPartitioner::new(partitions)),
        None,
        false,
        Some(pair_size_fn()),
    )
    .map_err(engine_err)
}

/// Stage-by-stage shuffled join (the adaptive tentpole): materialize the
/// candidate build side's shuffle first, and decide the rest of the plan
/// from its *measured* size.
///
/// 1. **Dynamic demotion** — when a legal build side's measured bytes land
///    at or under `broadcast_threshold`, re-plan as a broadcast join (the
///    other side is then never shuffled at all). The candidate plan must
///    pass [`PlanValidator`]; a rejected rewrite falls back to the
///    shuffled plan instead of failing the query.
/// 2. **Partition coalescing** — otherwise both sides materialize and
///    small neighboring reduce partitions merge up to
///    `adaptive_target_partition_bytes` per task.
/// 3. **Skew splitting** — an un-coalesced reduce partition exceeding
///    `adaptive_skew_factor` × the median splits into map-range
///    sub-partitions on the legal side, replicating the other side's
///    bucket against each.
fn execute_adaptive_shuffled_join(
    site: &JoinSite,
    build_side: BuildSide,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    let JoinSite {
        left,
        right,
        left_keys,
        right_keys,
        join_type,
        residual,
        join_plan,
        id,
    } = *site;
    let left_attrs = left.output();
    let right_attrs = right.output();
    let bound_left_keys = key_value_fns(left_keys, &left_attrs, ctx.conf.codegen_enabled)?;
    let bound_right_keys = key_value_fns(right_keys, &right_attrs, ctx.conf.codegen_enabled)?;
    let residual_pred: Option<PredFn> = match residual {
        Some(r) => Some(predicate(r, &join_plan.output(), ctx.conf.codegen_enabled)?),
        None => None,
    };
    let left_width = left_attrs.len();
    let right_width = right_attrs.len();

    let left_id = id + 1;
    let right_id = left_id + subtree_size(left);
    let partitions = ctx.conf.shuffle_partitions.max(1);
    let threshold = ctx.conf.broadcast_threshold;
    let target = ctx.conf.adaptive_target_partition_bytes.max(1);
    let factor = ctx.conf.adaptive_skew_factor;

    // Lower each child exactly once (lazy; materialization below runs the
    // actual stages).
    let lchild = execute_node(left, left_id, ctx)?;
    let rchild = execute_node(right, right_id, ctx)?;

    let mut lmat: Option<MaterializedShuffle<Option<Row>, Row, Row>> = None;
    let mut rmat: Option<MaterializedShuffle<Option<Row>, Row, Row>> = None;

    // Try demotion: materialize a legal build side and compare its
    // measured bytes with the broadcast threshold. Building right is
    // preferred (it streams the usual outer-preserved left side).
    for build in [BuildSide::Right, BuildSide::Left] {
        if !adaptive_rules::can_demote(join_type, build) {
            continue;
        }
        let (mat_slot, child, keys) = match build {
            BuildSide::Right => (&mut rmat, &rchild, &bound_right_keys),
            BuildSide::Left => (&mut lmat, &lchild, &bound_left_keys),
        };
        if mat_slot.is_none() {
            let mat = materialize_join_side(child, keys, partitions)?;
            // A demoted join consumes (or skips) this exchange inside its
            // own lowering; keep it for attribution like a lowered child.
            ctx.keep_for_attribution(&mat.read_all());
            *mat_slot = Some(mat);
        }
        let mat = mat_slot.as_ref().unwrap();
        let measured = mat.total_bytes();
        if measured > threshold {
            continue;
        }
        let Some(candidate) = adaptive_rules::broadcast_candidate(join_plan, build) else {
            continue;
        };
        // The rewrite must uphold the same invariants the static planner's
        // output does; a rejected candidate falls back to the shuffled plan.
        if !PlanValidator::new().check_physical(&candidate).is_empty() {
            continue;
        }
        ctx.adaptive.record(AdaptivePlanChange {
            node_id: id,
            rule: AdaptiveRule::BroadcastDemotion,
            description: format!(
                "build {:?} measured {measured} B <= broadcast threshold {threshold} B; \
                 ShuffledHashJoin -> BroadcastHashJoin",
                build
            ),
            replacement: Some(candidate),
        });
        let eager_start = Instant::now();
        let pairs = mat.read_all().try_collect().map_err(engine_err)?;
        let table = broadcast_build_table(pairs, id, ctx);
        note_eager_ns(ctx, id, eager_start);
        let build_is_left = build == BuildSide::Left;
        let (stream, stream_keys, build_width) = if build_is_left {
            (rchild.clone(), bound_right_keys.clone(), left_width)
        } else {
            (lchild.clone(), bound_left_keys.clone(), right_width)
        };
        return Ok(broadcast_probe(
            stream,
            table,
            stream_keys,
            residual_pred,
            join_type,
            build_is_left,
            build_width,
        ));
    }

    // Shuffled fallback: materialize whichever sides the demotion probe
    // did not, then plan the reduce reads from the measured sizes.
    let lmat = match lmat {
        Some(m) => m,
        None => materialize_join_side(&lchild, &bound_left_keys, partitions)?,
    };
    let rmat = match rmat {
        Some(m) => m,
        None => materialize_join_side(&rchild, &bound_right_keys, partitions)?,
    };
    let lsizes = lmat.reduce_sizes();
    let rsizes = rmat.reduce_sizes();
    let totals: Vec<u64> = lsizes.iter().zip(&rsizes).map(|(a, b)| a + b).collect();
    let ranges = adaptive_rules::coalesce_partitions(&totals, target);
    let lmed = adaptive_rules::median(&lsizes);
    let rmed = adaptive_rules::median(&rsizes);

    let mut lspecs: Vec<ShuffleReadSpec> = Vec::new();
    let mut rspecs: Vec<ShuffleReadSpec> = Vec::new();
    let mut skew_splits = 0usize;
    for range in &ranges {
        // Only a partition too big to coalesce with a neighbor can be
        // skewed; multi-reducer ranges are by construction under target.
        if range.len() == 1 {
            let r = range.start;
            // Split the side that is both skewed and legal to split (its
            // rows land in exactly one sub-partition; the other side's
            // bucket is replicated, so it must not drive unmatched rows).
            let split_left = adaptive_rules::can_split_side(join_type, BuildSide::Left)
                && adaptive_rules::is_skewed(lsizes[r], lmed, factor, target);
            let split_right = !split_left
                && adaptive_rules::can_split_side(join_type, BuildSide::Right)
                && adaptive_rules::is_skewed(rsizes[r], rmed, factor, target);
            let map_ranges = if split_left {
                adaptive_rules::split_map_ranges(&lmat.map_sizes_for(r), target)
            } else if split_right {
                adaptive_rules::split_map_ranges(&rmat.map_sizes_for(r), target)
            } else {
                vec![]
            };
            if map_ranges.len() > 1 {
                skew_splits += map_ranges.len();
                for mr in map_ranges {
                    if split_left {
                        lspecs.push(ShuffleReadSpec::map_range(r, mr.start, mr.end));
                        rspecs.push(ShuffleReadSpec::reducers(r, r + 1, rmat.num_maps()));
                    } else {
                        lspecs.push(ShuffleReadSpec::reducers(r, r + 1, lmat.num_maps()));
                        rspecs.push(ShuffleReadSpec::map_range(r, mr.start, mr.end));
                    }
                }
                continue;
            }
        }
        lspecs.push(ShuffleReadSpec::reducers(
            range.start,
            range.end,
            lmat.num_maps(),
        ));
        rspecs.push(ShuffleReadSpec::reducers(
            range.start,
            range.end,
            rmat.num_maps(),
        ));
    }

    if ranges.len() != partitions {
        ctx.adaptive.record(AdaptivePlanChange {
            node_id: id,
            rule: AdaptiveRule::CoalescePartitions,
            description: format!(
                "{partitions} -> {} post-shuffle partitions (target {target} B, measured {} B)",
                ranges.len(),
                totals.iter().sum::<u64>(),
            ),
            replacement: None,
        });
    }
    if skew_splits > 0 {
        ctx.adaptive.record(AdaptivePlanChange {
            node_id: id,
            rule: AdaptiveRule::SkewSplit,
            description: format!(
                "split skewed reduce partition(s) into {skew_splits} map-range sub-partitions \
                 (factor {factor}, median {lmed}/{rmed} B)",
            ),
            replacement: None,
        });
    }
    if let Some(pm) = &ctx.metrics {
        let node = pm.node(id);
        node.set_extra("adaptive_partitions", lspecs.len() as u64);
        node.set_extra("adaptive_skew_splits", skew_splits as u64);
    }

    if ctx.mem.is_bounded() {
        let (llayout, rlayout) =
            join_spill_layouts(left_keys, right_keys, &left_attrs, &right_attrs);
        let sctx = ctx.spill_ctx(id);
        let spec = spill::GraceJoinSpec {
            join_type,
            residual_pred,
            left_layout: llayout,
            right_layout: rlayout,
            left_width,
            right_width,
        };
        return Ok(lmat
            .read(lspecs)
            .zip_partitions(&rmat.read(rspecs), move |lit, rit| {
                Box::new(spill::grace_hash_join_partition(lit, rit, &spec, &sctx, 0).into_iter())
            }));
    }

    Ok(lmat
        .read(lspecs)
        .zip_partitions(&rmat.read(rspecs), move |lit, rit| {
            Box::new(
                hash_join_partition(
                    lit,
                    rit,
                    join_type,
                    build_side,
                    &residual_pred,
                    left_width,
                    right_width,
                )
                .into_iter(),
            )
        }))
}

/// Read a materialized exchange back with small neighboring reduce
/// partitions merged up to the coalescing target, recording the decision.
/// Map-range splitting is never applied here: aggregated consumers need
/// every map's contribution to a key in one partition.
fn coalesced_read<K, V, C>(
    mat: &MaterializedShuffle<K, V, C>,
    what: &str,
    id: usize,
    ctx: &ExecContext,
) -> RddRef<(K, C)>
where
    K: engine::Data + Hash + Eq,
    V: engine::Data,
    C: engine::Data,
{
    let sizes = mat.reduce_sizes();
    let target = ctx.conf.adaptive_target_partition_bytes.max(1);
    let ranges = adaptive_rules::coalesce_partitions(&sizes, target);
    if ranges.len() != sizes.len() {
        ctx.adaptive.record(AdaptivePlanChange {
            node_id: id,
            rule: AdaptiveRule::CoalescePartitions,
            description: format!(
                "{what}: {} -> {} post-shuffle partitions (target {target} B, measured {} B)",
                sizes.len(),
                ranges.len(),
                mat.total_bytes(),
            ),
            replacement: None,
        });
    }
    if let Some(pm) = &ctx.metrics {
        pm.node(id)
            .set_extra("adaptive_partitions", ranges.len() as u64);
    }
    let num_maps = mat.num_maps();
    mat.read(
        ranges
            .into_iter()
            .map(|r| ShuffleReadSpec::reducers(r.start, r.end, num_maps))
            .collect(),
    )
}

fn execute_nested_loop_join(
    left: &Arc<PhysicalPlan>,
    right: &Arc<PhysicalPlan>,
    condition: &Option<Expr>,
    join_type: JoinType,
    join_plan: &PhysicalPlan,
    id: usize,
    ctx: &ExecContext,
) -> Result<RddRef<Row>> {
    if matches!(join_type, JoinType::Right | JoinType::Full) {
        return Err(CatalystError::Plan(format!(
            "non-equi {} joins are not supported; rewrite with an equality condition",
            join_type.keyword()
        )));
    }
    let cond: Option<PredFn> = match condition {
        Some(c) => Some(predicate(c, &join_plan.output(), ctx.conf.codegen_enabled)?),
        None => None,
    };
    let left_id = id + 1;
    let right_id = left_id + subtree_size(left);
    let right_width = right.output().len();
    let eager_start = Instant::now();
    let right_rows = Arc::new(
        execute_node(right, right_id, ctx)?
            .try_collect()
            .map_err(engine_err)?,
    );
    note_eager_ns(ctx, id, eager_start);
    let stream = execute_node(left, left_id, ctx)?;
    Ok(stream.flat_map(move |lrow| {
        let mut out = Vec::new();
        for rrow in right_rows.iter() {
            let joined = lrow.concat(rrow);
            if cond.as_ref().is_none_or(|p| p(&joined)) {
                out.push(joined);
            }
        }
        if out.is_empty() && join_type == JoinType::Left {
            out.push(lrow.concat(&null_row(right_width)));
        }
        out
    }))
}
