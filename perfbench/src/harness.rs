//! Shared machinery: pinned configuration, context construction, host
//! calibration, answer canonicalisation, and the closed-loop runner the
//! three library workloads share (untraced for end-to-end metrics,
//! traced for the per-layer breakdown).

use crate::stats::median;
use crate::trace::{self, SpanId, Tracer};
use catalyst::plan::LogicalPlan;
use catalyst::source::BaseRelation;
use catalyst::{DataType, Row, Schema, SchemaRef, StructField, Value};
use datasources::ColFileRelation;
use engine::metrics::MetricsSnapshot;
use engine::{CacheBudgetStats, EngineConf, SparkContext};
use spark_sql::cache::CachedRelation;
use spark_sql::execution::{execute, ExecContext};
use spark_sql::{SQLContext, SaveMode, SqlConf};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Executor threads, wire clients and service workers: the machine's
/// two cores.
pub const THREADS: usize = 2;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 11;

/// Rows per colfile row group, for inputs and written results alike.
pub const ROWS_PER_GROUP: usize = 1024;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Whole rounds a run measures: fixed per workload and `--seconds`, so
/// sample counts and everything that grows with executed queries are the
/// same on a fast or a slow host.
pub fn rounds(seconds: u64, rounds_per_10s: usize) -> usize {
    ((seconds as f64 * rounds_per_10s as f64 / 10.0).round() as usize).max(2)
}

/// Configuration built from the built-in defaults alone (no environment
/// variable can reach it), with every knob the workloads depend on set
/// explicitly; `tweak` applies the workload's own settings.
pub fn pinned_conf(work: &Path, tweak: impl FnOnce(&mut SqlConf)) -> SqlConf {
    let mut c = SqlConf::from_env_lookup(&|_| None);
    c.codegen_enabled = true;
    c.columnar_cache_enabled = true;
    c.pushdown_enabled = true;
    c.column_pruning_enabled = true;
    c.broadcast_threshold = 10 << 20;
    c.shuffle_partitions = 8;
    c.cache_batch_size = columnar::DEFAULT_BATCH_SIZE;
    c.vectorize_enabled = true;
    c.vectorize_batch_size = columnar::DEFAULT_BATCH_SIZE;
    c.adaptive_enabled = true;
    c.adaptive_target_partition_bytes = 1 << 20;
    c.adaptive_skew_factor = 4.0;
    c.memory_budget_bytes = 0;
    c.spill_dir = work.join("spill").to_string_lossy().into_owned();
    c.spill_enabled = true;
    c.plan_validation = Some(false);
    c.chaos_seed = None;
    c.chaos_prob = None;
    c.constraints_enabled = true;
    c.cbo_enabled = true;
    c.lint_level = "warn".to_string();
    c.cache_budget_bytes = 0;
    c.cache_eviction_policy = "lru".to_string();
    c.service_workers = THREADS;
    c.service_session_in_flight = 1;
    c.service_admission_budget = 0;
    c.service_admission_query_bytes = 8 << 20;
    c.service_max_queued = 64;
    c.service_query_timeout_ms = 0;
    tweak(&mut c);
    c
}

/// A fresh engine and session with `conf`, fault injection off.
pub fn new_context(conf: SqlConf) -> SQLContext {
    let sc = SparkContext::with_conf(EngineConf {
        executor_threads: THREADS,
        max_task_retries: 3,
        max_stage_retries: 4,
        default_parallelism: 4,
    });
    sc.set_chaos(None);
    let ctx = SQLContext::new(sc);
    ctx.set_conf(|c| *c = conf);
    ctx
}

/// A fixed CPU loop that runs no program code, timed in ms: host speed
/// drift shows here, not as a program regression.
pub fn calib_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..30_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident memory of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart the peak-memory mark (VmHWM) from the current resident size,
/// so `peak_rss_mb` leaves out the benchmark's repeated set-ups, which a
/// real process would run once. Memory the dropped set-ups freed is
/// first handed back to the system, so the restarted mark does not
/// depend on how much of it the allocator kept. Kernels without
/// `clear_refs` keep the process-wide peak.
pub fn reset_peak_rss() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim only releases free heap pages.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A value in the form answers are compared in: numbers as fixed-point
/// text (integer and floating results of the same sum compare equal),
/// strings verbatim.
pub fn canon(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Int(i) => canon_num(*i as f64),
        Value::Long(l) => canon_num(*l as f64),
        Value::Float(f) => canon_num(*f as f64),
        Value::Double(d) => canon_num(*d),
        Value::Date(d) => canon_num(*d as f64),
        Value::Str(s) => s.to_string(),
        other => format!("{other}"),
    }
}

pub fn canon_num(x: f64) -> String {
    let s = format!("{x:.3}");
    if s == "-0.000" {
        "0.000".to_string()
    } else {
        s
    }
}

/// A whole number in the form answers are compared in.
pub fn canon_i64(x: i64) -> String {
    canon_num(x as f64)
}

pub fn canon_row(r: &Row) -> String {
    r.values().iter().map(canon).collect::<Vec<_>>().join("|")
}

/// A schema of non-null columns.
pub fn schema(cols: &[(&str, DataType)]) -> SchemaRef {
    Arc::new(Schema::new(
        cols.iter()
            .map(|(n, t)| StructField::new(*n, t.clone(), false))
            .collect(),
    ))
}

/// An answer check over result rows.
pub type Check = Arc<dyn Fn(&[Row]) -> Result<(), String> + Send + Sync>;

/// Check against expected canonical rows, in order or as a multiset.
pub fn expect_rows(mut expected: Vec<String>, ordered: bool) -> Check {
    if !ordered {
        expected.sort();
    }
    Arc::new(move |rows: &[Row]| {
        let mut got: Vec<String> = rows.iter().map(canon_row).collect();
        if !ordered {
            got.sort();
        }
        if got == expected {
            Ok(())
        } else {
            Err(format!(
                "{} rows, expected {}; first {:?} vs {:?}",
                got.len(),
                expected.len(),
                got.first(),
                expected.first()
            ))
        }
    })
}

/// The scanned relation under a table's plan.
fn scan_relation(plan: &LogicalPlan) -> Option<Arc<dyn BaseRelation>> {
    if let LogicalPlan::Scan { relation, .. } = plan {
        return Some(relation.clone());
    }
    plan.children().iter().find_map(|c| scan_relation(c))
}

/// `CACHE TABLE name` and fill the cache now; returns the cached
/// relation.
pub fn cache_and_fill(ctx: &SQLContext, name: &str) -> Result<Arc<dyn BaseRelation>, String> {
    ctx.cache_table(name).map_err(err_string)?;
    let rel = ctx
        .table(name)
        .ok()
        .and_then(|df| scan_relation(df.logical_plan()))
        .ok_or("cached table has no scan")?;
    if let Some(c) = rel.as_any().downcast_ref::<CachedRelation>() {
        c.cached_rows().map_err(err_string)?;
    }
    Ok(rel)
}

/// `(resident, total)` partitions of a cached relation.
pub fn residency(rel: &Arc<dyn BaseRelation>) -> (usize, usize) {
    match rel.as_any().downcast_ref::<CachedRelation>() {
        Some(c) => (c.resident_partitions(), rel.num_partitions()),
        None => (0, 0),
    }
}

pub fn err_string(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One query of a library workload's round.
#[derive(Clone)]
pub struct Job {
    pub class: usize,
    pub text: String,
    pub check: Check,
    /// ETL jobs write their result to this colfile; the check reads it
    /// back.
    pub sink: Option<String>,
}

/// A ready library session plus the relations whose layers are measured.
pub struct Lib {
    pub ctx: SQLContext,
    pub cached: Vec<Arc<dyn BaseRelation>>,
    pub colfiles: Vec<Arc<ColFileRelation>>,
    pub input_bytes: u64,
    /// When the program's set-up began: after the benchmark made its
    /// copies of the generated inputs, which `setup_s` excludes.
    pub started: Instant,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    pub classes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// `(class, latency ms)` of every measured (untraced) query.
    pub samples: Vec<(usize, f64)>,
    /// Wall time of each measured (untraced) round, answer checks
    /// excluded.
    pub round_s: Vec<f64>,
    /// Queries completed per round.
    pub per_round: usize,
    pub setup_s: Vec<f64>,
    pub layers: BTreeMap<&'static str, f64>,
    pub floors: Vec<(String, bool)>,
    pub conf: Vec<(String, String)>,
    pub spans: Vec<trace::Span>,
    pub errors: Vec<String>,
    pub rounds: usize,
    /// Spills and leaked spill files over one instrumented run of each
    /// distinct text (the mechanism floors read these in every mode).
    pub probe_spills: u64,
    pub probe_leaked: i64,
}

impl Report {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    pub fn floor(&mut self, what: impl Into<String>, ok: bool) {
        self.floors.push((what.into(), ok));
    }
}

/// The rows a finished job is checked on: its result, or for ETL jobs
/// the file it wrote, read back.
fn answer_rows(job: &Job, rows: Vec<Row>) -> Result<Vec<Row>, String> {
    match &job.sink {
        None => Ok(rows),
        Some(path) => {
            let bytes = std::fs::read(path).map_err(err_string)?;
            let file = datasources::read_colfile(bytes.into()).map_err(err_string)?;
            Ok(file.groups.iter().flat_map(|g| g.decode(None)).collect())
        }
    }
}

/// `ctx.sql(text)` then collect, or write to the job's sink.
fn run_plain(ctx: &SQLContext, job: &Job) -> Result<Vec<Row>, String> {
    let df = ctx.sql(&job.text).map_err(err_string)?;
    match &job.sink {
        None => df.collect().map_err(err_string),
        Some(path) => {
            df.write()
                .format("colfile")
                .option("rows_per_group", ROWS_PER_GROUP)
                .mode(SaveMode::Overwrite)
                .save(path)
                .map_err(err_string)?;
            Ok(Vec::new())
        }
    }
}

/// Per-layer tallies gathered over traced queries.
#[derive(Default)]
struct Tally {
    rule_applications: u64,
    rule_fires: u64,
    resident: u64,
    partitions: u64,
    spill_count: u64,
    spill_bytes: u64,
    spill_leaked: i64,
    peak_frac: f64,
    written_bytes: u64,
}

/// The chain `ctx.sql(t)?.collect()` runs, call by call, each call in
/// its own span under one `query` span.
fn run_traced(
    lib: &Lib,
    job: &Job,
    tr: &Tracer,
    parent: SpanId,
    qid: u64,
    tally: &mut Tally,
) -> Result<Vec<Row>, String> {
    let ctx = &lib.ctx;
    for rel in &lib.cached {
        let (r, n) = residency(rel);
        tally.resident += r as u64;
        tally.partitions += n as u64;
    }
    let q = tr.begin("query", Some(parent), qid, 0);
    let sp = |name| tr.begin(name, Some(q), qid, 0);
    let result = (|| {
        let s = sp("sql.parse");
        let stmt = sql::parse(&job.text).map_err(err_string)?;
        tr.end(s);
        let sql::Statement::Query(plan) = stmt else {
            return Err("not a query".to_string());
        };
        let s = sp("catalyst.analyze");
        let analyzed = ctx.analyze(plan).map_err(err_string)?;
        tr.end(s);
        let s = sp("catalyst.plan");
        let planned = ctx.plan_query_monitored(&analyzed).map_err(err_string)?;
        tr.end(s);
        for h in &planned.rule_health.rules {
            tally.rule_applications += h.applications as u64;
            tally.rule_fires += h.fires as u64;
        }
        let s = sp("core.lower");
        let ectx = ExecContext::new(ctx.spark_context().clone(), ctx.conf());
        let rdd = execute(&planned.physical, &ectx).map_err(err_string)?;
        tr.end(s);
        let s = sp("core.run");
        let rows = rdd.try_collect().map_err(err_string)?;
        tr.end(s);
        if ectx.mem.is_bounded() {
            let m = ectx.mem.stats();
            tally.spill_count += m.spill_count;
            tally.spill_bytes += m.spill_bytes;
            tally.spill_leaked += m.spill_files_created as i64 - m.spill_files_deleted as i64;
            tally.peak_frac = tally.peak_frac.max(m.peak as f64 / m.budget as f64);
        }
        match &job.sink {
            None => Ok(rows),
            Some(path) => {
                let s = sp("colfile.write");
                ColFileRelation::write_path(path, &analyzed.schema(), &rows, ROWS_PER_GROUP)
                    .map_err(err_string)?;
                tr.end(s);
                tally.written_bytes += std::fs::metadata(path).map_or(0, |m| m.len());
                Ok(Vec::new())
            }
        }
    })();
    tr.end(q);
    result
}

pub fn engine_delta(
    acc: &mut BTreeMap<&'static str, f64>,
    a: &MetricsSnapshot,
    b: &MetricsSnapshot,
) {
    let mut add = |k, x: u64, y: u64| *acc.entry(k).or_insert(0.0) += y.saturating_sub(x) as f64;
    add("jobs", a.jobs_run, b.jobs_run);
    add("stages", a.stages_run, b.stages_run);
    add("tasks", a.tasks_launched, b.tasks_launched);
    add("task_ns", a.task_time_ns, b.task_time_ns);
    add(
        "shuffle_w",
        a.shuffle_records_written,
        b.shuffle_records_written,
    );
    add("shuffle_r", a.shuffle_records_read, b.shuffle_records_read);
    add("task_failures", a.task_failures, b.task_failures);
    add("cache_recomputes", a.cache_recomputes, b.cache_recomputes);
}

/// Footprint of the cached relations in bytes per row (0 when none).
fn cache_bytes_per_row(lib: &Lib) -> f64 {
    let (mut bytes, mut rows) = (0u64, 0u64);
    for rel in &lib.cached {
        if let Some(c) = rel.as_any().downcast_ref::<CachedRelation>() {
            bytes += c.cached_bytes().unwrap_or(0);
            rows += c.cached_rows().unwrap_or(0);
        }
    }
    if rows == 0 {
        0.0
    } else {
        bytes as f64 / rows as f64
    }
}

/// Spill counters of one instrumented run of each distinct text, through
/// `QueryExecution::collect`: `(spill count, files created - deleted)`.
fn spill_probe(lib: &Lib, jobs: &[Job]) -> Result<(u64, i64), String> {
    let (mut spills, mut leaked) = (0u64, 0i64);
    for job in distinct(jobs) {
        let qe = lib
            .ctx
            .sql(&job.text)
            .and_then(|df| df.query_execution())
            .map_err(err_string)?;
        qe.collect().map_err(err_string)?;
        if let Some(m) = qe.memory_stats() {
            spills += m.spill_count;
            leaked += m.spill_files_created as i64 - m.spill_files_deleted as i64;
        }
    }
    Ok((spills, leaked))
}

/// `core.metering_ratio`: per text, the median time through
/// `QueryExecution::collect` over the median through `DataFrame::collect`
/// (five alternating pairs after one warm pair); geometric mean over
/// texts.
pub fn metering_ratio(ctx: &SQLContext, texts: &[&str]) -> Result<f64, String> {
    let mut ratios = Vec::new();
    for text in texts {
        let (mut metered, mut plain) = (Vec::new(), Vec::new());
        for i in 0..=5 {
            let t = Instant::now();
            ctx.sql(text)
                .and_then(|df| df.query_execution())
                .and_then(|qe| qe.collect())
                .map_err(err_string)?;
            let m = t.elapsed().as_secs_f64();
            let t = Instant::now();
            ctx.sql(text)
                .and_then(|df| df.collect())
                .map_err(err_string)?;
            let p = t.elapsed().as_secs_f64();
            if i > 0 {
                metered.push(m);
                plain.push(p);
            }
        }
        ratios.push(median(&metered) / median(&plain));
    }
    ctx.clear_query_log();
    Ok(crate::stats::geomean(&ratios))
}

/// Jobs with distinct texts, first occurrence order.
pub fn distinct(jobs: &[Job]) -> Vec<&Job> {
    let mut seen = HashSet::new();
    jobs.iter()
        .filter(|j| seen.insert(j.text.as_str()))
        .collect()
}

/// The first job of each class, in class order.
pub fn class_representatives(jobs: &[Job], classes: usize) -> Vec<&Job> {
    (0..classes)
        .filter_map(|c| jobs.iter().find(|j| j.class == c))
        .collect()
}

/// Traced rounds over library jobs: spans, engine-counter deltas and
/// per-layer tallies, turned into the per-layer metrics at the end.
pub struct TracedPass<'a> {
    tracer: &'a Tracer,
    tally: Tally,
    engine: BTreeMap<&'static str, f64>,
    rounds: usize,
    cache0: CacheBudgetStats,
    groups0: u64,
    /// Index of the pass's first span: spans before it (set-up, other
    /// passes) count only for the set-up metrics.
    first_span: usize,
    /// Seconds of each traced round, answer checks excluded.
    pub round_s: Vec<f64>,
}

impl<'a> TracedPass<'a> {
    pub fn new(tracer: &'a Tracer, lib: &Lib) -> Self {
        TracedPass {
            tracer,
            tally: Tally::default(),
            engine: BTreeMap::new(),
            rounds: 0,
            cache0: lib.ctx.spark_context().cache_manager().budget_stats(),
            groups0: lib.colfiles.iter().map(|c| c.groups_read()).sum(),
            first_span: tracer.snapshot().len(),
            round_s: Vec::new(),
        }
    }

    /// One traced pass over `jobs`, every answer checked into `rep`.
    pub fn round(&mut self, lib: &Lib, jobs: &[Job], qid: &mut u64, rep: &mut Report) {
        let rs = self.tracer.begin("round", None, 0, 0);
        let before = lib.ctx.spark_context().metrics().snapshot();
        let mut secs = 0.0;
        for job in jobs {
            *qid += 1;
            let t = Instant::now();
            let result = run_traced(lib, job, self.tracer, rs, *qid, &mut self.tally);
            secs += t.elapsed().as_secs_f64();
            rep.record(checked(job, result));
        }
        self.tracer.end(rs);
        engine_delta(
            &mut self.engine,
            &before,
            &lib.ctx.spark_context().metrics().snapshot(),
        );
        self.round_s.push(secs);
        self.rounds += 1;
    }

    /// Per-layer metrics of the traced rounds so far.
    pub fn layers(&self, lib: &Lib) -> BTreeMap<&'static str, f64> {
        let all = self.tracer.snapshot();
        let selfs = trace::self_times(&all);
        // (self ns, count) of the spans named `name` from index `from` on.
        let self_from = |name: &str, from: usize| {
            all.iter()
                .zip(&selfs)
                .skip(from)
                .filter(|(s, _)| s.name == name)
                .fold((0u64, 0usize), |(t, n), (_, d)| (t + d, n + 1))
        };
        let setup_ms = |name| self_from(name, 0).0 as f64 / 1e6;
        let self_of = |name| self_from(name, self.first_span);
        let spans = &all[self.first_span..];
        let queries = spans.iter().filter(|s| s.name == "query").count().max(1) as f64;
        let per_query_ns = |name| self_of(name).0 as f64 / queries;
        let dur_of = |name: &str| -> f64 {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64)
                .sum()
        };
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        let front = dur_of("sql.parse") + dur_of("catalyst.analyze") + dur_of("catalyst.plan");
        let run_wall = dur_of("core.lower") + dur_of("core.run");
        let e = |k| self.engine.get(k).copied().unwrap_or(0.0);
        let t = &self.tally;
        let cache1 = lib.ctx.spark_context().cache_manager().budget_stats();
        let groups1: u64 = lib.colfiles.iter().map(|c| c.groups_read()).sum();
        let rounds = self.rounds.max(1) as f64;
        let (writes_ns, writes) = self_of("colfile.write");
        BTreeMap::from([
            ("sql.parse_us", per_query_ns("sql.parse") / 1e3),
            (
                "catalyst.analyze_us",
                per_query_ns("catalyst.analyze") / 1e3,
            ),
            ("catalyst.plan_us", per_query_ns("catalyst.plan") / 1e3),
            ("catalyst.plan_share", ratio(front, dur_of("query"))),
            (
                "catalyst.rule_applications",
                t.rule_applications as f64 / queries,
            ),
            (
                "catalyst.rule_fire_ratio",
                ratio(t.rule_fires as f64, t.rule_applications as f64),
            ),
            ("core.lower_us", per_query_ns("core.lower") / 1e3),
            ("core.run_ms", per_query_ns("core.run") / 1e6),
            ("engine.jobs", e("jobs") / queries),
            ("engine.stages", e("stages") / queries),
            ("engine.tasks", e("tasks") / queries),
            ("engine.task_busy_ms", e("task_ns") / queries / 1e6),
            (
                "engine.slot_idle_frac",
                1.0 - ratio(e("task_ns"), run_wall * THREADS as f64),
            ),
            ("engine.shuffle_records_written", e("shuffle_w") / queries),
            ("engine.shuffle_records_read", e("shuffle_r") / queries),
            ("engine.task_failures", e("task_failures")),
            ("engine.cache_recomputes", e("cache_recomputes")),
            (
                "cache.hit_ratio",
                ratio(t.resident as f64, t.partitions as f64),
            ),
            (
                "cache.evictions",
                cache1.evictions.saturating_sub(self.cache0.evictions) as f64 / rounds,
            ),
            (
                "cache.evicted_mb",
                cache1
                    .evicted_bytes
                    .saturating_sub(self.cache0.evicted_bytes) as f64
                    / rounds
                    / MB,
            ),
            ("cache.build_ms", setup_ms("cache.build")),
            ("cache.bytes_per_row", cache_bytes_per_row(lib)),
            ("spill.count", t.spill_count as f64 / rounds),
            ("spill.mb", t.spill_bytes as f64 / rounds / MB),
            ("memory.peak_frac", t.peak_frac),
            ("spill.files_leaked", t.spill_leaked as f64),
            (
                "colfile.groups_read",
                groups1.saturating_sub(self.groups0) as f64 / queries,
            ),
            ("colfile.open_ms", setup_ms("colfile.open")),
            (
                "colfile.write_ms",
                ratio(writes_ns as f64 / 1e6, writes as f64),
            ),
            (
                "colfile.write_bytes_per_input_byte",
                ratio(t.written_bytes as f64 / rounds, lib.input_bytes as f64),
            ),
        ])
    }
}

const MB: f64 = 1048576.0;

/// A job's outcome: its rows (or the file it wrote) checked.
fn checked(job: &Job, result: Result<Vec<Row>, String>) -> Result<(), String> {
    result
        .and_then(|rows| answer_rows(job, rows))
        .and_then(|rows| (job.check)(&rows))
        .map_err(|e| format!("{}: {e}", job.text))
}

/// Run a library workload: set up (`SETUPS` times untraced, once
/// traced), warm every distinct text once, then run `rounds` whole
/// passes over `jobs`, checking every answer. The traced run alternates
/// untraced and traced rounds so the tracing overhead is measured under
/// the same host conditions.
///
/// `setup` builds a ready session from already generated inputs; with
/// a tracer it records its layer spans (`cache.build`, `colfile.open`)
/// under the given parent span.
pub fn run_library(
    args: &Args,
    classes: &[&str],
    jobs: &[Job],
    rounds: usize,
    mut setup: impl FnMut(Option<(&Tracer, SpanId)>) -> Result<Lib, String>,
) -> Result<(Report, Lib), String> {
    let mut rep = Report {
        classes: classes.iter().map(|s| s.to_string()).collect(),
        ..Report::default()
    };
    let tracer = Tracer::default();
    let warm = |lib: &Lib| -> Result<(), String> {
        for job in distinct(jobs) {
            checked(job, run_plain(&lib.ctx, job)).map_err(|e| format!("warm-up: {e}"))?;
        }
        Ok(())
    };
    let lib = if args.trace {
        let s = tracer.begin("setup", None, 0, 0);
        let lib = setup(Some((&tracer, s)))?;
        tracer.span("warmup", Some(s), 0, 0, || warm(&lib))?;
        tracer.end(s);
        lib
    } else {
        repeat_setup(&mut rep, || {
            let lib = setup(None)?;
            warm(&lib)?;
            let secs = lib.started.elapsed().as_secs_f64();
            Ok((lib, secs))
        })?
    };
    reset_peak_rss();
    rep.conf = lib.ctx.conf().entries();
    rep.rounds = rounds;
    rep.per_round = jobs.len();

    let mut pass = TracedPass::new(&tracer, &lib);
    let mut qid = 0u64;
    for r in 0..rounds {
        if args.trace && r % 2 == 1 {
            pass.round(&lib, jobs, &mut qid, &mut rep);
            continue;
        }
        let mut round_s = 0.0;
        for job in jobs {
            let t = Instant::now();
            let result = run_plain(&lib.ctx, job);
            let secs = t.elapsed().as_secs_f64();
            round_s += secs;
            if !args.trace {
                rep.samples.push((job.class, secs * 1e3));
            }
            rep.record(checked(job, result));
        }
        rep.round_s.push(round_s);
    }

    let (spills, leaked) = spill_probe(&lib, jobs)?;
    rep.probe_spills = spills;
    rep.probe_leaked = leaked;
    if args.trace {
        rep.layers = pass.layers(&lib);
        rep.layers.insert(
            "trace.overhead_frac",
            median(&pass.round_s) / median(&rep.round_s) - 1.0,
        );
        let reps: Vec<&str> = class_representatives(jobs, classes.len())
            .iter()
            .map(|j| j.text.as_str())
            .collect();
        rep.layers
            .insert("core.metering_ratio", metering_ratio(&lib.ctx, &reps)?);
        rep.spans = tracer.snapshot();
    }
    Ok((rep, lib))
}

/// Set up `SETUPS` times from nothing, dropping each earlier set-up
/// before the next starts, and keep the last. `setup` returns what it
/// built and its set-up seconds, which go to `rep.setup_s`.
pub fn repeat_setup<T>(
    rep: &mut Report,
    mut setup: impl FnMut() -> Result<(T, f64), String>,
) -> Result<T, String> {
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let (built, secs) = setup()?;
        rep.setup_s.push(secs);
        kept = Some(built);
    }
    Ok(kept.expect("SETUPS is not 0"))
}

/// A per-process scratch directory inside the working directory.
pub fn work_dir(workload: &str) -> PathBuf {
    PathBuf::from(".perfbench_work").join(format!("{workload}-{}", std::process::id()))
}
