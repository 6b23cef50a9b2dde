//! `service_mix`: two wire clients, each in its own session, against
//! `SqlServer` (two workers, two executor threads), closed loop. Reads
//! over the shared cached `sales` table run beside per-session writes
//! (`CREATE TEMPORARY TABLE … AS SELECT`, `CACHE TABLE`, a read that
//! fills it, `UNCACHE TABLE`) that churn a cache budget smaller than the
//! working set. Admission may queue but never rejects.

use crate::gen;
use crate::harness::{
    self, canon_i64 as n, canon_num, err_string, metering_ratio, schema, Args, Job, Lib, Report,
    TracedPass, THREADS,
};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use catalyst::source::BaseRelation;
use catalyst::{DataType, Row, SchemaRef, Value};
use engine::metrics::MetricsSnapshot;
use service::{Client, FetchResult, Json, SqlServer};
use spark_sql::SQLContext;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{mpsc, Arc};
use std::time::Instant;

const SALES: usize = 80_000;
const STORES: usize = 100;
const ITEMS: i64 = 5_000;
const REGIONS: i64 = 8;
/// Reads per client per round, before the client's write cycle.
const READS: usize = 12;
const ROUNDS_PER_10S: usize = 18;
/// Cache budget: room for `sales` (2.6 MB) and both sessions' live
/// cached tables (about 0.8 MB each), but not for the blocks each write
/// cycle leaves behind after `UNCACHE`, so writes keep evicting while the
/// readers' hot set stays resident.
const CACHE_BUDGET: u64 = 6 << 20;
const QUERY_BYTES: u64 = 8 << 20;

/// Latency classes: the four read shapes, and a session's whole write
/// cycle (its four statements) as one operation.
const CLASSES: [&str; 5] = [
    "groupby",
    "join",
    "filter_topk",
    "count_distinct",
    "write_cycle",
];
const WRITE: usize = 4;
/// A write cycle keeps the sales of stores below this (about 0.8 MB
/// cached).
const CYCLE_STORES: i64 = 40;

/// One statement of a client's round and its expected canonical rows.
#[derive(Clone)]
struct Stmt {
    class: usize,
    text: String,
    expected: Vec<String>,
    ordered: bool,
}

/// `sales(s_id, s_store, s_item, s_amount)` and `stores(st_id, st_region)`.
struct Tables {
    sales: Vec<Vec<i64>>,
    stores: Vec<Vec<i64>>,
}

fn tables(seed: u64) -> Tables {
    Tables {
        sales: gen::long_table(seed, 30, SALES, &[0, STORES as i64, ITEMS, 10_000]),
        stores: gen::long_table(seed, 31, STORES, &[0, REGIONS]),
    }
}

/// A read of `template` with literal rank `k`, answered by plain folds.
/// Literals vary the answer, not the work: every read scans all of
/// `sales`, so a round costs the same whichever literals the seed draws.
fn read(t: &Tables, template: usize, k: usize) -> Stmt {
    let k = k as i64;
    let s = &t.sales;
    let (text, expected, ordered) = match template {
        0 => {
            let mut g: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
            for r in s.iter().filter(|r| r[2] >= k) {
                let e = g.entry(r[1]).or_default();
                e.0 += 1;
                e.1 += r[3];
            }
            (
                format!(
                    "SELECT s_store, COUNT(*), SUM(s_amount) FROM sales \
                     WHERE s_item >= {k} GROUP BY s_store"
                ),
                g.iter()
                    .map(|(st, (c, a))| format!("{}|{}|{}", n(*st), n(*c), n(*a)))
                    .collect(),
                false,
            )
        }
        1 => {
            let mut g: BTreeMap<i64, i64> = BTreeMap::new();
            for r in s.iter().filter(|r| r[3] > k) {
                *g.entry(t.stores[r[1] as usize][1]).or_default() += r[3];
            }
            (
                format!(
                    "SELECT st_region, SUM(s_amount) FROM sales JOIN stores \
                     ON s_store = st_id WHERE s_amount > {k} GROUP BY st_region"
                ),
                g.iter().map(|(rg, a)| format!("g{rg}|{}", n(*a))).collect(),
                false,
            )
        }
        2 => {
            let mut v: Vec<&Vec<i64>> = s.iter().filter(|r| r[1] == k).collect();
            v.sort_by_key(|r| (-r[3], r[0]));
            (
                format!(
                    "SELECT s_id, s_amount FROM sales WHERE s_store = {k} \
                     ORDER BY s_amount DESC, s_id LIMIT 10"
                ),
                v.iter()
                    .take(10)
                    .map(|r| format!("{}|{}", n(r[0]), n(r[3])))
                    .collect(),
                true,
            )
        }
        _ => {
            let items: BTreeSet<i64> = s.iter().filter(|r| r[1] != k).map(|r| r[2]).collect();
            (
                format!("SELECT COUNT(DISTINCT s_item) FROM sales WHERE s_store <> {k}"),
                vec![n(items.len() as i64)],
                true,
            )
        }
    };
    Stmt {
        class: template,
        text,
        expected,
        ordered,
    }
}

/// Client `c`'s write cycle over its own table `w{c}`, keeping stores
/// below `k`.
fn write_cycle(t: &Tables, c: usize, k: i64) -> Vec<Stmt> {
    let kept = t.sales.iter().filter(|r| r[1] < k);
    let (count, sum) = kept.fold((0i64, 0i64), |(c, s), r| (c + 1, s + r[3]));
    let stmt = |text: String, expected: Vec<String>| Stmt {
        class: WRITE,
        text,
        expected,
        ordered: true,
    };
    vec![
        stmt(
            format!(
                "CREATE TEMPORARY TABLE w{c} USING memory AS \
                 SELECT s_id, s_item, s_amount FROM sales WHERE s_store < {k}"
            ),
            vec![],
        ),
        stmt(format!("CACHE TABLE w{c}"), vec![]),
        stmt(
            format!("SELECT COUNT(*), SUM(s_amount) FROM w{c}"),
            vec![format!("{}|{}", n(count), n(sum))],
        ),
        stmt(format!("UNCACHE TABLE w{c}"), vec![]),
    ]
}

/// Both clients' rounds. Each client makes `READS` reads, every shape
/// equally often, in a seeded order, with its write cycle spliced in;
/// the two cycles sit half a round apart, so they rarely overlap. Each
/// shape's literals are distinct stores drawn by the seed, so every
/// read text occurs once a round and the warm-up runs the same number
/// of texts for every seed.
fn sequences(t: &Tables, seed: u64) -> Vec<Vec<Stmt>> {
    let mut rng = gen::rng(seed, 40);
    let mut literals: Vec<Vec<usize>> = (0..WRITE)
        .map(|_| {
            let mut stores: Vec<usize> = (0..STORES).collect();
            gen::shuffle(&mut stores, &mut rng);
            stores.truncate(READS / WRITE * THREADS);
            stores
        })
        .collect();
    (0..THREADS)
        .map(|c| {
            let mut shapes: Vec<usize> = (0..READS).map(|i| i % WRITE).collect();
            gen::shuffle(&mut shapes, &mut rng);
            let mut seq: Vec<Stmt> = shapes
                .into_iter()
                .map(|s| read(t, s, literals[s].pop().expect("a literal per read")))
                .collect();
            let at = c * READS / THREADS;
            seq.splice(at..at, write_cycle(t, c, CYCLE_STORES));
            seq
        })
        .collect()
}

fn canon_json(v: &Json) -> String {
    match v {
        Json::Null => "NULL".to_string(),
        Json::Int(i) => canon_num(*i as f64),
        Json::Num(x) => canon_num(*x),
        Json::Str(s) => s.clone(),
        other => other.encode(),
    }
}

fn check(st: &Stmt, f: &FetchResult) -> Result<(), String> {
    let mut got: Vec<String> = f
        .rows
        .iter()
        .map(|r| r.iter().map(canon_json).collect::<Vec<_>>().join("|"))
        .collect();
    let mut want = st.expected.clone();
    if !st.ordered {
        got.sort();
        want.sort();
    }
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{}: {} rows, expected {}; first {:?} vs {:?}",
            st.text,
            got.len(),
            want.len(),
            got.first(),
            want.first()
        ))
    }
}

fn inputs(t: &Tables) -> Vec<(&'static str, SchemaRef, Vec<Row>)> {
    use DataType::{Long, String as Str};
    vec![
        (
            "sales",
            schema(&[
                ("s_id", Long),
                ("s_store", Long),
                ("s_item", Long),
                ("s_amount", Long),
            ]),
            gen::long_rows(&t.sales),
        ),
        (
            "stores",
            schema(&[("st_id", Long), ("st_region", Str)]),
            t.stores
                .iter()
                .map(|r| Row::new(vec![Value::Long(r[0]), Value::str(format!("g{}", r[1]))]))
                .collect(),
        ),
    ]
}

/// A running service with its connected clients.
struct Service {
    root: SQLContext,
    sales: Arc<dyn BaseRelation>,
    server: SqlServer,
    clients: Vec<Client>,
    started: Instant,
}

/// What one client saw in one round.
#[derive(Default)]
struct ClientRound {
    /// (class, latency ms, reply) per statement, checked after the round.
    results: Vec<(usize, f64, Result<FetchResult, String>)>,
    /// Traced rounds only: server-side `wall_ns` per statement, query
    /// frame round trips, `conf` frame round trip, residency samples.
    wall_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    rtt_us: f64,
    resident: (usize, usize),
}

/// One client's pass over its statements.
fn client_round(
    client: &mut Client,
    seq: &[Stmt],
    sales: &Arc<dyn BaseRelation>,
    traced: Option<(&Tracer, usize, u64)>,
) -> ClientRound {
    let mut out = ClientRound::default();
    let Some((tr, round, tid)) = traced else {
        for st in seq {
            let t = Instant::now();
            let r = client.sql(&st.text).map_err(err_string);
            out.results
                .push((st.class, t.elapsed().as_secs_f64() * 1e3, r));
        }
        return out;
    };
    let t = Instant::now();
    let _ = client.conf("spark.sql.shuffle.partitions");
    out.rtt_us = t.elapsed().as_secs_f64() * 1e6;
    for (i, st) in seq.iter().enumerate() {
        if st.class != WRITE {
            let (r, total) = harness::residency(sales);
            out.resident.0 += r;
            out.resident.1 += total;
        }
        let qid = tid * 1_000_000 + i as u64;
        let t = Instant::now();
        let q = tr.begin("query", Some(round), qid, tid);
        let id = tr.span("service.submit", Some(q), qid, tid, || {
            client.query(&st.text)
        });
        let submit_ms = t.elapsed().as_secs_f64() * 1e3;
        let r = id.and_then(|id| tr.span("service.fetch", Some(q), qid, tid, || client.fetch(id)));
        tr.end(q);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Ok(f) = &r {
            out.wall_ms.push(f.wall_ns as f64 / 1e6);
            out.submit_ms.push(submit_ms);
        }
        out.results.push((st.class, ms, r.map_err(err_string)));
    }
    out
}

pub fn run(args: &Args) -> Result<Report, String> {
    let work = harness::work_dir("service_mix");
    let t = tables(args.seed);
    let ins = inputs(&t);
    let seqs = sequences(&t, args.seed);
    let conf = harness::pinned_conf(&work, |c| {
        c.cache_budget_bytes = CACHE_BUDGET;
        c.service_admission_query_bytes = QUERY_BYTES;
        // Both clients' queries fit at once: admission can queue a
        // query behind a write but never rejects one.
        c.service_admission_budget = QUERY_BYTES * THREADS as u64;
    });
    let tracer = Tracer::default();
    let setup = |tr: Option<(&Tracer, usize)>| -> Result<Service, String> {
        let copies = ins.clone();
        let started = Instant::now();
        let root = harness::new_context(conf.clone());
        for (name, schema, rows) in copies {
            root.register_rows(name, schema, rows).map_err(err_string)?;
        }
        let build = || harness::cache_and_fill(&root, "sales");
        let start = || -> Result<(SqlServer, Vec<Client>), String> {
            let server = SqlServer::start(root.clone()).map_err(err_string)?;
            let clients = (0..THREADS)
                .map(|_| Client::connect(server.addr()).map_err(err_string))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((server, clients))
        };
        let (sales, (server, clients)) = match tr {
            Some((tr, parent)) => (
                tr.span("cache.build", Some(parent), 0, 0, build)?,
                tr.span("service.start", Some(parent), 0, 0, start)?,
            ),
            None => (build()?, start()?),
        };
        let mut svc = Service {
            root,
            sales,
            server,
            clients,
            started,
        };
        // Warm-up: every distinct read text once, each write cycle once.
        let mut seen = BTreeSet::new();
        for (c, seq) in seqs.iter().enumerate() {
            for st in seq {
                if st.class == WRITE || seen.insert(st.text.clone()) {
                    let f = svc.clients[c].sql(&st.text).map_err(err_string)?;
                    check(st, &f).map_err(|e| format!("warm-up: {e}"))?;
                }
            }
        }
        Ok(svc)
    };

    let mut rep = Report {
        classes: CLASSES.iter().map(|s| s.to_string()).collect(),
        ..Report::default()
    };
    let mut svc = if args.trace {
        let s = tracer.begin("setup", None, 0, 0);
        let svc = setup(Some((&tracer, s)))?;
        tracer.end(s);
        svc
    } else {
        // Dropping a set-up stops its server.
        harness::repeat_setup(&mut rep, || {
            let svc = setup(None)?;
            let secs = svc.started.elapsed().as_secs_f64();
            Ok((svc, secs))
        })?
    };
    harness::reset_peak_rss();
    rep.conf = svc.root.conf().entries();
    let rounds = harness::rounds(args.seconds, ROUNDS_PER_10S);
    rep.rounds = rounds;
    rep.per_round = seqs.iter().map(Vec::len).sum();

    let sc = svc.root.spark_context().clone();
    let cache0 = sc.cache_manager().budget_stats();
    let mut engine = BTreeMap::new();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut traced_rounds: Vec<ClientRound> = Vec::new();
    let mut traced_cache = (0u64, 0u64);
    // One thread per client for the whole run; each round starts both
    // and ends when both have replied. A start message carries the
    // round's span in traced rounds; closing the channel ends the thread.
    let sales = &svc.sales;
    std::thread::scope(|s| {
        let (done_tx, done_rx) = mpsc::channel::<(usize, ClientRound)>();
        let starts: Vec<mpsc::Sender<Option<SpanId>>> = svc
            .clients
            .iter_mut()
            .zip(&seqs)
            .enumerate()
            .map(|(c, (client, seq))| {
                let (tx, rx) = mpsc::channel::<Option<SpanId>>();
                let (done, tracer) = (done_tx.clone(), &tracer);
                s.spawn(move || {
                    while let Ok(round) = rx.recv() {
                        let tr = round.map(|rs| (tracer, rs, c as u64 + 1));
                        if done
                            .send((c, client_round(client, seq, sales, tr)))
                            .is_err()
                        {
                            break;
                        }
                    }
                });
                tx
            })
            .collect();
        for r in 0..rounds {
            let traced = args.trace && r % 2 == 1;
            let before: MetricsSnapshot = sc.metrics().snapshot();
            let c0 = sc.cache_manager().budget_stats();
            let rs = traced.then(|| tracer.begin("round", None, 0, 0));
            let t = Instant::now();
            for start in &starts {
                start.send(rs).expect("client thread is running");
            }
            let mut results: Vec<(usize, ClientRound)> = (0..starts.len())
                .map(|_| done_rx.recv().expect("client thread is running"))
                .collect();
            let secs = t.elapsed().as_secs_f64();
            results.sort_by_key(|r| r.0);
            if let Some(rs) = rs {
                tracer.end(rs);
                harness::engine_delta(&mut engine, &before, &sc.metrics().snapshot());
                let c1 = sc.cache_manager().budget_stats();
                traced_cache.0 += c1.evictions - c0.evictions;
                traced_cache.1 += c1.evicted_bytes - c0.evicted_bytes;
                traced_s.push(secs);
            } else {
                plain_s.push(secs);
            }
            for (c, cr) in &results {
                let mut cycle_ms = 0.0;
                for ((class, ms, reply), st) in cr.results.iter().zip(&seqs[*c]) {
                    if *class == WRITE {
                        cycle_ms += ms;
                    } else if !args.trace {
                        rep.samples.push((*class, *ms));
                    }
                    rep.record(reply.clone().and_then(|f| check(st, &f)));
                }
                if !args.trace {
                    rep.samples.push((WRITE, cycle_ms));
                }
            }
            if traced {
                traced_rounds.extend(results.into_iter().map(|r| r.1));
            }
        }
    });
    rep.round_s = plain_s.clone();

    let stats = svc.server.stats();
    let stat = |k| stats.get(k).and_then(Json::as_i64).unwrap_or(-1);
    let evictions = sc.cache_manager().budget_stats().evictions - cache0.evictions;
    rep.floor(
        format!("service_mix: cache evictions > 0 ({evictions} while measuring)"),
        evictions > 0,
    );
    rep.floor(
        format!("service_mix: rejected = 0 ({})", stat("rejected")),
        stat("rejected") == 0,
    );

    if args.trace {
        // Library-layer breakdown of the same read texts through the
        // chain `ctx.sql(t)?.collect()` runs, in a session of the same
        // server context.
        let probe = svc.root.new_session("probe");
        let reads: Vec<Job> = (0..WRITE)
            .filter_map(|c| seqs.iter().flatten().find(|s| s.class == c))
            .map(|st| Job {
                class: st.class,
                text: st.text.clone(),
                check: harness::expect_rows(st.expected.clone(), st.ordered),
                sink: None,
            })
            .collect();
        let lib = Lib {
            ctx: probe.clone(),
            cached: vec![svc.sales.clone()],
            colfiles: Vec::new(),
            input_bytes: 0,
            started: Instant::now(),
        };
        let mut pass = TracedPass::new(&tracer, &lib);
        let mut qid = 0;
        for _ in 0..3 {
            pass.round(&lib, &reads, &mut qid, &mut rep);
        }
        let mut layers = pass.layers(&lib);
        let statements = traced_rounds
            .iter()
            .map(|c| c.results.len())
            .sum::<usize>()
            .max(1) as f64;
        let e = |k| engine.get(k).copied().unwrap_or(0.0) / statements;
        let rounds_f = traced_s.len().max(1) as f64;
        let all = |f: &dyn Fn(&ClientRound) -> Vec<f64>| -> Vec<f64> {
            traced_rounds.iter().flat_map(f).collect()
        };
        let latency = all(&|c| c.results.iter().map(|r| r.1).collect());
        let ok_latency: Vec<f64> = traced_rounds
            .iter()
            .flat_map(|c| c.results.iter().filter(|r| r.2.is_ok()).map(|r| r.1))
            .collect();
        let wall = all(&|c| c.wall_ms.clone());
        let queued = traced_rounds
            .iter()
            .flat_map(|c| &c.results)
            .filter(|r| matches!(&r.2, Ok(f) if f.queued))
            .count() as f64;
        let reply_bytes: f64 = traced_rounds
            .iter()
            .flat_map(|c| &c.results)
            .filter_map(|r| r.2.as_ref().ok())
            .map(|f| {
                Json::Arr(f.rows.iter().cloned().map(Json::Arr).collect())
                    .encode()
                    .len() as f64
            })
            .sum();
        let resident = traced_rounds
            .iter()
            .fold((0, 0), |a, c| (a.0 + c.resident.0, a.1 + c.resident.1));
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let overhead: Vec<f64> = ok_latency.iter().zip(&wall).map(|(l, w)| l - w).collect();
        let submit = all(&|c| c.submit_ms.clone());
        layers.extend([
            ("engine.jobs", e("jobs")),
            ("engine.stages", e("stages")),
            ("engine.tasks", e("tasks")),
            ("engine.task_busy_ms", e("task_ns") / 1e6),
            (
                "engine.slot_idle_frac",
                1.0 - engine.get("task_ns").copied().unwrap_or(0.0)
                    / (traced_s.iter().sum::<f64>() * 1e9 * THREADS as f64).max(1.0),
            ),
            ("engine.shuffle_records_written", e("shuffle_w")),
            ("engine.shuffle_records_read", e("shuffle_r")),
            ("engine.task_failures", e("task_failures") * statements),
            (
                "engine.cache_recomputes",
                e("cache_recomputes") * statements,
            ),
            (
                "cache.hit_ratio",
                resident.0 as f64 / resident.1.max(1) as f64,
            ),
            ("cache.evictions", traced_cache.0 as f64 / rounds_f),
            (
                "cache.evicted_mb",
                traced_cache.1 as f64 / rounds_f / 1048576.0,
            ),
            ("service.submit_ms", mean(&submit)),
            ("service.overhead_ms", mean(&overhead)),
            ("service.queued_frac", queued / latency.len().max(1) as f64),
            ("service.rtt_us", median(&all(&|c| vec![c.rtt_us]))),
            ("service.reply_kb", reply_bytes / statements / 1024.0),
            (
                "trace.overhead_frac",
                median(&traced_s) / median(&plain_s) - 1.0,
            ),
        ]);
        let texts: Vec<&str> = reads.iter().map(|j| j.text.as_str()).collect();
        layers.insert("core.metering_ratio", metering_ratio(&probe, &texts)?);
        rep.layers = layers;
        rep.spans = tracer.snapshot();
    }
    svc.server.stop();
    let _ = std::fs::remove_dir_all(&work);
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_deterministic_per_seed_and_client() {
        let t = tables(3);
        let texts = |seed| -> Vec<Vec<String>> {
            sequences(&tables(seed), seed)
                .into_iter()
                .map(|seq| seq.into_iter().map(|s| s.text).collect())
                .collect()
        };
        assert_eq!(texts(3), texts(3));
        assert_ne!(texts(3), texts(4));
        let seqs = sequences(&t, 3);
        let (seq, other) = (&seqs[0], &seqs[1]);
        assert_ne!(texts(3)[0], texts(3)[1]);
        assert_eq!(seq.len(), READS + 4);
        assert!(seq[..4].iter().all(|s| s.class == WRITE));
        assert!(seq[0]
            .text
            .starts_with("CREATE TEMPORARY TABLE w0 USING memory AS"));
        assert!(other[READS / 2]
            .text
            .starts_with("CREATE TEMPORARY TABLE w1 "));
        for shape in 0..WRITE {
            assert_eq!(
                seq.iter().filter(|s| s.class == shape).count(),
                READS / WRITE
            );
        }
        // Every read text occurs once a round.
        let reads: BTreeSet<&str> = seqs
            .iter()
            .flatten()
            .filter(|s| s.class != WRITE)
            .map(|s| s.text.as_str())
            .collect();
        assert_eq!(reads.len(), READS * THREADS);
    }

    #[test]
    fn wire_values_canonicalise_like_library_values() {
        assert_eq!(canon_json(&Json::Int(42)), harness::canon(&Value::Long(42)));
        assert_eq!(
            canon_json(&Json::Num(2.5)),
            harness::canon(&Value::Double(2.5))
        );
        assert_eq!(canon_json(&Json::Str("g1".into())), "g1");
    }
}
