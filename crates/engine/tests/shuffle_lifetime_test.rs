//! Shuffle output lives as long as some RDD can read it: dropping the
//! last RDD (and with it the last handle on the shuffle dependency)
//! frees the map output and its per-shuffle stats, while a live RDD keeps
//! stage skipping and lineage recovery working.
//!
//! Tests asserting exact stage counters or stored output call
//! `sc.set_chaos(None)` so they stay deterministic under
//! `ENGINE_CHAOS_SEED`.

use engine::metrics::Metrics;
use engine::{ChaosConf, ChaosPlan, HashPartitioner, MaterializedShuffle, PairRdd, SparkContext};
use std::sync::Arc;

fn pairs(sc: &SparkContext) -> engine::RddRef<(i64, i64)> {
    sc.parallelize((0..200i64).map(|i| (i % 10, i)).collect(), 4)
}

#[test]
fn dropping_the_last_rdd_frees_its_shuffles() {
    let sc = SparkContext::new(2);
    sc.set_chaos(None);
    let first = pairs(&sc).reduce_by_key(|a, b| a + b, 3);
    // Two chained shuffles, the second reading the first.
    let second = first
        .map(|(k, v)| (k % 2, v))
        .reduce_by_key(|a, b| a + b, 2);
    assert_eq!(second.collect().len(), 2);
    assert_eq!(sc.shuffle_manager().known_shuffles().len(), 2);
    let ids = sc.shuffle_manager().known_shuffles();
    assert!(sc.metrics().shuffle_stats(ids[0]).records_written > 0);

    // `second` still reaches the first shuffle through its lineage.
    drop(first);
    assert_eq!(sc.shuffle_manager().known_shuffles(), ids);
    drop(second);
    assert!(sc.shuffle_manager().known_shuffles().is_empty());
    for sid in ids {
        assert_eq!(sc.metrics().shuffle_stats(sid), Default::default());
        assert!(!sc.shuffle_manager().ever_complete(sid));
    }
    // The global counters keep their totals.
    assert!(Metrics::get(&sc.metrics().shuffle_records_written) > 0);
}

#[test]
fn a_live_rdd_skips_its_map_stage_on_the_next_action() {
    let sc = SparkContext::new(2);
    sc.set_chaos(None);
    let rdd = pairs(&sc).reduce_by_key(|a, b| a + b, 2);
    let first = rdd.collect();
    let before = Metrics::get(&sc.metrics().stages_run);
    let again = rdd.collect();
    // Result stage only: the map output is still registered.
    assert_eq!(Metrics::get(&sc.metrics().stages_run) - before, 1);
    assert_eq!(again.len(), first.len());
    // `take` runs its own job on the same live RDD: also one stage.
    let before = Metrics::get(&sc.metrics().stages_run);
    assert_eq!(rdd.take(3).len(), 3);
    assert_eq!(Metrics::get(&sc.metrics().stages_run) - before, 1);
}

#[test]
fn materialized_shuffle_reads_keep_output_alive() {
    let sc = SparkContext::new(2);
    sc.set_chaos(None);
    let mat: MaterializedShuffle<i64, i64, i64> = MaterializedShuffle::create(
        &pairs(&sc),
        Arc::new(HashPartitioner::new(4)),
        None,
        false,
        None,
    )
    .expect("materialize");
    let sid = mat.shuffle_id();
    let read = mat.read_all();
    drop(mat);
    // The reader holds the dependency: output stays, and reading it runs
    // no map stage.
    assert_eq!(sc.shuffle_manager().known_shuffles(), vec![sid]);
    let before = Metrics::get(&sc.metrics().stages_run);
    assert_eq!(read.count(), 200);
    assert_eq!(Metrics::get(&sc.metrics().stages_run) - before, 1);
    drop(read);
    assert!(sc.shuffle_manager().known_shuffles().is_empty());
}

#[test]
fn fetch_failure_recovery_still_succeeds() {
    let sc = SparkContext::new(2);
    sc.set_chaos(None);
    let expected = {
        let mut v = pairs(&sc).reduce_by_key(|a, b| a + b, 2).collect();
        v.sort();
        v
    };
    assert!(sc.shuffle_manager().known_shuffles().is_empty());
    sc.metrics().reset();
    sc.set_chaos(Some(Arc::new(ChaosPlan::new(ChaosConf {
        task_fault_prob: 0.0,
        fetch_fault_prob: 1.0,
        max_fetch_failures: 2,
        ..ChaosConf::seeded(17)
    }))));
    let rdd = pairs(&sc).reduce_by_key(|a, b| a + b, 2);
    let mut got = rdd.collect();
    got.sort();
    assert_eq!(got, expected);
    let m = sc.metrics().snapshot();
    assert!(m.fetch_failures >= 1, "a fetch failure must be injected");
    assert!(
        m.map_tasks_recomputed >= 1,
        "lost output must be recomputed"
    );
    drop(rdd);
    assert!(sc.shuffle_manager().known_shuffles().is_empty());
}
