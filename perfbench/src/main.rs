//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <amplab|short_sql|service_mix|etl_spill> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off;
//! with `--trace 1` it times the calls into each layer from outside and
//! reports the per-layer metrics, writing a Chrome trace-event file.
//! Every answer is checked. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/DESIGN.md` for the workloads and metric definitions.

mod amplab;
mod etl_spill;
mod gen;
mod harness;
mod service_mix;
mod short_sql;
mod stats;
mod trace;

use harness::{Args, Report};

/// Per-layer metrics reported by `--trace 1`: name, unit, better.
pub const PER_LAYER: [(&str, &str, &str); 38] = [
    ("sql.parse_us", "us", "lower"),
    ("catalyst.analyze_us", "us", "lower"),
    ("catalyst.plan_us", "us", "lower"),
    ("catalyst.plan_share", "ratio", "lower"),
    ("catalyst.rule_applications", "count", "lower"),
    ("catalyst.rule_fire_ratio", "ratio", "higher"),
    ("core.lower_us", "us", "lower"),
    ("core.run_ms", "ms", "lower"),
    ("core.metering_ratio", "ratio", "lower"),
    ("engine.jobs", "count", "lower"),
    ("engine.stages", "count", "lower"),
    ("engine.tasks", "count", "lower"),
    ("engine.task_busy_ms", "ms", "lower"),
    ("engine.slot_idle_frac", "ratio", "lower"),
    ("engine.shuffle_records_written", "count", "lower"),
    ("engine.shuffle_records_read", "count", "lower"),
    ("engine.task_failures", "count", "lower"),
    ("engine.cache_recomputes", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.evicted_mb", "MB", "lower"),
    ("cache.build_ms", "ms", "lower"),
    ("cache.bytes_per_row", "B", "lower"),
    ("spill.count", "count", "lower"),
    ("spill.mb", "MB", "lower"),
    ("memory.peak_frac", "ratio", "lower"),
    ("spill.files_leaked", "count", "lower"),
    ("colfile.groups_read", "count", "lower"),
    ("colfile.open_ms", "ms", "lower"),
    ("colfile.write_ms", "ms", "lower"),
    ("colfile.write_bytes_per_input_byte", "ratio", "lower"),
    ("service.submit_ms", "ms", "lower"),
    ("service.overhead_ms", "ms", "lower"),
    ("service.queued_frac", "ratio", "lower"),
    ("service.rtt_us", "us", "lower"),
    ("service.reply_kb", "KB", "lower"),
    ("host.calib_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
];

const WORKLOADS: [&str; 4] = ["amplab", "short_sql", "service_mix", "etl_spill"];

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; known: {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: match num("--trace")? {
            0 => false,
            1 => true,
            _ => return Err("--trace is 0 or 1".to_string()),
        },
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A metric value as JSON, with all its digits.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let calib_before = harness::calib_ms();
    let result: Result<Report, String> = match args.workload.as_str() {
        "amplab" => amplab::run(&args),
        "short_sql" => short_sql::run(&args),
        "service_mix" => service_mix::run(&args),
        _ => etl_spill::run(&args),
    };
    let calib_after = harness::calib_ms();
    let peak_rss_mb = harness::peak_rss_mb();
    let mut rep = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let calib = (calib_before + calib_after) / 2.0;
    let classes = rep.classes.len();
    let failed_frac = rep.failed as f64 / rep.attempted.max(1) as f64;
    let tail = stats::tail_ratio(&rep.samples, classes);

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        rep.layers.insert("host.calib_ms", calib);
        for (name, unit, _) in PER_LAYER {
            metrics.push((name, rep.layers.get(name).copied().unwrap_or(0.0), unit));
        }
        let path = std::path::Path::new(".perfbench_out")
            .join(format!("trace_{}_seed{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(".perfbench_out")
            .and_then(|_| std::fs::write(&path, trace::chrome_json(&rep.spans)));
        match written {
            Ok(()) => println!("# trace {} ({} spans)", path.display(), rep.spans.len()),
            Err(e) => eprintln!("perfbench: cannot write trace: {e}"),
        }
    } else {
        metrics.push(("setup_s", stats::median(&rep.setup_s), "s"));
        // Whole rounds are the unit of work: queries per round over the
        // median round time.
        metrics.push((
            "throughput_qps",
            rep.per_round as f64 / stats::median(&rep.round_s).max(1e-9),
            "1/s",
        ));
        metrics.push((
            "class_p50_ms",
            stats::class_p50(&rep.samples, classes),
            "ms",
        ));
        metrics.push(("tail_ratio", tail.value, "ratio"));
        metrics.push(("peak_rss_mb", peak_rss_mb, "MB"));
    }

    // The run record, then every metric by name with its unit.
    let conf: Vec<String> = rep
        .conf
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    println!(
        "# run {{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"threads\":{},\"host.calib_ms\":[{},{}],\"setup_s\":[{}],\"round_s\":[{}],\"conf\":{{{}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        harness::THREADS,
        json_num(calib_before),
        json_num(calib_after),
        rep.setup_s.iter().map(|s| json_num(*s)).collect::<Vec<_>>().join(","),
        rep.round_s.iter().map(|s| json_num(*s)).collect::<Vec<_>>().join(","),
        conf.join(",")
    );
    for (name, value, unit) in &metrics {
        println!("# {:<36} {:>14.6} {}", name, value, unit);
    }
    if !args.trace {
        println!(
            "# {:<36} {:>14.6} ratio ({} of {})",
            "failed_frac", failed_frac, rep.failed, rep.attempted
        );
        println!(
            "# tail_ratio is p{} of {} latency/class-median samples; {} rounds, {} classes",
            tail.percentile, tail.samples, rep.rounds, classes
        );
    }
    for e in &rep.errors {
        eprintln!("perfbench: failed query: {e}");
    }
    let mut floors_ok = true;
    for (what, ok) in &rep.floors {
        println!("# floor {} {}", if *ok { "ok  " } else { "FAIL" }, what);
        floors_ok &= ok;
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        rep.failed == 0 && floors_ok,
        rep.attempted,
        rep.failed,
        body.join(",")
    );
    if !floors_ok {
        eprintln!(
            "perfbench: a mechanism floor failed: the workload no longer exercises its layer"
        );
        std::process::exit(3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Workloads that run from the command line but are left out of the
    /// benchmark record: `short_sql` was not steady on a 2-core host
    /// whose speed drifts (see `perfbench/DESIGN.md`).
    const OFF_RECORD: [&str; 1] = ["short_sql"];

    /// The metric and workload names printed here are the ones the
    /// benchmark record at the repository root declares.
    #[test]
    fn names_match_the_benchmark_record() {
        let record = include_str!("../../BENCHMARK.json");
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(record.contains(&entry), "{entry} missing");
        }
        for w in WORKLOADS {
            assert_eq!(
                record.contains(&format!("{{\"name\": \"{w}\", \"why\"")),
                !OFF_RECORD.contains(&w),
                "{w}"
            );
        }
        for m in [
            "setup_s",
            "throughput_qps",
            "class_p50_ms",
            "tail_ratio",
            "peak_rss_mb",
        ] {
            assert!(
                record.contains(&format!("{{\"name\": \"{m}\", \"unit\"")),
                "{m}"
            );
        }
        assert_eq!(record.matches("\"better\"").count(), PER_LAYER.len() + 5);
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_num(0.1234567891234), "0.1234567891234");
        assert_eq!(json_num(2.0), "2.0");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
