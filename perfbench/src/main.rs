//! Host wall-clock benchmark of the Farview reproduction.
//!
//! ```text
//! perfbench --workload <scan|operators|serve|tiered> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer ones. The
//! end-to-end timings are host wall times scaled to a nominal host speed
//! read off a reference kernel run beside the operations (see
//! [`speed`]). The line before the result records the host (processor
//! count, kernel, load, steal ticks), the run (sample counts,
//! window-median spread, the factors to the nominal host) and the
//! timings before they were scaled. A traced
//! run also prints its deterministic counters and writes its spans to
//! `.bench_trace/<workload>-<seed>.tsv`.
//!
//! Every result is checked against an answer computed outside the
//! engine; a wrong result counts against `success_rate`, sets `correct`
//! to false and makes the run exit with code 1.

mod harness;
mod host;
mod layers;
mod node;
mod oracle;
mod serve;
mod speed;
mod stats;
mod tiered;
mod trace;

use std::process::ExitCode;

use harness::Harness;

/// End-to-end metrics and their units, in output order.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
    ("sim_p50_us", "us"),
    ("sim_p99_us", "us"),
];

/// Per-layer metrics and their units, in output order.
const PER_LAYER: [(&str, &str); 33] = [
    ("mem.node_init_ms", "ms"),
    ("mem.gather_ms", "ms"),
    ("mem.bytes_gathered_per_query", "B"),
    ("host.minor_faults_per_query", "count"),
    ("host.minor_faults_setup", "count"),
    ("pipeline.compile_us", "us"),
    ("pipeline.stream_ms", "ms"),
    ("pipeline.tuples_per_s", "1/s"),
    ("pipeline.selectivity", "ratio"),
    ("pipeline.batched_blocks", "count"),
    ("episode.run_ms", "ms"),
    ("episode.sim_events_per_query", "count"),
    ("net.packets_per_query", "count"),
    ("net.wire_bytes_per_query", "B"),
    ("client.result_bytes_per_query", "B"),
    ("plan.optimize_us", "us"),
    ("fleet.merge_us", "us"),
    ("fleet.episodes_per_query", "ratio"),
    ("serve.backend_ms", "ms"),
    ("serve.scheduler_self_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.deadline_missed", "count"),
    ("tiered.hit_rate", "ratio"),
    ("tiered.hit_ms", "ms"),
    ("tiered.miss_ms", "ms"),
    ("tiered.insert_ms", "ms"),
    ("tiered.far_spills", "count"),
    ("tiered.disk_reads", "count"),
    ("tiered.disk_writes", "count"),
    ("colimage.encode_ms", "ms"),
    ("colimage.open_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Replay spans reported as a per-layer median self time: (span, metric,
/// ns per unit).
const SPAN_METRICS: [(&str, &str, f64); 8] = [
    ("mem.gather", "mem.gather_ms", 1e6),
    ("pipeline.compile", "pipeline.compile_us", 1e3),
    ("pipeline.stream", "pipeline.stream_ms", 1e6),
    ("episode.run", "episode.run_ms", 1e6),
    ("plan.optimize", "plan.optimize_us", 1e3),
    ("fleet.merge", "fleet.merge_us", 1e3),
    ("colimage.encode", "colimage.encode_ms", 1e6),
    ("colimage.open", "colimage.open_us", 1e3),
];

const USAGE: &str =
    "usage: perfbench --workload <scan|operators|serve|tiered> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.0),
        trace: trace.unwrap_or(false),
    })
}

fn json_metrics(values: &[(&str, f64)], units: &[(&str, &str)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(name, v)| {
            let unit = units
                .iter()
                .find(|(n, _)| n == name)
                .map_or("", |(_, u)| *u);
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order.
fn per_layer(h: &Harness) -> Result<Vec<(&'static str, f64)>, String> {
    let mut found: Vec<(&'static str, f64)> = h.harness_layers();
    for (span, metric, per) in SPAN_METRICS {
        found.push((metric, h.tracer.median_self_ns(span) / per));
    }
    let queries = h.counter("queries").max(1.0);
    let replays = h.counter("replay.queries").max(1.0);
    let per_query = |name| h.counter(name) / queries;
    found.extend([
        (
            "mem.bytes_gathered_per_query",
            h.counter("mem.bytes_gathered") / replays,
        ),
        (
            "pipeline.selectivity",
            h.counter("pipeline.tuples_out") / h.counter("pipeline.tuples_in").max(1.0),
        ),
        (
            "pipeline.batched_blocks",
            h.counter("pipeline.batched_blocks") / replays,
        ),
        (
            "episode.sim_events_per_query",
            per_query("episode.sim_events"),
        ),
        ("net.packets_per_query", per_query("net.packets")),
        ("net.wire_bytes_per_query", per_query("net.wire_bytes")),
        (
            "client.result_bytes_per_query",
            per_query("client.result_bytes"),
        ),
        ("fleet.episodes_per_query", per_query("fleet.episodes")),
    ]);
    found.extend(h.layers().iter().map(|(k, v)| (*k, *v)));
    PER_LAYER
        .iter()
        .map(|(name, _)| {
            found
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| (*name, v))
                .ok_or(format!("per-layer metric {name} was not measured"))
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut h = Harness::new(args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "scan" => node::scan(&mut h),
        "operators" => node::operators(&mut h),
        "serve" => serve::run(&mut h),
        "tiered" => tiered::run(&mut h),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    }

    let metrics = if args.trace {
        let path = format!(".bench_trace/{}-{}.tsv", args.workload, args.seed);
        if let Err(e) = h.tracer.write_tsv(std::path::Path::new(&path)) {
            eprintln!("cannot write {path}: {e}");
        }
        let counters: Vec<(&str, f64)> = h
            .counters()
            .iter()
            .map(|(k, v)| (*k, *v))
            .chain(
                h.end_to_end()
                    .into_iter()
                    .filter(|(n, _)| n.starts_with("sim_")),
            )
            .chain(
                h.harness_layers()
                    .into_iter()
                    .filter(|(n, _)| *n == "host.minor_faults_setup"),
            )
            .collect();
        println!("{{\"counters\": {}}}", json_metrics(&counters, &[]));
        match per_layer(&h) {
            Ok(values) => json_metrics(&values, &PER_LAYER),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(3);
            }
        }
    } else {
        json_metrics(&h.end_to_end(), &END_TO_END)
    };
    println!("{}", h.host_json());
    let correct = h.failed() == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        h.attempted(),
        h.failed()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
