//! `tiered`: a `TieredPool` whose working set exceeds its cache.
//!
//! 16 tables of 512 KB (8 MB) live behind a 2 MB DRAM tier and a 4 MB
//! far-memory tier over a `BlockStore` disk. Half of all accesses go to
//! 4 hot tables. One operation in ten re-`insert`s a table (a write
//! beside the reads); the rest are a 1% filter or a GROUP BY SUM. The
//! cycle of operations is drawn from the seed. Every result, hot or
//! cold, must equal the answer of the same query on the table loaded
//! straight into DRAM, which in turn must agree with `fv_baseline`.

use std::time::{Duration, Instant};

use farview_core::{
    BlockStore, FarviewCluster, FarviewConfig, PipelineSpec, QPair, StorageParams, TieredPool,
};
use fv_baseline::{BaselineKind, CpuEngine};
use fv_data::Table;
use fv_pipeline::{AggFunc, AggSpec, PredicateExpr};
use fv_workload::{TableGen, SELECTIVITY_PIVOT};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::{trimmed_rows, Harness, SETUP_REPS};
use crate::layers::Layers;
use crate::node::count_stats;
use crate::oracle::Expected;
use crate::serve;

const TABLES: usize = 16;
/// 8,192 rows × 64 B = 512 KB per table.
const ROWS: usize = 8192;
const HOT: usize = 4;
const DRAM_BYTES: u64 = 2 << 20;
const FAR_BYTES: u64 = 4 << 20;
/// Operations per cycle.
const CYCLE: usize = 1000;

/// One operation of the cycle.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(usize),
    Query(usize, usize),
}

fn name(t: usize) -> String {
    format!("t{t:02}")
}

fn one_pct() -> PredicateExpr {
    PredicateExpr::lt(1, SELECTIVITY_PIVOT)
}

fn sum_by_key() -> Vec<AggSpec> {
    vec![AggSpec {
        col: 2,
        func: AggFunc::Sum,
    }]
}

/// The two queries: a 1% filter and a GROUP BY SUM.
fn specs() -> Vec<PipelineSpec> {
    vec![
        PipelineSpec::passthrough().filter(one_pct()),
        PipelineSpec::passthrough().group_by(vec![0], sum_by_key()),
    ]
}

/// `fv_baseline`'s answer to query `q` of [`specs`] over `table`.
fn baseline(table: &Table, q: usize) -> Expected {
    let cpu = CpuEngine::new(BaselineKind::Lcpu);
    if q == 0 {
        Expected::exact(cpu.select(table, &one_pct(), None).payload)
    } else {
        let out = cpu.group_by(table, &[0], &sum_by_key());
        Expected::set(out.payload, out.schema.row_bytes())
    }
}

fn cycle(seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7133_ED00);
    (0..CYCLE)
        .map(|_| {
            let t = if rng.gen_bool(0.5) {
                rng.gen_range(0..HOT)
            } else {
                rng.gen_range(0..TABLES)
            };
            if rng.gen_range(0..10u32) == 0 {
                Op::Insert(t)
            } else {
                Op::Query(t, rng.gen_range(0..2usize))
            }
        })
        .collect()
}

/// The hot answer of every (table, query): the table loaded straight
/// into DRAM of a node of its own. Each hot answer is itself checked
/// against `fv_baseline`; the count returned is how many disagree.
fn hot_answers(tables: &[Table], specs: &[PipelineSpec]) -> (Vec<Vec<Vec<u8>>>, u64) {
    let cluster = FarviewCluster::new(FarviewConfig::tiny());
    let qp = cluster.connect().expect("a fresh node has a free region");
    let mut wrong = 0;
    let answers = tables
        .iter()
        .map(|t| {
            let (ft, _) = qp.load_table(t).expect("a table fits");
            let answers = specs
                .iter()
                .enumerate()
                .map(|(q, s)| {
                    let payload = qp.far_view(&ft, s).expect("hot query").payload;
                    wrong += u64::from(!baseline(t, q).matches(&payload));
                    payload
                })
                .collect();
            qp.free_table(ft).expect("free the oracle table");
            answers
        })
        .collect();
    (answers, wrong)
}

fn pool(qp: &QPair, dram: u64, far: u64) -> TieredPool<'_> {
    TieredPool::new(qp, dram, BlockStore::new(StorageParams::default())).with_far_capacity(far)
}

/// Run one operation of the cycle against `pool`, check it and record
/// it (a span per operation, named by whether it hit DRAM).
fn step(
    h: &mut Harness,
    pool: &mut TieredPool<'_>,
    tables: &[Table],
    specs: &[PipelineSpec],
    answers: &[Vec<Vec<u8>>],
    op: Op,
    layers: Option<&mut Layers>,
) {
    let id = h.next_op_id();
    match op {
        Op::Insert(t) => {
            let (res, ns) = h.op(id, || pool.insert(&name(t), &tables[t]));
            record_span(h, "tiered.insert", id, ns);
            h.sample(ns, res.as_ref().map_or(0.0, |d| d.as_micros_f64()));
            h.outcome(1, u64::from(res.is_err()));
        }
        Op::Query(t, q) => {
            let (res, ns) = h.op(id, || pool.query(&name(t), &specs[q]));
            let hit = res.as_ref().is_ok_and(|o| o.buffer_hit);
            record_span(h, if hit { "tiered.hit" } else { "tiered.miss" }, id, ns);
            let ok = res
                .as_ref()
                .is_ok_and(|o| o.outcome.payload == answers[t][q]);
            let sim = res.as_ref().map_or(0.0, |o| o.total_time().as_micros_f64());
            h.sample(ns, sim);
            h.outcome(1, u64::from(!ok));
            if let Ok(o) = &res {
                count_stats(h, &o.outcome.stats);
            }
            if let Some(l) = layers {
                l.replay(h, id, t, &specs[q]);
            }
        }
    }
}

/// A span for the operation that just ended, `ns` long.
fn record_span(h: &mut Harness, name: &'static str, op: u64, ns: u64) {
    let end = Instant::now();
    let start = end - Duration::from_nanos(ns);
    h.tracer.record(name, None, op, start, end);
}

/// Set the `tiered.*` timings from the spans.
fn tiered_times(h: &mut Harness) {
    for (span, metric) in [
        ("tiered.hit", "tiered.hit_ms"),
        ("tiered.miss", "tiered.miss_ms"),
        ("tiered.insert", "tiered.insert_ms"),
    ] {
        let ms = h.tracer.median_self_ns(span) / 1e6;
        h.set_layer(metric, ms);
    }
}

/// Set the `tiered.*` counts from `d`: hits, misses, far spills, disk
/// reads and disk writes over the counted stretch.
fn tiered_counts(h: &mut Harness, d: [f64; 5]) {
    h.set_layer("tiered.hit_rate", d[0] / (d[0] + d[1]).max(1.0));
    h.set_layer("tiered.far_spills", d[2]);
    h.set_layer("tiered.disk_reads", d[3]);
    h.set_layer("tiered.disk_writes", d[4]);
}

const COUNTS: [&str; 5] = [
    "tiered.hits",
    "tiered.misses",
    "tiered.far_spills",
    "tiered.disk_reads",
    "tiered.disk_writes",
];

fn counts(pool: &TieredPool<'_>) -> [u64; 5] {
    let (hits, misses) = pool.hit_stats();
    let (reads, writes) = pool.io_counts();
    [hits, misses, pool.far_spills(), reads, writes]
}

pub fn run(h: &mut Harness) {
    let tables: Vec<Table> = (0..TABLES)
        .map(|t| {
            TableGen::new(8, trimmed_rows(ROWS, h.seed, t as u64))
                .seed(h.seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9))
                .distinct_column(0, 64)
                .selectivity_column(1, 0.01)
                .sequential_column(2)
                .build()
        })
        .collect();
    let specs = specs();
    let ops = cycle(h.seed);
    let (answers, wrong) = hot_answers(&tables, &specs);
    h.outcome((tables.len() * specs.len()) as u64, wrong);

    // The pool borrows its connection, so each set-up keeps its node and
    // connection in this scope and the last one stays for the timed loop.
    for rep in 0..SETUP_REPS {
        let t0 = h.setup_start();
        let cluster = h.node_init(1, || FarviewCluster::new(FarviewConfig::default()));
        let qp = cluster.connect().expect("a fresh node has a free region");
        let mut pool = pool(&qp, DRAM_BYTES, FAR_BYTES);
        for (t, table) in tables.iter().enumerate() {
            pool.insert(&name(t), table)
                .expect("a named table registers");
        }
        // Warm-up: one untimed cycle.
        for &op in &ops {
            step(h, &mut pool, &tables, &specs, &answers, op, None);
        }
        h.setup_end(t0);
        if rep + 1 < SETUP_REPS {
            continue;
        }
        let mut layers = h.traced_run().then(|| Layers::new(tables.clone()));
        // The count phase is the first cycle `measure` runs.
        let before = counts(&pool);
        h.measure(ops.len(), &mut |h, i| {
            let episodes = if h.counting() {
                cluster.episodes_run()
            } else {
                0
            };
            step(
                h,
                &mut pool,
                &tables,
                &specs,
                &answers,
                ops[i],
                layers.as_mut(),
            );
            if h.counting() {
                h.count("fleet.episodes", (cluster.episodes_run() - episodes) as f64);
                if i + 1 == ops.len() {
                    let now = counts(&pool);
                    for (k, name) in COUNTS.into_iter().enumerate() {
                        h.count(name, (now[k] - before[k]) as f64);
                    }
                }
            }
        });
        if let Some(l) = &layers {
            l.finish(h);
            // Timings from the traced spans, counts from the count phase.
            tiered_times(h);
            let d = COUNTS.map(|name| h.counter(name));
            tiered_counts(h, d);
            let per_table: Vec<Vec<PipelineSpec>> = vec![specs.clone(); TABLES];
            serve::probe(h, &tables, &per_table);
        }
    }
}

/// Measure the tiered layer on a workload whose own path does not cross
/// it. Each table is registered twice under a DRAM budget of one table,
/// then queried twice per copy in turn, so every copy misses once and
/// hits once per round.
pub fn probe(h: &mut Harness, tables: &[Table], queries: &[Vec<PipelineSpec>]) {
    let budget = tables
        .iter()
        .map(|t| t.byte_len() as u64)
        .max()
        .unwrap_or(0);
    let cluster = FarviewCluster::new(FarviewConfig::default());
    let qp = cluster.connect().expect("a fresh node has a free region");
    let mut pool = pool(&qp, budget, budget);
    h.tracer.resume();
    let before = counts(&pool);
    for round in 0..3 {
        for (t, (table, specs)) in tables.iter().zip(queries).enumerate() {
            if specs.is_empty() {
                continue;
            }
            for copy in ["a", "b"] {
                let name = format!("t{t}{copy}");
                let op = h.next_op_id();
                if round == 0 {
                    let t0 = Instant::now();
                    pool.insert(&name, table).expect("a named table registers");
                    h.tracer
                        .record("tiered.insert", None, op, t0, Instant::now());
                }
                for _ in 0..2 {
                    let spec = &specs[round % specs.len()];
                    let t0 = Instant::now();
                    let out = pool.query(&name, spec).expect("a registered table");
                    let span = if out.buffer_hit {
                        "tiered.hit"
                    } else {
                        "tiered.miss"
                    };
                    h.tracer.record(span, None, op, t0, Instant::now());
                }
            }
        }
    }
    h.tracer.stop();
    tiered_times(h);
    let now = counts(&pool);
    tiered_counts(h, std::array::from_fn(|k| (now[k] - before[k]) as f64));
}
