//! The single-node workloads, `scan` and `operators`: one node of the
//! default configuration, tables loaded into its DRAM, and a fixed cycle
//! of `farView` queries issued by one closed-loop client.

use farview_core::{FTable, FarviewCluster, FarviewConfig, PipelineSpec, QPair, QueryStats};
use fv_baseline::{BaselineKind, CpuEngine};
use fv_data::Table;
use fv_pipeline::{AggFunc, AggSpec, JoinSmallSpec, PredicateExpr};
use fv_workload::{StringTableGen, TableGen, REGEX_PATTERN, SELECTIVITY_PIVOT};

use crate::harness::{trimmed_rows, Harness, SETUP_REPS};
use crate::layers::Layers;
use crate::oracle::Expected;
use crate::{serve, tiered};

/// One query of a workload's cycle: which table, what to run, and the
/// answer computed by `fv_baseline`.
pub struct Query {
    pub table: usize,
    pub spec: PipelineSpec,
    pub expected: Expected,
}

/// `scan`: a 4 MB table (65,536 rows of 8 × u64 less up to 63, fits in
/// node DRAM); the
/// cycle is a passthrough `tableRead`, a filter keeping half the rows and
/// a smart-addressing projection of 2 of the 8 columns. The seed draws
/// the table's values; the query shapes, and so the bytes each moves,
/// stay the same from seed to seed.
pub fn scan(h: &mut Harness) {
    let table = TableGen::new(8, trimmed_rows(65_536, h.seed, 1))
        .seed(h.seed)
        .selectivity_column(1, 0.5)
        .build();
    let cpu = CpuEngine::new(BaselineKind::Lcpu);
    let pred = PredicateExpr::lt(1, SELECTIVITY_PIVOT);
    // Two non-adjacent columns: two gather segments per row.
    let cols = vec![2, 5];
    let queries = vec![
        Query {
            table: 0,
            spec: PipelineSpec::passthrough(),
            expected: Expected::exact(cpu.raw_read(&table).payload),
        },
        Query {
            table: 0,
            spec: PipelineSpec::passthrough().filter(pred.clone()),
            expected: Expected::exact(cpu.select(&table, &pred, None).payload),
        },
        Query {
            table: 0,
            spec: PipelineSpec::passthrough()
                .project(cols.clone())
                .with_smart_addressing(),
            expected: Expected::exact(
                cpu.select(&table, &PredicateExpr::True, Some(&cols))
                    .payload,
            ),
        },
    ];
    run(h, vec![table], queries);
}

/// `operators`: a 4 MB fact table clustered on column 0 (runs of 64 rows
/// over 1,024 keys) and a 1 MB string table; the cycle is DISTINCT,
/// GROUP BY SUM, a join against a 64-row build table, a regex match and
/// a 1% filter. Results are small, so operator kernels dominate.
pub fn operators(h: &mut Harness) {
    let fact = TableGen::new(8, trimmed_rows(65_536, h.seed, 2))
        .seed(h.seed)
        .clustered_column(0, 1024, 64)
        .selectivity_column(1, 0.01)
        .sequential_column(2)
        .build();
    let strings = StringTableGen::new(16_384, 56)
        .match_fraction(0.1)
        .seed(h.seed ^ 0x5EED_0F57)
        .build();
    let build = TableGen::new(2, 64)
        .seed(h.seed ^ 0xB111_D000)
        .sequential_column(0)
        .build();
    let cpu = CpuEngine::new(BaselineKind::Lcpu);
    let sum = vec![AggSpec {
        col: 2,
        func: AggFunc::Sum,
    }];
    let one_pct = PredicateExpr::lt(1, SELECTIVITY_PIVOT);
    let distinct = cpu.distinct(&fact, &[0]);
    let grouped = cpu.group_by(&fact, &[0], &sum);
    let queries = vec![
        Query {
            table: 0,
            spec: PipelineSpec::passthrough().distinct(vec![0]),
            expected: Expected::set(distinct.payload, distinct.schema.row_bytes()),
        },
        Query {
            table: 0,
            spec: PipelineSpec::passthrough().group_by(vec![0], sum.clone()),
            expected: Expected::set(grouped.payload, grouped.schema.row_bytes()),
        },
        Query {
            table: 0,
            spec: PipelineSpec::passthrough().join_small(JoinSmallSpec::new(0, &build, 0)),
            expected: Expected::exact(cpu.join_small(&fact, 0, &build, 0).payload),
        },
        Query {
            table: 1,
            spec: PipelineSpec::passthrough().regex_match(1, REGEX_PATTERN),
            expected: Expected::exact(cpu.regex_match(&strings, 1, REGEX_PATTERN).payload),
        },
        Query {
            table: 0,
            spec: PipelineSpec::passthrough().filter(one_pct.clone()),
            expected: Expected::exact(cpu.select(&fact, &one_pct, None).payload),
        },
    ];
    run(h, vec![fact, strings], queries);
}

/// Count the deterministic counters of one completed query.
pub fn count_stats(h: &mut Harness, s: &QueryStats) {
    h.count("queries", 1.0);
    h.count("episode.sim_events", s.sim_events as f64);
    h.count("net.packets", s.packets as f64);
    h.count("net.wire_bytes", s.bytes_on_wire as f64);
    h.count("client.result_bytes", s.result_bytes as f64);
    h.count("mem.bytes_from_memory", s.bytes_from_memory as f64);
    h.count("pipeline.tuples_in", s.tuples_in as f64);
    h.count("pipeline.tuples_out", s.tuples_out as f64);
}

fn bring_up(
    h: &mut Harness,
    tables: &[Table],
    queries: &[Query],
) -> (FarviewCluster, Vec<FTable>, QPair) {
    let cluster = h.node_init(1, || FarviewCluster::new(FarviewConfig::default()));
    let qp = cluster.connect().expect("a fresh node has a free region");
    let fts: Vec<FTable> = tables
        .iter()
        .map(|t| qp.load_table(t).expect("the tables fit the node").0)
        .collect();
    // Warm-up: one untimed cycle.
    for q in queries {
        let out = qp.far_view(&fts[q.table], &q.spec);
        let ok = out.is_ok_and(|o| q.expected.matches(&o.payload));
        h.outcome(1, u64::from(!ok));
    }
    (cluster, fts, qp)
}

fn run(h: &mut Harness, tables: Vec<Table>, queries: Vec<Query>) {
    let mut live = None;
    for _ in 0..SETUP_REPS {
        // Tear the previous node down first: one node's memory at a time.
        drop(live.take());
        let t0 = h.setup_start();
        live = Some(bring_up(h, &tables, &queries));
        h.setup_end(t0);
    }
    let (cluster, fts, qp) = live.expect("at least one set-up");
    let mut layers = h.traced_run().then(|| Layers::new(tables.clone()));

    h.measure(queries.len(), &mut |h, i| {
        let q = &queries[i];
        let op = h.next_op_id();
        let episodes = if h.counting() {
            cluster.episodes_run()
        } else {
            0
        };
        let (res, ns) = h.op(op, || qp.far_view(&fts[q.table], &q.spec));
        let ok = res.as_ref().is_ok_and(|o| q.expected.matches(&o.payload));
        let sim = res
            .as_ref()
            .map_or(0.0, |o| o.stats.response_time.as_micros_f64());
        h.sample(ns, sim);
        h.outcome(1, u64::from(!ok));
        if h.counting() {
            if let Ok(out) = &res {
                count_stats(h, &out.stats);
            }
            h.count("fleet.episodes", (cluster.episodes_run() - episodes) as f64);
        }
        if let Some(l) = layers.as_mut() {
            l.replay(h, op, q.table, &q.spec);
        }
    });

    if let Some(l) = &layers {
        l.finish(h);
        // The serving and tiered layers are not on this workload's path:
        // measure them with short probes over its own tables and queries.
        let per_table: Vec<Vec<PipelineSpec>> = (0..tables.len())
            .map(|t| {
                queries
                    .iter()
                    .filter(|q| q.table == t)
                    .map(|q| q.spec.clone())
                    .collect()
            })
            .collect();
        serve::probe(h, &tables, &per_table);
        tiered::probe(h, &tables, &per_table);
    }
}
