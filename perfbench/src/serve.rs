//! `serve`: the multi-tenant serving layer over a four-node fleet.
//!
//! `ServeEngine` schedules a 12-tenant `TenantMixGen` mix (every third
//! tenant over-demands 4× its contract) onto a `FleetBackend`: four
//! nodes, each tenant's 4,096-row table split by row range with two
//! replicas, offered load 2.0 (below the knee, so nothing is shed). One
//! operation of the closed loop is one serving round over a fixed
//! virtual horizon; consecutive rounds of a cycle take seeds derived
//! from the workload seed, which also draws the tables. Each query's host wall is timed around the
//! backend's `execute`, from submit to merged result.

use std::time::Instant;

use farview_core::{
    FarviewCluster, FarviewConfig, FarviewFleet, FleetBackend, FvError, Partitioning, PipelineSpec,
    QueryOutcome, QueryStats, ServeBackend, ServeClass, ServeConfig, ServeEngine, ServeTenant,
    SingleNodeBackend,
};
use fv_data::Table;
use fv_sim::SimDuration;
use fv_workload::{TableGen, TenantMixGen};

use crate::harness::{trimmed_rows, Harness, SETUP_REPS};
use crate::host;
use crate::layers::Layers;
use crate::node::count_stats;
use crate::tiered;

const TENANTS: usize = 12;
const ROWS_PER_TENANT: usize = 4096;
const NODES: usize = 4;
const REPLICAS: usize = 2;
const LOAD: f64 = 2.0;
/// Virtual time one serving round covers.
const HORIZON: SimDuration = SimDuration::from_millis(5);
/// Rounds per cycle, each with its own derived seed.
const ROUNDS_PER_CYCLE: usize = 4;

/// One backend call, as the timing wrapper saw it.
struct Exec {
    start: Instant,
    end: Instant,
    tenant: u32,
    stats: Option<QueryStats>,
    /// The query, kept only in traced runs for the layer replays.
    spec: Option<PipelineSpec>,
}

/// A `ServeBackend` that times every `execute` of the backend it wraps.
struct Timed<'a, B: ServeBackend> {
    inner: &'a mut B,
    log: &'a mut Vec<Exec>,
    keep_specs: bool,
}

impl<B: ServeBackend> ServeBackend for Timed<'_, B> {
    fn execute(&mut self, tenant: u32, query: &PipelineSpec) -> Result<QueryOutcome, FvError> {
        let start = Instant::now();
        let out = self.inner.execute(tenant, query);
        let end = Instant::now();
        self.log.push(Exec {
            start,
            end,
            tenant,
            stats: out.as_ref().ok().map(|o| o.stats),
            spec: self.keep_specs.then(|| query.clone()),
        });
        out
    }

    fn cost(&self, tenant: u32) -> u64 {
        self.inner.cost(tenant)
    }
}

fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        servers: 2,
        queue_capacity: 8,
        bucket_qps_per_weight: 100_000.0,
        load: LOAD,
        horizon: HORIZON,
        seed,
        keep_payloads: true,
        ..ServeConfig::default()
    }
}

fn round_seed(seed: u64, round: usize) -> u64 {
    seed ^ (round as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The result of one round: what completed and what failed for good.
struct Round {
    completed: Vec<(u32, usize, Vec<u8>)>,
    failed: u64,
    rejected: u64,
    shed: u64,
    deadline_missed: u64,
}

/// Run one serving round over `backend`, timing the round and every
/// backend call. In the traced phase the round and its calls become
/// spans (`serve.run`, child `serve.backend`) and every call is replayed
/// through the layers.
fn round<B: ServeBackend>(
    h: &mut Harness,
    tenants: &[ServeTenant],
    backend: &mut B,
    config: ServeConfig,
    layers: Option<&mut Layers>,
) -> Round {
    let mut log = Vec::new();
    let timed = Timed {
        inner: backend,
        log: &mut log,
        keep_specs: h.tracing(),
    };
    let engine = ServeEngine::new(tenants, config, timed).expect("a runnable serving config");
    let faults = if h.counting() {
        host::minor_faults()
    } else {
        0
    };
    let start = Instant::now();
    let report = engine.run();
    let end = Instant::now();
    h.timed((end - start).as_nanos() as u64);
    if h.counting() {
        h.count("host.minor_faults", (host::minor_faults() - faults) as f64);
    }

    let op = h.next_op_id();
    let root = h.tracer.record("serve.run", None, op, start, end);
    for e in &log {
        h.tracer.record("serve.backend", root, op, e.start, e.end);
        let sim = e.stats.map_or(0.0, |s| s.response_time.as_micros_f64());
        h.sample((e.end - e.start).as_nanos() as u64, sim);
        if let Some(s) = &e.stats {
            count_stats(h, s);
        }
    }
    if let Some(l) = layers {
        for e in &log {
            if let Some(spec) = &e.spec {
                l.replay(h, op, e.tenant as usize, spec);
            }
        }
    }
    Round {
        completed: report
            .completions
            .into_iter()
            .map(|c| (c.tenant, c.query_idx, c.payload))
            .collect(),
        failed: report.abandoned + report.deadline_missed + report.exec_failed,
        rejected: report.rejected,
        shed: report.shed,
        deadline_missed: report.deadline_missed,
    }
}

fn tenant_tables(seed: u64) -> Vec<Table> {
    (0..TENANTS)
        .map(|t| {
            TableGen::new(8, trimmed_rows(ROWS_PER_TENANT, seed, t as u64))
                .seed(seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9))
                .distinct_column(0, 32)
                .selectivity_column(1, 0.5)
                .sequential_column(2)
                .build()
        })
        .collect()
}

/// Every tenant query's answer from a single node: the oracle a
/// row-range fleet must match byte for byte.
fn single_node_answers(tables: &[Table], tenants: &[ServeTenant]) -> Vec<Vec<Vec<u8>>> {
    let cluster = FarviewCluster::new(FarviewConfig::tiny());
    let qp = cluster.connect().expect("a fresh node has a free region");
    tenants
        .iter()
        .map(|t| {
            let (ft, _) = qp
                .load_table(&tables[t.id as usize])
                .expect("a tenant table fits");
            let answers = t
                .queries
                .iter()
                .map(|q| qp.far_view(&ft, q).expect("oracle query").payload)
                .collect();
            qp.free_table(ft).expect("free the oracle table");
            answers
        })
        .collect()
}

struct Fleet {
    fleet: FarviewFleet,
    backend: FleetBackend,
}

fn bring_up(h: &mut Harness, tables: &[Table], tenants: &[ServeTenant]) -> Fleet {
    let fleet = h.node_init(NODES, || FarviewFleet::new(NODES, FarviewConfig::default()));
    let mut backend = FleetBackend::new(fleet.connect().expect("a fresh fleet connects"));
    for t in tenants {
        let table = &tables[t.id as usize];
        let (ft, _) = backend
            .load_table_replicated(table, Partitioning::RowRange, REPLICAS)
            .expect("the tenant tables fit the fleet");
        backend.bind_tenant(t.id, ft, table.byte_len() as u64);
    }
    Fleet { fleet, backend }
}

fn episodes(fleet: &FarviewFleet) -> u64 {
    (0..fleet.node_count())
        .filter_map(|i| fleet.node(i).ok())
        .map(|n| n.episodes_run())
        .sum()
}

fn check(h: &mut Harness, answers: &[Vec<Vec<u8>>], r: &Round) {
    let wrong = r
        .completed
        .iter()
        .filter(|(t, q, payload)| answers[*t as usize][*q] != *payload)
        .count() as u64;
    h.outcome(r.completed.len() as u64 + r.failed, wrong + r.failed);
}

pub fn run(h: &mut Harness) {
    // The mix (classes, weights, query shapes) is the workload's fixed
    // definition, the overload experiment's; the seed draws the tables
    // and each round's arrival jitter. A mix drawn per seed would move
    // the per-query cost from seed to seed.
    let mix = TenantMixGen::new(TENANTS)
        .queries_per_tenant(6)
        .overdemand(3, 4)
        .seed(fv_bench::OVERLOAD_BENCH_SEED)
        .build();
    let tenants = fv_bench::serve_tenants(&mix);
    let tables = tenant_tables(h.seed);
    let answers = single_node_answers(&tables, &tenants);

    let mut live: Option<Fleet> = None;
    for _ in 0..SETUP_REPS {
        drop(live.take());
        let t0 = h.setup_start();
        let mut f = bring_up(h, &tables, &tenants);
        // Warm-up: one untimed round.
        let r = round(h, &tenants, &mut f.backend, serve_config(h.seed), None);
        check(h, &answers, &r);
        live = Some(f);
        h.setup_end(t0);
    }
    let Fleet { fleet, mut backend } = live.expect("at least one set-up");
    let mut layers = h.traced_run().then(|| Layers::new(tables.clone()));

    h.measure(ROUNDS_PER_CYCLE, &mut |h, i| {
        let before = if h.counting() { episodes(&fleet) } else { 0 };
        let config = serve_config(round_seed(h.seed, i));
        let r = round(h, &tenants, &mut backend, config, layers.as_mut());
        check(h, &answers, &r);
        if h.counting() {
            h.count("fleet.episodes", (episodes(&fleet) - before) as f64);
            h.count("serve.rejected", r.rejected as f64);
            h.count("serve.shed", r.shed as f64);
            h.count("serve.deadline_missed", r.deadline_missed as f64);
        }
    });
    if let Some(l) = &layers {
        l.finish(h);
        serve_times(h);
        for name in ["serve.rejected", "serve.shed", "serve.deadline_missed"] {
            let v = h.counter(name);
            h.set_layer(name, v);
        }
        let per_table: Vec<Vec<PipelineSpec>> = tenants.iter().map(|t| t.queries.clone()).collect();
        tiered::probe(h, &tables, &per_table);
    }
}

/// Set the `serve.*` timings from the spans.
fn serve_times(h: &mut Harness) {
    let backend = h.tracer.median_self_ns("serve.backend") / 1e6;
    let scheduler = h.tracer.median_self_ns("serve.run") / 1e6;
    h.set_layer("serve.backend_ms", backend);
    h.set_layer("serve.scheduler_self_ms", scheduler);
}

/// Measure the serving layer on a workload whose own path does not
/// cross it: one tenant per table, querying it with the workload's own
/// queries, through a `SingleNodeBackend` over a fresh node.
pub fn probe(h: &mut Harness, tables: &[Table], queries: &[Vec<PipelineSpec>]) {
    let cluster = FarviewCluster::new(FarviewConfig::default());
    let mut backend =
        SingleNodeBackend::new(cluster.connect().expect("a fresh node has a free region"));
    let mut tenants = Vec::new();
    for (i, (table, specs)) in tables.iter().zip(queries).enumerate() {
        if specs.is_empty() {
            continue;
        }
        let (ft, _) = backend.load_table(table).expect("the tables fit the node");
        backend.bind_tenant(i as u32, ft, table.byte_len() as u64);
        tenants.push(ServeTenant {
            id: i as u32,
            class: ServeClass::Silver,
            weight: 1,
            demand: 1,
            queries: specs.clone(),
        });
    }
    h.tracer.resume();
    let mut totals = (0u64, 0u64, 0u64);
    for i in 0..ROUNDS_PER_CYCLE {
        let config = ServeConfig {
            keep_payloads: false,
            ..serve_config(round_seed(h.seed, i))
        };
        let r = round(h, &tenants, &mut backend, config, None);
        totals.0 += r.rejected;
        totals.1 += r.shed;
        totals.2 += r.deadline_missed;
    }
    h.tracer.stop();
    serve_times(h);
    h.set_layer("serve.rejected", totals.0 as f64);
    h.set_layer("serve.shed", totals.1 as f64);
    h.set_layer("serve.deadline_missed", totals.2 as f64);
}
