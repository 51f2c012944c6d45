//! Per-layer replays for the traced run.
//!
//! After each traced operation the benchmark replays the operation's
//! query through the layers it crossed, calling each layer's public
//! functions on a benchmark-owned copy of the inputs and wrapping every
//! call in a span under one `layers` root:
//!
//! | span               | call                                              |
//! |--------------------|---------------------------------------------------|
//! | `plan.optimize`    | `QueryPlan::from_spec` + `optimize` + `to_spec`   |
//! | `pipeline.compile` | `CompiledPipeline::compile`                       |
//! | `mem.gather`       | `MemoryStack::plan_bursts` + `read` (or the smart-addressing gather) |
//! | `pipeline.stream`  | `push_bytes` per burst + `finish` + `drain_output`|
//! | `episode.run`      | `episode::run_batched_episodes` on one `PreparedQuery` |
//! | `fleet.merge`      | `PartialAggPlan::merge` / concatenation over per-shard payloads |
//! | `colimage.encode`  | `ColumnImage::encode` of the table                |
//! | `colimage.open`    | `ColumnImage::open` of that image                 |

use std::collections::HashMap;
use std::hint::black_box;

use farview_core::episode::{run_batched_episodes, BatchRun, PreparedQuery};
use farview_core::plan::shard_execution;
use farview_core::{FarviewConfig, MergeSpec, PlanTarget, QueryPlan};
use fv_data::{ColumnImage, Table};
use fv_mem::{BurstReq, DomainId, MemoryStack, VirtAddr};
use fv_pipeline::project::SmartAddressing;
use fv_pipeline::{CompiledPipeline, PipelineSpec};
use fv_sim::calib::{MEM_BURST_BYTES, PAGE_BYTES};

use crate::harness::Harness;

/// Row-range shards the fleet-merge replay splits a table into, as the
/// `serve` workload's four-node fleet does.
pub const MERGE_SHARDS: usize = 4;

/// The benchmark-owned copy of a workload's tables and the state the
/// replays keep between operations.
pub struct Layers {
    config: FarviewConfig,
    mem: MemoryStack,
    domain: DomainId,
    tables: Vec<(Table, VirtAddr)>,
    /// Per-shard payloads by (table, spec fingerprint): the merge replay
    /// times only the merge, so the shard results are computed once.
    shard_payloads: HashMap<(usize, u64), Vec<Vec<u8>>>,
    tuples_streamed: u64,
}

impl Layers {
    /// Write `tables` into a memory stack of their own; episodes replay
    /// on a node of the default configuration.
    pub fn new(tables: Vec<Table>) -> Self {
        // Every allocation takes whole pages; one spare page per channel.
        let pages: u64 = tables
            .iter()
            .map(|t| (t.byte_len() as u64).div_ceil(PAGE_BYTES).max(1))
            .sum::<u64>()
            + 2;
        let mut mem = MemoryStack::new(2, pages.div_ceil(2) * PAGE_BYTES);
        let domain = mem.create_domain();
        let tables = tables
            .into_iter()
            .map(|t| {
                let vaddr = mem
                    .alloc(domain, t.byte_len() as u64)
                    .expect("the replay stack is sized for its tables");
                mem.write(domain, vaddr, t.bytes())
                    .expect("write inside the allocation");
                (t, vaddr)
            })
            .collect();
        Layers {
            config: FarviewConfig::default(),
            mem,
            domain,
            tables,
            shard_payloads: HashMap::new(),
            tuples_streamed: 0,
        }
    }

    /// Set `pipeline.tuples_per_s`: tuples pushed through the replayed
    /// pipelines per second of their `pipeline.stream` spans.
    pub fn finish(&self, h: &mut Harness) {
        let stream_ns: u64 = h
            .tracer
            .self_times_ns()
            .get("pipeline.stream")
            .map_or(0, |v| v.iter().sum());
        let secs = (stream_ns as f64 / 1e9).max(1e-9);
        h.set_layer("pipeline.tuples_per_s", self.tuples_streamed as f64 / secs);
    }

    /// Replay operation `op` — `spec` over table `t` — through every
    /// layer (only while tracing).
    pub fn replay(&mut self, h: &mut Harness, op: u64, t: usize, spec: &PipelineSpec) {
        if !h.tracing() {
            return;
        }
        let root = h.tracer.open("layers", None, op);
        let schema = self.tables[t].0.schema().clone();

        let plan = h.tracer.span("plan.optimize", root, op, || {
            QueryPlan::from_spec(spec, PlanTarget::Single)
                .optimize(&schema)
                .and_then(|p| p.to_spec())
        });
        black_box(plan.expect("the workload's queries plan"));

        let compile = || CompiledPipeline::compile(spec.clone(), &schema);
        let mut pipe = h
            .tracer
            .span("pipeline.compile", root, op, compile)
            .expect("the workload's queries compile");

        let (table, vaddr) = &self.tables[t];
        let sa = pipe.smart_addressing().cloned();
        let (mem, domain) = (&mut self.mem, self.domain);
        let (bursts, data) = h.tracer.span("mem.gather", root, op, || {
            gather(mem, domain, *vaddr, table, sa.as_ref())
        });
        h.count_replay("replay.queries", 1.0);
        h.count_replay("mem.bytes_gathered", data.len() as f64);

        let out = h.tracer.span("pipeline.stream", root, op, || {
            stream(&mut pipe, &data, &bursts)
        });
        black_box(out);
        let stats = pipe.stats();
        self.tuples_streamed += stats.tuples_in;
        h.count_replay("pipeline.batched_blocks", pipe.batched_blocks() as f64);

        let prepared = PreparedQuery {
            qp: 1,
            slot: 0,
            pipeline: compile().expect("compiled once already"),
            bursts,
            sa_tuples: sa.as_ref().map(|_| table.row_count() as u64),
            data,
            vector_lanes: if spec.vectorize {
                self.config.vector_lanes as u64
            } else {
                1
            },
        };
        let config = &self.config;
        let episode = h.tracer.span("episode.run", root, op, || {
            run_batched_episodes(vec![BatchRun::new(vec![prepared])], config)
        });
        black_box(episode.expect("the replayed episode completes"));

        let key = (t, spec.fingerprint());
        let shards = self
            .shard_payloads
            .entry(key)
            .or_insert_with(|| shard_payloads(table, spec));
        let (_, merge) = shard_execution(spec, &schema).expect("row-range shardable");
        let merged = h.tracer.span("fleet.merge", root, op, || match &merge {
            MergeSpec::Aggregate(plan) => plan.merge(shards).0,
            MergeSpec::Concat => shards.concat(),
        });
        black_box(merged);

        let image = h
            .tracer
            .span("colimage.encode", root, op, || ColumnImage::encode(table));
        let rows = h.tracer.span("colimage.open", root, op, || {
            ColumnImage::open(&image, table.schema()).map(|i| i.row_count())
        });
        black_box(rows.expect("a freshly encoded image opens"));
        h.tracer.close(root);
    }
}

/// The node's data gather for one query: the burst schedule plus the
/// bytes in stream order, or the per-tuple gather under smart
/// addressing.
fn gather(
    mem: &mut MemoryStack,
    domain: DomainId,
    vaddr: VirtAddr,
    table: &Table,
    sa: Option<&SmartAddressing>,
) -> (Vec<BurstReq>, Vec<u8>) {
    let len = table.byte_len() as u64;
    match sa {
        Some(sa) => {
            let image = mem.read(domain, vaddr, len).expect("read inside the table");
            (Vec::new(), gather_tuples(&image, table.row_count(), sa))
        }
        None => {
            let bursts = mem
                .plan_bursts(domain, vaddr, len)
                .expect("plan inside the table");
            let data = mem.read(domain, vaddr, len).expect("read inside the table");
            (bursts, data)
        }
    }
}

fn gather_tuples(image: &[u8], rows: usize, sa: &SmartAddressing) -> Vec<u8> {
    let mut out = Vec::with_capacity(rows * sa.bytes_per_tuple);
    for r in 0..rows {
        sa.gather(image, r * sa.row_bytes, &mut out);
    }
    out
}

/// Feed `data` through `pipe` burst by burst, as the node's episode
/// does, and drain the result.
fn stream(pipe: &mut CompiledPipeline, data: &[u8], bursts: &[BurstReq]) -> Vec<u8> {
    if bursts.is_empty() {
        let tuple = pipe.in_tuple_bytes().max(1);
        let chunk = (MEM_BURST_BYTES as usize / tuple).max(1) * tuple;
        for c in data.chunks(chunk) {
            pipe.push_bytes(c);
        }
    } else {
        let mut at = 0usize;
        for b in bursts {
            let end = at + b.bytes as usize;
            pipe.push_bytes(&data[at..end]);
            at = end;
        }
    }
    pipe.finish();
    pipe.drain_output()
}

/// Each row-range shard's payload for `spec`, as a fleet of
/// [`MERGE_SHARDS`] nodes would return it before the client merge.
fn shard_payloads(table: &Table, spec: &PipelineSpec) -> Vec<Vec<u8>> {
    let schema = table.schema();
    let (shard_spec, _) = shard_execution(spec, schema).expect("row-range shardable");
    let rows = table.row_count();
    let per = rows.div_ceil(MERGE_SHARDS).max(1);
    let rb = schema.row_bytes();
    (0..MERGE_SHARDS)
        .map(|s| {
            let lo = (s * per).min(rows);
            let hi = ((s + 1) * per).min(rows);
            let bytes = &table.bytes()[lo * rb..hi * rb];
            let mut pipe = CompiledPipeline::compile(shard_spec.clone(), schema)
                .expect("the shard spec compiles");
            let data = match pipe.smart_addressing().cloned() {
                Some(sa) => gather_tuples(bytes, hi - lo, &sa),
                None => bytes.to_vec(),
            };
            stream(&mut pipe, &data, &[])
        })
        .collect()
}
