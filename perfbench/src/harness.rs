//! The measurement loop the four workloads share.
//!
//! A run sets the system up [`SETUP_REPS`] times (each set-up is timed;
//! the last one is kept), then drives one closed-loop client (depth 1)
//! over the workload's fixed cycle of operations until `--seconds` have
//! passed. An untraced run (`--trace 0`) times every operation from
//! submit to result in client memory, interleaved with the reference
//! kernel of [`crate::speed`] that scales its host wall times to the
//! nominal host. A traced run (`--trace 1`) runs three phases:
//!
//! 1. *count*: one cycle whose deterministic counters (events, packets,
//!    bytes, tier and serve counts) are recorded; they repeat exactly
//!    between runs of one seed. Its page-fault counts repeat exactly on
//!    the single-threaded node workloads only: thread stacks and the
//!    allocator's heap end vary between processes;
//! 2. *plain*: a quarter of `--seconds` untraced, the reference for the
//!    tracing overhead;
//! 3. *traced*: the rest, with a span around every operation and around
//!    the per-layer replays that follow it.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::host;
use crate::speed::{self, Reference};
use crate::stats::{median, quantile};
use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Fewest timed operations an untraced run ends with: p99 then has at
/// least ten samples beyond it.
pub const MIN_OPS: usize = 1000;
/// Fewest operations in a window. Windows close at cycle boundaries, so
/// every window holds whole cycles of the workload's mix.
pub const WINDOW_OPS: usize = 100;
/// A run stops taking new cycles after this long, whatever its count.
const HARD_STOP_S: f64 = 150.0;

/// References on each side of a sample that scale it: the median of
/// these six spans about 120 ms.
const NEAR_REFERENCES: usize = 3;

/// A stretch of the plain phase: its samples, the reference count when
/// each was taken, the operations it completed and their wall time.
#[derive(Debug, Default)]
struct Window {
    lat: Vec<f64>,
    at: Vec<usize>,
    ops: u64,
    ns: u64,
}

/// `rows` less 0 to 63 rows drawn from `seed` and `salt`. Simulated
/// times depend on table sizes, not values; trimming a few rows makes
/// them differ from seed to seed while the host cost stays the same to
/// within 0.1%.
pub fn trimmed_rows(rows: usize, seed: u64, salt: u64) -> usize {
    // splitmix64
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    rows - ((z ^ (z >> 31)) % 64) as usize
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Setup,
    Count,
    Plain,
    Traced,
}

#[derive(Debug)]
pub struct Harness {
    pub seed: u64,
    seconds: f64,
    trace: bool,
    pub tracer: Tracer,
    phase: Phase,
    replay_counting: bool,
    next_op: u64,
    /// Host wall of each set-up, s, and the reference times around them.
    setup_s: Vec<f64>,
    setup_refs: Vec<f64>,
    /// Reference times of the plain phase of an untraced run, in order.
    refs: Vec<f64>,
    reference: Reference,
    last_reference: Instant,
    setup_faults: u64,
    setup_mark: u64,
    node_init_ms: Vec<f64>,
    /// Host wall per operation, ns, plain phase.
    plain_ns: Vec<f64>,
    /// Host wall per operation, ns, traced phase.
    traced_ns: Vec<f64>,
    /// Simulated response time per operation of the first plain cycle.
    sim_us: Vec<f64>,
    first_cycle: bool,
    /// Windows of the plain phase, the last one still open.
    windows: Vec<Window>,
    attempted: u64,
    failed: u64,
    counters: BTreeMap<&'static str, f64>,
    layer: BTreeMap<&'static str, f64>,
    steal_start: u64,
    load_start: String,
    measure_s: f64,
}

impl Harness {
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Self {
        Harness {
            seed,
            seconds,
            trace,
            tracer: Tracer::new(false),
            phase: Phase::Setup,
            replay_counting: false,
            next_op: 0,
            setup_s: Vec::new(),
            setup_refs: Vec::new(),
            refs: Vec::new(),
            reference: Reference::new(),
            last_reference: Instant::now(),
            setup_faults: 0,
            setup_mark: 0,
            node_init_ms: Vec::new(),
            plain_ns: Vec::new(),
            traced_ns: Vec::new(),
            sim_us: Vec::new(),
            first_cycle: false,
            windows: vec![Window::default()],
            attempted: 0,
            failed: 0,
            counters: BTreeMap::new(),
            layer: BTreeMap::new(),
            steal_start: host::steal_ticks(),
            load_start: host::load_average(),
            measure_s: 0.0,
        }
    }

    pub fn traced_run(&self) -> bool {
        self.trace
    }

    /// True in the traced phase: replays run and spans are recorded.
    pub fn tracing(&self) -> bool {
        self.phase == Phase::Traced
    }

    /// True in the count phase, where deterministic counters of the
    /// operations themselves are recorded.
    pub fn counting(&self) -> bool {
        self.phase == Phase::Count
    }

    // ---- set-up ----------------------------------------------------

    /// Start one timed set-up, after a reference.
    pub fn setup_start(&mut self) -> Instant {
        self.phase = Phase::Setup;
        let ns = self.reference.time();
        self.setup_refs.push(ns);
        self.setup_mark = host::minor_faults();
        Instant::now()
    }

    /// End the set-up started at `t0`, and run a reference after it.
    pub fn setup_end(&mut self, t0: Instant) {
        self.setup_s.push(t0.elapsed().as_secs_f64());
        self.setup_faults = host::minor_faults() - self.setup_mark;
        let ns = self.reference.time();
        self.setup_refs.push(ns);
    }

    /// Time the bring-up `f` of `nodes` nodes (`mem.node_init_ms` is
    /// per node).
    pub fn node_init<T>(&mut self, nodes: usize, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.node_init_ms.push(ms / nodes.max(1) as f64);
        out
    }

    // ---- the timed loop --------------------------------------------

    /// Drive `step(h, i)` over cycles of `cycle` steps, by the phases of
    /// the module docs.
    pub fn measure(&mut self, cycle: usize, step: &mut dyn FnMut(&mut Harness, usize)) {
        let t0 = Instant::now();
        if self.trace {
            self.phase = Phase::Count;
            for i in 0..cycle {
                step(self, i);
            }
            self.phase = Phase::Plain;
            self.run_for(self.seconds * 0.25, 0, cycle, step);
            self.tracer = Tracer::new(true);
            self.phase = Phase::Traced;
            self.run_for(self.seconds * 0.75, 0, cycle, step);
            self.tracer.stop();
        } else {
            self.phase = Phase::Plain;
            let ns = self.reference.time();
            self.refs.push(ns);
            self.last_reference = Instant::now();
            self.run_for(self.seconds, MIN_OPS, cycle, step);
        }
        self.measure_s = t0.elapsed().as_secs_f64();
        self.phase = Phase::Setup;
    }

    fn run_for(
        &mut self,
        seconds: f64,
        min_ops: usize,
        cycle: usize,
        step: &mut dyn FnMut(&mut Harness, usize),
    ) {
        let t0 = Instant::now();
        let mut first = true;
        loop {
            self.first_cycle = first && self.phase == Phase::Plain && self.sim_us.is_empty();
            // The traced phase records replay counters on its first cycle.
            self.replay_counting = first && self.phase == Phase::Traced;
            for i in 0..cycle {
                step(self, i);
            }
            first = false;
            self.first_cycle = false;
            self.replay_counting = false;
            if self.phase == Phase::Plain && self.open_window().lat.len() >= WINDOW_OPS {
                self.windows.push(Window::default());
            }
            let elapsed = t0.elapsed().as_secs_f64();
            let ops = match self.phase {
                Phase::Traced => self.traced_ns.len(),
                _ => self.closed_windows().map(|w| w.lat.len()).sum(),
            };
            if (elapsed >= seconds && ops >= min_ops) || elapsed >= HARD_STOP_S {
                break;
            }
        }
    }

    /// A fresh operation id (spans of one operation share it).
    pub fn next_op_id(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Run one operation `f` and time it from submit to result. Counts
    /// its minor faults while counting, wraps it in an `op` span while
    /// tracing, and adds its wall to the timed total.
    pub fn op<T>(&mut self, op: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let faults = if self.counting() {
            host::minor_faults()
        } else {
            0
        };
        let span = self.tracer.open("op", None, op);
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.tracer.close(span);
        if self.counting() {
            let delta = host::minor_faults() - faults;
            self.count("host.minor_faults", delta as f64);
        }
        self.timed(ns);
        (out, ns)
    }

    fn open_window(&mut self) -> &mut Window {
        self.windows.last_mut().expect("one window is always open")
    }

    /// Add `ns` of system work to the plain phase's timed total.
    pub fn timed(&mut self, ns: u64) {
        if self.phase == Phase::Plain {
            self.open_window().ns += ns;
        }
    }

    /// Record one operation's host wall and simulated response time. In
    /// an untraced run, run the reference kernel after it when the last
    /// one is [`speed::REFERENCE_EVERY_MS`] old.
    pub fn sample(&mut self, ns: u64, sim_us: f64) {
        match self.phase {
            Phase::Plain => {
                self.plain_ns.push(ns as f64);
                let at = self.refs.len();
                let w = self.open_window();
                w.lat.push(ns as f64);
                w.at.push(at);
                if self.first_cycle {
                    self.sim_us.push(sim_us);
                }
                if !self.trace
                    && self.last_reference.elapsed().as_millis() >= speed::REFERENCE_EVERY_MS
                {
                    let ref_ns = self.reference.time();
                    self.refs.push(ref_ns);
                    self.last_reference = Instant::now();
                }
            }
            Phase::Traced => self.traced_ns.push(ns as f64),
            Phase::Count | Phase::Setup => {}
        }
    }

    /// Count `attempted` operations of which `failed` did not complete
    /// with an oracle-correct result.
    pub fn outcome(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if self.phase == Phase::Plain {
            self.open_window().ops += attempted - failed;
        }
    }

    /// Add `v` to a deterministic counter of the operations (only in
    /// the count phase).
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.counting() {
            *self.counters.entry(name).or_insert(0.0) += v;
        }
    }

    /// Add `v` to a deterministic counter of the per-layer replays (only
    /// on the first traced cycle).
    pub fn count_replay(&mut self, name: &'static str, v: f64) {
        if self.replay_counting {
            *self.counters.entry(name).or_insert(0.0) += v;
        }
    }

    /// Set a per-layer metric measured by the workload itself.
    pub fn set_layer(&mut self, name: &'static str, v: f64) {
        self.layer.insert(name, v);
    }

    // ---- results ---------------------------------------------------

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    pub fn counters(&self) -> &BTreeMap<&'static str, f64> {
        &self.counters
    }

    pub fn layers(&self) -> &BTreeMap<&'static str, f64> {
        &self.layer
    }

    /// The closed windows: each holds at least [`WINDOW_OPS`] samples.
    fn closed_windows(&self) -> impl Iterator<Item = &Window> {
        self.windows.iter().filter(|w| w.lat.len() >= WINDOW_OPS)
    }

    /// The factor to the nominal host of a sample taken when `at`
    /// references had run: from the median of the [`NEAR_REFERENCES`]
    /// before it and as many after.
    fn scale_at(&self, at: usize) -> f64 {
        let lo = at.saturating_sub(NEAR_REFERENCES);
        let hi = (at + NEAR_REFERENCES).min(self.refs.len());
        if lo >= hi {
            return 1.0;
        }
        speed::scale(median(&self.refs[lo..hi]))
    }

    /// The mean factor to the nominal host of the samples of `w`.
    fn window_scale(&self, w: &Window) -> f64 {
        let sum: f64 = w.at.iter().map(|&at| self.scale_at(at)).sum();
        sum / w.at.len().max(1) as f64
    }

    /// Set-up time, throughput and latency quantiles over the closed
    /// windows: `(setup_s, queries_per_s, query_p50_ms, query_p99_ms)`.
    /// Scaled, each sample is multiplied by its factor to the nominal
    /// host, each window's operation time by its samples' mean factor.
    fn timings(&self, scaled: bool) -> (f64, f64, f64, f64) {
        let lat: Vec<f64> = self
            .closed_windows()
            .flat_map(|w| w.lat.iter().zip(&w.at))
            .map(|(ns, &at)| if scaled { ns * self.scale_at(at) } else { *ns })
            .collect();
        let ops: u64 = self.closed_windows().map(|w| w.ops).sum();
        let ns: f64 = self
            .closed_windows()
            .map(|w| {
                let f = if scaled { self.window_scale(w) } else { 1.0 };
                w.ns as f64 * f
            })
            .sum();
        let setup_factor = if scaled {
            speed::scale(median(&self.setup_refs))
        } else {
            1.0
        };
        (
            median(&self.setup_s) * setup_factor,
            ops as f64 * 1e9 / ns.max(1.0),
            median(&lat) / 1e6,
            quantile(&lat, 0.99) / 1e6,
        )
    }

    /// The end-to-end metrics of an untraced run, by name.
    ///
    /// The timings are host wall times scaled to the nominal host of
    /// [`crate::speed`]: each operation's by the references taken nearest
    /// it, the set-ups' by the references taken around them. `setup_s` is the
    /// median set-up, `queries_per_s` the completed operations per second
    /// of operation time, and `query_p50_ms`/`query_p99_ms` quantiles of
    /// all operations of the closed windows.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let (setup_s, qps, p50, p99) = self.timings(true);
        let ok = self.attempted - self.failed.min(self.attempted);
        vec![
            ("setup_s", setup_s),
            ("queries_per_s", qps),
            ("query_p50_ms", p50),
            ("query_p99_ms", p99),
            ("peak_rss_mb", host::peak_rss_mb()),
            ("success_rate", ok as f64 / self.attempted.max(1) as f64),
            ("sim_p50_us", median(&self.sim_us)),
            ("sim_p99_us", quantile(&self.sim_us, 0.99)),
        ]
    }

    /// Per-layer values the harness itself measures: set-up, host
    /// faults, tracing overhead.
    pub fn harness_layers(&self) -> Vec<(&'static str, f64)> {
        let queries = self.counter("queries").max(1.0);
        let plain = median(&self.plain_ns);
        let traced = median(&self.traced_ns);
        vec![
            ("mem.node_init_ms", median(&self.node_init_ms)),
            (
                "host.minor_faults_per_query",
                self.counter("host.minor_faults") / queries,
            ),
            ("host.minor_faults_setup", self.setup_faults as f64),
            (
                "trace.overhead_pct",
                (traced / plain.max(1.0) - 1.0) * 100.0,
            ),
        ]
    }

    /// Facts about the host and the run, printed beside the result so a
    /// run taken in a slow host phase shows: among them the unscaled
    /// timings and the range of the windows' factors to the nominal host.
    pub fn host_json(&self) -> String {
        let samples = if self.trace {
            self.traced_ns.len()
        } else {
            self.closed_windows().map(|w| w.lat.len()).sum()
        };
        let windows: Vec<f64> = self.closed_windows().map(|w| median(&w.lat)).collect();
        let (lo, hi) = windows
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &w| (lo.min(w), hi.max(w)));
        let spread = if windows.is_empty() {
            0.0
        } else {
            (hi - lo) / median(&windows)
        };
        let scales: Vec<f64> = self
            .closed_windows()
            .map(|w| self.window_scale(w))
            .collect();
        let (setup_s, qps, p50, p99) = self.timings(false);
        format!(
            "{{\"host\": {{\"nproc\": {}, \"kernel\": \"{}\", \"loadavg_start\": \"{}\", \"loadavg_end\": \"{}\", \"steal_ticks\": {}}}, \"run\": {{\"seed\": {}, \"samples\": {}, \"sim_samples\": {}, \"measure_s\": {:.3}, \"setup_s\": {:?}, \"setup_scale\": {:.4}, \"window_ops\": {}, \"windows\": {}, \"window_median_spread\": {:.4}, \"window_scale\": [{:.4}, {:.4}, {:.4}], \"spans\": {}}}, \"unscaled\": {{\"setup_s\": {:.6}, \"queries_per_s\": {:.4}, \"query_p50_ms\": {:.6}, \"query_p99_ms\": {:.6}}}}}",
            host::nproc(),
            host::kernel(),
            self.load_start,
            host::load_average(),
            host::steal_ticks() - self.steal_start,
            self.seed,
            samples,
            self.sim_us.len(),
            self.measure_s,
            self.setup_s,
            speed::scale(median(&self.setup_refs)),
            WINDOW_OPS,
            windows.len(),
            spread,
            quantile(&scales, 0.0),
            median(&scales),
            quantile(&scales, 1.0),
            self.tracer.len(),
            setup_s,
            qps,
            p50,
            p99,
        )
    }
}
