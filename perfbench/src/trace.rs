//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start and an end (ns since the recorder was made),
//! the span that caused it and the operation it belongs to. Spans stay in
//! memory while the benchmark runs and are written out once at exit. A
//! layer's self time is its span's duration minus the part its child
//! spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span in the recorder.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    op: u64,
}

/// Records spans; a disabled recorder records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Stop recording; the spans so far are kept.
    pub fn stop(&mut self) {
        self.enabled = false;
    }

    /// Record again after [`Tracer::stop`].
    pub fn resume(&mut self) {
        self.enabled = true;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; `None` when tracing is off.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.now_ns();
            self.spans[id].end_ns = end;
        }
    }

    /// Time `f` as a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    /// Record a span that has already ended.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    /// Self time of every span, in ns, grouped by span name.
    pub fn self_times_ns(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            out.entry(s.name).or_default().push(own);
        }
        out
    }

    /// Median self time of the spans named `name`, in ns (0 for none).
    pub fn median_self_ns(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .self_times_ns()
            .get(name)
            .map(|v| v.iter().map(|&ns| ns as f64).collect())
            .unwrap_or_default();
        crate::stats::median(&v)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one tab-separated line:
    /// `id  parent  op  name  start_ns  end_ns`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
