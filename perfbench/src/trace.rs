//! The benchmark's span recorder.
//!
//! Spans are recorded around calls into each layer's public functions
//! from the benchmark's own code (the crates carry no tracing yet). A
//! span has a name, a start and an end (microseconds since the run
//! began), the id of the span that caused it (0 for a root) and the
//! request id its root shares with every descendant. Everything stays in
//! memory until [`Tracer::write`] at the end of the run.
//!
//! Per-layer metric samples (durations and counts read off the stats
//! structs the calls return) are collected alongside, keyed by metric
//! name.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

/// Span and per-layer sample recorder. When off, [`Tracer::span`] still
/// times its closure (the end-to-end numbers need the time) but records
/// nothing.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    samples: Mutex<BTreeMap<&'static str, Vec<f64>>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            samples: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether this is a traced run.
    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh span (and request) id.
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.t0).as_secs_f64() * 1e6
    }

    /// Records a span over an interval measured by the caller; returns
    /// its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        if self.on {
            let span = Span {
                id,
                parent,
                req,
                name,
                start_us: self.us(start),
                end_us: self.us(end),
            };
            self.spans.lock().expect("span buffer poisoned").push(span);
        }
        id
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// (the parent of anything it records). Returns `f`'s result and the
    /// span's duration in seconds.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> T,
    ) -> (T, f64) {
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if self.on {
            let span = Span {
                id,
                parent,
                req,
                name,
                start_us: self.us(start),
                end_us: self.us(end),
            };
            self.spans.lock().expect("span buffer poisoned").push(span);
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Adds one sample of a per-layer metric (kept only when traced).
    pub fn sample(&self, metric: &'static str, value: f64) {
        if self.on {
            let mut samples = self.samples.lock().expect("sample buffer poisoned");
            samples.entry(metric).or_default().push(value);
        }
    }

    /// The per-layer samples collected so far.
    pub fn samples(&self) -> BTreeMap<&'static str, Vec<f64>> {
        self.samples.lock().expect("sample buffer poisoned").clone()
    }

    /// Recorded spans, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Writes every span as one JSON object per line; returns the count.
    pub fn write(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.name, s.id, s.parent, s.req, s.start_us, s.end_us
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}
