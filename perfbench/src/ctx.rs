//! Per-run state shared by every stage: arguments, the scratch
//! directory, the tracer, end-to-end samples and the failure ledger.

use crate::inputs::Scale;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One served plain MAP of the traced read window, with the layers
/// timed on their own for the same request, all in milliseconds: the
/// served latency, the in-process `Snapshot::query`, and the wire
/// (answer frame encode + decode, plus a ping round trip on the same
/// connection).
#[derive(Clone, Copy, Debug)]
pub struct Paired {
    pub served: f64,
    pub query: f64,
    pub wire: f64,
}

pub struct Ctx {
    pub scale: Scale,
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    /// Per-run scratch directory; every store lives under it.
    pub dir: PathBuf,
    pub tracer: Tracer,
    attempted: AtomicU64,
    failures: Mutex<Vec<String>>,
    e2e: Mutex<BTreeMap<&'static str, Vec<f64>>>,
    paired: Mutex<Vec<Paired>>,
    notes: Mutex<Vec<(String, String)>>,
}

impl Ctx {
    pub fn new(scale: Scale, seed: u64, seconds: f64, traced: bool, dir: PathBuf) -> Ctx {
        Ctx {
            scale,
            seed,
            seconds,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            dir,
            tracer: Tracer::new(traced),
            attempted: AtomicU64::new(0),
            failures: Mutex::new(Vec::new()),
            e2e: Mutex::new(BTreeMap::new()),
            paired: Mutex::new(Vec::new()),
            notes: Mutex::new(Vec::new()),
        }
    }

    pub fn traced(&self) -> bool {
        self.tracer.on()
    }

    /// Counts one attempted operation that succeeded.
    pub fn ok(&self) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one attempted operation that failed.
    pub fn fail(&self, what: impl Into<String>) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        self.failures
            .lock()
            .expect("failure ledger poisoned")
            .push(what.into());
    }

    /// Counts one gate: passes on `Ok`, fails with context on `Err`.
    pub fn gate(&self, what: &str, result: Result<(), String>) {
        match result {
            Ok(()) => self.ok(),
            Err(e) => self.fail(format!("{what}: {e}")),
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failures(&self) -> Vec<String> {
        self.failures
            .lock()
            .expect("failure ledger poisoned")
            .clone()
    }

    /// Adds one sample of an end-to-end quantity.
    pub fn sample(&self, name: &'static str, value: f64) {
        self.e2e
            .lock()
            .expect("samples poisoned")
            .entry(name)
            .or_default()
            .push(value);
    }

    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.e2e
            .lock()
            .expect("samples poisoned")
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    pub fn pair(&self, p: Paired) {
        self.paired.lock().expect("pairs poisoned").push(p);
    }

    pub fn pairs(&self) -> Vec<Paired> {
        self.paired.lock().expect("pairs poisoned").clone()
    }

    /// Runs one stage of the workload and notes its wall time.
    pub fn stage<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let t0 = std::time::Instant::now();
        let out = f();
        self.note(
            "stage wall",
            format!("{name} {:.2} s", t0.elapsed().as_secs_f64()),
        );
        out
    }

    /// Adds a provenance or sample note to the report.
    pub fn note(&self, key: impl Into<String>, value: impl Into<String>) {
        self.notes
            .lock()
            .expect("notes poisoned")
            .push((key.into(), value.into()));
    }

    pub fn notes(&self) -> Vec<(String, String)> {
        self.notes.lock().expect("notes poisoned").clone()
    }
}
