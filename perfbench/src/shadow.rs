//! In-process replays of served requests: the answer checks of both
//! runs and the traced run's layer calls.
//!
//! After a served request, the benchmark replays the same request
//! in-process. Both runs answer it with `Snapshot::query` and commit
//! durable deltas on a mirror `DurableEngine`, and every answer must
//! match the served one bit for bit. The traced run then goes one layer
//! at a time, through each layer's public function: `Schedule::plan` and
//! `Scheduler::with_schedule(..).run` (search), `WalkSat` (the
//! monolithic reference), `ComponentSet::detect` and `Mrf::cost` (mrf),
//! `encode_response`/`decode_response` (serve), `parse_delta` (mln),
//! `apply_delta_grounding` (grounder) and the mirror's WAL over a timed
//! `FileStorage` (store). Every call runs inside a span.

use crate::answer::Answer;
use crate::ctx::Ctx;
use crate::inputs::search;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tuffy::{DurableEngine, Engine, Query, Schedule, Scheduler, Snapshot};
use tuffy_grounder::{apply_delta_grounding, DeltaOutcome};
use tuffy_mrf::ComponentSet;
use tuffy_search::WalkSat;
use tuffy_serve::wire::{decode_response, encode_response, Applied, Response, WireMapAnswer};
use tuffy_store::wal::{FileStorage, WalStorage};

const MS: f64 = 1e3;
const US: f64 = 1e6;

/// Records the grounding counters of a freshly built engine (both runs
/// call this; samples are kept only when traced).
pub fn grounding_layers(ctx: &Ctx, engine: &Engine) {
    let snap = engine.snapshot();
    let stats = &snap.grounding().stats;
    let t = &ctx.tracer;
    let wall = stats.wall.as_secs_f64();
    t.sample("grounder.ground_s", wall);
    t.sample("grounder.rounds", stats.rounds as f64);
    t.sample("grounder.queries", stats.queries as f64);
    t.sample("grounder.bindings", stats.bindings_considered as f64);
    t.sample("grounder.replans", stats.replans as f64);
    t.sample(
        "grounder.yield",
        stats.clauses as f64 / (stats.bindings_considered.max(1)) as f64,
    );
    let exec = stats.query_exec.as_secs_f64();
    t.sample("rdbms.exec_s", exec);
    t.sample("rdbms.exec_share", exec / wall.max(1e-12));
    t.sample(
        "rdbms.io_pages",
        (stats.io.page_reads + stats.io.page_writes) as f64,
    );
    t.sample("rdbms.spill_bytes", stats.spill.bytes_spilled as f64);
}

/// Layer state for one engine lineage: the schedule planned for the
/// generation last seen.
pub struct Shadow {
    /// Whether only the shadow queries this lineage's snapshots, so the
    /// first query on a new generation really is that generation's first
    /// (a durable mirror), rather than following the server's.
    private: bool,
    seen: Option<(usize, u64)>,
    schedule: Option<Arc<Schedule>>,
}

impl Shadow {
    pub fn new(private: bool) -> Shadow {
        Shadow {
            private,
            seen: None,
            schedule: None,
        }
    }

    /// Returns whether `snap` is a generation this shadow has not seen;
    /// when traced, plans its schedule and detects its components.
    fn refresh(&mut self, ctx: &Ctx, snap: &Snapshot, req: u64) -> bool {
        let key = (snap.grounding() as *const _ as usize, snap.generation());
        if self.seen == Some(key) {
            return false;
        }
        self.seen = Some(key);
        if !ctx.traced() {
            return true;
        }
        let t = &ctx.tracer;
        let mrf = &snap.grounding().mrf;
        let budget = snap.config().scheduler_config().mem_budget;
        let (plan, s) = t.span("search.schedule_plan", 0, req, |_| {
            Schedule::plan(mrf, budget)
        });
        t.sample("search.schedule_plan_ms", s * MS);
        let (components, s) = t.span("mrf.components", 0, req, |_| ComponentSet::detect(mrf));
        t.sample("mrf.components_ms", s * MS);
        drop(components);
        t.sample("mrf.clauses", mrf.num_clauses() as f64);
        t.sample("mrf.atoms", mrf.num_atoms() as f64);
        t.sample("mrf.clause_bytes", mrf.clause_bytes() as f64);
        self.schedule = Some(Arc::new(plan));
        true
    }

    /// The search layer for one MAP request: the scheduled run with the
    /// request's parameters, the monolithic reference on the same MRF
    /// and budget, and one cost evaluation. Returns the run's ms.
    ///
    /// `search.unit_ms` is an estimate: the run's flips at the
    /// monolithic reference's flip rate. The scheduler keeps no pass
    /// times (a unit trace records elapsed time only at improvements),
    /// so the unit/condition split waits for spans inside the crate.
    fn search(&mut self, ctx: &Ctx, snap: &Snapshot, seed: u64, expect: &Answer, req: u64) -> f64 {
        let t = &ctx.tracer;
        let mrf = &snap.grounding().mrf;
        let mut config = snap.config().scheduler_config();
        config.search = search(seed);
        let schedule = self
            .schedule
            .clone()
            .expect("refresh plans a schedule first");
        let scheduler = Scheduler::with_schedule(mrf, schedule, config);
        let (r, run_s) = t.span("search.run", 0, req, |_| scheduler.run(None));
        let run_ms = run_s * MS;
        t.sample("search.run_ms", run_ms);
        t.sample("search.flips", r.flips as f64);
        t.sample("search.flips_per_s", r.flips as f64 / run_s.max(1e-12));
        t.sample("search.partitions", scheduler.schedule().units.len() as f64);
        t.sample("search.bins", scheduler.schedule().bins.len() as f64);
        t.sample("search.rounds", r.rounds_run as f64);
        ctx.gate(
            "Scheduler::run reproduces the served cost",
            if r.cost.hard == expect.hard && r.cost.soft.to_bits() == expect.soft_bits {
                Ok(())
            } else {
                Err(format!("{:?} vs served soft {}", r.cost, expect.soft()))
            },
        );
        let (cost, s) = t.span("mrf.cost_eval", 0, req, |_| mrf.cost(&r.truth));
        t.sample("mrf.cost_eval_ms", s * MS);
        ctx.gate(
            "Mrf::cost agrees with the scheduler",
            if cost.hard == r.cost.hard && cost.soft.to_bits() == r.cost.soft.to_bits() {
                Ok(())
            } else {
                Err(format!("{cost:?} vs {:?}", r.cost))
            },
        );
        let (ws, s) = t.span("search.walksat_init", 0, req, |_| WalkSat::new(mrf, seed));
        t.sample("search.walksat_init_ms", s * MS);
        drop(ws);
        let init = vec![false; mrf.num_atoms()];
        let (ws, s) = t.span("search.mono", 0, req, |_| {
            WalkSat::run_from(mrf, init, &search(seed), None)
        });
        let mono_ms = s * MS;
        t.sample("search.mono_ms", mono_ms);
        let unit_ms = r.flips as f64 * mono_ms / ws.flips().max(1) as f64;
        t.sample("search.unit_ms", unit_ms);
        t.sample("search.condition_ms", run_ms - unit_ms);
        run_ms
    }

    /// Checks a served plain MAP answered off `snap` against
    /// `Snapshot::query` for the same request. On a private lineage's new
    /// generation that query is the generation's first (`first_map_s`).
    /// When traced, also runs the
    /// search, mrf and wire layers on it and returns the in-process
    /// query's ms and the answer frame's encode + decode ms.
    pub fn map(
        &mut self,
        ctx: &Ctx,
        snap: &Snapshot,
        seed: u64,
        served: &WireMapAnswer,
        served_ms: f64,
        req: u64,
    ) -> Option<(f64, f64)> {
        let t = &ctx.tracer;
        let fresh = self.refresh(ctx, snap, req) && self.private;
        let name = if fresh {
            "core.first_query"
        } else {
            "core.query"
        };
        let query = Query::map().with_search(search(seed));
        let (local, q_s) = t.span(name, 0, req, |_| snap.query(&query));
        if fresh {
            ctx.sample("first_map_s", q_s);
            t.sample("core.first_query_ms", q_s * MS);
        } else {
            t.sample("core.query_ms", q_s * MS);
        }
        let served_answer = Answer::from_wire(served);
        match local.map(|a| a.into_map()) {
            Ok(Some(m)) => ctx.gate(
                "served MAP bit-identical to Snapshot::query",
                served_answer.same_as(&Answer::from_result(snap.program(), &m)),
            ),
            Ok(None) => ctx.fail("Snapshot::query returned a non-MAP answer"),
            Err(e) => ctx.fail(format!("Snapshot::query failed: {e}")),
        }
        if !ctx.traced() {
            return None;
        }
        let run_ms = self.search(ctx, snap, seed, &served_answer, req);
        let response = Response::Map(served.clone());
        let (bytes, encode_s) = t.span("serve.encode", 0, req, |_| encode_response(&response));
        t.sample("serve.encode_us", encode_s * US);
        t.sample("serve.frame_bytes", bytes.len() as f64);
        let (decoded, decode_s) = t.span("serve.decode", 0, req, |_| decode_response(&bytes));
        t.sample("serve.decode_us", decode_s * US);
        ctx.gate(
            "answer frame round-trips",
            match decoded {
                Ok(d) if d == response => Ok(()),
                Ok(_) => Err("decoded frame differs".into()),
                Err(e) => Err(e.message),
            },
        );
        let query_ms = q_s * MS;
        t.sample("serve.overhead_ms", served_ms - query_ms);
        t.sample("core.render_ms", query_ms - run_ms);
        Some((query_ms, (encode_s + decode_s) * MS))
    }

    /// Shadows a served `given` MAP answered off `snap`.
    pub fn given(
        &mut self,
        ctx: &Ctx,
        snap: &Snapshot,
        text: &str,
        seed: u64,
        served: &WireMapAnswer,
        req: u64,
    ) {
        let t = &ctx.tracer;
        let mut program = snap.program().clone();
        let (delta, s) = t.span("mln.parse_delta", 0, req, |_| {
            tuffy_mln::parser::parse_delta(&mut program, text)
        });
        t.sample("mln.parse_delta_us", s * US);
        let delta = match delta {
            Ok(d) => d,
            Err(e) => return ctx.fail(format!("parse_delta `{text}`: {e}")),
        };
        let query = Query::map().given(delta).with_search(search(seed));
        let (local, s) = t.span("core.given_query", 0, req, |_| snap.query(&query));
        t.sample("core.given_query_ms", s * MS);
        match local.map(|a| a.into_map()) {
            Ok(Some(m)) => ctx.gate(
                "served given-MAP bit-identical to Snapshot::query",
                Answer::from_wire(served).same_as(&Answer::from_result(snap.program(), &m)),
            ),
            Ok(None) => ctx.fail("given query returned a non-MAP answer"),
            Err(e) => ctx.fail(format!("given Snapshot::query failed: {e}")),
        }
    }
}

/// A WAL event seen by [`TimedStorage`]: span name, interval, bytes.
type WalEvent = (&'static str, Instant, Instant, usize);

/// Shared log of the WAL calls a [`TimedStorage`] made.
#[derive(Clone, Default)]
pub struct WalEvents(Arc<Mutex<Vec<WalEvent>>>);

impl WalEvents {
    fn push(&self, e: WalEvent) {
        self.0.lock().expect("wal events poisoned").push(e);
    }

    fn take(&self) -> Vec<WalEvent> {
        std::mem::take(&mut *self.0.lock().expect("wal events poisoned"))
    }
}

/// `FileStorage` with every append and fsync timed: the store layer's
/// view of a durable apply, from the inside of the real call.
pub struct TimedStorage {
    inner: FileStorage,
    events: WalEvents,
}

impl TimedStorage {
    pub fn open(path: &Path, events: WalEvents) -> Result<TimedStorage, tuffy::StoreError> {
        Ok(TimedStorage {
            inner: FileStorage::open(path)?,
            events,
        })
    }
}

impl WalStorage for TimedStorage {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        let r = self.inner.append(bytes);
        self.events
            .push(("store.wal_append", start, Instant::now(), bytes.len()));
        r
    }

    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate_to(len)
    }

    fn sync(&mut self) -> io::Result<()> {
        let start = Instant::now();
        let r = self.inner.sync();
        self.events
            .push(("store.wal_fsync", start, Instant::now(), 0));
        r
    }
}

/// The mln and grounder layers of one delta on the mirror's head:
/// `parse_delta`, then `apply_delta_grounding` (timed when it patches).
fn patch_layers(ctx: &Ctx, head: &Snapshot, text: &str, req: u64) {
    let t = &ctx.tracer;
    let mut program = head.program().clone();
    let (delta, s) = t.span("mln.parse_delta", 0, req, |_| {
        tuffy_mln::parser::parse_delta(&mut program, text)
    });
    t.sample("mln.parse_delta_us", s * US);
    if let Ok(delta) = delta {
        let mut evidence = head.evidence().clone();
        if let Ok(changes) = evidence.apply(&program, &delta) {
            let (outcome, s) = t.span("grounder.patch", 0, req, |_| {
                apply_delta_grounding(&program, head.grounding(), &changes)
            });
            if matches!(outcome, DeltaOutcome::Patched(_)) {
                t.sample("grounder.patch_ms", s * MS);
            }
        }
    }
}

/// Commits a served durable apply on an in-process mirror lineage that
/// has committed exactly the same deltas, and checks the two applies
/// agree; when traced, also runs the mln and grounder layers on the
/// delta. Returns the mirror's (incremental, re-ground reason).
pub fn apply(
    ctx: &Ctx,
    mirror: &mut DurableEngine,
    wal: &WalEvents,
    text: &str,
    served: &Applied,
    req: u64,
) -> Option<(bool, Option<String>)> {
    let t = &ctx.tracer;
    if ctx.traced() {
        patch_layers(ctx, mirror.reader().snapshot(), text, req);
    }
    wal.take();
    let ((result, apply_id), s) = t.span("core.apply", 0, req, |id| (mirror.apply(text), id));
    let mut appended = 0;
    for (name, start, end, bytes) in wal.take() {
        t.record(name, apply_id, req, start, end);
        let us = end.duration_since(start).as_secs_f64() * US;
        t.sample(
            if name == "store.wal_append" {
                "store.wal_append_us"
            } else {
                "store.wal_fsync_us"
            },
            us,
        );
        appended += bytes;
    }
    t.sample("store.wal_bytes_per_apply", appended as f64);
    match result {
        Ok(outcome) => {
            t.sample("core.apply_ms", s * MS);
            let r = &outcome.report;
            if !r.incremental {
                t.sample("grounder.reground_ms", r.wall.as_secs_f64() * MS);
            }
            ctx.gate(
                "mirror apply matches the served apply",
                if r.incremental == served.incremental
                    && r.clauses as u64 == served.clauses
                    && r.atoms as u64 == served.atoms
                {
                    Ok(())
                } else {
                    Err(format!(
                        "mirror incremental={} clauses={} atoms={}, served incremental={} clauses={} atoms={}",
                        r.incremental, r.clauses, r.atoms, served.incremental, served.clauses, served.atoms
                    ))
                },
            );
            Some((r.incremental, r.reason.clone()))
        }
        Err(e) => {
            ctx.fail(format!("mirror apply `{text}`: {e}"));
            None
        }
    }
}
