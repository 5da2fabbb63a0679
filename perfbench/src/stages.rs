//! The lifecycle stages every workload is built from: build, the
//! reference MAP, quality probe, save and load, the closed-loop read
//! window over an in-memory `tuffyd`, and the durable stage (applies over
//! a durable `tuffyd`, checked against an in-process mirror, then a
//! crash and cold recoveries).

use crate::answer::Answer;
use crate::ctx::{Ctx, Paired};
use crate::inputs::{config, search, DeltaKind, DeltaPool, Rng, FLIPS};
use crate::shadow::{self, Shadow, TimedStorage, WalEvents};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;
use tuffy::{DurableEngine, Engine, Query, Snapshot, Tuffy, GENERATION_FILE, WAL_FILE};
use tuffy_datagen::Dataset;
use tuffy_serve::{Client, RetryPolicy, ServeConfig, Server, WireAnswer, WireQuery, WireQueryKind};

/// Auto-checkpoint interval of every durable store: `tuffyd`'s shipped
/// default.
pub const CHECKPOINT_EVERY: u64 = 64;

/// Cold `DurableEngine::open` repetitions per crash image; `recover_s`
/// is the median over every image.
const RECOVERIES: usize = 2;

/// WalkSAT seed of the request every bit-identity gate between two
/// engines (cold vs loaded, pre-crash vs recovered) compares.
pub const GATE_SEED: u64 = 1;

/// Untimed plain MAPs each read-window connection sends first.
const WARMUP: usize = 8;

/// Quality-probe WalkSAT seeds: `map_cost` is the mean soft cost of
/// these fixed-seed MAP answers, so it repeats exactly.
pub const PROBE_SEEDS: u64 = 8;

const MS: f64 = 1e3;

/// Busy answers are retried this many times before the request counts
/// as failed.
fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 64,
        ..RetryPolicy::default()
    }
}

fn map_query(seed: u64, given: Option<String>) -> WireQuery {
    WireQuery {
        kind: WireQueryKind::Map,
        predicates: Vec::new(),
        given,
        search: Some((FLIPS, 1, 0.5, seed)),
        mcsat: None,
    }
}

/// Answers a fixed-seed MAP in-process.
pub fn local_map(snap: &Snapshot, seed: u64) -> Result<Answer, String> {
    match snap.query(&Query::map().with_search(search(seed))) {
        Ok(answer) => match answer.into_map() {
            Some(m) => Ok(Answer::from_result(snap.program(), &m)),
            None => Err("not a MAP answer".into()),
        },
        Err(e) => Err(e.to_string()),
    }
}

/// Cold `build_engine` inside a `core.build` span; returns the engine
/// and its wall seconds.
pub fn build(ctx: &Ctx, ds: &Dataset) -> (Engine, f64) {
    let req = ctx.tracer.id();
    let (engine, s) = ctx.tracer.span("core.build", 0, req, |_| {
        Tuffy::from_parts(ds.program.clone(), ds.evidence.clone())
            .with_config(config(ctx.nproc))
            .build_engine()
    });
    let engine = engine.unwrap_or_else(|e| panic!("grounding {} failed: {e}", ds.name));
    ctx.ok();
    shadow::grounding_layers(ctx, &engine);
    (engine, s)
}

/// The gate request's MAP on a freshly built engine: the reference
/// answer the engine's saved and loaded copies must reproduce.
pub fn reference_map(ctx: &Ctx, engine: &Engine) -> Option<Answer> {
    match local_map(&engine.snapshot(), GATE_SEED) {
        Ok(a) => {
            ctx.gate(
                "MAP answer has no hard violations",
                if a.hard == 0 {
                    Ok(())
                } else {
                    Err(format!("{} hard", a.hard))
                },
            );
            Some(a)
        }
        Err(e) => {
            ctx.fail(format!("reference MAP failed: {e}"));
            None
        }
    }
}

/// The quality probe: [`PROBE_SEEDS`] fixed-seed MAPs in-process; adds
/// their mean soft cost as `map_cost`.
pub fn probe(ctx: &Ctx, engine: &Engine) {
    let snap = engine.snapshot();
    let mut costs = Vec::new();
    for seed in 1..=PROBE_SEEDS {
        match local_map(&snap, seed) {
            Ok(a) if a.hard == 0 => {
                ctx.ok();
                costs.push(a.soft());
            }
            Ok(a) => ctx.fail(format!("probe seed {seed}: {} hard violations", a.hard)),
            Err(e) => ctx.fail(format!("probe seed {seed}: {e}")),
        }
    }
    ctx.sample("map_cost", crate::stats::mean(&costs));
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// `Engine::save` of `engine` to `dir`.
pub fn save(ctx: &Ctx, engine: &Engine, dir: &Path) {
    let t = &ctx.tracer;
    let (saved, s) = t.span("store.save", 0, t.id(), |_| engine.save(dir));
    if let Err(e) = saved {
        return ctx.fail(format!("Engine::save: {e}"));
    }
    ctx.ok();
    t.sample("store.save_s", s);
    let bytes = file_len(&dir.join(GENERATION_FILE));
    ctx.sample("store_mb", bytes / 1e6);
    t.sample("store.file_bytes", bytes);
}

/// `loads` × `Engine::load` of the store [`save`] wrote to `dir`; checks
/// the last loaded engine answers `reference` bit-identically.
pub fn load(ctx: &Ctx, dir: &Path, loads: usize, reference: &Answer) {
    let t = &ctx.tracer;
    let req = t.id();
    let mut loaded = None;
    for _ in 0..loads {
        loaded = None; // free the previous copy before timing the next load
        let (engine, s) = t.span("store.load", 0, req, |_| Engine::load(dir));
        match engine {
            Ok(e) => {
                ctx.ok();
                ctx.sample("warm_load_s", s);
                t.sample("store.load_s", s);
                loaded = Some(e);
            }
            Err(e) => ctx.fail(format!("Engine::load: {e}")),
        }
    }
    if let Some(loaded) = loaded {
        ctx.gate(
            "loaded engine answers bit-identically",
            local_map(&loaded.snapshot(), GATE_SEED).and_then(|a| a.same_as(reference)),
        );
    }
}

/// Served traffic of one stage.
#[derive(Default)]
pub struct Served {
    /// Server (and store) start-up seconds, part of set-up.
    pub start_s: f64,
    pub requests: u64,
    pub wall: f64,
    pub map_ms: Vec<f64>,
    pub given_ms: Vec<f64>,
    pub apply_ms: Vec<f64>,
}

impl Served {
    pub fn absorb(&mut self, other: Served) {
        self.start_s += other.start_s;
        self.requests += other.requests;
        self.wall += other.wall;
        self.map_ms.extend(other.map_ms);
        self.given_ms.extend(other.given_ms);
        self.apply_ms.extend(other.apply_ms);
    }
}

/// Sends one MAP (plain or `given`) and returns the wire answer, the
/// latency in ms (first send to answer, busy retries included) and the
/// retries; failures are counted.
fn send_map(
    ctx: &Ctx,
    client: &mut Client,
    query: &WireQuery,
    req: u64,
) -> Option<(tuffy_serve::wire::WireMapAnswer, f64, u32)> {
    let (result, s) = ctx.tracer.span("serve.call", 0, req, |_| {
        client.query_with_retry(query, &retry_policy())
    });
    match result {
        Ok((WireAnswer::Map(a), retries)) => {
            ctx.ok();
            if a.cost_hard != 0 {
                ctx.sample("hard_violating_maps", 1.0);
            }
            Some((a, s * MS, retries))
        }
        Ok((other, _)) => {
            ctx.fail(format!("expected a MAP answer, got {other:?}"));
            None
        }
        Err(e) => {
            ctx.fail(format!("served MAP failed: {e}"));
            None
        }
    }
}

/// Parameters of a read window.
pub struct ReadPlan {
    /// Closed-loop connections.
    pub conns: usize,
    /// At least this many plain MAPs...
    pub min_maps: u64,
    /// ...and stop only when this many seconds have passed.
    pub seconds: f64,
    /// Replay every answered request in-process right after it is
    /// answered (the traced run's layer calls), instead of checking a
    /// sample after the window.
    pub replay: bool,
}

/// The read window: an in-memory `tuffyd` over `engine`, closed-loop
/// connections sending ~90% plain MAP and ~10% `given` MAP with a
/// one-atom open-world delta, as long as `plan` says.
pub fn read_window(ctx: &Ctx, engine: &Engine, pool: &DeltaPool, plan: &ReadPlan) -> Served {
    let (conns, min_maps) = (plan.conns, plan.min_maps);
    let t0 = Instant::now();
    let server =
        Server::start(engine.clone(), "127.0.0.1:0", ServeConfig::default()).expect("start tuffyd");
    let start_s = t0.elapsed().as_secs_f64();
    let addr = server.local_addr();
    let window = std::time::Duration::from_secs_f64(plan.seconds);
    // Every connection warms up, then all start the window together.
    let warm = Barrier::new(conns + 1);
    let stop = AtomicBool::new(false);
    let maps = AtomicU64::new(0);
    let busy = AtomicU64::new(0);
    let out = Mutex::new(Served::default());
    // Served answers kept for the untraced run's after-window check.
    let kept: Mutex<Vec<(WireQuery, Answer)>> = Mutex::new(Vec::new());
    let snap = engine.snapshot();
    let mut start = Instant::now();
    std::thread::scope(|scope| {
        for conn in 0..conns {
            let (stop, maps, busy, out, kept, snap, warm) =
                (&stop, &maps, &busy, &out, &kept, &snap, &warm);
            scope.spawn(move || {
                let mut rng = Rng::new(ctx.seed.wrapping_mul(1_000_003).wrapping_add(conn as u64));
                let mut client = Client::connect(addr)
                    .map_err(|e| ctx.fail(format!("connect: {e}")))
                    .ok();
                // Warm-up: a handler thread's first requests fault in
                // fresh memory; they are checked but not timed.
                if let Some(c) = client.as_mut() {
                    for _ in 0..WARMUP {
                        send_map(ctx, c, &map_query(rng.next_u64(), None), ctx.tracer.id());
                    }
                }
                warm.wait();
                let Some(mut client) = client else { return };
                let deadline = Instant::now() + window;
                let mut shadow = Shadow::new(false);
                let mut mine = Served::default();
                let mut sent = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let seed = rng.next_u64();
                    let given = (rng.below(10) == 0).then(|| pool.given(&mut rng));
                    let query = map_query(seed, given.clone());
                    let req = ctx.tracer.id();
                    sent += 1;
                    mine.requests += 1;
                    let Some((answer, ms, retries)) = send_map(ctx, &mut client, &query, req)
                    else {
                        continue;
                    };
                    busy.fetch_add(u64::from(retries), Ordering::Relaxed);
                    match &given {
                        Some(text) => {
                            mine.given_ms.push(ms);
                            if plan.replay {
                                shadow.given(ctx, snap, text, seed, &answer, req);
                            }
                        }
                        None => {
                            mine.map_ms.push(ms);
                            if plan.replay {
                                let layers = shadow.map(ctx, snap, seed, &answer, ms, req);
                                if let Some((query, codec)) = layers {
                                    // The transport, timed on its own: a
                                    // ping on the same connection.
                                    let (pong, s) =
                                        ctx.tracer.span("serve.ping", 0, req, |_| client.ping(req));
                                    match pong {
                                        Ok(()) => {
                                            ctx.ok();
                                            ctx.tracer.sample("serve.rtt_us", s * 1e6);
                                            ctx.pair(Paired {
                                                served: ms,
                                                query,
                                                wire: codec + s * MS,
                                            });
                                        }
                                        Err(e) => ctx.fail(format!("ping: {e}")),
                                    }
                                }
                            }
                            let done = maps.fetch_add(1, Ordering::Relaxed) + 1;
                            if done >= min_maps && Instant::now() >= deadline {
                                stop.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                    if !plan.replay && sent % 32 == 1 {
                        kept.lock()
                            .expect("kept poisoned")
                            .push((query, Answer::from_wire(&answer)));
                    }
                }
                out.lock().expect("served poisoned").absorb(mine);
            });
        }
        warm.wait();
        start = Instant::now();
    });
    let mut served = out.into_inner().expect("served poisoned");
    served.start_s = start_s;
    served.wall = start.elapsed().as_secs_f64();
    ctx.tracer
        .sample("serve.busy_retries", busy.load(Ordering::Relaxed) as f64);
    ctx.gate(
        "read window never re-grounds",
        match server.engine().groundings_performed() {
            1 => Ok(()),
            n => Err(format!("groundings_performed() = {n}, expected 1")),
        },
    );
    let stats = server.shutdown();
    ctx.gate(
        "no internal server errors",
        if stats.internal_errors == 0 {
            Ok(())
        } else {
            Err(format!("{}", stats.internal_errors))
        },
    );
    // Without replays, served answers sampled during the window must
    // match in-process `Snapshot::query` for the same request (off the
    // clock).
    let kept = kept.into_inner().expect("kept poisoned");
    let mut session = engine.open_session();
    for (query, served_answer) in &kept {
        let (seed, given) = (query.search.map_or(0, |s| s.3), query.given.clone());
        let mut q = Query::map().with_search(search(seed));
        if let Some(text) = &given {
            match session.parse_delta(text) {
                Ok(d) => q = q.given(d),
                Err(e) => {
                    ctx.fail(format!("parse `{text}`: {e}"));
                    continue;
                }
            }
        }
        let local = snap
            .query(&q)
            .map_err(|e| e.to_string())
            .and_then(|a| a.into_map().ok_or_else(|| "not a MAP answer".to_string()))
            .and_then(|m| served_answer.same_as(&Answer::from_result(snap.program(), &m)));
        ctx.gate("served answer bit-identical to Snapshot::query", local);
    }
    ctx.note(
        "read window checked in-process",
        format!("{} of {} requests", kept.len(), served.requests),
    );
    served
}

/// Parameters of a durable stage.
pub struct DurablePlan {
    /// At least this many applies...
    pub min_applies: u64,
    /// ...and stop only when this many records sit unfolded in the WAL
    /// (applies ≡ unfolded mod [`CHECKPOINT_EVERY`]), so recovery always
    /// replays the same number of records.
    pub unfolded: u64,
    /// Also copy the store once this many applies are acknowledged: a
    /// second crash image, recovered like the final one, so `recover_s`
    /// is not all measured in the last seconds of a run.
    pub image_at: Option<u64>,
    /// A plain MAP after every `map_every`-th apply.
    pub map_every: u64,
    /// A `given` MAP after every `given_every`-th apply.
    pub given_every: u64,
    /// Keep applying until this much time has passed (0 for none).
    pub seconds: f64,
}

/// What a durable stage observed.
pub struct DurableOut {
    pub served: Served,
    /// Applies by (delta kind, patched incrementally).
    pub split: BTreeMap<(DeltaKind, bool), u64>,
    /// Re-ground reasons the mirror reported, with counts.
    pub reasons: BTreeMap<String, u64>,
}

/// The durable stage: a durable `tuffyd` on a fresh store under `dir`
/// (fsync on every apply, auto-checkpoint every [`CHECKPOINT_EVERY`]),
/// one connection sending the seeded delta stream with MAP and `given`
/// queries interleaved, each checked against an in-process mirror; then
/// shutdown (the crash: nothing is checkpointed), a cold
/// `DurableEngine::open` (`recover_s`), and the recovery gates.
///
/// `idle` runs after every apply's requests, off the clock, with the
/// apply count. The mirror's work and `idle` are left out of the
/// stage's wall time, so `serve_qps` counts served time only.
pub fn durable(
    ctx: &Ctx,
    engine: &Engine,
    pool: &DeltaPool,
    plan: &DurablePlan,
    dir: &Path,
    idle: &mut dyn FnMut(u64),
) -> DurableOut {
    let t = &ctx.tracer;
    let store = dir.join("durable");
    let t0 = Instant::now();
    let lineage = DurableEngine::create(engine.clone(), &store, CHECKPOINT_EVERY)
        .expect("create durable store");
    let server = Server::start_durable(lineage, "127.0.0.1:0", ServeConfig::default())
        .expect("start durable tuffyd");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let start_s = t0.elapsed().as_secs_f64();
    // The mirror: the same deltas committed in-process, its WAL on a
    // timed FileStorage. Every served answer is checked against it
    // between requests, while the server is idle.
    let wal_events = WalEvents::default();
    let mirror_dir = dir.join("mirror");
    std::fs::create_dir_all(&mirror_dir).expect("create mirror dir");
    let storage = TimedStorage::open(&mirror_dir.join(WAL_FILE), wal_events.clone())
        .expect("open mirror wal");
    let mut mirror = DurableEngine::create_with_wal(
        engine.clone(),
        &mirror_dir,
        Box::new(storage),
        CHECKPOINT_EVERY,
    )
    .expect("create mirror");
    let mut shadow = Shadow::new(true);
    let mut stream = pool.stream(ctx.seed);
    let mut rng = Rng::new(ctx.seed ^ 0xd1ce);
    let mut out = DurableOut {
        served: Served {
            start_s,
            ..Served::default()
        },
        split: BTreeMap::new(),
        reasons: BTreeMap::new(),
    };
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(plan.seconds);
    let start = Instant::now();
    let mut off_clock = std::time::Duration::ZERO;
    // Crash images to recover: (store, acknowledged applies, head's
    // answer to the gate request).
    let mut images = Vec::new();
    let mut applies = 0u64;
    let mut head = None;
    loop {
        applies += 1;
        let (text, kind) = stream.next_delta();
        let req = t.id();
        out.served.requests += 1;
        let (applied, s) = t.span("serve.call", 0, req, |_| client.apply(&text));
        match applied {
            Ok(a) => {
                ctx.ok();
                out.served.apply_ms.push(s * MS);
                *out.split.entry((kind, a.incremental)).or_default() += 1;
                let off = Instant::now();
                if let Some((_, Some(reason))) =
                    shadow::apply(ctx, &mut mirror, &wal_events, &text, &a, req)
                {
                    *out.reasons.entry(reason).or_default() += 1;
                }
                off_clock += off.elapsed();
            }
            Err(e) => ctx.fail(format!("apply `{text}`: {e}")),
        }
        let done = applies >= plan.min_applies
            && applies % CHECKPOINT_EVERY == plan.unfolded % CHECKPOINT_EVERY
            && Instant::now() >= deadline;
        if applies.is_multiple_of(plan.map_every) {
            // The last MAP of the stream asks the gate request, so it
            // doubles as the pre-crash head's answer.
            let seed = if done { GATE_SEED } else { rng.next_u64() };
            let req = t.id();
            out.served.requests += 1;
            if let Some((answer, ms, _)) = send_map(ctx, &mut client, &map_query(seed, None), req) {
                out.served.map_ms.push(ms);
                head = Some(Answer::from_wire(&answer)).filter(|_| seed == GATE_SEED);
                let off = Instant::now();
                let reader = mirror.reader();
                shadow.map(ctx, reader.snapshot(), seed, &answer, ms, req);
                off_clock += off.elapsed();
            }
        }
        if applies.is_multiple_of(plan.given_every) {
            let (seed, text) = (rng.next_u64(), pool.given(&mut rng));
            let req = t.id();
            out.served.requests += 1;
            if let Some((answer, ms, _)) =
                send_map(ctx, &mut client, &map_query(seed, Some(text.clone())), req)
            {
                out.served.given_ms.push(ms);
                let off = Instant::now();
                let reader = mirror.reader();
                shadow.given(ctx, reader.snapshot(), &text, seed, &answer, req);
                off_clock += off.elapsed();
            }
        }
        if done {
            break;
        }
        let off = Instant::now();
        if plan.image_at == Some(applies) {
            let image = dir.join("image");
            match copy_files(&store, &image) {
                // The mirror has committed the same deltas: its head is
                // the image's pre-crash head.
                Ok(()) => match local_map(mirror.reader().snapshot(), GATE_SEED) {
                    Ok(a) => images.push((image, applies, a)),
                    Err(e) => ctx.fail(format!("mirror head MAP: {e}")),
                },
                Err(e) => ctx.fail(format!("copy the store: {e}")),
            }
        }
        idle(applies);
        off_clock += off.elapsed();
    }
    let wall = start.elapsed();
    out.served.wall = (wall - off_clock).as_secs_f64();
    if head.is_none() {
        // The pre-crash head's answer to the gate request.
        head = send_map(ctx, &mut client, &map_query(GATE_SEED, None), t.id())
            .map(|(a, _, _)| Answer::from_wire(&a));
    }
    drop(client);
    let stats = server.shutdown();
    ctx.gate(
        "no internal server errors",
        if stats.internal_errors == 0 {
            Ok(())
        } else {
            Err(format!("{}", stats.internal_errors))
        },
    );
    if ctx.traced() {
        let (r, s) = t.span("store.checkpoint", 0, t.id(), |_| mirror.checkpoint());
        match r {
            Ok(_) => t.sample("store.checkpoint_ms", s * MS),
            Err(e) => ctx.fail(format!("mirror checkpoint: {e}")),
        }
    }
    drop(mirror);
    ctx.note(
        "stage wall",
        format!(
            "durable loop {:.2} s, {:.2} s of it off the clock",
            wall.as_secs_f64(),
            off_clock.as_secs_f64()
        ),
    );
    match head {
        Some(head) => images.push((store, applies, head)),
        None => ctx.fail("no pre-crash head answer to compare"),
    }
    for (image, seq, head) in &images {
        recover(ctx, image, *seq, head);
    }
    let _ = std::fs::remove_dir_all(dir);
    out
}

/// Copies the regular files of `from` into a new directory `to`.
fn copy_files(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Cold `DurableEngine::open` of a crash image taken after `seq`
/// acknowledged applies, [`RECOVERIES`] times (recovery only reads the
/// store); checks the last recovered lineage against the image's
/// pre-crash `head`.
fn recover(ctx: &Ctx, image: &Path, seq: u64, head: &Answer) {
    let t = &ctx.tracer;
    let mut recovered = None;
    for _ in 0..RECOVERIES {
        drop(recovered.take());
        let (r, s) = t.span("core.recover", 0, t.id(), |_| {
            DurableEngine::open(image, CHECKPOINT_EVERY)
        });
        match r {
            Ok(r) => {
                ctx.ok();
                ctx.sample("recover_s", s);
                recovered = Some((r, s));
            }
            Err(e) => ctx.fail(format!("DurableEngine::open: {e}")),
        }
    }
    let Some(((lineage, report), s)) = recovered else {
        return ctx.fail("no recovered lineage to check");
    };
    if report.replayed > 0 {
        t.sample(
            "store.replay_ms_per_record",
            report.wall.as_secs_f64() * MS / report.replayed as f64,
        );
    }
    ctx.note(
        "recovery",
        format!(
            "{} records replayed to seq {} in {:.3} s",
            report.replayed, report.seq, s
        ),
    );
    ctx.gate(
        "recovery lands on the crash sequence",
        if report.seq == seq && report.replayed == seq % CHECKPOINT_EVERY {
            Ok(())
        } else {
            Err(format!(
                "seq {} replayed {} after {seq} applies",
                report.seq, report.replayed
            ))
        },
    );
    ctx.gate(
        "recovered head answers bit-identically to the pre-crash head",
        local_map(lineage.reader().snapshot(), GATE_SEED).and_then(|a| a.same_as(head)),
    );
}
