//! The two workloads, each a lifecycle of stages over its own
//! dataset, and the reduction of their samples to metrics.
//!
//! | workload | timed window | other stages (fixed counts) |
//! |---|---|---|
//! | `rc-serve` | closed-loop reads on an in-memory `tuffyd` | build ×3; then save, load ×5, 24 durable applies + recovery, load ×4, build ×2 |
//! | `er-apply` | durable applies with MAP / `given` reads, then recovery | build ×5, save, load ×5; a build every 10th apply; then load ×4 |

use crate::answer::Answer;
use crate::ctx::Ctx;
use crate::inputs::{Data, DeltaKind, DeltaPool, Scale};
use crate::metrics::Outcome;
use crate::stages::{self, DurableOut, DurablePlan, ReadPlan, Served, CHECKPOINT_EVERY};
use crate::stats::{mean, median, tail};
use std::collections::BTreeMap;
use std::time::Instant;
use tuffy::Engine;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["rc-serve", "er-apply"];

/// Set-up repetitions at the start of a run and again at its end, so
/// that `setup_s` and `ground_s`, their medians, do not rest on one
/// moment of a shared host. `er-apply` builds 5 times at the start and
/// then once every 10th apply.
const SETUP_REPS: [usize; 2] = [3, 2];
const ER_SMALL_SETUP_REPS: usize = 5;

/// `Engine::load` repetitions after the save and again at the end of a
/// run; `warm_load_s` is their median.
const LOADS: [usize; 2] = [5, 4];

/// Where each metric's samples came from, for the report.
struct Sources {
    reads: Served,
    writes: Served,
    split: BTreeMap<(DeltaKind, bool), u64>,
    reasons: BTreeMap<String, u64>,
    /// Whether the layer sum check gates this workload.
    sum_check: bool,
}

/// Builds the engine `reps` times (datagen + build + delta pool),
/// sampling `setup_s` and `ground_s`; returns the last.
fn builds(
    ctx: &Ctx,
    data: Data,
    reps: usize,
    open: &str,
    closed: Option<&str>,
) -> (Engine, DeltaPool) {
    let mut last = None;
    for _ in 0..reps {
        drop(last.take()); // free the previous engine before building the next
        let t0 = Instant::now();
        let ds = data.generate(ctx.scale);
        let (engine, ground_s) = stages::build(ctx, &ds);
        let pool = DeltaPool::from_engine(&engine, open, closed);
        ctx.sample("setup_s", t0.elapsed().as_secs_f64());
        ctx.sample("ground_s", ground_s);
        last = Some((engine, pool));
    }
    last.expect("at least one set-up")
}

/// The run's set-up: the engine it serves, its delta pool, and its
/// answer to the gate request.
fn setup(
    ctx: &Ctx,
    data: Data,
    reps: usize,
    open: &str,
    closed: Option<&str>,
) -> (Engine, DeltaPool, Answer) {
    let (engine, pool) = builds(ctx, data, reps, open, closed);
    let first = stages::reference_map(ctx, &engine).expect("MAP on a fresh engine");
    (engine, pool, first)
}

fn dataset_note(ctx: &Ctx, engine: &Engine) {
    let snap = engine.snapshot();
    ctx.note(
        "dataset",
        format!(
            "{} clauses, {} atoms, {} evidence tuples",
            snap.grounding().mrf.num_clauses(),
            snap.grounding().registry.len(),
            snap.evidence().len()
        ),
    );
}

fn rc_serve(ctx: &Ctx) -> Sources {
    let (engine, pool, first) = ctx.stage("set-up", || {
        setup(ctx, Data::Rc, SETUP_REPS[0], "cat", None)
    });
    dataset_note(ctx, &engine);
    ctx.stage("probe", || stages::probe(ctx, &engine));
    let reads = ctx.stage("reads", || {
        if ctx.traced() {
            // A prefix of the same stream is enough for per-layer medians.
            traced_reads(ctx, &engine, &pool, 200, ctx.seconds)
        } else {
            // 1,000 plain MAPs give the p99 10 samples beyond it.
            let min_maps = match ctx.scale {
                Scale::Full => 1000,
                Scale::Tiny => 4,
            };
            let plan = ReadPlan {
                conns: ctx.nproc,
                min_maps,
                seconds: ctx.seconds,
                replay: false,
            };
            stages::read_window(ctx, &engine, &pool, &plan)
        }
    });
    let store = ctx.dir.join("store");
    ctx.stage("save/load", || {
        stages::save(ctx, &engine, &store);
        stages::load(ctx, &store, LOADS[0], &first);
    });
    let plan = DurablePlan {
        min_applies: 24,
        unfolded: 24,
        image_at: None,
        map_every: 2,
        given_every: 4,
        seconds: 0.0,
    };
    let tail = ctx.stage("durable", || {
        stages::durable(
            ctx,
            &engine,
            &pool,
            &plan,
            &ctx.dir.join("tail"),
            &mut |_| {},
        )
    });
    drop(engine);
    ctx.stage("load and set-up again", || {
        stages::load(ctx, &store, LOADS[1], &first);
        builds(ctx, Data::Rc, SETUP_REPS[1], "cat", None)
    });
    let DurableOut {
        served,
        split,
        reasons,
    } = tail;
    Sources {
        reads,
        writes: served,
        split,
        reasons,
        sum_check: true,
    }
}

fn er_apply(ctx: &Ctx) -> Sources {
    let (engine, pool, first) = ctx.stage("set-up", || {
        setup(
            ctx,
            Data::ErSmall,
            ER_SMALL_SETUP_REPS,
            "sameBib",
            Some("hasWord"),
        )
    });
    dataset_note(ctx, &engine);
    ctx.stage("probe", || stages::probe(ctx, &engine));
    if ctx.traced() {
        // The read layers on a warm ER generation, and the tracing
        // overhead; the applies' MAPs all land on fresh generations.
        ctx.stage("reads", || traced_reads(ctx, &engine, &pool, 40, 0.0));
    }
    let store = ctx.dir.join("store");
    ctx.stage("save/load", || {
        stages::save(ctx, &engine, &store);
        stages::load(ctx, &store, LOADS[0], &first);
    });
    // 100 applies leave 36 records unfolded after the checkpoint at 64;
    // the image at 36 holds as many, of the same flip/assert mix.
    let (min_applies, unfolded, image_at) = match ctx.scale {
        Scale::Full => (100, 36, 36),
        Scale::Tiny => (6, 6, 3),
    };
    let plan = DurablePlan {
        min_applies,
        unfolded,
        image_at: Some(image_at),
        map_every: 2,
        given_every: 4,
        seconds: ctx.seconds,
    };
    let out = ctx.stage("durable", || {
        // Set-up samples every 10th apply, so that `setup_s` and
        // `ground_s` span the stage like the apply latencies do.
        let mut resample = |applies: u64| {
            if applies.is_multiple_of(10) {
                drop(builds(ctx, Data::ErSmall, 1, "sameBib", Some("hasWord")));
            }
        };
        stages::durable(
            ctx,
            &engine,
            &pool,
            &plan,
            &ctx.dir.join("durable"),
            &mut resample,
        )
    });
    drop(engine);
    ctx.stage("load again", || stages::load(ctx, &store, LOADS[1], &first));
    let DurableOut {
        served,
        split,
        reasons,
    } = out;
    Sources {
        reads: Served::default(),
        writes: served,
        split,
        reasons,
        sum_check: false,
    }
}

/// The traced run's reads: one connection, so a served request and its
/// in-process replay never contend for the CPUs. An untraced window of
/// the same stream comes first; `trace.overhead_ms` is the traced
/// window's median plain-MAP latency minus the untraced one's.
fn traced_reads(ctx: &Ctx, engine: &Engine, pool: &DeltaPool, maps: u64, seconds: f64) -> Served {
    let maps = match ctx.scale {
        Scale::Full => maps,
        Scale::Tiny => 4,
    };
    let plain = ReadPlan {
        conns: 1,
        min_maps: maps / 2,
        seconds: 0.0,
        replay: false,
    };
    let plain = stages::read_window(ctx, engine, pool, &plain);
    let traced = ReadPlan {
        conns: 1,
        min_maps: maps,
        seconds,
        replay: true,
    };
    let traced = stages::read_window(ctx, engine, pool, &traced);
    let (with, without) = (median(&traced.map_ms), median(&plain.map_ms));
    ctx.tracer.sample("trace.overhead_ms", with - without);
    ctx.note(
        "tracing overhead",
        format!(
            "{:.3} ms: one-connection plain-MAP median {with:.3} ms traced (n={}) vs {without:.3} ms untraced (n={})",
            with - without,
            traced.map_ms.len(),
            plain.map_ms.len()
        ),
    );
    traced
}

/// Peak resident set (VmHWM) of this process in MB; 0 where
/// `/proc/self/status` does not exist.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `workload` and reduces everything it sampled to the outcome.
pub fn run(ctx: &Ctx, workload: &str) -> Outcome {
    let src = match workload {
        "rc-serve" => rc_serve(ctx),
        "er-apply" => er_apply(ctx),
        other => panic!("unknown workload `{other}`"),
    };
    finish(ctx, src)
}

fn finish(ctx: &Ctx, src: Sources) -> Outcome {
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    // Reads come from the read window when the workload has one, else
    // from the durable stage.
    let reads = if src.reads.requests > 0 {
        &src.reads
    } else {
        &src.writes
    };
    let given = if reads.given_ms.is_empty() {
        &src.writes.given_ms
    } else {
        &reads.given_ms
    };
    let applies = &src.writes.apply_ms;
    let focus_start = if src.reads.requests > 0 {
        src.reads.start_s
    } else {
        src.writes.start_s
    };
    v.insert("setup_s", median(&ctx.samples("setup_s")) + focus_start);
    v.insert("serve_qps", reads.requests as f64 / reads.wall.max(1e-12));
    v.insert("map_p50_ms", median(&reads.map_ms));
    v.insert("given_p50_ms", median(given));
    v.insert("map_cost", mean(&ctx.samples("map_cost")));
    v.insert("apply_p50_ms", median(applies));
    v.insert("apply_p90_ms", tail(applies, 90.0).0);
    for name in [
        "recover_s",
        "ground_s",
        "first_map_s",
        "warm_load_s",
        "store_mb",
    ] {
        v.insert(name, median(&ctx.samples(name)));
    }
    v.insert("peak_rss_mb", peak_rss_mb());

    let n = |xs: &[f64], p: f64| {
        let (value, q, beyond) = tail(xs, p);
        format!("n={}, p{q:.1} = {value:.3} ms ({beyond} beyond)", xs.len())
    };
    ctx.note("map latency tail", n(&reads.map_ms, 99.0));
    ctx.note("given latency samples", n(given, 50.0));
    ctx.note("apply latency tail", n(applies, 90.0));
    ctx.note(
        "samples setup/ground/first_map/warm_load",
        ["setup_s", "ground_s", "first_map_s", "warm_load_s"]
            .map(|k| ctx.samples(k).len().to_string())
            .join("/"),
    );
    let applied: u64 = src.split.values().sum();
    let patched: u64 = src
        .split
        .iter()
        .filter(|((_, inc), _)| *inc)
        .map(|(_, c)| c)
        .sum();
    let by_kind: Vec<String> = [DeltaKind::ClosedFlip, DeltaKind::OpenAssert]
        .iter()
        .map(|&k| {
            let p = src.split.get(&(k, true)).copied().unwrap_or(0);
            let r = src.split.get(&(k, false)).copied().unwrap_or(0);
            format!("{}: {p} patched / {r} re-ground", k.label())
        })
        .collect();
    ctx.note(
        "applies",
        format!(
            "{applied} applied, {patched} patched, {} re-ground ({})",
            applied - patched,
            by_kind.join("; ")
        ),
    );
    for (reason, count) in &src.reasons {
        ctx.note("re-ground reason", format!("{count} × {reason}"));
    }
    ctx.gate(
        "every re-ground the wire reported has a reason in-process",
        match src.reasons.values().sum::<u64>() {
            r if r == applied - patched => Ok(()),
            r => Err(format!("{r} reasons for {} re-grounds", applied - patched)),
        },
    );
    ctx.note(
        "served MAPs with hard violations",
        ctx.samples("hard_violating_maps").len().to_string(),
    );
    ctx.note(
        "checkpoint every",
        format!("{CHECKPOINT_EVERY} applies (auto)"),
    );

    if ctx.traced() {
        layer_values(ctx, &src, &mut v, applied, patched);
    }
    let failures = ctx.failures();
    let attempted = ctx.attempted();
    v.insert(
        "ok_ops_pct",
        100.0 * (attempted.saturating_sub(failures.len() as u64)) as f64 / attempted.max(1) as f64,
    );
    Outcome {
        attempted,
        failed: failures.len() as u64,
        failures,
        values: v,
        notes: ctx.notes(),
    }
}

/// Per-layer values of the traced run: medians of the samples, plus
/// the derived ones (layer sum, tracing overhead, patched ratio).
fn layer_values(
    ctx: &Ctx,
    src: &Sources,
    v: &mut BTreeMap<&'static str, f64>,
    applied: u64,
    patched: u64,
) {
    for (name, samples) in ctx.tracer.samples() {
        v.insert(name, median(&samples));
    }
    let samples = ctx.tracer.samples();
    v.insert(
        "serve.busy_retries",
        samples
            .get("serve.busy_retries")
            .map_or(0.0, |s| s.iter().sum()),
    );
    v.insert(
        "grounder.patched_ratio",
        if applied == 0 {
            0.0
        } else {
            patched as f64 / applied as f64
        },
    );
    // Layer sum: the served plain MAPs of the traced read window against
    // layers timed on their own for the same requests. `core.query_ms`
    // covers search and rendering (`search.unit_ms + search.condition_ms
    // + core.render_ms`); the serve layer is the frame encode + decode
    // and a ping round trip. Anything the spans miss is unattributed.
    let pairs = ctx.pairs();
    let served = median(&pairs.iter().map(|p| p.served).collect::<Vec<_>>());
    let layers = median(&pairs.iter().map(|p| p.query + p.wire).collect::<Vec<_>>());
    v.insert("trace.served_ms", served);
    v.insert("trace.layer_sum_ms", layers);
    v.insert("core.unattributed_ms", served - layers);
    ctx.note(
        "layer sum",
        format!(
            "{layers:.3} ms of {served:.3} ms served over {} paired requests",
            pairs.len()
        ),
    );
    // The check compares medians, so it needs the full-scale sample: at
    // tiny scale a run has a handful of pairs of ~2 ms requests.
    if src.sum_check && ctx.scale == Scale::Full {
        ctx.gate(
            "layers account for the served MAP latency within 5%",
            if !pairs.is_empty() && (served - layers).abs() <= 0.05 * served {
                Ok(())
            } else {
                Err(format!(
                    "unattributed {:.3} ms of {served:.3} ms",
                    served - layers
                ))
            },
        );
    }
    v.insert("trace.spans", ctx.tracer.spans().len() as f64);
}
