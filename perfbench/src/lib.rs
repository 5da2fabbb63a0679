//! One end-to-end benchmark for the Tuffy reproduction: served queries
//! and durable applies, with a per-layer breakdown.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --workload <rc-serve|er-apply> --seed N --seconds S --trace 0|1`
//! prints every metric with its unit and, as its last line, one JSON
//! result. See `README.md` for the workloads, metrics and layers.

pub mod answer;
pub mod ctx;
pub mod inputs;
pub mod metrics;
pub mod shadow;
pub mod stages;
pub mod stats;
pub mod trace;
pub mod workloads;

use ctx::Ctx;
use inputs::Scale;
use metrics::Outcome;
use std::path::{Path, PathBuf};

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            scale: Scale::Full,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => out.workload = value()?,
                "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => out.trace = value()? == "1",
                "--scale" => {
                    out.scale = match value()?.as_str() {
                        "full" => Scale::Full,
                        "tiny" => Scale::Tiny,
                        s => return Err(format!("--scale: unknown scale `{s}`")),
                    }
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if !workloads::WORKLOADS.contains(&out.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                workloads::WORKLOADS.join(", ")
            ));
        }
        if !(out.seconds >= 0.0 && out.seconds.is_finite()) {
            return Err("--seconds must be a non-negative number".into());
        }
        Ok(out)
    }
}

/// The git revision of the checkout at `root`, read from `.git` without
/// running git; "unknown" outside a git checkout.
fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l[..l.find(' ').unwrap_or(l.len())].to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Cumulative CPU steal in clock ticks (USER_HZ, 100 on Linux), from
/// `/proc/stat`; `None` where that file does not exist.
fn steal_jiffies() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Runs one workload from the checkout root `root`: stores live under a
/// per-run scratch directory there (removed at the end, so repeated runs
/// start cold), and a traced run writes its spans next to it.
pub fn run(args: &Args, root: &Path) -> Outcome {
    let base = root.join(".perfbench");
    let dir: PathBuf = base.join(format!(
        "run-{}-{}-{}",
        std::process::id(),
        args.workload,
        args.seed
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the run's scratch directory");
    let ctx = Ctx::new(args.scale, args.seed, args.seconds, args.trace, dir.clone());
    ctx.note(
        "workload",
        format!(
            "{} (seed {}, {} s, trace {})",
            args.workload, args.seed, args.seconds, args.trace
        ),
    );
    ctx.note("nproc", ctx.nproc.to_string());
    ctx.note("git revision", git_revision(root));
    ctx.note(
        "wal flush",
        "fsync on every apply, before the acknowledgement",
    );
    let steal_before = steal_jiffies();
    let started = std::time::Instant::now();
    let mut outcome = workloads::run(&ctx, &args.workload);
    if let (Some(a), Some(b)) = (steal_before, steal_jiffies()) {
        // Time the hypervisor gave this VM's vCPUs to someone else: the
        // main source of run-to-run spread on a shared host.
        let stolen = (b - a) as f64 / 100.0;
        let share = stolen / (started.elapsed().as_secs_f64() * ctx.nproc as f64);
        outcome.notes.push((
            "cpu steal".into(),
            format!("{stolen:.2} s ({:.1}% of vCPU time)", 100.0 * share),
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    if args.trace {
        let path = base.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match ctx.tracer.write(&path) {
            Ok(n) => outcome
                .notes
                .push(("spans".into(), format!("{n} written to {}", path.display()))),
            Err(e) => outcome
                .notes
                .push(("spans".into(), format!("not written: {e}"))),
        }
    }
    outcome
}
