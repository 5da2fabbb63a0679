//! Table 7 / Appendix C.3 — batch loading and parallelism.
//!
//! Three loaders over the per-component searches of IE and RC:
//! `Tuffy-batch` loads components one at a time (one I/O round-trip
//! each), `Tuffy` groups them into FFD bins within a memory budget (one
//! round-trip per bin), and `Tuffy+parallelism` adds 8 worker threads.
//! Per-load latency is simulated (one spinning-disk seek per round-trip,
//! 10 ms) exactly like the rest of the I/O model.

use crate::datasets::{ie_bench, rc_bench};
use crate::format::TextTable;
use std::time::{Duration, Instant};
use tuffy::WalkSatParams;
use tuffy_datagen::Dataset;
use tuffy_grounder::{ground_bottom_up, GroundingMode};
use tuffy_mrf::binpack::first_fit_decreasing;
use tuffy_mrf::ComponentSet;
use tuffy_rdbms::OptimizerConfig;
use tuffy_search::{Scheduler, SchedulerConfig, WalkSat};

/// Simulated latency of one load round-trip (one random I/O).
pub const LOAD_LATENCY: Duration = Duration::from_millis(10);

/// Total flip budget split across components (large enough that search
/// work, not just loading, is visible in the timings).
pub const TOTAL_FLIPS: u64 = 20_000_000;

/// Paper's Table 7 (seconds): Tuffy-batch / Tuffy / Tuffy+parallelism.
pub const PAPER: [(&str, f64, f64, f64); 2] =
    [("IE", 448.0, 117.0, 28.0), ("RC", 133.0, 77.0, 42.0)];

fn run_dataset(ds: Dataset) -> (String, [Duration; 3]) {
    let name = ds.name.clone();
    let g = ground_bottom_up(
        &ds.program,
        &ds.evidence,
        GroundingMode::LazyClosure,
        &OptimizerConfig::default(),
    )
    .expect("grounding");
    let cs = ComponentSet::detect(&g.mrf);
    let jobs: Vec<usize> = (0..cs.count())
        .filter(|&i| !cs.clauses[i].is_empty())
        .collect();
    let total_atoms = g.mrf.num_atoms().max(1);
    let per_comp_budget = |atoms: usize| (TOTAL_FLIPS * atoms as u64 / total_atoms as u64).max(1);

    // Tuffy-batch: one load (round-trip) per component.
    let t0 = Instant::now();
    for &c in &jobs {
        let (sub, _) = g.mrf.project(&cs.atoms[c], &cs.clauses[c]);
        let mut ws = WalkSat::new(&sub, crate::SEED + c as u64);
        for _ in 0..per_comp_budget(cs.atoms[c].len()) {
            if !ws.step(0.5) {
                break;
            }
        }
    }
    let one_by_one = t0.elapsed() + LOAD_LATENCY * jobs.len() as u32;

    // Tuffy: FFD bins under a memory budget of 1/8 of the MRF.
    let sizes: Vec<u64> = jobs
        .iter()
        .map(|&c| cs.size_metric(&g.mrf, c) as u64)
        .collect();
    let capacity = (sizes.iter().sum::<u64>() / 8).max(1);
    let bins = first_fit_decreasing(&sizes, capacity);
    let t0 = Instant::now();
    for bin in &bins {
        for &item in &bin.items {
            let c = jobs[item];
            let (sub, _) = g.mrf.project(&cs.atoms[c], &cs.clauses[c]);
            let mut ws = WalkSat::new(&sub, crate::SEED + c as u64);
            for _ in 0..per_comp_budget(cs.atoms[c].len()) {
                if !ws.step(0.5) {
                    break;
                }
            }
        }
    }
    let batched = t0.elapsed() + LOAD_LATENCY * bins.len() as u32;

    // Tuffy + parallelism: batched loading plus one worker per core
    // (the paper used 8 cores; speedup is bounded by the machine's).
    let threads = std::thread::available_parallelism().map_or(8, usize::from);
    let t0 = Instant::now();
    let scheduler = Scheduler::new(
        &g.mrf,
        SchedulerConfig {
            threads,
            search: WalkSatParams {
                max_flips: TOTAL_FLIPS,
                seed: crate::SEED,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let _ = scheduler.run(None);
    let parallel = t0.elapsed() + LOAD_LATENCY * bins.len() as u32;

    (name, [one_by_one, batched, parallel])
}

/// Builds the Table 7 report.
pub fn report() -> String {
    let mut out = String::from(
        "Table 7: loading and parallelism (seconds; includes one simulated\n\
         10 ms I/O round-trip per load operation)\n\
         paper: IE 448 -> 117 -> 28; RC 133 -> 77 -> 42 (8 cores; the\n\
         parallel speedup here is bounded by this machine's core count)\n\n",
    );
    let threads = std::thread::available_parallelism().map_or(8, usize::from);
    let mut t = TextTable::new(vec![
        "dataset".to_string(),
        "tuffy-batch (1 load/component)".to_string(),
        "tuffy (FFD bins)".to_string(),
        format!("tuffy+parallelism ({threads} threads)"),
    ]);
    for ds in [ie_bench(), rc_bench()] {
        let (name, times) = run_dataset(ds);
        t.row(vec![
            name,
            crate::secs(times[0]),
            crate::secs(times[1]),
            crate::secs(times[2]),
        ]);
    }
    out.push_str(&t.render());
    out
}
