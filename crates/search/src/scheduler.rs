//! Partition-aware parallel inference scheduling (§3.3–3.4, Appendix B.7).
//!
//! This module unifies the three decomposition mechanisms of the paper —
//! connected components (§3.3), memory-budgeted MRF partitioning
//! (Algorithm 3, §3.4), and multi-threaded per-partition search
//! (Appendix C.3) — into one subsystem:
//!
//! 1. **Plan** ([`Schedule::plan`]): run Algorithm 3 under a β bound
//!    derived from the byte budget (β = ∞, i.e. exact connected
//!    components, when no budget is given), estimate every partition's
//!    search-state footprint analytically, and First-Fit-Decreasing pack
//!    the partitions into memory-budgeted bins.
//! 2. **Execute** ([`Scheduler::run`]): sweep the bins with a
//!    work-stealing worker pool. Within a bin every partition is searched
//!    against the assignment *snapshotted at the bin's start* (block
//!    Jacobi), while later bins — and later Gauss-Seidel rounds — see all
//!    earlier updates (Gauss-Seidel). A partition with no cut clauses —
//!    every partition when no budget is given — searches one sub-MRF
//!    sliced from the global arenas ([`Mrf::project`]) the first time
//!    any pass needs it and kept in the [`Schedule`] for every later
//!    pass and query of the generation: it does not depend on the
//!    snapshot. Only a partition with cut clauses is conditioned per
//!    pass, exactly as §3.4 describes: externally satisfied cut clauses
//!    drop out for the pass, the rest lose their external literals.
//! 3. **Converge**: rounds stop early once a full sweep leaves the
//!    assignment unchanged.
//!
//! Determinism: a partition pass depends only on the snapshot, the
//! partition id, and the round — its RNG seed is derived from those alone
//! — and merging happens in schedule order after each bin joins, so the
//! result (assignment, cost, flip counts, and the recorded best-cost
//! trajectory) is bit-identical for every worker-pool size.

use crate::mcsat::{McSat, McSatParams};
use crate::timecost::TimeCostTrace;
use crate::walksat::{WalkSat, WalkSatParams};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use tuffy_mln::fxhash::FxHashMap;
use tuffy_mln::MlnError;
use tuffy_mrf::binpack::{first_fit_decreasing, Bin};
use tuffy_mrf::memory::{beta_for_budget, human_bytes, MemoryFootprint};
use tuffy_mrf::{AtomId, Cost, Lit, Mrf, MrfBuilder, Partitioning};

/// Configuration of a [`Scheduler`].
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Worker threads in the pool (0 and 1 both mean sequential).
    pub threads: usize,
    /// Byte budget for a resident bin; `None` schedules exact connected
    /// components in a single bin.
    pub mem_budget: Option<usize>,
    /// Maximum Gauss-Seidel rounds over cut clauses (ignored — one round
    /// — when the schedule has no cut clauses).
    pub rounds: usize,
    /// Per-partition WalkSAT parameters; `max_flips` is the *total* flip
    /// budget, divided across partitions and rounds in proportion to
    /// partition size (the §4.4 weighted round-robin protocol).
    pub search: WalkSatParams,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            threads: 1,
            mem_budget: None,
            rounds: 3,
            search: WalkSatParams::default(),
        }
    }
}

/// One schedulable unit: a partition with at least one (internal or cut)
/// clause.
#[derive(Clone, Debug)]
pub struct ScheduleUnit {
    /// Index of the partition in the [`Partitioning`].
    pub part: usize,
    /// Atoms in the partition.
    pub atom_count: usize,
    /// Clauses fully inside the partition.
    pub internal_clauses: usize,
    /// Cut clauses touching the partition.
    pub cut_clauses: usize,
    /// Estimated bytes of the partition's search state (internal clauses
    /// only; conditioned cut-clause remnants add a little on top).
    pub est_bytes: usize,
}

/// The planned decomposition: partitions, their footprints, and the
/// memory-budgeted bins they load in — plus, filled in lazily, the
/// sub-MRF of every unit with no cut clauses.
///
/// Those sub-MRFs carry the MRF's weights, so a schedule serves exactly
/// the MRF it was first run against: share it (by `Arc`) across queries
/// of one generation, never across a reweighting.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// The Algorithm 3 partitioning (exact connected components when no
    /// budget bounds β).
    pub parts: Partitioning,
    /// Active partitions in partition order.
    pub units: Vec<ScheduleUnit>,
    /// FFD bins over `units` (items index into `units`).
    pub bins: Vec<Bin>,
    /// Cut clauses touching each partition (indexed by partition id).
    pub cut_by_part: Vec<Vec<u32>>,
    /// The byte budget the schedule was planned under.
    pub mem_budget: Option<usize>,
    /// Violated hard cut clauses would each cost ∞; their count.
    pub cut_hard: u64,
    /// Total |w| of soft cut clauses — the worst-case cost gap between
    /// partitioned and exact search (Appendix B.8's tradeoff quantity).
    pub cut_soft: f64,
    /// Per-unit sub-MRF slices, aligned with `units`: a cut-free unit's
    /// cell is filled by whichever pass reaches the unit first; cells of
    /// units with cut clauses stay empty.
    slices: Vec<OnceLock<Mrf>>,
}

impl Schedule {
    /// Plans the decomposition of `mrf` under `mem_budget` bytes.
    pub fn plan(mrf: &Mrf, mem_budget: Option<usize>) -> Schedule {
        let beta = mem_budget.map_or(usize::MAX, beta_for_budget);
        let parts = Partitioning::compute(mrf, beta);
        let mut cut_by_part = vec![Vec::new(); parts.count()];
        for &ci in &parts.cut_clauses {
            let clause = mrf.clause(ci as usize);
            let mut seen: Vec<u32> = Vec::new();
            for l in clause.lits.iter() {
                let p = parts.label[l.atom() as usize];
                if !seen.contains(&p) {
                    seen.push(p);
                    cut_by_part[p as usize].push(ci);
                }
            }
        }
        let mut units = Vec::new();
        for (p, internal) in parts.internal_clauses.iter().enumerate() {
            if internal.is_empty() && cut_by_part[p].is_empty() {
                continue; // atoms no clause touches play no role in search
            }
            let lits: usize = internal
                .iter()
                .map(|&ci| mrf.clause_lits(ci as usize).len())
                .sum();
            units.push(ScheduleUnit {
                part: p,
                atom_count: parts.atoms[p].len(),
                internal_clauses: internal.len(),
                cut_clauses: cut_by_part[p].len(),
                est_bytes: MemoryFootprint::estimate(parts.atoms[p].len(), internal.len(), lits)
                    .total(),
            });
        }
        let sizes: Vec<u64> = units.iter().map(|u| u.est_bytes as u64).collect();
        let capacity = mem_budget.map_or(u64::MAX, |b| (b as u64).max(1));
        let bins = first_fit_decreasing(&sizes, capacity);
        let (cut_hard, cut_soft) = parts.cut_weight(mrf);
        let slices = units.iter().map(|_| OnceLock::new()).collect();
        Schedule {
            parts,
            units,
            bins,
            cut_by_part,
            mem_budget,
            cut_hard,
            cut_soft,
            slices,
        }
    }

    /// β the partitioning ran under (`usize::MAX` without a budget).
    pub fn beta(&self) -> usize {
        self.parts.beta
    }
}

/// Result of one scheduled inference run.
#[derive(Clone, Debug)]
pub struct ScheduleResult {
    /// Best global assignment found.
    pub truth: Vec<bool>,
    /// Its cost.
    pub cost: Cost,
    /// Total flips across all partition passes.
    pub flips: u64,
    /// Peak single-partition search footprint in bytes — the quantity the
    /// memory budget of Figure 6 constrains.
    pub peak_partition_bytes: usize,
    /// Gauss-Seidel rounds actually executed.
    pub rounds_run: usize,
    /// Whether a full round left the assignment unchanged (always `false`
    /// when the round limit was exhausted first).
    pub converged: bool,
    /// Worker threads used.
    pub threads: usize,
    /// Per-partition best-cost traces, aligned with
    /// [`Schedule::units`]. Flips are cumulative across rounds; elapsed
    /// time restarts at each pass.
    pub unit_traces: Vec<TimeCostTrace>,
}

/// The outcome of scheduled marginal inference: per-atom probabilities
/// plus the total SampleSAT work performed.
#[derive(Clone, Debug)]
pub struct MarginalSamples {
    /// `P(atom = true)` per atom id (0.5 for atoms outside every
    /// partition).
    pub probs: Vec<f64>,
    /// `P(clause satisfied)` per global clause id, under the same
    /// conditioned sampling that produced `probs` — the `E[nᵢ]`
    /// sufficient statistic weight learning reads. Cut clauses satisfied
    /// externally at the conditioning state count 1.0; a cut clause
    /// sampled by several partitions keeps the estimate of the first
    /// partition in schedule order (deterministic for any thread count).
    pub clause_sat: Vec<f64>,
    /// Total WalkSAT/SampleSAT flips across all samplers (and the MAP
    /// conditioning run, when cut clauses require one).
    pub flips: u64,
}

/// One partition pass's outcome, merged after its bin joins.
struct UnitOutcome {
    truth: Vec<bool>,
    flips: u64,
    bytes: usize,
    trace: TimeCostTrace,
}

/// Partition-aware parallel inference over one MRF.
pub struct Scheduler<'a> {
    mrf: &'a Mrf,
    schedule: Arc<Schedule>,
    config: SchedulerConfig,
}

impl<'a> Scheduler<'a> {
    /// Plans a schedule for `mrf` under the given configuration.
    pub fn new(mrf: &'a Mrf, config: SchedulerConfig) -> Scheduler<'a> {
        let schedule = Arc::new(Schedule::plan(mrf, config.mem_budget));
        Scheduler::with_schedule(mrf, schedule, config)
    }

    /// Wraps an already-planned schedule — the serving API's cached-plan
    /// path, where repeated queries over an unchanged grounded generation
    /// should not re-run partitioning and bin packing. Shared by `Arc`:
    /// any number of concurrent queries over one generation can hold the
    /// same plan — and the sub-MRF slices it accumulates — without
    /// cloning it. The schedule must have been planned for this `mrf`
    /// under this configuration's budget, and run only against this
    /// `mrf`'s weights (see [`Schedule`]).
    pub fn with_schedule(
        mrf: &'a Mrf,
        schedule: Arc<Schedule>,
        config: SchedulerConfig,
    ) -> Scheduler<'a> {
        Scheduler {
            mrf,
            schedule,
            config,
        }
    }

    /// Consumes the scheduler, handing its schedule back for reuse.
    pub fn into_schedule(self) -> Arc<Schedule> {
        self.schedule
    }

    /// The planned decomposition.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Effective Gauss-Seidel rounds: 1 when nothing is cut (a second
    /// sweep could not change anything), the configured limit otherwise.
    pub fn rounds(&self) -> usize {
        if self.schedule.parts.cut_clauses.is_empty() {
            1
        } else {
            self.config.rounds.max(1)
        }
    }

    /// Renders the planning decisions — partition sizes, bin packing, cut
    /// weight — in the same tree style as the RDBMS `EXPLAIN` report.
    pub fn explain(&self) -> String {
        let s = &self.schedule;
        let budget = match s.mem_budget {
            Some(b) => format!("budget {}", human_bytes(b)),
            None => "no memory budget".to_string(),
        };
        let beta = if s.beta() == usize::MAX {
            "β=∞".to_string()
        } else {
            format!("β={}", s.beta())
        };
        let mut out = format!(
            "Schedule: {} partitions in {} bins ({beta}, {budget}, threads={}, rounds={})\n",
            s.units.len(),
            s.bins.len(),
            self.config.threads.max(1),
            self.rounds(),
        );
        let cut = if s.parts.cut_clauses.is_empty() {
            "├─ cut: none (partitions are exact connected components)\n".to_string()
        } else {
            format!(
                "├─ cut: {} clauses (hard {}, soft |w| {:.1})\n",
                s.parts.cut_clauses.len(),
                s.cut_hard,
                s.cut_soft
            )
        };
        out.push_str(&cut);
        for (bi, bin) in s.bins.iter().enumerate() {
            let last_bin = bi + 1 == s.bins.len();
            let (branch, stem) = if last_bin {
                ("└─", "   ")
            } else {
                ("├─", "│  ")
            };
            out.push_str(&format!(
                "{branch} Bin {bi}  est {}{}\n",
                human_bytes(bin.total as usize),
                if s.mem_budget.is_some_and(|b| bin.total as usize > b) {
                    " (over budget: single oversized partition)"
                } else {
                    ""
                }
            ));
            for (ji, &ui) in bin.items.iter().enumerate() {
                let u = &s.units[ui];
                let twig = if ji + 1 == bin.items.len() {
                    "└─"
                } else {
                    "├─"
                };
                out.push_str(&format!(
                    "{stem}{twig} P{}  atoms={} internal={} cut={}  est {}\n",
                    u.part,
                    u.atom_count,
                    u.internal_clauses,
                    u.cut_clauses,
                    human_bytes(u.est_bytes)
                ));
            }
        }
        out
    }

    /// Runs MAP inference over the schedule: WalkSAT per partition, the
    /// worker pool per bin, Gauss-Seidel rounds across bins. Records the
    /// (deterministic) best-cost trajectory in `trace` if provided.
    ///
    /// Equivalent to [`Scheduler::run_from`] with the all-`false`
    /// LazySAT default state.
    pub fn run(&self, trace: Option<&mut TimeCostTrace>) -> ScheduleResult {
        self.run_from(&vec![false; self.mrf.num_atoms()], trace)
    }

    /// Runs MAP inference warm-started from `init` (the session API's
    /// repeated-inference path: the previous best truth seeds every
    /// partition's first pass through the snapshot).
    pub fn run_from(&self, init: &[bool], mut trace: Option<&mut TimeCostTrace>) -> ScheduleResult {
        let n = self.mrf.num_atoms();
        assert_eq!(init.len(), n, "warm-start state must cover every atom");
        let mut truth = init.to_vec();
        let mut best_cost = self.mrf.cost(&truth);
        let mut best_truth = truth.clone();
        // Folded best-so-far curve (exact between cut interactions;
        // resynced to the true assembled cost at every bin boundary).
        let mut running = best_cost;
        let mut flips = 0u64;
        let mut peak = 0usize;
        let mut unit_traces: Vec<TimeCostTrace> = self
            .schedule
            .units
            .iter()
            .map(|_| TimeCostTrace::new())
            .collect();
        let mut unit_flips: Vec<u64> = vec![0; self.schedule.units.len()];
        if let Some(t) = trace.as_mut() {
            t.record(0, best_cost);
        }
        let rounds = self.rounds();
        let mut rounds_run = 0;
        let mut converged = false;

        for round in 0..rounds {
            rounds_run = round + 1;
            let mut round_changed = false;
            for bin in &self.schedule.bins {
                let snapshot = truth.clone();
                let outcomes = self.run_bin(bin, &snapshot, round);
                // Merge in schedule order — identical for any pool size.
                for (&ui, outcome) in bin.items.iter().zip(outcomes) {
                    let unit = &self.schedule.units[ui];
                    let pts = outcome.trace.points();
                    let mut last = pts.first().map_or(Cost::ZERO, |p| p.cost);
                    for p in &pts[1..] {
                        // Saturating: a cut clause shared by two partitions
                        // of one bin can be improved by both, so the folded
                        // estimate may briefly over-credit.
                        running = Cost {
                            hard: (running.hard + p.cost.hard).saturating_sub(last.hard),
                            soft: (running.soft + p.cost.soft - last.soft).max(0.0),
                        };
                        last = p.cost;
                        if let Some(t) = trace.as_mut() {
                            t.record(flips + p.flips, running);
                        }
                    }
                    for p in pts {
                        unit_traces[ui].record_at(p.elapsed, unit_flips[ui] + p.flips, p.cost);
                    }
                    unit_flips[ui] += outcome.flips;
                    flips += outcome.flips;
                    peak = peak.max(outcome.bytes);
                    let atoms = &self.schedule.parts.atoms[unit.part];
                    for (local, &global) in atoms.iter().enumerate() {
                        if truth[global as usize] != outcome.truth[local] {
                            truth[global as usize] = outcome.truth[local];
                            round_changed = true;
                        }
                    }
                }
                // Resync with the true assembled cost: within a bin two
                // partitions may have both claimed the same cut clause.
                let cost = self.mrf.cost(&truth);
                running = cost;
                if cost.better_than(best_cost) {
                    best_cost = cost;
                    best_truth.copy_from_slice(&truth);
                    if let Some(t) = trace.as_mut() {
                        t.record(flips, cost);
                    }
                }
            }
            if !round_changed {
                converged = true;
                break;
            }
        }
        if let Some(t) = trace.as_mut() {
            t.record(flips, best_cost);
        }
        ScheduleResult {
            truth: best_truth,
            cost: best_cost,
            flips,
            peak_partition_bytes: peak,
            rounds_run,
            converged,
            threads: self.config.threads.max(1),
            unit_traces,
        }
    }

    /// Runs marginal inference over the schedule: MC-SAT per partition,
    /// conditioned on a MAP mode when cut clauses couple partitions
    /// (exact factorization when they don't — marginals decompose over
    /// components). Atoms outside every partition are uniform (0.5).
    ///
    /// Errors if the MRF has negative-weight clauses (MC-SAT's slice
    /// construction requires non-negative weights).
    pub fn run_marginal(&self, params: &McSatParams) -> Result<MarginalSamples, MlnError> {
        for c in self.mrf.clauses() {
            if c.weight.signum() < 0 {
                return Err(MlnError::general(
                    "MC-SAT marginal inference requires non-negative clause weights",
                ));
            }
        }
        let mut flips = 0u64;
        let condition_state = if self.schedule.parts.cut_clauses.is_empty() {
            vec![false; self.mrf.num_atoms()]
        } else {
            let map_mode = self.run(None);
            flips += map_mode.flips;
            map_mode.truth
        };
        let mut marginals = vec![0.5f64; self.mrf.num_atoms()];
        let mut clause_sat = vec![f64::NAN; self.mrf.num_clauses()];
        for bin in &self.schedule.bins {
            let jobs = &bin.items;
            let run_unit = |ui: usize| -> (Vec<f64>, Vec<(u32, f64)>, u64) {
                let um = self.unit_mrf(ui, &condition_state);
                let pi = self.schedule.units[ui].part;
                let mut mc = McSat::new(um.sub(), derive_seed(params.seed, pi, 0))
                    .expect("weights validated non-negative above");
                let (probs, sub_sat) = mc.marginals_with_clause_stats(params);
                let sat = self.clause_sat(pi, &um, &sub_sat, &condition_state);
                (probs, sat, mc.flips())
            };
            let locals = self.pool_map(jobs, run_unit);
            for (&ui, (local, sat, unit_flips)) in jobs.iter().zip(locals) {
                let atoms = &self.schedule.parts.atoms[self.schedule.units[ui].part];
                for (i, &a) in atoms.iter().enumerate() {
                    marginals[a as usize] = local[i];
                }
                // First write wins: a cut clause is sampled once per
                // touching partition, and schedule order is fixed.
                for (ci, p) in sat {
                    if clause_sat[ci as usize].is_nan() {
                        clause_sat[ci as usize] = p;
                    }
                }
                flips += unit_flips;
            }
        }
        // Every clause lives in some scheduled partition, but stay total:
        // anything unwritten falls back to its truth at the conditioning
        // state.
        for (ci, p) in clause_sat.iter_mut().enumerate() {
            if p.is_nan() {
                *p = f64::from(u8::from(self.mrf.clause(ci).satisfied(&condition_state)));
            }
        }
        Ok(MarginalSamples {
            probs: marginals,
            clause_sat,
            flips,
        })
    }

    /// Executes one bin: workers steal partition passes off a shared
    /// queue; outcomes come back in schedule order.
    fn run_bin(&self, bin: &Bin, snapshot: &[bool], round: usize) -> Vec<UnitOutcome> {
        let total_atoms = self.mrf.num_atoms().max(1) as u128;
        let rounds = self.rounds() as u128;
        // In u128: `max_flips · atoms` overflows u64 for budgets near
        // u64::MAX, while the quotient never exceeds `max_flips`.
        let budget_of = |u: &ScheduleUnit| {
            let share = u128::from(self.config.search.max_flips) * u.atom_count as u128
                / (total_atoms * rounds);
            (share as u64).max(1)
        };
        let pass = |ui: usize| {
            let unit = &self.schedule.units[ui];
            self.run_unit_pass(
                ui,
                snapshot,
                budget_of(unit),
                derive_seed(self.config.search.seed, unit.part, round),
            )
        };
        self.pool_map(&bin.items, pass)
    }

    /// Maps `f` over unit indices with the work-stealing pool: workers
    /// claim the next job off a shared counter as they finish, results
    /// come back in job order. Sequential (no threads spawned) when the
    /// pool — or the job list — has a single entry.
    fn pool_map<T, F>(&self, jobs: &[usize], f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.config.threads.max(1).min(jobs.len());
        if workers <= 1 {
            return jobs.iter().map(|&ui| f(ui)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<parking_lot::Mutex<Option<T>>> =
            jobs.iter().map(|_| parking_lot::Mutex::new(None)).collect();
        crossbeam::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|_| loop {
                    let j = next.fetch_add(1, Ordering::Relaxed);
                    if j >= jobs.len() {
                        break;
                    }
                    *slots[j].lock() = Some(f(jobs[j]));
                });
            }
        })
        .expect("scheduler worker panicked");
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("missing worker result"))
            .collect()
    }

    /// One WalkSAT pass over unit `ui`'s sub-MRF, started from the
    /// partition's atoms in `snapshot`.
    fn run_unit_pass(&self, ui: usize, snapshot: &[bool], budget: u64, seed: u64) -> UnitOutcome {
        let um = self.unit_mrf(ui, snapshot);
        let atoms = &self.schedule.parts.atoms[self.schedule.units[ui].part];
        let init: Vec<bool> = atoms.iter().map(|&a| snapshot[a as usize]).collect();
        let bytes = MemoryFootprint::of(um.sub()).total();
        let mut ws = WalkSat::with_assignment(um.sub(), init, seed);
        let mut trace = TimeCostTrace::new();
        trace.record(0, ws.best_cost());
        let mut last_best = ws.best_cost();
        for _ in 0..budget {
            if !ws.step(self.config.search.noise) {
                break;
            }
            if ws.best_cost().better_than(last_best) {
                last_best = ws.best_cost();
                trace.record(ws.flips(), ws.best_cost());
            }
        }
        UnitOutcome {
            truth: ws.best_truth().to_vec(),
            flips: ws.flips(),
            bytes,
            trace,
        }
    }

    /// The sub-MRF unit `ui` searches under the conditioning state
    /// `state`. A unit with no cut clauses borrows the schedule's slice
    /// ([`Mrf::project`] of its internal clauses), which does not depend
    /// on `state` and is built by whichever pass reaches the unit first;
    /// a unit with cut clauses is conditioned afresh.
    fn unit_mrf(&self, ui: usize, state: &[bool]) -> UnitMrf<'_> {
        let pi = self.schedule.units[ui].part;
        if !self.schedule.cut_by_part[pi].is_empty() {
            return UnitMrf::Conditioned(Box::new(self.condition_unit(pi, state)));
        }
        UnitMrf::Sliced(self.schedule.slices[ui].get_or_init(|| {
            let parts = &self.schedule.parts;
            self.mrf
                .project(&parts.atoms[pi], &parts.internal_clauses[pi])
                .0
        }))
    }

    /// Maps per-sub-clause satisfaction `sub_sat` of partition `pi`'s
    /// sub-MRF back to global clause ids. Clauses the sub-MRF does not
    /// represent read their satisfaction off the conditioning `state`.
    fn clause_sat(
        &self,
        pi: usize,
        um: &UnitMrf<'_>,
        sub_sat: &[f64],
        state: &[bool],
    ) -> Vec<(u32, f64)> {
        let at_state = |ci: u32| {
            let satisfied = self.mrf.clause(ci as usize).satisfied(state);
            (ci, f64::from(u8::from(satisfied)))
        };
        match um {
            // The slice keeps the internal clauses in order, minus the
            // sign-less ones `project` drops.
            UnitMrf::Sliced(_) => {
                let mut fi = 0;
                self.schedule.parts.internal_clauses[pi]
                    .iter()
                    .map(|&ci| {
                        if self.mrf.clause_weight(ci as usize).signum() == 0 {
                            return at_state(ci);
                        }
                        fi += 1;
                        (ci, sub_sat[fi - 1])
                    })
                    .collect()
            }
            UnitMrf::Conditioned(cu) => cu
                .contributors
                .iter()
                .map(|&(fi, ci)| (ci, sub_sat[fi as usize]))
                .chain(cu.fixed.iter().map(|&ci| at_state(ci)))
                .collect(),
        }
    }

    /// Builds the sub-MRF of partition `pi` conditioned on the rest of
    /// `global` (§3.4) through [`MrfBuilder`]: internal clauses come over
    /// verbatim; cut clauses with an externally satisfied literal drop
    /// out for the pass; other cut clauses lose their external literals.
    /// Also maps every global clause of the partition to its fate in the
    /// sub-MRF, so per-sub-clause sampler statistics can be attributed
    /// back to global clause ids.
    fn condition_unit(&self, pi: usize, global: &[bool]) -> ConditionedUnit {
        let atoms = &self.schedule.parts.atoms[pi];
        let mut dense: FxHashMap<AtomId, AtomId> = FxHashMap::default();
        for (i, &a) in atoms.iter().enumerate() {
            dense.insert(a, i as AtomId);
        }
        let mut b = MrfBuilder::new();
        b.reserve_atoms(atoms.len());
        // Contributing global clauses per *builder* index (distinct cut
        // clauses can collapse onto one sub-clause once their external
        // literals drop), plus clauses the sub-MRF cannot represent.
        let mut by_builder: Vec<Vec<u32>> = Vec::new();
        let mut fixed: Vec<u32> = Vec::new();
        let mut residual: Vec<u32> = Vec::new();
        let mut track = |slot: Option<u32>, ci: u32, by_builder: &mut Vec<Vec<u32>>| match slot {
            Some(bi) => {
                if bi as usize == by_builder.len() {
                    by_builder.push(vec![ci]);
                } else {
                    by_builder[bi as usize].push(ci);
                }
            }
            // Empty after conditioning (every literal external and
            // false): constant for the pass, never satisfiable.
            None => residual.push(ci),
        };
        for &ci in &self.schedule.parts.internal_clauses[pi] {
            let c = self.mrf.clause(ci as usize);
            let lits: Vec<Lit> = c
                .lits
                .iter()
                .map(|l| Lit::new(dense[&l.atom()], l.is_positive()))
                .collect();
            let slot = b.add_clause_tracked(lits, c.weight);
            track(slot, ci, &mut by_builder);
        }
        for &ci in &self.schedule.cut_by_part[pi] {
            let c = self.mrf.clause(ci as usize);
            let mut lits = Vec::new();
            let mut satisfied_externally = false;
            for l in c.lits.iter() {
                match dense.get(&l.atom()) {
                    Some(&local) => lits.push(Lit::new(local, l.is_positive())),
                    None => {
                        if l.eval(global[l.atom() as usize]) {
                            satisfied_externally = true;
                            break;
                        }
                        // Externally false literal: drop it.
                    }
                }
            }
            if satisfied_externally {
                fixed.push(ci);
                continue; // fixed for this pass
            }
            let slot = b.add_clause_tracked(lits, c.weight);
            track(slot, ci, &mut by_builder);
        }
        fixed.append(&mut residual);
        let (sub, map) = b.finish_mapped();
        // Kept clauses keep their builder order, so the pairs come out
        // in sub-clause order.
        let mut contributors: Vec<(u32, u32)> = Vec::new();
        for (bi, contrib) in by_builder.into_iter().enumerate() {
            match map[bi] {
                Some(fi) => contributors.extend(contrib.into_iter().map(|ci| (fi, ci))),
                // Merged weight cancelled at finish: the sampler never
                // sees the clause.
                None => fixed.extend(contrib),
            }
        }
        ConditionedUnit {
            sub,
            contributors,
            fixed,
        }
    }
}

/// The sub-MRF a unit is searched on (see [`Scheduler::unit_mrf`]).
enum UnitMrf<'s> {
    /// A cut-free unit's slice, sliced once per generation and kept in
    /// its [`Schedule`].
    Sliced(&'s Mrf),
    /// A unit with cut clauses, conditioned on one pass's state.
    Conditioned(Box<ConditionedUnit>),
}

impl UnitMrf<'_> {
    fn sub(&self) -> &Mrf {
        match self {
            UnitMrf::Sliced(sub) => sub,
            UnitMrf::Conditioned(cu) => &cu.sub,
        }
    }
}

/// A conditioned sub-MRF plus the bookkeeping that maps sampler
/// statistics back to global clause ids
/// ([`Scheduler::condition_unit`]). Only a unit with cut clauses is
/// conditioned, once per pass; a cut-free unit reuses its generation's
/// slice ([`UnitMrf::Sliced`]) on every pass instead.
struct ConditionedUnit {
    sub: Mrf,
    /// `(sub-clause, global clause)` pairs in sub-clause order: the
    /// global clauses feeding each sub-clause (distinct cut clauses can
    /// collapse onto one once their external literals drop).
    contributors: Vec<(u32, u32)>,
    /// Global clauses of the partition the sub-MRF does not represent:
    /// cut clauses satisfied externally or conditioned to the empty
    /// clause, and clauses whose weight cancelled to zero. Their
    /// satisfaction is read off the conditioning state.
    fixed: Vec<u32>,
}

/// Derives the RNG seed of one partition pass. Depends only on the base
/// seed, the partition id, and the round — never on the worker thread or
/// execution order — so runs are reproducible for any thread count.
fn derive_seed(base: u64, part: usize, round: usize) -> u64 {
    let mut z = base
        .wrapping_add((part as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add((round as u64).wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuffy_mln::weight::Weight;

    /// Example 1 of the paper with N two-atom components.
    fn example1(n: u32) -> Mrf {
        let mut b = MrfBuilder::new();
        for i in 0..n {
            let (x, y) = (2 * i, 2 * i + 1);
            b.add_clause(vec![Lit::pos(x)], Weight::Soft(1.0));
            b.add_clause(vec![Lit::pos(y)], Weight::Soft(1.0));
            b.add_clause(vec![Lit::pos(x), Lit::pos(y)], Weight::Soft(-1.0));
        }
        b.finish()
    }

    /// Example 2 of the paper: two dense "all equal" clusters joined by
    /// one bridge clause, satisfied at the all-true optimum.
    fn example2() -> Mrf {
        let mut b = MrfBuilder::new();
        let cluster = |b: &mut MrfBuilder, base: u32| {
            for i in 0..3u32 {
                for j in (i + 1)..3 {
                    b.add_clause(
                        vec![Lit::neg(base + i), Lit::pos(base + j)],
                        Weight::Soft(2.0),
                    );
                    b.add_clause(
                        vec![Lit::pos(base + i), Lit::neg(base + j)],
                        Weight::Soft(2.0),
                    );
                }
            }
            for i in 0..3u32 {
                b.add_clause(vec![Lit::pos(base + i)], Weight::Soft(0.5));
            }
        };
        cluster(&mut b, 0);
        cluster(&mut b, 3);
        b.add_clause(vec![Lit::neg(0), Lit::pos(3)], Weight::Soft(1.0));
        b.finish()
    }

    fn config(max_flips: u64, seed: u64) -> SchedulerConfig {
        SchedulerConfig {
            search: WalkSatParams {
                max_flips,
                seed,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn parallel_matches_sequential_quality() {
        let m = example1(64);
        let s = Scheduler::new(
            &m,
            SchedulerConfig {
                threads: 4,
                ..config(64 * 100, 21)
            },
        );
        let r = s.run(None);
        assert_eq!(r.cost, Cost::soft(64.0)); // global optimum
        assert!(r.truth.iter().all(|&t| t));
        assert_eq!(r.threads, 4);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let m = example1(16);
        let run = |threads| {
            let mut trace = TimeCostTrace::new();
            let s = Scheduler::new(
                &m,
                SchedulerConfig {
                    threads,
                    ..config(16 * 200, 4)
                },
            );
            let r = s.run(Some(&mut trace));
            let curve: Vec<(u64, u64, String)> = trace
                .points()
                .iter()
                .map(|p| (p.flips, p.cost.hard, format!("{}", p.cost)))
                .collect();
            (r.truth, format!("{}", r.cost), r.flips, curve)
        };
        let base = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), base, "threads={threads} diverged");
        }
    }

    #[test]
    fn single_thread_is_allowed() {
        let m = example1(4);
        let s = Scheduler::new(
            &m,
            SchedulerConfig {
                threads: 0,
                ..config(4 * 200, 42)
            },
        );
        let r = s.run(None);
        assert_eq!(r.threads, 1);
        assert_eq!(r.cost, Cost::soft(4.0));
    }

    #[test]
    fn reaches_optimum_across_partitions() {
        let m = example2();
        // β = 21 splits the two clusters (budget = β · bytes/unit).
        let s = Scheduler::new(
            &m,
            SchedulerConfig {
                mem_budget: Some(21 * tuffy_mrf::memory::BYTES_PER_SIZE_UNIT),
                rounds: 4,
                ..config(8_000, 9)
            },
        );
        assert!(s.schedule().units.len() >= 2);
        assert!(!s.schedule().parts.cut_clauses.is_empty());
        let r = s.run(None);
        assert!(r.cost.is_zero(), "cost = {}", r.cost);
        assert!(r.truth.iter().all(|&t| t));
    }

    #[test]
    fn conditioning_respects_external_state() {
        let m = example2();
        let s = Scheduler::new(
            &m,
            SchedulerConfig {
                mem_budget: Some(21 * tuffy_mrf::memory::BYTES_PER_SIZE_UNIT),
                ..config(1_000, 1)
            },
        );
        // With the bridge clause ¬a0 ∨ b0: if the external side satisfies
        // it, the conditioned sub-MRF drops the clause.
        let pi = s.schedule().parts.label[0] as usize;
        let mut global = vec![false; m.num_atoms()];
        global[3] = true; // external literal true
        let sub_sat = s.condition_unit(pi, &global).sub;
        let global_unsat = vec![false; m.num_atoms()];
        let sub_unsat = s.condition_unit(pi, &global_unsat).sub;
        assert_eq!(sub_sat.clauses().len() + 1, sub_unsat.clauses().len());
    }

    #[test]
    fn unbudgeted_schedule_degenerates_to_components() {
        let m = example2();
        let s = Scheduler::new(&m, config(8_000, 2));
        assert_eq!(s.schedule().units.len(), 1);
        assert_eq!(s.schedule().bins.len(), 1);
        assert!(s.schedule().parts.cut_clauses.is_empty());
        assert_eq!(s.rounds(), 1);
        let r = s.run(None);
        assert!(r.cost.is_zero());
        assert_eq!(r.rounds_run, 1);
    }

    #[test]
    fn huge_budget_is_bit_identical_to_unbudgeted() {
        let m = example1(12);
        let unbudgeted = Scheduler::new(&m, config(4_000, 7)).run(None);
        let budgeted = Scheduler::new(
            &m,
            SchedulerConfig {
                mem_budget: Some(1 << 30),
                ..config(4_000, 7)
            },
        )
        .run(None);
        assert_eq!(unbudgeted.truth, budgeted.truth);
        assert_eq!(unbudgeted.flips, budgeted.flips);
        assert_eq!(format!("{}", unbudgeted.cost), format!("{}", budgeted.cost));
    }

    #[test]
    fn beats_monolithic_walksat_on_equal_budget() {
        // Theorem 3.1's phenomenon: with the same total flips, the
        // partition-aware schedule reaches the global optimum while the
        // monolithic walk keeps breaking already-optimal components.
        let n = 100u32;
        let m = example1(n);
        let budget = 60 * n as u64;
        let aware = Scheduler::new(&m, config(budget, 17)).run(None).cost;
        let mut mono = WalkSat::new(&m, 17);
        mono.run(
            &WalkSatParams {
                max_flips: budget,
                seed: 17,
                ..Default::default()
            },
            None,
        );
        assert_eq!(aware, Cost::soft(n as f64));
        assert!(
            mono.best_cost().soft > aware.soft,
            "monolithic {} should trail partition-aware {}",
            mono.best_cost(),
            aware
        );
    }

    #[test]
    fn converges_early_when_a_round_changes_nothing() {
        let m = example2();
        let s = Scheduler::new(
            &m,
            SchedulerConfig {
                mem_budget: Some(21 * tuffy_mrf::memory::BYTES_PER_SIZE_UNIT),
                rounds: 50,
                ..config(50_000, 3)
            },
        );
        let r = s.run(None);
        assert!(r.converged, "50 rounds should be more than enough");
        assert!(r.rounds_run < 50, "ran all {} rounds", r.rounds_run);
    }

    #[test]
    fn per_partition_traces_cover_every_unit() {
        let m = example1(8);
        let s = Scheduler::new(&m, config(8 * 300, 5));
        let r = s.run(None);
        assert_eq!(r.unit_traces.len(), s.schedule().units.len());
        for t in &r.unit_traces {
            assert!(!t.points().is_empty());
        }
    }

    #[test]
    fn marginals_factor_over_components() {
        // Unit clause `1.0 x` per component: P(x) = e / (1 + e).
        let mut b = MrfBuilder::new();
        for i in 0..6u32 {
            b.add_clause(vec![Lit::pos(i)], Weight::Soft(1.0));
        }
        let m = b.finish();
        let s = Scheduler::new(
            &m,
            SchedulerConfig {
                threads: 3,
                ..config(1_000, 8)
            },
        );
        let p = s
            .run_marginal(&McSatParams {
                samples: 600,
                burn_in: 40,
                sample_sat_steps: 30,
                seed: 8,
                ..Default::default()
            })
            .unwrap();
        let expected = 1f64.exp() / (1.0 + 1f64.exp());
        for (i, &pi) in p.probs.iter().enumerate() {
            assert!((pi - expected).abs() < 0.1, "atom {i}: {pi:.3}");
        }
        // A positive unit clause is satisfied exactly when its atom is
        // true, so the clause-satisfaction column must match the atom
        // marginal bit for bit.
        assert_eq!(p.clause_sat.len(), m.num_clauses());
        for (ci, &ps) in p.clause_sat.iter().enumerate() {
            assert_eq!(ps, p.probs[ci], "clause {ci}");
        }
        assert!(p.flips > 0, "samplers should report their work");
    }

    #[test]
    fn run_from_all_false_matches_run() {
        let m = example1(8);
        let s = Scheduler::new(&m, config(8 * 200, 12));
        let cold = s.run(None);
        let warm = s.run_from(&vec![false; m.num_atoms()], None);
        assert_eq!(cold.truth, warm.truth);
        assert_eq!(cold.flips, warm.flips);
        assert_eq!(format!("{}", cold.cost), format!("{}", warm.cost));
    }

    #[test]
    fn warm_start_from_optimum_cannot_regress() {
        let m = example1(8);
        let s = Scheduler::new(&m, config(8 * 200, 12));
        let optimum = vec![true; m.num_atoms()];
        let seed_cost = m.cost(&optimum);
        let r = s.run_from(&optimum, None);
        assert!(!seed_cost.better_than(r.cost), "warm start regressed");
    }

    #[test]
    fn marginals_reject_negative_weights() {
        let m = example1(2); // contains a −1 clause
        let s = Scheduler::new(&m, config(100, 1));
        assert!(s.run_marginal(&McSatParams::default()).is_err());
    }

    #[test]
    fn explain_names_every_partition() {
        let m = example2();
        let s = Scheduler::new(
            &m,
            SchedulerConfig {
                mem_budget: Some(21 * tuffy_mrf::memory::BYTES_PER_SIZE_UNIT),
                ..config(1_000, 1)
            },
        );
        let text = s.explain();
        assert!(text.starts_with("Schedule: "));
        for u in &s.schedule().units {
            assert!(text.contains(&format!("P{}", u.part)), "{text}");
        }
        assert!(text.contains("cut: 1 clauses"), "{text}");
    }

    #[test]
    fn flip_budget_near_u64_max_does_not_overflow() {
        // `max_flips · atoms` used to overflow u64 here. Example 2's
        // optimum costs 0, so WalkSAT stops there long before the
        // budget runs out.
        let m = example2();
        for mem_budget in [None, Some(1 << 30)] {
            let s = Scheduler::new(
                &m,
                SchedulerConfig {
                    mem_budget,
                    ..config(u64::MAX, 5)
                },
            );
            let r = s.run(None);
            assert!(r.cost.is_zero(), "cost = {}", r.cost);
            assert!(r.truth.iter().all(|&t| t));
        }
    }

    /// A relearned-style MRF over `atoms` atoms from a clause soup: each
    /// clause is attributed to one of three rules, then reweighted, so
    /// neutral `Soft(0.0)` clauses can occur alongside soft and hard
    /// ones.
    fn soup_mrf(atoms: u32, clauses: &[(Vec<(u8, bool)>, usize)], rule_weights: &[i8]) -> Mrf {
        let mut b = MrfBuilder::new();
        b.reserve_atoms(atoms as usize);
        for (lits, rule) in clauses {
            let lits = lits
                .iter()
                .map(|&(a, pos)| Lit::new(u32::from(a) % atoms, pos))
                .collect();
            b.add_clause_from_rule(lits, Weight::Soft(1.0), *rule as u32);
        }
        let weights: Vec<Weight> = rule_weights
            .iter()
            .map(|&w| match w {
                3 => Weight::Hard,
                w => Weight::Soft(f64::from(w)),
            })
            .collect();
        b.finish().reweight(&weights).unwrap()
    }

    proptest::proptest! {
        /// The per-generation slice of every cut-free unit is column for
        /// column the sub-MRF the builder conditions for it, with the same
        /// clause bookkeeping, under any state.
        #[test]
        fn cut_free_slices_match_the_conditioned_builder_output(
            clauses in proptest::collection::vec(
                (proptest::collection::vec((0u8..14, proptest::prelude::any::<bool>()), 1..4), 0usize..3),
                1..30,
            ),
            rule_weights in proptest::collection::vec(-2i8..4, 3..4),
            budget_units in 4usize..60,
            state in proptest::collection::vec(proptest::prelude::any::<bool>(), 14..15),
            sampled in proptest::collection::vec(0u32..100, 30..31),
        ) {
            let m = soup_mrf(14, &clauses, &rule_weights);
            let budget = budget_units * tuffy_mrf::memory::BYTES_PER_SIZE_UNIT;
            for mem_budget in [None, Some(budget)] {
                let s = Scheduler::new(&m, SchedulerConfig { mem_budget, ..config(100, 1) });
                for (ui, unit) in s.schedule().units.iter().enumerate() {
                    let slice = s.unit_mrf(ui, &state);
                    if unit.cut_clauses > 0 {
                        proptest::prop_assert!(matches!(slice, UnitMrf::Conditioned(_)));
                        continue;
                    }
                    proptest::prop_assert!(matches!(slice, UnitMrf::Sliced(_)));
                    let built = UnitMrf::Conditioned(Box::new(s.condition_unit(unit.part, &state)));
                    let (a, b) = (slice.sub(), built.sub());
                    proptest::prop_assert_eq!(a.num_atoms(), b.num_atoms());
                    proptest::prop_assert_eq!(a.num_clauses(), b.num_clauses());
                    proptest::prop_assert_eq!(a.base_cost, b.base_cost);
                    for ci in 0..a.num_clauses() {
                        proptest::prop_assert_eq!(a.clause_lits(ci), b.clause_lits(ci));
                        proptest::prop_assert_eq!(a.clause_weight(ci), b.clause_weight(ci));
                        proptest::prop_assert_eq!(a.violation_cost(ci), b.violation_cost(ci));
                        for sat in [false, true] {
                            proptest::prop_assert_eq!(
                                a.clause_violated_when(ci, sat),
                                b.clause_violated_when(ci, sat)
                            );
                        }
                    }
                    for atom in 0..a.num_atoms() as AtomId {
                        proptest::prop_assert_eq!(a.occurrences(atom), b.occurrences(atom));
                    }
                    // Sampler statistics attribute back to the same
                    // global clauses with the same values.
                    let sub_sat: Vec<f64> =
                        sampled[..a.num_clauses()].iter().map(|&p| f64::from(p) / 100.0).collect();
                    let attributed = |um: &UnitMrf<'_>| {
                        let mut sat: Vec<(u32, u64)> = s
                            .clause_sat(unit.part, um, &sub_sat, &state)
                            .into_iter()
                            .map(|(ci, p)| (ci, p.to_bits()))
                            .collect();
                        sat.sort_unstable();
                        sat
                    };
                    proptest::prop_assert_eq!(attributed(&slice), attributed(&built));
                    proptest::prop_assert_eq!(
                        MemoryFootprint::of(a).total(),
                        MemoryFootprint::of(b).total()
                    );
                }
            }
        }
    }
}
