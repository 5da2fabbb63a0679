//! Metamorphic properties of the partition-aware scheduler: splitting an
//! MRF can cost at most the cut weight relative to unsplit search, a
//! budget generous enough for one bin changes nothing at all, and the
//! sub-MRF slices a schedule keeps across runs change nothing either.

use proptest::prelude::*;
use tuffy_mln::weight::Weight;
use tuffy_mrf::{Lit, Mrf, MrfBuilder};
use tuffy_search::mcsat::McSatParams;
use tuffy_search::{MarginalSamples, ScheduleResult, Scheduler, SchedulerConfig};
use tuffy_search::{WalkSat, WalkSatParams};

const ATOMS: u32 = 10;

/// A random soft-weighted MRF from a clause soup (no hard clauses, so
/// costs stay in the soft component and the cut bound is additive).
fn build_mrf(clauses: &[(Vec<(u8, bool)>, i8)]) -> Mrf {
    let mut b = MrfBuilder::new();
    b.reserve_atoms(ATOMS as usize);
    for (lits, w) in clauses {
        let lits: Vec<Lit> = lits
            .iter()
            .map(|&(a, pos)| Lit::new(u32::from(a) % ATOMS, pos))
            .collect();
        // Weights in ±[1, 4], never zero (zero-weight clauses are noise).
        let w = f64::from(*w);
        let weight = Weight::Soft(if w >= 0.0 { w + 1.0 } else { w - 1.0 });
        b.add_clause(lits, weight);
    }
    b.finish()
}

fn config(mem_budget: Option<usize>, seed: u64) -> SchedulerConfig {
    SchedulerConfig {
        mem_budget,
        rounds: 4,
        search: WalkSatParams {
            max_flips: 20_000,
            seed,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// A MAP result reduced to exact bits.
fn map_bits(r: ScheduleResult) -> (Vec<bool>, u64, u64, u64, usize) {
    (
        r.truth,
        r.cost.hard,
        r.cost.soft.to_bits(),
        r.flips,
        r.rounds_run,
    )
}

/// A marginal result reduced to exact bits.
fn marginal_bits(m: MarginalSamples) -> (Vec<u64>, Vec<u64>, u64) {
    let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect();
    (bits(&m.probs), bits(&m.clause_sat), m.flips)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A schedule keeps each cut-free unit's sub-MRF after the first run
    /// that needs it. MAP and MC-SAT answers are bit-identical on a cold
    /// schedule and on a warm one, at 1, 2 and 4 workers, with and
    /// without a budget that cuts clauses.
    #[test]
    fn cached_slices_answer_like_cold_ones_at_any_thread_count(
        clauses in proptest::collection::vec(
            (proptest::collection::vec((0u8..10, any::<bool>()), 1..4), 0i8..4),
            1..25,
        ),
        budget_units in 4usize..40,
        budgeted in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        // Non-negative weights only: MC-SAT rejects negative ones.
        let mrf = build_mrf(&clauses);
        let mem_budget = budgeted.then_some(budget_units * tuffy_mrf::memory::BYTES_PER_SIZE_UNIT);
        let params = McSatParams {
            samples: 20,
            burn_in: 2,
            sample_sat_steps: 50,
            seed,
            ..Default::default()
        };
        let cfg = |threads| SchedulerConfig {
            threads,
            ..config(mem_budget, seed)
        };
        let map_cold = map_bits(Scheduler::new(&mrf, cfg(1)).run(None));
        let marginal_cold =
            marginal_bits(Scheduler::new(&mrf, cfg(1)).run_marginal(&params).unwrap());
        for threads in [1, 2, 4] {
            let s = Scheduler::new(&mrf, cfg(threads));
            prop_assert_eq!(&map_bits(s.run(None)), &map_cold, "cold MAP, {} threads", threads);
            prop_assert_eq!(&map_bits(s.run(None)), &map_cold, "warm MAP, {} threads", threads);
            prop_assert_eq!(
                &marginal_bits(s.run_marginal(&params).unwrap()),
                &marginal_cold,
                "warm marginal, {} threads",
                threads
            );
            let s = Scheduler::new(&mrf, cfg(threads));
            prop_assert_eq!(
                &marginal_bits(s.run_marginal(&params).unwrap()),
                &marginal_cold,
                "cold marginal, {} threads",
                threads
            );
            let warm = Scheduler::with_schedule(&mrf, s.into_schedule(), cfg(threads));
            prop_assert_eq!(&map_bits(warm.run(None)), &map_cold, "MAP after marginal, {} threads", threads);
        }
    }

    /// Partitioned inference with *any* bin count ends within the
    /// cut-clause weight bound of the sequential single-partition run:
    /// every internal clause is searched exactly, so only cut clauses
    /// (total soft weight `cut_soft`) can be lost to the decomposition.
    #[test]
    fn partitioned_cost_is_within_the_cut_weight_bound(
        clauses in proptest::collection::vec(
            (proptest::collection::vec((0u8..10, any::<bool>()), 1..4), -3i8..4),
            1..25,
        ),
        budget_units in 4usize..40,
        seed in 0u64..1_000,
    ) {
        let mrf = build_mrf(&clauses);
        let sequential = Scheduler::new(&mrf, config(None, seed)).run(None);
        let budget = budget_units * tuffy_mrf::memory::BYTES_PER_SIZE_UNIT;
        let scheduler = Scheduler::new(&mrf, config(Some(budget), seed));
        prop_assert!(!scheduler.schedule().bins.is_empty());
        let cut_soft = scheduler.schedule().cut_soft;
        let partitioned = scheduler.run(None);
        prop_assert_eq!(sequential.cost.hard, 0);
        prop_assert_eq!(partitioned.cost.hard, 0);
        prop_assert!(
            partitioned.cost.soft <= sequential.cost.soft + cut_soft + 1e-6,
            "partitioned {} > sequential {} + cut {:.3} ({} partitions, {} bins)",
            partitioned.cost.soft,
            sequential.cost.soft,
            cut_soft,
            scheduler.schedule().units.len(),
            scheduler.schedule().bins.len(),
        );
    }

    /// A memory budget large enough for a single bin is bit-identical to
    /// the sequential (unbudgeted) path: same assignment, same cost, same
    /// flip count, partition for partition.
    #[test]
    fn one_bin_budget_is_bit_identical_to_sequential(
        clauses in proptest::collection::vec(
            (proptest::collection::vec((0u8..10, any::<bool>()), 1..4), -3i8..4),
            1..25,
        ),
        seed in 0u64..1_000,
        threads in 1usize..5,
    ) {
        let mrf = build_mrf(&clauses);
        let sequential = Scheduler::new(&mrf, config(None, seed)).run(None);
        let roomy = Scheduler::new(
            &mrf,
            SchedulerConfig {
                threads,
                ..config(Some(1 << 30), seed)
            },
        );
        prop_assert!(roomy.schedule().bins.len() <= 1, "budget should fit one bin");
        let budgeted = roomy.run(None);
        prop_assert_eq!(&budgeted.truth, &sequential.truth);
        prop_assert_eq!(budgeted.flips, sequential.flips);
        prop_assert_eq!(
            format!("{}", budgeted.cost),
            format!("{}", sequential.cost)
        );
    }

    /// The scheduler's sequential no-budget path solves each component at
    /// least as well as monolithic WalkSAT given the same total flips
    /// (Theorem 3.1's direction, allowing ties on easy instances).
    #[test]
    fn schedule_never_trails_monolithic_by_more_than_tolerance(
        clauses in proptest::collection::vec(
            (proptest::collection::vec((0u8..10, any::<bool>()), 1..4), 1i8..4),
            1..20,
        ),
        seed in 0u64..1_000,
    ) {
        let mrf = build_mrf(&clauses);
        let scheduled = Scheduler::new(&mrf, config(None, seed)).run(None);
        let mut mono = WalkSat::new(&mrf, seed);
        mono.run(
            &WalkSatParams {
                max_flips: 20_000,
                seed,
                ..Default::default()
            },
            None,
        );
        prop_assert!(
            scheduled.cost.soft <= mono.best_cost().soft + 1e-6,
            "scheduled {} trails monolithic {}",
            scheduled.cost,
            mono.best_cost()
        );
    }
}
