//! CSR-vs-legacy equivalence: [`Mrf::project`] slices the CSR arenas
//! directly instead of re-running clause construction; these properties
//! pin that the fast path agrees with a naive sub-MRF rebuilt through
//! [`MrfBuilder`] — same clause multiset, same costs, same metrics, and,
//! since both walk the inside clauses in index order, the same literal,
//! weight, violation and occurrence columns.

use proptest::prelude::*;
use tuffy_mln::weight::Weight;
use tuffy_mrf::{AtomId, Lit, Mrf, MrfBuilder};

/// A random MRF from a clause soup over `n_atoms` atoms.
fn build_mrf(n_atoms: u32, clauses: &[(Vec<(u8, bool)>, i8)]) -> Mrf {
    let mut b = MrfBuilder::new();
    b.reserve_atoms(n_atoms as usize);
    for (lits, w) in clauses {
        let lits: Vec<Lit> = lits
            .iter()
            .map(|&(a, pos)| Lit::new(u32::from(a) % n_atoms, pos))
            .collect();
        let weight = match *w {
            0 => Weight::Hard,
            x => Weight::Soft(f64::from(x)),
        };
        b.add_clause(lits, weight);
    }
    b.finish()
}

/// The clauses of `mrf` fully inside `atoms`, ascending.
fn inside(mrf: &Mrf, atoms: &[AtomId]) -> Vec<u32> {
    (0..mrf.num_clauses() as u32)
        .filter(|&ci| {
            mrf.clause_lits(ci as usize)
                .iter()
                .all(|l| atoms.contains(&l.atom()))
        })
        .collect()
}

/// Asserts `fast` and `slow` hold the same clause columns, clause by
/// clause, and the same occurrence lists, atom by atom. (Opacity is
/// compared separately: a slice carries only the flags of the clauses
/// it drops, never its source's.)
fn assert_same_columns(fast: &Mrf, slow: &Mrf) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(fast.num_atoms(), slow.num_atoms());
    prop_assert_eq!(fast.num_clauses(), slow.num_clauses());
    prop_assert_eq!(fast.base_cost, slow.base_cost);
    for ci in 0..fast.num_clauses() {
        prop_assert_eq!(fast.clause_lits(ci), slow.clause_lits(ci));
        prop_assert_eq!(fast.clause_weight(ci), slow.clause_weight(ci));
        prop_assert_eq!(fast.violation_cost(ci), slow.violation_cost(ci));
        for satisfied in [false, true] {
            prop_assert_eq!(
                fast.clause_violated_when(ci, satisfied),
                slow.clause_violated_when(ci, satisfied)
            );
        }
    }
    for a in 0..fast.num_atoms() as AtomId {
        prop_assert_eq!(fast.occurrences(a), slow.occurrences(a));
    }
    Ok(())
}

/// The legacy projection: walk the source clauses, keep those fully
/// inside `atoms`, and rebuild them through the builder with remapped
/// literals — exactly what `project` did before the arena-slicing path.
fn naive_project(mrf: &Mrf, atoms: &[AtomId]) -> Mrf {
    let mut dense = std::collections::HashMap::new();
    for (i, &a) in atoms.iter().enumerate() {
        dense.insert(a, i as AtomId);
    }
    let mut b = MrfBuilder::new();
    b.reserve_atoms(atoms.len());
    for c in mrf.clauses() {
        if !c.lits.iter().all(|l| dense.contains_key(&l.atom())) {
            continue;
        }
        let lits: Vec<Lit> = c
            .lits
            .iter()
            .map(|l| Lit::new(dense[&l.atom()], l.is_positive()))
            .collect();
        b.add_clause(lits, c.weight);
    }
    b.finish()
}

/// Canonical clause multiset: sorted literal vectors + rendered weight.
fn canon(mrf: &Mrf) -> Vec<(Vec<u32>, String)> {
    let mut v: Vec<(Vec<u32>, String)> = mrf
        .clauses()
        .iter()
        .map(|c| {
            let mut lits: Vec<u32> = c.lits.iter().map(|l| l.raw()).collect();
            lits.sort_unstable();
            (lits, format!("{}", c.weight))
        })
        .collect();
    v.sort();
    v
}

proptest! {
    #[test]
    fn project_agrees_with_naive_rebuild(
        clauses in proptest::collection::vec(
            (proptest::collection::vec((0u8..12, any::<bool>()), 1..4), -3i8..4),
            1..30,
        ),
        // A random atom subset, as a 12-bit membership mask.
        mask in 1u16..(1 << 12),
        assignments in proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), 12..13), 1..4,
        ),
    ) {
        let mrf = build_mrf(12, &clauses);
        let atoms: Vec<AtomId> = (0..12u32).filter(|a| mask & (1 << a) != 0).collect();
        let (fast, origin) = mrf.project(&atoms, &inside(&mrf, &atoms));
        let naive = naive_project(&mrf, &atoms);
        assert_same_columns(&fast, &naive)?;
        for a in 0..fast.num_atoms() as AtomId {
            prop_assert_eq!(fast.patch_opaque(a), naive.patch_opaque(a));
        }

        prop_assert_eq!(fast.num_atoms(), naive.num_atoms());
        prop_assert_eq!(fast.clauses().len(), naive.clauses().len());
        prop_assert_eq!(origin.len(), fast.clauses().len());
        prop_assert_eq!(canon(&fast), canon(&naive));
        prop_assert_eq!(fast.total_literals(), naive.total_literals());
        prop_assert_eq!(fast.size_metric(), naive.size_metric());
        prop_assert_eq!(fast.clause_bytes(), naive.clause_bytes());

        // Same world costs on the projected atom space.
        for assignment in &assignments {
            let sub: Vec<bool> = atoms.iter().map(|&a| assignment[a as usize]).collect();
            prop_assert_eq!(fast.cost(&sub), naive.cost(&sub));
        }

        // Origins point at clauses with the same weight and arity.
        for (ci, &src) in origin.iter().enumerate() {
            let (sub_c, src_c) = (fast.clause(ci), mrf.clause(src as usize));
            prop_assert_eq!(sub_c.weight, src_c.weight);
            prop_assert_eq!(sub_c.lits.len(), src_c.lits.len());
            prop_assert_eq!(fast.provenance(ci), mrf.provenance(src as usize));
        }
    }

    /// Projecting the full atom space in identity order is the identity
    /// on the clause columns.
    #[test]
    fn full_projection_is_identity(
        clauses in proptest::collection::vec(
            (proptest::collection::vec((0u8..8, any::<bool>()), 1..4), -2i8..3),
            1..20,
        ),
    ) {
        let mrf = build_mrf(8, &clauses);
        let atoms: Vec<AtomId> = (0..8).collect();
        let all: Vec<u32> = (0..mrf.num_clauses() as u32).collect();
        let (sub, origin) = mrf.project(&atoms, &all);
        prop_assert_eq!(canon(&sub), canon(&mrf));
        prop_assert_eq!(sub.total_literals(), mrf.total_literals());
        prop_assert_eq!(origin, all);
        assert_same_columns(&sub, &mrf)?;
    }

    /// Relearned sources can carry neutral `Soft(0.0)` clauses; the slice
    /// drops them exactly as a builder fed the same clauses does, so the
    /// columns still agree one for one.
    #[test]
    fn project_of_a_relearned_mrf_agrees_with_naive_rebuild(
        clauses in proptest::collection::vec(
            (proptest::collection::vec((0u8..10, any::<bool>()), 1..4), 0usize..3),
            1..25,
        ),
        rule_weights in proptest::collection::vec(-2i8..3, 3..4),
        mask in 1u16..(1 << 10),
    ) {
        let mut b = MrfBuilder::new();
        b.reserve_atoms(10);
        for (lits, rule) in &clauses {
            let lits: Vec<Lit> = lits.iter().map(|&(a, pos)| Lit::new(u32::from(a), pos)).collect();
            b.add_clause_from_rule(lits, Weight::Soft(1.0), *rule as u32);
        }
        let weights: Vec<Weight> = rule_weights.iter().map(|&w| Weight::Soft(f64::from(w))).collect();
        let mrf = b.finish().reweight(&weights).unwrap();
        let atoms: Vec<AtomId> = (0..10u32).filter(|a| mask & (1 << a) != 0).collect();
        let (fast, origin) = mrf.project(&atoms, &inside(&mrf, &atoms));
        let naive = naive_project(&mrf, &atoms);
        assert_same_columns(&fast, &naive)?;
        for a in 0..fast.num_atoms() as AtomId {
            prop_assert_eq!(fast.patch_opaque(a), naive.patch_opaque(a));
        }
        for (ci, &src) in origin.iter().enumerate() {
            prop_assert_eq!(fast.clause_weight(ci), mrf.clause_weight(src as usize));
            prop_assert!(mrf.clause_weight(src as usize).signum() != 0);
            // Rule origins are not carried: a slice is never reweighted.
            prop_assert!(fast.clause_origins(ci).is_empty());
        }
    }
}
