//! The bit-identity gate: a MAP answer reduced to what must match
//! exactly between the wire, the in-process engine and a reloaded or
//! recovered engine.

use tuffy::{render_atom, MapResult, MlnProgram};
use tuffy_serve::wire::WireMapAnswer;

/// A MAP answer's comparable content: hard cost, soft-cost bits, flips
/// and the rendered true atoms. Generation ids are left out on purpose:
/// they restart when an engine is reloaded or recovered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    pub hard: u64,
    pub soft_bits: u64,
    pub flips: u64,
    pub atoms: Vec<String>,
}

impl Answer {
    pub fn from_wire(a: &WireMapAnswer) -> Answer {
        Answer {
            hard: a.cost_hard,
            soft_bits: a.cost_soft_bits,
            flips: a.flips,
            atoms: a.atoms.clone(),
        }
    }

    pub fn from_result(program: &MlnProgram, r: &MapResult) -> Answer {
        Answer {
            hard: r.cost.hard,
            soft_bits: r.cost.soft.to_bits(),
            flips: r.report.flips,
            atoms: r
                .true_atoms()
                .iter()
                .map(|a| render_atom(program, a))
                .collect(),
        }
    }

    /// The soft cost as a number.
    pub fn soft(&self) -> f64 {
        f64::from_bits(self.soft_bits)
    }

    /// `Ok` when `self` and `other` are bit-identical; otherwise names
    /// the first difference.
    pub fn same_as(&self, other: &Answer) -> Result<(), String> {
        if self.hard != other.hard || self.soft_bits != other.soft_bits {
            return Err(format!(
                "cost differs: hard {} vs {}, soft {:#018x} vs {:#018x}",
                self.hard, other.hard, self.soft_bits, other.soft_bits
            ));
        }
        if self.flips != other.flips {
            return Err(format!("flips differ: {} vs {}", self.flips, other.flips));
        }
        if self.atoms != other.atoms {
            let at = self
                .atoms
                .iter()
                .zip(&other.atoms)
                .position(|(a, b)| a != b);
            return Err(format!(
                "true atoms differ ({} vs {} atoms, first difference at {:?})",
                self.atoms.len(),
                other.atoms.len(),
                at
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer() -> Answer {
        Answer {
            hard: 0,
            soft_bits: 14146.5f64.to_bits(),
            flips: 10_000,
            atoms: vec!["cat(P1, Cat2)".into(), "cat(P3, Cat0)".into()],
        }
    }

    #[test]
    fn identical_answers_pass() {
        assert_eq!(answer().same_as(&answer()), Ok(()));
    }

    #[test]
    fn one_flipped_cost_bit_trips_the_gate() {
        let mut perturbed = answer();
        perturbed.soft_bits ^= 1;
        assert!(answer()
            .same_as(&perturbed)
            .unwrap_err()
            .contains("cost differs"));
    }

    #[test]
    fn a_changed_atom_trips_the_gate() {
        let mut perturbed = answer();
        perturbed.atoms[1] = "cat(P3, Cat1)".into();
        assert!(answer()
            .same_as(&perturbed)
            .unwrap_err()
            .contains("true atoms differ"));
    }
}
