//! The assume–guarantee contract type and its algebra.

use std::fmt;

use wsp_lp::{LinExpr, Problem};

use crate::{Predicate, VarRegistry};

/// Errors from contract-algebra operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum ContractError {
    /// The underlying LP kernel failed during a semantic check.
    Lp(wsp_lp::LpError),
}

impl fmt::Display for ContractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContractError::Lp(e) => write!(f, "contract check failed in LP kernel: {e}"),
        }
    }
}

impl std::error::Error for ContractError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ContractError::Lp(e) => Some(e),
        }
    }
}

impl From<wsp_lp::LpError> for ContractError {
    fn from(e: wsp_lp::LpError) -> Self {
        ContractError::Lp(e)
    }
}

/// An assume–guarantee contract `C := (V, A, G)` in the conjunctive
/// linear fragment (see the crate docs for the composition semantics).
///
/// # Examples
///
/// ```
/// use wsp_contracts::{AgContract, Predicate, VarRegistry};
/// use wsp_lp::{LinExpr, Rational, Relation};
///
/// let mut reg = VarRegistry::new();
/// let fin = reg.fresh_int("f_in");
/// let fout = reg.fresh_int("f_out");
///
/// let mut a = Predicate::top();
/// a.require(LinExpr::var(fin), Relation::Le, Rational::from(4), "entry cap");
/// let mut g = Predicate::top();
/// let mut conserve = LinExpr::var(fout);
/// conserve.add_term(fin, -Rational::ONE);
/// g.require(conserve, Relation::Eq, Rational::ZERO, "conservation");
///
/// let c = AgContract::new("transport", a, g);
/// assert!(c.is_consistent(&reg)?);
/// assert!(c.is_compatible(&reg)?);
/// # Ok::<(), wsp_contracts::ContractError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgContract {
    name: String,
    assumptions: Predicate,
    guarantees: Predicate,
}

impl AgContract {
    /// Creates a contract from assumption and guarantee predicates.
    pub fn new(name: impl Into<String>, assumptions: Predicate, guarantees: Predicate) -> Self {
        AgContract {
            name: name.into(),
            assumptions,
            guarantees,
        }
    }

    /// The contract's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The assumption predicate `A`.
    pub fn assumptions(&self) -> &Predicate {
        &self.assumptions
    }

    /// The guarantee predicate `G`.
    pub fn guarantees(&self) -> &Predicate {
        &self.guarantees
    }

    /// Composition `C₁ ⊗ C₂` in the conjunctive fragment: the contract of
    /// the system formed by connecting the two components.
    ///
    /// `G = G₁ ∧ G₂`; `A = A₁ ∧ A₂` (a sound strengthening of the exact
    /// `(A₁ ∧ A₂) ∨ ¬G` — see the crate docs).
    pub fn compose(&self, other: &AgContract) -> AgContract {
        AgContract {
            name: format!("({} ⊗ {})", self.name, other.name),
            assumptions: self.assumptions.and(&other.assumptions),
            guarantees: self.guarantees.and(&other.guarantees),
        }
    }

    /// Conjunction `C₁ ∧ C₂`: a contract imposing both requirements.
    ///
    /// `G = G₁ ∧ G₂`; `A = A₁ ∧ A₂` (exact disjunction of assumptions
    /// leaves the conjunctive fragment; the strengthening is sound for
    /// synthesis, and the consistency region `A ∧ G` matches the paper's
    /// solved system exactly).
    pub fn conjoin(&self, other: &AgContract) -> AgContract {
        AgContract {
            name: format!("({} ∧ {})", self.name, other.name),
            assumptions: self.assumptions.and(&other.assumptions),
            guarantees: self.guarantees.and(&other.guarantees),
        }
    }

    /// Composes an iterator of contracts (`⊗` over all of them), starting
    /// from the identity contract `(⊤, ⊤)`. The conjuncts are appended in
    /// place, in iteration order, so composing `k` contracts copies each
    /// constraint once.
    pub fn compose_all<'a>(
        name: impl Into<String>,
        contracts: impl IntoIterator<Item = &'a AgContract>,
    ) -> AgContract {
        let mut assumptions = Predicate::top();
        let mut guarantees = Predicate::top();
        for c in contracts {
            assumptions.extend(&c.assumptions);
            guarantees.extend(&c.guarantees);
        }
        AgContract {
            name: name.into(),
            assumptions,
            guarantees,
        }
    }

    /// Consistency: `A ∧ G` admits a behaviour.
    ///
    /// # Errors
    ///
    /// Returns [`ContractError::Lp`] if the LP kernel fails.
    pub fn is_consistent(&self, registry: &VarRegistry) -> Result<bool, ContractError> {
        Ok(self
            .assumptions
            .and(&self.guarantees)
            .is_satisfiable(registry)?)
    }

    /// Compatibility: `A` admits an environment behaviour.
    ///
    /// # Errors
    ///
    /// Returns [`ContractError::Lp`] if the LP kernel fails.
    pub fn is_compatible(&self, registry: &VarRegistry) -> Result<bool, ContractError> {
        Ok(self.assumptions.is_satisfiable(registry)?)
    }

    /// Refinement `self ⪯ other`: `self` can replace `other` in any
    /// environment — it assumes no more (`A_other ⟹ A_self`) and
    /// guarantees no less (`A_other ∧ G_self ⟹ G_other`).
    ///
    /// # Errors
    ///
    /// Returns [`ContractError::Lp`] if the LP kernel fails.
    pub fn refines(
        &self,
        other: &AgContract,
        registry: &VarRegistry,
    ) -> Result<bool, ContractError> {
        if !other.assumptions.implies(&self.assumptions, registry)? {
            return Ok(false);
        }
        let strengthened = other.assumptions.and(&self.guarantees);
        Ok(strengthened.implies(&other.guarantees, registry)?)
    }

    /// Builds the synthesis problem for this contract: variables mirror the
    /// registry, constraints are `A ∧ G`, and `objective` is minimized.
    /// This is the system the paper hands to Z3 (Fig. 3); here it goes to
    /// the ILP solver.
    pub fn synthesis_problem(&self, registry: &VarRegistry, objective: LinExpr) -> Problem {
        let mut problem = registry.to_problem();
        for c in self.assumptions.constraints() {
            problem.add_constraint(
                c.expr.clone(),
                c.relation,
                c.rhs,
                format!("[{}|A] {}", self.name, c.label),
            );
        }
        for c in self.guarantees.constraints() {
            problem.add_constraint(
                c.expr.clone(),
                c.relation,
                c.rhs,
                format!("[{}|G] {}", self.name, c.label),
            );
        }
        problem.minimize(objective);
        problem
    }
}

impl fmt::Display for AgContract {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: A[{} constraints] G[{} constraints]",
            self.name,
            self.assumptions.len(),
            self.guarantees.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_lp::{LinExpr, Rational, Relation};

    fn r(n: i128) -> Rational {
        Rational::from(n)
    }

    fn capped(reg: &mut VarRegistry, name: &str, cap: i128) -> (AgContract, wsp_lp::VarId) {
        let v = reg.fresh_int(name);
        let mut a = Predicate::top();
        a.require(LinExpr::var(v), Relation::Le, r(cap), format!("{name} cap"));
        (AgContract::new(name, a, Predicate::top()), v)
    }

    #[test]
    fn composition_accumulates_constraints() {
        let mut reg = VarRegistry::new();
        let (c1, _) = capped(&mut reg, "a", 3);
        let (c2, _) = capped(&mut reg, "b", 5);
        let composed = c1.compose(&c2);
        assert_eq!(composed.assumptions().len(), 2);
        assert!(composed.is_consistent(&reg).unwrap());
    }

    #[test]
    fn compose_all_matches_pairwise() {
        let mut reg = VarRegistry::new();
        let (c1, _) = capped(&mut reg, "a", 3);
        let (c2, _) = capped(&mut reg, "b", 5);
        let (c3, _) = capped(&mut reg, "c", 7);
        let all = AgContract::compose_all("ts", [&c1, &c2, &c3]);
        let pairwise = c1.compose(&c2).compose(&c3);
        assert_eq!(all.assumptions(), pairwise.assumptions());
        assert_eq!(all.guarantees(), pairwise.guarantees());
    }

    #[test]
    fn inconsistent_contract_detected() {
        let mut reg = VarRegistry::new();
        let v = reg.fresh_int("x");
        let mut a = Predicate::top();
        a.require(LinExpr::var(v), Relation::Le, r(1), "le");
        let mut g = Predicate::top();
        g.require(LinExpr::var(v), Relation::Ge, r(2), "ge");
        let c = AgContract::new("bad", a, g);
        assert!(!c.is_consistent(&reg).unwrap());
        // Still compatible: the assumption alone is satisfiable.
        assert!(c.is_compatible(&reg).unwrap());
    }

    #[test]
    fn refinement_weaker_assumption_stronger_guarantee() {
        let mut reg = VarRegistry::new();
        let v = reg.fresh_int("x");
        // Abstract contract: assumes x <= 2, guarantees x <= 10.
        let mut a_abs = Predicate::top();
        a_abs.require(LinExpr::var(v), Relation::Le, r(2), "a");
        let mut g_abs = Predicate::top();
        g_abs.require(LinExpr::var(v), Relation::Le, r(10), "g");
        let abstract_c = AgContract::new("abstract", a_abs, g_abs);
        // Refined contract: assumes x <= 5 (weaker), guarantees x <= 8 (stronger).
        let mut a_ref = Predicate::top();
        a_ref.require(LinExpr::var(v), Relation::Le, r(5), "a");
        let mut g_ref = Predicate::top();
        g_ref.require(LinExpr::var(v), Relation::Le, r(8), "g");
        let refined = AgContract::new("refined", a_ref, g_ref);

        assert!(refined.refines(&abstract_c, &reg).unwrap());
        assert!(!abstract_c.refines(&refined, &reg).unwrap());
    }

    #[test]
    fn refinement_is_reflexive() {
        let mut reg = VarRegistry::new();
        let (c, _) = capped(&mut reg, "a", 3);
        assert!(c.refines(&c, &reg).unwrap());
    }

    #[test]
    fn synthesis_problem_collects_a_and_g() {
        let mut reg = VarRegistry::new();
        let v = reg.fresh_int("x");
        let mut a = Predicate::top();
        a.require(LinExpr::var(v), Relation::Le, r(4), "cap");
        let mut g = Predicate::top();
        g.require(LinExpr::var(v), Relation::Ge, r(2), "demand");
        let c = AgContract::new("c", a, g);
        let p = c.synthesis_problem(&reg, LinExpr::var(v));
        assert_eq!(p.constraint_count(), 2);
        match wsp_lp::solve_ilp(&p, &wsp_lp::IlpOptions::default()).unwrap() {
            wsp_lp::IlpOutcome::Optimal(sol) => assert_eq!(sol.objective, r(2)),
            other => panic!("expected optimal, got {other:?}"),
        }
    }
}
