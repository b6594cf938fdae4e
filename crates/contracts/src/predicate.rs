//! Conjunctive linear predicates: the assertion language of the contracts.

use wsp_lp::{solve_lp, BoundOverrides, Constraint, LinExpr, LpOutcome, Rational, Relation};

use crate::VarRegistry;

/// A conjunction of linear constraints over non-negative variables — the
/// set of behaviours satisfying every constraint.
///
/// The empty conjunction is `⊤` (all non-negative valuations).
///
/// # Examples
///
/// ```
/// use wsp_contracts::{Predicate, VarRegistry};
/// use wsp_lp::{LinExpr, Rational, Relation};
///
/// let mut reg = VarRegistry::new();
/// let x = reg.fresh("x");
/// let mut p = Predicate::top();
/// p.require(LinExpr::var(x), Relation::Le, Rational::from(5), "cap");
/// assert!(p.is_satisfiable(&reg).unwrap());
/// assert!(p.holds_at(&[Rational::from(3)]));
/// assert!(!p.holds_at(&[Rational::from(6)]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Predicate {
    constraints: Vec<Constraint>,
}

impl Predicate {
    /// The trivially true predicate `⊤`.
    pub fn top() -> Self {
        Predicate::default()
    }

    /// Adds a constraint to the conjunction.
    pub fn require(
        &mut self,
        expr: LinExpr,
        relation: Relation,
        rhs: Rational,
        label: impl Into<String>,
    ) -> &mut Self {
        self.constraints
            .push(Constraint::new(expr, relation, rhs, label));
        self
    }

    /// The constraints of the conjunction.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Number of conjuncts.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Whether this is `⊤`.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// The conjunction of two predicates.
    pub fn and(&self, other: &Predicate) -> Predicate {
        let mut out = self.clone();
        out.extend(other);
        out
    }

    /// Conjoins `other` in place, appending its conjuncts after this
    /// predicate's own.
    pub(crate) fn extend(&mut self, other: &Predicate) {
        self.constraints.extend(other.constraints.iter().cloned());
    }

    /// Whether a valuation (non-negativity is *not* checked here) satisfies
    /// every conjunct exactly.
    pub fn holds_at(&self, values: &[Rational]) -> bool {
        self.constraints.iter().all(|c| c.is_satisfied(values))
    }

    /// Whether the predicate admits any non-negative valuation.
    ///
    /// # Errors
    ///
    /// Returns [`wsp_lp::LpError`] if the LP kernel fails.
    pub fn is_satisfiable(&self, registry: &VarRegistry) -> Result<bool, wsp_lp::LpError> {
        let mut problem = registry.to_problem();
        for c in &self.constraints {
            problem.add_constraint(c.expr.clone(), c.relation, c.rhs, c.label.clone());
        }
        // Feasibility only: zero objective.
        problem.minimize(LinExpr::new());
        let out = solve_lp::<Rational>(&problem, &BoundOverrides::none())?;
        Ok(matches!(out, LpOutcome::Optimal(_) | LpOutcome::Unbounded))
    }

    /// Whether `self ⟹ other` over non-negative valuations: every point of
    /// `self` satisfies every conjunct of `other`.
    ///
    /// Decided exactly, one conjunct at a time, by maximizing the conjunct's
    /// violation over `self` with the exact simplex.
    ///
    /// # Errors
    ///
    /// Returns [`wsp_lp::LpError`] if the LP kernel fails.
    pub fn implies(
        &self,
        other: &Predicate,
        registry: &VarRegistry,
    ) -> Result<bool, wsp_lp::LpError> {
        // An unsatisfiable antecedent implies everything.
        if !self.is_satisfiable(registry)? {
            return Ok(true);
        }
        for target in &other.constraints {
            let mut problem = registry.to_problem();
            for c in &self.constraints {
                problem.add_constraint(c.expr.clone(), c.relation, c.rhs, c.label.clone());
            }
            // Maximize violation of `target` over `self`.
            match target.relation {
                Relation::Le => {
                    // violated when expr > rhs: maximize expr.
                    problem.maximize(target.expr.clone());
                    if !max_at_most(&problem, target.rhs)? {
                        return Ok(false);
                    }
                }
                Relation::Ge => {
                    // violated when expr < rhs: minimize expr.
                    problem.minimize(target.expr.clone());
                    if !min_at_least(&problem, target.rhs)? {
                        return Ok(false);
                    }
                }
                Relation::Eq => {
                    let mut upper = problem.clone();
                    upper.maximize(target.expr.clone());
                    if !max_at_most(&upper, target.rhs)? {
                        return Ok(false);
                    }
                    problem.minimize(target.expr.clone());
                    if !min_at_least(&problem, target.rhs)? {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }
}

fn max_at_most(problem: &wsp_lp::Problem, bound: Rational) -> Result<bool, wsp_lp::LpError> {
    Ok(
        match solve_lp::<Rational>(problem, &BoundOverrides::none())? {
            LpOutcome::Optimal(sol) => sol.objective <= bound,
            LpOutcome::Unbounded => false,
            LpOutcome::Infeasible => true,
        },
    )
}

fn min_at_least(problem: &wsp_lp::Problem, bound: Rational) -> Result<bool, wsp_lp::LpError> {
    Ok(
        match solve_lp::<Rational>(problem, &BoundOverrides::none())? {
            LpOutcome::Optimal(sol) => sol.objective >= bound,
            LpOutcome::Unbounded => false,
            LpOutcome::Infeasible => true,
        },
    )
}

impl FromIterator<Constraint> for Predicate {
    fn from_iter<I: IntoIterator<Item = Constraint>>(iter: I) -> Self {
        Predicate {
            constraints: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128) -> Rational {
        Rational::from(n)
    }

    #[test]
    fn top_is_satisfiable_and_implied() {
        let mut reg = VarRegistry::new();
        let x = reg.fresh("x");
        let top = Predicate::top();
        assert!(top.is_satisfiable(&reg).unwrap());
        let mut narrow = Predicate::top();
        narrow.require(LinExpr::var(x), Relation::Le, r(1), "le1");
        assert!(narrow.implies(&top, &reg).unwrap());
        assert!(!top.implies(&narrow, &reg).unwrap());
    }

    #[test]
    fn contradiction_is_unsatisfiable() {
        let mut reg = VarRegistry::new();
        let x = reg.fresh("x");
        let mut p = Predicate::top();
        p.require(LinExpr::var(x), Relation::Ge, r(5), "ge5");
        p.require(LinExpr::var(x), Relation::Le, r(3), "le3");
        assert!(!p.is_satisfiable(&reg).unwrap());
        // Ex falso quodlibet.
        let mut q = Predicate::top();
        q.require(LinExpr::var(x), Relation::Eq, r(100), "eq100");
        assert!(p.implies(&q, &reg).unwrap());
    }

    #[test]
    fn implication_between_intervals() {
        let mut reg = VarRegistry::new();
        let x = reg.fresh("x");
        let mut tight = Predicate::top();
        tight.require(LinExpr::var(x), Relation::Le, r(2), "le2");
        let mut loose = Predicate::top();
        loose.require(LinExpr::var(x), Relation::Le, r(5), "le5");
        assert!(tight.implies(&loose, &reg).unwrap());
        assert!(!loose.implies(&tight, &reg).unwrap());
    }

    #[test]
    fn equality_implication_needs_both_sides() {
        let mut reg = VarRegistry::new();
        let x = reg.fresh("x");
        let mut point = Predicate::top();
        point.require(LinExpr::var(x), Relation::Ge, r(4), "ge4");
        point.require(LinExpr::var(x), Relation::Le, r(4), "le4");
        let mut eq = Predicate::top();
        eq.require(LinExpr::var(x), Relation::Eq, r(4), "eq4");
        assert!(point.implies(&eq, &reg).unwrap());
        assert!(eq.implies(&point, &reg).unwrap());

        let mut half = Predicate::top();
        half.require(LinExpr::var(x), Relation::Le, r(4), "le4b");
        assert!(!half.implies(&eq, &reg).unwrap());
    }

    #[test]
    fn and_concatenates() {
        let mut reg = VarRegistry::new();
        let x = reg.fresh("x");
        let mut a = Predicate::top();
        a.require(LinExpr::var(x), Relation::Ge, r(1), "ge1");
        let mut b = Predicate::top();
        b.require(LinExpr::var(x), Relation::Le, r(3), "le3");
        let both = a.and(&b);
        assert_eq!(both.len(), 2);
        assert!(both.holds_at(&[r(2)]));
        assert!(!both.holds_at(&[r(0)]));
        assert!(!both.holds_at(&[r(4)]));
    }

    #[test]
    fn unbounded_direction_blocks_implication() {
        let mut reg = VarRegistry::new();
        let x = reg.fresh("x");
        let top = Predicate::top();
        let mut capped = Predicate::top();
        capped.require(LinExpr::var(x), Relation::Le, r(10), "cap");
        // x unbounded above, so top does not imply the cap.
        assert!(!top.implies(&capped, &reg).unwrap());
        // But >= 0 is implied (non-negative domain).
        let mut nonneg = Predicate::top();
        nonneg.require(LinExpr::var(x), Relation::Ge, r(0), "nonneg");
        assert!(top.implies(&nonneg, &reg).unwrap());
    }
}
