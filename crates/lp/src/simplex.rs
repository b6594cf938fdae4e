//! The LP entry points and the two-phase dense tableau simplex.
//!
//! [`solve_lp`] is generic over the scalar field and dispatches to the
//! instantiation's solver: `f64` runs the sparse revised simplex
//! ([`crate::revised`], the fast path behind flow synthesis), while
//! [`Rational`](crate::Rational) runs the dense tableau in this module —
//! exact arithmetic on small instances, and the cross-validation oracle the
//! fast path is property-tested against. Anti-cycling in the tableau is
//! handled by switching from Dantzig to Bland's rule after a stall is
//! detected.

use crate::problem::{Problem, Relation, Sense, VarId};
use crate::scalar::{Scalar, F64_FEAS_TOL};
use crate::Rational;

/// Hard cap on pivot iterations per simplex phase (both kernels); past
/// it a solve fails with [`LpError::IterationLimit`].
pub(crate) const MAX_ITERATIONS: usize = 200_000;

/// Non-improving pivots after which both kernels switch from Dantzig's
/// rule to Bland's.
pub(crate) const BLAND_AFTER_STALLS: usize = 64;

/// Additional per-variable bound tightenings layered on top of a
/// [`Problem`], used by branch-and-bound without mutating the base problem.
///
/// Storage is dense and [`VarId`]-indexed (the repo's flat-index
/// invariant): branch-and-bound touches these once per node, and the `f64`
/// solver reads every variable's bounds when standardizing, so `Vec`
/// lookups beat hashing on both sides. Vectors grow on demand — an
/// override set built before all variables exist stays valid.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BoundOverrides {
    lower: Vec<Option<Rational>>,
    upper: Vec<Option<Rational>>,
}

impl BoundOverrides {
    /// No overrides.
    pub fn none() -> Self {
        BoundOverrides::default()
    }

    /// The overridden lower bound of `var`, if any (the base lower bound is
    /// always 0).
    pub fn lower(&self, var: VarId) -> Option<Rational> {
        self.lower.get(var.index()).copied().flatten()
    }

    /// The overridden upper bound of `var`, if any (intersected with the
    /// base upper bound by the solvers).
    pub fn upper(&self, var: VarId) -> Option<Rational> {
        self.upper.get(var.index()).copied().flatten()
    }

    /// Tightens the lower bound of `var` to at least `bound` (keeps the
    /// larger of the existing override and `bound`).
    pub fn tighten_lower(&mut self, var: VarId, bound: Rational) {
        if self.lower.len() <= var.index() {
            self.lower.resize(var.index() + 1, None);
        }
        let slot = &mut self.lower[var.index()];
        *slot = Some(match *slot {
            Some(l) => l.max(bound),
            None => bound,
        });
    }

    /// Tightens the upper bound of `var` to at most `bound` (keeps the
    /// smaller of the existing override and `bound`).
    pub fn tighten_upper(&mut self, var: VarId, bound: Rational) {
        if self.upper.len() <= var.index() {
            self.upper.resize(var.index() + 1, None);
        }
        let slot = &mut self.upper[var.index()];
        *slot = Some(match *slot {
            Some(u) => u.min(bound),
            None => bound,
        });
    }

    /// The effective `(lower, upper)` bounds of `var`: the implicit base
    /// lower bound 0 raised by any override, and `base_upper` intersected
    /// with any override. The single source of truth every consumer
    /// shares — the sparse solver's bound arrays, the ILP presolve's
    /// contradiction check, and the dense tableau's bound rows all go
    /// through here, so they can never disagree about what a bound
    /// means.
    pub fn effective(
        &self,
        var: VarId,
        base_upper: Option<Rational>,
    ) -> (Rational, Option<Rational>) {
        let lo = self
            .lower(var)
            .map_or(Rational::ZERO, |l| l.max(Rational::ZERO));
        let up = match (base_upper, self.upper(var)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        };
        (lo, up)
    }

    /// Whether no bound is overridden.
    pub fn is_empty(&self) -> bool {
        self.lower.iter().all(Option::is_none) && self.upper.iter().all(Option::is_none)
    }
}

/// Outcome of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome<S> {
    /// An optimal solution was found.
    Optimal(LpSolution<S>),
    /// The constraint system is infeasible.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
}

/// An optimal LP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution<S> {
    /// One value per problem variable, in [`VarId`] order.
    pub values: Vec<S>,
    /// Objective value in the problem's original sense.
    pub objective: S,
}

/// Errors from the simplex kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LpError {
    /// The pivot iteration cap was reached (possible numerical cycling).
    IterationLimit {
        /// The cap that was reached.
        limit: usize,
    },
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::IterationLimit { limit } => {
                write!(f, "simplex exceeded {limit} iterations")
            }
        }
    }
}

impl std::error::Error for LpError {}

/// Solves the LP relaxation of `problem` (integrality flags are ignored)
/// under the given bound overrides.
///
/// # Errors
///
/// Returns [`LpError::IterationLimit`] if the pivot cap is exceeded.
///
/// # Examples
///
/// ```
/// use wsp_lp::{solve_lp, BoundOverrides, LinExpr, LpOutcome, Problem, Rational, Relation};
///
/// // max x + y s.t. x + 2y <= 4, 3x + y <= 6  ->  opt at (1.6, 1.2) = 2.8
/// let mut p = Problem::new();
/// let x = p.add_var("x");
/// let y = p.add_var("y");
/// let mut c1 = LinExpr::new();
/// c1.add_term(x, Rational::ONE).add_term(y, Rational::from(2));
/// p.add_constraint(c1, Relation::Le, Rational::from(4), "c1");
/// let mut c2 = LinExpr::new();
/// c2.add_term(x, Rational::from(3)).add_term(y, Rational::ONE);
/// p.add_constraint(c2, Relation::Le, Rational::from(6), "c2");
/// let mut obj = LinExpr::new();
/// obj.add_term(x, Rational::ONE).add_term(y, Rational::ONE);
/// p.maximize(obj);
///
/// let out = solve_lp::<Rational>(&p, &BoundOverrides::none())?;
/// match out {
///     LpOutcome::Optimal(sol) => assert_eq!(sol.objective, Rational::new(14, 5)),
///     _ => panic!("expected optimal"),
/// }
/// # Ok::<(), wsp_lp::LpError>(())
/// ```
pub fn solve_lp<S: Scalar>(
    problem: &Problem,
    bounds: &BoundOverrides,
) -> Result<LpOutcome<S>, LpError> {
    S::solve(problem, bounds)
}

/// The dense tableau path, kept as the exact solver for `Rational` and as
/// the numerical fallback the sparse `f64` path retreats to on breakdown.
pub(crate) fn solve_dense<S: Scalar>(
    problem: &Problem,
    bounds: &BoundOverrides,
) -> Result<LpOutcome<S>, LpError> {
    Tableau::<S>::build(problem, bounds).solve(problem)
}

/// One row of the standardized system `a · x = rhs` with `rhs ≥ 0`.
struct Row<S> {
    coeffs: Vec<S>,
    rhs: S,
}

struct Tableau<S> {
    /// Constraint rows, length `m`.
    rows: Vec<Row<S>>,
    /// Index of the basic variable (column) of each row.
    basis: Vec<usize>,
    /// Number of structural variables (problem variables).
    n_struct: usize,
    /// First artificial column index; columns `>= art_start` are artificial.
    art_start: usize,
    /// Total number of columns.
    n_cols: usize,
}

impl<S: Scalar> Tableau<S> {
    /// Standardizes the problem: collects constraint rows (including bound
    /// rows), normalizes `rhs ≥ 0`, and adds slack/surplus/artificial
    /// columns with an all-basic starting basis.
    fn build(problem: &Problem, bounds: &BoundOverrides) -> Self {
        let n_struct = problem.var_count();

        // Gather (coeffs over structural vars, relation, rhs).
        let mut raw: Vec<(Vec<S>, Relation, S)> = Vec::new();
        for c in problem.constraints() {
            let mut coeffs = vec![S::zero(); n_struct];
            for (v, q) in c.expr.terms() {
                coeffs[v.index()] = S::from_rational(q);
            }
            raw.push((coeffs, c.relation, S::from_rational(c.rhs)));
        }
        // Effective bounds become rows: upper bounds always, lower
        // bounds only when they tighten past the implicit 0.
        for (i, info) in problem.vars().iter().enumerate() {
            let var = VarId(i as u32);
            let (lb, ub) = bounds.effective(var, info.upper);
            if let Some(u) = ub {
                let mut coeffs = vec![S::zero(); n_struct];
                coeffs[i] = S::one();
                raw.push((coeffs, Relation::Le, S::from_rational(u)));
            }
            if lb.is_positive() {
                let mut coeffs = vec![S::zero(); n_struct];
                coeffs[i] = S::one();
                raw.push((coeffs, Relation::Ge, S::from_rational(lb)));
            }
        }

        // Normalize rhs >= 0.
        for (coeffs, rel, rhs) in &mut raw {
            if rhs.is_neg_tol() {
                for c in coeffs.iter_mut() {
                    *c = -c.clone();
                }
                *rhs = -rhs.clone();
                *rel = match *rel {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                };
            }
        }

        // Count slack and artificial columns.
        let m = raw.len();
        let n_slack = raw
            .iter()
            .filter(|(_, rel, _)| !matches!(rel, Relation::Eq))
            .count();
        let art_start = n_struct + n_slack;
        // Every Ge and Eq row needs an artificial; Le rows start basic on
        // their slack.
        let n_art = raw
            .iter()
            .filter(|(_, rel, _)| !matches!(rel, Relation::Le))
            .count();
        let n_cols = art_start + n_art;

        let mut rows = Vec::with_capacity(m);
        let mut basis = Vec::with_capacity(m);
        let mut slack_idx = n_struct;
        let mut art_idx = art_start;
        for (coeffs, rel, rhs) in raw {
            let mut full = vec![S::zero(); n_cols];
            full[..n_struct].clone_from_slice(&coeffs);
            match rel {
                Relation::Le => {
                    full[slack_idx] = S::one();
                    basis.push(slack_idx);
                    slack_idx += 1;
                }
                Relation::Ge => {
                    full[slack_idx] = -S::one();
                    slack_idx += 1;
                    full[art_idx] = S::one();
                    basis.push(art_idx);
                    art_idx += 1;
                }
                Relation::Eq => {
                    full[art_idx] = S::one();
                    basis.push(art_idx);
                    art_idx += 1;
                }
            }
            rows.push(Row { coeffs: full, rhs });
        }

        Tableau {
            rows,
            basis,
            n_struct,
            art_start,
            n_cols,
        }
    }

    /// Runs phases 1 and 2 and extracts the solution.
    fn solve(mut self, problem: &Problem) -> Result<LpOutcome<S>, LpError> {
        // ---- Phase 1: minimize the sum of artificials. ----
        if self.art_start < self.n_cols {
            let mut cost = vec![S::zero(); self.n_cols];
            for c in cost.iter_mut().skip(self.art_start) {
                *c = S::one();
            }
            let mut cost_rhs = S::zero();
            self.reduce_cost_row(&mut cost, &mut cost_rhs);
            let outcome = self.iterate(&mut cost, &mut cost_rhs, self.n_cols)?;
            debug_assert!(
                !matches!(outcome, IterateOutcome::Unbounded),
                "phase-1 objective is bounded below by zero"
            );
            // Phase-1 optimum is -cost_rhs.
            let p1 = -cost_rhs;
            if p1.is_pos_tol() {
                return Ok(LpOutcome::Infeasible);
            }
            self.drive_out_artificials();
        }

        // ---- Phase 2: minimize the (sense-normalized) objective. ----
        let flip = matches!(problem.sense(), Sense::Maximize);
        let mut cost = vec![S::zero(); self.n_cols];
        for (v, q) in problem.objective().terms() {
            let c = S::from_rational(q);
            cost[v.index()] = if flip { -c } else { c };
        }
        let mut cost_rhs = S::zero();
        self.reduce_cost_row(&mut cost, &mut cost_rhs);
        // Artificials may not re-enter the basis.
        let outcome = self.iterate(&mut cost, &mut cost_rhs, self.art_start)?;
        if matches!(outcome, IterateOutcome::Unbounded) {
            return Ok(LpOutcome::Unbounded);
        }

        // Extract structural values.
        let mut values = vec![S::zero(); self.n_struct];
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.n_struct {
                values[b] = self.rows[i].rhs.clone();
            }
        }
        // Minimized value is -cost_rhs; flip back for maximization.
        let minimized = -cost_rhs;
        let objective = if flip { -minimized } else { minimized };
        Ok(LpOutcome::Optimal(LpSolution { values, objective }))
    }

    /// Makes the reduced costs of basic columns zero.
    fn reduce_cost_row(&self, cost: &mut [S], cost_rhs: &mut S) {
        for (i, &b) in self.basis.iter().enumerate() {
            let cb = cost[b].clone();
            if cb.is_zero_tol() {
                continue;
            }
            for (cj, rij) in cost.iter_mut().zip(&self.rows[i].coeffs).take(self.n_cols) {
                *cj = cj.clone() - cb.clone() * rij.clone();
            }
            *cost_rhs = cost_rhs.clone() - cb * self.rows[i].rhs.clone();
        }
    }

    /// Pivots until optimal or unbounded. `col_limit` restricts entering
    /// columns (used to ban artificials in phase 2).
    fn iterate(
        &mut self,
        cost: &mut [S],
        cost_rhs: &mut S,
        col_limit: usize,
    ) -> Result<IterateOutcome, LpError> {
        let mut stalls = 0usize;
        for _iter in 0..MAX_ITERATIONS {
            let bland = stalls >= BLAND_AFTER_STALLS;
            // Entering column: reduced cost < 0.
            let entering = if bland {
                (0..col_limit).find(|&j| cost[j].is_neg_tol())
            } else {
                let mut best: Option<(usize, S)> = None;
                for (j, cj) in cost.iter().enumerate().take(col_limit) {
                    if cj.is_neg_tol() {
                        match &best {
                            Some((_, bc)) if *cj >= *bc => {}
                            _ => best = Some((j, cj.clone())),
                        }
                    }
                }
                best.map(|(j, _)| j)
            };
            let Some(j) = entering else {
                return Ok(IterateOutcome::Optimal);
            };

            // Ratio test.
            let mut leave: Option<(usize, S)> = None;
            for (i, row) in self.rows.iter().enumerate() {
                let aij = &row.coeffs[j];
                if aij.is_pos_tol() {
                    let ratio = row.rhs.clone() / aij.clone();
                    let better = match &leave {
                        None => true,
                        Some((li, lr)) => {
                            ratio < *lr
                                // Bland tie-break: smaller basic index leaves.
                                || (!(ratio.clone() - lr.clone()).is_pos_tol()
                                    && !(lr.clone() - ratio.clone()).is_pos_tol()
                                    && bland
                                    && self.basis[i] < self.basis[*li])
                        }
                    };
                    if better {
                        leave = Some((i, ratio));
                    }
                }
            }
            let Some((i, ratio)) = leave else {
                return Ok(IterateOutcome::Unbounded);
            };
            if !ratio.is_pos_tol() {
                stalls += 1;
            } else {
                stalls = 0;
            }
            self.pivot(i, j, cost, cost_rhs);
        }
        Err(LpError::IterationLimit {
            limit: MAX_ITERATIONS,
        })
    }

    /// Gauss-Jordan pivot on `(row, col)`.
    fn pivot(&mut self, pr: usize, pc: usize, cost: &mut [S], cost_rhs: &mut S) {
        let pivot_val = self.rows[pr].coeffs[pc].clone();
        let row = &mut self.rows[pr];
        for c in row.coeffs.iter_mut() {
            *c = c.clone() / pivot_val.clone();
        }
        row.rhs = row.rhs.clone() / pivot_val;

        let pivot_row_coeffs = self.rows[pr].coeffs.clone();
        let pivot_row_rhs = self.rows[pr].rhs.clone();
        for (i, row) in self.rows.iter_mut().enumerate() {
            if i == pr {
                continue;
            }
            let factor = row.coeffs[pc].clone();
            if factor.is_zero_tol() {
                // Keep exact zeros exact for the rational instantiation.
                row.coeffs[pc] = S::zero();
                continue;
            }
            for (c, p) in row.coeffs.iter_mut().zip(pivot_row_coeffs.iter()) {
                *c = c.clone() - factor.clone() * p.clone();
            }
            row.coeffs[pc] = S::zero();
            row.rhs = row.rhs.clone() - factor * pivot_row_rhs.clone();
            if row.rhs.is_neg_tol() {
                // Numerical dust: clamp tiny negatives. Exact scalars never
                // take this (for Rational, is_neg_tol means strictly
                // negative, which would be a real pivot-selection bug
                // upstream rather than dust to sweep).
                if !S::EXACT && row.rhs.to_f64() > -F64_FEAS_TOL {
                    row.rhs = S::zero();
                }
            }
        }
        let factor = cost[pc].clone();
        if !factor.is_zero_tol() {
            for (c, p) in cost.iter_mut().zip(pivot_row_coeffs.iter()) {
                *c = c.clone() - factor.clone() * p.clone();
            }
            cost[pc] = S::zero();
            *cost_rhs = cost_rhs.clone() - factor * pivot_row_rhs;
        }
        self.basis[pr] = pc;
    }

    /// After phase 1, pivots basic artificials out of the basis (or drops
    /// redundant rows where that is impossible).
    fn drive_out_artificials(&mut self) {
        let mut i = 0;
        while i < self.rows.len() {
            if self.basis[i] >= self.art_start {
                // Find a non-artificial column with a non-zero entry.
                let pivot_col =
                    (0..self.art_start).find(|&j| !self.rows[i].coeffs[j].is_zero_tol());
                match pivot_col {
                    Some(j) => {
                        let mut dummy_cost = vec![S::zero(); self.n_cols];
                        let mut dummy_rhs = S::zero();
                        self.pivot(i, j, &mut dummy_cost, &mut dummy_rhs);
                        i += 1;
                    }
                    None => {
                        // Redundant row (all structural coefficients zero,
                        // rhs ~ 0 after a successful phase 1): drop it.
                        self.rows.swap_remove(i);
                        self.basis.swap_remove(i);
                    }
                }
            } else {
                i += 1;
            }
        }
    }
}

enum IterateOutcome {
    Optimal,
    Unbounded,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::LinExpr;

    fn r(n: i128) -> Rational {
        Rational::from(n)
    }

    /// max x + y s.t. x + 2y <= 4, 3x + y <= 6.
    fn two_var_max() -> Problem {
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let mut c1 = LinExpr::new();
        c1.add_term(x, r(1)).add_term(y, r(2));
        p.add_constraint(c1, Relation::Le, r(4), "c1");
        let mut c2 = LinExpr::new();
        c2.add_term(x, r(3)).add_term(y, r(1));
        p.add_constraint(c2, Relation::Le, r(6), "c2");
        let mut obj = LinExpr::new();
        obj.add_term(x, r(1)).add_term(y, r(1));
        p.maximize(obj);
        p
    }

    #[test]
    fn optimal_rational_exact() {
        let p = two_var_max();
        let out = solve_lp::<Rational>(&p, &BoundOverrides::none()).unwrap();
        match out {
            LpOutcome::Optimal(sol) => {
                assert_eq!(sol.objective, Rational::new(14, 5));
                assert_eq!(sol.values[0], Rational::new(8, 5));
                assert_eq!(sol.values[1], Rational::new(6, 5));
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn optimal_f64_matches_exact() {
        let p = two_var_max();
        let out = solve_lp::<f64>(&p, &BoundOverrides::none()).unwrap();
        match out {
            LpOutcome::Optimal(sol) => {
                assert!((sol.objective - 2.8).abs() < 1e-7);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.add_constraint(LinExpr::var(x), Relation::Ge, r(5), "ge");
        p.add_constraint(LinExpr::var(x), Relation::Le, r(3), "le");
        let out = solve_lp::<Rational>(&p, &BoundOverrides::none()).unwrap();
        assert_eq!(out, LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.maximize(LinExpr::var(x));
        let out = solve_lp::<Rational>(&p, &BoundOverrides::none()).unwrap();
        assert_eq!(out, LpOutcome::Unbounded);
    }

    #[test]
    fn equality_constraints_solved() {
        // min x + y s.t. x + y = 3, x - y = 1 -> (2, 1), obj 3.
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let mut c1 = LinExpr::new();
        c1.add_term(x, r(1)).add_term(y, r(1));
        p.add_constraint(c1, Relation::Eq, r(3), "sum");
        let mut c2 = LinExpr::new();
        c2.add_term(x, r(1)).add_term(y, r(-1));
        p.add_constraint(c2, Relation::Eq, r(1), "diff");
        let mut obj = LinExpr::new();
        obj.add_term(x, r(1)).add_term(y, r(1));
        p.minimize(obj);
        match solve_lp::<Rational>(&p, &BoundOverrides::none()).unwrap() {
            LpOutcome::Optimal(sol) => {
                assert_eq!(sol.values, vec![r(2), r(1)]);
                assert_eq!(sol.objective, r(3));
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn upper_bounds_respected() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.set_upper(x, r(7));
        p.maximize(LinExpr::var(x));
        match solve_lp::<Rational>(&p, &BoundOverrides::none()).unwrap() {
            LpOutcome::Optimal(sol) => assert_eq!(sol.objective, r(7)),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn bound_overrides_tighten() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.set_upper(x, r(7));
        p.maximize(LinExpr::var(x));
        let mut b = BoundOverrides::none();
        b.tighten_upper(x, r(2));
        match solve_lp::<Rational>(&p, &b).unwrap() {
            LpOutcome::Optimal(sol) => assert_eq!(sol.objective, r(2)),
            other => panic!("expected optimal, got {other:?}"),
        }
        // Lower-bound override forces x >= 3 in a minimization.
        let mut p2 = Problem::new();
        let x2 = p2.add_var("x");
        p2.minimize(LinExpr::var(x2));
        let mut b2 = BoundOverrides::none();
        b2.tighten_lower(x2, r(3));
        match solve_lp::<Rational>(&p2, &b2).unwrap() {
            LpOutcome::Optimal(sol) => assert_eq!(sol.objective, r(3)),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn conflicting_overrides_are_infeasible() {
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.minimize(LinExpr::var(x));
        let mut b = BoundOverrides::none();
        b.tighten_lower(x, r(5));
        b.tighten_upper(x, r(4));
        let out = solve_lp::<Rational>(&p, &b).unwrap();
        assert_eq!(out, LpOutcome::Infeasible);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate vertex: several redundant constraints at origin.
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        for k in 1..=4i128 {
            let mut c = LinExpr::new();
            c.add_term(x, r(k)).add_term(y, r(1));
            p.add_constraint(c, Relation::Le, r(0), format!("deg{k}"));
        }
        let mut obj = LinExpr::new();
        obj.add_term(x, r(1)).add_term(y, r(1));
        p.maximize(obj);
        // x = y = 0 is the only feasible point (x, y >= 0 and x*k + y <= 0).
        match solve_lp::<Rational>(&p, &BoundOverrides::none()).unwrap() {
            LpOutcome::Optimal(sol) => assert_eq!(sol.objective, r(0)),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn negative_rhs_row_normalized() {
        // -x <= -2  is  x >= 2.
        let mut p = Problem::new();
        let x = p.add_var("x");
        let mut c = LinExpr::new();
        c.add_term(x, r(-1));
        p.add_constraint(c, Relation::Le, r(-2), "negrhs");
        p.minimize(LinExpr::var(x));
        match solve_lp::<Rational>(&p, &BoundOverrides::none()).unwrap() {
            LpOutcome::Optimal(sol) => assert_eq!(sol.objective, r(2)),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn empty_problem_is_trivially_optimal() {
        let p = Problem::new();
        match solve_lp::<Rational>(&p, &BoundOverrides::none()).unwrap() {
            LpOutcome::Optimal(sol) => {
                assert!(sol.values.is_empty());
                assert_eq!(sol.objective, r(0));
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }
}
