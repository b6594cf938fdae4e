//! Branch-and-bound integer programming on top of the simplex kernel.
//!
//! The default configuration solves LP relaxations in `f64` with the
//! sparse revised simplex and *exactly verifies* every integer candidate
//! with rational arithmetic before accepting it, falling back to the exact
//! simplex on the rare node where rounding breaks feasibility. This gives
//! fast solves with an exactness guarantee on the returned solution.
//!
//! Node relaxations are **warm-started**: each child inherits its parent's
//! optimal basis and repairs the one changed bound with a dual-simplex
//! cleanup instead of re-running two-phase simplex from scratch. The
//! exploration order and every per-node decision are pure functions of the
//! problem, so warm starts never change the returned solution run to run.
//! No clock is read: the only limit is the LP-solve budget
//! [`IlpOptions::max_nodes`].

use std::rc::Rc;

use crate::problem::{Problem, Relation, VarId};
use crate::revised::{self, LpScratch, WarmBasis};
use crate::scalar::{DEFAULT_INTEGRALITY_TOL, F64_FEAS_TOL};
use crate::simplex::{solve_lp, BoundOverrides, LpError, LpOutcome};
use crate::Rational;

/// Configuration for the branch-and-bound ILP solver.
#[derive(Debug, Clone)]
pub struct IlpOptions {
    /// Solve node relaxations with the exact rational simplex instead of
    /// `f64`. Slower; useful for small instances and cross-validation.
    pub exact_lp: bool,
    /// Hard cap on the LP solves of one ILP solve: node relaxations,
    /// rounding-dive steps and strong-branch probes all draw from it.
    pub max_nodes: usize,
    /// Warm-start child node relaxations from the parent's optimal basis
    /// via a dual-simplex cleanup (default `true`; only meaningful on the
    /// `f64` path). Disabling passes no parent basis, so every node runs
    /// a cold two-phase solve — the configuration the warm-vs-cold
    /// equivalence tests compare against.
    pub warm_start: bool,
}

impl Default for IlpOptions {
    fn default() -> Self {
        IlpOptions {
            exact_lp: false,
            max_nodes: 200_000,
            warm_start: true,
        }
    }
}

/// Outcome of an ILP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum IlpOutcome {
    /// An optimal integer solution (exactly verified).
    Optimal(IlpSolution),
    /// A feasible integer solution found, but optimality was not proven
    /// before the node limit was hit.
    Feasible(IlpSolution),
    /// No integer solution exists.
    Infeasible,
    /// The relaxation (and hence the ILP) is unbounded.
    Unbounded,
}

impl IlpOutcome {
    /// The solution, if one was found.
    pub fn solution(&self) -> Option<&IlpSolution> {
        match self {
            IlpOutcome::Optimal(s) | IlpOutcome::Feasible(s) => Some(s),
            _ => None,
        }
    }
}

/// An integer solution with exact rational values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IlpSolution {
    /// One exact value per variable; integer-constrained variables hold
    /// integers.
    pub values: Vec<Rational>,
    /// Exact objective value in the problem's original sense.
    pub objective: Rational,
}

impl IlpSolution {
    /// The value of an integer variable as `i64`.
    ///
    /// # Panics
    ///
    /// Panics if the stored value is not an integer or does not fit `i64`.
    pub fn int_value(&self, var: VarId) -> i64 {
        let v = self.values[var.index()];
        assert!(v.is_integer(), "{var} = {v} is not integral");
        i64::try_from(v.numer()).expect("value fits i64")
    }
}

/// Errors from the ILP solver.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IlpError {
    /// The simplex kernel failed.
    Lp(LpError),
    /// The node limit was hit before any integer solution was found.
    LimitWithoutSolution {
        /// Nodes explored when the limit hit.
        nodes: usize,
    },
}

impl std::fmt::Display for IlpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IlpError::Lp(e) => write!(f, "lp kernel: {e}"),
            IlpError::LimitWithoutSolution { nodes } => {
                write!(
                    f,
                    "limit reached after {nodes} nodes with no integer solution"
                )
            }
        }
    }
}

impl std::error::Error for IlpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IlpError::Lp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LpError> for IlpError {
    fn from(e: LpError) -> Self {
        IlpError::Lp(e)
    }
}

/// Solves a mixed-integer program by branch-and-bound.
///
/// # Errors
///
/// Returns [`IlpError::Lp`] if the simplex kernel fails and
/// [`IlpError::LimitWithoutSolution`] if the node limit expires before any
/// integer solution is found.
///
/// # Examples
///
/// ```
/// use wsp_lp::{solve_ilp, IlpOptions, IlpOutcome, LinExpr, Problem, Rational, Relation};
///
/// // Knapsack: max 5a + 4b s.t. 3a + 2b <= 6, a,b integer -> a=0,b=3: 12.
/// let mut p = Problem::new();
/// let a = p.add_int_var("a");
/// let b = p.add_int_var("b");
/// let mut cap = LinExpr::new();
/// cap.add_term(a, Rational::from(3)).add_term(b, Rational::from(2));
/// p.add_constraint(cap, Relation::Le, Rational::from(6), "cap");
/// let mut obj = LinExpr::new();
/// obj.add_term(a, Rational::from(5)).add_term(b, Rational::from(4));
/// p.maximize(obj);
///
/// match solve_ilp(&p, &IlpOptions::default())? {
///     IlpOutcome::Optimal(sol) => assert_eq!(sol.objective, Rational::from(12)),
///     other => panic!("expected optimal, got {other:?}"),
/// }
/// # Ok::<(), wsp_lp::IlpError>(())
/// ```
pub fn solve_ilp(problem: &Problem, options: &IlpOptions) -> Result<IlpOutcome, IlpError> {
    solve_ilp_with_scratch(problem, options, &mut LpScratch::new())
}

/// One branch-and-bound node: the bound overrides plus the parent's
/// converged basis (absent at the root or when warm starts are off) and
/// the branching provenance feeding the pseudocost statistics.
struct Node {
    bounds: BoundOverrides,
    /// Shared with the sibling (and the probe solves): a basis snapshot
    /// can be megabytes on large flows, so nodes hold an `Rc` instead of
    /// deep clones.
    warm: Option<Rc<WarmBasis>>,
    /// Sense-normalized LP objective of the parent node.
    parent_obj: f64,
    /// `(variable, branched-up, fractional distance)` of the branch that
    /// created this node.
    branch: Option<(VarId, bool, f64)>,
}

/// Total strong-branching child probes per ILP solve. Each probe is a
/// warm-started dual-simplex cleanup (microseconds), so this budget costs
/// single-digit milliseconds up front and buys reliable pseudocosts.
const STRONG_BRANCH_BUDGET: usize = 512;
/// A direction's pseudocost is considered reliable after this many
/// observations; below it, candidates are strong-branched (budget
/// permitting).
const RELIABLE_AFTER: u32 = 4;
/// Pseudocost gain recorded for a branch whose child is infeasible — the
/// strongest possible outcome.
const INFEASIBLE_GAIN: f64 = 1e12;

/// Per-variable, per-direction branching statistics: the average
/// sense-normalized objective gain per unit of fractional distance.
struct Pseudocosts {
    up_gain: Vec<f64>,
    up_count: Vec<u32>,
    down_gain: Vec<f64>,
    down_count: Vec<u32>,
}

impl Pseudocosts {
    fn record(&mut self, v: VarId, up: bool, gain_per_unit: f64) {
        let j = v.index();
        if up {
            self.up_gain[j] += gain_per_unit;
            self.up_count[j] += 1;
        } else {
            self.down_gain[j] += gain_per_unit;
            self.down_count[j] += 1;
        }
    }

    fn avg(total: f64, count: u32) -> f64 {
        if count == 0 {
            // Unobserved direction: a neutral unit gain keeps unexplored
            // variables competitive without dominating scored ones.
            1.0
        } else {
            total / count as f64
        }
    }

    /// Product-rule score of branching on `v` at fractional value `x`.
    fn score(&self, v: VarId, x: f64) -> f64 {
        let j = v.index();
        let down_frac = x - x.floor();
        let up_frac = x.ceil() - x;
        let down = Self::avg(self.down_gain[j], self.down_count[j]) * down_frac.max(1e-6);
        let up = Self::avg(self.up_gain[j], self.up_count[j]) * up_frac.max(1e-6);
        down.max(1e-12) * up.max(1e-12)
    }
}

/// Strong-branches candidate `v` at value `x`: solves both children from
/// this node's basis (warm dual cleanups) and records the observed
/// per-unit gains into the pseudocosts.
#[allow(clippy::too_many_arguments)]
fn strong_branch(
    problem: &Problem,
    options: &IlpOptions,
    scratch: &mut LpScratch,
    bounds: &BoundOverrides,
    basis: Option<&WarmBasis>,
    v: VarId,
    x: f64,
    parent_obj: f64,
    minimize: bool,
    pseudo: &mut Pseudocosts,
) -> Result<(), IlpError> {
    let floor = Rational::from(x.floor() as i64);
    for up in [false, true] {
        let mut child = bounds.clone();
        let frac = if up {
            child.tighten_lower(v, floor + Rational::ONE);
            frac_dist(x, true)
        } else {
            child.tighten_upper(v, floor);
            frac_dist(x, false)
        };
        let (outcome, _) = solve_node_f64(problem, &child, options, scratch, basis)?;
        let gain = match outcome {
            NodeOutcome::Solved { objective, .. } => {
                let norm = if minimize { objective } else { -objective };
                (norm - parent_obj).max(0.0) / frac
            }
            NodeOutcome::Infeasible => INFEASIBLE_GAIN,
            NodeOutcome::Unbounded => 0.0,
        };
        pseudo.record(v, up, gain);
    }
    Ok(())
}

/// [`solve_ilp`] with a caller-owned [`LpScratch`] that every node
/// relaxation of this solve, and of later solves through the same
/// scratch, reuses for its buffers. The scratch carries no state between
/// solves, so reusing it never changes a result.
///
/// # Errors
///
/// Same classes as [`solve_ilp`].
pub fn solve_ilp_with_scratch(
    problem: &Problem,
    options: &IlpOptions,
    scratch: &mut LpScratch,
) -> Result<IlpOutcome, IlpError> {
    let minimize = matches!(problem.sense(), crate::problem::Sense::Minimize);
    let int_vars: Vec<VarId> = problem.integer_vars().collect();
    let all_integer = int_vars.len() == problem.var_count();
    // With an integral objective (integer coefficients on integer
    // variables only), every integer solution has an integer objective,
    // so a node's fractional relaxation bound lifts to its ceiling — the
    // pruning rule that keeps the tree small even when `f64` bounds carry
    // sub-tolerance dust below the exact optimum.
    let objective_integral = problem
        .objective()
        .terms()
        .all(|(v, q)| q.is_integer() && problem.var(v).integer);

    // Root presolve: singleton constraint rows on integer variables imply
    // bounds that integrality rounds — `a·v ≥ b` lifts to
    // `v ≥ ⌈b/a⌉`, `a·v ≤ b` tightens to `v ≤ ⌊b/a⌋` (computed in exact
    // rational arithmetic). The relaxation keeps such variables at their
    // fractional caps otherwise, and the search would re-discover each
    // rounding one branch at a time.
    let root_bounds = match presolve_singleton_rows(problem) {
        Some(b) => b,
        None => return Ok(IlpOutcome::Infeasible),
    };

    let mut stack: Vec<Node> = vec![Node {
        bounds: root_bounds,
        warm: None,
        parent_obj: f64::NEG_INFINITY,
        branch: None,
    }];
    let mut incumbent: Option<IlpSolution> = None;
    let mut nodes = 0usize;
    let mut limit_hit = false;
    // Every LP solve — node relaxations, rounding-dive steps, and
    // strong-branch probes — draws from one budget, so `max_nodes` caps
    // the total LP work (the latency contract), not just node pops.
    let mut lp_budget = options.max_nodes;
    // Pseudocosts: per variable and direction, the observed average
    // objective gain per unit of fractional distance branched away.
    // Initialized by strong branching (bounded by `strong_budget` child
    // probes — warm-started dual cleanups, so each costs microseconds)
    // and refined by every regular node solve thereafter.
    let nv = problem.var_count();
    let mut pseudo = Pseudocosts {
        up_gain: vec![0.0; nv],
        up_count: vec![0u32; nv],
        down_gain: vec![0.0; nv],
        down_count: vec![0u32; nv],
    };
    let mut strong_budget = STRONG_BRANCH_BUDGET;

    while let Some(node) = stack.pop() {
        if lp_budget == 0 {
            limit_hit = true;
            break;
        }
        nodes += 1;
        lp_budget -= 1;
        let Node {
            bounds,
            warm,
            parent_obj,
            branch: parent_branch,
        } = node;

        let (node, raw_basis) = if options.exact_lp {
            (solve_node_exact(problem, &bounds)?, None)
        } else {
            solve_node_f64(problem, &bounds, options, scratch, warm.as_deref())?
        };
        let basis: Option<Rc<WarmBasis>> = raw_basis.map(Rc::new);

        let (values, lp_obj) = match node {
            NodeOutcome::Infeasible => {
                // Per-unit convention, matching `strong_branch`.
                if let Some((v, up, _)) = parent_branch {
                    pseudo.record(v, up, INFEASIBLE_GAIN);
                }
                continue;
            }
            NodeOutcome::Unbounded => {
                // Only the root relaxation can prove the ILP unbounded.
                if nodes == 1 {
                    return Ok(IlpOutcome::Unbounded);
                }
                continue;
            }
            NodeOutcome::Solved { values, objective } => (values, objective),
        };
        let norm_obj = if minimize { lp_obj } else { -lp_obj };
        if let Some((v, up, frac)) = parent_branch {
            if parent_obj.is_finite() {
                pseudo.record(v, up, (norm_obj - parent_obj).max(0.0) / frac.max(1e-6));
            }
        }

        // Root incumbent heuristic: an LP-guided rounding dive (warm
        // restarts off the root basis) manufactures a first integer
        // solution so the depth-first search below prunes against a real
        // incumbent from node one.
        if nodes == 1 && !options.exact_lp && incumbent.is_none() {
            if let Some(dive_vals) = rounding_dive(
                problem,
                options,
                scratch,
                &int_vars,
                &bounds,
                &values,
                basis.as_deref(),
                &mut lp_budget,
            )? {
                if let Some(sol) = exact_candidate(problem, &dive_vals, &int_vars, all_integer) {
                    incumbent = Some(sol);
                }
            }
        }

        // Bound pruning against the incumbent (objective sense-normalized:
        // we compare in the minimization direction). The relaxation bound
        // is an `f64` and may sit a hair *below* the exact optimum, so
        // the comparison needs slack proportional to the solver's
        // feasibility tolerance — with an integral objective the bound
        // additionally lifts to its ceiling, which prunes the whole band
        // of nodes whose true bound equals the incumbent.
        if let Some(inc) = &incumbent {
            let bound = if minimize { lp_obj } else { -lp_obj };
            let inc_obj = if minimize {
                inc.objective.to_f64()
            } else {
                -inc.objective.to_f64()
            };
            // Slack absorbs the f64 solver's bound dust (proportional to
            // its feasibility tolerance) — deliberately NOT
            // `DEFAULT_INTEGRALITY_TOL`, which only controls fractionality
            // detection.
            let slack = F64_FEAS_TOL * (1.0 + bound.abs());
            let pruned = if objective_integral {
                (bound - slack).ceil() >= inc_obj - 0.5
            } else {
                bound >= inc_obj - slack
            };
            if pruned {
                continue;
            }
        }

        // Find the branching variable. The exact path keeps the simple
        // most-fractional rule; the fast path uses pseudocost scores,
        // strong-branching (two warm child probes) any candidate whose
        // pseudocosts are not yet reliable while the probe budget lasts.
        let mut fractional: Vec<(VarId, f64, f64)> = Vec::new();
        for &v in &int_vars {
            let x = values[v.index()];
            let dist = (x - x.round()).abs();
            if dist > DEFAULT_INTEGRALITY_TOL {
                fractional.push((v, x, dist));
            }
        }
        let branch: Option<(VarId, f64)> = if options.exact_lp {
            most_fractional(&int_vars, &values).map(|(v, x, _)| (v, x))
        } else {
            if strong_budget > 0 {
                // Most-fractional-first initialization order.
                let mut order: Vec<usize> = (0..fractional.len()).collect();
                order.sort_by(|&a, &b| {
                    fractional[b]
                        .2
                        .partial_cmp(&fractional[a].2)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(fractional[a].0.cmp(&fractional[b].0))
                });
                for &i in &order {
                    let (v, x, _) = fractional[i];
                    if strong_budget == 0 || lp_budget < 2 {
                        break;
                    }
                    if pseudo.up_count[v.index()] >= RELIABLE_AFTER
                        && pseudo.down_count[v.index()] >= RELIABLE_AFTER
                    {
                        continue;
                    }
                    strong_budget = strong_budget.saturating_sub(2);
                    lp_budget -= 2;
                    strong_branch(
                        problem,
                        options,
                        scratch,
                        &bounds,
                        basis.as_deref(),
                        v,
                        x,
                        norm_obj,
                        minimize,
                        &mut pseudo,
                    )?;
                }
            }
            fractional
                .iter()
                .fold(None, |best, &(v, x, _)| {
                    let score = pseudo.score(v, x);
                    match best {
                        Some((_, _, bs)) if score <= bs => best,
                        _ => Some((v, x, score)),
                    }
                })
                .map(|(v, x, _)| (v, x))
        };

        match branch {
            None => {
                // Integer candidate: build exact values and verify.
                let exact = exact_candidate(problem, &values, &int_vars, all_integer);
                match exact {
                    Some(sol) => {
                        let better = match &incumbent {
                            None => true,
                            Some(inc) => {
                                if minimize {
                                    sol.objective < inc.objective
                                } else {
                                    sol.objective > inc.objective
                                }
                            }
                        };
                        if better {
                            incumbent = Some(sol);
                        }
                    }
                    None => {
                        // Rounding broke exact feasibility: redo this node
                        // with the exact simplex.
                        let exact_node = solve_node_exact_rational(problem, &bounds)?;
                        if let Some((vals, frac)) = exact_node_candidate(&int_vars, exact_node) {
                            match frac {
                                None => {
                                    let obj = problem.objective().eval(&vals);
                                    let sol = IlpSolution {
                                        values: vals,
                                        objective: obj,
                                    };
                                    let better = match &incumbent {
                                        None => true,
                                        Some(inc) => {
                                            if minimize {
                                                sol.objective < inc.objective
                                            } else {
                                                sol.objective > inc.objective
                                            }
                                        }
                                    };
                                    if better {
                                        incumbent = Some(sol);
                                    }
                                }
                                Some((v, val)) => {
                                    // Mid-interval placeholder: the exact
                                    // path has no f64 point to derive the
                                    // fractional distances from.
                                    let x = val.to_f64() + 0.5;
                                    push_children(&mut stack, &bounds, &basis, v, val, x, norm_obj);
                                }
                            }
                        }
                    }
                }
            }
            Some((v, x)) => {
                push_children(
                    &mut stack,
                    &bounds,
                    &basis,
                    v,
                    Rational::from(x.floor() as i64),
                    x,
                    norm_obj,
                );
            }
        }
    }

    match incumbent {
        Some(sol) if limit_hit => Ok(IlpOutcome::Feasible(sol)),
        Some(sol) => Ok(IlpOutcome::Optimal(sol)),
        None if limit_hit => Err(IlpError::LimitWithoutSolution { nodes }),
        None => Ok(IlpOutcome::Infeasible),
    }
}

enum NodeOutcome {
    Solved { values: Vec<f64>, objective: f64 },
    Infeasible,
    Unbounded,
}

/// Fractional distance the relaxation value `x` moves when branched down
/// (`up = false`) or up (`up = true`), floored away from zero so
/// pseudocost normalization never divides by ~0.
fn frac_dist(x: f64, up: bool) -> f64 {
    if up {
        (x.ceil() - x).max(1e-6)
    } else {
        (x - x.floor()).max(1e-6)
    }
}

/// The most fractional integer variable of `values` (ties keep the
/// lowest id), or `None` when all are integral within
/// [`DEFAULT_INTEGRALITY_TOL`].
fn most_fractional(int_vars: &[VarId], values: &[f64]) -> Option<(VarId, f64, f64)> {
    let mut best: Option<(VarId, f64, f64)> = None;
    for &v in int_vars {
        let x = values[v.index()];
        let dist = (x - x.round()).abs();
        if dist > DEFAULT_INTEGRALITY_TOL {
            match best {
                Some((_, _, b)) if dist <= b => {}
                _ => best = Some((v, x, dist)),
            }
        }
    }
    best
}

/// Exact root presolve: extracts the bound implied by every singleton
/// constraint row and, for integer variables, rounds it to the integer
/// lattice (`⌈·⌉` for lower bounds, `⌊·⌋` for upper). Returns `None`
/// when a rounded pair is contradictory or a singleton equality has no
/// integer solution — the ILP is infeasible before any LP is solved.
fn presolve_singleton_rows(problem: &Problem) -> Option<BoundOverrides> {
    let mut bounds = BoundOverrides::none();
    for c in problem.constraints() {
        let mut terms = c.expr.terms();
        let Some((v, a)) = terms.next() else {
            continue;
        };
        if terms.next().is_some() || a.is_zero() {
            continue;
        }
        let integer = problem.var(v).integer;
        let implied = c.rhs / a;
        // `a` negative flips the relation.
        let relation = match (c.relation, a.is_positive()) {
            (Relation::Eq, _) => Relation::Eq,
            (r, true) => r,
            (Relation::Le, false) => Relation::Ge,
            (Relation::Ge, false) => Relation::Le,
        };
        match relation {
            Relation::Le => {
                let ub = if integer {
                    Rational::from(implied.floor())
                } else {
                    implied
                };
                bounds.tighten_upper(v, ub);
            }
            Relation::Ge => {
                let lb = if integer {
                    Rational::from(implied.ceil())
                } else {
                    implied
                };
                if lb.is_positive() {
                    bounds.tighten_lower(v, lb);
                }
            }
            Relation::Eq => {
                if integer && !implied.is_integer() {
                    return None;
                }
                bounds.tighten_upper(v, implied);
                if implied.is_positive() {
                    bounds.tighten_lower(v, implied);
                }
            }
        }
    }
    // Contradictory rounded pairs (or a pair contradicting the base
    // bounds) mean integer infeasibility.
    for (j, info) in problem.vars().iter().enumerate() {
        let v = VarId(j as u32);
        let (lo, up) = bounds.effective(v, info.upper);
        if let Some(up) = up {
            if lo > up {
                return None;
            }
        }
    }
    Some(bounds)
}

/// LP-guided rounding dive: starting from the root relaxation, repeatedly
/// fix the most fractional integer variable to its nearest integer (the
/// other direction if that is infeasible) and warm-re-solve, until the
/// relaxation is integral or the dive dead-ends. The result (exactly
/// verified by the caller) seeds the incumbent so depth-first
/// branch-and-bound prunes from the start instead of hoping its
/// round-down dive stumbles onto an integer solution.
///
/// Pure function of `(problem, root solution, options)` — determinism of
/// the overall solve is preserved.
#[allow(clippy::too_many_arguments)]
fn rounding_dive(
    problem: &Problem,
    options: &IlpOptions,
    scratch: &mut LpScratch,
    int_vars: &[VarId],
    root_bounds: &BoundOverrides,
    root_values: &[f64],
    root_basis: Option<&WarmBasis>,
    lp_budget: &mut usize,
) -> Result<Option<Vec<f64>>, IlpError> {
    let mut bounds = root_bounds.clone();
    let mut warm: Option<WarmBasis> = root_basis.cloned();
    let mut values = root_values.to_vec();
    for _ in 0..int_vars.len() * 2 {
        let Some((v, x, _)) = most_fractional(int_vars, &values) else {
            return Ok(Some(values));
        };
        let mut fixed = None;
        for candidate in [x.round(), if x.round() > x { x.floor() } else { x.ceil() }] {
            if candidate < -0.5 {
                continue;
            }
            let mut tightened = bounds.clone();
            let r = Rational::from(candidate as i64);
            tightened.tighten_lower(v, r);
            tightened.tighten_upper(v, r);
            if *lp_budget == 0 {
                return Ok(None);
            }
            *lp_budget -= 1;
            let (node, basis) =
                solve_node_f64(problem, &tightened, options, scratch, warm.as_ref())?;
            if let NodeOutcome::Solved {
                values: vals,
                objective: _,
            } = node
            {
                fixed = Some((tightened, vals, basis));
                break;
            }
        }
        let Some((tightened, vals, basis)) = fixed else {
            return Ok(None); // dive dead-ended; no incumbent from here
        };
        bounds = tightened;
        values = vals;
        warm = basis;
    }
    Ok(None)
}

fn solve_node_f64(
    problem: &Problem,
    bounds: &BoundOverrides,
    options: &IlpOptions,
    scratch: &mut LpScratch,
    warm: Option<&WarmBasis>,
) -> Result<(NodeOutcome, Option<WarmBasis>), IlpError> {
    let (out, basis) = revised::solve_f64(problem, bounds, scratch, warm)?;
    // `warm_start: false` keeps no basis, so no later node starts warm.
    let basis = basis.filter(|_| options.warm_start);
    Ok((
        match out {
            LpOutcome::Optimal(sol) => NodeOutcome::Solved {
                values: sol.values,
                objective: sol.objective,
            },
            LpOutcome::Infeasible => NodeOutcome::Infeasible,
            LpOutcome::Unbounded => NodeOutcome::Unbounded,
        },
        basis,
    ))
}

fn solve_node_exact(problem: &Problem, bounds: &BoundOverrides) -> Result<NodeOutcome, IlpError> {
    Ok(match solve_lp::<Rational>(problem, bounds)? {
        LpOutcome::Optimal(sol) => NodeOutcome::Solved {
            values: sol.values.iter().map(|v| v.to_f64()).collect(),
            objective: sol.objective.to_f64(),
        },
        LpOutcome::Infeasible => NodeOutcome::Infeasible,
        LpOutcome::Unbounded => NodeOutcome::Unbounded,
    })
}

fn solve_node_exact_rational(
    problem: &Problem,
    bounds: &BoundOverrides,
) -> Result<Option<Vec<Rational>>, IlpError> {
    Ok(match solve_lp::<Rational>(problem, bounds)? {
        LpOutcome::Optimal(sol) => Some(sol.values),
        _ => None,
    })
}

/// Classifies an exact node solution: integral (no fractional int var) or
/// the first fractional variable to branch on.
#[allow(clippy::type_complexity)]
fn exact_node_candidate(
    int_vars: &[VarId],
    values: Option<Vec<Rational>>,
) -> Option<(Vec<Rational>, Option<(VarId, Rational)>)> {
    let vals = values?;
    for &v in int_vars {
        let x = vals[v.index()];
        if !x.is_integer() {
            let floor = Rational::from(x.floor());
            return Some((vals, Some((v, floor))));
        }
    }
    Some((vals, None))
}

/// Rounds integer vars, keeps continuous vars approximate, and verifies the
/// point exactly when the problem is purely integer. Returns `None` if the
/// rounded point is not exactly feasible.
fn exact_candidate(
    problem: &Problem,
    values: &[f64],
    int_vars: &[VarId],
    all_integer: bool,
) -> Option<IlpSolution> {
    let mut exact: Vec<Rational> = values
        .iter()
        .map(|&v| {
            // Rationalize with a fixed denominator; good enough for the
            // continuous vars we never branch on.
            Rational::new((v * 1_000_000.0).round() as i128, 1_000_000)
        })
        .collect();
    for &v in int_vars {
        exact[v.index()] = Rational::from(values[v.index()].round() as i64);
    }
    if all_integer && !problem.violations(&exact).is_empty() {
        return None;
    }
    let objective = problem.objective().eval(&exact);
    Some(IlpSolution {
        values: exact,
        objective,
    })
}

#[allow(clippy::too_many_arguments)]
fn push_children(
    stack: &mut Vec<Node>,
    bounds: &BoundOverrides,
    basis: &Option<Rc<WarmBasis>>,
    var: VarId,
    floor: Rational,
    x: f64,
    parent_obj: f64,
) {
    // Left child: var <= floor.
    let mut left = bounds.clone();
    left.tighten_upper(var, floor);
    // Right child: var >= floor + 1.
    let mut right = bounds.clone();
    right.tighten_lower(var, floor + Rational::ONE);
    // DFS: explore the "round down" side first (flows are minimized).
    // Both children warm-start from this node's optimal basis — each
    // differs from it by exactly one bound, so a short dual-simplex
    // cleanup replaces the cold two-phase solve.
    stack.push(Node {
        bounds: right,
        warm: basis.clone(),
        parent_obj,
        branch: Some((var, true, frac_dist(x, true))),
    });
    stack.push(Node {
        bounds: left,
        warm: basis.clone(),
        parent_obj,
        branch: Some((var, false, frac_dist(x, false))),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LinExpr, Relation};

    fn r(n: i128) -> Rational {
        Rational::from(n)
    }

    #[test]
    fn knapsack_small() {
        // max 8a + 11b + 6c s.t. 5a + 7b + 4c <= 14, binary.
        // Best is a+b: weight 12 <= 14, value 19 (a+b+c weighs 16).
        let mut p = Problem::new();
        let a = p.add_int_var("a");
        let b = p.add_int_var("b");
        let c = p.add_int_var("c");
        for v in [a, b, c] {
            p.set_upper(v, r(1));
        }
        let mut cap = LinExpr::new();
        cap.add_term(a, r(5)).add_term(b, r(7)).add_term(c, r(4));
        p.add_constraint(cap, Relation::Le, r(14), "cap");
        let mut obj = LinExpr::new();
        obj.add_term(a, r(8)).add_term(b, r(11)).add_term(c, r(6));
        p.maximize(obj);
        match solve_ilp(&p, &IlpOptions::default()).unwrap() {
            IlpOutcome::Optimal(sol) => {
                assert_eq!(sol.objective, r(19));
                assert_eq!(sol.int_value(a), 1);
                assert_eq!(sol.int_value(b), 1);
                assert_eq!(sol.int_value(c), 0);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn fractional_lp_rounds_down_via_branching() {
        // max x s.t. 2x <= 5, x integer -> x = 2 (LP gives 2.5).
        let mut p = Problem::new();
        let x = p.add_int_var("x");
        let mut c = LinExpr::new();
        c.add_term(x, r(2));
        p.add_constraint(c, Relation::Le, r(5), "c");
        p.maximize(LinExpr::var(x));
        match solve_ilp(&p, &IlpOptions::default()).unwrap() {
            IlpOutcome::Optimal(sol) => assert_eq!(sol.objective, r(2)),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_integer_gap() {
        // 2x = 3 has an LP solution (1.5) but no integer solution.
        let mut p = Problem::new();
        let x = p.add_int_var("x");
        let mut c = LinExpr::new();
        c.add_term(x, r(2));
        p.add_constraint(c, Relation::Eq, r(3), "c");
        p.minimize(LinExpr::var(x));
        assert_eq!(
            solve_ilp(&p, &IlpOptions::default()).unwrap(),
            IlpOutcome::Infeasible
        );
    }

    #[test]
    fn unbounded_integer_program() {
        let mut p = Problem::new();
        let x = p.add_int_var("x");
        p.maximize(LinExpr::var(x));
        assert_eq!(
            solve_ilp(&p, &IlpOptions::default()).unwrap(),
            IlpOutcome::Unbounded
        );
    }

    #[test]
    fn exact_lp_mode_agrees() {
        let mut p = Problem::new();
        let x = p.add_int_var("x");
        let y = p.add_int_var("y");
        let mut c = LinExpr::new();
        c.add_term(x, r(3)).add_term(y, r(5));
        p.add_constraint(c, Relation::Le, r(19), "cap");
        let mut obj = LinExpr::new();
        obj.add_term(x, r(2)).add_term(y, r(3));
        p.maximize(obj);
        let fast = solve_ilp(&p, &IlpOptions::default()).unwrap();
        let exact = solve_ilp(
            &p,
            &IlpOptions {
                exact_lp: true,
                ..IlpOptions::default()
            },
        )
        .unwrap();
        let f = fast.solution().unwrap().objective;
        let e = exact.solution().unwrap().objective;
        assert_eq!(f, e);
    }

    #[test]
    fn node_limit_reports_feasible_or_error() {
        let mut p = Problem::new();
        let x = p.add_int_var("x");
        let mut c = LinExpr::new();
        c.add_term(x, r(2));
        p.add_constraint(c, Relation::Le, r(5), "c");
        p.maximize(LinExpr::var(x));
        // With a 1-node limit only the root is explored — but its
        // rounding dive finds x = 2 and the ceiling-lifted root bound
        // (⌈2.5⌉ downward) proves nothing better exists, so the solve
        // closes at the root with a proven optimum.
        let out = solve_ilp(
            &p,
            &IlpOptions {
                max_nodes: 1,
                ..IlpOptions::default()
            },
        )
        .unwrap();
        match out {
            IlpOutcome::Optimal(sol) | IlpOutcome::Feasible(sol) => {
                assert_eq!(sol.objective, r(2));
            }
            other => panic!("expected a solution, got {other:?}"),
        }
        // A genuinely fractional root (no singleton rows to presolve, no
        // f64 dive in exact mode) under a 1-node limit yields no solution.
        let mut hard = Problem::new();
        let x = hard.add_int_var("x");
        let y = hard.add_int_var("y");
        let mut c = LinExpr::new();
        c.add_term(x, r(2)).add_term(y, r(3));
        hard.add_constraint(c, Relation::Le, r(7), "cap");
        let mut obj = LinExpr::new();
        obj.add_term(x, r(3)).add_term(y, r(4));
        hard.maximize(obj);
        let out = solve_ilp(
            &hard,
            &IlpOptions {
                max_nodes: 1,
                exact_lp: true,
                ..IlpOptions::default()
            },
        );
        assert!(matches!(out, Err(IlpError::LimitWithoutSolution { .. })));
    }

    #[test]
    fn equality_system_integer_solution() {
        // x + y = 10, x - y = 4 -> (7, 3).
        let mut p = Problem::new();
        let x = p.add_int_var("x");
        let y = p.add_int_var("y");
        let mut c1 = LinExpr::new();
        c1.add_term(x, r(1)).add_term(y, r(1));
        p.add_constraint(c1, Relation::Eq, r(10), "sum");
        let mut c2 = LinExpr::new();
        c2.add_term(x, r(1)).add_term(y, r(-1));
        p.add_constraint(c2, Relation::Eq, r(4), "diff");
        p.minimize(LinExpr::new());
        match solve_ilp(&p, &IlpOptions::default()).unwrap() {
            IlpOutcome::Optimal(sol) => {
                assert_eq!(sol.int_value(x), 7);
                assert_eq!(sol.int_value(y), 3);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }
}
