//! Property-based tests for the LP/ILP substrate: field axioms for
//! `Rational`, agreement between the `f64` sparse revised simplex and the
//! exact `Rational` dense-tableau oracle (including on flow-shaped
//! programs with sparse conservation-style rows), warm-started vs
//! cold-started branch-and-bound equivalence, solver-scratch reuse across
//! problems, and branch-and-bound cross-checked against brute force.

use proptest::prelude::*;
use wsp_lp::{
    solve_ilp, solve_ilp_with_scratch, solve_lp, BoundOverrides, IlpOptions, IlpOutcome, LinExpr,
    LpOutcome, LpScratch, Problem, Rational, Relation, VarId,
};

fn small_rational() -> impl Strategy<Value = Rational> {
    (-50i128..=50, 1i128..=10).prop_map(|(n, d)| Rational::new(n, d))
}

proptest! {
    #[test]
    fn rational_add_commutes(a in small_rational(), b in small_rational()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn rational_mul_distributes(a in small_rational(), b in small_rational(), c in small_rational()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn rational_add_associates(a in small_rational(), b in small_rational(), c in small_rational()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn rational_sub_is_add_neg(a in small_rational(), b in small_rational()) {
        prop_assert_eq!(a - b, a + (-b));
    }

    #[test]
    fn rational_recip_inverts(a in small_rational()) {
        prop_assume!(!a.is_zero());
        prop_assert_eq!(a * a.recip(), Rational::ONE);
    }

    #[test]
    fn rational_floor_ceil_sandwich(a in small_rational()) {
        let f = Rational::from(a.floor());
        let c = Rational::from(a.ceil());
        prop_assert!(f <= a && a <= c);
        prop_assert!((c - f) <= Rational::ONE);
    }

    #[test]
    fn rational_ordering_consistent_with_f64(a in small_rational(), b in small_rational()) {
        // Small rationals convert exactly enough for strict comparisons.
        if a < b {
            prop_assert!(a.to_f64() <= b.to_f64());
        }
    }
}

/// A random small LP: maximize a non-negative objective over `<=`
/// constraints with non-negative coefficients — always feasible (origin)
/// and always bounded (every variable capped).
fn random_bounded_lp() -> impl Strategy<Value = Problem> {
    let dims = (1usize..=4, 1usize..=4);
    dims.prop_flat_map(|(nv, nc)| {
        let coeffs = proptest::collection::vec(0i128..=5, nv * nc);
        let rhs = proptest::collection::vec(1i128..=20, nc);
        let obj = proptest::collection::vec(0i128..=5, nv);
        let caps = proptest::collection::vec(1i128..=10, nv);
        (Just(nv), Just(nc), coeffs, rhs, obj, caps).prop_map(|(nv, nc, coeffs, rhs, obj, caps)| {
            let mut p = Problem::new();
            let vars: Vec<VarId> = (0..nv).map(|i| p.add_var(format!("x{i}"))).collect();
            for (i, &v) in vars.iter().enumerate() {
                p.set_upper(v, Rational::from(caps[i]));
            }
            for c in 0..nc {
                let mut e = LinExpr::new();
                for (i, &v) in vars.iter().enumerate() {
                    e.add_term(v, Rational::from(coeffs[c * nv + i]));
                }
                p.add_constraint(e, Relation::Le, Rational::from(rhs[c]), format!("c{c}"));
            }
            let mut o = LinExpr::new();
            for (i, &v) in vars.iter().enumerate() {
                o.add_term(v, Rational::from(obj[i]));
            }
            p.maximize(o);
            p
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn f64_and_exact_simplex_agree(p in random_bounded_lp()) {
        let fast = solve_lp::<f64>(&p, &BoundOverrides::none()).unwrap();
        let exact = solve_lp::<Rational>(&p, &BoundOverrides::none()).unwrap();
        match (fast, exact) {
            (LpOutcome::Optimal(f), LpOutcome::Optimal(e)) => {
                prop_assert!((f.objective - e.objective.to_f64()).abs() < 1e-6,
                    "fast {} vs exact {}", f.objective, e.objective);
            }
            (a, b) => prop_assert!(false, "status mismatch: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn exact_lp_solution_is_exactly_feasible(p in random_bounded_lp()) {
        if let LpOutcome::Optimal(sol) =
            solve_lp::<Rational>(&p, &BoundOverrides::none()).unwrap()
        {
            prop_assert!(p.violations(&sol.values).is_empty(),
                "exact solution violates: {:?}", p.violations(&sol.values));
        }
    }
}

/// A random *flow-shaped* LP: sparse rows with at most 4 nonzeros and
/// mixed signs (the shape of loaded/unloaded conservation rows), a mix of
/// `=`/`≤`/`≥` relations, small integer data, scattered upper bounds, and
/// a non-negative minimization objective (always bounded; feasibility is
/// whatever the rows say — both solvers must agree on the verdict, which
/// small integer data keeps far from the tolerance boundary).
fn random_flow_shaped_lp() -> impl Strategy<Value = Problem> {
    let dims = (2usize..=8, 1usize..=8);
    dims.prop_flat_map(|(nv, nc)| {
        let row_vars = proptest::collection::vec(
            proptest::collection::vec(0usize..nv, 1..=4usize.min(nv)),
            nc,
        );
        // Nonzero coefficients in {-3..-1, 1..3}, encoded as 0..=5.
        let row_coeffs = proptest::collection::vec(proptest::collection::vec(0i128..=5, 4), nc);
        let relations = proptest::collection::vec(0u8..3u8, nc);
        let rhs = proptest::collection::vec(-6i128..=6, nc);
        // Optional upper bounds, encoded with -1 = none.
        let uppers = proptest::collection::vec(-1i128..=8, nv);
        let obj = proptest::collection::vec(0i128..=5, nv);
        (row_vars, row_coeffs, relations, rhs, uppers, obj).prop_map(
            move |(row_vars, row_coeffs, relations, rhs, uppers, obj)| {
                let mut p = Problem::new();
                let vars: Vec<VarId> = (0..nv).map(|i| p.add_var(format!("x{i}"))).collect();
                for (i, &u) in uppers.iter().enumerate() {
                    if u >= 0 {
                        p.set_upper(vars[i], Rational::from(u));
                    }
                }
                for c in 0..row_vars.len() {
                    let mut e = LinExpr::new();
                    for (k, &vi) in row_vars[c].iter().enumerate() {
                        let enc = row_coeffs[c][k];
                        let coeff = if enc < 3 { enc - 3 } else { enc - 2 };
                        e.add_term(vars[vi], Rational::from(coeff));
                    }
                    if e.is_zero() {
                        continue;
                    }
                    let rel = match relations[c] {
                        0 => Relation::Le,
                        1 => Relation::Ge,
                        _ => Relation::Eq,
                    };
                    p.add_constraint(e, rel, Rational::from(rhs[c]), format!("c{c}"));
                }
                let mut o = LinExpr::new();
                for (i, &v) in vars.iter().enumerate() {
                    o.add_term(v, Rational::from(obj[i]));
                }
                p.minimize(o);
                p
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The sparse `f64` revised simplex agrees with the exact `Rational`
    /// oracle on flow-shaped programs: same feasibility verdict, and on
    /// optimal instances the same objective within tolerance, with the
    /// `f64` point feasible under the exact constraint check.
    #[test]
    fn sparse_f64_matches_rational_oracle_on_flow_shapes(p in random_flow_shaped_lp()) {
        let fast = solve_lp::<f64>(&p, &BoundOverrides::none()).unwrap();
        let exact = solve_lp::<Rational>(&p, &BoundOverrides::none()).unwrap();
        match (fast, exact) {
            (LpOutcome::Optimal(f), LpOutcome::Optimal(e)) => {
                prop_assert!(
                    (f.objective - e.objective.to_f64()).abs() < 1e-6,
                    "fast {} vs exact {}", f.objective, e.objective
                );
            }
            (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
            (a, b) => prop_assert!(false, "status mismatch: {a:?} vs {b:?}"),
        }
    }

    /// Reusing one [`LpScratch`] across a sequence of different problems
    /// never changes any solve's outcome: the scratch carries buffers
    /// only, so each solve through it equals a solve through a fresh one.
    #[test]
    fn scratch_reuse_is_pure(
        lps in proptest::collection::vec(random_flow_shaped_lp(), 1..4),
        ilps in proptest::collection::vec(random_small_ilp(), 1..3),
    ) {
        let options = IlpOptions::default();
        let mut scratch = LpScratch::new();
        for p in lps.iter().chain(&ilps) {
            // Twice through the shared scratch, once through a fresh one.
            let a = solve_ilp_with_scratch(p, &options, &mut scratch);
            let b = solve_ilp_with_scratch(p, &options, &mut scratch);
            let fresh = solve_ilp_with_scratch(p, &options, &mut LpScratch::new());
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(&a, &fresh);
        }
    }
}

/// Brute force a pure-integer maximization by enumerating the box of upper
/// bounds.
fn brute_force_max(p: &Problem) -> Option<Rational> {
    let caps: Vec<i128> = p
        .vars()
        .iter()
        .map(|v| v.upper.expect("bounded").floor())
        .collect();
    let n = caps.len();
    let mut best: Option<Rational> = None;
    let mut point = vec![0i128; n];
    loop {
        let values: Vec<Rational> = point.iter().map(|&x| Rational::from(x)).collect();
        if p.violations(&values).is_empty() {
            let obj = p.objective().eval(&values);
            if best.is_none_or(|b| obj > b) {
                best = Some(obj);
            }
        }
        // Odometer increment.
        let mut i = 0;
        loop {
            if i == n {
                return best;
            }
            point[i] += 1;
            if point[i] <= caps[i] {
                break;
            }
            point[i] = 0;
            i += 1;
        }
    }
}

fn random_small_ilp() -> impl Strategy<Value = Problem> {
    let dims = (1usize..=3, 1usize..=3);
    dims.prop_flat_map(|(nv, nc)| {
        let coeffs = proptest::collection::vec(0i128..=4, nv * nc);
        let rhs = proptest::collection::vec(1i128..=12, nc);
        let obj = proptest::collection::vec(0i128..=5, nv);
        (Just(nv), Just(nc), coeffs, rhs, obj).prop_map(|(nv, nc, coeffs, rhs, obj)| {
            let mut p = Problem::new();
            let vars: Vec<VarId> = (0..nv).map(|i| p.add_int_var(format!("x{i}"))).collect();
            for &v in &vars {
                p.set_upper(v, Rational::from(4));
            }
            for c in 0..nc {
                let mut e = LinExpr::new();
                for (i, &v) in vars.iter().enumerate() {
                    e.add_term(v, Rational::from(coeffs[c * nv + i]));
                }
                p.add_constraint(e, Relation::Le, Rational::from(rhs[c]), format!("c{c}"));
            }
            let mut o = LinExpr::new();
            for (i, &v) in vars.iter().enumerate() {
                o.add_term(v, Rational::from(obj[i]));
            }
            p.maximize(o);
            p
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn branch_and_bound_matches_brute_force(p in random_small_ilp()) {
        let expected = brute_force_max(&p).expect("origin always feasible");
        match solve_ilp(&p, &IlpOptions::default()).unwrap() {
            IlpOutcome::Optimal(sol) => {
                prop_assert_eq!(sol.objective, expected);
                prop_assert!(p.violations(&sol.values).is_empty());
            }
            other => prop_assert!(false, "expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn exact_and_fast_ilp_agree(p in random_small_ilp()) {
        let fast = solve_ilp(&p, &IlpOptions::default()).unwrap();
        let exact = solve_ilp(&p, &IlpOptions { exact_lp: true, ..IlpOptions::default() }).unwrap();
        let f = fast.solution().expect("feasible").objective;
        let e = exact.solution().expect("feasible").objective;
        prop_assert_eq!(f, e);
    }

    /// Warm-started branch-and-bound (children reuse the parent's basis
    /// via the dual simplex) reaches exactly the same optimal objective
    /// as cold-started branch-and-bound.
    #[test]
    fn warm_and_cold_branch_and_bound_agree(p in random_small_ilp()) {
        let warm = solve_ilp(&p, &IlpOptions::default()).unwrap();
        let cold = solve_ilp(
            &p,
            &IlpOptions { warm_start: false, ..IlpOptions::default() },
        )
        .unwrap();
        let w = warm.solution().expect("feasible").objective;
        let c = cold.solution().expect("feasible").objective;
        prop_assert_eq!(w, c);
    }
}
