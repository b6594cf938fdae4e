//! Exact-rational LP/ILP solving: the constraint engine behind agent-flow
//! synthesis.
//!
//! The paper discharges its contract conjunction with the Z3 SMT solver. The
//! generated formula is a pure conjunction of linear constraints over
//! non-negative integers, so an ILP solver is a faithful decision procedure
//! for the same formula class. This crate provides one, built from scratch:
//!
//! * [`Rational`] — exact `i128`-backed rational arithmetic;
//! * [`Problem`] / [`LinExpr`] / [`Constraint`] — model building, with a
//!   cached CSR/CSC view of the constraint matrix;
//! * [`solve_lp`] — generic over the scalar: the [`f64`] instantiation is
//!   a sparse revised simplex (factorized basis with eta-file updates,
//!   pricing over nonzeros, bounded variables), while [`Rational`] runs
//!   the exact dense tableau that serves as its cross-validation oracle;
//! * [`solve_ilp`] — branch-and-bound whose child nodes warm-start from
//!   the parent's basis via a dual-simplex cleanup, with exact
//!   verification of every integer candidate, so the fast path can never
//!   return an invalid model;
//! * [`LpScratch`] — the preallocated buffers of the sparse simplex,
//!   reused by back-to-back ILP solves ([`solve_ilp_with_scratch`]). It
//!   carries allocation capacity only: every LP solve is a pure function
//!   of the problem, its bound overrides and the parent basis it starts
//!   from, if any.
//!
//! # Examples
//!
//! ```
//! use wsp_lp::{solve_ilp, IlpOptions, IlpOutcome, LinExpr, Problem, Rational, Relation};
//!
//! // min x + y  s.t.  x + y >= 3, x,y integer.
//! let mut p = Problem::new();
//! let x = p.add_int_var("x");
//! let y = p.add_int_var("y");
//! let mut c = LinExpr::new();
//! c.add_term(x, Rational::ONE).add_term(y, Rational::ONE);
//! p.add_constraint(c.clone(), Relation::Ge, Rational::from(3), "demand");
//! p.minimize(c);
//! let outcome = solve_ilp(&p, &IlpOptions::default())?;
//! assert!(matches!(outcome, IlpOutcome::Optimal(s) if s.objective == Rational::from(3)));
//! # Ok::<(), wsp_lp::IlpError>(())
//! ```

#![warn(missing_docs)]

mod ilp;
mod problem;
mod rational;
mod revised;
mod scalar;
mod simplex;

pub use ilp::{solve_ilp, solve_ilp_with_scratch, IlpError, IlpOptions, IlpOutcome, IlpSolution};
pub use problem::{Constraint, LinExpr, Problem, Relation, Sense, VarId, VarInfo};
pub use rational::Rational;
pub use revised::LpScratch;
pub use scalar::Scalar;
pub use simplex::{solve_lp, BoundOverrides, LpError, LpOutcome, LpSolution};
