//! The sparse revised simplex over `f64` — the fast path behind flow
//! synthesis.
//!
//! The dense tableau this replaces carried every upper bound as an extra
//! row and rewrote O(rows × cols) entries per pivot. Flow-conservation
//! rows have a handful of nonzeros each, so this module works over the
//! [`Problem`]'s cached CSR/CSC view instead and keeps per-pivot work
//! proportional to the nonzeros:
//!
//! * **Bounded variables, no bound rows.** Structural bounds (base upper
//!   bounds intersected with [`BoundOverrides`]) live in dense `lo`/`up`
//!   arrays; the ratio tests handle both bounds and *bound flips*
//!   directly, so branch-and-bound tightenings never change the basis
//!   dimension — which is what makes warm starts possible at all.
//! * **Factorized basis.** The basis matrix is triangularized by
//!   row/column singleton peeling (flow bases are near-triangular; the
//!   leftover "bump" is factorized densely and is tiny in practice), and
//!   pivots between refactorizations are absorbed as product-form
//!   eta-file updates.
//! * **Pricing over nonzeros.** Reduced costs are recomputed by one BTRAN
//!   plus a single sweep of the CSR rows — O(nnz), not O(rows × cols).
//! * **Warm starts.** [`solve_f64`] accepts a starting basis and repairs
//!   it with a bounded-variable *dual* simplex: branch-and-bound children
//!   start dual-feasible from the parent's optimal basis, so a node solve
//!   is a handful of dual pivots instead of a two-phase cold solve. A
//!   solve without a starting basis is cold; nothing carries over from
//!   one solve to the next.
//!
//! Everything here is deterministic: pricing scans in index order,
//! tie-breaks are by index or magnitude, and no hashing of addresses or
//! wall-clock state is consulted — a solve is a pure function of
//! `(problem, bounds, starting basis)`, which the explorer's
//! byte-determinism contract relies on.
//! Numerical breakdowns (singular refactorization, vanishing pivots, a
//! failed post-solve feasibility audit) retreat to the dense tableau
//! rather than guessing. The `Rational` dense tableau remains the exact
//! cross-validation oracle; `tests/properties.rs` holds this path to it
//! on flow-shaped random programs.

use crate::problem::{Problem, Relation, Sense, SparseView, VarId};
use crate::scalar::{F64_FEAS_TOL, F64_PIVOT_TOL, F64_TOL};
use crate::simplex::{
    BoundOverrides, LpError, LpOutcome, LpSolution, BLAND_AFTER_STALLS, MAX_ITERATIONS,
};

const INF: f64 = f64::INFINITY;
/// Eta-file length that triggers a refactorization (which also re-solves
/// the basic values, bounding numerical drift).
const REFACTOR_EVERY: usize = 64;
/// Reduced-cost threshold for entering-candidate eligibility.
const DUAL_TOL: f64 = 1e-7;
/// Sentinel index.
const NONE: u32 = u32::MAX;

/// Where a variable currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// In the basis.
    Basic,
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
}

/// A converged basis snapshot: enough to warm-start a later solve of the
/// same problem under different bound overrides (branch-and-bound
/// children) via the dual simplex.
#[derive(Debug, Clone)]
pub(crate) struct WarmBasis {
    status: Vec<Status>,
    basis: Vec<u32>,
}

/// How a solve attempt failed internally (before mapping to the public
/// error surface or falling back to the dense tableau).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breakdown {
    /// Pivot cap exceeded — propagated as [`LpError::IterationLimit`].
    IterationLimit,
    /// Singular basis, vanishing pivot, or a failed post-solve
    /// feasibility audit — the caller retreats to the dense tableau.
    Numerical,
}

/// One product-form update: basis position `r` was replaced, and the
/// FTRAN'd entering column `w` absorbs the change until the next
/// refactorization. The nonzeros of every eta live in one flat arena
/// (`LpScratch::eta_nz`, sliced by `start..end`) so pivots never allocate
/// — the eta file truncates in place on each refactorization and its
/// capacity is reused across solves.
#[derive(Debug, Clone, Copy)]
struct Eta {
    r: u32,
    wr: f64,
    /// Arena range of the `(position, value)` entries of `w` excluding
    /// position `r`.
    start: u32,
    end: u32,
}

impl Eta {
    /// `z ← E⁻¹ z` (FTRAN direction).
    fn apply_ftran(&self, nz: &[(u32, f64)], z: &mut [f64]) {
        let zr = z[self.r as usize] / self.wr;
        z[self.r as usize] = zr;
        if zr != 0.0 {
            for &(i, w) in &nz[self.start as usize..self.end as usize] {
                z[i as usize] -= w * zr;
            }
        }
    }

    /// `c ← E⁻ᵀ c` (BTRAN direction).
    fn apply_btran(&self, nz: &[(u32, f64)], c: &mut [f64]) {
        let mut acc = c[self.r as usize];
        for &(i, w) in &nz[self.start as usize..self.end as usize] {
            acc -= w * c[i as usize];
        }
        c[self.r as usize] = acc / self.wr;
    }
}

/// One peeled pivot of the triangularized basis.
#[derive(Debug, Clone, Copy)]
struct Pivot {
    /// Row of the basis matrix.
    row: u32,
    /// Basis position (column of the basis matrix).
    pos: u32,
    /// Pivot element value.
    val: f64,
    /// `true` for a row-singleton pivot, `false` for a column-singleton.
    row_kind: bool,
}

/// Triangularized basis factorization: singleton-peeled pivots plus a
/// dense LU of the leftover bump.
///
/// Correctness of the substitution orders rests on two peel facts: a
/// row-singleton pivot's row only references columns peeled earlier *by
/// row-singleton pivots* (a column peeled as a column singleton had no
/// entry in any then-active row), and symmetrically a column-singleton
/// pivot's column only references rows peeled earlier by column-singleton
/// pivots. Bump rows therefore reference only row-peeled columns, and
/// bump columns only column-peeled rows.
#[derive(Debug, Default)]
struct Factor {
    m: usize,
    // Basis matrix, both orientations; column `p` is the basis position.
    col_off: Vec<u32>,
    col_row: Vec<u32>,
    col_val: Vec<f64>,
    row_off: Vec<u32>,
    row_pos: Vec<u32>,
    row_val: Vec<f64>,
    /// Peeled pivots in peel order.
    pivots: Vec<Pivot>,
    /// Bump rows/positions (k of each) and the dense column-major LU.
    bump_rows: Vec<u32>,
    bump_pos: Vec<u32>,
    row_to_bump: Vec<u32>,
    bump_lu: Vec<f64>,
    bump_swaps: Vec<u32>,
    bump_work: Vec<f64>,
    // Peeling workspace.
    row_cnt: Vec<u32>,
    col_cnt: Vec<u32>,
    row_done: Vec<bool>,
    col_done: Vec<bool>,
    worklist: Vec<u32>,
}

impl Factor {
    /// Rebuilds the factorization from the current basis columns:
    /// structural columns come from the problem's CSC view; slack and
    /// artificial columns are unit columns in their row.
    fn refactorize(
        &mut self,
        view: &SparseView,
        n_struct: usize,
        basis: &[u32],
    ) -> Result<(), Breakdown> {
        let m = basis.len();
        self.m = m;
        self.col_off.clear();
        self.col_row.clear();
        self.col_val.clear();
        self.col_off.push(0);
        for &j in basis {
            let j = j as usize;
            if j < n_struct {
                let (s, e) = (view.col_off[j] as usize, view.col_off[j + 1] as usize);
                for k in s..e {
                    self.col_row.push(view.col_row[k]);
                    self.col_val.push(view.col_val[k]);
                }
            } else {
                let row = (j - n_struct) % m;
                self.col_row.push(row as u32);
                self.col_val.push(1.0);
            }
            self.col_off.push(self.col_row.len() as u32);
        }
        let nnz = self.col_row.len();

        // Row-major mirror (counting transpose).
        self.row_off.clear();
        self.row_off.resize(m + 1, 0);
        for &r in &self.col_row {
            self.row_off[r as usize + 1] += 1;
        }
        for i in 0..m {
            self.row_off[i + 1] += self.row_off[i];
        }
        self.row_pos.clear();
        self.row_pos.resize(nnz, 0);
        self.row_val.clear();
        self.row_val.resize(nnz, 0.0);
        let mut cursor: Vec<u32> = self.row_off[..m].to_vec();
        for p in 0..m {
            let (s, e) = (self.col_off[p] as usize, self.col_off[p + 1] as usize);
            for k in s..e {
                let r = self.col_row[k] as usize;
                let at = cursor[r] as usize;
                self.row_pos[at] = p as u32;
                self.row_val[at] = self.col_val[k];
                cursor[r] += 1;
            }
        }

        // ---- Singleton peeling. ----
        self.row_cnt.clear();
        self.row_cnt.resize(m, 0);
        self.col_cnt.clear();
        self.col_cnt.resize(m, 0);
        self.row_done.clear();
        self.row_done.resize(m, false);
        self.col_done.clear();
        self.col_done.resize(m, false);
        self.pivots.clear();
        for i in 0..m {
            self.row_cnt[i] = self.row_off[i + 1] - self.row_off[i];
        }
        for p in 0..m {
            self.col_cnt[p] = self.col_off[p + 1] - self.col_off[p];
            if self.col_cnt[p] == 0 {
                return Err(Breakdown::Numerical); // structurally singular
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            // Column singletons.
            self.worklist.clear();
            for p in 0..m {
                if !self.col_done[p] && self.col_cnt[p] == 1 {
                    self.worklist.push(p as u32);
                }
            }
            while let Some(p) = self.worklist.pop() {
                let p = p as usize;
                if self.col_done[p] || self.col_cnt[p] != 1 {
                    continue;
                }
                let (s, e) = (self.col_off[p] as usize, self.col_off[p + 1] as usize);
                let Some(k) = (s..e).find(|&k| !self.row_done[self.col_row[k] as usize]) else {
                    return Err(Breakdown::Numerical);
                };
                let r = self.col_row[k] as usize;
                let val = self.col_val[k];
                if val.abs() < F64_PIVOT_TOL {
                    return Err(Breakdown::Numerical);
                }
                self.pivots.push(Pivot {
                    row: r as u32,
                    pos: p as u32,
                    val,
                    row_kind: false,
                });
                self.col_done[p] = true;
                self.row_done[r] = true;
                changed = true;
                let (rs, re) = (self.row_off[r] as usize, self.row_off[r + 1] as usize);
                for k in rs..re {
                    let p2 = self.row_pos[k] as usize;
                    if !self.col_done[p2] {
                        self.col_cnt[p2] -= 1;
                        if self.col_cnt[p2] == 1 {
                            self.worklist.push(p2 as u32);
                        }
                    }
                }
            }
            // Row singletons.
            self.worklist.clear();
            for i in 0..m {
                if !self.row_done[i] && self.row_cnt[i] == 1 {
                    self.worklist.push(i as u32);
                }
            }
            while let Some(r) = self.worklist.pop() {
                let r = r as usize;
                if self.row_done[r] || self.row_cnt[r] != 1 {
                    continue;
                }
                let (s, e) = (self.row_off[r] as usize, self.row_off[r + 1] as usize);
                let Some(k) = (s..e).find(|&k| !self.col_done[self.row_pos[k] as usize]) else {
                    return Err(Breakdown::Numerical);
                };
                let p = self.row_pos[k] as usize;
                let val = self.row_val[k];
                if val.abs() < F64_PIVOT_TOL {
                    return Err(Breakdown::Numerical);
                }
                self.pivots.push(Pivot {
                    row: r as u32,
                    pos: p as u32,
                    val,
                    row_kind: true,
                });
                self.row_done[r] = true;
                self.col_done[p] = true;
                changed = true;
                let (cs, ce) = (self.col_off[p] as usize, self.col_off[p + 1] as usize);
                for k in cs..ce {
                    let r2 = self.col_row[k] as usize;
                    if !self.row_done[r2] {
                        self.row_cnt[r2] -= 1;
                        if self.row_cnt[r2] == 1 {
                            self.worklist.push(r2 as u32);
                        }
                    }
                }
            }
        }

        // ---- Dense bump LU (partial pivoting). ----
        self.bump_rows.clear();
        self.bump_pos.clear();
        self.row_to_bump.clear();
        self.row_to_bump.resize(m, NONE);
        for i in 0..m {
            if !self.row_done[i] {
                self.row_to_bump[i] = self.bump_rows.len() as u32;
                self.bump_rows.push(i as u32);
            }
        }
        for p in 0..m {
            if !self.col_done[p] {
                self.bump_pos.push(p as u32);
            }
        }
        let k = self.bump_rows.len();
        if k != self.bump_pos.len() {
            return Err(Breakdown::Numerical);
        }
        self.bump_lu.clear();
        self.bump_lu.resize(k * k, 0.0);
        self.bump_swaps.clear();
        self.bump_work.clear();
        self.bump_work.resize(k, 0.0);
        for (bj, &p) in self.bump_pos.iter().enumerate() {
            let p = p as usize;
            let (s, e) = (self.col_off[p] as usize, self.col_off[p + 1] as usize);
            for kk in s..e {
                let bi = self.row_to_bump[self.col_row[kk] as usize];
                if bi != NONE {
                    self.bump_lu[bj * k + bi as usize] = self.col_val[kk];
                }
            }
        }
        for c in 0..k {
            let mut best = c;
            let mut best_abs = self.bump_lu[c * k + c].abs();
            for r in c + 1..k {
                let a = self.bump_lu[c * k + r].abs();
                if a > best_abs {
                    best = r;
                    best_abs = a;
                }
            }
            if best_abs < F64_PIVOT_TOL {
                return Err(Breakdown::Numerical);
            }
            self.bump_swaps.push(best as u32);
            if best != c {
                for j in 0..k {
                    self.bump_lu.swap(j * k + c, j * k + best);
                }
            }
            let piv = self.bump_lu[c * k + c];
            for r in c + 1..k {
                let l = self.bump_lu[c * k + r] / piv;
                self.bump_lu[c * k + r] = l;
                if l != 0.0 {
                    for j in c + 1..k {
                        let u = self.bump_lu[j * k + c];
                        if u != 0.0 {
                            self.bump_lu[j * k + r] -= l * u;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Solves `B z = r`: `r` is indexed by row and consumed as a
    /// residual; `z` is written indexed by basis position.
    fn ftran(&mut self, r: &mut [f64], z: &mut [f64]) {
        let k = self.bump_rows.len();
        z[..self.m].fill(0.0);
        // Row-singleton pivots, forward peel order.
        for idx in 0..self.pivots.len() {
            let piv = self.pivots[idx];
            if !piv.row_kind {
                continue;
            }
            let zp = r[piv.row as usize] / piv.val;
            z[piv.pos as usize] = zp;
            if zp != 0.0 {
                self.sweep_col(piv.pos as usize, zp, r);
            }
        }
        // Bump.
        if k > 0 {
            for (bi, &row) in self.bump_rows.iter().enumerate() {
                self.bump_work[bi] = r[row as usize];
            }
            self.bump_solve();
            for bi in 0..k {
                let pos = self.bump_pos[bi] as usize;
                let zp = self.bump_work[bi];
                z[pos] = zp;
                if zp != 0.0 {
                    self.sweep_col(pos, zp, r);
                }
            }
        }
        // Column-singleton pivots, reverse peel order.
        for idx in (0..self.pivots.len()).rev() {
            let piv = self.pivots[idx];
            if piv.row_kind {
                continue;
            }
            let zp = r[piv.row as usize] / piv.val;
            z[piv.pos as usize] = zp;
            if zp != 0.0 {
                self.sweep_col(piv.pos as usize, zp, r);
            }
        }
    }

    /// Solves `Bᵀ y = c`: `c` is indexed by basis position and consumed
    /// as a residual; `y` is written indexed by row.
    fn btran(&mut self, c: &mut [f64], y: &mut [f64]) {
        let k = self.bump_rows.len();
        y[..self.m].fill(0.0);
        // Column-singleton pivots, forward peel order.
        for idx in 0..self.pivots.len() {
            let piv = self.pivots[idx];
            if piv.row_kind {
                continue;
            }
            let yr = c[piv.pos as usize] / piv.val;
            y[piv.row as usize] = yr;
            if yr != 0.0 {
                self.sweep_row(piv.row as usize, yr, c);
            }
        }
        // Bump transpose.
        if k > 0 {
            for (bj, &pos) in self.bump_pos.iter().enumerate() {
                self.bump_work[bj] = c[pos as usize];
            }
            self.bump_solve_transposed();
            for bi in 0..k {
                let row = self.bump_rows[bi] as usize;
                let yr = self.bump_work[bi];
                y[row] = yr;
                if yr != 0.0 {
                    self.sweep_row(row, yr, c);
                }
            }
        }
        // Row-singleton pivots, reverse peel order.
        for idx in (0..self.pivots.len()).rev() {
            let piv = self.pivots[idx];
            if !piv.row_kind {
                continue;
            }
            let yr = c[piv.pos as usize] / piv.val;
            y[piv.row as usize] = yr;
            if yr != 0.0 {
                self.sweep_row(piv.row as usize, yr, c);
            }
        }
    }

    /// `r ← r - z_p · (basis column p)`.
    fn sweep_col(&self, p: usize, zp: f64, r: &mut [f64]) {
        let (s, e) = (self.col_off[p] as usize, self.col_off[p + 1] as usize);
        for k in s..e {
            r[self.col_row[k] as usize] -= self.col_val[k] * zp;
        }
    }

    /// `c ← c - y_r · (basis row r)`.
    fn sweep_row(&self, row: usize, yr: f64, c: &mut [f64]) {
        let (s, e) = (self.row_off[row] as usize, self.row_off[row + 1] as usize);
        for k in s..e {
            c[self.row_pos[k] as usize] -= self.row_val[k] * yr;
        }
    }

    /// In-place dense solve of `bump · x = bump_work` via the stored LU
    /// (`P·bump = L·U`: apply all row swaps first — the stored `L` is the
    /// fully permuted factor — then the triangular solves).
    fn bump_solve(&mut self) {
        let k = self.bump_rows.len();
        for c in 0..k {
            let sw = self.bump_swaps[c] as usize;
            if sw != c {
                self.bump_work.swap(c, sw);
            }
        }
        for c in 0..k {
            let bc = self.bump_work[c];
            if bc != 0.0 {
                for r in c + 1..k {
                    self.bump_work[r] -= self.bump_lu[c * k + r] * bc;
                }
            }
        }
        for c in (0..k).rev() {
            let mut acc = self.bump_work[c];
            for j in c + 1..k {
                acc -= self.bump_lu[j * k + c] * self.bump_work[j];
            }
            self.bump_work[c] = acc / self.bump_lu[c * k + c];
        }
    }

    /// In-place dense solve of `bumpᵀ · y = bump_work`
    /// (`Uᵀ w = c`, `Lᵀ v = w`, then the row swaps undone in reverse).
    fn bump_solve_transposed(&mut self) {
        let k = self.bump_rows.len();
        for c in 0..k {
            let mut acc = self.bump_work[c];
            for j in 0..c {
                acc -= self.bump_lu[c * k + j] * self.bump_work[j];
            }
            self.bump_work[c] = acc / self.bump_lu[c * k + c];
        }
        for c in (0..k).rev() {
            let mut acc = self.bump_work[c];
            for r in c + 1..k {
                acc -= self.bump_lu[c * k + r] * self.bump_work[r];
            }
            self.bump_work[c] = acc;
        }
        for c in (0..k).rev() {
            let sw = self.bump_swaps[c] as usize;
            if sw != c {
                self.bump_work.swap(c, sw);
            }
        }
    }
}

/// Preallocated workspace of the sparse revised simplex: basis factors,
/// eta file, pricing vectors and bound arrays.
///
/// One scratch serves problems of any size (arrays are resized per load)
/// and is what `wsp_core::Pipeline` owns and `wsp-explore` keeps one of
/// per worker. It holds allocation capacity only: every solve rewrites
/// each array before reading it, so reusing a scratch never changes a
/// result.
#[derive(Debug, Default)]
pub struct LpScratch {
    // Standardized problem (rebuilt per load). Columns: structural
    // `0..n_struct`, slack `n_struct + i` (coefficient +1 in row i), and
    // artificial `n_struct + m + i` (also +1 in row i, fixed at zero
    // outside phase 1).
    m: usize,
    n_struct: usize,
    n: usize,
    lo: Vec<f64>,
    up: Vec<f64>,
    cost: Vec<f64>,
    x: Vec<f64>,
    d: Vec<f64>,
    status: Vec<Status>,
    basis: Vec<u32>,
    /// Per-row phase-1 artificial sign (0 = not widened).
    art_sign: Vec<i8>,
    // Factorization + eta file (flat nonzero arena, see [`Eta`]).
    fact: Factor,
    etas: Vec<Eta>,
    eta_nz: Vec<(u32, f64)>,
    // Work vectors.
    work_row: Vec<f64>,
    work_pos: Vec<f64>,
    y: Vec<f64>,
    w: Vec<f64>,
    alpha: Vec<f64>,
}

impl LpScratch {
    /// A fresh scratch; arrays grow on first use.
    pub fn new() -> Self {
        LpScratch::default()
    }

    /// Loads the standardized bounds/cost layout for `problem` under
    /// `bounds`. Returns `false` on a contradictory override pair
    /// (immediately infeasible).
    fn load(&mut self, problem: &Problem, bounds: &BoundOverrides, view: &SparseView) -> bool {
        let m = view.relation.len();
        let n_struct = problem.var_count();
        let n = n_struct + 2 * m;
        self.m = m;
        self.n_struct = n_struct;
        self.n = n;
        self.lo.clear();
        self.lo.resize(n, 0.0);
        self.up.clear();
        self.up.resize(n, INF);
        self.cost.clear();
        self.cost.resize(n, 0.0);
        self.x.clear();
        self.x.resize(n, 0.0);
        self.d.clear();
        self.d.resize(n, 0.0);
        self.status.clear();
        self.status.resize(n, Status::AtLower);
        self.art_sign.clear();
        self.art_sign.resize(m, 0);
        self.work_row.clear();
        self.work_row.resize(m, 0.0);
        self.work_pos.clear();
        self.work_pos.resize(m, 0.0);
        self.y.clear();
        self.y.resize(m, 0.0);
        self.w.clear();
        self.w.resize(m, 0.0);
        self.alpha.clear();
        self.alpha.resize(n, 0.0);
        self.etas.clear();
        self.eta_nz.clear();

        for (j, info) in problem.vars().iter().enumerate() {
            let var = VarId(j as u32);
            let (lb, ub) = bounds.effective(var, info.upper);
            let lo = lb.to_f64();
            let up = ub.map_or(INF, |u| u.to_f64());
            if lo > up + F64_FEAS_TOL {
                return false;
            }
            self.lo[j] = lo;
            self.up[j] = up.max(lo);
        }
        for i in 0..m {
            let s = n_struct + i;
            match view.relation[i] {
                Relation::Le => {
                    self.lo[s] = 0.0;
                    self.up[s] = INF;
                }
                Relation::Ge => {
                    self.lo[s] = -INF;
                    self.up[s] = 0.0;
                }
                Relation::Eq => {
                    self.lo[s] = 0.0;
                    self.up[s] = 0.0;
                }
            }
            // Artificials are fixed at zero unless phase 1 widens them.
            let a = n_struct + m + i;
            self.lo[a] = 0.0;
            self.up[a] = 0.0;
        }
        true
    }

    /// Sets the phase-2 cost vector (sense-normalized to minimization).
    fn load_phase2_cost(&mut self, problem: &Problem) {
        let flip = matches!(problem.sense(), Sense::Maximize);
        self.cost[..self.n].fill(0.0);
        for (v, q) in problem.objective().terms() {
            let c = q.to_f64();
            self.cost[v.index()] = if flip { -c } else { c };
        }
    }

    /// Rebuilds the factorization of the current basis and recomputes the
    /// basic values from the nonbasic ones (drift control).
    fn refactorize_and_recompute(&mut self, view: &SparseView) -> Result<(), Breakdown> {
        self.fact.refactorize(view, self.n_struct, &self.basis)?;
        self.etas.clear();
        self.eta_nz.clear();
        // Residual: rhs - Σ (nonbasic columns at their values).
        self.work_row[..self.m].copy_from_slice(&view.rhs);
        for j in 0..self.n {
            if self.status[j] == Status::Basic {
                continue;
            }
            let xj = self.x[j];
            if xj != 0.0 {
                if j < self.n_struct {
                    let (s, e) = (view.col_off[j] as usize, view.col_off[j + 1] as usize);
                    for k in s..e {
                        self.work_row[view.col_row[k] as usize] -= view.col_val[k] * xj;
                    }
                } else {
                    let row = (j - self.n_struct) % self.m;
                    self.work_row[row] -= xj;
                }
            }
        }
        let LpScratch {
            fact,
            work_row,
            work_pos,
            ..
        } = self;
        fact.ftran(work_row, work_pos);
        for (p, &j) in self.basis.iter().enumerate() {
            self.x[j as usize] = self.work_pos[p];
        }
        Ok(())
    }

    /// `self.w ← B⁻¹ a_j`.
    fn ftran_col(&mut self, view: &SparseView, j: usize) {
        self.work_row[..self.m].fill(0.0);
        if j < self.n_struct {
            let (s, e) = (view.col_off[j] as usize, view.col_off[j + 1] as usize);
            for k in s..e {
                self.work_row[view.col_row[k] as usize] = view.col_val[k];
            }
        } else {
            self.work_row[(j - self.n_struct) % self.m] = 1.0;
        }
        let LpScratch {
            fact,
            work_row,
            w,
            etas,
            eta_nz,
            ..
        } = self;
        fact.ftran(work_row, w);
        for eta in etas.iter() {
            eta.apply_ftran(eta_nz, w);
        }
    }

    /// `self.y ← B⁻ᵀ c_B` with the current cost vector.
    fn btran_costs(&mut self) {
        for (p, &j) in self.basis.iter().enumerate() {
            self.work_pos[p] = self.cost[j as usize];
        }
        let LpScratch {
            fact,
            work_pos,
            y,
            etas,
            eta_nz,
            ..
        } = self;
        for eta in etas.iter().rev() {
            eta.apply_btran(eta_nz, work_pos);
        }
        fact.btran(work_pos, y);
    }

    /// `self.y ← B⁻ᵀ e_r` (row `r` of the basis inverse).
    fn btran_unit(&mut self, r: usize) {
        self.work_pos[..self.m].fill(0.0);
        self.work_pos[r] = 1.0;
        let LpScratch {
            fact,
            work_pos,
            y,
            etas,
            eta_nz,
            ..
        } = self;
        for eta in etas.iter().rev() {
            eta.apply_btran(eta_nz, work_pos);
        }
        fact.btran(work_pos, y);
    }

    /// `self.d ← cost - yᵀA` over every column: one CSR sweep plus the
    /// unit slack/artificial columns — O(nnz).
    fn price_costs(&mut self, view: &SparseView) {
        let (n, m, n_struct) = (self.n, self.m, self.n_struct);
        let LpScratch { d, cost, y, .. } = self;
        d[..n].copy_from_slice(&cost[..n]);
        for (i, &yi) in y[..m].iter().enumerate() {
            if yi == 0.0 {
                continue;
            }
            let (s, e) = (view.row_off[i] as usize, view.row_off[i + 1] as usize);
            for k in s..e {
                d[view.row_col[k] as usize] -= yi * view.row_val[k];
            }
            d[n_struct + i] -= yi;
            d[n_struct + m + i] -= yi;
        }
    }

    /// `self.alpha ← yᵀA` over every column (the pivot row, when `y` is
    /// `B⁻ᵀ e_r`).
    fn price_row(&mut self, view: &SparseView) {
        let (n, m, n_struct) = (self.n, self.m, self.n_struct);
        let LpScratch { alpha, y, .. } = self;
        alpha[..n].fill(0.0);
        for (i, &yi) in y[..m].iter().enumerate() {
            if yi == 0.0 {
                continue;
            }
            let (s, e) = (view.row_off[i] as usize, view.row_off[i + 1] as usize);
            for k in s..e {
                alpha[view.row_col[k] as usize] += yi * view.row_val[k];
            }
            alpha[n_struct + i] += yi;
            alpha[n_struct + m + i] += yi;
        }
    }

    /// Absorbs a basis change at position `r` through the eta file,
    /// refactorizing on schedule. `self.w` must hold the FTRAN'd entering
    /// column.
    fn push_eta(&mut self, view: &SparseView, r: usize) -> Result<(), Breakdown> {
        let wr = self.w[r];
        if wr.abs() < F64_PIVOT_TOL {
            return Err(Breakdown::Numerical);
        }
        let start = self.eta_nz.len() as u32;
        for (p, &wv) in self.w[..self.m].iter().enumerate() {
            if p != r && wv != 0.0 {
                self.eta_nz.push((p as u32, wv));
            }
        }
        self.etas.push(Eta {
            r: r as u32,
            wr,
            start,
            end: self.eta_nz.len() as u32,
        });
        if self.etas.len() >= REFACTOR_EVERY {
            self.refactorize_and_recompute(view)?;
        }
        Ok(())
    }

    /// Bounded-variable primal simplex on the current cost vector.
    /// Requires a primal-feasible basis; ends at optimality or detects
    /// unboundedness.
    fn primal(&mut self, view: &SparseView) -> Result<PrimalEnd, Breakdown> {
        let mut stalls = 0usize;
        for _ in 0..MAX_ITERATIONS {
            let bland = stalls >= BLAND_AFTER_STALLS;
            self.btran_costs();
            self.price_costs(view);

            // Entering: most negative effective reduced cost (Dantzig),
            // or the first eligible candidate under Bland's rule.
            let mut entering: Option<(usize, f64)> = None;
            for j in 0..self.n {
                if self.status[j] == Status::Basic || self.lo[j] >= self.up[j] {
                    continue;
                }
                let dj = self.d[j];
                let eligible = match self.status[j] {
                    Status::AtLower => dj < -DUAL_TOL,
                    Status::AtUpper => dj > DUAL_TOL,
                    Status::Basic => false,
                };
                if !eligible {
                    continue;
                }
                if bland {
                    entering = Some((j, dj));
                    break;
                }
                match entering {
                    Some((_, best)) if dj.abs() <= best.abs() => {}
                    _ => entering = Some((j, dj)),
                }
            }
            let Some((q, _)) = entering else {
                return Ok(PrimalEnd::Optimal);
            };
            let s = if self.status[q] == Status::AtLower {
                1.0
            } else {
                -1.0
            };
            self.ftran_col(view, q);

            // Ratio test over the basics.
            let mut t_basic = INF;
            let mut leave: Option<(usize, bool)> = None;
            for p in 0..self.m {
                let wp = s * self.w[p];
                let j = self.basis[p] as usize;
                let (limit, at_upper) = if wp > F64_PIVOT_TOL {
                    if self.lo[j] == -INF {
                        continue;
                    }
                    (((self.x[j] - self.lo[j]) / wp).max(0.0), false)
                } else if wp < -F64_PIVOT_TOL {
                    if self.up[j] == INF {
                        continue;
                    }
                    (((self.x[j] - self.up[j]) / wp).max(0.0), true)
                } else {
                    continue;
                };
                let better = match leave {
                    None => true,
                    Some((lp, _)) => {
                        if limit < t_basic - F64_TOL {
                            true
                        } else if limit <= t_basic + F64_TOL {
                            // Ties: prefer the numerically safer (larger)
                            // pivot magnitude; Bland mode falls back to
                            // the smallest basic index for anti-cycling.
                            if bland {
                                self.basis[p] < self.basis[lp]
                            } else {
                                self.w[p].abs() > self.w[lp].abs()
                            }
                        } else {
                            false
                        }
                    }
                };
                if better {
                    t_basic = t_basic.min(limit);
                    leave = Some((p, at_upper));
                }
            }

            let span = self.up[q] - self.lo[q];
            if span <= t_basic {
                if span == INF {
                    return Ok(PrimalEnd::Unbounded);
                }
                // Bound flip: the entering variable runs to its other
                // bound; the basis is unchanged.
                self.x[q] += s * span;
                for (p, &j) in self.basis.iter().enumerate() {
                    self.x[j as usize] -= s * span * self.w[p];
                }
                self.status[q] = if s > 0.0 {
                    Status::AtUpper
                } else {
                    Status::AtLower
                };
                if span <= F64_TOL {
                    stalls += 1;
                } else {
                    stalls = 0;
                }
                continue;
            }
            let (r, at_upper) = leave.expect("t_basic finite implies a leaving candidate");
            let t = t_basic;
            self.x[q] += s * t;
            for (p, &j) in self.basis.iter().enumerate() {
                self.x[j as usize] -= s * t * self.w[p];
            }
            let leaving = self.basis[r] as usize;
            self.x[leaving] = if at_upper {
                self.up[leaving]
            } else {
                self.lo[leaving]
            };
            self.status[leaving] = if at_upper {
                Status::AtUpper
            } else {
                Status::AtLower
            };
            self.status[q] = Status::Basic;
            self.basis[r] = q as u32;
            self.push_eta(view, r)?;
            if t <= F64_TOL {
                stalls += 1;
            } else {
                stalls = 0;
            }
        }
        Err(Breakdown::IterationLimit)
    }

    /// Bounded-variable dual simplex: starting from a dual-feasible
    /// basis, repairs primal feasibility after bound changes (the warm
    /// start). Returns `Infeasible` when a violated basic admits no
    /// entering column — the dual ray proving primal infeasibility.
    fn dual(&mut self, view: &SparseView) -> Result<DualEnd, Breakdown> {
        let mut stalls = 0usize;
        for _ in 0..MAX_ITERATIONS {
            let bland = stalls >= BLAND_AFTER_STALLS;
            // Leaving: the basic variable with the largest bound violation.
            let mut leave: Option<(usize, f64, bool)> = None;
            for (p, &j) in self.basis.iter().enumerate() {
                let j = j as usize;
                let below = self.lo[j] - self.x[j];
                let above = self.x[j] - self.up[j];
                let (viol, at_upper) = if below >= above {
                    (below, false)
                } else {
                    (above, true)
                };
                if viol > F64_FEAS_TOL {
                    match leave {
                        Some((_, best, _)) if best >= viol => {}
                        _ => leave = Some((p, viol, at_upper)),
                    }
                }
            }
            let Some((r, _, leaves_at_upper)) = leave else {
                return Ok(DualEnd::PrimalFeasible);
            };

            // Pivot row alpha = (B⁻ᵀ e_r)ᵀ A and fresh reduced costs.
            self.btran_unit(r);
            self.price_row(view);
            self.btran_costs();
            self.price_costs(view);

            // The leaving basic moves to its violated bound; an entering
            // step t (≥ 0 from lower, ≤ 0 from upper) changes xB_r by
            // -t·alpha. Eligibility = the movement direction that heals
            // the violation; the dual ratio |d/alpha| keeps the reduced
            // costs sign-consistent.
            let need_increase = !leaves_at_upper;
            let mut entering: Option<(usize, f64)> = None;
            for j in 0..self.n {
                if self.status[j] == Status::Basic || self.lo[j] >= self.up[j] {
                    continue;
                }
                let a = self.alpha[j];
                if a.abs() <= F64_PIVOT_TOL {
                    continue;
                }
                let from_lower = self.status[j] == Status::AtLower;
                let raises = if from_lower { a < 0.0 } else { a > 0.0 };
                if raises != need_increase {
                    continue;
                }
                let ratio = (self.d[j] / a).abs();
                let better = match entering {
                    None => true,
                    Some((bj, best)) => {
                        if ratio < best - F64_TOL {
                            true
                        } else if ratio <= best + F64_TOL {
                            if bland {
                                j < bj
                            } else {
                                a.abs() > self.alpha[bj].abs()
                            }
                        } else {
                            false
                        }
                    }
                };
                if better {
                    // Track the smallest ratio seen as the comparison
                    // base so tolerance-band ties chain off the true
                    // minimum, not the last accepted candidate.
                    let base = entering.map_or(ratio, |(_, b)| b.min(ratio));
                    entering = Some((j, base));
                }
            }
            let Some((q, _)) = entering else {
                return Ok(DualEnd::Infeasible);
            };

            self.ftran_col(view, q);
            let wr = self.w[r];
            if wr.abs() < F64_PIVOT_TOL {
                return Err(Breakdown::Numerical);
            }
            let jl = self.basis[r] as usize;
            let target = if leaves_at_upper {
                self.up[jl]
            } else {
                self.lo[jl]
            };
            // xB_r - t·w_r = target → signed entering step t.
            let t = (self.x[jl] - target) / wr;
            self.x[q] += t;
            for (p, &j) in self.basis.iter().enumerate() {
                if p != r {
                    self.x[j as usize] -= t * self.w[p];
                }
            }
            self.x[jl] = target;
            self.status[jl] = if leaves_at_upper {
                Status::AtUpper
            } else {
                Status::AtLower
            };
            self.status[q] = Status::Basic;
            self.basis[r] = q as u32;
            self.push_eta(view, r)?;
            if t.abs() <= F64_TOL {
                stalls += 1;
            } else {
                stalls = 0;
            }
        }
        Err(Breakdown::IterationLimit)
    }
}

enum PrimalEnd {
    Optimal,
    Unbounded,
}

enum DualEnd {
    PrimalFeasible,
    Infeasible,
}

/// Solves the LP relaxation of `problem` with the sparse revised simplex:
/// a dual-simplex repair of `warm` when given (a converged basis of the
/// same problem under other bound overrides, as branch-and-bound children
/// pass), a cold two-phase solve otherwise. Returns the outcome plus the
/// converged basis when one exists.
///
/// Falls back to the dense `f64` tableau on numerical breakdown (the
/// fallback returns no warm basis).
pub(crate) fn solve_f64(
    problem: &Problem,
    bounds: &BoundOverrides,
    scratch: &mut LpScratch,
    warm: Option<&WarmBasis>,
) -> Result<(LpOutcome<f64>, Option<WarmBasis>), LpError> {
    match solve_sparse(problem, bounds, scratch, warm) {
        Ok(out) => Ok(out),
        Err(Breakdown::IterationLimit) => Err(LpError::IterationLimit {
            limit: MAX_ITERATIONS,
        }),
        Err(Breakdown::Numerical) => {
            crate::simplex::solve_dense::<f64>(problem, bounds).map(|o| (o, None))
        }
    }
}

fn solve_sparse(
    problem: &Problem,
    bounds: &BoundOverrides,
    scratch: &mut LpScratch,
    warm: Option<&WarmBasis>,
) -> Result<(LpOutcome<f64>, Option<WarmBasis>), Breakdown> {
    let view = problem.sparse_view();
    if !scratch.load(problem, bounds, view) {
        return Ok((LpOutcome::Infeasible, None));
    }

    if warm.is_some_and(|wb| install_warm(scratch, view, wb).is_ok()) {
        scratch.load_phase2_cost(problem);
        match scratch.dual(view)? {
            DualEnd::Infeasible => return Ok((LpOutcome::Infeasible, None)),
            DualEnd::PrimalFeasible => {}
        }
        match scratch.primal(view)? {
            PrimalEnd::Unbounded => return Ok((LpOutcome::Unbounded, None)),
            PrimalEnd::Optimal => {}
        }
    } else {
        cold_start(scratch, view)?;
        if scratch.art_sign.iter().any(|&sg| sg != 0) {
            // ---- Phase 1: minimize the total artificial infeasibility. ----
            scratch.cost[..scratch.n].fill(0.0);
            for i in 0..scratch.m {
                let sign = scratch.art_sign[i];
                if sign != 0 {
                    scratch.cost[scratch.n_struct + scratch.m + i] = sign as f64;
                }
            }
            match scratch.primal(view)? {
                PrimalEnd::Unbounded => {
                    debug_assert!(false, "phase-1 objective is bounded below by zero");
                    return Err(Breakdown::Numerical);
                }
                PrimalEnd::Optimal => {}
            }
            let p1: f64 = (0..scratch.m)
                .filter(|&i| scratch.art_sign[i] != 0)
                .map(|i| scratch.x[scratch.n_struct + scratch.m + i].abs())
                .sum();
            if p1 > F64_FEAS_TOL {
                return Ok((LpOutcome::Infeasible, None));
            }
            // Re-fix every widened artificial at zero.
            for i in 0..scratch.m {
                if scratch.art_sign[i] != 0 {
                    let a = scratch.n_struct + scratch.m + i;
                    scratch.lo[a] = 0.0;
                    scratch.up[a] = 0.0;
                    scratch.art_sign[i] = 0;
                }
            }
        }
        // ---- Phase 2. ----
        scratch.load_phase2_cost(problem);
        match scratch.primal(view)? {
            PrimalEnd::Unbounded => return Ok((LpOutcome::Unbounded, None)),
            PrimalEnd::Optimal => {}
        }
    }

    // Tighten the result with one final refactorization, then audit
    // feasibility (cheap O(nnz) insurance; a failure retreats to the
    // dense tableau).
    scratch.refactorize_and_recompute(view)?;
    if !verify_feasible(scratch, view) {
        return Err(Breakdown::Numerical);
    }

    let mut values = Vec::with_capacity(scratch.n_struct);
    for j in 0..scratch.n_struct {
        let mut v = scratch.x[j];
        if v.abs() <= F64_TOL {
            v = 0.0;
        }
        if scratch.up[j].is_finite() {
            v = v.clamp(scratch.lo[j], scratch.up[j]);
        } else {
            v = v.max(scratch.lo[j]);
        }
        values.push(v);
    }
    let flip = matches!(problem.sense(), Sense::Maximize);
    let mut minimized = 0.0f64;
    for (v, q) in problem.objective().terms() {
        let c = q.to_f64();
        minimized += (if flip { -c } else { c }) * values[v.index()];
    }
    let objective = if flip { -minimized } else { minimized };

    let basis = WarmBasis {
        status: scratch.status[..scratch.n].to_vec(),
        basis: scratch.basis.clone(),
    };
    Ok((
        LpOutcome::Optimal(LpSolution { values, objective }),
        Some(basis),
    ))
}

/// All-slack cold start: nonbasic structurals at their lower bounds, each
/// row's slack basic when the residual fits its bounds, and a widened
/// artificial otherwise.
fn cold_start(scratch: &mut LpScratch, view: &SparseView) -> Result<(), Breakdown> {
    let (m, n_struct) = (scratch.m, scratch.n_struct);
    for j in 0..scratch.n {
        if scratch.lo[j] == -INF {
            scratch.status[j] = Status::AtUpper;
            scratch.x[j] = scratch.up[j];
        } else {
            scratch.status[j] = Status::AtLower;
            scratch.x[j] = scratch.lo[j];
        }
    }
    // Row residuals with the structurals at their bounds.
    scratch.work_row[..m].copy_from_slice(&view.rhs);
    for j in 0..n_struct {
        let xj = scratch.x[j];
        if xj != 0.0 {
            let (s, e) = (view.col_off[j] as usize, view.col_off[j + 1] as usize);
            for k in s..e {
                scratch.work_row[view.col_row[k] as usize] -= view.col_val[k] * xj;
            }
        }
    }
    scratch.basis.clear();
    for i in 0..m {
        let r = scratch.work_row[i];
        let slack = n_struct + i;
        let art = n_struct + m + i;
        // Reset any artificial widening from a previous phase 1.
        scratch.lo[art] = 0.0;
        scratch.up[art] = 0.0;
        scratch.art_sign[i] = 0;
        let fits = r >= scratch.lo[slack] - F64_FEAS_TOL && r <= scratch.up[slack] + F64_FEAS_TOL;
        if fits {
            scratch.basis.push(slack as u32);
            scratch.status[slack] = Status::Basic;
            scratch.x[slack] = r;
        } else {
            // Slack pinned at zero (the finite bound of every slack
            // layout); the artificial absorbs the residual.
            scratch.status[slack] = if scratch.up[slack] == 0.0 {
                Status::AtUpper
            } else {
                Status::AtLower
            };
            scratch.x[slack] = 0.0;
            scratch.basis.push(art as u32);
            scratch.status[art] = Status::Basic;
            scratch.x[art] = r;
            if r > 0.0 {
                scratch.up[art] = INF;
                scratch.art_sign[i] = 1;
            } else {
                scratch.lo[art] = -INF;
                scratch.art_sign[i] = -1;
            }
        }
    }
    scratch.refactorize_and_recompute(view)
}

/// Installs a warm basis: statuses from the snapshot, nonbasic values at
/// their (possibly changed) bounds, basic values recomputed through a
/// fresh factorization.
fn install_warm(
    scratch: &mut LpScratch,
    view: &SparseView,
    warm: &WarmBasis,
) -> Result<(), Breakdown> {
    if warm.status.len() != scratch.n || warm.basis.len() != scratch.m {
        return Err(Breakdown::Numerical);
    }
    scratch.status.copy_from_slice(&warm.status);
    scratch.basis.clear();
    scratch.basis.extend_from_slice(&warm.basis);
    for j in 0..scratch.n {
        match scratch.status[j] {
            Status::Basic => {}
            Status::AtLower => {
                scratch.x[j] = if scratch.lo[j] == -INF {
                    0.0
                } else {
                    scratch.lo[j]
                };
            }
            Status::AtUpper => {
                scratch.x[j] = if scratch.up[j] == INF {
                    0.0
                } else {
                    scratch.up[j]
                };
            }
        }
    }
    scratch.refactorize_and_recompute(view)
}

/// Cheap post-solve feasibility audit of the converged point.
fn verify_feasible(scratch: &LpScratch, view: &SparseView) -> bool {
    for j in 0..scratch.n {
        let scale = 1.0 + scratch.x[j].abs();
        if scratch.lo[j].is_finite() && scratch.x[j] < scratch.lo[j] - F64_FEAS_TOL * scale {
            return false;
        }
        if scratch.up[j].is_finite() && scratch.x[j] > scratch.up[j] + F64_FEAS_TOL * scale {
            return false;
        }
    }
    for i in 0..scratch.m {
        let (s, e) = (view.row_off[i] as usize, view.row_off[i + 1] as usize);
        let mut act = 0.0;
        let mut scale = 1.0 + view.rhs[i].abs();
        for k in s..e {
            let term = view.row_val[k] * scratch.x[view.row_col[k] as usize];
            act += term;
            scale += term.abs();
        }
        let tol = F64_FEAS_TOL * scale;
        let ok = match view.relation[i] {
            Relation::Le => act <= view.rhs[i] + tol,
            Relation::Ge => act >= view.rhs[i] - tol,
            Relation::Eq => (act - view.rhs[i]).abs() <= tol,
        };
        if !ok {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::LinExpr;
    use crate::Rational;

    fn r(n: i128) -> Rational {
        Rational::from(n)
    }

    /// Naive Gaussian-elimination determinant (column-major `m × m`).
    fn dense_determinant(a: &[f64], m: usize) -> f64 {
        let mut a = a.to_vec();
        let mut det = 1.0f64;
        for c in 0..m {
            let mut best = c;
            for r in c + 1..m {
                if a[c * m + r].abs() > a[c * m + best].abs() {
                    best = r;
                }
            }
            if a[c * m + best].abs() < 1e-12 {
                return 0.0;
            }
            if best != c {
                for j in 0..m {
                    a.swap(j * m + c, j * m + best);
                }
                det = -det;
            }
            let piv = a[c * m + c];
            det *= piv;
            for r in c + 1..m {
                let l = a[c * m + r] / piv;
                for j in c..m {
                    a[j * m + r] -= l * a[j * m + c];
                }
            }
        }
        det
    }

    /// Deterministic LCG for structured test matrices.
    pub(super) struct Lcg(pub(super) u64);
    impl Lcg {
        pub(super) fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
        pub(super) fn pick(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Factorization sanity: ftran/btran against naive dense arithmetic
    /// on random sparse nonsingular matrices.
    #[test]
    fn factorization_matches_dense_solves() {
        let mut rng = Lcg(42);
        for trial in 0..60 {
            let m = 3 + (trial % 10);
            // Permutation backbone (guaranteed nonsingular) plus noise.
            let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
            let mut perm: Vec<usize> = (0..m).collect();
            for i in (1..m).rev() {
                let j = rng.pick(i + 1);
                perm.swap(i, j);
            }
            for (p, col) in cols.iter_mut().enumerate() {
                col.push((perm[p], 1.0 + rng.pick(4) as f64));
            }
            for _ in 0..m {
                let p = rng.pick(m);
                let row = rng.pick(m);
                if !cols[p].iter().any(|&(rr, _)| rr == row) {
                    cols[p].push((row, 1.0 + rng.pick(3) as f64));
                }
            }
            // Pack as a Problem whose columns are all structural.
            let mut prob = Problem::new();
            let vars: Vec<_> = (0..m).map(|i| prob.add_var(format!("x{i}"))).collect();
            let mut rows: Vec<LinExpr> = vec![LinExpr::new(); m];
            for (pcol, col) in cols.iter().enumerate() {
                for &(row, val) in col {
                    rows[row].add_term(vars[pcol], Rational::new(val as i128, 1));
                }
            }
            for row in rows {
                prob.add_constraint(row, Relation::Eq, r(0), "r");
            }
            let view = prob.sparse_view();

            let mut dense = vec![0.0f64; m * m];
            for (pcol, col) in cols.iter().enumerate() {
                for &(row, val) in col {
                    dense[pcol * m + row] = val;
                }
            }
            // The random noise can cancel the permutation backbone; skip
            // genuinely singular draws (checked against a dense
            // elimination, so the skip never hides a factorization bug).
            if dense_determinant(&dense, m).abs() < 1e-6 {
                continue;
            }

            let mut fact = Factor::default();
            let basis: Vec<u32> = (0..m as u32).collect();
            fact.refactorize(view, m, &basis).expect("nonsingular");
            let rhs: Vec<f64> = (0..m).map(|_| rng.pick(9) as f64 - 4.0).collect();

            // B z = rhs.
            let mut rr = rhs.clone();
            let mut z = vec![0.0; m];
            fact.ftran(&mut rr, &mut z);
            for row in 0..m {
                let mut acc = 0.0;
                for pcol in 0..m {
                    acc += dense[pcol * m + row] * z[pcol];
                }
                assert!(
                    (acc - rhs[row]).abs() < 1e-8,
                    "trial {trial}: ftran row {row}: {acc} vs {} cols={cols:?} pivots={:?} bump={:?}",
                    rhs[row],
                    fact.pivots,
                    fact.bump_rows,
                );
            }

            // Bᵀ y = c.
            let c: Vec<f64> = (0..m).map(|_| rng.pick(9) as f64 - 4.0).collect();
            let mut cc = c.clone();
            let mut y = vec![0.0; m];
            fact.btran(&mut cc, &mut y);
            for pcol in 0..m {
                let mut acc = 0.0;
                for row in 0..m {
                    acc += dense[pcol * m + row] * y[row];
                }
                assert!(
                    (acc - c[pcol]).abs() < 1e-8,
                    "trial {trial}: btran col {pcol}: {acc} vs {}",
                    c[pcol]
                );
            }
        }
    }

    #[test]
    fn revised_solves_the_classic_fixture() {
        // max x + y s.t. x + 2y <= 4, 3x + y <= 6 -> 2.8 at (1.6, 1.2).
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
        let mut scratch = LpScratch::new();
        let (out, warm) = solve_f64(&p, &BoundOverrides::none(), &mut scratch, None).unwrap();
        match out {
            LpOutcome::Optimal(sol) => {
                assert!((sol.objective - 2.8).abs() < 1e-7, "{}", sol.objective);
                assert!((sol.values[0] - 1.6).abs() < 1e-7);
                assert!((sol.values[1] - 1.2).abs() < 1e-7);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
        assert!(warm.is_some());
    }

    #[test]
    fn warm_restart_after_bound_change_matches_cold() {
        // min x + y s.t. x + y >= 3 -> 3; then force x >= 2.5.
        let mut p = Problem::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let mut c = LinExpr::new();
        c.add_term(x, r(1)).add_term(y, r(1));
        p.add_constraint(c.clone(), Relation::Ge, r(3), "demand");
        p.minimize(c);
        let mut scratch = LpScratch::new();
        let (out, warm) = solve_f64(&p, &BoundOverrides::none(), &mut scratch, None).unwrap();
        let warm = warm.expect("optimal");
        assert!(matches!(out, LpOutcome::Optimal(_)));

        let mut tight = BoundOverrides::none();
        tight.tighten_lower(x, Rational::new(5, 2));
        let (warm_out, _) = solve_f64(&p, &tight, &mut scratch, Some(&warm)).unwrap();
        let (cold_out, _) = solve_f64(&p, &tight, &mut LpScratch::new(), None).unwrap();
        match (warm_out, cold_out) {
            (LpOutcome::Optimal(a), LpOutcome::Optimal(b)) => {
                assert!((a.objective - b.objective).abs() < 1e-7);
                assert!((a.objective - 3.0).abs() < 1e-7);
            }
            other => panic!("expected optimal pair, got {other:?}"),
        }
    }

    #[test]
    fn warm_restart_detects_infeasible_child() {
        // x <= 4 base; the child forces x >= 5.
        let mut p = Problem::new();
        let x = p.add_var("x");
        p.set_upper(x, r(4));
        p.minimize(LinExpr::var(x));
        let mut scratch = LpScratch::new();
        let (_, warm) = solve_f64(&p, &BoundOverrides::none(), &mut scratch, None).unwrap();
        let mut b = BoundOverrides::none();
        b.tighten_lower(x, r(5));
        let (out, _) = solve_f64(&p, &b, &mut scratch, warm.as_ref()).unwrap();
        assert_eq!(out, LpOutcome::Infeasible);
    }
}
