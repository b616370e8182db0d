"""Tiny interior-point SDP solver with a proven lower bound.

Solves min <C, Y> over symmetric Y with <A_i, Y> = b_i, Y PSD and Y >= 0
by an infeasible-start primal-dual interior-point method on the cone
PSD x nonnegative orthant: the HKM search direction (Helmberg, Rendl,
Vanderbei & Wolkowicz, SIAM J. Optim. 6, 1996) with a Mehrotra corrector.
Entrywise nonnegativity enters as one row Y_e - s_e = 0, s_e >= 0 per
off-diagonal entry, except where a zero-sum constraint on nonnegative
entries (the gangster row) already fixes the entry to zero; rows that
depend on the others are dropped.

Every iterate's dual vector gives a lower bound by weak duality (Jansson,
Chaykin & Keil, SIAM J. Numer. Anal. 46, 2008): with the nonnegativity
multipliers clipped to >= 0 and S = C - A^T y, any feasible Y has
<C, Y> >= b^T y - tau * ||S_-||_F, where S_- is the part of S that
``project_psd`` clips and tau bounds tr Y (read off the constraints).  The
bound holds whether or not the solve converged, so ``lower_bound`` is the
number callers compare against; ``objective_value`` is the last primal
iterate's value and is trusted only up to its reported residuals.  The
bound is evaluated in floating point, without directed rounding, so it is
proven up to the roundoff of b^T y and of the spectrum of S.

The reduced problems have no strictly feasible point (their optima sit on
a face of the cone), so the iterates can stall short of the tolerances;
the solve then stops with status "stalled" and the best bound seen.
``lift_upper_bound`` closes the bracket from above with the cheapest
permutation lift that meets every constraint exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .certificates import assemble, verify_povh_rendl
from .instances import SimplicialInstance, make_one_extra
from .matrix_core import kron
from .reduced_sdp import build_reduction, one_extra_bound

__all__ = [
    "NonMonotonicityReport",
    "SdpProblem",
    "SdpSolution",
    "encode_reduced",
    "lift_upper_bound",
    "nonmonotonicity_check",
    "project_psd",
    "solve",
]

MAX_SOLVE_DIM = 64
MAX_ENCODE_N = 6

# acceptance tolerances on the returned iterate: equality residual of the
# original constraints, most negative eigenvalue, most negative entry, and
# objective value minus the proven lower bound
EQ_TOL = 1e-6
PSD_TOL = 1e-7
NN_TOL = 1e-9
GAP_TOL = 1e-6
DEFAULT_MAX_ITERS = 100
DEFAULT_LARGE_N = 16
# both step lengths below STALL_STEP for STALL_ITERS Newton steps in a row
# means the iterates are pinned against the cone boundary
STALL_STEP = 1e-3
STALL_ITERS = 3
# fraction of the longest step to the cone boundary that is taken
STEP_FRACTION = 0.95
# largest residual at which the constraints' least-squares fit of I counts
# as exact, so that it bounds tr Y
TRACE_FIT_TOL = 1e-12


@dataclass
class SdpProblem:
    """min <C, Y> over symmetric Y with <A_i, Y> = b_i, Y PSD and Y >= 0."""

    dim: int
    objective: np.ndarray = field(repr=False)
    constraints: list[tuple[np.ndarray, float]] = field(repr=False)

    def __post_init__(self) -> None:
        m = self.dim
        if m < 1:
            raise ValueError(f"dim must be positive, got {m}")
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.shape != (m, m):
            raise ValueError(
                f"objective shape {self.objective.shape} does not match dim {m}"
            )
        if not np.array_equal(self.objective, self.objective.T):
            raise ValueError("objective matrix must be symmetric")
        checked = []
        for i, (a, b) in enumerate(self.constraints):
            a = np.asarray(a, dtype=float)
            if a.shape != (m, m):
                raise ValueError(f"constraint {i} has shape {a.shape}, want ({m},{m})")
            if not np.array_equal(a, a.T):
                raise ValueError(f"constraint {i} matrix must be symmetric")
            checked.append((a, float(b)))
        if not checked:
            raise ValueError("need at least one equality constraint")
        self.constraints = checked


@dataclass
class SdpSolution:
    """The last primal iterate's measurements and the best proven lower bound.

    status is "optimal" (residuals and objective_value - lower_bound within
    tolerance), "stalled" (steps vanished or a factorization failed at the
    cone boundary) or "iteration-limit" (max_iters Newton steps taken).
    """

    objective_value: float
    lower_bound: float
    max_equality_residual: float
    min_eigenvalue: float
    min_entry: float
    iterations: int
    status: str

    @property
    def converged(self) -> bool:
        return self.status == "optimal"


def project_psd(mat: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) positive semidefinite matrix: clip the spectrum."""
    sym = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(sym)
    vals = np.maximum(vals, 0.0)
    out = (vecs * vals) @ vecs.T
    return 0.5 * (out + out.T)


def encode_reduced(inst: SimplicialInstance) -> SdpProblem:
    """Encode the reduced relaxation of an (n+1)-vertex instance, n <= 6.

    The fixing is the canonical one, r = s = 1.  Variables are the n^2 x n^2
    matrix Y; constraints are the n per-position and n per-vertex assignment
    sums, the forbidden-pattern sum and the total sum, 2n + 2 in all.  The
    objective matrix is D[beta] (x) (1/2)C1[alpha] plus the fixing's linear
    costs on the diagonal.  Built through ``kron``, so the dense cap applies.
    """
    n = inst.n_total - 1
    if n > MAX_ENCODE_N:
        raise ValueError(f"encoding capped at n = {MAX_ENCODE_N}, got {n}")
    red = build_reduction(inst)
    m = n * n
    eye = np.eye(n)
    jj = np.ones((n, n))
    c = kron(red.d_beta, 0.5 * red.c1_alpha) + np.diag(red.cbar)

    constraints: list[tuple[np.ndarray, float]] = []
    for s in range(n):
        e_ss = np.zeros((n, n))
        e_ss[s, s] = 1.0
        constraints.append((kron(eye, e_ss), 1.0))
    for u in range(n):
        e_uu = np.zeros((n, n))
        e_uu[u, u] = 1.0
        constraints.append((kron(e_uu, eye), 1.0))
    constraints.append((kron(eye, jj - eye) + kron(jj - eye, eye), 0.0))
    constraints.append((np.ones((m, m)), float(n * n)))
    return SdpProblem(dim=m, objective=c, constraints=constraints)


def _entry_rows(m: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Flattened (e_i e_j^T + e_j e_i^T) / 2 per pair: each row reads Y_ij."""
    rows = np.zeros((len(i), m * m))
    k = np.arange(len(i))
    rows[k, i * m + j] += 0.5
    rows[k, j * m + i] += 0.5
    return rows


def _cone_rows(p: SdpProblem) -> tuple[np.ndarray, np.ndarray, int]:
    """Equality rows (flattened), right-hand sides and slack count.

    A constraint with b = 0 and nonnegative A fixes every entry it touches
    to zero, because Y >= 0; each such entry becomes its own row.  The other
    rows are kept if independent of those kept before them (tested with the
    fixed entries projected out), so the Schur complement stays nonsingular.
    The last rows are Y_e - s_e = 0 for the off-diagonal entries not fixed,
    one slack s_e >= 0 each; the diagonal is nonnegative by PSD.
    """
    m = p.dim
    fixed = np.zeros((m, m), dtype=bool)
    general = []
    for a, b in p.constraints:
        if b == 0.0 and (a >= 0.0).all():
            fixed |= a > 0.0
        else:
            general.append((a, b))
    kept: list[np.ndarray] = []
    rhs: list[float] = []
    for a, b in general:
        trial = np.array(kept + [a.reshape(-1)])
        trial[:, fixed.reshape(-1)] = 0.0
        if np.linalg.matrix_rank(trial) == len(trial):
            kept.append(a.reshape(-1))
            rhs.append(b)
    fi, fj = np.nonzero(np.triu(fixed))
    si, sj = np.nonzero(np.triu(~fixed, 1))
    rows = np.vstack(
        [np.array(kept).reshape(-1, m * m), _entry_rows(m, fi, fj), _entry_rows(m, si, sj)]
    )
    b = np.concatenate([rhs, np.zeros(len(fi) + len(si))])
    return rows, b, len(si)


def _trace_bound(p: SdpProblem) -> float:
    """An upper bound on tr Y over the feasible set, inf if none is read off.

    If I is a combination sum_i c_i A_i of the constraints, tr Y = c^T b;
    an all-ones constraint gives tr Y <= 1^T Y 1 = b because Y >= 0.
    """
    m = p.dim
    amat = np.array([a.reshape(-1) for a, _ in p.constraints])
    b = np.array([rhs for _, rhs in p.constraints])
    eye = np.eye(m).reshape(-1)
    coef = np.linalg.lstsq(amat.T, eye, rcond=None)[0]
    bounds = [math.inf] + [rhs for a, rhs in p.constraints if (a == 1.0).all()]
    if np.abs(amat.T @ coef - eye).max() <= TRACE_FIT_TOL:
        bounds.append(float(coef @ b))
    return min(bounds)


def _lower_bound(
    c: np.ndarray, rows: np.ndarray, b: np.ndarray, y: np.ndarray, first: int, tau: float
) -> float:
    """Weak-duality bound b^T y - tau ||S_-||_F at any y.

    The multipliers y[first:] of the rows Y_e - s_e = 0 are clipped to
    >= 0, which makes their terms y_e s_e nonnegative; S_- =
    project_psd(S) - S is the negative part of S = C - A^T y, and
    <S, Y> >= -||S_-||_F tr Y >= -tau ||S_-||_F for feasible Y.
    """
    y = y.copy()
    y[first:] = np.maximum(y[first:], 0.0)
    s = c - (rows.T @ y).reshape(c.shape)
    neg = float(np.linalg.norm(project_psd(s) - s))
    return float(b @ y) - (tau * neg if neg > 0.0 else 0.0)


def _max_step(mat: np.ndarray, dmat: np.ndarray, vec: np.ndarray, dvec: np.ndarray) -> float:
    """Longest a with mat + a dmat PSD and vec + a dvec >= 0 (inf if none binds)."""
    l_inv = np.linalg.inv(np.linalg.cholesky(mat))
    worst = float(np.linalg.eigvalsh(l_inv @ dmat @ l_inv.T)[0])
    if len(vec):
        worst = min(worst, float((dvec / vec).min()))
    return -1.0 / worst if worst < 0.0 else math.inf


def _measure(p: SdpProblem, x: np.ndarray) -> tuple[float, float, float, float]:
    """Objective, worst equality residual, least eigenvalue, least entry."""
    eq = max(abs(float(np.sum(a * x)) - b) for a, b in p.constraints)
    return (
        float(np.sum(p.objective * x)),
        eq,
        float(np.linalg.eigvalsh(x)[0]),
        float(x.min()),
    )


def solve(p: SdpProblem, max_iters: int = DEFAULT_MAX_ITERS) -> SdpSolution:
    """Run the interior-point method for at most max_iters Newton steps.

    Each step solves one Schur complement system A kron(X, S^-1) A^T,
    formed row by row, so no m^2 x m^2 matrix is built.  After every step
    the dual iterate is turned into a proven lower bound, and the best one
    is returned whatever the status.
    """
    if p.dim > MAX_SOLVE_DIM:
        raise ValueError(f"solver capped at dim {MAX_SOLVE_DIM}, got {p.dim}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be positive, got {max_iters}")

    m = p.dim
    c = p.objective
    rows, b, n_slack = _cone_rows(p)
    first = len(b) - n_slack  # slack rows are rows[first:]
    tau = _trace_bound(p)
    nu = m + n_slack  # barrier parameter of the cone

    x, s_mat = np.eye(m), np.eye(m)
    sl, z = np.ones(n_slack), np.ones(n_slack)
    y = np.zeros(len(b))
    lower = _lower_bound(c, rows, b, y, first, tau)
    iterations = short = 0
    while True:
        obj, eq, min_eig, min_entry = _measure(p, x)
        if (
            eq <= EQ_TOL
            and min_eig >= -PSD_TOL
            and min_entry >= -NN_TOL
            and obj - lower <= GAP_TOL
        ):
            status = "optimal"
            break
        if short == STALL_ITERS:
            status = "stalled"
            break
        if iterations == max_iters:
            status = "iteration-limit"
            break
        try:
            dx, dsl, dy, ds, dz = _hkm_step(c, rows, b, first, x, sl, y, s_mat, z, nu)
            alpha_p = min(1.0, STEP_FRACTION * _max_step(x, dx, sl, dsl))
            alpha_d = min(1.0, STEP_FRACTION * _max_step(s_mat, ds, z, dz))
        except np.linalg.LinAlgError:
            status = "stalled"
            break
        x = x + alpha_p * dx
        sl = sl + alpha_p * dsl
        y = y + alpha_d * dy
        s_mat = s_mat + alpha_d * ds
        z = z + alpha_d * dz
        iterations += 1
        lower = max(lower, _lower_bound(c, rows, b, y, first, tau))
        short = short + 1 if max(alpha_p, alpha_d) < STALL_STEP else 0

    return SdpSolution(
        objective_value=obj,
        lower_bound=lower,
        max_equality_residual=eq,
        min_eigenvalue=min_eig,
        min_entry=min_entry,
        iterations=iterations,
        status=status,
    )


def _hkm_step(c, rows, b, first, x, sl, y, s_mat, z, nu):
    """Predictor-corrector HKM direction (dX, ds, dy, dS, dz).

    Residuals of A vec(X) - [0; s] = b, C - A^T y - S = 0 and
    y[first:] - z = 0; X S = sigma mu I is linearised as
    dX = (R - X dS) S^-1, symmetrised, and likewise s z = sigma mu.
    Raises LinAlgError when S or the Schur complement is not positive
    definite.
    """
    m = x.shape[0]
    rp = b - rows @ x.reshape(-1)
    rp[first:] += sl
    rd = c - (rows.T @ y).reshape(m, m) - s_mat
    rz = y[first:] - z
    mu = (float(np.sum(x * s_mat)) + float(sl @ z)) / nu

    ls_inv = np.linalg.inv(np.linalg.cholesky(s_mat))
    s_inv = ls_inv.T @ ls_inv
    # row i of A kron(X, S^-1) is vec(X A_i S^-1)
    schur = (x @ rows.reshape(-1, m, m) @ s_inv).reshape(len(rows), -1) @ rows.T
    schur[first:, first:] += np.diag(sl / z)
    l_inv = np.linalg.inv(np.linalg.cholesky(0.5 * (schur + schur.T)))

    def direction(r_mat, r_vec):
        rhs = rp - rows @ ((r_mat - x @ rd) @ s_inv).reshape(-1)
        rhs[first:] += r_vec / z - (sl / z) * rz
        dy = l_inv.T @ (l_inv @ rhs)
        ds = rd - (rows.T @ dy).reshape(m, m)
        dx = (r_mat - x @ ds) @ s_inv
        dz = rz + dy[first:]
        return 0.5 * (dx + dx.T), (r_vec - sl * dz) / z, dy, ds, dz

    xs = x @ s_mat
    dx, dsl, _, ds, dz = direction(-xs, -sl * z)
    alpha_p = min(1.0, _max_step(x, dx, sl, dsl))
    alpha_d = min(1.0, _max_step(s_mat, ds, z, dz))
    mu_aff = (
        float(np.sum((x + alpha_p * dx) * (s_mat + alpha_d * ds)))
        + float((sl + alpha_p * dsl) @ (z + alpha_d * dz))
    ) / nu
    sigma = min(1.0, (mu_aff / mu) ** 3)
    return direction(
        sigma * mu * np.eye(m) - xs - dx @ ds,
        sigma * mu - sl * z - dsl * dz,
    )


def lift_upper_bound(p: SdpProblem) -> float:
    """Least <C, v v^T> over permutation lifts v = vec(P) feasible for p.

    p must have dim n^2 with n <= MAX_ENCODE_N.  Each v v^T is a 0/1 PSD
    matrix, so a lift that meets every constraint exactly is a feasible
    point and its value bounds the optimum from above; inf if none does.
    """
    n = math.isqrt(p.dim)
    if n * n != p.dim or n > MAX_ENCODE_N:
        raise ValueError(f"lifts need dim n^2 with n <= {MAX_ENCODE_N}, got {p.dim}")
    best = math.inf
    for perm in itertools.permutations(range(n)):
        v = np.zeros(p.dim)
        v[np.arange(n) * n + np.array(perm)] = 1.0
        if all(v @ a @ v == b for a, b in p.constraints):
            best = min(best, float(v @ p.objective @ v))
    return best


@dataclass
class NonMonotonicityReport:
    """Cost-2 tiny optimum against a certificate bound on a larger instance."""

    tiny_value: float
    tiny_converged: bool
    lower_bound: float
    upper_bound: float
    large_n: int
    certificate_bound: float
    difference: float
    conclusive: bool
    non_monotonic: bool


def nonmonotonicity_check(
    large_n: int = DEFAULT_LARGE_N, max_iters: int = DEFAULT_MAX_ITERS
) -> NonMonotonicityReport:
    """Bracket the 3-vertex reduced optimum and compare to a larger bound.

    Every feasible point of the 3-vertex problem costs exactly 2, while the
    certificate bound on the two-group instance with large_n + 1 vertices
    falls strictly below 2, so adding vertices lowers the relaxation value.
    The report is conclusive when the certificate passes its structured
    verification (otherwise its bound proves nothing) and the bracket
    [lower_bound, upper_bound] lies wholly on one side of that bound.
    """
    # the bound first: assemble rejects a bad large_n before the solve
    y = assemble(large_n, 2)
    bound = one_extra_bound(y).upper_bound
    verified = verify_povh_rendl(y, None).passed
    p = encode_reduced(make_one_extra(2, 1))
    sol = solve(p, max_iters=max_iters)
    upper = lift_upper_bound(p)

    conclusive = verified and (sol.lower_bound > bound or upper <= bound)
    return NonMonotonicityReport(
        tiny_value=sol.objective_value,
        tiny_converged=sol.converged,
        lower_bound=sol.lower_bound,
        upper_bound=upper,
        large_n=large_n,
        certificate_bound=bound,
        difference=sol.objective_value - bound,
        conclusive=conclusive,
        non_monotonic=conclusive and sol.lower_bound > bound,
    )
