"""Tiny interior-point SDP solver with a proven lower bound.

Solves min <C, Y> over symmetric Y with <A_i, Y> = b_i, Y PSD and Y >= 0
by an infeasible-start primal-dual interior-point method on the cone
PSD x nonnegative orthant: the HKM search direction (Helmberg, Rendl,
Vanderbei & Wolkowicz, SIAM J. Optim. 6, 1996) with a Mehrotra corrector.
Entrywise nonnegativity enters one orbit at a time.  A problem may declare
permutations of its index set that map C and the constraint list to
themselves; the off-diagonal entries fall into orbits under the group they
generate, and each orbit gives one row: sum_{e in o} Y_e = 0 where a
zero-sum constraint on nonnegative entries (the gangster row) fixes the
orbit's entries to zero, else sum_{e in o} Y_e - s_o = 0 with one slack
s_o >= 0.  With no declared symmetry every orbit is a single entry.  Rows
that depend on the others are dropped.

A problem may also declare a matrix W that exposes a face of the PSD cone
holding every feasible Y (``SdpProblem`` checks that it does).  The solver
then runs on Y = V R V^T, V an orthonormal basis of null(W), with each
row's matrix A mapped to V^T A V and the rows that become dependent there
dropped; every stopping test reads Y against the original constraints.
With no W the face is the whole cone and V = I, through the same code.

Every iterate's dual vector gives a lower bound by weak duality (Jansson,
Chaykin & Keil, SIAM J. Numer. Anal. 46, 2008): with the nonnegativity
multipliers clipped to >= 0 and S = V^T (C - A^T y) V, any feasible Y =
V R V^T has <C, Y> >= b^T y - tau * ||S_-||_F, where S_- is the part of S
that ``project_psd`` clips and tau bounds tr R = tr Y (read off the
constraints).  An orbit row's multiplier, given to each of its entries, is
a multiplier vector of the problem with one row per entry, with the same
b^T y and the same S, so the bound holds for the original problem whatever
the orbits are; the symmetry only makes it tight, because the group
average of a point feasible for the orbit rows is feasible for the entry
rows (de Klerk, Pasechnik & Schrijver, Math. Prog. 109, 2007).  The bound
holds whether or not the solve converged, so ``lower_bound`` is the number
callers compare against; ``objective_value`` is the last primal iterate's
value and is trusted only up to its reported residuals.  The bound is
evaluated in floating point, without directed rounding, so it is proven up
to the roundoff of b^T y, of V and of the spectrum of S.

The reduced problems have no strictly feasible point in the whole cone,
but ``encode_reduced`` declares the face spanned by the permutation lifts
(Zhao, Karisch, Rendl & Wolkowicz, J. Comb. Optim. 2, 1998), on which the
barycentre of the lifts is strictly feasible.  A solve can still stop
"stalled" (vanishing steps, or a factorization that fails near the
optimum), with the best bound seen.  ``lift_upper_bound`` closes the
bracket from above with the cheapest permutation lift that meets every
constraint exactly.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
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
    """min <C, Y> over symmetric Y with <A_i, Y> = b_i, Y PSD and Y >= 0.

    Each of ``symmetries`` is a permutation perm of range(dim) with
    C[perm][:, perm] = C that maps the constraint list onto itself as a
    multiset; the solver gives one nonnegativity row per orbit of entries
    under the group they generate.

    ``exposing`` is a matrix W that exposes a face of the PSD cone holding
    every feasible Y, or None for the whole cone (W = 0).  It is checked
    here: W must be PSD and equal sum_i c_i A_i + F, with F supported on
    the entries that zero-sum rows fix, fitted by least squares to within
    TRACE_FIT_TOL, and sum_i c_i b_i must not exceed TRACE_FIT_TOL.  Every
    feasible Y then has 0 <= <W, Y> = sum_i c_i b_i, so the sum is 0 (a
    negative one proves that no Y is feasible), W Y = 0 and range(Y) lies
    in null(W).  ``face`` is an orthonormal basis of null(W), on which
    ``solve`` works.
    """

    dim: int
    objective: np.ndarray = field(repr=False)
    constraints: list[tuple[np.ndarray, float]] = field(repr=False)
    symmetries: tuple[np.ndarray, ...] = field(default=(), repr=False)
    exposing: np.ndarray | None = field(default=None, repr=False)
    face: np.ndarray = field(init=False, repr=False)

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
        multiset = Counter((b, a.tobytes()) for a, b in checked)
        perms = []
        for k, perm in enumerate(self.symmetries):
            perm = np.asarray(perm)
            if (
                perm.dtype.kind not in "iu"
                or perm.shape != (m,)
                or not np.array_equal(np.sort(perm), np.arange(m))
            ):
                raise ValueError(f"symmetry {k} is not a permutation of range({m})")
            moved = np.ix_(perm, perm)
            if not np.array_equal(self.objective[moved], self.objective):
                raise ValueError(f"symmetry {k} moves the objective")
            if Counter((b, a[moved].tobytes()) for a, b in checked) != multiset:
                raise ValueError(f"symmetry {k} moves the constraint set")
            perms.append(perm)
        self.symmetries = tuple(perms)
        w = np.zeros((m, m)) if self.exposing is None else np.asarray(self.exposing, dtype=float)
        if w.shape != (m, m) or not np.array_equal(w, w.T):
            raise ValueError(f"exposing matrix must be symmetric of shape ({m},{m})")
        self.exposing = w
        self.face = _face_basis(w, checked)


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

    The exposing matrix is W = K1^T K1 + K2^T K2 with K1 = I (x) e^T -
    (1/n) e (e (x) e)^T and K2 = e^T (x) I - (1/n) e (e (x) e)^T: K1 and K2
    read the row and column sums of the n x n matrix behind vec, less their
    mean, so a permutation lift gives 0.  W = 2 I - (2/n) J plus entries
    the forbidden-pattern row fixes, which is the sum of the 2n assignment
    rows less 2/n times the total sum, with right-hand sides 2n - 2n = 0.

    Row i n + j of Y pairs index i of D[beta] (outer) with index j of
    C1[alpha] (inner).  The declared symmetries are the transpositions of
    two consecutive outer indices of one group, which fix D[beta] and the
    linear costs, and the reversal of the inner indices, the reflection of
    the cycle through the fixed vertex, which fixes C1[alpha] and the
    linear costs.  Both permute the per-vertex or per-position sums among
    themselves and fix the other constraints.
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

    ar = np.arange(n)
    symmetries = [np.add.outer(ar * n, ar[::-1]).reshape(-1)]
    # group labels are sorted, so members of one group are consecutive
    labels = inst.group_labels()[red.beta]
    for i in np.flatnonzero(labels[:-1] == labels[1:]):
        outer = ar.copy()
        outer[[i, i + 1]] = i + 1, i
        symmetries.append(np.add.outer(outer * n, ar).reshape(-1))
    e = np.ones((1, n))
    mean = np.full((n, m), 1.0 / n)
    k1 = kron(eye, e) - mean
    k2 = kron(e, eye) - mean
    return SdpProblem(
        dim=m,
        objective=c,
        constraints=constraints,
        symmetries=tuple(symmetries),
        exposing=k1.T @ k1 + k2.T @ k2,
    )


def _pair_orbits(m: int, symmetries: tuple[np.ndarray, ...]) -> np.ndarray:
    """Orbit label of each entry (i, j) under the group the permutations generate.

    The label is the least pair number min(i, j) m + max(i, j) in the
    orbit of the unordered pair {i, j}, found by taking the least label
    over each generator's image until none moves; the group itself is
    never listed.
    """
    i, j = np.indices((m, m))
    labels = np.minimum(i, j) * m + np.maximum(i, j)
    while True:
        spread = labels
        for perm in symmetries:
            spread = np.minimum(spread, spread[np.ix_(perm, perm)])
        if np.array_equal(spread, labels):
            return labels
        labels = spread


def _orbit_rows(m: int, mask: np.ndarray, orbits: np.ndarray) -> np.ndarray:
    """Flattened sum of (e_i e_j^T + e_j e_i^T) / 2 over the pairs i <= j of
    mask in each orbit: each row reads the orbit's sum of Y_ij."""
    i, j = np.nonzero(mask)
    labels, k = np.unique(orbits[i, j], return_inverse=True)
    rows = np.zeros((len(labels), m * m))
    rows[k, i * m + j] += 0.5
    rows[k, j * m + i] += 0.5
    return rows


def _split_constraints(
    constraints: list[tuple[np.ndarray, float]],
) -> tuple[np.ndarray, list[tuple[np.ndarray, float]]]:
    """Mask of the entries that zero-sum rows fix, and the other rows.

    A constraint with b = 0 and nonnegative A fixes every entry it touches
    to zero, because Y >= 0.
    """
    m = len(constraints[0][0])
    fixed = np.zeros((m, m), dtype=bool)
    general = []
    for a, b in constraints:
        if b == 0.0 and (a >= 0.0).all():
            fixed |= a > 0.0
        else:
            general.append((a, b))
    return fixed, general


def _face_basis(w: np.ndarray, constraints: list[tuple[np.ndarray, float]]) -> np.ndarray:
    """Orthonormal basis of null(W), once W is checked to expose a face that
    holds every feasible Y (see ``SdpProblem``).

    The null space is the eigenvectors of W whose eigenvalues lie within
    numpy's rank tolerance of 0 (largest |eigenvalue| x dim x machine
    epsilon, as ``np.linalg.matrix_rank`` uses); W = 0 gives the identity.
    """
    fixed, general = _split_constraints(constraints)
    free = ~fixed
    amat = np.array([a[free] for a, _ in general]).reshape(len(general), free.sum())
    b = np.array([rhs for _, rhs in general])
    coef = np.linalg.lstsq(amat.T, w[free], rcond=None)[0]
    misfit = np.abs(amat.T @ coef - w[free]).max(initial=0.0)
    if misfit > TRACE_FIT_TOL:
        raise ValueError("exposing matrix is not a combination of the constraints and fixed entries")
    if float(coef @ b) > TRACE_FIT_TOL:
        raise ValueError("exposing matrix has <W, Y> > 0 on the feasible set")
    vals, vecs = np.linalg.eigh(w)
    tol = np.abs(vals).max() * len(w) * np.finfo(float).eps
    if vals[0] < -tol:
        raise ValueError("exposing matrix is not positive semidefinite")
    return vecs[:, vals <= tol]


def _independent_rows(mat: np.ndarray) -> list[int]:
    """Indices of the rows of mat that do not depend on the rows kept before
    them, taken in order.

    Each row is orthogonalised against the kept ones (Gram-Schmidt, twice,
    so the kept basis stays orthonormal to working precision) and kept if
    what is left exceeds numpy's rank tolerance for mat: its largest
    singular value x its larger side x machine epsilon.
    """
    if not len(mat):
        return []
    tol = np.linalg.norm(mat, 2) * max(mat.shape) * np.finfo(float).eps
    basis = np.zeros((0, mat.shape[1]))
    kept = []
    for i, row in enumerate(mat):
        for _ in range(2):
            row = row - (basis @ row) @ basis
        norm = float(np.linalg.norm(row))
        if norm > tol:
            kept.append(i)
            basis = np.vstack([basis, row / norm])
    return kept


def _cone_rows(p: SdpProblem) -> tuple[np.ndarray, np.ndarray, int]:
    """Equality rows (flattened), right-hand sides and slack count.

    Zero-sum rows fix entries (``_split_constraints``).  The other rows are
    kept if independent of those kept before them (tested with the fixed
    entries projected out), so the Schur complement stays nonsingular.
    Then come one row per orbit of fixed entries, sum_{e in o} Y_e = 0,
    and one per orbit of the other off-diagonal entries,
    sum_{e in o} Y_e - s_o = 0 with one slack s_o >= 0 each; the
    diagonal is nonnegative by PSD.  The orbits are
    those of p.symmetries, which map the fixed set to itself.  Each orbit
    row is the sum of its entries' rows, so a dual vector of these rows,
    repeated over each orbit, is a dual vector of the rows one per entry
    with the same weak-duality bound.
    """
    m = p.dim
    fixed, general = _split_constraints(p.constraints)
    flat = np.array([a.reshape(-1) for a, _ in general]).reshape(len(general), m * m)
    kept = _independent_rows(np.where(fixed.reshape(-1), 0.0, flat))
    rhs = [general[i][1] for i in kept]
    orbits = _pair_orbits(m, p.symmetries)
    fixed_rows = _orbit_rows(m, np.triu(fixed), orbits)
    slack_rows = _orbit_rows(m, np.triu(~fixed, 1), orbits)
    rows = np.vstack([flat[kept], fixed_rows, slack_rows])
    b = np.concatenate([rhs, np.zeros(len(fixed_rows) + len(slack_rows))])
    return rows, b, len(slack_rows)


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


def _max_step(
    l_inv: np.ndarray, dmat: np.ndarray, vec: np.ndarray, dvec: np.ndarray
) -> float:
    """Longest a with mat + a dmat PSD and vec + a dvec >= 0 (inf if none binds).

    l_inv is the inverse of mat's Cholesky factor, so mat + a dmat is PSD
    while I + a l_inv dmat l_inv^T is.
    """
    worst = float(np.linalg.eigvalsh(l_inv @ dmat @ l_inv.T)[0])
    if len(vec):
        worst = min(worst, float((dvec / vec).min()))
    return -1.0 / worst if worst < 0.0 else math.inf


def _face_rows(
    rows: np.ndarray, b: np.ndarray, first: int, face: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """The cone rows on the face Y = V R V^T, V = face, and the new first.

    Each row's matrix A becomes V^T A V, so it reads <A, V R V^T>.  Of the
    rows before first, those that depend on the rows kept before them on
    the face are dropped, which keeps the Schur complement nonsingular; a
    dropped row holds for every R that meets the kept ones.  The slack
    rows rows[first:] all stay, since each has its own slack.
    """
    m, k = face.shape
    mapped = face.T @ rows.reshape(-1, m, m) @ face
    mapped = (0.5 * (mapped + mapped.transpose(0, 2, 1))).reshape(len(rows), k * k)
    keep = _independent_rows(mapped[:first])
    n_kept = len(keep)
    keep.extend(range(first, len(rows)))
    return mapped[keep], b[keep], n_kept


def _measure(stack: np.ndarray, b: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """Objective, worst equality residual, least eigenvalue, least entry.

    stack holds C and then every A_i, so one reduction reads all of <C, Y>
    and <A_i, Y>.
    """
    values = (stack * y).sum(axis=(1, 2))
    return (
        float(values[0]),
        float(np.abs(values[1:] - b).max()),
        float(np.linalg.eigvalsh(y)[0]),
        float(y.min()),
    )


def solve(p: SdpProblem, max_iters: int = DEFAULT_MAX_ITERS) -> SdpSolution:
    """Run the interior-point method for at most max_iters Newton steps.

    The iterates X and S are k x k, k the width of p.face, with X = R for
    Y = V R V^T.  Each step solves one Schur complement system
    A kron(X, S^-1) A^T over the face rows, formed row by row, so no
    k^2 x k^2 matrix is built.  After every step
    the dual iterate is turned into a proven lower bound, and the best one
    is returned whatever the status.
    """
    if p.dim > MAX_SOLVE_DIM:
        raise ValueError(f"solver capped at dim {MAX_SOLVE_DIM}, got {p.dim}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be positive, got {max_iters}")

    v = p.face
    k = v.shape[1]
    c = v.T @ p.objective @ v
    c = 0.5 * (c + c.T)
    rows, b, n_slack = _cone_rows(p)
    rows, b, first = _face_rows(rows, b, len(b) - n_slack, v)  # slack rows are rows[first:]
    stack = np.array([p.objective, *(a for a, _ in p.constraints)])
    rhs = np.array([value for _, value in p.constraints])
    tau = _trace_bound(p)  # bounds tr R = tr Y too, as V has orthonormal columns
    nu = k + n_slack  # barrier parameter of the cone

    x, s_mat = np.eye(k), np.eye(k)
    sl, z = np.ones(n_slack), np.ones(n_slack)
    y = np.zeros(len(b))
    lower = _lower_bound(c, rows, b, y, first, tau)
    iterations = short = 0
    while True:
        obj, eq, min_eig, min_entry = _measure(stack, rhs, v @ x @ v.T)
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
            lx_inv = np.linalg.inv(np.linalg.cholesky(x))
            ls_inv = np.linalg.inv(np.linalg.cholesky(s_mat))
            dx, dsl, dy, ds, dz = _hkm_step(
                c, rows, b, first, x, sl, y, s_mat, z, nu, lx_inv, ls_inv
            )
            alpha_p = min(1.0, STEP_FRACTION * _max_step(lx_inv, dx, sl, dsl))
            alpha_d = min(1.0, STEP_FRACTION * _max_step(ls_inv, ds, z, dz))
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


def _hkm_step(c, rows, b, first, x, sl, y, s_mat, z, nu, lx_inv, ls_inv):
    """Predictor-corrector HKM direction (dX, ds, dy, dS, dz).

    Residuals of A vec(X) - [0; s] = b, C - A^T y - S = 0 and
    y[first:] - z = 0; X S = sigma mu I is linearised as
    dX = (R - X dS) S^-1, symmetrised, and likewise s z = sigma mu.
    lx_inv and ls_inv are the inverses of the Cholesky factors of X and
    S, factored once per Newton step by the caller.  Raises LinAlgError
    when the Schur complement is not positive definite.
    """
    m = x.shape[0]
    rp = b - rows @ x.reshape(-1)
    rp[first:] += sl
    rd = c - (rows.T @ y).reshape(m, m) - s_mat
    rz = y[first:] - z
    mu = (float(np.sum(x * s_mat)) + float(sl @ z)) / nu

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
    alpha_p = min(1.0, _max_step(lx_inv, dx, sl, dsl))
    alpha_d = min(1.0, _max_step(ls_inv, ds, z, dz))
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
    All n! lifts are the rows of one 0/1 matrix V, and v^T A v for every
    lift at once is the row sum of (V A) * V.  The encoded matrices hold
    halves and integers, so these sums are exact in any order.
    """
    n = math.isqrt(p.dim)
    if n * n != p.dim or n > MAX_ENCODE_N:
        raise ValueError(f"lifts need dim n^2 with n <= {MAX_ENCODE_N}, got {p.dim}")
    perms = np.array(list(itertools.permutations(range(n))), dtype=int)
    lifts = np.zeros((len(perms), p.dim))
    np.put_along_axis(lifts, np.arange(n) * n + perms, 1.0, axis=1)

    def values(a: np.ndarray) -> np.ndarray:
        return ((lifts @ a) * lifts).sum(axis=1)

    feasible = np.ones(len(perms), dtype=bool)
    for a, b in p.constraints:
        feasible &= values(a) == b
    if not feasible.any():
        return math.inf
    return float(values(p.objective)[feasible].min())


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
