"""Tiny operator-splitting SDP solver used to corroborate certificate bounds.

Consensus ADMM over three copies of the matrix variable: an affine copy that
carries the equality constraints and the linear objective, a positive
semidefinite copy, and an entrywise nonnegative copy.  Each sweep projects
onto the three sets and updates scaled dual variables; a residual-balancing
rule keeps the penalty parameter in a workable range.

This is corroboration machinery, not a proof tool: there are no dual
certificates, so reported objective values are trusted only up to the
residual tolerances (the callers allow 1e-3 slack).  The one exception is
the 3-vertex reduced problem whose objective is forced to 2 by the affine
constraints alone, which makes the non-monotonicity comparison sound.

Splitting methods converge sublinearly when the optimum is degenerate (cone
boundaries meeting the affine space non-transversally, as at integral
rank-one optima), so small problems can exhaust max_iters with the flag
false while the objective is already correct to a few parts in a thousand.
Callers that only need the objective treat such runs as usable estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certificates import assemble, coeffs_two_group
from .instances import SimplicialInstance, make_one_extra
from .matrix_core import kron
from .reduced_sdp import build_reduction, one_extra_bound

__all__ = [
    "NonMonotonicityReport",
    "SdpProblem",
    "SdpSolution",
    "encode_reduced",
    "nonmonotonicity_check",
    "project_psd",
    "solve",
]

MAX_SOLVE_DIM = 64
MAX_ENCODE_N = 6

# convergence tolerances on the affine iterate: equality residual, most
# negative eigenvalue, most negative entry; and on the consensus and dual gaps
EQ_TOL = 1e-6
PSD_TOL = 1e-7
NN_TOL = 1e-9
CONS_TOL = 1e-7
DEFAULT_MAX_ITERS = 200_000


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
    objective_value: float
    max_equality_residual: float
    min_eigenvalue: float
    min_entry: float
    iterations: int
    converged: bool


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


def _affine_data(p: SdpProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    amat = np.stack([a.reshape(-1) for a, _ in p.constraints])
    b = np.array([rhs for _, rhs in p.constraints])
    # constraint rows may be linearly dependent (assignment families overlap),
    # so invert the Gram matrix by pseudoinverse
    gram_pinv = np.linalg.pinv(amat @ amat.T)
    return amat, b, amat.T @ gram_pinv


def solve(p: SdpProblem, max_iters: int = DEFAULT_MAX_ITERS) -> SdpSolution:
    """Run consensus ADMM until the affine iterate satisfies all tolerances.

    The reported matrix is the affine copy, so equality residuals are at
    roundoff; convergence additionally demands that it sits inside both
    cones to tolerance and that the consensus and dual gaps have died down.
    Hitting max_iters returns the current iterate with converged=False.
    """
    if p.dim > MAX_SOLVE_DIM:
        raise ValueError(f"solver capped at dim {MAX_SOLVE_DIM}, got {p.dim}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be positive, got {max_iters}")

    m = p.dim
    amat, b, corr = _affine_data(p)

    def proj_affine(flat: np.ndarray) -> np.ndarray:
        return flat - corr @ (amat @ flat - b)

    def eq_residual(flat: np.ndarray) -> float:
        return float(np.abs(amat @ flat - b).max())

    c_flat = p.objective.reshape(-1)
    rho = 1.0
    y = proj_affine(np.zeros(m * m))
    z1 = project_psd(y.reshape(m, m)).reshape(-1)
    z2 = np.maximum(y, 0.0)
    u1 = np.zeros(m * m)
    u2 = np.zeros(m * m)

    check_every = 25
    it = 0
    converged = False
    for it in range(1, max_iters + 1):
        w = 0.5 * (z1 - u1 + z2 - u2) - c_flat / (2.0 * rho)
        y = proj_affine(w)
        z1_new = project_psd((y + u1).reshape(m, m)).reshape(-1)
        z2_new = np.maximum(y + u2, 0.0)
        u1 += y - z1_new
        u2 += y - z2_new
        dual_move = rho * max(
            float(np.abs(z1_new - z1).max()), float(np.abs(z2_new - z2).max())
        )
        z1, z2 = z1_new, z2_new

        if it % check_every == 0 or it == max_iters:
            cons = max(float(np.abs(y - z1).max()), float(np.abs(y - z2).max()))
            if cons <= CONS_TOL and dual_move <= CONS_TOL:
                ymat = 0.5 * (y.reshape(m, m) + y.reshape(m, m).T)
                if (
                    eq_residual(y) <= EQ_TOL
                    and float(np.linalg.eigvalsh(ymat)[0]) >= -PSD_TOL
                    and float(ymat.min()) >= -NN_TOL
                ):
                    converged = True
                    break
            # residual balancing keeps primal and dual progress comparable
            if cons > 10.0 * dual_move and dual_move > 0:
                rho *= 2.0
                u1 *= 0.5
                u2 *= 0.5
            elif dual_move > 10.0 * cons and cons > 0:
                rho *= 0.5
                u1 *= 2.0
                u2 *= 2.0

    ymat = 0.5 * (y.reshape(m, m) + y.reshape(m, m).T)
    eq_res = eq_residual(ymat.reshape(-1))
    min_eig = float(np.linalg.eigvalsh(ymat)[0])
    min_entry = float(ymat.min())
    return SdpSolution(
        objective_value=float(c_flat @ ymat.reshape(-1)),
        max_equality_residual=eq_res,
        min_eigenvalue=min_eig,
        min_entry=min_entry,
        iterations=it,
        converged=converged,
    )


@dataclass
class NonMonotonicityReport:
    """Cost-2 tiny optimum against a certificate bound on a larger instance."""

    tiny_value: float
    tiny_converged: bool
    large_n: int
    certificate_bound: float
    difference: float
    conclusive: bool
    non_monotonic: bool


def nonmonotonicity_check(
    large_n: int = 16, max_iters: int = DEFAULT_MAX_ITERS
) -> NonMonotonicityReport:
    """Solve the 3-vertex reduced problem and compare to a larger bound.

    Every feasible point of the 3-vertex problem costs exactly 2, while the
    certificate bound on the two-group instance with large_n + 1 vertices
    falls strictly below 2, so adding vertices lowers the relaxation value.
    A non-converged tiny solve makes the report inconclusive rather than
    asserting anything.
    """
    # the bound first: coeffs_two_group rejects a bad large_n before the solve
    bound = one_extra_bound(assemble(coeffs_two_group(large_n))).upper_bound
    sol = solve(encode_reduced(make_one_extra(2, 1)), max_iters=max_iters)

    conclusive = sol.converged
    return NonMonotonicityReport(
        tiny_value=sol.objective_value,
        tiny_converged=sol.converged,
        large_n=large_n,
        certificate_bound=bound,
        difference=sol.objective_value - bound,
        conclusive=conclusive,
        non_monotonic=conclusive and sol.objective_value > bound,
    )
