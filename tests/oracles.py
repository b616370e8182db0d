"""Test-side oracles: independent routes the tests compare the package against.

Nothing in ``simplicial_gap`` reads these.  Each one restates a fact the
package computes another way (a literal matrix, a brute-force loop, an
expanded multiset) so that a test can hold the two side by side.  The
methods of package classes appear here as functions of the instance.
``offset_rows`` and ``natural_matrix`` move a matrix into and out of the
offset coordinates that ``CertificateY.densify`` yields and the row pass
reads.  ``stacked`` and ``row_view`` are adapters: they hold Y whole from
its streamed rows, or feed any matrix's rows through the package's row pass.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from simplicial_gap import certificates
from simplicial_gap.certificates import CertificateY, CertSpectrum, DenseView
from simplicial_gap.circulant import cosine_profile
from simplicial_gap.instances import SimplicialInstance
from simplicial_gap.matrix_core import SizeLimitError, dense_cap, kron
from simplicial_gap.reduced_sdp import ReducedObjective, Reduction
from simplicial_gap.sdp_numeric import SdpProblem
from simplicial_gap.subtour_lp import WEIGHT_TOL, LpEdgeSolution, _components, _weights


def first_row_loop(coeffs: np.ndarray, m: int) -> np.ndarray:
    """The circulant's first row by a loop over the offsets: the reference."""
    row = np.zeros(m)
    d = m // 2
    for i in range(1, d):
        row[i] += coeffs[i - 1]
        row[m - i] += coeffs[i - 1]
    row[d] += 2.0 * coeffs[d - 1]
    return row


def basis(m: int, i: int) -> np.ndarray:
    """Coefficients of the i-th basis circulant of dimension m (i = 1..m/2)."""
    if m < 2 or m % 2 != 0:
        raise ValueError(f"dimension must be even and >= 2, got {m}")
    if not 1 <= i <= m // 2:
        raise ValueError(f"offset must lie in 1..{m // 2}, got {i}")
    coeffs = np.zeros(m // 2)
    coeffs[i - 1] = 1.0
    return coeffs


def circulant_dense(coeffs: np.ndarray) -> np.ndarray:
    """The full m x m circulant, m = 2 len(coeffs): rows shift the first."""
    m = 2 * len(coeffs)
    row = first_row_loop(coeffs, m)
    offsets = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m
    return row[offsets]


def densify_kron(y: CertificateY) -> np.ndarray:
    """The certificate's dense Y as a sum of three Kronecker products.

    (1/2n) [cross-group pattern (x) B + same-group pattern (x) A
    + block-diagonal (x) (2I - A)]; SizeLimitError beyond the dense cap.
    """
    n, g, p = y.n, y.g, y.per_group
    cap = dense_cap()
    if n * n > cap:
        raise SizeLimitError(
            f"dense certificate side {n * n} exceeds cap {cap}"
        )
    amat = circulant_dense(y.a)
    bmat = circulant_dense(y.b)
    jg, ig = np.ones((g, g)), np.eye(g)
    jp, ip = np.ones((p, p)), np.eye(p)
    out = kron(kron(jg - ig, jp), bmat)
    out += kron(kron(ig, jp), amat)
    out += kron(kron(ig, ip), 2.0 * np.eye(n) - amat)
    return out / (2.0 * n)


def offset_rows(y_dense: np.ndarray) -> np.ndarray:
    """The n vertex rows of any n^2-side matrix in offset coordinates.

    Row u comes back as the n x n^2 slab w[s, (v, o)] = Y[(u, s), (v,
    (s + o) mod n)], by two slice copies per position s: the layout that
    ``CertificateY.densify`` yields, here from any matrix by a loop.
    """
    n = round(y_dense.shape[0] ** 0.5)
    y4 = y_dense.reshape(n, n, n, n)  # [u, s, v, t]
    w = np.empty_like(y4)  # [u, s, v, o]
    for s in range(n):  # w[:, s, v, o] = y4[:, s, v, (s + o) mod n]
        w[:, s, :, : n - s] = y4[:, s, :, s:]
        w[:, s, :, n - s :] = y4[:, s, :, :s]
    return w.reshape(n, n, n * n)


def natural_matrix(rows) -> np.ndarray:
    """The n^2-side matrix whose ``offset_rows`` are ``rows``: Y whole."""
    w = np.stack(list(rows))
    n = w.shape[0]
    w = w.reshape(n, n, n, n)  # [u, s, v, o]
    y4 = np.empty_like(w)  # [u, s, v, t]
    for s in range(n):  # y4[:, s, v, t] = w[:, s, v, (t - s) mod n]
        y4[:, s, :, s:] = w[:, s, :, : n - s]
        y4[:, s, :, :s] = w[:, s, :, n - s :]
    return y4.reshape(n * n, n * n)


def stacked(y: CertificateY) -> np.ndarray:
    """Y whole, n^2 x n^2: the vertex rows of ``y.densify()`` stacked."""
    return natural_matrix(y.densify())


def row_view(y_dense: np.ndarray) -> DenseView:
    """The dense view's contractions of any n^2-side matrix, spectra empty.

    Feeds the matrix's n vertex rows, in offset coordinates, through the
    same one-pass reader that ``dense_view`` runs on a certificate, so
    residual and objective tests on a random Y check the contractions the
    verifiers read.
    """
    n = round(y_dense.shape[0] ** 0.5)
    sums, _, _ = certificates._row_pass(offset_rows(y_dense), n)
    return DenseView(**sums, eigenvalues=np.empty(0), shifted_eigenvalues=np.empty(0))


def frequency_blocks_whole(y_dense: np.ndarray) -> np.ndarray:
    """Y's n/2 + 1 frequency blocks M_k (k = 0..n/2) from Y held whole.

    The whole-matrix route of the projection that ``dense_view`` streams:
    one gather of Y into offset coordinates [u, s, v, o], one sum over s
    for every minor block's wrapped-diagonal sums, the mirror average and
    the cosine transform, each with the row pass's arithmetic, so the two
    routes agree bit for bit.  The blocks come back symmetrised.
    """
    n = round(y_dense.shape[0] ** 0.5)
    pos = np.arange(n)
    wrap = (pos[:, None] + pos[None, :]) % n
    y4 = y_dense.reshape(n, n, n, n)  # [u, s, v, t]
    d = y4[:, pos[:, None, None], pos[None, :, None], wrap[:, None, :]].sum(axis=1)
    h = (d + d[:, :, -pos % n]) / (2.0 * n)  # [u, v, o]
    freq = np.arange(n // 2 + 1)
    cosines = np.cos((2.0 * np.pi / n) * (np.outer(pos, freq) % n))
    blocks = (h @ cosines).transpose(2, 0, 1)  # [k, u, v]
    return 0.5 * (blocks + blocks.transpose(0, 2, 1))


def real_fourier_basis(n: int) -> np.ndarray:
    """Orthogonal Q whose columns diagonalise every symmetric n x n circulant.

    For even n, column k is the cosine of frequency k for k <= n/2 and the
    sine of frequency n - k above it, so Q^T C Q is diagonal with C's
    eigenvalue at frequency k in place k.
    """
    k = np.arange(n)
    angle = (2.0 * np.pi / n) * (np.outer(k, k) % n)
    q = np.where(k <= n // 2, np.cos(angle), np.sin(angle)) * np.sqrt(2.0 / n)
    q[:, 0] = 1.0 / np.sqrt(n)
    q[:, n // 2] = (-1.0) ** k / np.sqrt(n)
    return q


def fourier_blocks_conjugated(y_dense: np.ndarray) -> np.ndarray:
    """Y's n frequency blocks M_k[u, v] = (Q^T Y^(uv) Q)_kk, symmetrised.

    The route that needs no projection: conjugate every minor block by the
    real Fourier basis Q and keep its diagonal, so M_k and M_{n-k} come out
    as two blocks.  Its spectra agree with ``dense_view``'s to roundoff.
    """
    n = round(y_dense.shape[0] ** 0.5)
    q = real_fourier_basis(n)
    y4 = y_dense.reshape(n, n, n, n)  # [u, s, v, t]
    blocks = np.einsum("sk,usvt,tk->kuv", q, y4, q, optimize=True)
    return 0.5 * (blocks + blocks.transpose(0, 2, 1))


def circulant_spectrum(coeffs: np.ndarray) -> np.ndarray:
    """All 2 len(coeffs) eigenvalues, ascending (closed form, no factorization)."""
    return np.sort(2.0 * cosine_profile(coeffs, 2 * len(coeffs)))


def is_metric(costs) -> bool:
    """Exact symmetry + zero diagonal + all triangle inequalities.

    Accepts an instance or a raw square cost matrix.
    """
    if isinstance(costs, SimplicialInstance):
        d = costs.cost_matrix()
    else:
        d = np.asarray(costs, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {d.shape}")
    n = d.shape[0]
    if not np.array_equal(d, d.T):
        return False
    if np.any(np.diag(d) != 0.0):
        return False
    for k in range(n):
        if np.any(d > d[:, [k]] + d[[k], :]):
            return False
    return True


def coeffs_two_group(n: int) -> CertificateY:
    """The g = 2 certificate (two groups of n/2) from its own closed form.

    a_i = (2/(n-2)) (cos(pi i / d) + 1);  b_i = (2/n)(1 - cos(pi i / d)) for
    i < d and b_d = 2/n.  The leading b coefficient obeys b_1 <= 4 pi^2 / n^3.
    """
    if n < 6 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 6, got {n}")
    d = n // 2
    i = np.arange(1, d + 1)
    c = np.cos(np.pi * i / d)
    a = (2.0 / (n - 2)) * (c + 1.0)
    b = (2.0 / n) * (1.0 - c)
    b[d - 1] = 2.0 / n
    return CertificateY(n=n, g=2, a=a, b=b)


def multiset(spectrum: CertSpectrum) -> np.ndarray:
    """All n^2 eigenvalues of 2nY expanded by multiplicity, sorted."""
    vals = np.concatenate(
        [np.repeat(values, mult) for values, mult in spectrum.families()]
    )
    return np.sort(vals)


def lower_bound_akk(y: CertificateY) -> float:
    """min over k >= 1 of the a-profile; never below -g/(n-g).

    Raises if the structural floor -g/(n-g) (or the trivial ceiling 1) is
    violated beyond roundoff, which would mean broken coefficients.
    """
    n, g = y.n, y.g
    prof = cosine_profile(y.a, n)[1:]
    mn = float(prof.min())
    mx = float(prof.max())
    floor = -g / (n - g)
    if mn < floor - 1e-10:
        raise ArithmeticError(
            f"a-profile minimum {mn} sits below its floor {floor}"
        )
    if mx > 1.0 + 1e-12:
        raise ArithmeticError(f"a-profile maximum {mx} exceeds 1")
    return mn


def profile_identity_residuals(y: CertificateY) -> dict[str, float]:
    """Residuals of the profile-level facts behind the spectrum analysis.

    Always reported: unit coefficient sums, the a/b profile coupling over
    k >= 1, and the profile floor -g/(n-g).  At g = 2 the sharper profile
    values ((d-2)/(n-2) at k = 1, -2/(n-2) for k = 2..d) and the leading
    coefficient bound b_1 <= 4 pi^2/n^3 join in.
    """
    n, g = y.n, y.g
    d = n // 2
    ap = cosine_profile(y.a, n)
    bp = cosine_profile(y.b, n)
    out: dict[str, float] = {}
    out["coefficient_sum_a"] = abs(float(y.a.sum()) - 1.0)
    out["coefficient_sum_b"] = abs(float(y.b.sum()) - 1.0)
    out["profile_at_zero"] = max(abs(float(ap[0]) - 1.0), abs(float(bp[0]) - 1.0))
    coupling = bp[1:] + g / (n * (g - 1.0)) + ((n - g) / (n * (g - 1.0))) * ap[1:]
    out["profile_coupling"] = float(np.abs(coupling).max())
    out["profile_floor"] = max(0.0, -g / (n - g) - float(ap[1:].min()))
    if g == 2:
        out["two_group_profile_first"] = abs(float(ap[1]) - (d - 2.0) / (n - 2.0))
        out["two_group_profile_tail"] = float(
            np.abs(ap[2 : d + 1] + 2.0 / (n - 2.0)).max()
        )
        out["two_group_leading_bound"] = max(
            0.0, float(y.b[0]) - 4.0 * np.pi**2 / n**3
        )
    return out


def objective_reduced_dense(y: CertificateY, red: Reduction) -> ReducedObjective:
    """The reduced objective's two terms by brute-force dense traces."""
    y_dense = stacked(y)
    kron_term = float(np.sum(kron(red.d_beta, 0.5 * red.c1_alpha) * y_dense))
    diag_term = float(red.cbar @ np.diag(y_dense))
    return ReducedObjective(kron_term=kron_term, diag_term=diag_term)


def weight_matrix(sol: LpEdgeSolution) -> np.ndarray:
    """The symmetric n x n edge-weight matrix of the LP point."""
    return _weights(sol.n, sol.x)


def degree_residuals(sol: LpEdgeSolution) -> np.ndarray:
    """|weighted degree - 2| per vertex of the LP point."""
    return np.abs(weight_matrix(sol).sum(axis=1) - 2.0)


def row_column_map(n: int) -> np.ndarray:
    """The 2n x n^2 map F whose rows read off block-row and block-column sums."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    eye = np.eye(n)
    ones_row = np.ones((1, n))
    return np.vstack([kron(ones_row, eye), kron(eye, ones_row)])


def min_cut_delete(weights: np.ndarray) -> tuple[float, frozenset[int]]:
    """Stoer-Wagner minimum cut that deletes each contracted row and column.

    The reference for ``subtour_lp.min_cut``: the same phases and the same
    tie rule, but each contraction copies the matrix without row and column
    t and drops t from the list of supernodes.
    """
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    if w.shape != (n, n) or n < 2:
        raise ValueError(f"need a square matrix on >= 2 vertices, got {w.shape}")
    if np.abs(w - w.T).max() > WEIGHT_TOL:
        raise ValueError("weights must be symmetric")
    if w.min() < -WEIGHT_TOL:
        raise ValueError("weights must be nonnegative")
    w = np.maximum(w, 0.0)
    np.fill_diagonal(w, 0.0)

    labels = _components(w > 0)
    if labels.max() > 0:
        return 0.0, frozenset(np.flatnonzero(labels == 0).tolist())

    # supernodes stay in ascending order of their smallest-kept label, so the
    # first maximum of the keys is the lowest label among ties
    groups = [[i] for i in range(n)]
    wm = w.copy()
    best_val = np.inf
    best_set: frozenset[int] = frozenset()
    while len(groups) > 1:
        # maximum adjacency order starting from the first supernode
        key = wm[0].copy()
        key[0] = -np.inf
        s = t = 0
        for _ in range(len(groups) - 1):
            s, t = t, int(key.argmax())
            cut_of_phase = float(key[t])
            key += wm[t]
            key[t] = -np.inf
        if cut_of_phase < best_val:
            best_val = cut_of_phase
            best_set = frozenset(groups[t])
        wm[s] += wm[t]
        wm[:, s] += wm[:, t]
        wm[s, s] = 0.0
        wm = np.delete(np.delete(wm, t, axis=0), t, axis=1)
        groups[s].extend(groups[t])
        del groups[t]
    return best_val, best_set


def generated_group(generators) -> list[tuple[int, ...]]:
    """Every element of the permutation group the generators generate, by
    closing the identity under composition with them."""
    identity = tuple(range(len(generators[0])))
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for elem in frontier:
            for gen in generators:
                image = tuple(np.asarray(elem)[gen].tolist())
                if image not in seen:
                    seen.add(image)
                    new.append(image)
        frontier = new
    return sorted(seen)


def lift_upper_bound_loop(p: SdpProblem) -> float:
    """Least <C, v v^T> over the feasible permutation lifts, one lift at a time.

    The reference for ``sdp_numeric.lift_upper_bound``: v = vec(P) for
    each permutation in turn, v^T A v per constraint; inf if none is
    feasible.
    """
    n = math.isqrt(p.dim)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        v = np.zeros(p.dim)
        v[np.arange(n) * n + np.array(perm)] = 1.0
        if all(v @ a @ v == b for a, b in p.constraints):
            best = min(best, float(v @ p.objective @ v))
    return best
