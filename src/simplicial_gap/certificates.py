"""Feasible points for two SDP relaxations of the TSP, and their checks.

On a simplicial instance with g equal groups of n/g vertices the relaxation
(over n^2 x n^2 matrices Y, doubly-assignment constraints, a forbidden-entry
zero pattern, total sum n^2, Y >= 0 entrywise and Y PSD) admits an explicit
feasible point built from the symmetric circulants A and B with half-offset
coefficient vectors a and b.  Y rows/columns are pairs (vertex u, tour
position s) ordered u-major, i.e. row u*n + s, and every minor block Y^(uv)
is one of three circulants:

    Y^(uv) = I/n  (u = v),   A/2n  (same group),   B/2n  (across groups),

so every diagonal entry of Y is exactly 1/n.  ``assemble(n, g)`` computes
a and b (one closed form for every even g) and returns them as a frozen
``CertificateY`` whose vectors are read-only, so the spectrum it caches
cannot go stale.

The trace-pattern relaxation replaces the total sum by two matrix-valued
constraints on the blocks (sum_u Y^(uu) = I and tr Y^(uv) = delta_uv) and
trace(Y F^T F) = 2n, where F stacks the row- and column-sum maps so that
F^T F = J (x) I + I (x) J, and demands Y - J/n^2 PSD rather than Y.  With
the same objective matrix, the certificate's bound carries over.

This module also evaluates the objective and verifies both relaxations:
one reader per mode gives the eight residuals of the two, and one verdict
decides both reports.  The closed forms always run; of the residuals
they measure the total sum and smallest entry, the rest are 0 by
construction.  Below the dense cap the dense oracle joins in and measures
every constraint.  ``dense_view`` is the one place that chooses the mode:
in dense mode it densifies Y once, one vertex row (n x n^2) at a time in
offset coordinates, and reads each row once.  The row's wrapped-diagonal
sums give every contraction the dense checks read and the row's share of
Y's projection onto symmetric circulant minor blocks, whose frequency
blocks M_k of side n need k = 0..n/2 only.  It then factors those blocks,
with the frequency-0 block shifted by -J_n/n for Y - J/n^2, in one batched
call.  The oracle holds O(n^3) numbers at once and never Y whole; both
verifiers read the resulting ``DenseView``, each constraint from one
contraction.

The spectrum of 2nY comes in three closed-form families per frequency k:

* ``coupled-zero`` (multiplicity 1): collapses to 0 for every k >= 1 by the
  linear coupling between the a- and b-profiles (and to 2n at k = 0),
* ``middle`` (multiplicity g-1),
* ``plain``  (multiplicity n-g): 2 - 2 * a-profile[k].

Only even g is supported here; odd group counts never carry certificates.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .circulant import cosine_profile, first_row
from .instances import SimplicialInstance, make_equal
from .matrix_core import (
    EIG_TOL,
    ConvergenceError,
    SizeLimitError,
    dense_cap,
    kron,
    sym_eigs,
)

__all__ = [
    "AnstreicherReport",
    "CertSpectrum",
    "CertificateY",
    "DenseView",
    "FeasibilityReport",
    "assemble",
    "closed_form_spectrum",
    "dense_view",
    "objective_dense_trace",
    "objective_povh_rendl",
    "shifted_spectrum",
    "verify_anstreicher",
    "verify_povh_rendl",
]

# default verification tolerances: constructions accumulate only O(n) cosine
# roundoff, so these are loose by several orders of magnitude
EQ_TOL = 1e-9
PSD_TOL = 1e-8
NN_TOL = 1e-15


def _check_layout(n: int, g: int) -> None:
    """Raise ValueError unless g is even, g >= 2 and g properly divides n."""
    if g < 2 or g % 2 != 0:
        raise ValueError(f"g must be even and >= 2, got {g}")
    if n % g != 0 or n <= g:
        raise ValueError(f"g = {g} must properly divide n = {n}")


@dataclass(frozen=True, eq=False)
class CertificateY:
    """Structured feasible point: the half-offset coefficient vectors a, b.

    Only the layout (n, g) and the vector lengths are checked here; the
    value-level invariants (unit sums, nonnegativity, linear coupling) are
    the verifier's, so broken coefficients stay constructible in tests
    (``dataclasses.replace(y, a=...)``).  The constructor copies a and b
    and makes the copies read-only, so the spectrum cached on first use
    always belongs to them.  Densification is an explicit, size-capped act;
    large-n verification goes entirely through the closed forms.
    """

    n: int
    g: int
    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_layout(self.n, self.g)
        d = self.n // 2
        for name in ("a", "b"):
            v = np.array(getattr(self, name), dtype=float)
            if v.shape != (d,):
                raise ValueError(f"{name} must have length d = {d}, got {v.shape}")
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @property
    def per_group(self) -> int:
        return self.n // self.g

    @cached_property
    def spectrum(self) -> CertSpectrum:
        """The closed-form spectrum of 2nY, computed on first use only."""
        return closed_form_spectrum(self)

    def densify(self) -> Iterator[np.ndarray]:
        """Y's n vertex rows in offset coordinates, one at a time.

        Row u is the n x n^2 slab w[s, (v, o)] = Y[(u, s), (v, (s + o)
        mod n)], s down and (v, o) across: column o of minor block (u, v)
        holds its o-th wrapped diagonal.  Y is never held whole.  The cap
        is checked at the call, before the first row; SizeLimitError beyond
        it.  Minor block (u, v) is circulant kind(u, v): kind 0 (u = v) is
        2I/2n, kind 1 (same group) A/2n and kind 2 (across groups) B/2n.
        Every row of a circulant read in offset coordinates is its first
        row, so w[s, v, :] = row[kind(u, v)] for every s: vertex row u is
        the n x n slab row[kind(u)] repeated n times, a fresh writable
        array each time.
        """
        n, g, p = self.n, self.g, self.per_group
        cap = dense_cap()
        if n * n > cap:
            raise SizeLimitError(
                f"dense certificate side {n * n} exceeds cap {cap}"
            )
        row = np.stack(
            [2.0 * np.eye(n)[0], first_row(self.a, n), first_row(self.b, n)]
        ) / (2.0 * n)
        same_group = kron(np.eye(g), np.ones((p, p))).astype(int)
        kind = 2 - same_group - np.eye(n, dtype=int)
        return (np.tile(row[kind[u]].reshape(-1), (n, 1)) for u in range(n))


def assemble(n: int, g: int) -> CertificateY:
    """The certificate for g groups of n/g, any even g properly dividing n.

    a_i = (1/(n-g)) [2 + (4/g) sum_{j=1}^{g-1} (g-j) cos(pi i j / d)] for
    i < d, halved at i = d; then b_i is pinned by the linear coupling
    (n-g) a_i + n(g-1) b_i = 2g (i < d) resp. g (i = d).  At g = 2 this is
    the two-group closed form a_i = (2/(n-2)) (cos(pi i / d) + 1) and
    b_i = (2/n)(1 - cos(pi i / d)) for i < d, with a_d = 0 and b_d = 2/n; its
    leading coefficient obeys b_1 <= 4 pi^2 / n^3.
    """
    _check_layout(n, g)
    d = n // 2
    i = np.arange(1, d + 1)[:, None]
    j = np.arange(1, g)[None, :]
    w = (g - j).astype(float)
    s = (w * np.cos(np.pi * i * j / d)).sum(axis=1)
    a = (2.0 + (4.0 / g) * s) / (n - g)
    a[d - 1] = (1.0 + (2.0 / g) * s[d - 1]) / (n - g)
    b = (2.0 * g - (n - g) * a) / (n * (g - 1.0))
    b[d - 1] = (g - (n - g) * a[d - 1]) / (n * (g - 1.0))
    return CertificateY(n=n, g=g, a=a, b=b)


@dataclass
class CertSpectrum:
    """Closed-form eigenvalues of 2nY: one array per family, indexed by k.

    ``coupled[k]`` has multiplicity 1, ``middle[k]`` g-1 and ``plain[k]``
    n-g, so the n^2 eigenvalues are held in 3n numbers.
    """

    n: int
    g: int
    coupled: np.ndarray = field(repr=False)
    middle: np.ndarray = field(repr=False)
    plain: np.ndarray = field(repr=False)

    def families(self) -> tuple[tuple[np.ndarray, int], ...]:
        """(values, multiplicity) per family: coupled-zero, middle, plain."""
        return (
            (self.coupled, 1),
            (self.middle, self.g - 1),
            (self.plain, self.n - self.g),
        )

    def min_value(self) -> float:
        return min(float(values.min()) for values, _ in self.families())


def closed_form_spectrum(y: CertificateY) -> CertSpectrum:
    """Eigenvalues of 2nY in three families per frequency k.

    With ap/bp the frequency profiles of a and b, and with group-pattern
    eigenvalue pairs (mu_B, mu_A) running over ((g-1)n/g, n/g), (-n/g, n/g),
    and (0, 0) with multiplicities 1, g-1 and n-g, the eigenvalue at (k,
    family) is  2 mu_B bp[k] + 2 mu_A ap[k] + (2 - 2 ap[k]).  At k = 0 the
    families give {2n, 0, 0}; for k >= 1 the first family collapses to 0 by
    the linear coupling of the two profiles.
    """
    n, g, p = y.n, y.g, y.per_group
    ap = cosine_profile(y.a, n)
    bp = cosine_profile(y.b, n)
    plain = 2.0 - 2.0 * ap
    return CertSpectrum(
        n=n,
        g=g,
        coupled=2.0 * (g - 1) * p * bp + 2.0 * p * ap + plain,
        middle=-2.0 * p * bp + 2.0 * p * ap + plain,
        plain=plain,
    )


def shifted_spectrum(base: CertSpectrum) -> CertSpectrum:
    """Closed-form eigenvalues of Y - J/n^2 (unit scale) from those of 2nY.

    The shift removes exactly the all-ones eigendirection: the k = 0 entry
    of the coupled family drops from 1 to 0 and every other eigenvalue just
    rescales by 1/2n.
    """
    scale = 1.0 / (2.0 * base.n)
    coupled = base.coupled * scale
    coupled[0] = 0.0
    return replace(
        base, coupled=coupled, middle=base.middle * scale, plain=base.plain * scale
    )


@dataclass
class FeasibilityReport:
    """Outcome of the assignment-lifted relaxation's checks on a certificate."""

    n: int
    g: int
    residual_row_assign: float
    residual_col_assign: float
    residual_gangster: float
    residual_total_sum: float
    min_entry: float
    min_eig_closed_form: float
    min_eig_numeric: float | None
    eq_tol: float
    psd_tol: float
    nn_tol: float
    dense_checked: bool
    passed: bool


@dataclass
class AnstreicherReport:
    """Outcome of the trace-pattern relaxation's checks on a certificate."""

    n: int
    g: int
    residual_block_sum: float
    residual_trace_pattern: float
    residual_f: float
    min_shifted_eigenvalue: float
    min_shifted_numeric: float | None
    objective_closed_form: float
    objective_dense: float | None
    eq_tol: float
    psd_tol: float
    dense_checked: bool
    passed: bool


class _Residuals(NamedTuple):
    """The eight residuals of both relaxations; unmeasured ones stay 0.0."""

    row_assign: float = 0.0
    col_assign: float = 0.0
    gangster: float = 0.0
    total_sum: float = 0.0
    min_entry: float = 0.0
    block_sum: float = 0.0
    trace_pattern: float = 0.0
    f: float = 0.0


def _structured_residuals(y: CertificateY) -> _Residuals:
    """Structured residuals: total sum and smallest entry from a and b.

    For any a, b the form makes Y^(uu) = I/n and gives every other minor
    block a zero diagonal, so row and column assignment, the gangster
    constraint, both matrix constraints and trace(Y F^T F) = 2n hold
    exactly: they stay 0.0 by construction, not measured.
    """
    n, p = y.n, y.per_group
    # an A-block of Y is A/2n whose entries sum to (2n sum(a))/2n = sum(a)
    sum_a = float(y.a.sum())
    sum_b = float(y.b.sum())
    count_within = n * (p - 1)
    count_across = n * n - n - count_within
    total = n * 1.0 + count_within * sum_a + count_across * sum_b
    # np.min keeps a NaN that Python's min drops; 0.0 last wins a tie with -0.0
    low = np.min([y.a.min() / (2.0 * n), y.b.min() / (2.0 * n), 0.0])
    return _Residuals(total_sum=abs(total - float(n * n)), min_entry=float(low))


@dataclass
class DenseView:
    """Every contraction of Y the dense checks read, and Y's two spectra.

    All (n, n) arrays, indexed by vertices u, v or positions s, t:
    ``block_traces[u, v]`` = tr Y^(uv), ``diagonal_block_sum`` = sum_u
    Y^(uu) and ``c1_inner[u, v]`` = <C1, Y^(uv)>; Y's diagonal is read
    off the diagonals of the first two.  ``entry_sum`` is the sum of Y's
    entries, added up from each vertex row's wrapped-diagonal sums, and
    ``min_entry``/``max_entry`` bound them (both NaN if any entry is).
    ``eigenvalues`` is Y's ascending spectrum and ``shifted_eigenvalues``
    that of Y - J/n^2, all n^2 values each, from one batched ``sym_eigs``
    call over the n/2 + 2 frequency blocks (see ``dense_view``).  Y itself
    is not kept: the view holds O(n^2) numbers.
    """

    block_traces: np.ndarray = field(repr=False)
    diagonal_block_sum: np.ndarray = field(repr=False)
    c1_inner: np.ndarray = field(repr=False)
    entry_sum: float
    min_entry: float
    max_entry: float
    eigenvalues: np.ndarray = field(repr=False)
    shifted_eigenvalues: np.ndarray = field(repr=False)


def _dense_residuals(view: DenseView, n: int) -> _Residuals:
    """Every residual read off the view, each from one contraction."""
    block_sum, traces = view.diagonal_block_sum, view.block_traces
    eye = np.eye(n)
    off = ~np.eye(n, dtype=bool)
    return _Residuals(
        # sum_u Y[(u, s), (u, s)] is entry (s, s) of the diagonal-block sum,
        # and sum_s Y[(u, s), (u, s)] = tr Y^(uu) entry (u, u) of the traces
        row_assign=float(np.abs(np.diagonal(block_sum) - 1.0).max()),
        col_assign=float(np.abs(np.diagonal(traces) - 1.0).max()),
        # the forbidden entries: both contractions off their diagonal
        gangster=abs(float(block_sum[off].sum() + traces[off].sum())),
        total_sum=abs(view.entry_sum - float(n * n)),
        min_entry=view.min_entry,
        block_sum=float(np.abs(block_sum - eye).max()),
        trace_pattern=float(np.abs(traces - eye).max()),
        # trace(Y F^T F) = trace(Y (I (x) J)) + trace(Y (J (x) I)): the entry
        # sum of the diagonal blocks plus the sum of the block traces, so no
        # F is built
        f=abs(float(block_sum.sum() + traces.sum()) - 2.0 * n),
    )


def _row_pass(
    rows: Iterable[np.ndarray], n: int
) -> tuple[dict[str, np.ndarray | float], np.ndarray, float]:
    """One pass over Y's n vertex rows (each n x n^2): contractions and blocks.

    Each row comes in offset coordinates, w[s, v, o] = Y[(u, s), (v,
    (s + o) mod n)] (see ``CertificateY.densify``), and is summed over s:
    d[v, o] is the o-th wrapped-diagonal sum of minor block Y^(uv).  Its
    nearest symmetric circulant has first row h[v, o] = (d[v, o] + d[v,
    -o]) / 2n and eigenvalue M_k[u, v] = sum_o h[v, o] cos(2 pi k o / n)
    at frequency k, kept for k = 0..n/2 (M_{n-k} = M_k).  The discarded
    mass, the mass of w - h entry by entry plus the blocks' antisymmetric
    part (twice for each paired frequency), is the Frobenius distance from
    Y to the symmetric matrix with symmetric circulant minor blocks whose
    spectrum the blocks give.  The pass also collects the ``DenseView``
    contractions; it returns them by field name, the symmetrised blocks
    (n/2 + 1, n, n) and the discarded mass.  ``diagonal_block_sum`` adds
    up the rows' own blocks w[s, u, o] and is scattered back to (s, t)
    once, at t = (s + o) mod n.  Nothing here assumes circulant structure,
    so it reads the rows of any matrix given in offset coordinates.

    The pass consumes its rows: once every contraction has read a row, the
    row is overwritten by its own residual w - h, so no second n^3 buffer
    is held; it is dropped before the next row is pulled.  A NaN entry
    propagates into ``min_entry``/``max_entry`` and into the discarded mass.
    """
    pos = np.arange(n)
    mirror = -pos % n
    freq = np.arange(n // 2 + 1)
    cosines = np.cos((2.0 * np.pi / n) * (np.outer(pos, freq) % n))  # [o, k]
    blocks = np.empty((n // 2 + 1, n, n))
    block_traces = np.empty((n, n))
    own_blocks = np.zeros((n, n))  # [s, o]
    c1_inner = np.empty((n, n))
    total, off, low, high = 0.0, 0.0, np.inf, -np.inf
    rows = iter(rows)
    for u in range(n):
        w = next(rows).reshape(n, n, n)  # [s, v, o]
        d = w.sum(axis=0)
        block_traces[u] = d[:, 0]
        own_blocks += w[:, u, :]
        c1_inner[u] = d[:, 1] + d[:, n - 1]
        total += float(d.sum())
        low, high = np.minimum(low, w.min()), np.maximum(high, w.max())
        h = (d + d[:, mirror]) / (2.0 * n)
        blocks[:, u, :] = (h @ cosines).T
        np.subtract(w, h, out=w)  # the row is its own residual from here on
        off += float(np.vdot(w, w))
        del w  # drop this row before the next one is made
    anti = 0.5 * (blocks - blocks.transpose(0, 2, 1))
    pair = np.where((freq == 0) | (2 * freq == n), 1.0, 2.0)
    discarded = float(np.sqrt(off + pair @ (anti * anti).sum(axis=(1, 2))))
    diagonal_block_sum = np.empty((n, n))
    diagonal_block_sum[pos[:, None], (pos[:, None] + pos[None, :]) % n] = own_blocks
    sums = {
        "block_traces": block_traces,
        "diagonal_block_sum": diagonal_block_sum,
        "c1_inner": c1_inner,
        "entry_sum": total,
        "min_entry": float(low),
        "max_entry": float(high),
    }
    return sums, 0.5 * (blocks + blocks.transpose(0, 2, 1)), discarded


def dense_view(y: CertificateY, force: bool = False) -> DenseView | None:
    """The one verification-mode choice: a DenseView, or None for structured.

    Goes dense whenever n^2 fits ``dense_cap()`` and stays structured
    (closed forms and blockwise residuals only) past it; ``force`` insists
    on the dense oracle and raises SizeLimitError past the cap.  Callers
    that want the structured checks below the cap pass view None directly.
    Y is densified once, one vertex row at a time in offset coordinates,
    and read in one pass (``_row_pass``) that projects every minor block
    onto the symmetric circulants and keeps the frequency blocks M_k of
    side n for k = 0..n/2 (M_{n-k} = M_k) and every contraction the checks
    read.  The pass overwrites each row with its own residual and keeps no
    row-sized buffer of its own, so O(n^3) numbers are held at once (the
    row being read, which is dropped before ``densify`` makes the next, and
    the blocks), never the n^2 x n^2 matrix.
    By Weyl's inequality every eigenvalue of Y lies within the Frobenius
    mass the projection discards of the block spectrum; more than
    ``EIG_TOL * max|Y|`` of it, or a NaN mass (a non-finite entry of Y),
    raises ConvergenceError carrying that mass.
    J/n^2 is block-circulant too, with symbol J_n/n at frequency 0 and
    zero elsewhere, so Y - J/n^2 has the blocks of Y with M_0 replaced by
    M_0 - J_n/n.  One batched ``sym_eigs`` call factors the n/2 + 1 blocks
    and that one extra block; each paired frequency counts twice.
    """
    if not force and y.n * y.n > dense_cap():
        return None
    n = y.n
    sums, blocks, discarded = _row_pass(y.densify(), n)
    scale = max(sums["max_entry"], -sums["min_entry"])
    if not discarded <= EIG_TOL * scale:  # NaN mass fails too
        raise ConvergenceError(
            f"Y's minor blocks are not symmetric circulants: discarded mass "
            f"{discarded:.3e} exceeds {EIG_TOL:.1e} * {scale:.3e}",
            discarded,
            n * n,
        )
    values = sym_eigs(np.concatenate([blocks, blocks[:1] - 1.0 / n]))
    paired = values[1 : n // 2]  # frequencies k and n - k share a block
    return DenseView(
        **sums,
        eigenvalues=np.sort(np.concatenate([values[:-1], paired]), axis=None),
        shifted_eigenvalues=np.sort(np.concatenate([values[1:], paired]), axis=None),
    )


def _verdict(residuals: tuple, eigs: tuple, eq_tol: float, psd_tol: float) -> bool:
    """Every residual <= eq_tol, every measured least eigenvalue >= -psd_tol.

    None stands for an eigenvalue the mode does not measure.  No comparison
    with NaN holds, so a NaN residual or eigenvalue fails the verdict.
    """
    eigs_ok = all(e >= -psd_tol for e in eigs if e is not None)
    return all(r <= eq_tol for r in residuals) and eigs_ok


def verify_povh_rendl(
    y: CertificateY,
    view: DenseView | None,
    eq_tol: float = EQ_TOL,
    psd_tol: float = PSD_TOL,
) -> FeasibilityReport:
    """Check every assignment-lifted constraint on the certificate.

    The closed-form PSD check always runs.  With ``view`` None (structured
    mode, see ``dense_view``) the total sum and smallest entry come from
    the coefficients and the other residuals are 0 by construction; with a
    dense view all are read off the view's contractions of the dense Y and
    its smallest eigenvalue joins the PSD check.  Tolerance violations
    yield a failing report, never an exception.
    """
    n = y.n
    r = _structured_residuals(y) if view is None else _dense_residuals(view, n)
    min_eig_closed = y.spectrum.min_value() / (2.0 * n)
    min_eig_numeric = None if view is None else float(view.eigenvalues[0])
    residuals = (r.row_assign, r.col_assign, r.gangster, r.total_sum)
    least_eigs = (min_eig_closed, min_eig_numeric)
    passed = r.min_entry >= -NN_TOL and _verdict(residuals, least_eigs, eq_tol, psd_tol)
    return FeasibilityReport(
        n=n,
        g=y.g,
        residual_row_assign=r.row_assign,
        residual_col_assign=r.col_assign,
        residual_gangster=r.gangster,
        residual_total_sum=r.total_sum,
        min_entry=r.min_entry,
        min_eig_closed_form=min_eig_closed,
        min_eig_numeric=min_eig_numeric,
        eq_tol=eq_tol,
        psd_tol=psd_tol,
        nn_tol=NN_TOL,
        dense_checked=view is not None,
        passed=passed,
    )


def verify_anstreicher(
    y: CertificateY,
    view: DenseView | None,
    eq_tol: float = EQ_TOL,
    psd_tol: float = PSD_TOL,
) -> AnstreicherReport:
    """Check the trace-pattern relaxation's constraints on the certificate.

    As ``verify_povh_rendl``, with the shifted spectrum in place of Y's.  A
    dense view also prices the certificate's own equal layout, so that
    the two relaxations' equal bound values are checked on actual
    matrices, not just by construction.
    """
    n = y.n
    r = _structured_residuals(y) if view is None else _dense_residuals(view, n)
    min_shifted = shifted_spectrum(y.spectrum).min_value()
    min_numeric = objective_dense = None
    if view is not None:
        min_numeric = float(view.shifted_eigenvalues[0])
        objective_dense = objective_dense_trace(make_equal(y.g, y.per_group), view)
    residuals = (r.block_sum, r.trace_pattern, r.f)
    passed = _verdict(residuals, (min_shifted, min_numeric), eq_tol, psd_tol)
    return AnstreicherReport(
        n=n,
        g=y.g,
        residual_block_sum=r.block_sum,
        residual_trace_pattern=r.trace_pattern,
        residual_f=r.f,
        min_shifted_eigenvalue=min_shifted,
        min_shifted_numeric=min_numeric,
        objective_closed_form=objective_povh_rendl(y),
        objective_dense=objective_dense,
        eq_tol=eq_tol,
        psd_tol=psd_tol,
        dense_checked=view is not None,
        passed=passed,
    )


def objective_povh_rendl(y: CertificateY) -> float:
    """Relaxation objective (1/2) <D (x) C1, Y> of the certificate.

    D is the cost matrix of the certificate's own equal layout (g groups of
    n/g).  Closed form: ((g-1)/g) n^2 b_1 / 2, which specializes to d^2 b_1
    at g = 2.
    """
    n, g = y.n, y.g
    return 0.5 * ((g - 1.0) / g) * n * n * float(y.b[0])


def objective_dense_trace(inst: SimplicialInstance, view: DenseView) -> float:
    """The same objective read off the dense view (oracle route).

    (1/2) <D (x) C1, Y> = (1/2) sum_uv D[u, v] <C1, Y^(uv)>: the view holds
    <C1, Y^(uv)> for every minor block, so D (x) C1 is never built.
    """
    n = inst.n_total
    m = view.c1_inner.shape[0]
    if m != n:
        raise ValueError(
            f"instance has {n} vertices, dense certificate has side {m * m}"
        )
    return 0.5 * float((inst.cost_matrix() * view.c1_inner).sum())
