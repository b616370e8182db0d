"""Symmetry-reduced relaxation on (n+1)-vertex instances and gap tables.

Fixing which vertex r sits at tour position s collapses the assignment-lifted
SDP from (n+1)^2 to n^2 variables.  The reduced objective splits into

    kron_term = trace((D[beta] (x) (1/2) C1[alpha]) Y)
    diag_term = sum_k cbar_k Y_kk

where alpha/beta drop r resp. s, C1 is the (n+1)-cycle step-cost matrix and
cbar = vec(C1[alpha, {r}] . D[{s}, beta]).  On the one-extra layouts with the
canonical choice r = s = 1, D[beta] is exactly the equal-layout cost matrix,
so the certificate Y built for n vertices plugs straight in: kron_term comes
out as (n-1)/n of the unreduced objective and diag_term as (ones in cbar)/n.

The structured route stores only the O(n) index arrays alpha and beta and
counts the ones it needs from group labels, so together with the FFT-based
spectrum a whole gap record costs O(n log n) time and O(n) memory.  The
dense D[beta], C1[alpha] and cbar are built on demand and are read only by
the tiny numeric encodings and by the tests' dense-trace oracle.

``gap_table`` turns this into integrality-gap lower-bound records: the tour
optimum is the group count g = 2z while the reduced relaxation's optimum is
at most kron_term + diag_term, so their ratio bounds the gap from below and
climbs toward its limit as n grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certificates import (
    CertificateY,
    assemble,
    verify_povh_rendl,
)
from .circulant import ring_adjacency
from .instances import SimplicialInstance, make_one_extra

__all__ = [
    "GapRecord",
    "Reduction",
    "ReducedObjective",
    "asymptote_value",
    "bound_constants",
    "build_reduction",
    "gap_table",
    "objective_reduced",
    "one_extra_bound",
]


@dataclass
class Reduction:
    """Data of one vertex/position fixing.

    r (vertex) and s (position) are 1-based labels following the convention
    that 1 is the canonical choice; alpha and beta are the complementary
    0-based index arrays into the (n+1)-vertex arrays.  Only these O(n)
    arrays are stored: the dense d_beta, c1_alpha and cbar are built on
    demand for the tiny encodings and the tests' dense oracle.
    """

    inst: SimplicialInstance
    r: int
    s: int
    alpha: np.ndarray = field(repr=False)
    beta: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.alpha)

    @property
    def d_beta(self) -> np.ndarray:
        """Cost matrix D[beta, beta] of the surviving positions (dense)."""
        lbl = self.inst.group_labels()[self.beta]
        return (lbl[:, None] != lbl[None, :]).astype(float)

    @property
    def c1_alpha(self) -> np.ndarray:
        """Step-cost matrix C1[alpha, alpha] of the surviving vertices (dense)."""
        return ring_adjacency(self.n + 1)[np.ix_(self.alpha, self.alpha)]

    @property
    def cbar(self) -> np.ndarray:
        """vec(C1[alpha, {r}] . D[{s}, beta]), the fixing's linear costs (dense)."""
        c1_col = ring_adjacency(self.n + 1)[self.alpha, self.r - 1]
        lbl = self.inst.group_labels()
        d_row = (lbl[self.s - 1] != lbl[self.beta]).astype(float)
        return np.outer(c1_col, d_row).reshape(-1, order="F")

    def ones_in_cbar(self) -> int:
        """cbar.sum() in closed form, 2 (n+1 - |group of s|).

        Vertex r keeps its two ring neighbours, and the dropped position s
        costs 1 to every vertex outside its group.
        """
        group_of_s = self.inst.group_sizes[self.inst.group_labels()[self.s - 1]]
        return 2 * (self.n + 1 - group_of_s)


@dataclass
class ReducedObjective:
    kron_term: float
    diag_term: float

    @property
    def upper_bound(self) -> float:
        return self.kron_term + self.diag_term


def build_reduction(inst: SimplicialInstance, r: int = 1, s: int = 1) -> Reduction:
    """Fix vertex r at tour position s on an (n+1)-vertex instance, n even.

    For simplicial instances cbar is 0/1 with exactly twice as many ones as
    the dropped-position cost row D[{s}, beta] has.
    """
    n1 = inst.n_total
    n = n1 - 1
    if n < 2 or n % 2 != 0:
        raise ValueError(
            f"reduction needs an odd vertex count n+1 with n even, got {n1}"
        )
    if not 1 <= r <= n1:
        raise ValueError(f"vertex label r must lie in 1..{n1}, got {r}")
    if not 1 <= s <= n1:
        raise ValueError(f"position label s must lie in 1..{n1}, got {s}")
    alpha = np.delete(np.arange(n1), r - 1)
    beta = np.delete(np.arange(n1), s - 1)
    return Reduction(inst=inst, r=r, s=s, alpha=alpha, beta=beta)


def objective_reduced(y: CertificateY, red: Reduction) -> ReducedObjective:
    """Evaluate the reduced objective on the certificate, exactly.

    Every surviving cycle edge of c1_alpha lands on a first-offset position
    of the circulant blocks (there are 2(n-1) such entries), so the block
    inner products need only the leading coefficients a_1, b_1; and every
    diagonal entry of Y is 1/n, so diag_term is (ones in cbar)/n.

    The ones of D[beta] within and across certificate groups are counted
    from a table of how many positions carry each (certificate group,
    instance group) pair, so nothing larger than O(n) is built.
    """
    n = y.n
    if red.n != n:
        raise ValueError(
            f"reduction is for n = {red.n}, certificate for n = {n}"
        )
    g_inst = red.inst.g
    cert_lbl = np.repeat(np.arange(y.g), y.per_group)
    inst_lbl = red.inst.group_labels()[red.beta]
    table = np.bincount(cert_lbl * g_inst + inst_lbl, minlength=y.g * g_inst)
    table = table.reshape(y.g, g_inst)
    # pairs (i, j) in the same certificate group minus those also sharing
    # an instance group; i == j always shares both, so it drops out
    ones_within = int((table.sum(axis=1) ** 2).sum() - (table**2).sum())
    # pairs in different instance groups, minus those counted within
    ones_across = n * n - int((table.sum(axis=0) ** 2).sum()) - ones_within
    a1 = float(y.a[0])
    b1 = float(y.b[0])
    kron_term = (n - 1.0) / (2.0 * n) * (a1 * ones_within + b1 * ones_across)
    diag_term = red.ones_in_cbar() / n
    return ReducedObjective(kron_term=kron_term, diag_term=diag_term)


def one_extra_bound(y: CertificateY) -> ReducedObjective:
    """The certificate's reduced objective on its one-extra layout.

    The layout is the certificate's own g groups of n/g with one extra
    vertex in group 1, under the canonical fixing r = s = 1; the upper
    bound is the relaxation bound that the gap table and the tiny-solve
    comparisons quote.  The certificate is not verified here.
    """
    inst = make_one_extra(y.g, y.per_group)
    return objective_reduced(y, build_reduction(inst, 1, 1))


def bound_constants(g: int) -> tuple[float, float, float]:
    """(c_g, c_hat_g, c_tilde_g): the analytic bound chain's constants.

    c_g = (2/g) pi^2 sum_{j=1}^{g-1} (g-j) j^2, c_hat_g = 4 c_g/(g-1) bounds
    n^3 b_1 from above, and c_tilde_g = ((g-1)/2g) c_hat_g bounds n times the
    unreduced objective.  Computed from their defining sums, never hardcoded.
    """
    if g < 2 or g % 2 != 0:
        raise ValueError(f"g must be even and >= 2, got {g}")
    j = np.arange(1, g)
    c_g = (2.0 / g) * np.pi**2 * float(((g - j) * j * j).sum())
    c_hat = 4.0 * c_g / (g - 1.0)
    c_tilde = (g - 1.0) / (2.0 * g) * c_hat
    return c_g, c_hat, c_tilde


def asymptote_value(z: int, n: int) -> float:
    """The analytic lower-bound chain 2zn/(2n + c_tilde) that climbs to z."""
    _, _, c_tilde = bound_constants(2 * z)
    return 2.0 * z * n / (2.0 * n + c_tilde)


@dataclass
class GapRecord:
    """One integrality-gap lower-bound row, in the field order of its CSV."""

    z: int
    g: int
    n: int
    tsp: float
    kron_term: float
    diag_term: float
    sdp_upper: float
    gap_lower: float
    asymptote: float


def gap_table(z: int, n_values: list[int]) -> list[GapRecord]:
    """Gap lower-bound records for g = 2z over the given n grid.

    Each record's certificate is re-verified (structured mode) before the
    record is emitted; a failing certificate aborts the table.  Bad z or n
    raise ValueError from ``assemble``.
    """
    g = 2 * z
    records = []
    for n in sorted(n_values):
        y = assemble(n, g)
        if not verify_povh_rendl(y, None).passed:
            raise ArithmeticError(
                f"certificate for (g={g}, n={n}) failed verification"
            )
        obj = one_extra_bound(y)
        records.append(
            GapRecord(
                z=z,
                g=g,
                n=n,
                tsp=float(g),
                kron_term=obj.kron_term,
                diag_term=obj.diag_term,
                sdp_upper=obj.upper_bound,
                gap_lower=float(g) / obj.upper_bound,
                asymptote=asymptote_value(z, n),
            )
        )
    return records

