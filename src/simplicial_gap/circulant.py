"""Symmetric circulant matrices over the half-offset basis.

A symmetric circulant of even dimension m is determined by one coefficient
per offset i = 1..m/2 (offset 0, the identity direction, is deliberately
excluded; callers that need an identity term add it explicitly).  The basis
element at offset i < m/2 has ones at offsets +-i; the element at offset m/2
has a single 2 there, so every basis element has row sum 2.

Spectra come straight from the cosine form: the eigenvalue of the coefficient
vector c at frequency k is 2 * sum_i c_i cos(2 pi i k / m).  A circulant is
diagonalised by the discrete Fourier transform, so ``cosine_profile``
evaluates all m frequencies with one real FFT in O(m log m) time and O(m)
memory; this is what the structured certify/gap path runs on at any size.
``first_row`` lays the coefficients out as the circulant's first row, by
slicing, behind the same input check as ``cosine_profile``, so the
half-offset layout is known in this module alone.  The dense oracle
(``CertificateY.densify``) yields the certificate one vertex row at a time
in offset coordinates, where every row of a circulant is its first row:
each vertex row is one slab of ``first_row`` values, a read-only view
repeated over the tour positions with no copy.

``identity_suite`` evaluates, numerically and against their closed forms, the
handful of trigonometric identities that the certificate analysis rests on,
returning one max-residual per named identity.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "cosine_profile",
    "first_row",
    "identity_suite",
    "lagrange_cosine_sum",
    "ring_adjacency",
]


def _half_offsets(coeffs: np.ndarray, n: int) -> np.ndarray:
    """coeffs as floats, after checking n is even >= 2 and len(coeffs) = n/2."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"dimension must be even and >= 2, got {n}")
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (n // 2,):
        raise ValueError(f"need {n // 2} coefficients, got shape {c.shape}")
    return c


def first_row(coeffs: np.ndarray, n: int) -> np.ndarray:
    """First row of the n x n circulant with half-offset coefficients coeffs.

    Offset i < n/2 carries coeffs[i-1] at columns i and n-i; offset n/2
    carries 2 * coeffs[-1] at column n/2; column 0 is empty.
    """
    c = _half_offsets(coeffs, n)
    d = n // 2
    row = np.zeros(n)
    row[1:d] = c[:-1]
    row[d] = 2.0 * c[-1]
    row[d + 1 :] = c[-2::-1]
    return row


def cosine_profile(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Frequency profile sum_i coeffs[i-1] * cos(2 pi i k / n), k = 0..n-1.

    The profile at k is half the circulant eigenvalue at frequency k.  One
    real FFT of length n gives it in O(n log n) time and O(n) memory.
    """
    c = _half_offsets(coeffs, n)
    # the profile is the real part of the DFT of the circulant's half row
    # (offset i at index i, offset 0 empty); evaluate frequencies 0..n/2
    # and mirror, so profile[k] == profile[n-k] holds bit for bit
    x = np.zeros(n)
    x[1 : n // 2 + 1] = c
    half = np.fft.rfft(x).real
    folded = np.minimum(np.arange(n), n - np.arange(n))
    return half[folded]


def lagrange_cosine_sum(n: int, k: np.ndarray) -> np.ndarray:
    """Closed form of sum_{j=1}^{n/2} cos(pi j k / (n/2)) for integers k in 0..n.

    Equals n/2 at k in {0, n}; otherwise -1 for odd k and 0 for even k.
    The result has the shape of the integer array k.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 2, got {n}")
    k = np.asarray(k)
    if np.any((k < 0) | (k > n)):
        raise ValueError(f"k must lie in 0..{n}, got {k}")
    return np.where((k == 0) | (k == n), float(n // 2), (-1.0 + (-1.0) ** k) / 2.0)


def ring_adjacency(m: int) -> np.ndarray:
    """Dense adjacency matrix of the m-cycle (first-neighbor step costs).

    Handles odd m too, unlike the half-offset basis; for even m >= 4 it
    equals the densified basis circulant at offset 1.
    """
    if m < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {m}")
    a = np.zeros((m, m))
    idx = np.arange(m)
    a[idx, (idx + 1) % m] = 1.0
    a[(idx + 1) % m, idx] = 1.0
    return a


def identity_suite(g: int, n: int) -> dict[str, float]:
    """Max absolute residual of each supporting identity on its full grid.

    Requires even g >= 2, even n >= 2g (so that group weights j = 1..g-1 and
    the half-dimension d = n/2 never collide).  Keys:

    * cosine_block_sum          -- direct block sum vs lagrange_cosine_sum,
                                   k = 0..n
    * alternating_weight_sum_odd    -- sum over odd j of (g-j) vs g^2/4
    * alternating_weight_sum_signed -- signed sum of (g-j) vs -g/2
    * cosine_weight_telescope   -- (2cos t - 2) * sum_j (g-j)cos(jt) vs
                                   cos(gt) - g cos t + (g-1), t on the grid
                                   pi*i/d, i = 0..n
    * cosine_product_case_sum   -- sum_i cos(pi i j/d) cos(pi i k/d) vs its
                                   case-split closed form, j = 1..g-1,
                                   k = 1..n-1 (always >= -[j-k odd])
    * parity_weight_count       -- sum over j with j-k odd of (g-j) vs
                                   (g(g-1) + g(-1)^k)/4, k = 0..n-1

    Each identity is evaluated on its whole grid as array expressions, the
    product sum as one (g-1) x n/2 by n/2 x (n-1) matrix product; the
    largest array, the cosine table, holds about n^2/2 doubles (4 MB at
    n = 1000).
    """
    if g < 2 or g % 2 != 0:
        raise ValueError(f"g must be even and >= 2, got {g}")
    if n % 2 != 0 or n < 2 * g:
        raise ValueError(f"n must be even and >= 2g = {2 * g}, got {n}")
    d = n // 2
    j = np.arange(1, g)
    w = (g - j).astype(float)

    out: dict[str, float] = {}

    # the block sum sum_{i=1}^{d} cos(pi i t / d) is periodic in the integer
    # t with period n = 2d, and n is even, so t % n keeps the parity of t
    def block_closed(t: np.ndarray) -> np.ndarray:
        return lagrange_cosine_sum(n, t % n)

    # cos_ik[k, i-1] = cos(pi i k / d), k = 0..n
    k = np.arange(n + 1)
    i = np.arange(1, d + 1)
    cos_ik = np.cos(np.pi * i * (k[:, None] % n) / d)
    out["cosine_block_sum"] = float(
        np.abs(cos_ik.sum(axis=1) - block_closed(k)).max()
    )

    out["alternating_weight_sum_odd"] = abs(
        float(w[j % 2 == 1].sum()) - g * g / 4.0
    )
    out["alternating_weight_sum_signed"] = abs(
        float((w * (-1.0) ** j).sum()) - (-g / 2.0)
    )

    t = np.pi * k / d
    lhs = (2.0 * np.cos(t) - 2.0) * (w * np.cos(j * t[:, None])).sum(axis=1)
    rhs = np.cos(g * t) - g * np.cos(t) + (g - 1.0)
    out["cosine_weight_telescope"] = float(np.abs(lhs - rhs).max())

    kk = k[1:n]
    direct = cos_ik[j] @ cos_ik[kk].T
    closed = 0.5 * (
        block_closed(j[:, None] - kk[None, :]) + block_closed(j[:, None] + kk[None, :])
    )
    out["cosine_product_case_sum"] = float(np.abs(direct - closed).max())

    kn = k[:n]
    lhs = np.where((j[None, :] - kn[:, None]) % 2 == 1, w, 0.0).sum(axis=1)
    rhs = (g * (g - 1.0) + g * (-1.0) ** kn) / 4.0
    out["parity_weight_count"] = float(np.abs(lhs - rhs).max())

    return out
