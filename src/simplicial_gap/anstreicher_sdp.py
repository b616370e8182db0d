"""Feasibility of the certificates for the trace-pattern relaxation.

This variant replaces the single total-sum constraint by two matrix-valued
ones on the n x n blocks Y^(uv) of Y: the diagonal blocks must sum to the
identity, the matrix of block traces must equal the identity, and Y must
satisfy trace(Y F^T F) = 2n where F stacks the row- and column-sum maps, so
that F^T F = J (x) I + I (x) J.  Positive semidefiniteness is demanded of
the shifted matrix Y - J/n^2 rather than of Y itself.

The certificates satisfy all of this exactly: their diagonal blocks are
I/n, their off-diagonal blocks are circulants with zero diagonal (hence
traceless), and the all-ones vector is the eigenvector that the shift
annihilates, so the shifted spectrum is the certificate spectrum with the
top eigenvalue replaced by 0.  Both relaxations share the same objective
matrix, so the bound value carries over unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import (
    CertificateY,
    CertSpectrum,
    closed_form_spectrum,
    objective_dense_trace,
    objective_povh_rendl,
)
from .instances import SimplicialInstance
from .matrix_core import dense_cap, kron, sym_eigs, trace_inner
from .serialize import fmt_float

__all__ = [
    "AnstreicherReport",
    "row_column_map",
    "shifted_spectrum",
    "verify_anstreicher",
]


def row_column_map(n: int) -> np.ndarray:
    """The 2n x n^2 map F whose rows read off block-row and block-column sums."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    eye = np.eye(n)
    ones_row = np.ones((1, n))
    return np.vstack([kron(ones_row, eye), kron(eye, ones_row)])


def shifted_spectrum(coeffs) -> CertSpectrum:
    """Closed-form eigenvalues of Y - J/n^2 (unit scale, not the 2nY scale).

    The shift removes exactly the all-ones eigendirection: the k = 0 entry
    of the coupled family drops from 1 to 0 and every other eigenvalue just
    rescales by 1/2n.
    """
    base = closed_form_spectrum(coeffs)
    scale = 1.0 / (2.0 * base.n)
    coupled = base.coupled * scale
    coupled[0] = 0.0
    return CertSpectrum(
        n=base.n,
        g=base.g,
        coupled=coupled,
        middle=base.middle * scale,
        plain=base.plain * scale,
    )


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

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "g": self.g,
            "residual_block_sum": fmt_float(self.residual_block_sum),
            "residual_trace_pattern": fmt_float(self.residual_trace_pattern),
            "residual_f": fmt_float(self.residual_f),
            "min_shifted_eigenvalue": fmt_float(self.min_shifted_eigenvalue),
            "min_shifted_numeric": (
                None
                if self.min_shifted_numeric is None
                else fmt_float(self.min_shifted_numeric)
            ),
            "objective_closed_form": fmt_float(self.objective_closed_form),
            "objective_dense": (
                None if self.objective_dense is None else fmt_float(self.objective_dense)
            ),
            "eq_tol": fmt_float(self.eq_tol),
            "psd_tol": fmt_float(self.psd_tol),
            "dense_checked": self.dense_checked,
            "passed": self.passed,
        }


def _structured_residuals(y: CertificateY) -> tuple[float, float, float]:
    n = y.n
    # diagonal blocks are I/n and off-diagonal blocks traceless circulants,
    # so both matrix constraints reduce to n * (1/n) on the diagonal
    tr_diag_block = n * (1.0 / n)
    dev = abs(tr_diag_block - 1.0)
    # trace(Y (J (x) I)) and trace(Y (I (x) J)) each sum the diagonal-block
    # traces resp. entry sums, and both come to n * tr_diag_block
    residual_f = abs(2.0 * n * tr_diag_block - 2.0 * n)
    return dev, dev, residual_f


def _dense_residuals(y_dense: np.ndarray, n: int) -> tuple[float, float, float]:
    y4 = y_dense.reshape(n, n, n, n)
    eye = np.eye(n)
    block_sum = np.einsum("usut->st", y4)
    trace_pattern = np.einsum("usvs->uv", y4)
    ftf = row_column_map(n)
    ftf = ftf.T @ ftf
    residual_f = abs(trace_inner(ftf, y_dense) - 2.0 * n)
    return (
        float(np.abs(block_sum - eye).max()),
        float(np.abs(trace_pattern - eye).max()),
        residual_f,
    )


def verify_anstreicher(
    inst: SimplicialInstance,
    y: CertificateY,
    eq_tol: float = 1e-9,
    psd_tol: float = 1e-8,
    dense: bool | None = None,
    max_dim: int | None = None,
) -> AnstreicherReport:
    """Check the trace-pattern relaxation's constraints on the certificate.

    Mode selection mirrors the base verifier: dense=None goes dense whenever
    n^2 fits the cap, dense=False stays with the blockwise closed forms, and
    dense=True insists on the full matrix.  Dense mode also evaluates the
    objective by brute-force trace so that equality of the two relaxations'
    bound values is checked on actual matrices, not just by construction.
    """
    n = y.n
    cap = dense_cap(max_dim)
    if dense is None:
        dense = n * n <= cap

    spectrum = shifted_spectrum(y.coeffs)
    min_shifted = spectrum.min_value()
    objective_closed = objective_povh_rendl(inst, y)

    if dense:
        y_dense = y.densify(max_dim=max_dim)
        block_sum, trace_pattern, residual_f = _dense_residuals(y_dense, n)
        shift = np.full((n * n, n * n), 1.0 / (n * n))
        min_numeric = float(sym_eigs(y_dense - shift, max_dim=max_dim)[0])
        objective_dense = objective_dense_trace(inst, y, max_dim=max_dim)
    else:
        block_sum, trace_pattern, residual_f = _structured_residuals(y)
        min_numeric = None
        objective_dense = None

    passed = (
        block_sum <= eq_tol
        and trace_pattern <= eq_tol
        and residual_f <= eq_tol
        and min_shifted >= -psd_tol
        and (min_numeric is None or min_numeric >= -psd_tol)
    )
    return AnstreicherReport(
        n=n,
        g=y.g,
        residual_block_sum=block_sum,
        residual_trace_pattern=trace_pattern,
        residual_f=residual_f,
        min_shifted_eigenvalue=min_shifted,
        min_shifted_numeric=min_numeric,
        objective_closed_form=objective_closed,
        objective_dense=objective_dense,
        eq_tol=eq_tol,
        psd_tol=psd_tol,
        dense_checked=dense,
        passed=passed,
    )
