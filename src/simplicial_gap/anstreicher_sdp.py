"""Feasibility of the certificates for the trace-pattern relaxation.

This variant replaces the single total-sum constraint by two matrix-valued
ones on the n x n blocks Y^(uv) of Y: the diagonal blocks must sum to the
identity, the matrix of block traces must equal the identity, and Y must
satisfy trace(Y F^T F) = 2n where F stacks the row- and column-sum maps, so
that F^T F = J (x) I + I (x) J.  Positive semidefiniteness is demanded of
the shifted matrix Y - J/n^2 rather than of Y itself.

The dense check builds no F and never holds Y whole: trace(Y (I (x) J)) is
the entry sum of the diagonal blocks and trace(Y (J (x) I)) the sum of the
block traces, the two n x n contractions the matrix constraints already
read.  ``certificates.dense_view`` collects both in its one pass over Y's
vertex rows, with the objective's <C1, Y^(uv)>.

The certificates satisfy all of this exactly: their diagonal blocks are
I/n and their off-diagonal blocks circulants with zero diagonal (hence
traceless).  Both relaxations share the same objective matrix, so the bound
value carries over unchanged.

The shifted spectrum needs no factorization of its own.  The closed form
(``shifted_spectrum``) drops the coupled k = 0 value of the unit-scale
spectrum from 1 to 0.  The dense oracle reads the view's
``shifted_eigenvalues``: J/n^2 is block-circulant with symbol J_n/n at
frequency 0 and zero elsewhere, so ``certificates.dense_view`` factors
Y - J/n^2 as Y's n/2 + 1 distinct frequency blocks with the frequency-0
block shifted, in the same batched call that factors Y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import (
    EQ_TOL,
    PSD_TOL,
    CertificateY,
    CertSpectrum,
    DenseView,
    objective_dense_trace,
    objective_povh_rendl,
)
from .instances import make_equal

__all__ = [
    "AnstreicherReport",
    "shifted_spectrum",
    "verify_anstreicher",
]


def shifted_spectrum(base: CertSpectrum) -> CertSpectrum:
    """Closed-form eigenvalues of Y - J/n^2 (unit scale) from those of 2nY.

    The shift removes exactly the all-ones eigendirection: the k = 0 entry
    of the coupled family drops from 1 to 0 and every other eigenvalue just
    rescales by 1/2n.
    """
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


def _dense_residuals(view: DenseView, n: int) -> tuple[float, float, float]:
    eye = np.eye(n)
    block_sum = view.diagonal_block_sum
    trace_pattern = view.block_traces
    # trace(Y F^T F) = trace(Y (I (x) J)) + trace(Y (J (x) I)): the entry sum
    # of the diagonal blocks plus the sum of the block traces
    residual_f = abs(float(block_sum.sum() + trace_pattern.sum()) - 2.0 * n)
    return (
        float(np.abs(block_sum - eye).max()),
        float(np.abs(trace_pattern - eye).max()),
        residual_f,
    )


def verify_anstreicher(
    y: CertificateY,
    view: DenseView | None,
    eq_tol: float = EQ_TOL,
    psd_tol: float = PSD_TOL,
) -> AnstreicherReport:
    """Check the trace-pattern relaxation's constraints on the certificate.

    With ``view`` None (structured mode, see ``certificates.dense_view``)
    the checks use the blockwise closed forms.  With a dense view the
    residuals, the shifted spectrum and the objective all come from the
    view's contractions and spectra of the dense Y, so that equality of
    the two relaxations' bound values is checked on actual matrices, not
    just by construction.  The dense objective runs on the certificate's
    own equal layout.
    """
    n = y.n
    min_shifted = shifted_spectrum(y.spectrum).min_value()
    objective_closed = objective_povh_rendl(y)

    if view is None:
        block_sum, trace_pattern, residual_f = _structured_residuals(y)
        min_numeric = None
        objective_dense = None
    else:
        block_sum, trace_pattern, residual_f = _dense_residuals(view, n)
        min_numeric = float(view.shifted_eigenvalues[0])
        objective_dense = objective_dense_trace(
            make_equal(y.g, y.per_group), view
        )

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
        dense_checked=view is not None,
        passed=passed,
    )
