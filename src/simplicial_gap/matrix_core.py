"""Dense symmetric-matrix kernel.

Two size-capped numpy calls that the rest of the package builds on:

* ``kron``     -- Kronecker product
* ``sym_eigs`` -- the spectrum of each symmetric block of a stack,
                  ascending, from one batched ``eigh`` with an always-on
                  per-block residual check

Matrices are plain ``numpy.ndarray`` objects built symmetrically by
construction; ``sym_eigs`` enforces exact (tolerance-zero) symmetry at the
boundary.  Dense work is size-capped by one number, ``dense_cap()``: the
environment variable ``SIMPLICIAL_GAP_MAX_DENSE`` if set, else
``DEFAULT_DENSE_CAP``.  It bounds the side length of every matrix that
``kron`` builds and ``sym_eigs`` factors (for a stack, the side of each
block), and that of the certificate Y whose vertex rows
``CertificateY.densify`` yields in offset coordinates: checked at the
call, although the dense oracle reads Y as n read-only views of one n x n
slab each, never all n^4 numbers.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "DEFAULT_DENSE_CAP",
    "DENSE_CAP_ENV_VAR",
    "EIG_TOL",
    "ConvergenceError",
    "SizeLimitError",
    "dense_cap",
    "kron",
    "sym_eigs",
]

DEFAULT_DENSE_CAP = 2048
DENSE_CAP_ENV_VAR = "SIMPLICIAL_GAP_MAX_DENSE"

# sym_eigs' accuracy contract, relative to the largest entry
EIG_TOL = 1e-9


class SizeLimitError(ValueError):
    """A dense operation would exceed the configured size cap."""


class ConvergenceError(RuntimeError):
    """The eigensolver failed its accuracy contract.

    Carries ``residual`` (worst entrywise |m v - lambda v| seen, or None if
    the backend failed outright) and ``dim``.
    """

    def __init__(self, message: str, residual: float | None, dim: int):
        super().__init__(message)
        self.residual = residual
        self.dim = dim


def dense_cap() -> int:
    """The dense-size cap: SIMPLICIAL_GAP_MAX_DENSE, else DEFAULT_DENSE_CAP.

    Raises ValueError on a malformed or nonpositive environment value.
    """
    raw = os.environ.get(DENSE_CAP_ENV_VAR)
    if raw is not None:
        try:
            cap = int(raw)
        except ValueError:
            raise ValueError(
                f"{DENSE_CAP_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
        if cap <= 0:
            raise ValueError(f"{DENSE_CAP_ENV_VAR} must be positive, got {cap}")
        return cap
    return DEFAULT_DENSE_CAP


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; SizeLimitError if either side exceeds the dense cap."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("kron expects two matrices")
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    cap = dense_cap()
    if max(rows, cols) > cap:
        raise SizeLimitError(
            f"kron result {rows} x {cols} exceeds dense cap {cap}"
        )
    return np.kron(a, b)


def sym_eigs(stack: np.ndarray) -> np.ndarray:
    """Ascending spectrum of each symmetric block of a stack (k, m, m).

    All k blocks go to one batched ``eigh`` call; the result has shape
    (k, m), each row ascending as ``eigh`` returns it.

    Every block must be exactly symmetric (the package builds its matrices
    symmetrically, so equality is checked with zero tolerance).  Accuracy
    contract, per block: every eigenpair satisfies
    ``max|m v - lambda v| <= EIG_TOL * max|m|``; a violation raises
    ConvergenceError with ``dim`` the block side.  A block side above the
    dense cap raises SizeLimitError.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"need a stack of square matrices, got shape {stack.shape}")
    dim = stack.shape[1]
    cap = dense_cap()
    if dim > cap:
        raise SizeLimitError(f"matrix side {dim} exceeds dense cap {cap}")
    if not np.array_equal(stack, stack.transpose(0, 2, 1)):
        raise ValueError("sym_eigs requires exactly symmetric matrices")

    try:
        vals, vecs = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigendecomposition failed at dim {dim}: {exc}", None, dim
        ) from exc

    scale = np.abs(stack).max(axis=(1, 2))
    residual = np.abs(stack @ vecs - vecs * vals[:, None, :]).max(axis=(1, 2))
    # written so that a NaN residual fails too
    bad = np.flatnonzero(~(residual <= EIG_TOL * scale))
    if bad.size:
        i = bad[0]
        raise ConvergenceError(
            f"eigenpair residual {residual[i]:.3e} exceeds "
            f"{EIG_TOL:.1e} * {scale[i]:.3e} in block {i} at dim {dim}",
            float(residual[i]),
            dim,
        )
    return vals
