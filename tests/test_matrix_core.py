import numpy as np
import pytest

from simplicial_gap.matrix_core import (
    DEFAULT_DENSE_CAP,
    DENSE_CAP_ENV_VAR,
    EIG_TOL,
    ConvergenceError,
    SizeLimitError,
    dense_cap,
    kron,
    sym_eigs,
)


def test_dense_cap_default(monkeypatch):
    monkeypatch.delenv(DENSE_CAP_ENV_VAR, raising=False)
    assert dense_cap() == DEFAULT_DENSE_CAP


def test_dense_cap_env_and_explicit(monkeypatch):
    monkeypatch.setenv(DENSE_CAP_ENV_VAR, "128")
    assert dense_cap() == 128


@pytest.mark.parametrize("raw", ["many", "", "12.5"])
def test_dense_cap_malformed_env(monkeypatch, raw):
    monkeypatch.setenv(DENSE_CAP_ENV_VAR, raw)
    with pytest.raises(ValueError):
        dense_cap()


def test_dense_cap_rejects_nonpositive(monkeypatch):
    monkeypatch.setenv(DENSE_CAP_ENV_VAR, "0")
    with pytest.raises(ValueError):
        dense_cap()
    monkeypatch.setenv(DENSE_CAP_ENV_VAR, "-3")
    with pytest.raises(ValueError):
        dense_cap()


def test_kron_matches_numpy():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 2))
    b = rng.normal(size=(2, 4))
    assert np.array_equal(kron(a, b), np.kron(a, b))


def test_kron_entry_guard():
    a = np.ones((2000, 2000))
    with pytest.raises(SizeLimitError):
        kron(a, np.ones((2, 2)))


def test_kron_bounds_each_side_by_the_dense_cap(monkeypatch):
    monkeypatch.delenv(DENSE_CAP_ENV_VAR, raising=False)
    # 2049 x 1 holds few entries, but one side exceeds the cap
    with pytest.raises(SizeLimitError):
        kron(np.ones((2049, 1)), np.ones((1, 1)))
    with pytest.raises(SizeLimitError):
        kron(np.ones((1, 1)), np.ones((1, 2049)))
    assert kron(np.ones((2048, 1)), np.ones((1, 1))).shape == (2048, 1)
    monkeypatch.setenv(DENSE_CAP_ENV_VAR, "8")
    with pytest.raises(SizeLimitError):
        kron(np.eye(3), np.eye(3))


def test_kron_rejects_vectors():
    with pytest.raises(ValueError):
        kron(np.ones(3), np.ones((2, 2)))


def test_sym_eigs_known_spectrum():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(sym_eigs(m[None]), [[-1.0, 1.0]], atol=1e-14)


def test_sym_eigs_sorted_and_consistent():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(20, 20))
    m = m + m.T
    (vals,) = sym_eigs(m[None])
    assert np.all(np.diff(vals) >= 0)
    assert vals.sum() == pytest.approx(np.trace(m), rel=1e-12)


def test_sym_eigs_rejects_asymmetric():
    m = np.array([[0.0, 1.0], [1.0 + 1e-14, 0.0]])
    with pytest.raises(ValueError):
        sym_eigs(m[None])


def test_sym_eigs_dense_cap(monkeypatch):
    monkeypatch.setenv(DENSE_CAP_ENV_VAR, "8")
    with pytest.raises(SizeLimitError):
        sym_eigs(np.eye(10)[None])


def test_sym_eigs_zero_matrix():
    assert np.array_equal(sym_eigs(np.zeros((1, 4, 4))), np.zeros((1, 4)))


def test_convergence_error_carries_diagnostics():
    err = ConvergenceError("bad", residual=1e-3, dim=7)
    assert err.residual == 1e-3
    assert err.dim == 7
    assert isinstance(err, RuntimeError)


def _random_symmetric(dim: int) -> np.ndarray:
    m = np.random.default_rng(3).normal(size=(dim, dim))
    return m + m.T


def test_sym_eigs_contract_catches_inaccurate_eigenpairs(monkeypatch):
    m = _random_symmetric(6)
    real = np.linalg.eigh

    def perturbed(a):
        vals, vecs = real(a)
        return vals, vecs + 1e-6

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(ConvergenceError) as exc:
        sym_eigs(m[None])
    assert exc.value.residual > EIG_TOL * np.abs(m).max()
    assert exc.value.dim == 6


def test_sym_eigs_backend_failure_is_convergence_error(monkeypatch):
    def failing(a):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(ConvergenceError) as exc:
        sym_eigs(_random_symmetric(5)[None])
    assert exc.value.residual is None
    assert exc.value.dim == 5


def test_sym_eigs_stack_is_the_spectrum_of_the_block_diagonal():
    # one ascending spectrum per block, which together make up the
    # spectrum of the block-diagonal matrix the stack describes
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(3, 5, 5))
    stack = stack + stack.transpose(0, 2, 1)
    vals = sym_eigs(stack)
    full = np.zeros((15, 15))
    for i, block in enumerate(stack):
        full[5 * i : 5 * i + 5, 5 * i : 5 * i + 5] = block
    assert vals.shape == (3, 5)
    assert np.all(np.diff(vals, axis=1) >= 0)
    for block, block_vals in zip(stack, vals):
        assert np.abs(block_vals - np.linalg.eigvalsh(block)).max() <= 1e-13
    assert np.abs(np.sort(vals, axis=None) - np.linalg.eigvalsh(full)).max() <= 1e-13


def test_sym_eigs_stack_contract_is_per_block(monkeypatch):
    stack = np.stack([_random_symmetric(6), _random_symmetric(6), np.eye(6)])
    real = np.linalg.eigh

    def perturbed_middle(a):
        vals, vecs = real(a)
        vecs = vecs.copy()
        vecs[1] += 1e-6
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", perturbed_middle)
    with pytest.raises(ConvergenceError, match="block 1") as exc:
        sym_eigs(stack)
    assert exc.value.residual > EIG_TOL * np.abs(stack[1]).max()
    assert exc.value.dim == 6


def test_sym_eigs_stack_rejects_an_asymmetric_block():
    stack = np.stack([np.eye(3), np.eye(3)])
    stack[1, 0, 2] += 1e-14
    with pytest.raises(ValueError):
        sym_eigs(stack)


def test_sym_eigs_stack_cap_bounds_the_block_side(monkeypatch):
    monkeypatch.setenv(DENSE_CAP_ENV_VAR, "8")
    with pytest.raises(SizeLimitError):
        sym_eigs(np.stack([np.eye(10), np.eye(10)]))
    # the cap bounds each block, not the side of the block-diagonal whole
    assert np.array_equal(sym_eigs(np.stack([np.eye(4)] * 100)), np.ones((100, 4)))


def test_sym_eigs_rejects_non_square_stacks():
    # one matrix is a stack of one, (1, m, m); a bare (m, m) is refused
    with pytest.raises(ValueError):
        sym_eigs(np.eye(3))
    with pytest.raises(ValueError):
        sym_eigs(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError):
        sym_eigs(np.zeros((2, 2, 3, 3)))
