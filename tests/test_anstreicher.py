from dataclasses import replace

import numpy as np
import pytest

from simplicial_gap import anstreicher_sdp
from simplicial_gap.anstreicher_sdp import (
    dense_shifted_spectrum,
    shifted_spectrum,
    verify_anstreicher,
)
from simplicial_gap.certificates import (
    DenseView,
    assemble,
    dense_view,
    objective_povh_rendl,
)
from simplicial_gap.matrix_core import DENSE_CAP_ENV_VAR, trace_inner
from simplicial_gap.serialize import record_json

from oracles import multiset, row_column_map


def test_row_column_map_layout():
    f = row_column_map(3)
    assert f.shape == (6, 9)
    assert set(np.unique(f)) == {0.0, 1.0}
    assert np.array_equal(f.sum(axis=0), np.full(9, 2.0))
    # row s of the first band selects position s across all vertices
    assert np.array_equal(np.flatnonzero(f[1]), np.array([1, 4, 7]))
    # row u of the second band selects all positions of vertex u
    assert np.array_equal(np.flatnonzero(f[3 + 1]), np.array([3, 4, 5]))


@pytest.mark.parametrize("n", [3, 5])
def test_gram_of_map_is_pair_pattern(n):
    f = row_column_map(n)
    jn = np.ones((n, n))
    want = np.kron(jn, np.eye(n)) + np.kron(np.eye(n), jn)
    assert np.array_equal(f.T @ f, want)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_dense_residual_f_is_the_literal_gram_trace(n):
    # a random symmetric Y has none of a certificate's circulant structure,
    # so an index-order slip in the block contractions shows here
    rng = np.random.default_rng(n)
    m = rng.normal(size=(n * n, n * n))
    y = m + m.T
    f = row_column_map(n)
    want = abs(trace_inner(f.T @ f, y) - 2.0 * n)
    _, _, residual_f = anstreicher_sdp._dense_residuals(y, n)
    assert abs(residual_f - want) <= 1e-12 * float(np.abs(y).sum())


@pytest.mark.parametrize("g,n", [(2, 8), (2, 16), (4, 16)])
def test_structured_verification_passes(g, n):
    y = assemble(n, g)
    rep = verify_anstreicher(y, None)
    assert rep.passed
    assert not rep.dense_checked
    assert rep.residual_block_sum <= 1e-15
    assert rep.residual_trace_pattern <= 1e-15
    assert rep.residual_f <= 1e-12
    assert rep.min_shifted_eigenvalue >= -1e-12
    assert rep.objective_closed_form == pytest.approx(
        objective_povh_rendl(y), abs=1e-15
    )


def test_dense_verification_and_objective_agreement():
    y = assemble(16, 2)
    rep = verify_anstreicher(y, dense_view(y, force=True))
    assert rep.passed and rep.dense_checked
    assert rep.residual_block_sum <= 1e-9
    assert rep.residual_trace_pattern <= 1e-9
    assert rep.residual_f <= 1e-9
    assert rep.min_shifted_numeric is not None
    assert rep.min_shifted_numeric >= -1e-10
    assert rep.objective_dense == pytest.approx(rep.objective_closed_form, abs=1e-12)


def test_auto_mode_follows_cap(monkeypatch):
    monkeypatch.delenv(DENSE_CAP_ENV_VAR, raising=False)
    y = assemble(8, 2)
    assert verify_anstreicher(y, dense_view(y)).dense_checked
    monkeypatch.setenv(DENSE_CAP_ENV_VAR, "32")
    rep = verify_anstreicher(y, dense_view(y))
    assert not rep.dense_checked
    assert rep.objective_dense is None


def test_shifted_spectrum_matches_dense(dense_cert):
    yd, _ = dense_cert(2, 8)
    spectrum = shifted_spectrum(assemble(8, 2).spectrum)
    assert len(multiset(spectrum)) == 64
    assert spectrum.coupled[0] == 0.0
    eigs = np.linalg.eigvalsh(yd - np.full((64, 64), 1.0 / 64))
    assert np.abs(multiset(spectrum) - eigs).max() < 1e-8
    assert spectrum.min_value() >= -1e-12


def test_perturbed_certificate_fails_shifted_psd():
    y = assemble(8, 2)
    a = y.a.copy()
    a[0] -= 0.6
    y = replace(y, a=a)
    rep = verify_anstreicher(y, dense_view(y, force=True))
    assert not rep.passed
    assert rep.min_shifted_eigenvalue < -1e-8
    assert rep.min_shifted_numeric < -1e-8
    # matrix constraints hold for any coefficient choice by construction
    assert rep.residual_block_sum <= 1e-9
    assert rep.residual_trace_pattern <= 1e-9


def test_report_serializes():
    y = assemble(8, 2)
    rep = verify_anstreicher(y, dense_view(y))
    d = record_json(rep)
    assert d["passed"] is True
    assert d["n"] == 8 and d["g"] == 2
    assert isinstance(d["objective_closed_form"], str)


def _check_swapped_spectrum(yd, eigs):
    n2 = yd.shape[0]
    shifted, spread = dense_shifted_spectrum(DenseView(matrix=yd, eigenvalues=eigs))
    assert spread <= 1e-12
    want = np.linalg.eigvalsh(yd - np.full((n2, n2), 1.0 / n2))
    assert np.abs(shifted - want).max() <= 1e-12
    return shifted


@pytest.mark.parametrize("g,n", [(2, 8), (4, 16), (6, 36)])
def test_swapped_spectrum_matches_shifted_eigvalsh(g, n, dense_cert):
    yd, eigs = dense_cert(g, n)
    _check_swapped_spectrum(yd, eigs)


def _perturb(y, name):
    a, b = y.a.copy(), y.b.copy()
    if name == "a0-minus":
        a[0] -= 0.6
    elif name == "b1-plus":
        b[1] += 0.1
    elif name == "a-scaled":
        a *= 0.9
    elif name == "b-halved":
        b *= 0.5
    else:
        rng = np.random.default_rng(7)
        a += rng.normal(0.0, 0.01, a.size)
        b += rng.normal(0.0, 0.01, b.size)
    return replace(y, a=a, b=b)


@pytest.mark.parametrize("name", ["a0-minus", "b1-plus", "a-scaled", "b-halved", "noise"])
def test_swapped_spectrum_on_perturbed_coefficients(name):
    yd = _perturb(assemble(16, 4), name).densify()
    eigs = np.linalg.eigvalsh(yd)
    shifted = _check_swapped_spectrum(yd, eigs)
    if name == "b-halved":
        # Y stays PSD, the shifted matrix does not: the swap must see that
        assert eigs[0] >= -1e-12
        assert shifted[0] == pytest.approx(-0.375, abs=1e-12)


def test_row_sum_spread_fails_the_report():
    y = assemble(8, 2)
    view = dense_view(y, force=True)
    assert verify_anstreicher(y, view).passed
    # entry (u=0, s=0; v=4, t=1): off the block diagonal and off the trace
    # pattern, so only the row sums of rows 0 and 33 move
    tilted = view.matrix.copy()
    tilted[0, 33] += 1e-6
    tilted[33, 0] += 1e-6
    bad = DenseView(matrix=tilted, eigenvalues=np.linalg.eigvalsh(tilted))
    assert dense_shifted_spectrum(bad)[1] > 1e-9
    rep = verify_anstreicher(y, bad, psd_tol=1e-3)
    assert max(rep.residual_block_sum, rep.residual_trace_pattern, rep.residual_f) <= 1e-9
    assert rep.min_shifted_numeric >= -1e-3
    assert not rep.passed
