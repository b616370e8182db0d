from dataclasses import replace

import numpy as np
import pytest

from simplicial_gap import certificates
from simplicial_gap.certificates import (
    assemble,
    dense_view,
    objective_povh_rendl,
    shifted_spectrum,
    verify_anstreicher,
)
from simplicial_gap.matrix_core import DENSE_CAP_ENV_VAR
from simplicial_gap.serialize import record_json

from oracles import (
    densify_kron,
    multiset,
    offset_blocks,
    row_column_map,
    row_view,
    stacked,
)


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
    want = abs(float(np.sum((f.T @ f) * y)) - 2.0 * n)
    residual_f = certificates._dense_residuals(row_view(y), n).f
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


@pytest.mark.parametrize(
    "check", ["block_sum", "trace_pattern", "residual_f", "closed_form", "numeric"]
)
def test_each_check_alone_fails_the_report(check, monkeypatch):
    # the verdict needs every check: one failing value among passing ones
    # fails the report
    y = assemble(8, 2)
    view = dense_view(y, force=True)
    assert verify_anstreicher(y, view).passed
    if check == "numeric":
        # only the shifted spectrum drops: Y's own spectrum stays PSD
        view = replace(view, shifted_eigenvalues=view.shifted_eigenvalues - 1.0)
    elif check == "closed_form":
        real_spectrum = certificates.shifted_spectrum

        def lowered(base):
            spectrum = real_spectrum(base)
            return replace(spectrum, plain=spectrum.plain - 1.0)

        monkeypatch.setattr(certificates, "shifted_spectrum", lowered)
    else:
        real = certificates._dense_residuals
        field = "f" if check == "residual_f" else check

        def one_failing(*args):
            return real(*args)._replace(**{field: 1.0})

        monkeypatch.setattr(certificates, "_dense_residuals", one_failing)
    assert not verify_anstreicher(y, view).passed


def test_report_serializes():
    y = assemble(8, 2)
    rep = verify_anstreicher(y, dense_view(y))
    d = record_json(rep)
    assert d["passed"] is True
    assert d["n"] == 8 and d["g"] == 2
    assert isinstance(d["objective_closed_form"], str)


def _check_shifted_spectrum(y, want=None):
    # the view's shifted spectrum against one eigvalsh of Y - J/n^2
    view = dense_view(y, force=True)
    if want is None:
        yd = stacked(y)
        want = np.linalg.eigvalsh(yd - 1.0 / yd.shape[0])
    assert np.abs(view.shifted_eigenvalues - want).max() <= 1e-12
    return view


@pytest.mark.parametrize("g,n", [(2, 8), (4, 16), (6, 36)])
def test_swapped_spectrum_matches_shifted_eigvalsh(g, n, dense_shifted):
    _check_shifted_spectrum(assemble(n, g), dense_shifted(g, n))


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
    y = _perturb(assemble(16, 4), name)
    assert np.array_equal(stacked(y), densify_kron(y))
    view = _check_shifted_spectrum(y)
    if name == "b-halved":
        # Y stays PSD, the shifted matrix does not: the shifted block must
        # see that
        assert view.eigenvalues[0] >= -1e-12
        assert view.shifted_eigenvalues[0] == pytest.approx(-0.375, abs=1e-12)


def test_shifted_spectrum_holds_without_equal_row_sums(monkeypatch):
    # scaling the minor blocks between vertices 0 and 1 keeps every minor
    # block a symmetric circulant, so dense_view accepts Y, but vertices 0
    # and 1 now have other row sums than the rest: the all-ones vector is no
    # eigenvector of Y, and swapping the eigenvalue nearest the mean row sum
    # c for c - 1 no longer gives the spectrum of Y - J/n^2
    n = 8
    y = assemble(n, 2)
    tilted = stacked(y)
    tilted[0:n, n : 2 * n] *= 3.0
    tilted[n : 2 * n, 0:n] *= 3.0
    monkeypatch.setattr(
        type(y), "densify", lambda self: iter(offset_blocks(tilted))
    )
    want = np.linalg.eigvalsh(tilted - 1.0 / (n * n))

    rows = tilted.sum(axis=1)
    assert np.ptp(rows) > 0.1
    c = float(rows.mean())
    swapped = np.linalg.eigvalsh(tilted)
    swapped[np.argmin(np.abs(swapped - c))] = c - 1.0
    assert np.abs(np.sort(swapped) - want).max() > 1e-3

    view = _check_shifted_spectrum(y, want)
    rep = verify_anstreicher(y, view)
    assert abs(rep.min_shifted_numeric - want[0]) <= 1e-12
