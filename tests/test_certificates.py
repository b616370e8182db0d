import tracemalloc
from dataclasses import FrozenInstanceError, replace

import mpmath
import numpy as np
import pytest

from simplicial_gap import certificates
from simplicial_gap.certificates import (
    CertificateY,
    assemble,
    closed_form_spectrum,
    dense_view,
    objective_dense_trace,
    objective_povh_rendl,
    shifted_spectrum,
    verify_anstreicher,
    verify_povh_rendl,
)
from simplicial_gap.circulant import cosine_profile, ring_adjacency
from simplicial_gap.instances import SimplicialInstance, make_equal
from simplicial_gap.matrix_core import (
    DENSE_CAP_ENV_VAR,
    EIG_TOL,
    ConvergenceError,
    SizeLimitError,
)
from simplicial_gap.serialize import record_json

from oracles import (
    circulant_dense,
    coeffs_two_group,
    densify_kron,
    fourier_blocks_conjugated,
    frequency_blocks_whole,
    lower_bound_akk,
    multiset,
    offset_blocks,
    offset_rows,
    profile_identity_residuals,
    row_pass_by_row,
    row_view,
    stacked,
)

# oracle values computed independently at 40-digit precision and frozen
TWO_GROUP_8_A = (
    0.56903559372884917,
    0.33333333333333333,
    0.097631072937817492,
    0.0,
)
TWO_GROUP_8_B = (
    0.073223304703363119,
    0.25,
    0.42677669529663688,
    0.25,
)
OBJ_8_2 = 1.1715728752538099
OBJ_16_2 = 0.60896373990970595
B1_16_2 = 0.0095150584360891555


def test_two_group_coefficients_frozen_values():
    c = assemble(8, 2)
    assert np.allclose(c.a, TWO_GROUP_8_A, rtol=0, atol=1e-15)
    assert np.allclose(c.b, TWO_GROUP_8_B, rtol=0, atol=1e-15)
    assert assemble(16, 2).b[0] == pytest.approx(B1_16_2, rel=1e-13)


def test_general_matches_two_group_to_roundoff():
    # the same g = 2 formula in two evaluation orders: equal only up to a
    # few ulps of the largest coefficient (1.8 eps at worst on this grid)
    eps = np.finfo(float).eps
    for n in range(6, 4001, 2):
        two, gen = coeffs_two_group(n), assemble(n, 2)
        big = max(float(np.abs(v).max()) for v in (two.a, two.b, gen.a, gen.b))
        assert float(np.abs(gen.a - two.a).max()) <= 4.0 * eps * big
        assert float(np.abs(gen.b - two.b).max()) <= 4.0 * eps * big


def test_smallest_general_case_is_exact():
    c = assemble(4, 2)
    assert tuple(c.a) == (1.0, 0.0)
    assert tuple(c.b) == (0.5, 0.5)


@pytest.mark.parametrize("g,n", [(2, 8), (2, 14), (4, 16), (6, 36), (8, 64)])
def test_coefficient_sums_and_coupling(g, n):
    c = assemble(n, g)
    assert c.a.sum() == pytest.approx(1.0, abs=1e-12)
    assert c.b.sum() == pytest.approx(1.0, abs=1e-12)
    assert c.a.min() >= -1e-15 and c.b.min() >= -1e-15
    lhs = (n - g) * c.a + n * (g - 1.0) * c.b
    want = np.full(n // 2, 2.0 * g)
    want[-1] = float(g)
    assert np.abs(lhs - want).max() < 1e-12


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} used before the layout was checked")


def test_coeffs_validation(monkeypatch):
    d = np.zeros(4)
    with pytest.raises(ValueError):
        CertificateY(n=8, g=2, a=np.zeros(3), b=d)
    with pytest.raises(ValueError):
        CertificateY(n=8, g=2, a=d, b=np.zeros(5))
    with pytest.raises(ValueError):
        CertificateY(n=12, g=3, a=np.zeros(6), b=np.zeros(6))  # odd g
    # assemble refuses every bad layout before any arithmetic: numpy is cut off
    monkeypatch.setattr(certificates, "np", _NoNumpy())
    bad = [(9, 2), (12, 3), (4, 4), (8, 0), (8, -2), (6, 6), (0, 2), (-4, 2)]
    for n, g in bad:  # (4, 4) and (6, 6): one vertex per group
        with pytest.raises(ValueError):
            assemble(n, g)


def test_densify_block_structure():
    y = assemble(8, 2)
    yd = stacked(y)
    amat = circulant_dense(y.a)
    bmat = circulant_dense(y.b)
    assert np.array_equal(yd, yd.T)
    assert np.array_equal(np.diag(yd), np.full(64, 1.0 / 8))
    blocks = yd.reshape(8, 8, 8, 8).transpose(0, 2, 1, 3)
    assert np.array_equal(blocks[0, 0], np.eye(8) / 8)  # same vertex
    assert np.array_equal(blocks[0, 1], amat / 16)  # same group
    assert np.array_equal(blocks[0, 4], bmat / 16)  # across groups
    assert np.array_equal(blocks[0, 3], amat / 16)  # last of the first group
    assert np.array_equal(blocks[3, 4], bmat / 16)  # across the group border


def test_densify_respects_cap(monkeypatch):
    monkeypatch.setenv(DENSE_CAP_ENV_VAR, "1024")
    y = assemble(64, 2)
    with pytest.raises(SizeLimitError):
        y.densify()


def test_densify_follows_a_raised_cap(monkeypatch):
    # one cap bounds densify and the kron products inside it alike
    monkeypatch.setenv(DENSE_CAP_ENV_VAR, "4096")
    n = 60
    blocks = list(assemble(n, 2).densify())
    assert [len(block) for block in blocks] == [1] * n
    rows = [row for block in blocks for row in block]
    assert len(rows) == n
    for u, row in enumerate(rows):
        assert row.shape == (n, n * n)
        # offset 0 of the row's own block is Y's diagonal
        assert np.all(row.reshape(n, n, n)[:, u, 0] == 1.0 / n)


@pytest.mark.parametrize("g,n", [(2, 8), (2, 16), (4, 16)])
def test_verify_passes_dense_and_structured(g, n):
    y = assemble(n, g)
    dense = verify_povh_rendl(y, dense_view(y, force=True))
    structured = verify_povh_rendl(y, None)
    for rep in (dense, structured):
        assert rep.passed
        assert rep.residual_row_assign <= 1e-9
        assert rep.residual_col_assign <= 1e-9
        assert rep.residual_gangster <= 1e-9
        assert rep.residual_total_sum <= 1e-9
        assert rep.min_entry >= -1e-15
        assert rep.min_eig_closed_form >= -1e-12
    assert dense.dense_checked and not structured.dense_checked
    assert dense.min_eig_numeric >= -1e-12
    assert structured.min_eig_numeric is None


def test_verify_structured_scales_far_past_dense_cap():
    y = assemble(512, 2)
    rep = verify_povh_rendl(y, None)
    assert rep.passed
    assert rep.min_eig_closed_form >= -1e-12


def test_verify_auto_mode_follows_cap(monkeypatch):
    monkeypatch.delenv(DENSE_CAP_ENV_VAR, raising=False)
    y = assemble(8, 2)
    assert verify_povh_rendl(y, dense_view(y)).dense_checked  # 64 <= default cap
    monkeypatch.setenv(DENSE_CAP_ENV_VAR, "32")
    assert not verify_povh_rendl(y, dense_view(y)).dense_checked


def test_perturbed_total_sum_is_caught():
    y = assemble(8, 2)
    b = y.b.copy()
    b[1] += 0.1  # 32 across-group cells gain 0.1 each
    y = replace(y, b=b)
    rep = verify_povh_rendl(y, None)
    assert not rep.passed
    assert rep.residual_total_sum == pytest.approx(3.2, abs=1e-12)
    dense_rep = verify_povh_rendl(y, dense_view(y, force=True))
    assert dense_rep.residual_total_sum == pytest.approx(3.2, abs=1e-9)


def test_negative_coefficient_is_caught():
    y = assemble(8, 2)
    a = y.a.copy()
    a[0] -= 0.6  # drives the within-group entries below zero
    y = replace(y, a=a)
    rep = verify_povh_rendl(y, dense_view(y, force=True))
    assert not rep.passed
    assert rep.min_entry < -1e-9


@pytest.mark.parametrize("name", ["a", "b"])
def test_negative_coefficient_sets_min_entry_in_both_modes(name):
    y = assemble(8, 2)
    v = getattr(y, name).copy()
    v[1] = -0.1
    y = replace(y, **{name: v})
    for view in (None, dense_view(y, force=True)):
        assert verify_povh_rendl(y, view).min_entry == pytest.approx(-0.1 / 16, abs=1e-15)


@pytest.mark.parametrize("name", ["a", "b"])
def test_structured_min_entry_keeps_a_nan(name):
    # Python's min(0.0, ...) drops a NaN that is not its first argument
    y = assemble(16, 2)
    v = getattr(y, name).copy()
    v[1] = np.nan
    rep = verify_povh_rendl(replace(y, **{name: v}), None)
    assert np.isnan(rep.min_entry)
    assert not rep.passed


@pytest.mark.parametrize("g,n", [(2, 98), (2, 196), (4, 196), (6, 474)])
def test_structured_residuals_by_construction_are_zero(g, n):
    # n * (1/n) != 1 in floating point at these n; the residuals that the
    # certificate's form fixes are not computed from it, so they read 0.0
    y = assemble(n, g)
    povh = verify_povh_rendl(y, None)
    trace = verify_anstreicher(y, None)
    assert (
        povh.residual_row_assign,
        povh.residual_col_assign,
        povh.residual_gangster,
        trace.residual_block_sum,
        trace.residual_trace_pattern,
        trace.residual_f,
    ) == (0.0,) * 6
    assert povh.passed and trace.passed


@pytest.mark.parametrize("n", [3, 4])
def test_dense_residuals_read_the_literal_constraints(n):
    # a random symmetric Y with no circulant structure: every residual is
    # read off by looping over the constraints one entry at a time
    rng = np.random.default_rng(n)
    m = rng.normal(size=(n * n, n * n))
    y_dense = m + m.T
    pairs = [(u, s) for u in range(n) for s in range(n)]
    diag = {(u, s): y_dense[u * n + s, u * n + s] for u, s in pairs}
    row = max(abs(sum(diag[u, s] for u in range(n)) - 1.0) for s in range(n))
    col = max(abs(sum(diag[u, s] for s in range(n)) - 1.0) for u in range(n))
    forbidden = sum(
        y_dense[u * n + s, v * n + t]
        for u, s in pairs
        for v, t in pairs
        if (u == v) != (s == t)
    )
    block_sum = max(
        abs(sum(y_dense[u * n + s, u * n + t] for u in range(n)) - (s == t))
        for s in range(n)
        for t in range(n)
    )
    trace_pattern = max(
        abs(sum(y_dense[u * n + s, v * n + s] for s in range(n)) - (u == v))
        for u in range(n)
        for v in range(n)
    )
    # F^T F = J (x) I + I (x) J has entry [s == t] + [u == v]
    gram = sum(
        y_dense[u * n + s, v * n + t] * ((s == t) + (u == v))
        for u, s in pairs
        for v, t in pairs
    )
    want = (
        row,
        col,
        abs(forbidden),
        abs(y_dense.sum() - n * n),
        y_dense.min(),
        block_sum,
        trace_pattern,
        abs(gram - 2.0 * n),
    )
    got = certificates._dense_residuals(row_view(y_dense), n)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "check", ["row", "col", "gangster", "total_sum", "min_entry", "min_eig_numeric"]
)
def test_each_check_alone_fails_the_report(check, monkeypatch):
    # the verdict needs every check: one failing value among passing ones
    # fails the report
    y = assemble(8, 2)
    view = dense_view(y, force=True)
    assert verify_povh_rendl(y, view).passed
    if check == "min_eig_numeric":
        view = replace(view, eigenvalues=view.eigenvalues - 1.0)
    else:
        real = certificates._dense_residuals
        field = {"row": "row_assign", "col": "col_assign"}.get(check, check)

        def one_failing(*args):
            value = -1.0 if check == "min_entry" else 1.0
            return real(*args)._replace(**{field: value})

        monkeypatch.setattr(certificates, "_dense_residuals", one_failing)
    assert not verify_povh_rendl(y, view).passed


def test_report_serializes():
    y = assemble(8, 2)
    rep = verify_povh_rendl(y, dense_view(y))
    d = record_json(rep)
    assert d["passed"] is True
    assert d["n"] == 8
    assert isinstance(d["min_eig_closed_form"], str)


def test_objective_frozen_values():
    y8 = assemble(8, 2)
    assert objective_povh_rendl(y8) == pytest.approx(OBJ_8_2, rel=1e-13)
    y16 = assemble(16, 2)
    assert objective_povh_rendl(y16) == pytest.approx(OBJ_16_2, rel=1e-13)


@pytest.mark.parametrize("g,n", [(2, 8), (2, 16), (4, 16)])
def test_objective_double_route(g, n):
    # closed form against the brute-force dense trace
    inst = make_equal(g, n // g)
    y = assemble(n, g)
    closed = objective_povh_rendl(y)
    dense = objective_dense_trace(inst, dense_view(y, force=True))
    assert closed == pytest.approx(dense, abs=1e-12)


@pytest.mark.parametrize(
    "sizes", [(1, 2), (2, 3), (1, 2, 2), (4, 4), (3, 5), (2, 2, 2, 2)]
)
def test_objective_dense_trace_is_the_kronecker_inner_product(sizes):
    # random symmetric Y and unequal layouts: the minor blocks are no
    # circulants and D has no group symmetry, so an index-order slip shows
    inst = SimplicialInstance(sizes)
    n = inst.n_total
    rng = np.random.default_rng(n * 10 + len(sizes))
    m = rng.normal(size=(n * n, n * n))
    y = m + m.T
    want = 0.5 * float(np.sum(np.kron(inst.cost_matrix(), ring_adjacency(n)) * y))
    got = objective_dense_trace(inst, row_view(y))
    assert abs(got - want) <= 1e-12 * float(np.abs(y).sum())


@pytest.mark.parametrize("n", [5, 6])
def test_row_pass_contractions_on_a_random_matrix(n):
    # no symmetry and no circulant block: block_traces reads offset 0 of
    # every minor block and c1_inner both offsets 1 and n - 1
    rng = np.random.default_rng(n)
    y = rng.normal(size=(n * n, n * n))
    view = row_view(y)
    assert (view.min_entry, view.max_entry) == (y.min(), y.max())
    y4 = y.reshape(n, n, n, n)  # [u, s, v, t]
    tol = 1e-12 * float(np.abs(y).max())
    assert np.abs(view.block_traces - np.einsum("usvs->uv", y4)).max() <= tol
    c1_inner = np.einsum("usvt,st->uv", y4, ring_adjacency(n))
    assert np.abs(view.c1_inner - c1_inner).max() <= tol
    assert np.abs(view.diagonal_block_sum - np.einsum("usut->st", y4)).max() <= tol


def test_objective_rejects_wrong_layout():
    y = assemble(8, 2)
    with pytest.raises(ValueError):
        objective_dense_trace(make_equal(2, 3), dense_view(y, force=True))


@pytest.mark.parametrize("g,n", [(2, 8), (2, 16), (4, 16), (6, 36)])
def test_spectrum_multiset_matches_dense(g, n, dense_cert):
    _, eigs = dense_cert(g, n)
    closed = multiset(closed_form_spectrum(assemble(n, g)))
    assert np.abs(closed / (2.0 * n) - eigs).max() < 1e-8


# n = 24 and 28 end on a partial block (k = 7 and 5), n = 44 has two rows
# a block, n <= 16 one block of all n rows
BLOCK_GRID = (
    [(2, n) for n in (4, 8, 16, 24, 32, 44)]
    + [(4, n) for n in (16, 28, 32, 44)]
    + [(6, 36)]
)


@pytest.mark.parametrize("g,n", BLOCK_GRID)
def test_densify_matches_the_kronecker_oracle(g, n):
    y = assemble(n, g)
    assert np.array_equal(stacked(y), densify_kron(y))


@pytest.mark.parametrize("g,n", BLOCK_GRID)
def test_densify_yields_rows_in_offset_coordinates(g, n):
    # the repeated first rows against the slice-by-slice reindex of the
    # Kronecker sum, block by block: row u holds Y[(u, s), (v, (s + o) mod
    # n)] at [s, v, o], k = max(1, 4096 // n^2) consecutive rows a block
    # and what is left in the last
    y = assemble(n, g)
    want = offset_rows(densify_kron(y))
    k = max(1, 4096 // (n * n))
    assert certificates._block_rows(n) == k
    blocks = list(y.densify())
    sizes = [min(k, n - u) for u in range(0, n, k)]
    assert [len(block) for block in blocks] == sizes
    for u, block in zip(range(0, n, k), blocks):
        assert block.shape == (len(block), n, n * n)
        assert not block.flags.writeable
        assert np.array_equal(block, want[u : u + k])


@pytest.mark.parametrize("g,n", BLOCK_GRID)
def test_block_pass_equals_the_row_by_row_pass(g, n, monkeypatch):
    # every DenseView field and the factored stack bit for bit against the
    # pass that reads one vertex row at a time, and so is the discarded mass
    # (added up row by row in both)
    y = assemble(n, g)
    rows = [row for block in y.densify() for row in block]
    want_sums, want_stack, want_mass = row_pass_by_row(rows, n)
    _, stack, mass = certificates._row_pass(y.densify(), n)
    assert np.array_equal(stack, want_stack)
    assert mass == want_mass
    factored = []
    real = certificates.sym_eigs

    def recording(stack):
        factored.append(stack.copy())
        return real(stack)

    monkeypatch.setattr(certificates, "sym_eigs", recording)
    view = dense_view(y, force=True)
    assert len(factored) == 1 and np.array_equal(factored[0], want_stack)
    for name, value in want_sums.items():
        assert np.array_equal(getattr(view, name), value), name


def test_block_pass_on_blocks_that_mix_both_mass_branches():
    # a random non-certificate matrix whose vertex rows 1 and 4 repeat one
    # slab over s, as a certificate's do, and whose other rows keep random
    # slabs: blocks of 3 rows then mix the equal-slab and the general
    # branch, and the last block (row 6) is partial.  Y's smallest and
    # largest entry sit in the first two blocks
    n = 7
    rng = np.random.default_rng(n)
    y = rng.normal(size=(n * n, n * n))
    slab = rng.normal(size=n * n)
    rows = offset_rows(y)
    rows[[1, 4]] = slab
    rows[0, 2, 5], rows[3, 4, 6] = -9.0, 9.0
    blocks = [rows[u : u + 3] for u in range(0, n, 3)]
    assert [len(block) for block in blocks] == [3, 3, 1]
    lo, hi, _ = _slab_sums(blocks[0].reshape(3, n, n, n))
    assert (lo == hi).all(axis=(1, 2)).tolist() == [False, True, False]
    want_sums, want_stack, want_mass = row_pass_by_row(rows, n)
    assert (want_sums["min_entry"], want_sums["max_entry"]) == (-9.0, 9.0)
    sums, stack, mass = certificates._row_pass(blocks, n)
    for name, value in sums.items():
        assert np.array_equal(value, want_sums[name]), name
    assert np.array_equal(stack, want_stack)
    assert mass == want_mass


def _slab_sums(w: np.ndarray):
    """The three reductions over s of a block w [r, s, v, o] and the pass's h."""
    n = w.shape[1]
    d, lo, hi = w.sum(axis=1), w.min(axis=1), w.max(axis=1)
    return lo, hi, (d + d[:, :, -np.arange(n) % n]) / (2.0 * n)


def _mass_by_slab(w: np.ndarray, h: np.ndarray) -> float:
    """sum_s |w[s] - h|^2, one slab at a time."""
    return sum(float(np.sum((slab - h) ** 2)) for slab in w)


@pytest.mark.parametrize("g,n", BLOCK_GRID)
def test_equal_slab_mass_is_the_sum_over_slabs(g, n):
    # every certificate row repeats one slab over s, so its mass is read
    # as n |lo - h|^2; both sides add the same n^3 nonnegative squares in
    # another order, each within (n^2 - 1) eps of the total
    eps = np.finfo(float).eps
    for block in assemble(n, g).densify():
        w = block.reshape(len(block), n, n, n)
        lo, hi, h = _slab_sums(w)
        assert np.array_equal(lo, hi)
        got = certificates._row_mass(w, lo, hi, h)
        assert len(got) == len(block)
        for r, mass in enumerate(got):
            want = _mass_by_slab(w[r], h[r])
            assert abs(mass - want) <= 2.0 * n * n * eps * want


def test_a_slab_one_ulp_off_takes_the_general_branch():
    # one entry of one slab of row 1 moves up by one ulp: min and max over
    # s part at that (v, o) alone, and against h = the unmoved slab the
    # row's mass is that ulp squared, where n |lo - h|^2 would read 0; the
    # other rows of the same block keep the equal-slab branch, mass 0
    n = 8
    block = next(assemble(n, 2).densify())
    assert len(block) == n
    w = np.array(block).reshape(n, n, n, n)
    h = w[:, 0].copy()
    w[1, 3, 5, 2] = np.nextafter(w[1, 3, 5, 2], np.inf)
    lo, hi, _ = _slab_sums(w)
    assert np.count_nonzero(lo != hi) == 1
    ulp = w[1, 3, 5, 2] - h[1, 5, 2]
    got = certificates._row_mass(w, lo, hi, h)
    assert got[1] == _mass_by_slab(w[1], h[1]) == ulp * ulp > 0.0
    assert got[:1] + got[2:] == [0.0] * (n - 1)


def test_row_pass_leaves_its_rows_unchanged():
    # a writable row, not a certificate's: the general branch reads its
    # residual into a fresh array
    n = 6
    y = np.random.default_rng(n).normal(size=(n * n, n * n))
    rows = offset_rows(y)
    before = rows.copy()
    certificates._row_pass([rows[:4], rows[4:]], n)
    assert np.array_equal(rows, before)


@pytest.mark.parametrize("g,n", BLOCK_GRID)
def test_block_spectrum_matches_full_factorization(g, n, dense_cert, dense_shifted):
    # the oracle of the oracle: dense_view's streamed row pass against Y
    # held whole.  Each contraction equals the same contraction of the
    # Kronecker-sum Y, the spectra equal bit for bit those of the frequency
    # blocks cut from Y whole, and they match one eigvalsh of the whole
    # n^2 x n^2 matrix (of Y and of Y - J/n^2) and the closed form.  Every
    # gangster entry of Y is exactly 0.0, so their sum is too
    y = assemble(n, g)
    view = dense_view(y, force=True)
    yd = densify_kron(y)
    y4 = yd.reshape(n, n, n, n)  # [u, s, v, t]
    assert np.array_equal(view.block_traces, np.einsum("usvs->uv", y4))
    assert np.array_equal(view.diagonal_block_sum, np.einsum("usut->st", y4))
    c1_inner = np.einsum("usvt,st->uv", y4, ring_adjacency(n))
    assert np.array_equal(view.c1_inner, c1_inner)
    assert (view.min_entry, view.max_entry) == (yd.min(), yd.max())
    assert verify_povh_rendl(y, view).residual_gangster == 0.0
    # the same sum in another order: pairwise per vertex row, then row by row
    eps = np.finfo(float).eps
    assert abs(view.entry_sum - yd.sum()) <= 4.0 * n * eps * np.abs(yd).sum()
    blocks = frequency_blocks_whole(yd)
    assert blocks.shape == (n // 2 + 1, n, n)
    values = np.linalg.eigh(np.concatenate([blocks, blocks[:1] - 1.0 / n]))[0]
    # frequency k of all n reads the block of min(k, n - k)
    folded = values[np.minimum(np.arange(n), n - np.arange(n))]
    assert np.array_equal(view.eigenvalues, np.sort(folded, axis=None))
    shifted = np.concatenate([values[-1:], folded[1:]])
    assert np.array_equal(view.shifted_eigenvalues, np.sort(shifted, axis=None))
    # the Q-conjugation route, one block per frequency, agrees to roundoff
    qblocks = fourier_blocks_conjugated(yd)
    qvalues = np.linalg.eigvalsh(np.concatenate([qblocks, qblocks[:1] - 1.0 / n]))
    assert np.abs(view.eigenvalues - np.sort(qvalues[:n], axis=None)).max() <= 1e-13
    qshifted = np.sort(qvalues[1:], axis=None)
    assert np.abs(view.shifted_eigenvalues - qshifted).max() <= 1e-13
    _, full = dense_cert(g, n)
    assert view.eigenvalues.shape == (n * n,)
    assert np.abs(view.eigenvalues - full).max() <= 1e-13
    closed = multiset(y.spectrum) / (2.0 * n)
    assert np.abs(view.eigenvalues - closed).max() <= 1e-13
    assert view.shifted_eigenvalues.shape == (n * n,)
    assert np.abs(view.shifted_eigenvalues - dense_shifted(g, n)).max() <= 1e-12


def _peak(call, *args) -> int:
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_view_memory_stays_small():
    # each block of vertex rows is a read-only view of its n x n slabs, so
    # the pass holds no n x n^2 row, only the stack of n/2 + 2 frequency
    # blocks that sym_eigs factors with no copy: 1.18 MiB at n = 44, where
    # an eigenpair residual formed out of place peaked at 1.54 MiB, a tiled
    # row and a concatenated stack at 1.9 MiB, a separate residual buffer
    # at 2.5 MiB, conjugating each row by the real Fourier basis at 4.1
    # MiB, and Y held whole, n^4 floats, is 28.6 MiB
    peak = _peak(dense_view, assemble(44, 2), True)
    assert peak < 1.35 * 2**20, peak


def test_dense_view_memory_past_the_default_cap(monkeypatch):
    # at n = 64 the stack of blocks is 1.06 MiB: the view peaks at 3.37 MiB,
    # in the eigenpair check of the factored stack (the stack, its
    # eigenvectors and the residual formed in place), where a residual
    # formed out of place peaked at 4.43 MiB, a concatenated copy of the
    # stack at 5.5 MiB, a separate residual buffer at 7.4 MiB, and Y whole
    # is 128 MiB
    n = 64
    monkeypatch.setenv(DENSE_CAP_ENV_VAR, str(n * n))
    peak = _peak(dense_view, assemble(n, 4), True)
    assert peak < 3.6 * 2**20, peak


def test_row_pass_holds_one_row_at_a_time(monkeypatch):
    # at n = 64 a block holds one row (k = 1), and a tiled row would be 2
    # MiB: the rows are views of 32 KiB slabs, and the pass peaks at 2.43
    # MiB after the last row, with one block-sized array beside the 1.06
    # MiB stack (the antisymmetric part, then the symmetrisation's buffered
    # read), where keeping the antisymmetric part through the
    # symmetrisation peaked at 3.46 MiB and holding the last tiled row
    # while densify made the next at 5.4 MiB
    n = 64
    monkeypatch.setenv(DENSE_CAP_ENV_VAR, str(n * n))
    y = assemble(n, 4)
    assert [len(block) for block in y.densify()] == [1] * n
    peak = _peak(certificates._row_pass, y.densify(), n)
    assert peak < 2.6 * 2**20, peak


@pytest.mark.parametrize("g,n", [(2, 8), (4, 44)])
def test_dense_view_factors_half_the_frequency_blocks(g, n, monkeypatch):
    # M_k = M_{n-k}: blocks k = 0..n/2 and the shifted M_0, in one call
    shapes = []
    real = certificates.sym_eigs

    def recording(stack):
        shapes.append(stack.shape)
        return real(stack)

    monkeypatch.setattr(certificates, "sym_eigs", recording)
    view = dense_view(assemble(n, g), force=True)
    assert shapes == [(n // 2 + 2, n, n)]
    assert view.eigenvalues.shape == view.shifted_eigenvalues.shape == (n * n,)


def test_dense_view_past_the_default_cap(monkeypatch):
    # n = 64 is past the n <= 45 of the default cap: the dense spectra and
    # both verifiers still agree with the closed forms
    n, g = 64, 4
    monkeypatch.setenv(DENSE_CAP_ENV_VAR, str(n * n))
    y = assemble(n, g)
    view = dense_view(y)
    closed = multiset(y.spectrum) / (2.0 * n)
    assert np.abs(view.eigenvalues - closed).max() <= 1e-12
    shifted = multiset(shifted_spectrum(y.spectrum))
    assert np.abs(view.shifted_eigenvalues - shifted).max() <= 1e-12
    report = verify_povh_rendl(y, view)
    assert report.passed and report.dense_checked
    assert verify_anstreicher(y, view).passed


def test_dense_view_refuses_a_matrix_off_the_circulant_structure(monkeypatch):
    n, delta = 8, 1e-3
    y = assemble(n, 2)
    tilted = stacked(y)
    # vertex 0 at position 1 against vertex 5 at position 2: the same
    # vertex pair at positions (2, 3) keeps its old value, so the minor
    # block is no longer circulant
    i, j = 0 * n + 1, 5 * n + 2
    tilted[i, j] += delta
    tilted[j, i] += delta
    monkeypatch.setattr(
        type(y), "densify", lambda self: iter(offset_blocks(tilted))
    )
    with pytest.raises(ConvergenceError) as exc:
        dense_view(y, force=True)
    # the moved pair has Frobenius mass sqrt(2) delta; at most a 2/n share
    # of its square lands on the frequency diagonal, and the projection onto
    # symmetric circulants keeps a 1/2n share: delta/2n at offsets +-1
    assert np.sqrt(2.0 * (1.0 - 2.0 / n)) * delta <= exc.value.residual
    exact = np.sqrt(2.0 - 1.0 / n) * delta
    assert exc.value.residual == pytest.approx(exact, rel=1e-9)
    assert exc.value.residual <= np.sqrt(2.0) * delta + 1e-12
    assert exc.value.residual > EIG_TOL * np.abs(tilted).max()
    assert exc.value.dim == n * n


def test_dense_view_refuses_a_circulant_block_off_its_mirror(monkeypatch):
    # Y stays symmetric and every minor block circulant, but block (0, 5)
    # gains the antisymmetric circulant delta (S - S^T), S the cyclic shift,
    # and block (5, 0) its transpose: the projection onto symmetric
    # circulants discards exactly that part, of mass 2n delta^2 per block
    n, delta = 8, 1e-3
    y = assemble(n, 2)
    tilted = stacked(y)
    shift = np.roll(np.eye(n), 1, axis=1)
    tilted[0:n, 5 * n : 6 * n] += delta * (shift - shift.T)
    tilted[5 * n : 6 * n, 0:n] += delta * (shift.T - shift)
    assert np.array_equal(tilted, tilted.T)
    monkeypatch.setattr(
        type(y), "densify", lambda self: iter(offset_blocks(tilted))
    )
    with pytest.raises(ConvergenceError) as exc:
        dense_view(y, force=True)
    assert exc.value.residual == pytest.approx(2.0 * np.sqrt(n) * delta, rel=1e-9)


def test_dense_view_counts_the_antisymmetric_mass_per_frequency(monkeypatch):
    # symmetric circulant blocks with Y^(05) != Y^(50): the discarded mass
    # is the antisymmetric part of the frequency blocks, counted once at
    # k = 0 and n/2 and twice for each pair (k, n - k), which is the
    # antisymmetric part of Y itself
    n, delta = 8, 1e-3
    y = assemble(n, 2)
    tilted = stacked(y)
    shift = np.roll(np.eye(n), 1, axis=1)
    tilted[0:n, 5 * n : 6 * n] += delta * (shift + shift.T)
    monkeypatch.setattr(
        type(y), "densify", lambda self: iter(offset_blocks(tilted))
    )
    with pytest.raises(ConvergenceError) as exc:
        dense_view(y, force=True)
    anti = 0.5 * np.linalg.norm(tilted - tilted.T)
    assert anti == pytest.approx(np.sqrt(n) * delta, rel=1e-12)
    assert exc.value.residual == pytest.approx(anti, rel=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dense_view_refuses_a_non_finite_entry(bad, monkeypatch):
    # Y stays symmetric, but where the row meets its projection the pass
    # reads NaN - h or inf - inf, so the discarded mass is NaN: the Weyl
    # check refuses it before any block reaches sym_eigs
    n = 8
    y = assemble(n, 2)
    tilted = stacked(y)
    i, j = 0 * n + 1, 5 * n + 2
    tilted[i, j] = tilted[j, i] = bad
    with np.errstate(invalid="ignore"):
        sums, _, discarded = certificates._row_pass(offset_blocks(tilted), n)
    assert np.isnan(discarded)
    if np.isnan(bad):
        assert np.isnan(sums["min_entry"]) and np.isnan(sums["max_entry"])
    else:
        assert sums["max_entry"] == np.inf
    monkeypatch.setattr(
        type(y), "densify", lambda self: iter(offset_blocks(tilted))
    )
    with pytest.raises(ConvergenceError) as exc, np.errstate(invalid="ignore"):
        dense_view(y, force=True)
    assert np.isnan(exc.value.residual)


def test_spectrum_bookkeeping():
    spectrum = closed_form_spectrum(assemble(8, 2))
    assert len(multiset(spectrum)) == 64
    assert spectrum.coupled[0] == pytest.approx(16.0, abs=1e-12)
    for value in spectrum.coupled[1:]:
        assert abs(value) <= 1e-12
    assert spectrum.min_value() >= -1e-12
    # 2 - 2 * a-profile at k=1 for n=8: profile is 1/3, eigenvalue 4/3
    assert spectrum.plain[1] == pytest.approx(4.0 / 3.0, abs=1e-14)


def test_spectrum_is_computed_once_per_certificate(monkeypatch):
    calls = []

    def counting(y):
        calls.append(y.n)
        return closed_form_spectrum(y)

    monkeypatch.setattr(certificates, "closed_form_spectrum", counting)
    y = assemble(16, 2)
    view = dense_view(y, force=True)
    assert verify_povh_rendl(y, view).passed
    assert verify_anstreicher(y, view).passed
    assert verify_anstreicher(y, None).passed
    assert calls == [16]
    assert y.spectrum is y.spectrum


def test_verified_certificate_cannot_be_edited_into_a_stale_spectrum():
    y = assemble(8, 2)
    assert verify_povh_rendl(y, None).passed  # caches the spectrum
    with pytest.raises(ValueError):
        y.a[0] -= 0.4
    with pytest.raises(FrozenInstanceError):
        y.a = np.zeros(4)
    a = y.a.copy()
    a[0] -= 0.4
    a[1] += 0.4
    shifted = replace(y, a=a)
    a[:] = 0.0  # the certificate holds its own copy
    assert shifted.a[0] == y.a[0] - 0.4
    rep = verify_povh_rendl(shifted, None)
    assert not rep.passed
    assert rep.min_eig_closed_form == pytest.approx(-0.15, abs=1e-12)
    assert verify_povh_rendl(y, None).passed


def test_lower_bound_akk_hits_floor_at_small_n():
    assert lower_bound_akk(assemble(8, 2)) == pytest.approx(-1.0 / 3, abs=1e-14)


def test_lower_bound_akk_rejects_broken_profiles():
    y = assemble(8, 2)
    for a0 in (2.0, -1.0):
        a = y.a.copy()
        a[0] = a0
        with pytest.raises(ArithmeticError):
            lower_bound_akk(replace(y, a=a))


@pytest.mark.parametrize("g", [2, 4, 6, 8, 10])
def test_profile_identities_on_grid(g):
    for n in range(2 * g, 201, 2 * g):
        if n // g < 2:
            continue
        res = profile_identity_residuals(assemble(n, g))
        worst = max(abs(v) for v in res.values())
        assert worst <= 1e-9, (g, n, res)


@pytest.mark.parametrize("n,g", [(2**20, 2), (1048572, 6)])
def test_profile_checks_at_a_million(n, g):
    # the FFT profile keeps the floor -g/(n-g) and every identity at the
    # size where lower_bound_akk's margin is smallest
    y = assemble(n, g)
    assert lower_bound_akk(y) >= -g / (n - g) - 1e-10
    res = profile_identity_residuals(y)
    worst = max(abs(v) for v in res.values())
    assert worst <= 1e-9, (g, n, res)


def test_a_profile_against_50_digit_sum():
    n = 2**16
    y = assemble(n, 2)
    prof = cosine_profile(y.a, n)
    with mpmath.workdps(50):
        for k in (1, 2, n // 2):
            exact = mpmath.fsum(
                mpmath.mpf(float(a)) * mpmath.cospi(mpmath.mpf(2 * i * k) / n)
                for i, a in enumerate(y.a, start=1)
            )
            assert abs(float(exact) - prof[k]) <= 1e-14, k
