import pytest

from wgl.pyramid import Partition, ScalarMatrix
from wgl.series import (
    BiSeries,
    SeriesElem,
    SeriesMatrix,
    inverse_mixed_identity_check,
    invert_matrix,
    noncomm_det,
    opposite_mul,
    quasideterminant,
    sandwich,
    solve,
    yangian_identity_check,
)
from wgl.uea import Algebra

from conftest import gl_algebra, gl_gen, z_plus_E


@pytest.fixture(scope="module")
def zE2(gl2):
    return z_plus_E(gl2)


@pytest.fixture(scope="module")
def zE3(gl3):
    return z_plus_E(gl3)


# ---------------------------------------------------------------------------
# scalar series plumbing


def test_series_construction_and_coeffs(gl2):
    s = SeriesElem(gl2, {2: gl_gen(gl2, 1, 2), -4: gl2.one()}, -6)
    assert s.coeff2(2) == gl_gen(gl2, 1, 2)
    assert s.coeff2(-4) == gl2.one()
    assert s.coeff2(10).is_zero()
    assert s.top2() == 2
    assert sorted(s.exponents2()) == [-4, 2]


def test_series_coeff_below_floor_raises(gl2):
    s = SeriesElem(gl2, {0: gl2.one()}, -4)
    with pytest.raises(ValueError):
        s.coeff2(-6)


def test_series_addition_keeps_the_shallower_floor(gl2):
    a = SeriesElem(gl2, {0: gl2.one()}, -4)
    b = SeriesElem(gl2, {-6: gl2.one()}, -8)
    s = a + b
    # nothing is known about a below z^-2, so neither is about the sum
    assert s.floor2 == -4
    assert s.coeff2(-4).is_zero()
    with pytest.raises(ValueError):
        s.coeff2(-6)


def test_series_shift_and_truncate(gl2):
    s = SeriesElem(gl2, {0: gl2.one(), -2: gl_gen(gl2, 1, 1)}, -4)
    t = s.shift2(4)
    assert t.coeff2(4) == gl2.one() and t.floor2 == 0
    u = s.truncate2(0)
    assert u.floor2 == 0 and list(u.exponents2()) == [0]


def test_series_product_respects_floors(gl2):
    x, y = gl_gen(gl2, 1, 2), gl_gen(gl2, 2, 1)
    a = SeriesElem(gl2, {0: x}, -4)
    b = SeriesElem(gl2, {0: y}, -2)
    prod = a * b
    assert prod.coeff2(0) == x * y
    # floor of the product: top of one factor against the floor of the other
    assert prod.floor2 == -2


def test_z_pow_and_exactness(gl2):
    z2 = SeriesElem(gl2, {4: gl2.one()})
    assert z2.coeff2(4) == gl2.one() and z2.floor2 is None
    assert (z2 * z2).coeff2(8) == gl2.one()


# ---------------------------------------------------------------------------
# matrices, inverses, determinants


def test_matrix_inverse_of_polynomial_matrix(gl2, zE2):
    f2 = -10
    inv = invert_matrix(zE2, f2)
    prod = zE2.matmul(inv, floor2=f2)
    ident = SeriesMatrix.identity(gl2, 2)
    assert prod.agrees_with(ident, f2)
    prod2 = inv.matmul(zE2, floor2=f2)
    assert prod2.agrees_with(ident, f2)


def test_matrix_inverse_exact_for_unitriangular(gl2):
    x = gl_gen(gl2, 1, 2)
    one = SeriesElem.from_element(gl2, gl2.one())
    zero = SeriesElem.zero(gl2)
    M = SeriesMatrix(gl2, [[one, SeriesElem.from_element(gl2, x)], [zero, one]])
    inv = invert_matrix(M)
    assert inv.data[0][1].coeff2(0) == -x
    assert M.matmul(inv).agrees_with(SeriesMatrix.identity(gl2, 2))


def test_solve_keeps_T_whole(gl2):
    # A = 1 + e11 z^{-2}: T = e11 z^{-2} lies below the cut at z^{-1}, but
    # the right-hand side z^2 lifts T·Y up to z^0
    e = gl_gen(gl2, 1, 1)
    A = SeriesMatrix(gl2, [[SeriesElem(gl2, {0: gl2.one(), -4: e})]])
    Y = SeriesMatrix(gl2, [[SeriesElem(gl2, {4: gl2.one()})]])
    X = solve(A, Y, f2=-2)
    assert X.data[0][0].terms == {4: gl2.one(), 0: -e}
    assert A.matmul(X).first_diff(Y) is None


def test_noncomm_det_on_scalars_matches_ordinary_det(gl2):
    M = SeriesMatrix.from_scalar(gl2, ScalarMatrix.from_rows([[1, 2], [3, 4]]))
    for mode in ("row", "column"):
        d = noncomm_det(M, mode)
        assert d.coeff2(0) == gl2.scalar(-2)


def test_row_and_column_det_order_factors_differently(gl2, zE2):
    e = lambda i, j: gl_gen(gl2, i, j)
    rdet = noncomm_det(zE2, "row").coeff2(0)
    cdet = noncomm_det(zE2, "column").coeff2(0)
    # entry (i,j) of the matrix is e_ji
    assert rdet == e(1, 1) * e(2, 2) - e(2, 1) * e(1, 2)
    assert cdet == e(1, 1) * e(2, 2) - e(1, 2) * e(2, 1)


def test_quasideterminant_methods_agree(gl3, zE3):
    I1 = ScalarMatrix.from_rows([[1], [0], [0]])
    J1 = ScalarMatrix.from_rows([[1, 0, 0]])
    f2 = -6
    qd = quasideterminant(zE3, I1, J1, f2, method="definition")
    qs = quasideterminant(zE3, I1, J1, f2, method="submatrix")
    assert qd.agrees_with(qs, f2)
    # 'both' recomputes the two routes and insists on agreement
    qb = quasideterminant(zE3, I1, J1, f2, method="both")
    assert qb.agrees_with(qd, f2)


def test_quasideterminant_of_full_selector_is_matrix_itself(gl2, zE2):
    ident = ScalarMatrix.identity(2)
    q = quasideterminant(zE2, ident, ident, -4)
    assert q.agrees_with(zE2, -4)


# ---------------------------------------------------------------------------
# defining identity of Yangian-type operators, and its closure properties


def test_z_plus_E_satisfies_yangian_identity(gl2, zE2):
    ok, wit = yangian_identity_check(zE2)
    assert ok, wit


def test_sandwich_by_scalar_matrices_stays_yangian(gl3, zE3):
    J = ScalarMatrix.from_rows([[1, 0, 2], [0, 1, 0]])
    I = ScalarMatrix.from_rows([[1, 0], [0, 3], [1, 0]])
    ok, wit = yangian_identity_check(sandwich(J, zE3, I))
    assert ok, wit


def test_inverse_is_yangian_for_opposite_product(gl2, zE2):
    inv = invert_matrix(zE2, -8)
    ok, wit = yangian_identity_check(inv, mul=opposite_mul)
    assert ok, wit
    # and for the straight product it fails, so the check has teeth
    ok2, _ = yangian_identity_check(inv)
    assert not ok2


def test_corner_quasideterminant_is_yangian(gl3, zE3):
    I1 = ScalarMatrix.from_rows([[1], [0], [0]])
    J1 = ScalarMatrix.from_rows([[1, 0, 0]])
    q = quasideterminant(zE3, I1, J1, -5)
    ok, wit = yangian_identity_check(q)
    assert ok, wit


def test_mixed_commutator_identity_with_inverse(gl2, zE2):
    inv = invert_matrix(zE2, -6)
    ok, wit = inverse_mixed_identity_check(zE2, inv)
    assert ok, wit


# ---------------------------------------------------------------------------
# bivariate grids


def test_biseries_z_minus_w_on_product_grid(gl2):
    a = SeriesElem(gl2, {2: gl_gen(gl2, 1, 1)})
    b = SeriesElem(gl2, {0: gl_gen(gl2, 2, 2)})
    grid = BiSeries.product_grid(a, b, lambda x, y: x * y)
    assert grid.terms[(2, 0)] == gl_gen(gl2, 1, 1) * gl_gen(gl2, 2, 2)
    shifted = grid.z_minus_w()
    assert shifted.terms[(4, 0)] == gl_gen(gl2, 1, 1) * gl_gen(gl2, 2, 2)
    assert shifted.terms[(2, 2)] == -(gl_gen(gl2, 1, 1) * gl_gen(gl2, 2, 2))


def test_commutator_grid_vanishes_for_commuting_entries(gl2):
    a = SeriesElem(gl2, {0: gl_gen(gl2, 1, 1)})
    b = SeriesElem(gl2, {0: gl_gen(gl2, 2, 2)})
    assert BiSeries.commutator_grid(a, b, lambda x, y: x * y).is_zero()


# ---------------------------------------------------------------------------
# truncation stability


def test_inverse_truncation_is_stable(gl2, zE2):
    deep = invert_matrix(zE2, -8)
    shallow = invert_matrix(zE2, -6)
    # raising the deep inverse's floor must reproduce the shallow run exactly
    assert deep.truncate2(-6).to_json_obj() == shallow.to_json_obj()
