import random
from itertools import product

import pytest

from wgl.pyramid import Partition, ScalarMatrix
from wgl.quotient import act, reduce_mod_I, w_product
from wgl.series import (
    SeriesElem,
    SeriesMatrix,
    _detect_pivot,
    inverse_mixed_identity_check,
    invert_matrix,
    noncomm_det,
    quasideterminant,
    quasideterminant_by_definition,
    solve,
    yangian_identity_check,
)
from wgl.uea import Algebra

from conftest import gl_algebra, gl_gen, opposite_mul, random_element, sandwich, z_plus_E


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
    prod = a.mul(b)
    assert prod.coeff2(0) == x * y
    # floor of the product: top of one factor against the floor of the other
    assert prod.floor2 == -2


def test_z_pow_and_exactness(gl2):
    z2 = SeriesElem(gl2, {4: gl2.one()})
    assert z2.coeff2(4) == gl2.one() and z2.floor2 is None
    assert z2.mul(z2).coeff2(8) == gl2.one()


# ---------------------------------------------------------------------------
# matrices, inverses, determinants


def test_matrix_inverse_of_polynomial_matrix(gl2, zE2):
    f2 = -10
    inv = invert_matrix(zE2, f2)
    prod = zE2.matmul(inv, floor2=f2)
    ident = SeriesMatrix.identity(gl2, 2)
    assert prod.first_diff(ident, f2) is None
    prod2 = inv.matmul(zE2, floor2=f2)
    assert prod2.first_diff(ident, f2) is None


def test_matrix_inverse_exact_for_unitriangular(gl2):
    x = gl_gen(gl2, 1, 2)
    one = SeriesElem.from_element(gl2, gl2.one())
    zero = SeriesElem(gl2, {})
    # a letter in the top coefficient matrix leaves no scalar pivot
    M = SeriesMatrix(gl2, [[one, SeriesElem.from_element(gl2, x)], [zero, one]])
    with pytest.raises(ArithmeticError, match="no invertible scalar pivot"):
        invert_matrix(M)
    # one step below the top it is part of T, which is nilpotent
    M = SeriesMatrix(gl2, [[one, SeriesElem(gl2, {-2: x})], [zero, one]])
    inv = invert_matrix(M)
    assert inv.data[0][1].terms == {-2: -x}
    assert {e.floor2 for row in inv.data for e in row} == {None}
    assert M.matmul(inv).first_diff(SeriesMatrix.identity(gl2, 2)) is None


def test_an_exact_solve_that_does_not_end_is_refused(gl2):
    # 1 + e11 z^{-1}: the inverse sum_l (-e11)^l z^{-l} never ends
    A = SeriesMatrix(gl2, [[SeriesElem(gl2, {0: gl2.one(), -2: gl_gen(gl2, 1, 1)})]])
    with pytest.raises(ArithmeticError,
                       match="does not end at z\\^0 or above: solving needs a floor"):
        invert_matrix(A)


def test_solve_keeps_T_whole(gl2):
    # A = 1 + e11 z^{-2}: T = e11 z^{-2} lies below the cut at z^{-1}, but
    # the right-hand side z^2 lifts T·Y up to z^0
    e = gl_gen(gl2, 1, 1)
    A = SeriesMatrix(gl2, [[SeriesElem(gl2, {0: gl2.one(), -4: e})]])
    Y = SeriesMatrix(gl2, [[SeriesElem(gl2, {4: gl2.one()})]])
    X = solve(A, Y, f2=-2)
    assert X.data[0][0].terms == {4: gl2.one(), 0: -e}
    assert A.matmul(X).first_diff(Y) is None


def test_a_decaying_pivot_with_no_floor_is_refused_by_the_division():
    # z·1 + E over (2): the top pivot z^1 leaves T = z^{-1}E, whose powers
    # never vanish, so the division runs past its bound without a floor
    alg = Algebra(Partition((2,)))
    A = SeriesMatrix(alg, [[SeriesElem(alg, {2: alg.one(), 0: alg.gen(b, a)} if a == b
                                       else {0: alg.gen(b, a)})
                            for b in alg.boxes] for a in alg.boxes])
    with pytest.raises(ArithmeticError, match="needs a floor"):
        invert_matrix(A, None)
    assert A.matmul(invert_matrix(A, -6), floor2=-6).first_diff(
        SeriesMatrix.identity(alg, 2), -6) is None


def test_an_exact_solve_with_a_pivot_off_z0_ends():
    # [[z, 1], [0, z]]: the pivot z^1 leaves a nilpotent T, and the inverse
    # [[z^-1, -z^-2], [0, z^-1]] is a Laurent polynomial
    alg = Algebra(Partition((2,)))
    one = alg.one()
    A = SeriesMatrix(alg, [[SeriesElem(alg, {2: one}), SeriesElem(alg, {0: one})],
                           [SeriesElem(alg, {}), SeriesElem(alg, {2: one})]])
    inv = invert_matrix(A)
    assert [[e.terms for e in row] for row in inv.data] == [
        [{-2: one}, {-4: -one}], [{}, {-2: one}]]
    assert {e.floor2 for row in inv.data for e in row} == {None}


def test_a_matrix_known_only_above_its_pivot_is_refused():
    # off-diagonal entries known to vanish only above z^1: each row's floor
    # would sit above the other's, with no end
    alg = Algebra(Partition((2,)))
    one, unknown = SeriesElem(alg, {0: alg.one()}), SeriesElem(alg, {}, 2)
    A = SeriesMatrix(alg, [[one, unknown], [unknown, one]])
    with pytest.raises(ArithmeticError, match="do not settle"):
        invert_matrix(A, -4)


def test_a_vanishing_power_carries_its_floor_into_the_solution():
    # 1 + O(z^{-1/2}) over (2): T is zero but known only above z^{-1/2}, so
    # the inverse is 1 + O(z^{-1/2}) at any floor asked for, and an exact
    # solve of it is refused
    alg = Algebra(Partition((2,)))
    A = SeriesMatrix(alg, [[SeriesElem(alg, {0: alg.one()}, -1)]])
    with pytest.raises(ArithmeticError, match="needs a floor"):
        invert_matrix(A)
    deep = invert_matrix(A, -6)
    assert deep.data[0][0].terms == {0: alg.one()} and deep.data[0][0].floor2 == -1


def _geometric_solve(A, Y, mul=None, f2=None, row_scale=None, col_scale=None):
    """The oracle for `solve`: Dc·sum_l (-T)^l·(pre·Dr·Y), every partial
    power formed and cut at f2 - max(cs), or summed whole with no f2.

    It takes in the floors of its first zero power too: a power that
    vanishes because T is known only above some floor leaves the solution
    unknown below the floor that power carries."""
    alg, n = A.alg, A.rows
    M, Y0 = A, Y
    if row_scale is not None:
        M, Y0 = M.scale_rows(row_scale), Y0.scale_rows(row_scale)
    if col_scale is not None:
        M = M.scale_cols(col_scale)
    d2, Cinv = _detect_pivot(M)
    g2 = None if f2 is None else f2 - max(col_scale or (), default=0)
    pre = SeriesMatrix.from_scalar(alg, Cinv, -d2)
    negT = SeriesMatrix.identity(alg, n) - pre.matmul(M, mul)
    S = term = pre.matmul(Y0, mul).truncate2(g2)
    for _ in range(100):
        term = negT.matmul(term, mul, g2).truncate2(g2)
        S = S + term
        if all(e.is_zero() for row in term.data for e in row):
            break
    else:
        raise AssertionError("the oracle's series did not terminate")
    if col_scale is not None:
        S = S.scale_rows(col_scale)
    return S.truncate2(f2)


def _random_decaying(alg, rng, n, fa, scales, reduced, strict=False):
    """A random n x n matrix whose scaled form Dr·A·Dc has the scalar top
    z^{d/2}·C, C unitriangular up to a permutation, over terms one or two
    half-steps lower; every entry of the scaled form is floored at d + fa
    (T then at fa) when fa is not None.  With strict, d = 0, C is upper
    triangular and the lower terms lie above the diagonal, so T is strictly
    upper triangular and T^n = 0."""
    d = 0 if strict else rng.choice([-2, 0, 1, 2])
    perm = list(range(n)) if strict else rng.sample(range(n), n)
    rs, cs = scales
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {}
            if j == perm[i]:
                terms[d] = alg.scalar(rng.choice([1, -1, 2]))
            elif j > perm[i] and rng.random() < 0.5:
                terms[d] = alg.scalar(rng.choice([1, -1]))
            for k in (1, 2):
                if rng.random() < 0.6 and not (strict and j <= i):
                    x = random_element(alg, rng, max_deg=1, max_terms=2)
                    terms[d - k] = reduce_mod_I(x) if reduced else x
            floor = None if fa is None else d + fa
            row.append(SeriesElem(alg, terms, floor).shift2(-rs[i] - cs[j]))
        rows.append(row)
    return SeriesMatrix(alg, rows)


@pytest.mark.parametrize("parts", [(2, 1), (2, 1, 1)])
@pytest.mark.parametrize("ring", ["uea", "act", "w_product"])
def test_solve_matches_the_geometric_series_oracle(parts, ring):
    alg = Algebra(Partition(parts))
    mul = {"uea": None, "act": act, "w_product": w_product}[ring]
    rng = random.Random(f"{parts}{ring}")
    # T unfloored, floored at f2 as in the W-inverse, or above f2 as the
    # definition route's can be; each with and without scales
    for fa, scaled in product([None, 0, 2], [False, True]):
        n, m = rng.choice([1, 2, 3]), rng.choice([1, 2])
        f2 = rng.choice([-4, -3])
        fa = None if fa is None else f2 + fa
        rs = [rng.choice([-2, -1, 0, 1, 2]) for _ in range(n)] if scaled else [0] * n
        cs = rng.sample([-2, 0, 2], n) if scaled else [0] * n
        A = _random_decaying(alg, rng, n, fa, (rs, cs), ring == "w_product")
        Y = SeriesMatrix(alg, [[SeriesElem(alg, {
            rng.choice([-1, 0, 2]): reduce_mod_I(random_element(alg, rng, max_deg=1))})
            for _ in range(m)] for _ in range(n)])
        args = (A, Y, mul, f2) + ((rs, cs) if scaled else ())
        got, want = solve(*args), _geometric_solve(*args)
        assert [[e.terms for e in row] for row in got.data] \
            == [[e.terms for e in row] for row in want.data]
        assert [[e.floor2 for e in row] for row in got.data] \
            == [[e.floor2 for e in row] for row in want.data]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("ring", ["uea", "act", "w_product"])
def test_exact_solve_matches_the_geometric_series_oracle(n, ring):
    # T strictly upper triangular: the geometric series ends, and solve
    # with no floor gives its whole sum, with and without scales
    alg = Algebra(Partition((2, 1)))
    mul = {"uea": None, "act": act, "w_product": w_product}[ring]
    rng = random.Random(f"exact{n}{ring}")
    for scaled in (False, True):
        m = rng.choice([1, 2])
        rs = [rng.choice([-2, -1, 0, 1, 2]) for _ in range(n)] if scaled else [0] * n
        cs = rng.sample([-2, 0, 2], n) if scaled else [0] * n
        A = _random_decaying(alg, rng, n, None, (rs, cs), ring == "w_product", True)
        Y = SeriesMatrix(alg, [[SeriesElem(alg, {
            rng.choice([-1, 0, 2]): reduce_mod_I(random_element(alg, rng, max_deg=1))})
            for _ in range(m)] for _ in range(n)])
        args = (A, Y, mul, None) + ((rs, cs) if scaled else ())
        got = solve(*args)
        assert got.data == _geometric_solve(*args).data
        assert {e.floor2 for row in got.data for e in row} == {None}


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
    f2 = -6
    for mul in (None, opposite_mul):
        qs = quasideterminant(zE3, [0], [0], f2, mul)
        # the corner of z + E tops out at z^1
        qd = quasideterminant_by_definition(zE3, [0], [0], f2, 2, mul)
        assert qs.max_top2() == 2
        assert qd.first_diff(qs, f2) is None
        assert {e.floor2 for q in (qs, qd) for row in q.data for e in row} == {f2}


def test_quasideterminant_of_full_selector_is_matrix_itself(gl2, zE2):
    q = quasideterminant(zE2, [0, 1], [0, 1], -4)
    assert q.first_diff(zE2, -4) is None


@pytest.mark.parametrize("rows, cols", [
    ([0, 1], [0]), ([0, 0], [1, 2]), ([0], [3]), ([-1], [0])],
    ids=["unequal-lengths", "repeated-index", "out-of-range", "negative"])
def test_quasideterminant_refuses_bad_corner_indices(zE3, rows, cols):
    with pytest.raises(ValueError, match="corner indices"):
        quasideterminant(zE3, rows, cols, -4)
    with pytest.raises(ValueError, match="corner indices"):
        quasideterminant_by_definition(zE3, rows, cols, -4, 2)


def test_the_corner_of_a_square_matrix_only(gl2, zE2):
    wide = SeriesMatrix(gl2, [list(row) + [row[0]] for row in zE2.data])
    with pytest.raises(ValueError, match="not square"):
        quasideterminant(wide, [0], [0], -4)


def test_scalar_matrix2_reads_scalar_coefficients_only(gl2):
    e = gl_gen(gl2, 1, 2)
    M = SeriesMatrix(gl2, [[SeriesElem(gl2, {2: gl2.scalar(3), 0: e}), SeriesElem(gl2, {})],
                           [SeriesElem(gl2, {0: gl2.one()}, -2), SeriesElem(gl2, {}, 4)]])
    # an absent coefficient reads as 0, also below an entry's floor
    assert M.scalar_matrix2(2) == ScalarMatrix.from_rows([[3, 0], [0, 0]])
    assert M.scalar_matrix2(-4) == ScalarMatrix.from_rows([[0, 0], [0, 0]])
    # a letter anywhere at z^0 leaves no scalar matrix: the known-bad control
    assert M.scalar_matrix2(0) is None
    assert M.map_entries(lambda s: s.truncate2(2)).scalar_matrix2(0) \
        == ScalarMatrix.from_rows([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        M.data[1][1].coeff2(2)


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
    q = quasideterminant(zE3, [0], [0], -5)
    ok, wit = yangian_identity_check(q)
    assert ok, wit


def test_mixed_commutator_identity_with_inverse(gl2, zE2):
    inv = invert_matrix(zE2, -6)
    ok, wit = inverse_mixed_identity_check(zE2, inv)
    assert ok, wit


# ---------------------------------------------------------------------------
# bivariate grids


def _witnesses(wit):
    return [(w["quadruple"], w["zpow"], w["wpow"], w["difference"]) for w in wit]


_E11_E21_CUBIC = ("2*e[(2,1),(1,1)] - 2*e[(1,1),(1,1)]*e[(2,1),(1,1)] "
                  "+ 2*e[(2,1),(1,1)]*e[(2,1),(2,1)] "
                  "- 2*e[(1,1),(1,1)]*e[(2,1),(1,1)]*e[(2,1),(2,1)] "
                  "+ 2*e[(1,1),(2,1)]*e[(2,1),(1,1)]*e[(2,1),(1,1)]")
_E11_E21_CUBIC_NEG = ("-2*e[(2,1),(1,1)] + 2*e[(1,1),(1,1)]*e[(2,1),(1,1)] "
                      "- 2*e[(2,1),(1,1)]*e[(2,1),(2,1)] "
                      "+ 2*e[(1,1),(1,1)]*e[(2,1),(1,1)]*e[(2,1),(2,1)] "
                      "- 2*e[(1,1),(2,1)]*e[(2,1),(1,1)]*e[(2,1),(1,1)]")
_E12_E22_CUBIC = ("4*e[(1,1),(2,1)]*e[(2,1),(2,1)] "
                  "- 2*e[(1,1),(1,1)]*e[(1,1),(2,1)]*e[(2,1),(2,1)] "
                  "+ 2*e[(1,1),(2,1)]*e[(1,1),(2,1)]*e[(2,1),(1,1)]")
_E12_E22_CUBIC_NEG = ("-4*e[(1,1),(2,1)]*e[(2,1),(2,1)] "
                      "+ 2*e[(1,1),(1,1)]*e[(1,1),(2,1)]*e[(2,1),(2,1)] "
                      "- 2*e[(1,1),(2,1)]*e[(1,1),(2,1)]*e[(2,1),(1,1)]")
_DIAGONAL_CUBIC = ("-2*e[(1,1),(1,1)]*e[(2,1),(2,1)] + 2*e[(2,1),(2,1)]*e[(2,1),(2,1)] "
                   "+ 2*e[(1,1),(1,1)]*e[(1,1),(1,1)]*e[(2,1),(2,1)] "
                   "- 2*e[(1,1),(1,1)]*e[(1,1),(2,1)]*e[(2,1),(1,1)] "
                   "- 2*e[(1,1),(1,1)]*e[(2,1),(2,1)]*e[(2,1),(2,1)] "
                   "+ 2*e[(1,1),(2,1)]*e[(2,1),(1,1)]*e[(2,1),(2,1)]")
_DIAGONAL_CUBIC_NEG = ("2*e[(1,1),(1,1)]*e[(2,1),(2,1)] - 2*e[(2,1),(2,1)]*e[(2,1),(2,1)] "
                       "- 2*e[(1,1),(1,1)]*e[(1,1),(1,1)]*e[(2,1),(2,1)] "
                       "+ 2*e[(1,1),(1,1)]*e[(1,1),(2,1)]*e[(2,1),(1,1)] "
                       "+ 2*e[(1,1),(1,1)]*e[(2,1),(2,1)]*e[(2,1),(2,1)] "
                       "- 2*e[(1,1),(2,1)]*e[(2,1),(1,1)]*e[(2,1),(2,1)]")


def test_straight_product_yangian_witnesses_of_the_inverse(zE2):
    # the inverse is Yangian for the opposite product only; in the straight
    # product the first failures sit at z^-3 w^-2, one (z - w) shift above
    # the lowest known exponents, and the walk stops at ten of them
    ok, wit = yangian_identity_check(invert_matrix(zE2, -8))
    assert not ok
    assert _witnesses(wit) == [
        ((1, 1, 1, 2), "-3", "-2", _E11_E21_CUBIC_NEG),
        ((1, 1, 2, 1), "-3", "-2", _E12_E22_CUBIC),
        ((1, 2, 1, 1), "-3", "-2", _E11_E21_CUBIC),
        ((1, 2, 2, 1), "-3", "-2", _DIAGONAL_CUBIC),
        ((1, 2, 2, 2), "-3", "-2", _E11_E21_CUBIC_NEG),
        ((2, 1, 1, 1), "-3", "-2", _E12_E22_CUBIC_NEG),
        ((2, 1, 1, 2), "-3", "-2", _DIAGONAL_CUBIC_NEG),
        ((2, 1, 2, 2), "-3", "-2", _E12_E22_CUBIC),
        ((2, 2, 1, 2), "-3", "-2", _E11_E21_CUBIC),
        ((2, 2, 2, 1), "-3", "-2", _E12_E22_CUBIC_NEG),
    ]


def _bumped_inverse(zE2, gl2, n2):
    """The -6 inverse of z + E with 1·z^{n2/2} added to entry (1,2)."""
    inv = invert_matrix(zE2, -6)
    data = [list(row) for row in inv.data]
    data[0][1] = data[0][1] + SeriesElem(gl2, {n2: gl2.one()})
    return SeriesMatrix(gl2, data)


def test_mixed_identity_witnesses_of_a_perturbed_inverse(gl2, zE2):
    ok, wit = inverse_mixed_identity_check(zE2, _bumped_inverse(zE2, gl2, -4))
    assert not ok
    assert _witnesses(wit) == [
        ((1, 1, 1, 1), "0", "-2", "-e[(1,1),(2,1)]"),
        ((1, 1, 1, 2), "0", "-2", "e[(1,1),(1,1)]"),
        ((1, 2, 1, 1), "0", "-2", "-e[(2,1),(2,1)]"),
        ((1, 2, 2, 2), "0", "-2", "e[(1,1),(1,1)]"),
        ((2, 2, 1, 2), "0", "-2", "-e[(2,1),(2,1)]"),
        ((2, 2, 2, 2), "0", "-2", "e[(1,1),(2,1)]"),
    ]


def test_difference_below_a_shifted_floor_is_not_reported(gl2, zE2):
    # a scalar at w^-5/2 leaves the commutator side alone and moves the
    # delta sums there, at the inverse's floor but below the floor w^-2 of
    # the (z - w)-shifted commutator grid, so nothing is known to differ
    ok, wit = inverse_mixed_identity_check(zE2, _bumped_inverse(zE2, gl2, -5))
    assert ok, wit


# ---------------------------------------------------------------------------
# truncation stability


def test_inverse_truncation_is_stable(gl2, zE2):
    deep = invert_matrix(zE2, -8)
    shallow = invert_matrix(zE2, -6)
    # raising the deep inverse's floor must reproduce the shallow run exactly
    assert deep.truncate2(-6).to_json_obj() == shallow.to_json_obj()
