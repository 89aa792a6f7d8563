import random

import pytest

from wgl.pyramid import Box, Partition, boxes, corner_positions, x_coord
from wgl.quotient import act, ad_invariant_witness, reduce_mod_I, w_commutator, w_product
from wgl.series import (
    SeriesElem,
    SeriesMatrix,
    invert_matrix,
    quasideterminant,
    quasideterminant_by_definition,
    solve,
)
from wgl.uea import Algebra
from wgl.walgebra import (
    GeneratorBasis,
    LOperator,
    WGenerators,
    _check_start,
    _generating_family,
    _inner_scales,
    _reduce_series,
    _weighted_E,
    build_L,
    build_shifted_matrix,
    capelli_suite,
    conjecture_check,
    default_floor,
    family_generators,
    main_lemma_check,
    premet_check,
    relation_table_check,
    rho_det_identities,
    w_membership_check,
    yangian_check_L,
)


# ---------------------------------------------------------------------------
# the shifted matrix and L(z)


def test_shifted_matrix_structure():
    p = Partition((2, 1))
    A = build_shifted_matrix(p)
    alg = A.alg
    # diagonal: z + (projected letter) + shift value
    assert A.data[0][0].coeff2(2) == alg.one()
    assert A.data[0][0].coeff2(0) == alg.gen(Box(1, 1), Box(1, 1))
    assert A.data[1][1].coeff2(0) == alg.gen(Box(1, 2), Box(1, 2)) - alg.one()
    assert A.data[2][2].coeff2(0) == alg.gen(Box(2, 1), Box(2, 1))
    # a degree-1 letter is projected away, leaving only the unit F entry
    assert A.data[1][0].coeff2(0) == alg.one()
    # half-integer-degree letters survive the projection
    assert A.data[2][0].coeff2(0) == alg.gen(Box(1, 1), Box(2, 1))
    assert A.data[0][2].coeff2(0) == alg.gen(Box(2, 1), Box(1, 1))


def test_shifted_matrix_has_F_below_the_diagonal_of_each_row():
    # F puts a 1 in row (i,h+1), column (i,h), and no other scalar sits off
    # the diagonal
    bs = boxes(Partition((3, 2, 1)))
    A = build_shifted_matrix(Partition((3, 2, 1)))
    for ia, a in enumerate(bs):
        for ib, b in enumerate(bs):
            if ia != ib:
                assert A.data[ia][ib].coeff2(0).terms.get((), 0) == (a.i == b.i and a.h == b.h + 1)


def test_default_floor_scales_with_largest_part():
    # doubled: z^-8 and z^-10
    assert default_floor(Partition((2,))) == -16
    assert default_floor(Partition((3, 1))) == -20


def test_build_L_rank_one_closed_form():
    p = Partition((2,))
    alg = Algebra(p)
    e = lambda a, b: alg.gen(Box(1, a), Box(1, b))
    L = build_L(p)
    assert L.floor2 is None
    s = L.reduced.data[0][0]
    assert s.coeff2(4) == alg.scalar(-1)
    assert s.coeff2(2) == alg.one() - e(1, 1) - e(2, 2)
    assert s.coeff2(0) == reduce_mod_I(e(1, 1) + e(2, 1) - e(1, 1) * e(2, 2))


def test_build_L_is_exact_polynomial_for_equal_parts():
    L = build_L(Partition((2, 2)))
    assert L.floor2 is None
    for i in range(2):
        for j in range(2):
            assert L.reduced.data[i][j].floor2 is None
            assert all(n2 >= 0 for n2 in L.reduced.data[i][j].exponents2())


def test_build_L_truncates_otherwise():
    L = build_L(Partition((2, 1)))
    assert L.floor2 == -16
    assert L.reduced.data[0][0].floor2 == -16
    obj = L.to_json_obj()
    assert obj["partition"] == "2,1" and obj["floor"] == "-8"
    assert L.to_text().startswith("L(z) for partition 2,1")


@pytest.mark.parametrize("parts", [(2, 1), (2, 2)])
def test_the_start_check_refuses_a_letter_in_the_top_coefficient(parts):
    p = Partition(parts)
    L, t2, c = build_L(p), 2 * p.parts[0], -((-1) ** p.parts[0])
    _check_start(L.reduced, t2, c, "L(z)")

    def bumped(n2, extra):
        return _with_entry(L, "reduced", 0, 0, n2, extra).reduced

    letter = reduce_mod_I(L.reduced.alg.gen(Box(1, 1), Box(1, 1)))
    with pytest.raises(ArithmeticError, match=r"^L\(z\) does not start with .*coefficient there not scalar$"):
        _check_start(bumped(t2, letter), t2, c, "L(z)")
    # a wrong scalar there, and a top above z^{t2/2}
    with pytest.raises(ArithmeticError, match=r"coefficient there ScalarMatrix\["):
        _check_start(bumped(t2, L.reduced.alg.one()), t2, c, "L(z)")
    with pytest.raises(ArithmeticError, match="doubled top 8"):
        _check_start(bumped(t2 + 4, letter), t2, c, "L(z)")


def test_truncation_floor_does_not_change_the_coefficients():
    deep = build_L(Partition((2, 1)), -18)
    shallow = build_L(Partition((2, 1)), -16)
    assert deep.reduced.truncate2(-16).to_json_obj() == shallow.reduced.to_json_obj()


# ---------------------------------------------------------------------------
# the checks


def test_main_lemma_smallest_case():
    rep = main_lemma_check(Partition((2,)), -12)
    assert rep["pass"] and rep["floor"] == "-6" and rep["witnesses"] == []


def test_capelli_suite_small():
    rep = capelli_suite(2)
    assert rep["pass"] and rep["n"] == 2
    texts = [c["text"] for c in rep["coefficients"]]
    assert texts[0] == "-1 + e[(1,1),(1,1)] + e[(2,1),(2,1)]"
    assert all(c["central"] for c in rep["coefficients"])
    with pytest.raises(ValueError):
        capelli_suite(9)


def test_determinant_identities_low_rank():
    for n in (1, 2):
        rep = rho_det_identities(n)
        assert rep["pass"], rep["witnesses"]
        assert all(r["pass"] for r in rep["results"])


def test_membership_of_truncated_L():
    rep = w_membership_check(build_L(Partition((2, 1)), -16))
    assert rep["pass"] and rep["coefficients_checked"] > 0


def test_yangian_exact_for_single_row():
    rep = yangian_check_L(build_L(Partition((2,))))
    assert rep["pass"] and rep["floor"] is None
    assert rep["exact_commutator_zero"] is True


# ---------------------------------------------------------------------------
# generator families


def test_family_selection_by_shape():
    assert _generating_family(Partition((2,))) == "minimal"
    assert _generating_family(Partition((3,))) == "rectangular"
    assert _generating_family(Partition((2, 2))) == "rectangular"
    assert _generating_family(Partition((2, 1, 1))) == "minimal"
    assert _generating_family(Partition((3, 2))) is None
    with pytest.raises(ValueError):
        family_generators(Partition((3, 1)), "minimal")
    with pytest.raises(ValueError):
        family_generators(Partition((2, 2)), "principal")


def test_principal_family_top_generator_is_shifted_trace():
    for N in (2, 3):
        p = Partition((N,))
        alg = Algebra(p)
        g = family_generators(p, "principal")
        assert len(g.table) == N
        trace = alg.zero()
        for h in range(1, N + 1):
            trace = trace + alg.gen(Box(1, h), Box(1, h))
        want = reduce_mod_I(trace - alg.scalar(N * (N - 1) // 2))
        assert g.table[(1, 1, N - 1)] == want
        rep = relation_table_check(g)
        assert rep["pass"] and rep["generators"] == N


def test_minimal_family_generators_are_invariant():
    g = family_generators(Partition((2, 1)), "minimal")
    assert len(g.table) == 5
    for rep_elem in g.table.values():
        assert ad_invariant_witness(rep_elem) is None
    assert relation_table_check(g)["pass"]
    assert premet_check(g)["pass"]


def test_block_reconstruction_matches_direct_build():
    p = Partition((2,))
    rep = conjecture_check(p, family_generators(p, "minimal"))
    assert rep["pass"] and rep["floor"] is None


def test_generator_serialization():
    g = family_generators(Partition((2,)), "principal")
    obj = g.to_json_obj()
    assert obj["family"] == "principal" and obj["partition"] == "2"
    assert [tuple((e["i"], e["j"], e["k"])) for e in obj["generators"]] == [(1, 1, 0), (1, 1, 1)]
    assert "w[1,1;1] = -1 + e[(1,1),(1,1)] + e[(1,2),(1,2)]" in g.to_text()


# ---------------------------------------------------------------------------
# exact rewriting in terms of a generator family


@pytest.fixture(scope="module")
def minimal_basis():
    return GeneratorBasis(family_generators(Partition((2, 1)), "minimal"))


def test_generator_basis_units(minimal_basis):
    basis = minimal_basis
    # polynomials are keyed by the position of each generator in the basis
    for n, rep_elem in enumerate(basis.reps):
        assert basis.convert(rep_elem) == {(n,): 1}


def test_generator_basis_products_convert_to_label_products(minimal_basis):
    basis = minimal_basis
    for x, xrep in enumerate(basis.reps[:3]):
        for y, yrep in enumerate(basis.reps[:3]):
            assert basis.convert(w_product(xrep, yrep)) \
                == basis.poly_mul({(x,): 1}, {(y,): 1})


def test_generator_basis_commutators_match_quotient(minimal_basis):
    basis = minimal_basis
    for x, xrep in enumerate(basis.reps):
        for y, yrep in enumerate(basis.reps):
            direct = basis.convert(w_commutator(xrep, yrep))
            assert basis.poly_commutator({(x,): 1}, {(y,): 1}) == direct


def _evaluate(basis, poly):
    """The value of a polynomial in M, each monomial an ordered chain of
    W-products of family elements from the right: an oracle independent of
    the Horner evaluation inside `convert`."""
    chains = {(): reduce_mod_I(basis.alg.one())}

    def value(mono):
        if mono not in chains:
            chains[mono] = w_product(basis.reps[mono[0]], value(mono[1:]))
        return chains[mono]

    out = reduce_mod_I(basis.alg.zero())
    for mono, c in poly.items():
        out = out + value(mono).scale(c)
    return out


def test_horner_evaluation_of_the_constants(minimal_basis):
    assert minimal_basis._evaluate({}) == {}
    assert minimal_basis._evaluate({(): 3}) == {(): 3}


@pytest.fixture(scope="module")
def L_2111_at_minus_4():
    # the shallowest floor at which `yangian_check_L` takes the generators
    # route on (2,1,1)
    return build_L(Partition((2, 1, 1)), -8)


def test_conversion_round_trips_on_2111(L_2111_at_minus_4):
    coeffs = L_2111_at_minus_4.reduced.data[0][0].terms
    basis = GeneratorBasis(family_generators(Partition((2, 1, 1)), "minimal"))
    for n2, c in coeffs.items():
        assert _evaluate(basis, basis.convert(c)) == c, n2
    n = len(basis.labels)
    for x in range(n):
        for y in range(x):
            poly = {(h,) if type(h) is int else h: c for h, c in basis.bracket(x, y)}
            assert _evaluate(basis, poly) == w_commutator(basis.reps[x], basis.reps[y])


def test_conversion_refuses_an_element_outside_the_span(L_2111_at_minus_4):
    p = Partition((2, 1, 1))
    alg = Algebra(p)
    basis = GeneratorBasis(family_generators(p, "minimal"))
    c = L_2111_at_minus_4.reduced.data[0][0].terms[-8]
    assert basis.convert(c)
    bad = c + reduce_mod_I(alg.gen((1, 1), (2, 1)))
    with pytest.raises(ArithmeticError, match="top slice has zero symbol"):
        basis.convert(bad)


@pytest.mark.parametrize("parts, family", [((2, 1, 1), "minimal"),
                                           ((2, 2), "rectangular")])
def test_poly_mul_agrees_with_the_product_in_M(parts, family):
    basis = GeneratorBasis(family_generators(Partition(parts), family))
    n = len(basis.labels)
    rng = random.Random(7)
    for _ in range(4):
        # left words share their tails, so the fold reuses partial products
        tails = [(rng.randrange(n),), tuple(sorted(rng.sample(range(n), 2)))]
        P = {(rng.randrange(n),) * k + tail: rng.choice([-2, -1, 1, 3])
             for tail in tails for k in (0, 1)}
        Q = {tuple(sorted(rng.sample(range(n), 2))): 1, (rng.randrange(n),): -2}
        assert _evaluate(basis, basis.poly_mul(P, Q)) \
            == w_product(_evaluate(basis, P), _evaluate(basis, Q))
    heads = [h for terms in basis._bracket_cache.values() for h, _ in terms]
    # a bracket is linear or quadratic in the family, never constant, and
    # the quadratic ones enter the walk as word keys
    assert {len(h) for h in heads if type(h) is tuple} == {2}
    assert any(type(x) is tuple for x in basis._nf_cache.rows)


def _fresh(space) -> bool:
    """The intern table holds only (), the memo only the seed rows."""
    return len(space.monos) == 1 and len(space) == len(space.seed)


def test_build_L_in_M_ends_with_a_fresh_action_memo():
    p = Partition((2, 1, 1))
    alg = Algebra(p)
    for lift in (False, True):
        before = len(alg._lm_cache)
        build_L(p, -4, lift)
        assert _fresh(alg._act_cache)
        # the lift route clears the U(g) memo it filled
        assert _fresh(alg._lm_cache) if lift else len(alg._lm_cache) == before


@pytest.mark.parametrize("check", ["conjecture", "relations"])
def test_checks_end_with_a_fresh_action_memo(check):
    p = Partition((2, 1, 1))
    g = family_generators(p, "minimal")
    rep = conjecture_check(p, g, -10) if check == "conjecture" else relation_table_check(g)
    assert rep["pass"]
    assert _fresh(Algebra(p)._act_cache)


def test_lift_route_multiplies_the_corner_from_a_fresh_U_memo(monkeypatch):
    import wgl.series

    p = Partition((2, 1, 1))
    space = Algebra(p)._lm_cache
    seen = []
    solve_ = wgl.series.solve
    matmul = SeriesMatrix.matmul

    def solve_spy(*args):
        out = solve_(*args)
        seen.append(("solve", len(space)))
        return out

    def matmul_spy(self, other, mul=None, floor2=None):
        seen.append(("matmul", _fresh(space)))
        return matmul(self, other, mul, floor2)

    monkeypatch.setattr(wgl.series, "solve", solve_spy)
    monkeypatch.setattr(SeriesMatrix, "matmul", matmul_spy)
    build_L(p, -10, lift=True)
    # the solve leaves its rows; the corner product, the last one, starts
    # from a fresh memo
    assert seen[-2][0] == "solve" and seen[-2][1] > 0
    assert seen[-1] == ("matmul", True)


def test_generators_route_commutes_from_a_fresh_action_memo(L_2111_at_minus_4, monkeypatch):
    alg = Algebra(L_2111_at_minus_4.partition)
    seen = []
    orig = GeneratorBasis.poly_commutator

    def spy(basis, P, Q):
        if not seen:
            seen.append(_fresh(alg._act_cache))
        return orig(basis, P, Q)

    monkeypatch.setattr(GeneratorBasis, "poly_commutator", spy)
    rep = yangian_check_L(L_2111_at_minus_4)
    assert rep["strategy"] == "generators" and rep["pass"]
    assert seen == [True]


def test_poly_mul_straightens_a_long_word_without_recursion():
    basis = GeneratorBasis(family_generators(Partition((3,)), "principal"))
    word = (0,) * 1500
    assert basis.poly_mul({(2,): 1}, {word: 1}) == {word + (2,): 1}


# ---------------------------------------------------------------------------
# floors computed in advance


@pytest.fixture
def solve_floors(monkeypatch):
    """Doubled floor of every series.solve call made during the test."""
    import wgl.series

    floors = []
    orig = wgl.series.solve

    def spy(A, Y, mul=None, f2=None, *args, **kwargs):
        floors.append(f2)
        return orig(A, Y, mul, f2, *args, **kwargs)

    monkeypatch.setattr(wgl.series, "solve", spy)
    return floors


@pytest.mark.parametrize("parts", [(2, 1), (3, 1), (2, 2)])
def test_truncated_build_L_inverts_once(solve_floors, parts):
    L = build_L(Partition(parts), -10, lift=True)
    assert len(solve_floors) == 1
    assert {e.floor2 for row in L.lift.data for e in row} == {-10}


@pytest.mark.parametrize("parts, floor", [
    ((2, 1), -5), ((3, 1), -5), ((2, 2), -5), ((2, 1, 1), -5),
    ((2,), None), ((3,), None), ((2, 2), None),
])
def test_L_built_in_M_equals_the_reduced_lift(solve_floors, parts, floor):
    p = Partition(parts)
    f2 = None if floor is None else 2 * floor
    lm_cache = Algebra(p)._lm_cache     # process-global: compare sizes
    before = len(lm_cache)
    L = build_L(p, f2)
    # one solve and no U(g) product
    assert len(solve_floors) == 1 and len(lm_cache) == before
    assert L.lift is None
    oracle = build_L(p, f2, lift=True).reduced
    assert L.reduced.first_diff(oracle) is None
    assert [[e.floor2 for e in row] for row in L.reduced.data] \
        == [[e.floor2 for e in row] for row in oracle.data]


def test_both_quasideterminant_routes_deliver_on_the_first_pass(solve_floors):
    # the principal (3) shifted matrix shows its inner pivot under the scales
    p = Partition((3,))
    A = build_shifted_matrix(p)
    qs = quasideterminant(A, *corner_positions(p), -12, None, *_inner_scales(p))
    assert qs.max_top2() == 6
    qd = quasideterminant_by_definition(A, *corner_positions(p), -12, 6)
    # submatrix: the inner solve, below -12 by the top z^1 of Q;
    # definition: A^{-1}·I1 deeper by twice the top z^3, then the inverse
    # of the 1x1 sandwich
    assert solve_floors == [-14, -24, -12]
    assert qs.data[0][0].floor2 == qd.data[0][0].floor2 == -12
    assert qd.first_diff(qs) is None


def test_definition_route_refuses_a_top_that_is_too_low():
    # top2 = 0 solves A^{-1}·I1 only to -12, 6 short of what z^3 needs
    p = Partition((3,))
    with pytest.raises(ArithmeticError, match="cannot reach floor z\\^-6"):
        quasideterminant_by_definition(build_shifted_matrix(p), *corner_positions(p), -12, 0)


def _complement(parts):
    """The complement block B of the shifted matrix, its rectangular
    right-hand side R = A_IcJ, and the scalings build_L uses on B."""
    p = Partition(parts)
    A = build_shifted_matrix(p)
    rowsI, colsJ = corner_positions(p)
    compI = [n for n in range(p.N) if n not in rowsI]
    compJ = [n for n in range(p.N) if n not in colsJ]
    rows, cols = _inner_scales(p)
    return (A.submatrix(compI, compJ), A.submatrix(compI, colsJ),
            [rows[n] for n in compI], [cols[n] for n in compJ])


def _check_right_inverse(B, R, mul, f2, rs, cs):
    """solve(B, R) and solve(B, 1) agree with R and 1 after multiplying by B,
    wherever the product is known; returns solve(B, R)."""
    X = solve(B, R, mul, f2, rs, cs)
    BX = B.matmul(X, mul)
    assert BX.first_diff(R) is None
    # the agreement is not vacuous: the product carries a floor at most
    # top(B) above the requested one
    floors = {e.floor2 for row in BX.data for e in row}
    if f2 is None:
        assert floors == {None}
    else:
        assert max(floors) <= f2 + B.max_top2()
    one = SeriesMatrix.identity(B.alg, B.rows)
    assert B.matmul(solve(B, one, mul, f2, rs, cs), mul).first_diff(one) is None
    # against the identity, solve is invert_matrix (on the scaled block,
    # whose pivot needs no scaling)
    D = B.scale_rows(rs).scale_cols(cs)
    inv = invert_matrix(D, f2, mul)
    assert solve(D, one, mul, f2).data == inv.data
    assert D.matmul(inv, mul).first_diff(one) is None
    return X


@pytest.mark.parametrize("parts, floor, in_M", [
    ((2, 1, 1), -5, False), ((3,), None, False), ((2, 1, 1), -5, True),
])
def test_solve_is_a_right_inverse(parts, floor, in_M):
    f2 = None if floor is None else 2 * floor
    B, R, rs, cs = _complement(parts)
    mul = act if in_M else None
    if in_M:
        R = R.map_entries(_reduce_series)
    _check_right_inverse(B, R, mul, f2, rs, cs)


@pytest.mark.parametrize("parts", [(2, 1), (3, 1), (2, 2), (2, 1, 1)])
def test_solve_is_a_right_inverse_of_the_weighted_matrix(parts):
    # the corner series of the main lemma: A = 1 + z^{-D}E against the
    # seed I1, in the action on M, with the row and column scales x and -x
    p, f2 = Partition(parts), -10
    alg = Algebra(p)
    xs = [x_coord(p, b) for b in boxes(p)]
    A = SeriesMatrix.identity(alg, p.N) + _weighted_E(alg)
    rows, cols = corner_positions(p)
    I1 = SeriesMatrix.identity(alg, p.N).submatrix(range(p.N), rows)
    X = _check_right_inverse(A, I1, act, f2, xs, [-x for x in xs])
    corner = [X.data[j] for j in cols]
    assert {e.floor2 for row in corner for e in row} == {f2}


def test_the_definition_route_gives_the_main_lemma_corner_with_the_scales():
    # the main lemma's 1 + z^{-D}E on (2,1): with the scales x and -x its
    # corner starts with (-1)^(p1-1) at z^0; without them the top
    # coefficient matrix holds letters
    p, f2 = Partition((2, 1)), -8
    alg = Algebra(p)
    xs = [x_coord(p, b) for b in boxes(p)]
    A = SeriesMatrix.identity(alg, p.N) + _weighted_E(alg)
    lhs = quasideterminant_by_definition(A, *corner_positions(p), f2, 0, act, xs,
                                         [-x for x in xs])
    _check_start(lhs, 0, (-1) ** (p.parts[0] - 1), "the corner")
    with pytest.raises(ArithmeticError, match="no invertible scalar pivot"):
        quasideterminant_by_definition(A, *corner_positions(p), f2, 0, act)


# ---------------------------------------------------------------------------
# negative controls: each checker rejects a known-bad L(z) with a witness


def _with_entry(L: LOperator, which: str, i: int, j: int, n2: int, extra):
    """L with `extra` added to the z^{n2/2} coefficient of one entry."""
    mat = getattr(L, which)
    e = mat.data[i][j]
    bumped = SeriesElem(mat.alg, {**e.terms, n2: e.coeff2(n2) + extra}, e.floor2)
    data = [list(row) for row in mat.data]
    data[i][j] = bumped
    fields = {"partition": L.partition, "floor2": L.floor2, "lift": L.lift,
              "reduced": L.reduced, which: SeriesMatrix(mat.alg, data)}
    return LOperator(**fields)


def test_yangian_check_rejects_a_perturbed_coefficient():
    L = build_L(Partition((2, 2)))
    one = reduce_mod_I(L.reduced.alg.one())
    rep = yangian_check_L(_with_entry(L, "reduced", 0, 1, 0, one))
    assert rep["pass"] is False
    first = rep["witnesses"][0]
    assert first["quadruple"] == (1, 1, 1, 2)
    assert (first["zpow"], first["wpow"]) == ("0", "1")


def test_membership_check_names_the_non_invariant_coefficient():
    L = build_L(Partition((2, 1)), -6)
    alg = L.reduced.alg
    letter = alg.gen(Box(2, 1), Box(2, 1))
    assert ad_invariant_witness(letter) is not None
    rep = w_membership_check(_with_entry(L, "reduced", 0, 0, 0, letter))
    assert rep["pass"] is False
    assert rep["witnesses"] == [{"entry": (1, 1), "zpow": "0", "letter": "e[(1,1),(2,1)]"}]


def test_main_lemma_check_names_a_perturbed_coefficient(monkeypatch):
    import wgl.walgebra

    p = Partition((2, 2))
    assert main_lemma_check(p, -8)["pass"] is True
    L = build_L(p)
    three = reduce_mod_I(L.reduced.alg.scalar(3))
    bad = _with_entry(L, "reduced", 0, 1, 2, three)
    monkeypatch.setattr(wgl.walgebra, "build_L", lambda *args, **kwargs: bad)
    rep = main_lemma_check(p, -8)
    assert rep["pass"] is False
    # z^1 of L(z) sits at z^{1-p1} on the right-hand side z^{-p1} L(z)
    assert rep["witnesses"] == [{"entry": (1, 2), "zpow": "-1", "difference": "-3"}]


def test_premet_check_names_a_perturbed_generator():
    g = family_generators(Partition((2, 1)), "minimal")
    assert premet_check(g)["pass"] is True
    key = (1, 1, 0)
    doubled = reduce_mod_I(g.table[key].scale(2))
    bad = WGenerators(g.family, g.partition, {**g.table, key: doubled})
    rep = premet_check(bad)
    assert rep["pass"] is False
    assert [(w["generator"], w["reason"]) for w in rep["witnesses"]] \
        == [(key, "wrong top symbol")]


def test_premet_check_names_a_monomial_above_the_filtration_level():
    g = family_generators(Partition((2, 1)), "minimal")
    key = (1, 1, 0)
    e = Algebra(g.partition).gen(Box(1, 2), Box(1, 1))
    # w[1,1;0] has doubled weight 4; each e[(1,2),(1,1)] weighs 2
    bad = WGenerators(g.family, g.partition,
                      {**g.table, key: reduce_mod_I(g.table[key] + e * e * e)})
    rep = premet_check(bad)
    assert rep["pass"] is False
    assert rep["witnesses"] == [{
        "generator": key, "reason": "filtration level exceeded",
        "monomial": "e[(1,2),(1,1)]*e[(1,2),(1,1)]*e[(1,2),(1,1)]", "weight": "6"}]


def test_relation_table_check_names_the_broken_bracket():
    g = family_generators(Partition((2, 1)), "minimal")
    key = (1, 1, 0)
    one = reduce_mod_I(Algebra(g.partition).one())
    # a central shift keeps every commutator, but the table's right-hand
    # side of [C_0, R_0] contains B once
    shifted = reduce_mod_I(g.table[key] + one)
    bad = WGenerators(g.family, g.partition, {**g.table, key: shifted})
    rep = relation_table_check(bad)
    assert rep["pass"] is False
    assert rep["witnesses"] == [{"bracket": "[w[1,2;0], w[2,1;0]]", "difference": "-1"}]


def test_rectangular_relation_table_check_names_the_broken_bracket():
    g = family_generators(Partition((2, 2)), "rectangular")
    key = (1, 1, 1)
    one = reduce_mod_I(Algebra(g.partition).one())
    # a central shift keeps every commutator, but the table's right-hand
    # side of [w_{12;1}, w_{21;1}] is w_{11;1} - w_{22;1}, and w_{11;1}
    # enters the products on the right of six brackets of degree 0
    bad = WGenerators(g.family, g.partition, {**g.table, key: reduce_mod_I(g.table[key] + one)})
    rep = relation_table_check(bad)
    assert rep["pass"] is False
    wit = {w["bracket"]: w["difference"] for w in rep["witnesses"]}
    assert list(wit) == [
        "[w[1,1;0], w[1,2;0]]", "[w[1,1;0], w[2,1;0]]", "[w[1,2;0], w[1,1;0]]",
        "[w[1,2;0], w[2,1;0]]", "[w[1,2;1], w[2,1;1]]", "[w[2,1;0], w[1,1;0]]",
        "[w[2,1;0], w[1,2;0]]", "[w[2,1;1], w[1,2;1]]"]
    assert (wit["[w[1,2;1], w[2,1;1]]"], wit["[w[2,1;1], w[1,2;1]]"]) == ("-1", "1")
    assert wit["[w[1,1;0], w[1,2;0]]"] == "2*e[(1,1),(2,1)] + e[(1,2),(2,1)] - " \
        "e[(1,1),(2,1)]*e[(1,2),(1,2)] - e[(1,2),(2,2)]*e[(2,1),(2,1)]"


def test_principal_relation_table_check_names_the_broken_bracket():
    g = family_generators(Partition((3,)), "principal")
    key = (1, 1, 0)
    # e11 is not invariant: it commutes with the central trace w_{11;2},
    # but not with w_{11;1}
    bumped = reduce_mod_I(g.table[key] + Algebra(g.partition).gen(Box(1, 1), Box(1, 1)))
    bad = WGenerators(g.family, g.partition, {**g.table, key: bumped})
    rep = relation_table_check(bad)
    assert rep["pass"] is False
    assert rep["witnesses"] == [{"bracket": "[w[1,1;0], w[1,1;1]]",
                                 "difference": "-e[(1,2),(1,1)]"}]


def test_capelli_suite_names_a_non_central_coefficient(monkeypatch):
    import wgl.walgebra

    orig = wgl.walgebra.noncomm_det

    def bumped(A, mode="row"):
        det = orig(A, mode)
        # add e_{12} to the z^1 coefficient, which is w_1 for N = 2
        return det + SeriesElem(det.alg, {2: det.alg.gen(Box(1, 1), Box(2, 1))})

    monkeypatch.setattr(wgl.walgebra, "noncomm_det", bumped)
    rep = capelli_suite(2)
    assert rep["pass"] is False
    assert [c["central"] for c in rep["coefficients"]] == [False, True]
    assert rep["witnesses"] == [{"k": 1, "element": rep["coefficients"][0]["text"]}]


def test_identities_check_names_a_disagreeing_quasideterminant_route(monkeypatch, capsys):
    import json

    import wgl.walgebra
    from wgl.cli import main

    orig = wgl.walgebra.quasideterminant_by_definition

    def bumped(A, rows, cols, f2, top2):
        q = orig(A, rows, cols, f2, top2)
        # add 1 to the z^-1 coefficient of the 1x1 corner
        return SeriesMatrix(q.alg, [[q.data[0][0] + SeriesElem(q.alg, {-2: q.alg.one()})]])

    monkeypatch.setattr(wgl.walgebra, "quasideterminant_by_definition", bumped)
    witnesses = [{"identity": "quasideterminant routes agree at floor -6",
                  "detail": {"definition": "z^-1: 1"}}]
    rep = rho_det_identities(2)
    assert rep["pass"] is False and rep["witnesses"] == witnesses
    code = main(["check", "identities", "--n", "2", "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "") and json.loads(out)["witnesses"] == witnesses


def _perturbed_shifted_matrix(monkeypatch, kind):
    """Make the package's `build_shifted_matrix` drop D ("no D") or gain a
    unit at z^0 in entry (1,2), above the diagonal ("superdiagonal")."""
    import wgl.walgebra
    from wgl.pyramid import ScalarMatrix, shift_matrix

    orig = wgl.walgebra.build_shifted_matrix

    def build(p):
        A = orig(p)
        if kind == "no D":
            return A - SeriesMatrix.from_scalar(A.alg, shift_matrix(p))
        unit = [[int((i, j) == (0, 1)) for j in range(p.N)] for i in range(p.N)]
        return A + SeriesMatrix.from_scalar(A.alg, ScalarMatrix.from_rows(unit))

    monkeypatch.setattr(wgl.walgebra, "build_shifted_matrix", build)


@pytest.mark.parametrize("kind", ["no D", "superdiagonal"])
@pytest.mark.parametrize("n", [2, 3])
def test_identities_read_the_production_shifted_matrix(monkeypatch, kind, n):
    assert rho_det_identities(n)["pass"] is True
    _perturbed_shifted_matrix(monkeypatch, kind)
    rep = rho_det_identities(n)
    assert rep["pass"] is False
    failed = {w["identity"] for w in rep["witnesses"]}
    assert {f"project(rdet(E+D)) = rdet(proj E + F + D), {tag}"
            for tag in ("D=0", "D=capelli")} <= failed


def test_capelli_suite_reads_the_production_shifted_matrix(monkeypatch):
    assert capelli_suite(3)["pass"] is True
    _perturbed_shifted_matrix(monkeypatch, "superdiagonal")
    assert capelli_suite(3)["pass"] is False
