import dataclasses

import pytest

from wgl.pyramid import Box, HalfInt, Partition, structure_matrices
from wgl.quotient import ad_invariant_witness, reduce_mod_I, w_commutator, w_product
from wgl.series import SeriesElem, SeriesMatrix, quasideterminant
from wgl.uea import Algebra
from wgl.walgebra import (
    GeneratorBasis,
    LOperator,
    _generating_family,
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
    assert A.data[0][0].coeff(1) == alg.one()
    assert A.data[0][0].coeff(0) == alg.gen(Box(1, 1), Box(1, 1))
    assert A.data[1][1].coeff(0) == alg.gen(Box(1, 2), Box(1, 2)) - alg.one()
    assert A.data[2][2].coeff(0) == alg.gen(Box(2, 1), Box(2, 1))
    # a degree-1 letter is projected away, leaving only the unit F entry
    assert A.data[1][0].coeff(0) == alg.one()
    # half-integer-degree letters survive the projection
    assert A.data[2][0].coeff(0) == alg.gen(Box(1, 1), Box(2, 1))
    assert A.data[0][2].coeff(0) == alg.gen(Box(2, 1), Box(1, 1))


def test_default_floor_scales_with_largest_part():
    assert default_floor(Partition((2,))) == HalfInt.of(-8)
    assert default_floor(Partition((3, 1))) == HalfInt.of(-10)


def test_build_L_rank_one_closed_form():
    p = Partition((2,))
    alg = Algebra(p)
    e = lambda a, b: alg.gen(Box(1, a), Box(1, b))
    L = build_L(p)
    assert L.floor is None
    s = L.reduced.data[0][0]
    assert s.coeff(2) == alg.scalar(-1)
    assert s.coeff(1) == alg.one() - e(1, 1) - e(2, 2)
    assert s.coeff(0) == reduce_mod_I(e(1, 1) + e(2, 1) - e(1, 1) * e(2, 2))


def test_build_L_is_exact_polynomial_for_equal_parts():
    L = build_L(Partition((2, 2)))
    assert L.floor is None
    for i in range(2):
        for j in range(2):
            assert L.reduced.data[i][j].floor2 is None
            assert all(n2 >= 0 for n2 in L.reduced.data[i][j].exponents2())


def test_build_L_truncates_otherwise():
    L = build_L(Partition((2, 1)))
    assert L.floor == HalfInt.of(-8)
    assert L.reduced.data[0][0].floor2 == -16
    obj = L.to_json_obj()
    assert obj["partition"] == "2,1" and obj["floor"] == "-8"
    assert L.to_text().startswith("L(z) for partition 2,1")


def test_truncation_floor_does_not_change_the_coefficients():
    deep = build_L(Partition((2, 1)), -9)
    shallow = build_L(Partition((2, 1)), -8)
    assert deep.reduced.truncate2(-16).to_json_obj() == shallow.reduced.to_json_obj()


# ---------------------------------------------------------------------------
# the checks


def test_main_lemma_smallest_case():
    rep = main_lemma_check(Partition((2,)), -6)
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
    rep = w_membership_check(build_L(Partition((2, 1)), -8))
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


# ---------------------------------------------------------------------------
# floors computed in advance


@pytest.fixture
def invert_floors(monkeypatch):
    """Doubled floor of every invert_matrix call made during the test."""
    import wgl.series

    floors = []
    orig = wgl.series.invert_matrix

    def spy(A, floor=None, *args, **kwargs):
        floors.append(wgl.series._floor2(floor))
        return orig(A, floor, *args, **kwargs)

    monkeypatch.setattr(wgl.series, "invert_matrix", spy)
    return floors


@pytest.mark.parametrize("parts", [(2, 1), (3, 1), (2, 2)])
def test_truncated_build_L_inverts_once(invert_floors, parts):
    L = build_L(Partition(parts), -5)
    assert len(invert_floors) == 1
    assert {e.floor2 for row in L.lift.data for e in row} == {-10}


def test_both_quasideterminant_routes_deliver_on_the_first_pass(invert_floors):
    # the principal (3) shifted matrix has a constant-term inner pivot
    p = Partition((3,))
    sm = structure_matrices(p)
    q = quasideterminant(build_shifted_matrix(p), sm["I1"], sm["J1"],
                         floor=HalfInt(-12), method="both")
    # definition: A^{-1}, A^{-1} deeper by the sandwich top, S^{-1};
    # submatrix: the inner inverse
    assert len(invert_floors) == 4
    assert q.data[0][0].floor2 == -12


# ---------------------------------------------------------------------------
# negative controls: each checker rejects a known-bad L(z) with a witness


def _with_entry(L: LOperator, which: str, i: int, j: int, n2: int, extra):
    """L with `extra` added to the z^{n2/2} coefficient of one entry."""
    mat = getattr(L, which)
    e = mat.data[i][j]
    bumped = SeriesElem(mat.alg, {**e.terms, n2: e.coeff2(n2) + extra}, e.floor2)
    data = [list(row) for row in mat.data]
    data[i][j] = bumped
    return dataclasses.replace(L, **{which: SeriesMatrix(mat.alg, data)})


def test_yangian_check_rejects_a_perturbed_coefficient():
    L = build_L(Partition((2, 2)))
    one = reduce_mod_I(L.reduced.alg.one())
    rep = yangian_check_L(_with_entry(L, "reduced", 0, 1, 0, one))
    assert rep["pass"] is False
    first = rep["witnesses"][0]
    assert first["quadruple"] == (1, 1, 1, 2)
    assert (first["zpow"], first["wpow"]) == ("0", "1")


def test_membership_check_names_the_non_invariant_coefficient():
    L = build_L(Partition((2, 1)), -3)
    alg = L.lift.alg
    letter = alg.gen(Box(2, 1), Box(2, 1))
    assert ad_invariant_witness(letter) is not None
    rep = w_membership_check(_with_entry(L, "lift", 0, 0, 0, letter))
    assert rep["pass"] is False
    assert [(w["entry"], w["zpow"]) for w in rep["witnesses"]] == [((1, 1), "0")]
