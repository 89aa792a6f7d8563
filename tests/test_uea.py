import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wgl import uea
from wgl.pyramid import Box, Partition, parse_half2
from wgl.quotient import act, reduce_mod_I
from wgl.uea import Algebra, _fold, _Space, element_from_json
from wgl.walgebra import GeneratorBasis, build_L, family_generators, w_membership_check

from conftest import gl_algebra, gl_gen, kazhdan_degree, random_element


def test_algebra_is_memoized_per_partition():
    assert Algebra(Partition((2, 1))) is Algebra(Partition((2, 1)))
    assert Algebra(Partition((2,))) is not Algebra(Partition((1, 1)))


def test_generator_commutation_relations(gl3):
    # [e_ab, e_cd] = delta_bc e_ad - delta_da e_cb, checked on all 81 pairs
    e = lambda i, j: gl_gen(gl3, i, j)
    for a in range(1, 4):
        for b in range(1, 4):
            for c in range(1, 4):
                for d in range(1, 4):
                    want = gl3.zero()
                    if b == c:
                        want = want + e(a, d)
                    if d == a:
                        want = want - e(c, b)
                    assert e(a, b).commutator(e(c, d)) == want


def test_normal_form_is_order_independent(gl2):
    e = lambda i, j: gl_gen(gl2, i, j)
    x = e(1, 2) * e(2, 1) * e(1, 1)
    y = e(1, 2) * (e(2, 1) * e(1, 1))
    assert x == y
    # same element entered in the opposite order differs by the commutators,
    # never by the normal form of the common part
    assert e(1, 2) * e(2, 1) - e(2, 1) * e(1, 2) == e(1, 1) - e(2, 2)


def test_scalar_arithmetic(gl2):
    x = gl_gen(gl2, 1, 2)
    assert x * 2 == x + x
    assert 3 * x - x == x.scale(2)
    assert x.scale(Fraction(1, 2)) + x.scale(Fraction(1, 2)) == x
    assert (x - x).is_zero()
    assert gl2.scalar(5).terms == {(): 5}
    assert gl2.one() * x == x == x * gl2.one()


def test_mixing_algebras_raises(gl2, gl3):
    with pytest.raises(ValueError):
        gl_gen(gl2, 1, 1) + gl_gen(gl3, 1, 1)


def test_element_builder_and_parse_round_trip():
    alg = Algebra(Partition((2, 1)))
    x = (alg.gen(Box(1, 1), Box(1, 2)).scale(2) - alg.scalar(3)
         + alg.gen(Box(2, 1), Box(1, 1)) * alg.gen(Box(1, 2), Box(2, 1)))
    assert element_from_json(alg, x.to_json_obj()) == x


def test_zero_denominator_is_a_value_error():
    alg = Algebra(Partition((2, 1)))
    with pytest.raises(ValueError, match="zero denominator"):
        element_from_json(alg, [{"coeff": "1/0", "monomial": []}])
    with pytest.raises(ValueError, match="zero denominator"):
        parse_half2("-3/0")


def test_json_shape(gl2):
    obj = (gl_gen(gl2, 1, 2).scale(Fraction(1, 3)) + gl2.one()).to_json_obj()
    assert isinstance(obj, list)
    assert {"coeff", "monomial"} == set(obj[0])
    def freeze(mono):
        return tuple((tuple(a), tuple(b)) for a, b in mono)

    coeffs = {freeze(t["monomial"]): t["coeff"] for t in obj}
    assert coeffs[()] == "1"
    assert coeffs[(((1, 1), (2, 1)),)] == "1/3"


def test_kazhdan_degree_values():
    alg = Algebra(Partition((2, 1)))
    # weight of a letter is 1 - grading degree; products add; the values
    # are doubled
    low = alg.gen(Box(1, 1), Box(1, 2))   # degree 1 -> weight 0
    assert kazhdan_degree(low) == 0
    f = alg.gen(Box(1, 2), Box(1, 1))     # degree -1 -> weight 2
    assert kazhdan_degree(f) == 4
    assert kazhdan_degree(f * f) == 8
    assert kazhdan_degree(alg.scalar(7)) == 0
    assert kazhdan_degree(alg.zero()) is None
    half = alg.gen(Box(2, 1), Box(1, 1))  # degree -1/2 -> weight 3/2
    assert kazhdan_degree(half) == 3


def test_central_elements(gl2):
    e = lambda i, j: gl_gen(gl2, i, j)
    c1 = e(1, 1) + e(2, 2)
    c2 = e(1, 1) * e(1, 1) + e(1, 2) * e(2, 1) + e(2, 1) * e(1, 2) + e(2, 2) * e(2, 2)
    assert c1.is_central()
    assert c2.is_central()
    assert not e(1, 1).is_central()
    assert not (c1 + e(1, 2)).is_central()


def test_text_rendering_is_sorted_and_stable(gl2):
    x = gl_gen(gl2, 2, 1) - gl_gen(gl2, 1, 2).scale(2) + gl2.scalar(1)
    assert x.to_text() == "1 - 2*e[(1,1),(2,1)] + e[(2,1),(1,1)]"


# ---------------------------------------------------------------------------
# property tests


_SEEDS = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_SEEDS)
def test_product_is_associative_and_distributive(seed):
    alg = gl_algebra(2)
    rng = random.Random(seed)
    x = random_element(alg, rng)
    y = random_element(alg, rng)
    z = random_element(alg, rng)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_SEEDS)
def test_commutator_satisfies_jacobi(seed):
    alg = Algebra(Partition((2, 1)))
    rng = random.Random(seed)
    x = random_element(alg, rng, max_deg=2)
    y = random_element(alg, rng, max_deg=2)
    z = random_element(alg, rng, max_deg=2)
    total = (x.commutator(y).commutator(z)
             + y.commutator(z).commutator(x)
             + z.commutator(x).commutator(y))
    assert total.is_zero()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_SEEDS)
def test_kazhdan_filtration_inequalities(seed):
    alg = Algebra(Partition((2, 1)))
    rng = random.Random(seed)
    x = random_element(alg, rng)
    y = random_element(alg, rng)
    dx, dy = kazhdan_degree(x), kazhdan_degree(y)
    if dx is None or dy is None:
        return
    xy = x * y
    if not xy.is_zero():
        assert kazhdan_degree(xy) <= dx + dy
    br = x.commutator(y)
    if not br.is_zero():
        # doubled degrees: a bracket drops the filtration by a whole unit
        assert kazhdan_degree(br) <= dx + dy - 2


# ---------------------------------------------------------------------------
# the straightening kernel: interned spaces and their memos


@pytest.mark.parametrize("parts", [(2, 1), (3, 1), (2, 1, 1)])
def test_kernel_agrees_with_a_fresh_space(parts):
    alg = Algebra(Partition(parts))
    rng = random.Random(len(parts) * 10 + parts[0])
    for _ in range(12):
        x, y, z = (random_element(alg, rng) for _ in range(3))
        v = reduce_mod_I(random_element(alg, rng))
        # the shared spaces are warm from earlier products; fresh ones are not
        assert (x * y).terms == _fold(x.terms, y.terms, _Space(alg._comm_ids))
        fresh = _Space(alg._comm_ids, alg._act_cache.seed)
        assert act(x, v).terms == _fold(x.terms, v.terms, fresh)
        assert (x * y) * z == x * (y * z)
    for space in (alg._lm_cache, alg._act_cache):
        assert len(space.monos) == len(space.ids)
        assert all(space.monos[i] == m for m, i in space.ids.items())
        ids = {i for row in space.rows.values() for i in row}
        ids |= {i for row in space.rows.values() for got in row.values()
                for i in got[::2]}
        assert ids <= set(range(len(space.monos)))
        # every row, the seeded chi rows too, is flat: (id0, c0, id1, c1, ...)
        for row in space.rows.values():
            for got in row.values():
                assert type(got) is tuple and len(got) % 2 == 0
                assert all(type(i) is int for i in got[::2])


def test_action_memo_of_a_membership_check_stays_small():
    # flat rows: (2,1,1) at -5 leaves 68,837 entries, 17.3 MB as pair tuples
    p = Partition((2, 1, 1))
    space = Algebra(p)._act_cache
    space.clear()
    assert w_membership_check(build_L(p, -10))["pass"]
    # a row's size counts any tuple nested in it
    size = sum(sys.getsizeof(row) + sum(sys.getsizeof(got) + sum(
        sys.getsizeof(x) for x in got if type(x) is tuple) for got in row.values())
        for row in space.rows.values())
    assert size < 10_000_000, size


def test_results_survive_a_cap_drop(monkeypatch):
    p = Partition((2, 1))
    alg = Algebra(p)
    basis = GeneratorBasis(family_generators(p, "minimal"))
    n = len(basis.labels)
    rng = random.Random(3)
    cases = []
    for _ in range(12):
        x, y = random_element(alg, rng), random_element(alg, rng)
        v = reduce_mod_I(random_element(alg, rng))
        P = {tuple(rng.choices(range(n), k=rng.randint(1, 3))): rng.choice([-1, 2])
             for _ in range(2)}
        Q = {tuple(sorted(rng.choices(range(n), k=2))): 1, (rng.randrange(n),): -3}
        cases.append((x, y, v, P, Q))

    def results(case):
        x, y, v, P, Q = case
        return (x * y).terms, act(x, v).terms, basis.poly_mul(P, Q)

    want = [results(case) for case in cases]
    monkeypatch.setattr(uea, "_LM_CACHE_CAP", 40)
    spaces = (alg._lm_cache, alg._act_cache, basis._nf_cache)
    drops = [0] * len(spaces)
    for case, w in zip(cases, want):
        before = [len(space) for space in spaces]
        assert results(case) == w
        # a space is cleared in place, so a drop shows as a shrink
        drops = [d + (len(space) < b) for d, space, b in zip(drops, spaces, before)]
    assert all(drops), drops
