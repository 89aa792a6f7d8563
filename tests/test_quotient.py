import random

import pytest

from wgl import quotient, uea
from wgl.pyramid import Box, Partition
from wgl.quotient import (
    MElement,
    act,
    ad_invariant_witness,
    ad_letters,
    reduce_mod_I,
    ucirc_mul,
    w_commutator,
    w_product,
)
from wgl.uea import Algebra, _Space, _fold
from wgl.walgebra import build_L, family_generators

from conftest import random_element


@pytest.fixture(scope="module")
def alg2():
    return Algebra(Partition((2,)))


@pytest.fixture(scope="module")
def alg21():
    return Algebra(Partition((2, 1)))


def test_reduce_replaces_raising_letters_by_their_character(alg2):
    # the one-step raising letter maps to 1, everything else in the
    # positive part to 0
    up = alg2.gen(Box(1, 1), Box(1, 2))
    assert reduce_mod_I(up) == reduce_mod_I(alg2.one())
    assert reduce_mod_I(up - alg2.one()).is_zero()


def test_reduce_fixes_reduced_elements(alg2):
    x = alg2.gen(Box(1, 2), Box(1, 1)) * alg2.gen(Box(1, 1), Box(1, 1))
    r = reduce_mod_I(x)
    assert isinstance(r, MElement)
    assert all(alg2.cls[ell] != 2 for mono in r.terms for ell in mono)
    assert reduce_mod_I(r) == r


def test_reduce_is_left_linear(alg21):
    rng = random.Random(5)
    for _ in range(20):
        x = random_element(alg21, rng)
        y = random_element(alg21, rng)
        assert reduce_mod_I(x + y) == reduce_mod_I(x) + reduce_mod_I(y)
        assert reduce_mod_I(x.scale(3)) == reduce_mod_I(x).scale(3)


def test_quotient_product_reduces_the_lift_product(alg21):
    rng = random.Random(11)
    for _ in range(15):
        x = reduce_mod_I(random_element(alg21, rng))
        y = reduce_mod_I(random_element(alg21, rng))
        assert w_product(x, y) == reduce_mod_I(x * y)


def test_quotient_product_is_associative(alg21):
    rng = random.Random(17)
    for _ in range(10):
        x = reduce_mod_I(random_element(alg21, rng, max_deg=2))
        y = reduce_mod_I(random_element(alg21, rng, max_deg=2))
        z = reduce_mod_I(random_element(alg21, rng, max_deg=2))
        assert w_product(w_product(x, y), z) == w_product(x, w_product(y, z))


def test_quotient_commutator_antisymmetric(alg21):
    rng = random.Random(23)
    for _ in range(10):
        x = reduce_mod_I(random_element(alg21, rng, max_deg=2))
        y = reduce_mod_I(random_element(alg21, rng, max_deg=2))
        assert w_commutator(x, y) == -w_commutator(y, x)


def test_ad_invariance_witness(alg2):
    e = lambda a, b: alg2.gen(Box(1, a), Box(1, b))
    w1 = e(1, 1) + e(2, 2) - alg2.one()
    assert ad_invariant_witness(w1) is None
    wit = ad_invariant_witness(e(1, 1))
    assert wit == (Box(1, 1), Box(1, 2))


def test_ordered_product_agrees_on_invariant_pairs(alg2):
    # the ordered-splitting product and the reduce-after-multiplying product
    # must coincide on ad-invariant elements
    e = lambda a, b: alg2.gen(Box(1, a), Box(1, b))
    w1 = reduce_mod_I(e(1, 1) + e(2, 2) - alg2.one())
    w0 = reduce_mod_I(e(1, 1) + e(2, 1) - e(1, 1) * e(2, 2))
    for x in (w1, w0):
        for y in (w1, w0):
            assert ucirc_mul(x, y) == w_product(x, y)


@pytest.mark.parametrize("family, parts", [
    ("principal", (3,)), ("principal", (4,)), ("rectangular", (2, 2)),
    ("rectangular", (3, 3)), ("minimal", (2, 1)), ("minimal", (2, 1, 1))])
def test_ordered_product_agrees_on_every_pair_of_table_entries(family, parts):
    # the oracle for the relation tables, which multiply with w_product only
    table = list(family_generators(Partition(parts), family).table.values())
    for x in table:
        for y in table:
            assert w_product(x, y) == ucirc_mul(x, y)


def test_ordered_product_differs_on_a_non_invariant_pair(alg21):
    # two degree-1/2 letters of (2,1) whose bracket has character 1: the
    # Weyl blocks multiply in opposite orders, so the products differ by it
    x, y = (reduce_mod_I(alg21.gen(a, b)) for a, b in
            (((1, 1), (2, 1)), ((2, 1), (1, 2))))
    assert all(alg21.deg2[ell] == 1 for e in (x, y) for (ell,) in e.terms)
    assert ad_invariant_witness(x) is not None and ad_invariant_witness(y) is not None
    assert w_product(x, y) - ucirc_mul(x, y) == reduce_mod_I(alg21.one())


def test_invariants_commute_in_rank_one_quotient(alg2):
    e = lambda a, b: alg2.gen(Box(1, a), Box(1, b))
    w1 = reduce_mod_I(e(1, 1) + e(2, 2) - alg2.one())
    w0 = reduce_mod_I(e(1, 1) + e(2, 1) - e(1, 1) * e(2, 2))
    assert w_commutator(w1, w0).is_zero()


def test_melement_json_is_tagged_reduced(alg2):
    obj = reduce_mod_I(alg2.gen(Box(1, 2), Box(1, 1))).to_json_obj()
    assert obj["reduced"] is True
    assert isinstance(obj["terms"], list)


# ---------------------------------------------------------------------------
# the left action of U(g) on M against the lift-product oracle


def _raising_factor(alg, rng):
    """A random element times a random degree->=1 letter (which survives
    normal ordering: those letters sort last)."""
    raising = [lid for lid, c in enumerate(alg.cls) if c == 2]
    return random_element(alg, rng, max_deg=2) * alg.gen_by_id(rng.choice(raising))


@pytest.mark.parametrize("parts", [(2, 1), (3, 1), (2, 2), (2, 1, 1)])
def test_action_is_the_reduced_lift_product(parts):
    alg = Algebra(Partition(parts))
    rng = random.Random(len(alg.letters))
    for _ in range(12):
        x = random_element(alg, rng) + _raising_factor(alg, rng)
        v = reduce_mod_I(random_element(alg, rng))
        assert act(x, v) == reduce_mod_I(x * v)
        assert w_product(reduce_mod_I(x), v) == reduce_mod_I(reduce_mod_I(x) * v)


def _positive_letters(alg):
    """Every letter of degree >= 1/2: n = g_{>=1/2} spanned letter by letter."""
    return [lid for lid, c in enumerate(alg.cls) if c]


@pytest.mark.parametrize("parts", [(2, 1), (3, 1)])
def test_ad_witness_agrees_with_the_commutator_oracle(parts):
    # (3,1) has a degree->=1 letter with chi = 0, e[(1,1),(1,3)]
    L = build_L(Partition(parts), -3, lift=True)
    alg = L.lift.alg
    coeffs = [se.terms[n2] for row in L.lift.data for se in row
              for n2 in se.exponents2()]
    coeffs.append(coeffs[0] + alg.gen(Box(1, 1), Box(1, 1)))
    for lift in coeffs:
        v = reduce_mod_I(lift)
        moved = set()
        for lid in _positive_letters(alg):
            a = alg.gen_by_id(lid)
            oracle = reduce_mod_I(a.commutator(lift))
            assert act(a, v) - act(lift, reduce_mod_I(a)) == oracle
            if not oracle.is_zero():
                moved.add(lid)
        # None exactly when no letter of n moves the coefficient; otherwise
        # the first generator that does
        first = next((alg.letters[g] for g in ad_letters(alg) if g in moved), None)
        assert (first is None) == (not moved)
        assert ad_invariant_witness(lift) == first
    assert moved  # the perturbed coefficient is caught


@pytest.mark.parametrize("parts, letters, gens", [
    ((2, 1), 3, 2), ((3, 1), 5, 4), ((2, 2), 4, 4), ((2, 1, 1), 5, 4),
    ((2, 2, 1), 8, 4), ((3, 2), 10, 4), ((3, 3), 12, 8), ((3, 1, 1), 7, 6)])
def test_membership_tests_generators_of_the_positive_part(parts, letters, gens):
    alg = Algebra(Partition(parts))
    n = set(_positive_letters(alg))
    assert (len(n), len(ad_letters(alg))) == (letters, gens)
    # brackets of letters of n are letters of n; the generators reach them all
    span = set(ad_letters(alg))
    grown = True
    while grown:
        new = {t for x in span for y in span for t, _ in alg._comm_ids(x, y)}
        grown = not new <= span
        span |= new
    assert span == n


def _flat(grouped, weyl):
    """The terms of a {u0: {id of q: coeff}} map of the prefix route."""
    return {u0 + weyl.words[qi]: c for u0, qs in grouped.items()
            for qi, c in qs.items() if c}


def _coefficients(parts, f2, extra=3, seed=0):
    """The reduced L(z) coefficients of a shape, and `extra` of them moved
    by a random element."""
    L = build_L(Partition(parts), f2)
    alg = L.reduced.alg
    coeffs = [se.terms[n2] for row in L.reduced.data for se in row
              for n2 in se.exponents2()]
    rng = random.Random(seed)
    coeffs += [reduce_mod_I(c + random_element(alg, rng)) for c in coeffs[:extra]]
    return alg, coeffs


@pytest.mark.parametrize("parts, f2", [
    ((2, 1), -6), ((3, 1), -6), ((2, 2), -6), ((2, 1, 1), -4),
    ((2, 2, 1), -2), ((3, 3), -2)])
def test_prefix_route_agrees_with_the_fold_oracle(parts, f2):
    alg, coeffs = _coefficients(parts, f2, seed=sum(parts))
    fresh = _Space(alg._comm_ids, alg._act_cache.seed)
    for v in coeffs:
        weyl = quotient._Weyl(alg)
        groups = quotient._prefix_groups(alg, v.terms, weyl)
        assert _flat(groups, weyl) == v.terms
        for a in _positive_letters(alg):
            left = quotient._left_action(alg, a, groups, weyl)
            assert _flat(left, weyl) == _fold({(a,): 1}, v.terms, fresh)
            if alg.cls[a] == 1:
                right = quotient._right_action(a, groups, weyl)
                assert _flat(right, weyl) == _fold(v.terms, {(a,): 1}, fresh)


def test_a_perturbed_coefficient_is_caught_by_a_generator():
    alg, (v, *_) = _coefficients((2, 1, 1), -4, extra=0)
    assert ad_invariant_witness(v) is None
    lift = v + alg.gen(Box(1, 1), Box(1, 1))
    wit = ad_invariant_witness(lift)
    assert wit is not None and alg.letter_id[wit] in ad_letters(alg)
    assert not reduce_mod_I(alg.gen(*wit).commutator(lift)).is_zero()


def test_membership_verdicts_survive_a_cap_drop(monkeypatch):
    alg, coeffs = _coefficients((2, 1, 1), -4, seed=5)
    want = [ad_invariant_witness(v) for v in coeffs]
    assert None in want and any(w is not None for w in want)
    clears = []
    clear = uea._Space.clear
    monkeypatch.setattr(uea._Space, "clear",
                        lambda space: clears.append(space) or clear(space))
    monkeypatch.setattr(uea, "_LM_CACHE_CAP", 40)
    assert [ad_invariant_witness(v) for v in coeffs] == want
    assert any(space is alg._lm_cache for space in clears)


def test_action_memo_is_dropped_past_the_cap(monkeypatch):
    alg = Algebra(Partition((3, 1)))
    rng = random.Random(41)
    pairs = [(random_element(alg, rng) + _raising_factor(alg, rng),
              reduce_mod_I(random_element(alg, rng))) for _ in range(20)]
    want = [reduce_mod_I(x * v) for x, v in pairs]
    monkeypatch.setattr(uea, "_LM_CACHE_CAP", 40)
    drops = 0
    for (x, v), w in zip(pairs, want):
        before = len(alg._act_cache)
        assert act(x, v) == w
        # the space is cleared in place, so a drop shows as a shrink
        drops += len(alg._act_cache) < before
    assert drops >= 1
