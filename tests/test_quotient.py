import random

import pytest

from wgl import uea
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
from wgl.uea import Algebra
from wgl.walgebra import build_L

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
        first = None
        for lid in ad_letters(alg):
            a = alg.gen_by_id(lid)
            oracle = reduce_mod_I(a.commutator(lift))
            assert act(a, v) - act(lift, reduce_mod_I(a)) == oracle
            if first is None and not oracle.is_zero():
                first = alg.letters[lid]
        assert ad_invariant_witness(lift) == first
    assert first is not None  # the perturbed coefficient is caught


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
