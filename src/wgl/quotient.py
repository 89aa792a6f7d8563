"""The left ideal I, the quotient module M = U(g)/I, and W-algebra plumbing.

I is generated by m - (f|m) for the letters m of degree >= 1.  Because the
generator order puts those letters last, a PBW monomial reduces modulo I by
replacing its trailing degree->=1 block with the product of the character
values chi(m) = (f|m).  The result is the canonical representative of the
coset: a polynomial in the degree-<=0 and degree-1/2 letters only.

Since I is a left ideal, U(g) acts on M from the left, and `act` computes
that action on canonical representatives, reducing after every letter.
W-algebra membership is the ad-invariance test [a, w]·1 = 0 in M for every
letter a of degree >= 1/2, and the product of W-elements is w1·(w2·1), the
action of the canonical representative of w1 on that of w2 (any lift of w1
gives the same vector, since I·w2 lies in I for an invariant w2); `w_product`
is the only W-product the package runs.  The tensor-factor product
`ucirc_mul` multiplies the degree-<=0 blocks in order and the degree-1/2
(Weyl) blocks in the opposite order.  It must agree with `w_product` on
W-elements, so the tests use it as their oracle for the relation tables, and
the benchmark tracer wraps it; no package code calls it.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .pyramid import Box
from .uea import Algebra, UEAElement, _fold


class MElement(UEAElement):
    """Canonical representative of a coset in M = U(g)/I.

    Same storage as UEAElement; the invariant is that no letter of grading
    degree >= 1 occurs.  Arithmetic with + and scalar * stays inside M;
    ordinary * is the ambient U(g) product of the representatives (`act`
    gives the product in M).
    """

    __slots__ = ()

    def to_json_obj(self) -> dict:  # type: ignore[override]
        return {"reduced": True, "terms": super().to_json_obj()}


def reduce_mod_I(x: UEAElement) -> MElement:
    """Image of x·1 in M, as the canonical representative.

    Strips the trailing degree->=1 block of every monomial, multiplying the
    coefficient by the character value of each stripped letter.
    """
    alg = x.alg
    cls = alg.cls
    fval = alg.fval
    out: dict = {}
    for mono, c in x.terms.items():
        cut = len(mono)
        while cut > 0 and cls[mono[cut - 1]] == 2:
            cut -= 1
        keep = mono[:cut]
        for ell in mono[cut:]:
            if not fval[ell]:
                c = 0
                break
        if c:
            out[keep] = out.get(keep, 0) + c
    return MElement(alg, {m: c for m, c in out.items() if c})


def ad_letters(alg: Algebra) -> Tuple[int, ...]:
    """Letter ids of the degree->=1/2 part, the test set for W-membership."""
    return tuple(lid for lid in range(len(alg.letters)) if alg.cls[lid] >= 1)


def act(x: UEAElement, v: MElement) -> MElement:
    """Canonical representative of x·v in M, for any x in U(g) and reduced v."""
    if x.alg is not v.alg:
        raise ValueError("elements belong to different algebras")
    return MElement(x.alg, _fold(x.terms, v.terms, x.alg._act_cache))


def ad_invariant_witness(lift: UEAElement) -> Optional[Tuple[Box, Box]]:
    """None if [a, lift]·1 = 0 for all degree->=1/2 letters a, else a failing letter.

    [a, lift]·1 = a·(lift·1) - lift·(a·1), both sides computed in M; a·1 is
    the scalar chi(a) in {0, 1} for a of degree >= 1, and a for degree 1/2.
    """
    alg, v = lift.alg, reduce_mod_I(lift).terms
    for lid in ad_letters(alg):
        a = {(lid,): 1}
        xa = (v if alg.fval[lid] else {}) if alg.cls[lid] == 2 \
            else _fold(lift.terms, a, alg._act_cache)
        if _fold(a, v, alg._act_cache) != xa:
            return alg.letters[lid]
    return None


def _split_blocks(alg: Algebra, mono: tuple) -> Tuple[tuple, tuple]:
    """Split a reduced PBW monomial into its degree-<=0 and degree-1/2 blocks."""
    cls = alg.cls
    cut = 0
    while cut < len(mono) and cls[mono[cut]] == 0:
        cut += 1
    return mono[:cut], mono[cut:]


def ucirc_mul(x: MElement, y: MElement) -> MElement:
    """Product in U(g_{<=0}) tensor (opposite Weyl algebra), reduced.

    For monomials x = A1*q1, y = A2*q2 the result is reduce(A1*A2*q2*q1):
    ordinary product on the degree-<=0 factors, opposite product on the
    degree-1/2 factors.
    """
    if x.alg is not y.alg:
        raise ValueError("elements belong to different algebras")
    alg = x.alg
    words: dict = {}
    for m1, c1 in x.terms.items():
        a1, q1 = _split_blocks(alg, m1)
        for m2, c2 in y.terms.items():
            a2, q2 = _split_blocks(alg, m2)
            word = a1 + a2 + q2 + q1
            words[word] = words.get(word, 0) + c1 * c2
    return reduce_mod_I(UEAElement(alg, _fold(words, {(): 1}, alg._lm_cache)))


def w_product(x: MElement, y: MElement) -> MElement:
    """W-algebra product: the left action of x on y in M."""
    return act(x, y)


def w_commutator(x: MElement, y: MElement) -> MElement:
    return MElement(x.alg, (act(x, y) - act(y, x)).terms)
