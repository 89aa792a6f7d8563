"""The left ideal I, the quotient module M = U(g)/I, and W-algebra plumbing.

I is generated by m - (f|m) for the letters m of degree >= 1.  Because the
generator order puts those letters last, a PBW monomial reduces modulo I by
replacing its trailing degree->=1 block with the product of the character
values chi(m) = (f|m).  The result is the canonical representative of the
coset: a polynomial in the degree-<=0 and degree-1/2 letters only.

W-algebra membership is the ad-invariance test [a, w]·1 = 0 in M for every
letter a of degree >= 1/2; products of W-elements can be computed either from
lifts (reduce(w1*w2) — canonical representatives are themselves valid lifts,
since they differ from any ad-invariant lift by an element of I, and I is
contained in the invariant lift set) or through the tensor-factor product
`ucirc_mul`, which multiplies the degree-<=0 blocks in order and the
degree-1/2 (Weyl) blocks in the opposite order.  The two must agree on
W-elements; keeping both catches convention slips.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .pyramid import Box
from .uea import Algebra, UEAElement


class MElement(UEAElement):
    """Canonical representative of a coset in M = U(g)/I.

    Same storage as UEAElement; the invariant is that no letter of grading
    degree >= 1 occurs.  Arithmetic with + and scalar * stays inside M;
    ordinary * is the ambient U(g) product of the representatives (reduce
    afterwards if an M-result is wanted).
    """

    __slots__ = ()

    def to_json_obj(self) -> dict:  # type: ignore[override]
        return {"reduced": True, "terms": super().to_json_obj()}


def chi(alg: Algebra, letter) -> int:
    """Character value (f | e_letter) for a degree->=1 letter."""
    if isinstance(letter, int):
        lid = letter
    else:
        a, b = letter
        lid = alg.letter_id[(Box(*a), Box(*b))]
    if alg.cls[lid] != 2:
        a, b = alg.letters[lid]
        raise ValueError(f"letter e[{tuple(a)},{tuple(b)}] is not in the degree->=1 part")
    return alg.fval[lid]


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
    return MElement(alg, out)


def is_reduced(x: UEAElement) -> bool:
    cls = x.alg.cls
    return all(cls[ell] != 2 for mono in x.terms for ell in mono)


def ad_letters(alg: Algebra) -> Tuple[int, ...]:
    """Letter ids of the degree->=1/2 part, the test set for W-membership."""
    return tuple(lid for lid in range(len(alg.letters)) if alg.cls[lid] >= 1)


def ad_invariant_witness(lift: UEAElement) -> Optional[Tuple[Box, Box]]:
    """None if [a, lift]·1 = 0 for all degree->=1/2 letters a, else a failing letter."""
    alg = lift.alg
    for lid in ad_letters(alg):
        if not reduce_mod_I(alg.gen_by_id(lid).commutator(lift)).is_zero():
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
    total: dict = {}
    for m1, c1 in x.terms.items():
        a1, q1 = _split_blocks(alg, m1)
        for m2, c2 in y.terms.items():
            a2, q2 = _split_blocks(alg, m2)
            word = a1 + a2 + q2 + q1
            for mono, c in alg._word_terms(word, c1 * c2).items():
                total[mono] = total.get(mono, 0) + c
    return reduce_mod_I(UEAElement(alg, total))


def w_product(x: MElement, y: MElement) -> MElement:
    """W-algebra product via lifts: reduce(x*y) on canonical representatives."""
    return reduce_mod_I(x * y)


def w_commutator(x: MElement, y: MElement) -> MElement:
    return reduce_mod_I(x * y - y * x)
