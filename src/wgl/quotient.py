"""The left ideal I, the quotient module M = U(g)/I, and W-algebra plumbing.

I is generated by m - (f|m) for the letters m of degree >= 1.  Because the
generator order puts those letters last, a PBW monomial reduces modulo I by
replacing its trailing degree->=1 block with the product of the character
values chi(m) = (f|m).  The result is the canonical representative of the
coset: a polynomial in the degree-<=0 and degree-1/2 letters only.

Since I is a left ideal, U(g) acts on M from the left, and `act` computes
that action on canonical representatives, reducing after every letter.
W-algebra membership is the ad-invariance test [a, w]·1 = 0 in M for every
Lie generator a of g_{>=1/2} (`ad_letters`); `ad_invariant_witness` runs it
without the action memo, one degree-<=0 prefix at a time.  The product of
W-elements is w1·(w2·1), the action of the canonical representative of w1
on that of w2 (any lift of w1 gives the same vector, since I·w2 lies in I
for an invariant w2); `w_product` is the only W-product the package runs.
The tensor-factor product `ucirc_mul` multiplies the degree-<=0 blocks in
order and the degree-1/2 (Weyl) blocks in the opposite order.  It must agree with `w_product` on
W-elements, so the tests use it as their oracle for the relation tables, and
the benchmark tracer wraps it; no package code calls it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Tuple

from . import uea
from .pyramid import Box
from .uea import Algebra, UEAElement, _fold, _straighten


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


def act(x: UEAElement, v: MElement) -> MElement:
    """Canonical representative of x·v in M, for any x in U(g) and reduced v."""
    if x.alg is not v.alg:
        raise ValueError("elements belong to different algebras")
    return MElement(x.alg, _fold(x.terms, v.terms, x.alg._act_cache))


def ad_letters(alg: Algebra) -> Tuple[int, ...]:
    """Letter ids of a generating set of n = g_{>=1/2}, the test set for
    W-membership: the letters of degree >= 1/2 outside [n, n].

    [e_ab, e_bd] = e_ad, as a != d for two letters of positive degree, so
    [n, n] is spanned by the letters e_ad with e_ab and e_bd in n.  The
    other letters span n/[n, n], and so they generate the nilpotent Lie
    algebra n.
    """
    n = [ab for lid, ab in enumerate(alg.letters) if alg.cls[lid]]
    inner = {(a, d) for a, b in n for c, d in n if b == c}
    return tuple(lid for lid, ab in enumerate(alg.letters)
                 if alg.cls[lid] and ab not in inner)


class _Weyl:
    """The degree-1/2 words q of M, numbered with small ints, and the closed
    forms of x·q and q·x in M for a degree-1/2 letter x, memoized as lists
    of (word id, coeff).

    `chi[x][y]` = chi([e_x, e_y]) for degree-1/2 letters x, y, nonzero
    values only: moving x right past y in a word costs that scalar.
    """

    __slots__ = ("ids", "words", "chi", "memo")

    def __init__(self, alg: Algebra):
        self.ids: dict = {}
        self.words: list = []
        self.memo: dict = {}
        half = [lid for lid, c in enumerate(alg.cls) if c == 1]
        self.chi: dict = {}
        for x in half:
            for y in half:
                v = sum(c * alg.fval[t] for t, c in alg._comm_ids(x, y))
                if v:
                    self.chi.setdefault(x, {})[y] = v

    def intern(self, q: tuple) -> int:
        i = self.ids.get(q)
        if i is None:
            i = self.ids[q] = len(self.words)
            self.words.append(q)
        return i

    def times(self, x: int, qi: int, side: int = 1) -> list:
        """x·q for side 1, q·x for side -1: x moves into its place past each
        letter y of q on the way, y < x for x·q and y > x for q·x, at the
        cost side·chi([x, y])."""
        got = self.memo.get((x, qi, side))
        if got is None:
            q = self.words[qi]
            i = bisect_left(q, x)
            got = [(self.intern(q[:i] + (x,) + q[i:]), 1)]
            # dropping any copy of y leaves the same word
            for y, c in self.chi.get(x, {}).items():
                if (y - x) * side < 0 and y in q:
                    j = q.index(y)
                    got.append((self.intern(q[:j] + q[j + 1:]), side * c * q.count(y)))
            self.memo[x, qi, side] = got
        return got


def _prefix_groups(alg: Algebra, terms: dict, weyl: _Weyl) -> dict:
    """The reduced monomials u0·q of `terms` as {u0: {id of q: coeff}}."""
    groups: dict = {}
    for mono, c in terms.items():
        u0, q = _split_blocks(alg, mono)
        groups.setdefault(u0, {})[weyl.intern(q)] = c
    return groups


def _left_action(alg: Algebra, a: int, groups: dict, weyl: _Weyl) -> dict:
    """a·v in M as {w0: {id of q: coeff}}, zeros kept, for a letter a of
    degree >= 1/2 and v given by `_prefix_groups`.

    a·u0 is straightened once per prefix u0 in the U(g) memo.  Its terms
    w0·t are grouped by t, and each t·q is finished in closed form.
    """
    cls, fval, space = alg.cls, alg.fval, alg._lm_cache
    out: dict = {}
    for u0, qs in groups.items():
        # ids stay valid only until a clear, as between the folds of `_fold`
        if len(space) > uea._LM_CACHE_CAP:
            space.clear()
        row = _straighten(space, a, space.intern(u0))
        monos = space.monos
        by_t: dict = {}
        for m, c2 in ((row, 1),) if type(row) is int else zip(row[::2], row[1::2]):
            w0 = monos[m]
            t = w0[-1] if w0 and cls[w0[-1]] else None
            if t is not None:
                w0 = w0[:-1]
                if cls[t] == 2:
                    if not fval[t]:
                        continue
                    t = None
            by_t.setdefault(t, []).append((out.setdefault(w0, {}), c2))
        for t, ws in by_t.items():
            for qi, c in qs.items():
                for wi, k in ((qi, 1),) if t is None else weyl.times(t, qi):
                    k *= c
                    for acc, c2 in ws:
                        acc[wi] = acc.get(wi, 0) + k * c2
    return out


def _right_action(a: int, groups: dict, weyl: _Weyl) -> dict:
    """v·a in M as {u0: {id of q: coeff}}, zeros kept, for a letter a of
    degree 1/2 and v given by `_prefix_groups`."""
    out: dict = {}
    for u0, qs in groups.items():
        acc = out[u0] = {}
        for qi, c in qs.items():
            for wi, k in weyl.times(a, qi, -1):
                acc[wi] = acc.get(wi, 0) + k * c
    return out


def _nonzero(grouped: dict) -> dict:
    """`grouped` without its zero coefficients and empty groups."""
    out = {}
    for u0, qs in grouped.items():
        qs = {q: c for q, c in qs.items() if c}
        if qs:
            out[u0] = qs
    return out


def ad_invariant_witness(lift: UEAElement) -> Optional[Tuple[Box, Box]]:
    """None if [a, lift]·1 = 0 in M for every letter a of `ad_letters`,
    else the first generator a that fails.

    Since [a, I] lies in I for every a in n = g_{>=1/2} ([a, m] has degree
    >= 3/2, where chi vanishes), the a with [a, lift]·1 = 0 form a Lie
    subalgebra of n, so testing generators of n is enough.  Any lift gives
    the same vector (see `w_membership_check`), so the test reads
    v = reduce_mod_I(lift) and compares a·v with v·a = v·(a·1): a·1 is the
    letter a for degree 1/2 and the scalar chi(a) for degree >= 1.  Both
    sides are finished in closed form, which rests on three facts:
    - In M, degree-1/2 letters commute up to the central scalars
      chi([x, y]): [x, y] has degree 1, and moving it to the right end
      leaves only letters of degree >= 3/2.
    - A letter of degree >= 3/2 pushed to the right end of a word is killed
      by chi, and so is every bracket it meets on the way.
    - g_{<=0} is a subalgebra, so a·u0 normal-orders in U(g) to terms
      w0·t, where t is at most one positive letter and comes last.
    """
    alg = lift.alg
    weyl = _Weyl(alg)
    groups = _prefix_groups(alg, reduce_mod_I(lift).terms, weyl)
    for a in ad_letters(alg):
        if alg.cls[a] == 1:
            right = _nonzero(_right_action(a, groups, weyl))
        else:
            right = groups if alg.fval[a] else {}
        if _nonzero(_left_action(alg, a, groups, weyl)) != right:
            return alg.letters[a]
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
