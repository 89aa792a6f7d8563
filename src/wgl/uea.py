"""Exact arithmetic in U(gl_N) over a fixed pyramid.

Generators are the matrix units e_{a,b} indexed by ordered pairs of pyramid
boxes, with [e_ab, e_cd] = delta_bc e_ad - delta_da e_cb.  Elements are sparse
maps from PBW-ordered monomials to exact rational coefficients.

The total order on generators is blockwise by grading class — everything of
degree <= 0 first, then the degree-1/2 letters, then degree >= 1 — with ties
broken lexicographically.  Because of that, the trailing block of any
PBW-ordered monomial is exactly its degree->=1 part, which is what makes
reduction modulo the left ideal I (module `quotient`) a single substitution
pass.

All rewriting to PBW normal form is one iterative walk, `_straighten`, run
over a bracket function and a memo: the gl_N structure constants for U(g)
and for the action of U(g) on M = U(g)/I, and a generator family's bracket
table in `walgebra.GeneratorBasis`, whose brackets may be words of several
letters.  `_fold` multiplies a sum of words onto a sum of normal monomials
through that walk, sharing common tails.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from typing import Optional, Tuple, Union

from .pyramid import Box, HalfInt, Partition, boxes, grading_class, x_coord

Coeff = Union[int, Fraction]

# Straightening-cache entries are cheap to recompute but can pile up on long
# runs; past this many the cache is dropped wholesale (only between products,
# never mid-walk).
_LM_CACHE_CAP = 3_000_000


def _ncoeff(c: Coeff) -> Coeff:
    """Collapse Fractions with unit denominator to plain ints (speed)."""
    if type(c) is Fraction and c.denominator == 1:
        return int(c)
    return c


class Algebra:
    """U(gl_N) for one partition; interns letters and caches rewriting steps.

    One instance per partition (construction is memoized), so elements of the
    same partition share the letter tables and the normal-form cache.
    """

    _instances: dict = {}

    def __new__(cls, partition: Partition):
        key = partition.parts
        inst = cls._instances.get(key)
        if inst is None:
            inst = super().__new__(cls)
            inst._init(partition)
            cls._instances[key] = inst
        return inst

    def _init(self, partition: Partition):
        self.partition = partition
        self.boxes = boxes(partition)
        self.N = partition.N
        pairs = [(a, b) for a in self.boxes for b in self.boxes]
        pairs.sort(key=lambda ab: (grading_class(partition, *ab), ab))
        self.letters: Tuple[Tuple[Box, Box], ...] = tuple(pairs)
        self.letter_id = {ab: n for n, ab in enumerate(pairs)}
        # Presentation order: tuples of ranks sort exactly as tuples of letters.
        by_box = sorted(range(len(pairs)), key=pairs.__getitem__)
        rank = [0] * len(pairs)
        for r, n in enumerate(by_box):
            rank[n] = r
        self.letter_rank = tuple(rank)
        self.letter_json = tuple(((a.i, a.h), (b.i, b.h)) for a, b in pairs)
        self.cls = tuple(grading_class(partition, a, b) for a, b in pairs)
        self.deg2 = tuple(
            x_coord(partition, a).doubled - x_coord(partition, b).doubled
            for a, b in pairs
        )
        # Kazhdan degree of a letter is 1 - (grading degree), doubled here.
        self.delta2 = tuple(2 - d for d in self.deg2)
        # (f | e_{a,b}): 1 iff b is the box immediately right of a in its row.
        self.fval = tuple(
            1 if (a.i == b.i and b.h == a.h + 1) else 0 for a, b in pairs
        )
        self._comm_cache: dict = {}
        self._lm_cache: dict = {}
        # normal form of letter x times a PBW-ordered monomial in U(g)
        self._letter_mono = partial(_straighten, self._lm_cache, self._comm_ids)
        self._act_cache = self._act_memo()

    # -- structure constants ------------------------------------------------

    def _comm_ids(self, x: int, y: int):
        """[e_x, e_y] as ((letter id, +-1), ...)."""
        key = (x, y)
        hit = self._comm_cache.get(key)
        if hit is not None:
            return hit
        a, b = self.letters[x]
        c, d = self.letters[y]
        acc: dict = {}
        if b == c:
            t = self.letter_id[(a, d)]
            acc[t] = acc.get(t, 0) + 1
        if d == a:
            t = self.letter_id[(c, b)]
            acc[t] = acc.get(t, 0) - 1
        res = tuple((t, cf) for t, cf in acc.items() if cf != 0)
        self._comm_cache[key] = res
        return res

    # -- PBW straightening ---------------------------------------------------

    def act_terms(self, left: dict, right: dict) -> dict:
        """Terms of x·v in M = U(g)/I, for x with terms `left` and a reduced
        v with terms `right`.

        The straightening walk on a second memo, seeded with e_x·1 = (f|e_x)
        for the degree->=1 letters: as those sort last, no other rewrite puts
        one into a reduced monomial.  Past the cap the memo is dropped
        wholesale, between actions only.
        """
        if len(self._act_cache) > _LM_CACHE_CAP:
            self._act_cache = self._act_memo()
        return _fold(left, right, partial(_straighten, self._act_cache, self._comm_ids))

    def _act_memo(self) -> dict:
        return {(x, ()): ((((), f),) if f else ())
                for x, (c, f) in enumerate(zip(self.cls, self.fval)) if c == 2}

    # -- element factories ----------------------------------------------------

    def zero(self) -> "UEAElement":
        return UEAElement(self, {})

    def one(self) -> "UEAElement":
        return UEAElement(self, {(): 1})

    def scalar(self, c: Coeff) -> "UEAElement":
        c = _ncoeff(c)
        return UEAElement(self, {(): c} if c != 0 else {})

    def _lid(self, a, b) -> int:
        lid = self.letter_id.get((Box(*a), Box(*b)))
        if lid is None:
            raise ValueError(f"no generator e[{tuple(a)},{tuple(b)}] for partition {self.partition}")
        return lid

    def gen(self, a, b) -> "UEAElement":
        return UEAElement(self, {(self._lid(a, b),): 1})

    def gen_by_id(self, lid: int) -> "UEAElement":
        return UEAElement(self, {(lid,): 1})

    def element(self, terms: dict) -> "UEAElement":
        return UEAElement(self, dict(terms))

    def normal_form(self, expr) -> "UEAElement":
        """Normal form of a formal expression.

        Accepts the element text grammar (see `parse_element`) or an iterable
        of (coeff, [letter, ...]) pairs, letters given as ((i,h),(j,k)).
        """
        if isinstance(expr, str):
            return parse_element(self, expr)
        words: dict = {}
        for coeff, word in expr:
            ids = tuple(self._lid(a, b) for a, b in word)
            words[ids] = words.get(ids, 0) + _ncoeff(coeff)
        return UEAElement(self, _fold(words, {(): 1}, self._letter_mono))

    def __repr__(self):
        return f"Algebra(gl_{self.N}, partition {self.partition})"


def _straighten(memo: dict, comm, x, mono: tuple):
    """Normal form of x·mono for a normal (PBW-ordered) mono, as
    ((monomial, coeff), ...), memoized in `memo` under the key (x, mono).

    comm(x, y) gives the bracket [x, y] of letters x > y as (head, coeff)
    pairs, where a head is one letter or a word w of two or more letters.
    A key (w, mono) stands for w[0]·(w[1:]·mono) and is resolved in the same
    two stages as y·(x·rest) when x·(y·rest) is rewritten.  Iterative
    dependency walk (no recursion): termination follows from the usual
    diamond-lemma argument — each rewrite either shortens the word or
    removes an inversion.

    Three memos are filled this way: `Algebra._lm_cache` (U(g)),
    `Algebra._act_cache` (the action on M, seeded with e_x·1 for the
    degree->=1 letters) and `GeneratorBasis._nf_cache` (a generator family
    over its bracket table, the only one with word keys).
    """
    root = (x, mono)
    cached = memo.get(root)
    if cached is not None:
        return cached
    stack = [root]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        kx, kmono = key
        if type(kx) is tuple:
            y, terms = kx[0], ()
            dep1 = (kx[1] if len(kx) == 2 else kx[1:], kmono)
        elif not kmono or kx <= kmono[0]:
            memo[key] = (((kx,) + kmono, 1),)
            stack.pop()
            continue
        else:
            y, rest = kmono[0], kmono[1:]
            dep1, terms = (kx, rest), comm(kx, y)
        ready = True
        got1 = memo.get(dep1)
        if got1 is None:
            stack.append(dep1)
            ready = False
        else:
            for m1, _ in got1:
                if (y, m1) not in memo:
                    stack.append((y, m1))
                    ready = False
        for t, _ in terms:
            if (t, rest) not in memo:
                stack.append((t, rest))
                ready = False
        if not ready:
            continue
        acc: dict = {}
        for m1, c1 in got1:
            for m2, c2 in memo[(y, m1)]:
                acc[m2] = acc.get(m2, 0) + c1 * c2
        for t, ct in terms:
            for m3, c3 in memo[(t, rest)]:
                acc[m3] = acc.get(m3, 0) + ct * c3
        memo[key] = tuple((m, c) for m, c in acc.items() if c != 0)
        stack.pop()
    return memo[root]


def _fold(left: dict, right: dict, step) -> dict:
    """Terms of sum_u c_u * (u acting on `right`) over the monomials u of
    `left`, where step(letter, mono) gives one letter times one monomial.

    Folds each word's letters right-to-left onto `right`, sharing partial
    results between monomials with a common tail: the reversed words are
    sorted so equal tails are contiguous, then walked as a trie (one fold
    per distinct tail extension).
    """
    res: dict = {}
    items = sorted((mono[::-1], c) for mono, c in left.items())
    stack = [(0, len(items), 0, right)]
    while stack:
        lo, hi, depth, acc = stack.pop()
        i = lo
        csum = 0
        while i < hi and len(items[i][0]) == depth:
            csum += items[i][1]
            i += 1
        if csum:
            for mono, c in acc.items():
                res[mono] = res.get(mono, 0) + csum * c
        while i < hi:
            ell = items[i][0][depth]
            j = i
            while j < hi and items[j][0][depth] == ell:
                j += 1
            nxt: dict = {}
            for mono, c in acc.items():
                for m2, c2 in step(ell, mono):
                    nxt[m2] = nxt.get(m2, 0) + c * c2
            stack.append((i, j, depth + 1,
                          {m: c for m, c in nxt.items() if c}))
            i = j
    return {m: c for m, c in res.items() if c}


class UEAElement:
    """Sparse PBW-normal-form element of U(gl_N).

    Immutable by convention: no method mutates `terms` after construction.
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg: Algebra, terms: dict):
        self.alg = alg
        self.terms = {m: _ncoeff(c) for m, c in terms.items() if c != 0}

    # -- ring operations ------------------------------------------------------

    def _check(self, other: "UEAElement"):
        if self.alg is not other.alg:
            raise ValueError("elements belong to different algebras")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.alg.scalar(other)
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return UEAElement(self.alg, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.alg.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return UEAElement(self.alg, {m: -c for m, c in self.terms.items()})

    def scale(self, c: Coeff) -> "UEAElement":
        c = _ncoeff(c)
        if c == 0:
            return self.alg.zero()
        return UEAElement(self.alg, {m: cf * c for m, cf in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        alg = self.alg
        if len(alg._lm_cache) > _LM_CACHE_CAP:
            alg._lm_cache.clear()
        return UEAElement(alg, _fold(self.terms, other.terms, alg._letter_mono))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def commutator(self, other: "UEAElement") -> "UEAElement":
        return self * other - other * self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.alg.scalar(other)
        if not isinstance(other, UEAElement):
            return NotImplemented
        return self.alg is other.alg and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.alg), tuple(sorted(self.terms.items()))))

    def is_zero(self) -> bool:
        return not self.terms

    # -- gradings ---------------------------------------------------------------

    def kazhdan_degree(self) -> Optional[HalfInt]:
        """Smallest filtration degree containing this element; None for 0."""
        if not self.terms:
            return None
        delta2 = self.alg.delta2
        return HalfInt(max(sum(delta2[ell] for ell in m) for m in self.terms))

    def is_central(self) -> bool:
        alg = self.alg
        for lid in range(len(alg.letters)):
            if not alg.gen_by_id(lid).commutator(self).is_zero():
                return False
        return True

    # -- presentation -------------------------------------------------------------

    def sorted_terms(self):
        rank = self.alg.letter_rank.__getitem__
        return sorted(self.terms.items(),
                      key=lambda mc: (len(mc[0]), tuple(map(rank, mc[0]))))

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        letters = self.alg.letters
        chunks = []
        for mono, c in self.sorted_terms():
            body = "*".join(
                f"e[({a.i},{a.h}),({b.i},{b.h})]" for a, b in (letters[ell] for ell in mono)
            )
            mag = abs(Fraction(c))
            coeff_txt = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
            if not body:
                piece = coeff_txt
            elif mag == 1:
                piece = body
            else:
                piece = f"{coeff_txt}*{body}"
            sign = "-" if c < 0 else "+"
            chunks.append((sign, piece))
        first_sign, first_piece = chunks[0]
        out = ("-" if first_sign == "-" else "") + first_piece
        for sign, piece in chunks[1:]:
            out += f" {sign} {piece}"
        return out

    def to_json_obj(self) -> list:
        letter = self.alg.letter_json.__getitem__
        return [{"coeff": str(c), "monomial": list(map(letter, mono))}
                for mono, c in self.sorted_terms()]

    def __repr__(self):
        return self.to_text()


# -- text / JSON parsing -------------------------------------------------------

_LETTER_RE = re.compile(
    r"e\[\(\s*(\d+)\s*,\s*(\d+)\s*\)\s*,\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)\]"
)


def _split_terms(text: str):
    """Split on top-level + and - (not inside e[...] brackets)."""
    terms = []
    sign, buf, depth = 1, [], 0
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if depth == 0 and ch in "+-" and buf and "".join(buf).strip():
            terms.append((sign, "".join(buf).strip()))
            sign, buf = (1 if ch == "+" else -1), []
        elif depth == 0 and ch in "+-" and not "".join(buf).strip():
            # leading sign of the term
            sign *= 1 if ch == "+" else -1
            buf = []
        else:
            buf.append(ch)
    tail = "".join(buf).strip()
    if tail:
        terms.append((sign, tail))
    return terms


def parse_element(alg: Algebra, text: str) -> UEAElement:
    """Parse the element grammar: `coeff*e[(i,h),(j,k)]*...` joined by +/-."""
    text = text.strip()
    if text == "0" or not text:
        return alg.zero()
    total = alg.zero()
    for sign, term in _split_terms(text):
        coeff = Fraction(sign)
        word = []
        for factor in term.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in term {term!r}")
            m = _LETTER_RE.fullmatch(factor)
            if m:
                i, h, j, k = map(int, m.groups())
                word.append(((i, h), (j, k)))
            else:
                try:
                    coeff *= Fraction(factor)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ValueError(f"bad factor {factor!r} in element text") from exc
        total = total + alg.normal_form([(coeff, word)])
    return total


def element_from_json(alg: Algebra, obj) -> UEAElement:
    """Inverse of to_json_obj; accepts the bare term array or {"terms": [...]}."""
    if isinstance(obj, dict):
        obj = obj.get("terms", [])
    if not isinstance(obj, list):
        raise ValueError("an element is a list of terms or an object with "
                         f"\"terms\", not {type(obj).__name__}")
    words = []
    for entry in obj:
        try:
            coeff = Fraction(entry["coeff"])
        except ZeroDivisionError as exc:
            raise ValueError(f'"coeff" {entry["coeff"]!r} has a zero denominator') from exc
        word = [ (tuple(a), tuple(b)) for a, b in entry["monomial"] ]
        words.append((coeff, word))
    return alg.normal_form(words)
