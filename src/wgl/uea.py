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

All rewriting to PBW normal form is one iterative walk, `_straighten`, in
a `_Space`: a bracket, an intern table numbering monomials with small ints,
and a memo keyed by head and id.  A memo row is the bare id of a monomial
when the product is that monomial with coefficient 1, and otherwise a flat
(id, coeff, ...) tuple, () for zero.
The brackets are the gl_N structure constants for U(g) (`Algebra._lm_cache`)
and for its action on M = U(g)/I (`Algebra._act_cache`), and a generator
family's table in `walgebra.GeneratorBasis`, whose brackets may be words.
`_fold` multiplies a sum of words onto normal monomials, and so does
`quotient._left_action`, on its own (see `_LM_CACHE_CAP`).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Optional, Tuple, Union

from .pyramid import Box, Partition, boxes, grading_class, grading_degree

Coeff = Union[int, Fraction]

# Straightening-memo entries are cheap to recompute but can pile up on long
# runs; past this many a space is cleared wholesale (only between folds,
# never mid-walk).  An entry with its row and its share of the intern table
# takes about 165 bytes (tracemalloc: clearing the action memo that
# `build_L` fills on (2,1,1) at floor -8, 137,589 entries, frees 22.9 MB),
# so about 500 MB.
# `quotient._left_action` straightens in the U(g) memo without `_fold`: it
# reads the rows itself and applies this cap, so a change to the row layout
# or to the cap must update it as well.
# The stages that know their rows are done drop them sooner:
# - `series.quasideterminant` on the U(g) product clears the U(g) memo
#   between its complement solve and its corner product;
# - `walgebra.build_L` returns with the action memo fresh, and on the lift
#   route the U(g) memo too;
# - the generators route (`walgebra.yangian_check_L`) clears the action
#   memo once every coefficient is converted;
# - `walgebra.conjecture_check` and `walgebra.relation_table_check` return
#   with the action memo fresh.
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
        # Presentation order: a letter's rank among the letters sorted by
        # boxes, as one character, so strings of ranks sort exactly as
        # tuples of letters.
        by_box = sorted(range(len(pairs)), key=pairs.__getitem__)
        rank = [""] * len(pairs)
        for r, n in enumerate(by_box):
            rank[n] = chr(r)
        self.letter_rank = tuple(rank)
        self.letter_json = tuple(((a.i, a.h), (b.i, b.h)) for a, b in pairs)
        self.cls = tuple(grading_class(partition, a, b) for a, b in pairs)
        self.deg2 = tuple(grading_degree(partition, a, b) for a, b in pairs)
        # Kazhdan degree of a letter is 1 - (grading degree), doubled here.
        self.delta2 = tuple(2 - d for d in self.deg2)
        # (f | e_{a,b}): 1 iff b is the box immediately right of a in its row.
        self.fval = tuple(
            1 if (a.i == b.i and b.h == a.h + 1) else 0 for a, b in pairs
        )
        self._comm_cache: dict = {}
        self._lm_cache = _Space(self._comm_ids)
        # e_x·1 = (f|e_x) in M for the degree->=1 letters: as those sort
        # last, no other rewrite puts one into a reduced monomial
        self._act_cache = _Space(self._comm_ids, {x: 0 if f else ()
            for x, (c, f) in enumerate(zip(self.cls, self.fval)) if c == 2})

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
        # True and 1.0 would find the letter of 1: box indices are ints
        if lid is None or not all(type(v) is int for v in (*a, *b)):
            raise ValueError(f"no generator e[{tuple(a)},{tuple(b)}] for partition {self.partition}")
        return lid

    def gen(self, a, b) -> "UEAElement":
        return UEAElement(self, {(self._lid(a, b),): 1})

    def gen_by_id(self, lid: int) -> "UEAElement":
        return UEAElement(self, {(lid,): 1})

    def normal_form(self, expr) -> "UEAElement":
        """Normal form of an iterable of (coeff, [letter, ...]) pairs, letters
        given as ((i,h),(j,k))."""
        words: dict = {}
        for coeff, word in expr:
            ids = tuple(self._lid(a, b) for a, b in word)
            words[ids] = words.get(ids, 0) + coeff
        terms = _fold(words, {(): 1}, self._lm_cache)
        return UEAElement(self, {m: _ncoeff(c) for m, c in terms.items()})

    def __repr__(self):
        return f"Algebra(gl_{self.N}, partition {self.partition})"


class _Space:
    """Monomials interned as small ints (`monos[i]` has id i, `ids` maps it
    back, id 0 is ()), and the memo `rows[x][i]` = x·monos[i] for a head x,
    a letter or a word.  A row has one of two shapes: the int id of the one
    monomial when the product is that monomial with coefficient 1, else one
    flat tuple (id0, c0, id1, c1, ...), () for zero.  No (id, 1) tuple and
    no pair tuple is stored, which shrinks the memo.  `comm` is the bracket
    the walk rewrites with, `seed` the rows {x: x·1} the space starts from,
    in the same two shapes."""

    __slots__ = ("comm", "seed", "monos", "ids", "rows")

    def __init__(self, comm, seed: Optional[dict] = None):
        self.comm = comm
        self.seed = seed or {}
        self.clear()

    def clear(self) -> None:
        self.monos = [()]
        self.ids = {(): 0}
        self.rows = defaultdict(dict, {x: {0: v} for x, v in self.seed.items()})

    def __len__(self) -> int:   # memo entries
        return sum(map(len, self.rows.values()))

    def intern(self, mono: tuple) -> int:
        i = self.ids.get(mono)
        if i is None:
            i = self.ids[mono] = len(self.monos)
            self.monos.append(mono)
        return i


def _straighten(space: _Space, x, mid: int):
    """Normal form of x·monos[mid] for a normal (PBW-ordered) monomial, as
    a row of `_Space` (a bare id or a flat (id, coeff, ...) tuple), memoized
    in space.rows[x][mid].

    space.comm(x, y) gives the bracket [x, y] of letters x > y as (head,
    coeff) pairs, where a head is one letter or a word w of two or more
    letters.  A key (w, mid) stands for w[0]·(w[1:]·monos[mid]) and is
    resolved in the same two stages as y·(x·rest) when x·(y·rest) is
    rewritten.  Iterative dependency walk (no recursion): termination
    follows from the usual diamond-lemma argument — each rewrite either
    shortens the word or removes an inversion.  Ids stay valid until the
    space is cleared, which only `_fold` does, between folds.
    """
    comm, monos, rows, intern = space.comm, space.monos, space.rows, space.intern
    stack = [(x, mid)]
    while stack:
        kx, km = stack[-1]
        row = rows[kx]
        if km in row:
            stack.pop()
            continue
        if type(kx) is tuple:
            y, rest, terms = kx[0], 0, ()
            dep1 = (kx[1] if len(kx) == 2 else kx[1:], km)
        else:
            mono = monos[km]
            if not mono or kx <= mono[0]:
                row[km] = intern((kx,) + mono)
                stack.pop()
                continue
            y, rest = mono[0], intern(mono[1:])
            dep1, terms = (kx, rest), comm(kx, y)
        ready = True
        got1 = rows[dep1[0]].get(dep1[1])
        if got1 is None:
            stack.append(dep1)
            ready = False
        else:
            ry = rows[y]
            for m1 in (got1,) if type(got1) is int else got1[::2]:
                if m1 not in ry:
                    stack.append((y, m1))
                    ready = False
        for t, _ in terms:
            if rest not in rows[t]:
                stack.append((t, rest))
                ready = False
        if not ready:
            continue
        acc: dict = {}
        for m1, c1 in ((got1, 1),) if type(got1) is int else zip(got1[::2], got1[1::2]):
            r = ry[m1]
            if type(r) is int:
                acc[r] = acc.get(r, 0) + c1
                continue
            for m2, c2 in zip(r[::2], r[1::2]):
                acc[m2] = acc.get(m2, 0) + c1 * c2
        for t, ct in terms:
            r = rows[t][rest]
            if type(r) is int:
                acc[r] = acc.get(r, 0) + ct
                continue
            for m3, c3 in zip(r[::2], r[1::2]):
                acc[m3] = acc.get(m3, 0) + ct * c3
        flat = tuple(v for mc in acc.items() if mc[1] for v in mc)
        row[km] = flat[0] if len(flat) == 2 and flat[1] == 1 else flat
        stack.pop()
    return rows[x][mid]


def _add_into(acc: dict, terms: dict, s: Coeff = 1) -> dict:
    """acc += s·terms in place, leaving no zero coefficient; returns acc.

    The term-map sum outside the kernels, whose inline loops stay for speed.
    """
    for m, c in terms.items():
        v = acc.get(m, 0) + s * c
        if v:
            acc[m] = v
        else:
            acc.pop(m, None)
    return acc


def _fold(left: dict, right: dict, space: _Space) -> dict:
    """Terms, none zero, of sum_u c_u * (u acting on the normal `right`)
    over the monomials u of `left`, straightened in `space`.

    Folds each word's letters right-to-left onto `right`, sharing partial
    results between monomials with a common tail: the reversed words are
    sorted so equal tails are contiguous, then walked as a trie (one fold
    per distinct tail extension).  Monomials are space ids in between: a
    step reads its letter's memo row and walks only on a miss.  A space
    past `_LM_CACHE_CAP` entries is cleared first.
    """
    if len(space) > _LM_CACHE_CAP:
        space.clear()
    rows, monos = space.rows, space.monos
    res: dict = {}
    items = sorted((mono[::-1], c) for mono, c in left.items())
    stack = [(0, len(items), 0, {space.intern(m): c for m, c in right.items()})]
    while stack:
        lo, hi, depth, acc = stack.pop()
        i = lo
        csum = 0
        while i < hi and len(items[i][0]) == depth:
            csum += items[i][1]
            i += 1
        if csum:
            for m, c in acc.items():
                res[m] = res.get(m, 0) + csum * c
        while i < hi:
            ell = items[i][0][depth]
            j = i
            while j < hi and items[j][0][depth] == ell:
                j += 1
            row = rows[ell]
            nxt: dict = {}
            get = nxt.get
            for m, c in acc.items():
                got = row.get(m)
                if got is None:
                    got = _straighten(space, ell, m)
                # most rows are one monomial with coefficient 1, a bare id;
                # unpack tuples of one or two terms directly
                if type(got) is int:
                    nxt[got] = get(got, 0) + c
                    continue
                k = len(got)
                if k == 2:
                    m2, c2 = got
                    nxt[m2] = get(m2, 0) + c * c2
                elif k == 4:
                    m2, c2, m3, c3 = got
                    nxt[m2] = get(m2, 0) + c * c2
                    nxt[m3] = get(m3, 0) + c * c3
                else:
                    it = iter(got)
                    for m2, c2 in zip(it, it):
                        nxt[m2] = get(m2, 0) + c * c2
            stack.append((i, j, depth + 1,
                          {m: c for m, c in nxt.items() if c}))
            i = j
    return {monos[m]: c for m, c in res.items() if c}


class UEAElement:
    """Sparse PBW-normal-form element of U(gl_N).

    `terms` is kept as given: no zero coefficients, integral Fractions best
    as ints (`_ncoeff`, for speed only).  Immutable by convention: no method
    mutates `terms` after construction.
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg: Algebra, terms: dict):
        self.alg = alg
        self.terms = terms

    # -- ring operations ------------------------------------------------------

    def _check(self, other: "UEAElement"):
        if self.alg is not other.alg:
            raise ValueError("elements belong to different algebras")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.alg.scalar(other)
        self._check(other)
        return UEAElement(self.alg, _add_into(dict(self.terms), other.terms))

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
        return UEAElement(self.alg, {m: _ncoeff(cf * c) for m, cf in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        return UEAElement(self.alg, _fold(self.terms, other.terms, self.alg._lm_cache))

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

    def is_central(self) -> bool:
        alg = self.alg
        for lid in range(len(alg.letters)):
            if not alg.gen_by_id(lid).commutator(self).is_zero():
                return False
        return True

    # -- presentation -------------------------------------------------------------

    def sorted_terms(self):
        """The (monomial, coeff) pairs in presentation order: shorter
        monomials first, then letter by letter in the order of the boxes.

        Each monomial's key is one string, chr(length) and then its letters'
        `Algebra.letter_rank` characters.  It orders as the key (length,
        tuple of ranks) does, at well under half the size.
        """
        rank = self.alg.letter_rank.__getitem__
        return sorted(self.terms.items(),
                      key=lambda mc: chr(len(mc[0])) + "".join(map(rank, mc[0])))

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


# -- JSON parsing --------------------------------------------------------------


def _coeff_from_json(value) -> Coeff:
    """A JSON coefficient: an int, or "p", "p/q" or decimal text.

    Anything else is refused with a ValueError that quotes it: a float or a
    bool is no exact coefficient, and text with an exponent marker is
    refused before `Fraction` expands "1e999999999" digit by digit.
    """
    if type(value) is int:
        return value
    if isinstance(value, str) and "e" not in value.lower():
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f'"coeff" {value!r} has a zero denominator') from None
        except ValueError:
            pass
    raise ValueError(f'"coeff" {value!r} is not an integer or "p/q" text')


def element_from_json(alg: Algebra, obj) -> UEAElement:
    """Inverse of to_json_obj; accepts the bare term array or {"terms": [...]}."""
    if isinstance(obj, dict):
        obj = obj.get("terms", [])
    if not isinstance(obj, list):
        raise ValueError("an element is a list of terms or an object with "
                         f"\"terms\", not {type(obj).__name__}")
    words = []
    for entry in obj:
        word = [ (tuple(a), tuple(b)) for a, b in entry["monomial"] ]
        words.append((_coeff_from_json(entry["coeff"]), word))
    return alg.normal_form(words)
