"""Truncated Laurent series in z^{-1/2} with U(g)-valued coefficients.

A SeriesElem stores finitely many coefficients above an explicit floor; a
floor of None means the element is exact (a Laurent polynomial).  All
arithmetic propagates floors conservatively, so a reported coefficient is
always the true one.  Exponents and floors are half-integers, passed and
kept as doubled ints.

One solver, `solve`, computes A^{-1}·Y after normalizing by the top
pivot: the top-exponent coefficient matrix, which must be scalar and
invertible.  Row/column scaling by scalar z-monomials exposes the pivot of
matrices (e.g. submatrices of the shifted matrix, or the weighted matrix
1 + z^{-D}E of the main lemma) whose pivot only becomes visible after
conjugating by diag(z^{x(b)}).  The pivot leaves T = pivot^{-1}·A - 1
decaying, and A^{-1}·Y comes by one long division: to a floor, with the
floors the product rule gives, or, with no floor, exactly, to a depth fixed
in advance at which the division provably ends.  `invert_matrix` is
`solve` against the identity.  The submatrix route `quasideterminant`
makes one solve; the definition route `quasideterminant_by_definition`,
its oracle and the left side of the main lemma, makes one solve and one
inversion.

Series and matrix products, inversion, both quasideterminant routes and
the Yangian identity check take the ring product used on coefficients as
`mul` (the U(g) product by default), so the same matrix calculus serves
U(g), the W-algebra product on M and, in the tests, the opposite product.
Since `solve` and the submatrix route only multiply onto partial results,
`mul` may also be the action of U(g) on M.  Determinants and the mixed
inverse identity always use the U(g) product.

The two bivariate identity checks add the coefficient grids of lhs - rhs
for one index quadruple into a single term map and report its lowest
nonzero coefficient above the floors of the grids.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Callable, Optional, Sequence, Tuple

from .pyramid import ScalarMatrix, half_str
from .uea import Algebra, UEAElement, _add_into

MulFn = Callable[[UEAElement, UEAElement], UEAElement]


def _default_mul(x: UEAElement, y: UEAElement) -> UEAElement:
    return x * y


def _floor2(f2: Optional[int]) -> Optional[int]:
    # Floors are doubled ints; this identity stays because the benchmark
    # tracer (perfbench/tracer.py) reads invert_matrix's floor through it.
    return f2


def _add_floor2(f: Optional[int], g: Optional[int]) -> Optional[int]:
    if f is None:
        return g
    if g is None:
        return f
    return max(f, g)


class _MulCache:
    """Memoize coefficient products by object identity.

    The bivariate identity checks multiply the same few dozen coefficients in
    every index quadruple; one shared cache collapses that to a single product
    per ordered pair.
    """

    def __init__(self, mul: Optional[MulFn]):
        self.mul = mul or _default_mul
        self._cache: dict = {}
        self._keep: dict = {}

    def __call__(self, x: UEAElement, y: UEAElement) -> UEAElement:
        key = (id(x), id(y))
        hit = self._cache.get(key)
        if hit is None:
            hit = self.mul(x, y)
            self._cache[key] = hit
            self._keep[id(x)] = x
            self._keep[id(y)] = y
        return hit


class SeriesElem:
    __slots__ = ("alg", "terms", "floor2")

    def __init__(self, alg: Algebra, terms: dict, floor2: Optional[int] = None):
        # terms: {doubled exponent: UEAElement}
        clean = {}
        for n2, c in terms.items():
            if floor2 is not None and n2 < floor2:
                continue
            if not c.is_zero():
                clean[n2] = c
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "floor2", floor2)

    def __setattr__(self, name, value):
        raise AttributeError("SeriesElem is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_element(cls, alg: Algebra, elem: UEAElement) -> "SeriesElem":
        """The exact constant series elem."""
        return cls(alg, {0: elem})

    # -- inspection --------------------------------------------------------

    def coeff2(self, n2: int) -> UEAElement:
        if self.floor2 is not None and n2 < self.floor2:
            raise ValueError(
                f"coefficient at z^{half_str(n2)} below the floor z^{half_str(self.floor2)}")
        return self.terms.get(n2, self.alg.zero())

    def top2(self) -> Optional[int]:
        return max(self.terms) if self.terms else None

    def is_zero(self) -> bool:
        """All known coefficients vanish (exact zero when floor is None)."""
        return not self.terms

    def exponents2(self):
        return sorted(self.terms, reverse=True)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "SeriesElem"):
        if self.alg is not other.alg:
            raise ValueError("series over different algebras")

    def __add__(self, other):
        if not isinstance(other, SeriesElem):
            return NotImplemented
        self._check(other)
        f2 = _add_floor2(self.floor2, other.floor2)
        terms = dict(self.terms)
        for n2, c in other.terms.items():
            terms[n2] = terms[n2] + c if n2 in terms else c
        return SeriesElem(self.alg, terms, f2)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SeriesElem(self.alg, {n2: -c for n2, c in self.terms.items()}, self.floor2)

    def shift2(self, k2: int) -> "SeriesElem":
        """Multiply by the scalar monomial z^{k2/2}."""
        f2 = None if self.floor2 is None else self.floor2 + k2
        return SeriesElem(self.alg, {n2 + k2: c for n2, c in self.terms.items()}, f2)

    def _mul_floor2(self, other: "SeriesElem") -> Optional[int]:
        fx, fy = self.floor2, other.floor2
        if fx is None and fy is None:
            return None
        cands = []
        if fy is not None:
            tx = self.top2()
            if tx is None:
                if fx is None:
                    return None      # exact zero times anything
                tx = fx
            cands.append(tx + fy)
        if fx is not None:
            ty = other.top2()
            if ty is None:
                if fy is None:
                    return None
                ty = fy
            cands.append(ty + fx)
        return max(cands)

    def mul(self, other: "SeriesElem", mul: Optional[MulFn] = None,
            floor2: Optional[int] = None) -> "SeriesElem":
        self._check(other)
        mul = mul or _default_mul
        rf2 = _add_floor2(self._mul_floor2(other), floor2)
        acc: dict = {}
        for m2, cx in self.terms.items():
            for n2, cy in other.terms.items():
                k2 = m2 + n2
                if rf2 is not None and k2 < rf2:
                    continue
                _add_into(acc.setdefault(k2, {}), mul(cx, cy).terms)
        terms = {k2: UEAElement(self.alg, d) for k2, d in acc.items()}
        return SeriesElem(self.alg, terms, rf2)

    def truncate2(self, f2: Optional[int]) -> "SeriesElem":
        nf2 = _add_floor2(self.floor2, f2)
        if nf2 == self.floor2:
            return self
        return SeriesElem(self.alg, self.terms, nf2)

    # -- comparison --------------------------------------------------------

    def first_diff2(self, other: "SeriesElem", floor2: Optional[int] = None):
        """Lowest region exponent where the two disagree, or None."""
        f2 = _add_floor2(_add_floor2(self.floor2, other.floor2), floor2)
        keys = set(self.terms) | set(other.terms)
        for n2 in sorted(k for k in keys if f2 is None or k >= f2):
            d = self.terms.get(n2, self.alg.zero()) - other.terms.get(n2, self.alg.zero())
            if not d.is_zero():
                return (n2, d)
        return None

    def __eq__(self, other):
        if not isinstance(other, SeriesElem):
            return NotImplemented
        return (self.alg is other.alg and self.floor2 == other.floor2
                and self.terms == other.terms)

    __hash__ = None  # type: ignore[assignment]

    # -- rendering ---------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms and self.floor2 is None:
            return "0"
        parts = []
        for n2 in self.exponents2():
            c = self.terms[n2]
            ctext = c.to_text()
            if n2 == 0:
                parts.append(f"({ctext})")
            else:
                parts.append(f"({ctext})*z^{half_str(n2)}")
        if self.floor2 is not None:
            parts.append(f"O(z^{half_str(self.floor2 - 1)})")
        return " + ".join(parts) if parts else "0"

    def to_json_obj(self) -> dict:
        return {
            "floor": None if self.floor2 is None else half_str(self.floor2),
            "terms": [{"zpow": half_str(n2), "element": self.terms[n2]}
                      for n2 in self.exponents2()],
        }

    def __repr__(self):
        return f"SeriesElem({self.to_text()})"


class SeriesMatrix:
    __slots__ = ("alg", "rows", "cols", "data")

    def __init__(self, alg: Algebra, data: Sequence[Sequence[SeriesElem]]):
        data = tuple(tuple(row) for row in data)
        if not data or not data[0]:
            raise ValueError("empty matrix")
        cols = len(data[0])
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("SeriesMatrix is immutable")

    @classmethod
    def identity(cls, alg: Algebra, n: int) -> "SeriesMatrix":
        return cls(alg, [[SeriesElem(alg, {0: alg.one()} if i == j else {})
                          for j in range(n)] for i in range(n)])

    @classmethod
    def from_scalar(cls, alg: Algebra, sm: ScalarMatrix, exp2: int = 0) -> "SeriesMatrix":
        return cls(alg, [[SeriesElem(alg, {exp2: alg.scalar(sm[i, j])} if sm[i, j] else {})
                          for j in range(sm.cols)] for i in range(sm.rows)])

    def __add__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return SeriesMatrix(self.alg, [[self.data[i][j] + other.data[i][j]
                                        for j in range(self.cols)] for i in range(self.rows)])

    def __neg__(self):
        return SeriesMatrix(self.alg, [[-e for e in row] for row in self.data])

    def __sub__(self, other):
        return self + (-other)

    def matmul(self, other: "SeriesMatrix", mul: Optional[MulFn] = None,
               floor2: Optional[int] = None) -> "SeriesMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = None
                for k in range(self.cols):
                    p = self.data[i][k].mul(other.data[k][j], mul, floor2)
                    acc = p if acc is None else acc + p
                row.append(acc)
            out.append(row)
        return SeriesMatrix(self.alg, out)

    def scale_rows(self, scales: Sequence[int]) -> "SeriesMatrix":
        """Multiply row i by z^{scales[i]/2}."""
        return SeriesMatrix(self.alg, [[e.shift2(scales[i]) for e in row]
                                       for i, row in enumerate(self.data)])

    def scale_cols(self, scales: Sequence[int]) -> "SeriesMatrix":
        """Multiply column j by z^{scales[j]/2}."""
        return SeriesMatrix(self.alg, [[e.shift2(scales[j]) for j, e in enumerate(row)]
                                       for row in self.data])

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "SeriesMatrix":
        return SeriesMatrix(self.alg, [[self.data[i][j] for j in cols] for i in rows])

    def map_entries(self, fn) -> "SeriesMatrix":
        return SeriesMatrix(self.alg, [[fn(e) for e in row] for row in self.data])

    def truncate2(self, f2: Optional[int]) -> "SeriesMatrix":
        return self.map_entries(lambda e: e.truncate2(f2))

    def max_top2(self) -> Optional[int]:
        tops = [e.top2() for row in self.data for e in row]
        tops = [t for t in tops if t is not None]
        return max(tops) if tops else None

    def scalar_matrix2(self, n2: int) -> Optional[ScalarMatrix]:
        """The z^{n2/2} coefficients as a ScalarMatrix, an absent one read as
        0; None if any of them holds a letter."""
        cs = [[e.terms.get(n2) for e in row] for row in self.data]
        if any(c is not None and c.terms.keys() - {()} for row in cs for c in row):
            return None
        return ScalarMatrix.from_rows([[0 if c is None else c.terms.get((), 0) for c in row]
                                       for row in cs])

    def first_diff(self, other: "SeriesMatrix", floor2: Optional[int] = None):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        for i in range(self.rows):
            for j in range(self.cols):
                d = self.data[i][j].first_diff2(other.data[i][j], floor2)
                if d is not None:
                    return (i, j) + d
        return None

    def to_json_obj(self) -> dict:
        return {"rows": self.rows, "cols": self.cols,
                "entries": [[e.to_json_obj() for e in row] for row in self.data]}


# ---------------------------------------------------------------------------
# inversion


def _detect_pivot(M: SeriesMatrix):
    """The top pivot of M: (d2, C^{-1}) for the coefficient matrix C at M's
    doubled top exponent d2; ArithmeticError unless C is scalar and
    invertible."""
    d2 = M.max_top2()
    if d2 is None:
        raise ArithmeticError("cannot invert the zero matrix")
    C = M.scalar_matrix2(d2)
    try:
        if C is not None:
            return d2, C.inverse()
    except ValueError:          # singular
        pass
    raise ArithmeticError("no invertible scalar pivot: the top coefficient matrix is "
                          "not scalar and invertible (consider row/column scaling)")


def _divide(negT: SeriesMatrix, Y: SeriesMatrix, mul: MulFn,
            need: Optional[list]) -> SeriesMatrix:
    """X = Y + negT·X for a negT with only negative exponents, by long
    division: X_k = Y_k + sum_e negT_e·X_{k-e}, each coefficient once, from
    the top of Y down.

    With need, row i goes to depth need[i] or deeper: need[l] is first
    deepened to need[i] - top(negT_il) wherever negT couples row i to row l,
    so a coefficient only reads computed ones.  X_ij then gets the floor, at
    least need[i], that SeriesElem.mul's product rule gives
    Y_ij + sum_l negT_il·X_lj, applied until no floor moves.

    With need None, negT and Y are exact and every row goes to b - n·W, b
    being the bottom exponent of Y and W the depth of negT's lowest term.
    When negT^n = 0, X = sum_{l<n} negT^l·Y lies at or above b - (n-1)·W.
    If it does, the W rows below that are zero and below b, and a row reads
    only the W rows above it, so every lower row is zero and X is exact; a
    term below b - (n-1)·W raises ArithmeticError.
    """
    alg, n, cols, T = Y.alg, Y.rows, range(Y.cols), negT.data
    exact = need is None
    if exact:
        b = min((k for row in Y.data for e in row for k in e.terms), default=0)
        W = -min((e for row in T for t in row for e in t.terms), default=0)
        cut, need = b - (n - 1) * W, [b - n * W] * n
    else:
        for _ in range(n):      # paths of at most n - 1 couplings
            for i, l in product(range(n), repeat=2):
                if T[i][l].terms:
                    need[l] = min(need[l], need[i] - T[i][l].top2())
    X, lo, hi = [[{} for _ in cols] for _ in range(n)], min(need), Y.max_top2()
    for k in range(lo - 1 if hi is None else hi, lo - 1, -1):
        for i, j in product(range(n), cols):
            if k < need[i]:
                continue
            y = Y.data[i][j].terms.get(k)
            acc = dict(y.terms) if y is not None else {}
            for l in range(n):
                xl = X[l][j]
                for e, t in T[i][l].terms.items():
                    x = xl.get(k - e)
                    if x is not None:
                        _add_into(acc, mul(t, x).terms)
            if acc:
                X[i][j][k] = UEAElement(alg, acc)
    if exact:
        if any(k < cut for row in X for x in row for k in x):
            raise ArithmeticError(f"the division does not end at z^{half_str(cut)} or "
                                  "above: solving needs a floor")
        return SeriesMatrix(alg, [[SeriesElem(alg, x) for x in row] for row in X])
    fl = [[_add_floor2(Y.data[i][j].floor2, need[i]) for j in cols] for i in range(n)]
    for _ in range(n + 1):
        S = [[SeriesElem(alg, X[i][j], fl[i][j]) for j in cols] for i in range(n)]
        new = [[max([fl[i][j]] + [g for l in range(n)
                                  if (g := T[i][l]._mul_floor2(S[l][j])) is not None])
                for j in cols] for i in range(n)]
        if new == fl:
            return SeriesMatrix(alg, S)
        fl = new
    raise ArithmeticError("the floors of the solution do not settle: the matrix is "
                          "not known below its pivot")


def solve(A: SeriesMatrix, Y: SeriesMatrix, mul: Optional[MulFn] = None,
          f2: Optional[int] = None, row_scale=None, col_scale=None) -> SeriesMatrix:
    """A^{-1}·Y to the doubled floor f2, or exactly when f2 is None.

    row_scale / col_scale (doubled exponents, one per index: Dr = z^rs and
    Dc = z^cs) expose a scalar pivot hidden by mixed exponents: with the
    top pivot pre = C^{-1} z^{-d} of Dr·A·Dc from `_detect_pivot`,
    T = pre·Dr·A·Dc - 1 has only negative exponents, Y' = pre·Dr·Y, and
    A^{-1}·Y = Dc·X for the X with X = Y' - T·X.

    X comes by long division (`_divide`): row i to f2 - cs[i] or deeper, or,
    with no f2, exactly, to a depth fixed in advance at which the division
    provably ends, else ArithmeticError; that depth alone decides an exact
    solve, wherever the pivot sits.  With no f2, an input with a floor
    raises ArithmeticError before any product.  Every product but the
    pivot's multiplies onto a partial result, so `mul` may be the action on
    M when Y is reduced.
    """
    if A.rows != A.cols:
        raise ValueError("matrix not square")
    alg, n = A.alg, A.rows
    M, Y0 = A, Y
    if row_scale is not None:
        M, Y0 = M.scale_rows(row_scale), Y0.scale_rows(row_scale)
    if col_scale is not None:
        M = M.scale_cols(col_scale)
    d2, Cinv = _detect_pivot(M)
    if f2 is None and any(e.floor2 is not None for S in (M, Y0) for row in S.data for e in row):
        raise ArithmeticError("an input has a floor: solving needs a floor")

    pre = SeriesMatrix.from_scalar(alg, Cinv, -d2)
    negT = SeriesMatrix.identity(alg, n) - pre.matmul(M, mul)
    S = _divide(negT, pre.matmul(Y0, mul), mul or _default_mul,
                None if f2 is None else [f2 - c for c in col_scale or [0] * n])
    if col_scale is not None:
        S = S.scale_rows(col_scale)
    return S.truncate2(f2)


def invert_matrix(A: SeriesMatrix, f2: Optional[int] = None,
                  mul: Optional[MulFn] = None) -> SeriesMatrix:
    """Two-sided inverse of a square series matrix, to the doubled floor f2:
    `solve` against the identity."""
    return solve(A, SeriesMatrix.identity(A.alg, A.rows), mul, f2)


# ---------------------------------------------------------------------------
# determinants and quasideterminants


def _perm_sign(perm: Tuple[int, ...]) -> int:
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def noncomm_det(A: SeriesMatrix, mode: str = "row") -> SeriesElem:
    """Row/column determinant: factors ordered by row (rdet) or column (cdet)."""
    if A.rows != A.cols:
        raise ValueError("determinant of a non-square matrix")
    if mode not in ("row", "column"):
        raise ValueError(f"mode must be 'row' or 'column', got {mode!r}")
    n = A.rows
    total = None
    for perm in permutations(range(n)):
        if mode == "row":
            factors = [A.data[i][perm[i]] for i in range(n)]
        else:
            factors = [A.data[perm[i]][i] for i in range(n)]
        prod = factors[0]
        for fct in factors[1:]:
            prod = prod.mul(fct)
        if _perm_sign(perm) < 0:
            prod = -prod
        total = prod if total is None else total + prod
    return total


def _deliver(out: SeriesMatrix, f2: Optional[int]) -> SeriesMatrix:
    """out truncated at the doubled floor f2; ArithmeticError if an entry is
    known only above f2."""
    if f2 is None:
        return out
    d2 = max((e.floor2 for row in out.data for e in row
              if e.floor2 is not None), default=None)
    if d2 is not None and d2 > f2:
        raise ArithmeticError(f"cannot reach floor z^{half_str(f2)}: delivered "
                              f"only z^{half_str(d2)}")
    return out.truncate2(f2)


def _check_corner(A: SeriesMatrix, rows: Sequence[int], cols: Sequence[int]) -> None:
    if A.rows != A.cols:
        raise ValueError("matrix not square")
    for ix in (rows, cols):
        if len(ix) != len(rows) or len(set(ix)) != len(ix) \
                or not all(0 <= i < A.rows for i in ix):
            raise ValueError(f"corner indices {list(rows)}, {list(cols)}: need two lists "
                             f"of one length, without repeats, in 0..{A.rows - 1}")


def quasideterminant(A: SeriesMatrix, rows: Sequence[int], cols: Sequence[int],
                     f2: Optional[int] = None, mul: Optional[MulFn] = None,
                     row_scale=None, col_scale=None) -> SeriesMatrix:
    """Generalized quasideterminant |A|_{I1 J1} = (J1·A^{-1}·I1)^{-1}, where
    the columns of I1 are the unit vectors at `rows` and the rows of J1 the
    unit vectors at `cols`, by the submatrix route
    A_IJ - A_IJc·((A_IcJc)^{-1}·A_IcJ) with I = rows and J = cols.

    row_scale / col_scale hold one doubled exponent per row / column of A;
    the entries on the complements Ic / Jc scale the inner `solve`.  The
    route runs right to left, every product onto a partial result, so `mul`
    may be the action of U(g) on M when A_IJ and A_IcJ are reduced.

    The floors are fixed in advance from the requested doubled floor f:
    (A_IcJc)^{-1}·A_IcJ to f - top(Q), where Q = A_IJc, and its product
    with Q to f.  A result that comes back short of f raises ArithmeticError.
    With mul None the U(g) memo is cleared after the solve, and -Q·S is
    formed from -Q, so the large product is not negated once more.
    """
    _check_corner(A, rows, cols)
    compI = [i for i in range(A.rows) if i not in rows]
    compJ = [j for j in range(A.cols) if j not in cols]
    P = A.submatrix(rows, cols)
    if not compI:
        return _deliver(P, f2)
    Q = A.submatrix(rows, compJ)
    S = solve(A.submatrix(compI, compJ), A.submatrix(compI, cols), mul,
              None if f2 is None else f2 - (Q.max_top2() or 0),
              None if row_scale is None else [row_scale[i] for i in compI],
              None if col_scale is None else [col_scale[j] for j in compJ])
    if mul is None:
        # on the shifted matrix every row the solve left is headed by a
        # letter e_{b,a} with a in Ic, and the corner product, whose left
        # factors are letters of the rows I, needs few of them again (175
        # of 29,108 on (2,1,1) at floor -5)
        A.alg._lm_cache.clear()
    return _deliver(P + (-Q).matmul(S, mul, f2), f2)


def quasideterminant_by_definition(A: SeriesMatrix, rows: Sequence[int],
                                   cols: Sequence[int], f2: int, top2: int,
                                   mul: Optional[MulFn] = None,
                                   row_scale=None, col_scale=None) -> SeriesMatrix:
    """(J1·A^{-1}·I1)^{-1} as defined (Gelfand–Gelfand–Retakh–Wilson), with
    I1 and J1 as in `quasideterminant`: the oracle for that route, and the
    left side of the main lemma (`walgebra.main_lemma_sides`).

    top2 is the doubled top exponent of the result, so the sandwich
    S = J1·A^{-1}·I1 tops out at z^{-top2/2}, and its inverse to f2 needs S
    to f2 - 2·top2.  One solve against the identity columns at `rows` gives
    X = A^{-1}·I1 to f2 - 2·max(0, top2), and S, the rows `cols` of X, is
    inverted to f2.  A top2 below the true top leaves S too short: the
    floors propagate, and the result raises ArithmeticError.
    `mul` serves the solve and the inversion, and row_scale / col_scale, as
    in `quasideterminant`, the solve; `mul` may be the action on M when S is
    invariant.
    """
    _check_corner(A, rows, cols)
    I1 = SeriesMatrix.identity(A.alg, A.rows).submatrix(range(A.rows), rows)
    X = solve(A, I1, mul, f2 - 2 * max(0, top2), row_scale, col_scale)
    return _deliver(invert_matrix(X.submatrix(cols, range(len(rows))), f2, mul), f2)


# ---------------------------------------------------------------------------
# bivariate coefficient grids and the Yangian-type identity

# An identity check stops at this many witnesses.
_MAX_WITNESSES = 10


def _identity_grid(A: SeriesMatrix, mul: MulFn, sides):
    """Check that a signed sum of coefficient grids vanishes for every index
    quadruple of A; returns (ok, witnesses).

    sides(i, j, h, k) lists the grids as (c, a, b, w_first, shift): the
    coefficients of z^{m/2} w^{n/2} in c·a(z)·b(w), or in c·b(w)·a(z) when
    w_first, times (z - w) when shift.  One quadruple's grids add into one
    term map {(m2, n2): {mono: coeff}}.  A grid is known from the floors of
    a and b up, both one higher after the shift, so the sum is known at and
    above the highest z and w floors of its grids.  The lowest nonzero
    coefficient there is a witness: the quadruple, the exponent pair and the
    coefficient.  The walk stops at _MAX_WITNESSES of them.
    """
    witnesses = []
    for i, j, h, k in product(range(A.rows), repeat=4):
        acc: dict = {}
        zf = wf = None
        for c, a, b, w_first, shift in sides(i, j, h, k):
            up = 2 if shift else 0
            if a.floor2 is not None:
                zf = _add_floor2(zf, a.floor2 + up)
            if b.floor2 is not None:
                wf = _add_floor2(wf, b.floor2 + up)
            for m2, ca in a.terms.items():
                for n2, cb in b.terms.items():
                    p = mul(cb, ca) if w_first else mul(ca, cb)
                    moves = (((m2 + 2, n2), c), ((m2, n2 + 2), -c)) if shift \
                        else (((m2, n2), c),)
                    for key, s in moves:
                        _add_into(acc.setdefault(key, {}), p.terms, s)
        known = [key for key, d in acc.items() if d
                 and (zf is None or key[0] >= zf) and (wf is None or key[1] >= wf)]
        if known:
            m2, n2 = min(known)
            witnesses.append({
                "quadruple": (i + 1, j + 1, h + 1, k + 1),
                "zpow": half_str(m2), "wpow": half_str(n2),
                "difference": UEAElement(A.alg, acc[m2, n2]).to_text(),
            })
            if len(witnesses) >= _MAX_WITNESSES:
                return False, witnesses
    return not witnesses, witnesses


def yangian_identity_check(A: SeriesMatrix, mul: Optional[MulFn] = None):
    """(z-w)[A_ij(z), A_hk(w)] = A_hj(w)A_ik(z) - A_hj(z)A_ik(w), all
    quadruples; returns (ok, witnesses) from `_identity_grid`."""
    if A.rows != A.cols:
        raise ValueError("matrix not square")
    a = A.data

    def sides(i, j, h, k):
        return ((1, a[i][j], a[h][k], False, True), (-1, a[i][j], a[h][k], True, True),
                (-1, a[i][k], a[h][j], True, False), (1, a[h][j], a[i][k], False, False))

    return _identity_grid(A, _MulCache(mul), sides)


def inverse_mixed_identity_check(A: SeriesMatrix, Ainv: SeriesMatrix):
    """(z-w)[A_ij(z), (A^{-1})_hk(w)] against its delta-sum expansion.

    RHS = -delta_hj sum_t A_it(z)(A^{-1})_tk(w) + delta_ik sum_t (A^{-1})_ht(w)A_tj(z).
    """
    n = A.rows
    a, b = A.data, Ainv.data

    def sides(i, j, h, k):
        out = [(1, a[i][j], b[h][k], False, True), (-1, a[i][j], b[h][k], True, True)]
        if h == j:
            out += [(1, a[i][t], b[t][k], False, False) for t in range(n)]
        if i == k:
            out += [(-1, a[t][j], b[h][t], True, False) for t in range(n)]
        return out

    return _identity_grid(A, _MulCache(_default_mul), sides)
