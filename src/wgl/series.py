"""Truncated Laurent series in z^{-1/2} with U(g)-valued coefficients.

A SeriesElem stores finitely many coefficients above an explicit floor; a
floor of None means the element is exact (a Laurent polynomial).  All
arithmetic propagates floors conservatively, so a reported coefficient is
always the true one.  Exponents are half-integers, kept internally as doubled
ints.

Matrix inversion runs the geometric series (1+T)^{-1} = sum (-T)^l after
normalizing by an invertible scalar pivot: either the top-exponent coefficient
matrix (when it is purely scalar) or the scalar part of the z^0 coefficient.
Row/column scaling by scalar z-monomials is available for matrices (e.g.
submatrices of the shifted matrix) whose pivot only becomes visible after
conjugating by diag(z^{x(b)}).

The ring product used on coefficients is pluggable everywhere (`mul`), so the
same matrix calculus serves U(g), the W-algebra via lifts, ucirc, and opposite
products.
"""

from __future__ import annotations

from itertools import permutations
from typing import Callable, Optional, Sequence, Tuple

from .pyramid import HalfInt, ScalarMatrix
from .uea import Algebra, UEAElement

MulFn = Callable[[UEAElement, UEAElement], UEAElement]


def _default_mul(x: UEAElement, y: UEAElement) -> UEAElement:
    return x * y


def opposite_mul(x: UEAElement, y: UEAElement) -> UEAElement:
    return y * x


def _floor2(floor) -> Optional[int]:
    """Normalize a floor given as HalfInt / int / Fraction / None to doubled int."""
    if floor is None:
        return None
    if isinstance(floor, HalfInt):
        return floor.doubled
    if isinstance(floor, int):
        return 2 * floor
    return HalfInt.of(floor).doubled


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
    def make(cls, alg: Algebra, entries: dict, floor=None) -> "SeriesElem":
        """entries: {exponent: UEAElement or scalar}, exponents as HalfInt/int."""
        terms = {}
        for exp, c in entries.items():
            n2 = _floor2(exp)
            if not isinstance(c, UEAElement):
                c = alg.scalar(c)
            if n2 in terms:
                c = terms[n2] + c
            terms[n2] = c
        return cls(alg, terms, _floor2(floor))

    @classmethod
    def zero(cls, alg: Algebra, floor=None) -> "SeriesElem":
        return cls(alg, {}, _floor2(floor))

    @classmethod
    def from_element(cls, alg: Algebra, elem: UEAElement, exp2: int = 0,
                     floor2: Optional[int] = None) -> "SeriesElem":
        return cls(alg, {exp2: elem}, floor2)

    @classmethod
    def z_pow(cls, alg: Algebra, exp, coeff=1, floor=None) -> "SeriesElem":
        return cls(alg, {_floor2(exp): alg.scalar(coeff)}, _floor2(floor))

    # -- inspection --------------------------------------------------------

    def coeff2(self, n2: int) -> UEAElement:
        if self.floor2 is not None and n2 < self.floor2:
            raise ValueError(
                f"coefficient at z^{HalfInt(n2)} below the floor z^{HalfInt(self.floor2)}")
        return self.terms.get(n2, self.alg.zero())

    def coeff(self, exp) -> UEAElement:
        return self.coeff2(_floor2(exp))

    def top2(self) -> Optional[int]:
        return max(self.terms) if self.terms else None

    def scalar_coeff2(self, n2: int):
        return self.coeff2(n2).terms.get((), 0)

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

    def scale(self, c) -> "SeriesElem":
        return SeriesElem(self.alg, {n2: x.scale(c) for n2, x in self.terms.items()},
                          self.floor2)

    def shift2(self, k2: int, coeff=None) -> "SeriesElem":
        """Multiply by the scalar monomial z^{k2/2} (times coeff if given)."""
        f2 = None if self.floor2 is None else self.floor2 + k2
        terms = {n2 + k2: c for n2, c in self.terms.items()}
        if coeff is not None and coeff != 1:
            terms = {n2: c.scale(coeff) for n2, c in terms.items()}
        return SeriesElem(self.alg, terms, f2)

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
                p = mul(cx, cy)
                if p.is_zero():
                    continue
                slot = acc.get(k2)
                if slot is None:
                    acc[k2] = dict(p.terms)
                else:
                    for mono, c in p.terms.items():
                        c2 = slot.get(mono, 0) + c
                        if c2:
                            slot[mono] = c2
                        else:
                            del slot[mono]
        terms = {k2: UEAElement(self.alg, d) for k2, d in acc.items()}
        return SeriesElem(self.alg, terms, rf2)

    def __mul__(self, other):
        if isinstance(other, SeriesElem):
            return self.mul(other)
        return NotImplemented

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

    def agrees_with(self, other: "SeriesElem", floor=None) -> bool:
        return self.first_diff2(other, _floor2(floor)) is None

    def __eq__(self, other):
        if not isinstance(other, SeriesElem):
            return NotImplemented
        return (self.alg is other.alg and self.floor2 == other.floor2
                and self.terms == other.terms)

    __hash__ = None  # type: ignore[assignment]

    # -- rendering ---------------------------------------------------------

    def to_text(self, var: str = "z") -> str:
        if not self.terms and self.floor2 is None:
            return "0"
        parts = []
        for n2 in self.exponents2():
            c = self.terms[n2]
            ctext = c.to_text()
            if n2 == 0:
                parts.append(f"({ctext})")
            else:
                parts.append(f"({ctext})*{var}^{HalfInt(n2)}")
        if self.floor2 is not None:
            parts.append(f"O({var}^{HalfInt(self.floor2 - 1)})")
        return " + ".join(parts) if parts else "0"

    def to_json_obj(self) -> dict:
        return {
            "floor": None if self.floor2 is None else str(HalfInt(self.floor2)),
            "terms": [{"zpow": str(HalfInt(n2)), "element": self.terms[n2].to_json_obj()}
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
    def identity(cls, alg: Algebra, n: int, floor=None) -> "SeriesMatrix":
        f2 = _floor2(floor)
        return cls(alg, [[SeriesElem(alg, {0: alg.one()} if i == j else {}, f2)
                          for j in range(n)] for i in range(n)])

    @classmethod
    def from_scalar(cls, alg: Algebra, sm: ScalarMatrix, exp2: int = 0) -> "SeriesMatrix":
        return cls(alg, [[SeriesElem(alg, {exp2: alg.scalar(sm[i, j])} if sm[i, j] else {})
                          for j in range(sm.cols)] for i in range(sm.rows)])

    def __getitem__(self, ij) -> SeriesElem:
        i, j = ij
        return self.data[i][j]

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

    def __matmul__(self, other):
        if isinstance(other, SeriesMatrix):
            return self.matmul(other)
        return NotImplemented

    def scale_rows(self, scales) -> "SeriesMatrix":
        """scales: per row (exp2, coeff) — multiply row i by coeff*z^{exp2/2}."""
        return SeriesMatrix(self.alg, [
            [e.shift2(scales[i][0], scales[i][1]) for e in row]
            for i, row in enumerate(self.data)])

    def scale_cols(self, scales) -> "SeriesMatrix":
        return SeriesMatrix(self.alg, [
            [e.shift2(scales[j][0], scales[j][1]) for j, e in enumerate(row)]
            for row in self.data])

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "SeriesMatrix":
        return SeriesMatrix(self.alg, [[self.data[i][j] for j in cols] for i in rows])

    def map_entries(self, fn) -> "SeriesMatrix":
        return SeriesMatrix(self.alg, [[fn(e) for e in row] for row in self.data])

    def truncate2(self, f2: Optional[int]) -> "SeriesMatrix":
        return self.map_entries(lambda e: e.truncate2(f2))

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.data for e in row)

    def max_top2(self) -> Optional[int]:
        tops = [e.top2() for row in self.data for e in row]
        tops = [t for t in tops if t is not None]
        return max(tops) if tops else None

    def coeff_matrix2(self, n2: int) -> list:
        return [[e.coeff2(n2) for e in row] for row in self.data]

    def scalar_coeff_matrix2(self, n2: int) -> ScalarMatrix:
        """Scalar parts of the z^{n2/2} coefficients."""
        return ScalarMatrix.from_rows([[e.scalar_coeff2(n2) for e in row]
                                       for row in self.data])

    def first_diff(self, other: "SeriesMatrix", floor2: Optional[int] = None):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        for i in range(self.rows):
            for j in range(self.cols):
                d = self.data[i][j].first_diff2(other.data[i][j], floor2)
                if d is not None:
                    return (i, j) + d
        return None

    def agrees_with(self, other: "SeriesMatrix", floor=None) -> bool:
        return self.first_diff(other, _floor2(floor)) is None

    def to_json_obj(self) -> dict:
        return {"rows": self.rows, "cols": self.cols,
                "entries": [[e.to_json_obj() for e in row] for row in self.data]}

    def to_text(self, var: str = "z") -> str:
        lines = []
        for i, row in enumerate(self.data):
            for j, e in enumerate(row):
                lines.append(f"[{i + 1},{j + 1}] {e.to_text(var)}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# inversion


def _detect_pivot(M: SeriesMatrix):
    """Find an invertible scalar pivot: returns (pivot_exp2, C, decaying).

    Tries the top-exponent coefficient matrix first (decay of the geometric
    tail is then automatic); falls back to the scalar part of the z^0
    coefficients.
    """
    n = M.rows
    d2 = M.max_top2()
    if d2 is None:
        raise ArithmeticError("cannot invert the zero matrix")
    top_ok = True
    top_rows = []
    for row in M.data:
        r = []
        for e in row:
            c = e.terms.get(d2)
            if c is None:
                r.append(0)
            elif set(c.terms) <= {()}:
                r.append(c.terms.get((), 0))
            else:
                top_ok = False
                break
        if not top_ok:
            break
        top_rows.append(r)
    if top_ok:
        C = ScalarMatrix.from_rows(top_rows)
        if C.rank() == n:
            return d2, C, True
    try:
        C0 = M.scalar_coeff_matrix2(0)
    except ValueError:
        C0 = None
    if C0 is not None and C0.rank() == n:
        return 0, C0, False
    raise ArithmeticError(
        "no invertible scalar pivot: neither the top coefficient matrix nor the "
        "scalar z^0 part is invertible (consider row/column scaling)")


def invert_matrix(A: SeriesMatrix, floor=None, mul: Optional[MulFn] = None,
                  row_scale=None, col_scale=None) -> SeriesMatrix:
    """Two-sided inverse of a square series matrix, to the requested floor.

    row_scale / col_scale (per-index (exp2, coeff) pairs) pre-multiply
    B = Dr·A·Dc before pivoting and return Dc·B^{-1}·Dr, which equals A^{-1};
    they let callers expose a scalar pivot hidden by mixed exponents.

    Every working floor is fixed before the first product.  Entry (i,j) of
    A^{-1} is entry (i,j) of B^{-1} times z^{cs_i + rs_j}, so B^{-1} is
    computed down to the requested floor minus the largest such shift.  With
    a top-exponent pivot C z^d, B^{-1} = (1 + T)^{-1} C^{-1} z^{-d} where T
    only has negative exponents, and the geometric series is truncated d
    above the floor of B^{-1}.  With a constant-term pivot T has positive
    exponents, and truncating it would lose top(T) of depth in every step;
    the series then has to terminate by itself (T nilpotent) and is summed
    untruncated.
    """
    if A.rows != A.cols:
        raise ValueError("matrix not square")
    alg = A.alg
    n = A.rows
    f2 = _floor2(floor)

    M = A
    inner_f2 = f2
    scaled = row_scale is not None or col_scale is not None
    if scaled:
        rs = row_scale or [(0, 1)] * n
        cs = col_scale or [(0, 1)] * n
        M = M.scale_rows(rs).scale_cols(cs)
        if f2 is not None:
            inner_f2 = f2 - max(e2 for e2, _ in cs) - max(e2 for e2, _ in rs)

    d2, C, decaying = _detect_pivot(M)
    fW2 = inner_f2 + d2 if decaying and inner_f2 is not None else None

    # T = C^{-1} z^{-d2} M - 1
    pre = SeriesMatrix.from_scalar(alg, C.inverse(), -d2)
    T = pre.matmul(M, floor2=fW2) - SeriesMatrix.identity(alg, n)
    negT = -T.truncate2(fW2)

    max_iter = 2 * n + 16 if fW2 is None else abs(fW2) + 2 * n + 16
    acc = SeriesMatrix.identity(alg, n).truncate2(fW2)
    term = acc
    for _ in range(max_iter):
        term = negT.matmul(term, mul, fW2).truncate2(fW2)
        if term.is_zero():
            break
        acc = acc + term
    else:
        raise ArithmeticError(
            f"matrix inverse did not stabilize in {max_iter} geometric-series steps"
            + ("" if decaying else " (constant-term pivot, no exponent decay)"))

    Minv = acc.matmul(pre, mul, inner_f2)
    if scaled:
        Minv = Minv.scale_rows(cs).scale_cols(rs)
    return Minv.truncate2(f2)


# ---------------------------------------------------------------------------
# determinants and quasideterminants


def _perm_sign(perm: Tuple[int, ...]) -> int:
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def noncomm_det(A: SeriesMatrix, mode: str = "row",
                mul: Optional[MulFn] = None) -> SeriesElem:
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
            prod = prod.mul(fct, mul)
        if _perm_sign(perm) < 0:
            prod = -prod
        total = prod if total is None else total + prod
    return total


def _selector_indices(sel: ScalarMatrix, by_cols: bool):
    """Unit-selector index list: column n of I1 (row m of J1) picks one index."""
    out = []
    outer = range(sel.cols if by_cols else sel.rows)
    inner = range(sel.rows if by_cols else sel.cols)
    for n in outer:
        hits = [i for i in inner
                if (sel[i, n] if by_cols else sel[n, i]) != 0]
        vals = [(sel[i, n] if by_cols else sel[n, i]) for i in hits]
        if len(hits) != 1 or vals != [1]:
            return None
        out.append(hits[0])
    return out


def sandwich(J1: ScalarMatrix, B: SeriesMatrix, I1: ScalarMatrix) -> SeriesMatrix:
    alg = B.alg
    return SeriesMatrix.from_scalar(alg, J1).matmul(B).matmul(
        SeriesMatrix.from_scalar(alg, I1))


def quasideterminant(A: SeriesMatrix, I1: ScalarMatrix, J1: ScalarMatrix,
                     floor=None, mul: Optional[MulFn] = None, method: str = "both",
                     inner_row_scale=None, inner_col_scale=None) -> SeriesMatrix:
    """Generalized quasideterminant (J1·A^{-1}·I1)^{-1}.

    method 'definition' inverts A and then the sandwich; 'submatrix' uses
    A_IJ - A_IJc (A_IcJc)^{-1} A_IcJ (unit selectors required, and the inner
    inverse takes the optional scalings); 'both' computes the two and insists
    they agree on the common region.

    Each route runs once, with its working floors derived from the
    requested floor f and the tops of the factors:

    - definition: A^{-1} to f.  If the sandwich S tops out at z^t with
      t < 0, inverting S costs 2t of depth, so A^{-1} is recomputed to
      f + 2t (t is only known after the first inversion); S^{-1} to f.
    - submatrix: the inner inverse to f - top(Q) - top(R), where
      Q = A_IJc and R = A_IcJ; Q·inverse is kept to f - top(R), and its
      product with R to f.

    A route that comes back short of f raises ArithmeticError.
    """
    if A.rows != A.cols:
        raise ValueError("matrix not square")
    if I1.rows != A.rows or J1.cols != A.rows or I1.cols != J1.rows:
        raise ValueError("selector shape mismatch")
    f2 = _floor2(floor)

    def half(n2):
        return None if n2 is None else HalfInt(n2)

    def by_definition():
        B = invert_matrix(A, half(f2), mul)
        S = sandwich(J1, B, I1)
        t2 = S.max_top2()
        if f2 is not None and t2 is not None and t2 < 0:
            B = invert_matrix(A, HalfInt(f2 + 2 * t2), mul)
            S = sandwich(J1, B, I1)
        return invert_matrix(S, half(f2), mul)

    def by_submatrix():
        rowsI = _selector_indices(I1, by_cols=True)
        colsJ = _selector_indices(J1, by_cols=False)
        if rowsI is None or colsJ is None:
            raise ValueError("submatrix path needs unit selector matrices")
        compI = [i for i in range(A.rows) if i not in rowsI]
        compJ = [j for j in range(A.cols) if j not in colsJ]
        P = A.submatrix(rowsI, colsJ)
        if not compI:
            return P
        Q = A.submatrix(rowsI, compJ)
        R = A.submatrix(compI, colsJ)
        tq, tr = Q.max_top2() or 0, R.max_top2() or 0
        inner = invert_matrix(A.submatrix(compI, compJ),
                              half(None if f2 is None else f2 - tq - tr),
                              mul, row_scale=inner_row_scale, col_scale=inner_col_scale)
        QI = Q.matmul(inner, mul, None if f2 is None else f2 - tr)
        return P - QI.matmul(R, mul, f2)

    def deliver(build):
        out = build()
        if f2 is None:
            return out
        d2 = max((e.floor2 for row in out.data for e in row
                  if e.floor2 is not None), default=None)
        if d2 is not None and d2 > f2:
            raise ArithmeticError(f"cannot reach floor z^{HalfInt(f2)}: delivered "
                                  f"only z^{HalfInt(d2)}")
        return out.truncate2(f2)

    if method == "definition":
        return deliver(by_definition)
    if method == "submatrix":
        return deliver(by_submatrix)
    if method != "both":
        raise ValueError(f"unknown method {method!r}")
    qd = deliver(by_definition)
    qs = deliver(by_submatrix)
    diff = qd.first_diff(qs)
    if diff is not None:
        i, j, n2, _ = diff
        raise ArithmeticError(
            f"quasideterminant paths disagree at entry ({i + 1},{j + 1}), z^{HalfInt(n2)}")
    return qs


# ---------------------------------------------------------------------------
# bivariate series and the Yangian-type identity


class BiSeries:
    """Finitely many coefficients c_{mn} z^{m/2} w^{n/2} above per-variable floors."""

    __slots__ = ("alg", "terms", "zfloor2", "wfloor2")

    def __init__(self, alg: Algebra, terms: dict,
                 zfloor2: Optional[int] = None, wfloor2: Optional[int] = None):
        clean = {}
        for (m2, n2), c in terms.items():
            if zfloor2 is not None and m2 < zfloor2:
                continue
            if wfloor2 is not None and n2 < wfloor2:
                continue
            if not c.is_zero():
                clean[(m2, n2)] = c
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "zfloor2", zfloor2)
        object.__setattr__(self, "wfloor2", wfloor2)

    def __setattr__(self, name, value):
        raise AttributeError("BiSeries is immutable")

    @classmethod
    def product_grid(cls, a: SeriesElem, b: SeriesElem, mul: MulFn,
                     swap: bool = False) -> "BiSeries":
        """Coefficient grid of a(z)·b(w) (swap: of b(w)·a(z)); z-exps from a."""
        terms = {}
        for m2, ca in a.terms.items():
            for n2, cb in b.terms.items():
                p = mul(cb, ca) if swap else mul(ca, cb)
                if not p.is_zero():
                    terms[(m2, n2)] = p
        return cls(a.alg, terms, a.floor2, b.floor2)

    @classmethod
    def commutator_grid(cls, a: SeriesElem, b: SeriesElem, mul: MulFn) -> "BiSeries":
        return cls.product_grid(a, b, mul) - cls.product_grid(a, b, mul, swap=True)

    def __add__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms[k] + c if k in terms else c
        return BiSeries(self.alg, terms,
                        _add_floor2(self.zfloor2, other.zfloor2),
                        _add_floor2(self.wfloor2, other.wfloor2))

    def __neg__(self):
        return BiSeries(self.alg, {k: -c for k, c in self.terms.items()},
                        self.zfloor2, self.wfloor2)

    def __sub__(self, other):
        return self + (-other)

    def z_minus_w(self) -> "BiSeries":
        """Multiply by (z - w); both floors rise by one."""
        terms: dict = {}
        for (m2, n2), c in self.terms.items():
            k = (m2 + 2, n2)
            terms[k] = terms[k] + c if k in terms else c
            k = (m2, n2 + 2)
            terms[k] = terms[k] - c if k in terms else -c
        zf = None if self.zfloor2 is None else self.zfloor2 + 2
        wf = None if self.wfloor2 is None else self.wfloor2 + 2
        return BiSeries(self.alg, terms, zf, wf)

    def first_diff(self, other: "BiSeries"):
        zf = _add_floor2(self.zfloor2, other.zfloor2)
        wf = _add_floor2(self.wfloor2, other.wfloor2)
        keys = set(self.terms) | set(other.terms)
        for m2, n2 in sorted(keys):
            if zf is not None and m2 < zf:
                continue
            if wf is not None and n2 < wf:
                continue
            d = (self.terms.get((m2, n2), self.alg.zero())
                 - other.terms.get((m2, n2), self.alg.zero()))
            if not d.is_zero():
                return (m2, n2, d)
        return None

    def is_zero(self) -> bool:
        return not self.terms

    def to_json_obj(self) -> dict:
        return {
            "zfloor": None if self.zfloor2 is None else str(HalfInt(self.zfloor2)),
            "wfloor": None if self.wfloor2 is None else str(HalfInt(self.wfloor2)),
            "terms": [{"zpow": str(HalfInt(m2)), "wpow": str(HalfInt(n2)),
                       "element": self.terms[(m2, n2)].to_json_obj()}
                      for (m2, n2) in sorted(self.terms, reverse=True)],
        }


def yangian_identity_check(A: SeriesMatrix, mul: Optional[MulFn] = None,
                           max_witnesses: int = 10):
    """(z-w)[A_ij(z), A_hk(w)] = A_hj(w)A_ik(z) - A_hj(z)A_ik(w), all quadruples.

    Returns (ok, witnesses); a witness records the quadruple, the exponent
    pair, and the offending coefficient difference.
    """
    if A.rows != A.cols:
        raise ValueError("matrix not square")
    n = A.rows
    cached = _MulCache(mul)
    witnesses = []
    for i in range(n):
        for j in range(n):
            a = A.data[i][j]
            for h in range(n):
                for k in range(n):
                    b = A.data[h][k]
                    lhs = BiSeries.commutator_grid(a, b, cached).z_minus_w()
                    rhs = (BiSeries.product_grid(A.data[i][k], A.data[h][j],
                                                 cached, swap=True)
                           - BiSeries.product_grid(A.data[h][j], A.data[i][k], cached))
                    d = lhs.first_diff(rhs)
                    if d is not None:
                        m2, n2, diff = d
                        witnesses.append({
                            "quadruple": (i + 1, j + 1, h + 1, k + 1),
                            "zpow": str(HalfInt(m2)), "wpow": str(HalfInt(n2)),
                            "difference": diff.to_text(),
                        })
                        if len(witnesses) >= max_witnesses:
                            return False, witnesses
    return not witnesses, witnesses


def inverse_mixed_identity_check(A: SeriesMatrix, Ainv: SeriesMatrix,
                                 mul: Optional[MulFn] = None,
                                 max_witnesses: int = 10):
    """(z-w)[A_ij(z), (A^{-1})_hk(w)] against its delta-sum expansion.

    RHS = -delta_hj sum_t A_it(z)(A^{-1})_tk(w) + delta_ik sum_t (A^{-1})_ht(w)A_tj(z).
    """
    n = A.rows
    cached = _MulCache(mul)
    witnesses = []
    zero = BiSeries(A.alg, {})
    for i in range(n):
        for j in range(n):
            for h in range(n):
                for k in range(n):
                    lhs = BiSeries.commutator_grid(A.data[i][j], Ainv.data[h][k],
                                                   cached).z_minus_w()
                    rhs = zero
                    if h == j:
                        for t in range(n):
                            rhs = rhs - BiSeries.product_grid(
                                A.data[i][t], Ainv.data[t][k], cached)
                    if i == k:
                        for t in range(n):
                            rhs = rhs + BiSeries.product_grid(
                                A.data[t][j], Ainv.data[h][t], cached, swap=True)
                    d = lhs.first_diff(rhs)
                    if d is not None:
                        m2, n2, diff = d
                        witnesses.append({
                            "quadruple": (i + 1, j + 1, h + 1, k + 1),
                            "zpow": str(HalfInt(m2)), "wpow": str(HalfInt(n2)),
                            "difference": diff.to_text(),
                        })
                        if len(witnesses) >= max_witnesses:
                            return False, witnesses
    return not witnesses, witnesses
