"""Partitions, pyramids and their constant structure data.

A partition p = (p_1 >= ... >= p_r) of N indexes a nilpotent orbit of gl_N.
Its boxes (i,h), 1 <= i <= r, 1 <= h <= p_i, are ordered lexicographically and
that order fixes the row/column layout of every N x N matrix in this package.
Box (i,h) sits at x-coordinate (p_i + 1 - 2h)/2, so each row of the pyramid is
centered; the grading degree of a generator e_{a,b} is x(a) - x(b).

Every half-integer in the package (coordinates, degrees, z-exponents and
floors) is held as its doubled int; `parse_half2` reads one from text and
`half_str` writes one back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union


def parse_half2(text: str) -> int:
    """Half-integer text such as "-8" or "-15/2" as its doubled int;
    ValueError for any other text."""
    try:
        value = Fraction(text.strip())
    except ZeroDivisionError as exc:
        raise ValueError(f"{text!r} has a zero denominator") from exc
    if value.denominator not in (1, 2):
        raise ValueError(f"{value} is not a half-integer")
    return int(2 * value)


def half_str(n2: int) -> str:
    """The half-integer n2/2 as text: "-4" for -8, "-9/2" for -9."""
    return str(n2 // 2) if n2 % 2 == 0 else f"{n2}/2"


class Box(NamedTuple):
    """A pyramid box; compares/hashes as the plain tuple (i, h)."""

    i: int
    h: int

    def __str__(self):
        return f"({self.i},{self.h})"


@dataclass(frozen=True)
class Partition:
    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValueError("partition must have at least one part")
        for p in parts:
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"parts must be positive integers, got {p!r}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing, got {parts}")

    @classmethod
    def parse(cls, text: str) -> "Partition":
        try:
            parts = tuple(int(tok) for tok in text.split(","))
        except ValueError as exc:
            raise ValueError(f"bad partition string {text!r}") from exc
        return cls(parts)

    @property
    def N(self) -> int:
        return sum(self.parts)

    @property
    def r(self) -> int:
        return len(self.parts)

    @property
    def r1(self) -> int:
        """Multiplicity of the largest part."""
        p1 = self.parts[0]
        n = 0
        for p in self.parts:
            if p != p1:
                break
            n += 1
        return n

    def __str__(self):
        return ",".join(str(p) for p in self.parts)


def boxes(p: Partition) -> tuple:
    """All boxes of the pyramid in lexicographic order."""
    return tuple(Box(i, h) for i in range(1, p.r + 1) for h in range(1, p.parts[i - 1] + 1))


def box_position(p: Partition) -> dict:
    """Map box -> 0-based position in the lexicographic order."""
    return {b: n for n, b in enumerate(boxes(p))}


def _check_box(p: Partition, b) -> Box:
    i, h = b
    if not (1 <= i <= p.r and 1 <= h <= p.parts[i - 1]):
        raise ValueError(f"box {(i, h)} not in pyramid of {p}")
    return Box(i, h)


def x_coord(p: Partition, b) -> int:
    """Doubled x-coordinate of box b: p_i + 1 - 2h."""
    i, h = _check_box(p, b)
    return p.parts[i - 1] + 1 - 2 * h


def grading_degree(p: Partition, a, b) -> int:
    """Doubled ad x eigenvalue of e_{a,b}: x(a) - x(b)."""
    return x_coord(p, a) - x_coord(p, b)


def grading_class(p: Partition, a, b) -> int:
    """0 for degree <= 0, 1 for degree 1/2, 2 for degree >= 1."""
    d = grading_degree(p, a, b)
    if d <= 0:
        return 0
    if d == 1:
        return 1
    return 2


def shift_matrix(p: Partition) -> "ScalarMatrix":
    """Diagonal matrix D: d_b = -(number of boxes entirely to the right of b),
    i.e. boxes c with x(c) - x(b) >= 1."""
    bs = boxes(p)
    xs = [x_coord(p, b) for b in bs]
    diag = []
    for xb in xs:
        diag.append(-sum(1 for xc in xs if xc - xb >= 2))
    return ScalarMatrix.diag(diag)


def structure_matrices(p: Partition) -> dict:
    """The constant matrices F, I1, J1, S1 in the box order.

    F has a 1 in row (i,h+1), column (i,h); I1 selects the columns (i,1) and
    J1 the rows (i,p_1), for i up to the multiplicity of the largest part.
    """
    pos = box_position(p)
    N, r1, p1 = p.N, p.r1, p.parts[0]
    F = [[0] * N for _ in range(N)]
    for i in range(1, p.r + 1):
        for h in range(1, p.parts[i - 1]):
            F[pos[Box(i, h + 1)]][pos[Box(i, h)]] = 1
    I1 = [[0] * r1 for _ in range(N)]
    J1 = [[0] * N for _ in range(r1)]
    for i in range(1, r1 + 1):
        I1[pos[Box(i, 1)]][i - 1] = 1
        J1[i - 1][pos[Box(i, p1)]] = 1
    Fm = ScalarMatrix.from_rows(F)
    I1m = ScalarMatrix.from_rows(I1)
    J1m = ScalarMatrix.from_rows(J1)
    return {"F": Fm, "I1": I1m, "J1": J1m, "S1": I1m @ J1m}


def gf_basis(p: Partition) -> dict:
    """Basis of the centralizer of the nilpotent f, as elements of U(gl_N).

    Returns an ordered map (i,j,k) -> sum_{h=0}^{k} e_{(i, p_i+h-k), (j, h+1)},
    for 1 <= i,j <= r and 0 <= k <= min(p_i, p_j) - 1.
    """
    from .uea import Algebra

    alg = Algebra(p)
    out = {}
    for i in range(1, p.r + 1):
        for j in range(1, p.r + 1):
            for k in range(min(p.parts[i - 1], p.parts[j - 1])):
                elem = alg.zero()
                for h in range(k + 1):
                    elem = elem + alg.gen(Box(i, p.parts[i - 1] + h - k), Box(j, h + 1))
                out[(i, j, k)] = elem
    return out


def _frac(x) -> Union[int, Fraction]:
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, int):
        return x
    raise TypeError(f"matrix entries must be exact rationals, got {type(x).__name__}")


class ScalarMatrix:
    """Dense exact-rational matrix; just enough linear algebra for pivots."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data):
        self.rows = rows
        self.cols = cols
        self.data = tuple(tuple(_frac(x) for x in row) for row in data)
        if len(self.data) != rows or any(len(row) != cols for row in self.data):
            raise ValueError("inconsistent matrix dimensions")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "ScalarMatrix":
        rows = [list(r) for r in rows]
        return cls(len(rows), len(rows[0]) if rows else 0, rows)

    @classmethod
    def identity(cls, n: int) -> "ScalarMatrix":
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diag(cls, entries: Iterable) -> "ScalarMatrix":
        entries = list(entries)
        n = len(entries)
        return cls(n, n, [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, ScalarMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.data[i][j] == other.data[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __matmul__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = [
            [
                sum(self.data[i][k] * other.data[k][j] for k in range(self.cols))
                for j in range(other.cols)
            ]
            for i in range(self.rows)
        ]
        return ScalarMatrix(self.rows, other.cols, out)

    def __add__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return ScalarMatrix(
            self.rows,
            self.cols,
            [
                [self.data[i][j] + other.data[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ],
        )

    def __neg__(self) -> "ScalarMatrix":
        return ScalarMatrix(
            self.rows, self.cols, [[-x for x in row] for row in self.data]
        )

    def __sub__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        return self + (-other)

    def transpose(self) -> "ScalarMatrix":
        return ScalarMatrix(
            self.cols, self.rows,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def _row_reduce(self):
        # returns (reduced rows, pivot columns, transform applied to an identity)
        m = [[Fraction(x) for x in row] + [Fraction(int(i == k)) for k in range(self.rows)]
             for i, row in enumerate(self.data)]
        pivots = []
        row = 0
        for col in range(self.cols):
            pivot = next((r for r in range(row, self.rows) if m[r][col] != 0), None)
            if pivot is None:
                continue
            m[row], m[pivot] = m[pivot], m[row]
            inv = 1 / m[row][col]
            m[row] = [x * inv for x in m[row]]
            for r in range(self.rows):
                if r != row and m[r][col] != 0:
                    factor = m[r][col]
                    m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
            pivots.append(col)
            row += 1
            if row == self.rows:
                break
        return m, pivots

    def rank(self) -> int:
        return len(self._row_reduce()[1])

    def inverse(self) -> "ScalarMatrix":
        if self.rows != self.cols:
            raise ValueError("only square matrices are invertible")
        m, pivots = self._row_reduce()
        if len(pivots) != self.rows:
            raise ValueError("matrix is singular")
        inv = [row[self.cols:] for row in m]
        return ScalarMatrix(self.rows, self.cols, inv)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"ScalarMatrix[{body}]"
