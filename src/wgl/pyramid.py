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

import re
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union


# ASCII digits only: int() and Fraction() would also read "1_0" as 10 and
# Arabic-Indic or fullwidth digits as their values, and Fraction reads "nan".
# A part has at most 9 digits, so int() never meets its 4300-digit limit.
_HALF_TEXT = re.compile(r"[+-]?(\d+(/\d+)?|\d*\.\d+|\d+\.)", re.ASCII)
_PART_TEXT = re.compile(r"[+-]?\d{1,9}", re.ASCII)


def parse_half2(text: str) -> int:
    """Half-integer text such as "-8", "-15/2" or "-7.5" as its doubled int;
    ValueError for any other text.

    Only ASCII digits with an optional sign are read, and text over 32
    characters is refused before `Fraction` sees it.
    """
    body = text.strip()
    if len(body) > 32 or not _HALF_TEXT.fullmatch(body):
        raise ValueError(f"{text!r} is not a floor of the form n or n/d "
                         "with at most 32 characters")
    try:
        value = Fraction(body)
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


class Partition:
    """The parts p_1 >= ... >= p_r of a partition; immutable, equal and
    hashed by `parts`."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValueError("partition must have at least one part")
        for p in parts:
            if type(p) is not int or p < 1:
                raise ValueError(f"parts must be positive integers, got {p!r}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing, got {parts}")

    @classmethod
    def parse(cls, text: str) -> "Partition":
        toks = text.split(",")
        if not all(_PART_TEXT.fullmatch(tok.strip()) for tok in toks):
            raise ValueError(f"bad partition string {text!r}")
        return cls(tuple(map(int, toks)))

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

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition(parts={self.parts!r})"

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


def corner_positions(p: Partition) -> tuple:
    """The corner indices (rows, cols) of L(z) in the box order: the
    positions of the first boxes (i,1) and of the last boxes (i,p_1), for i
    up to the multiplicity of the largest part."""
    pos = box_position(p)
    longest = range(1, p.r1 + 1)
    return [pos[Box(i, 1)] for i in longest], [pos[Box(i, p.parts[0])] for i in longest]


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

    def inverse(self) -> "ScalarMatrix":
        """The inverse by Gauss-Jordan elimination; ValueError if the matrix
        is not square or is singular."""
        n = self.rows
        if n != self.cols:
            raise ValueError("only square matrices are invertible")
        m = [[Fraction(x) for x in row] + [Fraction(int(i == k)) for k in range(n)]
             for i, row in enumerate(self.data)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
            if pivot is None:
                raise ValueError("matrix is singular")
            m[col], m[pivot] = m[pivot], m[col]
            inv = 1 / m[col][col]
            m[col] = [x * inv for x in m[col]]
            for r in range(n):
                if r != col and m[r][col] != 0:
                    factor = m[r][col]
                    m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
        return ScalarMatrix(n, n, [row[n:] for row in m])

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"ScalarMatrix[{body}]"
