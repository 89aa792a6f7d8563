"""The operator L(z) and everything built from it.

This module assembles the headline objects: the shifted generator matrix,
its generalized quasideterminant L(z), the Laurent-expansion identity that
connects L(z) to the weighted matrix 1 + z^{-D}E, membership and Yangian
checks for the coefficients of L(z), the Capelli determinant suite, the
three closed generator families (principal, rectangular, minimal), their
commutator tables, and the block-quasideterminant reconstruction of L(z)
from a candidate generator table.

L(z) is one submatrix quasideterminant, computed right to left, and the
product passed to it decides where: the action of U(g) on M = U(g)/I, so
that no U(g) product is formed, or, for `wgl L --format json`, which prints
the U(g) quasideterminant as well (`build_L(..., lift=True)`), the U(g)
product, whose result is then reduced.

Every routine returns a plain report dict:

    {"check": ..., "partition": ..., "floor": ..., "pass": bool,
     "witnesses": [...], ...extras}

so the CLI can serialize them uniformly.  Floors and exponents are doubled
ints throughout; a report renders its floor as a half-integer string, or
None when the computation is exact (no truncation).
"""

from itertools import combinations, product
from typing import Optional

from .pyramid import (
    Box,
    Partition,
    ScalarMatrix,
    boxes,
    corner_positions,
    half_str,
    shift_matrix,
    x_coord,
)
from .uea import Algebra, UEAElement, _Space, _add_into, _fold
from .quotient import (
    MElement,
    act,
    ad_invariant_witness,
    reduce_mod_I,
    w_commutator,
    w_product,
)
from .series import (
    SeriesElem,
    SeriesMatrix,
    inverse_mixed_identity_check,
    invert_matrix,
    noncomm_det,
    quasideterminant,
    quasideterminant_by_definition,
    yangian_identity_check,
)

__all__ = [
    "GeneratorBasis",
    "LOperator",
    "WGenerators",
    "default_floor",
    "build_shifted_matrix",
    "build_L",
    "main_lemma_sides",
    "main_lemma_check",
    "w_membership_check",
    "yangian_check_L",
    "capelli_suite",
    "rho_det_identities",
    "family_generators",
    "premet_check",
    "relation_table_check",
    "conjecture_check",
]


def default_floor(p: Partition) -> int:
    """Doubled truncation used when the caller does not pick one:
    z^-(2*p1 + 4)."""
    return -4 * p.parts[0] - 8


def _floor2_for(p: Partition, f2: Optional[int]) -> int:
    """Doubled truncation floor for p: the given one, else the default.

    L(z) starts at z^{p1}, so a floor above p1 would cut into the leading
    coefficient; it is refused as bad input.  So is a floor below twice the
    default depth, -(4*p1 + 8): the cost of a check grows about threefold per
    unit of depth, and (2,1,1,1) at -8 already takes minutes and gigabytes.
    """
    default = default_floor(p)
    if f2 is None:
        return default
    if f2 > 2 * p.parts[0]:
        raise ValueError(f"floor {half_str(f2)} is above the top power z^{p.parts[0]} "
                         "of L(z)")
    if f2 < 2 * default:
        raise ValueError(f"floor {half_str(f2)} is below {half_str(2 * default)}, "
                         f"twice the default depth {half_str(default)} for partition {p}")
    return f2


def _report(check: str, p: Optional[Partition], f2: Optional[int],
            ok: bool, witnesses: list, **extras) -> dict:
    rep = {
        "check": check,
        "partition": None if p is None else str(p),
        "floor": None if f2 is None else half_str(f2),
        "pass": bool(ok),
        "witnesses": witnesses,
    }
    rep.update(extras)
    return rep


def _first_diff_report(check: str, p: Partition, f2: Optional[int], got: SeriesMatrix,
                       want: SeriesMatrix, **extras) -> dict:
    """The report of comparing two series matrices above the doubled floor
    f2, with their lowest difference, if any, as the witness."""
    witnesses = []
    d = got.first_diff(want, f2)
    if d is not None:
        i, j, n2, diff = d
        witnesses.append({"entry": (i + 1, j + 1), "zpow": half_str(n2),
                          "difference": diff.to_text()})
    return _report(check, p, f2, not witnesses, witnesses, **extras)


def _reduce_series(se: SeriesElem) -> SeriesElem:
    return SeriesElem(se.alg, {n2: reduce_mod_I(c) for n2, c in se.terms.items()},
                      se.floor2)


# ---------------------------------------------------------------------------
# the shifted matrix and L(z)


def build_shifted_matrix(p: Partition) -> SeriesMatrix:
    """z*1 + F + (degree <= 1/2 part of E) + D, in the box basis.

    Row a, column b carries e_{b,a} (the source convention for operators of
    Yangian type), kept only when its ad-x eigenvalue is at most 1/2; on top
    of that the nilpotent F contributes a 1 in row (i,h+1), column (i,h),
    and the diagonal gets z plus the column-count correction d_a.
    """
    alg = Algebra(p)
    D = shift_matrix(p)
    rows = []
    for ia, a in enumerate(alg.boxes):
        row = []
        for ib, b in enumerate(alg.boxes):
            lid = alg.letter_id[(b, a)]
            x = alg.gen_by_id(lid) if alg.deg2[lid] <= 1 else alg.zero()
            c = (b == (a.i, a.h - 1)) + (D[ia, ia] if ia == ib else 0)
            terms = {0: x + alg.scalar(c) if c else x}
            if ia == ib:
                terms[2] = alg.one()
            row.append(SeriesElem(alg, terms))
        rows.append(row)
    return SeriesMatrix(alg, rows)


def _inner_scales(p: Partition):
    """Row and column scalings of the shifted matrix, one doubled exponent
    per box, that expose a scalar pivot in its complement submatrix.

    Conjugating by diag(z^{x(b)}) turns the z-diagonal and the unit
    subdiagonal of the shifted matrix into a single invertible z^0 block
    while every remaining entry strictly decays; the extra -1 on the row
    side shifts the whole product by z^{-1} so the block lands at z^0.
    That block is the top pivot of every solve on the complement, truncated
    or exact.
    """
    xs = [x_coord(p, b) for b in boxes(p)]
    return [-2 - x for x in xs], xs


class LOperator:
    """L(z), and the U(g) quasideterminant it reduces from when asked for.

    reduced is L(z) itself, with coefficients the canonical representatives
    in M.  lift, when `build_L` was asked for it, is the r1 x r1
    quasideterminant of the shifted matrix with plain enveloping-algebra
    coefficients, of which reduced is the image; it is None otherwise.
    floor2, the doubled truncation floor, is None when the series is exact
    (a polynomial, which happens exactly when all parts are equal).
    """

    def __init__(self, partition: Partition, floor2: Optional[int],
                 lift: Optional[SeriesMatrix], reduced: SeriesMatrix):
        self.partition = partition
        self.floor2 = floor2
        self.lift = lift
        self.reduced = reduced

    def to_json_obj(self) -> dict:
        return {
            "partition": str(self.partition),
            "floor": None if self.floor2 is None else half_str(self.floor2),
            "lift": None if self.lift is None else self.lift.to_json_obj(),
            "L": self.reduced.to_json_obj(),
        }

    def to_text(self) -> str:
        lines = [f"L(z) for partition {self.partition}"
                 + ("" if self.floor2 is None else f", floor z^{half_str(self.floor2)}")]
        for i in range(self.reduced.rows):
            for j in range(self.reduced.cols):
                lines.append(f"  L[{i + 1}][{j + 1}] = "
                             f"{self.reduced.data[i][j].to_text()}")
        return "\n".join(lines)


def build_L(p: Partition, f2: Optional[int] = None, lift: bool = False) -> LOperator:
    """L(z): the generalized quasideterminant of the shifted matrix at the
    corner positions (rows of the first boxes, columns of the last boxes of
    the longest rows, `corner_positions`), reduced to M.

    One submatrix `quasideterminant` call computes it, right to left; the
    product decides where.  By default it is the action of U(g) on M, so no
    U(g) product is formed (the shifted matrix has no letter of degree >= 1,
    so its entries are already canonical representatives).  lift=True passes
    the U(g) product instead and reduces the result; only `wgl L --format
    json` asks for that, since it prints the lift.  Both give the same L(z),
    coefficient by coefficient and floor by floor.

    The inner solve always takes the scales of `_inner_scales`.  When all
    parts are equal its long division provably ends and the result is an
    exact polynomial; otherwise the requested (or default) doubled floor f2
    applies.

    No later stage reads the memo rows of the build: it returns with the
    action memo fresh (on the lift route an earlier stage may have filled
    it), and the lift route clears the U(g) memo it filled, as
    `quasideterminant` already did between its solve and its corner
    product.
    """
    p1 = p.parts[0]
    f2 = None if p.r == p.r1 and f2 is None else _floor2_for(p, f2)
    q = quasideterminant(build_shifted_matrix(p), *corner_positions(p), f2,
                         None if lift else act, *_inner_scales(p))
    alg = Algebra(p)
    alg._act_cache.clear()
    if lift:
        alg._lm_cache.clear()
    reduced = q.map_entries(_reduce_series)
    _check_start(reduced, 2 * p1, -((-1) ** p1), "L(z)")
    return LOperator(partition=p, floor2=f2, lift=q if lift else None, reduced=reduced)


def _check_start(S: SeriesMatrix, t2: int, c: int, what: str) -> None:
    """ArithmeticError unless the series matrix S starts at z^{t2/2} with the
    scalar coefficient c·1."""
    top, C = S.max_top2(), S.scalar_matrix2(t2)
    if top != t2 or C != ScalarMatrix.diag([c] * S.rows):
        raise ArithmeticError(f"{what} does not start with {c}*1 at z^{half_str(t2)}: "
                              f"doubled top {top}, coefficient there "
                              f"{'not scalar' if C is None else C}")


# ---------------------------------------------------------------------------
# the Laurent-expansion identity


def _weighted_E(alg: Algebra) -> SeriesMatrix:
    """T with entry (a,b) = z^{deg(e_{b,a}) - 1} e_{b,a}; 1 + T is the
    weighted matrix whose corner quasideterminant expands the identity."""
    rows = []
    for a in alg.boxes:
        row = []
        for b in alg.boxes:
            lid = alg.letter_id[(b, a)]
            row.append(SeriesElem(alg, {alg.deg2[lid] - 2: alg.gen_by_id(lid)}, None))
        rows.append(row)
    return SeriesMatrix(alg, rows)


def main_lemma_sides(p: Partition, f2: Optional[int] = None):
    """Both sides of the expansion identity as r1 x r1 series over the
    quotient module: the corner quasideterminant of 1 + z^{-D}E applied to
    the cyclic vector, and z^{-p1} L(z).

    The left side is one `quasideterminant_by_definition` call in the action
    on M at the corner positions (`corner_positions`): a solve against the
    identity columns at the corner rows (a seed that is already reduced),
    then the inversion of the corner series.  Entry (a,b) of z^{-D}E is
    z^{(x(b)-x(a))/2 - 1} e_{b,a}, so the row scale z^{x(a)/2} and the
    column scale z^{-x(b)/2} make every entry of the weighted letters a pure
    z^{-1} term: the identity is the top pivot, and the solve fixes the
    depth of each term from f2, the requested doubled floor.  The corner
    series is itself invariant (the inverse of an invariant series with
    scalar leading coefficient), so its inversion may run in the action on
    M, the W-product there.  It starts with ±1 at z^0, so top2 is 0.
    """
    alg = Algebra(p)
    p1 = p.parts[0]
    f2 = _floor2_for(p, f2)
    if f2 > -2 * p1:
        raise ValueError(f"floor must be at most -p1 = {-p1}")
    xs = [x_coord(p, b) for b in boxes(p)]
    lhs = quasideterminant_by_definition(
        SeriesMatrix.identity(alg, p.N) + _weighted_E(alg), *corner_positions(p), f2, 0,
        act, xs, [-x for x in xs])
    _check_start(lhs, 0, (-1) ** (p1 - 1), "the corner quasideterminant")

    L = build_L(p, None if p.r == p.r1 else f2 + 2 * p1)
    rhs = L.reduced.map_entries(lambda e: e.shift2(-2 * p1)).truncate2(f2)
    return lhs, rhs


def main_lemma_check(p: Partition, f2: Optional[int] = None) -> dict:
    f2 = _floor2_for(p, f2)
    lhs, rhs = main_lemma_sides(p, f2)
    return _first_diff_report("main-lemma", p, f2, lhs, rhs)


# ---------------------------------------------------------------------------
# membership and Yangian checks for L(z)


def w_membership_check(L: LOperator) -> dict:
    """Every coefficient of L(z) must commute with g_{>=1/2} inside the
    quotient — the membership criterion for the invariant subalgebra.

    `ad_invariant_witness` tests each coefficient against the Lie generators
    of g_{>=1/2} only, and a witness names the first generator that moves
    it.  The test reads the reduced coefficients: the verdict is the same for
    every lift of one.  Two lifts differ by some y = sum_i u_i (m_i - chi(m_i))
    in I, and for a letter a of degree >= 1/2, [a, y]·1 = a·(y·1) - y·(a·1)
    = -y·(a·1).  If a has degree >= 1, a·1 = chi(a) and y·1 = 0.  If a has
    degree 1/2, y·a·1 = sum_i u_i [m_i, a]·1, and [m_i, a] has degree
    >= 3/2, where chi vanishes.  Either way [a, y]·1 = 0.
    """
    witnesses = []
    checked = 0
    for i in range(L.reduced.rows):
        for j in range(L.reduced.cols):
            se = L.reduced.data[i][j]
            for n2 in se.exponents2():
                checked += 1
                w = ad_invariant_witness(se.terms[n2])
                if w is not None:
                    witnesses.append({
                        "entry": (i + 1, j + 1),
                        "zpow": half_str(n2),
                        "letter": L.reduced.alg.gen(*w).to_text(),
                    })
    return _report("membership", L.partition, L.floor2, not witnesses, witnesses,
                   coefficients_checked=checked)


def yangian_check_L(L: LOperator) -> dict:
    """Yangian identity for L(z), with the quotient product computed as the
    left action of one canonical representative on the other in M.

    For a 1x1 operator the defining identity reads
    (z-w)[t(z),t(w)] = -[t(z),t(w)], and over an exact coefficient grid
    that forces [t(z),t(w)] = 0: walking the antidiagonals down from the
    top corner, the relations make each commutator coefficient constant
    along its level while antisymmetry negates it end to end.  So the 1x1
    check is pairwise commutation of the series coefficients, either
    computed directly ("direct") or — when a closed generator family covers
    the partition and the coefficients are bulky — by exact rewriting of
    every coefficient as a polynomial in the family and commuting in that
    basis ("generators"); the report names the strategy used.

    On the generators route the action memo ends with the conversions: it
    is cleared before the first commutator, and only the family brackets
    that the commutators ask for refill it.
    """
    extras = {"product": "lift"}
    if L.partition.r1 == 1:
        a = L.reduced.data[0][0]
        exps, coeffs = a.exponents2(), a.terms
        family = _generating_family(L.partition)
        bulk = sum(len(coeffs[m2].terms) * len(coeffs[n2].terms)
                   for u, m2 in enumerate(exps) for n2 in exps[u + 1:])
        strategy = "generators" if family and bulk > 2_000_000 else "direct"
        extras["strategy"] = strategy
        if strategy == "generators":
            basis = GeneratorBasis(family_generators(L.partition, family))
            polys = {n2: basis.convert(c) for n2, c in coeffs.items()}
            basis.alg._act_cache.clear()

            def difference(m2, n2):
                d = basis.poly_commutator(polys[m2], polys[n2])
                return basis.poly_text(d) if d else None
        else:
            def difference(m2, n2):
                x, y = coeffs[m2], coeffs[n2]
                d = w_product(x, y) - w_product(y, x)
                return None if d.is_zero() else d.to_text()
        witnesses = [{"quadruple": (1, 1, 1, 1), "zpow": half_str(m2),
                      "wpow": half_str(n2), "difference": text}
                     for u, m2 in enumerate(exps) for n2 in exps[u + 1:]
                     if (text := difference(m2, n2)) is not None]
        ok = not witnesses
        if L.floor2 is None:
            extras["exact_commutator_zero"] = ok
    else:
        ok, witnesses = yangian_identity_check(L.reduced, mul=w_product)
    return _report("yangian", L.partition, L.floor2, ok, witnesses, **extras)


# ---------------------------------------------------------------------------
# Capelli determinants and the two determinant identities

# For N = 4 `check identities` takes 2.1-2.8 s CPU in a fresh process
# (CPython 3.11, 2 vCPUs); the determinants sum N! products.
_MAX_N = 4


def capelli_suite(N: int) -> dict:
    """Row determinant of z + E + diag(0,-1,...,-N+1) over gl_N: its z
    coefficients generate the center, which we verify by brute force, for
    N up to _MAX_N.

    z + E is the production shifted matrix of the partition (1^N)
    (`build_shifted_matrix`): every letter has degree 0, and there is no F
    and no D, so the check reads the matrix that L(z) is built from.
    """
    if not 1 <= N <= _MAX_N:
        raise ValueError(f"N = {N} outside 1..{_MAX_N}")
    p = Partition((1,) * N)
    alg = Algebra(p)
    shift = SeriesMatrix.from_scalar(alg, ScalarMatrix.diag(range(0, -N, -1)))
    det = noncomm_det(build_shifted_matrix(p) + shift, mode="row")

    witnesses = []
    coeffs = []
    for k in range(1, N + 1):
        zk = det.coeff2(2 * (N - k))
        central = zk.is_central()
        coeffs.append({"k": k, "element": zk,
                       "text": zk.to_text(), "central": central})
        if not central:
            witnesses.append({"k": k, "element": zk.to_text()})
    lead = det.coeff2(2 * N)
    if lead != alg.one():
        witnesses.append({"k": 0, "element": lead.to_text()})
    return _report("capelli", p, None, not witnesses, witnesses,
                   n=N, coefficients=coeffs)


def rho_det_identities(N: int) -> dict:
    """Determinant identities in the principal configuration.

    (a) projecting the row determinant of E + D to the quotient equals the
        row determinant of the projected matrix (with F added), for D = 0
        and for the Capelli shift; the left side is built here, the right
        side is the z^0 coefficient of the row determinant of the shifted
        matrix (`build_shifted_matrix`), whose D is the Capelli shift
        diag(0,-1,...,-N+1), with D taken off for D = 0;
    (b) at N = 2, the row- and column-ordered determinants differ by
        e11 - e22 after projection;
    (c) on the shifted matrix, row determinant = column determinant, and
        the corner quasideterminant is (-1)^(N+1) times them — the usual
        cofactor sign, which disappears for odd N — all exactly.
    """
    if not 1 <= N <= _MAX_N:
        raise ValueError(f"N = {N} outside 1..{_MAX_N}")
    p = Partition((N,))
    alg = Algebra(p)
    results = []
    witnesses = []

    def elem(i, j):
        # entry (i,j) of the generator matrix: e_{ji}
        return alg.gen(Box(1, j), Box(1, i))

    def note(name, ok, detail=None):
        results.append({"identity": name, "pass": bool(ok)})
        if not ok:
            witnesses.append({"identity": name, "detail": detail})

    A = build_shifted_matrix(p)
    rd = noncomm_det(A, "row")
    no_D = A - SeriesMatrix.from_scalar(alg, shift_matrix(p))
    for tag, dvals, right in (("D=0", [0] * N, noncomm_det(no_D, "row")),
                              ("D=capelli", [-i for i in range(N)], rd)):
        Erows = [[SeriesElem.from_element(
            alg, elem(i + 1, j + 1) + (alg.scalar(dvals[i]) if i == j else alg.zero()))
            for j in range(N)] for i in range(N)]
        lhs = reduce_mod_I(noncomm_det(SeriesMatrix(alg, Erows), "row").coeff2(0))
        rhs = reduce_mod_I(right.coeff2(0))
        ok = lhs == rhs
        note(f"project(rdet(E+D)) = rdet(proj E + F + D), {tag}", ok,
             None if ok else (lhs - rhs).to_text())

    if N == 2:
        Erows = [[SeriesElem.from_element(alg, elem(i + 1, j + 1))
                  for j in range(2)] for i in range(2)]
        EM = SeriesMatrix(alg, Erows)
        lhs = reduce_mod_I(noncomm_det(EM, "row").coeff2(0))
        rhs = reduce_mod_I(noncomm_det(EM, "column").coeff2(0)) \
            + reduce_mod_I(elem(1, 1) - elem(2, 2))
        ok = lhs == rhs
        note("project(rdet E) - project(cdet E) = e11 - e22", ok,
             None if ok else (lhs - rhs).to_text())

    corner, scales = corner_positions(p), _inner_scales(p)
    cd = noncomm_det(A, "column")
    qd = quasideterminant(A, *corner, None, None, *scales).data[0][0]
    sign = (-1) ** (N + 1)
    sd = rd if sign == 1 else -rd
    note("rdet(shifted) = cdet(shifted)", rd == cd,
         None if rd == cd else (rd - cd).to_text())
    note("corner quasideterminant = (-1)^(N+1) rdet(shifted)", sd == qd,
         None if sd == qd else (sd - qd).to_text())
    # both quasideterminant routes must also agree with it under truncation
    f2 = -12     # z^-6
    routes = {
        "submatrix": quasideterminant(A, *corner, f2, None, *scales),
        "definition": quasideterminant_by_definition(A, *corner, f2, qd.top2()),
    }
    diffs = {name: q.data[0][0].first_diff2(qd) for name, q in routes.items()}
    bad = {name: f"z^{half_str(d[0])}: {d[1].to_text()}"
           for name, d in diffs.items() if d is not None}
    note("quasideterminant routes agree at floor -6", not bad, bad or None)

    # commutator of a matrix entry with an entry of its inverse, expanded
    # into the delta-sum form, for z*1 + E at floor -6
    zrows = [[SeriesElem(alg,
                         {2: alg.one(), 0: elem(i + 1, j + 1)} if i == j
                         else {0: elem(i + 1, j + 1)}, f2)
              for j in range(N)] for i in range(N)]
    Z = SeriesMatrix(alg, zrows)
    mok, mwit = inverse_mixed_identity_check(Z, invert_matrix(Z, f2))
    note("mixed inverse commutator identity at floor -6", mok,
         None if mok else mwit[:3])

    ok = all(r["pass"] for r in results)
    return _report("identities", p, None, ok, witnesses, n=N, results=results)


# ---------------------------------------------------------------------------
# generator families


def _w_text(key) -> str:
    """The generator with table key (i, j, k), written w[i,j;k]."""
    return "w[{},{};{}]".format(*key)


class WGenerators:
    """A table of generators w_{ij;k}.

    table maps (i,j,k) with 1 <= i,j <= r and 0 <= k <= min(p_i,p_j)-1 to
    the reduced representative.
    """

    def __init__(self, family: str, partition: Partition, table: dict):
        self.family = family
        self.partition = partition
        self.table = table

    def wmatrix(self) -> SeriesMatrix:
        """The r x r polynomial matrix with (u,v) entry
        sum_k w_{vu;k} (-z)^k (note the index transposition)."""
        p = self.partition
        alg = Algebra(p)
        rows = []
        for u in range(1, p.r + 1):
            row = []
            for v in range(1, p.r + 1):
                terms = {}
                for k in range(min(p.parts[u - 1], p.parts[v - 1])):
                    c = self.table[(v, u, k)]
                    if k % 2:
                        c = -c
                    if not c.is_zero():
                        terms[2 * k] = c
                row.append(SeriesElem(alg, terms, None))
            rows.append(row)
        return SeriesMatrix(alg, rows)

    def sorted_keys(self):
        return sorted(self.table)

    def to_json_obj(self) -> dict:
        return {
            "family": self.family,
            "partition": str(self.partition),
            "generators": [
                {"i": i, "j": j, "k": k, "element": self.table[(i, j, k)]}
                for (i, j, k) in self.sorted_keys()
            ],
        }

    def to_text(self) -> str:
        lines = [f"{self.family} generators for partition {self.partition}"]
        for key in self.sorted_keys():
            lines.append(f"  {_w_text(key)} = {self.table[key].to_text()}")
        return "\n".join(lines)


def _polynomial_table(p: Partition) -> dict:
    """w_{ab;k} = (-1)^k [z^k] L[b][a] for the exact polynomial families."""
    L = build_L(p)
    p1, r1 = p.parts[0], p.r1
    table = {}
    for a in range(1, r1 + 1):
        for b in range(1, r1 + 1):
            red = L.reduced.data[b - 1][a - 1]
            for k in range(p1):
                s = -1 if k % 2 else 1
                table[(a, b, k)] = red.coeff2(2 * k).scale(s)
    return table


def _minimal_table(p: Partition) -> dict:
    """Closed formulas for the almost-trivial pyramid (2,1,...,1).

    Shorthand: boxes (1,1) and (1,2) form the long row; the tail boxes are
    (a+1,1) for a = 1..N-2.  All displayed products are matrix products of
    the row vector built on e_{(a+1,1),(1k)}, the column vector built on
    e_{(1k),(a+1,1)}, and the (N-2)-square block with (a,b) entry
    e_{(b+1,1),(a+1,1)}.  The formulas are evaluated in U(g) and reduced.
    """
    alg = Algebra(p)
    n = p.N - 2

    def g(a, b):
        return alg.gen(Box(*a), Box(*b))

    e11, e12 = (1, 1), (1, 2)
    row12 = [g((a + 2, 1), e12) for a in range(n)]     # e_{+(12)}
    row11 = [g((a + 2, 1), e11) for a in range(n)]     # e_{+(11)}
    col11 = [g(e11, (a + 2, 1)) for a in range(n)]     # e_{(11)+}
    col12 = [g(e12, (a + 2, 1)) for a in range(n)]     # e_{(12)+}
    Epp = [[g((b + 2, 1), (a + 2, 1)) for b in range(n)] for a in range(n)]

    Wpp = [[Epp[a][b] - col11[a] * row12[b] for b in range(n)] for a in range(n)]
    w11_1 = g(e11, e11) + g(e12, e12) - alg.one()
    for a in range(n):
        w11_1 = w11_1 + row12[a] * col11[a]
    wp1 = [row11[a] - g(e11, e11) * row12[a]
           + sum((row12[b] * Wpp[b][a] for b in range(n)), alg.zero())
           for a in range(n)]
    w1p = [col12[a] - col11[a] * (g(e12, e12) - alg.one())
           + sum((Wpp[a][b] * col11[b] for b in range(n)), alg.zero())
           for a in range(n)]
    w11_0 = g(e12, e11) - g(e11, e11) * (g(e12, e12) - alg.one())
    for a in range(n):
        w11_0 = w11_0 + row12[a] * w1p[a] + wp1[a] * col11[a]
        for b in range(n):
            w11_0 = w11_0 - row12[a] * Wpp[a][b] * col11[b]

    lifts = {(1, 1, 1): w11_1, (1, 1, 0): w11_0}
    for a in range(n):
        lifts[(a + 2, 1, 0)] = wp1[a]
        lifts[(1, a + 2, 0)] = w1p[a]
        for b in range(n):
            lifts[(b + 2, a + 2, 0)] = Wpp[a][b]
    return {key: reduce_mod_I(e) for key, e in lifts.items()}


def _family(name: str) -> tuple:
    """(fits, build table, brackets) of the named family in `FAMILIES`."""
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    return FAMILIES[name]


def family_generators(p: Partition, family: str) -> WGenerators:
    """Generator tables for the three families with closed descriptions.

    principal (one part): w_k = (-1)^k [z^k] L(z), k < N;
    rectangular (all parts equal): entrywise the same extraction;
    minimal ((2,1,...,1)): the explicit quadratic formulas.

    Every produced generator is checked for invariance before returning.
    """
    fits, build, _ = _family(family)
    if not fits(p):
        raise ValueError(f"partition {p} does not fit the {family} family")
    table = build(p)
    for key in sorted(table):
        w = ad_invariant_witness(table[key])
        if w is not None:
            raise ArithmeticError(f"{_w_text(key)} is not invariant: moved by "
                                  f"{table[key].alg.gen(*w).to_text()}")
    return WGenerators(family=family, partition=p, table=table)


# ---------------------------------------------------------------------------
# the graded leading-term condition


def _weighted_terms(alg: Algebra, terms: dict) -> list:
    """(Kazhdan weight, monomial, coefficient) for each term, weights doubled."""
    delta2 = alg.delta2
    return [(sum(delta2[lid] for lid in mono), mono, c) for mono, c in terms.items()]


def _top_symbol_projection(alg: Algebra, weighted: list, d2top: int):
    """Project the weight-d2top graded part of (the symbol of) the element
    with these `_weighted_terms` onto the centralizer coordinates.

    In the splitting dual to span{e_{(j,1),(i,p_i-k)}}, a letter survives
    only when its column box is the first of its row; such a letter is
    congruent to the centralizer element labelled (i,j,k), k = p_i - h(a).
    Returns (ok, poly) where poly maps sorted label tuples to coefficients;
    ok is False when some monomial exceeds the allowed weight.
    """
    p = alg.partition
    poly = {}
    for w2, mono, c in weighted:
        if w2 > d2top:
            return False, {"monomial": UEAElement(alg, {mono: 1}).to_text(),
                           "weight": half_str(w2)}
        if w2 < d2top:
            continue
        labels = []
        dead = False
        for lid in mono:
            a, b = alg.letters[lid]
            if b.h != 1:
                dead = True
                break
            k = p.parts[a.i - 1] - a.h
            if k > min(p.parts[a.i - 1], p.parts[b.i - 1]) - 1:
                dead = True
                break
            labels.append((a.i, b.i, k))
        if dead:
            continue
        key = tuple(sorted(labels))
        v = poly.get(key, 0) + c
        if v:
            poly[key] = v
        else:
            poly.pop(key, None)
    return True, poly


def _top_symbol(alg: Algebra, key, x: UEAElement):
    """(w2, why) for the generator w[i,j;k], key = (i, j, k), and its
    element x: w2 = p_i + p_j - 2k is its doubled filtration weight, and
    why is None when x sits in that filtration level and its top graded
    symbol projects to the centralizer basis vector labelled key with
    coefficient one, else a dict that says how it fails."""
    i, j, k = key
    parts = alg.partition.parts
    w2 = parts[i - 1] + parts[j - 1] - 2 * k
    ok, poly = _top_symbol_projection(alg, _weighted_terms(alg, x.terms), w2)
    if not ok:
        return w2, {"reason": "filtration level exceeded", **poly}
    if poly != {(key,): 1}:
        return w2, {"reason": "wrong top symbol",
                    "symbol": {str(labs): c for labs, c in sorted(poly.items())}}
    return w2, None


def premet_check(g: WGenerators) -> dict:
    """Each generator must sit in the right filtration level and its top
    graded symbol must project to the matching centralizer basis vector
    with coefficient one (`_top_symbol`)."""
    p = g.partition
    alg = Algebra(p)
    witnesses = []
    for key in g.sorted_keys():
        why = _top_symbol(alg, key, g.table[key])[1]
        if why is not None:
            witnesses.append({"generator": key, **why})
    return _report("premet", p, None, not witnesses, witnesses,
                   family=g.family, generators=len(g.table))


# ---------------------------------------------------------------------------
# exact conversion into a generating family


class GeneratorBasis:
    """Rewrites invariant quotient elements as polynomials in a verified
    generator family, and commutes such polynomials using the family's
    bracket table.

    A polynomial maps ordered tuples of family letters (indices into
    `labels`) to coefficients.  `convert` rewrites by graded elimination,
    and `_evaluate` gives a polynomial's value in M in Horner form.
    `poly_mul` is the straightening walk of `uea` run with `bracket` in
    place of the gl_N structure constants, in the space `_nf_cache`; a
    bracket monomial of two or more letters enters the walk as a word, and
    keys its memo row by that tuple.

    Every step is an exact identity: conversion subtracts the value of each
    graded slice until the remainder vanishes, and each straightening
    rewrite substitutes a bracket that was computed in the quotient
    beforehand.  Nothing is assumed about the family beyond what these
    subtractions verify, so a successful run is itself the proof that the
    converted expressions are equal to the inputs.  By Premet's PBW theorem
    (Adv. Math. 170, 2002) the ordered family monomials are a basis of W, so
    the rewriting is unique.
    """

    def __init__(self, g: WGenerators):
        self.alg = Algebra(g.partition)
        tops = {lab: _top_symbol(self.alg, lab, x) for lab, x in g.table.items()}
        # abstract letters ordered by filtration weight, ties by label
        self.labels = sorted(tops, key=lambda lab: (tops[lab][0], lab))
        self.index = {lab: n for n, lab in enumerate(self.labels)}
        self.w2 = [tops[lab][0] for lab in self.labels]
        self.reps = [g.table[lab] for lab in self.labels]
        for lab in self.labels:
            if tops[lab][1] is not None:
                raise ArithmeticError(f"family element {_w_text(lab)} "
                                      f"does not reduce to its own symbol")
        # the constant of every Horner evaluation; the benchmark tracer
        # reads this table's size, so it stays, with its one entry
        self._eval_cache: dict = {(): reduce_mod_I(self.alg.one())}
        self._bracket_cache: dict = {}
        self._nf_cache = _Space(self.bracket)

    def poly_text(self, poly: dict) -> str:
        if not poly:
            return "0"
        bits = []
        for mono in sorted(poly):
            c = poly[mono]
            word = "*".join(_w_text(self.labels[n]) for n in mono) or "1"
            bits.append(f"{'+' if c > 0 else '-'} {abs(c)}*{word}")
        return " ".join(bits).lstrip("+ ")

    # -- conversion ---------------------------------------------------------

    def _evaluate(self, poly: dict) -> dict:
        """Terms of the canonical representative of the polynomial's value.

        Horner form: with its monomials grouped by their last letter g,
        poly = c + sum_g P_g·g, and the value is c·1 + sum_g P_g·reps[g],
        each product one `w_product` of the value of P_g, found the same way,
        on reps[g].  The right factor is invariant, so any representative of
        the left one gives the same product in M, and the result is exact.
        """
        out: dict = {}
        by_last: dict = {}
        for mono, c in poly.items():
            if mono:
                by_last.setdefault(mono[-1], {})[mono[:-1]] = c
            else:
                _add_into(out, self._eval_cache[()].terms, c)
        for g, left in by_last.items():
            value = MElement(self.alg, self._evaluate(left))
            _add_into(out, w_product(value, self.reps[g]).terms)
        return out

    def convert(self, x: MElement) -> dict:
        """x as {ordered letter tuple: coefficient}.

        Graded elimination: project the top filtration slice onto the
        centralizer coordinates, subtract the value of that slice's whole
        polynomial (one `_evaluate`), repeat.  The subtraction cancels the
        whole slice — a leftover at the same weight would contradict the
        injectivity of the graded symbol on invariants — so the weight
        strictly drops and the loop is finite.  An element outside the
        family's span leaves a top slice with zero symbol, and raises.
        """
        out: dict = {}
        rem = dict(x.terms)
        prev2 = None
        while rem:
            weighted = _weighted_terms(self.alg, rem)
            d2 = max(w2 for w2, _, _ in weighted)
            if prev2 is not None and d2 >= prev2:
                raise ArithmeticError("graded elimination stalled: "
                                      f"weight {half_str(d2)} did not drop")
            prev2 = d2
            ok, poly = _top_symbol_projection(self.alg, weighted, d2)
            if not ok:
                raise ArithmeticError(f"filtration violation during conversion: {poly}")
            if not poly:
                raise ArithmeticError("top slice has zero symbol: element is "
                                      "not in the family's span")
            # distinct label tuples give distinct sorted index tuples
            step = {tuple(sorted(self.index[lab] for lab in labs)): c
                    for labs, c in poly.items()}
            _add_into(out, step)
            _add_into(rem, self._evaluate(step), -1)
        return out

    # -- abstract straightening over the bracket table -----------------------

    def bracket(self, x: int, y: int) -> tuple:
        """[letter x, letter y] for x > y as (head, coeff) pairs, a head being
        one letter or a word of two or more letters (`uea._straighten`)."""
        hit = self._bracket_cache.get((x, y))
        if hit is None:
            poly = self.convert(w_commutator(self.reps[x], self.reps[y]))
            bound = self.w2[x] + self.w2[y] - 2
            for mono in poly:
                if sum(self.w2[n] for n in mono) > bound:
                    raise ArithmeticError(
                        f"bracket [{_w_text(self.labels[x])},{_w_text(self.labels[y])}] "
                        f"breaks the filtration inequality")
            hit = tuple((m[0] if len(m) == 1 else m, c) for m, c in poly.items())
            self._bracket_cache[(x, y)] = hit
        return hit

    def poly_mul(self, P: dict, Q: dict) -> dict:
        """Normal form of P·Q; the monomials of Q must be ordered."""
        return _fold(P, Q, self._nf_cache)

    def poly_commutator(self, P: dict, Q: dict) -> dict:
        return _add_into(self.poly_mul(P, Q), self.poly_mul(Q, P), -1)


def _generating_family(p: Partition) -> Optional[str]:
    """The first family of `FAMILIES` that fits p, or None."""
    return next((name for name, (fits, _, _) in FAMILIES.items() if fits(p)), None)


# ---------------------------------------------------------------------------
# commutator tables


def _principal_relations(g: WGenerators):
    """The principal generators commute: one bracket with value zero for
    each pair of keys, the smaller key first."""
    zero = reduce_mod_I(Algebra(g.partition).zero())
    for a, b in combinations(g.sorted_keys(), 2):
        yield a, b, zero


def _rectangular_relations(g: WGenerators):
    """[w_{ab;h}, w_{cd;k}] = sum_n (w_{ad;h+n+1} w_{cb;k-n} - w_{ad;k-n} w_{cb;h+n+1}),
    n = 0..min(p1-1-h, k), for all a, b, c, d and h, k < p1.

    The second factor's index order follows from telescoping the defining
    identity of Yangian-type operators applied to the polynomial form of
    L(z); with both indices equal it reduces to the commonly quoted special
    case.  The boundary convention is w_{ij;p1} = -1 for i = j, else 0.
    """
    p = g.partition
    p1, r = p.parts[0], p.r
    alg = Algebra(p)

    def w(i, j, k):
        if k == p1:
            return reduce_mod_I(alg.scalar(-1 if i == j else 0))
        return g.table[(i, j, k)]

    idx = range(1, r + 1)
    for a, b, c, d, h, k in product(idx, idx, idx, idx, range(p1), range(p1)):
        rhs = reduce_mod_I(alg.zero())
        for n in range(min(p1 - 1 - h, k) + 1):
            rhs = rhs + w_product(w(a, d, h + n + 1), w(c, b, k - n))
            rhs = rhs - w_product(w(a, d, k - n), w(c, b, h + n + 1))
        yield (a, b, h), (c, d, k), rhs


def _minimal_relations(g: WGenerators):
    """The displayed brackets of the minimal family, with A = w_{11;1},
    B = w_{11;0}, R_a = w_{a+2,1;0}, C_a = w_{1,a+2;0} and
    M_ab = w_{b+2,a+2;0} for a, b < N-2:
        [A, B] = [A, M_ij] = [B, M_ij] = [R_a, R_b] = [C_a, C_b] = 0,
        [A, R_a] = -R_a,  [A, C_a] = C_a,
        [B, R_a] = R_a A - sum_b R_b M_ba,  [B, C_a] = sum_b M_ab C_b - A C_a,
        [C_a, R_b] = A M_ab + delta_ab B - sum_c M_ac M_cb,
        [M_ij, R_k] = delta_ik R_j,  [M_ij, C_k] = -delta_jk C_i,
        [M_ij, M_hk] = delta_ik M_hj - delta_jh M_ik."""
    n = g.partition.N - 2
    T = g.table
    zero = reduce_mod_I(Algebra(g.partition).zero())
    A, B = (1, 1, 1), (1, 1, 0)
    R = [(a + 2, 1, 0) for a in range(n)]
    C = [(1, a + 2, 0) for a in range(n)]
    M = [[(b + 2, a + 2, 0) for b in range(n)] for a in range(n)]

    def wp(x, y):
        return w_product(T[x], T[y])

    def total(values):
        return sum(values, zero)

    yield A, B, zero
    for a in range(n):
        yield A, R[a], -T[R[a]]
        yield A, C[a], T[C[a]]
        yield B, R[a], wp(R[a], A) - total(wp(R[b], M[b][a]) for b in range(n))
        yield B, C[a], total(wp(M[a][b], C[b]) for b in range(n)) - wp(A, C[a])
        for b in range(n):
            yield R[a], R[b], zero
            yield C[a], C[b], zero
            yield C[a], R[b], (wp(A, M[a][b]) + (T[B] if a == b else zero)
                               - total(wp(M[a][c], M[c][b]) for c in range(n)))
    for i, j in product(range(n), range(n)):
        yield A, M[i][j], zero
        yield B, M[i][j], zero
        for k in range(n):
            yield M[i][j], R[k], T[R[j]] if i == k else zero
            yield M[i][j], C[k], -T[C[i]] if j == k else zero
            for h in range(n):
                yield M[i][j], M[h][k], ((T[M[h][j]] if i == k else zero)
                                         - (T[M[i][k]] if j == h else zero))


# The generator families with closed descriptions, in the order in which
# `_generating_family` tries them: name -> (fits the partition, build the
# table, the displayed brackets).  The brackets of a family's table g come
# as (key, key, expected value) triples, in the order its witnesses list
# them, with every product a W-product (`w_product`).
FAMILIES = {
    "minimal": (lambda p: p.parts[0] == 2 and all(q == 1 for q in p.parts[1:]),
                _minimal_table, _minimal_relations),
    "rectangular": (lambda p: p.r == p.r1, _polynomial_table, _rectangular_relations),
    "principal": (lambda p: p.r == 1, _polynomial_table, _principal_relations),
}


def relation_table_check(g: WGenerators) -> dict:
    """Verify the complete displayed commutator table of the family: for
    each bracket of its `FAMILIES` entry, the W-commutator of the two table
    entries must equal the expected value.  A witness names the bracket and
    the difference, commutator minus expected value.  The tests check
    `w_product` against `ucirc_mul` on every pair of table entries.  It
    returns with the action memo fresh."""
    T = g.table
    witnesses = [{"bracket": f"[{_w_text(a)}, {_w_text(b)}]", "difference": d.to_text()}
                 for a, b, want in _family(g.family)[2](g)
                 if not (d := w_commutator(T[a], T[b]) - want).is_zero()]
    Algebra(g.partition)._act_cache.clear()
    return _report("relations", g.partition, None, not witnesses, witnesses,
                   family=g.family, generators=len(g.table))


# ---------------------------------------------------------------------------
# block reconstruction of L(z) from a generator table


def conjecture_check(p: Partition, g: WGenerators, f2: Optional[int] = None) -> dict:
    """Rebuild L(z) as the corner quasideterminant of -(-z)^p + W(z) over
    the quotient algebra and compare with the shifted-matrix construction.

    With the maximal parts in the top-left corner, the corner
    quasideterminant is the Schur-type expression
    top-left - top-right * inverse(bottom-right) * bottom-left (the
    submatrix route of `quasideterminant`), and the bottom-right block has
    the invertible diagonal -(-z)^{q_a} after scaling row a by z^{-q_a}.
    f2 is the doubled floor of the comparison.  It returns with the action
    memo fresh.
    """
    alg = Algebra(p)
    r, r1 = p.r, p.r1
    W = g.wmatrix()
    diag = SeriesMatrix(alg, [
        [SeriesElem(alg, {2 * p.parts[i]: alg.scalar(-((-1) ** p.parts[i]))}
                    if i == j else {}, None)
         for j in range(r)] for i in range(r)])
    M = diag + W

    if r == r1 and f2 is not None:
        # the comparison is exact, so a given floor is only range-checked
        _floor2_for(p, f2)
        f2 = None
    L = build_L(p, f2)
    cand = quasideterminant(M, range(r1), range(r1), L.floor2, w_product,
                            row_scale=[-2 * q for q in p.parts])
    alg._act_cache.clear()
    return _first_diff_report("conjecture", p, L.floor2, L.reduced, cand, family=g.family)
