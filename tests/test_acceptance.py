"""End-to-end acceptance runs.

One test per contract line item; each prints a single PASS/FAIL line
(visible with `pytest -s`) and fails hard on any inexact result.  All
comparisons are exact — there are no tolerances anywhere.
"""

import json
import random
import time

import pytest

from wgl.pyramid import Box, Partition, ScalarMatrix, shift_matrix
from wgl.quotient import ad_invariant_witness, reduce_mod_I
from wgl.series import (
    SeriesElem,
    invert_matrix,
    quasideterminant,
    quasideterminant_by_definition,
    yangian_identity_check,
)
from wgl.uea import Algebra
from wgl.walgebra import (
    build_L,
    capelli_suite,
    conjecture_check,
    family_generators,
    main_lemma_check,
    main_lemma_sides,
    relation_table_check,
    rho_det_identities,
    w_membership_check,
    yangian_check_L,
)

from conftest import gl_algebra, kazhdan_degree, opposite_mul, random_element, sandwich, z_plus_E

MAIN_PARTITIONS = ((2, 1), (3, 1), (2, 2), (2, 1, 1))


def _line(num, ok, desc):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def L8():
    return {q: build_L(Partition(q), -16) for q in MAIN_PARTITIONS}


def test_criterion_01_capelli_coefficients_are_central():
    ok = True
    for n in (2, 3, 4):
        t0 = time.time()
        rep = capelli_suite(n)
        elapsed = time.time() - t0
        ok = ok and rep["pass"] and len(rep["coefficients"]) == n
        ok = ok and all(c["central"] for c in rep["coefficients"])
        ok = ok and (n < 4 or elapsed < 600)
    _line(1, ok, "all z-coefficients of the shifted row determinant are "
                 "central for N = 2, 3, 4")


def test_criterion_02_shift_matrix_oracles():
    ok = (shift_matrix(Partition((3, 2, 1)))
          == ScalarMatrix.diag([0, -1, -4, 0, -2, -1]))
    ok = ok and shift_matrix(Partition((2,))) == ScalarMatrix.diag([0, -1])
    _line(2, ok, "shift matrix equals its tabulated values on (3,2,1) and (2)")


def test_criterion_03_rank_one_corner_inverse_formula():
    p = Partition((2,))
    alg = Algebra(p)
    e = lambda a, b: alg.gen(Box(1, a), Box(1, b))
    lhs, rhs = main_lemma_sides(p, -12)

    # z^-2 f - (1 + z^-1 e11)(1 + z^-1 (e22 - 1)), all terms reduced
    explicit = SeriesElem(alg, {
        -4: reduce_mod_I(e(2, 1) - e(1, 1) * (e(2, 2) - alg.one())),
        -2: reduce_mod_I(alg.one() - e(1, 1) - e(2, 2)),
        0: reduce_mod_I(-alg.one()),
    }, None)

    ok = lhs.data[0][0].first_diff2(explicit, -12) is None
    ok = ok and rhs.data[0][0].first_diff2(explicit, -12) is None
    # and the finite formula is exactly z^-2 times the direct construction
    shifted = build_L(p).reduced.data[0][0].shift2(-4)
    ok = ok and shifted.first_diff2(explicit) is None and explicit.first_diff2(shifted) is None
    ok = ok and main_lemma_check(p, -12)["pass"]
    _line(3, ok, "rank-one corner inverse equals the two-factor formula and "
                 "z^-2 L(z), exactly at floor -6")


def test_criterion_04_corner_inverse_identity_deeper():
    ok = True
    for q in MAIN_PARTITIONS:
        t0 = time.time()
        rep = main_lemma_check(Partition(q), -16)
        elapsed = time.time() - t0
        ok = ok and rep["pass"] and rep["floor"] == "-8" and elapsed < 300
    _line(4, ok, "corner inverse identity at floor -8 for (2,1), (3,1), "
                 "(2,2), (2,1,1), each under five minutes")


def test_criterion_05_lift_coefficients_are_invariant(L8):
    ok = True
    for q in MAIN_PARTITIONS:
        rep = w_membership_check(L8[q])
        ok = ok and rep["pass"] and rep["floor"] == "-8"
        ok = ok and rep["coefficients_checked"] > 0
    _line(5, ok, "every lift coefficient of L(z) commutes with the "
                 "positive-degree action at floor -8")


def test_criterion_06_L_satisfies_the_yangian_identity(L8):
    ok = True
    for q in MAIN_PARTITIONS:
        rep = yangian_check_L(L8[q])
        ok = ok and rep["pass"] and rep["floor"] == "-8"
    for n in (1, 2, 3):
        rep = yangian_check_L(build_L(Partition((n,))))
        ok = ok and rep["pass"] and rep.get("exact_commutator_zero") is True
    _line(6, ok, "Yangian identity for L(z) at floor -8 on four shapes; "
                 "[L(z), L(w)] = 0 exactly for single rows up to N = 3")


def test_criterion_07_principal_family():
    ok = True
    for n in (2, 3, 4):
        p = Partition((n,))
        alg = Algebra(p)
        g = family_generators(p, "principal")
        ok = ok and len(g.table) == n
        trace = alg.zero()
        for h in range(1, n + 1):
            trace = trace + alg.gen(Box(1, h), Box(1, h))
        want = reduce_mod_I(trace - alg.scalar(n * (n - 1) // 2))
        ok = ok and g.table[(1, 1, n - 1)] == want
        ok = ok and relation_table_check(g)["pass"]
    _line(7, ok, "principal family: N generators, pairwise commuting, with "
                 "the shifted trace as the top one, for N = 2, 3, 4")


def test_criterion_08_rectangular_relation_table():
    g = family_generators(Partition((2, 2)), "rectangular")
    rep = relation_table_check(g)
    ok = rep["pass"] and rep["generators"] == 8 and not rep["witnesses"]
    _line(8, ok, "two-by-two rectangular family satisfies the full "
                 "commutator table with boundary w[j,i;2] = -delta")


def test_criterion_09_minimal_family():
    ok = True
    for q in ((2, 1), (2, 1, 1)):
        p = Partition(q)
        g = family_generators(p, "minimal")
        for rep_elem in g.table.values():
            ok = ok and ad_invariant_witness(rep_elem) is None
        ok = ok and conjecture_check(p, g, -16)["pass"]
        ok = ok and relation_table_check(g)["pass"]
    _line(9, ok, "minimal family: invariant generators, block formula "
                 "rebuilds L(z), and all brackets hold, for (2,1), (2,1,1)")


def test_criterion_10_quasideterminant_calculus():
    ok = rho_det_identities(2)["pass"] and rho_det_identities(3)["pass"]
    # independent route agreement on a full 2x2 corner of a 3x3 matrix
    gl3 = gl_algebra(3)
    A = z_plus_E(gl3)
    try:
        qs = quasideterminant(A, [0, 1], [0, 1], -6)
        # the 2x2 corner of z + E tops out at z^1
        qd = quasideterminant_by_definition(A, [0, 1], [0, 1], -6, 2)
        ok = ok and qd.first_diff(qs) is None
    except ArithmeticError:
        ok = False
    _line(10, ok, "inversion and submatrix quasideterminant routes agree; "
                  "row, column, and corner determinants match at N = 3; "
                  "mixed inverse commutator identity holds at floor -6")


# ---------------------------------------------------------------------------
# criterion 11 in four parts


def _closure_suite():
    for n in (2, 3):
        alg = gl_algebra(n)
        A = z_plus_E(alg)
        ok, _ = yangian_identity_check(A)
        if not ok:
            return False
        J = ScalarMatrix.from_rows([[1] + [0] * (n - 1), [2] * n])
        I = ScalarMatrix.from_rows([[1, 0]] * (n - 1) + [[0, 3]])
        ok, _ = yangian_identity_check(sandwich(J, A, I))
        if not ok:
            return False
        inv = invert_matrix(A, -8)
        ok, _ = yangian_identity_check(inv, mul=opposite_mul)
        if not ok:
            return False
        corner = quasideterminant(A, [0], [0], -6)
        ok, _ = yangian_identity_check(corner)
        if not ok:
            return False
    return True


def _pbw_and_jacobi_suite():
    for seed in (20260825, 424242):
        rng = random.Random(seed)
        alg = gl_algebra(3)
        for _ in range(334):
            x = random_element(alg, rng)
            y = random_element(alg, rng)
            z = random_element(alg, rng)
            if (x * y) * z != x * (y * z):
                return False
            if x * (y + z) != x * y + x * z:
                return False
            jac = (x.commutator(y).commutator(z)
                   + y.commutator(z).commutator(x)
                   + z.commutator(x).commutator(y))
            if not jac.is_zero():
                return False
    return True


def _kazhdan_suite():
    alg = Algebra(Partition((2, 1)))
    rng = random.Random(11)
    for _ in range(200):
        x = random_element(alg, rng)
        y = random_element(alg, rng)
        dx, dy = kazhdan_degree(x), kazhdan_degree(y)
        if dx is None or dy is None:
            continue
        xy = x * y
        if not xy.is_zero() and not kazhdan_degree(xy) <= dx + dy:
            return False
        br = x.commutator(y)
        # doubled degrees: a bracket drops the filtration by a whole unit
        if not br.is_zero() and not kazhdan_degree(br) <= dx + dy - 2:
            return False
    return True


def _dumps(obj) -> str:
    """The JSON text of a to_json_obj() tree, whose element leaves stay objects."""
    return json.dumps(obj, sort_keys=True, default=lambda e: e.to_json_obj())


def _truncation_stability_suite():
    for q in ((2, 1), (3, 1)):
        deep = build_L(Partition(q), -20)
        shallow = build_L(Partition(q), -16)
        a = _dumps(deep.reduced.truncate2(-16).to_json_obj())
        b = _dumps(shallow.reduced.to_json_obj())
        if a != b:
            return False
    gl2 = gl_algebra(2)
    A = z_plus_E(gl2)
    a = _dumps(invert_matrix(A, -8).truncate2(-6).to_json_obj())
    b = _dumps(invert_matrix(A, -6).to_json_obj())
    return a == b


def test_criterion_11_property_suites():
    parts = {
        "closure under sandwich/inversion/quasideterminant": _closure_suite(),
        "normal-form confluence and Jacobi": _pbw_and_jacobi_suite(),
        "filtration inequalities": _kazhdan_suite(),
        "truncation stability": _truncation_stability_suite(),
    }
    ok = all(parts.values())
    failed = [name for name, good in parts.items() if not good]
    _line(11, ok, "property suites (closure, confluence/Jacobi on 1002 "
                  "random elements per seed, filtration bounds, truncation "
                  "stability)" + (f" — failed: {failed}" if failed else ""))
