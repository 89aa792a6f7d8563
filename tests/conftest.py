import random

import pytest

from wgl.pyramid import Box, Partition, ScalarMatrix
from wgl.series import SeriesElem, SeriesMatrix
from wgl.uea import Algebra


def gl_algebra(N: int) -> Algebra:
    """U(gl_N) presented on the single-column pyramid (1,...,1)."""
    return Algebra(Partition((1,) * N))


def gl_gen(alg: Algebra, i: int, j: int):
    return alg.gen(Box(i, 1), Box(j, 1))


def z_plus_E(alg: Algebra) -> SeriesMatrix:
    """The polynomial matrix with (i,j) entry delta_ij z + e_ji."""
    N = alg.partition.N
    rows = []
    for i in range(N):
        row = []
        for j in range(N):
            terms = {0: gl_gen(alg, j + 1, i + 1)}
            if i == j:
                terms[2] = alg.one()
            row.append(SeriesElem(alg, terms, None))
        rows.append(row)
    return SeriesMatrix(alg, rows)


def kazhdan_degree(x):
    """Smallest Kazhdan filtration degree holding x, doubled: the largest
    sum of the letters' doubled weights `delta2` over its monomials; None
    for 0."""
    if not x.terms:
        return None
    delta2 = x.alg.delta2
    return max(sum(delta2[ell] for ell in m) for m in x.terms)


def sandwich(J1: ScalarMatrix, B: SeriesMatrix, I1: ScalarMatrix) -> SeriesMatrix:
    """J1·B·I1 for scalar matrices J1 and I1."""
    alg = B.alg
    return SeriesMatrix.from_scalar(alg, J1).matmul(B).matmul(
        SeriesMatrix.from_scalar(alg, I1))


def opposite_mul(x, y):
    """The product of the opposite algebra: x·y there is y·x."""
    return y * x


def random_element(alg: Algebra, rng: random.Random, max_deg=3, max_terms=3):
    """Sum of a few random PBW words of length <= max_deg, small coefficients."""
    nletters = len(alg.delta2)
    out = alg.zero()
    for _ in range(rng.randint(1, max_terms)):
        word = alg.scalar(rng.choice([-2, -1, 1, 2, 3]))
        for _ in range(rng.randint(0, max_deg)):
            word = word * alg.gen_by_id(rng.randrange(nletters))
        out = out + word
    return out


@pytest.fixture(scope="session")
def gl2():
    return gl_algebra(2)


@pytest.fixture(scope="session")
def gl3():
    return gl_algebra(3)
