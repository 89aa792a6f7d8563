import pytest
from hypothesis import given, settings, strategies as st

from wgl.pyramid import (
    Box,
    Partition,
    ScalarMatrix,
    box_position,
    boxes,
    gf_basis,
    grading_degree,
    half_str,
    parse_half2,
    shift_matrix,
    structure_matrices,
    x_coord,
)


# ---------------------------------------------------------------------------
# half-integers, held doubled


def test_parse_half2_reads_integers_and_halves():
    assert parse_half2("-8") == -16
    assert parse_half2(" 7/2 ") == 7
    assert parse_half2("-10/4") == -5
    assert type(parse_half2("3")) is int
    with pytest.raises(ValueError, match="^1/3 is not a half-integer$"):
        parse_half2("1/3")
    with pytest.raises(ValueError, match="^'1/0' has a zero denominator$"):
        parse_half2("1/0")
    with pytest.raises(ValueError):
        parse_half2("x")


_FLOOR_TEXT = st.one_of(
    st.text(),
    st.from_regex(r"\s*[+-]?\d{0,3}([./]\d{0,3})?([eE][+-]?\d)?\s*", fullmatch=True),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_FLOOR_TEXT)
def test_parse_half2_returns_an_int_or_raises_value_error(text):
    try:
        n2 = parse_half2(text)
    except ValueError:
        return
    assert type(n2) is int


def test_half_str_renders_doubled_ints():
    assert [half_str(n2) for n2 in (6, 3, 0, -1, -16, -15)] \
        == ["3", "3/2", "0", "-1/2", "-8", "-15/2"]
    assert all(parse_half2(half_str(n2)) == n2 for n2 in range(-21, 22))


# ---------------------------------------------------------------------------
# partitions and boxes


def test_partition_parse_and_props():
    p = Partition.parse("3,2,1")
    assert p.parts == (3, 2, 1)
    assert (p.N, p.r, p.r1) == (6, 3, 1)
    assert str(p) == "3,2,1"
    assert Partition((2, 2)).r1 == 2


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        Partition((1, 2))  # must be weakly decreasing
    with pytest.raises(ValueError):
        Partition((0,))
    with pytest.raises(ValueError):
        Partition.parse("2,x")
    with pytest.raises(ValueError):
        Partition(())


def test_boxes_order_and_position():
    p = Partition((2, 1))
    bs = boxes(p)
    assert bs == (Box(1, 1), Box(1, 2), Box(2, 1))
    assert box_position(p) == {Box(1, 1): 0, Box(1, 2): 1, Box(2, 1): 2}


def test_x_coordinates_centered_rows():
    p = Partition((3, 2, 1))
    # row of length 3: 1, 0, -1; length 2: 1/2, -1/2; length 1: 0 (doubled)
    assert [x_coord(p, (1, h)) for h in (1, 2, 3)] == [2, 0, -2]
    assert [x_coord(p, (2, h)) for h in (1, 2)] == [1, -1]
    assert x_coord(p, (3, 1)) == 0
    with pytest.raises(ValueError):
        x_coord(p, (2, 3))


def test_grading_degree_is_x_difference_and_antisymmetric():
    p = Partition((2, 1))
    for a in boxes(p):
        for b in boxes(p):
            d = grading_degree(p, a, b)
            assert d == x_coord(p, a) - x_coord(p, b)
            assert d == -grading_degree(p, b, a)


# ---------------------------------------------------------------------------
# shift matrix and selectors


def test_shift_matrix_examples():
    assert shift_matrix(Partition((3, 2, 1))) == ScalarMatrix.diag([0, -1, -4, 0, -2, -1])
    assert shift_matrix(Partition((2,))) == ScalarMatrix.diag([0, -1])
    assert shift_matrix(Partition((1, 1, 1))) == ScalarMatrix.diag([0, 0, 0])


def test_shift_matrix_counts_strictly_right_boxes():
    p = Partition((2, 2))
    # boxes (1,1),(1,2),(2,1),(2,2): a second-column box (x = -1/2) sees the
    # two first-column boxes (x = +1/2) strictly to its right
    assert shift_matrix(p) == ScalarMatrix.diag([0, -2, 0, -2])


def test_structure_matrices_select_ends_of_long_rows():
    p = Partition((2, 1))
    sm = structure_matrices(p)
    F, I1, J1 = sm["F"], sm["I1"], sm["J1"]
    assert I1.rows == 3 and I1.cols == 1 and I1[0, 0] == 1
    assert J1.rows == 1 and J1.cols == 3 and J1[0, 1] == 1
    # F moves along each row: (1,1) -> (1,2)
    assert F[1, 0] == 1 and sum(F[i, j] for i in range(3) for j in range(3)) == 1
    assert sm["S1"] == I1 @ J1


def test_gf_basis_shapes():
    p = Partition((2, 1))
    gf = gf_basis(p)
    assert set(gf) == {(1, 1, 0), (1, 1, 1), (1, 2, 0), (2, 1, 0), (2, 2, 0)}
    # the depth-0 element for (i,i) is the last box of row i paired with the first
    from wgl.uea import Algebra

    alg = Algebra(p)
    assert gf[(1, 1, 0)] == alg.gen(Box(1, 2), Box(1, 1))
    assert gf[(1, 1, 1)] == alg.gen(Box(1, 1), Box(1, 1)) + alg.gen(Box(1, 2), Box(1, 2))


# ---------------------------------------------------------------------------
# scalar matrices


def test_scalar_matrix_basics():
    m = ScalarMatrix.from_rows([[1, 2], [3, 4]])
    assert m[1, 0] == 3
    assert ScalarMatrix.identity(2) @ m == m
    assert ScalarMatrix.diag([1, 1]) == ScalarMatrix.identity(2)
    with pytest.raises(ValueError):
        ScalarMatrix(2, 2, [[1, 2], [3]])
    with pytest.raises(TypeError):
        ScalarMatrix.from_rows([[0.5]])
