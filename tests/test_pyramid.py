from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wgl.pyramid import (
    Box,
    Partition,
    ScalarMatrix,
    box_position,
    boxes,
    grading_degree,
    half_str,
    parse_half2,
    corner_positions,
    shift_matrix,
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


@pytest.mark.parametrize("text, n2", [
    ("+3", 6), ("-7.5", -15), (".5", 1), ("1.", 2), ("\t-15/2\n", -15)])
def test_parse_half2_keeps_its_forms(text, n2):
    assert parse_half2(text) == n2


@pytest.mark.parametrize("text", [
    "-5_0", "1_0/2", "-\u0665", "\u0663", "\uff11", "nan", "inf", "-Infinity",
    "1/-2", "-3/-2", "1 / 2", "0x10", "--2", "", "."])
def test_parse_half2_reads_ascii_digits_only(text):
    # int() and Fraction() read "_" separators and non-ASCII digits
    with pytest.raises(ValueError, match="is not a floor of the form n or n/d"):
        parse_half2(text)


# the digits int() and Fraction() accept: ASCII, the "_" separator, and
# Arabic-Indic, fullwidth and Devanagari ones
_DIGIT_RUN = st.text(st.sampled_from("0123456789_\u0663\u0665\uff11\u0967"),
                     max_size=4)
_ASCII_HALF = set("+-0123456789./")

_FLOOR_TEXT = st.one_of(
    st.text(),
    st.from_regex(r"\s*[+-]?\d{0,3}([./]\d{0,3})?([eE][+-]?\d)?\s*", fullmatch=True),
    st.tuples(st.sampled_from(["", "-", "+"]), _DIGIT_RUN,
              st.sampled_from(["", "/", "."]), _DIGIT_RUN).map("".join),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_FLOOR_TEXT)
def test_parse_half2_returns_an_int_or_raises_value_error(text):
    try:
        n2 = parse_half2(text)
    except ValueError:
        return
    assert type(n2) is int
    body = text.strip()
    assert set(body) <= _ASCII_HALF and Fraction(body) == Fraction(n2, 2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(
    st.text(),
    st.lists(st.integers(-2, 9), max_size=4).map(lambda parts: ",".join(map(str, parts))),
    st.lists(_DIGIT_RUN, max_size=4).map(",".join)))
def test_partition_parse_returns_a_partition_or_raises_value_error(text):
    try:
        p = Partition.parse(text)
    except ValueError:
        return
    assert isinstance(p, Partition) and all(type(q) is int for q in p.parts)
    assert all(set(tok.strip()) <= set("+0123456789") for tok in text.split(","))


@pytest.mark.parametrize("text", ["1_0", "2,1_0", "\u0663", "\uff12,1", "2.0", "0x2"])
def test_partition_parse_reads_ascii_digits_only(text):
    with pytest.raises(ValueError, match="^bad partition string"):
        Partition.parse(text)


@pytest.mark.parametrize("text", [
    "1" * 10, "2," + "0" * 9 + "1", "1" * 5000, "2," + "0" * 4999 + "1", "+" + "1" * 4301,
], ids=["10-digits", "leading-zeros", "5000-digits", "5000-digit-second-part", "4302-chars"])
def test_partition_parse_bounds_the_digits_of_a_part(text):
    # int() refuses text over 4300 digits with a message that names neither
    # the partition nor the rule
    with pytest.raises(ValueError, match="^bad partition string"):
        Partition.parse(text)
    assert Partition.parse(" +" + "0" * 8 + "1").parts == (1,)
    assert Partition.parse("999999999").parts == (999999999,)


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
# shift matrix and corner positions


def test_shift_matrix_examples():
    assert shift_matrix(Partition((3, 2, 1))) == ScalarMatrix.diag([0, -1, -4, 0, -2, -1])
    assert shift_matrix(Partition((2,))) == ScalarMatrix.diag([0, -1])
    assert shift_matrix(Partition((1, 1, 1))) == ScalarMatrix.diag([0, 0, 0])


def test_shift_matrix_counts_strictly_right_boxes():
    p = Partition((2, 2))
    # boxes (1,1),(1,2),(2,1),(2,2): a second-column box (x = -1/2) sees the
    # two first-column boxes (x = +1/2) strictly to its right
    assert shift_matrix(p) == ScalarMatrix.diag([0, -2, 0, -2])


@pytest.mark.parametrize("parts, rows, cols", [
    ((2, 1), [0], [1]), ((3, 3), [0, 3], [2, 5]), ((2, 2, 1), [0, 2], [1, 3]),
    ((3, 1, 1), [0], [2])], ids=["2,1", "3,3", "2,2,1", "3,1,1"])
def test_corner_positions_select_ends_of_long_rows(parts, rows, cols):
    p = Partition(parts)
    pos = box_position(p)
    longest = range(1, p.r1 + 1)
    assert corner_positions(p) == (rows, cols)
    assert rows == [pos[Box(i, 1)] for i in longest]
    assert cols == [pos[Box(i, p.parts[0])] for i in longest]


# ---------------------------------------------------------------------------
# scalar matrices


def test_scalar_matrix_basics():
    m = ScalarMatrix.from_rows([[1, 2], [3, 4]])
    assert m[1, 0] == 3
    assert ScalarMatrix.diag([1, 1]) == ScalarMatrix.from_rows([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        ScalarMatrix(2, 2, [[1, 2], [3]])
    with pytest.raises(TypeError):
        ScalarMatrix.from_rows([[0.5]])
