import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from wgl.cli import _write_json, main
from wgl.pyramid import Partition
from wgl.quotient import reduce_mod_I
from wgl.uea import Algebra, UEAElement, _ncoeff
from wgl.walgebra import build_L


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_L_json_contains_the_trace_coefficient(capsys):
    code, out, _ = run(capsys, "L", "--partition", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["partition"] == "2" and obj["floor"] is None
    # z^1 coefficient of L is 1 - e11 - e22, i.e. minus the shifted trace
    txt = json.dumps(obj)
    assert '"zpow": "1"' in txt


def test_L_text_output(capsys):
    code, out, _ = run(capsys, "L", "--partition", "2")
    assert code == 0
    assert out.startswith("L(z) for partition 2")
    assert "e[(1,1),(1,1)]" in out


def test_L_text_equals_the_text_of_the_lifted_build(capsys):
    # the text prints only the reduced L(z), which the build without the
    # lift gives as well
    code, out, _ = run(capsys, "L", "--partition", "2,1", "--floor", "-5")
    assert code == 0
    assert out == build_L(Partition((2, 1)), -10, lift=True).to_text() + "\n"


def test_L_drops_the_straightening_memos_before_it_renders(capsys, monkeypatch):
    import wgl.cli

    alg = Algebra(Partition((2, 1, 1)))
    spaces = (alg._lm_cache, alg._act_cache)
    seen = []
    emit = wgl.cli._emit

    def spy(*args):
        seen.append([(len(space.monos), len(space)) for space in spaces])
        return emit(*args)

    monkeypatch.setattr(wgl.cli, "_emit", spy)
    code, out, _ = run(capsys, "L", "--partition", "2,1,1", "--floor", "-2",
                       "--format", "json")
    assert code == 0 and json.loads(out)["lift"] is not None
    # as fresh: the intern table holds only (), the memo only the chi seeds
    assert seen == [[(1, 0), (1, len(alg._act_cache.seed))]]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = Path(__file__).resolve().parent.parent / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import wgl.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"


def test_generators_text_shows_the_shifted_trace(capsys):
    code, out, _ = run(capsys, "generators", "--partition", "2",
                       "--family", "principal")
    assert code == 0
    assert "w[1,1;1] = -1 + e[(1,1),(1,1)] + e[(1,2),(1,2)]" in out


def test_check_capelli_lists_central_coefficients(capsys):
    code, out, _ = run(capsys, "check", "capelli", "--n", "2")
    assert code == 0
    assert "pass: yes" in out
    assert out.count("(central)") == 2


def test_check_main_lemma_small(capsys):
    code, out, _ = run(capsys, "check", "main-lemma", "--partition", "2",
                       "--floor", "-6", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True and rep["floor"] == "-6"


def test_check_yangian_exact_single_row(capsys):
    code, out, _ = run(capsys, "check", "yangian", "--partition", "2",
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True and rep["exact_commutator_zero"] is True


def test_check_identities(capsys):
    code, out, _ = run(capsys, "check", "identities", "--n", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_check_premet_defaults_family(capsys):
    code, out, _ = run(capsys, "check", "premet", "--partition", "2",
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True and rep["family"] == "minimal"


def test_relations_rectangular(capsys):
    code, out, _ = run(capsys, "relations", "--partition", "1,1",
                       "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True and rep["family"] == "rectangular"


def test_seed_is_echoed(capsys):
    code, out, _ = run(capsys, "check", "capelli", "--n", "1",
                       "--seed", "7", "--format", "json")
    assert code == 0
    assert json.loads(out)["seed"] == 7


@pytest.mark.parametrize("command", ["relations", "conjecture"])
def test_seed_is_echoed_by_the_table_commands(capsys, command):
    code, out, _ = run(capsys, command, "--partition", "2,1", "--seed", "7",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["seed"] == 7
    code, out, _ = run(capsys, command, "--partition", "2,1", "--seed", "7")
    assert code == 0 and "\nseed: 7\n" in out


def test_output_is_deterministic(capsys):
    args = ("check", "identities", "--n", "2", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# ---------------------------------------------------------------------------
# exit codes


def test_bad_partition_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "yangian", "--partition", "2,x")
    assert code == 2 and "bad partition" in err


@pytest.mark.parametrize("argv, message", [
    (("--partition", "2", "--floor", "-5_0"), "error: '-5_0' is not a floor"),
    (("--partition", "2", "--floor", "-\u0665"), "error: '-\u0665' is not a floor"),
    (("--partition", "2", "--floor", "nan"), "error: 'nan' is not a floor"),
    (("--partition", "2", "--floor", "inf"), "error: 'inf' is not a floor"),
    (("--partition", "1_0"), "error: bad partition string '1_0'\n"),
])
def test_separators_and_non_ascii_digits_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, "L", *argv)
    assert (code, out) == (2, "") and err.startswith(message)


@pytest.mark.parametrize("command", ["L", "generators", "relations", "conjecture"])
def test_missing_partition_is_usage_error(capsys, command):
    code, out, err = run(capsys, command)
    assert (code, out, err) == (2, "", "error: partition must have at least one part\n")


def test_oversized_partition_is_refused_before_any_algebra(monkeypatch, tmp_path, capsys):
    # N = 2000 would build N^2 = 4 M letters; fail loudly instead if one is built
    def build(alg, partition):
        raise AssertionError(f"built the algebra of {partition}")

    monkeypatch.setattr(Algebra, "_init", build)
    path = tmp_path / "candidates.json"
    path.write_text(json.dumps({"partition": [2000], "generators": []}))
    message = "error: partition 2000 has N = 2000; the largest N accepted is 12\n"
    for argv in (["L", "--partition", "2000"],
                 ["check", "yangian", "--partition", "1," * 12 + "1"],
                 ["conjecture", "--partition", "2,1", "--candidates", str(path)]):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert (code, out) == (2, "") and err.startswith("error: partition ")
    assert err == message


def test_a_part_of_more_than_nine_digits_is_a_usage_error(tmp_path, capsys):
    # int() refuses a part over 4300 digits with a message that names
    # neither the partition nor the rule
    huge, inner = "1" * 5000, "2," + "0" * 4999 + "1"
    path = tmp_path / "candidates.json"
    path.write_text(json.dumps({"partition": huge, "generators": []}))
    for argv, text in ((["L", "--partition", huge], huge),
                       (["check", "yangian", "--partition", inner], inner),
                       (["conjecture", "--partition", "2,1", "--candidates", str(path)], huge)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith(f"error: bad partition string {text!r}")


def test_family_partition_mismatch_is_usage_error(capsys):
    code, _, err = run(capsys, "generators", "--partition", "3,1",
                       "--family", "minimal")
    assert code == 2 and "minimal" in err


def test_missing_n_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "capelli")
    assert code == 2 and "--n" in err


@pytest.mark.parametrize("what", ["capelli", "identities"])
@pytest.mark.parametrize("n", ["0", "5"])
def test_n_outside_the_bound_is_usage_error(capsys, what, n):
    code, out, err = run(capsys, "check", what, "--n", n)
    assert code == 2 and out == ""
    assert f"N = {n} outside 1..4" in err


@pytest.mark.parametrize("command", ["L", "generators"])
def test_seed_is_refused_by_the_commands_that_print_no_report(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--partition", "2", "--seed", "7"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "unrecognized arguments: --seed 7" in err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("L", "--partition", "2,1", "--floor", "5"),
    ("check", "yangian", "--partition", "2,1", "--floor", "3"),
    ("check", "membership", "--partition", "2,1", "--floor", "3"),
    ("conjecture", "--partition", "2,1", "--floor", "3"),
])
def test_floor_above_the_largest_part_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: floor") and "above the top power z^2" in err


@pytest.mark.parametrize("argv", [
    ("L", "--partition", "2,1"),
    ("check", "yangian", "--partition", "2,1"),
    ("check", "membership", "--partition", "2,1"),
    ("conjecture", "--partition", "2,1"),
], ids=["L", "yangian", "membership", "conjecture"])
@pytest.mark.parametrize("floor", ["-100000", "-33/2"])
def test_floor_below_twice_the_default_depth_is_usage_error(capsys, argv, floor):
    # (2,1) defaults to floor -8; -16 is the deepest floor accepted
    code, out, err = run(capsys, *argv, f"--floor={floor}")
    assert (code, out) == (2, "")
    assert err == (f"error: floor {floor} is below -16, twice the default depth -8 "
                   "for partition 2,1\n")


@pytest.mark.parametrize("floor", ["-100000", "3"])
def test_rectangular_conjecture_range_checks_the_floor_it_does_not_use(capsys, floor):
    # the rebuilt L(z) of (2,2) is compared exactly, at no floor
    code, out, err = run(capsys, "conjecture", "--partition", "2,2", f"--floor={floor}")
    assert (code, out) == (2, "") and err.startswith(f"error: floor {floor} is ")


def test_floor_at_twice_the_default_depth_is_accepted(capsys):
    code, out, _ = run(capsys, "check", "membership", "--partition", "2,1",
                       "--floor", "-16", "--format", "json")
    assert code == 0 and json.loads(out)["floor"] == "-16"


@pytest.mark.parametrize("argv", [
    ("L", "--partition", "2,1"),
    ("check", "yangian", "--partition", "2,1"),
    ("conjecture", "--partition", "2,1"),
], ids=["L", "check", "conjecture"])
def test_zero_denominator_floor_is_usage_error(capsys, argv):
    # not a ZeroDivisionError traceback, and not a failed check (exit 1)
    code, out, err = run(capsys, *argv, "--floor", "1/0")
    assert (code, out, err) == (2, "", "error: '1/0' has a zero denominator\n")


@pytest.mark.parametrize("floor", ["1e5000", "1e30000000", "-1E5", "1" * 33])
def test_floor_text_is_bounded_before_it_is_expanded(capsys, floor):
    # Fraction would expand 1e30000000 digit by digit for about a minute
    start = time.perf_counter()
    code, out, err = run(capsys, "L", "--partition", "2,1", "--floor", floor)
    assert time.perf_counter() - start < 10
    assert (code, out) == (2, "")
    assert err == (f"error: '{floor}' is not a floor of the form n or n/d "
                   "with at most 32 characters\n")


@pytest.mark.parametrize("argv", [
    ("L", "--partition", "2,1"),
    ("check", "membership", "--partition", "2,1"),
    ("conjecture", "--partition", "2,1"),
], ids=["L", "check", "conjecture"])
def test_negative_half_floor_may_follow_a_space(capsys, argv):
    spaced = run(capsys, *argv, "--floor", "-9/2", "--format", "json")
    joined = run(capsys, *argv, "--floor=-9/2", "--format", "json")
    assert spaced == joined and spaced[0] == 0
    assert json.loads(spaced[1])["floor"] == "-9/2"


@pytest.mark.parametrize("argv, option", [
    (("check", "capelli", "--n", "2", "--partition", "2,1", "--floor", "7"), "--partition"),
    (("check", "identities", "--n", "2", "--floor", "-3"), "--floor"),
    (("check", "premet", "--partition", "2,1", "--floor", "-3"), "--floor"),
    (("check", "yangian", "--partition", "2,1", "--family", "minimal"), "--family"),
    (("check", "main-lemma", "--partition", "2", "--n", "2"), "--n"),
], ids=["capelli-partition", "identities-floor", "premet-floor", "yangian-family",
        "main-lemma-n"])
def test_check_refuses_an_option_it_does_not_read(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: check {argv[1]} does not read {option}\n")


def test_failure_report_renders_the_parsed_floor(capsys, monkeypatch):
    import wgl.cli

    def fail(p, f2):
        raise ArithmeticError(f"stopped at floor {f2}")

    monkeypatch.setattr(wgl.cli, "main_lemma_check", fail)
    # the partition is rendered from the parsed parts too, as in a passing
    # report, not echoed as typed
    for spec in ("2", " 2"):
        code, out, _ = run(capsys, "check", "main-lemma", "--partition", spec,
                           "--floor", "-10/2", "--format", "json")
        rep = json.loads(out)
        assert (code, rep["partition"], rep["floor"], rep["pass"]) == (1, "2", "-5", False)
        assert rep["witnesses"] == [{"error": "stopped at floor -10"}]


@pytest.mark.parametrize("stage, argv, want", [
    ("build_L", ("check", "membership", "--partition", "2,1", "--floor", "-3/2"),
     ("membership", "2,1", "-3/2", None)),
    ("build_L", ("check", "yangian", "--partition", "3,1", "--floor", "-2"),
     ("yangian", "3,1", "-2", None)),
    ("premet_check", ("check", "premet", "--partition", "2,1"), ("premet", "2,1", None, None)),
    ("relation_table_check", ("relations", "--partition", "2,2"),
     ("relations", "2,2", None, None)),
    ("conjecture_check", ("conjecture", "--partition", "2,1", "--floor", "-3"),
     ("conjecture", "2,1", "-3", None)),
    ("capelli_suite", ("check", "capelli", "--n", "3"), ("capelli", None, None, 3)),
    ("rho_det_identities", ("check", "identities", "--n", "2"),
     ("identities", None, None, 2)),
], ids=["membership", "yangian", "premet", "relations", "conjecture", "capelli",
        "identities"])
def test_an_arithmetic_error_in_any_stage_is_a_failed_report(capsys, monkeypatch, stage,
                                                            argv, want):
    import wgl.cli

    def fail(*args):
        raise ArithmeticError("stage stopped")

    monkeypatch.setattr(wgl.cli, stage, fail)
    code, out, err = run(capsys, *argv, "--seed", "7", "--format", "json")
    rep = json.loads(out)
    assert (code, err) == (1, "")
    assert (rep["check"], rep["partition"], rep["floor"], rep.get("n")) == want
    assert (rep["pass"], rep["witnesses"], rep["seed"]) == (False, [{"error": "stage stopped"}], 7)


def test_floor_equal_to_the_largest_part_is_accepted(capsys):
    code, out, _ = run(capsys, "L", "--partition", "2,1", "--floor", "2",
                       "--format", "json")
    assert code == 0 and json.loads(out)["floor"] == "2"


def test_text_report_renders_structured_extras_as_json(capsys):
    code, out, _ = run(capsys, "check", "identities", "--n", "2")
    lines = out.splitlines()
    results = json.loads(next(x for x in lines if x.startswith("results: "))[9:])
    assert code == 0 and len(results) == 7
    assert all(r["pass"] is True for r in results)
    code, out, _ = run(capsys, "check", "yangian", "--partition", "2")
    assert code == 0 and "exact_commutator_zero: true" in out.splitlines()


def test_failing_check_exits_1(tmp_path, capsys):
    # candidates file with one generator perturbed: the rebuilt L(z) cannot
    # match the direct construction
    code, out, _ = run(capsys, "generators", "--partition", "2",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    bad = dict(obj)
    bad["generators"] = [dict(g) for g in obj["generators"]]
    target = bad["generators"][0]["element"]["terms"]
    target.append({"coeff": "1", "monomial": []})
    path = tmp_path / "candidates.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "conjecture", "--partition", "2",
                       "--candidates", str(path), "--format", "json")
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False and rep["witnesses"]


def test_candidates_round_trip_passes(tmp_path, capsys):
    code, out, _ = run(capsys, "generators", "--partition", "2",
                       "--format", "json")
    path = tmp_path / "candidates.json"
    path.write_text(out)
    code, out, _ = run(capsys, "conjecture", "--partition", "2",
                       "--candidates", str(path), "--format", "json")
    assert code == 0 and json.loads(out)["pass"] is True


@pytest.mark.parametrize("content", [
    [1, 2],
    {"partition": "2,1",
     "generators": [{"i": 1, "j": 1, "k": 0, "element": "x"}]},
], ids=["not-an-object", "element-is-a-string"])
def test_malformed_candidates_is_usage_error(tmp_path, capsys, content):
    path = tmp_path / "candidates.json"
    path.write_text(json.dumps(content))
    code, out, err = run(capsys, "conjecture", "--partition", "2,1",
                         "--floor", "-2", "--candidates", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def _no_key(obj):
    g = obj["generators"][0]
    del g["i"], g["j"], g["k"]
    g["key"] = [1, 1]


def _coeff(value):
    return lambda obj: obj["generators"][0]["element"]["terms"][0].update(coeff=value)


_KEYS = "candidates generator 1: key [1, 1, 7] is not (i, j, k) with 1 <= i, j <= 2 " \
    "and 0 <= k < min(p_i, p_j)"


@pytest.mark.parametrize("edit, message", [
    (lambda obj: obj["generators"][0]["element"]["terms"].append(
        {"coeff": "1", "monomial": [[[9, 9], [1, 1]]]}),
     "candidates generator 1: no generator e[(9, 9),(1, 1)] for partition 2,1"),
    (lambda obj: obj["generators"][1].pop("element"),
     'candidates generator 2: missing field "element"'),
    (_no_key,
     'candidates generator 1: "key" must be a list [i, j, k], not [1, 1]'),
    (_coeff("1/0"),
     'candidates generator 1: "coeff" '"'1/0'"' has a zero denominator'),
    # Fraction would expand the exponent digit by digit for minutes
    (_coeff("1e999999999"), 'candidates generator 1: "coeff" '
     "'1e999999999'"' is not an integer or "p/q" text'),
    # written as the JSON number 1e999, which json reads as inf
    (_coeff(float("inf")),
     'candidates generator 1: "coeff" inf is not an integer or "p/q" text'),
    (_coeff(True),
     'candidates generator 1: "coeff" True is not an integer or "p/q" text'),
    (_coeff(0.5),
     'candidates generator 1: "coeff" 0.5 is not an integer or "p/q" text'),
    (lambda obj: obj["generators"].pop(1),
     "candidates file has no generator with key [1, 1, 1]"),
    (lambda obj: obj["generators"][0].update(k=7), _KEYS),
    (lambda obj: obj["generators"][0].update(k="0"),
     'candidates generator 1: "key" must be a list [i, j, k], not [1, 1, "0"]'),
    (lambda obj: obj["generators"].append({"i": 9, "j": 1, "k": 0, "element": []}),
     _KEYS.replace("1: key [1, 1, 7]", "6: key [9, 1, 0]")),
    (lambda obj: obj["generators"].append(dict(obj["generators"][0])),
     "candidates generator 6: key [1, 1, 0] is repeated"),
    (lambda obj: obj["generators"][0]["element"]["terms"][0].update(
        monomial=[[[True, 1.0], [1, 1]]]),
     "candidates generator 1: no generator e[(True, 1.0),(1, 1)] for partition 2,1"),
    (lambda obj: obj.update(partition=[True]),
     "parts must be positive integers, got True"),
    # json reads the number 1e999 as inf, which json.dumps would echo as
    # Infinity, not JSON
    (lambda obj: obj.update(family=float("inf")),
     'candidates "family" must be printable text, not Infinity'),
    (lambda obj: obj.update(family=["minimal"]),
     'candidates "family" must be printable text, not ["minimal"]'),
    # a line break would forge lines of the text report
    (lambda obj: obj.update(family="x\npass: yes"),
     'candidates "family" must be printable text, not "x\\npass: yes"'),
], ids=["letter-outside-the-pyramid", "no-element", "key-of-length-2",
        "zero-denominator", "coeff-exponent-text", "coeff-1e999", "coeff-true",
        "coeff-float", "missing-key", "key-out-of-range", "key-as-text",
        "unexpected-key", "repeated-key", "bool-box-index", "bool-partition-part",
        "family-1e999", "family-list", "family-line-break"])
def test_bad_candidates_entry_is_named(tmp_path, capsys, edit, message):
    code, out, _ = run(capsys, "generators", "--partition", "2,1",
                       "--format", "json")
    obj = json.loads(out)
    edit(obj)
    path = tmp_path / "candidates.json"
    path.write_text(json.dumps(obj).replace("Infinity", "1e999"))
    start = time.perf_counter()
    code, out, err = run(capsys, "conjecture", "--partition", "2,1",
                         "--floor", "-2", "--candidates", str(path))
    assert time.perf_counter() - start < 5
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("unit, code", [("-1", 0), ("1", 1)], ids=["lift", "shifted"])
def test_candidates_given_as_lifts_are_reduced_on_load(tmp_path, capsys, unit, code):
    # e[(1,1),(1,2)] - 1 lies in the left ideal I, so adding it to w[1,1;0]
    # keeps its coset in M; adding e[(1,1),(1,2)] + 1 shifts it by 2
    _, out, _ = run(capsys, "generators", "--partition", "2,1", "--format", "json")
    obj = json.loads(out)
    obj["generators"][0]["element"]["terms"] += [
        {"coeff": "1", "monomial": [[[1, 1], [1, 2]]]}, {"coeff": unit, "monomial": []}]
    path = tmp_path / "candidates.json"
    path.write_text(json.dumps(obj))
    got, out, _ = run(capsys, "conjecture", "--partition", "2,1", "--floor", "-5",
                      "--candidates", str(path), "--format", "json")
    rep = json.loads(out)
    assert (got, rep["pass"]) == (code, code == 0)
    assert rep["witnesses"] == ([] if code == 0 else
                                [{"entry": [1, 1], "zpow": "0", "difference": "-2"}])


_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=12)),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.dictionaries(st.text(max_size=8), kids, max_size=4)),
    max_leaves=12)


# letter-shaped monomials whose box indices may be bools or floats
_MONOMIALS = st.lists(st.lists(st.lists(
    st.one_of(st.integers(0, 3), st.booleans(), st.floats()), max_size=3),
    max_size=3), max_size=2)


def _set_field(obj, field, value):
    gen = obj["generators"][0]
    if field == "element":
        gen["element"] = value
    elif field == "key":
        gen["key"] = value
    else:
        gen["element"]["terms"][0][field] = value


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(["coeff", "monomial", "key", "element"]),
       st.one_of(_JSON, _MONOMIALS))
@example("coeff", "1e999999999")
@example("coeff", float("inf"))
@example("coeff", True)
@example("coeff", 0.5)
@example("key", [1, 1, 7])
@example("key", [1, 1, "0"])
@example("monomial", [[[1, 1], [1, 2]]])
@example("monomial", [[[True, 1], [1, 2]]])
@example("monomial", [[[1.0, 1], [1, 2]]])
@example("element", "x")
def test_any_candidates_value_exits_0_1_or_2(field, value):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        main(["generators", "--partition", "2", "--format", "json"])
    obj = json.loads(sink.getvalue())
    _set_field(obj, field, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "candidates.json"
        path.write_text(json.dumps(obj))
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(["conjecture", "--partition", "2", "--candidates", str(path)])
    assert code in (0, 1, 2)


def test_candidates_partition_mismatch(tmp_path, capsys):
    code, out, _ = run(capsys, "generators", "--partition", "2",
                       "--format", "json")
    path = tmp_path / "candidates.json"
    path.write_text(out)
    code, _, err = run(capsys, "conjecture", "--partition", "1,1",
                       "--candidates", str(path))
    assert code == 2 and "candidates" in err


# ---------------------------------------------------------------------------
# golden output: every command of the benchmark's reference table

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"

GOLDEN = [
    *[("L", "--partition", p, "--floor", "-5") for p in ("2,1", "3,1", "2,2")],
    ("check", "identities", "--n", "3"),
    ("check", "capelli", "--n", "4"),
    *[("relations", "--partition", p) for p in ("2,1", "2,2")],
    *[("generators", "--partition", p) for p in ("2,1", "2,2")],
    *[("conjecture", "--partition", p, "--floor", "-5") for p in ("2,1", "2,2")],
    ("L", "--partition", "2,1,1", "--floor", "-2"),
    ("check", "premet", "--partition", "2,1"),
    ("check", "membership", "--partition", "2,1,1", "--floor", "-2"),
    *[("check", what, "--partition", p, "--floor", "-5")
      for what in ("membership", "main-lemma") for p in ("2,1", "3,1", "2,2")],
    *[("check", "yangian", "--partition", p, "--floor", "-5")
      for p in ("2,2", "2,1", "3,1")],
    ("L", "--partition", "2,1,1", "--floor", "-5"),
    *[("check", what, "--partition", "2,1,1", "--floor", "-5")
      for what in ("membership", "yangian")],
    ("check", "premet", "--partition", "2,2"),
    *[("conjecture", "--partition", "2,1", "--floor", f, "--candidates", "{candidates}")
      for f in ("-2", "-5")],
]


def test_golden_covers_the_reference_table():
    table = json.loads(REFERENCE.read_text(encoding="utf-8"))
    assert sorted(" ".join([*argv, "--format", "json"]) for argv in GOLDEN) == sorted(table)


@pytest.mark.parametrize("argv", GOLDEN, ids=" ".join)
def test_stdout_matches_the_reference_hash(capsys, tmp_path, argv):
    argv = [*argv, "--format", "json"]
    want = json.loads(REFERENCE.read_text(encoding="utf-8"))[" ".join(argv)]
    if "{candidates}" in argv:
        # the benchmark writes this file from the (2,1) generator table
        _, table, _ = run(capsys, "generators", "--partition", "2,1", "--format", "json")
        path = tmp_path / "candidates.json"
        path.write_text(table)
        argv = [str(path) if a == "{candidates}" else a for a in argv]
    code, out, _ = run(capsys, *argv)
    data = out.encode("utf-8")
    assert (code, len(data)) == (want["rc"], want["bytes"])
    assert hashlib.sha256(data).hexdigest() == want["sha256"]


# ---------------------------------------------------------------------------
# JSON rendering


def _default(o):
    return o.to_json_obj() if isinstance(o, UEAElement) else str(o)


def _stdlib_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_default) + "\n"


_ALG = Algebra(Partition((2, 1)))
# PBW monomials are nondecreasing in letter id; () is the unit
_MONO = st.lists(st.integers(0, len(_ALG.letters) - 1), max_size=3).map(
    lambda ids: tuple(sorted(ids)))
_COEFF = st.one_of(st.integers(), st.fractions()).filter(bool).map(_ncoeff)
_UEA = st.dictionaries(_MONO, _COEFF, max_size=4).map(lambda t: UEAElement(_ALG, t))
_ROWS = st.lists(st.lists(st.integers(), max_size=3), min_size=1, max_size=3)
_LEAVES = st.one_of(
    st.text(), st.integers(), st.booleans(), st.none(), st.floats(),
    st.fractions(),
    _ROWS, _ROWS.map(lambda rows: tuple(map(tuple, rows))),
    st.lists(st.lists(st.one_of(st.booleans(), st.floats(), st.integers()),
                      max_size=2), min_size=1, max_size=2),
    _UEA, _UEA.map(reduce_mod_I),
    # one element per example, so its letters recur at several depths
    st.shared(_UEA, key="element"),
)
_TREES = st.recursive(_LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(st.text(), kids, max_size=4),
    st.dictionaries(st.integers(), kids, max_size=3),
), max_leaves=40)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_TREES)
def test_write_json_matches_the_stdlib_encoder(obj):
    buf = io.StringIO()
    _write_json(obj, buf)
    assert buf.getvalue() == _stdlib_json(obj)


def test_write_json_rejects_the_keys_the_stdlib_rejects():
    with pytest.raises(TypeError):
        _stdlib_json({(1, 2): 0})
    with pytest.raises(TypeError):
        _write_json({(1, 2): 0}, io.StringIO())


class _RecordingSink:
    def __init__(self):
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))


def test_json_output_is_streamed():
    sink = _RecordingSink()
    _write_json(build_L(Partition((2, 1, 1)), -4, lift=True).to_json_obj(), sink)
    total = sum(sink.sizes)
    assert total == 1_167_356
    # a write holds one batch of about 256 KB and at most one term past it
    assert len(sink.sizes) > 1 and max(sink.sizes) < 300_000
