import hashlib
import json
from pathlib import Path

import pytest

from wgl.cli import main


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


def test_family_partition_mismatch_is_usage_error(capsys):
    code, _, err = run(capsys, "generators", "--partition", "3,1",
                       "--family", "minimal")
    assert code == 2 and "minimal" in err


def test_missing_n_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "capelli")
    assert code == 2 and "--n" in err


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


def test_floor_equal_to_the_largest_part_is_accepted(capsys):
    code, out, _ = run(capsys, "L", "--partition", "2,1", "--floor", "2",
                       "--format", "json")
    assert code == 0 and json.loads(out)["floor"] == "2"


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


def test_candidates_partition_mismatch(tmp_path, capsys):
    code, out, _ = run(capsys, "generators", "--partition", "2",
                       "--format", "json")
    path = tmp_path / "candidates.json"
    path.write_text(out)
    code, _, err = run(capsys, "conjecture", "--partition", "1,1",
                       "--candidates", str(path))
    assert code == 2 and "candidates" in err


# ---------------------------------------------------------------------------
# golden output: the fast commands of the benchmark's reference table

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"

GOLDEN = [
    *[("L", "--partition", p, "--floor", "-5") for p in ("2,1", "3,1", "2,2")],
    ("check", "identities", "--n", "3"),
    ("check", "capelli", "--n", "4"),
    ("relations", "--partition", "2,2"),
    ("generators", "--partition", "2,2"),
    *[("conjecture", "--partition", p, "--floor", "-5") for p in ("2,1", "2,2")],
]


@pytest.mark.parametrize("argv", GOLDEN, ids=" ".join)
def test_stdout_matches_the_reference_hash(capsys, argv):
    argv = [*argv, "--format", "json"]
    want = json.loads(REFERENCE.read_text(encoding="utf-8"))[" ".join(argv)]
    code, out, _ = run(capsys, *argv)
    data = out.encode("utf-8")
    assert (code, len(data)) == (want["rc"], want["bytes"])
    assert hashlib.sha256(data).hexdigest() == want["sha256"]
