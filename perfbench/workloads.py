"""The benchmark's workloads: which `wgl` commands each one runs.

A command is an argv list for `wgl`.  `{candidates}` in a command stands for
the candidates file that the workload's set-up writes before each pass; it is
written from the stdout of the workload's `inputs` command.

Every command is deterministic, so its exit code and stdout SHA-256 are fixed
by the source tree.  `reference.json` holds them as recorded at the commit
that added this benchmark (`run.py --record` rewrites it).

The floors are shallower than the -8 the acceptance tests use: at -8 one pass
of these three workloads takes about three minutes and the (2,1,1) export
peaks near 2.7 GB, which does not fit the benchmark's time budget.  The
commands and the layers they stress are the same.
"""

from __future__ import annotations

FLOOR_SMALL = "-5"
FLOOR_2111 = "-5"


def _cmd(*args: str) -> list:
    return [*args, "--format", "json"]


def _small_shapes() -> list:
    cmds = []
    for p in ("2,1", "3,1", "2,2"):
        cmds.append(_cmd("L", "--partition", p, "--floor", FLOOR_SMALL))
        for what in ("yangian", "membership", "main-lemma"):
            cmds.append(_cmd("check", what, "--partition", p, "--floor", FLOOR_SMALL))
    # (3,1) has no built-in generator family, so these run on (2,1), (2,2)
    for p in ("2,1", "2,2"):
        cmds.append(_cmd("check", "premet", "--partition", p))
        cmds.append(_cmd("relations", "--partition", p))
        cmds.append(_cmd("generators", "--partition", p))
        cmds.append(_cmd("conjecture", "--partition", p, "--floor", FLOOR_SMALL))
    cmds.append(_cmd("conjecture", "--partition", "2,1", "--floor", FLOOR_SMALL,
                     "--candidates", "{candidates}"))
    cmds.append(_cmd("check", "identities", "--n", "3"))
    cmds.append(_cmd("check", "capelli", "--n", "4"))
    return cmds


CANDIDATES_21 = _cmd("generators", "--partition", "2,1")

WORKLOADS = {
    "small-shapes": {
        "inputs": {"candidates": CANDIDATES_21},
        "commands": _small_shapes(),
        "tiny": [_cmd("conjecture", "--partition", "2,1", "--floor", "-2",
                      "--candidates", "{candidates}")],
    },
    "checks-2111": {
        "inputs": {},
        "commands": [
            _cmd("check", "membership", "--partition", "2,1,1", "--floor", FLOOR_2111),
            _cmd("check", "yangian", "--partition", "2,1,1", "--floor", FLOOR_2111),
        ],
        "tiny": [_cmd("check", "membership", "--partition", "2,1,1", "--floor", "-2")],
    },
    "export-2111": {
        "inputs": {},
        "commands": [_cmd("L", "--partition", "2,1,1", "--floor", FLOOR_2111)],
        "tiny": [_cmd("L", "--partition", "2,1,1", "--floor", "-2")],
    },
}


def key(argv: list) -> str:
    """The reference-table key of a command (placeholders left unexpanded)."""
    return " ".join(argv)


def all_commands() -> list:
    """Every command any workload runs, set-up commands included, once each."""
    seen = {}
    for spec in WORKLOADS.values():
        for argv in [*spec["inputs"].values(), *spec["commands"], *spec["tiny"]]:
            seen.setdefault(key(argv), argv)
    return list(seen.values())
