"""Command-line entry point.

Subcommands
-----------
L           print the matrix polynomial/series L(z) for a partition
check       run one verification (yangian, membership, main-lemma,
            capelli, identities, premet) and report pass/fail
generators  print a closed generator family for a partition
relations   verify the commutator table of a generator family
conjecture  rebuild L(z) from a generator table (a named family or a
            candidates file) and compare with the direct construction

Exit codes: 0 all requested checks passed, 1 a check failed, 2 bad usage.
Output is deterministic for a fixed invocation; JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import json
import sys

from .pyramid import Partition, half_str, parse_half2
from .uea import Algebra, element_from_json
from .walgebra import (
    LOperator,
    WGenerators,
    build_L,
    capelli_suite,
    conjecture_check,
    family_generators,
    main_lemma_check,
    premet_check,
    relation_table_check,
    rho_det_identities,
    w_membership_check,
    yangian_check_L,
    _generating_family,
)

_FAMILIES = ("principal", "rectangular", "minimal")
# The options each check reads besides --format and --seed; it refuses the
# others rather than run as if they had not been given.
_CHECK_READS = {
    "capelli": ("n",),
    "identities": ("n",),
    "premet": ("partition", "family"),
    **dict.fromkeys(("main-lemma", "membership", "yangian"), ("partition", "floor")),
}


def _parse_partition(text: str) -> Partition:
    return Partition.parse(text)


def _parse_floor(text):
    """The doubled floor of a --floor value, None when it was not given."""
    return None if text is None else parse_half2(text)


def _attach_floor(argv):
    """argv with "--floor -15/2" joined into "--floor=-15/2".

    argparse takes a word that starts with "-" for an option unless it reads
    as a plain negative decimal, so a negative n/2 needs the "=" form.
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--floor" and len(arg) > 1 and arg[0] == "-" \
                and arg[1] in "0123456789./":
            out[-1] = f"--floor={arg}"
        else:
            out.append(arg)
    return out


_encode_str = json.encoder.encode_basestring_ascii
_SEQ = (list, tuple)
# Chunks held before a write; a batch of L(z) output is about 350 KB.
_FLUSH = 4096


def _json_key(k) -> str:
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return json.dumps(k)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _int_rows(o, nl: str):
    """The indented text of a list of int lists, or None for other lists."""
    if not all(type(r) in _SEQ and all(type(v) is int for v in r) for r in o):
        return None
    inner = nl + "  "
    sep = "," + inner + "  "
    rows = [f"[{sep[1:]}{sep.join(map(str, r))}{inner}]" if r else "[]"
            for r in o]
    return f"[{inner}{(',' + inner).join(rows)}{nl}]"


def _write_json(obj, fh) -> None:
    """Write json.dumps(obj, indent=2, sort_keys=True, default=str) + "\n".

    The stdlib encoder drops to its pure-Python generators whenever indent is
    set and joins every chunk before returning.  This one appends to a list
    that goes to fh every _FLUSH chunks, and renders each list of int lists
    (a monomial letter, shared per algebra) once per object and depth.
    """
    out = []
    memo = {}

    def enc(o, nl):
        if isinstance(o, str):
            out.append(_encode_str(o))
        elif o is None:
            out.append("null")
        elif o is True:
            out.append("true")
        elif o is False:
            out.append("false")
        elif isinstance(o, int):
            out.append(int.__repr__(o))
        elif isinstance(o, float):
            out.append(json.dumps(o))
        elif isinstance(o, _SEQ):
            if not o:
                out.append("[]")
                return
            # The tree outlives this call, so an id names one object here.
            key = (nl, id(o))
            text = memo.get(key)
            if text is None:
                text = _int_rows(o, nl)
                if text is not None:
                    memo[key] = text
            if text is not None:
                out.append(text)
                return
            inner = nl + "  "
            sep = "[" + inner
            for v in o:
                out.append(sep)
                enc(v, inner)
                sep = "," + inner
            out.append(nl + "]")
        elif isinstance(o, dict):
            if not o:
                out.append("{}")
                return
            inner = nl + "  "
            sep = "{" + inner
            for k, v in sorted(o.items()):
                out.append(f"{sep}{_encode_str(_json_key(k))}: ")
                enc(v, inner)
                sep = "," + inner
            out.append(nl + "}")
        else:
            enc(str(o), nl)
            return
        if len(out) >= _FLUSH:
            fh.write("".join(out))
            out.clear()

    enc(obj, "\n")
    out.append("\n")
    fh.write("".join(out))


def _emit(obj, fmt: str, to_text) -> None:
    if fmt == "json":
        _write_json(obj, sys.stdout)
    else:
        print(to_text())


def _render_report(rep: dict) -> str:
    lines = [f"check: {rep['check']}"]
    for key in ("partition", "family", "n", "floor"):
        if rep.get(key) is not None:
            lines.append(f"{key}: {rep[key]}")
    lines.append(f"pass: {'yes' if rep['pass'] else 'no'}")
    for key, val in sorted(rep.items()):
        if key in ("check", "partition", "family", "n", "floor", "pass",
                   "witnesses", "coefficients"):
            continue
        lines.append(f"{key}: {val}")
    for c in rep.get("coefficients", ()):
        tag = "central" if c["central"] else "NOT central"
        lines.append(f"coefficient w_{c['k']} ({tag}): {c['text']}")
    for w in rep["witnesses"]:
        lines.append("witness: " + json.dumps(w, sort_keys=True, default=str))
    return "\n".join(lines)


def _finish(rep: dict, fmt: str) -> int:
    _emit(rep, fmt, lambda: _render_report(rep))
    return 0 if rep["pass"] else 1


def _failed_report(check: str, args, f2, exc: ArithmeticError) -> dict:
    rep = {
        "check": check,
        "partition": args.partition,
        "floor": None if f2 is None else half_str(f2),
        "pass": False,
        "witnesses": [{"error": str(exc)}],
    }
    return rep


def _generators_for(args) -> WGenerators:
    p = _parse_partition(args.partition)
    family = getattr(args, "family", None)
    if family is None:
        family = _generating_family(p)
        if family is None:
            raise ValueError(f"no built-in generator family covers {p}")
    return family_generators(p, family)


def _load_candidates(path: str) -> WGenerators:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or "partition" not in obj:
        raise ValueError("candidates file must be a JSON object with a partition")
    gens = obj.get("generators")
    if not isinstance(gens, list) or not all(isinstance(e, dict) for e in gens):
        raise ValueError("candidates generators must be a list of objects")
    try:
        part = obj["partition"]
        p = Partition.parse(part) if isinstance(part, str) \
            else Partition(tuple(part))
        alg = Algebra(p)
        table = {}
        for n, entry in enumerate(gens, 1):
            try:
                key = entry["key"] if "key" in entry else [entry[f] for f in "ijk"]
                if not isinstance(key, list) or len(key) != 3:
                    raise ValueError(f'"key" must be a list [i, j, k], not {json.dumps(key)}')
                table[tuple(key)] = element_from_json(alg, entry["element"])
            except (KeyError, ValueError, TypeError) as exc:
                why = f'missing field "{exc.args[0]}"' if type(exc) is KeyError else exc
                raise ValueError(f"candidates generator {n}: {why}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed candidates file: {exc}") from exc
    family = obj.get("family", "candidates")
    return WGenerators(family=family, partition=p, table=table)


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_L(args) -> int:
    p = _parse_partition(args.partition)
    L = build_L(p, _parse_floor(args.floor), lift=True)
    _emit(L.to_json_obj(), args.format, L.to_text)
    return 0


def _cmd_check(args) -> int:
    which = args.what
    for opt in ("partition", "floor", "n", "family"):
        if getattr(args, opt) is not None and opt not in _CHECK_READS[which]:
            raise ValueError(f"check {which} does not read --{opt}")
    if which in ("capelli", "identities"):
        if args.n is None:
            raise ValueError(f"check {which} requires --n")
        rep = capelli_suite(args.n) if which == "capelli" \
            else rho_det_identities(args.n)
        if args.seed is not None:
            rep["seed"] = args.seed
        return _finish(rep, args.format)

    if args.partition is None:
        raise ValueError(f"check {which} requires --partition")
    p = _parse_partition(args.partition)
    f2 = _parse_floor(args.floor)

    try:
        if which == "main-lemma":
            rep = main_lemma_check(p, f2)
        elif which == "membership":
            rep = w_membership_check(build_L(p, f2))
        elif which == "yangian":
            rep = yangian_check_L(build_L(p, f2))
        elif which == "premet":
            rep = premet_check(_generators_for(args))
        else:  # pragma: no cover - argparse restricts choices
            raise ValueError(f"unknown check {which!r}")
    except ArithmeticError as exc:
        return _finish(_failed_report(which, args, f2, exc), args.format)
    if args.seed is not None:
        rep["seed"] = args.seed
    return _finish(rep, args.format)


def _cmd_generators(args) -> int:
    g = _generators_for(args)
    _emit(g.to_json_obj(), args.format, g.to_text)
    return 0


def _cmd_relations(args) -> int:
    try:
        rep = relation_table_check(_generators_for(args))
    except ArithmeticError as exc:
        return _finish(_failed_report("relations", args, None, exc), args.format)
    return _finish(rep, args.format)


def _cmd_conjecture(args) -> int:
    p = _parse_partition(args.partition)
    if args.candidates is not None:
        g = _load_candidates(args.candidates)
        if g.partition != p:
            raise ValueError(
                f"candidates file is for {g.partition}, not {p}")
    else:
        g = _generators_for(args)
    f2 = _parse_floor(args.floor)
    try:
        rep = conjecture_check(p, g, f2)
    except ArithmeticError as exc:
        return _finish(_failed_report("conjecture", args, f2, exc), args.format)
    return _finish(rep, args.format)


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sp, partition=True, floor=True):
    if partition:
        sp.add_argument("--partition", help="comma-separated parts, e.g. 2,1")
    if floor:
        sp.add_argument("--floor",
                        help="lowest kept power of z (integer or n/2)")
    sp.add_argument("--format", choices=("json", "text"), default="text")
    sp.add_argument("--seed", type=int, default=None,
                    help="echoed into the report; no command here is randomized")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wgl",
        description="Exact computations with truncation-invariant matrix "
                    "series over quotients of U(gl_N).")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("L", help="print L(z) for a partition")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_L)

    sp = sub.add_parser("check", help="run one verification")
    sp.add_argument("what", choices=("yangian", "membership", "main-lemma",
                                     "capelli", "identities", "premet"))
    _add_common(sp)
    sp.add_argument("--n", type=int, default=None,
                    help="matrix size for capelli/identities")
    sp.add_argument("--family", choices=_FAMILIES, default=None,
                    help="generator family for premet (default: inferred)")
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser("generators", help="print a closed generator family")
    _add_common(sp, floor=False)
    sp.add_argument("--family", choices=_FAMILIES, default=None,
                    help="family name (default: inferred from the partition)")
    sp.set_defaults(fn=_cmd_generators)

    sp = sub.add_parser("relations", help="verify a family's commutator table")
    _add_common(sp, floor=False)
    sp.add_argument("--family", choices=_FAMILIES, default=None)
    sp.set_defaults(fn=_cmd_relations)

    sp = sub.add_parser("conjecture",
                        help="rebuild L(z) from a generator table")
    _add_common(sp)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--candidates",
                       help="JSON file with a generator table")
    group.add_argument("--family", choices=_FAMILIES, default=None)
    sp.set_defaults(fn=_cmd_conjecture)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_attach_floor(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
