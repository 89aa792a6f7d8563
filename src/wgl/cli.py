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
Output is deterministic for a fixed invocation.  JSON output is streamed,
with sorted keys, and elements are rendered from their term maps.
"""

from __future__ import annotations

import argparse
import json
import sys

from .pyramid import Partition, parse_half2
from .quotient import MElement, reduce_mod_I
from .uea import Algebra, UEAElement, element_from_json
from .walgebra import (
    FAMILIES,
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
    _report,
)

# Largest N = p_1 + ... + p_r accepted, checked before U(gl_N) builds its N^2
# letters; twice the largest N measured, 6 for (3,3).
_MAX_PARTITION_N = 12
# The options each check reads besides --format and --seed; it refuses the
# others rather than run as if they had not been given.
_CHECK_READS = {
    "capelli": ("n",),
    "identities": ("n",),
    "premet": ("partition", "family"),
    **dict.fromkeys(("main-lemma", "membership", "yangian"), ("partition", "floor")),
}


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
# Characters (all ASCII) held before a write.
_FLUSH = 1 << 18


def _json_key(k) -> str:
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return json.dumps(k)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _write_json(obj, fh) -> None:
    """Write json.dumps(obj, indent=2, sort_keys=True, default=d) + "\n", where
    d maps an element to its to_json_obj() and any other leaf to str.

    Unlike the stdlib encoder this writes to fh every _FLUSH characters, and
    renders an element straight from its term map: a text per term from
    `sorted_terms()` and per letter, once per algebra and depth.
    """
    out = []
    size = 0
    letters = {}

    def put(text):
        nonlocal size
        out.append(text)
        size += len(text)
        if size >= _FLUSH:
            fh.write("".join(out))
            out.clear()
            size = 0

    def terms(x, nl):
        if not x.terms:
            put("[]")
            return
        i1, i2, i3 = nl + "  ", nl + "    ", nl + "      "
        text = letters.get((x.alg, nl))
        if text is None:
            text = letters[x.alg, nl] = tuple(
                json.dumps(ab, indent=2).replace("\n", i3) for ab in x.alg.letter_json)
        sep = "[" + i1
        for mono, c in x.sorted_terms():
            body = f"[{i3}{(',' + i3).join(map(text.__getitem__, mono))}{i2}]" \
                if mono else "[]"
            put(f'{sep}{{{i2}"coeff": "{c!s}",{i2}"monomial": {body}{i1}}}')
            sep = "," + i1
        put(nl + "]")

    def enc(o, nl):
        if isinstance(o, str):
            put(_encode_str(o))
        elif o is None:
            put("null")
        elif o is True:
            put("true")
        elif o is False:
            put("false")
        elif isinstance(o, int):
            put(int.__repr__(o))
        elif isinstance(o, float):
            put(json.dumps(o))
        elif isinstance(o, MElement):
            put(f'{{{nl}  "reduced": true,{nl}  "terms": ')
            terms(o, nl + "  ")
            put(nl + "}")
        elif isinstance(o, UEAElement):
            terms(o, nl)
        elif isinstance(o, _SEQ):
            if not o:
                put("[]")
                return
            inner = nl + "  "
            sep = "[" + inner
            for v in o:
                put(sep)
                enc(v, inner)
                sep = "," + inner
            put(nl + "]")
        elif isinstance(o, dict):
            if not o:
                put("{}")
                return
            inner = nl + "  "
            sep = "{" + inner
            for k, v in sorted(o.items()):
                put(f"{sep}{_encode_str(_json_key(k))}: ")
                enc(v, inner)
                sep = "," + inner
            put(nl + "}")
        else:
            enc(str(o), nl)

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
        if isinstance(val, (list, tuple, dict, bool)):
            val = json.dumps(val, sort_keys=True, default=str)
        lines.append(f"{key}: {val}")
    for c in rep.get("coefficients", ()):
        tag = "central" if c["central"] else "NOT central"
        lines.append(f"coefficient w_{c['k']} ({tag}): {c['text']}")
    for w in rep["witnesses"]:
        lines.append("witness: " + json.dumps(w, sort_keys=True, default=str))
    return "\n".join(lines)


def _finish(args, which: str, p, f2, stage, **extras) -> int:
    """Run the stage, a thunk that gives a report, print the report with
    --seed echoed into it, and give the exit code.  An ArithmeticError from
    the stage is the one failure path: it becomes the failed report of check
    `which` on p at the doubled floor f2, with the extras and the error."""
    try:
        rep = stage()
    except ArithmeticError as exc:
        rep = _report(which, p, f2, False, [{"error": str(exc)}], **extras)
    if args.seed is not None:
        rep["seed"] = args.seed
    _emit(rep, args.format, lambda: _render_report(rep))
    return 0 if rep["pass"] else 1


def _partition(spec) -> Partition:
    """A --partition text or a candidates list of parts, checked for size."""
    p = Partition.parse(spec) if isinstance(spec, str) else Partition(tuple(spec or ()))
    if p.N > _MAX_PARTITION_N:
        raise ValueError(f"partition {p} has N = {p.N}; the largest N "
                         f"accepted is {_MAX_PARTITION_N}")
    return p


def _generators_for(p: Partition, family) -> WGenerators:
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
        p = _partition(obj["partition"])
        alg = Algebra(p)
        keys = [(i, j, k) for i in range(1, p.r + 1) for j in range(1, p.r + 1)
                for k in range(min(p.parts[i - 1], p.parts[j - 1]))]
        table = {}
        for n, entry in enumerate(gens, 1):
            try:
                key = entry["key"] if "key" in entry else [entry[f] for f in "ijk"]
                if not (isinstance(key, list) and len(key) == 3
                        and all(type(v) is int for v in key)):
                    raise ValueError(f'"key" must be a list [i, j, k], not {json.dumps(key)}')
                key = tuple(key)
                if key in table:
                    raise ValueError(f"key {list(key)} is repeated")
                if key not in keys:
                    raise ValueError(f"key {list(key)} is not (i, j, k) with 1 <= i, j "
                                     f"<= {p.r} and 0 <= k < min(p_i, p_j)")
                table[key] = reduce_mod_I(element_from_json(alg, entry["element"]))
            except (KeyError, ValueError, TypeError) as exc:
                why = f'missing field "{exc.args[0]}"' if type(exc) is KeyError else exc
                raise ValueError(f"candidates generator {n}: {why}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed candidates file: {exc}") from exc
    missing = [key for key in keys if key not in table]
    if missing:
        raise ValueError(f"candidates file has no generator with key {list(missing[0])}")
    family = obj.get("family", "candidates")
    if not (isinstance(family, str) and family.isprintable()):
        raise ValueError(f'candidates "family" must be printable text, not '
                         f'{json.dumps(family)}')
    return WGenerators(family=family, partition=p, table=table)


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_L(args) -> int:
    p = _partition(args.partition)
    # the text prints only the reduced L(z), so only JSON needs the lift
    L = build_L(p, _parse_floor(args.floor), lift=args.format == "json")
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
        suite = capelli_suite if which == "capelli" else rho_det_identities
        return _finish(args, which, None, None, lambda: suite(args.n), n=args.n)

    if args.partition is None:
        raise ValueError(f"check {which} requires --partition")
    p = _partition(args.partition)
    f2 = _parse_floor(args.floor)
    return _finish(args, which, p, f2, {
        "main-lemma": lambda: main_lemma_check(p, f2),
        "membership": lambda: w_membership_check(build_L(p, f2)),
        "yangian": lambda: yangian_check_L(build_L(p, f2)),
        "premet": lambda: premet_check(_generators_for(p, args.family))}[which])


def _cmd_generators(args) -> int:
    g = _generators_for(_partition(args.partition), args.family)
    _emit(g.to_json_obj(), args.format, g.to_text)
    return 0


def _cmd_relations(args) -> int:
    p = _partition(args.partition)
    return _finish(args, "relations", p, None,
                   lambda: relation_table_check(_generators_for(p, args.family)))


def _cmd_conjecture(args) -> int:
    p = _partition(args.partition)
    if args.candidates is not None:
        g = _load_candidates(args.candidates)
        if g.partition != p:
            raise ValueError(
                f"candidates file is for {g.partition}, not {p}")
    else:
        g = _generators_for(p, args.family)
    f2 = _parse_floor(args.floor)
    return _finish(args, "conjecture", p, f2, lambda: conjecture_check(p, g, f2))


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sp, floor=True, seed=True):
    # a command that prints no report takes no --seed: passing one exits 2
    sp.add_argument("--partition", help="comma-separated parts, e.g. 2,1")
    if floor:
        sp.add_argument("--floor",
                        help="lowest kept power of z (integer or n/2)")
    sp.add_argument("--format", choices=("json", "text"), default="text")
    if seed:
        sp.add_argument("--seed", type=int, default=None,
                        help="echoed into the report; no command here is randomized")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wgl",
        description="Exact computations with truncation-invariant matrix "
                    "series over quotients of U(gl_N).")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("L", help="print L(z) for a partition")
    _add_common(sp, seed=False)
    sp.set_defaults(fn=_cmd_L)

    sp = sub.add_parser("check", help="run one verification")
    sp.add_argument("what", choices=("yangian", "membership", "main-lemma",
                                     "capelli", "identities", "premet"))
    _add_common(sp)
    sp.add_argument("--n", type=int, default=None,
                    help="matrix size for capelli/identities")
    sp.add_argument("--family", choices=FAMILIES, default=None,
                    help="generator family for premet (default: inferred)")
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser("generators", help="print a closed generator family")
    _add_common(sp, floor=False, seed=False)
    sp.add_argument("--family", choices=FAMILIES, default=None,
                    help="family name (default: inferred from the partition)")
    sp.set_defaults(fn=_cmd_generators)

    sp = sub.add_parser("relations", help="verify a family's commutator table")
    _add_common(sp, floor=False)
    sp.add_argument("--family", choices=FAMILIES, default=None)
    sp.set_defaults(fn=_cmd_relations)

    sp = sub.add_parser("conjecture",
                        help="rebuild L(z) from a generator table")
    _add_common(sp)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--candidates",
                       help="JSON file with a generator table")
    group.add_argument("--family", choices=FAMILIES, default=None)
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
