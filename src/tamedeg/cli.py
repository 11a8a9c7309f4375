"""Command-line interface.

Subcommands: decide, enumerate, semigroup, gallery, verify, analyze2, reduce.
Exit codes for decide: 0 Realizable, 1 NotRealizable, 2 Unknown,
3 ConditionalOnJC2; usage errors exit 64.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Optional, Sequence

from . import plane, reductions, semigroup, witness
from .classify import MAX_ENUMERATE, Status, classify, enumerate_classifications
from .maps import PolyMap, gallery, gallery_names
from .poly import MAX_EXPONENT, format_poly

EXIT_USAGE = 64

_STATUS_EXIT = {
    Status.REALIZABLE: 0,
    Status.NOT_REALIZABLE: 1,
    Status.UNKNOWN: 2,
    Status.CONDITIONAL_ON_JC2: 3,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# Built once per process: every parse_args call fills a new Namespace.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="tamedeg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # command name -> the parser its argv goes to

    p = sub.add_parser("decide", help="classify a candidate multidegree")
    p.add_argument("degrees", type=int, nargs=3, metavar="d")
    p.add_argument("--witness", action="store_true",
                   help="build and verify a witness when Realizable")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("enumerate", help="classify all triples up to a bound")
    p.add_argument("--max", type=int, required=True, dest="max_d3")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("semigroup", help="two-generator semigroup queries")
    p.add_argument("generators", type=int, nargs=2, metavar="d")
    p.add_argument("--k", type=int, default=None,
                   help="membership/decomposition query")
    p.add_argument("--gaps", action="store_true")
    p.add_argument("--min", type=int, default=0, dest="min_k")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gallery", help="named maps")
    p.add_argument("name", nargs="?")
    p.add_argument("--mdeg", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="re-verify a persisted witness file")
    p.add_argument("file")

    p = sub.add_parser("analyze2", help="decompose/invert a plane map")
    p.add_argument("--map", required=True, dest="map_file")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--decompose", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("reduce", help="bounded elementary-reduction search")
    p.add_argument("--map", required=True, dest="map_file")
    p.add_argument("--target", type=int, required=True,
                   help="1-based component index")
    p.add_argument("--degy-bound", type=int, default=4)
    p.add_argument("--deg-bound", type=int, default=12)
    p.add_argument("--json", action="store_true")
    return parser


def _read_json(path: str):
    """The JSON value in the file at ``path``; ValueError naming the file if
    it is not JSON or nests too deeply for the decoder."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{path}: {exc}") from None
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _json_text(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for the values commands print: dicts
    with str keys, lists and tuples, str, int, float, bool and None.
    ``newline`` is a line break followed by the indent of ``value``'s closing
    bracket.  CPython encodes indented JSON in pure Python; this writer makes
    the same bytes with one join per container."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return json.dumps(value)  # NaN, Infinity and -Infinity as json spells them
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_encode_str(k) + ": " + _json_text(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _cmd_decide(args) -> int:
    d1, d2, d3 = args.degrees
    if args.witness and max(args.degrees) > MAX_EXPONENT:
        # a witness file may print no exponent above MAX_EXPONENT, and the
        # build time grows about quadratically in the degree
        raise _UsageError(f"--witness needs every degree at most {MAX_EXPONENT}")
    result = classify(d1, d2, d3)
    payload = {
        "input": list(result.original),
        "sorted": list(result.sorted_mdeg),
        "status": result.status.value,
        "rule": result.rule,
        "notes": result.notes,
    }
    built = None
    if args.witness and result.witness_recipe is not None:
        built = witness.build(result.witness_recipe)
        payload["witness"] = built.to_json()
    if args.json:
        print(_json_text(payload))
    else:
        print(f"{result.sorted_mdeg}: {result.status.value} [{result.rule}]")
        for note in result.notes:
            print(f"  note: {note}")
        if built is not None:
            print(f"  witness mdeg verified: {built.verified_mdeg}")
            print(json.dumps(built.to_json()))
    return _STATUS_EXIT[result.status]


def _print_json_array(items, chunk: int = 1000) -> None:
    """Print _json_text(list(items)) without holding the list, by
    joining the inner text of the arrays of each chunk of items."""
    items = iter(items)
    sep = "[\n"
    while part := list(itertools.islice(items, chunk)):
        print(sep + _json_text(part)[2:-2], end="")
        sep = ",\n"
    print("\n]" if sep == ",\n" else "[]")


def _cmd_enumerate(args) -> int:
    if args.max_d3 < 1:
        raise _UsageError("--max must be >= 1")
    if args.max_d3 > MAX_ENUMERATE:
        raise _UsageError(f"--max must be at most {MAX_ENUMERATE}")
    counts: dict[str, int] = {}

    def rows():
        for c in enumerate_classifications(args.max_d3):
            counts[c.status.value] = counts.get(c.status.value, 0) + 1
            yield list(c.sorted_mdeg), c.status.value, c.rule, list(c.original)

    if args.format == "json":
        _print_json_array({"sorted": s, "status": status, "rule": rule, "original": orig}
                          for s, status, rule, orig in rows())
    else:
        print("d1,d2,d3,status,rule,original")
        for s, status, rule, orig in rows():
            rule_csv = rule.replace('"', "'")
            print(f'{s[0]},{s[1]},{s[2]},{status},"{rule_csv}",'
                  f'{orig[0]} {orig[1]} {orig[2]}')
    print("# " + " ".join(f"{k}={v}" for k, v in sorted(counts.items())),
          file=sys.stderr)
    return 0


def _cmd_semigroup(args) -> int:
    d1, d2 = args.generators
    pair = semigroup.SemigroupPair(d1, d2)
    payload: dict = {"d1": pair.d1, "d2": pair.d2}
    list_gaps = args.gaps or args.k is None
    if list_gaps:
        candidates = pair.gap_candidates(args.min_k)  # len() overflows past sys.maxsize
        scanned = max(candidates.stop - candidates.start, 0)
        if scanned > semigroup.MAX_GAP_SCAN:
            raise _UsageError(
                f"listing gaps would test {scanned} candidates, more than "
                f"{semigroup.MAX_GAP_SCAN}; raise --min")
    if args.k is not None:
        dec = pair.member(args.k)
        payload["k"] = args.k
        payload["member"] = dec is not None
        payload["decomposition"] = list(dec) if dec else None
    if list_gaps:
        payload["frobenius"] = pair.frobenius()
        payload["gaps"] = pair.gaps(args.min_k)
    if args.json:
        print(_json_text(payload))
    elif args.k is not None:
        dec = payload["decomposition"]
        if dec is None:
            print(f"{args.k}: not a member")
        else:
            print(f"{args.k} = {dec[0]}*{pair.d1} + {dec[1]}*{pair.d2}")
    else:
        print(",".join(str(g) for g in payload["gaps"]))
    return 0


def _cmd_gallery(args) -> int:
    if args.name is None:
        print("\n".join(gallery_names()))
        return 0
    try:
        m = gallery(args.name)
    except KeyError as exc:
        raise _UsageError(str(exc))
    if args.mdeg:
        print(" ".join(str(d) for d in m.mdeg()))
    elif args.json:
        print(_json_text(m.to_json()))
    else:
        print(m)
    return 0


def _cmd_verify(args) -> int:
    ok = witness.verify_witness_json(_read_json(args.file))
    print("OK" if ok else "MISMATCH")
    return 0 if ok else 1


def _cmd_analyze2(args) -> int:
    m = PolyMap.from_json(_read_json(args.map_file))
    try:
        dec = plane.peel(m)
    except (plane.NotKellerError, plane.PeelStuckError) as exc:
        print(f"not an automorphism: {exc}")
        return 1
    payload: dict = {
        "mdeg": list(m.mdeg()),
        "length": dec.length,
        "factor_degrees": dec.factor_degrees,
    }
    if args.inverse:
        inv = dec.inverse_map()
        payload["inverse"] = inv.to_json()
    if args.decompose:
        payload["l1"] = dec.l1.map.to_json()
        payload["factors"] = [f.map.to_json() for f in dec.factors]
        payload["l2"] = dec.l2.map.to_json()
    if args.json:
        print(_json_text(payload))
    else:
        print(f"length {dec.length}, factor degrees {dec.factor_degrees}")
        if args.inverse:
            print(f"inverse: {inv} (mdeg {inv.mdeg()})")
        if args.decompose:
            print(f"L1: {dec.l1.map}")
            for idx, f in enumerate(dec.factors, start=1):
                print(f"T{idx}: {f.map}")
            print(f"L2: {dec.l2.map}")
    return 0


def _cmd_reduce(args) -> int:
    if args.deg_bound > reductions.MAX_DEG_BOUND:
        raise _UsageError(f"--deg-bound must be at most {reductions.MAX_DEG_BOUND}")
    m = PolyMap.from_json(_read_json(args.map_file))
    if not 1 <= args.target <= 3:
        raise _UsageError("--target must be 1, 2, or 3")
    cand = reductions.bounded_reduction_search(
        m, args.target - 1, args.degy_bound, args.deg_bound)
    if cand is None:
        print(_json_text({"found": False}) if args.json
              else "not found within bounds")
        return 1
    g = format_poly(cand.g, ("X", "Y"))
    if args.json:
        print(_json_text({"found": True, "g": g, "achieved_degree": cand.achieved_degree}))
    else:
        print(f"g = {g} (reduces component {args.target} "
              f"to degree {cand.achieved_degree})")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command.  An argv that starts with a command goes to that
    command's parser, the one the top-level parser would hand it to; any
    other argv (none, ``-h``, ``--``, an unknown word) to the top level."""
    handlers = {
        "decide": _cmd_decide,
        "enumerate": _cmd_enumerate,
        "semigroup": _cmd_semigroup,
        "gallery": _cmd_gallery,
        "verify": _cmd_verify,
        "analyze2": _cmd_analyze2,
        "reduce": _cmd_reduce,
    }
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        sub = parser.commands.get(argv[0]) if argv else None
        args = (sub.parse_args(argv[1:], argparse.Namespace(command=argv[0])) if sub
                else parser.parse_args(argv))
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main_entry() -> None:
    raise SystemExit(main(argv=None))


if __name__ == "__main__":
    main_entry()
