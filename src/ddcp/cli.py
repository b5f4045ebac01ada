"""Command-line interface.

Subcommands: hom, ext, end, approximate, check, classify, audit.
Exit codes: 0 success / property holds, 1 property fails (check, audit),
2 input error, 3 report not applicable.
"""

import argparse
import json
import re
import sys

from .quiver import Algebra, InputError, ext_dim, hom_dim, is_int
from .derived import DerivedObject
from .endalg import end_of, is_hereditary, is_linear_A
from .approx import min_left_approx_sequence
from . import deciders
from .classify import enumerate_and_classify, zero_path_audit

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


def object_to_json(x):
    return {
        "n": x.alg.n,
        "summands": [
            {"a": iv.a, "b": iv.b, "shift": s} for iv, s in x.summands
        ],
    }


def object_from_json(data, n=None):
    """The object a JSON mapping names; n, a, b and shift must be JSON
    integers (not strings, floats or booleans).  The n argument, when
    given, may stand in for a missing n, but a present n must equal it."""
    if not isinstance(data, dict):
        raise InputError("object JSON must be a mapping")
    if not is_int(data.get("n", n)):
        raise InputError("object JSON needs an integer n")
    if n is None:
        n = data["n"]
    elif data.get("n", n) != n:
        raise InputError("object JSON has n = %d, expected %d" % (data["n"], n))
    alg = Algebra(n)
    summands = data.get("summands")
    if not isinstance(summands, list):
        raise InputError("object JSON needs a summand list")
    pairs = []
    for entry in summands:
        try:
            a, b, shift = entry["a"], entry["b"], entry["shift"]
        except (KeyError, TypeError) as exc:
            raise InputError("malformed summand %r: %s" % (entry, exc))
        pairs.append((alg.interval(a, b), shift))
    return DerivedObject(alg, pairs)


def integer(text):
    """An integer argument: ASCII digits with an optional minus sign, and
    nothing else (int() alone would also take '1_0', ' 1 ' and non-ASCII
    digits)."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise InputError("not an integer: %r" % text)
    return int(text)


def _parse_interval(alg, text):
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError("interval must be 'a,b', got %r" % text)
    return alg.interval(integer(parts[0]), integer(parts[1]))


def _parse_object_arg(text, n):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("invalid JSON: %s" % exc)
    return object_from_json(data, n)


def _morphism_json(f):
    return [
        {"from": k, "to": l, "scalar": str(c)}
        for (k, l), c in sorted(f.entries.items())
    ]


def cmd_dim(args):
    alg = Algebra(args.n)
    src = _parse_interval(alg, args.src)
    tgt = _parse_interval(alg, args.tgt)
    print(args.dim(alg, src, tgt))
    return EXIT_OK


def cmd_end(args):
    x = _parse_object_arg(args.object, args.n)
    algebra = end_of(x)
    out = {
        "dimension": algebra.dim,
        "basis": [list(lab) for lab in algebra.basis],
        "idempotents": list(algebra.idempotents),
        "table": [
            [list(algebra.basis[i]), list(algebra.basis[j]), list(algebra.basis[k])]
            for (i, j), k in sorted(algebra.table.items())
        ],
    }
    if algebra.is_basic():
        out["quiver_arrows"] = [list(algebra.basis[a]) for a in algebra.arrows()]
        out["hereditary"] = is_hereditary(algebra)
        out["linear_chain"] = is_linear_A(algebra)
    else:
        out["basic"] = False
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_approximate(args):
    y = _parse_object_arg(args.target, args.n)
    t = _parse_object_arg(args.wrt, args.n)
    seq = min_left_approx_sequence(y, t)
    out = {
        "y": object_to_json(y),
        "t0": object_to_json(seq.t0),
        "t1": object_to_json(seq.t1),
        "f": _morphism_json(seq.f),
        "g": _morphism_json(seq.g),
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def _module_multiset(x):
    if any(s != 0 for _, s in x.summands):
        raise InputError("module checks require all shifts to be zero")
    return x.slice(0)


# check --mode: the decider each mode runs on the parsed object
CHECKS = {
    "dcp": lambda x: deciders.check_module_dcp(x.alg, _module_multiset(x)),
    "tilting-module":
        lambda x: deciders.check_tilting_module(x.alg, _module_multiset(x)),
    "ddcp": deciders.check_ddcp,
    "ddcp-derived": deciders.check_ddcp_derived,
    "tilting": deciders.check_tilting_complex,
    "corners": deciders.verify_homology_corners,
}


def cmd_check(args):
    report = CHECKS[args.mode](_parse_object_arg(args.object, args.n))
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    if not report.applicable:
        return EXIT_PRECONDITION
    return EXIT_OK if report.verdict else EXIT_FALSE


def cmd_classify(args):
    alg = Algebra(args.n)
    result = enumerate_and_classify(alg, degree_window=args.window)
    if args.format == "json":
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
    else:
        print("n = %d, lambda = %d" % (result.n, result.lambda_count))
        for x in result.survivors:
            label = result.matched[x]
            body = " + ".join(
                "X(%d,%d)[%d]" % (iv.a, iv.b, s) for iv, s in x.summands
            )
            print("%-4s %s" % (label, body))
    return EXIT_OK


def cmd_audit(args):
    alg = Algebra(args.n)
    ok = zero_path_audit(alg, args.length)
    print("all length-%d composites vanish: %s" % (args.length, ok))
    return EXIT_OK if ok else EXIT_FALSE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ddcp",
        description=(
            "Exact computations in module and derived categories of "
            "linear-chain path algebras"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text, dim in (
        ("hom", "dimension of a Hom space of intervals", hom_dim),
        ("ext", "dimension of an Ext space of intervals", ext_dim),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--n", type=integer, required=True)
        p.add_argument("--from", dest="src", required=True, metavar="a,b")
        p.add_argument("--to", dest="tgt", required=True, metavar="c,d")
        p.set_defaults(func=cmd_dim, dim=dim)

    p = sub.add_parser("end", help="endomorphism algebra of an object")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--object", required=True, metavar="JSON")
    p.set_defaults(func=cmd_end)

    p = sub.add_parser(
        "approximate", help="minimal left approximation sequence"
    )
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--target", required=True, metavar="JSON")
    p.add_argument("--wrt", required=True, metavar="JSON")
    p.set_defaults(func=cmd_approximate)

    p = sub.add_parser("check", help="run a property decider")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--object", required=True, metavar="JSON")
    p.add_argument("--mode", required=True, choices=list(CHECKS))
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="enumerate all qualifying objects")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--window", type=integer, default=2)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("audit", help="audit vanishing of long composites")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--length", type=integer, required=True)
    p.set_defaults(func=cmd_audit)

    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments, which matches the input-error code
        return exc.code if exc.code else EXIT_OK
    try:
        return args.func(args)
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
