"""Command line surface: verify, search, refute, patterns, multifold, repro.

Exit codes: 0 success or positive verdict, 1 negative verdict, 2 input
error (bad file, unknown id, malformed certificate), 3 budget exhausted
before a verdict was reached.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .catalog import CatalogInvalid, UnknownId, open_catalog
from .certify import MalformedCertificate, load_json, to_dict
from .driver import RecipeInvalid, multifold, repro, run_refutation, run_search
from .group import ElementNotInGroup, OrderCapExceeded
from .patterns import enumerate_reversal_classes, palindrome_count, word_count
from .search import CAP_GENERIC, AnchorInvalid, refute

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

# ``patterns`` factors the order and builds no table, so it takes orders
# past the table cap ``group.MAX_ORDER``.
PATTERNS_MAX_ORDER = 10_000

_INPUT_ERRORS = (
    UnknownId, CatalogInvalid, MalformedCertificate, RecipeInvalid,
    AnchorInvalid, OrderCapExceeded, ValueError, OSError,
)


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _word(pattern) -> str:
    return ",".join(str(m) for m in pattern)


def _format_factors(factor_texts: list[list[str]]) -> str:
    return " * ".join("{" + ", ".join(f) + "}" for f in factor_texts)


def cmd_verify(args: argparse.Namespace) -> int:
    """Re-verify a certificate from a file, stdin ("-") or a catalog id."""
    if args.target == "-":
        cert = load_json(sys.stdin.read())
    elif os.path.exists(args.target):
        with open(args.target, encoding="utf-8") as fh:
            cert = load_json(fh.read())
    else:
        cert = open_catalog(args.catalog).certificate(args.target)
    verdict = cert.verify()
    if args.json:
        _print_json({
            "command": "verify",
            "version": __version__,
            "target": args.target,
            "valid": verdict.valid,
            "pattern": list(cert.pattern),
            "product_size": verdict.product_size,
            "message": verdict.message,
            "certificate": to_dict(cert),
        })
    else:
        status = "VALID" if verdict.valid else "INVALID"
        print(f"{status} pattern ({_word(cert.pattern)}) in a group of order {cert.group.order}")
        if verdict.message:
            print("  " + verdict.message)
        print("  " + _format_factors(to_dict(cert)["factors"]))
    return EXIT_OK if verdict.valid else EXIT_NEGATIVE


def cmd_search(args: argparse.Namespace) -> int:
    cat = open_catalog(args.catalog)
    res = run_search(cat, args.search_id, threads=args.threads, budget_s=args.budget, with_solutions=True)
    if args.json:
        _print_json({"command": "search", "version": __version__, **res})
    else:
        print(f"{res['id']}: engine {res['engine']}, pattern ({_word(res['pattern'])})")
        for name, chk in sorted(res["checks"].items()):
            print(f"  {name}: {chk['got']} (want {chk['want']})")
        sols = res.get("solutions", [])
        for sol in sols[:10]:
            print("  " + _format_factors(sol["factors"]))
        if len(sols) > 10:
            print(f"  ... {len(sols) - 10} more (use --json for the full list)")
        print("PASS" if res["pass"] else "FAIL")
    if res["pass"]:
        return EXIT_OK
    return EXIT_BUDGET if res["budget_hit"] else EXIT_NEGATIVE


def cmd_refute(args: argparse.Namespace) -> int:
    cat = open_catalog(args.catalog)
    if args.pattern is None:
        res = run_refutation(cat, args.target, budget_s=args.budget,
                             cap_generic=args.cap_generic, strategy=args.strategy)
        if args.json:
            _print_json({"command": "refute", "version": __version__, **res})
        else:
            print(f"{res['id']}: pattern ({_word(res['pattern'])}) verdict {res['verdict']} "
                  f"(want {res['expected']}), strategy {res['strategy']}, "
                  f"{res['instances']} instances")
        if res["verdict"] == "UNKNOWN":
            return EXIT_BUDGET
        return EXIT_OK if res["pass"] else EXIT_NEGATIVE

    group = cat.group(args.target)
    pattern = tuple(int(m) for m in args.pattern.split(","))
    rec = refute(group, pattern, budget_s=args.budget,
                 cap_generic=args.cap_generic, strategy=args.strategy or "auto")
    payload = {"command": "refute", "version": __version__, "group": args.target, **rec.as_dict()}
    if rec.certificate is not None:
        payload["certificate"] = to_dict(rec.certificate)
    if args.json:
        _print_json(payload)
    else:
        print(f"{rec.verdict}: pattern ({_word(rec.pattern)}) in {args.target}, "
              f"strategy {rec.strategy}, {rec.instances_examined} instances examined")
        if rec.certificate is not None:
            print("  " + _format_factors(to_dict(rec.certificate)["factors"]))
    if rec.verdict == "NONE":
        return EXIT_OK
    if rec.verdict == "FOUND":
        return EXIT_NEGATIVE
    return EXIT_BUDGET


def cmd_patterns(args: argparse.Namespace) -> int:
    """Plan the feasible prime words for a group order or catalog group id."""
    try:
        order = int(args.target)
    except ValueError:
        order = open_catalog(args.catalog).group(args.target).order
    if not 1 <= order <= PATTERNS_MAX_ORDER:
        raise ValueError(f"group order must be in 1..{PATTERNS_MAX_ORDER}")
    classes = enumerate_reversal_classes(order)
    if args.json:
        _print_json({
            "command": "patterns",
            "version": __version__,
            "order": order,
            "words": word_count(order),
            "palindromes": palindrome_count(order),
            "classes": [list(w) for w in classes],
        })
    else:
        print(f"order {order}")
        print(f"prime words      {word_count(order)}")
        print(f"palindromes      {palindrome_count(order)}")
        print(f"reversal classes {len(classes)}")
        for w in classes:
            print("  " + _word(w))
    return EXIT_OK


def cmd_multifold(args: argparse.Namespace) -> int:
    cat = open_catalog(args.catalog)
    rep = multifold(cat, args.group_id, cap_generic=args.cap_generic,
                    budget_s=args.budget)
    if args.json:
        _print_json({"command": "multifold", "version": __version__, **rep.as_dict()})
    else:
        print(f"{rep.group_id} (order {rep.order}): {rep.verdict}, "
              f"{rep.certified_count}/{len(rep.classes)} classes certified")
        for c in rep.classes:
            mark = "ok" if c.certified else "--"
            note = f"  ({c.note})" if c.note else ""
            print(f"  {mark} {_word(c.word):<16} {c.method}{note}")
    if rep.verdict == "MULTIFOLD-CERTIFIED":
        return EXIT_OK
    if any(c.note == "budget exhausted" for c in rep.classes):
        return EXIT_BUDGET
    return EXIT_NEGATIVE


def cmd_repro(args: argparse.Namespace) -> int:
    cat = open_catalog(args.catalog)
    res = repro(cat, scope=args.scope, threads=args.threads)
    if args.json:
        _print_json({"command": "repro", "version": __version__, **res})
    else:
        width = max(len(r["id"]) for r in res["rows"])
        for r in res["rows"]:
            print(f"{r['status']:<4} {r['id']:<{width}}  {r['detail']}  ({r['wall_s']}s)")
        n_pass = sum(1 for r in res["rows"] if r["status"] == "PASS")
        print(f"{n_pass}/{len(res['rows'])} PASS")
    return EXIT_OK if res["pass"] else EXIT_NEGATIVE


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text}")
    return value


def _seconds(text: str) -> float:
    """A budget in seconds: zero or more, so neither negative nor NaN."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative number of seconds: {text}")
    return value


# The flags beyond --catalog and --json, each added only to the subcommands
# that read it.
_FLAGS: dict[str, dict] = {
    "--threads": dict(type=_positive_int, default=os.cpu_count() or 1, metavar="N",
                      help="forked worker processes for a case2 search (default: all cores)"),
    "--budget": dict(type=_seconds, default=None, metavar="SECONDS",
                     help="wall clock budget, overriding any catalog default"),
    "--cap-generic": dict(type=int, default=CAP_GENERIC, metavar="N",
                          help="largest group order refute and multifold give the generic engine"),
    "--strategy": dict(choices=("auto", "generic", "reduction"), default=None,
                       help="refutation strategy, overriding any catalog entry's (default: the "
                            "entry's, else auto)"),
}


def _add_flags(sub: argparse.ArgumentParser, *flags: str) -> None:
    sub.add_argument("--catalog", metavar="PATH", default=None,
                     help="catalog file (default: $FACTORIX_CATALOG or the bundled one)")
    sub.add_argument("--json", action="store_true", help="machine readable report (default: plain text)")
    for flag in flags:
        sub.add_argument(flag, **_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorix",
        description="Verify, search for, refute and count multiset factorizations "
                    "of finite permutation groups.",
    )
    parser.add_argument("--version", action="version", version=f"factorix {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify", help="re-verify a certificate (file, '-', or catalog id)")
    p.add_argument("target", help="certificate JSON file, '-' for stdin, or a catalog id")
    _add_flags(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("search", help="run a catalog search and check its expectations")
    p.add_argument("search_id", help="catalog search id")
    _add_flags(p, "--threads", "--budget")
    p.set_defaults(func=cmd_search)

    p = subs.add_parser("refute", help="show a pattern admits no factorization")
    p.add_argument("target", help="catalog refutation id, or a group id with PATTERN")
    p.add_argument("pattern", nargs="?", default=None,
                   help="comma separated sizes, e.g. 2,3,2 (ad hoc mode)")
    _add_flags(p, "--budget", "--cap-generic", "--strategy")
    p.set_defaults(func=cmd_refute)

    p = subs.add_parser("patterns", help="count and list the feasible prime words")
    p.add_argument("target", help="group order, or a catalog group id")
    _add_flags(p)
    p.set_defaults(func=cmd_patterns)

    p = subs.add_parser("multifold", help="certify one factorization per reversal class")
    p.add_argument("group_id", help="catalog group id")
    _add_flags(p, "--budget", "--cap-generic")
    p.set_defaults(func=cmd_multifold)

    p = subs.add_parser("repro", help="replay catalog expectations as a PASS/FAIL table")
    p.add_argument("scope", nargs="?", default="all",
                   help="'all', a row id, or a dash-token subset such as 'lemma-4.5'")
    _add_flags(p, "--threads")
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnknownId as exc:
        print(f"factorix: unknown catalog id: {exc.args[0]}", file=sys.stderr)
        return EXIT_INPUT
    except ElementNotInGroup as exc:
        print(f"factorix: element not in the declared group: {exc.args[0]}", file=sys.stderr)
        return EXIT_INPUT
    except _INPUT_ERRORS as exc:
        print(f"factorix: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
