"""Command line interface.

``ccckit run --family iet --seed 7 --format json`` runs one family battery
and prints a deterministic report; ``ccckit list`` enumerates the families
and the parameters each declares in ``suites.FAMILIES``, of which only the
flags given are passed on.
Exit codes: 0 all checks pass, 1 verification failure, 2 unknown family or
invalid parameters (a flag the family does not take, or a value outside its
domain), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from .core import CcckitError
from .suites import FAMILIES, run_family

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_UNKNOWN_FAMILY = 2
EXIT_IO_FAILURE = 3

PARAMETERS = dict.fromkeys(name for battery in FAMILIES.values() for name in battery.params)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call, which is main's first
    call and not the import, and shared after it.  parse_args keeps no
    state between calls: each returns a fresh namespace, and the family
    flags default to SUPPRESS."""
    parser = argparse.ArgumentParser(prog="ccckit",
                                     description="exact commutation witness batteries")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one family battery")
    run_p.add_argument("--family", required=True)
    for name in PARAMETERS:
        run_p.add_argument(f"--{name}", type=int, default=argparse.SUPPRESS, help="see `ccckit list`")
    run_p.add_argument("--seed", type=int, default=None,
                       help="default: CCCKIT_SEED env var, else 0")
    run_p.add_argument("--format", choices=("json", "text"), default="text")
    run_p.add_argument("--out", default=None, help="write the report here instead of stdout")

    sub.add_parser("list", help="list available families")
    return parser


# One check record as json.dumps(report, sort_keys=True, indent=2) lays it
# out inside the report: keys sorted, record at depth 2 of the indent.
_CHECK_JSON = ('    {\n      "detail": %s,\n      "lhs": %s,\n      "name": %s,\n'
               '      "rhs": %s,\n      "status": %s\n    }')


def render_json(report: dict) -> str:
    """json.dumps(report, sort_keys=True, indent=2) + "\\n", for a report
    of run_family's shape.

    json's indenting encoder runs in Python, one call per token.  The check
    records are nearly all of a report and have five fixed str fields, so
    each is written from _CHECK_JSON with the C string encoder that
    json.dumps applies to a str; json.dumps writes only the head around
    them."""
    head = json.dumps({**report, "checks": []}, sort_keys=True, indent=2)
    if not report["checks"]:
        return head + "\n"
    body = ",\n".join(
        _CHECK_JSON % (encode_basestring_ascii(c["detail"]), encode_basestring_ascii(c["lhs"]),
                       encode_basestring_ascii(c["name"]), encode_basestring_ascii(c["rhs"]),
                       encode_basestring_ascii(c["status"]))
        for c in report["checks"])
    # a raw newline and two spaces open a top-level key; strings escape
    # their newlines, so this matches the one "checks" key and nothing else
    return head.replace('\n  "checks": []', '\n  "checks": [\n' + body + "\n  ]", 1) + "\n"


def render_text(report: dict) -> str:
    lines = [f"family: {report['family']}",
             f"params: {json.dumps(report['params'], sort_keys=True)}",
             f"seed: {report['seed']}"]
    n_pass = sum(1 for c in report["checks"] if c["status"] == "pass")
    for c in report["checks"]:
        mark = "ok " if c["status"] == "pass" else "FAIL"
        detail = f"  ({c['detail']})" if c["detail"] else ""
        lines.append(f"  [{mark}] {c['name']}: {c['lhs']} = {c['rhs']}{detail}")
    lines.append(f"{n_pass}/{len(report['checks'])} checks passed"
                 + ("  [bounded]" if report["bounded"] else ""))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list":
        for name, battery in FAMILIES.items():
            params = "  ".join(f"--{p} {default} ({battery.domain(p)})"
                               for p, (default, _, _) in battery.params.items())
            print(f"{name:13s} {battery.description}\n{'':13s} {params}")
        return EXIT_OK

    if args.family not in FAMILIES:
        print(f"unknown family {args.family!r}; run `ccckit list`", file=sys.stderr)
        return EXIT_UNKNOWN_FAMILY

    seed = args.seed
    if seed is None:
        env_seed = os.environ.get("CCCKIT_SEED", "0")
        try:
            seed = int(env_seed)
        except ValueError:
            print(f"cannot run family {args.family!r}: CCCKIT_SEED={env_seed!r} is not an integer",
                  file=sys.stderr)
            return EXIT_UNKNOWN_FAMILY

    try:
        report = run_family(args.family, seed=seed,
                            **{p: v for p, v in vars(args).items() if p in PARAMETERS})
    except (ValueError, KeyError, CcckitError) as exc:
        print(f"cannot run family {args.family!r}: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_FAMILY

    if args.format == "json":
        payload = render_json(report)
    else:
        payload = render_text(report)

    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"cannot write {args.out!r}: {exc}", file=sys.stderr)
            return EXIT_IO_FAILURE
    else:
        sys.stdout.write(payload)

    ok = all(c["status"] == "pass" for c in report["checks"])
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILURE


if __name__ == "__main__":
    sys.exit(main())
